"""Superselection-sector bookkeeping for finite-group double models.

Bulk sectors are (conjugacy class, centralizer irrep) pairs.  A boundary
is a subgroup K up to conjugation; its condensate is the set of bulk
sectors that terminate on it, with multiplicities read off from the left
translation action on admissible cosets.  Point defects between two
boundaries are (double coset, stabilizer irrep) pairs, and the point
excitations of one K boundary are its K-K defects.  All censuses are
validated against exact sum rules before they are returned, and every
condensate against the modular rule W S = W, decided without building S
from integer fixed-coset counts.  numpy is imported only where S is the
result: `s_matrix`, and the float S and fusion table of `AbelianAnyonData`,
whose exact S phases need no matrix.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import isqrt, lcm
from operator import mul
from typing import TYPE_CHECKING, Optional, Sequence

from qdw.groups import (
    FiniteGroup,
    InvariantError,
    Subgroup,
    character_table,
    double_cosets,
    is_automorphism,
    subgroup_conjugacy_classes,
)
from qdw.records import FrozenRecord, Record

if TYPE_CHECKING:
    import numpy as np

__all__ = [
    "AnyonLabel",
    "AnyonTable",
    "anyon_table",
    "s_matrix",
    "BoundaryType",
    "boundary_types",
    "LagrangianAlgebra",
    "lagrangian_algebra",
    "BoundaryExcitation",
    "boundary_excitations",
    "Defect",
    "defect_list",
    "qudit_dimension",
    "condensate_count",
    "AbelianAnyonData",
    "abelian_anyon_data",
    "SymmetryAction",
    "symmetry_action",
]

TOL = 1e-9


class AnyonLabel(FrozenRecord):
    """One bulk sector: flux class index plus centralizer irrep index."""
    _fields = __slots__ = ("class_index", "irrep_index", "name", "dim", "twist")

    def __init__(self, class_index: int, irrep_index: int, name: str, dim: int,
                 twist: complex):
        super().__init__(class_index, irrep_index, name, dim, twist)

    def key(self) -> tuple[int, int]:
        return (self.class_index, self.irrep_index)


class AnyonTable:
    """Complete bulk sector census for one group, in canonical order.

    Order: conjugacy classes by smallest member, then centralizer irreps
    in character-table row order.  Index 0 is always the vacuum.
    """

    def __init__(self, group: FiniteGroup):
        self.group = group
        self.classes = group.conjugacy_classes()
        self.centralizer_tables = []
        self.anyons: list[AnyonLabel] = []
        self._index: dict[tuple[int, int], int] = {}
        for ci, cl in enumerate(self.classes):
            sub, to_parent = cl.centralizer.as_group()
            table = character_table(cl.centralizer)
            self.centralizer_tables.append(table)
            r_local = to_parent.index(cl.rep)
            for pi in range(table.n_irreps):
                d = cl.size * table.dims[pi]
                theta = complex(table.value(pi, r_local)) / table.dims[pi]
                if abs(abs(theta) - 1.0) > 1e-6:
                    raise InvariantError(f"twist of sector C{ci}-pi{pi} is not unimodular")
                label = AnyonLabel(class_index=ci, irrep_index=pi,
                                   name=f"C{ci}-pi{pi}", dim=d, twist=theta)
                self._index[label.key()] = len(self.anyons)
                self.anyons.append(label)
        total = sum(a.dim ** 2 for a in self.anyons)
        if total != group.order ** 2:
            raise InvariantError(
                f"sector dimensions sum to {total}, expected {group.order ** 2}")

    def __len__(self) -> int:
        return len(self.anyons)

    def index_of(self, class_index: int, irrep_index: int) -> int:
        return self._index[(class_index, irrep_index)]

    @cached_property
    def transporter(self) -> list[int]:
        """x_g for each element g: the first x with x r x^-1 = g, r the rep of g's class."""
        group = self.group
        out: list = [None] * group.order
        for cl in self.classes:
            for x in range(group.order):
                g = group.conj(x, cl.rep)
                if out[g] is None:
                    out[g] = x
        return out

    @cached_property
    def centralizer_reps(self) -> list[list[int]]:
        """Per flux class: the representative of each class of its centralizer."""
        out = []
        for cl in self.classes:
            sub, to_parent = cl.centralizer.as_group()
            out.append([to_parent[scl.rep] for scl in sub.conjugacy_classes()])
        return out

    @cached_property
    def local_class(self) -> list[dict[int, int]]:
        """Per flux class: each centralizer element's class index in the centralizer."""
        out = []
        for cl in self.classes:
            sub, to_parent = cl.centralizer.as_group()
            out.append({x: sub.class_index_of(i) for i, x in enumerate(to_parent)})
        return out


def anyon_table(group: FiniteGroup) -> AnyonTable:
    if "anyon_table" not in group._cache:
        group._cache["anyon_table"] = AnyonTable(group)
    return group._cache["anyon_table"]


def s_matrix(group: FiniteGroup) -> np.ndarray:
    """The modular S matrix of D(G) over `anyon_table(group)`, cached per group.

    Built only where S is itself the result; the condensate rule W S = W
    is decided without it (`_fixed_by_s`).

    S[(A,a),(B,b)] = 1/|G| sum over commuting g in A, h in B of
    conj chi_a(x_g^-1 h x_g) conj chi_b(x_h^-1 g x_h), where x_g r_A x_g^-1 = g
    for the class representative r_A (Coste, Gannon and Ruelle, "Finite
    group modular data", 2000).  The value does not depend on the choice
    of x_g, because chi_a is a class function of the centralizer of r_A.
    Raises InvariantError unless S is unitary and symmetric with
    S[0, 0] = 1/|G|.
    """
    if "s_matrix" not in group._cache:
        group._cache["s_matrix"] = _build_s_matrix(anyon_table(group))
    return group._cache["s_matrix"]


def _build_s_matrix(table: AnyonTable) -> np.ndarray:
    import numpy as np

    group = table.group
    n = group.order
    class_of = [group.class_index_of(g) for g in range(n)]
    transporter, columns = table.transporter, table.local_class
    # character columns of every commuting pair, grouped by class pair
    pairs: dict[tuple[int, int], tuple[list[int], list[int]]] = {}
    for g in range(n):
        for h in range(n):
            if group.mul(g, h) != group.mul(h, g):
                continue
            a, b = class_of[g], class_of[h]
            cols_a, cols_b = pairs.setdefault((a, b), ([], []))
            cols_a.append(columns[a][group.conj(group.inv[transporter[g]], h)])
            cols_b.append(columns[b][group.conj(group.inv[transporter[h]], g)])
    start = [table.index_of(ci, 0) for ci in range(len(table.classes))]
    m = len(table)
    s = np.zeros((m, m), dtype=complex)
    for (a, b), (cols_a, cols_b) in pairs.items():
        x = table.centralizer_tables[a].chars[:, None, cols_a]
        y = table.centralizer_tables[b].chars[None, :, cols_b]
        # conj(x y), each real product rounded on its own as in Python's
        # complex product, so an abelian S is the closed form to the bit
        block = np.empty((x.shape[0], y.shape[1], len(cols_a)), dtype=complex)
        block.real = x.real * y.real - x.imag * y.imag
        block.imag = -(x.real * y.imag + x.imag * y.real)
        s[start[a]:start[a] + x.shape[0], start[b]:start[b] + y.shape[1]] = \
            block.sum(axis=2) / n
    if not np.allclose(s @ np.conj(s.T), np.eye(m), rtol=0, atol=TOL):
        raise InvariantError("sector S matrix is not unitary")
    if not np.allclose(s, s.T, rtol=0, atol=TOL):
        raise InvariantError("sector S matrix is not symmetric")
    if abs(s[0, 0] - 1 / n) > TOL:
        raise InvariantError(f"sector S matrix has S00 = {s[0, 0]}, expected 1/{n}")
    return s


# ---------------------------------------------------------------------------
# boundaries


class BoundaryType(FrozenRecord):
    """A conjugacy class of subgroups; `rep` is the canonical representative."""
    _fields = __slots__ = ("rep", "members")

    def __init__(self, rep: Subgroup, members: tuple[Subgroup, ...]):
        super().__init__(rep, members)

    @property
    def order(self) -> int:
        return self.rep.order


def boundary_types(group: FiniteGroup) -> list[BoundaryType]:
    """Distinct boundary types, one per subgroup conjugacy class."""
    # each class is sorted by elements, so its first member is the canonical key
    return [BoundaryType(rep=members[0], members=tuple(members))
            for members in subgroup_conjugacy_classes(group)]


class LagrangianAlgebra:
    """Condensate of one boundary: per-sector multiplicities.

    The multiplicity of sector (C, pi) counts copies of pi inside the
    permutation action of the flux centralizer on cosets xK whose
    base-point flux x^-1 r x lands in K.
    """

    def __init__(self, table: AnyonTable, boundary: Subgroup):
        self.table = table
        self.boundary = boundary
        self.multiplicities: list[int] = []
        psi = _fixed_coset_counts(table, boundary)
        for ct, counts in zip(table.centralizer_tables, psi):
            self.multiplicities.extend(ct.multiplicities(counts))
        self._validate(psi)

    def _validate(self, psi: Sequence[Sequence[int]]) -> None:
        """The condensate rules; `psi` holds the class functions of the
        multiplicities, one per flux class (`_fixed_by_s`)."""
        anyons = self.table.anyons
        if self.multiplicities[0] != 1:
            raise InvariantError("vacuum multiplicity in a condensate must be 1")
        weighted = sum(m * a.dim for m, a in zip(self.multiplicities, anyons))
        if weighted != self.table.group.order:
            raise InvariantError(
                f"condensate dimension {weighted} != group order {self.table.group.order}")
        for m, a in zip(self.multiplicities, anyons):
            if m > 0 and abs(a.twist - 1.0) > TOL:
                raise InvariantError(f"condensed sector {a.name} has twist {a.twist}")
        if not _fixed_by_s(self.table, psi):
            raise InvariantError("condensate is not fixed by S: W S != W")


def _fixed_coset_counts(table: AnyonTable, boundary: Subgroup) -> list[list[int]]:
    """psi_A for each flux class A: on each class of Z(r_A), the number of
    admissible cosets xK (those with x^-1 r_A x in K) its representative fixes."""
    group = table.group
    cosets = boundary.left_cosets()
    member_to_coset = {}
    for idx, c in enumerate(cosets):
        for m in c:
            member_to_coset[m] = idx
    out = []
    for cl, reps in zip(table.classes, table.centralizer_reps):
        admissible = [idx for idx, c in enumerate(cosets)
                      if group.conj(group.inv[c[0]], cl.rep) in boundary]
        out.append([sum(1 for idx in admissible
                        if member_to_coset[group.mul(g, cosets[idx][0])] == idx)
                    for g in reps])
    return out


def _fixed_by_s(table: AnyonTable, psi: Sequence[Sequence[int]]) -> bool:
    """Whether W S = W, decided without S, from the class functions psi_A.

    psi_A = sum_a W_(A,a) chi_a is a class function of Z(r_A), given by
    its values on the classes of Z(r_A).  Let phi_B(g) = psi_[g](x_g^-1 r_B x_g)
    for g in Z(r_B), with x_g as in `s_matrix`.  Summing S of `s_matrix`
    against W gives (W S)_(B,b) = <phi_B, chi_b> over Z(r_B), so W S = W
    exactly when phi_B = psi_B on every class of every Z(r_B).  For a
    condensate psi_A is the count of fixed admissible cosets, so this
    compares integers.
    """
    group = table.group
    for b, cl in enumerate(table.classes):
        for g, value in zip(table.centralizer_reps[b], psi[b]):
            a = group.class_index_of(g)
            y = group.conj(group.inv[table.transporter[g]], cl.rep)
            if psi[a][table.local_class[a][y]] != value:
                return False
    return True


def lagrangian_algebra(group: FiniteGroup, boundary: Subgroup) -> LagrangianAlgebra:
    """The condensate of a K boundary, built once and kept on the subgroup K."""
    if boundary.group is not group:
        raise ValueError("boundary subgroup belongs to a different group")
    if "lagrangian" not in boundary._cache:
        boundary._cache["lagrangian"] = LagrangianAlgebra(anyon_table(group), boundary)
    return boundary._cache["lagrangian"]


# ---------------------------------------------------------------------------
# boundary excitations and defects


class BoundaryExcitation(FrozenRecord):
    """Point excitation on a K boundary: double coset plus stabilizer irrep."""
    _fields = __slots__ = ("coset_index", "irrep_index", "name", "dim")

    def __init__(self, coset_index: int, irrep_index: int, name: str, dim: int):
        super().__init__(coset_index, irrep_index, name, dim)


def boundary_excitations(boundary: Subgroup) -> list[BoundaryExcitation]:
    """Excitations of one K boundary: its K-K defects, whose quantum dimensions are integers."""
    out = []
    for d in defect_list(boundary, boundary):
        dim = isqrt(d.dim_squared.numerator)
        if d.dim_squared != dim * dim:
            raise InvariantError("boundary excitation dimension is not an integer")
        out.append(BoundaryExcitation(coset_index=d.coset_index, irrep_index=d.irrep_index,
                                      name=d.name, dim=dim))
    return out


class Defect(FrozenRecord):
    """Domain-wall point defect between two boundary conditions."""
    _fields = __slots__ = ("coset_index", "irrep_index", "name", "dim_squared", "dim")

    def __init__(self, coset_index: int, irrep_index: int, name: str,
                 dim_squared: Fraction, dim: float):
        super().__init__(coset_index, irrep_index, name, dim_squared, dim)


def defect_list(k1: Subgroup, k2: Subgroup) -> list[Defect]:
    """Defects between a K1 and a K2 boundary; sum of dim^2 is exactly |G|."""
    group = k1.group
    out = []
    denom = k1.order * k2.order
    for ti, dc in enumerate(double_cosets(k1, k2)):
        ct = character_table(dc.stabilizer)
        for ri in range(ct.n_irreps):
            d2 = Fraction(ct.dims[ri] ** 2 * dc.size ** 2, denom)
            out.append(Defect(coset_index=ti, irrep_index=ri,
                              name=f"T{ti}-R{ri}", dim_squared=d2,
                              dim=float(d2) ** 0.5))
    total = sum(x.dim_squared for x in out)
    if total != group.order:
        raise InvariantError(f"defect dimensions sum to {total}, expected {group.order}")
    return out


def condensate_count(group: FiniteGroup, chi: int, boundaries: Sequence[Subgroup]) -> int:
    """Ground states of a surface of Euler characteristic chi with one boundary
    circle per K in `boundaries`: sum over sectors x of (d_x/|G|)^chi prod_K W_{K,x}.

    That is the modular sum of S_0x^chi prod_K (W_K S)_x (Cong, Cheng and Wang,
    arXiv 1707.04564), as S_0x = d_x/|G| and every condensate has W S = W.  Summed
    exactly, in integers over one denominator; InvariantError unless integral."""
    n, anyons = group.order, anyon_table(group).anyons
    if chi >= 0:
        den, terms = n ** chi, [a.dim ** chi for a in anyons]
    else:   # (|G|/d_x)^-chi over the lcm of the d_x^-chi
        den = lcm(*(a.dim ** -chi for a in anyons))
        terms = [n ** -chi * den // a.dim ** -chi for a in anyons]
    for k in boundaries:
        terms = map(mul, terms, lagrangian_algebra(group, k).multiplicities)
    total = sum(terms)
    if total % den:
        raise InvariantError(f"condensate sum {total}/{den} is not an integer")
    return total // den


def qudit_dimension(group: FiniteGroup, k1: Subgroup, k2: Subgroup) -> int:
    """Ground-state count of a strip with boundary K1 on one side, K2 on the other.

    Computed two independent ways (`condensate_count` at chi = 0, the
    condensate overlap; double-coset stabilizer class count) which must agree.
    """
    overlap = condensate_count(group, 0, (k1, k2))
    by_cosets = sum(len(dc.stabilizer.as_group()[0].conjugacy_classes())
                    for dc in double_cosets(k1, k2))
    if overlap != by_cosets:
        raise InvariantError(
            f"strip count mismatch: condensate overlap {overlap}, coset route {by_cosets}")
    return overlap


# ---------------------------------------------------------------------------
# abelian shortcut data


class AbelianAnyonData(Record):
    """Closed-form sector data for an abelian group.

    `s_phases` is exact.  The float `s_matrix` and the `fusion` table are
    built on first access, so a caller that reads only the phases never
    imports numpy.  `charges` lists (flux, irrep) per sector.  There are no
    `__slots__`, because the cached properties live in the instance dict.
    """
    _fields = ("group", "table", "charges")

    def __init__(self, group: FiniteGroup, table: AnyonTable,
                 charges: Optional[list[tuple[int, int]]] = None):
        super().__init__(group, table, [] if charges is None else charges)

    @cached_property
    def s_phases(self) -> list[list[int]]:
        """k[a][b] with S_ab = exp(-2 pi i k[a][b] / n) / n, from the exact spectra.

        Every centralizer is G and every class one element g_a, so S_ab =
        conj(chi_a(g_b) chi_b(g_a)) / n, as `s_matrix` sums it.  chi_a at an
        element of order o is zeta_o^s, s its spectrum, which is w^(s n/o).
        """
        table, n = self.table, self.group.order
        flux = [table.classes[ci].rep for ci, _ in self.charges]
        chi = []   # chi[a][x]: the exponent of chi_a(x) in powers of w
        for ci, irrep in self.charges:
            centralizer, local = table.centralizer_tables[ci], table.local_class[ci]
            chi.append([centralizer.spectra[irrep][local[x]][0]
                        * (n // centralizer.orders[local[x]]) for x in range(n)])
        return [[(chi_a[g_b] + chi_b[g_a]) % n for chi_b, g_b in zip(chi, flux)]
                for chi_a, g_a in zip(chi, flux)]

    @cached_property
    def s_matrix(self) -> np.ndarray:
        return s_matrix(self.group)

    @cached_property
    def fusion(self) -> np.ndarray:
        """fusion[a, b] = index of a x b."""
        import numpy as np

        group, table = self.group, self.table
        ct = character_table(group)
        # irrep_product[qa, qb] is the row equal to the product of rows qa and qb:
        # every irrep is linear, so exponents add at each class
        k = ct.n_irreps
        row_index = {tuple(row): q for q, row in enumerate(ct.spectra)}
        irrep_product = np.array([[row_index[tuple(
            ((sa[0] + sb[0]) % o,) for sa, sb, o in zip(ct.spectra[qa], ct.spectra[qb], ct.orders))]
            for qb in range(k)] for qa in range(k)], dtype=np.int64)
        index = np.array([[table.index_of(g, q) for q in range(k)]
                          for g in range(group.order)], dtype=np.int64)
        flux = np.array([g for g, _ in self.charges], dtype=np.int64)
        charge = np.array([q for _, q in self.charges], dtype=np.int64)
        return index[group.table[flux[:, None], flux[None, :]],
                     irrep_product[charge[:, None], charge[None, :]]]


def abelian_anyon_data(group: FiniteGroup) -> AbelianAnyonData:
    """Exact S phases, float S matrix (from `s_matrix`) and fusion table of an
    abelian group's sectors; the last two are built when first read."""
    if not group.is_abelian:
        raise ValueError("closed-form sector data needs an abelian group")
    table = anyon_table(group)
    charges = [(a.class_index, a.irrep_index) for a in table.anyons]
    # flux class i is the singleton {i} for abelian groups
    for g, q in charges:
        if table.classes[g].members != (g,):
            raise InvariantError("abelian conjugacy classes must be singletons")
    return AbelianAnyonData(group=group, table=table, charges=charges)


# ---------------------------------------------------------------------------
# global symmetry action


class SymmetryAction:
    """How a group automorphism permutes bulk sectors and boundaries."""

    def __init__(self, table: AnyonTable, phi: Sequence[int]):
        group = table.group
        p = tuple(int(x) for x in phi)
        if not is_automorphism(group, p):
            raise ValueError("the supplied map is not an automorphism")
        self.table = table
        self.phi = p
        inv = [0] * group.order
        for x, y in enumerate(p):
            inv[y] = x
        self.phi_inv = tuple(inv)
        self.anyon_permutation = self._permute_anyons()
        for a, b in enumerate(self.anyon_permutation):
            src, dst = table.anyons[a], table.anyons[b]
            if src.dim != dst.dim or abs(src.twist - dst.twist) > 1e-6:
                raise InvariantError("sector transport must preserve dimension and twist")

    def _permute_anyons(self) -> list[int]:
        """Target sector of each sector, matched one flux class at a time.

        phi carries class C to C' = [phi(rep)] and the centralizer of rep
        onto that of phi(rep), which conjugation by x^-1, x the transporter
        of phi(rep), takes to the centralizer of rep' (the rep of C').  An
        irrep of the source centralizer goes to the target irrep whose
        character, on each target class, equals the source character at the
        preimage; the values are compared exactly, as eigenvalue exponents
        at elements of equal order.  The preimages depend only on the
        class, so all irreps of a class are matched in one lookup, and
        classes that share both tables and preimage columns (every class of
        an abelian group) share it.
        """
        table, group = self.table, self.table.group
        perm = [0] * len(table.anyons)
        matches: dict[tuple, list[int]] = {}
        targets: dict[int, dict[tuple, int]] = {}
        for ci, cl in enumerate(table.classes):
            r2 = self.phi[cl.rep]
            ci2 = group.class_index_of(r2)
            x, local = table.transporter[r2], table.local_class[ci]
            # source class of each target class's preimage
            cols = []
            for y in table.centralizer_reps[ci2]:
                col = local.get(self.phi_inv[group.conj(x, y)])
                if col is None:
                    raise InvariantError("transport left the source centralizer")
                cols.append(col)
            source, target = table.centralizer_tables[ci], table.centralizer_tables[ci2]
            key = (id(source), id(target), tuple(cols))
            if key not in matches:
                if ci2 not in targets:
                    targets[ci2] = {tuple(row): q for q, row in enumerate(target.spectra)}
                rows = targets[ci2]
                hits = [rows.get(tuple(row[c] for c in cols)) for row in source.spectra]
                if len(rows) != target.n_irreps or None in hits:
                    raise InvariantError("character did not match a unique irrep row")
                matches[key] = hits
            # the sectors of one flux class are consecutive
            first, first2 = table.index_of(ci, 0), table.index_of(ci2, 0)
            perm[first:first + len(matches[key])] = [first2 + q for q in matches[key]]
        if sorted(perm) != list(range(len(table.anyons))):
            raise InvariantError("sector transport is not a permutation")
        return perm

    def is_identity(self) -> bool:
        return self.anyon_permutation == list(range(len(self.table.anyons)))


def symmetry_action(group: FiniteGroup, phi: Sequence[int]) -> SymmetryAction:
    return SymmetryAction(anyon_table(group), phi)
