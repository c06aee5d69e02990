"""Superselection-sector bookkeeping for finite-group double models.

Bulk sectors are (conjugacy class, centralizer irrep) pairs.  A boundary
is a subgroup K up to conjugation; its condensate is the set of bulk
sectors that terminate on it, with multiplicities read off from the left
translation action on admissible cosets.  Point defects between two
boundaries are (double coset, stabilizer irrep) pairs, and the point
excitations of one K boundary are its K-K defects.  All censuses are
validated against exact sum rules before they are returned.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from typing import Sequence

import numpy as np

from qdw.groups import (
    FiniteGroup,
    InvariantError,
    Subgroup,
    character_table,
    double_cosets,
    is_automorphism,
    subgroup_conjugacy_classes,
)

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
    "AbelianAnyonData",
    "abelian_anyon_data",
    "SymmetryAction",
    "symmetry_action",
]

TOL = 1e-9


@dataclass(frozen=True)
class AnyonLabel:
    """One bulk sector: flux class index plus centralizer irrep index."""
    class_index: int
    irrep_index: int
    name: str
    dim: int
    twist: complex

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

    @property
    def vacuum_index(self) -> int:
        return 0


def anyon_table(group: FiniteGroup) -> AnyonTable:
    if "anyon_table" not in group._cache:
        group._cache["anyon_table"] = AnyonTable(group)
    return group._cache["anyon_table"]


def s_matrix(group: FiniteGroup) -> np.ndarray:
    """The modular S matrix of D(G) over `anyon_table(group)`, cached per group.

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
    group = table.group
    n = group.order
    class_of = [group.class_index_of(g) for g in range(n)]
    transporter: dict[int, int] = {}       # g -> x_g with x_g r x_g^-1 = g
    for cl in table.classes:
        for x in range(n):
            transporter.setdefault(group.conj(x, cl.rep), x)
    # column of each centralizer's character table at a parent element
    columns = []
    for cl in table.classes:
        sub, to_parent = cl.centralizer.as_group()
        columns.append({p: sub.class_index_of(i) for i, p in enumerate(to_parent)})
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


@dataclass(frozen=True)
class BoundaryType:
    """A conjugacy class of subgroups; `rep` is the canonical representative."""
    rep: Subgroup
    members: tuple[Subgroup, ...]

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
        if boundary.group is not table.group:
            raise ValueError("boundary subgroup belongs to a different group")
        self.table = table
        self.boundary = boundary
        self.multiplicities: list[int] = []
        group = table.group
        cosets = boundary.left_cosets()
        member_to_coset = {}
        for idx, c in enumerate(cosets):
            for m in c:
                member_to_coset[m] = idx
        for ci, cl in enumerate(table.classes):
            r = cl.rep
            admissible = [idx for idx, c in enumerate(cosets)
                          if group.conj(group.inv[c[0]], r) in boundary]
            sub, to_parent = cl.centralizer.as_group()
            ct = table.centralizer_tables[ci]
            fixed = []
            for scl in sub.conjugacy_classes():
                g = to_parent[scl.rep]
                count = sum(1 for idx in admissible
                            if member_to_coset[group.mul(g, cosets[idx][0])] == idx)
                fixed.append(count)
            self.multiplicities.extend(ct.multiplicities(fixed))
        self._validate()

    def _validate(self) -> None:
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

    def condensed(self) -> list[AnyonLabel]:
        return [a for m, a in zip(self.multiplicities, self.table.anyons) if m > 0]


def lagrangian_algebra(group: FiniteGroup, boundary: Subgroup) -> LagrangianAlgebra:
    return LagrangianAlgebra(anyon_table(group), boundary)


# ---------------------------------------------------------------------------
# boundary excitations and defects


@dataclass(frozen=True)
class BoundaryExcitation:
    """Point excitation on a K boundary: double coset plus stabilizer irrep."""
    coset_index: int
    irrep_index: int
    name: str
    dim: int


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


@dataclass(frozen=True)
class Defect:
    """Domain-wall point defect between two boundary conditions."""
    coset_index: int
    irrep_index: int
    name: str
    dim_squared: Fraction
    dim: float


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


def qudit_dimension(group: FiniteGroup, k1: Subgroup, k2: Subgroup) -> int:
    """Ground-state count of a strip with boundary K1 on one side, K2 on the other.

    Computed two independent ways (condensate overlap; double-coset
    stabilizer class count) which must agree exactly.
    """
    table = anyon_table(group)
    m1 = LagrangianAlgebra(table, k1).multiplicities
    m2 = LagrangianAlgebra(table, k2).multiplicities
    overlap = sum(a * b for a, b in zip(m1, m2))
    by_cosets = sum(len(dc.stabilizer.as_group()[0].conjugacy_classes())
                    for dc in double_cosets(k1, k2))
    if overlap != by_cosets:
        raise InvariantError(
            f"strip count mismatch: condensate overlap {overlap}, coset route {by_cosets}")
    return overlap


# ---------------------------------------------------------------------------
# abelian shortcut data


@dataclass
class AbelianAnyonData:
    """Closed-form sector data for an abelian group: S matrix and fusion."""
    group: FiniteGroup
    table: AnyonTable
    s_matrix: np.ndarray
    fusion: np.ndarray  # fusion[a, b] = index of a x b
    charges: list[tuple[int, int]] = field(default_factory=list)  # (flux, irrep)

    def condensed_indices(self, boundary: Subgroup) -> list[int]:
        """Sectors whose flux lies in K and whose charge restricts trivially."""
        ct = character_table(self.group)
        out = []
        for i, (g, q) in enumerate(self.charges):
            if g not in boundary:
                continue
            if all(abs(ct.value(q, k) - 1.0) < 1e-6 for k in boundary.elements):
                out.append(i)
        return out


def abelian_anyon_data(group: FiniteGroup) -> AbelianAnyonData:
    """S matrix (from `s_matrix`) and fusion table of an abelian group's sectors."""
    if not group.is_abelian:
        raise ValueError("closed-form sector data needs an abelian group")
    table = anyon_table(group)
    ct = character_table(group)
    charges = [(a.class_index, a.irrep_index) for a in table.anyons]
    # flux class i is the singleton {i} for abelian groups
    for g, q in charges:
        if table.classes[g].members != (g,):
            raise InvariantError("abelian conjugacy classes must be singletons")
    # irrep_product[qa, qb] is the row equal to the product of rows qa and qb
    k = ct.n_irreps
    irrep_product = np.array([[ct.row_of(ct.chars[qa] * ct.chars[qb]) for qb in range(k)]
                              for qa in range(k)], dtype=np.int64)
    index = np.array([[table.index_of(g, q) for q in range(k)]
                      for g in range(group.order)], dtype=np.int64)
    flux = np.array([g for g, _ in charges], dtype=np.int64)
    charge = np.array([q for _, q in charges], dtype=np.int64)
    fusion = index[group.table[flux[:, None], flux[None, :]],
                   irrep_product[charge[:, None], charge[None, :]]]
    return AbelianAnyonData(group=group, table=table, s_matrix=s_matrix(group),
                            fusion=fusion, charges=charges)


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
        table, group = self.table, self.table.group
        perm = []
        for a in table.anyons:
            cl = table.classes[a.class_index]
            r2 = self.phi[cl.rep]
            ci2 = group.class_index_of(r2)
            cl2 = table.classes[ci2]
            c = next(g for g in range(group.order) if group.conj(g, r2) == cl2.rep)
            sub2, to_parent2 = cl2.centralizer.as_group()
            ct2 = table.centralizer_tables[ci2]
            sub1, to_parent1 = cl.centralizer.as_group()
            ct1 = table.centralizer_tables[a.class_index]
            # character of the transported irrep on each class of the target
            values = []
            c_inv = group.inv[c]
            for scl in sub2.conjugacy_classes():
                y = to_parent2[scl.rep]
                pre = self.phi_inv[group.conj(c_inv, y)]
                if pre not in cl.centralizer:
                    raise InvariantError("transport left the source centralizer")
                values.append(ct1.chars[a.irrep_index, sub1.class_index_of(
                    to_parent1.index(pre))])
            perm.append(table.index_of(ci2, ct2.row_of(values)))
        if sorted(perm) != list(range(len(table.anyons))):
            raise InvariantError("sector transport is not a permutation")
        return perm

    def subgroup_image(self, boundary: Subgroup) -> Subgroup:
        return Subgroup(self.table.group, tuple(self.phi[x] for x in boundary.elements))

    def is_identity(self) -> bool:
        return self.anyon_permutation == list(range(len(self.table.anyons)))


def symmetry_action(group: FiniteGroup, phi: Sequence[int]) -> SymmetryAction:
    return SymmetryAction(anyon_table(group), phi)
