"""Superselection-sector census for finite-group double models, and the
census commands that print it.

Bulk sectors, condensates and the condensate sum live in `qdw.sectors`
and are re-exported here.  A boundary is a subgroup K up to conjugation;
the boundary types, and the `subgroups` command, live in `qdw.subgroups`.
Point defects between two boundaries are (double coset, stabilizer
irrep) pairs, and the point excitations of one K boundary are its K-K
defects.  All censuses are validated against exact sum rules before they
are returned, in Python integers: a defect's d^2 is an integer, divided
exactly, and this module imports no `fractions`.  Sector transport
under an automorphism matches characters as eigenvalue exponents and
spins as exact ratios, and the abelian S matrix is kept as its integer
phases (`AbelianAnyonData.s_phases`), which `verify`'s
abelian-modular-data check decides without building a matrix.
"""

from __future__ import annotations

from functools import cached_property
from math import isqrt
from typing import Optional, Sequence

from qdw import _resolver
from qdw.characters import character_table
from qdw.groups import (FiniteGroup, InvariantError, Subgroup, _complex_pair, _require, _round12,
                        build_group, double_cosets, parse_subgroup)
from qdw.records import FrozenRecord, Ratio, Record
from qdw.sectors import (AnyonLabel, AnyonTable, LagrangianAlgebra, anyon_table,
                         condensate_count, lagrangian_algebra)

__all__ = ["AnyonLabel", "AnyonTable", "anyon_table", "LagrangianAlgebra", "lagrangian_algebra",
           "BoundaryExcitation", "boundary_excitations", "Defect", "defect_list",
           "qudit_dimension", "condensate_count", "AbelianAnyonData", "abelian_anyon_data",
           "SymmetryAction", "symmetry_action"]


# the benchmark's traced runs read `boundary_types` by this module's name
__getattr__ = _resolver(__name__)


# ---------------------------------------------------------------------------
# boundary excitations and defects


class BoundaryExcitation(FrozenRecord):
    """Point excitation on a K boundary: double coset plus stabilizer irrep."""
    _fields = __slots__ = ("coset_index", "irrep_index", "name", "dim")


def boundary_excitations(boundary: Subgroup) -> list[BoundaryExcitation]:
    """Excitations of one K boundary: its K-K defects, whose quantum dimensions are integers."""
    out = []
    for d in defect_list(boundary, boundary):
        dim = isqrt(d.dim_squared)
        if d.dim_squared != dim * dim:
            raise InvariantError("boundary excitation dimension is not an integer")
        out.append(BoundaryExcitation(coset_index=d.coset_index, irrep_index=d.irrep_index,
                                      name=d.name, dim=dim))
    return out


class Defect(FrozenRecord):
    """Domain-wall point defect between two boundary conditions; d^2 is an integer."""
    _fields = __slots__ = ("coset_index", "irrep_index", "name", "dim_squared", "dim")


def defect_list(k1: Subgroup, k2: Subgroup) -> list[Defect]:
    """Defects between a K1 and a K2 boundary; sum of dim^2 is exactly |G|.

    d^2 = dim^2 |D|^2 / (|K1| |K2|) for the double coset D and a stabilizer
    irrep of dimension dim.  |D| = |K1| |K2| / |stab|, so d^2 = dim^2
    (|K1| / |stab|) (|K2| / |stab|) is an integer; the division is exact or
    raises InvariantError.
    """
    group = k1.group
    out = []
    denom = k1.order * k2.order
    for ti, dc in enumerate(double_cosets(k1, k2)):
        ct = character_table(dc.stabilizer)
        for ri in range(ct.n_irreps):
            num = ct.dims[ri] ** 2 * dc.size ** 2
            d2, rest = divmod(num, denom)
            if rest:
                raise InvariantError(
                    f"defect T{ti}-R{ri} has d^2 = {Ratio(num, denom)}, not an integer")
            out.append(Defect(coset_index=ti, irrep_index=ri,
                              name=f"T{ti}-R{ri}", dim_squared=d2,
                              dim=float(d2) ** 0.5))
    total = sum(x.dim_squared for x in out)
    if total != group.order:
        raise InvariantError(f"defect dimensions sum to {total}, expected {group.order}")
    return out




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

    `charges` lists (flux, irrep) per sector.  `charge_exponents` and
    `s_phases` are exact and built on first access.  There are no
    `__slots__`, because the cached properties live in the instance dict.
    """
    _fields = ("group", "table", "charges")

    def __init__(self, group: FiniteGroup, table: AnyonTable,
                 charges: Optional[list[tuple[int, int]]] = None):
        super().__init__(group, table, [] if charges is None else charges)

    @property
    def fluxes(self) -> list[int]:
        """The flux g_a of each sector: the one element of its class."""
        return [self.table.classes[ci].rep for ci, _ in self.charges]

    @cached_property
    def charge_exponents(self) -> list[list[int]]:
        """chi[a][x] with chi_a(x) = w^chi[a][x], w = exp(2 pi i / n), from
        the exact spectra: chi_a at an element of order o is zeta_o^s, s
        its spectrum, which is w^(s n/o)."""
        table, n = self.table, self.group.order
        chi = []
        for ci, irrep in self.charges:
            centralizer, local = table.centralizer_tables[ci], table.local_class[ci]
            chi.append([centralizer.spectra[irrep][local[x]][0]
                        * (n // centralizer.orders[local[x]]) for x in range(n)])
        return chi

    @cached_property
    def s_phases(self) -> list[list[int]]:
        """k[a][b] with S_ab = exp(-2 pi i k[a][b] / n) / n, from the exact spectra.

        Every centralizer is G and every class one element g_a, so the
        modular S_ab = conj(chi_a(g_b) chi_b(g_a)) / n (Coste, Gannon and
        Ruelle, "Finite group modular data", 2000).
        """
        chi, flux, n = self.charge_exponents, self.fluxes, self.group.order
        return [[(chi_a[g_b] + chi_b[g_a]) % n for chi_b, g_b in zip(chi, flux)]
                for chi_a, g_a in zip(chi, flux)]


def abelian_anyon_data(group: FiniteGroup) -> AbelianAnyonData:
    """Exact charge rows and S phases of an abelian group's sectors, built when first read."""
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
        from qdw.subgroups import is_automorphism

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
            if src.dim != dst.dim or src.spin != dst.spin:
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


# ---------------------------------------------------------------------------
# the census commands


def _cmd_anyons(cfg) -> tuple:
    group = build_group(cfg.group)
    table = anyon_table(group)
    rows = []
    body = []
    for a in table.anyons:
        flux = group.name_of(table.classes[a.class_index].rep)
        rows.append({
            "name": a.name,
            "flux_class": flux,
            "irrep": a.irrep_index,
            "dim": a.dim,
            "twist": _complex_pair(a.twist),
        })
        body.append([a.name, flux, a.irrep_index, a.dim,
                     _round12(a.twist.real), _round12(a.twist.imag)])
    results = {
        "group": group.label,
        "count": len(table),
        "total_dim_squared": sum(a.dim ** 2 for a in table.anyons),
        "anyons": rows,
    }
    header = ["name", "flux_class", "irrep", "dim", "twist_re", "twist_im"]
    return results, (header, body), None


def _cmd_lagrangian(cfg) -> tuple:
    group = build_group(cfg.group)
    _require(cfg, "subgroup")
    sub = parse_subgroup(group, cfg.subgroup)
    la = lagrangian_algebra(group, sub)
    body = [[a.name, m, a.dim]
            for a, m in zip(la.table.anyons, la.multiplicities)]
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in sub.elements],
        "multiplicities": list(la.multiplicities),
        "sectors": [a.name for a in la.table.anyons],
        "condensed": [{"sector": a.name, "multiplicity": m, "dim": a.dim}
                      for a, m in zip(la.table.anyons, la.multiplicities) if m],
        "weighted_dimension": sum(m * a.dim for a, m in
                                  zip(la.table.anyons, la.multiplicities)),
    }
    return results, (["sector", "multiplicity", "dim"], body), None


def _cmd_excitations(cfg) -> tuple:
    group = build_group(cfg.group)
    _require(cfg, "subgroup")
    sub = parse_subgroup(group, cfg.subgroup)
    excs = boundary_excitations(sub)
    rows = [{"name": x.name, "coset": x.coset_index, "irrep": x.irrep_index,
             "dim": x.dim} for x in excs]
    body = [[x.name, x.coset_index, x.irrep_index, x.dim] for x in excs]
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in sub.elements],
        "count": len(excs),
        "total_dim_squared": sum(x.dim ** 2 for x in excs),
        "excitations": rows,
    }
    return results, (["name", "coset", "irrep", "dim"], body), None


def _cmd_defects(cfg) -> tuple:
    group = build_group(cfg.group)
    _require(cfg, "subgroup", "subgroup2")
    k1 = parse_subgroup(group, cfg.subgroup)
    k2 = parse_subgroup(group, cfg.subgroup2)
    defs = defect_list(k1, k2)
    rows = [{"name": x.name, "coset": x.coset_index, "irrep": x.irrep_index,
             "dim_squared": [x.dim_squared, 1],
             "dim": x.dim} for x in defs]
    body = [[x.name, x.coset_index, x.irrep_index,
             f"{x.dim_squared}/1", x.dim]
            for x in defs]
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in k1.elements],
        "subgroup2": [group.name_of(x) for x in k2.elements],
        "count": len(defs),
        "total_dim_squared": sum(x.dim_squared for x in defs),
        "defects": rows,
    }
    return results, (["name", "coset", "irrep", "dim_squared", "dim"], body), None


def _cmd_qudit_dim(cfg) -> tuple:
    group = build_group(cfg.group)
    _require(cfg, "subgroup", "subgroup2")
    k1 = parse_subgroup(group, cfg.subgroup)
    k2 = parse_subgroup(group, cfg.subgroup2)
    d = qudit_dimension(group, k1, k2)
    results = {
        "group": group.label,
        "subgroup": [group.name_of(x) for x in k1.elements],
        "subgroup2": [group.name_of(x) for x in k2.elements],
        "dimension": d,
    }
    return results, (["dimension"], [[d]]), None
