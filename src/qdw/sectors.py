"""Bulk sectors and condensates: the part of the census a ground-state count reads.

Bulk sectors are (conjugacy class, centralizer irrep) pairs, listed by
`anyon_table`.  Each sector's twist is one root of unity, kept exactly
as its spin in turns: the class representative r_A is central in its
centralizer, so by Schur's lemma every irrep acts on it as a scalar, and
the one exponent of the irrep's spectrum there is the spin (Coste,
Gannon and Ruelle, "Finite group modular data", 2000).  A boundary is a
subgroup K; its condensate (`lagrangian_algebra`) holds the multiplicity
of each bulk sector that terminates on it, read off from the left
translation action on admissible cosets and validated against the
modular rule W S = W, decided without building S from integer
fixed-coset counts.  `condensate_count` sums the condensates into the
ground-state count of a surface with boundaries.  The modular
ground-state route imports this module alone; the rest of the census
(`qdw.classify`) re-exports it.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from math import lcm
from operator import mul
from typing import Sequence

from qdw.characters import character_table
from qdw.groups import FiniteGroup, InvariantError, Subgroup, _root_of_unity, double_cosets
from qdw.records import FrozenRecord, Ratio

__all__ = ["AnyonLabel", "AnyonTable", "anyon_table", "LagrangianAlgebra",
           "lagrangian_algebra", "condensate_count"]

_spin = lru_cache(maxsize=None)(Ratio)   # few spins recur; a frozen Ratio can be shared

class AnyonLabel(FrozenRecord):
    """One bulk sector: flux class index plus centralizer irrep index.

    `spin` is the twist in turns, exact: theta = exp(2 pi i spin).
    """
    _fields = __slots__ = ("class_index", "irrep_index", "name", "dim", "spin")

    def key(self) -> tuple[int, int]:
        return (self.class_index, self.irrep_index)

    @property
    def twist(self) -> complex:
        """The twist exp(2 pi i spin) as a complex number, for reports."""
        return _root_of_unity(self.spin.numerator, self.spin.denominator)


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
            to_parent = cl.centralizer.as_group()[1]
            table = character_table(cl.centralizer)
            self.centralizer_tables.append(table)
            r_class = table.group.class_index_of(to_parent.index(cl.rep))
            for pi in range(table.n_irreps):
                d = cl.size * table.dims[pi]
                spectrum = table.spectra[pi][r_class]
                if len(set(spectrum)) != 1:
                    raise InvariantError(f"sector C{ci}-pi{pi} has no single twist: its irrep "
                                         f"has exponents {spectrum} at the central flux")
                label = AnyonLabel(class_index=ci, irrep_index=pi, name=f"C{ci}-pi{pi}", dim=d,
                                   spin=_spin(spectrum[0], table.orders[r_class]))
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
            if m > 0 and a.spin != Ratio(0):
                raise InvariantError(f"condensed sector {a.name} has spin {a.spin}, not 0")
        if not _fixed_by_s(self.table, psi):
            raise InvariantError("condensate is not fixed by S: W S != W")


def _fixed_coset_counts(table: AnyonTable, boundary: Subgroup) -> list[list[int]]:
    """psi_A for each flux class A: on each class of Z(r_A), the number of
    admissible cosets xK (those with x^-1 r_A x in K) its representative fixes.

    The cosets xK are the double cosets {e}\\G/K, each led by its least member."""
    group = table.group
    cosets = double_cosets(group.trivial_subgroup(), boundary)
    member_to_coset = {}
    for idx, c in enumerate(cosets):
        for m in c.members:
            member_to_coset[m] = idx
    out = []
    for cl, reps in zip(table.classes, table.centralizer_reps):
        admissible = [idx for idx, c in enumerate(cosets)
                      if group.conj(group.inv[c.rep], cl.rep) in boundary]
        out.append([sum(1 for idx in admissible
                        if member_to_coset[group.mul(g, cosets[idx].rep)] == idx)
                    for g in reps])
    return out


def _fixed_by_s(table: AnyonTable, psi: Sequence[Sequence[int]]) -> bool:
    """Whether W S = W, decided without S, from the class functions psi_A.

    psi_A = sum_a W_(A,a) chi_a is a class function of Z(r_A), given by
    its values on the classes of Z(r_A).  Let phi_B(g) = psi_[g](x_g^-1 r_B x_g)
    for g in Z(r_B), with x_g the `transporter` of g.  S[(A,a),(B,b)] =
    1/|G| sum over commuting g in A, h in B of conj chi_a(x_g^-1 h x_g)
    conj chi_b(x_h^-1 g x_h) (Coste, Gannon and Ruelle), and summing it
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
