"""The subgroup lattice and the automorphisms of a finite group, and the
`subgroups` command that prints the lattice.

A boundary of the double model is a subgroup K up to conjugation, so the
boundary types are the subgroup conjugacy classes: the orbits of
conjugation that `boundary_types` walks with `qdw.groups._orbits`.  A
subgroup is normal when it is alone in its class.  Only the code that
enumerates subgroups or checks automorphisms imports this module (the
`subgroups` command, `group-info` for a group of order at most 24,
`verify`, and `classify.SymmetryAction`), so the other runs compile
none of it.  `qdw.groups.enumerate_subgroups`,
`qdw.groups.enumerate_automorphisms` and `qdw.classify.boundary_types`
resolve here, for the benchmark's traced runs, which read those names.
"""

from __future__ import annotations

import itertools
from typing import Sequence

from qdw.groups import (FiniteGroup, InvariantError, Subgroup, _breadth_first,
                        _generating_sequence, _orbits, build_group)
from qdw.records import FrozenRecord

MAX_SUBGROUP_ENUM_ORDER = 24

__all__ = ["BoundaryType", "boundary_types", "enumerate_subgroups",
           "enumerate_automorphisms", "is_automorphism", "inner_automorphism"]


# ---------------------------------------------------------------------------
# subgroup enumeration


def enumerate_subgroups(group: FiniteGroup) -> list[Subgroup]:
    """All subgroups, ordered by (order, element tuple).

    Exhaustive closure search, run once per group and kept in its cache;
    each call returns a fresh list.  Refuses groups of order above
    MAX_SUBGROUP_ENUM_ORDER to keep the blowup desk-scale.
    """
    if group.order > MAX_SUBGROUP_ENUM_ORDER:
        raise ValueError(
            f"subgroup enumeration is capped at order {MAX_SUBGROUP_ENUM_ORDER}; "
            f"got {group.order} (use generated_subgroup with explicit generators)")
    if "subgroup_list" in group._cache:
        return list(group._cache["subgroup_list"])
    found: set[tuple[int, ...]] = set()
    queue: list[tuple[int, ...]] = []
    triv = (0,)
    found.add(triv)
    queue.append(triv)
    while queue:
        elems = queue.pop()
        for g in range(1, group.order):
            if g in elems:
                continue
            ext = group.generated_subgroup(set(elems) | {g}).elements
            if ext not in found:
                found.add(ext)
                queue.append(ext)
    group._cache["subgroup_list"] = tuple(
        group.subgroup(e) for e in sorted(found, key=lambda e: (len(e), e)))
    return list(group._cache["subgroup_list"])


# ---------------------------------------------------------------------------
# boundaries


class BoundaryType(FrozenRecord):
    """A conjugacy class of subgroups; `rep` is the canonical representative."""
    _fields = __slots__ = ("rep", "members")

    @property
    def order(self) -> int:
        return self.rep.order


def boundary_types(group: FiniteGroup) -> list[BoundaryType]:
    """Distinct boundary types, one per subgroup conjugacy class, built once
    per group and kept in its cache; each call returns a fresh list.

    Conjugation by the generators walks `enumerate_subgroups`, whose
    (order, elements) order leads each class with its least member, the
    representative.  Members are sorted by elements.
    """
    if "boundary_types" not in group._cache:
        gens = _generating_sequence(group)
        orbits = _orbits(enumerate_subgroups(group),
                         lambda sub: (sub.conjugate_by(g) for g in gens))
        group._cache["boundary_types"] = tuple(
            BoundaryType(rep=orbit[0], members=tuple(sorted(orbit, key=lambda s: s.elements)))
            for orbit in orbits)
    return list(group._cache["boundary_types"])


# ---------------------------------------------------------------------------
# automorphisms


def is_automorphism(group: FiniteGroup, phi: Sequence[int]) -> bool:
    p = list(phi)
    if sorted(p) != list(range(group.order)) or p[0] != 0:
        return False
    rows = group.rows
    for a in range(group.order):
        row, image = rows[a], rows[p[a]]
        for b in range(group.order):
            if p[row[b]] != image[p[b]]:
                return False
    return True


def inner_automorphism(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(group.conj(g, x) for x in range(group.order))


def enumerate_automorphisms(group: FiniteGroup) -> list[tuple[int, ...]]:
    """All automorphisms as permutation tuples, sorted lexicographically."""
    if group.order > MAX_SUBGROUP_ENUM_ORDER:
        raise ValueError(f"automorphism enumeration is capped at order {MAX_SUBGROUP_ENUM_ORDER}")
    gens = _generating_sequence(group)
    if not gens:
        return [(0,)]
    # express every element as a fixed word in the generators; reach order
    # maps each prefix before it is extended
    word = list(_breadth_first(
        [0], lambda x: ((group.mul(x, g), gi) for gi, g in enumerate(gens))))[1:]
    orders = [group.element_order(g) for g in gens]
    candidates = [[x for x in range(group.order) if group.element_order(x) == o] for o in orders]
    autos = []
    for images in itertools.product(*candidates):
        phi = [0] * group.order
        for y, prev, gi in word:
            phi[y] = group.mul(phi[prev], images[gi])
        if len(set(phi)) == group.order and is_automorphism(group, phi):
            autos.append(tuple(phi))
    autos.sort()
    if not autos:
        raise InvariantError("automorphism search returned empty (identity must exist)")
    return autos


# ---------------------------------------------------------------------------
# the `subgroups` command


def _cmd_subgroups(cfg) -> tuple:
    group = build_group(cfg.group)
    subs = enumerate_subgroups(group)
    types = boundary_types(group)
    class_of = {member: ti for ti, bt in enumerate(types) for member in bt.members}
    rows = []
    body = []
    for i, sub in enumerate(subs):
        names = [group.name_of(x) for x in sub.elements]
        ti = class_of[sub]
        normal = len(types[ti].members) == 1     # alone in its conjugacy class
        rows.append({"index": i, "order": sub.order, "elements": names,
                     "normal": normal, "boundary_type": ti})
        body.append([i, sub.order, ";".join(names), normal, ti])
    results = {"group": group.label, "count": len(subs),
               "boundary_type_count": len(types), "subgroups": rows}
    header = ["index", "order", "elements", "normal", "boundary_type"]
    return results, (header, body), None
