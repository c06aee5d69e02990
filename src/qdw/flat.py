"""Flat connections on a lattice, and the one gauge-fixed slice of them.

The ground states of a boundary assignment are the gauge orbits of its
flat connections: register values with trivial face holonomy
(`qdw.geometry._holonomy`) and every rim value in its region's K, under
gauge labels in G at bulk vertices and in K at rim vertices, and K x K
translations on each dangling edge.  `GaugeSlice` is the one gauge-fixed
slice of them.  It keeps one value per gauge orbit on each edge of a
spanning forest (`_spanning_forest`), and has one rule for a dangling
edge: it rides on the slice as the least member of each double coset
K x K.  It moves any configuration onto the slice in one pass down the
forest (`gauge_fix`), and merges slice configurations into sectors, the
orbits of the gauge left at the forest roots (`sectors`), with the one
orbit routine that also splits a group into element and subgroup
classes (`qdw.groups._orbits`).  The counting routes (`qdw.gsd`) and
the logical layer (`qdw.logical`) both read it.  A streamed, budgeted
depth-first walk over the face constraints (`elimination_order`,
`_enumerate_flat_configs`) lists the flat configurations of any
per-edge value sets.  This module imports the geometry and group
layers and no operator code, so reading the slice loads no Hamiltonian
code.
"""

from __future__ import annotations

import itertools
from math import prod
from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from qdw.geometry import _holonomy, _region_assignment
from qdw.groups import (InvariantError, _breadth_first, _generating_sequence, _orbits,
                        double_cosets)

if TYPE_CHECKING:
    from qdw.geometry import Lattice
    from qdw.groups import FiniteGroup, Subgroup

__all__ = ["TRACE_PARTIAL_BUDGET", "GaugeSlice", "elimination_order"]

TRACE_PARTIAL_BUDGET = 20_000_000  # largest branch product of a flat-connection walk


def elimination_order(lat: Lattice, allowed: Sequence[Sequence[int]]) -> tuple[list, int]:
    """The walk's levels over the register values `allowed`, and their branch product.

    Every edge with a single allowed value is branched on first, in index
    order.  The rest is greedy: a face with one free edge solves it;
    otherwise branch on an edge inside the face closest to completion
    (lowest indices break ties).  A level is (edge, values, checks,
    solves): a branch edge, its allowed values in increasing order, the
    walks of the faces it closes, and the solve steps up to the next
    branch.  A solve step is (edge, walk, along, ok, checks): its face
    walked from the edge's successor round to its predecessor, whether the
    face walks along the edge, the edge's allowed values, and the walks of
    the faces the step closes.  The branch product multiplies the number of
    values of every branch edge.
    """
    plaquettes = lat.plaquettes
    remaining = [set(e for e, _ in cyc) for cyc in plaquettes]   # each face's unassigned edges
    solved_by: set[int] = set()
    unassigned = set(range(lat.n_edges))
    levels: list[tuple[int, tuple[int, ...], tuple, list]] = []

    def assign(e: int, solver: Optional[int]) -> tuple:
        unassigned.discard(e)
        checks = []
        for pi in lat.edge_faces[e]:
            remaining[pi].discard(e)
            if not remaining[pi] and pi != solver and pi not in solved_by:
                checks.append(plaquettes[pi])
        return tuple(checks)

    def branch(e: int) -> None:
        levels.append((e, tuple(sorted(allowed[e])), assign(e, None), []))

    for e in [e for e, values in enumerate(allowed) if len(values) == 1]:
        branch(e)
    while unassigned:
        ready = [(len(rem), pi) for pi, rem in enumerate(remaining)
                 if len(rem) == 1 and pi not in solved_by]
        if ready:
            # the first step is a branch: every face has at least two edges
            _, pi = min(ready)
            e = next(iter(remaining[pi]))
            solved_by.add(pi)
            cyc = plaquettes[pi]
            i = next(i for i, (f, _) in enumerate(cyc) if f == e)
            levels[-1][3].append((e, cyc[i + 1:] + cyc[:i], cyc[i][1],
                                  frozenset(allowed[e]), assign(e, pi)))
            continue
        candidates = [(len(rem), pi) for pi, rem in enumerate(remaining) if rem]
        branch(min(remaining[min(candidates)[1]]) if candidates else min(unassigned))
    return levels, prod(len(level[1]) for level in levels)


def _spanning_forest(lat: Lattice, domains: Sequence[Sequence[int]],
                     dangling: Mapping[int, Subgroup]):
    """Breadth-first spanning forest over the non-dangling edges.

    Each tree is rooted at its vertex with the smallest gauge domain, the
    lowest index among equals, so a tree that touches a rim with trivial
    K has no residual gauge.  Returns (roots, tree).  tree[c] lists the
    edges of the tree rooted at roots[c] as (edge, child, child_is_head),
    parents before children.
    """
    adj: list[list[tuple[int, tuple[int, bool]]]] = [[] for _ in range(lat.n_vertices)]
    for ei, (t, h) in enumerate(lat.edges):
        if ei not in dangling:
            adj[t].append((h, (ei, True)))
            adj[h].append((t, (ei, False)))
    seen = [False] * lat.n_vertices
    roots: list[int] = []
    tree: list[list[tuple[int, int, bool]]] = []
    for root in sorted(range(lat.n_vertices), key=lambda v: (len(domains[v]), v)):
        if seen[root]:
            continue
        roots.append(root)
        edges: list[tuple[int, int, bool]] = []
        for w, v, step in _breadth_first([root], adj.__getitem__):
            seen[w] = True
            if v is not None:
                edges.append((step[0], w, step[1]))
        tree.append(edges)
    return roots, tree


class GaugeSlice:
    """The gauge-fixed slice of one boundary assignment.

    `allowed` holds each edge's admissible values (K on rim edges, G
    elsewhere), `domains` each vertex's gauge labels, `dangling` each
    dangling edge's K, and `roots` and `tree` the spanning forest.
    `fixes` lists each forest edge, parents before children, as (edge,
    child, labels): labels[x] is the child label that moves value x to
    the least of its orbit, d x at a head child and x d^-1 at a tail one.
    It is built once per domain and side.  `least` lists each dangling
    edge as (edge, the least member of each value's double coset K x K).
    `values` holds the slice: the labels' images of the allowed values on
    a forest edge, the double cosets' least members on a dangling edge,
    and the allowed values elsewhere.

    Taking the children in forest order, every configuration is one gauge
    transformation of the non-root vertices and one translation of the
    dangling edges away from exactly one configuration of the slice; the
    gauge of the roots is what is left.
    """

    def __init__(self, lat: Lattice, group: FiniteGroup, subgroups: Mapping[str, Subgroup]):
        vertex_region, edge_region = _region_assignment(lat, group, subgroups)
        full = tuple(range(group.order))
        self.lattice, self.group = lat, group
        self.domains = [subgroups[vertex_region[v]].elements if v in vertex_region else full
                        for v in range(lat.n_vertices)]
        self.allowed: list[tuple[int, ...]] = []
        self.dangling: dict[int, Subgroup] = {}
        for e in range(lat.n_edges):
            reg = edge_region.get(e)
            if reg is not None and reg[1] == "rim":
                self.allowed.append(subgroups[reg[0]].elements)
            else:
                self.allowed.append(full)
                if reg is not None:
                    self.dangling[e] = subgroups[reg[0]]
        self.roots, self.tree = _spanning_forest(lat, self.domains, self.dangling)
        rows, inv = group.rows, group.inv
        values = list(self.allowed)
        tables: dict[tuple[tuple[int, ...], bool], list[int]] = {}
        self.fixes: list[tuple[int, int, list[int]]] = []
        for ei, child, head in itertools.chain.from_iterable(self.tree):
            dom = self.domains[child]
            labels = tables.get((dom, head))
            if labels is None:
                labels = tables[dom, head] = [
                    min(dom, key=(lambda d: rows[d][x]) if head else (lambda d: rows[x][inv[d]]))
                    for x in full]
            values[ei] = tuple(sorted({rows[labels[x]][x] if head else rows[x][inv[labels[x]]]
                                       for x in values[ei]}))
            self.fixes.append((ei, child, labels))
        self.least: list[tuple[int, dict[int, int]]] = []
        for e, sub in self.dangling.items():
            cosets = double_cosets(sub, sub)
            values[e] = tuple(dc.rep for dc in cosets)
            self.least.append((e, {m: dc.rep for dc in cosets for m in dc.members}))
        self.values = values

    def walk_values(self, gauge_fix: bool = True) -> list[tuple[int, ...]]:
        """The values each edge takes in the walk: the slice's, or with
        `gauge_fix` off every admissible value off the dangling edges."""
        if gauge_fix:
            return self.values
        return [self.values[e] if e in self.dangling else a for e, a in enumerate(self.allowed)]

    def configs(self, gauge_fix: bool = True) -> Optional[Iterator[tuple[int, ...]]]:
        """The flat configurations over `walk_values`, streamed, or None over budget."""
        return _enumerate_flat_configs(self.lattice, self.group, self.walk_values(gauge_fix))

    def relabel(self, values: list[int], v: int, g: int) -> None:
        """Gauge label g at vertex v, in place: x -> g x on the edges into v,
        x -> x g^-1 on the edges out of it."""
        rows, gi = self.group.rows, self.group.inv[g]
        for e, at_head in self.lattice.star[v]:
            values[e] = rows[g][values[e]] if at_head else rows[values[e]][gi]

    def gauge_fix(self, values: list[int]) -> tuple[int, ...]:
        """`values` moved onto the slice in place, up to the roots' gauge."""
        for e, child, labels in self.fixes:
            g = labels[values[e]]
            if g:
                self.relabel(values, child, g)
        for e, least in self.least:
            values[e] = least[values[e]]
        return tuple(values)

    def sectors(self) -> Optional[tuple[dict[tuple[int, ...], int], list[tuple[int, ...]]]]:
        """The gauge orbits on the slice, or None when the slice is over budget.

        The orbits are walked by `qdw.groups._orbits` under the generators
        of each root's domain, each followed by the gauge fix; a root with
        a trivial domain leaves nothing to merge.  Returns (sector,
        representatives): the sector of each slice configuration, numbered
        by orbit in enumeration order, and each orbit's first configuration.
        An orbit that leaves the slice is an `InvariantError`.
        """
        configs = self.configs()
        if configs is None:
            return None
        on_slice = dict.fromkeys(configs)   # in enumeration order
        moves = [(r, g) for r in self.roots
                 for g in _generating_sequence(self.group, self.domains[r])]

        def images(config: tuple[int, ...]):
            for r, g in moves:
                values = list(config)
                self.relabel(values, r, g)
                yield self.gauge_fix(values)

        orbits = _orbits(on_slice, images)
        # the orbits cover the slice, so they add up to it when none leaves it
        if sum(map(len, orbits)) != len(on_slice):
            raise InvariantError("residual gauge leaves the slice")
        sector = {member: s for s, orbit in enumerate(orbits) for member in orbit}
        return sector, [orbit[0] for orbit in orbits]


def _enumerate_flat_configs(lat: Lattice, group: FiniteGroup, allowed: Sequence[Sequence[int]]
                            ) -> Optional[Iterator[tuple[int, ...]]]:
    """All register assignments with trivial holonomy on every face, one at a time.

    Returns an iterator over tuples of register values indexed by edge,
    in the order of `elimination_order`'s walk, or None when its branch
    product is over budget.
    """
    levels, branches = elimination_order(lat, allowed)
    if branches > TRACE_PARTIAL_BUDGET:
        return None
    return _flat_configs(group, lat.n_edges, levels)


def _flat_configs(group: FiniteGroup, n_edges: int, levels: Sequence) -> Iterator[tuple[int, ...]]:
    """Depth-first walk of `levels` (see `elimination_order`).

    A level tries each value of its branch edge in increasing order, then
    runs its solve steps: each takes the one value its face forces, if
    that value is allowed.  The face closes when the edge's letter times
    the holonomy h of the rest of its walk is trivial, so the letter is
    h^-1.  Every face a step closes must have trivial holonomy.
    """
    if not levels:
        yield ()
        return
    inv = group.inv
    values = [0] * n_edges

    def fits(level, x: int) -> bool:
        edge, _, checks, solves = level
        values[edge] = x
        for walk in checks:
            if _holonomy(group, walk, values):
                return False
        for e, walk, along, ok, checks in solves:
            h = _holonomy(group, walk, values)
            y = inv[h] if along else h
            if y not in ok:
                return False
            values[e] = y
            for walk in checks:
                if _holonomy(group, walk, values):
                    return False
        return True

    last = len(levels) - 1
    pending = [iter(levels[0][1])]
    while pending:
        depth = len(pending) - 1
        level = levels[depth]
        for x in pending[-1]:
            if fits(level, x):
                break
        else:
            pending.pop()
            continue
        if depth == last:
            yield tuple(values)
        else:
            pending.append(iter(levels[depth + 1][1]))
