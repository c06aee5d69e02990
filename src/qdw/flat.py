"""Flat connections on a lattice, enumerated on a gauge-fixed slice.

The slice is built from the gauge domain of each vertex
(`_gauge_domains`), a spanning forest rooted at the smallest domains
(`_spanning_forest`), and one value per gauge orbit on each forest edge
(`_transversal`).  A streamed, budgeted depth-first walk over the face
constraints (`elimination_order`, `_enumerate_flat_configs`) lists its
flat configurations.  The counting route (`qdw.gsd`) sums stabilizers
over that slice, and the logical layer (`qdw.logical`) reads its ground
sectors off the same slice.  This module imports the geometry and group
layers and no operator code, so reading the slice loads no Hamiltonian
code.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from qdw.geometry import _region_assignment
from qdw.groups import _breadth_first
from qdw.records import Record

if TYPE_CHECKING:
    from qdw.geometry import Lattice
    from qdw.groups import FiniteGroup, Subgroup

__all__ = ["TRACE_PARTIAL_BUDGET", "EliminationStep", "elimination_order"]

TRACE_PARTIAL_BUDGET = 20_000_000  # largest branch product of a flat-connection walk


class EliminationStep(Record):
    """`action` is "branch" or "solve"; `plaquette` is the solver face of a
    "solve"; `checkers` are the faces fully assigned after this step."""
    _fields = __slots__ = ("action", "edge", "plaquette", "checkers")

    def __init__(self, action: str, edge: int, plaquette: Optional[int] = None,
                 checkers: tuple[int, ...] = ()):
        super().__init__(action, edge, plaquette, checkers)


def elimination_order(lat: Lattice, first: Sequence[int] = ()) -> list[EliminationStep]:
    """Assign edges so faces fix registers as early as possible.

    The edges in `first` are branched on before any other, in that order.
    The rest is greedy: a face with one free edge solves it; otherwise
    branch on an edge inside the face closest to completion (lowest
    indices break ties).
    """
    remaining = [set(e for e, _ in cyc) for cyc in lat.plaquettes]
    solved_by: set[int] = set()
    unassigned = set(range(lat.n_edges))
    steps: list[EliminationStep] = []

    def assign(e: int, action: str, solver: Optional[int]) -> None:
        unassigned.discard(e)
        checkers = []
        for pi, rem in enumerate(remaining):
            if e in rem:
                rem.discard(e)
                if not rem and pi != solver and pi not in solved_by:
                    checkers.append(pi)
        steps.append(EliminationStep(action=action, edge=e, plaquette=solver,
                                     checkers=tuple(checkers)))

    for e in first:
        assign(e, "branch", None)
    while unassigned:
        ready = [(len(rem), pi) for pi, rem in enumerate(remaining)
                 if len(rem) == 1 and pi not in solved_by]
        if ready:
            _, pi = min(ready)
            e = next(iter(remaining[pi]))
            solved_by.add(pi)
            assign(e, "solve", pi)
            continue
        candidates = [(len(rem), pi) for pi, rem in enumerate(remaining) if rem]
        if candidates:
            _, pi = min(candidates)
            e = min(remaining[pi] & unassigned)
        else:
            e = min(unassigned)
        assign(e, "branch", None)
    return steps

def _holonomy(group: FiniteGroup, cyc: Sequence[tuple[int, bool]],
              values: Sequence[int]) -> int:
    """Face-walk product of `cyc`: each letter left-multiplies the running value.

    The letter of an edge is its register value when walked along the
    edge and the inverse when walked against it.  `values` holds the
    register value of each edge, indexed by edge.
    """
    acc, rows, inv = 0, group.rows, group.inv
    for e, along in cyc:
        x = values[e]
        acc = rows[x if along else inv[x]][acc]
    return acc


def _gauge_domains(lat: Lattice, group: FiniteGroup,
                   subgroups: Mapping[str, Subgroup]):
    """Admissible register values per edge, gauge labels per vertex, and
    the boundary subgroup of each dangling edge."""
    vertex_region, edge_region = _region_assignment(lat, group, subgroups)
    full = tuple(range(group.order))
    domains = [subgroups[vertex_region[v]].elements if v in vertex_region else full
               for v in range(lat.n_vertices)]
    allowed = []
    dangling: dict[int, Subgroup] = {}
    for e in range(lat.n_edges):
        reg = edge_region.get(e)
        if reg is not None and reg[1] == "rim":
            allowed.append(subgroups[reg[0]].elements)
        else:
            allowed.append(full)
            if reg is not None:
                dangling[e] = subgroups[reg[0]]
    return allowed, domains, dangling


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


def _transversal(group: FiniteGroup, allowed: Sequence[int], domain: Sequence[int],
                 child_is_head: bool) -> tuple[int, ...]:
    """The least element of each orbit of `domain` on `allowed`.

    The gauge label of a tree edge's child w acts on the edge's register
    from the left when w is the head and from the right when w is the
    tail (as in `qdw.gsd._stabilizer_total`), so the orbits are D x
    and x D.
    """
    rows = group.rows
    if child_is_head:
        least = {min(rows[d][x] for d in domain) for x in allowed}
    else:
        least = {min(rows[x][d] for d in domain) for x in allowed}
    return tuple(sorted(least))


def _enumerate_flat_configs(lat: Lattice, group: FiniteGroup, allowed: Sequence[Sequence[int]]
                            ) -> Optional[Iterator[tuple[int, ...]]]:
    """All register assignments with trivial holonomy on every face, one at a time.

    Every edge with a single allowed value is assigned before any other
    (see `elimination_order`).  Returns an iterator over tuples of
    register values indexed by edge, or None when the product of the
    allowed-set sizes over the branch steps is over budget.
    """
    steps = elimination_order(lat, [e for e, a in enumerate(allowed) if len(a) == 1])
    budget = 1
    for st in steps:
        if st.action == "branch":
            budget *= len(allowed[st.edge])
            if budget > TRACE_PARTIAL_BUDGET:
                return None
    return _flat_configs(lat, group, allowed, steps)


def _flat_configs(lat: Lattice, group: FiniteGroup, allowed: Sequence[Sequence[int]],
                  steps: Sequence[EliminationStep]) -> Iterator[tuple[int, ...]]:
    """Depth-first walk of `steps`, one level per branch step.

    A level tries each allowed value of its branch edge in increasing
    order, then runs the solve steps up to the next branch step: each
    takes the one value its face forces, if that value is allowed.  The
    faces a step closes (its checkers) must have trivial holonomy.
    """
    if not steps:
        yield ()
        return
    inv = group.inv
    values = [0] * lat.n_edges
    # per level: (branch edge, its values, its checker walks, solve steps);
    # a solve step is (edge, its face walked from the edge's successor round
    # to its predecessor, edge walked along, allowed values, checker walks).
    # The face closes when the edge's letter times that walk's holonomy h
    # is trivial, so the letter is h^-1.  The first step is a branch: every
    # face has at least two edges.
    levels: list[tuple[int, tuple[int, ...], tuple, list]] = []
    for st in steps:
        checks = tuple(lat.plaquettes[pc] for pc in st.checkers)
        if st.action == "branch":
            levels.append((st.edge, tuple(sorted(allowed[st.edge])), checks, []))
        else:
            cyc = lat.plaquettes[st.plaquette]
            i = next(i for i, (e, _) in enumerate(cyc) if e == st.edge)
            levels[-1][3].append((st.edge, cyc[i + 1:] + cyc[:i], cyc[i][1],
                                  frozenset(allowed[st.edge]), checks))

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
