"""Ground-state counts of a lattice, from up to three routes that must agree.

Counting evaluates the Burnside sum over gauge orbits of flat connections
on the one gauge-fixed slice (`qdw.flat.GaugeSlice`), which keeps one
value per gauge orbit on each spanning-forest edge and one double-coset
representative on each dangling edge.
Modular is one exact sum over the boundary condensates, without the
lattice's configurations, on any connected surface whose boundary
circles are its regions.  Dense reads only the Hamiltonian terms: it
takes the trace of the projector built on the support of the diagonal
terms, and raises when a term maps that support outside itself, which
commuting projectors never do.  Its configurations are tuples of every
edge's register value.  It reads each diagonal term's table
(`lattice.DiagonalTable`) by the values on the term's own edges, and
each other term's expansion by the (row, column) tuples of the term's
own edges, substituting a row's values into a configuration to find the
image.  Trace is the counting route with its gauge fix switched off, the
Burnside sum over every flat configuration of the edges that are not
dangling, each dangling edge still on its representatives: a reference
route that runs only when named.

The modular route imports the sector table and condensates
(`qdw.sectors`), not the rest of the census, and the dense route the
Hamiltonian terms (`qdw.lattice`), each where it runs, so a `gsd` run
whose dense route is over budget loads no operator code.  Every route
runs on Python integers, so no `gsd` run imports numpy; the dense
route's trace is one integer over the product of the terms'
denominators, decided by exact division.
"""

from __future__ import annotations

from functools import partial
from math import prod
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from qdw.flat import GaugeSlice
from qdw.geometry import MATERIALIZE_DIM_BUDGET, Lattice, _lattice_context, _region_assignment
from qdw.groups import FiniteGroup, InvariantError, Subgroup, _breadth_first
from qdw.records import Ratio, Record

if TYPE_CHECKING:
    from qdw.lattice import HamiltonianTerm

__all__ = ["GsdReport", "ground_space_dimension"]


# ---------------------------------------------------------------------------
# route 1, and the trace reference route without its gauge fix: the Burnside sum
#
# The ground states are the gauge orbits of flat connections, with
# K-restricted gauge on the rims, so their number is the gauge-group
# average of the stabilizer orders of the flat configurations.


def _stabilizer_total(sl: GaugeSlice, configs: Iterable[Sequence[int]]) -> int:
    """Sum over `configs` of the number of vertex gauge transformations fixing each.

    On each tree of the slice's forest a fixing transformation is
    determined by its root label g: labels propagate along tree edges, and
    must lie in their vertex domains and respect every non-tree edge of
    the tree.  The label of vertex w is Q_w g Q_w^-1, where Q_w multiplies
    the tree edges' letters from the root to w, so g must lie in
    Q_w^-1 D_w Q_w for every vertex w whose domain D_w is not the whole
    group, and commute with Q_h^-1 x Q_t for every non-tree edge from t to
    h with register value x.  Only dangling edges join trees.  A dangling
    edge follows the slice's one rule, riding on it as the least member
    of each double coset K x K, whose translations absorb both endpoint
    labels, so its checks are skipped and the trees' counts multiply.
    `configs` is consumed one configuration at a time; sets of root
    labels are bit masks.
    """
    lat, group, domains = sl.lattice, sl.group, sl.domains
    rows, inv, n = group.rows, group.inv, group.order
    mask = [sum(1 << g for g in d) for d in domains]
    whole = (1 << n) - 1
    comp = [0] * lat.n_vertices
    for ci, (root, edges) in enumerate(zip(sl.roots, sl.tree)):
        comp[root] = ci
        for _, child, _ in edges:
            comp[child] = ci
    tree_edges = {ei for edges in sl.tree for ei, _, _ in edges}
    nontree_by_comp: dict[int, list[tuple[int, int, int]]] = {}
    for ei, (t, h) in enumerate(lat.edges):
        if ei not in tree_edges and ei not in sl.dangling:
            nontree_by_comp.setdefault(comp[t], []).append((ei, t, h))
    centralizer = [sum(1 << g for g in range(n) if rows[g][x] == rows[x][g])
                   for x in range(n)]
    conjugated: dict[int, list[int]] = {}   # mask of D -> mask of Q^-1 D Q for each Q
    for w, d in enumerate(domains):
        if mask[w] != whole and mask[w] not in conjugated:
            conjugated[mask[w]] = [sum(1 << rows[rows[inv[q]][x]][q] for x in d)
                                   for q in range(n)]
    # per tree: the root's labels, the tree edges as (edge, parent, child,
    # child is head), the other vertices with a proper domain, and the
    # non-tree edges
    plans = [(mask[root],
              [(ei, lat.edges[ei][0 if head else 1], child, head) for ei, child, head in edges],
              [(child, conjugated[mask[child]]) for _, child, _ in edges
               if mask[child] != whole],
              nontree_by_comp.get(ci, ()))
             for ci, (root, edges) in enumerate(zip(sl.roots, sl.tree))]
    q = [0] * lat.n_vertices
    total = 0
    for values in configs:
        fixing = 1
        for alive, edges, proper, nontree in plans:
            for ei, parent, child, head in edges:
                x = values[ei]
                q[child] = rows[x if head else inv[x]][q[parent]]
            for w, masks in proper:
                alive &= masks[q[w]]
            for ei, t, h in nontree:
                alive &= centralizer[rows[rows[inv[q[h]]][values[ei]]][q[t]]]
            fixing *= alive.bit_count()
            if not fixing:
                break
        total += fixing
    return total


def _gsd_counting(lat: Lattice, group: FiniteGroup,
                  subgroups: Mapping[str, Subgroup],
                  gauge_fix: bool = True) -> Optional[int]:
    """Route 1: the Burnside sum on the gauge-fixed slice (`GaugeSlice`).

    Every configuration is one gauge transformation of the non-root
    vertices and one translation of the dangling edges away from exactly
    one configuration of the slice, so each gauge orbit contributes the
    order of the residual gauge group, the product of the root domains,
    to the slice's stabilizer total.  The modular and dense routes are
    independent oracles for it.  With `gauge_fix` off only the dangling
    edges keep to the slice, and the sum runs over every flat
    configuration of the other edges: that is the trace reference route,
    no independent oracle, and far costlier in time (the configurations
    are streamed, so not in memory).
    """
    sl = GaugeSlice(lat, group, subgroups)
    configs = sl.configs(gauge_fix)
    if configs is None:
        return None
    total = _stabilizer_total(sl, configs)
    # residual gauge: the root labels, or every label without the gauge fix
    residual = prod(len(sl.domains[v]) for v in (sl.roots if gauge_fix else range(lat.n_vertices)))
    if total % residual != 0:
        raise InvariantError("orbit count is not divisible by the residual gauge volume")
    return total // residual


# ---------------------------------------------------------------------------
# route 2: modular data


def _is_connected(vertices: Iterable[int], edges: Iterable[tuple[int, int]]) -> bool:
    """Whether `edges` join `vertices` into one piece and touch no other vertex."""
    adj: dict[int, list[tuple[int, None]]] = {v: [] for v in vertices}
    for t, h in edges:
        if t not in adj or h not in adj:
            return False
        adj[t].append((h, None))
        adj[h].append((t, None))
    if not adj:
        return False
    return sum(1 for _ in _breadth_first([next(iter(adj))], adj.__getitem__)) == len(adj)


def _is_bounded_surface(lat: Lattice) -> bool:
    """Whether `lat` is a connected oriented surface whose boundary circles are its regions.

    Every edge borders two faces that traverse it in opposite directions,
    or is a rim edge and borders one face; no region has a dangling edge;
    and each region's rim edges join its rim vertices into one piece.
    """
    sides: list[list[bool]] = [[] for _ in lat.edges]
    for cyc in lat.plaquettes:
        for e, along in cyc:
            sides[e].append(along)
    rim = {e for reg in lat.regions for e in reg.rim_edges}
    if any(reg.dangling_edges for reg in lat.regions) or any(
            len(sd) != (1 if e in rim else 2) or len(set(sd)) != len(sd)
            for e, sd in enumerate(sides)):
        return False
    return _is_connected(range(lat.n_vertices), lat.edges) and all(
        _is_connected(reg.rim_vertices, [lat.edges[e] for e in reg.rim_edges])
        for reg in lat.regions)


def _gsd_modular(lat: Lattice, group: FiniteGroup,
                 subgroups: Mapping[str, Subgroup]) -> Optional[int]:
    """Route 2: the ground-state count from the condensates of D(G).

    A surface with Euler characteristic chi and boundary regions i has
    GSD = sum over sectors x of (d_x/|G|)^chi prod_i W_{i,x}, with W_i the
    condensate of region i, summed exactly by `condensate_count`.  It
    enumerates no configuration, so it is an independent oracle for route 1.
    Returns None on a lattice that is no such surface (`_is_bounded_surface`):
    one with dangling edges, where the count is a double-coset count, or one
    with a one-face edge that is no region's rim edge.
    """
    from qdw.sectors import condensate_count

    _region_assignment(lat, group, subgroups)
    if not _is_bounded_surface(lat):
        return None
    return condensate_count(group, lat.euler_characteristic,
                            [subgroups[reg.name] for reg in lat.regions])


# ---------------------------------------------------------------------------
# route 3: the trace of the explicit projector, on Python integers


def _dense_projector(lat: Lattice, group: FiniteGroup,
                     subgroups: Mapping[str, Subgroup],
                     terms: Optional[Sequence[HamiltonianTerm]] = None):
    """The ground projector's S x S block in exact integers, or None when the
    configurations or the block are over budget.

    Returns (support, diagonal, columns, den).  S (`support`, sorted)
    lists the configurations, as tuples of every edge's register value,
    where the product D of the diagonal terms is nonzero, and `diagonal`
    holds D's numerators there.  It is found by a depth-first walk over
    edge values that reads each diagonal term from its table
    (`DiagonalTable`) as soon as the term's last edge is set, and prunes
    the branch where the term vanishes.  Each off-diagonal term M,
    in order, becomes one column map on S read from its expansion:
    columns[t][i] lists (j, numerator) for each nonzero M[S_j, S_i], S_j
    being S_i with M's row values put on M's edges.  The block is
    P_S = M_k ... M_1 diag(diagonal) / den, with den the product of every
    term's denominator.  Commuting projectors keep S invariant, so the
    projector vanishes outside the block; a term that maps S outside S
    raises.
    """
    n, n_edges = group.order, lat.n_edges
    if n ** n_edges > MATERIALIZE_DIM_BUDGET:
        return None
    if terms is None:
        from qdw.lattice import build_terms

        terms = build_terms(lat, group, subgroups)
    den = 1
    # per edge, the diagonal terms whose last edge it is, each as its
    # edges and its nonzero numerators by configuration
    checks: list[list[tuple]] = [[] for _ in range(n_edges)]
    for t in terms:
        if t.diagonal:
            den *= t.op.den
            checks[t.op.edges[-1]].append((t.op.edges, t.op.values))
    support, diagonal = [], []
    digits = [0] * n_edges
    # (number of edges set, the last one's value, D's numerator on them);
    # each value is checked before it is pushed, in reverse, so the
    # support comes out sorted
    stack = [(0, 0, 1)]
    while stack:
        e, x, w = stack.pop()
        if e:
            digits[e - 1] = x
        if e == n_edges:
            support.append(tuple(digits))
            diagonal.append(w)
            continue
        for x in range(n - 1, -1, -1):
            digits[e] = x
            v = w
            for own, values in checks[e]:
                v *= values.get(tuple(map(digits.__getitem__, own)), 0)
                if not v:
                    break
            if v:
                stack.append((e + 1, x, v))
    if len(support) ** 2 > 40_000_000:
        return None
    index = {s: i for i, s in enumerate(support)}
    columns = []
    for t in terms:
        if t.diagonal:
            continue
        table, d, own = t.op._expansion()
        den *= d
        # each column of the term's own matrix: its (row, numerator) entries
        rows: dict = {}
        for (r, c), v in table.items():
            rows.setdefault(c, []).append((r, v))
        cols = []
        for config in support:
            col = []
            for r, v in rows.get(tuple(map(config.__getitem__, own)), ()):
                image = list(config)
                for e, x in zip(own, r):
                    image[e] = x
                j = index.get(tuple(image))
                if j is None:
                    raise InvariantError(f"{t.name} maps a configuration out of the support")
                col.append((j, v))
            cols.append(col)
        columns.append(cols)
    return support, diagonal, columns, den


def _propagate(vector: dict[int, int], maps: Iterable[Sequence]) -> dict[int, int]:
    """`vector` (position -> integer) sent through each sparse map in turn;
    maps[i] lists (j, a) for each entry a that takes position i to j."""
    for m in maps:
        out: dict[int, int] = {}
        for i, v in vector.items():
            for j, a in m[i]:
                out[j] = out.get(j, 0) + v * a
        vector = out
    return vector


def _projector_rank(block) -> int:
    """Rank of the projector block from `_dense_projector`, read off its trace,
    which must be an integer.

    With R = M_h ... M_1 diag(diagonal) and L = M_k ... M_(h+1), h = k // 2,
    the trace of L R sums, over the support, the dot product of L's row i
    and R's column i: the column is propagated through the first h maps,
    the row back through the transposes of the others, so no S x S matrix
    is formed.  The numerator total is divided exactly by den.
    """
    support, diagonal, columns, den = block
    half = len(columns) // 2
    transposes = []
    for cols in reversed(columns[half:]):
        rows: list[list[tuple[int, int]]] = [[] for _ in support]
        for i, col in enumerate(cols):
            for j, v in col:
                rows[j].append((i, v))
        transposes.append(rows)
    total = 0
    for i, d in enumerate(diagonal):
        right = _propagate({i: d}, columns[:half])
        left = _propagate({i: 1}, transposes)
        if len(left) < len(right):
            left, right = right, left
        total += sum(v * left.get(j, 0) for j, v in right.items())
    rank, rest = divmod(total, den)
    if rest:
        raise InvariantError(f"projector trace {Ratio(total, den)} is not an integer")
    return rank


def _gsd_dense(lat: Lattice, group: FiniteGroup,
               subgroups: Mapping[str, Subgroup]) -> Optional[int]:
    """Route 3: the trace of the explicit projector's support block, an independent oracle."""
    block = _dense_projector(lat, group, subgroups)
    return None if block is None else _projector_rank(block)


# ---------------------------------------------------------------------------
# combined entry point


class GsdReport(Record):
    _fields = __slots__ = ("value", "by_method", "skipped")


_METHODS = {
    "counting": _gsd_counting,
    "modular": _gsd_modular,
    "dense": _gsd_dense,
    "trace": partial(_gsd_counting, gauge_fix=False),
}


def ground_space_dimension(lat: Lattice, group: FiniteGroup,
                           subgroups: Mapping[str, Subgroup],
                           methods: Sequence[str] = ("counting", "modular", "dense"),
                           ) -> GsdReport:
    """Ground-state count, cross-checked across every route within budget.

    A route that does not fit the lattice or its budget is listed in
    `skipped`.  The trace reference route runs only when named.
    """
    results: dict[str, int] = {}
    skipped: list[str] = []
    for m in methods:
        if m not in _METHODS:
            raise ValueError(f"unknown method {m!r}")
        val = _METHODS[m](lat, group, subgroups)
        if val is None:
            skipped.append(m)
        else:
            results[m] = val
    if not results:
        raise ValueError("no ground-state counting route fits its budget here")
    vals = set(results.values())
    if len(vals) != 1:
        raise InvariantError(f"counting routes disagree: {results}")
    return GsdReport(value=vals.pop(), by_method=results, skipped=tuple(skipped))


# ---------------------------------------------------------------------------
# the `gsd` command


def _cmd_gsd(cfg) -> tuple:
    group, lat, subs = _lattice_context(cfg)
    rep = ground_space_dimension(lat, group, subs)
    results = {
        "group": group.label,
        "lattice": cfg.lattice,
        "regions": {r.name: [group.name_of(x) for x in subs[r.name].elements]
                    for r in lat.regions},
        "dimension": rep.value,
        "by_method": dict(sorted(rep.by_method.items())),
        "skipped_methods": sorted(rep.skipped),
    }
    # one route has nothing to agree with
    checks = None if len(rep.by_method) > 1 else [{"name": "gsd-route-agreement",
                                                    "status": "skip"}]
    return results, (["dimension"], [[rep.value]]), checks
