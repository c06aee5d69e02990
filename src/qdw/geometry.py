"""Lattice geometry: directed-edge cell complexes with boundary regions,
and the flat connections on them up to gauge.

A `Lattice` is vertices, directed edges and oriented faces, plus the
boundary regions (rim vertices, rim edges and dangling edges) where a
gapped boundary condition sits.  `torus`, `patch` and `ring` build the
square lattices the commands take, `carve_hole` cuts a disk of faces out
of a patch as one more boundary region, and `config_digits` numbers the
configurations of a set of edge registers, weighting each register by
its `place_values` entry.

The second half enumerates flat connections on a gauge-fixed slice: the
gauge domain of each vertex (`_gauge_domains`), a spanning forest rooted
at the smallest domains (`_spanning_forest`), one value per gauge orbit
on each forest edge (`_transversal`), and a streamed, budgeted
depth-first walk over the face constraints (`elimination_order`,
`_enumerate_flat_configs`).  The counting route (`qdw.lattice`) sums
stabilizers over that slice, and the logical layer (`qdw.logical`) reads
its ground sectors off the same slice.  This module imports the group
layer and no operator code, so the logical layer never loads the
Hamiltonian layer.  numpy is imported only inside `config_digits`,
which only code that builds a matrix calls.  So the commands that load
numpy are those that build one: `gsd` where its dense route fits, and
those that need the S matrix.  `lattice-audit`, `logical`,
`charge-project` and the counting and modular `gsd` routes run on
Python integers.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Mapping, Optional, Sequence

from qdw.groups import _breadth_first
from qdw.records import FrozenRecord, Record

if TYPE_CHECKING:
    import numpy as np

    from qdw.groups import FiniteGroup, Subgroup

__all__ = [
    "MATERIALIZE_DIM_BUDGET",
    "MAX_LATTICE_EDGES",
    "BoundaryRegion",
    "Lattice",
    "torus",
    "patch",
    "ring",
    "carve_hole",
    "config_digits",
    "place_values",
]

MATERIALIZE_DIM_BUDGET = 20_000   # largest state space built as a matrix
MAX_LATTICE_EDGES = 10_000        # largest torus, patch or ring built
TRACE_PARTIAL_BUDGET = 20_000_000  # largest branch product of a flat-connection walk


def place_values(n: int, k: int) -> list[int]:
    """The weight n^(k-1-i) of register i in a configuration index of k n-valued
    registers: configuration c holds value c // w % n in the register of weight w."""
    return [n ** (k - 1 - i) for i in range(k)]


def config_digits(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every configuration of k n-valued registers (row-major, register 0 slowest).

    Returns (digits, weights): digits[c] lists the register values of
    configuration c, weights is `place_values(n, k)`, and c == digits[c] @ weights.
    """
    import numpy as np

    weights = np.array(place_values(n, k), dtype=np.int64)
    digits = (np.arange(n ** k, dtype=np.int64)[:, None] // weights[None, :]) % n
    return digits, weights


class BoundaryRegion(FrozenRecord):
    """One boundary component: the retained cells that border removed faces."""
    _fields = __slots__ = ("name", "rim_vertices", "rim_edges", "dangling_edges")

    def __init__(self, name: str, rim_vertices: tuple[int, ...], rim_edges: tuple[int, ...],
                 dangling_edges: tuple[int, ...] = ()):
        super().__init__(name, rim_vertices, rim_edges, dangling_edges)


class Lattice:
    """Directed-edge cell complex with oriented faces and boundary records."""

    def __init__(self, n_vertices: int, edges: Sequence[tuple[int, int]],
                 plaquettes: Sequence[Sequence[tuple[int, bool]]],
                 regions: Sequence[BoundaryRegion] = (),
                 vertex_names: Optional[Sequence[str]] = None,
                 edge_names: Optional[Sequence[str]] = None,
                 plaquette_names: Optional[Sequence[str]] = None,
                 kind: str = "custom"):
        self.n_vertices = n_vertices
        self.edges = [(int(t), int(h)) for t, h in edges]
        self.plaquettes = [tuple((int(e), bool(a)) for e, a in p) for p in plaquettes]
        self.regions = list(regions)
        self.kind = kind
        self.vertex_names = list(vertex_names) if vertex_names else [
            f"v{i}" for i in range(n_vertices)]
        self.edge_names = list(edge_names) if edge_names else [
            f"e{i}" for i in range(len(self.edges))]
        self.plaquette_names = list(plaquette_names) if plaquette_names else [
            f"p{i}" for i in range(len(self.plaquettes))]
        self._validate()
        self.star: list[list[tuple[int, bool]]] = [[] for _ in range(n_vertices)]
        for ei, (t, h) in enumerate(self.edges):
            self.star[t].append((ei, False))
            self.star[h].append((ei, True))
        for st in self.star:
            st.sort()
        self.edge_faces: list[list[int]] = [[] for _ in self.edges]
        for pi, cyc in enumerate(self.plaquettes):
            for e, _ in cyc:
                self.edge_faces[e].append(pi)

    def _validate(self) -> None:
        ne = len(self.edges)
        if len(self.vertex_names) != self.n_vertices or len(self.edge_names) != ne \
                or len(self.plaquette_names) != len(self.plaquettes):
            raise ValueError("name lists must match cell counts")
        for ei, (t, h) in enumerate(self.edges):
            if not (0 <= t < self.n_vertices and 0 <= h < self.n_vertices):
                raise ValueError(f"edge {ei} endpoints out of range")
            if t == h:
                raise ValueError(f"edge {ei} is a self-loop, which is not supported")
        face_count = [0] * ne
        for pi, cyc in enumerate(self.plaquettes):
            if len(cyc) < 2:
                raise ValueError(f"face {pi} has fewer than two sides")
            seen_edges = [e for e, _ in cyc]
            if len(set(seen_edges)) != len(seen_edges):
                raise ValueError(f"face {pi} repeats an edge")
            for e, _ in cyc:
                if not 0 <= e < ne:
                    raise ValueError(f"face {pi} references a missing edge")
                face_count[e] += 1
            for i, (e, along) in enumerate(cyc):
                nxt_e, nxt_along = cyc[(i + 1) % len(cyc)]
                end = self.edges[e][1] if along else self.edges[e][0]
                start = self.edges[nxt_e][0] if nxt_along else self.edges[nxt_e][1]
                if end != start:
                    raise ValueError(f"face {pi} boundary walk is not closed")
        for e, c in enumerate(face_count):
            if c > 2:
                raise ValueError(f"edge {e} borders more than two faces")
        # vertex -> region name, and edge -> (region name, "rim" | "dangling")
        self.vertex_region: dict[int, str] = {}
        self.edge_region: dict[int, tuple[str, str]] = {}
        for reg in self.regions:
            for kind, cells, count in (("rim vertex", reg.rim_vertices, self.n_vertices),
                                       ("rim edge", reg.rim_edges, ne),
                                       ("dangling edge", reg.dangling_edges, ne)):
                for i in cells:
                    if not 0 <= i < count:
                        raise ValueError(f"region {reg.name!r} lists {kind} {i}, "
                                         f"outside 0..{count - 1}")
            roles = {**dict.fromkeys(reg.rim_edges, (reg.name, "rim")),
                     **dict.fromkeys(reg.dangling_edges, (reg.name, "dangling"))}
            if self.vertex_region.keys() & reg.rim_vertices or \
                    self.edge_region.keys() & roles.keys():
                raise ValueError(f"region {reg.name!r} shares cells with another region")
            self.vertex_region.update(dict.fromkeys(reg.rim_vertices, reg.name))
            self.edge_region.update(roles)
            for e in reg.dangling_edges:
                if face_count[e] != 0:
                    raise ValueError(f"dangling edge {e} still borders a face")
                for v in self.edges[e]:
                    if v not in reg.rim_vertices:
                        raise ValueError(
                            f"dangling edge {self.edge_names[e]} has endpoint "
                            f"{self.vertex_names[v]}, which is not a rim vertex "
                            f"of region {reg.name!r}")

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    @property
    def n_plaquettes(self) -> int:
        return len(self.plaquettes)

    @property
    def euler_characteristic(self) -> int:
        return self.n_vertices - self.n_edges + self.n_plaquettes

    def plaquette_base_vertices(self, pi: int) -> list[int]:
        """Corner vertices of face `pi` in traversal order."""
        out = []
        for e, along in self.plaquettes[pi]:
            t, h = self.edges[e]
            out.append(t if along else h)
        return out

    def _cell_index(self, kind: str, names: Sequence[str], key) -> int:
        """Index of a cell given by name or by integer index 0..count-1."""
        if isinstance(key, str):
            try:
                return names.index(key)
            except ValueError:
                raise ValueError(f"unknown {kind} {key!r}") from None
        i = int(key)
        if not 0 <= i < len(names):
            raise ValueError(f"{kind} index {i} out of range")
        return i

    def edge_index(self, key) -> int:
        return self._cell_index("edge", self.edge_names, key)

    def plaquette_index(self, key) -> int:
        return self._cell_index("face", self.plaquette_names, key)

    def vertex_index(self, key) -> int:
        return self._cell_index("vertex", self.vertex_names, key)

    def region_by_name(self, name: str) -> BoundaryRegion:
        for reg in self.regions:
            if reg.name == name:
                return reg
        raise ValueError(f"unknown boundary region {name!r}")

    def __repr__(self) -> str:
        return (f"Lattice({self.kind}, V={self.n_vertices}, E={self.n_edges}, "
                f"P={self.n_plaquettes}, regions={[r.name for r in self.regions]})")


def _check_edge_count(kind: str, n_edges: int) -> None:
    if n_edges > MAX_LATTICE_EDGES:
        raise ValueError(f"{kind} would have {n_edges} edges, over the cap of "
                         f"{MAX_LATTICE_EDGES}")


def _square_grid(rows: int, cols: int, kind: str) -> Lattice:
    """Square lattice of rows x cols faces, wound into a torus or cut out as a patch.

    Vertex (r,c) and the edges h(r,c) along rows, then v(r,c) down columns,
    are numbered row-major; face p(r,c) winds counterclockwise.  A patch
    has one more row and column of vertices than a torus, and its border
    cells form the region "outer".
    """
    wrap = kind == "torus"
    vr, vc = (rows, cols) if wrap else (rows + 1, cols + 1)
    _check_edge_count(kind, vr * cols + rows * vc)
    def vid(r: int, c: int) -> int:
        return (r % vr) * vc + c % vc
    def h(r: int, c: int) -> int:
        return (r % vr) * cols + c
    def v(r: int, c: int) -> int:
        return vr * cols + r * vc + c % vc
    edges = ([(vid(r, c), vid(r, c + 1)) for r in range(vr) for c in range(cols)]
             + [(vid(r, c), vid(r + 1, c)) for r in range(rows) for c in range(vc)])
    edge_names = ([f"h({r},{c})" for r in range(vr) for c in range(cols)]
                  + [f"v({r},{c})" for r in range(rows) for c in range(vc)])
    plaqs = [((h(r, c), True), (v(r, c + 1), True), (h(r + 1, c), False), (v(r, c), False))
             for r in range(rows) for c in range(cols)]
    regions = ()
    if not wrap:
        rim_v = [vid(r, c) for r in range(vr) for c in range(vc)
                 if r in (0, rows) or c in (0, cols)]
        rim_e = sorted([h(r, c) for r in (0, rows) for c in range(cols)] +
                       [v(r, c) for r in range(rows) for c in (0, cols)])
        regions = (BoundaryRegion(name="outer", rim_vertices=tuple(rim_v),
                                  rim_edges=tuple(rim_e)),)
    return Lattice(vr * vc, edges, plaqs, regions=regions,
                   vertex_names=[f"({r},{c})" for r in range(vr) for c in range(vc)],
                   edge_names=edge_names,
                   plaquette_names=[f"p({r},{c})" for r in range(rows) for c in range(cols)],
                   kind=kind)


def torus(rows: int, cols: int) -> Lattice:
    """Square lattice on a torus; faces wind counterclockwise."""
    if rows < 2 or cols < 2:
        raise ValueError("torus needs at least 2 rows and 2 columns")
    return _square_grid(rows, cols, "torus")


def patch(rows: int, cols: int) -> Lattice:
    """Rectangular disk of faces with one outer boundary region."""
    if rows < 1 or cols < 1:
        raise ValueError("patch needs at least one face")
    return _square_grid(rows, cols, "patch")


def ring(cols: int) -> Lattice:
    """Annulus: two concentric vertex rings joined by rungs, one face per sector."""
    if cols < 3:
        raise ValueError("ring needs at least 3 sectors")
    _check_edge_count("ring", 3 * cols)
    # vertices: inner 0..cols-1, outer cols..2cols-1
    edges = []
    edge_names = []
    for c in range(cols):
        edges.append((c, (c + 1) % cols))
        edge_names.append(f"in{c}")
    for c in range(cols):
        edges.append((cols + c, cols + (c + 1) % cols))
        edge_names.append(f"out{c}")
    for c in range(cols):
        edges.append((c, cols + c))
        edge_names.append(f"rung{c}")
    plaqs = []
    pnames = []
    for c in range(cols):
        nxt = (c + 1) % cols
        plaqs.append((
            (c, True),                # inner arc c -> c+1
            (2 * cols + nxt, True),   # rung up at c+1
            (cols + c, False),        # outer arc back
            (2 * cols + c, False),    # rung down at c
        ))
        pnames.append(f"f{c}")
    inner = BoundaryRegion(name="inner", rim_vertices=tuple(range(cols)),
                           rim_edges=tuple(range(cols)))
    outer = BoundaryRegion(name="outer", rim_vertices=tuple(range(cols, 2 * cols)),
                           rim_edges=tuple(range(cols, 2 * cols)))
    vnames = [f"i{c}" for c in range(cols)] + [f"o{c}" for c in range(cols)]
    return Lattice(2 * cols, edges, plaqs, regions=(inner, outer),
                   vertex_names=vnames, edge_names=edge_names,
                   plaquette_names=pnames, kind="ring")


def carve_hole(lat: Lattice, plaquettes: Sequence, region_name: str) -> Lattice:
    """Remove a disk of faces from a patch, adding a new boundary region.

    Cells interior to the removed disk disappear; retained cells that
    border it form the new region's rim.  The hole must not touch any
    existing boundary.
    """
    if lat.kind not in ("patch", "carved"):
        raise ValueError("holes can only be carved out of a patch")
    q = {lat.plaquette_index(p) for p in plaquettes}
    if not q:
        raise ValueError("a hole needs at least one face")
    if any(reg.name == region_name for reg in lat.regions):
        raise ValueError(f"region name {region_name!r} already in use")
    removed_edges = {e for e in range(lat.n_edges)
                     if len(lat.edge_faces[e]) == 2 and set(lat.edge_faces[e]) <= q}
    vertex_faces: list[set[int]] = [set() for _ in range(lat.n_vertices)]
    for pi, cyc in enumerate(lat.plaquettes):
        for v in lat.plaquette_base_vertices(pi):
            vertex_faces[v].add(pi)
    removed_vertices = {v for v in range(lat.n_vertices)
                        if vertex_faces[v] and vertex_faces[v] <= q}
    if len(q) - len(removed_edges) + len(removed_vertices) != 1:
        raise ValueError("removed faces must form a disk")
    rim_v = sorted({v for pi in q for v in lat.plaquette_base_vertices(pi)}
                   - removed_vertices)
    rim_e = sorted({e for pi in q for e, _ in lat.plaquettes[pi]} - removed_edges)
    if lat.vertex_region.keys() & rim_v or lat.edge_region.keys() & rim_e:
        raise ValueError("the hole touches an existing boundary")
    vkeep = [v for v in range(lat.n_vertices) if v not in removed_vertices]
    ekeep = [e for e in range(lat.n_edges) if e not in removed_edges]
    pkeep = [p for p in range(lat.n_plaquettes) if p not in q]
    vmap = {v: i for i, v in enumerate(vkeep)}
    emap = {e: i for i, e in enumerate(ekeep)}
    new_edges = [(vmap[lat.edges[e][0]], vmap[lat.edges[e][1]]) for e in ekeep]
    new_plaqs = [tuple((emap[e], a) for e, a in lat.plaquettes[p]) for p in pkeep]
    new_regions = [BoundaryRegion(
        name=reg.name,
        rim_vertices=tuple(vmap[v] for v in reg.rim_vertices),
        rim_edges=tuple(emap[e] for e in reg.rim_edges),
        dangling_edges=tuple(emap[e] for e in reg.dangling_edges),
    ) for reg in lat.regions]
    new_regions.append(BoundaryRegion(
        name=region_name,
        rim_vertices=tuple(vmap[v] for v in rim_v),
        rim_edges=tuple(emap[e] for e in rim_e),
    ))
    return Lattice(len(vkeep), new_edges, new_plaqs, regions=new_regions,
                   vertex_names=[lat.vertex_names[v] for v in vkeep],
                   edge_names=[lat.edge_names[e] for e in ekeep],
                   plaquette_names=[lat.plaquette_names[p] for p in pkeep],
                   kind="carved")


def _region_assignment(lat: Lattice, group: FiniteGroup,
                       subgroups: Mapping[str, Subgroup]):
    """The lattice's vertex and edge region maps, once `subgroups` is checked against them."""
    names = {reg.name for reg in lat.regions}
    if set(subgroups) != names:
        raise ValueError(f"boundary subgroups must be given for exactly {sorted(names)}")
    for name, sub in subgroups.items():
        if sub.group is not group:
            raise ValueError(f"subgroup for region {name!r} lives in the wrong group")
    return lat.vertex_region, lat.edge_region


# ---------------------------------------------------------------------------
# flat connections and the gauge-fixed slice


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
    tail (as in `qdw.lattice._stabilizer_total`), so the orbits are D x
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
