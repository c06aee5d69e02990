"""Lattice geometry: directed-edge cell complexes with boundary regions.

A `Lattice` is vertices, directed edges and oriented faces, plus the
boundary regions (rim vertices, rim edges and dangling edges) where a
gapped boundary condition sits.  `torus`, `patch` and `ring` build the
square lattices the commands take, `carve_hole` cuts a disk of faces out
of a patch as one more boundary region, and `place_values` weights each
edge register in the index of a configuration.  `_holonomy` is the one
face-holonomy convention: the flux terms (`qdw.lattice`) and the flat
connections (`qdw.flat`) both read it.

The flat connections on a lattice, up to gauge, are enumerated in
`qdw.flat`, which the ground-state routes and the logical layer import;
the Hamiltonian terms and their audit (`qdw.lattice`) read only this
module.  The lattice specs of the command line (`parse_lattice`, and
`resolve_region_subgroups` for the boundary subgroup of each region)
are parsed here; past `groups`, which reads the subgroup specs, this
module imports no other layer at run time.  `lattice-audit`, `logical`,
`charge-project` and every `gsd` route, the dense one included, index
configurations by `place_values` and run on Python integers.
"""

from __future__ import annotations

import json
import re
from typing import Mapping, Optional, Sequence

from qdw.groups import (FiniteGroup, Subgroup, UsageError, _is_json_int, _require,
                        build_group, parse_subgroup)
from qdw.records import FrozenRecord

__all__ = [
    "MATERIALIZE_DIM_BUDGET",
    "MAX_LATTICE_EDGES",
    "BoundaryRegion",
    "Lattice",
    "torus",
    "patch",
    "ring",
    "carve_hole",
    "place_values",
    "parse_lattice",
    "resolve_region_subgroups",
]

MATERIALIZE_DIM_BUDGET = 20_000   # largest state space enumerated in full
MAX_LATTICE_EDGES = 10_000        # largest torus, patch or ring built


def place_values(n: int, k: int) -> list[int]:
    """The weight n^(k-1-i) of register i in a configuration index of k n-valued
    registers: configuration c holds value c // w % n in the register of weight w."""
    return [n ** (k - 1 - i) for i in range(k)]


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
# command-line lattice specs


_LATTICE_RE = re.compile(r"^(torus|patch):(\d+)x(\d+)$|^ring:(\d+)$")


def parse_lattice(spec: str) -> tuple[Lattice, dict[str, str]]:
    """Lattice spec plus any per-region subgroup presets it carries.

    Accepts "torus:RxC", "patch:RxC", "ring:C", or a JSON object
    {"kind", "rows"/"cols", "holes": [{"name", "faces"}], "subgroups"}.
    """
    text = spec.strip()
    if text.startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"bad lattice JSON: {exc}") from None
        unknown = sorted(set(data) - {"kind", "rows", "cols", "holes", "subgroups"})
        if unknown:
            raise UsageError(f"unknown lattice fields: {', '.join(unknown)}")
        holes = data.get("holes", [])
        if not (isinstance(holes, list) and all(isinstance(h, dict) for h in holes)):
            raise UsageError(f"lattice 'holes' must be a list of objects, got {holes}")
        kind = data.get("kind")
        try:
            if kind not in ("torus", "patch", "ring"):
                raise UsageError(f"unknown lattice kind {kind!r}")
            sizes = [data[k] for k in (("cols",) if kind == "ring" else ("rows", "cols"))]
            if not all(_is_json_int(x) for x in sizes):
                raise UsageError(f"lattice sizes must be integers, got {sizes}")
            lat = {"torus": torus, "patch": patch, "ring": ring}[kind](*sizes)
            for hole in holes:
                extra = sorted(set(hole) - {"name", "faces"})
                if extra:
                    raise UsageError(f"unknown hole fields: {', '.join(extra)}")
                faces = hole["faces"]
                if not (isinstance(faces, list)
                        and all(isinstance(f, str) or _is_json_int(f) for f in faces)):
                    raise UsageError(f"hole faces must be a list of face names or "
                                     f"indices, got {faces}")
                lat = carve_hole(lat, faces, str(hole["name"]))
        except KeyError as exc:
            raise UsageError(f"bad lattice JSON: missing key {exc}") from None
        except TypeError as exc:
            raise UsageError(f"bad lattice JSON: {exc}") from None
        except ValueError as exc:
            raise UsageError(f"bad lattice spec: {exc}") from None
        subs = data.get("subgroups", {})
        if not isinstance(subs, dict):
            raise UsageError("lattice 'subgroups' must map region names to specs")
        return lat, {str(k): str(v) for k, v in subs.items()}
    m = _LATTICE_RE.match(text)
    if not m:
        raise UsageError(
            f"bad lattice spec {spec!r}; use torus:RxC, patch:RxC, ring:C, or JSON")
    try:
        if m.group(4) is not None:
            return ring(int(m.group(4))), {}
        rows, cols = int(m.group(2)), int(m.group(3))
        return (torus if m.group(1) == "torus" else patch)(rows, cols), {}
    except ValueError as exc:
        raise UsageError(f"bad lattice spec: {exc}") from None


def resolve_region_subgroups(group: FiniteGroup, lat: Lattice, cfg,
                             json_specs: dict[str, str],
                             default: Optional[str] = None) -> dict[str, Subgroup]:
    """Assign one subgroup per boundary region.

    JSON lattice entries win; --subgroup/--subgroup2 fill the remaining
    regions in lattice order; `default` (if given) covers the rest.
    """
    names = [r.name for r in lat.regions]
    for key in json_specs:
        if key not in names:
            raise UsageError(f"lattice has no region named {key!r}")
    specs = dict(json_specs)
    flags = iter(f for f in (cfg.subgroup, cfg.subgroup2) if f is not None)
    for name in names:
        if name not in specs:
            nxt = next(flags, None)
            if nxt is None:
                break
            specs[name] = nxt
    if next(flags, None) is not None:
        raise UsageError("more subgroup flags than unassigned boundary regions")
    missing = [n for n in names if n not in specs]
    if missing and default is not None:
        for n in missing:
            specs[n] = default
        missing = []
    if missing:
        raise UsageError(
            f"no subgroup given for region(s) {', '.join(missing)}; "
            "use --subgroup/--subgroup2 or a lattice JSON 'subgroups' map")
    return {n: parse_subgroup(group, specs[n]) for n in names}


def _lattice_context(cfg, default: Optional[str] = None):
    """The group, lattice and region subgroups a lattice command's `cfg` names."""
    group = build_group(cfg.group)
    _require(cfg, "lattice")
    lat, json_specs = parse_lattice(cfg.lattice)
    subs = resolve_region_subgroups(group, lat, cfg, json_specs, default)
    return group, lat, subs
