"""Exact logical operators for cyclic groups on boundary lattices.

The ground sectors of a boundary assignment are the gauge orbits of its
admissible configurations: flat connections whose rim edges lie in the
rim's subgroup K, with K-restricted gauge on rim vertices and K x K
translations on dangling edges.  `AbelianGroundSpace` reads them off the
one gauge-fixed slice that the counting route enumerates
(`qdw.flat.GaugeSlice`), which also owns the one-pass gauge fix and the
merge of slice configurations into sectors under the roots' gauge; a
dangling edge rides on the slice as its double cosets' least members, as
it does in counting.  A string acts on sectors by moving one
representative per sector and reading off where it lands.  The slice,
`sector` and the admissibility of a configuration or shift (face
holonomy, and each rim value in its K) use only the group's
multiplication table; G must be cyclic for the rest: the test that a
phase string is blind to every gauge move, and the string operators
themselves, whose shift and phase data are integers mod n.

Logical actions are permutations with root-of-unity phases, so their
algebra and unitarity are exact, and charge projectors are sums of roots
of unity decided exactly.  On a lattice small enough to enumerate,
`orbits` lists every admissible configuration of each sector, and
`StringOperator.image` moves them exactly, as configurations with
root-of-unity exponents.  Only `charge_projectors` reads sector data
(`qdw.classify`) and exact root-of-unity sums (`qdw.characters`).
"""

from __future__ import annotations

from math import gcd
from operator import mul
from typing import Iterable, Mapping, Optional, Sequence

from qdw.flat import GaugeSlice, _enumerate_flat_configs
from qdw.geometry import MATERIALIZE_DIM_BUDGET, Lattice, _holonomy, _lattice_context
from qdw.groups import (FiniteGroup, InvariantError, Subgroup, UsageError, _breadth_first,
                        _complex_pair, _generating_sequence, _root_of_unity, _round12,
                        is_cyclic_presentation)
from qdw.records import FrozenRecord, Ratio, Record

__all__ = [
    "AbelianGroundSpace",
    "StringOperator",
    "shift_string",
    "phase_string",
    "charge_string",
    "tunnel_operator",
    "flux_string",
    "loop_operator",
    "rim_loop",
    "LogicalAction",
    "logical_action",
    "LogicalQudit",
    "logical_algebra",
    "FrameProjector",
    "ChargeProjectors",
    "charge_projectors",
]


# ---------------------------------------------------------------------------
# ground sectors of a cyclic-group lattice


def _dot(row: Mapping[int, int], x: Sequence[int]) -> int:
    """A sparse row times a dense vector, over Z."""
    return sum(map(mul, row.values(), map(x.__getitem__, row)))


class AbelianGroundSpace:
    """Ground sectors, their representatives, and the tests that validate strings.

    A configuration, or a shift string, is admissible when every face has
    trivial holonomy and every rim value lies in its K.  A phase string is
    valid when its dot product with every gauge move vanishes mod n: one
    move per generator of each vertex's gauge domain (K on rims, G
    elsewhere) and of each dangling edge's K.

    The sectors are the gauge orbits on the one gauge-fixed slice
    (`qdw.flat.GaugeSlice`, kept as `slice`), numbered in the slice's
    enumeration order, and `representatives` holds the first slice
    configuration of each.  `sector` moves a configuration onto the slice
    with the slice's one-pass gauge fix and looks it up.
    """

    def __init__(self, lat: Lattice, group: FiniteGroup,
                 subgroups: Mapping[str, Subgroup]):
        if not is_cyclic_presentation(group):
            raise ValueError("logical analysis needs an explicitly cyclic "
                             "presentation (use build_group('cyclic:n'))")
        self.lattice, self.group, self.n = lat, group, group.order
        ne = lat.n_edges
        self.slice = sl = GaugeSlice(lat, group, subgroups)
        self._allowed = [frozenset(a) for a in sl.allowed]   # K on rim edges, G elsewhere
        # each gauge move as a configuration; every one must be admissible
        moves: list[tuple[str, list[int]]] = []
        for v in range(lat.n_vertices):
            for g in _generating_sequence(group, sl.domains[v]):
                move = [0] * ne
                sl.relabel(move, v, g)
                moves.append((f"creates unabsorbed charge at {lat.vertex_names[v]}", move))
        for e, sub in sl.dangling.items():
            for k in _generating_sequence(group, sub.elements):
                moves.append((f"is not translation invariant on {lat.edge_names[e]}",
                              [k if j == e else 0 for j in range(ne)]))
        if any(self._fault(move) for _, move in moves):
            raise InvariantError("a gauge shift escapes the admissible kernel")
        self._moves = [(text, {e: x for e, x in enumerate(move) if x}) for text, move in moves]
        merged = sl.sectors()
        if merged is None:
            raise ValueError("gauge-fixed slice enumeration over budget")
        self._sector, reps = merged
        self.representatives: tuple[tuple[int, ...], ...] = tuple(reps)
        self.dimension = len(reps)
        self._moved: dict[tuple[int, ...], tuple[int, ...]] = {}   # shift -> permutation

    # -- admissibility and sectors

    def _registers(self, config: Sequence[int]) -> list[int]:
        if len(config) != self.lattice.n_edges:
            raise ValueError(f"configuration has {len(config)} registers, "
                             f"expected {self.lattice.n_edges}")
        return [int(c) % self.n for c in config]

    def _fault(self, x: Sequence[int]) -> Optional[str]:
        """What keeps x from being admissible: its first face with nontrivial
        holonomy, else its first rim edge outside K; None if nothing does."""
        lat = self.lattice
        for pi, cyc in enumerate(lat.plaquettes):
            if _holonomy(self.group, cyc, x):
                return f"changes the holonomy of {lat.plaquette_names[pi]}"
        for e, ok in enumerate(self._allowed):
            if x[e] not in ok:
                return f"leaves the pinned subgroup on {lat.edge_names[e]}"
        return None

    def is_admissible(self, config: Sequence[int]) -> bool:
        return self._fault(self._registers(config)) is None

    def sector(self, config: Sequence[int]) -> int:
        """Index of the sector of an admissible configuration."""
        if not self.is_admissible(config):
            raise ValueError("configuration violates a face or rim constraint")
        found = self._sector.get(self.slice.gauge_fix(self._registers(config)))
        if found is None:
            raise InvariantError("gauge-fixed configuration is not on the slice")
        return found

    def _string(self, what: str, vec: Sequence[int], shift: bool) -> "StringOperator":
        """The string with vec as its shift (or its phase), once vec passes its test."""
        if shift:
            fault = self._fault(vec)
        else:
            fault = next((text for text, move in self._moves if _dot(move, vec) % self.n), None)
        if fault is not None:
            raise ValueError(f"{what} {fault}")
        zero = [0] * len(vec)
        return StringOperator.make(self.n, *((vec, zero) if shift else (zero, vec)))

    def orbits(self) -> list[list[tuple[int, ...]]]:
        """The admissible configurations of each sector, in sector order.

        They are the flat configurations with every rim value in its K,
        enumerated in full (not on the slice), each a tuple of every edge's
        register value, in sorted order.  Only for lattices within
        `MATERIALIZE_DIM_BUDGET`.
        """
        if self.n ** self.lattice.n_edges > MATERIALIZE_DIM_BUDGET:
            raise ValueError("lattice too large to enumerate its orbits")
        members: list[list[tuple[int, ...]]] = [[] for _ in range(self.dimension)]
        for config in sorted(_enumerate_flat_configs(self.lattice, self.group, self._allowed)):
            members[self.sector(config)].append(config)
        if not all(members):
            raise InvariantError("orbit census does not match the sector count")
        return members


# ---------------------------------------------------------------------------
# string operators: a shift and a phase vector with a global phase


class StringOperator(FrozenRecord):
    """Acts as |x> -> w^(offset + phase.x) |x + shift>, w = exp(2 pi i / n)."""
    _fields = __slots__ = ("n", "shift", "phase", "offset")

    def __init__(self, n: int, shift: tuple[int, ...], phase: tuple[int, ...],
                 offset: int = 0):
        if len(phase) != len(shift):
            raise ValueError(f"phase has {len(phase)} registers, "
                             f"shift has {len(shift)}")
        super().__init__(n, shift, phase, offset)

    @staticmethod
    def make(n: int, shift: Sequence[int], phase: Sequence[int],
             offset: int = 0) -> "StringOperator":
        return StringOperator(n, tuple(int(s) % n for s in shift),
                              tuple(int(p) % n for p in phase), int(offset) % n)

    def _dot(self, p: Sequence[int], s: Sequence[int]) -> int:
        return sum(a * b for a, b in zip(p, s)) % self.n

    def compose(self, other: "StringOperator") -> "StringOperator":
        """self applied after other."""
        if self.n != other.n or len(self.shift) != len(other.shift):
            raise ValueError("string operators live on different lattices")
        off = self.offset + other.offset + self._dot(self.phase, other.shift)
        return StringOperator.make(
            self.n,
            [a + b for a, b in zip(self.shift, other.shift)],
            [a + b for a, b in zip(self.phase, other.phase)],
            off)

    def __matmul__(self, other: "StringOperator") -> "StringOperator":
        return self.compose(other)

    def inverse(self) -> "StringOperator":
        off = -self.offset + self._dot(self.phase, self.shift)
        return StringOperator.make(self.n, [-s for s in self.shift],
                                   [-p for p in self.phase], off)

    def power(self, k: int) -> "StringOperator":
        if k < 0:
            return self.inverse().power(-k)
        off = k * self.offset + self._dot(self.phase, self.shift) * (k * (k - 1) // 2)
        return StringOperator.make(self.n, [k * s for s in self.shift],
                                   [k * p for p in self.phase], off)

    def commutation_exponent(self, other: "StringOperator") -> int:
        """k with self.other = w^k other.self."""
        return (self._dot(self.phase, other.shift)
                - self._dot(other.phase, self.shift)) % self.n

    def is_identity(self) -> bool:
        return (not any(self.shift)) and (not any(self.phase)) and self.offset == 0

    def image(self, configs: Iterable[Sequence[int]]) -> dict[tuple[int, ...], int]:
        """Where the operator sends each configuration c: {c + shift: k}, the
        phase being w^k with k = offset + phase.c mod n."""
        n = self.n
        return {tuple([(x + s) % n for x, s in zip(c, self.shift)]):
                (self.offset + self._dot(self.phase, c)) % n for c in configs}


def _edge_vector(ags: AbelianGroundSpace, amounts: Mapping) -> list[int]:
    """Amounts summed per edge mod n; keys are edge indices or names."""
    vec = [0] * ags.lattice.n_edges
    for key, val in amounts.items():
        e = ags.lattice.edge_index(key)
        vec[e] = (vec[e] + int(val)) % ags.n
    return vec


def shift_string(ags: AbelianGroundSpace, amounts: Mapping) -> StringOperator:
    """Validated shift vector; keys are edge indices or names."""
    return ags._string("shift", _edge_vector(ags, amounts), shift=True)


def phase_string(ags: AbelianGroundSpace, amounts: Mapping) -> StringOperator:
    """Validated phase vector; keys are edge indices or names."""
    return ags._string("phase", _edge_vector(ags, amounts), shift=False)


def charge_string(ags: AbelianGroundSpace, vertices: Sequence,
                  charge: int = 1) -> StringOperator:
    """Phase string along a vertex walk; ends must absorb the charge."""
    lat = ags.lattice
    path = [lat.vertex_index(v) for v in vertices]
    if len(path) < 2:
        raise ValueError("a charge string needs at least two vertices")
    p = [0] * lat.n_edges
    for u, v in zip(path, path[1:]):
        # the lowest edge u -> v, else the lowest edge v -> u
        joins = sorted((at_head, e) for e, at_head in lat.star[u]
                       if lat.edges[e][0 if at_head else 1] == v)
        if not joins:
            raise ValueError(
                f"no edge joins {lat.vertex_names[u]} and {lat.vertex_names[v]}")
        backward, e = joins[0]
        p[e] = (p[e] + (-charge if backward else charge)) % ags.n
    return ags._string("charge string", p, shift=False)


def tunnel_operator(ags: AbelianGroundSpace, region_a: str, region_b: str,
                    charge: int = 1) -> StringOperator:
    """Charge string between two boundary regions along a shortest walk."""
    lat = ags.lattice
    src = sorted(lat.region_by_name(region_a).rim_vertices)
    dst = set(lat.region_by_name(region_b).rim_vertices)
    if not src or not dst:
        raise ValueError("both regions need rim vertices")

    def neighbours(u: int):
        for e, at_head in lat.star[u]:
            yield lat.edges[e][0 if at_head else 1], None

    parent: dict[int, Optional[int]] = {}
    for v, p, _ in _breadth_first(src, neighbours):
        parent[v] = p
        if v in dst:
            break
    else:
        raise ValueError(f"regions {region_a!r} and {region_b!r} are not connected")
    path = [v]
    while parent[path[-1]] is not None:
        path.append(parent[path[-1]])
    return charge_string(ags, list(reversed(path)), charge)


def flux_string(ags: AbelianGroundSpace, stations: Sequence,
                flux: int = 1) -> StringOperator:
    """Shift string crossing between consecutive faces.

    Stations are retained faces (index or name); a boundary region name may
    open or close the walk, in which case the string crosses that region's
    rim.  A walk whose first and last face coincide is a closed loop.
    """
    lat = ags.lattice
    region_names = {r.name for r in lat.regions}
    kinds = [("region", st) if isinstance(st, str) and st in region_names
             else ("face", lat.plaquette_index(st)) for st in stations]
    if len(kinds) < 2:
        raise ValueError("a flux string needs at least two stations")
    if any(kind != "face" for kind, _ in kinds[1:-1]):
        raise ValueError("regions may only start or end a flux string")

    def edges(kind, v) -> set[int]:
        if kind == "region":
            return set(lat.region_by_name(v).rim_edges)
        return {e for e, _ in lat.plaquettes[v]}

    s = [0] * lat.n_edges
    for (ka, va), (kb, vb) in zip(kinds, kinds[1:]):
        if ka == kb == "region":
            raise ValueError("a flux string cannot join two regions directly")
        shared = sorted(edges(ka, va) & edges(kb, vb))
        if not shared:
            raise ValueError(
                f"faces {lat.plaquette_names[va]} and {lat.plaquette_names[vb]} "
                "share no edge" if ka == kb else
                f"face does not border region {va if ka == 'region' else vb!r}")
        # crossing out of a face follows its orientation, into one opposes it
        e = shared[0]
        along = next(a for f, a in lat.plaquettes[va if ka == "face" else vb] if f == e)
        s[e] = (s[e] + (flux if along == (ka == "face") else -flux)) % ags.n
    return ags._string("flux string", s, shift=True)


def _closed_walk(nbrs: Mapping[int, Sequence[int]]) -> Optional[list[int]]:
    """The one cycle through every node, from the smallest toward its smaller
    neighbour; None unless each node has two neighbours and one cycle holds all."""
    if not nbrs or any(len(v) != 2 for v in nbrs.values()):
        return None
    start = min(nbrs)
    walk = [start, min(nbrs[start])]
    while walk[-1] != start:
        a, b = walk[-2], walk[-1]
        walk.append(nbrs[b][0] if nbrs[b][0] != a else nbrs[b][1])
    return walk if len(walk) == len(nbrs) + 1 else None


def loop_operator(ags: AbelianGroundSpace, region_name: str,
                  flux: int = 1) -> StringOperator:
    """Concentric flux loop through the faces surrounding a boundary region."""
    lat = ags.lattice
    reg = lat.region_by_name(region_name)
    rim_v = set(reg.rim_vertices)
    faces = sorted(pi for pi in range(lat.n_plaquettes)
                   if rim_v & set(lat.plaquette_base_vertices(pi)))
    if not faces:
        raise ValueError(f"region {region_name!r} touches no retained face")
    edge_sets = {pi: {e for e, _ in lat.plaquettes[pi]} for pi in faces}
    nbrs = {pi: sorted(q for q in faces
                       if q != pi and edge_sets[pi] & edge_sets[q])
            for pi in faces}
    if any(len(v) != 2 for v in nbrs.values()):
        raise ValueError("surrounding faces do not form a simple loop; "
                         "pass an explicit face walk instead")
    walk = _closed_walk(nbrs)
    if walk is None:
        raise ValueError("surrounding faces split into several loops; "
                         "pass an explicit face walk instead")
    return flux_string(ags, walk, flux)


def rim_loop(ags: AbelianGroundSpace, region_name: str,
             charge: int = 1) -> StringOperator:
    """Closed charge string along a region's rim cycle.

    It reads the holonomy around the hole, so it is trivial whenever the
    rim pins that holonomy away.
    """
    lat = ags.lattice
    reg = lat.region_by_name(region_name)
    nbrs: dict[int, list[int]] = {}
    for e in reg.rim_edges:
        t, h = lat.edges[e]
        nbrs.setdefault(t, []).append(h)
        nbrs.setdefault(h, []).append(t)
    walk = _closed_walk(nbrs)
    if walk is None:
        raise ValueError(f"rim of {region_name!r} is not a single cycle")
    return charge_string(ags, walk, charge)


# ---------------------------------------------------------------------------
# action on the sector basis


class LogicalAction(FrozenRecord):
    """Monomial action on sector states: |j> -> w^(phase[j]) |perm[j]>."""
    _fields = __slots__ = ("n", "perm", "phase_exp")

    def compose(self, other: "LogicalAction") -> "LogicalAction":
        perm = tuple(self.perm[other.perm[j]] for j in range(len(self.perm)))
        ph = tuple((other.phase_exp[j] + self.phase_exp[other.perm[j]]) % self.n
                   for j in range(len(self.perm)))
        return LogicalAction(self.n, perm, ph)

    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) \
            and not any(self.phase_exp)

    def is_unitary(self) -> bool:
        """Exact: with root-of-unity entries, unitary means perm is a permutation."""
        return sorted(self.perm) == list(range(len(self.perm)))

    def matrix(self) -> list[list[complex]]:
        """Dense rows of Python complex, each phase rendered by `_root_of_unity`."""
        d = len(self.perm)
        out = [[0j] * d for _ in range(d)]
        for j in range(d):
            out[self.perm[j]][j] = _root_of_unity(self.phase_exp[j], self.n)
        return out


def logical_action(ags: AbelianGroundSpace, op: StringOperator) -> LogicalAction:
    """Sector j goes to the sector of rep_j + shift, with phase offset + phase.rep_j.

    The permutation depends on the shift alone, so each shift's is computed
    once per ground space.
    """
    if op.n != ags.n or len(op.shift) != ags.lattice.n_edges:
        raise ValueError("operator does not match the sector data")
    perm = ags._moved.get(op.shift)
    if perm is None:
        perm = tuple(ags.sector([a + b for a, b in zip(rep, op.shift)])
                     for rep in ags.representatives)
        if sorted(perm) != list(range(ags.dimension)):
            raise InvariantError("sector action is not a permutation")
        ags._moved[op.shift] = perm
    phase = {e: p for e, p in enumerate(op.phase) if p}
    return LogicalAction(ags.n, perm, tuple((op.offset + _dot(phase, rep)) % ags.n
                                            for rep in ags.representatives))


# ---------------------------------------------------------------------------
# Weyl pair normal form
#
# The logical frame diagonalizes the loop: |c> is the loop eigenstate with
# eigenvalue w^c, and the tunnel lowers c, so XZ = w ZX with every matrix
# entry pinned.  When the loop permutes the gauge orbits the eigenbasis is
# the Fourier transform of the orbit cycle; when the loop is diagonal the
# orbits themselves are the eigenbasis, sorted by eigenvalue.


class LogicalQudit(Record):
    """One full qudit: X (tunnel) |c> = |c-1>, Z (loop) |c> = w^c |c>.

    `orbit_cycle` lists the sector indices in frame order.  With `fourier`
    the frame is |c> = sum_k w^(-ck) |orbit_k> / sqrt(d); without it the
    orbits themselves.
    """
    _fields = __slots__ = ("sector", "x_op", "z_op", "orbit_cycle", "fourier",
                           "x_action", "z_action")

    @property
    def d(self) -> int:
        return len(self.orbit_cycle)

    def frame_action(self, op: StringOperator) -> LogicalAction:
        """Exact action of a validated string in the |c> frame.

        A valid phase vector is linear along the orbit cycle, so every
        string stays monomial after the Fourier change of basis.
        """
        n = self.sector.n
        act = logical_action(self.sector, op)
        cyc = [0] * n   # sector index -> frame coordinate
        for k, j in enumerate(self.orbit_cycle):
            cyc[j] = k
        perm, phases = [0] * n, [0] * n
        for j in range(n):
            perm[cyc[j]] = cyc[act.perm[j]]
            phases[cyc[j]] = act.phase_exp[j]
        if not self.fourier:
            return LogicalAction(n, tuple(perm), tuple(phases))
        steps = {(perm[c] - c) % n for c in range(n)}
        if len(steps) != 1:
            raise InvariantError("string does not translate the orbit cycle")
        m = steps.pop()
        slopes = {(phases[(k + 1) % n] - phases[k]) % n for k in range(n)}
        if len(slopes) != 1:
            raise InvariantError("string phase is not linear on the orbit cycle")
        r = slopes.pop()
        phi0 = phases[0]
        perm = tuple((c - r) % n for c in range(n))
        phase = tuple((phi0 + ((c - r) % n) * m) % n for c in range(n))
        return LogicalAction(n, perm, phase)

    def relation_report(self) -> list[tuple[str, str, Ratio]]:
        """Exact relations as (lhs, rhs, phase in turns), each turn in lowest terms."""
        n = self.sector.n
        out = [("X.Z", "Z.X", Ratio(self.x_op.commutation_exponent(self.z_op), n))]
        for name, op in (("X", self.x_op), ("Z", self.z_op)):
            if not op.power(n).is_identity():
                raise InvariantError(f"{name}^{n} is not the identity")
            out.append((f"{name}^{n}", "I", Ratio(0)))
        return out


def logical_algebra(ags: AbelianGroundSpace, tunnel: StringOperator,
                    loop: StringOperator) -> LogicalQudit:
    """Normalize a tunnel/loop pair into the fixed convention XZ = w ZX.

    The loop power is adjusted so the pair winds exactly once; the frame
    starts where the tunnel phase vanishes.  That pins every matrix entry
    with no leftover gauge freedom, and makes the tunnel entry between
    neighbouring basis states exactly one.
    """
    n = ags.n
    if n < 2:
        raise ValueError(f"a group of order {n} encodes no logical qudit (need order 2 or more)")
    if ags.dimension != n:
        raise ValueError(f"{ags.dimension} sectors are not one full qudit (need {n})")
    kappa = tunnel.commutation_exponent(loop)
    if gcd(kappa, n) != 1:
        raise ValueError(
            f"string pair winds {kappa} mod {n}; it cannot generate a Weyl pair")
    loop = loop.power(pow(kappa, -1, n))
    if tunnel.commutation_exponent(loop) != 1:
        raise InvariantError("winding normalization failed")
    t_act = logical_action(ags, tunnel)
    l_act = logical_action(ags, loop)
    t_diag = all(p == j for j, p in enumerate(t_act.perm))
    l_diag = all(p == j for j, p in enumerate(l_act.perm))
    if t_diag == l_diag:
        raise ValueError("exactly one of the pair must act diagonally on sectors")
    mover, stayer = (l_act, t_act) if t_diag else (t_act, l_act)
    if any(mover.phase_exp):
        raise ValueError("the sector-permuting string must act without phases")
    zeta = list(stayer.phase_exp)
    if sorted(zeta) != list(range(n)):
        raise InvariantError("the diagonal string does not separate the sectors")
    if t_diag:
        # loop permutes the orbits: Fourier frame along its cycle, started
        # where the tunnel phase is zero
        order = [zeta.index(0)]
        for _ in range(n - 1):
            order.append(l_act.perm[order[-1]])
        if l_act.perm[order[-1]] != order[0] or len(set(order)) != n:
            raise InvariantError("the loop string does not cycle the sectors")
        if [zeta[j] for j in order] != list(range(n)):
            raise InvariantError("the pair does not close the Weyl algebra")
    else:
        # loop is diagonal: the orbits are its eigenbasis, sorted by phase
        order = [zeta.index(c) for c in range(n)]
        for c in range(n):
            if t_act.perm[order[c]] != order[(c - 1) % n]:
                raise InvariantError("the pair does not close the Weyl algebra")
    x_final = LogicalAction(n, tuple((c - 1) % n for c in range(n)), (0,) * n)
    z_final = LogicalAction(n, tuple(range(n)), tuple(range(n)))
    qud = LogicalQudit(sector=ags, x_op=tunnel, z_op=loop,
                       orbit_cycle=tuple(order),
                       fourier=t_diag, x_action=x_final, z_action=z_final)
    if qud.frame_action(tunnel) != x_final or qud.frame_action(loop) != z_final:
        raise InvariantError("frame transport disagrees with the normal form")
    return qud


# ---------------------------------------------------------------------------
# charge readout


class FrameProjector(FrozenRecord):
    """A projector that is diagonal in the logical frame: diagonal[c] is 0 or 1."""
    _fields = __slots__ = ("diagonal",)

    def trace(self) -> int:
        return sum(self.diagonal)

    def matrix(self) -> list[list[complex]]:
        """Dense rows of Python complex."""
        d = len(self.diagonal)
        return [[complex(x) if a == b else 0j for b in range(d)]
                for a, x in enumerate(self.diagonal)]


class ChargeProjectors(Record):
    """One projector per bulk anyon, measuring the charge behind a loop.

    `labels` gives each projector's (flux, irrep); `selected` maps each
    rank-1 label to its basis state.
    """
    _fields = __slots__ = ("labels", "projectors", "transport_actions", "selected")

    def projector(self, label: tuple[int, int]) -> FrameProjector:
        return self.projectors[self.labels.index(label)]


def charge_projectors(qudit: LogicalQudit,
                      region_name: str) -> ChargeProjectors:
    """Fourier family of projectors onto the charge behind one hole.

    Transports of every bulk anyon around the region combine with weights
    from the bulk S matrix: P_j = sum_i conj(S_ij / S_i0) T_i / n^2, sector
    0 being the vacuum.  Sector i, with flux f and additive charge q (its
    character is x -> w^(q x), so q is `charge_exponents` at x = 1), is
    transported by the inverse flux loop to the f and the inverse rim loop
    to the q.  For abelian G, S_i0 = 1/n, so each weight is w^(s_ij)
    (`s_phases`), and each transport is monomial, so n^2 times an entry of
    P_j is a sum of roots of unity, kept as exponent counts and decided
    exactly (`_integer_sum`).  Every projector must be diagonal in the
    frame with entries 0 and 1 and rank at most one, their supports
    disjoint and together the whole frame.  On a charge-condensing hole
    only the pure charge sectors survive; their projectors pick out single
    logical states.
    """
    from qdw.characters import _integer_sum
    from qdw.classify import abelian_anyon_data

    ags = qudit.sector
    n = ags.n
    if not qudit.fourier:
        raise ValueError(
            "charge readout needs a flux loop; this encoding's loop is diagonal")
    data = abelian_anyon_data(ags.group)
    # transport orientation: the inverse loops align the family with the
    # labels measured by the tunnel direction of the qudit
    flux_t = qudit.z_op.inverse()
    charge_t = rim_loop(ags, region_name).inverse()
    transports: dict[tuple[int, int], LogicalAction] = {}
    for (flux, irrep), chi in zip(data.charges, data.charge_exponents):
        op = flux_t.power(flux) @ charge_t.power(chi[1 % n])
        transports[(flux, irrep)] = qudit.frame_action(op)
    # column b of each transport: where it sends frame state b, and its phase
    columns = [[(transports[lab].perm[b], transports[lab].phase_exp[b])
                for lab in data.charges] for b in range(n)]
    s = data.s_phases
    value: dict[tuple[int, ...], Optional[int]] = {}   # exponent counts -> integer sum
    projectors = []
    selected: dict[tuple[int, int], int] = {}
    for j, lab in enumerate(data.charges):
        # conj(S_ij / S_i0) = w^(s_ij), as s_i0 = 0
        weights = [s_i[j] for s_i in s]
        diagonal, off_diagonal = [], False
        for b, column in enumerate(columns):
            counts = [[0] * n for _ in range(n)]   # counts[a][k]: terms w^k at (a, b)
            for w, (a, phase) in zip(weights, column):
                counts[a][(w + phase) % n] += 1
            for a, row in enumerate(counts):
                key = tuple(row)
                if key not in value:
                    value[key] = _integer_sum({k: c for k, c in enumerate(row) if c}, n)
                if a == b:
                    diagonal.append(value[key])
                elif value[key] != 0:
                    off_diagonal = True
        if off_diagonal:
            raise InvariantError("charge projector is not diagonal in the frame")
        if any(x not in (0, n * n) for x in diagonal):
            raise InvariantError("charge projector is not idempotent")
        diagonal = [x // (n * n) for x in diagonal]
        if sum(diagonal) > 1:
            raise InvariantError("charge projector is not rank zero or one")
        if 1 in diagonal:
            if diagonal.index(1) in selected.values():
                raise InvariantError("charge projectors are not orthogonal")
            selected[lab] = diagonal.index(1)
        projectors.append(FrameProjector(tuple(diagonal)))
    # disjoint 0/1 diagonals sum to the identity exactly when every state is selected
    if sorted(selected.values()) != list(range(n)):
        raise InvariantError("charge projectors do not resolve the identity")
    return ChargeProjectors(labels=list(data.charges), projectors=projectors,
                            transport_actions=transports, selected=selected)


# ---------------------------------------------------------------------------
# the `logical` and `charge-project` commands


def _hole_encoding(cfg):
    """Qudit on the first two charge-condensing regions, loop on the first."""
    group, lat, subs = _lattice_context(cfg, default="trivial")
    condensing = [r.name for r in lat.regions if subs[r.name].order == 1]
    if len(condensing) < 2:
        raise UsageError(
            "the hole encoding needs two regions with the trivial subgroup")
    ags = AbelianGroundSpace(lat, group, subs)
    x = tunnel_operator(ags, condensing[0], condensing[1])
    z = loop_operator(ags, condensing[0])
    qud = logical_algebra(ags, x, z)
    return group, qud, condensing[:2]


def _matrix_pairs(m: Sequence[Sequence[complex]]) -> list[list[float]]:
    return [_complex_pair(z) for row in m for z in row]


def _relation_rows(qud) -> list[dict]:
    rows = []
    for lhs, rhs, turns in qud.relation_report():
        phase = _root_of_unity(turns.numerator, turns.denominator)
        rows.append({"lhs": lhs, "rhs": rhs, "phase": _complex_pair(phase),
                     "turns": f"{turns.numerator}/{turns.denominator}"})
    return rows


def _cmd_logical(cfg) -> tuple:
    group, qud, holes = _hole_encoding(cfg)
    ops = [("X", qud.x_action), ("Z", qud.z_action)]
    for name, act in ops:
        if not act.is_unitary():
            raise InvariantError(f"logical {name} is not unitary")
    results = {
        "encoding": {"group": group.label, "holes": holes, "d": qud.d},
        "operators": [{"name": name, "matrix": _matrix_pairs(act.matrix())}
                      for name, act in ops],
        "relations": _relation_rows(qud),
    }
    return results, None, None


def _cmd_charge_project(cfg) -> tuple:
    group, qud, holes = _hole_encoding(cfg)
    fam = charge_projectors(qud, holes[0])
    results = {
        "encoding": {"group": group.label, "holes": holes, "d": qud.d},
        "loop_region": holes[0],
        "labels": [[f, q] for f, q in fam.labels],
        "projectors": [{"label": [f, q],
                        "trace": _round12(p.trace()),
                        "matrix": _matrix_pairs(p.matrix())}
                       for (f, q), p in zip(fam.labels, fam.projectors)],
        "selected": [{"label": [f, q], "state": s}
                     for (f, q), s in sorted(fam.selected.items())],
    }
    return results, None, None
