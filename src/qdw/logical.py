"""Exact logical operators for cyclic groups on boundary lattices.

For a cyclic group the whole ground problem is linear algebra over Z_n:
admissible configurations are a kernel mod n, gauge shifts are a
sublattice, and ground sectors are the quotient.  Smith normal forms over
Z_n with tracked invertible transforms make every step exact, so logical
string operators come out with integer shift and phase data and their
algebra can be certified without any floating point.  The sector label is
a homomorphism on the admissible kernel, so a string acts on sectors by
translation: it adds the label of its shift to every sector's label.

Working mod n loses nothing, because both lattices contain nZ^E.  The
admissible kernel is defined mod n.  The first normal form writes it as a
sum of Z_{g_i}, g_i = gcd(d_i, n), one coordinate per edge, and in those
free coordinates the gauge lattice contains diag(g_i) with g_i | n.  So
the quotient (the second form) is the same over Z and over Z_n, and every
matrix stays int64 with entries in [0, n): no coefficient swell.  The
quotient needs only the free coordinates, g_i > 1: by the chain
g_i | g_{i+1} the g_i = 1 ones come first, and over all E coordinates
they are a prefix of unit rows whose pivots touch nothing else.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, prod
from typing import Mapping, Optional, Sequence

import numpy as np

from qdw.groups import (FiniteGroup, InvariantError, Subgroup, _breadth_first,
                        character_table, is_cyclic_presentation)
from qdw.geometry import (MATERIALIZE_DIM_BUDGET, Lattice, _region_assignment,
                          config_digits)

__all__ = [
    "SmithForm",
    "smith_normal_form",
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
    "ChargeProjectors",
    "charge_projectors",
]


# ---------------------------------------------------------------------------
# Smith normal form over Z_n: int64 entries in [0, n), so nothing swells


def _bezout(p: int, x: int) -> tuple[int, int, int]:
    """(h, s, r) with s p + r x = h = gcd(p, x)."""
    s0, s1, r0, r1 = 1, 0, 0, 1
    while x:
        q, rem = divmod(p, x)
        p, x = x, rem
        s0, s1, r0, r1 = s1, s0 - q * s1, r1, r0 - q * r1
    return p, s0, r0


@dataclass
class SmithForm:
    """u @ a @ v == d (mod n) with d diagonal and u, v invertible mod n.

    Every matrix is int64 with entries in [0, n).
    """
    n: int
    d: np.ndarray
    u: np.ndarray
    uinv: np.ndarray
    v: np.ndarray
    vinv: np.ndarray

    def diagonal(self) -> list[int]:
        """gcd(d_ii, n) for each i, so a zero pivot reads n."""
        return np.gcd(np.diagonal(self.d), self.n).tolist()


def smith_normal_form(a: np.ndarray | Sequence[Sequence[int]], n: int) -> SmithForm:
    """Smith normal form of an integer matrix over Z_n, with both
    transforms and their inverses.

    Pivot t is the trailing entry with the smallest gcd(x, n), the first in
    row-major order, so a unit is taken whenever there is one.  The pivot p
    divides an entry x in Z_n exactly when g = gcd(p, n) divides x; all such
    entries of column t (then of row t) go in one rank-one update.  Any other
    entry meets the pivot in a 2x2 Bezout step of determinant 1, which puts
    gcd(p, x) on the pivot: gcd(d_tt, n) strictly shrinks, so the loop ends.
    A cleared pivot that does not divide some trailing entry takes in that
    entry's row and goes round again.
    """
    if n < 1:
        raise ValueError(f"modulus must be positive, got {n}")
    if not isinstance(a, np.ndarray):
        k = len(a[0]) if len(a) else 0
        for i, row in enumerate(a):
            if len(row) != k:
                raise ValueError(f"row {i} has {len(row)} entries, expected {k}")
        a = np.array(a, dtype=np.int64).reshape(len(a), k)
    a = a.astype(np.int64) % n
    m, k = a.shape
    # every product below sums at most max(m, k, 2) terms under n^2 each
    if max(m, k, 2) * n * n >= 2 ** 63:
        raise ValueError(f"modulus {n} is too large for int64 at width {max(m, k)}")
    d = a.copy()
    u, uinv_t = np.eye(m, dtype=np.int64), np.eye(m, dtype=np.int64)
    v_t, vinv = np.eye(k, dtype=np.int64), np.eye(k, dtype=np.int64)

    # A column step on d is a row step on d^T that updates v^T as u and v^-1
    # as uinv^T, so one pair of steps serves both sides.  Lines t.. are zero
    # before position t, so each step touches d[t:, t:] only.
    rows, cols = (d, u, uinv_t), (d.T, v_t, vinv)

    def combine(side, i, s, r, b, c):
        """Lines (t, i) <- [[s, r], [-b, c]] @ lines (t, i), determinant 1."""
        dd, x, x_inv = side
        dd[[t, i], t:] = np.array([[s, r], [-b, c]]) @ dd[[t, i], t:] % n
        x[[t, i]] = np.array([[s, r], [-b, c]]) @ x[[t, i]] % n
        x_inv[[t, i]] = np.array([[c, b], [-r, s]]) @ x_inv[[t, i]] % n

    def eliminate(side, lines, q):
        """Line i -= q_i line t, for every i in lines."""
        dd, x, x_inv = side
        dd[lines, t:] = (dd[lines, t:] - np.outer(q, dd[t, t:])) % n
        x[lines] = (x[lines] - np.outer(q, x[t])) % n
        x_inv[t] = (x_inv[t] + q @ x_inv[lines]) % n

    def clear(side):
        """Zero position t of every later line; returns gcd(d_tt, n)."""
        line = side[0][:, t]
        p = int(line[t])
        g = gcd(p, n)
        for i in np.flatnonzero(line[t + 1:] % g) + t + 1 if g > 1 else ():
            x = int(line[i])
            if x % g:
                h, s, r = _bezout(p, x)
                combine(side, i, s, r, x // h, p // h)
                p, g = h, gcd(h, n)
        rest = np.flatnonzero(line[t + 1:]) + t + 1
        if rest.size:
            eliminate(side, rest, line[rest] // g * pow(p // g, -1, n // g) % (n // g))
        return g

    for t in range(min(m, k)):
        nonzero = np.flatnonzero(d[t:, t:])
        if not nonzero.size:
            break
        at = int(nonzero[np.gcd(d[t:, t:].flat[nonzero], n).argmin()])
        for side, i in zip((rows, cols), divmod(at, k - t)):
            for x in side:
                x[[t, t + i]] = x[[t + i, t]]
        while True:
            clear(rows)
            g = clear(cols)
            if d[t + 1:, t].any():
                continue
            offender = np.flatnonzero((d[t + 1:, t + 1:] % g).any(axis=1)) if g > 1 else ()
            if not len(offender):
                break
            combine(rows, offender[0] + t + 1, 1, 1, 0, 1)   # row t += that row
    form = SmithForm(n, d, u, np.ascontiguousarray(uinv_t.T), np.ascontiguousarray(v_t.T), vinv)
    if (u @ a % n @ form.v % n != d).any():
        raise InvariantError("normal form transform bookkeeping failed")
    if ((u @ form.uinv % n != np.eye(m)).any()
            or (form.v @ vinv % n != np.eye(k)).any()):
        raise InvariantError("normal form transforms are not invertible mod n")
    diag = form.diagonal()
    if any(y % x for x, y in zip(diag, diag[1:])):
        raise InvariantError("normal form lost the divisibility chain")
    return form


# ---------------------------------------------------------------------------
# ground sectors of a cyclic-group lattice


def _cyclic_step(n: int, sub: Subgroup) -> int:
    """Write a subgroup of Z_n as step * Z_n; the trivial subgroup gets n."""
    step = n // sub.order
    if tuple(sub.elements) != tuple(range(0, n, step)):
        raise InvariantError("subgroup of a cyclic group must be a stride")
    return step


class AbelianGroundSpace:
    """Ground sectors, orbit labels, and representatives over Z_n.

    Admissible configurations solve M x = 0 (mod n), where M stacks one
    signed row per face and one pinning row per rim edge.  Gauge shifts
    span a sublattice of that kernel; sectors are the finite quotient,
    presented through two normal forms over Z_n as a product of cyclic
    factors.

    Each map is read straight off the forms, all mod n: the free rows of
    V^-1 (kernel coordinate i is (V^-1 x)_i / (n/g_i)), the live rows of the
    second form's U, and the lift from labels to representatives,
    V[:, free] . diag(n/g) . U^-1[:, live].  So a label, a representative
    and every validation is one matmul, whose entries all lie below n, so
    its int64 sums stay far from wrapping.
    """

    def __init__(self, lat: Lattice, group: FiniteGroup,
                 subgroups: Mapping[str, Subgroup]):
        n = group.order
        if not is_cyclic_presentation(group):
            raise ValueError("logical analysis needs an explicitly cyclic "
                             "presentation (use build_group('cyclic:n'))")
        self.lattice = lat
        self.group = group
        self.n = n
        vertex_region, edge_region = _region_assignment(lat, group, subgroups)
        ne = lat.n_edges
        step = {reg: _cyclic_step(n, sub) for reg, sub in subgroups.items()}
        edge_roles = sorted(edge_region.items())
        shift_rows: list[list[int]] = []
        shift_msgs: list[str] = []
        for pi, cyc in enumerate(lat.plaquettes):
            row = [0] * ne
            for e, along in cyc:
                row[e] += 1 if along else -1
            shift_rows.append(row)
            shift_msgs.append(f"changes the holonomy of {lat.plaquette_names[pi]}")
        for e, (reg, role) in edge_roles:
            if role == "rim":
                shift_rows.append([n // step[reg] if j == e else 0 for j in range(ne)])
                shift_msgs.append(f"leaves the pinned subgroup on {lat.edge_names[e]}")
        self._shift = np.array(shift_rows, dtype=np.int64).reshape(len(shift_rows), ne) % n
        self._shift_msgs = shift_msgs
        incidence = [[0] * ne for _ in range(lat.n_vertices)]
        for e, (t, h) in enumerate(lat.edges):
            incidence[h][e] += 1
            incidence[t][e] -= 1
        self._incidence = incidence
        phase_rows: list[list[int]] = []
        phase_msgs: list[str] = []
        for v in range(lat.n_vertices):
            k = step[vertex_region[v]] if v in vertex_region else 1
            phase_rows.append([k * x for x in incidence[v]])
            phase_msgs.append(f"creates unabsorbed charge at {lat.vertex_names[v]}")
        for e, (reg, role) in edge_roles:
            if role == "dangling":
                phase_rows.append([step[reg] if j == e else 0 for j in range(ne)])
                phase_msgs.append(f"is not translation invariant on {lat.edge_names[e]}")
        self._phase_rows = phase_rows
        self._phase = np.array(phase_rows, dtype=np.int64).reshape(len(phase_rows), ne) % n
        self._phase_msgs = phase_msgs
        if (self._shift @ self._phase.T % n).any():
            raise InvariantError("a gauge shift escapes the admissible kernel")
        # kernel of M mod n, parameterized through the first normal form
        self._form1 = smith_normal_form(self._shift, n)
        diag1 = self._form1.diagonal()
        self._g = diag1 + [n] * (ne - len(diag1))
        free = [i for i, g in enumerate(self._g) if g > 1]
        g_free = np.array([self._g[i] for i in free], dtype=np.int64)
        self._vinv = self._form1.vinv[free]
        self._unit = n // g_free
        # the quotient by the gauge generators, in free kernel coordinates
        gens = self._coordinates(self._phase).T
        self._form2 = smith_normal_form(np.hstack([np.diag(g_free), gens]), n)
        s = self._form2.diagonal()
        live = [i for i, si in enumerate(s) if si > 1]
        self.invariant_factors = tuple(s[i] for i in live)
        self.dimension = prod(self.invariant_factors)
        self._u = self._form2.u[live]
        self._lift = (self._form1.v[:, free] * self._unit % n
                      @ self._form2.uinv[:, live] % n)

    # -- admissibility and labels

    def _registers(self, config: Sequence[int]) -> np.ndarray:
        if len(config) != self.lattice.n_edges:
            raise ValueError(f"configuration has {len(config)} registers, "
                             f"expected {self.lattice.n_edges}")
        return np.array([int(c) % self.n for c in config], dtype=np.int64)

    def _coordinates(self, x: np.ndarray) -> np.ndarray:
        """Free kernel coordinates of admissible rows x (one row per configuration)."""
        return x @ self._vinv.T % self.n // self._unit

    def _labels(self, x: np.ndarray) -> np.ndarray:
        """Sector labels of admissible rows x (one row per configuration)."""
        return self._coordinates(x) @ self._u.T % np.array(self.invariant_factors,
                                                          dtype=np.int64)

    def is_admissible(self, config: Sequence[int]) -> bool:
        return not (self._shift @ self._registers(config) % self.n).any()

    def label(self, config: Sequence[int]) -> tuple[int, ...]:
        """Sector label of an admissible configuration."""
        if not self.is_admissible(config):
            raise ValueError("configuration violates a face or rim constraint")
        return tuple(self._labels(self._registers(config)).tolist())

    def labels(self) -> list[tuple[int, ...]]:
        return list(itertools.product(*(range(s) for s in self.invariant_factors)))

    def representative(self, label: Sequence[int]) -> tuple[int, ...]:
        """One admissible configuration in the given sector."""
        if len(label) != len(self.invariant_factors):
            raise ValueError("label length does not match the sector rank")
        lab = tuple(int(l) % s for l, s in zip(label, self.invariant_factors))
        x = tuple((self._lift @ np.array(lab, dtype=np.int64) % self.n).tolist())
        if self.label(x) != lab:
            raise InvariantError("sector representative does not map back")
        return x

    @cached_property
    def representatives(self) -> tuple[tuple[int, ...], ...]:
        """One round-trip-checked representative per sector, in labels() order."""
        return tuple(self.representative(lab) for lab in self.labels())

    def _string(self, what: str, vec: Sequence[int], shift: bool) -> "StringOperator":
        """The string with vec as its shift (or its phase), once every row holds."""
        rows, msgs = (self._shift, self._shift_msgs) if shift else (self._phase, self._phase_msgs)
        bad = np.flatnonzero(rows @ np.array(vec, dtype=np.int64) % self.n)
        if bad.size:
            raise ValueError(f"{what} {msgs[bad[0]]}")
        zero = [0] * len(vec)
        return StringOperator.make(self.n, *((vec, zero) if shift else (zero, vec)))

    def orbit_state_matrix(self) -> np.ndarray:
        """Columns are normalized gauge-orbit superpositions, in label order.

        Only for lattices small enough to enumerate every configuration.
        """
        n, ne = self.n, self.lattice.n_edges
        dim = n ** ne
        if dim > MATERIALIZE_DIM_BUDGET:
            raise ValueError("lattice too large to materialize orbit states")
        digits, _ = config_digits(n, ne)
        ok = np.flatnonzero(~(digits @ self._shift.T % n).any(axis=1))
        idx_by_label: dict[tuple[int, ...], list[int]] = {}
        for i, lab in zip(ok.tolist(), self._labels(digits[ok]).tolist()):
            idx_by_label.setdefault(tuple(lab), []).append(i)
        labels = self.labels()
        if sorted(idx_by_label) != sorted(labels):
            raise InvariantError("orbit census does not match the sector count")
        out = np.zeros((dim, len(labels)))
        for j, lab in enumerate(labels):
            members = idx_by_label[lab]
            out[members, j] = 1.0 / np.sqrt(len(members))
        return out


# ---------------------------------------------------------------------------
# string operators: a shift and a phase vector with a global phase


@dataclass(frozen=True)
class StringOperator:
    """Acts as |x> -> w^(offset + phase.x) |x + shift>, w = exp(2 pi i / n)."""
    n: int
    shift: tuple[int, ...]
    phase: tuple[int, ...]
    offset: int = 0

    def __post_init__(self):
        if len(self.phase) != len(self.shift):
            raise ValueError(f"phase has {len(self.phase)} registers, "
                             f"shift has {len(self.shift)}")

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

    def apply(self, states: np.ndarray) -> np.ndarray:
        """The operator applied to the rows of states (configurations, as in config_digits)."""
        n, ne = self.n, len(self.shift)
        dim = n ** ne
        if dim > MATERIALIZE_DIM_BUDGET:
            raise ValueError("string operator too large to materialize")
        digits, weights = config_digits(n, ne)
        rows = ((digits + np.array(self.shift, dtype=np.int64)[None, :]) % n) @ weights
        expo = (self.offset + digits @ np.array(self.phase, dtype=np.int64)) % n
        out = np.empty(states.shape, dtype=complex)
        out[rows] = (np.exp(2j * np.pi * expo / n) * states.T).T
        return out


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


@dataclass(frozen=True)
class LogicalAction:
    """Monomial action on sector states: |j> -> w^(phase[j]) |perm[j]>."""
    n: int
    perm: tuple[int, ...]
    phase_exp: tuple[int, ...]

    def compose(self, other: "LogicalAction") -> "LogicalAction":
        perm = tuple(self.perm[other.perm[j]] for j in range(len(self.perm)))
        ph = tuple((other.phase_exp[j] + self.phase_exp[other.perm[j]]) % self.n
                   for j in range(len(self.perm)))
        return LogicalAction(self.n, perm, ph)

    def is_identity(self) -> bool:
        return all(p == j for j, p in enumerate(self.perm)) \
            and not any(self.phase_exp)

    def matrix(self) -> np.ndarray:
        d = len(self.perm)
        out = np.zeros((d, d), dtype=complex)
        for j in range(d):
            out[self.perm[j], j] = np.exp(2j * np.pi * self.phase_exp[j] / self.n)
        return out


def logical_action(ags: AbelianGroundSpace, op: StringOperator) -> LogicalAction:
    """Sector j goes to label_j + label(shift), with phase offset + phase.rep_j."""
    if op.n != ags.n or len(op.shift) != ags.lattice.n_edges:
        raise ValueError("operator does not match the sector data")
    labels = ags.labels()
    index = {lab: j for j, lab in enumerate(labels)}
    step = ags.label(op.shift)
    perm = [index[tuple((a + b) % s for a, b, s in zip(lab, step, ags.invariant_factors))]
            for lab in labels]
    phase = (op.offset + np.array(ags.representatives, dtype=np.int64)
             @ np.array(op.phase, dtype=np.int64)) % ags.n
    if sorted(perm) != list(range(len(labels))):
        raise InvariantError("sector action is not a permutation")
    return LogicalAction(ags.n, tuple(perm), tuple(phase.tolist()))


# ---------------------------------------------------------------------------
# Weyl pair normal form
#
# The logical frame diagonalizes the loop: |c> is the loop eigenstate with
# eigenvalue w^c, and the tunnel lowers c, so XZ = w ZX with every matrix
# entry pinned.  When the loop permutes the gauge orbits the eigenbasis is
# the Fourier transform of the orbit cycle; when the loop is diagonal the
# orbits themselves are the eigenbasis, sorted by eigenvalue.


@dataclass
class LogicalQudit:
    """One full qudit: X (tunnel) |c> = |c-1>, Z (loop) |c> = w^c |c>."""
    sector: AbelianGroundSpace
    x_op: StringOperator
    z_op: StringOperator
    orbit_cycle: tuple[tuple[int, ...], ...]  # sector labels in frame order
    fourier: bool    # True: |c> = sum_k w^(-ck) |orbit_k> / sqrt(d)
    x_action: LogicalAction
    z_action: LogicalAction

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
        pos = {lab: k for k, lab in enumerate(self.orbit_cycle)}
        labels = self.sector.labels()
        cyc = [pos[lab] for lab in labels]   # label index -> frame coordinate
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

    def relation_report(self) -> list[tuple[str, str, Fraction]]:
        """Exact relations as (lhs, rhs, phase in turns)."""
        n = self.sector.n
        out = [("X.Z", "Z.X", Fraction(self.x_op.commutation_exponent(self.z_op), n))]
        for name, op in (("X", self.x_op), ("Z", self.z_op)):
            if not op.power(n).is_identity():
                raise InvariantError(f"{name}^{n} is not the identity")
            out.append((f"{name}^{n}", "I", Fraction(0)))
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
    if ags.invariant_factors != (n,):
        raise ValueError(
            f"sector factors {ags.invariant_factors} are not one full qudit")
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
    labels = ags.labels()
    x_final = LogicalAction(n, tuple((c - 1) % n for c in range(n)), (0,) * n)
    z_final = LogicalAction(n, tuple(range(n)), tuple(range(n)))
    qud = LogicalQudit(sector=ags, x_op=tunnel, z_op=loop,
                       orbit_cycle=tuple(labels[j] for j in order),
                       fourier=t_diag, x_action=x_final, z_action=z_final)
    if qud.frame_action(tunnel) != x_final or qud.frame_action(loop) != z_final:
        raise InvariantError("frame transport disagrees with the normal form")
    return qud


# ---------------------------------------------------------------------------
# charge readout


@dataclass
class ChargeProjectors:
    """One projector per bulk anyon, measuring the charge behind a loop."""
    labels: list[tuple[int, int]]          # (flux, irrep) per projector
    projectors: list[np.ndarray]
    transport_actions: dict[tuple[int, int], LogicalAction]
    selected: dict[tuple[int, int], int]   # rank-1 labels -> basis state

    def projector(self, label: tuple[int, int]) -> np.ndarray:
        return self.projectors[self.labels.index(label)]


def _additive_irrep_map(group: FiniteGroup) -> dict[int, int]:
    """Irrep index of the character x -> w^(a x), w = exp(2 pi i / n), for each a.

    At x of order o = n/gcd(x, n), w^(a x) = zeta_o^(a x/gcd(x, n)), so each
    character is matched to its row on exact spectra.
    """
    n = group.order
    table = character_table(group)
    row = {tuple(spectra): i for i, spectra in enumerate(table.spectra)}
    return {a: row[tuple(((a * cl.rep // gcd(cl.rep, n)) % o,)
                         for cl, o in zip(table.classes, table.orders))]
            for a in range(n)}


def charge_projectors(qudit: LogicalQudit,
                      region_name: str) -> ChargeProjectors:
    """Fourier family of projectors onto the charge behind one hole.

    Transports of every bulk anyon around the region combine with weights
    from the bulk S matrix.  On a charge-condensing hole only the pure
    charge sectors survive; their projectors are diagonal in the loop
    eigenbasis and pick out single logical states.
    """
    from qdw.classify import abelian_anyon_data

    ags = qudit.sector
    n = ags.n
    if not qudit.fourier:
        raise ValueError(
            "charge readout needs a flux loop; this encoding's loop is diagonal")
    data = abelian_anyon_data(ags.group)
    irrep_of = _additive_irrep_map(ags.group)
    charge_of = {q: a for a, q in irrep_of.items()}
    # transport orientation: the inverse loops align the family with the
    # labels measured by the tunnel direction of the qudit
    flux_t = qudit.z_op.inverse()
    charge_t = rim_loop(ags, region_name).inverse()
    transports: dict[tuple[int, int], LogicalAction] = {}
    for flux, irrep in data.charges:
        q = charge_of[irrep]
        op = flux_t.power(flux) @ charge_t.power(q)
        transports[(flux, irrep)] = qudit.frame_action(op)
    ivac = data.charges.index((0, irrep_of[0]))
    mats = [transports[lab].matrix() for lab in data.charges]
    projectors = []
    for j in range(len(data.charges)):
        p = np.zeros((n, n), dtype=complex)
        for i, mat in enumerate(mats):
            ratio = data.s_matrix[i, j] / data.s_matrix[i, ivac]
            p += np.conj(ratio) * mat
        p /= n * n
        projectors.append(p)
    total = sum(projectors)
    if np.abs(total - np.eye(n)).max() > 1e-12:
        raise InvariantError("charge projectors do not resolve the identity")
    selected: dict[tuple[int, int], int] = {}
    seen = set()
    for lab, p in zip(data.charges, projectors):
        if np.abs(p @ p - p).max() > 1e-12:
            raise InvariantError("charge projector is not idempotent")
        if np.abs(p - np.diag(np.diag(p))).max() > 1e-12:
            raise InvariantError("charge projector is not diagonal in the frame")
        tr = np.trace(p).real
        if abs(tr) < 1e-12:
            continue
        if abs(tr - 1) > 1e-12:
            raise InvariantError("charge projector is not rank zero or one")
        state = int(np.argmax(np.diag(p).real))
        if state in seen:
            raise InvariantError("two charge projectors select one state")
        seen.add(state)
        selected[lab] = state
    if len(selected) != n:
        raise InvariantError("charge projectors do not resolve every sector")
    stack = np.array(projectors)
    for i in range(len(stack) - 1):
        if np.abs(stack[i] @ stack[i + 1:]).max() > 1e-12:
            raise InvariantError("charge projectors are not orthogonal")
    return ChargeProjectors(labels=list(data.charges), projectors=projectors,
                            transport_actions=transports, selected=selected)
