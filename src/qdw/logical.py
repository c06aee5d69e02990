"""Exact logical operators for cyclic groups on boundary lattices.

For a cyclic group the whole ground problem is linear algebra over Z_n:
admissible configurations are an integer kernel, gauge shifts are a
sublattice, and ground sectors are the quotient.  Smith normal forms with
tracked unimodular transforms make every step exact, so logical string
operators come out with integer shift and phase data and their algebra
can be certified without any floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, prod
from typing import Mapping, Optional, Sequence

import numpy as np

from qdw.classify import abelian_anyon_data
from qdw.groups import (FiniteGroup, InvariantError, Subgroup, _breadth_first,
                        character_table)
from qdw.lattice import (MATERIALIZE_DIM_BUDGET, Lattice, _region_assignment,
                         config_digits)

__all__ = [
    "SmithForm",
    "smith_normal_form",
    "is_cyclic_presentation",
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
# integer matrices (python ints; sizes here are tiny and swell must not wrap)


def _eye(k: int) -> list[list[int]]:
    return [[1 if i == j else 0 for j in range(k)] for i in range(k)]


def _matmul(a: Sequence[Sequence[int]], b: Sequence[Sequence[int]]) -> list[list[int]]:
    rows, inner, cols = len(a), len(b), len(b[0]) if b else 0
    out = [[0] * cols for _ in range(rows)]
    for i in range(rows):
        ai = a[i]
        oi = out[i]
        for t in range(inner):
            v = ai[t]
            if v:
                bt = b[t]
                for j in range(cols):
                    oi[j] += v * bt[j]
    return out


def _matvec(a: Sequence[Sequence[int]], x: Sequence[int]) -> list[int]:
    return [sum(r[j] * x[j] for j in range(len(x))) for r in a]


@dataclass
class SmithForm:
    """u @ a @ v == d with d diagonal and a divisibility chain."""
    d: list[list[int]]
    u: list[list[int]]
    uinv: list[list[int]]
    v: list[list[int]]
    vinv: list[list[int]]

    def diagonal(self) -> list[int]:
        k = min(len(self.d), len(self.d[0]) if self.d else 0)
        return [self.d[i][i] for i in range(k)]


def smith_normal_form(a: Sequence[Sequence[int]]) -> SmithForm:
    m = len(a)
    k = len(a[0]) if m else 0
    d = [list(map(int, row)) for row in a]
    u, uinv = _eye(m), _eye(m)
    v, vinv = _eye(k), _eye(k)

    def row_swap(i, j):
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]
        for r in range(m):
            uinv[r][i], uinv[r][j] = uinv[r][j], uinv[r][i]

    def row_addmul(i, j, q):
        # row_i += q * row_j
        d[i] = [x + q * y for x, y in zip(d[i], d[j])]
        u[i] = [x + q * y for x, y in zip(u[i], u[j])]
        for r in range(m):
            uinv[r][j] -= q * uinv[r][i]

    def row_negate(i):
        d[i] = [-x for x in d[i]]
        u[i] = [-x for x in u[i]]
        for r in range(m):
            uinv[r][i] = -uinv[r][i]

    def col_swap(i, j):
        for r in range(m):
            d[r][i], d[r][j] = d[r][j], d[r][i]
        for r in range(k):
            v[r][i], v[r][j] = v[r][j], v[r][i]
        vinv[i], vinv[j] = vinv[j], vinv[i]

    def col_addmul(i, j, q):
        # col_i += q * col_j
        for r in range(m):
            d[r][i] += q * d[r][j]
        for r in range(k):
            v[r][i] += q * v[r][j]
        vinv[j] = [x - q * y for x, y in zip(vinv[j], vinv[i])]

    for t in range(min(m, k)):
        piv = None
        for i in range(t, m):
            for j in range(t, k):
                if d[i][j] and (piv is None or abs(d[i][j]) < abs(d[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        row_swap(t, piv[0])
        col_swap(t, piv[1])
        while True:
            clean = True
            for i in range(t + 1, m):
                if d[i][t]:
                    q = d[i][t] // d[t][t]
                    row_addmul(i, t, -q)
                    if d[i][t]:
                        row_swap(t, i)
                        clean = False
            for j in range(t + 1, k):
                if d[t][j]:
                    q = d[t][j] // d[t][t]
                    col_addmul(j, t, -q)
                    if d[t][j]:
                        col_swap(t, j)
                        clean = False
            if not clean:
                continue
            if any(d[i][t] for i in range(t + 1, m)) or \
                    any(d[t][j] for j in range(t + 1, k)):
                continue
            offender = None
            for i in range(t + 1, m):
                if any(d[i][j] % d[t][t] for j in range(t + 1, k)):
                    offender = i
                    break
            if offender is None:
                break
            row_addmul(t, offender, 1)
        if d[t][t] < 0:
            row_negate(t)
    form = SmithForm(d, u, uinv, v, vinv)
    if _matmul(_matmul(u, [list(map(int, row)) for row in a]), v) != d:
        raise InvariantError("normal form transform bookkeeping failed")
    if _matmul(u, uinv) != _eye(m) or _matmul(v, vinv) != _eye(k):
        raise InvariantError("normal form transforms are not unimodular")
    diag = form.diagonal()
    for i in range(len(diag) - 1):
        if diag[i + 1] and diag[i] and diag[i + 1] % diag[i]:
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


def is_cyclic_presentation(group: FiniteGroup) -> bool:
    """Whether the table is addition mod n, as built by build_group('cyclic:n')."""
    n = group.order
    return bool(np.array_equal(group.table, (np.arange(n)[:, None] + np.arange(n)) % n))


class AbelianGroundSpace:
    """Ground sectors, orbit labels, and representatives over Z_n.

    Admissible configurations solve M x = 0 (mod n), where M stacks one
    signed row per face and one pinning row per rim edge.  Gauge shifts
    span a sublattice of that kernel; sectors are the finite quotient,
    presented through two normal forms as a product of cyclic factors.
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
        self.vertex_step = [1] * lat.n_vertices
        for v, reg in vertex_region.items():
            self.vertex_step[v] = _cyclic_step(n, subgroups[reg])
        self.rim_step: dict[int, int] = {}
        self.dangling_step: dict[int, int] = {}
        for e, (reg, role) in edge_region.items():
            step = _cyclic_step(n, subgroups[reg])
            if role == "rim":
                self.rim_step[e] = step
            else:
                self.dangling_step[e] = step
        shift_rows: list[list[int]] = []
        shift_msgs: list[str] = []
        for pi, cyc in enumerate(lat.plaquettes):
            row = [0] * ne
            for e, along in cyc:
                row[e] += 1 if along else -1
            shift_rows.append(row)
            shift_msgs.append(f"changes the holonomy of {lat.plaquette_names[pi]}")
        for e in sorted(self.rim_step):
            row = [0] * ne
            row[e] = n // self.rim_step[e]
            shift_rows.append(row)
            shift_msgs.append(f"leaves the pinned subgroup on {lat.edge_names[e]}")
        self._shift_rows = shift_rows
        self._shift_msgs = shift_msgs
        incidence = [[0] * ne for _ in range(lat.n_vertices)]
        for e, (t, h) in enumerate(lat.edges):
            incidence[h][e] += 1
            incidence[t][e] -= 1
        self._incidence = incidence
        phase_rows: list[list[int]] = []
        phase_msgs: list[str] = []
        for v in range(lat.n_vertices):
            phase_rows.append([self.vertex_step[v] * x for x in incidence[v]])
            phase_msgs.append(f"creates unabsorbed charge at {lat.vertex_names[v]}")
        for e in sorted(self.dangling_step):
            row = [0] * ne
            row[e] = self.dangling_step[e]
            phase_rows.append(row)
            phase_msgs.append(f"is not translation invariant on {lat.edge_names[e]}")
        self._phase_rows = phase_rows
        self._phase_msgs = phase_msgs
        # kernel of M mod n, parameterized through the first normal form
        reduced = [[x % n for x in row] for row in shift_rows]
        if not reduced:
            reduced = [[0] * ne]
        self._form1 = smith_normal_form(reduced)
        diag1 = self._form1.diagonal()
        self._g = [gcd(diag1[i] if i < len(diag1) else 0, n) for i in range(ne)]
        # gauge generators in kernel coordinates
        gens: list[list[int]] = []
        for v in range(lat.n_vertices):
            gens.append([(self.vertex_step[v] * x) % n for x in incidence[v]])
        for e in sorted(self.dangling_step):
            gen = [0] * ne
            gen[e] = self.dangling_step[e] % n
            gens.append(gen)
        gen_coords = []
        for w in gens:
            t = self._kernel_coordinates(w)
            if t is None:
                raise InvariantError("a gauge shift escapes the admissible kernel")
            gen_coords.append(t)
        quot = [[0] * (ne + len(gen_coords)) for _ in range(ne)]
        for i in range(ne):
            quot[i][i] = self._g[i]
        for j, t in enumerate(gen_coords):
            for i in range(ne):
                quot[i][ne + j] = t[i] % self._g[i] if self._g[i] else t[i]
        self._form2 = smith_normal_form(quot)
        diag2 = self._form2.diagonal()
        self._s = [diag2[i] for i in range(ne)]
        if any(s <= 0 for s in self._s):
            raise InvariantError("sector quotient is not finite")
        self._live = [i for i, s in enumerate(self._s) if s > 1]
        self.invariant_factors = tuple(self._s[i] for i in self._live)
        self.dimension = prod(self.invariant_factors) if self._live else 1

    # -- admissibility and labels

    def is_admissible(self, config: Sequence[int]) -> bool:
        x = [int(c) % self.n for c in config]
        return all(sum(r[j] * x[j] for j in range(len(x))) % self.n == 0
                   for r in self._shift_rows)

    def _kernel_coordinates(self, x: Sequence[int]) -> Optional[list[int]]:
        """Coordinates t with x = V . (n/g_i * t_i) mod n, or None outside."""
        n = self.n
        y = _matvec(self._form1.vinv, list(x))
        t = []
        for i, yi in enumerate(y):
            stride = n // self._g[i]
            if yi % stride:
                return None
            t.append((yi // stride) % self._g[i] if self._g[i] else 0)
        return t

    def label(self, config: Sequence[int]) -> tuple[int, ...]:
        """Sector label of an admissible configuration."""
        x = [int(c) % self.n for c in config]
        if not self.is_admissible(x):
            raise ValueError("configuration violates a face or rim constraint")
        t = self._kernel_coordinates(x)
        z = _matvec(self._form2.u, t)
        return tuple(z[i] % self._s[i] for i in self._live)

    def labels(self) -> list[tuple[int, ...]]:
        return [tuple(lab) for lab in
                itertools.product(*(range(self._s[i]) for i in self._live))]

    def representative(self, label: Sequence[int]) -> tuple[int, ...]:
        """One admissible configuration in the given sector."""
        if len(label) != len(self._live):
            raise ValueError("label length does not match the sector rank")
        full = [0] * len(self._s)
        for pos, i in enumerate(self._live):
            full[i] = int(label[pos]) % self._s[i]
        t = _matvec(self._form2.uinv, full)
        n = self.n
        y = [(n // self._g[i]) * t[i] for i in range(len(t))]
        x = [xi % n for xi in _matvec(self._form1.v, y)]
        if self.label(x) != tuple(int(l) % self._s[i]
                                  for l, i in zip(label, self._live)):
            raise InvariantError("sector representative does not map back")
        return tuple(x)

    def _check(self, rows, msgs, vec, what: str) -> None:
        for row, msg in zip(rows, msgs):
            if sum(r * x for r, x in zip(row, vec)) % self.n:
                raise ValueError(f"{what} {msg}")

    def orbit_state_matrix(self) -> np.ndarray:
        """Columns are normalized gauge-orbit superpositions, in label order.

        Only for lattices small enough to enumerate every configuration.
        """
        n, ne = self.n, self.lattice.n_edges
        dim = n ** ne
        if dim > MATERIALIZE_DIM_BUDGET:
            raise ValueError("lattice too large to materialize orbit states")
        digits, _ = config_digits(n, ne)
        rows = np.array(self._shift_rows, dtype=np.int64)
        ok = ((digits @ rows.T) % n == 0).all(axis=1)
        idx_by_label: dict[tuple[int, ...], list[int]] = {}
        for i in np.nonzero(ok)[0]:
            idx_by_label.setdefault(self.label(digits[i]), []).append(int(i))
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


def shift_string(ags: AbelianGroundSpace, amounts: Mapping, ) -> StringOperator:
    """Validated shift vector; keys are edge indices or names."""
    s = [0] * ags.lattice.n_edges
    for key, val in amounts.items():
        e = ags.lattice.edge_index(key) if isinstance(key, str) else int(key)
        s[e] = (s[e] + int(val)) % ags.n
    ags._check(ags._shift_rows, ags._shift_msgs, s, "shift")
    return StringOperator.make(ags.n, s, [0] * len(s))


def phase_string(ags: AbelianGroundSpace, amounts: Mapping) -> StringOperator:
    """Validated phase vector; keys are edge indices or names."""
    p = [0] * ags.lattice.n_edges
    for key, val in amounts.items():
        e = ags.lattice.edge_index(key) if isinstance(key, str) else int(key)
        p[e] = (p[e] + int(val)) % ags.n
    ags._check(ags._phase_rows, ags._phase_msgs, p, "phase")
    return StringOperator.make(ags.n, [0] * len(p), p)


def _resolve_vertex(lat: Lattice, v) -> int:
    return lat.vertex_index(v) if isinstance(v, str) else int(v)


def charge_string(ags: AbelianGroundSpace, vertices: Sequence,
                  charge: int = 1) -> StringOperator:
    """Phase string along a vertex walk; ends must absorb the charge."""
    lat = ags.lattice
    path = [_resolve_vertex(lat, v) for v in vertices]
    if len(path) < 2:
        raise ValueError("a charge string needs at least two vertices")
    p = [0] * lat.n_edges
    for u, v in zip(path, path[1:]):
        fwd = [e for e, (a, b) in enumerate(lat.edges) if (a, b) == (u, v)]
        bwd = [e for e, (a, b) in enumerate(lat.edges) if (a, b) == (v, u)]
        if fwd:
            p[min(fwd)] = (p[min(fwd)] + charge) % ags.n
        elif bwd:
            p[min(bwd)] = (p[min(bwd)] - charge) % ags.n
        else:
            raise ValueError(
                f"no edge joins {lat.vertex_names[u]} and {lat.vertex_names[v]}")
    ags._check(ags._phase_rows, ags._phase_msgs, p, "charge string")
    return StringOperator.make(ags.n, [0] * len(p), p)


def tunnel_operator(ags: AbelianGroundSpace, region_a: str, region_b: str,
                    charge: int = 1) -> StringOperator:
    """Charge string between two boundary regions along a shortest walk."""
    lat = ags.lattice
    src = sorted(lat.region_by_name(region_a).rim_vertices)
    dst = set(lat.region_by_name(region_b).rim_vertices)
    if not src or not dst:
        raise ValueError("both regions need rim vertices")

    def neighbours(u: int):
        for e, _ in lat.star[u]:
            t, h = lat.edges[e]
            yield (h if t == u else t), None

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


def _face_sign(lat: Lattice, pi: int, e: int) -> int:
    for e2, along in lat.plaquettes[pi]:
        if e2 == e:
            return 1 if along else -1
    raise ValueError(f"edge {lat.edge_names[e]} is not on face "
                     f"{lat.plaquette_names[pi]}")


def flux_string(ags: AbelianGroundSpace, stations: Sequence,
                flux: int = 1) -> StringOperator:
    """Shift string crossing between consecutive faces.

    Stations are retained faces (index or name); a boundary region name may
    open or close the walk, in which case the string crosses that region's
    rim.  A walk whose first and last face coincide is a closed loop.
    """
    lat = ags.lattice
    kinds: list[tuple[str, int | str]] = []
    region_names = {r.name for r in lat.regions}
    for st in stations:
        if isinstance(st, str) and st in region_names:
            kinds.append(("region", st))
        else:
            kinds.append(("face", lat.plaquette_index(st)
                          if isinstance(st, str) else int(st)))
    if len(kinds) < 2:
        raise ValueError("a flux string needs at least two stations")
    for kind, _ in kinds[1:-1]:
        if kind != "face":
            raise ValueError("regions may only start or end a flux string")
    s = [0] * lat.n_edges
    for (ka, va), (kb, vb) in zip(kinds, kinds[1:]):
        if ka == "face" and kb == "face":
            ea = {e for e, _ in lat.plaquettes[va]}
            eb = {e for e, _ in lat.plaquettes[vb]}
            shared = sorted(ea & eb)
            if not shared:
                raise ValueError(
                    f"faces {lat.plaquette_names[va]} and "
                    f"{lat.plaquette_names[vb]} share no edge")
            e = shared[0]
            s[e] = (s[e] + flux * _face_sign(lat, va, e)) % ags.n
        elif ka == "region" and kb == "face":
            rim = set(lat.region_by_name(va).rim_edges)
            shared = sorted({e for e, _ in lat.plaquettes[vb]} & rim)
            if not shared:
                raise ValueError(f"face does not border region {va!r}")
            e = shared[0]
            s[e] = (s[e] - flux * _face_sign(lat, vb, e)) % ags.n
        elif ka == "face" and kb == "region":
            rim = set(lat.region_by_name(vb).rim_edges)
            shared = sorted({e for e, _ in lat.plaquettes[va]} & rim)
            if not shared:
                raise ValueError(f"face does not border region {vb!r}")
            e = shared[0]
            s[e] = (s[e] + flux * _face_sign(lat, va, e)) % ags.n
        else:
            raise ValueError("a flux string cannot join two regions directly")
    ags._check(ags._shift_rows, ags._shift_msgs, s, "flux string")
    return StringOperator.make(ags.n, s, [0] * len(s))


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
    start = faces[0]
    walk = [start, nbrs[start][0]]
    while walk[-1] != start:
        a, b = walk[-2], walk[-1]
        walk.append(nbrs[b][0] if nbrs[b][0] != a else nbrs[b][1])
    if len(walk) != len(faces) + 1:
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
    if not nbrs or any(len(v) != 2 for v in nbrs.values()):
        raise ValueError(f"rim of {region_name!r} is not a single cycle")
    start = min(nbrs)
    walk = [start, min(nbrs[start])]
    while walk[-1] != start:
        a, b = walk[-2], walk[-1]
        nxt = nbrs[b][0] if nbrs[b][0] != a else nbrs[b][1]
        walk.append(nxt)
    if len(walk) != len(nbrs) + 1:
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
    if op.n != ags.n or len(op.shift) != ags.lattice.n_edges:
        raise ValueError("operator does not match the sector data")
    labels = ags.labels()
    index = {lab: j for j, lab in enumerate(labels)}
    perm = []
    phase = []
    for lab in labels:
        x = ags.representative(lab)
        moved = tuple((a + b) % ags.n for a, b in zip(x, op.shift))
        perm.append(index[ags.label(moved)])
        phase.append((op.offset + sum(p * a for p, a in zip(op.phase, x))) % ags.n)
    if sorted(perm) != list(range(len(labels))):
        raise InvariantError("sector action is not a permutation")
    return LogicalAction(ags.n, tuple(perm), tuple(phase))


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
        if not self.fourier:
            perm = [0] * n
            phase = [0] * n
            for j in range(n):
                perm[cyc[j]] = cyc[act.perm[j]]
                phase[cyc[j]] = act.phase_exp[j]
            return LogicalAction(n, tuple(perm), tuple(phase))
        steps = set()
        phases = [0] * n
        for j in range(n):
            steps.add((cyc[act.perm[j]] - cyc[j]) % n)
            phases[cyc[j]] = act.phase_exp[j]
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
    """Irrep index of the character x -> w^(a x), for each a."""
    n = group.order
    omega = np.exp(2j * np.pi / n)
    table = character_table(group)
    return {a: table.row_of([omega ** ((a * cl.rep) % n) for cl in table.classes])
            for a in range(n)}


def charge_projectors(qudit: LogicalQudit,
                      region_name: str) -> ChargeProjectors:
    """Fourier family of projectors onto the charge behind one hole.

    Transports of every bulk anyon around the region combine with weights
    from the bulk S matrix.  On a charge-condensing hole only the pure
    charge sectors survive; their projectors are diagonal in the loop
    eigenbasis and pick out single logical states.
    """
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
    projectors = []
    for j, lab_j in enumerate(data.charges):
        p = np.zeros((n, n), dtype=complex)
        for i, lab_i in enumerate(data.charges):
            ratio = data.s_matrix[i, j] / data.s_matrix[i, ivac]
            p += np.conj(ratio) * transports[lab_i].matrix()
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
    for i, pi in enumerate(projectors):
        for j in range(i + 1, len(projectors)):
            if np.abs(pi @ projectors[j]).max() > 1e-12:
                raise InvariantError("charge projectors are not orthogonal")
    return ChargeProjectors(labels=list(data.charges), projectors=projectors,
                            transport_actions=transports, selected=selected)
