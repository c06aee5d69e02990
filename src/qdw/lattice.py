"""Lattice geometry, exact operator algebra, and ground-state counting.

Edges carry one group-valued register each.  Every Hamiltonian term is a
sum of monomials with Fraction coefficients, where a monomial assigns an
injective partial map of the register to each touched edge.  Products,
adjoints, and commutators are therefore exact; the audit reports exact
zeros, not small numbers.  A diagonal operator is also evaluated as an
integer table over the configurations of its support (numerators over
one common denominator, built with numpy), which decides whether it is
a projector.  The audit first tries an exact permutation pre-test on
that table for each pair of a diagonal and a non-diagonal term, and
falls back to expanding the commutator into matrix-unit atoms when the
pre-test does not pass.

Ground-state counts come from up to three routes, which must agree on
any lattice where more than one fits.  Counting evaluates the Burnside
sum over gauge orbits of flat connections on a gauge-fixed slice.
Modular takes the count from the S matrix of D(G) and the boundary
condensates, without the lattice's configurations, on any connected
surface whose boundary circles are its regions.  Dense takes the trace
of the projector built on the support of the diagonal terms, and raises
when a term maps that support outside itself, which commuting
projectors never do.  Trace is the counting route with its gauge fix
switched off, the Burnside sum over every flat configuration: a
reference route that runs only when named.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from qdw.classify import LagrangianAlgebra, anyon_table, s_matrix
from qdw.groups import FiniteGroup, InvariantError, Subgroup, _breadth_first

__all__ = [
    "Operator",
    "BoundaryRegion",
    "Lattice",
    "torus",
    "patch",
    "ring",
    "carve_hole",
    "HamiltonianTerm",
    "build_terms",
    "gauge_vertex_term",
    "flux_term",
    "flux_sector_term",
    "boundary_edge_term",
    "half_translation_term",
    "literal_gauge_edge_term",
    "AuditReport",
    "audit_commutation",
    "GsdReport",
    "ground_space_dimension",
    "GroundSpace",
    "ground_space",
]

MATERIALIZE_DIM_BUDGET = 20_000   # largest state space built as a matrix
MAX_LATTICE_EDGES = 10_000        # largest torus, patch or ring built
TRACE_PARTIAL_BUDGET = 20_000_000


def config_digits(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Every configuration of k n-valued registers (row-major, register 0 slowest).

    Returns (digits, weights): digits[c] lists the register values of
    configuration c, and c == digits[c] @ weights.
    """
    weights = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    digits = (np.arange(n ** k, dtype=np.int64)[:, None] // weights[None, :]) % n
    return digits, weights


# ---------------------------------------------------------------------------
# injective partial maps on one register, encoded as tuples with -1 for
# "outside the domain"


def _map_left(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(int(group.table[g, x]) for x in range(group.order))


def _map_right_inv(group: FiniteGroup, g: int) -> tuple[int, ...]:
    gi = group.inv[g]
    return tuple(int(group.table[x, gi]) for x in range(group.order))


def _map_indicator(n: int, allowed: Iterable[int]) -> tuple[int, ...]:
    s = set(allowed)
    return tuple(x if x in s else -1 for x in range(n))


def _map_point(n: int, value: int) -> tuple[int, ...]:
    return tuple(value if x == value else -1 for x in range(n))


def _map_is_identity(m: tuple[int, ...]) -> bool:
    return all(v == i for i, v in enumerate(m))


def _map_is_partial_identity(m: tuple[int, ...]) -> bool:
    return all(v == i or v == -1 for i, v in enumerate(m))


def _map_compose(m1: tuple[int, ...], m2: tuple[int, ...]) -> tuple[int, ...]:
    """m1 applied after m2."""
    return tuple(-1 if m2[x] < 0 else m1[m2[x]] for x in range(len(m2)))


def _map_adjoint(m: tuple[int, ...]) -> tuple[int, ...]:
    out = [-1] * len(m)
    for x, y in enumerate(m):
        if y >= 0:
            if out[y] != -1:
                raise InvariantError("adjoint of a non-injective register map")
            out[y] = x
    return tuple(out)


class Operator:
    """Exact linear operator: monomials over edge registers, Fraction coefficients."""

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Optional[dict] = None):
        self.n = n
        self.terms: dict[tuple, Fraction] = terms if terms is not None else {}

    @staticmethod
    def identity(n: int) -> "Operator":
        return Operator(n, {(): Fraction(1)})

    @staticmethod
    def monomial(n: int, coeff: Fraction, maps: Mapping[int, tuple[int, ...]]) -> "Operator":
        clean = []
        for e, m in maps.items():
            if max(m) < 0:
                return Operator(n)
            if not _map_is_identity(m):
                clean.append((e, m))
        if coeff == 0:
            return Operator(n)
        return Operator(n, {tuple(sorted(clean)): Fraction(coeff)})

    def _accumulate(self, key: tuple, coeff: Fraction) -> None:
        cur = self.terms.get(key)
        total = coeff if cur is None else cur + coeff
        if total == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = total

    def __add__(self, other: "Operator") -> "Operator":
        out = Operator(self.n, dict(self.terms))
        for key, c in other.terms.items():
            out._accumulate(key, c)
        return out

    def __sub__(self, other: "Operator") -> "Operator":
        return self + other.scale(Fraction(-1))

    def scale(self, c) -> "Operator":
        c = Fraction(c)
        if c == 0:
            return Operator(self.n)
        return Operator(self.n, {k: v * c for k, v in self.terms.items()})

    def __mul__(self, other: "Operator") -> "Operator":
        """Operator product; self acts after other."""
        out = Operator(self.n)
        for k1, c1 in self.terms.items():
            m1 = dict(k1)
            for k2, c2 in other.terms.items():
                m2 = dict(k2)
                dead = False
                combined = []
                for e in set(m1) | set(m2):
                    a = m1.get(e)
                    b = m2.get(e)
                    if a is None:
                        m = b
                    elif b is None:
                        m = a
                    else:
                        m = _map_compose(a, b)
                        if max(m) < 0:
                            dead = True
                            break
                    if not _map_is_identity(m):
                        combined.append((e, m))
                if dead:
                    continue
                out._accumulate(tuple(sorted(combined)), c1 * c2)
        return out

    def adjoint(self) -> "Operator":
        out = Operator(self.n)
        for key, c in self.terms.items():
            new_key = tuple(sorted((e, _map_adjoint(m)) for e, m in key))
            out._accumulate(new_key, c)
        return out

    def commutator(self, other: "Operator") -> "Operator":
        return (self * other) - (other * self)

    def _atoms(self) -> dict[tuple, Fraction]:
        """Expansion over per-edge matrix units; a genuine canonical form.

        Monomial keys are not unique as matrices (a sum of point maps can
        equal an identity), so cancellation tests expand to single-entry
        maps, which are linearly independent.
        """
        support = self.support
        budget = 0
        for key, _ in self.terms.items():
            maps = dict(key)
            size = 1
            for e in support:
                m = maps.get(e)
                size *= self.n if m is None else sum(1 for y in m if y >= 0)
            budget += size
        if budget > 5_000_000:
            raise ValueError(f"atom expansion of {budget} entries over budget")
        out: dict[tuple, Fraction] = {}
        for key, c in self.terms.items():
            maps = dict(key)
            choices = []
            for e in support:
                m = maps.get(e)
                if m is None:
                    choices.append([(x, x) for x in range(self.n)])
                else:
                    choices.append([(x, m[x]) for x in range(self.n) if m[x] >= 0])
            for combo in itertools.product(*choices):
                cur = out.get(combo)
                total = c if cur is None else cur + c
                if total == 0:
                    out.pop(combo, None)
                else:
                    out[combo] = total
        return out

    def is_zero(self) -> bool:
        """Exact zero test: syntactic cancellation, then atom expansion."""
        if not self.terms:
            return True
        return not self._atoms()

    def equals(self, other: "Operator") -> bool:
        return (self - other).is_zero()

    @property
    def support(self) -> tuple[int, ...]:
        edges = set()
        for key in self.terms:
            edges.update(e for e, _ in key)
        return tuple(sorted(edges))

    def is_diagonal(self) -> bool:
        return all(_map_is_partial_identity(m) for key in self.terms for _, m in key)

    def is_hermitian(self) -> bool:
        return (self - self.adjoint()).is_zero()

    def _diagonal_numerators(self, edges: Sequence[int]) -> tuple[np.ndarray, int]:
        """Exact diagonal entries as integers over one common denominator.

        Returns (numerators, den): the entry of configuration c of `edges`
        (indexed as in `config_digits`) is numerators[c] / den, where den
        is the least common multiple of the coefficient denominators.
        Each monomial adds its scaled numerator where the indicator
        gathers of its edge maps all hit.  The int64 sums cannot wrap:
        the sum of |numerator| is checked to stay below 2**62.
        """
        if not self.is_diagonal():
            raise ValueError("operator is not diagonal")
        pos = {e: i for i, e in enumerate(edges)}
        if not set(self.support) <= set(pos):
            raise ValueError("edge list does not cover the operator support")
        den = lcm(*(c.denominator for c in self.terms.values()))
        nums = [c.numerator * (den // c.denominator) for c in self.terms.values()]
        if sum(abs(x) for x in nums) >= 2 ** 62:
            raise ValueError("diagonal numerators over the int64 budget 2**62")
        digits, _ = config_digits(self.n, len(edges))
        total = np.zeros(len(digits), dtype=np.int64)
        for key, num in zip(self.terms, nums):
            hit = np.ones(len(digits), dtype=bool)
            for e, m in key:
                hit &= (np.array(m) >= 0)[digits[:, pos[e]]]
            total[hit] += num
        return total, den

    def diagonal_values(self, edges: Sequence[int]) -> dict[tuple[int, ...], Fraction]:
        """Exact nonzero diagonal entries over configurations of `edges` (diagonal ops only)."""
        total, den = self._diagonal_numerators(edges)
        digits, _ = config_digits(self.n, len(edges))
        return {tuple(int(x) for x in digits[c]): Fraction(int(total[c]), den)
                for c in np.flatnonzero(total)}

    def is_projector(self) -> bool:
        """Exact idempotence and self-adjointness."""
        if not self.is_hermitian():
            return False
        if self.is_diagonal():
            edges = self.support
            if self.n ** len(edges) > MATERIALIZE_DIM_BUDGET:
                return ((self * self) - self).is_zero()
            total, den = self._diagonal_numerators(edges)
            return bool(np.all((total == 0) | (total == den)))
        return ((self * self) - self).is_zero()

    def monomial_entries(self, edges: Sequence[int]):
        """(rows, cols, coeff) of each monomial over configurations of `edges`.

        Configurations are indexed as in `config_digits`.  A monomial is an injective
        partial map, so its rows never repeat and `out[rows] += coeff * x[cols]`
        applies it exactly.  Budget and edge cover are checked before the first one.
        """
        k = len(edges)
        dim = self.n ** k
        if dim > MATERIALIZE_DIM_BUDGET:
            raise ValueError(f"materialization dimension {dim} over budget")
        pos = {e: i for i, e in enumerate(edges)}
        if not set(self.support) <= set(pos):
            raise ValueError("edge list does not cover the operator support")
        digits, weights = config_digits(self.n, k)
        cols_all = np.arange(dim, dtype=np.int64)

        def entries(key):
            rows = cols_all.copy()
            valid = np.ones(dim, dtype=bool)
            for e, m in key:
                d = digits[:, pos[e]]
                tgt = np.array(m, dtype=np.int64)[d]
                valid &= tgt >= 0
                rows += (np.where(tgt >= 0, tgt, 0) - d) * weights[pos[e]]
            return rows[valid], cols_all[valid]

        return ((*entries(key), coeff) for key, coeff in self.terms.items())

    def apply(self, edges: Sequence[int], x: np.ndarray) -> np.ndarray:
        """The operator applied to the rows of x (configurations of `edges`)."""
        out = np.zeros(x.shape, dtype=np.result_type(x, float))
        for rows, cols, coeff in self.monomial_entries(edges):
            out[rows] += float(coeff) * x[cols]
        return out

    def to_matrix(self, edges: Sequence[int]) -> np.ndarray:
        """Dense matrix over configurations of `edges` (row-major, edge 0 slowest)."""
        entries = self.monomial_entries(edges)
        dim = self.n ** len(edges)
        mat = np.zeros((dim, dim))
        for rows, cols, coeff in entries:
            mat[rows, cols] += float(coeff)
        return mat


# ---------------------------------------------------------------------------
# lattice geometry


@dataclass(frozen=True)
class BoundaryRegion:
    """One boundary component: the retained cells that border removed faces."""
    name: str
    rim_vertices: tuple[int, ...]
    rim_edges: tuple[int, ...]
    dangling_edges: tuple[int, ...] = ()


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
        taken_v: set[int] = set()
        taken_e: set[int] = set()
        for reg in self.regions:
            if set(reg.rim_vertices) & taken_v or \
                    (set(reg.rim_edges) | set(reg.dangling_edges)) & taken_e:
                raise ValueError(f"region {reg.name!r} shares cells with another region")
            taken_v.update(reg.rim_vertices)
            taken_e.update(reg.rim_edges)
            taken_e.update(reg.dangling_edges)
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

    def edge_index(self, name: str) -> int:
        try:
            return self.edge_names.index(name)
        except ValueError:
            raise ValueError(f"unknown edge {name!r}") from None

    def plaquette_index(self, name: str) -> int:
        try:
            return self.plaquette_names.index(name)
        except ValueError:
            raise ValueError(f"unknown face {name!r}") from None

    def vertex_index(self, name: str) -> int:
        try:
            return self.vertex_names.index(name)
        except ValueError:
            raise ValueError(f"unknown vertex {name!r}") from None

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
    q: set[int] = set()
    for p in plaquettes:
        pi = lat.plaquette_index(p) if isinstance(p, str) else int(p)
        if not 0 <= pi < lat.n_plaquettes:
            raise ValueError(f"face index {pi} out of range")
        q.add(pi)
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
    taken_v = {v for reg in lat.regions for v in reg.rim_vertices}
    taken_e = {e for reg in lat.regions
               for e in tuple(reg.rim_edges) + tuple(reg.dangling_edges)}
    if set(rim_v) & taken_v or set(rim_e) & taken_e:
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


# ---------------------------------------------------------------------------
# Hamiltonian terms


@dataclass
class HamiltonianTerm:
    name: str
    kind: str                 # gauge | flux | edge-pin | half-shift | literal
    op: Operator
    edges: tuple[int, ...]
    diagonal: bool
    region: Optional[str] = None


def gauge_vertex_term(lat: Lattice, group: FiniteGroup, vertex: int,
                      sub: Optional[Subgroup] = None) -> Operator:
    """Average over star rotations at a vertex; restricted to `sub` if given."""
    elems = sub.elements if sub is not None else tuple(range(group.order))
    star = lat.star[vertex]
    if len({e for e, _ in star}) != len(star):
        raise ValueError("vertex star contains a repeated edge")
    out = Operator(group.order)
    for g in elems:
        maps = {}
        for e, at_head in star:
            maps[e] = _map_left(group, g) if at_head else _map_right_inv(group, g)
        out = out + Operator.monomial(group.order, Fraction(1, len(elems)), maps)
    return out


def flux_sector_term(lat: Lattice, group: FiniteGroup, pi: int, h: int,
                     base_vertex: Optional[int] = None) -> Operator:
    """Projector onto face holonomy h, read from the base corner.

    With the face on the left of a traversed-along edge, the letter for
    that edge is the inverse register value; traversed-against edges
    contribute the register value itself.
    """
    cyc = list(lat.plaquettes[pi])
    corners = lat.plaquette_base_vertices(pi)
    if base_vertex is None:
        base_vertex = corners[0]
    if base_vertex not in corners:
        raise ValueError("base vertex is not a corner of the face")
    shift = corners.index(base_vertex)
    cyc = cyc[shift:] + cyc[:shift]
    k = len(cyc)
    n = group.order
    out = Operator(n)
    for prefix in itertools.product(range(n), repeat=k - 1):
        letters = []
        for (e, along), x in zip(cyc[:-1], prefix):
            letters.append(group.inv[x] if along else x)
        partial = group.product(letters)
        last = group.mul(group.inv[partial], h)
        e_last, along_last = cyc[-1]
        x_last = group.inv[last] if along_last else last
        maps = {e: _map_point(n, x) for (e, _), x in zip(cyc[:-1], prefix)}
        maps[e_last] = _map_point(n, x_last)
        out = out + Operator.monomial(n, Fraction(1), maps)
    return out


def flux_term(lat: Lattice, group: FiniteGroup, pi: int) -> Operator:
    """Projector onto trivial face holonomy (base-independent)."""
    return flux_sector_term(lat, group, pi, 0)


def boundary_edge_term(lat: Lattice, group: FiniteGroup, edge: int,
                       sub: Subgroup) -> Operator:
    """Projector pinning an edge register into the boundary subgroup."""
    return Operator.monomial(group.order, Fraction(1),
                             {edge: _map_indicator(group.order, sub.elements)})


def half_translation_term(group: FiniteGroup, edge: int, sub: Subgroup,
                          side: str) -> Operator:
    """Average of one-sided subgroup translations on a dangling edge."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    out = Operator(group.order)
    for k in sub.elements:
        m = _map_left(group, k) if side == "left" else _map_right_inv(group, k)
        out = out + Operator.monomial(group.order, Fraction(1, sub.order), {edge: m})
    return out


def literal_gauge_edge_term(group: FiniteGroup, edge: int, sub: Subgroup) -> Operator:
    """Naive single-term edge average: both translation sides summed.

    Kept deliberately: it is hermitian but not idempotent, and fails to
    commute with face terms when the edge borders a retained face.  The
    audit must flag it.
    """
    out = Operator(group.order)
    for k in sub.elements:
        out = out + Operator.monomial(group.order, Fraction(1, 2 * sub.order),
                                      {edge: _map_left(group, k)})
        out = out + Operator.monomial(group.order, Fraction(1, 2 * sub.order),
                                      {edge: _map_right_inv(group, k)})
    return out


def _region_assignment(lat: Lattice, group: FiniteGroup,
                       subgroups: Mapping[str, Subgroup]):
    """Per-vertex and per-edge boundary assignment, validated."""
    names = {reg.name for reg in lat.regions}
    if set(subgroups) != names:
        raise ValueError(f"boundary subgroups must be given for exactly {sorted(names)}")
    for name, sub in subgroups.items():
        if sub.group is not group:
            raise ValueError(f"subgroup for region {name!r} lives in the wrong group")
    vertex_region: dict[int, str] = {}
    edge_region: dict[int, tuple[str, str]] = {}  # edge -> (region, role)
    for reg in lat.regions:
        for v in reg.rim_vertices:
            vertex_region[v] = reg.name
        for e in reg.rim_edges:
            edge_region[e] = (reg.name, "rim")
        for e in reg.dangling_edges:
            edge_region[e] = (reg.name, "dangling")
    return vertex_region, edge_region


def build_terms(lat: Lattice, group: FiniteGroup,
                subgroups: Mapping[str, Subgroup]) -> list[HamiltonianTerm]:
    """All commuting projector terms for a lattice with boundary assignments."""
    vertex_region, edge_region = _region_assignment(lat, group, subgroups)
    terms: list[HamiltonianTerm] = []
    for v in range(lat.n_vertices):
        reg = vertex_region.get(v)
        if reg is None:
            op = gauge_vertex_term(lat, group, v)
            terms.append(HamiltonianTerm(
                name=f"A({lat.vertex_names[v]})", kind="gauge", op=op,
                edges=op.support, diagonal=op.is_diagonal()))
        else:
            sub = subgroups[reg]
            op = gauge_vertex_term(lat, group, v, sub)
            terms.append(HamiltonianTerm(
                name=f"A_K({lat.vertex_names[v]})", kind="gauge", op=op,
                edges=op.support, diagonal=op.is_diagonal(), region=reg))
    for pi in range(lat.n_plaquettes):
        op = flux_term(lat, group, pi)
        terms.append(HamiltonianTerm(
            name=f"B({lat.plaquette_names[pi]})", kind="flux", op=op,
            edges=op.support, diagonal=True))
    for e in sorted(edge_region):
        reg, role = edge_region[e]
        sub = subgroups[reg]
        if role == "rim":
            op = boundary_edge_term(lat, group, e, sub)
            terms.append(HamiltonianTerm(
                name=f"T_K({lat.edge_names[e]})", kind="edge-pin", op=op,
                edges=(e,), diagonal=True, region=reg))
        else:
            for side, tag in (("left", "P+"), ("right", "P-")):
                op = half_translation_term(group, e, sub, side)
                terms.append(HamiltonianTerm(
                    name=f"{tag}({lat.edge_names[e]})", kind="half-shift", op=op,
                    edges=(e,), diagonal=op.is_diagonal(), region=reg))
    return terms


# ---------------------------------------------------------------------------
# exact commutation audit


@dataclass
class TermCheck:
    name: str
    is_projector: bool
    is_hermitian: bool


@dataclass
class PairCheck:
    left: str
    right: str
    commutes: bool
    residual_norm: Optional[float] = None  # only materialized on failure


@dataclass
class AuditReport:
    """Per-term and per-pair audit results.

    `skipped_pairs` (reported as `pairs_skipped_disjoint`) counts the pairs
    that commute without a check: disjoint pairs and overlapping pairs of
    two diagonal terms.
    """
    term_checks: list[TermCheck]
    pair_checks: list[PairCheck]
    skipped_pairs: int

    @property
    def ok(self) -> bool:
        return (all(t.is_projector and t.is_hermitian for t in self.term_checks)
                and all(p.commutes for p in self.pair_checks))

    def failures(self) -> list[str]:
        out = [f"term {t.name}: projector={t.is_projector} hermitian={t.is_hermitian}"
               for t in self.term_checks if not (t.is_projector and t.is_hermitian)]
        out += [f"pair [{p.left}, {p.right}] != 0"
                + (f" (|.|_F = {p.residual_norm:.6g})" if p.residual_norm else "")
                for p in self.pair_checks if not p.commutes]
        return out


def _commutes_by_permutation(numerators: np.ndarray, edges: Sequence[int],
                             other: Operator) -> bool:
    """Sufficient test that a diagonal operator D commutes with `other`.

    `numerators` is D's integer table over `edges` (D's support), as
    returned by `Operator._diagonal_numerators`.  The test passes when
    every monomial U of `other` is total on `edges` and D's table is
    invariant under the configuration map U induces there: then D U = U D
    column by column, so D commutes with every monomial and with their
    sum.  False means "not shown", not "does not commute".
    """
    pos = {e: i for i, e in enumerate(edges)}
    digits, weights = config_digits(other.n, len(edges))
    identity = np.arange(len(digits), dtype=np.int64)
    for key in other.terms:
        idx = identity
        for e, m in key:
            i = pos.get(e)
            if i is None:
                continue
            if min(m) < 0:
                return False
            col = digits[:, i]
            idx = idx + (np.array(m, dtype=np.int64)[col] - col) * weights[i]
        if not np.array_equal(numerators[idx], numerators):
            return False
    return True


def audit_commutation(terms: Sequence[HamiltonianTerm], n: int) -> AuditReport:
    """Exact projector, hermiticity, and pairwise commutation checks.

    A term's `diagonal` flag must say whether its operator is diagonal,
    because the pair loop trusts the flag.  Disjoint pairs and pairs of
    two diagonal terms commute identically; both are skipped and counted
    in `skipped_pairs`.

    A diagonal term is a projector when its integer diagonal table
    (`Operator._diagonal_numerators`) takes only the values 0 and its
    denominator.  For an overlapping pair with one diagonal term D, the
    exact permutation pre-test `_commutes_by_permutation` runs first on
    D's table; when it does not pass, the commutator is expanded into
    matrix-unit atoms as for every other pair.  Both routes record the
    pair as checked.  Residual norms are materialized only for failing
    pairs on small supports.
    """
    for t in terms:
        if t.diagonal != t.op.is_diagonal():
            flag, actual = (("diagonal", "not diagonal") if t.diagonal
                            else ("non-diagonal", "diagonal"))
            raise InvariantError(
                f"term {t.name} is flagged {flag}, but its operator is {actual}")
    term_checks = [TermCheck(t.name, t.op.is_projector(), t.op.is_hermitian())
                   for t in terms]
    tables = {k: t.op._diagonal_numerators(t.op.support)[0]
              for k, t in enumerate(terms)
              if t.diagonal and n ** len(t.op.support) <= MATERIALIZE_DIM_BUDGET}
    pair_checks = []
    skipped = 0
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            ti, tj = terms[i], terms[j]
            if not set(ti.edges) & set(tj.edges):
                skipped += 1
                continue
            if ti.diagonal and tj.diagonal:
                skipped += 1
                continue
            d, other = (i, tj) if ti.diagonal else (j, ti)
            if d in tables and _commutes_by_permutation(
                    tables[d], terms[d].op.support, other.op):
                pair_checks.append(PairCheck(ti.name, tj.name, True))
                continue
            comm = ti.op.commutator(tj.op)
            ok = comm.is_zero()
            norm = None
            if not ok:
                union = tuple(sorted(set(ti.edges) | set(tj.edges)))
                if n ** len(union) <= MATERIALIZE_DIM_BUDGET:
                    norm = float(np.linalg.norm(comm.to_matrix(union)))
            pair_checks.append(PairCheck(ti.name, tj.name, ok, norm))
    return AuditReport(term_checks, pair_checks, skipped)


# ---------------------------------------------------------------------------
# elimination order shared by the counting and trace routes


@dataclass
class EliminationStep:
    action: str                      # "branch" or "solve"
    edge: int
    plaquette: Optional[int] = None  # solver face for "solve"
    checkers: tuple[int, ...] = ()   # faces fully assigned after this step


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


def _holonomy(group: FiniteGroup, cyc: Sequence[tuple[int, bool]], values):
    """Face-walk product of `cyc`: each letter left-multiplies the running value.

    The letter of an edge is its register value when walked along the
    edge and the inverse when walked against it.  `values` maps edges to
    register values, either ints or numpy columns (one row per
    configuration); the result has the same shape.
    """
    acc = 0
    for e, along in cyc:
        x = values[e]
        acc = group.table[x if along else group.inv[x], acc]
    return acc


def _solve_edge(group: FiniteGroup, lat: Lattice, pi: int, target: int, values):
    """Register value forced on `target` by trivial holonomy of face `pi`.

    `values` holds the other registers of the face, as in `_holonomy`.
    """
    cyc = lat.plaquettes[pi]
    idx = next(i for i, (e, _) in enumerate(cyc) if e == target)
    low = _holonomy(group, cyc[:idx], values)
    high = _holonomy(group, cyc[idx + 1:], values)
    t = group.table[group.inv[high], group.inv[low]]
    return t if cyc[idx][1] else group.inv[t]


def _holonomy_ok(group: FiniteGroup, lat: Lattice, pi: int, values):
    return _holonomy(group, lat.plaquettes[pi], values) == 0


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


def _gauge_volume(domains: Sequence[Sequence[int]],
                  dangling: Mapping[int, Subgroup]) -> int:
    """Order of the gauge group: one label per vertex, two K labels per dangling edge."""
    return (prod(len(d) for d in domains)
            * prod(sub.order ** 2 for sub in dangling.values()))


def _dangling_weight_table(group: FiniteGroup, sub: Subgroup) -> np.ndarray:
    """w[x, gh, gt] = number of subgroup pairs (l, r) with l gh x gt^-1 r^-1 = x."""
    n = group.order
    w = np.zeros((n, n, n), dtype=np.int64)
    ks = set(sub.elements)
    for x in range(n):
        for gh in range(n):
            for gt in range(n):
                y = group.mul(group.mul(gh, x), group.inv[gt])
                cnt = 0
                for r in sub.elements:
                    lam = group.mul(group.mul(x, r), group.inv[y])
                    if lam in ks:
                        cnt += 1
                w[x, gh, gt] = cnt
    return w


def _spanning_forest(lat: Lattice, group: FiniteGroup,
                     subgroups: Mapping[str, Subgroup],
                     dangling: Mapping[int, Subgroup]):
    """Breadth-first spanning forest over the non-dangling edges, rim roots first.

    Returns (roots, tree, pinned).  tree[c] lists the edges of the tree
    rooted at roots[c] as (edge, child, child_is_head), parents before
    children.  `pinned` maps a tree edge to its child when the child's
    gauge label can always turn the edge register into the identity: the
    child is a bulk vertex (domain G), or a rim vertex reached along a rim
    edge of its own region from a rim vertex of that region (register,
    parent label and child label all in K).
    """
    vertex_region, edge_region = _region_assignment(lat, group, subgroups)
    adj: list[list[tuple[int, tuple[int, bool]]]] = [[] for _ in range(lat.n_vertices)]
    for ei, (t, h) in enumerate(lat.edges):
        if ei not in dangling:
            adj[t].append((h, (ei, True)))
            adj[h].append((t, (ei, False)))
    seen = [False] * lat.n_vertices
    roots: list[int] = []
    tree: list[list[tuple[int, int, bool]]] = []
    pinned: dict[int, int] = {}
    for root in sorted(range(lat.n_vertices), key=lambda v: v not in vertex_region):
        if seen[root]:
            continue
        roots.append(root)
        edges: list[tuple[int, int, bool]] = []
        for w, v, step in _breadth_first([root], adj.__getitem__):
            seen[w] = True
            if v is None:
                continue
            ei, child_is_head = step
            edges.append((ei, w, child_is_head))
            reg = vertex_region.get(w)
            if reg is None or (vertex_region.get(v) == reg
                               and edge_region.get(ei) == (reg, "rim")):
                pinned[ei] = w
        tree.append(edges)
    return roots, tree, pinned


def _stabilizer_total(lat: Lattice, group: FiniteGroup, configs: np.ndarray,
                      domains: Sequence[Sequence[int]],
                      dangling: Mapping[int, Subgroup],
                      roots: Sequence[int], tree) -> int:
    """Sum over `configs` of the number of gauge transformations fixing each.

    On each tree of the forest a fixing transformation is determined by
    its root label: labels propagate along tree edges, and must lie in
    their vertex domains and respect every non-tree edge.  Trees joined
    by dangling edges are enumerated together, each dangling edge
    weighted by the K pairs that fix it.
    """
    nc = configs.shape[0]
    inv = group.inv
    conj = group.table[group.table, inv[:, None]]  # conj[x, g] = x g x^-1
    member = [np.isin(np.arange(group.order), d) for d in domains]
    comp = [0] * lat.n_vertices
    for ci, (root, edges) in enumerate(zip(roots, tree)):
        comp[root] = ci
        for _, child, _ in edges:
            comp[child] = ci
    tree_edges = {ei for edges in tree for ei, _, _ in edges}
    nontree_by_comp: dict[int, list[int]] = {}
    for ei, (t, _) in enumerate(lat.edges):
        if ei not in dangling and ei not in tree_edges:
            nontree_by_comp.setdefault(comp[t], []).append(ei)
    # trees linked by dangling edges form one cluster
    cluster = list(range(len(roots)))
    for ei in dangling:
        a, b = (cluster[comp[v]] for v in lat.edges[ei])
        cluster = [a if c == b else c for c in cluster]
    clusters: dict[int, list[int]] = {}
    for ci, c in enumerate(cluster):
        clusters.setdefault(c, []).append(ci)
    weight_tables = {e: _dangling_weight_table(group, sub)
                     for e, sub in dangling.items()}

    total_col = np.ones(nc, dtype=np.int64)
    for members in clusters.values():
        cluster_count = np.zeros(nc, dtype=np.int64)
        domains_list = [domains[roots[ci]] for ci in members]
        for root_labels in itertools.product(*domains_list):
            glabels: dict[int, np.ndarray] = {}
            ok = np.ones(nc, dtype=bool)
            for ci, lab in zip(members, root_labels):
                glabels[roots[ci]] = np.full(nc, lab, dtype=np.int64)
                for ei, child, child_is_head in tree[ci]:
                    t, h = lat.edges[ei]
                    x = configs[:, ei]
                    glabels[child] = (conj[x, glabels[t]] if child_is_head
                                      else conj[inv[x], glabels[h]])
                    ok &= member[child][glabels[child]]
                for ei in nontree_by_comp.get(ci, ()):
                    t, h = lat.edges[ei]
                    ok &= glabels[h] == conj[configs[:, ei], glabels[t]]
            weight = ok.astype(np.int64)
            for ei in dangling:
                t, h = lat.edges[ei]
                if comp[t] in members:
                    weight *= weight_tables[ei][configs[:, ei], glabels[h], glabels[t]]
            cluster_count += weight
        total_col *= cluster_count
    return int(total_col.sum())


def _enumerate_flat_configs(lat: Lattice, group: FiniteGroup,
                            allowed: Sequence[Sequence[int]],
                            first: Sequence[int] = ()) -> Optional[np.ndarray]:
    """All register assignments with trivial holonomy on every face.

    The edges in `first` are assigned before any other (see
    `elimination_order`).  Returns an (N, n_edges) int array, or None
    when over budget.
    """
    steps = elimination_order(lat, first)
    budget = 1
    for st in steps:
        if st.action == "branch":
            budget *= len(allowed[st.edge])
            if budget > TRACE_PARTIAL_BUDGET:
                return None
    n = group.order
    cols: dict[int, np.ndarray] = {}
    count = 1

    allowed_masks = []
    for e in range(lat.n_edges):
        mask = np.zeros(n, dtype=bool)
        mask[list(allowed[e])] = True
        allowed_masks.append(mask)

    for st in steps:
        e = st.edge
        if st.action == "branch":
            vals = np.array(sorted(allowed[e]), dtype=np.int64)
            k = len(vals)
            for e2 in list(cols):
                cols[e2] = np.repeat(cols[e2], k)
            cols[e] = np.tile(vals, count)
            count *= k
        else:
            col = _solve_edge(group, lat, st.plaquette, e, cols)
            keep = allowed_masks[e][col]
            if not keep.all():
                for e2 in list(cols):
                    cols[e2] = cols[e2][keep]
                col = col[keep]
                count = int(keep.sum())
            cols[e] = col
        for pc in st.checkers:
            keep = _holonomy_ok(group, lat, pc, cols)
            if not keep.all():
                for e2 in list(cols):
                    cols[e2] = cols[e2][keep]
                count = int(keep.sum())
        if count == 0:
            break
    if count == 0:
        return np.zeros((0, lat.n_edges), dtype=np.int64)
    out = np.zeros((count, lat.n_edges), dtype=np.int64)
    for e, col in cols.items():
        out[:, e] = col
    return out


# ---------------------------------------------------------------------------
# route 1, and the trace reference route without its gauge fix: the Burnside sum
#
# The ground states are the gauge orbits of flat connections, with
# K-restricted gauge on the rims, so their number is the gauge-group
# average of the stabilizer orders of the flat configurations.


def _gsd_counting(lat: Lattice, group: FiniteGroup,
                  subgroups: Mapping[str, Subgroup],
                  gauge_fix: bool = True) -> Optional[int]:
    """Route 1: the Burnside sum on a gauge-fixed slice.

    Pinned forest edges (see `_spanning_forest`) are set to the identity.
    Each gauge orbit then contributes the order of the residual gauge
    group, which drops the pinned children's labels, to the slice's
    stabilizer total.  The modular and dense routes are independent
    oracles for it.  With `gauge_fix` off nothing is pinned and the sum
    runs over every flat configuration: that is the trace reference
    route, no independent oracle, and far costlier in time and memory.
    """
    allowed, domains, dangling = _gauge_domains(lat, group, subgroups)
    roots, tree, pinned = _spanning_forest(lat, group, subgroups, dangling)
    if not gauge_fix:
        pinned = {}
    allowed = [(0,) if e in pinned else a for e, a in enumerate(allowed)]
    configs = _enumerate_flat_configs(lat, group, allowed, first=list(pinned))
    if configs is None:
        return None
    total = _stabilizer_total(lat, group, configs, domains, dangling, roots, tree)
    residual = (_gauge_volume(domains, dangling)
                // prod(len(domains[child]) for child in pinned.values()))
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
    """Route 2: the ground-state count from the modular data of D(G).

    A boundary with subgroup K condenses the Lagrangian algebra W_K, so a
    surface with Euler characteristic chi and boundary regions i has
    GSD = sum over sectors x of S_0x^chi prod_i (W_i S)_x (Cong, Cheng and
    Wang, arXiv 1707.04564).  No lattice configuration is enumerated, so
    this is an independent oracle for route 1.  The sum is taken in
    complex128 and must lie within 1e-9 (relative) of a non-negative
    integer.  Returns None on a lattice that is no such surface
    (`_is_bounded_surface`): one with dangling edges, where the count is
    a double-coset count, or one with a one-face edge that is no region's
    rim edge.
    """
    _region_assignment(lat, group, subgroups)
    if not _is_bounded_surface(lat):
        return None
    table = anyon_table(group)
    s = s_matrix(group)
    summand = s[0] ** lat.euler_characteristic
    for reg in lat.regions:
        w = np.array(LagrangianAlgebra(table, subgroups[reg.name]).multiplicities)
        summand = summand * (w @ s)
    total = complex(summand.sum())
    val = int(round(total.real))
    if val < 0 or abs(total - val) > 1e-9 * max(1.0, abs(total)):
        raise InvariantError(f"modular sum {total} is not a non-negative integer")
    return val


# ---------------------------------------------------------------------------
# route 3: dense matrix trace


def _dense_projector(lat: Lattice, group: FiniteGroup,
                     subgroups: Mapping[str, Subgroup],
                     terms: Optional[Sequence[HamiltonianTerm]] = None):
    """(support, P_S), or None over budget: the ground projector's dense S x S block.

    S lists the configurations where the product of the diagonal terms is
    nonzero; P_S starts as that product, and each off-diagonal monomial is
    applied as one gather through its inverse map (row m, kept zero, means
    no preimage).  Commuting projectors keep S invariant, so the projector
    vanishes outside the block; a monomial that maps S outside S raises.
    """
    dim = group.order ** lat.n_edges
    if dim > MATERIALIZE_DIM_BUDGET:
        return None
    if terms is None:
        terms = build_terms(lat, group, subgroups)
    edges = range(lat.n_edges)
    diag = np.ones(dim)
    for t in (t for t in terms if t.diagonal):
        diag *= t.op.apply(edges, np.ones(dim))
    support = np.flatnonzero(diag)
    m = len(support)
    if m ** 2 > 40_000_000:
        raise InvariantError("dense projector exceeded the sparsity guard")
    index = np.full(dim, m, dtype=np.int64)
    index[support] = np.arange(m)
    proj = np.vstack([np.diag(diag[support]), np.zeros(m)])
    for t in (t for t in terms if not t.diagonal):
        out = np.zeros_like(proj)
        for rows, cols, coeff in t.op.monomial_entries(edges):
            inside = index[cols] < m
            rows, cols = index[rows[inside]], index[cols[inside]]
            if (rows == m).any():
                raise InvariantError(f"{t.name} maps a configuration out of the support")
            preimage = np.full(m, m)
            preimage[rows] = cols
            out[:m] += float(coeff) * proj[preimage]
        proj = out
    return support, proj[:m]


def _projector_rank(proj) -> int:
    """Rank of a projector matrix, read from its trace, which must be an integer."""
    tr = float(proj.diagonal().sum())
    val = int(round(tr))
    if abs(tr - val) > 1e-6 * max(1.0, abs(tr)):
        raise InvariantError(f"projector trace {tr} is not close to an integer")
    return val


def _gsd_dense(lat: Lattice, group: FiniteGroup,
               subgroups: Mapping[str, Subgroup]) -> Optional[int]:
    """Route 3: the trace of the explicit projector's support block, an independent oracle."""
    dense = _dense_projector(lat, group, subgroups)
    return None if dense is None else _projector_rank(dense[1])


# ---------------------------------------------------------------------------
# combined entry point


@dataclass
class GsdReport:
    value: int
    by_method: dict[str, int]
    skipped: tuple[str, ...]


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
# explicit ground space (small systems)


class GroundSpace:
    """Orthonormal ground basis of the dense projector, with certificates."""

    def __init__(self, lat: Lattice, group: FiniteGroup,
                 subgroups: Mapping[str, Subgroup]):
        self.lattice = lat
        self.group = group
        self.terms = build_terms(lat, group, subgroups)
        dense = _dense_projector(lat, group, subgroups, self.terms)
        if dense is None:
            raise ValueError("lattice is too large for an explicit ground basis")
        support, proj = dense
        dim = group.order ** lat.n_edges
        expected = ground_space_dimension(lat, group, subgroups,
                                          methods=("counting", "modular")).value
        rank = _projector_rank(proj)
        if rank != expected:
            raise InvariantError(f"projector rank {rank} != route count {expected}")
        rng = np.random.default_rng(7)
        probe = rng.normal(size=(dim, min(dim, expected + 6)))
        img = np.zeros_like(probe)
        img[support] = proj @ probe[support]
        q, r = np.linalg.qr(img)
        keep = np.abs(np.diag(r)) > 1e-8 * max(1.0, float(np.abs(r).max()))
        self.basis = q[:, keep]
        if self.basis.shape[1] != expected:
            raise InvariantError(
                f"ground basis rank {self.basis.shape[1]} != expected {expected}")
        for t in self.terms:
            if float(np.abs(t.op.apply(range(lat.n_edges), self.basis) - self.basis).max()) > 1e-9:
                raise InvariantError(f"ground basis is not fixed by {t.name}")

    @property
    def dimension(self) -> int:
        return self.basis.shape[1]


def ground_space(lat: Lattice, group: FiniteGroup,
                 subgroups: Mapping[str, Subgroup]) -> GroundSpace:
    return GroundSpace(lat, group, subgroups)
