"""Exact operator algebra, Hamiltonian terms, their audit, and ground-state counting.

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
sum over gauge orbits of flat connections on a slice that keeps, on each
spanning-forest edge, one value per orbit of its child's gauge domain; a
dangling edge with boundary subgroup K stays out of the slice and
contributes one factor |K\\G/K|.  Modular is one exact sum over the
boundary condensates, without the lattice's configurations, on any
connected surface whose boundary circles are its regions.  Dense takes
the trace of the projector built on the support of the diagonal terms,
and raises when a term maps that support outside itself, which
commuting projectors never do.  Trace is the counting route with its
gauge fix switched off, the Burnside sum over every flat configuration
of the edges that are not dangling: a reference route that runs only
when named.

The geometry (`Lattice`, `torus`, `patch`, `ring`, `carve_hole`) lives in
`qdw.geometry` and is re-exported here.  The modular route imports the
sector layer (`qdw.classify`) where it runs, so an audit never loads it.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from math import lcm, prod
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from qdw.geometry import (
    MATERIALIZE_DIM_BUDGET,
    MAX_LATTICE_EDGES,
    BoundaryRegion,
    Lattice,
    _region_assignment,
    carve_hole,
    config_digits,
    patch,
    ring,
    torus,
)
from qdw.groups import FiniteGroup, InvariantError, Subgroup, _breadth_first, double_cosets

__all__ = [
    "MATERIALIZE_DIM_BUDGET",
    "MAX_LATTICE_EDGES",
    "Operator",
    "BoundaryRegion",
    "Lattice",
    "torus",
    "patch",
    "ring",
    "carve_hole",
    "config_digits",
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
]

TRACE_PARTIAL_BUDGET = 20_000_000


def _monomial_rows(key: tuple, pos: Mapping[int, int], digits: np.ndarray,
                   weights: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where monomial `key` sends each configuration of the edges in `pos`.

    Configurations are indexed as in `config_digits`, whose output is
    `digits` and `weights`.  Returns (rows, defined): configuration c
    goes to rows[c] wherever defined[c], i.e. where every map of `key`
    is defined on c's values; elsewhere rows[c] is meaningless.  Maps on
    edges outside `pos` are ignored.
    """
    rows = np.arange(len(digits), dtype=np.int64)
    defined = np.ones(len(digits), dtype=bool)
    for e, m in key:
        i = pos.get(e)
        if i is None:
            continue
        col = digits[:, i]
        tgt = np.array(m, dtype=np.int64)[col]
        defined &= tgt >= 0
        rows += (tgt - col) * weights[i]
    return rows, defined


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

    def __iadd__(self, other: "Operator") -> "Operator":
        """In place, so a sum built term by term copies no dict."""
        for key, c in other.terms.items():
            self._accumulate(key, c)
        return self

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.n, dict(self.terms)).__iadd__(other)

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
        """Exact entries of a diagonal operator (unchecked) as integers over one denominator.

        Returns (numerators, den): the entry of configuration c of `edges`
        (indexed as in `config_digits`) is numerators[c] / den, where den
        is the least common multiple of the coefficient denominators.
        Each monomial adds its scaled numerator where the indicator
        gathers of its edge maps all hit.  The int64 sums cannot wrap:
        the sum of |numerator| is checked to stay below 2**62.
        """
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

    def _idempotent_table(self, diagonal: bool) -> tuple[bool, Optional[np.ndarray]]:
        """Exact idempotence, read from the diagonal table (`_diagonal_numerators`,
        also returned) when `diagonal` and within budget, else from op*op - op."""
        if diagonal and self.n ** len(self.support) <= MATERIALIZE_DIM_BUDGET:
            table, den = self._diagonal_numerators(self.support)
            return bool(np.all((table == 0) | (table == den))), table
        return ((self * self) - self).is_zero(), None

    def is_projector(self) -> bool:
        """Exact idempotence and self-adjointness."""
        return self.is_hermitian() and self._idempotent_table(self.is_diagonal())[0]

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

        def entries(key):
            rows, defined = _monomial_rows(key, pos, digits, weights)
            return rows[defined], np.flatnonzero(defined)

        return ((*entries(key), coeff) for key, coeff in self.terms.items())

    def to_matrix(self, edges: Sequence[int]) -> np.ndarray:
        """Dense matrix over configurations of `edges` (row-major, edge 0 slowest)."""
        entries = self.monomial_entries(edges)
        dim = self.n ** len(edges)
        mat = np.zeros((dim, dim))
        for rows, cols, coeff in entries:
            mat[rows, cols] += float(coeff)
        return mat


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
        maps = {e: _map_left(group, g) if at_head else _map_right_inv(group, g)
                for e, at_head in star}
        out += Operator.monomial(group.order, Fraction(1, len(elems)), maps)
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
        out += Operator.monomial(n, Fraction(1), maps)
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
        out += Operator.monomial(group.order, Fraction(1, sub.order), {edge: m})
    return out


def literal_gauge_edge_term(group: FiniteGroup, edge: int, sub: Subgroup) -> Operator:
    """Naive single-term edge average: both translation sides summed.

    Kept deliberately: it is hermitian but not idempotent, and fails to
    commute with face terms when the edge borders a retained face.  The
    audit must flag it.
    """
    out = Operator(group.order)
    for k in sub.elements:
        for m in (_map_left(group, k), _map_right_inv(group, k)):
            out += Operator.monomial(group.order, Fraction(1, 2 * sub.order), {edge: m})
    return out


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
    for key in other.terms:
        rows, defined = _monomial_rows(key, pos, digits, weights)
        if not defined.all() or not np.array_equal(numerators[rows], numerators):
            return False
    return True


def audit_commutation(terms: Sequence[HamiltonianTerm], n: int) -> AuditReport:
    """Exact projector, hermiticity, and pairwise commutation checks.

    A term's `diagonal` flag must say whether its operator is diagonal,
    because the pair loop trusts the flag.  Disjoint pairs and pairs of
    two diagonal terms commute identically; both are skipped and counted
    in `skipped_pairs`.

    Each term's flag, hermiticity and idempotence are decided once, a
    diagonal term's from its integer table (`Operator._idempotent_table`).
    For an overlapping pair with one diagonal term D, the exact permutation
    pre-test `_commutes_by_permutation` runs first on D's table; when it
    does not pass, the commutator is expanded into matrix-unit atoms as for
    every other pair.  Both routes record the pair as checked.  Residual
    norms are materialized only for failing pairs on small supports.
    """
    term_checks, tables = [], []
    for t in terms:
        if t.diagonal != t.op.is_diagonal():
            flag, actual = (("diagonal", "not diagonal") if t.diagonal
                            else ("non-diagonal", "diagonal"))
            raise InvariantError(
                f"term {t.name} is flagged {flag}, but its operator is {actual}")
        hermitian = t.op.is_hermitian()
        projector, table = t.op._idempotent_table(t.diagonal) if hermitian else (False, None)
        term_checks.append(TermCheck(t.name, projector, hermitian))
        tables.append(table)
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
            if tables[d] is not None and _commutes_by_permutation(
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
    acc, inv = 0, _inverse_array(group)
    for e, along in cyc:
        x = values[e]
        acc = group.table[x if along else inv[x], acc]
    return acc


def _inverse_array(group: FiniteGroup) -> np.ndarray:
    """`group.inv` as an int64 array, so that it can index register columns."""
    if "inverse_array" not in group._cache:
        group._cache["inverse_array"] = np.array(group.inv, dtype=np.int64)
    return group._cache["inverse_array"]


def _solve_edge(group: FiniteGroup, lat: Lattice, pi: int, target: int, values):
    """Register value forced on `target` by trivial holonomy of face `pi`.

    `values` holds the other registers of the face, as in `_holonomy`.
    """
    cyc = lat.plaquettes[pi]
    idx = next(i for i, (e, _) in enumerate(cyc) if e == target)
    low = _holonomy(group, cyc[:idx], values)
    high = _holonomy(group, cyc[idx + 1:], values)
    inv = _inverse_array(group)
    t = group.table[inv[high], inv[low]]
    return t if cyc[idx][1] else inv[t]


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


def _spanning_forest(lat: Lattice, dangling: Mapping[int, Subgroup]):
    """Breadth-first spanning forest over the non-dangling edges, rim roots first.

    Returns (roots, tree).  tree[c] lists the edges of the tree rooted at
    roots[c] as (edge, child, child_is_head), parents before children.
    """
    adj: list[list[tuple[int, tuple[int, bool]]]] = [[] for _ in range(lat.n_vertices)]
    for ei, (t, h) in enumerate(lat.edges):
        if ei not in dangling:
            adj[t].append((h, (ei, True)))
            adj[h].append((t, (ei, False)))
    seen = [False] * lat.n_vertices
    roots: list[int] = []
    tree: list[list[tuple[int, int, bool]]] = []
    for root in sorted(range(lat.n_vertices), key=lambda v: v not in lat.vertex_region):
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
    tail (as in `_stabilizer_total`), so the orbits are D x and x D.
    """
    if child_is_head:
        least = group.table[np.ix_(domain, allowed)].min(axis=0)
    else:
        least = group.table[np.ix_(allowed, domain)].min(axis=1)
    return tuple(sorted(set(least.tolist())))


def _stabilizer_total(lat: Lattice, group: FiniteGroup, configs: np.ndarray,
                      domains: Sequence[Sequence[int]], roots: Sequence[int], tree) -> int:
    """Sum over `configs` of the number of vertex gauge transformations fixing each.

    On each tree of the forest a fixing transformation is determined by
    its root label: labels propagate along tree edges, and must lie in
    their vertex domains and respect every non-tree edge of the tree.
    Only dangling edges join trees, and their K x K translations absorb
    both endpoint labels (see `_gsd_counting`), so their checks are
    skipped and the trees' counts multiply.
    """
    nc = configs.shape[0]
    inv = _inverse_array(group)
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
        if ei not in tree_edges and lat.edge_region.get(ei, ("", ""))[1] != "dangling":
            nontree_by_comp.setdefault(comp[t], []).append(ei)
    total = np.ones(nc, dtype=np.int64)
    for ci, (root, edges) in enumerate(zip(roots, tree)):
        count = np.zeros(nc, dtype=np.int64)
        for label in domains[root]:
            glabels = {root: np.full(nc, label, dtype=np.int64)}
            ok = np.ones(nc, dtype=bool)
            for ei, child, child_is_head in edges:
                t, h = lat.edges[ei]
                x = configs[:, ei]
                glabels[child] = (conj[x, glabels[t]] if child_is_head
                                  else conj[inv[x], glabels[h]])
                ok &= member[child][glabels[child]]
            for ei in nontree_by_comp.get(ci, ()):
                t, h = lat.edges[ei]
                ok &= glabels[h] == conj[configs[:, ei], glabels[t]]
            count += ok
        total *= count
    return int(total.sum())


def _enumerate_flat_configs(lat: Lattice, group: FiniteGroup,
                            allowed: Sequence[Sequence[int]]) -> Optional[np.ndarray]:
    """All register assignments with trivial holonomy on every face.

    Every edge with a single allowed value is assigned before any other
    (see `elimination_order`).  Returns an (N, n_edges) int array, or None
    when over budget.
    """
    steps = elimination_order(lat, [e for e, a in enumerate(allowed) if len(a) == 1])
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

    Each tree edge of the spanning forest (see `_spanning_forest`) keeps
    only `_transversal` of its allowed values under its child's gauge
    domain.  Taking the children in forest order, every configuration is
    then one gauge transformation of the children away from exactly one
    configuration of the slice, so each gauge orbit contributes the order
    of the residual gauge group, the product of the root domains, to the
    slice's stabilizer total.  A dangling edge borders no face, and its
    K x K translations absorb both endpoint labels, so every orbit is an
    orbit of the other edges times one double coset K x K: the dangling
    edges are left out of the slice (set to the identity) and the count
    is multiplied by |K\\G/K| for each.  The modular and dense routes are
    independent oracles for it.  With `gauge_fix` off no edge is
    restricted and the sum runs over every flat configuration of the
    other edges: that is the trace reference route, no independent
    oracle, and far costlier in time and memory.
    """
    allowed, domains, dangling = _gauge_domains(lat, group, subgroups)
    roots, tree = _spanning_forest(lat, dangling)
    allowed = [(0,) if e in dangling else a for e, a in enumerate(allowed)]
    if gauge_fix:
        for ei, child, child_is_head in itertools.chain.from_iterable(tree):
            allowed[ei] = _transversal(group, allowed[ei], domains[child], child_is_head)
    configs = _enumerate_flat_configs(lat, group, allowed)
    if configs is None:
        return None
    total = _stabilizer_total(lat, group, configs, domains, roots, tree)
    # residual gauge: the root labels, or every label without the gauge fix
    residual = prod(len(domains[v]) for v in (roots if gauge_fix else range(lat.n_vertices)))
    if total % residual != 0:
        raise InvariantError("orbit count is not divisible by the residual gauge volume")
    return total // residual * prod(len(double_cosets(k, k)) for k in dangling.values())


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
    from qdw.classify import condensate_count

    _region_assignment(lat, group, subgroups)
    if not _is_bounded_surface(lat):
        return None
    return condensate_count(group, lat.euler_characteristic,
                            [subgroups[reg.name] for reg in lat.regions])


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
        table, den = t.op._diagonal_numerators(edges)
        diag *= table / den
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

