"""Exact operator algebra, Hamiltonian terms, their audit, and ground-state counting.

Edges carry one group-valued register each.  Every Hamiltonian term is a
sum of monomials with Fraction coefficients, where a monomial assigns an
injective partial map of the register to each touched edge.  Products,
adjoints, and commutators are therefore exact; the audit reports exact
zeros, not small numbers.  Every exact test reads one expansion of an
operator over the configurations of its support (`Operator._expansion`):
its nonzero matrix entries, as Python-int numerators over one common
denominator, budgeted only by their number.  It decides `is_zero`; and
for a term flagged diagonal, one expansion decides the flag, hermiticity
and idempotence, and feeds the pre-test.  For each pair of a diagonal
and a non-diagonal term, the audit first tries an exact permutation
pre-test on the diagonal term's expansion, and falls back to expanding
the commutator when the pre-test does not pass; a failing pair's
Frobenius norm is read from that expansion.

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
`qdw.geometry` and is re-exported here.  So does the gauge-fixed slice
that counting enumerates (`_gauge_domains`, `_spanning_forest`,
`_transversal`, `_enumerate_flat_configs`), which the logical layer
reads its sectors off as well.  The modular route imports the
sector layer (`qdw.classify`) where it runs, so an audit never loads it.
The audit and the counting, trace and modular routes run on Python
integers; numpy is imported only where a matrix is built
(`Operator.monomial_entries`, `Operator.to_matrix` and the dense route),
so neither an audit nor a `gsd` run whose dense route is over budget
loads it.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from functools import partial
from math import lcm, prod, sqrt
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from qdw.geometry import (
    MATERIALIZE_DIM_BUDGET,
    MAX_LATTICE_EDGES,
    BoundaryRegion,
    Lattice,
    _enumerate_flat_configs,
    _gauge_domains,
    _region_assignment,
    _spanning_forest,
    _transversal,
    carve_hole,
    config_digits,
    patch,
    place_values,
    ring,
    torus,
)
from qdw.groups import FiniteGroup, InvariantError, Subgroup, _breadth_first, double_cosets
from qdw.records import Record

if TYPE_CHECKING:
    import numpy as np

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

# ---------------------------------------------------------------------------
# injective partial maps on one register, encoded as tuples with -1 for
# "outside the domain"


def _map_left(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(group.rows[g])


def _map_right_inv(group: FiniteGroup, g: int) -> tuple[int, ...]:
    gi = group.inv[g]
    return tuple(row[gi] for row in group.rows)


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

    def _expansion(self) -> tuple[dict[int, int], int, tuple[int, ...]]:
        """Exact nonzero matrix entries over the configurations of `support`.

        Returns (numerators, den, support).  With the k registers of
        support indexed as in `config_digits` (N = n^k configurations), the
        entry in row r and column c is numerators.get(r * N + c, 0) / den,
        so the diagonal entry of configuration c sits at key c * (N + 1).
        den is the least common multiple of the coefficient denominators;
        only nonzero numerators are stored, as Python ints.  Matrix units
        are linearly independent, so this is a canonical form, which
        monomial keys are not (a sum of point maps can equal an identity).
        Each monomial adds its scaled numerator on the entries where every
        map of its key is defined; their number is budgeted before any is
        added.  The support is returned so that no caller walks the
        monomials for it again.
        """
        support = self.support
        n, k = self.n, len(support)
        pos = {e: i for i, e in enumerate(support)}
        places = place_values(n, k)
        size = n ** k
        # each register's share of the key: value x in the column and m[x]
        # in the row, or x in both on an edge the monomial leaves alone
        alone = [[x * w * (size + 1) for x in range(n)] for w in places]
        hits = []
        for key in self.terms:
            hit = list(alone)
            for e, m in key:
                w = places[pos[e]]
                hit[pos[e]] = [(y * size + x) * w for x, y in enumerate(m) if y >= 0]
            hits.append(hit)
        entries = sum(prod(map(len, hit)) for hit in hits)
        if entries > 5_000_000:
            raise ValueError(f"expansion of {entries} entries over budget")
        den = lcm(*(c.denominator for c in self.terms.values()))
        table: dict[int, int] = {}
        for hit, coeff in zip(hits, self.terms.values()):
            num = coeff.numerator * (den // coeff.denominator)
            for c in map(sum, itertools.product(*hit)):
                table[c] = table.get(c, 0) + num
        return {c: v for c, v in table.items() if v}, den, support

    def is_zero(self) -> bool:
        """Exact zero test: syntactic cancellation, then the expansion."""
        return not self.terms or not self._expansion()[0]

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

    def is_projector(self) -> bool:
        """Exact idempotence and self-adjointness.

        A diagonal operator is real, hence hermitian, and is read off its
        expansion: a projector when every nonzero entry is 1.  Any other
        operator must be hermitian with op*op - op == 0.
        """
        if self.is_diagonal():
            table, den, _ = self._expansion()
            return all(v == den for v in table.values())
        return self.is_hermitian() and ((self * self) - self).is_zero()

    def monomial_entries(self, edges: Sequence[int]):
        """(rows, cols, coeff) of each monomial over configurations of `edges`.

        Configurations are indexed as in `config_digits`.  A monomial is an injective
        partial map, so its rows never repeat and `out[rows] += coeff * x[cols]`
        applies it exactly.  Budget and edge cover are checked before the first one.
        """
        import numpy as np

        k = len(edges)
        dim = self.n ** k
        if dim > MATERIALIZE_DIM_BUDGET:
            raise ValueError(f"materialization dimension {dim} over budget")
        pos = {e: i for i, e in enumerate(edges)}
        if not set(self.support) <= set(pos):
            raise ValueError("edge list does not cover the operator support")
        digits, weights = config_digits(self.n, k)

        def entries(key):
            rows = np.arange(dim, dtype=np.int64)
            defined = np.ones(dim, dtype=bool)
            for e, m in key:
                col = digits[:, pos[e]]
                tgt = np.array(m, dtype=np.int64)[col]
                defined &= tgt >= 0
                rows += (tgt - col) * weights[pos[e]]
            return rows[defined], np.flatnonzero(defined)

        return ((*entries(key), coeff) for key, coeff in self.terms.items())

    def to_matrix(self, edges: Sequence[int]) -> np.ndarray:
        """Dense matrix over configurations of `edges` (row-major, edge 0 slowest)."""
        import numpy as np

        entries = self.monomial_entries(edges)
        dim = self.n ** len(edges)
        mat = np.zeros((dim, dim))
        for rows, cols, coeff in entries:
            mat[rows, cols] += float(coeff)
        return mat


# ---------------------------------------------------------------------------
# Hamiltonian terms


class HamiltonianTerm(Record):
    """`kind` is gauge, flux, edge-pin, half-shift or literal."""
    _fields = __slots__ = ("name", "kind", "op", "edges", "diagonal", "region")

    def __init__(self, name: str, kind: str, op: Operator, edges: tuple[int, ...],
                 diagonal: bool, region: Optional[str] = None):
        super().__init__(name, kind, op, edges, diagonal, region)


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


class TermCheck(Record):
    _fields = __slots__ = ("name", "is_projector", "is_hermitian")

    def __init__(self, name: str, is_projector: bool, is_hermitian: bool):
        super().__init__(name, is_projector, is_hermitian)


class PairCheck(Record):
    """`residual_norm` is only materialized on failure."""
    _fields = __slots__ = ("left", "right", "commutes", "residual_norm")

    def __init__(self, left: str, right: str, commutes: bool,
                 residual_norm: Optional[float] = None):
        super().__init__(left, right, commutes, residual_norm)


class AuditReport(Record):
    """Per-term and per-pair audit results.

    `skipped_pairs` (reported as `pairs_skipped_disjoint`) counts the pairs
    that commute without a check: disjoint pairs and overlapping pairs of
    two diagonal terms.
    """
    _fields = __slots__ = ("term_checks", "pair_checks", "skipped_pairs")

    def __init__(self, term_checks: list[TermCheck], pair_checks: list[PairCheck],
                 skipped_pairs: int):
        super().__init__(term_checks, pair_checks, skipped_pairs)

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


def _commutes_by_permutation(numerators: Mapping[int, int], edges: Sequence[int],
                             other: Operator) -> bool:
    """Sufficient test that a diagonal operator D commutes with `other`.

    `numerators` is D's expansion over `edges` (D's support), as returned
    by `Operator._expansion`: the diagonal entry of configuration c is
    keyed c * (N + 1), N = n^|edges|.  The test passes when every monomial
    U of `other` is total on `edges` and D's diagonal is invariant under
    the configuration map U induces there: then D U = U D column by
    column, so D commutes with every monomial and with their sum.  False
    means "not shown", not "does not commute".

    Invariance is checked on the nonzero configurations alone, as
    D[U c] == D[c] for each stored c.  That is enough: U is injective and
    total on a finite set of configurations, so it is a permutation of
    that set.  If it maps every nonzero configuration to one with the
    same nonzero value, it maps the nonzero set into itself, hence onto
    itself, hence also the zero set onto itself, so D[U c] == D[c] for
    every c.  The converse is immediate.
    """
    n, k = other.n, len(edges)
    pos = {e: i for i, e in enumerate(edges)}
    places = place_values(n, k)
    diagonal_step = n ** k + 1
    for key in other.terms:
        # (weight, key shift per register value) for each map U has on `edges`;
        # key // weight % n reads the register's value in the column
        shifts = []
        for e, m in key:
            i = pos.get(e)
            if i is None:
                continue
            if min(m) < 0:
                return False
            w = places[i]
            shifts.append((w, [(y - x) * w * diagonal_step for x, y in enumerate(m)]))
        for c, v in numerators.items():
            if numerators.get(c + sum(d[c // w % n] for w, d in shifts)) != v:
                return False
    return True


def audit_commutation(terms: Sequence[HamiltonianTerm], n: int) -> AuditReport:
    """Exact projector, hermiticity, and pairwise commutation checks.

    A term's `diagonal` flag must say whether its operator is diagonal,
    because the pair loop trusts the flag.  Disjoint pairs and pairs of
    two diagonal terms commute identically; both are skipped and counted
    in `skipped_pairs`.

    Each term is decided once.  A term flagged diagonal is decided from
    one expansion (`Operator._expansion`) over its support: the flag holds
    when every stored entry lies on the diagonal, which is a fact about
    the matrix, not about how its monomials are written; a real diagonal
    matrix is hermitian; and it is a projector when every nonzero entry
    is 1.  Any other term must not be diagonal monomial by monomial, and
    its hermiticity and op*op - op == 0 are tested exactly.
    For an overlapping pair with one diagonal term D, the exact
    permutation pre-test `_commutes_by_permutation` runs first on D's
    expansion and support; when it does not pass, the commutator C is
    expanded as for every other pair.  Both routes record the pair as
    checked.  A failing pair's residual Frobenius norm over the union of
    the two terms' edges is read from C's expansion: n^(|union| -
    |support C|) times the sum of the squared entries, under the root.
    Every exact test reads one expansion, whose only budget is its entry
    count.
    """
    term_checks = []
    expansions: dict[int, tuple[dict[int, int], tuple[int, ...]]] = {}
    for i, t in enumerate(terms):
        op = t.op
        if t.diagonal:
            table, den, support = op._expansion()
            diagonal_step = op.n ** len(support) + 1
            diagonal = all(c % diagonal_step == 0 for c in table)
        else:
            diagonal = op.is_diagonal()
        if t.diagonal != diagonal:
            flag, actual = (("diagonal", "not diagonal") if t.diagonal
                            else ("non-diagonal", "diagonal"))
            raise InvariantError(
                f"term {t.name} is flagged {flag}, but its operator is {actual}")
        if t.diagonal:
            term_checks.append(TermCheck(t.name, all(v == den for v in table.values()), True))
            expansions[i] = table, support
        else:
            hermitian = op.is_hermitian()
            projector = hermitian and ((op * op) - op).is_zero()
            term_checks.append(TermCheck(t.name, projector, hermitian))
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
            if ti.diagonal or tj.diagonal:
                d, other = (i, tj) if ti.diagonal else (j, ti)
                if _commutes_by_permutation(*expansions[d], other.op):
                    pair_checks.append(PairCheck(ti.name, tj.name, True))
                    continue
            comm = ti.op.commutator(tj.op)
            entries, den, support = comm._expansion()
            norm = None
            if entries:
                union = len(set(ti.edges) | set(tj.edges))
                squares = sum(v * v for v in entries.values())
                norm = sqrt(Fraction(n ** (union - len(support)) * squares, den * den))
            pair_checks.append(PairCheck(ti.name, tj.name, not entries, norm))
    return AuditReport(term_checks, pair_checks, skipped)


# ---------------------------------------------------------------------------
# route 1, and the trace reference route without its gauge fix: the Burnside sum
#
# The ground states are the gauge orbits of flat connections, with
# K-restricted gauge on the rims, so their number is the gauge-group
# average of the stabilizer orders of the flat configurations.


def _stabilizer_total(lat: Lattice, group: FiniteGroup, configs: Iterable[Sequence[int]],
                      domains: Sequence[Sequence[int]], roots: Sequence[int], tree) -> int:
    """Sum over `configs` of the number of vertex gauge transformations fixing each.

    On each tree of the forest a fixing transformation is determined by
    its root label g: labels propagate along tree edges, and must lie in
    their vertex domains and respect every non-tree edge of the tree.
    The label of vertex w is Q_w g Q_w^-1, where Q_w multiplies the tree
    edges' letters from the root to w, so g must lie in Q_w^-1 D_w Q_w
    for every vertex w whose domain D_w is not the whole group, and
    commute with Q_h^-1 x Q_t for every non-tree edge from t to h with
    register value x.  Only dangling edges join trees, and their K x K
    translations absorb both endpoint labels (see `_gsd_counting`), so
    their checks are skipped and the trees' counts multiply.  `configs`
    is consumed one configuration at a time; sets of root labels are
    bit masks.
    """
    rows, inv, n = group.rows, group.inv, group.order
    mask = [sum(1 << g for g in d) for d in domains]
    whole = (1 << n) - 1
    comp = [0] * lat.n_vertices
    for ci, (root, edges) in enumerate(zip(roots, tree)):
        comp[root] = ci
        for _, child, _ in edges:
            comp[child] = ci
    tree_edges = {ei for edges in tree for ei, _, _ in edges}
    nontree_by_comp: dict[int, list[tuple[int, int, int]]] = {}
    for ei, (t, h) in enumerate(lat.edges):
        if ei not in tree_edges and lat.edge_region.get(ei, ("", ""))[1] != "dangling":
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
             for ci, (root, edges) in enumerate(zip(roots, tree))]
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
    oracle, and far costlier in time (the configurations are streamed, so
    not in memory).
    """
    allowed, domains, dangling = _gauge_domains(lat, group, subgroups)
    roots, tree = _spanning_forest(lat, domains, dangling)
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
    """(support, P_S), or None when the configurations or the S x S block are over
    budget: the ground projector's dense S x S block.

    S lists the configurations where the product of the diagonal terms is
    nonzero; P_S starts as that product, and each off-diagonal monomial is
    applied as one gather through its inverse map (row m, kept zero, means
    no preimage).  Commuting projectors keep S invariant, so the projector
    vanishes outside the block; a monomial that maps S outside S raises.
    """
    dim = group.order ** lat.n_edges
    if dim > MATERIALIZE_DIM_BUDGET:
        return None
    import numpy as np

    if terms is None:
        terms = build_terms(lat, group, subgroups)
    n = group.order
    edges = range(lat.n_edges)
    digits, _ = config_digits(n, lat.n_edges)
    diag = np.ones(dim)
    for t in (t for t in terms if t.diagonal):
        # the term's diagonal over its own support, gathered at every configuration
        table, den, own = t.op._expansion()
        size = n ** len(own)
        entries = np.zeros(size)
        entries[[c // (size + 1) for c in table]] = [v / den for v in table.values()]
        diag *= entries[digits[:, list(own)] @ np.array(place_values(n, len(own)), dtype=np.int64)]
    support = np.flatnonzero(diag)
    m = len(support)
    if m ** 2 > 40_000_000:
        return None
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


class GsdReport(Record):
    _fields = __slots__ = ("value", "by_method", "skipped")

    def __init__(self, value: int, by_method: dict[str, int], skipped: tuple[str, ...]):
        super().__init__(value, by_method, skipped)


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

