"""Exact operator algebra, Hamiltonian terms, and their audit.

Edges carry one group-valued register each.  A diagonal term (a flux
term B(f) or a rim pin T_K(e)) is held as its table (`DiagonalTable`):
each configuration of its sorted edges, a tuple of register values,
whose entry is nonzero, with that entry's Python-int numerator over one
denominator.  Every other term is an `Operator`, a sum of monomials
with rational coefficients, held as Python-int numerators over one
denominator, where a monomial assigns an injective partial map of the
register to each touched edge.  Products, adjoints, and commutators are
therefore exact; the audit reports exact zeros, not small numbers.
Every exact test of an `Operator` reads one expansion over the
configurations of its support (`Operator._expansion`): its nonzero
matrix entries, each keyed by its (row, column) pair of configurations,
as Python-int numerators over one common denominator, budgeted only by
their number.  A table is its own diagonal, so it decides a diagonal
term's checks and feeds the pre-test as it stands.  For each pair of a
diagonal and a non-diagonal term, the audit first tries an exact
permutation pre-test on the table, which maps each configuration
register by register; when the pre-test does not pass, the residual
(D[r] - D[c]) M[r, c] is read from the table and the other term's
expansion, and a failing pair's Frobenius norm from that residual.

The geometry (`Lattice`, `torus`, `patch`, `ring`, `carve_hole`) lives in
`qdw.geometry` and is re-exported here.  The ground-state routes live in
`qdw.gsd`, which imports this module only where its dense route builds
the terms; `ground_space_dimension` read off this module resolves there,
through the package's table of exports (`qdw._resolver`), for callers
that name it here (the benchmark's traced runs, `bench/tracing.py`).
The operators, the terms and the audit run on Python integers, and this
module imports neither numpy nor `fractions`: no command builds a float
matrix of an operator, and a failing pair's norm is one correctly
rounded int / int division under the root.
"""

from __future__ import annotations

import itertools
from math import gcd, lcm, prod, sqrt
from operator import getitem
from typing import Mapping, Optional, Sequence

from qdw import _resolver
from qdw.geometry import (MATERIALIZE_DIM_BUDGET, MAX_LATTICE_EDGES, BoundaryRegion, Lattice,
                          _holonomy, _lattice_context, _region_assignment, carve_hole, patch,
                          ring, torus)
from qdw.groups import FiniteGroup, InvariantError, Subgroup, _breadth_first
from qdw.records import Ratio, Record

__all__ = [
    "MATERIALIZE_DIM_BUDGET",
    "MAX_LATTICE_EDGES",
    "Operator",
    "DiagonalTable",
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
]


__getattr__ = _resolver(__name__)


# ---------------------------------------------------------------------------
# injective partial maps on one register, encoded as tuples with -1 for
# "outside the domain"


def _map_left(group: FiniteGroup, g: int) -> tuple[int, ...]:
    return tuple(group.rows[g])


def _map_right_inv(group: FiniteGroup, g: int) -> tuple[int, ...]:
    gi = group.inv[g]
    return tuple(row[gi] for row in group.rows)


def _map_is_identity(m: tuple[int, ...]) -> bool:
    return all(v == i for i, v in enumerate(m))


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
    """Exact linear operator: monomials over edge registers, rational coefficients.

    `terms` maps each monomial key to a nonzero Python-int numerator over
    the one positive denominator `den`, kept in lowest terms: the gcd of
    `den` and every numerator is 1.
    """

    __slots__ = ("n", "terms", "den")

    def __init__(self, n: int, terms: Optional[dict] = None, den: int = 1):
        self.n = n
        self.terms: dict[tuple, int] = terms if terms is not None else {}
        self.den = den

    @staticmethod
    def monomial(n: int, coeff, maps: Mapping[int, tuple[int, ...]]) -> "Operator":
        """`coeff` is an exact rational in lowest terms: anything with
        `.numerator` and a positive `.denominator`, such as an int."""
        clean = []
        for e, m in maps.items():
            if max(m) < 0:
                return Operator(n)
            if not _map_is_identity(m):
                clean.append((e, m))
        if not coeff.numerator:
            return Operator(n)
        return Operator(n, {tuple(sorted(clean)): coeff.numerator}, coeff.denominator)

    def _lowest(self) -> "Operator":
        """Divide `den` and every numerator by their gcd, in place."""
        if self.den != 1:
            g = gcd(self.den, *self.terms.values())
            if g != 1:
                self.terms = {k: v // g for k, v in self.terms.items()}
                self.den //= g
        return self

    def _accumulate(self, key: tuple, num: int) -> None:
        total = self.terms.get(key, 0) + num
        if total == 0:
            self.terms.pop(key, None)
        else:
            self.terms[key] = total

    def __iadd__(self, other: "Operator") -> "Operator":
        """In place, so a sum built term by term copies no dict.  The sum
        is taken over the lcm of the two denominators."""
        den = lcm(self.den, other.den)
        if den != self.den:
            f = den // self.den
            self.terms = {k: v * f for k, v in self.terms.items()}
            self.den = den
        f = den // other.den
        for key, c in other.terms.items():
            self._accumulate(key, c * f)
        return self._lowest()

    def __add__(self, other: "Operator") -> "Operator":
        return Operator(self.n, dict(self.terms), self.den).__iadd__(other)

    def __sub__(self, other: "Operator") -> "Operator":
        return self + other.scale(-1)

    def scale(self, c) -> "Operator":
        """`c` is an exact rational, as in `monomial`."""
        num = c.numerator
        if not num:
            return Operator(self.n)
        return Operator(self.n, {k: v * num for k, v in self.terms.items()},
                        self.den * c.denominator)._lowest()

    def __mul__(self, other: "Operator") -> "Operator":
        """Operator product; self acts after other, over the product of the
        two denominators."""
        out = Operator(self.n, den=self.den * other.den)
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
        return out._lowest()

    def adjoint(self) -> "Operator":
        out = Operator(self.n, den=self.den)
        for key, c in self.terms.items():
            new_key = tuple(sorted((e, _map_adjoint(m)) for e, m in key))
            out._accumulate(new_key, c)
        return out

    def commutator(self, other: "Operator") -> "Operator":
        return (self * other) - (other * self)

    def _expansion(self) -> tuple[dict[tuple, int], int, tuple[int, ...]]:
        """Exact nonzero matrix entries over the configurations of `support`.

        Returns (numerators, den, support).  A configuration is the tuple
        of register values of the support's edges, in support order, and
        the entry in row r and column c is numerators.get((r, c), 0) / den.
        den is the operator's own `den`, the least common multiple of the
        coefficient denominators; only nonzero numerators are stored, as
        Python ints.  Matrix units are linearly independent, so this is a
        canonical form, which monomial keys are not (a sum of point maps
        can equal an identity).
        Each monomial adds its scaled numerator on the entries where every
        map of its key is defined; their number is budgeted before any is
        added.  The support is returned so that no caller walks the
        monomials for it again.
        """
        support = self.support
        pos = {e: i for i, e in enumerate(support)}
        alone = range(self.n)
        # per monomial, each register's row values and column values, in
        # step: a register the monomial leaves alone keeps every value.
        # Monomials share their maps, so each map is split once.
        split: dict[tuple, tuple] = {}
        hits = []
        for key in self.terms:
            rows, cols = [alone] * len(support), [alone] * len(support)
            for e, m in key:
                if m not in split:
                    split[m] = [y for y in m if y >= 0], [x for x, y in enumerate(m) if y >= 0]
                rows[pos[e]], cols[pos[e]] = split[m]
            hits.append((rows, cols))
        entries = sum(prod(map(len, cols)) for _, cols in hits)
        if entries > 5_000_000:
            raise ValueError(f"expansion of {entries} entries over budget")
        table: dict[tuple, int] = {}
        for (rows, cols), num in zip(hits, self.terms.values()):
            # both products walk the registers' values in the same order
            for rc in zip(itertools.product(*rows), itertools.product(*cols)):
                table[rc] = table.get(rc, 0) + num
        return {rc: v for rc, v in table.items() if v}, self.den, support

    def is_zero(self) -> bool:
        """Exact zero test: syntactic cancellation, then the expansion."""
        return not self.terms or not self._expansion()[0]

    @property
    def support(self) -> tuple[int, ...]:
        edges = set()
        for key in self.terms:
            edges.update(e for e, _ in key)
        return tuple(sorted(edges))

    def is_hermitian(self) -> bool:
        return (self - self.adjoint()).is_zero()


class DiagonalTable(Record):
    """A diagonal term as its table.

    `values` maps each configuration of the sorted `edges` (a tuple of
    their register values) whose diagonal entry is nonzero to that
    entry's Python-int numerator over the one positive denominator `den`.
    A real diagonal matrix is hermitian, and it is a projector exactly
    when every stored numerator equals `den`.
    """
    _fields = __slots__ = ("edges", "values", "den")
    _defaults = {"den": 1}


# ---------------------------------------------------------------------------
# Hamiltonian terms


class HamiltonianTerm(Record):
    """`kind` is gauge, flux, edge-pin, half-shift or literal.  `diagonal`
    says that `op` is a `DiagonalTable`, which the audit checks."""
    _fields = __slots__ = ("name", "kind", "op", "edges", "diagonal", "region")
    _defaults = {"region": None}


def _translation_average(group: FiniteGroup, elements: Sequence[int],
                         star: Sequence[tuple[int, bool]]) -> Operator:
    """Average over g in `elements` of g acting on each (edge, at_head) of
    `star`: x -> g x at a head, x -> x g^-1 at a tail."""
    out = Operator(group.order)
    for g in elements:
        maps = {e: _map_left(group, g) if at_head else _map_right_inv(group, g)
                for e, at_head in star}
        out += Operator.monomial(group.order, 1, maps)
    return out.scale(Ratio(1, len(elements)))


def gauge_vertex_term(lat: Lattice, group: FiniteGroup, vertex: int,
                      sub: Optional[Subgroup] = None) -> Operator:
    """Average over star rotations at a vertex; restricted to `sub` if given."""
    elems = sub.elements if sub is not None else tuple(range(group.order))
    star = lat.star[vertex]
    if len({e for e, _ in star}) != len(star):
        raise ValueError("vertex star contains a repeated edge")
    return _translation_average(group, elems, star)


def flux_sector_term(lat: Lattice, group: FiniteGroup, pi: int, h: int,
                     base_vertex: Optional[int] = None) -> DiagonalTable:
    """Projector onto face holonomy h, read from the base corner.

    The holonomy is `_holonomy`'s, walked round the face from the base
    corner: the letter of an edge is its register value when the face
    walks along it and the inverse when the face walks against it.  The
    table holds one configuration per choice of every letter but the
    last, which the holonomy solves for.
    """
    cyc = list(lat.plaquettes[pi])
    corners = lat.plaquette_base_vertices(pi)
    if base_vertex is None:
        base_vertex = corners[0]
    if base_vertex not in corners:
        raise ValueError("base vertex is not a corner of the face")
    shift = corners.index(base_vertex)
    cyc = cyc[shift:] + cyc[:shift]
    # a face repeats no edge; each configuration lists the values by edge
    order = sorted(range(len(cyc)), key=lambda i: cyc[i][0])
    # the last letter is h times the inverse of the holonomy of the others
    head, along_last = cyc[:-1], cyc[-1][1]
    registers = [0] * lat.n_edges
    values = {}
    for prefix in itertools.product(range(group.order), repeat=len(head)):
        for (e, _), x in zip(head, prefix):
            registers[e] = x
        letter = group.mul(h, group.inv[_holonomy(group, head, registers)])
        walked = prefix + (letter if along_last else group.inv[letter],)
        values[tuple(walked[i] for i in order)] = 1
    return DiagonalTable(tuple(cyc[i][0] for i in order), values)


def flux_term(lat: Lattice, group: FiniteGroup, pi: int) -> DiagonalTable:
    """Projector onto trivial face holonomy (base-independent)."""
    return flux_sector_term(lat, group, pi, 0)


def boundary_edge_term(lat: Lattice, group: FiniteGroup, edge: int,
                       sub: Subgroup) -> DiagonalTable:
    """Projector pinning an edge register into the boundary subgroup."""
    return DiagonalTable((edge,), {(k,): 1 for k in sub.elements})


def half_translation_term(group: FiniteGroup, edge: int, sub: Subgroup,
                          side: str) -> Operator:
    """Average of one-sided subgroup translations on a dangling edge."""
    if side not in ("left", "right"):
        raise ValueError("side must be 'left' or 'right'")
    return _translation_average(group, sub.elements, [(edge, side == "left")])


def literal_gauge_edge_term(group: FiniteGroup, edge: int, sub: Subgroup) -> Operator:
    """Naive single-term edge average: the mean of the left and the right
    translation averages.

    Kept deliberately: it is hermitian, and fails to commute with face
    terms when the edge borders a retained face, which the audit must
    flag.  It is idempotent only when K = G, where the left and the
    right averages are one projector P_L = P_R; for a proper K it is no
    projector either.
    """
    left = _translation_average(group, sub.elements, [(edge, True)])
    right = _translation_average(group, sub.elements, [(edge, False)])
    return (left + right).scale(Ratio(1, 2))


def build_terms(lat: Lattice, group: FiniteGroup,
                subgroups: Mapping[str, Subgroup]) -> list[HamiltonianTerm]:
    """All commuting projector terms for a lattice with boundary assignments."""
    vertex_region, edge_region = _region_assignment(lat, group, subgroups)
    terms: list[HamiltonianTerm] = []
    for v in range(lat.n_vertices):
        reg = vertex_region.get(v)
        name = f"A({lat.vertex_names[v]})" if reg is None else f"A_K({lat.vertex_names[v]})"
        op = gauge_vertex_term(lat, group, v, None if reg is None else subgroups[reg])
        terms.append(HamiltonianTerm(name=name, kind="gauge", op=op, edges=op.support,
                                     diagonal=False, region=reg))
    for pi in range(lat.n_plaquettes):
        op = flux_term(lat, group, pi)
        terms.append(HamiltonianTerm(
            name=f"B({lat.plaquette_names[pi]})", kind="flux", op=op,
            edges=op.edges, diagonal=True))
    for e in sorted(edge_region):
        reg, role = edge_region[e]
        sub = subgroups[reg]
        if role == "rim":
            terms.append(HamiltonianTerm(
                name=f"T_K({lat.edge_names[e]})", kind="edge-pin",
                op=boundary_edge_term(lat, group, e, sub), edges=(e,), diagonal=True,
                region=reg))
        else:
            for side, tag in (("left", "P+"), ("right", "P-")):
                # with K trivial the term is the identity, with no edges
                op = half_translation_term(group, e, sub, side)
                terms.append(HamiltonianTerm(
                    name=f"{tag}({lat.edge_names[e]})", kind="half-shift", op=op,
                    edges=op.support, diagonal=False, region=reg))
    return terms


# ---------------------------------------------------------------------------
# exact commutation audit


class TermCheck(Record):
    _fields = __slots__ = ("name", "is_projector", "is_hermitian")


class PairCheck(Record):
    """`residual_norm` is only materialized on failure."""
    _fields = __slots__ = ("left", "right", "commutes", "residual_norm")
    _defaults = {"residual_norm": None}


class AuditReport(Record):
    """Per-term and per-pair audit results.

    `skipped_pairs` (reported as `pairs_skipped_disjoint`) counts the pairs
    that commute without a check: disjoint pairs and overlapping pairs of
    two diagonal terms.
    """
    _fields = __slots__ = ("term_checks", "pair_checks", "skipped_pairs")

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


def _commutes_by_permutation(values: Mapping[tuple, int], edges: Sequence[int],
                             other: Operator) -> bool:
    """Sufficient test that a diagonal operator D commutes with `other`.

    `values` and `edges` are D's table (`DiagonalTable`): each nonzero
    configuration of D's edges with its numerator.
    The test passes when every monomial U of `other` is total on `edges`
    and D's diagonal is invariant under the configuration map U induces
    there: then D U = U D column by column, so D commutes with every
    monomial and with their sum.  False means "not shown", not "does not
    commute".

    Invariance is checked on the nonzero configurations alone, as
    D[U c] == D[c] for each stored c.  That is enough: U is injective and
    total on a finite set of configurations, so it is a permutation of
    that set.  If it maps every nonzero configuration to one with the
    same nonzero value, it maps the nonzero set into itself, hence onto
    itself, hence also the zero set onto itself, so D[U c] == D[c] for
    every c.  The converse is immediate.

    D is invariant under a composition of maps it is invariant under, so
    the nonzero configurations are walked only for a map outside the
    closure of the maps already shown: those form a group, which each
    such map at least doubles, so a gauge term over G walks them at
    most log2 |G| + 1 times, not |G|.
    """
    n = other.n
    pos = {e: i for i, e in enumerate(edges)}
    identity = (tuple(range(n)),) * len(edges)
    shown, closure = [], {identity}
    for key in other.terms:
        # the map U has on `edges`, one register map per edge
        u = list(identity)
        for e, m in key:
            i = pos.get(e)
            if i is not None:
                if min(m) < 0:
                    return False
                u[i] = m
        u = tuple(u)
        if u in closure:
            continue
        for c, v in values.items():
            # the image of c: each register's value sent through its map
            if values.get(tuple(map(getitem, u, c))) != v:
                return False
        shown.append(u)
        closure = {x for x, _, _ in _breadth_first(
            [identity], lambda x: ((tuple(map(_map_compose, x, g)), g) for g in shown))}
    return True


def _residual(d: DiagonalTable, m: Operator) -> tuple[int, int, int]:
    """The commutator [D, M] of a table and an operator, without forming it.

    Returns (squares, den, edges): the sum of the squared numerators of
    [D, M] over the configurations of D's edges and M's support, their
    common denominator, and the number of those edges.  Entry (r, c) of
    [D, M] is (D[r] - D[c]) M[r, c], read from D's table and M's
    expansion.  On the edges outside M's support r and c agree, so D's
    table is split by its values on the shared edges s: the sum over the
    rest x of (D[s_r, x] - D[s_c, x])^2 is |D_{s_r}|^2 + |D_{s_c}|^2 -
    2 D_{s_r}.D_{s_c}, once per pair (s_r, s_c).
    """
    entries, den, support = m._expansion()
    shared = [(support.index(e), i) for i, e in enumerate(d.edges) if e in support]
    rest = [i for i, e in enumerate(d.edges) if e not in support]
    parts: dict[tuple, dict[tuple, int]] = {}
    for c, v in d.values.items():
        parts.setdefault(tuple(c[i] for _, i in shared), {})[tuple(c[i] for i in rest)] = v
    norms = {s: sum(v * v for v in part.values()) for s, part in parts.items()}
    gaps: dict[tuple, int] = {}
    squares = 0
    for (r, c), v in entries.items():
        sr, sc = tuple(r[j] for j, _ in shared), tuple(c[j] for j, _ in shared)
        if sr == sc:
            continue
        if (sr, sc) not in gaps:
            a, b = parts.get(sr, {}), parts.get(sc, {})
            gaps[sr, sc] = (norms.get(sr, 0) + norms.get(sc, 0)
                            - 2 * sum(x * b.get(k, 0) for k, x in a.items()))
        squares += v * v * gaps[sr, sc]
    return squares, d.den * den, len(set(d.edges) | set(support))


def audit_commutation(terms: Sequence[HamiltonianTerm], n: int) -> AuditReport:
    """Exact projector, hermiticity, and pairwise commutation checks.

    A term is diagonal exactly when its operator is a `DiagonalTable`,
    and its `diagonal` flag must say so.  Disjoint pairs and pairs of two
    diagonal terms commute identically; both are skipped and counted in
    `skipped_pairs`.

    Each term is decided once.  A table is real, hence hermitian, and a
    projector when every stored numerator equals its denominator.  Any
    other term's hermiticity and op*op - op == 0 are tested exactly.
    For an overlapping pair with one diagonal term D, the exact
    permutation pre-test `_commutes_by_permutation` runs first on D's
    table; when it does not pass, the commutator's squared entries are
    read from D's table and the other term's expansion (`_residual`).  A
    pair of two non-diagonal terms expands its commutator C.  Every
    overlapping pair is recorded as checked.  A failing pair's residual
    Frobenius norm over the union of the two terms' edges is n^(|union|
    - |edges|) times the sum of the squared entries over the edges they
    were read on, under the root.
    """
    term_checks = []
    for t in terms:
        op = t.op
        if t.diagonal != isinstance(op, DiagonalTable):
            raise InvariantError(f"term {t.name} is flagged diagonal={t.diagonal}, "
                                 f"but its operator is a {type(op).__name__}")
        if t.diagonal:
            term_checks.append(TermCheck(
                t.name, all(v == op.den for v in op.values.values()), True))
        else:
            hermitian = op.is_hermitian()
            projector = hermitian and ((op * op) - op).is_zero()
            term_checks.append(TermCheck(t.name, projector, hermitian))
    pair_checks = []
    skipped = 0
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            ti, tj = terms[i], terms[j]
            if not set(ti.edges) & set(tj.edges) or (ti.diagonal and tj.diagonal):
                skipped += 1
                continue
            if ti.diagonal or tj.diagonal:
                d, m = (ti.op, tj.op) if ti.diagonal else (tj.op, ti.op)
                if _commutes_by_permutation(d.values, d.edges, m):
                    pair_checks.append(PairCheck(ti.name, tj.name, True))
                    continue
                squares, den, edges = _residual(d, m)
            else:
                entries, den, support = ti.op.commutator(tj.op)._expansion()
                squares, edges = sum(v * v for v in entries.values()), len(support)
            norm = None
            if squares:
                union = len(set(ti.edges) | set(tj.edges))
                # int / int is correctly rounded, as Fraction.__float__ is
                norm = sqrt(n ** (union - edges) * squares / (den * den))
            pair_checks.append(PairCheck(ti.name, tj.name, not squares, norm))
    return AuditReport(term_checks, pair_checks, skipped)


# ---------------------------------------------------------------------------
# the `lattice-audit` command


def _cmd_lattice_audit(cfg) -> tuple:
    group, lat, subs = _lattice_context(cfg)
    terms = build_terms(lat, group, subs)
    if cfg.inject_literal_edge is not None:
        e = lat.edge_index(cfg.inject_literal_edge)
        region = lat.edge_region[e][0] if e in lat.edge_region else None
        sub = subs[region] if region is not None else group.full_subgroup()
        if sub.order == 1:
            where = "the bulk" if region is None else f"region {region!r}"
            raise ValueError(f"--inject-literal-edge {lat.edge_names[e]}: {where} has "
                             "trivial K, so the literal term is the identity")
        terms = terms + [HamiltonianTerm(
            name=f"L({lat.edge_names[e]})", kind="literal",
            op=literal_gauge_edge_term(group, e, sub), edges=(e,),
            diagonal=False, region=region)]
    rep = audit_commutation(terms, group.order)
    results = {
        "group": group.label,
        "lattice": cfg.lattice,
        "regions": {r.name: [group.name_of(x) for x in subs[r.name].elements]
                    for r in lat.regions},
        "term_count": len(terms),
        "pairs_checked": len(rep.pair_checks),
        "pairs_skipped_disjoint": rep.skipped_pairs,
        "ok": rep.ok,
        "failures": rep.failures(),
    }
    verdicts = {
        "term-projector": all(t.is_projector for t in rep.term_checks),
        "term-hermitian": all(t.is_hermitian for t in rep.term_checks),
        "pairwise-commutation": all(p.commutes for p in rep.pair_checks),
    }
    return results, None, [{"name": name, "status": "pass" if ok else "fail"}
                           for name, ok in verdicts.items()]
