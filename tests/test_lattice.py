"""Geometry, exact operator algebra, audit, and ground-state counting."""

import itertools
import time
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import gcd, prod, sqrt

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qdw.groups import InvariantError, build_group
from qdw.classify import anyon_table, qudit_dimension
from qdw.groups import double_cosets
from qdw.lattice import (
    MATERIALIZE_DIM_BUDGET,
    MAX_LATTICE_EDGES,
    AuditReport,
    BoundaryRegion,
    DiagonalTable,
    HamiltonianTerm,
    Lattice,
    Operator,
    PairCheck,
    TermCheck,
    _commutes_by_permutation,
    _residual,
    audit_commutation,
    boundary_edge_term,
    build_terms,
    carve_hole,
    flux_sector_term,
    flux_term,
    gauge_vertex_term,
    half_translation_term,
    literal_gauge_edge_term,
    patch,
    ring,
    torus,
)
from qdw.flat import GaugeSlice, elimination_order
from qdw.geometry import _holonomy
from qdw.gsd import (_dense_projector, _gsd_counting, _gsd_modular, _projector_rank,
                     ground_space_dimension)
from qdw.subgroups import enumerate_subgroups

from matrices import (apply, block_matrix, coefficients, config_indices, point_operator,
                      to_matrix)

S3 = build_group("symmetric:3")
Z2 = build_group("cyclic:2")
Z3 = build_group("cyclic:3")
Q8 = build_group("quaternion8")


def loop_matrix(op, edges):
    """Entry-by-entry reference for `to_matrix` (register 0 slowest)."""
    n, k = op.n, len(edges)
    pos = {e: i for i, e in enumerate(edges)}
    index = lambda cfg: sum(x * n ** (k - 1 - i) for i, x in enumerate(cfg))
    mat = np.zeros((n ** k, n ** k))
    for key, c in coefficients(op).items():
        for cfg in itertools.product(range(n), repeat=k):
            tgt = list(cfg)
            for e, m in key:
                tgt[pos[e]] = m[cfg[pos[e]]]
            if all(x >= 0 for x in tgt):
                mat[index(tgt), index(cfg)] += float(c)
    return mat


def reference_atoms(op):
    """Expansion of `op` over per-edge matrix units, Fraction by Fraction.

    Keys are tuples of (column value, row value) pairs, one per support
    edge; only nonzero coefficients are kept.  A reference for
    `Operator._expansion`, with its budget.
    """
    support = op.support
    budget = 0
    for key in op.terms:
        maps = dict(key)
        size = 1
        for e in support:
            m = maps.get(e)
            size *= op.n if m is None else sum(1 for y in m if y >= 0)
        budget += size
    if budget > 5_000_000:
        raise ValueError(f"atom expansion of {budget} entries over budget")
    out = {}
    for key, c in coefficients(op).items():
        maps = dict(key)
        choices = []
        for e in support:
            m = maps.get(e)
            if m is None:
                choices.append([(x, x) for x in range(op.n)])
            else:
                choices.append([(x, m[x]) for x in range(op.n) if m[x] >= 0])
        for combo in itertools.product(*choices):
            total = out.get(combo, 0) + c
            if total == 0:
                out.pop(combo, None)
            else:
                out[combo] = total
    return out


def expansion_atoms(op):
    """`op._expansion()` read into the keys and Fractions of `reference_atoms`."""
    table, den, support = op._expansion()
    k = len(support)
    assert all(type(v) is int and v != 0 for v in table.values())
    assert all(len(row) == len(col) == k for row, col in table)
    return {tuple(zip(col, row)): Fraction(v, den) for (row, col), v in table.items()}


def reference_norm(comm, n, union):
    """The audit's residual norm formula, read from `reference_atoms`."""
    squares = sum(c * c for c in reference_atoms(comm).values())
    return sqrt(n ** (union - len(comm.support)) * squares)


def table_of(op):
    """The `DiagonalTable` of a diagonal operator, read off `op._expansion()`."""
    entries, den, support = op._expansion()
    assert all(r == c for r, c in entries)
    return DiagonalTable(support, {c: v for (_, c), v in entries.items()}, den)


def numerator_values(table):
    """A table's entries as exact Fractions, by configuration of its edges."""
    assert list(table.edges) == sorted(set(table.edges))
    assert all(type(v) is int and v for v in table.values.values())
    return {c: Fraction(v, table.den) for c, v in table.values.items()}


def loop_diagonal_values(op, edges):
    """Fraction-by-Fraction reference for a diagonal operator's expansion."""
    out = {}
    pos = {e: i for i, e in enumerate(edges)}
    coeffs = coefficients(op)
    for cfg in itertools.product(range(op.n), repeat=len(edges)):
        total = Fraction(0)
        for key, c in coeffs.items():
            hit = all(m[cfg[pos[e]]] >= 0 for e, m in key)
            if hit:
                total += c
        if total:
            out[cfg] = total
    return out


_LOOP_TABLES = {}


def cached_loop_diagonal_values(op):
    """loop_diagonal_values over the support, run once per operator shape.

    Operators equal up to a relabelling of their edges (one face shape on
    several lattices) share one loop run: the operator is written on axes
    0..k-1 in the order that gives the smallest key, and the loop's
    configurations are mapped back to the support's order.
    """
    support = op.support
    forms = []
    for perm in itertools.permutations(range(len(support))):
        axis = {support[p]: i for i, p in enumerate(perm)}
        forms.append((tuple(sorted((tuple(sorted((axis[e], m) for e, m in key)), c)
                                   for key, c in op.terms.items())), perm))
    form, perm = min(forms)
    if (op.n, form) not in _LOOP_TABLES:
        canonical = Operator(op.n, dict(form), op.den)
        _LOOP_TABLES[op.n, form] = loop_diagonal_values(canonical, range(len(support)))
    out = {}
    for cfg, v in _LOOP_TABLES[op.n, form].items():
        orig = [0] * len(support)
        for i, p in enumerate(perm):
            orig[p] = cfg[i]
        out[tuple(orig)] = v
    return out


def atom_path_audit(terms, n, memo):
    """Reference audit: the Fraction loop for diagonal projector checks and
    atom expansion for every overlapping pair that is not diagonal-diagonal.
    A diagonal term's table is expanded into its point-map monomials
    (`point_operator`), so no check reads the table itself.

    `memo` maps term and pair names to their results, so audits of one
    lattice with different injected terms share the work.
    """
    term_checks = []
    for t in terms:
        if t.name not in memo:
            op = point_operator(t.op, n)
            herm = op.is_hermitian()
            if not herm:
                proj = False
            elif t.diagonal and n ** len(op.support) <= MATERIALIZE_DIM_BUDGET:
                proj = all(v in (0, 1) for v in cached_loop_diagonal_values(op).values())
            else:
                proj = ((op * op) - op).is_zero()
            memo[t.name] = TermCheck(t.name, proj, herm)
        term_checks.append(memo[t.name])
    pair_checks = []
    skipped = 0
    for i, ti in enumerate(terms):
        for tj in terms[i + 1:]:
            if not set(ti.edges) & set(tj.edges) or (ti.diagonal and tj.diagonal):
                skipped += 1
                continue
            if (ti.name, tj.name) not in memo:
                comm = point_operator(ti.op, n).commutator(point_operator(tj.op, n))
                ok = comm.is_zero()
                norm = None
                union = tuple(sorted(set(ti.edges) | set(tj.edges)))
                if not ok:
                    norm = float(np.linalg.norm(to_matrix(comm, union)))
                memo[ti.name, tj.name] = PairCheck(ti.name, tj.name, ok, norm)
            pair_checks.append(memo[ti.name, tj.name])
    return AuditReport(term_checks, pair_checks, skipped)


def with_literal_edge(lat, group, subs, terms, e):
    """`terms` plus the literal edge average on edge e, as lattice-audit injects it."""
    region = next((r.name for r in lat.regions
                   if e in r.rim_edges or e in r.dangling_edges), None)
    sub = subs[region] if region is not None else group.full_subgroup()
    return list(terms) + [HamiltonianTerm(
        name=f"L({lat.edge_names[e]})", kind="literal",
        op=literal_gauge_edge_term(group, e, sub), edges=(e,), diagonal=False, region=region)]


def two_hole_lattice(rows=3, cols=5):
    lat = patch(rows, cols)
    lat = carve_hole(lat, ["p(1,1)"], "hole0")
    return carve_hole(lat, ["p(1,3)"], "hole1")


def spur_on_bulk_vertex():
    """patch(2, 2) plus a dangling edge from the centre vertex to a new rim vertex."""
    lat = patch(2, 2)
    outer = lat.regions[0]
    spur = BoundaryRegion("outer", outer.rim_vertices + (9,), outer.rim_edges,
                          dangling_edges=(lat.n_edges,))
    return Lattice(10, lat.edges + [(4, 9)], lat.plaquettes, regions=[spur],
                   vertex_names=lat.vertex_names + ["spur"],
                   edge_names=lat.edge_names + ["s"],
                   plaquette_names=lat.plaquette_names)


def audit_cases():
    """(id, group, lattice, boundary subgroups) for the fast-path tests:
    each region gets a proper nontrivial subgroup where one exists."""
    cases = []
    for group in (Z2, Z3, S3, Q8):
        subs = enumerate_subgroups(group)
        k = subs[1] if len(subs) > 2 else group.full_subgroup()
        for name, lat, assign in (
                ("torus2x2", torus(2, 2), {}),
                ("ring3", ring(3), {"inner": k, "outer": group.trivial_subgroup()}),
                ("patch2x2", patch(2, 2), {"outer": k}),
                ("dangling", dangling_lattice(), {"bdry": k})):
            cases.append((f"{group.label}-{name}", group, lat, assign))
    return cases


def pinned_edges(lat):
    """The edges the counting route's slice pins to one value, each region given Z2 itself."""
    subs = {reg.name: Z2.full_subgroup() for reg in lat.regions}
    return [e for e, a in enumerate(GaugeSlice(lat, Z2, subs).values) if len(a) == 1]


def slice_branch_product(lat, group, assign, gauge_fix=True):
    """Configurations the counting route's enumeration branches over."""
    return elimination_order(lat, GaugeSlice(lat, group, assign).walk_values(gauge_fix))[1]


def two_squares_joined_by_dangling_edge():
    """Two squares in one region, joined only by a dangling edge from vertex 0 to 4."""
    square = lambda first: tuple((e, True) for e in range(first, first + 4))
    return Lattice(
        8,
        edges=[(0, 1), (1, 2), (2, 3), (3, 0), (4, 5), (5, 6), (6, 7), (7, 4), (0, 4)],
        plaquettes=[square(0), square(4)],
        regions=[BoundaryRegion("bdry", rim_vertices=tuple(range(8)),
                                rim_edges=tuple(range(8)), dangling_edges=(8,))],
    )


def relabelled(spec, perm):
    """The preset's table with element a renamed perm[a]."""
    g = build_group(spec)
    n = g.order
    table = [0] * (n * n)
    names = [""] * n
    for a in range(n):
        names[perm[a]] = g.names[a]
        for b in range(n):
            table[perm[a] * n + perm[b]] = perm[g.mul(a, b)]
    return build_group({"order": n, "table": table, "names": names})


def dangling_lattice():
    """Square face with a spur edge kept despite having no faces."""
    return Lattice(
        5,
        edges=[(0, 1), (1, 2), (2, 3), (3, 0), (0, 4)],
        plaquettes=[((0, True), (1, True), (2, True), (3, True))],
        regions=[BoundaryRegion("bdry", rim_vertices=(0, 1, 2, 3, 4),
                                rim_edges=(0, 1, 2, 3), dangling_edges=(4,))],
        vertex_names=["a", "b", "c", "d", "m"],
        edge_names=["ab", "bc", "cd", "da", "am"],
        plaquette_names=["sq"],
    )


# geometry ------------------------------------------------------------------

class TestGeometry:
    def test_torus_cell_counts(self):
        lat = torus(3, 4)
        assert (lat.n_vertices, lat.n_edges, lat.n_plaquettes) == (12, 24, 12)
        assert lat.euler_characteristic == 0
        assert lat.regions == []
        # every edge borders exactly two faces
        assert all(len(f) == 2 for f in lat.edge_faces)

    def test_torus_minimum_size(self):
        with pytest.raises(ValueError):
            torus(1, 5)

    def test_square_grid_cells_and_names(self):
        lat = torus(2, 3)
        assert lat.edges == [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3),
                             (0, 3), (1, 4), (2, 5), (3, 0), (4, 1), (5, 2)]
        assert lat.plaquettes[2] == ((2, True), (6, True), (5, False), (8, False))
        assert lat.plaquettes[5] == ((5, True), (9, True), (2, False), (11, False))
        assert lat.edge_names[5:8] == ["h(1,2)", "v(0,0)", "v(0,1)"]
        assert lat.vertex_names[4] == "(1,1)" and lat.plaquette_names[4] == "p(1,1)"
        lat = patch(2, 1)
        assert lat.edges == [(0, 1), (2, 3), (4, 5), (0, 2), (1, 3), (2, 4), (3, 5)]
        assert lat.plaquettes == [((0, True), (4, True), (1, False), (3, False)),
                                  ((1, True), (6, True), (2, False), (5, False))]
        assert lat.edge_names == ["h(0,0)", "h(1,0)", "h(2,0)",
                                  "v(0,0)", "v(0,1)", "v(1,0)", "v(1,1)"]
        assert lat.regions == [BoundaryRegion("outer", (0, 1, 2, 3, 4, 5),
                                              (0, 2, 3, 4, 5, 6))]

    def test_edge_cap_is_checked_before_building(self):
        with pytest.raises(ValueError, match=f"20200 edges, over the cap of {MAX_LATTICE_EDGES}"):
            torus(101, 100)
        with pytest.raises(ValueError, match="over the cap"):
            patch(100, 100)
        with pytest.raises(ValueError, match="10200 edges"):
            ring(3400)

    def test_patch_cell_counts(self):
        lat = patch(2, 3)
        assert (lat.n_vertices, lat.n_edges, lat.n_plaquettes) == (12, 17, 6)
        assert lat.euler_characteristic == 1
        outer = lat.region_by_name("outer")
        assert len(outer.rim_vertices) == 10
        assert len(outer.rim_edges) == 10
        assert outer.dangling_edges == ()

    def test_ring_cell_counts(self):
        lat = ring(4)
        assert (lat.n_vertices, lat.n_edges, lat.n_plaquettes) == (8, 12, 4)
        assert lat.euler_characteristic == 0
        assert {r.name for r in lat.regions} == {"inner", "outer"}
        inner = lat.region_by_name("inner")
        assert len(inner.rim_vertices) == 4 and len(inner.rim_edges) == 4

    def test_face_walks_are_closed(self):
        for lat in (torus(2, 3), patch(3, 2), ring(5)):
            for pi, cyc in enumerate(lat.plaquettes):
                corners = lat.plaquette_base_vertices(pi)
                for i, (e, along) in enumerate(cyc):
                    end = lat.edges[e][1] if along else lat.edges[e][0]
                    assert end == corners[(i + 1) % len(cyc)]

    def test_open_face_walk_rejected(self):
        with pytest.raises(ValueError, match="not closed"):
            Lattice(3, [(0, 1), (1, 2)], [((0, True), (1, False))])

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            Lattice(2, [(0, 0)], [])

    def test_region_overlap_rejected(self):
        regions = [BoundaryRegion("a", (0,), ()), BoundaryRegion("b", (0,), ())]
        with pytest.raises(ValueError, match="shares cells"):
            Lattice(2, [(0, 1)], [], regions=regions)

    @pytest.mark.parametrize("rim_v,rim_e,dangling,cell", [
        ((0, 1, 2, 3, 7), (0, 1, 2, 3), (), "rim vertex 7"),
        ((-1, 0, 1, 2, 3), (0, 1, 2, 3), (), "rim vertex -1"),
        ((0, 1, 2, 3), (0, 1, 2, 3, 9), (), "rim edge 9"),
        ((0, 1, 2, 3), (0, 1, 2, 3), (-1,), "dangling edge -1"),
    ])
    def test_region_cell_out_of_range_rejected(self, rim_v, rim_e, dangling, cell):
        # unchecked, these build and then raise IndexError or go unnoticed
        reg = BoundaryRegion("rimK", rim_v, rim_e, dangling_edges=dangling)
        sq = [((0, True), (1, True), (2, True), (3, True))]
        with pytest.raises(ValueError, match=f"region 'rimK' lists {cell}, outside"):
            Lattice(4, [(0, 1), (1, 2), (2, 3), (3, 0)], sq, regions=[reg])

    def test_dangling_edge_with_face_rejected(self):
        reg = BoundaryRegion("r", (0, 1, 2, 3), (), dangling_edges=(0,))
        sq = [((0, True), (1, True), (2, True), (3, True))]
        with pytest.raises(ValueError, match="dangling"):
            Lattice(4, [(0, 1), (1, 2), (2, 3), (3, 0)], sq, regions=[reg])

    def test_dangling_edge_on_bulk_vertex_rejected(self):
        # with K = {e, (23)} its terms would not commute ([A((1,1)), P-(s)])
        # and the Burnside total would not divide by the gauge volume
        with pytest.raises(ValueError, match=r"dangling edge s .* \(1,1\)"):
            spur_on_bulk_vertex()

    def test_rim_anchored_dangling_edges_and_carved_patches_validate(self):
        assert dangling_lattice().regions[0].dangling_edges == (4,)
        for lat in (carve_hole(patch(3, 4), ["p(1,1)"], "h"),
                    carve_hole(patch(3, 4), ["p(1,1)", "p(1,2)"], "h"),
                    two_hole_lattice()):
            Lattice(lat.n_vertices, lat.edges, lat.plaquettes, lat.regions)

    def test_two_hole_lattice_census(self):
        lat = two_hole_lattice()
        assert (lat.n_vertices, lat.n_edges, lat.n_plaquettes) == (24, 38, 13)
        assert lat.euler_characteristic == -1
        for name in ("hole0", "hole1"):
            reg = lat.region_by_name(name)
            assert len(reg.rim_vertices) == 4
            assert len(reg.rim_edges) == 4
            assert reg.dangling_edges == ()

    def test_carved_two_face_hole(self):
        lat = carve_hole(patch(4, 4), ["p(1,1)", "p(1,2)"], "hole0")
        assert lat.euler_characteristic == 0
        reg = lat.region_by_name("hole0")
        # the shared interior edge is gone; the rim is a hexagon
        assert len(reg.rim_vertices) == 6
        assert len(reg.rim_edges) == 6
        assert (lat.n_vertices, lat.n_edges, lat.n_plaquettes) == (25, 39, 14)

    def test_carve_rejects_torus(self):
        with pytest.raises(ValueError, match="patch"):
            carve_hole(torus(3, 3), [0], "x")

    def test_carve_rejects_boundary_contact(self):
        with pytest.raises(ValueError):
            carve_hole(patch(3, 5), ["p(0,0)"], "x")
        base = carve_hole(patch(4, 5), ["p(1,1)"], "a")
        with pytest.raises(ValueError, match="touches"):
            carve_hole(base, ["p(1,2)"], "b")       # shares an edge with hole a
        with pytest.raises(ValueError, match="touches"):
            carve_hole(base, ["p(2,2)"], "b")       # shares only a corner vertex

    def test_carve_rejects_non_disk(self):
        with pytest.raises(ValueError, match="disk"):
            carve_hole(patch(4, 6), ["p(1,1)", "p(1,3)"], "x")

    def test_carve_rejects_duplicate_region_name(self):
        with pytest.raises(ValueError, match="already in use"):
            carve_hole(patch(3, 5), ["p(1,1)"], "outer")

    def test_carve_rejects_empty_hole(self):
        with pytest.raises(ValueError):
            carve_hole(patch(3, 5), [], "x")

    def test_cells_resolve_by_name_or_in_range_index(self):
        lat = ring(3)
        assert lat.edge_index("rung0") == lat.edge_index(6) == 6
        assert lat.vertex_index("o2") == lat.vertex_index(5) == 5
        assert lat.plaquette_index("f1") == lat.plaquette_index(1) == 1
        with pytest.raises(ValueError, match="unknown edge 'x'"):
            lat.edge_index("x")
        for resolve, kind, count in ((lat.edge_index, "edge", 9),
                                     (lat.vertex_index, "vertex", 6),
                                     (lat.plaquette_index, "face", 3)):
            for bad in (-1, -count, count):
                with pytest.raises(ValueError, match=f"{kind} index {bad} out of range"):
                    resolve(bad)
        with pytest.raises(ValueError, match="face index -1 out of range"):
            carve_hole(patch(3, 5), [-1], "x")
        assert carve_hole(patch(3, 5), [6], "x").region_by_name("x").rim_vertices == \
            carve_hole(patch(3, 5), ["p(1,1)"], "x").region_by_name("x").rim_vertices


# operator algebra ----------------------------------------------------------

class TestOperatorAlgebra:
    def test_shift_operators_compose_like_the_group(self):
        n = S3.order
        for g in range(n):
            for h in range(n):
                a = Operator.monomial(n, Fraction(1), {0: tuple(
                    int(S3.table[g, x]) for x in range(n))})
                b = Operator.monomial(n, Fraction(1), {0: tuple(
                    int(S3.table[h, x]) for x in range(n))})
                gh = S3.mul(g, h)
                c = Operator.monomial(n, Fraction(1), {0: tuple(
                    int(S3.table[gh, x]) for x in range(n))})
                assert (a * b).equals(c)

    def test_adjoint_inverts_shifts(self):
        n = S3.order
        for g in range(n):
            a = Operator.monomial(n, Fraction(1), {0: tuple(
                int(S3.table[g, x]) for x in range(n))})
            ai = Operator.monomial(n, Fraction(1), {0: tuple(
                int(S3.table[S3.inv[g], x]) for x in range(n))})
            assert a.adjoint().equals(ai)
            assert (a.adjoint() * a).equals(Operator.identity(n))

    def test_sum_of_point_maps_is_identity(self):
        # the zero test must see through non-unique monomial presentations
        n = Z3.order
        acc = Operator(n)
        for x in range(n):
            m = tuple(x if y == x else -1 for y in range(n))
            acc = acc + Operator.monomial(n, Fraction(1), {0: m})
        assert acc.equals(Operator.identity(n))
        assert not acc.terms == {}  # syntactically distinct, semantically equal

    def test_vertex_average_is_a_projector(self):
        lat = torus(2, 2)
        op = gauge_vertex_term(lat, S3, 0)
        assert op.is_hermitian()
        assert op.is_projector()
        assert len(op.support) == 4

    def test_restricted_vertex_average_is_a_projector(self):
        lat = ring(3)
        for sub in enumerate_subgroups(S3):
            op = gauge_vertex_term(lat, S3, 0, sub)
            assert op.is_projector()

    def test_face_projector_properties(self):
        lat = torus(2, 2)
        op = flux_term(lat, S3, 0)
        assert op.edges == tuple(sorted(e for e, _ in lat.plaquettes[0]))
        assert len(op.values) == S3.order ** 3
        assert op.den == 1 and set(op.values.values()) == {1}
        assert point_operator(op, S3.order).is_projector()

    def test_edge_pin_projector(self):
        op = boundary_edge_term(ring(3), S3, 0, S3.subgroup([0, 1]))
        assert op.edges == (0,)
        assert numerator_values(op) == {(0,): Fraction(1), (1,): Fraction(1)}
        assert point_operator(op, S3.order).is_projector()

    def test_trivial_flux_is_base_independent(self):
        lat = torus(2, 2)
        corners = lat.plaquette_base_vertices(0)
        ops = [flux_sector_term(lat, S3, 0, 0, base_vertex=v) for v in corners]
        for other in ops[1:]:
            assert ops[0] == other

    def test_nontrivial_flux_depends_on_base(self):
        lat = torus(2, 2)
        corners = lat.plaquette_base_vertices(0)
        h = S3.index_of("(12)")
        a = flux_sector_term(lat, S3, 0, h, base_vertex=corners[0])
        b = flux_sector_term(lat, S3, 0, h, base_vertex=corners[2])
        assert a.edges == b.edges and a.values != b.values

    def test_class_summed_flux_is_base_independent(self):
        lat = torus(2, 2)
        corners = lat.plaquette_base_vertices(0)
        cls = S3.conjugacy_classes()[1].members  # the transpositions
        sums = []
        for v in corners:
            # sectors of distinct h hold disjoint configurations, so their
            # sum is the union of their tables
            tables = [flux_sector_term(lat, S3, 0, h, base_vertex=v).values for h in cls]
            assert sum(map(len, tables)) == len(set().union(*tables))
            sums.append(set().union(*tables))
        for other in sums[1:]:
            assert sums[0] == other

    def test_flux_sectors_partition_unity(self):
        # the sectors' tables cover every configuration of the face's edges once
        lat = torus(2, 2)
        tables = [flux_sector_term(lat, S3, 0, h) for h in range(S3.order)]
        assert {t.edges for t in tables} == {tables[0].edges}
        assert all(t.den == 1 and set(t.values.values()) == {1} for t in tables)
        configs = Counter(c for t in tables for c in t.values)
        assert set(configs.values()) == {1}
        assert set(configs) == set(itertools.product(range(S3.order),
                                                     repeat=len(tables[0].edges)))

    # every lattice and group the benchmark builds terms on, and the trivial group
    @pytest.mark.parametrize("spec", ["cyclic:1", "cyclic:2", "cyclic:3", "symmetric:3",
                                      "dihedral:4", "quaternion8"])
    def test_flux_terms_match_the_monomial_sum(self, spec):
        """Each flux term's table, expanded into point-map monomials, is the
        sum of one point-map monomial per prefix of the face's letters: keys,
        coefficients and order."""
        group = build_group(spec)
        n = group.order
        for lat in (torus(2, 2), torus(3, 2), torus(3, 3), patch(2, 2), ring(3)):
            for pi in range(lat.n_plaquettes):
                corners = lat.plaquette_base_vertices(pi)
                for h, base in ((0, corners[0]), (n - 1, corners[-1])):
                    shift = corners.index(base)
                    cyc = list(lat.plaquettes[pi])
                    cyc = cyc[shift:] + cyc[:shift]
                    want = Operator(n)
                    for prefix in itertools.product(range(n), repeat=len(cyc) - 1):
                        # the letters, walked from the base corner, multiply to h
                        partial = group.product([x if along else group.inv[x]
                                                 for (_, along), x in zip(cyc, prefix)][::-1])
                        last = group.mul(h, group.inv[partial])
                        values = prefix + (last if cyc[-1][1] else group.inv[last],)
                        want += Operator.monomial(n, Fraction(1), {
                            e: tuple(x if y == x else -1 for y in range(n))
                            for (e, _), x in zip(cyc, values)})
                    got = flux_sector_term(lat, group, pi, h, base_vertex=base)
                    assert got.edges == tuple(sorted(e for e, _ in cyc))
                    assert list(point_operator(got, n).terms.items()) == \
                        list(want.terms.items()), (lat.kind, pi, h)
                    assert got.den == want.den == 1

    @pytest.mark.parametrize("group", [S3, Q8], ids=["symmetric:3", "quaternion8"])
    def test_flux_sector_term_selects_its_holonomy(self, group):
        """B^h keeps exactly the configurations whose face holonomy, walked
        from the base corner as `_holonomy` walks it, is h."""
        lat = torus(2, 2)
        for pi in (0, 3):
            corners = lat.plaquette_base_vertices(pi)
            for base in (corners[0], corners[1]):
                shift = corners.index(base)
                cyc = lat.plaquettes[pi][shift:] + lat.plaquettes[pi][:shift]
                for h in range(group.order):
                    op = flux_sector_term(lat, group, pi, h, base_vertex=base)
                    assert len(op.values) == group.order ** (len(cyc) - 1)
                    for config in op.values:
                        registers = [0] * lat.n_edges
                        for e, x in zip(op.edges, config):
                            registers[e] = x
                        assert _holonomy(group, cyc, registers) == h

    def test_flux_base_must_be_a_corner(self):
        lat = torus(2, 3)
        with pytest.raises(ValueError, match="corner"):
            flux_sector_term(lat, S3, 0, 0, base_vertex=lat.n_vertices - 1)

    def test_vertex_and_face_terms_commute_exactly(self):
        lat = torus(2, 2)
        a = gauge_vertex_term(lat, S3, 0)
        b = flux_term(lat, S3, 0)
        assert set(a.support) & set(b.edges)
        assert a.commutator(point_operator(b, S3.order)).is_zero()
        assert _residual(b, a)[0] == 0

    def test_half_shift_commutation_depends_on_vertex_restriction(self):
        # head-side average vs left half-shift on the same edge: the full
        # group average fails for a nonabelian group, the subgroup average
        # of the same subgroup succeeds.
        lat = dangling_lattice()
        k = S3.subgroup([0, 1])
        e_spur = lat.edge_index("am")
        p_right = half_translation_term(S3, e_spur, k, "right")  # tail side
        full_a = gauge_vertex_term(lat, S3, 0)                   # vertex a = tail
        sub_a = gauge_vertex_term(lat, S3, 0, k)
        assert not full_a.commutator(p_right).is_zero()
        assert sub_a.commutator(p_right).is_zero()
        # opposite sides always commute
        p_left = half_translation_term(S3, e_spur, k, "left")    # head side
        assert full_a.commutator(p_left).is_zero()
        assert p_left.commutator(p_right).is_zero()

    def test_literal_edge_average_is_not_idempotent(self):
        # for a proper K it is no projector; with K = G the left and right
        # averages are one projector P_L = P_R, and so is their mean
        for k, projector in ((S3.subgroup([0, 1]), False), (S3.full_subgroup(), True)):
            lit = literal_gauge_edge_term(S3, 0, k)
            assert lit.is_hermitian()
            assert lit.is_projector() is projector

    def test_matrix_of_shift_is_a_permutation(self):
        n = Z3.order
        g = 1
        op = Operator.monomial(n, Fraction(1), {0: tuple(
            int(Z3.table[g, x]) for x in range(n))})
        mat = to_matrix(op, (0,))
        expect = np.zeros((3, 3))
        for x in range(3):
            expect[(x + 1) % 3, x] = 1.0
        assert np.array_equal(mat, expect)

    def test_matrix_respects_identity_padding(self):
        n = Z2.order
        op = point_operator(boundary_edge_term(ring(3), Z2, 1, Z2.trivial_subgroup()), Z2.order)
        mat = to_matrix(op, (0, 1))
        # acts on the second register only; first register untouched
        expect = np.kron(np.eye(2), np.diag([1.0, 0.0]))
        assert np.array_equal(mat, expect)

    @pytest.mark.parametrize("group,lat,subs", [
        (Z2, torus(2, 2), {}),
        (S3, ring(3), {"inner": S3.trivial_subgroup(), "outer": S3.full_subgroup()}),
    ], ids=["C2-torus2x2", "S3-ring3"])
    def test_term_matrices_match_the_entry_loop(self, group, lat, subs):
        for t in build_terms(lat, group, subs):
            op = point_operator(t.op, group.order)
            assert np.array_equal(to_matrix(op, t.edges), loop_matrix(op, t.edges))

    def test_matrix_budget_guard(self):
        op = Operator.identity(S3.order)
        with pytest.raises(ValueError, match="budget"):
            to_matrix(op, tuple(range(8)))


# term assembly and audit ---------------------------------------------------

class TestTermsAndAudit:
    def test_torus_term_census(self):
        terms = build_terms(torus(2, 2), S3, {})
        names = [t.name for t in terms]
        assert sum(t.kind == "gauge" for t in terms) == 4
        assert sum(t.kind == "flux" for t in terms) == 4
        assert "A((0,0))" in names and "B(p(1,1))" in names

    def test_ring_term_census(self):
        k2, k3 = S3.subgroup([0, 1]), S3.subgroup([0, 3, 4])
        terms = build_terms(ring(3), S3, {"inner": k2, "outer": k3})
        by_kind = {}
        for t in terms:
            by_kind.setdefault(t.kind, []).append(t)
        assert len(by_kind["gauge"]) == 6
        assert len(by_kind["flux"]) == 3
        assert len(by_kind["edge-pin"]) == 6
        assert all(t.name.startswith("A_K") for t in by_kind["gauge"])
        assert {t.region for t in by_kind["edge-pin"]} == {"inner", "outer"}

    def test_dangling_term_census(self):
        lat = dangling_lattice()
        k = S3.subgroup([0, 1])
        terms = build_terms(lat, S3, {"bdry": k})
        kinds = sorted(t.name for t in terms if t.kind == "half-shift")
        assert kinds == ["P+(am)", "P-(am)"]
        assert sum(t.kind == "edge-pin" for t in terms) == 4

    def test_terms_require_every_region(self):
        with pytest.raises(ValueError, match="boundary subgroups"):
            build_terms(ring(3), S3, {"inner": S3.full_subgroup()})
        with pytest.raises(ValueError, match="boundary subgroups"):
            build_terms(torus(2, 2), S3, {"ghost": S3.full_subgroup()})

    def test_terms_reject_foreign_subgroup(self):
        with pytest.raises(ValueError, match="wrong group"):
            build_terms(ring(3), S3, {"inner": Z2.full_subgroup(),
                                      "outer": S3.full_subgroup()})

    def test_torus_audit_is_exact(self):
        terms = build_terms(torus(2, 2), S3, {})
        rep = audit_commutation(terms, S3.order)
        assert rep.ok
        assert all(t.is_projector and t.is_hermitian for t in rep.term_checks)
        assert all(p.residual_norm is None for p in rep.pair_checks)
        assert rep.skipped_pairs > 0  # diagonal pairs are skipped

    def test_mixed_boundary_audit_is_exact(self):
        k2, k3 = S3.subgroup([0, 1]), S3.subgroup([0, 3, 4])
        rep = audit_commutation(
            build_terms(ring(3), S3, {"inner": k2, "outer": k3}), S3.order)
        assert rep.ok
        assert rep.failures() == []

    def test_dangling_audit_is_exact(self):
        lat = dangling_lattice()
        for sub in (S3.subgroup([0, 1]), S3.subgroup([0, 3, 4]),
                    S3.full_subgroup()):
            rep = audit_commutation(build_terms(lat, S3, {"bdry": sub}), S3.order)
            assert rep.ok

    def test_identity_terms_have_no_edges(self):
        # with K trivial the rim's gauge terms and the spur's half-shifts are
        # identities: operators with no edges, so they meet no term
        terms = build_terms(dangling_lattice(), S3, {"bdry": S3.trivial_subgroup()})
        identities = [t for t in terms if t.kind in ("gauge", "half-shift")]
        assert [t.name for t in identities if t.kind == "half-shift"] == ["P+(am)", "P-(am)"]
        assert all(t.edges == () and not t.diagonal for t in identities)
        rep = audit_commutation(terms, S3.order)
        assert rep.ok and (len(rep.pair_checks), rep.skipped_pairs) == (0, 66)

    def test_misflagged_diagonal_term_is_an_invariant_error(self):
        lat = torus(2, 2)
        op = gauge_vertex_term(lat, S3, 0)
        fake = HamiltonianTerm(name="A*", kind="gauge", op=op, edges=op.support,
                               diagonal=True)
        with pytest.raises(InvariantError, match="flagged diagonal"):
            audit_commutation(build_terms(lat, S3, {}) + [fake], S3.order)

    def test_misflagged_table_term_is_an_invariant_error(self):
        # a term is diagonal exactly when its operator is a table; an
        # identity gauge term (trivial K) is an operator, flagged non-diagonal
        lat = ring(3)
        trivial = Z3.trivial_subgroup()
        terms = build_terms(lat, Z3, {"inner": trivial, "outer": trivial})
        rim_terms = [t for t in terms if t.name.startswith("A_K")]
        assert rim_terms and not any(t.diagonal for t in rim_terms)
        assert all(t.diagonal == isinstance(t.op, DiagonalTable) for t in terms)
        assert audit_commutation(terms, Z3.order).ok
        pin = boundary_edge_term(lat, Z3, 0, trivial)
        fake = HamiltonianTerm(name="T*", kind="edge-pin", op=pin, edges=pin.edges,
                               diagonal=False)
        with pytest.raises(InvariantError,
                           match=r"term T\* is flagged diagonal=False, but its operator "
                                 "is a DiagonalTable"):
            audit_commutation(terms + [fake], Z3.order)

    def test_literal_term_fails_the_audit(self):
        k2, k3 = S3.subgroup([0, 1]), S3.subgroup([0, 3, 4])
        terms = build_terms(ring(3), S3, {"inner": k2, "outer": k3})
        lit = HamiltonianTerm(name="L_K(in0)", kind="literal",
                              op=literal_gauge_edge_term(S3, 0, k2),
                              edges=(0,), diagonal=False, region="inner")
        rep = audit_commutation(list(terms) + [lit], S3.order)
        assert not rep.ok
        bad_terms = [t.name for t in rep.term_checks if not t.is_projector]
        assert bad_terms == ["L_K(in0)"]
        bad_pairs = [(p.left, p.right) for p in rep.pair_checks if not p.commutes]
        assert ("B(f0)", "L_K(in0)") in bad_pairs
        norms = [p.residual_norm for p in rep.pair_checks if not p.commutes]
        assert all(x is not None and x > 0.1 for x in norms)

    def test_residual_norm_spans_the_union_of_the_term_edges(self):
        # the shift's term lists edge 1, which its operator leaves alone, so
        # the commutator is the identity there: |[P, X]|_F = sqrt(2 * 3)
        pin = boundary_edge_term(ring(3), Z3, 0, Z3.trivial_subgroup())
        shift = Operator.monomial(3, Fraction(1), {0: (1, 2, 0)})
        terms = [HamiltonianTerm("P", "edge-pin", pin, (0,), True),
                 HamiltonianTerm("X", "literal", shift, (0, 1), False)]
        [pair] = audit_commutation(terms, 3).pair_checks
        assert not pair.commutes
        assert pair.residual_norm == pytest.approx(6 ** 0.5, rel=1e-12)
        assert pair.residual_norm == pytest.approx(np.linalg.norm(
            to_matrix(point_operator(pin, 3).commutator(shift), (0, 1))), rel=1e-12)


# integer diagonal tables and the permutation pre-test ----------------------

def diagonal_operator(n, monomials):
    """Sum of point or indicator monomials, each (coeff, {edge: allowed values})."""
    out = Operator(n)
    for coeff, allowed in monomials:
        maps = {e: tuple(x if x in vals else -1 for x in range(n))
                for e, vals in allowed.items()}
        out = out + Operator.monomial(n, coeff, maps)
    return out


def plain_permutation_walk(values, edges, other):
    """`_commutes_by_permutation` without the closure: one walk per monomial."""
    pos = {e: i for i, e in enumerate(edges)}
    for key in other.terms:
        maps = {pos[e]: m for e, m in key if e in pos}
        if any(min(m) < 0 for m in maps.values()):
            return False
        for c, v in values.items():
            image = tuple(maps.get(i, range(other.n))[x] for i, x in enumerate(c))
            if values.get(image) != v:
                return False
    return True


@st.composite
def diagonal_and_shifts(draw):
    n = draw(st.sampled_from([2, 3]))
    k = draw(st.integers(1, 3))
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2),
                              Fraction(1, 3), Fraction(2, 3), Fraction(5, 6)])
    values = st.sets(st.integers(0, n - 1), min_size=1, max_size=n)
    monomials = draw(st.lists(st.tuples(coeffs, st.dictionaries(
        st.integers(0, k - 1), values, min_size=1)), min_size=1, max_size=4))
    diag = diagonal_operator(n, monomials)
    # a sum of permutation monomials, each total on its edges, touching
    # the diagonal's edges and one edge beyond them
    perm = st.permutations(range(n)).map(tuple)
    shifts = draw(st.lists(st.tuples(coeffs, st.dictionaries(
        st.integers(0, k), perm, min_size=1)), min_size=1, max_size=3))
    other = Operator(n)
    for coeff, maps in shifts:
        other = other + Operator.monomial(n, coeff, maps)
    if draw(st.booleans()):
        # average the diagonal over every power of the first shift's
        # monomial, which makes it invariant under that one
        u = Operator.monomial(n, Fraction(1), shifts[0][1])
        power, avg = Operator.identity(n), Operator(n)
        for _ in range(6):   # permutations of at most 3 points have order | 6
            avg = avg + power * diag * power.adjoint()
            power = u * power
        diag = avg.scale(Fraction(1, 6))
        other = u
    return diag, other


class TestDiagonalFastPath:
    @pytest.mark.parametrize("case", audit_cases(), ids=lambda c: c[0])
    def test_diagonal_values_match_the_loop(self, case):
        """Each table is the Fraction loop over its point-map monomials."""
        _, group, lat, subs = case
        for t in build_terms(lat, group, subs):
            if t.diagonal:
                assert numerator_values(t.op) == \
                    cached_loop_diagonal_values(point_operator(t.op, group.order)), t.name

    def test_numerators_guard_against_int64_overflow(self):
        # the numerators sum past 2**62, which an int64 table would wrap
        big = Fraction(2 ** 61, 3)
        op = Operator.monomial(2, big, {0: (0, -1)}) + \
            Operator.monomial(2, big * 2, {0: (-1, 1)})
        assert numerator_values(table_of(op)) == {(0,): big, (1,): big * 2}
        assert op.is_projector() is False

    # The reference expands every overlapping pair into atoms, which takes
    # about a second per injected term for S3 and Q8.  So every injection
    # is swept for C2 and C3 on every lattice and for S3 on the dangling
    # lattice, whose rim pins, spur and face meet the literal term in every
    # pair kind; the other cases are audited without injections, and Q8 on
    # torus:2x2 and patch:2x2 not at all (Q8 on ring:3 also has a golden
    # digest, taken with every pair expanded).
    @pytest.mark.parametrize("case", [c for c in audit_cases() if c[0] not in (
        "quaternion8-torus2x2", "quaternion8-patch2x2")], ids=lambda c: c[0])
    def test_audit_matches_the_atom_path(self, case):
        name, group, lat, subs = case
        terms = build_terms(lat, group, subs)
        memo = {}
        assert audit_commutation(terms, group.order) == \
            atom_path_audit(terms, group.order, memo)
        if group.order > 3 and name != "symmetric:3-dangling":
            return
        for e in range(lat.n_edges):
            injected = with_literal_edge(lat, group, subs, terms, e)
            assert audit_commutation(injected, group.order) == \
                atom_path_audit(injected, group.order, memo), lat.edge_names[e]

    def test_audit_decides_each_term_once(self, monkeypatch):
        calls = Counter()
        for name in ("is_hermitian", "_expansion"):
            def counted(op, *args, _name=name, _method=getattr(Operator, name)):
                calls[_name, id(op)] += 1
                return _method(op, *args)
            monkeypatch.setattr(Operator, name, counted)

        def support(op, _get=Operator.support.fget):
            calls["support", id(op)] += 1
            return _get(op)

        monkeypatch.setattr(Operator, "support", property(support))
        terms = build_terms(ring(3), S3, {"inner": S3.subgroup([0, 1]),
                                          "outer": S3.trivial_subgroup()})
        calls.clear()
        audit_commutation(terms, S3.order)
        assert set(calls.values()) == {1}
        # each operator term's hermiticity is tested once; no term is
        # expanded or walked for its support, as the tables are read as held
        operators = {id(t.op) for t in terms if not t.diagonal}
        assert {key for name, key in calls if name == "is_hermitian"} == operators
        for walked in ("_expansion", "support"):
            ops = {key for name, key in calls if name == walked}
            assert not ops & {id(t.op) for t in terms}

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(diagonal_and_shifts())
    def test_pre_test_is_sound(self, ops):
        diag, other = ops
        table = table_of(diag)
        if _commutes_by_permutation(table.values, table.edges, other):
            assert diag.commutator(other).is_zero()
        # the audit's projector rule for a table
        assert all(v == table.den for v in table.values.values()) == \
            ((diag * diag) - diag).is_zero()

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_pre_test_closure_agrees_with_the_plain_walk(self, data):
        """Skipping the maps inside the closure of those already shown gives the
        verdict of walking the diagonal once per monomial, on every overlapping
        pair of a random small lattice, boundary subgroups and sabotaged edge."""
        group = data.draw(st.sampled_from([Z2, Z3, S3]))
        lat = data.draw(st.sampled_from([torus(2, 2), patch(2, 2), patch(1, 2), ring(3),
                                         dangling_lattice()]))
        subgroups = enumerate_subgroups(group)
        subs = {r.name: data.draw(st.sampled_from(subgroups)) for r in lat.regions}
        terms = build_terms(lat, group, subs)
        if data.draw(st.booleans()):
            terms = with_literal_edge(lat, group, subs, terms,
                                      data.draw(st.integers(0, lat.n_edges - 1)))
        for d in (t for t in terms if t.diagonal):
            table, support = d.op.values, d.op.edges
            for other in terms:
                if not other.diagonal and set(d.edges) & set(other.edges):
                    assert _commutes_by_permutation(table, support, other.op) == \
                        plain_permutation_walk(table, support, other.op)

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(diagonal_and_shifts())
    def test_pre_test_closure_agrees_with_the_plain_walk_on_random_shifts(self, ops):
        # here some monomials of one operator keep the diagonal and others do not
        diag, other = ops
        table = table_of(diag)
        assert _commutes_by_permutation(table.values, table.edges, other) == \
            plain_permutation_walk(table.values, table.edges, other)

    def test_pre_test_refuses_a_partial_map(self):
        # the map is undefined on register value 1 of edge 1, the value the
        # diagonal's one nonzero configuration holds there
        diag = diagonal_operator(2, [(Fraction(1), {0: {0}, 1: {1}})])
        other = Operator.monomial(2, Fraction(1), {0: (1, 0), 1: (1, -1)})
        table = table_of(diag)
        assert table.edges == (0, 1)
        assert not _commutes_by_permutation(table.values, table.edges, other)
        assert not diag.commutator(other).is_zero()

    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(diagonal_and_shifts())
    def test_table_residual_matches_the_commutator(self, ops):
        """The residual read from the table and the other operator's expansion
        is the commutator of the table's point-map monomials with it: its sum
        of squares over its denominator squared, spread over its edges, is
        the reference's, read from `commutator()._expansion()`."""
        diag, other = ops
        n = other.n
        table = table_of(diag)
        point = Operator(n)
        for config, num in table.values.items():
            point += Operator.monomial(n, Fraction(num, table.den), {
                e: tuple(x if y == x else -1 for y in range(n))
                for e, x in zip(table.edges, config)})
        assert point.equals(diag)
        squares, den, edges = _residual(table, other)
        entries, ref_den, support = point.commutator(other)._expansion()
        ref_squares = sum(v * v for v in entries.values())
        assert type(squares) is int and squares >= 0 and den > 0
        assert edges == len(set(table.edges) | set(other.support)) >= len(support)
        # both sums run over their own edges: each extra edge repeats every entry n times
        assert Fraction(squares, den * den) == \
            Fraction(ref_squares * n ** (edges - len(support)), ref_den * ref_den)
        assert (squares == 0) == (not entries)


# the one expansion, and audits past order 8 ----------------------------------

@st.composite
def random_operators(draw, registers=(2, 3)):
    """Sums of monomials of injective partial maps with Fraction coefficients,
    sometimes plus a sum of point maps minus the identity it equals."""
    n = draw(st.sampled_from(registers))
    k = draw(st.integers(1, 3))
    coeffs = st.sampled_from([Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(-2, 3),
                              Fraction(5, 6), Fraction(7, 4)])

    def partial_map():
        image = draw(st.permutations(range(n)))
        kept = draw(st.lists(st.booleans(), min_size=n, max_size=n))
        return tuple(y if keep else -1 for y, keep in zip(image, kept))

    op = Operator(n)
    for _ in range(draw(st.integers(0, 4))):
        edges = draw(st.sets(st.integers(0, k - 1), min_size=1))
        op += Operator.monomial(n, draw(coeffs), {e: partial_map() for e in edges})
    if draw(st.booleans()):
        # the point maps on edge e sum to the identity there, which the
        # last monomial subtracts: the sum is zero, but not key by key
        c, e = draw(coeffs), draw(st.integers(0, k - 1))
        rest = {f: partial_map() for f in draw(st.sets(st.integers(0, k - 1))) - {e}}
        for x in range(n):
            op += Operator.monomial(n, c, {**rest, e: tuple(
                x if y == x else -1 for y in range(n))})
        op += Operator.monomial(n, -c, rest)
    return op


D6 = build_group("dihedral:6")
S4 = build_group("symmetric:4")


def timed_audit(group, lat, subs, budget_s):
    """The audit of `lat`'s terms, asserted to finish within `budget_s` seconds."""
    start = time.perf_counter()
    rep = audit_commutation(build_terms(lat, group, subs), group.order)
    elapsed = time.perf_counter() - start
    assert elapsed < budget_s, f"audit took {elapsed:.1f} s, budget {budget_s} s"
    return rep


def fraction_entries(op, edges):
    """Nonzero matrix entries of `op` over the configurations of `edges`,
    Fraction by Fraction: {(row configuration, column configuration): value}."""
    pos = {e: i for i, e in enumerate(edges)}
    out = {}
    for key, c in coefficients(op).items():
        for cfg in itertools.product(range(op.n), repeat=len(edges)):
            row = list(cfg)
            for e, m in key:
                row[pos[e]] = m[cfg[pos[e]]]
            if min(row, default=0) >= 0:
                out[tuple(row), cfg] = out.get((tuple(row), cfg), 0) + c
    return {rc: v for rc, v in out.items() if v}


def in_lowest_terms(op):
    return (type(op.den) is int and op.den > 0
            and all(type(v) is int and v for v in op.terms.values())
            and gcd(op.den, *op.terms.values()) == 1)


class TestExpansion:
    @settings(max_examples=200, derandomize=True, deadline=None)
    @given(random_operators())
    def test_expansion_matches_the_atom_reference(self, op):
        atoms = reference_atoms(op)
        assert expansion_atoms(op) == atoms
        assert op.is_zero() == (not atoms)

    @settings(max_examples=100, derandomize=True, deadline=None)
    @given(st.sampled_from([2, 3]).flatmap(
        lambda n: st.tuples(random_operators((n,)), random_operators((n,)))))
    def test_integer_algebra_matches_the_fraction_reference(self, ops):
        """Sums, differences, scalings, products and adjoints on integer
        numerators over one denominator are the matrix algebra of the
        Fraction coefficients, and stay in lowest terms."""
        a, b = ops
        edges = tuple(sorted(set(a.support) | set(b.support)))
        ea, eb = fraction_entries(a, edges), fraction_entries(b, edges)

        def plus(x, y):
            out = dict(x)
            for rc, v in y.items():
                out[rc] = out.get(rc, 0) + v
            return {rc: v for rc, v in out.items() if v}

        product = {}
        for (row, j), u in ea.items():
            for (j2, col), v in eb.items():
                if j == j2:
                    product[row, col] = product.get((row, col), 0) + u * v
        ratio = Fraction(-2, 3)
        cases = [(a + b, plus(ea, eb)),
                 (a - b, plus(ea, {rc: -v for rc, v in eb.items()})),
                 (a.scale(ratio), {rc: ratio * v for rc, v in ea.items()}),
                 (a * b, {rc: v for rc, v in product.items() if v}),
                 (a.adjoint(), {(col, row): v for (row, col), v in ea.items()})]
        for op, want in cases:
            assert fraction_entries(op, edges) == want
            assert in_lowest_terms(op)
            assert expansion_atoms(op) == reference_atoms(op)

    def test_expansion_budget(self):
        op = Operator.monomial(S3.order, Fraction(1), {e: (1, 0, 2, 3, 4, 5) for e in range(9)})
        with pytest.raises(ValueError, match="expansion of 10077696 entries over budget"):
            op._expansion()


class TestAuditPastOrderEight:
    # Time budgets are at least 10x the in-process time measured on a
    # shared 2-vCPU host: 0.35 s, 0.6 s and 0.8 s.  Past order 8 a square
    # face has more than 20 000 configurations, where each flux term
    # used to be squared as B*B - B and each vertex-flux pair expanded in full.

    def test_d6_ring_trivial_full(self):
        rep = timed_audit(D6, ring(3), {"inner": D6.trivial_subgroup(),
                                        "outer": D6.full_subgroup()}, 10)
        assert rep.ok and len(rep.pair_checks) == 15

    def test_d6_torus(self):
        rep = timed_audit(D6, torus(2, 2), {}, 15)
        assert rep.ok and len(rep.pair_checks) == 20

    def test_s4_ring_trivial_full(self):
        rep = timed_audit(S4, ring(3), {"inner": S4.trivial_subgroup(),
                                        "outer": S4.full_subgroup()}, 8)
        assert rep.ok

    def test_d6_torus_squares_no_diagonal_term(self, monkeypatch):
        squared, commutators = [], []
        mul, commutator = Operator.__mul__, Operator.commutator

        def counted_mul(a, b):
            if a is b:
                squared.append(a)
            return mul(a, b)

        def counted_commutator(a, b):
            commutators.append((a, b))
            return commutator(a, b)

        monkeypatch.setattr(Operator, "__mul__", counted_mul)
        monkeypatch.setattr(Operator, "commutator", counted_commutator)
        terms = build_terms(torus(2, 2), D6, {})
        assert audit_commutation(terms, D6.order).ok
        gauge = {id(t.op) for t in terms if t.kind == "gauge"}
        assert {id(op) for op in squared} == gauge
        # every vertex-flux pair passes the pre-test: only the 4 vertex-vertex
        # pairs form a commutator
        assert len(commutators) == 4
        assert all(id(a) in gauge and id(b) in gauge for a, b in commutators)

    def test_sabotaged_d6_ring_reports_the_residual_norm(self):
        lat = ring(3)
        subs = {"inner": D6.full_subgroup(), "outer": D6.trivial_subgroup()}
        terms = with_literal_edge(lat, D6, subs, build_terms(lat, D6, subs),
                                  lat.edge_index("in0"))
        rep = audit_commutation(terms, D6.order)
        assert rep.failures() == ["pair [B(f0), L(in0)] != 0 (|.|_F = 16.2481)"]
        [pair] = [p for p in rep.pair_checks if not p.commutes]
        face, literal = terms[[t.name for t in terms].index("B(f0)")], terms[-1]
        union = len(set(face.edges) | set(literal.edges))
        want = reference_norm(point_operator(face.op, D6.order).commutator(literal.op),
                              D6.order, union)
        assert pair.residual_norm == want == pytest.approx(16.24807680927192, rel=1e-14)


# elimination order ---------------------------------------------------------

def walk_domains(lat):
    """Register values to walk over: Z2 on every edge, then the slice with
    each region given Z2 itself, which pins some edges."""
    subs = {reg.name: Z2.full_subgroup() for reg in lat.regions}
    return [[(0, 1)] * lat.n_edges, GaugeSlice(lat, Z2, subs).values]


def closed_faces(lat, levels):
    """(solver faces, checked faces) of a walk, each face by index."""
    index = {frozenset(e for e, _ in cyc): pi for pi, cyc in enumerate(lat.plaquettes)}
    face = lambda walk, *edges: index[frozenset([e for e, _ in walk] + list(edges))]
    solves = [step for level in levels for step in level[3]]
    checks = [walk for level in levels for walk in level[2]]
    checks += [walk for step in solves for walk in step[4]]
    return [face(walk, e) for e, walk, *_ in solves], [face(walk) for walk in checks]


class TestEliminationOrder:
    @pytest.mark.parametrize("lat", [torus(2, 2), torus(3, 2), patch(2, 3),
                                     ring(4), two_hole_lattice()])
    def test_each_edge_assigned_once(self, lat):
        for allowed in walk_domains(lat):
            levels, branches = elimination_order(lat, allowed)
            pinned = [e for e, a in enumerate(allowed) if len(a) == 1]
            assert [level[0] for level in levels[:len(pinned)]] == pinned
            edges = [e for level in levels for e in [level[0]] + [s[0] for s in level[3]]]
            assert sorted(edges) == list(range(lat.n_edges))
            assert all(level[1] == tuple(sorted(allowed[level[0]])) for level in levels)
            assert branches == prod(len(level[1]) for level in levels)

    @pytest.mark.parametrize("lat", [torus(2, 2), patch(2, 3), ring(4),
                                     two_hole_lattice()])
    def test_faces_solve_or_check(self, lat):
        for allowed in walk_domains(lat):
            solvers, checkers = closed_faces(lat, elimination_order(lat, allowed)[0])
            assert sorted(solvers + checkers) == list(range(lat.n_plaquettes))

    def test_torus_has_one_redundant_face(self):
        # on a closed surface the face constraints have one relation
        lat = torus(2, 2)
        levels, _ = elimination_order(lat, [(0, 1)] * lat.n_edges)
        assert len(closed_faces(lat, levels)[1]) == 1

    def test_disk_faces_all_solve(self):
        lat = patch(2, 3)
        levels, _ = elimination_order(lat, [(0, 1)] * lat.n_edges)
        assert closed_faces(lat, levels)[1] == []


# ground-state counting -----------------------------------------------------

TORUS_COUNTS = {"cyclic:2": 4, "cyclic:3": 9, "symmetric:3": 8}


class TestGroundStateCounts:
    @pytest.mark.parametrize("spec,want", sorted(TORUS_COUNTS.items()))
    def test_torus_counts(self, spec, want):
        g = build_group(spec)
        rep = ground_space_dimension(torus(2, 2), g, {})
        assert rep.value == want
        assert len(rep.by_method) >= 2
        assert set(rep.by_method.values()) == {want}

    def test_torus_count_matches_sector_census(self):
        from qdw.classify import anyon_table
        for spec in TORUS_COUNTS:
            g = build_group(spec)
            rep = ground_space_dimension(torus(2, 2), g, {})
            assert rep.value == len(anyon_table(g).anyons)

    def test_torus_count_is_refinement_invariant(self):
        rep = ground_space_dimension(torus(3, 2), S3, {})
        assert rep.value == 8
        assert len(rep.by_method) >= 2

    @pytest.mark.parametrize("spec,rows,cols", [("symmetric:3", 3, 3),
                                                ("dihedral:4", 4, 4),
                                                ("symmetric:4", 3, 3)])
    def test_gauge_fixed_torus_counts_match_sector_census(self, spec, rows, cols):
        g = build_group(spec)
        rep = ground_space_dimension(torus(rows, cols), g, {})
        assert rep.value == rep.by_method["counting"] == len(anyon_table(g))

    @settings(max_examples=30, derandomize=True, deadline=None)
    @given(st.data())
    def test_routes_agree_on_relabelled_tables(self, data):
        spec = data.draw(st.sampled_from(["cyclic:2", "cyclic:3", "symmetric:3"]))
        n = build_group(spec).order
        g = relabelled(spec, data.draw(st.permutations(range(n))))
        lat = data.draw(st.sampled_from([ring(3), patch(2, 2), dangling_lattice()]))
        subs = enumerate_subgroups(g)
        assign = {reg.name: data.draw(st.sampled_from(subs)) for reg in lat.regions}
        rep = ground_space_dimension(lat, g, assign)
        assert len(rep.by_method) >= 2
        assert "counting" in rep.by_method
        assert set(rep.by_method.values()) == {rep.value}

    @pytest.mark.parametrize("sub_elems", [(0,), (0, 1), (0, 2), (0, 5),
                                           (0, 3, 4), (0, 1, 2, 3, 4, 5)])
    def test_disk_is_nondegenerate_for_every_boundary(self, sub_elems):
        sub = S3.subgroup(sub_elems)
        rep = ground_space_dimension(patch(2, 2), S3, {"outer": sub})
        assert rep.value == 1

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3"])
    def test_annulus_matches_strip_count_cyclic(self, spec):
        g = build_group(spec)
        lat = ring(3)
        for k1 in enumerate_subgroups(g):
            for k2 in enumerate_subgroups(g):
                rep = ground_space_dimension(lat, g, {"inner": k1, "outer": k2})
                assert rep.value == qudit_dimension(g, k1, k2)
                assert len(rep.by_method) == 3

    def test_annulus_matches_strip_count_s3(self):
        lat = ring(3)
        subs = enumerate_subgroups(S3)
        for k1 in subs:
            for k2 in subs:
                rep = ground_space_dimension(lat, S3, {"inner": k1, "outer": k2})
                assert rep.value == qudit_dimension(S3, k1, k2)
                assert len(rep.by_method) >= 2

    def test_two_hole_count(self):
        lat = two_hole_lattice()
        assign = {"outer": Z2.full_subgroup(), "hole0": Z2.trivial_subgroup(),
                  "hole1": Z2.trivial_subgroup()}
        rep = ground_space_dimension(lat, Z2, assign)
        assert rep.value == 2
        assert set(rep.by_method) == {"counting", "modular"}

    def test_two_hole_qutrit_count(self):
        lat = two_hole_lattice()
        assign = {"outer": Z3.full_subgroup(), "hole0": Z3.trivial_subgroup(),
                  "hole1": Z3.trivial_subgroup()}
        rep = ground_space_dimension(lat, Z3, assign)
        assert rep.value == rep.by_method["counting"] == 3

    def test_six_hole_count_over_budget_reports_cleanly(self):
        # seven holes: with six, a forest rooted at a trivial-K hole leaves a
        # slice of 24^5 configurations, inside the budget
        s4 = build_group("symmetric:4")
        lat = patch(5, 9)
        assign = {"outer": s4.full_subgroup()}
        for i, face in enumerate(["p(1,1)", "p(1,3)", "p(1,5)", "p(1,7)",
                                  "p(3,1)", "p(3,3)", "p(3,5)"]):
            lat = carve_hole(lat, [face], f"hole{i}")
            assign[f"hole{i}"] = s4.trivial_subgroup()
        with pytest.raises(ValueError, match="budget"):
            ground_space_dimension(lat, s4, assign,
                                   methods=("counting", "trace", "dense"))
        rep = ground_space_dimension(lat, s4, assign)
        assert rep.by_method == {"modular": 24 ** 6}
        assert set(rep.skipped) == {"counting", "dense"}

    def test_dangling_edge_counts_double_cosets(self):
        lat = dangling_lattice()
        for sub in (S3.subgroup([0, 1]), S3.subgroup([0, 3, 4]),
                    S3.full_subgroup()):
            rep = ground_space_dimension(lat, S3, {"bdry": sub},
                                         methods=("counting", "trace", "dense"))
            assert rep.value == len(double_cosets(sub, sub))
            assert len(rep.by_method) == 3
            rep = ground_space_dimension(lat, S3, {"bdry": sub})
            assert rep.value == len(double_cosets(sub, sub))
            assert "modular" in rep.skipped

    def test_dangling_edge_between_two_trees_counts_double_cosets(self):
        # each square is one forest tree, and only the dangling edge links them
        lat = two_squares_joined_by_dangling_edge()
        routes = ("counting", "trace", "dense")
        for group in (Z2, Z3):
            for sub in enumerate_subgroups(group):
                rep = ground_space_dimension(lat, group, {"bdry": sub}, methods=routes)
                assert rep.by_method == dict.fromkeys(routes, len(double_cosets(sub, sub)))

    def test_spur_counts_double_cosets_for_every_s4_subgroup(self):
        s4 = build_group("symmetric:4")
        subs = enumerate_subgroups(s4)
        assert len(subs) == 30
        for sub in subs:
            assert _gsd_counting(dangling_lattice(), s4, {"bdry": sub}) == \
                len(double_cosets(sub, sub))

    def test_modular_route_skips_boundaries_that_are_not_regions(self):
        # patch(2, 2) without its region: a one-face edge that is no rim edge
        bare = patch(2, 2)
        bare = Lattice(bare.n_vertices, bare.edges, bare.plaquettes)
        rep = ground_space_dimension(bare, Z2, {})
        assert rep.skipped == ("modular",)
        assert set(rep.by_method) == {"counting", "dense"}
        # ring(3) with both rims in one region: no region is one boundary circle
        ann = ring(3)
        inner, outer = ann.regions
        both = BoundaryRegion("both", inner.rim_vertices + outer.rim_vertices,
                              inner.rim_edges + outer.rim_edges)
        ann = Lattice(ann.n_vertices, ann.edges, ann.plaquettes, regions=[both])
        rep = ground_space_dimension(ann, Z2, {"both": Z2.trivial_subgroup()})
        assert rep.skipped == ("modular",)
        assert rep.value == 2

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(st.data())
    def test_modular_equals_counting_on_carved_patches(self, data):
        spec = data.draw(st.sampled_from(["cyclic:2", "cyclic:3", "symmetric:3"]))
        g = build_group(spec)
        holes = data.draw(st.integers(0, 2))
        # one-face holes sit on interior faces, which needs three rows; two
        # of them share no vertex only as p(1,1) and p(1,3) of a 3x5 patch
        rows = 3 if holes else data.draw(st.integers(1, 3))
        cols = 5 if holes == 2 else data.draw(st.integers(3 if holes else 1, 5))
        lat = patch(rows, cols)
        if holes == 1:
            faces = [f"p(1,{data.draw(st.integers(1, cols - 2))})"]
        else:
            faces = ["p(1,1)", "p(1,3)"][:holes]
        for i, face in enumerate(faces):
            lat = carve_hole(lat, [face], f"hole{i}")
        subs = enumerate_subgroups(g)
        assign = {reg.name: data.draw(st.sampled_from(subs)) for reg in lat.regions}
        rep = ground_space_dimension(lat, g, assign, methods=("counting", "modular"))
        assert rep.by_method["counting"] == rep.by_method["modular"]

    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(st.data())
    def test_gauge_fix_keeps_the_count(self, data):
        spec = data.draw(st.sampled_from(["cyclic:2", "cyclic:3", "symmetric:3"]))
        g = build_group(spec)
        holes = data.draw(st.integers(0, 2))
        if holes:
            lat = patch(3, 3 if holes == 1 else 5)
        else:
            lat = patch(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)))
        for i, face in enumerate(["p(1,1)", "p(1,3)"][:holes]):
            lat = carve_hole(lat, [face], f"hole{i}")
        subs = enumerate_subgroups(g)
        assign = {reg.name: data.draw(st.sampled_from(subs)) for reg in lat.regions}
        # the reference enumerates every flat configuration, so keep it small
        assume(slice_branch_product(lat, g, assign, gauge_fix=False) <= 100_000)
        assert _gsd_counting(lat, g, assign) == _gsd_counting(lat, g, assign, gauge_fix=False)

    def test_full_rims_are_pinned(self):
        # with the rim vertices left unpinned this slice had 1.59e6 branches
        g = build_group("cyclic:3")
        lat = two_hole_lattice(5, 10)
        assign = {"outer": g.full_subgroup(), "hole0": g.full_subgroup(),
                  "hole1": g.trivial_subgroup()}
        assert slice_branch_product(lat, g, assign) <= 9
        rep = ground_space_dimension(lat, g, assign, methods=("counting", "modular"))
        assert rep.by_method == {"counting": 3, "modular": 3}

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_transversals_meet_each_orbit_once(self, data):
        g = data.draw(st.sampled_from([S3, Q8]))
        holes = data.draw(st.integers(0, 2))
        if holes:
            lat = patch(3, 3 if holes == 1 else 5)
        else:
            lat = patch(data.draw(st.integers(1, 3)), data.draw(st.integers(1, 4)))
        for i, face in enumerate(["p(1,1)", "p(1,3)"][:holes]):
            lat = carve_hole(lat, [face], f"hole{i}")
        subs = enumerate_subgroups(g)
        assign = {reg.name: data.draw(st.sampled_from(subs)) for reg in lat.regions}
        sl = GaugeSlice(lat, g, assign)
        for ei, child, labels in sl.fixes:
            head = lat.edges[ei][1] == child
            reps = set(sl.values[ei])
            orbits = {frozenset(g.mul(d, x) if head else g.mul(x, d)
                                for d in sl.domains[child]) for x in sl.allowed[ei]}
            assert set().union(*orbits) == set(sl.allowed[ei])
            assert all(len(orbit & reps) == 1 for orbit in orbits)
            assert reps <= set(sl.allowed[ei])
            # the label moves each value to its orbit's representative
            for x in sl.allowed[ei]:
                d = labels[x]
                assert d in sl.domains[child]
                assert (g.mul(d, x) if head else g.mul(x, g.inv[d])) in reps
        rep = ground_space_dimension(lat, g, assign, methods=("counting", "modular"))
        assert rep.by_method["counting"] == rep.by_method["modular"]

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(st.data())
    def test_slice_merge_counts_the_ground_states(self, data):
        """The slice's sector merge reads only the multiplication table, so
        its orbit count is every route's ground-state count for any G."""
        g = data.draw(st.sampled_from([Z2, Z3, S3, Q8, build_group("dihedral:4")]))
        kind = data.draw(st.sampled_from(["torus", "patch", "ring", "hole", "dangling"]))
        if kind == "torus":
            lat = torus(data.draw(st.integers(2, 3)), 2)
        elif kind == "patch":
            lat = patch(data.draw(st.integers(1, 2)), data.draw(st.integers(1, 3)))
        elif kind == "ring":
            lat = ring(3)
        elif kind == "hole":
            holes = data.draw(st.integers(1, 2))
            lat = patch(3, 3 if holes == 1 else 5)
            for i, face in enumerate(["p(1,1)", "p(1,3)"][:holes]):
                lat = carve_hole(lat, [face], f"hole{i}")
        else:
            lat = data.draw(st.sampled_from([dangling_lattice(),
                                             two_squares_joined_by_dangling_edge()]))
        subs = enumerate_subgroups(g)
        assign = {reg.name: data.draw(st.sampled_from(subs)) for reg in lat.regions}
        _, reps = GaugeSlice(lat, g, assign).sectors()
        assert len(reps) == _gsd_counting(lat, g, assign)
        if slice_branch_product(lat, g, assign, gauge_fix=False) <= 20_000:
            assert len(reps) == _gsd_counting(lat, g, assign, gauge_fix=False)
        assert _gsd_modular(lat, g, assign) in (None, len(reps))

    @pytest.mark.parametrize("k", [3, 2])
    def test_c6_rims_entered_from_the_bulk_are_pinned(self, k):
        # each rim vertex the forest enters from the bulk once multiplied the
        # slice by |K|: with C3 rims the enumeration raised MemoryError
        g = build_group("cyclic:6")
        lat = carve_hole(carve_hole(patch(5, 8), ["p(1,1)"], "hole0"), ["p(1,4)"], "hole1")
        sub = next(s for s in enumerate_subgroups(g) if s.order == k)
        assign = {reg.name: sub for reg in lat.regions}
        assert sum(1 for _ in GaugeSlice(lat, g, assign).configs()) <= 36
        rep = ground_space_dimension(lat, g, assign, methods=("counting", "modular"))
        assert rep.by_method == {"counting": 36, "modular": 36}

    def test_trace_route_streams_its_configurations(self):
        # 2**15 flat configurations; held as one array they peaked at 12.6 MB
        lat = patch(3, 3)
        assign = {"outer": Z2.full_subgroup()}
        tracemalloc.start()
        try:
            value = _gsd_counting(lat, Z2, assign, gauge_fix=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert value == 1
        assert peak < 2_000_000

    @pytest.mark.parametrize("spec,order", [("symmetric:4", 24),
                                            ("product:symmetric:4,cyclic:2", 48)])
    def test_twelve_hole_count_is_exact(self, spec, order):
        # above 2**53, where a float sum can round to a wrong integer
        g = build_group(spec)
        lat = patch(7, 13)
        assign = {"outer": g.full_subgroup()}
        for i, (r, c) in enumerate(itertools.product((1, 3), range(1, 12, 2))):
            lat = carve_hole(lat, [f"p({r},{c})"], f"hole{i}")
            assign[f"hole{i}"] = g.trivial_subgroup()
        rep = ground_space_dimension(lat, g, assign)
        assert rep.by_method == {"modular": order ** 11}

    def test_method_selection(self):
        rep = ground_space_dimension(torus(2, 2), Z2, {}, methods=("dense",))
        assert rep.by_method == {"dense": 4}
        with pytest.raises(ValueError, match="unknown method"):
            ground_space_dimension(torus(2, 2), Z2, {}, methods=("magic",))


# the dense route's restricted projector ------------------------------------

def dense_reference_cases():
    """(group, lattice, boundary subgroups) params with n^E <= 4096: C2 and C3 on
    torus:2x2, ring:3 with every boundary pair, patch:1x2 and the dangling lattice."""
    cases = []
    for group in (Z2, Z3):
        subs = [group.trivial_subgroup(), group.full_subgroup()]
        shapes = [("torus2x2", torus(2, 2), [{}]),
                  ("ring3", ring(3), [{"inner": a, "outer": b} for a in subs for b in subs]),
                  ("patch1x2", patch(1, 2), [{"outer": k} for k in subs]),
                  ("dangling", dangling_lattice(), [{"bdry": k} for k in subs])]
        for name, lat, assigns in shapes:
            if group.order ** lat.n_edges > 4096:
                continue
            for i, assign in enumerate(assigns):
                cases.append(pytest.param(group, lat, assign,
                                          id=f"{group.label}-{name}-{i}"))
    return cases


class TestDenseProjector:
    @pytest.mark.parametrize("group,lat,subs", dense_reference_cases())
    def test_support_block_matches_the_full_product(self, group, lat, subs):
        full = tuple(range(lat.n_edges))
        terms = build_terms(lat, group, subs)
        ref = np.eye(group.order ** lat.n_edges)
        for t in terms:
            ref = apply(point_operator(t.op, group.order), full, ref)
        block = _dense_projector(lat, group, subs, terms)
        support, diagonal, columns, den = block
        assert support == sorted(set(support))
        assert all(type(s) is tuple and len(s) == lat.n_edges for s in support)
        assert all(type(v) is int for v in diagonal) and type(den) is int
        assert all(type(j) is int and type(v) is int
                   for cols in columns for col in cols for j, v in col)
        rank = _projector_rank(block)
        assert rank == round(np.trace(ref)) == ground_space_dimension(
            lat, group, subs, methods=("counting",)).value
        indices = config_indices(support, group.order)
        assert indices == sorted(set(indices))
        idx = np.ix_(indices, indices)
        assert np.abs(ref[idx] - block_matrix(block)).max() < 1e-12
        ref[idx] = 0.0
        assert not ref.any()

    def test_support_block_over_budget_is_skipped(self):
        # no face, so no diagonal term: all 2^14 configurations fit the
        # configuration budget and form the support, whose block does not fit
        lat = Lattice(15, [(i, i + 1) for i in range(14)], [])
        assert _dense_projector(lat, Z2, {}) is None
        rep = ground_space_dimension(lat, Z2, {})
        assert rep.value == 1 and "dense" in rep.skipped

    def test_literal_face_edge_breaks_the_support(self):
        lat = torus(2, 2)
        terms = with_literal_edge(lat, Z2, {}, build_terms(lat, Z2, {}), 0)
        with pytest.raises(InvariantError, match=r"^L\(h\(0,0\)\) maps a configuration"):
            _dense_projector(lat, Z2, {}, terms)

    @pytest.mark.parametrize("kind", ["gauge", "flux"])
    def test_fractional_trace_is_refused(self, kind):
        # a third of one term is no projector: the trace is 4/3, not the
        # ground-state count 4, and exact division must catch it
        lat = torus(2, 2)
        terms = build_terms(lat, Z2, {})
        i = next(i for i, t in enumerate(terms) if t.kind == kind)
        t = terms[i]
        third = (DiagonalTable(t.op.edges, t.op.values, 3 * t.op.den) if t.diagonal
                 else t.op.scale(Fraction(1, 3)))
        terms[i] = HamiltonianTerm(t.name, t.kind, third, t.edges, t.diagonal, t.region)
        with pytest.raises(InvariantError, match=r"^projector trace 4/3 is not an integer"):
            _projector_rank(_dense_projector(lat, Z2, {}, terms))

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(st.data())
    def test_dense_equals_counting_on_random_lattices(self, data):
        group = data.draw(st.sampled_from([Z2, Z3, S3]))
        shapes = [lat for lat in (patch(1, 1), dangling_lattice(), patch(1, 2), patch(2, 1),
                                  torus(2, 2), ring(3), patch(1, 3), patch(2, 2), torus(2, 3),
                                  ring(4), two_squares_joined_by_dangling_edge())
                  if group.order ** lat.n_edges <= MATERIALIZE_DIM_BUDGET]
        lat = data.draw(st.sampled_from(shapes))
        subs = enumerate_subgroups(group)
        assign = {reg.name: data.draw(st.sampled_from(subs)) for reg in lat.regions}
        rep = ground_space_dimension(lat, group, assign)
        assert "dense" in rep.by_method
        # the modular route, where the lattice is a bounded surface, agrees too
        assert set(rep.by_method.values()) == {rep.by_method["counting"]}
