"""Sector labels, string operators, and Weyl pairs on cyclic groups."""

import itertools
import random
from fractions import Fraction
from math import gcd, lcm, prod
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdw.classify import qudit_dimension
from qdw.groups import InvariantError, build_group, enumerate_subgroups
from qdw.lattice import (
    BoundaryRegion,
    Lattice,
    _dense_projector,
    build_terms,
    carve_hole,
    config_digits,
    ground_space_dimension,
    patch,
    ring,
    torus,
)
from qdw.logical import (
    AbelianGroundSpace,
    LogicalAction,
    StringOperator,
    charge_projectors,
    charge_string,
    flux_string,
    logical_action,
    logical_algebra,
    loop_operator,
    phase_string,
    rim_loop,
    shift_string,
    smith_normal_form,
    tunnel_operator,
)


def two_hole(group):
    lat = carve_hole(patch(3, 5), ["p(1,1)"], "hole0")
    lat = carve_hole(lat, ["p(1,3)"], "hole1")
    subs = {"outer": group.full_subgroup(),
            "hole0": group.trivial_subgroup(),
            "hole1": group.trivial_subgroup()}
    return lat, subs


def rough_ring(group, cols=3):
    lat = ring(cols)
    subs = {"inner": group.trivial_subgroup(),
            "outer": group.trivial_subgroup()}
    return lat, subs


def spur_lattice():
    return Lattice(
        n_vertices=5,
        edges=((0, 1), (1, 2), (2, 3), (3, 0), (0, 4)),
        plaquettes=(((0, True), (1, True), (2, True), (3, True)),),
        regions=(BoundaryRegion(name="bdry", rim_vertices=(0, 1, 2, 3, 4),
                                rim_edges=(0, 1, 2, 3), dangling_edges=(4,)),),
        vertex_names=("a", "b", "c", "d", "m"),
        edge_names=("ab", "bc", "cd", "da", "am"),
    )


class TestSmithNormalForm:
    def test_known_diagonal(self):
        # over Z the diagonal is 2, 2, 156; over Z_n each entry is its gcd with n
        a = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
        for n, diagonal in ((12, [2, 2, 12]), (156, [2, 2, 156]), (8, [2, 2, 4]),
                            (7, [1, 1, 1])):
            assert smith_normal_form(a, n).diagonal() == diagonal

    def test_rectangular_and_deficient(self):
        assert smith_normal_form([[1, 2], [3, 4], [5, 6]], 6).diagonal() == [1, 2]
        assert smith_normal_form([[1, 2], [3, 4], [5, 6]], 5).diagonal() == [1, 1]
        # a zero pivot reads n
        assert smith_normal_form([[1, 2], [2, 4]], 6).diagonal() == [1, 6]
        assert smith_normal_form([[0, 0], [0, 0]], 6).diagonal() == [6, 6]

    @pytest.mark.parametrize("ragged, row", [([[1], [2, 3]], 1), ([[1, 2], [3]], 1),
                                             ([[1, 2], [3, 4], []], 2)])
    def test_ragged_rows_are_refused_by_index(self, ragged, row):
        with pytest.raises(ValueError, match=f"row {row} has"):
            smith_normal_form(ragged, 6)

    def test_modulus_is_checked(self):
        with pytest.raises(ValueError, match="must be positive"):
            smith_normal_form([[1]], 0)
        # Z_1 is the zero ring: every matrix is zero and every gcd reads 1
        form = smith_normal_form([[1, 2], [3, 4]], 1)
        assert form.diagonal() == [1, 1]
        assert form.u == form.v == [{}, {}]
        # Python ints cannot wrap: products of entries near n pass 2^63
        assert smith_normal_form([[3]], 2 ** 31 - 1).diagonal() == [1]
        n = 2 ** 31
        assert smith_normal_form([[3]], n).diagonal() == [1]
        assert smith_normal_form([[2 ** 20, 6], [0, n - 4]], n).diagonal() == [2, 2 ** 21]
        p = 2 ** 61 - 1
        assert smith_normal_form([[p - 1, p - 2], [p - 3, p - 5]], p).diagonal() == [1, 1]
        assert smith_normal_form([[p - 1, p - 2], [p - 2, p - 4]], p).diagonal() == [1, p]
        form = smith_normal_form([[p - 1, 7, p - 12], [5, p - 3, 2]], p)
        assert form.diagonal() == [1, 1]
        assert max(x for row in form.v for x in row.values()) > 2 ** 32

    def test_transforms_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randrange(1, 6)
            k = rng.randrange(1, 6)
            n = rng.randrange(2, 49)
            a = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(m)]
            form = smith_normal_form(a, n)
            d = form.diagonal()
            for i in range(len(d) - 1):
                assert d[i + 1] % d[i] == 0
            for i, row in enumerate(form.dense("d")):
                for j, val in enumerate(row):
                    if i != j:
                        assert val == 0


def _product(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)] for row in a]


def _det(a):
    """Exact determinant by fraction-free (Bareiss) elimination."""
    a = [row[:] for row in a]
    n, sign, prev = len(a), 1, 1
    for t in range(n - 1):
        if a[t][t] == 0:
            swap = next((i for i in range(t + 1, n) if a[i][t]), None)
            if swap is None:
                return 0
            a[t], a[swap] = a[swap], a[t]
            sign = -sign
        for i in range(t + 1, n):
            for j in range(t + 1, n):
                a[i][j] = (a[i][j] * a[t][t] - a[i][t] * a[t][j]) // prev
        prev = a[t][t]
    return sign * a[-1][-1]


def _rank(a):
    rows = [[Fraction(x) for x in row] for row in a]
    rank = 0
    for c in range(len(rows[0])):
        piv = next((i for i in range(rank, len(rows)) if rows[i][c]), None)
        if piv is None:
            continue
        rows[rank], rows[piv] = rows[piv], rows[rank]
        for i in range(len(rows)):
            if i != rank and rows[i][c]:
                f = rows[i][c] / rows[rank][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[rank])]
        rank += 1
    return rank


def _minor_gcd(a, k, n):
    """gcd of every k x k minor, stopping once its gcd with n reaches 1.
    A minor through a zero row or column vanishes, so those are left out."""
    live_rows = [row for row in a if any(row)]
    live_cols = [c for c in range(len(a[0])) if any(row[c] for row in a)]
    g = 0
    for rows in itertools.combinations(live_rows, k):
        for cols in itertools.combinations(live_cols, k):
            g = gcd(g, _det([[row[c] for c in cols] for row in rows]))
            if gcd(g, n) == 1:
                return 1
    return g


@st.composite
def dense_matrices(draw):
    m, k = draw(st.integers(1, 5)), draw(st.integers(1, 5))
    return draw(st.lists(st.lists(st.integers(-9, 9), min_size=k, max_size=k),
                         min_size=m, max_size=m))


@st.composite
def incidence_matrices(draw):
    """Each column has at most two +-1 entries, like an edge between faces."""
    m, k = draw(st.integers(1, 8)), draw(st.integers(1, 12))
    cols = []
    for _ in range(k):
        col = [0] * m
        for r in draw(st.lists(st.integers(0, m - 1), max_size=2, unique=True)):
            col[r] = draw(st.sampled_from((1, -1)))
        cols.append(col)
    return [list(row) for row in zip(*cols)]


# dense entries in [-30, 30]: over Z its elimination swells past a million bits
SWELLING_6X5 = [[25, -23, 0, 13, 0], [22, 0, 27, 0, -20], [26, 0, -29, 0, -22],
                [-20, 16, 20, 0, -5], [-12, 0, -3, 12, -4], [12, 0, 27, 0, 22]]


class TestSmithOracle:
    """gcd(e_1 ... e_i, n) = gcd(D_i, n), with D_i the gcd of the i x i minors
    over Z, and the transforms are inverses mod n that carry a to d."""

    def check(self, a, n):
        m, k = len(a), len(a[0])
        form = smith_normal_form(a, n)
        for rows in (form.d, form.u, form.uinv, form.v, form.vinv):
            # sparse rows of Python ints, the zero entries left out
            assert all(type(x) is int and 0 < x < n for row in rows for x in row.values())
        e = form.diagonal()
        d = form.dense("d")
        assert d == [[d[i][i] if i == j else 0 for j in range(k)] for i in range(m)]
        assert all(gcd(d[i][i], n) == e[i] for i in range(len(e)))
        u, uinv, v, vinv = (form.dense(x) for x in ("u", "uinv", "v", "vinv"))

        def mod(x):
            return [[y % n for y in row] for row in x]

        assert mod(_product(_product(u, a), v)) == d
        assert mod(_product(u, uinv)) == [[int(i == j) for j in range(m)] for i in range(m)]
        assert mod(_product(v, vinv)) == [[int(i == j) for j in range(k)] for i in range(k)]
        assert all(y % x == 0 for x, y in zip(e, e[1:]))
        rank = _rank(a)
        for i in range(1, len(e) + 1):
            # past the rank every minor vanishes, so D_i = 0
            minors = _minor_gcd(a, i, n) if i <= rank else 0
            assert gcd(prod(e[:i]), n) == gcd(minors, n)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(dense_matrices(), st.integers(2, 48))
    def test_dense_integer_matrices(self, a, n):
        self.check(a, n)

    @settings(max_examples=150, derandomize=True, deadline=None)
    @given(incidence_matrices(), st.integers(2, 48))
    def test_sparse_incidence_matrices(self, a, n):
        self.check(a, n)

    @pytest.mark.parametrize("n", [2, 6, 12, 48])
    def test_dense_matrix_that_swells_over_z(self, n):
        self.check(SWELLING_6X5, n)


class TestSectors:
    def test_rough_ring_qutrit(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
        assert ags.dimension == 3
        assert ags.invariant_factors == (3,)
        assert ags.labels() == [(0,), (1,), (2,)]

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3", "cyclic:4",
                                      "cyclic:6"])
    def test_ring_sectors_match_parafermion_count(self, spec):
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        lat = ring(3)
        for k1, k2 in itertools.product(subs, repeat=2):
            ags = AbelianGroundSpace(lat, g, {"inner": k1, "outer": k2})
            assert ags.dimension == qudit_dimension(g, k1, k2)

    def test_two_hole_sector_counts(self):
        g2 = build_group("cyclic:2")
        lat, subs = two_hole(g2)
        ags = AbelianGroundSpace(lat, g2, subs)
        assert ags.dimension == 2
        report = ground_space_dimension(lat, g2, subs,
                                        methods=("counting", "trace"))
        assert report.value == ags.dimension
        g3 = build_group("cyclic:3")
        lat3, subs3 = two_hole(g3)
        ags3 = AbelianGroundSpace(lat3, g3, subs3)
        assert ags3.dimension == 3
        assert ags3.invariant_factors == (3,)

    def test_torus_sectors(self):
        g2 = build_group("cyclic:2")
        ags = AbelianGroundSpace(torus(2, 3), g2, {})
        assert ags.dimension == 4
        assert ags.invariant_factors == (2, 2)
        g3 = build_group("cyclic:3")
        ags3 = AbelianGroundSpace(torus(2, 2), g3, {})
        assert ags3.dimension == 9
        assert ags3.invariant_factors == (3, 3)

    def test_mixed_ring_is_unique(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(ring(3), g, {"inner": g.full_subgroup(),
                                              "outer": g.trivial_subgroup()})
        assert ags.dimension == 1
        assert ags.labels() == [()]
        assert ags.representative(()) == (0,) * 9

    def test_dangling_spur_sectors_match_enumeration(self):
        g = build_group("cyclic:3")
        lat = spur_lattice()
        for sub, want in ((g.full_subgroup(), 1), (g.trivial_subgroup(), 3)):
            ags = AbelianGroundSpace(lat, g, {"bdry": sub})
            assert ags.dimension == want
            assert ground_space_dimension(lat, g, {"bdry": sub}).value == want

    def test_needs_cyclic_presentation(self):
        with pytest.raises(ValueError, match="cyclic"):
            AbelianGroundSpace(torus(2, 2), build_group("symmetric:3"), {})
        with pytest.raises(ValueError, match="cyclic"):
            AbelianGroundSpace(torus(2, 2),
                               build_group("product:cyclic:2,cyclic:2"), {})

    def test_label_roundtrip_and_admissibility(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        for lab in ags.labels():
            rep = ags.representative(lab)
            assert ags.is_admissible(rep)
            assert ags.label(rep) == lab
        assert ags.is_admissible((0,) * lat.n_edges)
        bad = [0] * lat.n_edges
        bad[lat.edge_index("h(0,0)")] = 1
        assert not ags.is_admissible(bad)
        with pytest.raises(ValueError, match="violates"):
            ags.label(bad)

    def test_label_length_checked(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
        with pytest.raises(ValueError, match="label length"):
            ags.representative((0, 0))


class TestStringOperators:
    def test_algebra_is_exact(self):
        rng = random.Random(11)
        n, ne = 6, 5

        def rand_op():
            return StringOperator.make(
                n, [rng.randrange(n) for _ in range(ne)],
                [rng.randrange(n) for _ in range(ne)], rng.randrange(n))

        ident = StringOperator.make(n, [0] * ne, [0] * ne)
        for _ in range(60):
            a, b, c = rand_op(), rand_op(), rand_op()
            assert (a @ b) @ c == a @ (b @ c)
            assert (a @ a.inverse()).is_identity()
            assert (a.inverse() @ a).is_identity()
            assert a.commutation_exponent(b) == \
                (-b.commutation_exponent(a)) % n
            k = rng.randrange(-7, 8)
            step = a if k >= 0 else a.inverse()
            folded = ident
            for _ in range(abs(k)):
                folded = folded @ step
            assert a.power(k) == folded

    def test_matrix_is_unitary_and_bounded(self):
        op = StringOperator.make(3, (1, 0, 2), (0, 2, 1), 1)
        m = op.apply(np.eye(27))
        assert np.abs(m @ m.conj().T - np.eye(27)).max() < 1e-12
        big = StringOperator.make(5, (0,) * 8, (0,) * 8)
        with pytest.raises(ValueError, match="too large"):
            big.apply(np.eye(1))

    def test_mismatched_composition_rejected(self):
        a = StringOperator.make(3, (1,), (0,))
        b = StringOperator.make(3, (1, 0), (0, 0))
        with pytest.raises(ValueError, match="different lattices"):
            a @ b

    def test_phase_needs_one_register_per_shift_register(self):
        with pytest.raises(ValueError, match="phase has 7 registers, shift has 9"):
            StringOperator.make(3, [0] * 9, [0] * 6 + [1])
        with pytest.raises(ValueError, match="phase has 2 registers, shift has 1"):
            StringOperator(3, (1,), (0, 0))


class TestStringBuilders:
    def test_tunnel_is_one_rung_phase(self):
        g = build_group("cyclic:3")
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        z = tunnel_operator(ags, "inner", "outer")
        assert not any(z.shift)
        support = [lat.edge_names[e] for e, p in enumerate(z.phase) if p]
        assert support == ["rung0"]

    def test_loop_crosses_every_rung(self):
        g = build_group("cyclic:3")
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        x = loop_operator(ags, "inner")
        assert not any(x.phase)
        support = {lat.edge_names[e] for e, s in enumerate(x.shift) if s}
        assert support == {"rung0", "rung1", "rung2"}

    def test_hole_loop_support_is_the_surrounding_ring(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        x = loop_operator(ags, "hole0")
        support = sorted(lat.edge_names[e] for e, s in enumerate(x.shift) if s)
        assert support == ["h(1,0)", "h(1,2)", "h(2,0)", "h(2,2)",
                           "v(0,1)", "v(0,2)", "v(2,1)", "v(2,2)"]

    def test_flux_cannot_end_on_a_charge_condensing_rim(self):
        g = build_group("cyclic:3")
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        with pytest.raises(ValueError, match="pinned"):
            flux_string(ags, ["inner", "f0", "outer"])

    def test_flux_tunnel_crosses_flux_condensing_rims(self):
        g = build_group("cyclic:3")
        lat = ring(3)
        ags = AbelianGroundSpace(lat, g, {"inner": g.full_subgroup(),
                                          "outer": g.full_subgroup()})
        x = flux_string(ags, ["inner", "f0", "outer"])
        support = {lat.edge_names[e] for e, s in enumerate(x.shift) if s}
        assert support == {"in0", "out0"}

    def test_charge_cannot_end_in_the_bulk(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        with pytest.raises(ValueError, match="unabsorbed charge"):
            charge_string(ags, ["(1,2)", "(0,2)"])

    def test_charge_cannot_end_on_a_flux_condensing_rim(self):
        g = build_group("cyclic:3")
        lat = ring(3)
        ags = AbelianGroundSpace(lat, g, {"inner": g.full_subgroup(),
                                          "outer": g.full_subgroup()})
        with pytest.raises(ValueError, match="unabsorbed charge"):
            charge_string(ags, ["i0", "o0"])

    def test_raw_vectors_are_validated(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        with pytest.raises(ValueError, match="holonomy"):
            shift_string(ags, {"h(0,0)": 1})
        with pytest.raises(ValueError, match="unabsorbed charge"):
            phase_string(ags, {"h(0,0)": 1})

    def test_flux_walk_needs_adjacent_faces(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        with pytest.raises(ValueError, match="share no edge"):
            flux_string(ags, ["p(0,0)", "p(1,2)"])

    def test_reroutes_act_identically(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        paths = [
            ["(1,2)", "(1,3)"],
            ["(1,2)", "(0,2)", "(0,3)", "(1,3)"],
            ["(2,2)", "(2,3)"],
            ["(2,2)", "(3,2)", "(3,3)", "(2,3)"],
        ]
        acts = [logical_action(ags, charge_string(ags, p)) for p in paths]
        assert all(a == acts[0] for a in acts)
        assert not acts[0].is_identity()

    def test_contractible_loops_act_trivially(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        square = ["(1,2)", "(1,3)", "(2,3)", "(2,2)", "(1,2)"]
        assert logical_action(ags, charge_string(ags, square)).is_identity()
        v = lat.vertex_index("(0,1)")
        star = {e: w for e, w in enumerate(ags._incidence[v]) if w}
        assert logical_action(ags, shift_string(ags, star)).is_identity()

    def test_loops_around_charge_condensing_holes_act_trivially(self):
        # the pinned rim forces zero holonomy around the hole, so a charge
        # loop that encircles it detects nothing
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        one_hole = ["(0,0)", "(0,1)", "(0,2)", "(0,3)", "(1,3)", "(2,3)",
                    "(3,3)", "(3,2)", "(3,1)", "(3,0)", "(2,0)", "(1,0)",
                    "(0,0)"]
        assert logical_action(ags, charge_string(ags, one_hole)).is_identity()
        both = ["(0,0)", "(0,1)", "(0,2)", "(0,3)", "(0,4)", "(0,5)",
                "(1,5)", "(2,5)", "(3,5)", "(3,4)", "(3,3)", "(3,2)",
                "(3,1)", "(3,0)", "(2,0)", "(1,0)", "(0,0)"]
        assert logical_action(ags, charge_string(ags, both)).is_identity()

    def test_zero_charge_is_the_identity(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        op = charge_string(ags, ["(1,2)", "(1,3)"], charge=0)
        assert op.is_identity()

    def test_rim_loop_on_pinned_rim_fixes_sectors(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        op = rim_loop(ags, "hole0")
        assert not op.is_identity()
        assert logical_action(ags, op).is_identity()

    def test_rim_loop_needs_a_single_cycle(self):
        g = build_group("cyclic:2")
        lat = Lattice(
            n_vertices=4,
            edges=((0, 1), (1, 2), (2, 3), (3, 0)),
            plaquettes=(((0, True), (1, True), (2, True), (3, True)),),
            regions=(BoundaryRegion(name="part", rim_vertices=(0, 1, 2),
                                    rim_edges=(0, 1), dangling_edges=()),),
            vertex_names=("a", "b", "c", "d"),
            edge_names=("ab", "bc", "cd", "da"),
        )
        ags = AbelianGroundSpace(lat, g, {"part": g.trivial_subgroup()})
        with pytest.raises(ValueError, match="single cycle"):
            rim_loop(ags, "part")


class TestWeylPair:
    def test_two_hole_qutrit_normal_form(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        x = tunnel_operator(ags, "hole0", "hole1")
        z = loop_operator(ags, "hole0")
        qud = logical_algebra(ags, x, z)
        assert qud.d == 3
        assert qud.fourier
        assert qud.x_action.perm == (2, 0, 1)
        assert qud.x_action.phase_exp == (0, 0, 0)
        assert qud.z_action.perm == (0, 1, 2)
        assert qud.z_action.phase_exp == (0, 1, 2)
        assert qud.x_op.commutation_exponent(qud.z_op) == 1
        assert qud.x_op.power(3).is_identity()
        assert qud.z_op.power(3).is_identity()
        assert sorted(qud.orbit_cycle) == ags.labels()
        # cycle starts where the tunnel phase vanishes and climbs by one
        raw = logical_action(ags, qud.x_op)
        labels = ags.labels()
        zeta = [raw.phase_exp[labels.index(lab)] for lab in qud.orbit_cycle]
        assert zeta == [0, 1, 2]

    def test_two_hole_qubit_anticommutes(self):
        g = build_group("cyclic:2")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "hole0", "hole1"),
                              loop_operator(ags, "hole0"))
        assert qud.d == 2
        # XZ = -ZX for a qubit
        assert qud.x_op.commutation_exponent(qud.z_op) == 1
        assert qud.z_action.phase_exp == (0, 1)
        mx = np.array(qud.x_action.matrix())
        mz = np.array(qud.z_action.matrix())
        assert np.abs(mx @ mz + mz @ mx).max() < 1e-15

    def test_winding_is_normalized(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        x = tunnel_operator(ags, "hole0", "hole1")
        z = loop_operator(ags, "hole0")
        assert x.commutation_exponent(z) == 2
        qud = logical_algebra(ags, x, z)
        assert qud.x_op.commutation_exponent(qud.z_op) == 1
        assert qud.z_op == z.power(2)

    def test_flux_condensing_ring_pair(self):
        g = build_group("cyclic:3")
        lat = ring(3)
        ags = AbelianGroundSpace(lat, g, {"inner": g.full_subgroup(),
                                          "outer": g.full_subgroup()})
        x = flux_string(ags, ["inner", "f0", "outer"])
        z = charge_string(ags, ["i0", "i1", "i2", "i0"])
        qud = logical_algebra(ags, x, z)
        assert qud.d == 3
        assert not qud.fourier
        assert qud.x_action.perm == (2, 0, 1)
        assert qud.z_action.phase_exp == (0, 1, 2)

    def test_relation_report(self):
        from fractions import Fraction
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "hole0", "hole1"),
                              loop_operator(ags, "hole0"))
        assert qud.relation_report() == [
            ("X.Z", "Z.X", Fraction(1, 3)),
            ("X^3", "I", Fraction(0)),
            ("Z^3", "I", Fraction(0)),
        ]

    def test_frame_action_is_multiplicative(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "hole0", "hole1"),
                              loop_operator(ags, "hole0"))
        ops = [qud.x_op, qud.z_op, qud.x_op @ qud.z_op,
               qud.z_op.power(2) @ qud.x_op.inverse()]
        for a in ops:
            for b in ops:
                lhs = qud.frame_action(a @ b)
                rhs = qud.frame_action(a).compose(qud.frame_action(b))
                assert lhs == rhs

    def test_commensurate_winding_rejected(self):
        g = build_group("cyclic:4")
        ags = AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
        x = tunnel_operator(ags, "inner", "outer", charge=2)
        z = loop_operator(ags, "inner")
        with pytest.raises(ValueError, match="winds"):
            logical_algebra(ags, x, z)

    def test_split_sector_rejected(self):
        g = build_group("cyclic:2")
        ags = AbelianGroundSpace(torus(2, 3), g, {})
        op = shift_string(ags, {})
        with pytest.raises(ValueError, match="not one full qudit"):
            logical_algebra(ags, op, op)

    def test_mixed_strings_rejected(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
        x = tunnel_operator(ags, "inner", "outer")
        z = loop_operator(ags, "inner")
        with pytest.raises(ValueError, match="act diagonally"):
            logical_algebra(ags, x @ z, z)
        with pytest.raises(ValueError, match="without phases"):
            logical_algebra(ags, x, x @ z)


def loop_logical_action(ags, op):
    """Reference action: rebuild, relabel and phase one representative per sector."""
    labels = ags.labels()
    index = {lab: j for j, lab in enumerate(labels)}
    perm, phase = [], []
    for lab in labels:
        x = ags.representative(lab)
        moved = tuple((a + b) % ags.n for a, b in zip(x, op.shift))
        perm.append(index[ags.label(moved)])
        phase.append((op.offset + sum(p * a for p, a in zip(op.phase, x))) % ags.n)
    if sorted(perm) != list(range(len(labels))):
        raise InvariantError("sector action is not a permutation")
    return LogicalAction(ags.n, tuple(perm), tuple(phase))


def hand_made_strings(ags, charge_walks):
    """Shift strings from every sector representative, phase strings copied
    edge by edge from charge strings along the given vertex walks."""
    shifts = [shift_string(ags, dict(enumerate(rep))) for rep in ags.representatives]
    phases = []
    for walk in charge_walks:
        p = charge_string(ags, walk).phase
        phases.append(phase_string(ags, {ags.lattice.edge_names[e]: a
                                         for e, a in enumerate(p) if a}))
    return shifts + phases


def ring_strings(ags):
    return [tunnel_operator(ags, "inner", "outer"), loop_operator(ags, "inner"),
            loop_operator(ags, "outer"), rim_loop(ags, "inner"),
            rim_loop(ags, "outer")] + hand_made_strings(ags, [["i0", "o0"]])


def torus_strings(ags, rows, cols):
    row = [f"(0,{c})" for c in range(cols)] + ["(0,0)"]
    col = [f"({r},0)" for r in range(rows)] + ["(0,0)"]
    faces = [f"p(0,{c})" for c in range(cols)] + ["p(0,0)"]
    return [charge_string(ags, row), charge_string(ags, col),
            flux_string(ags, faces)] + hand_made_strings(ags, [row, col])


def two_hole_strings(ags):
    return [tunnel_operator(ags, "hole0", "hole1"), loop_operator(ags, "hole0"),
            loop_operator(ags, "hole1"), rim_loop(ags, "hole0"),
            flux_string(ags, ["outer", "p(0,1)", "p(0,2)", "outer"])] + \
        hand_made_strings(ags, [["(1,2)", "(1,3)"]])


def label_map_cases():
    for k in range(2, 8):
        g = build_group(f"cyclic:{k}")
        lat, subs = rough_ring(g)
        yield f"ring:3 cyclic:{k}", g, lat, subs, ring_strings
    for spec, rows, cols in (("cyclic:2", 2, 3), ("cyclic:3", 2, 2)):
        yield (f"torus:{rows}x{cols} {spec}", build_group(spec), torus(rows, cols), {},
               lambda ags, r=rows, c=cols: torus_strings(ags, r, c))
    for spec in ("cyclic:2", "cyclic:3"):
        g = build_group(spec)
        lat, subs = two_hole(g)
        yield f"two-hole {spec}", g, lat, subs, two_hole_strings


class TestLabelMap:
    """logical_action moves sectors by the label of the shift; that must agree
    with relabelling a shifted representative of every sector."""

    @pytest.mark.parametrize("case", list(label_map_cases()), ids=lambda c: c[0])
    def test_matches_per_sector_recomputation(self, case):
        _, g, lat, subs, strings = case
        ags = AbelianGroundSpace(lat, g, subs)
        ops = strings(ags)
        ops += [op.power(k) for op in ops[:5] for k in (2, -1, g.order + 1)]
        ops += [a @ b for a, b in itertools.combinations(ops[:6], 2)]
        moved = 0
        for op in ops:
            act = logical_action(ags, op)
            assert act == loop_logical_action(ags, op)
            moved += not all(p == j for j, p in enumerate(act.perm))
        assert moved, "no string permutes the sectors"

    def test_representatives_are_cached_in_label_order(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(torus(2, 2), g, {})
        reps = ags.representatives
        assert reps is ags.representatives
        assert [ags.label(x) for x in reps] == ags.labels()

    def test_face_violating_shift_is_refused(self):
        g = build_group("cyclic:4")
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        with pytest.raises(ValueError, match="shift changes the holonomy"):
            shift_string(ags, {"rung0": 1})
        raw = StringOperator.make(4, [1 if name == "rung0" else 0
                                      for name in lat.edge_names], [0] * lat.n_edges)
        for action in (logical_action, loop_logical_action):
            with pytest.raises(ValueError, match="violates a face"):
                action(ags, raw)


@st.composite
def holed_patches(draw):
    """A patch of 3x3 to 4x6 faces with up to two one-face holes, a cyclic
    group C2-C6, and a random boundary subgroup on every region.  Every
    patch has room for a hole; without one the sector space is trivial."""
    g = build_group(f"cyclic:{draw(st.integers(2, 6))}")
    rows, cols = draw(st.integers(3, 4)), draw(st.integers(3, 6))
    lat = patch(rows, cols)
    inner = [(r, c) for r in range(1, rows - 1) for c in range(1, cols - 1)]
    # two holes may not share a vertex
    holes = [()] + [(f,) for f in inner] + [
        (f, h) for f, h in itertools.combinations(inner, 2)
        if abs(f[0] - h[0]) > 1 or abs(f[1] - h[1]) > 1]
    for k, (r, c) in enumerate(draw(st.sampled_from(holes))):
        lat = carve_hole(lat, [f"p({r},{c})"], f"hole{k}")
    subs = enumerate_subgroups(g)
    return g, lat, {reg.name: draw(st.sampled_from(subs)) for reg in lat.regions}


class TestLabelHomomorphism:
    """label is additive on admissible configurations and constant on gauge
    orbits, which is what lets logical_action move sectors by label(shift)."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(holed_patches(), st.data())
    def test_label_adds_and_forgets_gauge_shifts(self, case, data):
        g, lat, subs = case
        ags = AbelianGroundSpace(lat, g, subs)
        n = g.order
        assert [ags.label(ags.representative(lab)) for lab in ags.labels()] == ags.labels()
        rng = data.draw(st.randoms(use_true_random=False))
        l1, l2 = rng.choice(ags.labels()), rng.choice(ags.labels())
        x = np.add(ags.representative(l1), ags.representative(l2))
        for row in ags._phase_rows:
            x += rng.randrange(n) * np.array(row)
        want = tuple((a + b) % s for a, b, s in zip(l1, l2, ags.invariant_factors))
        assert ags.label(x % n) == want
        assert ags.dimension == ground_space_dimension(lat, g, subs,
                                                       methods=("modular",)).value


def frame_matrix(qud):
    """Materialized ground basis: column c is the frame state |c>."""
    ags = qud.sector
    q = ags.orbit_state_matrix()
    labels = ags.labels()
    cols = [labels.index(lab) for lab in qud.orbit_cycle]
    q = q[:, cols]
    if not qud.fourier:
        return q.astype(complex)
    n = qud.d
    f = np.exp(-2j * np.pi * np.outer(np.arange(n), np.arange(n)) / n)
    return q @ f / np.sqrt(n)


def integer_entries(keys, nums):
    """Sums of integer contributions per matrix position, nonzero ones only."""
    uniq, inv = np.unique(keys, return_inverse=True)
    sums = np.zeros(len(uniq), dtype=np.int64)
    np.add.at(sums, inv.ravel(), nums)
    return uniq[sums != 0], sums[sums != 0]


def commutes_exactly(string, term, n_edges):
    """Whether a string operator commutes with a term, decided in integers.

    Conjugating the term by the string moves entry (r, c) to (r + shift,
    c + shift) and multiplies it by w^(phase.(r - c)).  The term's
    coefficients are positive, so the two commute exactly when every
    such exponent vanishes mod n and the moved entries equal the old ones.
    """
    n = string.n
    dim = n ** n_edges
    digits, weights = config_digits(n, n_edges)
    perm = ((digits + np.array(string.shift)) % n) @ weights
    expo = digits @ np.array(string.phase)
    coeffs = list(term.op.terms.values())
    assert all(c > 0 for c in coeffs)
    den = lcm(*(c.denominator for c in coeffs))
    rows, cols, nums = [], [], []
    for r, c, coeff in term.op.monomial_entries(range(n_edges)):
        if ((expo[r] - expo[c]) % n).any():
            return False
        rows.append(r)
        cols.append(c)
        nums.append(np.full(len(r), coeff.numerator * (den // coeff.denominator)))
    rows, cols, nums = np.concatenate(rows), np.concatenate(cols), np.concatenate(nums)
    before = integer_entries(rows * dim + cols, nums)
    after = integer_entries(perm[rows] * dim + perm[cols], nums)
    return all(np.array_equal(a, b) for a, b in zip(before, after))


class TestDenseCrossChecks:
    @pytest.mark.parametrize("spec,n", [("cyclic:2", 2), ("cyclic:3", 3)])
    def test_strings_commute_with_every_term(self, spec, n):
        g = build_group(spec)
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "inner", "outer"),
                              loop_operator(ags, "inner"))
        for term in build_terms(lat, g, subs):
            for op in (qud.x_op, qud.z_op):
                assert commutes_exactly(op, term, lat.n_edges), (term.name, op)

    @pytest.mark.parametrize("spec,n", [("cyclic:2", 2), ("cyclic:3", 3)])
    def test_frame_matches_materialized_strings(self, spec, n):
        g = build_group(spec)
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        q = ags.orbit_state_matrix()
        assert np.abs(q.T @ q - np.eye(ags.dimension)).max() == 0.0
        support, proj = _dense_projector(lat, g, subs)
        assert np.abs(proj @ q[support] - q[support]).max() < 1e-12
        assert not np.delete(q, support, axis=0).any()
        qud = logical_algebra(ags, tunnel_operator(ags, "inner", "outer"),
                              loop_operator(ags, "inner"))
        for op in (qud.x_op, qud.z_op):
            act = logical_action(ags, op)
            assert np.abs(op.apply(q) - q @ act.matrix()).max() < 1e-12
        qf = frame_matrix(qud)
        assert np.abs(qf.conj().T @ qf - np.eye(n)).max() < 1e-12
        for op in (qud.x_op, qud.z_op, qud.x_op @ qud.z_op):
            act = qud.frame_action(op)
            assert np.abs(op.apply(qf) - qf @ act.matrix()).max() < 1e-12
        mx = qf.conj().T @ qud.x_op.apply(qf)
        mz = qf.conj().T @ qud.z_op.apply(qf)
        omega = np.exp(2j * np.pi / n)
        # loop diagonal with ascending eigenvalues, tunnel lowering with
        # unit entries, so the first-pair tunnel entry is real positive
        assert np.abs(mz - np.diag(omega ** np.arange(n))).max() < 1e-12
        assert abs(mx[0, 1] - 1) < 1e-12
        assert np.abs(mx - qud.x_action.matrix()).max() < 1e-12
        assert np.abs(mx @ mz - omega * mz @ mx).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(mx, n) - np.eye(n)).max() < 1e-12
        assert np.abs(np.linalg.matrix_power(mz, n) - np.eye(n)).max() < 1e-12

    def test_dual_frame_matches_materialized_strings(self):
        g = build_group("cyclic:3")
        lat = ring(3)
        ags = AbelianGroundSpace(lat, g, {"inner": g.full_subgroup(),
                                          "outer": g.full_subgroup()})
        qud = logical_algebra(ags, flux_string(ags, ["inner", "f0", "outer"]),
                              charge_string(ags, ["i0", "i1", "i2", "i0"]))
        qf = frame_matrix(qud)
        omega = np.exp(2j * np.pi / 3)
        for op in (qud.x_op, qud.z_op, qud.z_op @ qud.x_op):
            act = qud.frame_action(op)
            assert np.abs(op.apply(qf) - qf @ act.matrix()).max() < 1e-12
        mz = qf.conj().T @ qud.z_op.apply(qf)
        assert np.abs(mz - np.diag(omega ** np.arange(3))).max() < 1e-12

    def test_orbit_matrix_budget(self):
        g = build_group("cyclic:2")
        ags = AbelianGroundSpace(torus(3, 4), g, {})
        with pytest.raises(ValueError, match="too large"):
            ags.orbit_state_matrix()


def projector_case(make):
    if make == "two_hole_z3":
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "hole0", "hole1"),
                              loop_operator(ags, "hole0"))
        return g, qud, "hole0"
    if make == "ring_z2":
        g = build_group("cyclic:2")
    else:
        g = build_group("cyclic:4")
    ags = AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
    qud = logical_algebra(ags, tunnel_operator(ags, "inner", "outer"),
                          loop_operator(ags, "inner"))
    return g, qud, "inner"


def bench_qudit(g, lattice):
    """The hole qudit of `charge-project` on ring:3, or on the 4x6 patch of the
    benchmark with holes at p(1,2) and p(1,4)."""
    if lattice == "ring:3":
        lat, subs = rough_ring(g)
        holes = ("inner", "outer")
    else:
        lat = carve_hole(patch(4, 6), ["p(1,2)"], "hole0")
        lat = carve_hole(lat, ["p(1,4)"], "hole1")
        subs = {"outer": g.full_subgroup(), "hole0": g.trivial_subgroup(),
                "hole1": g.trivial_subgroup()}
        holes = ("hole0", "hole1")
    ags = AbelianGroundSpace(lat, g, subs)
    qud = logical_algebra(ags, tunnel_operator(ags, *holes), loop_operator(ags, holes[0]))
    return qud, holes[0]


def additive_exponent(group, irrep):
    """The a with character(irrep, x) = w^(a x), read off at x = 1."""
    from qdw.groups import character_table
    n = group.order
    val = character_table(group).value(irrep, 1 % n)
    a = round(np.angle(val) * n / (2 * np.pi)) % n
    assert abs(val - np.exp(2j * np.pi * a / n)) < 1e-9
    return a


class TestChargeProjectors:
    @pytest.mark.parametrize("make", ["two_hole_z3", "ring_z2", "ring_z4"])
    def test_family_resolves_the_identity(self, make):
        g, qud, region = projector_case(make)
        n = qud.d
        fam = charge_projectors(qud, region)
        assert len(fam.projectors) == n * n
        assert sorted(fam.labels) == sorted(
            (f, q) for f in range(n) for q in range(n))
        mats = [np.array(p.matrix()) for p in fam.projectors]
        total = sum(mats)
        assert np.abs(total - np.eye(n)).max() < 1e-12
        for i, p in enumerate(mats):
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - np.diag(np.diag(p))).max() < 1e-12
            for j in range(i + 1, n * n):
                assert np.abs(p @ mats[j]).max() < 1e-12

    @pytest.mark.parametrize("make", ["two_hole_z3", "ring_z2", "ring_z4"])
    def test_pure_charges_select_the_frame_states(self, make):
        g, qud, region = projector_case(make)
        n = qud.d
        fam = charge_projectors(qud, region)
        assert len(fam.selected) == n
        for (flux, irrep), state in fam.selected.items():
            assert flux == 0
            assert state == additive_exponent(g, irrep)
            want = np.zeros((n, n))
            want[state, state] = 1.0
            assert np.abs(np.array(fam.projector((flux, irrep)).matrix()) - want).max() < 1e-12
        # members carrying flux see none of the ground space
        for lab in fam.labels:
            if lab not in fam.selected:
                assert np.abs(np.array(fam.projector(lab).matrix())).max() < 1e-12

    def test_transports_follow_the_pairing(self):
        g, qud, region = projector_case("two_hole_z3")
        fam = charge_projectors(qud, region)
        assert len(fam.transport_actions) == 9
        for (flux, irrep), act in fam.transport_actions.items():
            assert act.perm == (0, 1, 2)
            assert act.phase_exp == tuple((-flux * c) % 3 for c in range(3))

    @pytest.mark.parametrize("lattice", ["ring:3", "bench-patch-4x6"])
    @pytest.mark.parametrize("n", range(2, 8))
    def test_matches_the_float_family(self, n, lattice):
        """Each exact projector equals sum_i conj(S_ij / S_i,vac) T_i / n^2,
        rebuilt in floats from the transports and the S matrix."""
        from qdw.classify import abelian_anyon_data

        g = build_group(f"cyclic:{n}")
        qud, region = bench_qudit(g, lattice)
        fam = charge_projectors(qud, region)
        s = abelian_anyon_data(g).s_matrix
        mats = [np.array(fam.transport_actions[lab].matrix()) for lab in fam.labels]
        assert len(fam.selected) == n
        for j, p in enumerate(fam.projectors):
            # sector 0 is the vacuum
            want = sum(np.conj(s[i, j] / s[i, 0]) * m for i, m in enumerate(mats)) / n ** 2
            assert np.abs(np.array(p.matrix()) - want).max() < 1e-12
            assert p.trace() == round(np.trace(want).real)

    def test_never_builds_the_s_matrix(self):
        g = build_group("cyclic:5")
        qud, region = bench_qudit(g, "ring:3")
        charge_projectors(qud, region)
        assert "s_matrix" not in g._cache

    @pytest.mark.parametrize("which", [0, 1, 4, 8])
    def test_sabotaged_transport_phase_is_caught(self, monkeypatch, which):
        g = build_group("cyclic:3")
        qud, region = bench_qudit(g, "bench-patch-4x6")
        real = type(qud).frame_action
        calls = []

        def frame_action(self, op):
            act = real(self, op)
            calls.append(op)
            if len(calls) - 1 != which:
                return act
            return LogicalAction(act.n, act.perm, (act.phase_exp[0] + 1,) + act.phase_exp[1:])

        monkeypatch.setattr(type(qud), "frame_action", frame_action)
        with pytest.raises(InvariantError, match="charge projector"):
            charge_projectors(qud, region)

    def test_dual_encoding_refused(self):
        g = build_group("cyclic:3")
        lat = ring(3)
        ags = AbelianGroundSpace(lat, g, {"inner": g.full_subgroup(),
                                          "outer": g.full_subgroup()})
        qud = logical_algebra(ags, flux_string(ags, ["inner", "f0", "outer"]),
                              charge_string(ags, ["i0", "i1", "i2", "i0"]))
        with pytest.raises(ValueError, match="flux loop"):
            charge_projectors(qud, "inner")


# tunnel paths ----------------------------------------------------------------
#
# The Weyl normal form hides which shortest walk a tunnel takes, so the
# walks themselves are pinned: nonzero phase entries by edge name.

def phase_support(lat, op):
    return {lat.edge_names[e]: p for e, p in enumerate(op.phase) if p}


def two_hole_patch(group, rows, cols):
    lat = carve_hole(patch(rows, cols), ["p(1,1)"], "hole0")
    lat = carve_hole(lat, [f"p({rows - 2},{cols - 2})"], "hole1")
    return lat, {"outer": group.full_subgroup(),
                 "hole0": group.trivial_subgroup(),
                 "hole1": group.trivial_subgroup()}


class TestTunnelPaths:
    def test_readme_two_hole_patch(self):
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        assert phase_support(lat, tunnel_operator(ags, "hole0", "hole1")) == {"h(1,2)": 1}

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_ring(self, n):
        g = build_group(f"cyclic:{n}")
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        assert phase_support(lat, tunnel_operator(ags, "inner", "outer")) == {"rung0": 1}

    @pytest.mark.parametrize("n, rows, cols, forward, backward", [
        (2, 6, 10, "h(2,2) h(2,3) h(2,4) h(2,5) h(2,6) h(2,7) v(2,8) v(3,8)",
         "h(4,2) h(4,3) h(4,4) h(4,5) h(4,6) h(4,7) v(2,2) v(3,2)"),
        (3, 5, 10, "h(2,2) h(2,3) h(2,4) h(2,5) h(2,6) h(2,7) v(2,8)",
         "h(3,2) h(3,3) h(3,4) h(3,5) h(3,6) h(3,7) v(2,2)"),
        (4, 5, 8, "h(2,2) h(2,3) h(2,4) h(2,5) v(2,6)",
         "h(3,2) h(3,3) h(3,4) h(3,5) v(2,2)"),
        (7, 4, 6, "h(2,2) h(2,3)", "h(2,2) h(2,3)"),
    ])
    def test_two_hole_patches(self, n, rows, cols, forward, backward):
        g = build_group(f"cyclic:{n}")
        lat, subs = two_hole_patch(g, rows, cols)
        ags = AbelianGroundSpace(lat, g, subs)
        # every entry is 1: forward edges are walked along, backward ones
        # against, with charge n - 1
        assert phase_support(lat, tunnel_operator(ags, "hole0", "hole1")) == \
            dict.fromkeys(forward.split(), 1)
        assert phase_support(lat, tunnel_operator(ags, "hole1", "hole0", charge=n - 1)) == \
            dict.fromkeys(backward.split(), 1)


# ---------------------------------------------------------------------------
# the sector quotient over free kernel coordinates equals the full-width one


def _matvec(a, x):
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def full_width_labels(ags):
    """Reference sector data from a second normal form over all E kernel
    coordinates, the pinned (g_i = 1) ones included."""
    n, g = ags.n, ags._g
    ne = len(g)
    vinv, v = ags._form1.dense("vinv"), ags._form1.dense("v")

    def coords(x):
        y = [yi % n for yi in _matvec(vinv, [c % n for c in x])]
        assert all(yi % (n // gi) == 0 for yi, gi in zip(y, g))
        return [(yi // (n // gi)) % gi for yi, gi in zip(y, g)]

    gens = [coords(row) for row in ags._phase_rows]
    form = smith_normal_form([[g[i] if j == i else 0 for j in range(ne)] +
                              [t[i] for t in gens] for i in range(ne)], n)
    s = form.diagonal()
    live = [i for i, si in enumerate(s) if si > 1]
    u, uinv = form.dense("u"), form.dense("uinv")

    def label(x):
        z = _matvec(u, coords(x))
        return tuple(z[i] % s[i] for i in live)

    labels = list(itertools.product(*(range(s[i]) for i in live)))
    reps = []
    for lab in labels:
        full = [0] * ne
        for pos, i in enumerate(live):
            full[i] = lab[pos]
        t = _matvec(uinv, full)
        y = [(n // gi) * ti for gi, ti in zip(g, t)]
        reps.append(tuple(xi % n for xi in _matvec(v, y)))
    return SimpleNamespace(form=form, invariant_factors=tuple(s[i] for i in live),
                           labels=labels, representatives=tuple(reps), label=label)


def wide_patch(group):
    lat = carve_hole(patch(5, 8), ["p(1,1)"], "hole0")
    lat = carve_hole(lat, ["p(1,4)"], "hole1")
    return lat, {"outer": group.full_subgroup(),
                 "hole0": group.trivial_subgroup(),
                 "hole1": group.trivial_subgroup()}


# rims (outer, hole0, hole1) by subgroup order, and the ground-state count;
# over Z the first case's transforms reach 53 010-bit entries
C6_WIDE_RIMS = {(6, 3, 3): 18, (2, 2, 2): 36}


def c6_wide_patch(rims):
    g = build_group("cyclic:6")
    lat, _ = wide_patch(g)
    by_order = {sub.order: sub for sub in enumerate_subgroups(g)}
    return g, lat, {name: by_order[k] for name, k in zip(("outer", "hole0", "hole1"), rims)}


def quotient_cases():
    for k in range(2, 8):
        g = build_group(f"cyclic:{k}")
        for k1, k2 in itertools.product(enumerate_subgroups(g), repeat=2):
            yield (f"ring:3 cyclic:{k} K={k1.order},{k2.order}", g, ring(3),
                   {"inner": k1, "outer": k2})
    yield "torus:2x3 cyclic:2", build_group("cyclic:2"), torus(2, 3), {}
    yield "torus:2x2 cyclic:3", build_group("cyclic:3"), torus(2, 2), {}
    for spec in ("cyclic:2", "cyclic:3"):
        g = build_group(spec)
        yield (f"two-hole {spec}", g) + two_hole(g)
    for spec in ("cyclic:4", "cyclic:6"):
        g = build_group(spec)
        yield (f"5x8 two-hole {spec}", g) + wide_patch(g)
    for rims in C6_WIDE_RIMS:
        yield (f"5x8 two-hole cyclic:6 K={','.join(map(str, rims))}",) + c6_wide_patch(rims)
    g = build_group("cyclic:3")
    for sub in (g.trivial_subgroup(), g.full_subgroup()):
        yield f"spur cyclic:3 K={sub.order}", g, spur_lattice(), {"bdry": sub}


class TestNarrowQuotient:
    @pytest.mark.parametrize("case", list(quotient_cases()), ids=lambda c: c[0])
    def test_matches_the_full_width_quotient(self, case):
        _, g, lat, subs = case
        ags = AbelianGroundSpace(lat, g, subs)
        ref = full_width_labels(ags)
        free = [i for i, gi in enumerate(ags._g) if gi > 1]
        # one row per free coordinate; the full-width form is the identity on
        # the pinned coordinates and the narrow form on the free ones
        assert len(ags._form2.u) == len(free)
        pinned = [i for i in range(lat.n_edges) if i not in free]
        assert pinned == list(range(len(pinned)))
        assert ref.form.diagonal() == [1] * len(pinned) + ags._form2.diagonal()
        ref_u = ref.form.dense("u")
        assert [[ref_u[i][j] for j in free] for i in free] == ags._form2.dense("u")
        assert ags.invariant_factors == ref.invariant_factors
        assert ags.labels() == ref.labels
        assert ags.representatives == ref.representatives
        rng = random.Random(lat.n_edges * g.order)
        for lab, rep in zip(ags.labels(), ags.representatives):
            assert ags.label(rep) == ref.label(rep) == lab
            for _ in range(3):
                x = list(rep)
                for row in rng.sample(ags._phase_rows, min(4, len(ags._phase_rows))):
                    c = rng.randrange(g.order)
                    x = [(a + c * b) % g.order for a, b in zip(x, row)]
                assert ags.is_admissible(x)
                assert ags.label(x) == ref.label(x) == lab

    @pytest.mark.parametrize("rims", list(C6_WIDE_RIMS))
    def test_c6_wide_patch_matches_the_modular_count(self, rims):
        g, lat, subs = c6_wide_patch(rims)
        ags = AbelianGroundSpace(lat, g, subs)
        modular = ground_space_dimension(lat, g, subs, methods=("modular",)).value
        assert ags.dimension == modular == C6_WIDE_RIMS[rims]

    def test_wide_patch_drops_the_pinned_coordinates(self):
        g = build_group("cyclic:2")
        lat = carve_hole(patch(6, 10), ["p(1,1)"], "hole0")
        lat = carve_hole(lat, ["p(1,3)"], "hole1")
        ags = AbelianGroundSpace(lat, g, {"outer": g.full_subgroup(),
                                          "hole0": g.trivial_subgroup(),
                                          "hole1": g.trivial_subgroup()})
        assert (lat.n_edges, len(ags._form2.u)) == (136, 70)
        assert ags.invariant_factors == (2,)


# ---------------------------------------------------------------------------
# cells by name or in-range index; configurations of the right length


class TestCellIndices:
    @pytest.fixture
    def ags(self):
        g = build_group("cyclic:3")
        return AbelianGroundSpace(ring(3), g, rough_ring(g)[1])

    def test_negative_indices_are_refused(self, ags):
        with pytest.raises(ValueError, match="edge index -9 out of range"):
            phase_string(ags, {-9: 1, 0: 2})
        with pytest.raises(ValueError, match="vertex index -6 out of range"):
            charge_string(ags, [-6, -3])

    def test_indices_past_the_end_are_refused(self, ags):
        with pytest.raises(ValueError, match="face index 7 out of range"):
            flux_string(ags, [0, 7])
        with pytest.raises(ValueError, match="vertex index 30 out of range"):
            charge_string(ags, [0, 30])
        with pytest.raises(ValueError, match="edge index 20 out of range"):
            shift_string(ags, {20: 1})

    @pytest.mark.parametrize("length", [3, 8, 10, 12])
    def test_configurations_need_one_register_per_edge(self, ags, length):
        with pytest.raises(ValueError, match=f"has {length} registers, expected 9"):
            ags.label([0] * length)
        with pytest.raises(ValueError, match="registers"):
            ags.is_admissible([0] * length)
        assert ags.label([0] * 9) == (0,)
