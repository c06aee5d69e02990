"""Sector labels, string operators, and Weyl pairs on cyclic groups."""

import itertools
import random
from math import lcm

import numpy as np
import pytest

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
        form = smith_normal_form([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
        assert form.diagonal() == [2, 2, 156]

    def test_rectangular_and_deficient(self):
        assert smith_normal_form([[1, 2], [3, 4], [5, 6]]).diagonal() == [1, 2]
        assert smith_normal_form([[1, 2], [2, 4]]).diagonal() == [1, 0]
        assert smith_normal_form([[0, 0], [0, 0]]).diagonal() == [0, 0]

    def test_transforms_on_random_matrices(self):
        rng = random.Random(5)
        for _ in range(40):
            m = rng.randrange(1, 6)
            k = rng.randrange(1, 6)
            a = [[rng.randrange(-9, 10) for _ in range(k)] for _ in range(m)]
            form = smith_normal_form(a)
            d = form.diagonal()
            for i in range(len(d) - 1):
                if d[i] and d[i + 1]:
                    assert d[i + 1] % d[i] == 0
            for i, row in enumerate(form.d):
                for j, val in enumerate(row):
                    if i != j:
                        assert val == 0


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
        mx = qud.x_action.matrix()
        mz = qud.z_action.matrix()
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
        total = sum(fam.projectors)
        assert np.abs(total - np.eye(n)).max() < 1e-12
        for i, p in enumerate(fam.projectors):
            assert np.abs(p @ p - p).max() < 1e-12
            assert np.abs(p - np.diag(np.diag(p))).max() < 1e-12
            for j in range(i + 1, n * n):
                assert np.abs(p @ fam.projectors[j]).max() < 1e-12

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
            assert np.abs(fam.projector((flux, irrep)) - want).max() < 1e-12
        # members carrying flux see none of the ground space
        for lab in fam.labels:
            if lab not in fam.selected:
                assert np.abs(fam.projector(lab)).max() < 1e-12

    def test_transports_follow_the_pairing(self):
        g, qud, region = projector_case("two_hole_z3")
        fam = charge_projectors(qud, region)
        assert len(fam.transport_actions) == 9
        for (flux, irrep), act in fam.transport_actions.items():
            assert act.perm == (0, 1, 2)
            assert act.phase_exp == tuple((-flux * c) % 3 for c in range(3))

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
