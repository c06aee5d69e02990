"""Ground sectors, string operators, and Weyl pairs on cyclic groups."""

import itertools
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdw.cli
import qdw.flat
import qdw.logical
from qdw.classify import qudit_dimension
from qdw.groups import InvariantError, build_group, double_cosets
from qdw.gsd import _dense_projector, ground_space_dimension
from qdw.lattice import (
    BoundaryRegion,
    Lattice,
    build_terms,
    carve_hole,
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
    tunnel_operator,
)
from qdw.records import Ratio
from qdw.subgroups import enumerate_subgroups

from matrices import (apply_string, block_matrix, config_digits, config_indices, constraint_rows,
                      first_failing_row, monomial_entries, orbit_state_matrix, s_matrix)


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


class TestSectors:
    def test_rough_ring_qutrit(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
        assert ags.dimension == 3
        assert [ags.sector(x) for x in ags.representatives] == [0, 1, 2]

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
        report = ground_space_dimension(lat, g2, subs, methods=("modular",))
        assert report.value == ags.dimension
        g3 = build_group("cyclic:3")
        lat3, subs3 = two_hole(g3)
        ags3 = AbelianGroundSpace(lat3, g3, subs3)
        assert ags3.dimension == 3
        # a trivial-K root leaves no residual gauge: one slice configuration per sector
        assert len(ags3._sector) == 3

    def test_torus_sectors(self):
        g2 = build_group("cyclic:2")
        ags = AbelianGroundSpace(torus(2, 3), g2, {})
        assert ags.dimension == 4
        g3 = build_group("cyclic:3")
        ags3 = AbelianGroundSpace(torus(2, 2), g3, {})
        assert ags3.dimension == 9
        assert ags3.dimension == ground_space_dimension(torus(2, 2), g3, {},
                                                        methods=("modular",)).value

    def test_mixed_ring_is_unique(self):
        g = build_group("cyclic:3")
        ags = AbelianGroundSpace(ring(3), g, {"inner": g.full_subgroup(),
                                              "outer": g.trivial_subgroup()})
        assert ags.dimension == 1
        assert ags.representatives == ((0,) * 9,)
        assert ags.sector((0,) * 9) == 0

    def test_dangling_spur_sectors_match_enumeration(self):
        g = build_group("cyclic:3")
        lat = spur_lattice()
        for sub, want in ((g.full_subgroup(), 1), (g.trivial_subgroup(), 3)):
            ags = AbelianGroundSpace(lat, g, {"bdry": sub})
            assert ags.dimension == want
            # the dense trace is the oracle that reads no slice
            assert ground_space_dimension(lat, g, {"bdry": sub},
                                          methods=("dense",)).value == want

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
        for j, rep in enumerate(ags.representatives):
            assert ags.is_admissible(rep)
            assert ags.sector(rep) == j
        assert ags.is_admissible((0,) * lat.n_edges)
        bad = [0] * lat.n_edges
        bad[lat.edge_index("h(0,0)")] = 1
        assert not ags.is_admissible(bad)
        with pytest.raises(ValueError, match="violates"):
            ags.sector(bad)

    def test_over_budget_slice_is_refused(self, monkeypatch):
        g = build_group("cyclic:3")
        monkeypatch.setattr(qdw.flat, "TRACE_PARTIAL_BUDGET", 1)
        with pytest.raises(ValueError, match="over budget"):
            AbelianGroundSpace(ring(3), g, rough_ring(g)[1])
        for command in ("logical", "charge-project"):
            assert qdw.cli.main([command, "--group", "cyclic:3", "--lattice", "ring:3"]) == 2


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
        m = apply_string(op, np.eye(27))
        assert np.abs(m @ m.conj().T - np.eye(27)).max() < 1e-12
        big = StringOperator.make(5, (0,) * 8, (0,) * 8)
        with pytest.raises(ValueError, match="too large"):
            apply_string(big, np.eye(1))

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

    def test_flat_shift_leaving_k_is_refused(self):
        # a gauge label outside K at a rim vertex keeps every face flat
        g = build_group("cyclic:4")
        lat = ring(3)
        ags = AbelianGroundSpace(lat, g, {"inner": g.subgroup([0, 2]),
                                          "outer": g.full_subgroup()})
        star = {e: 1 if at_head else -1 for e, at_head in lat.star[lat.vertex_index("i1")]}
        with pytest.raises(ValueError, match=r"^shift leaves the pinned subgroup on in0$"):
            shift_string(ags, star)

    def test_charge_loop_through_a_dangling_edge_is_refused(self):
        # the loop absorbs its charge at every vertex, but K = {0, 2}
        # translates the dangling edge d by 2
        g = build_group("cyclic:4")
        sq = patch(1, 1)
        outer = sq.region_by_name("outer")
        lat = Lattice(sq.n_vertices, sq.edges + [(0, 3)], sq.plaquettes,
                      regions=(BoundaryRegion("outer", outer.rim_vertices, outer.rim_edges,
                                              dangling_edges=(4,)),),
                      vertex_names=sq.vertex_names, edge_names=sq.edge_names + ["d"],
                      plaquette_names=sq.plaquette_names)
        ags = AbelianGroundSpace(lat, g, {"outer": g.subgroup([0, 2])})
        with pytest.raises(ValueError,
                           match=r"^charge string is not translation invariant on d$"):
            charge_string(ags, ["(0,0)", "(1,1)", "(0,1)", "(0,0)"])

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
        star = {e: 1 if at_head else -1 for e, at_head in lat.star[v]}
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
        assert sorted(qud.orbit_cycle) == [0, 1, 2]
        # cycle starts where the tunnel phase vanishes and climbs by one
        raw = logical_action(ags, qud.x_op)
        zeta = [raw.phase_exp[j] for j in qud.orbit_cycle]
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
        g = build_group("cyclic:3")
        lat, subs = two_hole(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "hole0", "hole1"),
                              loop_operator(ags, "hole0"))
        assert qud.relation_report() == [
            ("X.Z", "Z.X", Ratio(1, 3)),
            ("X^3", "I", Ratio(0, 1)),
            ("Z^3", "I", Ratio(0, 1)),
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
    """Reference action, never memoized: move and phase one representative per sector."""
    perm, phase = [], []
    for x in ags.representatives:
        moved = tuple((a + b) % ags.n for a, b in zip(x, op.shift))
        perm.append(ags.sector(moved))
        phase.append((op.offset + sum(p * a for p, a in zip(op.phase, x))) % ags.n)
    if sorted(perm) != list(range(ags.dimension)):
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
    """logical_action moves sectors by a memoized permutation per shift; that
    must agree with recomputing the sector of every shifted representative."""

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
        assert [ags.sector(x) for x in reps] == list(range(ags.dimension))

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


def gauge_moved(lat, group, subs, config, rng):
    """config after a random gauge transformation, built from the group table:
    a label from each vertex's domain (its rim's K, else G) acting as g x on
    the edges into the vertex and x g^-1 on those out of it, and K
    translations on both sides of each dangling edge."""
    x = [int(c) % group.order for c in config]
    for v in range(lat.n_vertices):
        reg = lat.vertex_region.get(v)
        g = rng.choice(subs[reg].elements if reg else range(group.order))
        for e, at_head in lat.star[v]:
            x[e] = group.mul(g, x[e]) if at_head else group.mul(x[e], group.inv[g])
    for e, (reg, role) in lat.edge_region.items():
        if role == "dangling":
            k1, k2 = rng.choice(subs[reg].elements), rng.choice(subs[reg].elements)
            x[e] = group.mul(group.mul(k1, x[e]), k2)
    return x


class TestLabelHomomorphism:
    """The sector of a configuration forgets gauge moves, and the sector of a
    sum depends only on the summands' sectors: sector labels add, which is
    what lets logical_action move every sector by one permutation per shift."""

    @settings(max_examples=40, derandomize=True, deadline=None)
    @given(holed_patches(), st.data())
    def test_label_adds_and_forgets_gauge_shifts(self, case, data):
        g, lat, subs = case
        ags = AbelianGroundSpace(lat, g, subs)
        reps = ags.representatives
        assert [ags.sector(x) for x in reps] == list(range(ags.dimension))
        rng = data.draw(st.randoms(use_true_random=False))
        i, j = rng.randrange(ags.dimension), rng.randrange(ags.dimension)
        plain = ags.sector(np.add(reps[i], reps[j]))
        moved = np.add(gauge_moved(lat, g, subs, reps[i], rng),
                       gauge_moved(lat, g, subs, reps[j], rng))
        assert ags.sector(moved) == plain
        assert ags.sector(gauge_moved(lat, g, subs, moved, rng)) == plain
        assert ags.dimension == ground_space_dimension(lat, g, subs,
                                                       methods=("modular",)).value


@st.composite
def sector_cases(draw):
    """C2-C8 on a torus, a ring, a patch, a one- or two-hole patch or the
    dangling spur, a random boundary subgroup on every region, and the
    sector count from an oracle that reads no slice: `modular`,
    `qudit_dimension` on rings, and |K\\G/K| on the spur, whose square is a
    disk with one ground state."""
    g = build_group(f"cyclic:{draw(st.integers(2, 8))}")
    kind = draw(st.sampled_from(["torus", "ring", "patch", "one-hole", "two-hole", "spur"]))
    if kind == "torus":
        lat = torus(2, draw(st.integers(2, 3)))
    elif kind == "ring":
        lat = ring(draw(st.integers(3, 4)))
    elif kind == "patch":
        lat = patch(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    elif kind == "one-hole":
        lat = carve_hole(patch(3, 3), ["p(1,1)"], "hole0")
    elif kind == "two-hole":
        lat = two_hole(g)[0]
    else:
        lat = spur_lattice()
    subs = enumerate_subgroups(g)
    assign = {reg.name: draw(st.sampled_from(subs)) for reg in lat.regions}
    if kind == "ring":
        want = qudit_dimension(g, assign["inner"], assign["outer"])
    elif kind == "spur":
        want = len(double_cosets(assign["bdry"], assign["bdry"]))
    else:
        want = ground_space_dimension(lat, g, assign, methods=("modular",)).value
    return g, lat, assign, want


class TestSliceSectors:
    @settings(max_examples=80, derandomize=True, deadline=None)
    @given(sector_cases(), st.data())
    def test_sectors_match_the_oracle_and_forget_gauge_moves(self, case, data):
        g, lat, subs, want = case
        ags = AbelianGroundSpace(lat, g, subs)
        assert ags.dimension == want
        reps = ags.representatives
        # distinct representatives lie in distinct sectors
        assert [ags.sector(x) for x in reps] == list(range(want))
        rng = data.draw(st.randoms(use_true_random=False))
        for j, x in enumerate(reps):
            assert ags.sector(gauge_moved(lat, g, subs, x, rng)) == j
        # a memoized permutation equals a freshly computed one
        op = shift_string(ags, dict(enumerate(rng.choice(reps))))
        first = logical_action(ags, op)
        assert ags._moved[op.shift] == first.perm
        fresh = AbelianGroundSpace(lat, g, subs)
        assert logical_action(ags, op) == first == logical_action(fresh, op)
        assert first == loop_logical_action(ags, op)


def shifted_vectors(lat, ags, subs, rng):
    """A gauge-moved admissible configuration, maybe moved by a label outside
    K at one vertex (faces stay flat, rims may leave K), then maybe with up
    to two registers redrawn; and a phase vector that sums random face
    loops, which every gauge move sees as zero, maybe with up to two
    registers redrawn."""
    n, ne = ags.n, lat.n_edges
    x = gauge_moved(lat, ags.group, subs, rng.choice(ags.representatives), rng)
    if rng.random() < 0.5:
        a = rng.randrange(n)
        for e, at_head in lat.star[rng.randrange(lat.n_vertices)]:
            x[e] = (x[e] + (a if at_head else -a)) % n
    p = [0] * ne
    for cyc in lat.plaquettes:
        a = rng.randrange(n)
        for e, along in cyc:
            p[e] = (p[e] + (a if along else -a)) % n
    for vec in (x, p):
        for _ in range(rng.choice([0, 0, 1, 2])):
            vec[rng.randrange(ne)] = rng.randrange(n)
    return x, p


class TestLinearOracle:
    """Admissibility and string validation accept exactly what the Z_n rows
    of `constraint_rows` accept, and a refusal names the first failing row."""

    @settings(max_examples=60, derandomize=True, deadline=None)
    @given(sector_cases(), st.data())
    def test_refusals_name_the_first_failing_row(self, case, data):
        g, lat, subs, _ = case
        ags = AbelianGroundSpace(lat, g, subs)
        shift_rows, phase_rows = constraint_rows(lat, g, subs)
        rng = data.draw(st.randoms(use_true_random=False))
        for _ in range(8):
            x, p = shifted_vectors(lat, ags, subs, rng)
            assert ags.is_admissible(x) == (first_failing_row(shift_rows, x, g.order) is None)
            for vec, rows, build, what in ((x, shift_rows, shift_string, "shift"),
                                           (p, phase_rows, phase_string, "phase")):
                want = first_failing_row(rows, vec, g.order)
                if want is None:
                    build(ags, dict(enumerate(vec)))
                    continue
                with pytest.raises(ValueError) as refusal:
                    build(ags, dict(enumerate(vec)))
                assert str(refusal.value) == f"{what} {want}"


def frame_matrix(qud, subs):
    """Materialized ground basis: column c is the frame state |c>."""
    ags = qud.sector
    q = orbit_state_matrix(ags, subs)
    q = q[:, list(qud.orbit_cycle)]
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
    assert all(c > 0 for c in term.op.terms.values())
    rows, cols, nums = [], [], []
    for (r, c, _), num in zip(monomial_entries(term.op, range(n_edges)),
                              term.op.terms.values()):
        if ((expo[r] - expo[c]) % n).any():
            return False
        rows.append(r)
        cols.append(c)
        nums.append(np.full(len(r), num))
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
        q = orbit_state_matrix(ags, subs)
        assert np.abs(q.T @ q - np.eye(ags.dimension)).max() == 0.0
        block = _dense_projector(lat, g, subs)
        support, proj = config_indices(block[0], n), block_matrix(block)
        assert np.abs(proj @ q[support] - q[support]).max() < 1e-12
        assert not np.delete(q, support, axis=0).any()
        qud = logical_algebra(ags, tunnel_operator(ags, "inner", "outer"),
                              loop_operator(ags, "inner"))
        for op in (qud.x_op, qud.z_op):
            act = logical_action(ags, op)
            assert np.abs(apply_string(op, q) - q @ act.matrix()).max() < 1e-12
        qf = frame_matrix(qud, subs)
        assert np.abs(qf.conj().T @ qf - np.eye(n)).max() < 1e-12
        for op in (qud.x_op, qud.z_op, qud.x_op @ qud.z_op):
            act = qud.frame_action(op)
            assert np.abs(apply_string(op, qf) - qf @ act.matrix()).max() < 1e-12
        mx = qf.conj().T @ apply_string(qud.x_op, qf)
        mz = qf.conj().T @ apply_string(qud.z_op, qf)
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
        subs = {"inner": g.full_subgroup(), "outer": g.full_subgroup()}
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, flux_string(ags, ["inner", "f0", "outer"]),
                              charge_string(ags, ["i0", "i1", "i2", "i0"]))
        qf = frame_matrix(qud, subs)
        omega = np.exp(2j * np.pi / 3)
        for op in (qud.x_op, qud.z_op, qud.z_op @ qud.x_op):
            act = qud.frame_action(op)
            assert np.abs(apply_string(op, qf) - qf @ act.matrix()).max() < 1e-12
        mz = qf.conj().T @ apply_string(qud.z_op, qf)
        assert np.abs(mz - np.diag(omega ** np.arange(3))).max() < 1e-12

    def test_orbit_matrix_budget(self):
        g = build_group("cyclic:2")
        ags = AbelianGroundSpace(torus(3, 4), g, {})
        with pytest.raises(ValueError, match="too large"):
            orbit_state_matrix(ags, {})
        with pytest.raises(ValueError, match="too large"):
            ags.orbits()

    @pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3"])
    @pytest.mark.parametrize("rims", [("trivial", "trivial"), ("trivial", "full"),
                                      ("full", "full"), None])
    def test_exact_orbits_and_images_match_the_float_states(self, spec, rims):
        """`orbits` lists the support of each column of `orbit_state_matrix`,
        and `StringOperator.image` of an orbit is that column moved by the
        float operator: w^k / sqrt(|orbit|) at each image configuration."""
        g = build_group(spec)
        n = g.order
        if rims is None:
            lat, subs = torus(2, 2), {}
        else:
            lat = ring(3)
            subs = {"inner": getattr(g, f"{rims[0]}_subgroup")(),
                    "outer": getattr(g, f"{rims[1]}_subgroup")()}
        ags = AbelianGroundSpace(lat, g, subs)
        orbits, q = ags.orbits(), orbit_state_matrix(ags, subs)
        digits, weights = config_digits(n, lat.n_edges)
        index = {tuple(d): c for c, d in enumerate(digits.tolist())}
        assert [sorted(index[c] for c in orbit) for orbit in orbits] == \
            [np.flatnonzero(q[:, j]).tolist() for j in range(ags.dimension)]
        rng = random.Random(n)
        for _ in range(5):
            op = StringOperator.make(n, [rng.randrange(n) for _ in range(lat.n_edges)],
                                     [rng.randrange(n) for _ in range(lat.n_edges)],
                                     rng.randrange(n))
            moved = apply_string(op, q)
            for j, orbit in enumerate(orbits):
                want = np.zeros(n ** lat.n_edges, dtype=complex)
                for c, k in op.image(orbit).items():
                    want[index[c]] = np.exp(2j * np.pi * k / n) / np.sqrt(len(orbit))
                assert np.abs(moved[:, j] - want).max() < 1e-12


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
    from qdw.characters import character_table
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
        g = build_group(f"cyclic:{n}")
        qud, region = bench_qudit(g, lattice)
        fam = charge_projectors(qud, region)
        s = s_matrix(g)
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

    @pytest.mark.parametrize("n", range(2, 13))
    def test_charge_exponent_at_one_is_the_additive_charge(self, n):
        """The charge that transports a sector, `charge_exponents` at x = 1, is
        the q whose character x -> w^(q x) is the sector's row of the group's
        character table; sector 0 is the vacuum, so every s_i0 is 0."""
        from qdw.characters import character_table
        from qdw.classify import abelian_anyon_data
        g = build_group(f"cyclic:{n}")
        table, data = character_table(g), abelian_anyon_data(g)
        for (flux, irrep), chi in zip(data.charges, data.charge_exponents):
            q = chi[1]
            assert max(abs(table.value(irrep, x) - np.exp(2j * np.pi * q * x / n))
                       for x in range(n)) < 1e-9
        assert data.charges[0] == (0, 0)
        assert all(table.value(0, x) == 1 for x in range(n))
        assert all(s_i[0] == 0 for s_i in data.s_phases)

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
# the narrow slice and the full-width one give the same sectors
#
# Rooting each forest tree at its smallest gauge domain keeps the slice
# narrow: under a trivial-K root every sector meets it once.  Rooting each
# tree at its largest domain instead widens the slice by the residual
# gauge, which the roots' generators must then merge.  Both must cut the
# admissible configurations into the same sectors.


def full_width_space(lat, group, subs):
    """AbelianGroundSpace on a forest rooted at each tree's largest gauge domain."""
    real = qdw.flat._spanning_forest

    def widest(lat, domains, dangling):
        # the forest ranks roots by domain size alone, so inverted sizes
        # root each tree at its largest domain
        return real(lat, [(0,) * (group.order + 1 - len(d)) for d in domains], dangling)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(qdw.flat, "_spanning_forest", widest)
        return AbelianGroundSpace(lat, group, subs)


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
        ref = full_width_space(lat, g, subs)
        assert ref.dimension == ags.dimension
        assert len(ref._sector) >= len(ags._sector)
        # the two numberings differ by one bijection
        sigma = [ref.sector(x) for x in ags.representatives]
        assert sorted(sigma) == list(range(ags.dimension))
        rng = random.Random(lat.n_edges * g.order)
        for rep in ags.representatives:
            for _ in range(3):
                x = gauge_moved(lat, g, subs, np.add(rep, rng.choice(ags.representatives)), rng)
                assert ags.is_admissible(x)
                assert ref.sector(x) == sigma[ags.sector(x)]

    @pytest.mark.parametrize("rims", list(C6_WIDE_RIMS))
    def test_c6_wide_patch_matches_the_modular_count(self, rims):
        g, lat, subs = c6_wide_patch(rims)
        ags = AbelianGroundSpace(lat, g, subs)
        modular = ground_space_dimension(lat, g, subs, methods=("modular",)).value
        assert ags.dimension == modular == C6_WIDE_RIMS[rims]

    def test_wide_patch_slice_holds_one_configuration_per_sector(self):
        g = build_group("cyclic:2")
        lat = carve_hole(patch(6, 10), ["p(1,1)"], "hole0")
        lat = carve_hole(lat, ["p(1,3)"], "hole1")
        ags = AbelianGroundSpace(lat, g, {"outer": g.full_subgroup(),
                                          "hole0": g.trivial_subgroup(),
                                          "hole1": g.trivial_subgroup()})
        assert lat.n_edges == 136
        assert ags.dimension == len(ags._sector) == 2


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
            ags.sector([0] * length)
        with pytest.raises(ValueError, match="registers"):
            ags.is_admissible([0] * length)
        assert ags.sector([0] * 9) == 0
