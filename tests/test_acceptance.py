"""Release gate: eleven checks, one per shipped guarantee.

Each test prints as a single pass/fail line under `pytest -v`.  Values
are frozen from independent derivations (sum rules, census sizes, Weyl
algebra) rather than recomputed here; tolerances and time budgets are
part of the contract and are asserted, not just documented.
"""

import time
from fractions import Fraction

import numpy as np
import pytest

from qdw.classify import (
    anyon_table,
    boundary_excitations,
    defect_list,
    lagrangian_algebra,
    qudit_dimension,
    symmetry_action,
)
from qdw.groups import (
    build_group,
    enumerate_automorphisms,
    enumerate_subgroups,
    inner_automorphism,
)
from qdw.lattice import (
    audit_commutation,
    build_terms,
    carve_hole,
    ground_space_dimension,
    patch,
    ring,
    torus,
)
from qdw.logical import (
    AbelianGroundSpace,
    charge_projectors,
    charge_string,
    logical_action,
    logical_algebra,
    loop_operator,
    tunnel_operator,
)

TOL_MATRIX = 1e-10
TOL_SUM = 1e-12

SURVEY_GROUPS = ("symmetric:3", "dihedral:4", "cyclic:4", "cyclic:6",
                 "product:cyclic:2,cyclic:2")


def subgroup_of(group, order, containing=None):
    for sub in enumerate_subgroups(group):
        if sub.order != order:
            continue
        if containing is None or containing in {group.name_of(x)
                                                for x in sub.elements}:
            return sub
    raise AssertionError(f"no subgroup of order {order}")


def rough_ring(group):
    lat = ring(3)
    subs = {"inner": group.trivial_subgroup(), "outer": group.trivial_subgroup()}
    return lat, subs


def two_hole_qudit(group):
    lat = carve_hole(patch(3, 5), ["p(1,1)"], "hole0")
    lat = carve_hole(lat, ["p(1,3)"], "hole1")
    subs = {"outer": group.full_subgroup(),
            "hole0": group.trivial_subgroup(),
            "hole1": group.trivial_subgroup()}
    ags = AbelianGroundSpace(lat, group, subs)
    x = tunnel_operator(ags, "hole0", "hole1")
    z = loop_operator(ags, "hole0")
    return ags, logical_algebra(ags, x, z)


def test_01_reflection_and_rotation_condensates_of_the_smallest_nonabelian_group():
    t0 = time.monotonic()
    g = build_group("symmetric:3")
    k2 = subgroup_of(g, 2, "(12)")
    k3 = subgroup_of(g, 3)
    # order-2 boundary: vacuum + the 2d spin + the reflection flux, once each
    assert lagrangian_algebra(g, k2).multiplicities == [1, 0, 1, 1, 0, 0, 0, 0]
    # order-3 boundary: both 1d spins + the rotation flux with multiplicity 2
    assert lagrangian_algebra(g, k3).multiplicities == [1, 1, 0, 0, 0, 2, 0, 0]
    assert time.monotonic() - t0 < 1.0


def test_02_every_condensate_has_weight_order_vacuum_once_and_boson_support():
    for spec in SURVEY_GROUPS:
        g = build_group(spec)
        table = anyon_table(g)
        for sub in enumerate_subgroups(g):
            la = lagrangian_algebra(g, sub)
            weighted = sum(m * a.dim
                           for m, a in zip(la.multiplicities, table.anyons))
            assert weighted == g.order, (spec, sub.elements)
            assert la.multiplicities[0] == 1, (spec, sub.elements)
            for m, a in zip(la.multiplicities, table.anyons):
                if m > 0:
                    assert abs(a.twist - 1.0) < TOL_SUM, (spec, a.name)


def test_03_sector_censuses_of_the_three_smallest_doubles():
    t0 = time.monotonic()
    assert len(anyon_table(build_group("cyclic:2"))) == 4
    assert len(anyon_table(build_group("cyclic:3"))) == 9
    table = anyon_table(build_group("symmetric:3"))
    assert len(table) == 8
    assert tuple(a.dim for a in table.anyons) == (1, 1, 2, 3, 3, 2, 2, 2)
    assert sum(a.dim ** 2 for a in table.anyons) == 36
    assert time.monotonic() - t0 < 1.0


def test_04_excitation_and_defect_square_sums_hit_the_group_order():
    t0 = time.monotonic()
    for spec in SURVEY_GROUPS:
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        for k in subs:
            excs = boundary_excitations(k)
            assert sum(x.dim ** 2 for x in excs) == g.order, (spec, k.elements)
        for k1 in subs:
            for k2 in subs:
                defs = defect_list(k1, k2)
                assert sum(x.dim_squared for x in defs) == g.order
    g = build_group("symmetric:3")
    k2 = subgroup_of(g, 2, "(12)")
    k3 = subgroup_of(g, 3)
    assert sorted(x.dim for x in boundary_excitations(k2)) == [1, 1, 2]
    mixed = defect_list(k2, k3)
    assert len(mixed) == 1
    assert mixed[0].dim_squared == Fraction(6)
    assert abs(mixed[0].dim - 6 ** 0.5) < TOL_SUM
    assert time.monotonic() - t0 < 5.0


def test_05_strip_count_routes_agree_for_every_boundary_pair():
    for spec in SURVEY_GROUPS:
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        for k1 in subs:
            for k2 in subs:
                d = qudit_dimension(g, k1, k2)   # raises on route mismatch
                assert d >= 1
    g3 = build_group("cyclic:3")
    assert qudit_dimension(g3, g3.trivial_subgroup(), g3.trivial_subgroup()) == 3


def test_06_all_commuting_projector_audits_are_clean():
    t0 = time.monotonic()
    for spec in ("cyclic:2", "cyclic:3", "symmetric:3"):
        g = build_group(spec)
        rep = audit_commutation(build_terms(torus(2, 2), g, {}), g.order)
        assert rep.ok, (spec, rep.failures())
    for spec in ("cyclic:2", "cyclic:3"):
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        for k1 in subs:
            for k2 in subs:
                terms = build_terms(ring(3), g, {"inner": k1, "outer": k2})
                rep = audit_commutation(terms, g.order)
                assert rep.ok, (spec, k1.elements, k2.elements, rep.failures())
    g = build_group("symmetric:3")
    k2 = subgroup_of(g, 2, "(12)")
    k3 = subgroup_of(g, 3)
    terms = build_terms(ring(3), g, {"inner": k2, "outer": k3})
    rep = audit_commutation(terms, g.order)
    assert rep.ok, rep.failures()
    for pc in rep.pair_checks:
        assert pc.residual_norm is None or pc.residual_norm < TOL_SUM
    assert time.monotonic() - t0 < 120.0


def test_07_ground_state_counts_match_their_independent_oracles():
    t0 = time.monotonic()
    for spec, census in (("cyclic:2", 4), ("cyclic:3", 9), ("symmetric:3", 8)):
        g = build_group(spec)
        rep = ground_space_dimension(torus(2, 2), g, {})
        assert rep.value == census, spec
        assert len(rep.by_method) >= 2     # route agreement actually exercised
    g = build_group("symmetric:3")
    for k in enumerate_subgroups(g):
        assert ground_space_dimension(patch(2, 2), g, {"outer": k}).value == 1
    for spec in ("cyclic:2", "cyclic:3", "symmetric:3"):
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        for k1 in subs:
            for k2 in subs:
                try:
                    rep = ground_space_dimension(
                        ring(3), g, {"inner": k1, "outer": k2})
                except ValueError:
                    continue            # no route fits the state budget
                assert rep.value == qudit_dimension(g, k1, k2), \
                    (spec, k1.elements, k2.elements)
    assert time.monotonic() - t0 < 600.0


def test_08_torus_count_is_refinement_invariant():
    for spec, census in (("cyclic:2", 4), ("cyclic:3", 9)):
        g = build_group(spec)
        coarse = ground_space_dimension(torus(2, 2), g, {}).value
        fine = ground_space_dimension(torus(3, 2), g, {}).value
        assert coarse == fine == census, spec


def test_09_two_hole_qutrit_weyl_pair_and_path_deformation():
    t0 = time.monotonic()
    g = build_group("cyclic:3")
    ags, qud = two_hole_qudit(g)
    assert qud.d == 3
    omega = np.exp(2j * np.pi / 3)
    mx, mz = np.array(qud.x_action.matrix()), np.array(qud.z_action.matrix())
    assert np.abs(mx @ mz - omega * (mz @ mx)).max() < TOL_MATRIX
    assert np.abs(np.linalg.matrix_power(mx, 3) - np.eye(3)).max() < TOL_MATRIX
    assert np.abs(np.linalg.matrix_power(mz, 3) - np.eye(3)).max() < TOL_MATRIX
    # three reroutings of the tunnel between the holes, plus a rim slide
    walks = [
        ["(1,2)", "(1,3)"],
        ["(1,2)", "(0,2)", "(0,3)", "(1,3)"],
        ["(2,2)", "(3,2)", "(3,3)", "(2,3)"],
        ["(2,2)", "(2,3)"],
    ]
    base = qud.frame_action(qud.x_op)
    for walk in walks:
        rerouted = charge_string(ags, walk, 1)
        assert logical_action(ags, rerouted) == logical_action(ags, qud.x_op)
        assert np.abs(np.array(qud.frame_action(rerouted).matrix())
                      - np.array(base.matrix())).max() < TOL_MATRIX
    assert time.monotonic() - t0 < 60.0


def test_10_charge_projector_families_resolve_the_hole_sectors():
    for spec in ("cyclic:2", "cyclic:3"):
        g = build_group(spec)
        lat, subs = rough_ring(g)
        ags = AbelianGroundSpace(lat, g, subs)
        qud = logical_algebra(ags, tunnel_operator(ags, "inner", "outer"),
                              loop_operator(ags, "inner"))
        fam = charge_projectors(qud, "inner")
        d = qud.d
        mats = [np.array(p.matrix()) for p in fam.projectors]
        total = np.zeros((d, d), dtype=complex)
        for pa in mats:
            total += pa
            assert np.abs(pa @ pa - pa).max() < TOL_MATRIX, spec
            assert np.abs(pa - np.diag(np.diag(pa))).max() < TOL_MATRIX, spec
        assert np.abs(total - np.eye(d)).max() < TOL_MATRIX, spec
        for i, pa in enumerate(mats):
            for pb in mats[i + 1:]:
                assert np.abs(pa @ pb).max() < TOL_MATRIX, spec


def test_11_condensates_are_conjugation_invariant_and_symmetry_equivariant():
    for spec in ("symmetric:3", "product:cyclic:2,cyclic:2"):
        g = build_group(spec)
        table = anyon_table(g)
        subs = enumerate_subgroups(g)
        for k in subs:
            base = lagrangian_algebra(g, k).multiplicities
            for x in range(g.order):
                assert lagrangian_algebra(g, k.conjugate_by(x)).multiplicities \
                    == base, (spec, k.elements, x)
        autos = enumerate_automorphisms(g)
        inner = {inner_automorphism(g, x) for x in range(g.order)}
        for phi in autos:
            act = symmetry_action(g, phi)
            perm = act.anyon_permutation
            if phi in inner:
                assert list(perm) == list(range(len(table))), spec
            for k in subs:
                src = lagrangian_algebra(g, k).multiplicities
                moved = [0] * len(src)
                for a, m in enumerate(src):
                    moved[perm[a]] = m
                image = g.subgroup([phi[x] for x in k.elements])
                assert moved == lagrangian_algebra(g, image).multiplicities, \
                    (spec, k.elements)
