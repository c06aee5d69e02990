"""Sector censuses, condensates, defects, and symmetry transport."""

import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from qdw.groups import (
    DoubleCoset,
    build_group,
    character_table,
    double_cosets,
    enumerate_automorphisms,
    enumerate_subgroups,
    inner_automorphism,
)
import qdw.classify as classify
from qdw.classify import (
    LagrangianAlgebra,
    abelian_anyon_data,
    anyon_table,
    boundary_excitations,
    boundary_types,
    condensate_count,
    defect_list,
    lagrangian_algebra,
    qudit_dimension,
    s_matrix,
    symmetry_action,
)
from qdw.groups import InvariantError
from qdw.lattice import ground_space_dimension, ring
from qdw.verify import verify_group

OMEGA = complex(-0.5, 3 ** 0.5 / 2)


def _s3_with_subgroups():
    g = build_group("symmetric:3")
    return (g,
            g.trivial_subgroup(),
            g.generated_subgroup([g.index_of("(12)")]),
            g.generated_subgroup([g.index_of("(123)")]),
            g.full_subgroup())


def test_s3_sector_census():
    g = build_group("symmetric:3")
    t = anyon_table(g)
    assert [a.name for a in t.anyons] == [
        "C0-pi0", "C0-pi1", "C0-pi2", "C1-pi0", "C1-pi1", "C2-pi0", "C2-pi1", "C2-pi2"]
    assert [a.dim for a in t.anyons] == [1, 1, 2, 3, 3, 2, 2, 2]
    twists = [a.twist for a in t.anyons]
    expect = [1, 1, 1, 1, -1, 1, OMEGA, OMEGA.conjugate()]
    assert np.allclose(twists, expect, atol=1e-9)
    assert t.anyons[0].dim == 1 and abs(t.anyons[0].twist - 1) < 1e-12


@pytest.mark.parametrize("spec,count", [
    ("cyclic:2", 4),
    ("cyclic:3", 9),
    ("symmetric:3", 8),
    ("dihedral:4", 22),
    ("quaternion8", 22),
    ("product:cyclic:2,cyclic:2", 16),
])
def test_sector_count_and_total_dimension(spec, count):
    g = build_group(spec)
    t = anyon_table(g)
    assert len(t) == count
    assert sum(a.dim ** 2 for a in t.anyons) == g.order ** 2
    for a in t.anyons:
        assert abs(abs(a.twist) - 1) < 1e-9


FROZEN_S3_CONDENSATES = {
    1: [1, 1, 2, 0, 0, 0, 0, 0],
    2: [1, 0, 1, 1, 0, 0, 0, 0],
    3: [1, 1, 0, 0, 0, 2, 0, 0],
    6: [1, 0, 0, 1, 0, 1, 0, 0],
}


def test_s3_condensates_frozen():
    g, ke, k2, k3, kg = _s3_with_subgroups()
    for sub in (ke, k2, k3, kg):
        alg = lagrangian_algebra(g, sub)
        assert alg.multiplicities == FROZEN_S3_CONDENSATES[sub.order]


def test_condensate_invariants_hold_broadly():
    for spec in ["symmetric:3", "dihedral:4", "cyclic:6", "quaternion8"]:
        g = build_group(spec)
        t = anyon_table(g)
        for sub in enumerate_subgroups(g):
            alg = lagrangian_algebra(g, sub)
            assert alg.multiplicities[0] == 1
            assert sum(m * a.dim for m, a in zip(alg.multiplicities, t.anyons)) == g.order
            for m, a in zip(alg.multiplicities, t.anyons):
                if m:
                    assert abs(a.twist - 1) < 1e-9


def test_condensate_depends_only_on_conjugacy_class():
    g = build_group("symmetric:3")
    subs = [s for s in enumerate_subgroups(g) if s.order == 2]
    assert len(subs) == 3
    vecs = [lagrangian_algebra(g, s).multiplicities for s in subs]
    assert vecs[0] == vecs[1] == vecs[2]


def test_boundary_type_census_s3():
    g = build_group("symmetric:3")
    bts = boundary_types(g)
    assert [(bt.order, len(bt.members)) for bt in bts] == [(1, 1), (2, 3), (3, 1), (6, 1)]


def test_boundary_excitations_s3():
    g, ke, k2, k3, kg = _s3_with_subgroups()
    assert [x.dim for x in boundary_excitations(k2)] == [1, 1, 2]
    assert [x.dim for x in boundary_excitations(k3)] == [1, 1, 1, 1, 1, 1]
    assert [x.dim for x in boundary_excitations(ke)] == [1] * 6
    assert [x.dim for x in boundary_excitations(kg)] == [1, 1, 2]
    assert [x.name for x in boundary_excitations(k2)] == ["T0-R0", "T0-R1", "T1-R0"]


def test_boundary_excitation_sum_rule():
    for spec in ["dihedral:4", "quaternion8", "cyclic:6"]:
        g = build_group(spec)
        for sub in enumerate_subgroups(g):
            xs = boundary_excitations(sub)
            assert sum(x.dim ** 2 for x in xs) == g.order


def test_defects_s3_mixed():
    g, ke, k2, k3, kg = _s3_with_subgroups()
    ds = defect_list(k2, k3)
    assert len(ds) == 1
    assert ds[0].dim_squared == Fraction(6)
    ds = defect_list(ke, kg)
    assert len(ds) == 1
    assert ds[0].dim_squared == Fraction(6)
    ds = defect_list(k2, kg)
    assert sorted(d.dim_squared for d in ds) == [Fraction(3), Fraction(3)]


def test_defect_sum_rule_all_pairs():
    for spec in ["symmetric:3", "dihedral:4", "product:cyclic:2,cyclic:2"]:
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        for k1, k2 in itertools.product(subs, subs):
            ds = defect_list(k1, k2)
            assert sum(d.dim_squared for d in ds) == g.order


def test_defects_reduce_to_boundary_excitations():
    g, _, k2, _, _ = _s3_with_subgroups()
    ds = defect_list(k2, k2)
    xs = boundary_excitations(k2)
    assert [d.name for d in ds] == [x.name for x in xs]
    assert [d.dim_squared for d in ds] == [Fraction(x.dim ** 2) for x in xs]


def test_boundary_excitations_match_the_double_coset_formula():
    """dim = |double coset| * dim(stabilizer irrep) / |K|, over every subgroup of S4 and D4."""
    for spec in ("symmetric:4", "dihedral:4"):
        g = build_group(spec)
        for k in enumerate_subgroups(g):
            want = [(f"T{ti}-R{ri}", ti, ri, dc.size * d // k.order)
                    for ti, dc in enumerate(double_cosets(k, k))
                    for ri, d in enumerate(character_table(dc.stabilizer).dims)]
            got = [(x.name, x.coset_index, x.irrep_index, x.dim)
                   for x in boundary_excitations(k)]
            assert got == want


@pytest.mark.parametrize("spec,k1_gens,k2_gens,expect", [
    ("symmetric:3", ["(12)"], ["(123)"], 1),
    ("symmetric:3", ["(12)"], ["(12)"], 3),
    ("symmetric:3", [], [], 6),
    ("cyclic:3", [], [], 3),
    ("product:cyclic:2,cyclic:2", ["(1,0)"], ["(0,1)"], 1),
    ("product:cyclic:2,cyclic:2", ["(1,0)"], ["(1,0)"], 4),
])
def test_strip_count_frozen(spec, k1_gens, k2_gens, expect):
    g = build_group(spec)
    k1 = g.generated_subgroup([g.index_of(x) for x in k1_gens])
    k2 = g.generated_subgroup([g.index_of(x) for x in k2_gens])
    assert qudit_dimension(g, k1, k2) == expect


def test_strip_count_dual_routes_agree_everywhere():
    """The overlap and coset routes are hard-asserted inside the call."""
    for spec in ["symmetric:3", "dihedral:4", "cyclic:4", "cyclic:6",
                 "product:cyclic:2,cyclic:2"]:
        g = build_group(spec)
        subs = enumerate_subgroups(g)
        for k1, k2 in itertools.product(subs, subs):
            d = qudit_dimension(g, k1, k2)
            assert d >= 1
            if k1 is k2:
                assert d == len(boundary_excitations(k1))


def test_strip_count_symmetric_in_boundaries():
    g = build_group("dihedral:4")
    subs = enumerate_subgroups(g)
    for k1, k2 in itertools.combinations(subs, 2):
        assert qudit_dimension(g, k1, k2) == qudit_dimension(g, k2, k1)


FROZEN_TORIC_S = 0.5 * np.array([
    [1, 1, 1, 1],
    [1, 1, -1, -1],
    [1, -1, 1, -1],
    [1, -1, -1, 1],
], dtype=complex)


def test_abelian_data_z2_frozen():
    g = build_group("cyclic:2")
    ab = abelian_anyon_data(g)
    assert np.allclose(ab.s_matrix, FROZEN_TORIC_S, atol=1e-9)
    assert ab.fusion.tolist() == [[0, 1, 2, 3], [1, 0, 3, 2], [2, 3, 0, 1], [3, 2, 1, 0]]


@pytest.mark.parametrize("spec", ["cyclic:2", "cyclic:3", "cyclic:4", "cyclic:6",
                                  "product:cyclic:2,cyclic:2"])
def test_abelian_data_invariants(spec):
    g = build_group(spec)
    ab = abelian_anyon_data(g)
    m = len(ab.charges)
    assert m == g.order ** 2
    assert np.allclose(ab.s_matrix @ np.conj(ab.s_matrix.T), np.eye(m), atol=1e-9)
    assert np.allclose(ab.s_matrix, ab.s_matrix.T, atol=1e-9)
    # fusion is an abelian group law on sector labels with the vacuum as unit
    assert ab.fusion[0].tolist() == list(range(m))
    assert np.array_equal(ab.fusion, ab.fusion.T)
    for a in range(m):
        assert sorted(ab.fusion[a].tolist()) == list(range(m))


def loop_abelian_anyon_data(group):
    """Reference: the closed-form loop `abelian_anyon_data` ran before it read
    `s_matrix`.  Its fusion lookup is memoized on the charge pair; the loop
    it comes from repeated it for every flux pair."""
    table = anyon_table(group)
    ct = character_table(group)
    n = group.order
    charges = [(a.class_index, a.irrep_index) for a in table.anyons]
    m = len(charges)
    s = np.zeros((m, m), dtype=complex)
    for a, (ga, qa) in enumerate(charges):
        for b, (gb, qb) in enumerate(charges):
            s[a, b] = np.conj(ct.value(qb, ga) * ct.value(qa, gb)) / n
    fusion = np.zeros((m, m), dtype=np.int64)
    rows = ct.chars
    lookup = {}
    for a, (ga, qa) in enumerate(charges):
        for b, (gb, qb) in enumerate(charges):
            if (qa, qb) not in lookup:
                prod = rows[qa] * rows[qb]
                lookup[qa, qb] = [q for q in range(ct.n_irreps)
                                  if np.allclose(rows[q], prod, atol=1e-6)]
            hits = lookup[qa, qb]
            assert len(hits) == 1
            fusion[a, b] = charges.index((group.mul(ga, gb), hits[0]))
    return s, fusion


@pytest.mark.parametrize("spec", [f"cyclic:{n}" for n in range(2, 13)]
                         + ["product:cyclic:2,cyclic:4"])
def test_abelian_data_matches_the_closed_form_loop(spec):
    ab = abelian_anyon_data(build_group(spec))
    s, fusion = loop_abelian_anyon_data(build_group(spec))
    assert np.array_equal(ab.s_matrix, s)
    assert np.array_equal(ab.fusion, fusion)


@pytest.mark.parametrize("spec", [f"cyclic:{n}" for n in range(1, 13)]
                         + ["product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4"])
def test_exact_s_phases_match_the_s_matrix(spec):
    g = build_group(spec)
    ab = abelian_anyon_data(g)
    k = np.array(ab.s_phases)
    assert "s_matrix" not in g._cache
    n = g.order
    assert ((0 <= k) & (k < n)).all()
    assert np.abs(ab.s_matrix - np.exp(-2j * np.pi * k / n) / n).max() < 1e-12


def relabelled(spec, seed):
    """The preset's table with its elements renamed by a seeded permutation."""
    g = build_group(spec)
    n = g.order
    perm = np.random.default_rng(seed).permutation(n)
    table = [0] * (n * n)
    names = [""] * n
    for a in range(n):
        names[perm[a]] = g.names[a]
        for b in range(n):
            table[perm[a] * n + perm[b]] = int(perm[g.mul(a, b)])
    return build_group({"order": n, "table": table, "names": names})


S_CASES = ["cyclic:1", "cyclic:2", "cyclic:4", "symmetric:3", "dihedral:4",
           "quaternion8", "symmetric:4", "product:cyclic:2,cyclic:2"]


@pytest.mark.parametrize("group", [build_group(s) for s in S_CASES]
                         + [relabelled(s, seed) for s in S_CASES[2:6] for seed in (1, 2)],
                         ids=lambda g: g.label)
def test_s_matrix_invariants(group):
    table = anyon_table(group)
    s = s_matrix(group)
    m = len(table)
    assert s is s_matrix(group)
    assert np.abs(s @ np.conj(s.T) - np.eye(m)).max() < 1e-9
    assert np.abs(s - s.T).max() < 1e-9
    dims = np.array([a.dim for a in table.anyons])
    assert np.abs(s[0] - dims / group.order).max() < 1e-12
    # S^2 is charge conjugation: an involution that fixes the vacuum and
    # keeps dimensions and twists
    sq = s @ s
    perm = np.abs(sq).argmax(axis=1)
    conj = np.zeros((m, m))
    conj[np.arange(m), perm] = 1.0
    assert np.abs(sq - conj).max() < 1e-9
    assert sorted(perm) == list(range(m))
    assert perm[0] == 0 and all(perm[perm] == np.arange(m))
    assert all(dims[perm] == dims)
    twists = np.array([a.twist for a in table.anyons])
    assert np.abs(twists[perm] - twists).max() < 1e-9
    # the modular relation (S T)^3 = S^2 for a quantum double
    st_ = s @ np.diag(twists)
    assert np.abs(st_ @ st_ @ st_ - sq).max() < 1e-9


def test_s_matrix_check_rejects_a_broken_character_table():
    g = build_group("symmetric:3")
    table = anyon_table(g)
    table.centralizer_tables[0].chars = table.centralizer_tables[0].chars[::-1]
    with pytest.raises(InvariantError, match="S matrix"):
        s_matrix(g)


def class_functions(table, w):
    """psi_A = sum_a W_(A,a) chi_a for each flux class A, by `CharacterTable.character`."""
    psi, start = [], 0
    for ct in table.centralizer_tables:
        psi.append(ct.character(w[start:start + ct.n_irreps]))
        start += ct.n_irreps
    return psi


def test_condensate_check_rejects_multiplicities_not_fixed_by_s():
    # vacuum 1, bosons only and total dimension 6, but W S != W
    g = build_group("symmetric:3")
    alg = LagrangianAlgebra(anyon_table(g), g.trivial_subgroup())
    alg.multiplicities = [1, 2, 0, 1, 0, 0, 0, 0]
    with pytest.raises(InvariantError, match="not fixed by S"):
        alg._validate(class_functions(alg.table, alg.multiplicities))


def test_condensate_check_rejects_perturbed_fixed_coset_counts(monkeypatch):
    """Counts that pass the vacuum, dimension and boson rules, yet are no condensate's.

    Over D(Z3) they give W = [1, 0, 0, 2, 0, 0, 0, 0, 0]: the vacuum, and
    the flux-1 boson twice, where a condensate has the fluxes 1 and 2 once.
    """
    g = build_group("cyclic:3")
    fake = [[1, 1, 1], [2, 2, 2], [0, 0, 0]]     # per flux class: 0, 1, 2
    monkeypatch.setattr(classify, "_fixed_coset_counts", lambda table, boundary: fake)
    with pytest.raises(InvariantError, match="not fixed by S"):
        lagrangian_algebra(g, g.trivial_subgroup())
    w = np.array([1, 0, 0, 2, 0, 0, 0, 0, 0])
    assert np.abs(w @ s_matrix(g) - w).max() > 0.1


def test_the_census_never_builds_the_s_matrix():
    g = build_group("cyclic:48")
    assert qudit_dimension(g, g.trivial_subgroup(), g.trivial_subgroup()) == 48
    assert "s_matrix" not in g._cache
    s4 = build_group("symmetric:4")
    for sub in enumerate_subgroups(s4):
        lagrangian_algebra(s4, sub)
    assert "s_matrix" not in s4._cache


FIXED_POINT_PRESETS = ([f"cyclic:{n}" for n in range(1, 25)]
                       + [f"dihedral:{n}" for n in range(1, 13)]
                       + [f"symmetric:{n}" for n in range(1, 5)]
                       + ["quaternion8", "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:3",
                          "product:cyclic:2,cyclic:4", "product:cyclic:3,cyclic:3",
                          "product:cyclic:2,symmetric:3"])


@pytest.mark.parametrize("spec", FIXED_POINT_PRESETS)
def test_fixed_point_rule_agrees_with_the_s_matrix(spec):
    """W S = W by `w @ s_matrix(g)` and by fixed-coset counts, on every condensate,
    and both reject the condensate with one more copy of a sector."""
    g = build_group(spec)
    table, s = anyon_table(g), s_matrix(g)
    for i, sub in enumerate(enumerate_subgroups(g)):
        w = lagrangian_algebra(g, sub).multiplicities
        assert np.abs(np.array(w) @ s - w).max() < 1e-9
        assert classify._fixed_by_s(table, class_functions(table, w))
        if len(w) == 1:
            continue
        more = list(w)
        more[1 + i % (len(w) - 1)] += 1
        assert np.abs(np.array(more) @ s - more).max() > 1e-6
        try:
            fixed = classify._fixed_by_s(table, class_functions(table, more))
        except InvariantError as exc:       # the counts are no longer integers
            assert "not integer-valued" in str(exc)
            fixed = False
        assert not fixed


def float_modular_sum(group, chi, boundaries):
    """Reference for condensate_count: sum_x S_0x^chi prod_i (W_i S)_x in complex128."""
    s = s_matrix(group)
    summand = s[0] ** chi
    for k in boundaries:
        summand = summand * (np.array(lagrangian_algebra(group, k).multiplicities) @ s)
    return complex(summand.sum())


SUM_GROUPS = ([build_group(s) for s in ("cyclic:1", "cyclic:2", "cyclic:3", "cyclic:4",
                                         "cyclic:6", "symmetric:3", "dihedral:4",
                                         "quaternion8", "product:cyclic:2,cyclic:2")]
              + [relabelled(s, 3) for s in ("symmetric:3", "dihedral:4")])


@settings(max_examples=150, derandomize=True, deadline=None)
@given(st.data())
def test_condensate_count_matches_the_float_modular_sum(data):
    group = data.draw(st.sampled_from(SUM_GROUPS))
    n_bdry = data.draw(st.integers(0, 4))
    # a surface of genus g with b boundary circles has chi = 2 - 2g - b
    chi = data.draw(st.sampled_from([c for c in range(-3, 3)
                                     if c <= 2 - n_bdry and (2 - c - n_bdry) % 2 == 0]))
    boundaries = [data.draw(st.sampled_from(enumerate_subgroups(group)))
                  for _ in range(n_bdry)]
    count = condensate_count(group, chi, boundaries)
    ref = float_modular_sum(group, chi, boundaries)
    if abs(ref) < 2 ** 50:
        assert abs(ref - count) < 1e-6 * max(1.0, abs(ref))


def test_condensate_count_special_cases():
    g, ke, k2, k3, kg = _s3_with_subgroups()
    assert condensate_count(g, 2, []) == 1                 # sphere
    assert condensate_count(g, 0, []) == len(anyon_table(g))  # torus
    assert condensate_count(g, 1, [k2]) == 1               # disk
    assert condensate_count(g, 0, [ke, kg]) == qudit_dimension(g, ke, kg)
    # b trivial holes in a full outer rim: |G|^(b-1)
    assert condensate_count(g, -2, [kg, ke, ke, ke]) == 6 ** 2
    # no surface has chi = 2 and one boundary; the sum is 1/6 there
    with pytest.raises(InvariantError, match="not an integer"):
        condensate_count(g, 2, [ke])


def test_abelian_condensates_match_multiplicity_route():
    """Abelian closed form: a sector condenses iff its flux is in K and its charge is trivial on K."""
    for spec in ["cyclic:2", "cyclic:4", "product:cyclic:2,cyclic:2", "cyclic:6"]:
        g = build_group(spec)
        ab = abelian_anyon_data(g)
        ct = character_table(g)
        for sub in enumerate_subgroups(g):
            mult = lagrangian_algebra(g, sub).multiplicities
            assert set(mult) <= {0, 1}
            closed_form = [i for i, (flux, q) in enumerate(ab.charges)
                           if flux in sub and all(abs(ct.value(q, k) - 1.0) < 1e-6
                                                  for k in sub.elements)]
            assert closed_form == [i for i, m in enumerate(mult) if m]


def test_abelian_rejects_nonabelian():
    with pytest.raises(ValueError):
        abelian_anyon_data(build_group("symmetric:3"))


def test_twist_is_charge_pairing_for_abelian():
    g = build_group("cyclic:4")
    t = anyon_table(g)
    ct = character_table(g)
    for a in t.anyons:
        assert abs(a.twist - ct.value(a.irrep_index, a.class_index)) < 1e-9


def test_inner_automorphisms_act_trivially():
    for spec in ["symmetric:3", "dihedral:4"]:
        g = build_group(spec)
        for x in range(g.order):
            act = symmetry_action(g, inner_automorphism(g, x))
            assert act.is_identity()


def test_swap_symmetry_of_two_layer_code():
    g = build_group("product:cyclic:2,cyclic:2")
    swap = []
    for x in range(4):
        a, b = g.names[x][1:-1].split(",")
        swap.append(g.index_of(f"({b},{a})"))
    act = symmetry_action(g, swap)
    assert not act.is_identity()
    # independent expectation: (flux g, charge q) -> (swap g, q composed with swap)
    t = anyon_table(g)
    ct = character_table(g)
    expect = []
    for a in t.anyons:
        g2 = swap[a.class_index]
        row = [ct.chars[a.irrep_index][swap.index(x)] for x in range(4)]
        hits = [q for q in range(4) if np.allclose(ct.chars[q], row, atol=1e-9)]
        assert len(hits) == 1
        expect.append(t.index_of(g2, hits[0]))
    assert act.anyon_permutation == expect
    ka = g.generated_subgroup([g.index_of("(1,0)")])
    kb = g.generated_subgroup([g.index_of("(0,1)")])
    assert g.subgroup(act.phi[x] for x in ka.elements) == kb


def test_symmetry_preserves_condensate_structure():
    """Transporting both the sector and the boundary leaves multiplicities fixed."""
    g = build_group("symmetric:3")
    t = anyon_table(g)
    for phi in enumerate_automorphisms(g):
        act = symmetry_action(g, phi)
        for sub in enumerate_subgroups(g):
            before = lagrangian_algebra(g, sub).multiplicities
            image = g.subgroup(act.phi[x] for x in sub.elements)
            after = lagrangian_algebra(g, image).multiplicities
            for i in range(len(t)):
                assert after[act.anyon_permutation[i]] == before[i]


def test_outer_automorphism_permutes_quaternion_fluxes():
    g = build_group("quaternion8")
    autos = enumerate_automorphisms(g)
    assert len(autos) == 24
    nontrivial = 0
    for phi in autos:
        act = symmetry_action(g, phi)
        if not act.is_identity():
            nontrivial += 1
    # Inn(Q8) has order 4 and acts trivially on sectors; the rest do not
    assert nontrivial == 20


def test_symmetry_rejects_non_automorphism():
    g = build_group("cyclic:4")
    with pytest.raises(ValueError):
        symmetry_action(g, (0, 2, 1, 3))


# one condensate and one double-coset list per input


def test_condensate_is_kept_on_its_subgroup():
    g, ke, k2, k3, kg = _s3_with_subgroups()
    for sub in (ke, k2, k3, kg):
        assert lagrangian_algebra(g, sub) is lagrangian_algebra(g, sub)
    other = build_group("symmetric:3")
    with pytest.raises(ValueError, match="different group"):
        lagrangian_algebra(other, k2)
    # the check runs before the kept condensate is looked up
    with pytest.raises(ValueError, match="different group"):
        lagrangian_algebra(g, other.full_subgroup())


def test_double_cosets_are_kept_per_ordered_pair():
    g, ke, k2, k3, kg = _s3_with_subgroups()
    assert double_cosets(k2, k3) is double_cosets(k2, k3)
    assert double_cosets(k3, k2) is not double_cosets(k2, k3)
    assert [dc.rep for dc in double_cosets(k3, k2)] == [0]
    assert len(double_cosets(k2, k2)) == 2


def _count_constructions(monkeypatch):
    """Counters on condensate construction and on double-coset list construction.

    Every double-coset list holds exactly one coset with representative 0
    (the identity's), so constructions of that coset count lists.
    """
    counts = {"condensates": 0, "double_coset_lists": 0}
    la_init, dc_init = LagrangianAlgebra.__init__, DoubleCoset.__init__

    def counted_la(self, *args, **kwargs):
        counts["condensates"] += 1
        la_init(self, *args, **kwargs)

    def counted_dc(self, *args, **kwargs):
        dc_init(self, *args, **kwargs)
        counts["double_coset_lists"] += self.rep == 0

    monkeypatch.setattr(LagrangianAlgebra, "__init__", counted_la)
    monkeypatch.setattr(DoubleCoset, "__init__", counted_dc)
    return counts


def test_verify_builds_one_condensate_and_one_coset_list_per_input(monkeypatch):
    counts = _count_constructions(monkeypatch)
    g = build_group("symmetric:4")
    results = verify_group(g)
    assert not [r for r in results if r.status == "fail"]
    n_subs = len(enumerate_subgroups(g))
    assert n_subs == 30
    assert counts == {"condensates": n_subs, "double_coset_lists": n_subs ** 2}


def test_modular_route_reuses_the_region_condensates(monkeypatch):
    g = build_group("symmetric:3")
    subs = {"inner": g.trivial_subgroup(), "outer": g.full_subgroup()}
    for sub in subs.values():
        lagrangian_algebra(g, sub)
    counts = _count_constructions(monkeypatch)
    rep = ground_space_dimension(ring(3), g, subs, methods=("modular",))
    assert rep.value == qudit_dimension(g, subs["inner"], subs["outer"])
    assert counts["condensates"] == 0
