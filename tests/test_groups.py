"""Group-layer tests: presets, censuses, character tables, double cosets."""

import numpy as np
import pytest

from qdw.groups import (
    FiniteGroup,
    InvariantError,
    Subgroup,
    _breadth_first,
    build_group,
    character_table,
    double_cosets,
    enumerate_automorphisms,
    enumerate_subgroups,
    inner_automorphism,
    is_automorphism,
    permutation_character,
    subgroup_conjugacy_classes,
)

OMEGA = complex(-0.5, 3 ** 0.5 / 2)


def test_identity_pinned_at_zero():
    for spec in ["cyclic:5", "dihedral:3", "symmetric:4", "quaternion8",
                 "product:cyclic:2,cyclic:3"]:
        g = build_group(spec)
        assert np.array_equal(g.table[0], np.arange(g.order))
        assert np.array_equal(g.table[:, 0], np.arange(g.order))
        assert g.index_of("e") == 0


def test_rejects_non_associative_table():
    # Latin square that is not a group table
    tbl = [[0, 1, 2, 3, 4],
           [1, 0, 3, 4, 2],
           [2, 4, 0, 1, 3],
           [3, 2, 4, 0, 1],
           [4, 3, 1, 2, 0]]
    with pytest.raises(ValueError, match="associative"):
        FiniteGroup(tbl)


def test_rejects_identity_elsewhere():
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[1, 0], [0, 1]])


def test_explicit_table_relabels_identity_to_zero():
    g = build_group({"order": 2, "table": [1, 0, 0, 1], "names": ["a", "id"]})
    assert g.names == ["id", "a"]
    assert g.mul(1, 1) == 0


def test_element_orders_cyclic6():
    g = build_group("cyclic:6")
    assert [g.element_order(a) for a in range(6)] == [1, 6, 3, 2, 3, 6]


def test_symmetric3_names_and_products():
    g = build_group("symmetric:3")
    assert g.names == ["e", "(23)", "(12)", "(123)", "(132)", "(13)"]
    # composition acts right-to-left: (12) after (23) is (123)... check directly
    a, b = g.index_of("(12)"), g.index_of("(23)")
    assert g.names[g.mul(a, b)] in {"(123)", "(132)"}
    assert g.mul(a, a) == 0
    assert g.element_order(g.index_of("(123)")) == 3


def test_dihedral4_relations():
    g = build_group("dihedral:4")
    r, s = g.index_of("r1"), g.index_of("s")
    assert g.element_order(r) == 4
    assert g.element_order(s) == 2
    # s r s = r^-1
    assert g.product([s, r, s]) == g.inverse(r)


def test_quaternion8_relations():
    g = build_group("quaternion8")
    i, j, k = g.index_of("i"), g.index_of("j"), g.index_of("k")
    minus1 = g.index_of("-1")
    assert g.mul(i, i) == minus1
    assert g.mul(j, j) == minus1
    assert g.mul(i, j) == k
    assert g.mul(j, i) == g.index_of("-k")
    assert g.element_order(minus1) == 2


@pytest.mark.parametrize("spec,count", [
    ("symmetric:3", 6),
    ("cyclic:4", 3),
    ("product:cyclic:2,cyclic:2", 5),
    ("dihedral:4", 10),
    ("quaternion8", 6),
    ("symmetric:4", 30),
    ("cyclic:12", 6),
])
def test_subgroup_census(spec, count):
    g = build_group(spec)
    subs = enumerate_subgroups(g)
    assert len(subs) == count
    for sub in subs:
        assert g.order % sub.order == 0
    assert subs[0].order == 1 and subs[-1].order == g.order


def test_subgroup_census_is_deterministic():
    a = [s.elements for s in enumerate_subgroups(build_group("dihedral:4"))]
    b = [s.elements for s in enumerate_subgroups(build_group("dihedral:4"))]
    assert a == b


def test_subgroup_conjugacy_classes_s3():
    g = build_group("symmetric:3")
    classes = subgroup_conjugacy_classes(g)
    sizes = [[s.order for s in cl] for cl in classes]
    assert sizes == [[1], [2, 2, 2], [3], [6]]


def test_subgroup_rejects_unclosed_subset():
    g = build_group("symmetric:3")
    with pytest.raises(ValueError):
        Subgroup(g, (0, 3))  # (123) without (132)


def test_generated_subgroup_s3():
    g = build_group("symmetric:3")
    assert g.generated_subgroup([g.index_of("(123)")]).order == 3
    assert g.generated_subgroup([g.index_of("(12)"), g.index_of("(23)")]).order == 6


def test_breadth_first_reach_order_and_parents():
    # a square 0-1-2-3-0 with a tail 2-4, reached from 0
    adj = {0: [1, 3], 1: [0, 2], 2: [1, 3, 4], 3: [0, 2], 4: [2]}
    reach = list(_breadth_first([0], lambda v: ((w, (v, w)) for w in adj[v])))
    assert reach == [(0, None, None), (1, 0, (0, 1)), (3, 0, (0, 3)),
                     (2, 1, (1, 2)), (4, 2, (2, 4))]
    # several roots come first, once each; the walk is lazy, so a caller may stop early
    walk = _breadth_first([3, 1, 3], lambda v: ((w, None) for w in adj[v]))
    assert [next(walk)[0] for _ in range(3)] == [3, 1, 0]


def test_equal_centralizers_share_one_subgroup():
    g = build_group("cyclic:12")
    cents = {id(cl.centralizer) for cl in g.conjugacy_classes()}
    assert len(cents) == 1
    g = build_group("dihedral:4")
    by_elements = {}
    for cl in g.conjugacy_classes():
        assert by_elements.setdefault(cl.centralizer.elements, cl.centralizer) is cl.centralizer


def test_character_row_lookup():
    t = character_table(build_group("symmetric:4"))
    for i in range(t.n_irreps):
        assert t.row_of(t.chars[i]) == i
    with pytest.raises(InvariantError, match="unique irrep row"):
        t.row_of(t.chars[0] + t.chars[1])


@pytest.mark.parametrize("spec, message", [
    ({"table": [0, 1, 1, 0.9]}, "entries must be integers from 0 to 1"),
    ({"table": [0, 1, 1, 2]}, "entries must be integers from 0 to 1"),
    ({"table": [0, 1, 1, False]}, "entries must be integers"),
    ({"table": [0, 1, 1, 0], "order": 2.0}, "'order' must be a positive integer"),
    ({"table": [0, 1, 1, 0], "order": float("inf")}, "'order' must be a positive integer"),
    ({"table": [0, 1, 1, 0], "order": -7}, "'order' must be a positive integer"),
    ({"table": [0, 1, 1, 0], "names": [1, 2]}, "'names' must be a list of 2 strings"),
    ({"table": [1, 0, 0, 1], "names": ["a"]}, "'names' must be a list of 2 strings"),
])
def test_malformed_table_specs_rejected(spec, message):
    with pytest.raises(ValueError, match=message):
        build_group(spec)


def test_conjugacy_classes_s3():
    g = build_group("symmetric:3")
    cls = g.conjugacy_classes()
    assert [c.size for c in cls] == [1, 3, 2]
    assert cls[0].members == (0,)
    assert {g.names[m] for m in cls[1].members} == {"(12)", "(13)", "(23)"}
    assert [c.centralizer.order for c in cls] == [6, 2, 3]


def test_class_sizes_partition_group():
    for spec in ["dihedral:4", "quaternion8", "symmetric:4", "dihedral:6"]:
        g = build_group(spec)
        assert sum(c.size for c in g.conjugacy_classes()) == g.order


FROZEN_Z2 = np.array([[1, 1], [1, -1]], dtype=complex)
FROZEN_Z3 = np.array([
    [1, 1, 1],
    [1, OMEGA, OMEGA ** 2],
    [1, OMEGA ** 2, OMEGA],
])
FROZEN_S3 = np.array([
    [1, 1, 1],
    [1, -1, 1],
    [2, 0, -1],
], dtype=complex)
# classes of S4 in order: e, transpositions, 3-cycles, double transpositions,
# 4-cycles; rows by (dim, descending character vector)
FROZEN_S4 = np.array([
    [1, 1, 1, 1, 1],
    [1, -1, 1, 1, -1],
    [2, 0, -1, 2, 0],
    [3, 1, 0, -1, -1],
    [3, -1, 0, -1, 1],
], dtype=complex)


def _s4_class_order_check(g):
    cls = g.conjugacy_classes()
    return [c.size for c in cls]


@pytest.mark.parametrize("spec,frozen", [
    ("cyclic:2", FROZEN_Z2),
    ("cyclic:3", FROZEN_Z3),
    ("symmetric:3", FROZEN_S3),
])
def test_character_table_frozen(spec, frozen):
    t = character_table(build_group(spec))
    assert np.allclose(t.chars, frozen, atol=1e-9)


def test_character_table_s4_frozen():
    g = build_group("symmetric:4")
    assert _s4_class_order_check(g) == [1, 6, 8, 3, 6]
    t = character_table(g)
    assert np.allclose(t.chars, FROZEN_S4, atol=1e-9)


@pytest.mark.parametrize("spec", [
    "cyclic:2", "cyclic:3", "cyclic:6", "cyclic:8",
    "dihedral:3", "dihedral:4", "dihedral:6",
    "symmetric:4", "quaternion8",
    "product:cyclic:2,cyclic:4", "product:cyclic:3,cyclic:3",
])
def test_character_table_invariants(spec):
    """Orthogonality, dimension sum rule, trivial row first."""
    g = build_group(spec)
    t = character_table(g)
    n, k = g.order, t.n_irreps
    assert k == len(g.conjugacy_classes())
    assert sum(d * d for d in t.dims) == n
    assert np.allclose(t.chars[0], np.ones(k), atol=1e-9)
    sizes = np.array([c.size for c in t.classes], dtype=float)
    gram = (t.chars * sizes) @ np.conj(t.chars.T) / n
    assert np.allclose(gram, np.eye(k), atol=1e-9)
    # determinism across a fresh build of the same group
    t2 = character_table(build_group(spec))
    assert np.allclose(t.chars, t2.chars, atol=1e-9)


def test_character_table_of_subgroup():
    g = build_group("symmetric:3")
    k3 = g.generated_subgroup([g.index_of("(123)")])
    t = character_table(k3)
    assert np.allclose(t.chars, FROZEN_Z3, atol=1e-9)


def test_character_multiplicities_regular_representation():
    g = build_group("symmetric:3")
    t = character_table(g)
    reg = [g.order] + [0] * (len(g.conjugacy_classes()) - 1)
    assert t.multiplicities(reg) == t.dims


def test_double_cosets_s3():
    g = build_group("symmetric:3")
    k = g.generated_subgroup([g.index_of("(12)")])
    dcs = double_cosets(k, k)
    assert sorted(dc.size for dc in dcs) == [2, 4]
    assert sum(dc.size for dc in dcs) == g.order
    for dc in dcs:
        assert dc.rep == min(dc.members)
        assert dc.size * dc.stabilizer.order == k.order * k.order


def test_double_cosets_mixed_subgroups():
    g = build_group("symmetric:3")
    k2 = g.generated_subgroup([g.index_of("(12)")])
    k3 = g.generated_subgroup([g.index_of("(123)")])
    dcs = double_cosets(k2, k3)
    assert [dc.size for dc in dcs] == [6]
    dcs = double_cosets(g.trivial_subgroup(), g.trivial_subgroup())
    assert len(dcs) == g.order


def test_left_cosets_partition():
    g = build_group("dihedral:4")
    k = g.generated_subgroup([g.index_of("r2")])
    cosets = k.left_cosets()
    assert len(cosets) == 4
    assert sorted(x for c in cosets for x in c) == list(range(8))


def test_automorphism_groups():
    assert len(enumerate_automorphisms(build_group("symmetric:3"))) == 6
    assert len(enumerate_automorphisms(build_group("cyclic:5"))) == 4
    assert len(enumerate_automorphisms(build_group("quaternion8"))) == 24
    assert len(enumerate_automorphisms(build_group("product:cyclic:2,cyclic:2"))) == 6


def test_inner_automorphisms_are_automorphisms():
    g = build_group("symmetric:3")
    for x in range(g.order):
        assert is_automorphism(g, inner_automorphism(g, x))


def test_automorphism_rejects_non_hom():
    g = build_group("cyclic:4")
    assert not is_automorphism(g, (0, 2, 1, 3))


def test_permutation_character_left_translation():
    """Left translation on cosets of the trivial subgroup is the regular character."""
    g = build_group("symmetric:3")
    action = [[g.mul(x, y) for y in range(g.order)] for x in range(g.order)]
    # left translation permutes columns: point y goes to x*y
    chi = permutation_character(g, action)
    assert chi == [g.order, 0, 0]


def test_subgroup_as_group_roundtrip():
    g = build_group("dihedral:6")
    k = g.generated_subgroup([g.index_of("r2"), g.index_of("s")])
    sub, to_parent = k.as_group()
    assert sub.order == k.order == 6
    for i in range(sub.order):
        for j in range(sub.order):
            assert to_parent[sub.mul(i, j)] == g.mul(to_parent[i], to_parent[j])


def test_canonical_key_identifies_conjugates():
    g = build_group("symmetric:3")
    a = g.generated_subgroup([g.index_of("(12)")])
    b = g.generated_subgroup([g.index_of("(13)")])
    assert a.elements != b.elements
    assert a.canonical_key() == b.canonical_key()


def test_subgroup_enumeration_cap():
    with pytest.raises(ValueError, match="capped"):
        enumerate_subgroups(build_group("cyclic:30"))


def test_bad_specs_rejected():
    for bad in ["symmetric:5", "cyclic:100", "frobnicate:7", "product:cyclic:2"]:
        with pytest.raises(ValueError):
            build_group(bad)
