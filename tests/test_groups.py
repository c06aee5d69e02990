"""Group-layer tests: presets, censuses, character tables, double cosets."""

import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import qdw.characters as characters
from qdw.characters import CharacterTable, character_table
from qdw.groups import (
    FiniteGroup,
    InvariantError,
    Subgroup,
    _breadth_first,
    build_group,
    double_cosets,
)
from qdw.subgroups import (
    MAX_SUBGROUP_ENUM_ORDER,
    _cmd_subgroups,
    boundary_types,
    enumerate_automorphisms,
    enumerate_subgroups,
    inner_automorphism,
    is_automorphism,
)

from matrices import chars

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


def test_associativity_error_names_the_first_failing_triple():
    """Light's test finds the failure; the message names the first triple of the full sweep."""
    tbl = [[0, 1, 2, 3, 4],
           [1, 0, 3, 4, 2],
           [2, 4, 0, 1, 3],
           [3, 2, 4, 0, 1],
           [4, 3, 1, 2, 0]]
    first = next(t for t in itertools.product(range(5), repeat=3)
                 if tbl[tbl[t[0]][t[1]]][t[2]] != tbl[t[0]][tbl[t[1]][t[2]]])
    with pytest.raises(ValueError, match=re.escape(f"at triple {first}")):
        FiniteGroup(tbl)


def test_rows_are_integer_tuples_and_the_array_is_built_on_first_access():
    g = build_group("symmetric:3")
    assert isinstance(g.rows, tuple) and isinstance(g.inv, tuple)
    assert all(type(x) is int for row in g.rows for x in row)
    assert "table" not in vars(g)
    assert g.table.dtype == np.int64
    assert g.table.tolist() == [list(row) for row in g.rows]
    assert all(g.mul(a, g.inverse(a)) == 0 for a in range(g.order))


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
    sizes = [[s.order for s in bt.members] for bt in boundary_types(g)]
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



def test_one_subgroup_object_per_element_set():
    g = build_group("symmetric:4")
    subs = enumerate_subgroups(g)
    by_elements = {s.elements: s for s in subs}
    assert all(a is b for a, b in zip(enumerate_subgroups(g), subs))
    assert g.subgroup(reversed(subs[5].elements)) is subs[5]
    assert g.trivial_subgroup() is subs[0] and g.full_subgroup() is subs[-1]
    assert g.generated_subgroup([g.index_of("(123)")]) is by_elements[
        g.generated_subgroup([g.index_of("(132)")]).elements]
    for cl in g.conjugacy_classes():
        assert cl.centralizer is by_elements[cl.centralizer.elements]
    for dc in double_cosets(subs[3], subs[7]):
        assert dc.stabilizer is by_elements[dc.stabilizer.elements]
    assert subs[3].conjugate_by(5) is by_elements[subs[3].conjugate_by(5).elements]
    with pytest.raises(ValueError):
        g.subgroup((0, 3))
    assert (0, 3) not in by_elements


def test_defect_sum_rule_builds_one_character_table_per_subgroup(monkeypatch):
    from qdw.verify import run_check
    built = []
    real = characters.CharacterTable.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        real(self, *args, **kwargs)
    monkeypatch.setattr(characters.CharacterTable, "__init__", counted)
    g = build_group("symmetric:4")
    assert run_check("defect-sum-rule", g).status == "pass"
    assert 0 < len(built) <= len(enumerate_subgroups(g))


def test_verify_all_runs_the_subgroup_search_once(monkeypatch):
    """Six checks list the subgroups; only the first call searches."""
    import qdw.groups as groups
    from qdw.verify import verify_group
    searches = []
    real = groups.FiniteGroup.generated_subgroup

    def counted(self, generators):
        searches.append(self)
        return real(self, generators)
    monkeypatch.setattr(groups.FiniteGroup, "generated_subgroup", counted)
    enumerate_subgroups(build_group("symmetric:4"))
    one_search = len(searches)
    searches.clear()
    assert all(r.status != "fail" for r in verify_group(build_group("symmetric:4")))
    assert one_search <= len(searches) < 2 * one_search


def test_enumerated_list_is_a_fresh_copy():
    g = build_group("dihedral:4")
    enumerate_subgroups(g).clear()
    assert len(enumerate_subgroups(g)) == 10

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
    assert np.allclose(chars(t), frozen, atol=1e-9)


def test_character_table_s4_frozen():
    g = build_group("symmetric:4")
    assert _s4_class_order_check(g) == [1, 6, 8, 3, 6]
    t = character_table(g)
    assert np.allclose(chars(t), FROZEN_S4, atol=1e-9)


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
    assert np.allclose(chars(t)[0], np.ones(k), atol=1e-9)
    sizes = np.array([c.size for c in t.classes], dtype=float)
    gram = (chars(t) * sizes) @ np.conj(chars(t).T) / n
    assert np.allclose(gram, np.eye(k), atol=1e-9)
    # determinism across a fresh build of the same group
    t2 = character_table(build_group(spec))
    assert np.allclose(chars(t), chars(t2), atol=1e-9)


def test_character_table_of_subgroup():
    g = build_group("symmetric:3")
    k3 = g.generated_subgroup([g.index_of("(123)")])
    t = character_table(k3)
    assert np.allclose(chars(t), FROZEN_Z3, atol=1e-9)


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
    cosets = [dc.members for dc in double_cosets(g.trivial_subgroup(), k)]
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
    [bt] = [bt for bt in boundary_types(g) if a in bt.members]
    assert b in bt.members
    assert bt.rep is min(bt.members, key=lambda s: s.elements)


def test_subgroup_enumeration_cap():
    with pytest.raises(ValueError, match="capped"):
        enumerate_subgroups(build_group("cyclic:30"))


def test_bad_specs_rejected():
    for bad in ["symmetric:5", "cyclic:100", "frobnicate:7", "product:cyclic:2"]:
        with pytest.raises(ValueError):
            build_group(bad)


# ---------------------------------------------------------------------------
# exact character tables against the float route they replaced


def float_character_table(group):
    """Reference: the float eigen route of `character_table` before its values
    were exact, verbatim except that it returns the sorted complex rows."""
    classes = group.conjugacy_classes()
    k = len(classes)
    n = group.order
    class_of = [group.class_index_of(a) for a in range(n)]
    # structure constants a_{ijl}: K_i K_j = sum_l a_{ijl} K_l; the vector
    # (|C_l| chi(g_l) / d)_l is a joint right eigenvector of the matrices
    # (A_i)[j, l] = a_{ijl}
    mats = np.zeros((k, k, k), dtype=float)
    for l, cl in enumerate(classes):
        z = cl.rep
        for i, ci in enumerate(classes):
            for x in ci.members:
                j = class_of[int(group.table[group.inv[x], z])]
                mats[i, j, l] += 1.0
    eigvecs = None
    for seed in range(24):
        rng = np.random.default_rng(seed)
        coeffs = rng.normal(size=k)
        m = np.tensordot(coeffs, mats, axes=(0, 0))
        vals, vecs = np.linalg.eig(m)
        sep = np.abs(vals[:, None] - vals[None, :])
        np.fill_diagonal(sep, np.inf)
        if k == 1 or sep.min() > 1e-6:
            eigvecs = vecs
            break
    if eigvecs is None:
        raise InvariantError("class-sum diagonalization failed to separate eigenvalues")
    rows = []
    sizes = np.array([c.size for c in classes], dtype=float)
    for idx in range(k):
        v = eigvecs[:, idx]
        m0 = int(np.argmax(np.abs(v)))
        lam = np.array([(mats[i] @ v)[m0] / v[m0] for i in range(k)])
        denom = float(np.sum(np.abs(lam) ** 2 / sizes).real)
        d = (n / denom) ** 0.5
        di = int(round(d))
        if di < 1 or abs(d - di) > 1e-6:
            raise InvariantError(f"irrep dimension {d} did not round to a positive integer")
        chi = di * lam / sizes
        rows.append((di, chi))
    # canonical order: dimension asc, then character vector descending lex
    def row_key(item):
        di, chi = item
        vec = tuple((-round(z.real, 6), -round(z.imag, 6)) for z in chi)
        return (di, vec)
    rows.sort(key=row_key)
    chars = np.array([chi for _, chi in rows])
    gram = (chars * sizes) @ np.conj(chars.T) / n
    if not np.allclose(gram, np.eye(chars.shape[0]), atol=1e-9):
        raise InvariantError("character rows are not orthonormal within 1e-9")
    col = np.conj(chars.T) @ chars
    expected = np.diag(n / sizes)
    if not np.allclose(col, expected, atol=1e-9 * n):
        raise InvariantError("character columns fail the second orthogonality relation")
    return chars


ORACLE_PRESETS = ([f"cyclic:{n}" for n in (1, 2, 3, 4, 5, 6, 8, 9, 12, 16, 24, 48)]
                  + [f"dihedral:{n}" for n in (1, 2, 3, 4, 5, 6, 8, 12, 24)]
                  + ["symmetric:2", "symmetric:3", "symmetric:4", "quaternion8",
                     "product:cyclic:2,cyclic:2", "product:cyclic:2,cyclic:4",
                     "product:cyclic:3,cyclic:3", "product:cyclic:2,symmetric:3",
                     "product:cyclic:2,symmetric:4", "product:quaternion8,symmetric:3",
                     "product:cyclic:4,cyclic:12"])


def relabelled_table(spec, perm):
    """The preset's table spec with element a renamed perm[a]."""
    g = build_group(spec)
    n = g.order
    table = [0] * (n * n)
    names = [""] * n
    for a in range(n):
        names[perm[a]] = g.names[a]
        for b in range(n):
            table[perm[a] * n + perm[b]] = perm[g.mul(a, b)]
    return {"order": n, "table": table, "names": names}


def relabelled_group(spec, perm):
    """The preset's table with element a renamed perm[a]."""
    return build_group(relabelled_table(spec, perm))


@settings(max_examples=80, derandomize=True, deadline=None)
@given(st.data())
def test_exact_table_matches_the_float_route(data):
    """Same rows in the same order, values within 1e-9, on presets and relabellings."""
    spec = data.draw(st.sampled_from(ORACLE_PRESETS))
    group = build_group(spec)
    if data.draw(st.booleans()):
        group = relabelled_group(spec, data.draw(st.permutations(range(group.order))))
    exact = character_table(group)
    ref = float_character_table(group)
    assert chars(exact).shape == ref.shape
    assert np.abs(chars(exact) - ref).max() < 1e-9
    assert exact.dims == [int(round(x.real)) for x in ref[:, 0]]


@pytest.mark.parametrize("spec", ["symmetric:4", "cyclic:12", "quaternion8",
                                  "product:cyclic:2,symmetric:4"])
def test_exact_values_are_eigenvalue_spectra(spec):
    """Each value is a sum of dim roots of unity of the element's order."""
    t = character_table(build_group(spec))
    for row, dim in zip(t.spectra, t.dims):
        assert row[0] == (0,) * dim
        for s, o in zip(row, t.orders):
            assert len(s) == dim and list(s) == sorted(s) and all(0 <= j < o for j in s)
    assert t.character([1] * t.n_irreps)[0] == sum(t.dims)


def test_exact_table_check_rejects_swapped_rows():
    t = character_table(build_group("symmetric:4"))
    broken = CharacterTable(t.group, [t.spectra[1], t.spectra[0]] + t.spectra[2:])
    with pytest.raises(InvariantError, match="canonical order"):
        characters._check_table(broken)


def test_exact_table_check_rejects_rows_swapped_at_one_class():
    # the two 3-dimensional rows of S4 exchange their 4-cycle values: the rows
    # stay in canonical order but are no longer orthogonal to the trivial row
    t = character_table(build_group("symmetric:4"))
    spectra = [list(row) for row in t.spectra]
    spectra[3][4], spectra[4][4] = spectra[4][4], spectra[3][4]
    with pytest.raises(InvariantError, match="orthonormal"):
        characters._check_table(CharacterTable(t.group, spectra))


def test_exact_table_rejects_a_wrong_lift(monkeypatch):
    real = characters._lift

    def shifted(powers, dim, dft, p):
        spectrum = real(powers, dim, dft, p)
        return tuple(sorted((j + 1) % len(dft) for j in spectrum))
    monkeypatch.setattr(characters, "_lift", shifted)
    with pytest.raises(InvariantError, match="does not reduce"):
        character_table(build_group("symmetric:3"))


def test_multiplicities_are_exact_and_checked():
    s3 = character_table(build_group("symmetric:3"))
    assert s3.multiplicities([3, 1, 0]) == [1, 0, 1]       # S3 on three points
    with pytest.raises(InvariantError, match="1/2 is not a non-negative integer"):
        s3.multiplicities([1, 0, 1])
    with pytest.raises(InvariantError, match="-1 is not a non-negative integer"):
        s3.multiplicities([0, 2, 0])                    # trivial minus sign
    c3 = character_table(build_group("cyclic:3"))
    # not constant on the rational class {1, 2}: no integer multiplicities
    with pytest.raises(InvariantError, match="rational classes"):
        c3.multiplicities([1, 1, 0])
    with pytest.raises(InvariantError, match="not integer-valued"):
        c3.character([0, 1, 0])
    assert c3.character([0, 1, 1]) == [2, -1, -1]


# ---------------------------------------------------------------------------
# the orbit partitions against brute-force conjugation

SUBGROUP_PRESETS = [s for s in ORACLE_PRESETS
                    if build_group(s).order <= MAX_SUBGROUP_ENUM_ORDER]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(st.data())
def test_partitions_are_the_conjugation_orbits(data):
    """Boundary types, the `normal` column of the `subgroups` report and
    the element classes are the orbits of conjugation by every element,
    each led by its least member, on presets and relabellings."""
    spec = data.draw(st.sampled_from(SUBGROUP_PRESETS))
    if data.draw(st.booleans()):
        spec = relabelled_table(spec, data.draw(st.permutations(range(build_group(spec).order))))
    group = build_group(spec)
    everyone = range(group.order)
    subs = enumerate_subgroups(group)
    types = boundary_types(group)
    assert sorted((m for bt in types for m in bt.members), key=lambda s: s.elements) == \
        sorted(subs, key=lambda s: s.elements)
    for bt in types:
        for sub in bt.members:
            assert set(bt.members) == {sub.conjugate_by(g) for g in everyone}
        assert list(bt.members) == sorted(bt.members, key=lambda s: s.elements)
        assert bt.rep is bt.members[0]
    # a fresh list on each call, as enumerate_subgroups gives
    again = boundary_types(group)
    assert again == types and again is not types
    types.pop()
    assert len(boundary_types(group)) == len(again)

    results, _, _ = _cmd_subgroups(SimpleNamespace(group=spec))   # `qdw subgroups --group`
    assert len(results["subgroups"]) == len(subs)
    for row, sub in zip(results["subgroups"], subs):
        assert row["elements"] == [group.name_of(x) for x in sub.elements]
        assert row["normal"] == all(sub.conjugate_by(g) == sub for g in everyone)

    classes = group.conjugacy_classes()
    assert sorted(m for cl in classes for m in cl.members) == list(everyone)
    for cl in classes:
        orbit = {group.conj(g, cl.rep) for g in everyone}
        assert cl.members == tuple(sorted(orbit))
        assert cl.rep == min(orbit)
