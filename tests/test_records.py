"""Record semantics that the code and the other tests rely on.

Records are plain classes: constructed by position or keyword with
defaults, compared field by field within one class, and, when frozen,
hashable by their fields and closed to attribute assignment.
"""

from fractions import Fraction

import pytest

from qdw.classify import AnyonLabel, abelian_anyon_data, anyon_table
from qdw.cli import RunConfig
from qdw.geometry import BoundaryRegion
from qdw.groups import ConjugacyClass, DoubleCoset, build_group, double_cosets
from qdw.lattice import PairCheck
from qdw.logical import FrameProjector, LogicalAction, StringOperator
from qdw.records import FrozenRecord, Ratio, Record
from qdw.verify import CheckResult

S3 = build_group("symmetric:3")
CENTRALIZER = S3.trivial_subgroup()

# (class, positional args, keyword args for the same record, one field changed)
FROZEN = [
    (BoundaryRegion, ("outer", (0, 1), (2,), ()),
     {"name": "outer", "rim_vertices": (0, 1), "rim_edges": (2,)}, ("name", "inner")),
    (LogicalAction, (3, (1, 2, 0), (0, 1, 2)),
     {"n": 3, "perm": (1, 2, 0), "phase_exp": (0, 1, 2)}, ("phase_exp", (0, 1, 1))),
    (StringOperator, (3, (1, 0), (0, 2), 0),
     {"n": 3, "shift": (1, 0), "phase": (0, 2)}, ("offset", 1)),
    (FrameProjector, ((1, 0, 0),), {"diagonal": (1, 0, 0)}, ("diagonal", (0, 1, 0))),
    (RunConfig, ("anyons", "cyclic:2", None, None, None, "json", 1e-10, None, None),
     {"command": "anyons", "group": "cyclic:2"}, ("format", "csv")),
    (ConjugacyClass, (0, (0,), CENTRALIZER),
     {"rep": 0, "members": (0,), "centralizer": CENTRALIZER}, ("members", (0, 1))),
    (DoubleCoset, (0, (0,), CENTRALIZER),
     {"rep": 0, "members": (0,), "stabilizer": CENTRALIZER}, ("rep", 1)),
    (AnyonLabel, (0, 1, "A1", 1, Ratio(0)),
     {"class_index": 0, "irrep_index": 1, "name": "A1", "dim": 1, "spin": Ratio(0)},
     ("spin", Ratio(1, 2))),
]
IDS = [cls.__name__ for cls, *_ in FROZEN]


@pytest.mark.parametrize("cls,args,kwargs,change", FROZEN, ids=IDS)
def test_frozen_record_builds_by_position_and_keyword_with_defaults(cls, args, kwargs,
                                                                    change):
    by_position, by_keyword = cls(*args), cls(**kwargs)
    assert issubclass(cls, FrozenRecord)
    assert by_position == by_keyword
    assert not by_position != by_keyword
    assert tuple(getattr(by_keyword, name) for name in cls._fields) == args


@pytest.mark.parametrize("cls,args,kwargs,change", FROZEN, ids=IDS)
def test_frozen_record_compares_and_hashes_by_its_fields(cls, args, kwargs, change):
    rec = cls(*args)
    name, value = change
    other = cls(**{**dict(zip(cls._fields, args)), name: value})
    assert rec != other
    assert not rec == other
    assert hash(rec) == hash(cls(*args)) == hash(args)
    assert len({rec, cls(*args), other}) == 2
    assert rec != args   # a record never equals a bare tuple of its fields


@pytest.mark.parametrize("cls,args,kwargs,change", FROZEN, ids=IDS)
def test_frozen_record_rejects_assignment_and_deletion(cls, args, kwargs, change):
    rec = cls(*args)
    name, value = change
    with pytest.raises(AttributeError, match="cannot assign"):
        setattr(rec, name, value)
    with pytest.raises(AttributeError, match="cannot assign"):
        rec.unlisted = 1
    with pytest.raises(AttributeError, match="cannot delete"):
        delattr(rec, name)
    assert getattr(rec, name) == args[cls._fields.index(name)]


@pytest.mark.parametrize("cls,args,kwargs,change", FROZEN, ids=IDS)
def test_constructor_rejects_missing_and_unknown_fields(cls, args, kwargs, change):
    with pytest.raises(TypeError):
        cls()
    with pytest.raises(TypeError):
        cls(*args, unlisted=1)


def test_repr_names_the_class_and_every_field():
    assert repr(BoundaryRegion("outer", (0,), (1,))) == (
        "BoundaryRegion(name='outer', rim_vertices=(0,), rim_edges=(1,), dangling_edges=())")
    assert repr(LogicalAction(2, (1, 0), (0, 1))) == (
        "LogicalAction(n=2, perm=(1, 0), phase_exp=(0, 1))")
    assert repr(CheckResult("x", "pass", "ok")) == (
        "CheckResult(name='x', status='pass', detail='ok')")


def test_string_operator_checks_register_counts():
    with pytest.raises(ValueError, match="phase has 1 registers, shift has 2"):
        StringOperator(3, (0, 1), (2,))


def test_mutable_records_compare_by_value_and_are_unhashable():
    a, b = PairCheck("A", "B", True), PairCheck("A", "B", True, residual_norm=None)
    assert a == b and a.residual_norm is None
    b.commutes = False
    assert a != b
    for rec in (a, CheckResult("x", "pass", "ok")):
        with pytest.raises(TypeError):
            hash(rec)
    assert isinstance(a, Record) and not isinstance(a, FrozenRecord)
    with pytest.raises(AttributeError):
        a.unlisted = 1   # slotted: only the fields exist


def test_records_of_different_classes_never_compare_equal():
    assert ConjugacyClass(0, (0,), CENTRALIZER) != DoubleCoset(0, (0,), CENTRALIZER)
    assert CheckResult("x", "pass", "ok") != ("x", "pass", "ok")


def test_group_records_built_by_the_library_compare_equal_across_calls():
    classes = S3.conjugacy_classes()
    assert [ConjugacyClass(c.rep, c.members, c.centralizer) for c in classes] == list(classes)
    k = S3.subgroup((0, 1))
    assert double_cosets(k, k) == tuple(DoubleCoset(d.rep, d.members, d.stabilizer)
                                        for d in double_cosets(k, k))
    labels = anyon_table(S3).anyons
    assert len(set(labels)) == len(labels)


def test_abelian_anyon_data_caches_its_derived_tables():
    data = abelian_anyon_data(build_group("cyclic:3"))
    assert "s_phases" not in vars(data)
    for name in ("charge_exponents", "s_phases"):
        assert getattr(data, name) is getattr(data, name)
        assert name in vars(data)


def test_ratio_reduces_and_prints_as_fraction_does():
    for num in range(-13, 14):
        for den in (-12, -7, -3, -1, 1, 2, 3, 4, 9, 12):
            r, f = Ratio(num, den), Fraction(num, den)
            assert (r.numerator, r.denominator) == (f.numerator, f.denominator)
            assert str(r) == str(f)
    assert Ratio(4, 3) == Ratio(8, 6) and hash(Ratio(4, 3)) == hash(Ratio(-8, -6))
    with pytest.raises(ZeroDivisionError):
        Ratio(1, 0)
