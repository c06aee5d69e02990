"""Record semantics that the code and the other tests rely on.

Records are plain classes: constructed by position or keyword with
defaults, compared field by field within one class, and, when frozen,
hashable by their fields and closed to attribute assignment.
"""

import ast
import importlib
import inspect
import pkgutil
from fractions import Fraction
from pathlib import Path

import pytest

import qdw
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


# ---------------------------------------------------------------------------
# every record class in qdw, found by walking its modules

SOURCES = sorted(Path(qdw.__file__).parent.glob("*.py"))


def _record_classes() -> list[type]:
    found = {}
    for info in pkgutil.iter_modules(qdw.__path__):
        module = importlib.import_module(f"qdw.{info.name}")
        for obj in vars(module).values():
            if (isinstance(obj, type) and issubclass(obj, Record) and obj._fields
                    and obj.__module__ == module.__name__):
                found[obj.__qualname__] = obj
    return [found[name] for name in sorted(found)]


RECORDS = _record_classes()
# field values for the classes whose constructor computes or checks them
SAMPLES = {"Ratio": (3, 4), "StringOperator": (3, (1, 0), (0, 2), 1)}


def _sample(cls) -> tuple:
    return SAMPLES.get(cls.__qualname__, tuple(f"<{name}>" for name in cls._fields))


def _declared_defaults(cls) -> dict:
    """`_defaults`, or the signature's defaults where the class keeps its own `__init__`."""
    if "__init__" not in vars(cls):
        return cls._defaults
    params = list(inspect.signature(cls.__init__).parameters.values())[1:]
    return {p.name: p.default for p in params if p.default is not p.empty}


def _classes_assigning_fields(tree: ast.Module) -> list[ast.ClassDef]:
    return [node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
            and any(isinstance(stmt, ast.Assign)
                    and any(getattr(t, "id", None) == "_fields" for t in stmt.targets)
                    for stmt in node.body)]


def test_discovery_finds_every_class_that_declares_fields():
    declared = sorted(cls.name for path in SOURCES
                      for cls in _classes_assigning_fields(ast.parse(path.read_text())))
    assert [cls.__qualname__ for cls in RECORDS] == declared
    assert {"HamiltonianTerm", "PairCheck", "CheckResult", *IDS} <= set(declared)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_builds_alike_by_position_and_keyword(cls):
    args = _sample(cls)
    by_position, by_keyword = cls(*args), cls(**dict(zip(cls._fields, args)))
    assert by_position == by_keyword
    assert tuple(getattr(by_keyword, name) for name in cls._fields) == args


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_fills_the_fields_left_out_from_its_defaults(cls):
    defaults = _declared_defaults(cls)
    assert set(defaults) <= set(cls._fields)
    given = {name: value for name, value in zip(cls._fields, _sample(cls))
             if name not in defaults}
    rec = cls(**given)
    assert rec == cls(**given, **defaults)
    if "__init__" not in vars(cls):
        assert all(getattr(rec, name) == value for name, value in defaults.items())
    # every default trails the fields without one, so a call by position may stop early
    assert cls._fields[:len(given)] == tuple(given)
    assert cls(*given.values()) == rec


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_rejects_missing_repeated_and_unknown_fields(cls):
    args = _sample(cls)
    named = dict(zip(cls._fields, args))
    defaults = _declared_defaults(cls)
    # none, one too many, unknown by keyword, the first field twice
    calls = [((), {}), (args + (None,), {}), (args, {"unlisted": 1}),
             ((), {**named, "unlisted": 1}), (args, {cls._fields[0]: args[0]})]
    for name in cls._fields:   # each field without a default left out, or swapped out
        if name not in defaults:
            rest = {k: v for k, v in named.items() if k != name}
            calls += [((), rest), ((), {**rest, "unlisted": 1})]
    for values, kwargs in calls:
        with pytest.raises(TypeError):
            cls(*values, **kwargs)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__qualname__)
def test_record_repr_names_every_field(cls):
    rec = cls(*_sample(cls))
    fields = ", ".join(f"{name}={getattr(rec, name)!r}" for name in cls._fields)
    assert repr(rec) == f"{cls.__qualname__}({fields})"


def _only_forwards(init: ast.FunctionDef) -> bool:
    """Whether the whole body is `super().__init__(<its own parameters>)`."""
    params = [arg.arg for arg in init.args.args[1:]]
    if len(init.body) != 1 or not isinstance(init.body[0], ast.Expr):
        return False
    call = init.body[0].value
    return (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)
            and call.func.attr == "__init__" and isinstance(call.func.value, ast.Call)
            and getattr(call.func.value.func, "id", None) == "super"
            and not call.keywords
            and [getattr(arg, "id", None) for arg in call.args] == params)


def test_no_record_class_keeps_a_constructor_that_only_forwards():
    forwarding = [f"{path.name}:{cls.name}" for path in SOURCES
                  for cls in _classes_assigning_fields(ast.parse(path.read_text()))
                  for init in cls.body
                  if isinstance(init, ast.FunctionDef) and init.name == "__init__"
                  and _only_forwards(init)]
    assert forwarding == []
