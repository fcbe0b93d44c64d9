"""The contract of the package's frozen value classes (errors.Frozen)."""

import copy
import pickle

import pytest

from seaweeds.compositions import Composition, SeaweedType
from seaweeds.enumeration import IndexTable
from seaweeds.errors import Frozen
from seaweeds.formulas import IdentityAuditRow
from seaweeds.genfunc import RationalGF
from seaweeds.meander import ComponentSummary, Meander
from seaweeds.verify import CheckResult, VerifySuiteReport
from seaweeds.winding import HomotopyType, Move, Signature

CHECK = CheckResult("c", True, "ok", 0.5)

# class, field names, field values, and the repr the classes have always had
VALUES = [
    (Composition, ("parts",), ((2, 1),), "Composition(parts=(2, 1))"),
    (SeaweedType, ("top", "bottom"), (Composition((2,)), Composition((1, 1))),
     "SeaweedType(top=Composition(parts=(2,)), bottom=Composition(parts=(1, 1)))"),
    (Meander, ("n", "top_edges", "bottom_edges"), (2, ((1, 2),), ()),
     "Meander(n=2, top_edges=((1, 2),), bottom_edges=())"),
    (ComponentSummary, ("cycles", "paths", "components"), (0, 1, ((1, 2),)),
     "ComponentSummary(cycles=0, paths=1, components=((1, 2),))"),
    (Move, ("tag", "size"), ("C", 3), "Move(tag='C', size=3)"),
    (Signature, ("moves",), ((Move("F"), Move("C", 1)),),
     "Signature(moves=(Move(tag='F', size=None), Move(tag='C', size=1)))"),
    (HomotopyType, ("components",), ((2, 1),), "HomotopyType(components=(2, 1))"),
    (IndexTable, ("kind", "rows"), ("cnk", {1: {0: 1}}),
     "IndexTable(kind='cnk', rows={1: {0: 1}})"),
    (IdentityAuditRow,
     ("n", "lhs", "rhs_stated", "stated_ok", "rhs_fitted", "fitted_ok"),
     (1, 2, 3, False, 2, True),
     "IdentityAuditRow(n=1, lhs=2, rhs_stated=3, stated_ok=False, "
     "rhs_fitted=2, fitted_ok=True)"),
    (RationalGF, ("numerator", "denominator"), ((0, 1), (1, -2)),
     "RationalGF(numerator=(0, 1), denominator=(1, -2))"),
    (CheckResult, ("name", "passed", "detail", "elapsed"), ("c", True, "ok", 0.5),
     "CheckResult(name='c', passed=True, detail='ok', elapsed=0.5)"),
    (VerifySuiteReport, ("suite", "checks"), ("s", (CHECK,)),
     "VerifySuiteReport(suite='s', checks=(CheckResult(name='c', passed=True, "
     "detail='ok', elapsed=0.5),))"),
]


def cases(*skip):
    """VALUES as pytest parameters, less the classes in skip."""
    return pytest.mark.parametrize(
        "cls, names, values, text",
        [pytest.param(*case, id=case[0].__name__)
         for case in VALUES if case[0] not in skip])


def twin(cls, names):
    """A class of the same name and fields as cls, but another class."""
    def __init__(self, *values):
        for name, value in zip(names, values):
            object.__setattr__(self, name, value)
    return type(cls.__name__, (Frozen,), {"__slots__": names, "__init__": __init__})


def with_field(value, name, new):
    """A copy of value, built without __init__, with one field replaced."""
    other = object.__new__(type(value))
    for slot in type(value).__slots__:
        object.__setattr__(other, slot, new if slot == name else getattr(value, slot))
    return other


@cases()
def test_construction_and_repr(cls, names, values, text):
    value = cls(*values)
    assert value == cls(**dict(zip(names, values)))
    assert tuple(getattr(value, name) for name in names) == values
    assert repr(value) == text


def test_move_size_defaults_to_none():
    assert Move("F") == Move("F", None) == Move(tag="F")
    assert Move("F").size is None


@cases(IndexTable)
def test_equal_values_hash_equal(cls, names, values, text):
    a, b = cls(*values), cls(*copy.deepcopy(values))
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_index_table_is_unhashable():
    with pytest.raises(TypeError):
        hash(IndexTable("cnk", {1: {0: 1}}))


@cases()
def test_another_class_with_the_same_fields_is_unequal(cls, names, values, text):
    value, other = cls(*values), twin(cls, names)(*values)
    assert value != other and other != value
    assert value != values and value != values[0]


@cases(HomotopyType)  # its eq is on the multiset, below
def test_every_field_takes_part_in_eq(cls, names, values, text):
    value = cls(*values)
    for name in names:
        assert with_field(value, name, object()) != value, name


def test_homotopy_types_compare_as_multisets():
    h = HomotopyType((2, 1, 2))
    assert h == HomotopyType((1, 2, 2)) and hash(h) == hash(HomotopyType((2, 2, 1)))
    assert h != HomotopyType((1, 2)) and h != HomotopyType((1, 2, 2, 2))
    assert h.components == (2, 1, 2) and h.canonical() == (1, 2, 2)


def test_derived_fields_stay_out_of_eq_hash_and_repr():
    move = Move("C", 3)
    assert str(move) == "C(3)"
    other = with_field(move, "_text", "other text")
    assert other == move and hash(other) == hash(move)
    assert repr(other) == repr(move) == "Move(tag='C', size=3)"
    h = HomotopyType((3, 1))
    assert repr(h) == "HomotopyType(components=(3, 1))"
    # derived fields are rebuilt by __init__, not pickled
    assert b"C(3)" not in pickle.dumps(move) and str(copy.copy(move)) == "C(3)"
    assert pickle.loads(pickle.dumps(h)).canonical() == (1, 3)


@cases()
def test_fields_refuse_assignment_and_deletion(cls, names, values, text):
    value = cls(*values)
    for name in (*names, *cls.__slots__, "unknown"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert tuple(getattr(value, name) for name in names) == values


@cases()
def test_pickle_and_copy_round_trip(cls, names, values, text):
    value = cls(*values)
    for other in (pickle.loads(pickle.dumps(value)), copy.copy(value),
                  copy.deepcopy(value)):
        assert type(other) is cls and other == value
        assert repr(other) == text
