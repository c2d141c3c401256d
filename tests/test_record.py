"""The library records keep the frozen-dataclass contract: construction
by position and keyword with defaults, validation on every construction,
equality only within one class, hashing, immutability and repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from monobound.chern_invariants import FamilySpec
from monobound.compat_bounds import ScanCertificate, c_d, refined_bound
from monobound.errors import ValidationError
from monobound.numtheory import FactoredInt
from monobound.variety_bounds import DVector, VarietyInvariants, bound
from monobound.wd_matrix import RationalMatrix, wd_pair


def k3():
    return VarietyInvariants(2, (0, 22), (-4,))


def all_records():
    """One instance of each of the nine record classes."""
    value, cert = c_d(2, 7)
    report = bound(k3(), 7)
    return [value, cert, refined_bound(2, 7), k3(), report.d_vector, report,
            FamilySpec("hypersurface", 2, (4,)),
            RationalMatrix.from_rows([[-1, 1], [0, -1]]),
            wd_pair(RationalMatrix.from_rows([[-1, 1], [0, -1]]), 1)]


def test_nine_distinct_record_classes():
    assert len({type(r) for r in all_records()}) == 9


def test_positional_keyword_and_default_construction():
    assert FactoredInt() == FactoredInt(()) == FactoredInt(factors=())
    assert FamilySpec("projective_space", 3) == FamilySpec(
        n=3, kind="projective_space", degrees=())
    assert FamilySpec("hypersurface", 2, degrees=(4,)).degrees == (4,)


@pytest.mark.parametrize("make, message", [
    (lambda: FamilySpec("projective_space"), "missing argument 'n'"),
    (lambda: VarietyInvariants(2, (0, 22)), "missing argument 'c'"),
    (lambda: FactoredInt((), ()), "takes at most 1 positional arguments, got 2"),
    (lambda: DVector((1,), entries=(1,)), "unexpected or repeated argument 'entries'"),
    (lambda: FamilySpec("projective_space", 3, dim=3),
     "unexpected or repeated argument 'dim'"),
])
def test_missing_or_unknown_argument_is_a_type_error(make, message):
    with pytest.raises(TypeError, match=message):
        make()


def test_equality_only_within_one_class():
    assert DVector((1,)) == DVector((1,))
    assert DVector((1,)) != DVector((2,))
    assert DVector((1,)) != FactoredInt(((2, 1),))
    assert DVector((2,)) != FactoredInt(((2, 1),))
    assert FactoredInt(((2, 1),)) != ((2, 1),)
    assert DVector((1,)) != ((1,),)
    assert DVector((1,)) != (1,)
    records = all_records()
    for a, b in zip(records, all_records()):
        assert a == b and not a != b
        assert all(a != c for c in records if c is not a)


def test_equal_records_hash_alike():
    for a, b in zip(all_records(), all_records()):
        assert a is not b and hash(a) == hash(b)
    assert len({FactoredInt(), FactoredInt(()), FactoredInt(((2, 1),))}) == 2


@pytest.mark.parametrize("record", all_records(), ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned_or_deleted(record):
    field = type(record).__slots__[0]
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        delattr(record, field)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before


def test_dataclass_style_repr():
    assert repr(FactoredInt(((2, 4), (3, 1)))) == "FactoredInt(factors=((2, 4), (3, 1)))"
    assert repr(FamilySpec("projective_space", 3)) == (
        "FamilySpec(kind='projective_space', n=3, degrees=())")
    assert repr(k3()) == "VarietyInvariants(n=2, b=(0, 22), c=(-4,))"
    assert repr(ScanCertificate(2, None, 2, ((2, 3), (3, None)), False)) == (
        "ScanCertificate(d=2, excluded_p=None, primes_scanned=2, "
        "witnesses=((2, 3), (3, None)), stable=False)")
    assert repr(RationalMatrix(((1,),), 2)) == "RationalMatrix(num=((1,),), den=2)"


def test_validation_runs_on_every_construction():
    with pytest.raises(ValidationError, match="4 is not prime"):
        FactoredInt(((4, 1),))
    with pytest.raises(ValidationError, match="strictly increasing"):
        FactoredInt(factors=((3, 1), (2, 1)))
    with pytest.raises(ValidationError, match="square"):
        RationalMatrix(((Fraction(1), Fraction(2)),))
    with pytest.raises(ValidationError, match="expected 2 Betti entries"):
        VarietyInvariants(2, (22,), (-4,))
    with pytest.raises(ValidationError, match="section characteristics"):
        VarietyInvariants(n=2, b=(0, 22), c=())
    with pytest.raises(ValidationError, match="unknown family kind"):
        FamilySpec("torus", 1)


def test_a_matrix_is_normalized_once_at_construction():
    # equal matrices are equal records, whatever numerators and denominator
    # they were given, and so they hash alike
    a = RationalMatrix(((2, 4), (6, 8)), -2)
    b = RationalMatrix(((-1, -2), (-3, -4)))
    assert a == b and hash(a) == hash(b) and repr(a) == repr(b)
    assert RationalMatrix.from_rows([[Fraction(1, 2), Fraction(1, 3)]] * 2) == (
        RationalMatrix(((3, 2), (3, 2)), 6))


def test_copy_and_pickle_rebuild_an_equal_record():
    for record in all_records():
        for clone in (copy.copy(record), copy.deepcopy(record),
                      pickle.loads(pickle.dumps(record))):
            assert clone == record and type(clone) is type(record)
