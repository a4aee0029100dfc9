"""The contract of the small value types: equality, hashing, repr,
frozenness and validation errors, as their callers and outputs read them."""

import copy
import pickle

import pytest

from hfsurgery.cfk import HatA, HatB, ValidationIssue, ValidationReport
from hfsurgery.f2 import DimensionError, F2Matrix
from hfsurgery.knots import RandomSpec
from hfsurgery.obstructions import ObstructionVerdict
from hfsurgery.surgery import HypothesisReport, RankReport, Slope, SlopeError

ISSUE = ValidationIssue("empty", "complex has no generators")
RUNS = ((0, 2, True), (2, 1, False))
VERDICT = ("cosmetic", ("1/2", "3/2"), (5, 7), "obstructed", "total ranks differ")
REPORT = dict(
    name="t25", slope=Slope(3, 2), oracle_rank=7, formula_rank=7, t_value=2,
    nu=2, hypothesis_ok=True, b=1, genus=2,
)

# (value, an equal value built anew, a different value of the same type, repr)
CASES = {
    "HatA": (HatA(0), HatA(s=0), HatA(1), "HatA(s=0)"),
    "HatA-negative": (HatA(-3), HatA(-3), HatA(3), "HatA(s=-3)"),
    "HatB": (HatB(), HatB(), HatA(0), "HatB()"),
    "ValidationIssue": (
        ISSUE,
        ValidationIssue(code="empty", message="complex has no generators"),
        ValidationIssue("empty", "other"),
        "ValidationIssue(code='empty', message='complex has no generators')",
    ),
    "ValidationReport": (
        ValidationReport((ISSUE,)),
        ValidationReport(issues=(ValidationIssue("empty", "complex has no generators"),)),
        ValidationReport(()),
        "ValidationReport(issues=(ValidationIssue(code='empty', message='complex has no generators'),))",
    ),
    "F2Matrix": (F2Matrix(2, (1, 2)), F2Matrix(cols=2, data=(1, 2)), F2Matrix(2, (2, 1)), "F2Matrix(cols=2, data=(1, 2))"),
    "F2Matrix-empty": (F2Matrix(0, ()), F2Matrix(0, ()), F2Matrix(1, ()), "F2Matrix(cols=0, data=())"),
    "RandomSpec": (
        RandomSpec(7),
        RandomSpec(seed=7, dots=1, boxes=0, max_side=2, max_offset=2),
        RandomSpec(7, boxes=1),
        "RandomSpec(seed=7, dots=1, boxes=0, max_side=2, max_offset=2)",
    ),
    "Slope": (Slope(3, 2), Slope(p=3, q=2), Slope(2, 3), "Slope(p=3, q=2)"),
    "HypothesisReport": (
        HypothesisReport(RUNS, ()),
        HypothesisReport(h_in_v=((0, 2, True), (2, 1, False)), v_in_h=()),
        HypothesisReport((), RUNS),
        "HypothesisReport(h_in_v=((0, 2, True), (2, 1, False)), v_in_h=())",
    ),
    "RankReport": (
        RankReport(**REPORT),
        RankReport("t25", Slope(3, 2), 7, 7, 2, 2, True, 1, 2),
        RankReport(**{**REPORT, "formula_rank": None}),
        "RankReport(name='t25', slope=Slope(p=3, q=2), oracle_rank=7, formula_rank=7, "
        "t_value=2, nu=2, hypothesis_ok=True, b=1, genus=2)",
    ),
    "ObstructionVerdict": (
        ObstructionVerdict(*VERDICT),
        ObstructionVerdict(
            kind="cosmetic", slopes=("1/2", "3/2"), ranks=(5, 7), verdict="obstructed",
            reason="total ranks differ",
        ),
        ObstructionVerdict(*VERDICT[:2], None, *VERDICT[3:]),
        "ObstructionVerdict(kind='cosmetic', slopes=('1/2', '3/2'), ranks=(5, 7), "
        "verdict='obstructed', reason='total ranks differ')",
    ),
}

# A field of each frozen type, by case.
FROZEN = {
    "HatA": "s", "HatB": "s", "ValidationIssue": "code", "ValidationReport": "issues",
    "F2Matrix": "data", "RandomSpec": "dots", "Slope": "p", "HypothesisReport": "h_in_v",
    "ObstructionVerdict": "verdict",
}


@pytest.mark.parametrize("case", CASES)
def test_equality(case):
    value, same, other, _ = CASES[case]
    assert value == same and not value != same
    assert value != other and not value == other
    assert value != object() and value != ()


@pytest.mark.parametrize("case", [case for case in CASES if case != "RankReport"])
def test_hashing(case):
    value, same, other, _ = CASES[case]
    assert hash(value) == hash(same)
    assert {value: 1}[same] == 1 and len({value, same, other}) == 2


def test_a_rank_report_is_mutable_and_unhashable():
    report = RankReport(**REPORT)
    with pytest.raises(TypeError):
        hash(report)
    report.formula_rank = None
    assert report == RankReport(**{**REPORT, "formula_rank": None})
    assert RankReport.note == report.note == "t computed from the supplied flip involution"


@pytest.mark.parametrize("case", CASES)
def test_repr(case):
    assert repr(CASES[case][0]) == CASES[case][3]


@pytest.mark.parametrize("case", FROZEN)
def test_assignment_raises(case):
    value, same = CASES[case][:2]
    with pytest.raises(AttributeError):
        setattr(value, FROZEN[case], 5)
    with pytest.raises(AttributeError):
        value.unknown = 5
    assert value == same


def test_hypothesis_overall_is_a_frozen_field_read_off_the_runs():
    report = HypothesisReport(RUNS, ())
    assert report.overall is False and HypothesisReport(((0, 3, True),), ((-3, 3, True),)).overall is True
    assert HypothesisReport((), ()).overall is True
    with pytest.raises(AttributeError):
        report.overall = True


def test_hat_a_is_a_key_of_its_own():
    key = HatA(0)
    for other in [(0,), 0, (), HatB(), HatA(1), ("region", 0), [0]]:
        assert key != other and other != key
    assert HatB() != () and HatB() != (0,) and HatB() != 0
    memo = {("region", HatA(0)): "a", ("region", HatB()): "b", ("region", (0,)): "tuple"}
    assert memo[("region", HatA(0))] == "a" and memo[("region", HatB())] == "b"
    assert {HatA(0): 1}[HatA(0)] == 1 and HatA(5).s == 5


@pytest.mark.parametrize(
    "build, error, message",
    [
        (lambda: Slope(0, 1), SlopeError, "slope 0/1 must have positive p and q"),
        (lambda: Slope(1, -2), SlopeError, "slope 1/-2 must have positive p and q"),
        (lambda: Slope(4, 2), SlopeError, "slope 4/2 is not in lowest terms"),
        (lambda: F2Matrix(-1, ()), DimensionError, "column count must be nonnegative"),
        (lambda: F2Matrix(2, (4,)), DimensionError, "row mask has bits outside the column range"),
        (lambda: F2Matrix(2, (1, -1)), DimensionError, "row mask has bits outside the column range"),
        (lambda: RandomSpec(1, dots=0), ValueError, "need at least one dot generator"),
        (lambda: RandomSpec(1, boxes=-1), ValueError, "box parameters out of range"),
        (lambda: RandomSpec(1, max_side=0), ValueError, "box parameters out of range"),
        (lambda: RandomSpec(1, max_offset=-1), ValueError, "box parameters out of range"),
    ],
)
def test_validation_errors(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert str(info.value) == message


def test_constructors_take_their_fields_by_keyword():
    assert RandomSpec(seed=3, max_offset=4) == RandomSpec(3, 1, 0, 2, 4)
    assert Slope(q=5, p=2) == Slope(2, 5) and str(Slope(2, 5)) == "2/5"
    assert ValidationReport(()).ok and not ValidationReport((ISSUE,)).ok
    assert str(ValidationReport((ISSUE,))) == "empty: complex has no generators"
    with pytest.raises(TypeError):
        Slope(1)
    with pytest.raises(TypeError):
        RandomSpec()


@pytest.mark.parametrize("case", CASES)
def test_pickle_and_copy_rebuild_an_equal_value(case):
    value = CASES[case][0]
    for twin in (pickle.loads(pickle.dumps(value)), copy.copy(value), copy.deepcopy(value)):
        assert type(twin) is type(value) and twin == value and repr(twin) == repr(value)
