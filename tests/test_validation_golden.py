"""Golden validation reports: codes, messages and their order, pinned.

Each input is a complex as JSON, built from a builtin or by hand, and each
expected report is what ``CfkComplex.validate`` gives for it, issue by
issue.  ``hfsurgery validate`` prints the same issues, one line each after
``name=`` and ``valid=``, and the same again under ``--format json``, so
its output is pinned from the same lists.  The corpus covers an odd
multiplicity of 3 in d^2, duplicated terms on complexes with a flip (one
whose duplicates cancel in the flip's commutation check and one whose do
not), ``flip-commute`` at several generators, and unknown generators
alongside good and bad flips, and repeated ids.
"""

import copy
import enum
import json
import re

import pytest
from hypothesis import given, settings, strategies as st

from hfsurgery import cli
from hfsurgery.cfk import CfkComplex
from hfsurgery.knots import BUILTIN_NAMES, builtin


def _builtin(name: str, renamed: str) -> dict:
    data = json.loads(builtin(name).to_json())
    data["name"] = renamed
    return data


def _generators(**alexander) -> list[dict]:
    return [{"id": g, "alexander": a} for g, a in alexander.items()]


def _terms(*terms) -> list[dict]:
    return [{"from": x, "to": y, "upower": k} for x, y, k in terms]


def _flip(*pairs) -> list[dict]:
    """Both directions of each pair, a fixed point once."""
    return [{"from": a, "to": b} for x, y in pairs for a, b in dict.fromkeys([(x, y), (y, x)])]


def _corpus() -> dict[str, dict]:
    corpus = {}
    # d^2(x) meets z through y1, y2 and y3 (multiplicity 3), v twice (even,
    # not reported) and w and z at U^1 once each; d^2(b) is x's targets.
    # Sources are reported in generator order, each one's terms sorted.
    corpus["odd-three"] = {
        "name": "odd-three",
        "generators": _generators(x=2, b=3, y1=1, y2=1, y3=1, a=1, z=0, w=0, v=0),
        "differential": _terms(
            ("x", "y1", 0), ("x", "y2", 0), ("x", "y3", 0), ("x", "a", 0),
            ("y1", "z", 0), ("y2", "z", 0), ("y3", "z", 0), ("y1", "w", 1),
            ("y1", "v", 0), ("y2", "v", 0), ("a", "z", 1), ("b", "x", 0),
        ),
    }
    # A duplicated b1 -> b2 makes d^2(b1) meet b4 three times.
    data = _builtin("figure_eight", "fig8-duplicate")
    data["differential"].insert(1, dict(data["differential"][0]))
    corpus["fig8-duplicate"] = data
    # One duplicated term cancels on one side of the flip's commutation.
    data = _builtin("trefoil_rh", "trefoil-duplicate")
    data["differential"].append(dict(data["differential"][1]))
    corpus["trefoil-duplicate"] = data
    # Every term twice: both sides cancel to nothing, so the flip commutes.
    data = _builtin("trefoil_rh", "trefoil-doubled")
    data["differential"] *= 2
    corpus["trefoil-doubled"] = data
    # b -> c three times reads as once on both sides.
    data = _builtin("trefoil_rh", "trefoil-triplicate")
    data["differential"] += [dict(data["differential"][1]) for _ in range(2)]
    corpus["trefoil-triplicate"] = data
    data = _builtin("t25", "t25-dropped")
    del data["differential"][1]
    corpus["t25-dropped"] = data
    corpus["flip-commute-several"] = {
        "name": "flip-commute-several",
        "generators": _generators(p=1, q=0, r=-1, x=2, y=1, z=0, u=-1, t=-2),
        "differential": _terms(("q", "p", 1), ("y", "x", 1), ("y", "z", 0), ("u", "t", 0)),
        "flip": _flip(("p", "r"), ("q", "q"), ("x", "t"), ("y", "u"), ("z", "z")),
    }
    data = _builtin("trefoil_rh", "unknown-with-flip")
    data["differential"] += _terms(("b", "ghost", 0), ("ghost", "a", 0))
    corpus["unknown-with-flip"] = data
    data = _builtin("trefoil_rh", "unknown-with-bad-flip")
    data["differential"] += _terms(("a", "ghost", 0), ("b", "b", -1))
    data["flip"] = [{"from": "a", "to": "c"}, {"from": "c", "to": "a"},
                    {"from": "b", "to": "phantom"}, {"from": "a", "to": "b"}]
    corpus["unknown-with-bad-flip"] = data
    data = _builtin("trefoil_rh", "unknown-with-flip-unknown")
    data["differential"] += _terms(("c", "ghost", 2))
    data["flip"] = [{"from": "a", "to": "c"}, {"from": "c", "to": "a"}, {"from": "b", "to": "gone"}]
    corpus["unknown-with-flip-unknown"] = data
    data = _builtin("trefoil_rh", "unknown-with-flip-missing")
    data["differential"] += _terms(("ghost", "ghost", 0))
    data["flip"] = [{"from": "a", "to": "c"}, {"from": "c", "to": "a"}]
    corpus["unknown-with-flip-missing"] = data
    # A repeated id keeps its first grading, so the flip negates every one.
    corpus["duplicate-id"] = {
        "name": "duplicate-id",
        "generators": _generators(x=1, y=0) + _generators(x=-1, z=-1, y=2),
        "differential": _terms(("y", "x", 1), ("y", "z", 0)),
        "flip": _flip(("x", "z"), ("y", "y")),
    }
    for name in BUILTIN_NAMES:
        corpus[name] = _builtin(name, name)
    return corpus


CORPUS = _corpus()

_COMMUTE = "flip does not commute with the differential at {!r}"

EXPECTED = {
    "odd-three": [
        ("d-squared", "d^2('x') contains U^1 'w' with odd multiplicity 1"),
        ("d-squared", "d^2('x') contains U^0 'z' with odd multiplicity 3"),
        ("d-squared", "d^2('x') contains U^1 'z' with odd multiplicity 1"),
        ("d-squared", "d^2('b') contains U^0 'a' with odd multiplicity 1"),
        ("d-squared", "d^2('b') contains U^0 'y1' with odd multiplicity 1"),
        ("d-squared", "d^2('b') contains U^0 'y2' with odd multiplicity 1"),
        ("d-squared", "d^2('b') contains U^0 'y3' with odd multiplicity 1"),
    ],
    "fig8-duplicate": [
        ("duplicate-term", "term 'b1'->'b2' U^0 repeated"),
        ("d-squared", "d^2('b1') contains U^1 'b4' with odd multiplicity 3"),
        ("flip-commute", _COMMUTE.format("b1")),
    ],
    "trefoil-duplicate": [
        ("duplicate-term", "term 'b'->'c' U^0 repeated"),
        ("flip-commute", _COMMUTE.format("b")),
    ],
    "trefoil-doubled": [
        ("duplicate-term", "term 'b'->'a' U^1 repeated"),
        ("duplicate-term", "term 'b'->'c' U^0 repeated"),
    ],
    "trefoil-triplicate": [
        ("duplicate-term", "term 'b'->'c' U^0 repeated"),
        ("duplicate-term", "term 'b'->'c' U^0 repeated"),
    ],
    "t25-dropped": [
        ("flip-commute", _COMMUTE.format("b1")),
        ("flip-commute", _COMMUTE.format("b2")),
    ],
    "flip-commute-several": [
        ("flip-commute", _COMMUTE.format("q")),
        ("flip-commute", _COMMUTE.format("y")),
        ("flip-commute", _COMMUTE.format("u")),
    ],
    "unknown-with-flip": [
        ("unknown-generator", "term 'b'->'ghost' names a missing generator"),
        ("unknown-generator", "term 'ghost'->'a' names a missing generator"),
    ],
    "unknown-with-bad-flip": [
        ("unknown-generator", "term 'a'->'ghost' names a missing generator"),
        ("negative-upower", "term 'b'->'b' has U^-1"),
        ("flip-conflict", "generator 'a' paired with both 'c' and 'b'"),
        ("flip-conflict", "generator 'b' paired with both 'phantom' and 'a'"),
        ("flip-alexander", "flip pairs 'a' (A=1) with 'b' (A=0)"),
        ("flip-alexander", "flip pairs 'b' (A=0) with 'a' (A=1)"),
        ("flip-involution", "flip is not an involution at 'c'"),
        ("flip-involution", "flip is not an involution at 'phantom'"),
    ],
    "unknown-with-flip-unknown": [
        ("unknown-generator", "term 'c'->'ghost' names a missing generator"),
        ("flip-unknown", "flip maps 'b' to missing 'gone'"),
    ],
    "unknown-with-flip-missing": [
        ("unknown-generator", "term 'ghost'->'ghost' names a missing generator"),
        ("flip-missing", "generator 'b' has no flip partner"),
    ],
    "duplicate-id": [
        ("duplicate-id", "generator 'x' repeated"),
        ("duplicate-id", "generator 'y' repeated"),
    ],
    **{name: [] for name in BUILTIN_NAMES},
}


def test_the_corpus_is_pinned_whole():
    assert list(CORPUS) == list(EXPECTED)


@pytest.mark.parametrize("name", list(EXPECTED))
def test_validate_reports_are_pinned(name):
    report = CfkComplex.from_json_dict(copy.deepcopy(CORPUS[name])).validate()
    assert [(i.code, i.message) for i in report.issues] == EXPECTED[name]
    assert report.ok == (not EXPECTED[name])


@pytest.mark.parametrize("name", list(EXPECTED))
def test_cli_validate_output_is_pinned(name, tmp_path, capsys):
    path = tmp_path / f"{name}.json"
    path.write_text(json.dumps(CORPUS[name]))
    issues = EXPECTED[name]
    code = 1 if issues else 0
    lines = [f"name={name}", f"valid={'no' if issues else 'yes'}"]
    lines += [f"issue\t{c}\t{m}" for c, m in issues]
    assert cli.main(["validate", str(path)]) == code
    assert capsys.readouterr().out == "\n".join(lines) + "\n"
    payload = {"name": name, "valid": not issues,
               "issues": [{"code": c, "message": m} for c, m in issues]}
    assert cli.main(["validate", str(path), "--format", "json"]) == code
    assert capsys.readouterr().out == json.dumps(payload, indent=2) + "\n"


# -- the shape of the JSON: from_json_dict's ValueError, pinned --------------

_X = {"id": "x", "alexander": 0}
_Y = {"id": "y", "alexander": -1}


# No JSON text gives a subclass of int, str, list or dict, and the shape
# check takes each field by its exact type, so each of these is refused.
class _Grading(enum.IntEnum):
    ZERO = 0
    MINUS = -1


class _Id(str):
    pass


class _Entry(dict):
    pass


class _Entries(list):
    pass


SHAPE_ERRORS = {
    "top-level-list": ([], "a complex must be a JSON object, not list"),
    "generators-not-list": ({"generators": _X}, "'generators' must be a list"),
    "differential-not-list": ({"generators": [], "differential": 3}, "'differential' must be a list"),
    "flip-not-list": ({"generators": [], "flip": "xx"}, "'flip' must be a list"),
    "flip-null": ({"generators": [], "flip": None}, "'flip' must be a list"),
    "generator-not-object": ({"generators": ["x"]}, "every 'generators' entry must be an object, got 'x'"),
    "term-not-object": (
        {"generators": [_X], "differential": [["x", "x", 1]]},
        "every 'differential' entry must be an object, got ['x', 'x', 1]",
    ),
    "flip-entry-not-object": ({"generators": [_X], "flip": [None]}, "every 'flip' entry must be an object, got None"),
    "id-missing": ({"generators": [{"alexander": 0}]}, "'generators' entry {'alexander': 0} needs str field 'id'"),
    "id-not-string": (
        {"generators": [{"id": 1, "alexander": 0}]},
        "'generators' entry {'id': 1, 'alexander': 0} needs str field 'id'",
    ),
    "alexander-string": (
        {"generators": [{"id": "x", "alexander": "0"}]},
        "'generators' entry {'id': 'x', 'alexander': '0'} needs int field 'alexander'",
    ),
    "alexander-bool": (
        {"generators": [{"id": "x", "alexander": True}]},
        "'generators' entry {'id': 'x', 'alexander': True} needs int field 'alexander'",
    ),
    "alexander-float": (
        {"generators": [{"id": "x", "alexander": 0.0}]},
        "'generators' entry {'id': 'x', 'alexander': 0.0} needs int field 'alexander'",
    ),
    "upower-bool": (
        {"generators": [_X, _Y], "differential": [{"from": "x", "to": "y", "upower": False}]},
        "'differential' entry {'from': 'x', 'to': 'y', 'upower': False} needs int field 'upower'",
    ),
    "to-missing": (
        {"generators": [_X, _Y], "differential": [{"from": "x", "upower": 0}]},
        "'differential' entry {'from': 'x', 'upower': 0} needs str field 'to'",
    ),
    "flip-target-not-string": (
        {"generators": [_X], "flip": [{"from": "x", "to": 0}]},
        "'flip' entry {'from': 'x', 'to': 0} needs str field 'to'",
    ),
    "maslov-bool": (
        {"generators": [{"id": "x", "alexander": 0, "maslov": False}]},
        "'generators' entry {'id': 'x', 'alexander': 0, 'maslov': False} has a maslov field that is not an int",
    ),
    "maslov-string": (
        {"generators": [{"id": "x", "alexander": 0, "maslov": "q"}]},
        "'generators' entry {'id': 'x', 'alexander': 0, 'maslov': 'q'} has a maslov field that is not an int",
    ),
    # The first bad entry is named, whichever of its fields is bad.
    "two-bad-entries": (
        {"generators": [_X, {"id": "y", "alexander": "1"}, {"id": 2, "alexander": 0}]},
        "'generators' entry {'id': 'y', 'alexander': '1'} needs int field 'alexander'",
    ),
    "two-bad-terms": (
        {"generators": [_X, _Y], "differential": [
            {"from": "x", "to": "y", "upower": 0}, {"from": "x", "to": "y"}, {"to": "y", "upower": 0},
        ]},
        "'differential' entry {'from': 'x', 'to': 'y'} needs int field 'upower'",
    ),
    # Every entry's shape is checked before any maslov, and the generators
    # before the differential, the differential before the flip.
    "maslov-then-shape": (
        {"generators": [{"id": "x", "alexander": 0, "maslov": "q"}, {"id": 3, "alexander": 0}]},
        "'generators' entry {'id': 3, 'alexander': 0} needs str field 'id'",
    ),
    "maslov-before-differential": (
        {"generators": [{"id": "x", "alexander": 0, "maslov": 1.5}], "differential": 3},
        "'generators' entry {'id': 'x', 'alexander': 0, 'maslov': 1.5} has a maslov field that is not an int",
    ),
    "differential-before-flip": (
        {"generators": [_X], "differential": [{"from": "x"}], "flip": None},
        "'differential' entry {'from': 'x'} needs str field 'to'",
    ),
    "flip-before-name": ({"name": 5, "generators": [_X], "flip": [{}]}, "'flip' entry {} needs str field 'from'"),
    "name-not-string": ({"name": 5, "generators": [_X]}, "'name' must be a string, got 5"),
    "name-with-tab": (
        {"name": "a\tb", "generators": [_X]},
        "'name' must not contain control characters or line separators, got 'a\\tb'",
    ),
    "name-with-line-separator": (
        {"name": "x\u2028valid=yes", "generators": [_X]},
        "'name' must not contain control characters or line separators, got 'x\\u2028valid=yes'",
    ),
    # A lone surrogate cannot be encoded as UTF-8, so the name could not be
    # printed.  A control character is named first.
    "name-with-surrogate": (
        {"name": "a\ud800b", "generators": [_X]},
        "'name' must not contain the lone surrogate '\\ud800', got 'a\\ud800b'",
    ),
    "name-with-tab-and-surrogate": (
        {"name": "\ud800\t", "generators": [_X]},
        "'name' must not contain control characters or line separators, got '\\ud800\\t'",
    ),
    "entries-list-subclass": ({"generators": _Entries([_X])}, "'generators' must be a list"),
    "entry-dict-subclass": (
        {"generators": [_X, _Entry(id="y", alexander=-1)]},
        "every 'generators' entry must be an object, got {'id': 'y', 'alexander': -1}",
    ),
    "alexander-int-enum": (
        {"generators": [{"id": "x", "alexander": _Grading.ZERO}]},
        "'generators' entry {'id': 'x', 'alexander': <_Grading.ZERO: 0>} needs int field 'alexander'",
    ),
    "id-str-subclass": (
        {"generators": [{"id": _Id("x"), "alexander": 0}]},
        "'generators' entry {'id': 'x', 'alexander': 0} needs str field 'id'",
    ),
    "maslov-int-enum": (
        {"generators": [{"id": "x", "alexander": 0, "maslov": _Grading.MINUS}]},
        "'generators' entry {'id': 'x', 'alexander': 0, 'maslov': <_Grading.MINUS: -1>} has a maslov field that is not an int",
    ),
}


@pytest.mark.parametrize("name", list(SHAPE_ERRORS))
def test_shape_errors_are_pinned(name):
    data, message = SHAPE_ERRORS[name]
    with pytest.raises(ValueError) as error:
        CfkComplex.from_json_dict(copy.deepcopy(data))
    assert str(error.value) == message


def test_unprintable_names_without_control_characters_are_kept():
    # A no-break space (Zs) and a zero-width space (Cf) are not printable,
    # but neither is a control character nor a line separator.
    for name in ("a\u00a0b", "a\u200bb", ""):
        assert CfkComplex.from_json_dict({"name": name, "generators": [_X]}).name == name


def _written_out(data: dict) -> CfkComplex:
    """The complex the constructor builds from column lists written out
    field by field from the same dict that ``from_json_dict`` parses."""
    gens, terms = data["generators"], data.get("differential", [])
    flip = data["flip"] if "flip" in data else None
    return CfkComplex(
        [[g["id"] for g in gens], [g["alexander"] for g in gens], [g.get("maslov") for g in gens]],
        [[t["from"] for t in terms], [t["to"] for t in terms], [t["upower"] for t in terms]],
        None if flip is None else [[p["from"] for p in flip], [p["to"] for p in flip]],
        data["name"],
    )


@pytest.mark.parametrize("name", list(EXPECTED))
def test_json_and_constructor_agree(name):
    parsed = CfkComplex.from_json_dict(copy.deepcopy(CORPUS[name]))
    built = _written_out(CORPUS[name])
    assert parsed.columns == built.columns
    assert parsed.to_json() == built.to_json()
    assert parsed.validate() == built.validate()
    assert (parsed.alexander, parsed.flip_map) == (built.alexander, built.flip_map)


# -- one path: a complex from the shape check, or one of its messages --------

FIELDS = {"generators": ("id", "alexander", "maslov"), "differential": ("from", "to", "upower"),
          "flip": ("from", "to")}
SCALARS = st.none() | st.booleans() | st.integers(-3, 3) | st.floats() | st.text(max_size=3)
KEYS = st.sampled_from(sorted({f for fields in FIELDS.values() for f in fields})) | st.text(max_size=3)
# A scalar half the time, so that a bool or a str often meets an int
# field, and objects keyed by field names, so that a replaced entry or
# list sometimes has the right shape.
JSON_VALUES = SCALARS | st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=8,
)
# The message forms SHAPE_ERRORS pins for the three lists.
_LIST = "'(generators|differential|flip)'"
SHAPE_MESSAGE = re.compile(
    rf"{_LIST} must be a list|every {_LIST} entry must be an object, got .*"
    rf"|{_LIST} entry .* needs (str field '(id|from|to)'|int field '(alexander|upower)')"
    r"|'generators' entry .* has a maslov field that is not an int",
    re.DOTALL,
)


@settings(max_examples=300, deadline=None)
@given(name=st.sampled_from(list(CORPUS)), key=st.sampled_from(list(FIELDS)),
       where=st.sampled_from(["field", "entry", "list"]), value=JSON_VALUES, pick=st.data())
def test_one_replaced_value_builds_or_raises_a_pinned_message(name, key, where, value, pick):
    # One field of one entry, one whole entry or one whole list of a corpus
    # complex replaced by any JSON value: either the shape check passes and
    # the columns are the ones written out field by field, or it raises a
    # ValueError of a pinned form, and nothing else escapes.
    data = copy.deepcopy(CORPUS[name])
    entries = data.get(key)
    if where == "list" or not entries:
        data[key] = value
    else:
        i = pick.draw(st.integers(0, len(entries) - 1))
        if where == "entry":
            entries[i] = value
        else:
            entries[i][pick.draw(st.sampled_from(FIELDS[key]))] = value
    try:
        parsed = CfkComplex.from_json_dict(copy.deepcopy(data))
    except ValueError as error:
        assert SHAPE_MESSAGE.fullmatch(str(error)), str(error)
    else:
        assert parsed.columns == _written_out(data).columns
