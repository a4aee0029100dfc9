"""Golden validation reports: codes, messages and their order, pinned.

Each input is a complex as JSON, built from a builtin or by hand, and each
expected report is what ``CfkComplex.validate`` gives for it, issue by
issue.  ``hfsurgery validate`` prints the same issues, one line each after
``name=`` and ``valid=``, and the same again under ``--format json``, so
its output is pinned from the same lists.  The corpus covers an odd
multiplicity of 3 in d^2, duplicated terms on complexes with a flip (one
whose duplicates cancel in the flip's commutation check and one whose do
not), ``flip-commute`` at several generators, and unknown generators
alongside good and bad flips.
"""

import copy
import json

import pytest

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
