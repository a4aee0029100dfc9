"""CLI contract tests: output formats, exit codes, round trips."""

import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings, strategies as st

from hfsurgery import cli, obstructions, surgery
from hfsurgery.knots import RandomSpec, random_complex

REPO = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def run(args, capsys):
    try:
        code = cli.main(args)
    except SystemExit as exc:  # argparse usage errors
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestRank:
    def test_trefoil_both(self, capsys):
        code, out, _ = run(["rank", "trefoil_rh", "-p", "1", "-q", "1"], capsys)
        assert code == 0
        assert out.strip() == "oracle=1 formula=1"

    def test_oracle_only(self, capsys):
        code, out, _ = run(["rank", "figure_eight", "-p", "1", "-q", "2", "--method", "oracle"], capsys)
        assert code == 0 and out.strip() == "oracle=5"

    def test_formula_only(self, capsys):
        code, out, _ = run(["rank", "figure_eight", "-p", "1", "-q", "2", "--method", "formula"], capsys)
        assert code == 0 and out.strip() == "formula=5"

    @pytest.mark.parametrize("method", ["oracle", "formula"])
    def test_single_method_json(self, method, capsys):
        code, out, _ = run(
            ["rank", "t25", "-p", "3", "-q", "2", "--method", method, "--format", "json"], capsys
        )
        assert code == 0
        assert json.loads(out) == {"name": "t25", "p": 3, "q": 2, method: 9}

    @pytest.mark.parametrize("method", ["oracle", "formula"])
    def test_single_method_tsv(self, method, capsys):
        code, out, _ = run(
            ["rank", "t25", "-p", "3", "-q", "2", "--method", method, "--format", "tsv"], capsys
        )
        assert code == 0
        assert out.splitlines() == [f"name\tp\tq\t{method}", "t25\t3\t2\t9"]

    def test_json_format(self, capsys):
        code, out, _ = run(["rank", "t25", "-p", "3", "-q", "2", "--format", "json"], capsys)
        assert code == 0
        data = json.loads(out)
        assert data["oracle"] == data["formula"]
        assert data["p"] == 3 and data["q"] == 2

    def test_tsv_and_json_numeric_parity(self, capsys):
        code, tsv_out, _ = run(["rank", "t25", "-p", "3", "-q", "2", "--format", "tsv"], capsys)
        assert code == 0
        header, row = tsv_out.strip().splitlines()
        cells = dict(zip(header.split("\t"), row.split("\t")))
        code, json_out, _ = run(["rank", "t25", "-p", "3", "-q", "2", "--format", "json"], capsys)
        data = json.loads(json_out)
        for column in ("oracle", "formula", "t", "b", "genus"):
            assert cells[column] == str(data[column])

    def test_formula_on_failing_hypothesis_is_a_check_failure(self, capsys, monkeypatch):
        monkeypatch.setattr(surgery, "hypothesis_holds", lambda c: False)
        code, out, err = run(["rank", "t25", "-p", "3", "-q", "2", "--method", "formula"], capsys)
        assert code == 1 and out == ""
        assert err.splitlines() == [
            "error: complex 't25' fails the image-containment hypothesis; "
            "the closed-form rank is not asserted (the cone oracles still apply)"
        ]
        assert "Traceback" not in err

    def test_noncoprime_usage_error(self, capsys):
        code, _, err = run(["rank", "trefoil_rh", "-p", "2", "-q", "4"], capsys)
        assert code == 2 and "lowest terms" in err

    def test_unknown_input_usage_error(self, capsys):
        code, _, err = run(["rank", "granny", "-p", "1", "-q", "1"], capsys)
        assert code == 2 and "builtin" in err


class TestScan:
    def test_unknot_grid(self, capsys):
        code, out, _ = run(["scan", "unknot", "--pmax", "4", "--qmax", "4", "--check"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("name\t")
        rows = lines[1:]
        assert len(rows) == 11  # coprime pairs up to 4
        for row in rows:
            cells = row.split("\t")
            assert cells[3] == cells[1]  # oracle equals p

    def test_rows_sorted_by_slope(self, capsys):
        _, out, _ = run(["scan", "trefoil_rh", "--pmax", "3", "--qmax", "3"], capsys)
        rows = [line.split("\t") for line in out.strip().splitlines()[1:]]
        slopes = [(int(r[1]), int(r[2])) for r in rows]
        assert slopes == sorted(slopes)

    def test_json_matches_tsv(self, capsys):
        _, tsv_out, _ = run(["scan", "figure_eight", "--pmax", "2", "--qmax", "2"], capsys)
        _, json_out, _ = run(["scan", "figure_eight", "--pmax", "2", "--qmax", "2", "--format", "json"], capsys)
        rows = [line.split("\t") for line in tsv_out.strip().splitlines()[1:]]
        data = json.loads(json_out)
        assert len(rows) == len(data)
        for row, entry in zip(rows, data):
            assert int(row[3]) == entry["oracle"]
            assert int(row[4]) == entry["formula"]

    @pytest.mark.parametrize(
        "bounds, fmt",
        [(["--pmax", "0", "--qmax", "3"], "plain"), (["--pmax", "3", "--qmax", "-1"], "json")],
        ids=["pmax-plain", "qmax-json"],
    )
    def test_empty_grid_is_a_usage_error(self, capsys, bounds, fmt):
        code, out, err = run(["scan", "t25", *bounds, "--check", "--format", fmt], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "at least 1" in err

    def test_check_says_why_formula_is_missing(self, capsys, monkeypatch):
        monkeypatch.setattr(surgery, "hypothesis_holds", lambda c: False)
        code, out, err = run(["scan", "trefoil_rh", "--pmax", "2", "--qmax", "1", "--check"], capsys)
        assert code == 1
        assert "\tfail\t" in out
        lines = err.splitlines()
        assert len(lines) == 2
        assert lines[0] == (
            "check failed at 1/1: oracle=1 formula=- (containment hypothesis fails)"
        )


class TestObstructionCommands:
    def test_complement_figure_eight(self, capsys):
        code, out, _ = run(["complement", "figure_eight", "-q", "2"], capsys)
        assert code == 0
        assert "verdict=obstructed" in out and "5" in out

    def test_cosmetic_obstructed(self, capsys):
        code, out, _ = run(["cosmetic", "trefoil_rh", "-r", "1/1", "-s", "1/2"], capsys)
        assert code == 0 and "verdict=obstructed" in out

    def test_cosmetic_json(self, capsys):
        code, out, _ = run(
            ["cosmetic", "unknot", "-r", "1/1", "-s", "1/2", "--format", "json"], capsys
        )
        assert code == 0
        data = json.loads(out)
        assert data["verdict"] == "consistent" and data["ranks"] == [1, 1]

    def test_bad_slope_usage_error(self, capsys):
        code, _, err = run(["cosmetic", "unknot", "-r", "0/1", "-s", "1/2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("q", ["0", "-1"])
    def test_complement_q_below_one_is_a_usage_error(self, capsys, q):
        code, out, err = run(["complement", "t25", "-q", q], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1


class TestInfoValidate:
    def test_info_trefoil(self, capsys):
        code, out, _ = run(["info", "trefoil_rh"], capsys)
        assert code == 0
        assert "genus=1" in out and "b=1" in out and "nu=1" in out
        assert "hypothesis=pass" in out
        assert "hfk=-1:1,0:1,1:1" in out

    def test_info_json(self, capsys):
        code, out, _ = run(["info", "t27", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["genus"] == 3 and data["b"] == 1 and data["nu"] == 3
        assert "containment" not in data

    def test_info_names_the_failing_s(self, capsys, monkeypatch):
        verdicts = ({0: True, 1: False, 2: False}, {-2: True, -1: False, 0: True})
        monkeypatch.setattr(surgery, "hypothesis_verdicts", lambda c: surgery.HypothesisReport(*verdicts))
        code, out, _ = run(["info", "t25"], capsys)
        assert code == 0
        assert out.splitlines()[-3:] == ["hypothesis=fail", "h_not_in_v=1,2", "v_not_in_h=-1"]
        code, out, _ = run(["info", "t25", "--format", "json"], capsys)
        data = json.loads(out)
        assert data["hypothesis"] is False
        assert data["containment"] == {
            "h_image_in_v_image": {"0": True, "1": False, "2": False},
            "v_image_in_h_image": {"-1": False, "-2": True, "0": True},
            "overall": False,
        }

    def test_validate_builtin(self, capsys):
        code, out, _ = run(["validate", "figure_eight"], capsys)
        assert code == 0 and "valid=yes" in out

    def test_validate_invalid_file(self, tmp_path, capsys):
        bad = {
            "name": "broken",
            "generators": [{"id": "x", "alexander": 0}],
            "differential": [{"from": "x", "to": "x", "upower": 0}],
        }
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 1 and "valid=no" in out

    def test_validate_empty_complex(self, tmp_path, capsys):
        path = tmp_path / "empty.json"
        path.write_text('{"generators": [], "flip": []}')
        code, out, _ = run(["validate", str(path)], capsys)
        assert code == 1 and "valid=no" in out and "issue\tempty\t" in out

    # A generator id holding a newline must not print a line of its own.
    FORGED = "b\nvalid=yes"

    @pytest.mark.parametrize(
        "alexander, terms, code",
        [
            ({"a": 0, FORGED: 0}, [("a", FORGED, 0)], "reduced"),
            ({"a": 0, FORGED: 1}, [("a", FORGED, 0)], "filtration"),
            ({"a": 1, FORGED: 0}, [("a", FORGED, 0), ("a", FORGED, 0)], "duplicate-term"),
            ({"a": 0}, [("a", FORGED, 0)], "unknown-generator"),
            ({"a": 0, FORGED: 0}, [("a", FORGED, -1)], "negative-upower"),
            ({"a": 1, "m": 0, FORGED: -1}, [("a", "m", 0), ("m", FORGED, 0)], "d-squared"),
        ],
        ids=["reduced", "filtration", "duplicate-term", "unknown-generator",
             "negative-upower", "d-squared"],
    )
    def test_generator_id_cannot_forge_a_line(self, tmp_path, capsys, alexander, terms, code):
        data = {
            "generators": [{"id": g, "alexander": a} for g, a in alexander.items()],
            "differential": [{"from": x, "to": y, "upower": k} for x, y, k in terms],
        }
        path = tmp_path / "forged.json"
        path.write_text(json.dumps(data))
        status, out, _ = run(["validate", str(path)], capsys)
        assert status == 1
        assert [line for line in out.splitlines() if line.startswith("valid=")] == ["valid=no"]
        assert f"issue\t{code}\t" in out


@pytest.mark.parametrize(
    "command",
    [["validate"], ["info"], ["scan", "--pmax", "2", "--qmax", "2"],
     ["cosmetic", "-r", "1/1", "-s", "1/2"], ["complement", "-q", "2"]],
    ids=["validate", "info", "scan", "cosmetic", "complement"],
)
def test_tsv_format_is_for_rank_only(capsys, command):
    code, out, err = run([command[0], "t25", *command[1:], "--format", "tsv"], capsys)
    assert code == 2 and out == "" and "invalid choice: 'tsv'" in err


@pytest.mark.parametrize(
    "command",
    [["rank", "-p", "3", "-q", "1"], ["scan", "--pmax", "2", "--qmax", "2"], ["info"]],
    ids=["rank", "scan", "info"],
)
def test_empty_complex_is_a_check_failure(tmp_path, capsys, command):
    path = tmp_path / "empty.json"
    path.write_text('{"generators": [], "flip": []}')
    code, out, err = run([command[0], str(path), *command[1:]], capsys)
    assert code == 1
    assert out == ""
    assert "Traceback" not in err
    lines = err.splitlines()
    assert lines[0].startswith("error:") and "empty" in err
    assert sum(line.startswith("error:") for line in lines) == 1


MALFORMED = {
    "top-level-list": "[]",
    "truncated": '{"generators": [',
    "generators-not-list": '{"generators": {"id": "x", "alexander": 0}}',
    "generator-not-object": '{"generators": ["x"]}',
    "id-not-string": '{"generators": [{"id": 1, "alexander": 0}]}',
    "alexander-string": '{"generators": [{"id": "x", "alexander": "0"}]}',
    "alexander-bool": '{"generators": [{"id": "x", "alexander": true}]}',
    "alexander-missing": '{"generators": [{"id": "x"}]}',
    "maslov-string": '{"generators": [{"id": "x", "alexander": 0, "maslov": "q"}]}',
    "maslov-float": '{"generators": [{"id": "x", "alexander": 0, "maslov": 0.5}]}',
    "maslov-bool": '{"generators": [{"id": "x", "alexander": 0, "maslov": false}]}',
    "upower-string": (
        '{"generators": [{"id": "x", "alexander": 1}, {"id": "y", "alexander": 0}],'
        ' "differential": [{"from": "x", "to": "y", "upower": "0"}]}'
    ),
    "differential-not-list": '{"generators": [], "differential": 3}',
    "flip-null": '{"generators": [], "flip": null}',
    "flip-target-not-string": (
        '{"generators": [{"id": "x", "alexander": 0}], "flip": [{"from": "x", "to": 0}]}'
    ),
    "nested-too-deep": "[" * 100000 + "]" * 100000,
    "name-not-string": (
        '{"name": 5, "generators": [{"id": "x", "alexander": 0}],'
        ' "flip": [{"from": "x", "to": "x"}]}'
    ),
    "name-with-tab": (
        r'{"name": "a\tb", "generators": [{"id": "x", "alexander": 0}],'
        ' "flip": [{"from": "x", "to": "x"}]}'
    ),
    "name-with-newline": (
        r'{"name": "x\nb=7", "generators": [{"id": "x", "alexander": 0}],'
        ' "flip": [{"from": "x", "to": "x"}]}'
    ),
    "name-with-line-separator": (
        r'{"name": "x\u2028valid=yes", "generators": [{"id": "x", "alexander": 0}],'
        ' "flip": [{"from": "x", "to": "x"}]}'
    ),
}


@pytest.mark.parametrize("command", [["validate"], ["rank", "-p", "1", "-q", "1"]])
@pytest.mark.parametrize("text", MALFORMED.values(), ids=MALFORMED.keys())
def test_malformed_json_is_a_usage_error(tmp_path, capsys, text, command):
    path = tmp_path / "bad.json"
    path.write_text(text)
    code, out, err = run([command[0], str(path), *command[1:]], capsys)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: cannot load complex file") and err.count("\n") == 1


def test_directory_input_is_a_usage_error(tmp_path, capsys):
    code, _, err = run(["validate", str(tmp_path)], capsys)
    assert code == 2 and err.startswith("error: cannot load complex file")


class TestGen:
    def test_gen_builtin_round_trip(self, tmp_path, capsys):
        code, out, _ = run(["gen", "--builtin", "trefoil_rh"], capsys)
        assert code == 0
        path = tmp_path / "trefoil.json"
        path.write_text(out)
        code, rank_out, _ = run(["rank", str(path), "-p", "1", "-q", "1"], capsys)
        assert code == 0 and rank_out.strip() == "oracle=1 formula=1"

    def test_gen_random_deterministic(self, capsys):
        args = ["gen", "--random", "--seed", "9", "--dots", "2", "--boxes", "2"]
        _, first, _ = run(args, capsys)
        _, second, _ = run(args, capsys)
        assert first == second

    def test_gen_random_validates(self, tmp_path, capsys):
        _, out, _ = run(["gen", "--random", "--seed", "3", "--boxes", "3"], capsys)
        path = tmp_path / "random.json"
        path.write_text(out)
        code, _, _ = run(["validate", str(path)], capsys)
        assert code == 0

    def test_gen_name_override(self, capsys):
        _, out, _ = run(["gen", "--builtin", "t25", "--name", "cinquefoil"], capsys)
        assert json.loads(out)["name"] == "cinquefoil"

    def test_gen_empty_name_is_kept(self, tmp_path, capsys):
        code, out, _ = run(["gen", "--builtin", "t25", "--name", ""], capsys)
        assert code == 0 and json.loads(out)["name"] == ""
        path = tmp_path / "unnamed.json"
        path.write_text(out)
        code, _, _ = run(["validate", str(path)], capsys)
        assert code == 0

    def test_gen_name_with_tab_is_a_usage_error(self, capsys):
        # DEL, the C1 controls (NEL among them) and the two Unicode line
        # breaks too: str.splitlines() splits on the last three.
        for ch in ("\t", "\x7f", "\x85", "\u2028", "\u2029"):
            code, out, err = run(["gen", "--builtin", "t25", "--name", f"a{ch}b"], capsys)
            assert code == 2 and out == "", repr(ch)
            assert err.startswith("error: 'name' must not contain control characters"), repr(ch)


def test_module_entry_point():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "hfsurgery", "rank", "trefoil_rh", "-p", "1", "-q", "1"],
        capture_output=True,
        text=True,
        env=env,
        cwd=REPO,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "oracle=1 formula=1"


@pytest.mark.parametrize(
    "args",
    [
        ["scan", "t27", "--pmax", "8", "--qmax", "8"],
        ["info", "t25"],
        ["rank", "t25", "-p", "3", "-q", "2", "--format", "json"],
    ],
    ids=["scan", "info", "rank-json"],
)
def test_closed_stdout_exits_1_without_traceback(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(REPO, "src") + os.pathsep + env.get("PYTHONPATH", "")
    # A pipe whose read end is closed before the child starts: every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hfsurgery", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=REPO,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["rank", "t25", "-p", "3", "-q", "2", "--format", "json"],
        ["scan", "t25", "--pmax", "3", "--qmax", "3", "--format", "json"],
    ],
    ids=["rank", "scan"],
)
def test_json_output_is_deterministic(args, capsys):
    # Each run loads a fresh builtin, so no memo is shared between the runs.
    first = run(args, capsys)
    second = run(args, capsys)
    assert first[0] == 0 and first == second
    data = json.loads(first[1])
    for record in data if isinstance(data, list) else [data]:
        assert "timings" not in record


# -- fuzz: any file content, any small slope, no traceback --------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
GEN_IDS = st.sampled_from("abcdef")


@st.composite
def small_complexes(draw):
    """At most 6 generators with |alexander| <= 3, each edit made one time
    in four, so that many reach the rank commands valid.  Small gradings
    keep every region small."""

    def edit() -> bool:
        return draw(st.integers(0, 3)) == 0

    if draw(st.booleans()):
        spec = RandomSpec(seed=0, dots=draw(st.integers(1, 2)), boxes=draw(st.integers(0, 1)),
                          max_side=1, max_offset=0)
        data = random_complex(spec).to_json_dict()
    else:
        ids = draw(st.lists(GEN_IDS, max_size=6))
        data = {
            "generators": [{"id": g, "alexander": draw(st.integers(-3, 3))} for g in ids],
            "differential": [],
            "flip": [{"from": g, "to": g} for g in ids],
        }
    gens = data["generators"]
    if gens and edit():
        draw(st.sampled_from(gens))["alexander"] = draw(st.integers(-3, 3))
    if edit():
        ids = st.sampled_from([g["id"] for g in gens]) | GEN_IDS if gens else GEN_IDS
        term = st.fixed_dictionaries({"from": ids, "to": ids, "upower": st.integers(-1, 3)})
        data["differential"] += draw(st.lists(term, min_size=1, max_size=2))
    if edit():
        del data["flip"]
    if edit():
        data["name"] = draw(st.text(max_size=6) | JSON_VALUES)
    return json.dumps(data)


SMALL = st.integers(0, 3)
SLOPE_TEXT = st.builds("{}/{}".format, st.integers(-1, 3), SMALL)


@settings(max_examples=60, deadline=None)
@given(
    content=st.binary(max_size=24) | JSON_VALUES.map(json.dumps) | small_complexes(),
    p=SMALL, q=SMALL, r=SLOPE_TEXT, s=SLOPE_TEXT,
    fmt=st.sampled_from(["plain", "json"]),
)
def test_any_input_exits_0_1_or_2_without_traceback(content, p, q, r, s, fmt):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.json")
        with open(path, "wb" if isinstance(content, bytes) else "w") as handle:
            handle.write(content)
        for args in (
            ["validate", path],
            ["info", path],
            ["rank", path, "-p", str(p), "-q", str(q)],
            ["cosmetic", path, f"-r={r}", f"-s={s}"],
            ["complement", path, "-q", str(q)],
            ["scan", path, "--pmax", str(p), "--qmax", str(q)],
        ):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = cli.main([*args, "--format", fmt])
                except SystemExit as exc:  # argparse usage errors
                    code = exc.code
            assert code in (0, 1, 2), (args, err.getvalue())
            assert "Traceback" not in err.getvalue(), args
