"""CLI contract tests: output formats, exit codes, round trips."""

import json
import os
import subprocess
import sys

import pytest

from hfsurgery import cli, obstructions, surgery

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

    def test_gen_name_with_tab_is_a_usage_error(self, capsys):
        code, out, err = run(["gen", "--builtin", "t25", "--name", "a\tb"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: 'name' must not contain control characters")


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
