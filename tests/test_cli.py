"""CLI contract tests: output formats, exit codes, round trips."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import tempfile
import time
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from hfsurgery import cli, obstructions, surgery
from hfsurgery.cfk import RegionComplex
from hfsurgery.knots import BUILTIN_NAMES, RandomSpec, random_complex, staircase

import models
import scale


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

    def test_p_past_the_word_size(self, capsys):
        # 2**63 + 1 is past sys.maxsize: the chain route counts the
        # window's columns from its bounds, with no len() of its range.
        code, out, err = run(["rank", "t25", "-p", "9223372036854775809", "-q", "2"], capsys)
        assert code == 0 and "Traceback" not in err
        assert out.strip() == "oracle=9223372036854775809 formula=9223372036854775809"

    def test_noncoprime_usage_error(self, capsys):
        code, _, err = run(["rank", "trefoil_rh", "-p", "2", "-q", "4"], capsys)
        assert code == 2 and "lowest terms" in err

    def test_unknown_input_usage_error(self, capsys):
        code, _, err = run(["rank", "granny", "-p", "1", "-q", "1"], capsys)
        assert code == 2 and "builtin" in err

    def test_a_slope_past_the_last_hat_b_block_ranks_at_once(self, capsys):
        # The window sweeps no HatB block, and t sums one meet per segment
        # between its cuts, at most one per Alexander cut, however large p is.
        start = time.perf_counter()
        code, out, _ = run(["rank", "t25", "-p", "30000001", "-q", "10000001"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 0 and out == "oracle=30000005 formula=30000005\n"

    def test_t_of_a_genus_far_past_its_generators_ranks_at_once(self, tmp_path, capsys):
        # Three generators of genus 10**7: t cuts only at the complex's
        # Alexander cuts in (-g, g], not at every multiple of q up to the
        # genus, so 40000001/1 reads four ranks of v_hat.
        path = tmp_path / "staircase.json"
        path.write_text(staircase([10**7, 10**7]).to_json())
        start = time.perf_counter()
        code, out, err = run(["rank", str(path), "-p", "40000001", "-q", "1"], capsys)
        assert time.perf_counter() - start < 1
        assert code == 0 and out == "oracle=40000001 formula=40000001\n" and err == ""


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

    def test_an_input_that_fails_to_load_is_named_before_empty_bounds(self, capsys):
        # main loads the input before the command runs, so the load error
        # comes first.
        code, out, err = run(["scan", "nosuch", "--pmax", "0", "--qmax", "3"], capsys)
        assert code == 2 and out == ""
        assert err.startswith("error: 'nosuch' is neither a file nor a builtin") and len(err.splitlines()) == 1


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


HUGE_Q = "99999999999999999999"


@pytest.mark.parametrize(
    "args",
    [
        ["rank", "t25", "-p", "1", "-q", HUGE_Q],
        ["complement", "t25", "-q", HUGE_Q],
        ["cosmetic", "t25", "-r", f"1/{HUGE_Q}", "-s", "1/1"],
        ["cosmetic", "t25", "-r", "1/1", "-s", f"1/{HUGE_Q}"],
    ],
    ids=["rank", "complement", "cosmetic", "cosmetic-s"],
)
def test_a_sweep_too_long_to_finish_is_a_usage_error(args, capsys, monkeypatch):
    # t25 at 1/q sweeps 3q - 1 HatB blocks, one memo lookup each, so this q
    # would never return; the cone refuses it before building any region.
    built = []
    init = RegionComplex.__init__

    def counting_init(self, *a):
        built.append(self)
        init(self, *a)

    monkeypatch.setattr(RegionComplex, "__init__", counting_init)
    start = time.perf_counter()
    code, out, err = run(args, capsys)
    assert time.perf_counter() - start < 1
    assert code == 2 and out == "" and built == []
    assert err.startswith("error: slope 1/") and "HatB blocks" in err and len(err.splitlines()) == 1


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


def _json(payload) -> str:
    return json.dumps(payload, indent=2) + "\n"


def _scan_record(p, q, rank, t):
    return {"name": "trefoil_rh", "p": p, "q": q, "oracle": rank, "formula": rank, "t": t,
            "nu": 1, "hypothesis": True, "b": 1, "genus": 1, "note": surgery.RankReport.note}


COSMETIC_REASON = "total ranks differ (1 vs 3); the surgeries cannot be homeomorphic"
COMPLEMENT_REASON = ("rank 5 at slope 1/2 differs from the ambient rank 1; "
                     "the surgery cannot return the original manifold")
T25_HFK = {"-2": 1, "-1": 1, "0": 1, "1": 1, "2": 1}
# Written to tmp_path as {noflip} and {invalid}.
PINNED_FILES = {
    "noflip": {"name": "noflip", "generators": [{"id": "x", "alexander": 0}]},
    "invalid": {"name": "broken", "generators": [{"id": "x", "alexander": 0}],
                "differential": [{"from": "x", "to": "x", "upower": 0}],
                "flip": [{"from": "x", "to": "x"}]},
}
# (arguments, exit code, exact stdout).  A JSON expectation is the payload
# literal in key order, rendered with the two-space indent, so every byte
# of the output is pinned.
PINNED_OUTPUT = {
    "rank-tsv": (
        "rank t25 -p 3 -q 2 --format tsv", 0,
        "name\tp\tq\toracle\tformula\tt\tnu\thypothesis\tb\tgenus\n"
        "t25\t3\t2\t9\t9\t0\t2\tpass\t1\t2\n",
    ),
    "rank-json": (
        "rank t25 -p 3 -q 2 --format json", 0,
        _json({"name": "t25", "p": 3, "q": 2, "oracle": 9, "formula": 9, "t": 0, "nu": 2,
               "hypothesis": True, "b": 1, "genus": 2, "note": surgery.RankReport.note}),
    ),
    "rank-oracle-json": (
        "rank t25 -p 3 -q 2 --method oracle --format json", 0,
        _json({"name": "t25", "p": 3, "q": 2, "oracle": 9}),
    ),
    "scan": (
        "scan trefoil_rh --pmax 2 --qmax 2", 0,
        "name\tp\tq\toracle\tformula\tt\tnu\thypothesis\tb\tgenus\n"
        "trefoil_rh\t1\t1\t1\t1\t0\t1\tpass\t1\t1\n"
        "trefoil_rh\t1\t2\t3\t3\t0\t1\tpass\t1\t1\n"
        "trefoil_rh\t2\t1\t2\t2\t1\t1\tpass\t1\t1\n",
    ),
    "scan-json": (
        "scan trefoil_rh --pmax 2 --qmax 2 --format json", 0,
        _json([_scan_record(1, 1, 1, 0), _scan_record(1, 2, 3, 0), _scan_record(2, 1, 2, 1)]),
    ),
    "info": (
        "info t25", 0,
        "name=t25\ngenus=2\nb=1\nhfk=-2:1,-1:1,0:1,1:1,2:1\nnu=2\nhypothesis=pass\n",
    ),
    "info-json": (
        "info t25 --format json", 0,
        _json({"name": "t25", "genus": 2, "b": 1, "hfk": T25_HFK, "nu": 2, "hypothesis": True}),
    ),
    "validate": ("validate t25", 0, "name=t25\nvalid=yes\n"),
    "validate-json": (
        "validate t25 --format json", 0, _json({"name": "t25", "valid": True, "issues": []}),
    ),
    "cosmetic": (
        "cosmetic trefoil_rh -r 1/1 -s 1/2", 0,
        f"verdict=obstructed ranks=1,3 reason={COSMETIC_REASON}\n",
    ),
    "cosmetic-json": (
        "cosmetic trefoil_rh -r 1/1 -s 1/2 --format json", 0,
        _json({"kind": "cosmetic", "slopes": ["1/1", "1/2"], "ranks": [1, 3],
               "verdict": "obstructed", "reason": COSMETIC_REASON}),
    ),
    "complement": (
        "complement figure_eight -q 2", 0,
        f"verdict=obstructed ranks=5,1 reason={COMPLEMENT_REASON}\n",
    ),
    "complement-json": (
        "complement figure_eight -q 2 --format json", 0,
        _json({"kind": "complement", "slopes": ["1/2"], "ranks": [5, 1],
               "verdict": "obstructed", "reason": COMPLEMENT_REASON}),
    ),
    "info-noflip": (
        "info {noflip}", 0, "name=noflip\ngenus=0\nb=1\nhfk=0:1\nnu=0\nhypothesis=no-flip\n",
    ),
    "validate-noflip": ("validate {noflip}", 0, "name=noflip\nvalid=yes\n"),
    "info-invalid": ("info {invalid}", 1, ""),
    "validate-invalid": (
        "validate {invalid}", 1,
        "name=broken\nvalid=no\n"
        "issue\treduced\tterm 'x'->'x' drops neither filtration coordinate\n"
        "issue\td-squared\td^2('x') contains U^0 'x' with odd multiplicity 1\n",
    ),
}


@pytest.mark.parametrize("command, code, stdout", PINNED_OUTPUT.values(), ids=PINNED_OUTPUT.keys())
def test_pinned_output(tmp_path, capsys, command, code, stdout):
    paths = {}
    for key, data in PINNED_FILES.items():
        paths[key] = tmp_path / f"{key}.json"
        paths[key].write_text(json.dumps(data))
    args = [arg.format(**paths) for arg in command.split()]
    assert run(args, capsys)[:2] == (code, stdout)


@pytest.mark.parametrize(
    "command",
    [["validate"], ["info"], ["scan", "--pmax", "2", "--qmax", "2"],
     ["cosmetic", "-r", "1/1", "-s", "1/2"], ["complement", "-q", "2"]],
    ids=["validate", "info", "scan", "cosmetic", "complement"],
)
def test_tsv_format_is_for_rank_only(capsys, command):
    code, out, err = run([command[0], "t25", *command[1:], "--format", "tsv"], capsys)
    assert code == 2 and out == "" and "invalid choice: 'tsv'" in err


def test_a_scan_whose_grid_may_sweep_too_many_blocks_is_refused_at_once(monkeypatch, capsys):
    # Each cone at 1/q is accepted, but the grid sweeps about 3q blocks per
    # q, some 6 * 10**10 in all; the scan is refused before any region.
    built = []
    init = RegionComplex.__init__
    monkeypatch.setattr(RegionComplex, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    start = time.perf_counter()
    code, out, err = run(["scan", "t25", "--pmax", "1", "--qmax", "200000"], capsys)
    assert time.perf_counter() - start < 1 and built == []
    assert code == 2 and out == ""
    assert err == (
        "error: slopes p/q with p <= 1, q <= 200000 may sweep 60000100000 HatB blocks, over the limit 10000000\n"
    )


def test_a_scan_whose_grid_holds_too_many_slopes_is_refused_at_once(monkeypatch, capsys):
    # The unknot's cones sweep no HatB block, so only the grid's size,
    # 10**6 cells, refuses it, before any region is built.
    built = []
    init = RegionComplex.__init__
    monkeypatch.setattr(RegionComplex, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    start = time.perf_counter()
    code, out, err = run(["scan", "unknot", "--pmax", "1000000", "--qmax", "1"], capsys)
    assert time.perf_counter() - start < 1 and built == []
    assert code == 2 and out == ""
    assert err == "error: slopes p/q with p <= 1000000, q <= 1 fill 1000000 grid cells, over the limit 100000\n"


@pytest.fixture(scope="module")
def wide_files(tmp_path_factory):
    """The 4,001-generator staircase, 0.75 MB of JSON, and 100,000 dots, as
    files.  The staircase weighs n**2 * k = 4001**2 * 2001 by its 2,001
    Alexander classes in [0, 2000], the dots 100000**2 * 1 by their width
    alone; each is far past cfk.MAX_REGION_WEIGHT."""
    out = tmp_path_factory.mktemp("wide")
    files = {}
    for name, c in (
        ("staircase", staircase([1] * 4000)),
        ("dots", random_complex(RandomSpec(seed=0, dots=100000, boxes=0))),
    ):
        files[name] = str(out / f"{name}.json")
        with open(files[name], "w") as handle:
            handle.write(c.to_json())
    return files


WIDE_ERRORS = {
    "staircase": "error: a complex of n = 4001 generators and k = 2001 Alexander classes in [0, 2000] "
    "weighs n**2 * k = 32032010001, over the limit 1000000000\n",
    "dots": "error: a complex of n = 100000 generators and k = 1 Alexander classes in [0, 0] "
    "weighs n**2 * k = 10000000000, over the limit 1000000000\n",
}
WIDE_REFUSED = [
    ["rank", "-p", "1", "-q", "1"],
    ["info"],
    ["scan", "--pmax", "1", "--qmax", "1"],
    ["cosmetic", "-r", "1/1", "-s", "1/2"],
    ["complement", "-q", "1"],
]


@pytest.mark.parametrize("command", WIDE_REFUSED, ids=[c[0] for c in WIDE_REFUSED])
@pytest.mark.parametrize("wide", ["staircase", "dots"])
def test_a_complex_too_wide_to_rank_is_refused_before_any_region(wide, command, wide_files, monkeypatch, capsys):
    built = []
    init = RegionComplex.__init__
    monkeypatch.setattr(RegionComplex, "__init__", lambda self, *args: built.append(self) or init(self, *args))
    start = time.perf_counter()
    code, out, err = run([command[0], wide_files[wide], *command[1:]], capsys)
    seconds = time.perf_counter() - start
    assert code == 2 and out == "" and built == []
    assert err == WIDE_ERRORS[wide]
    # Loading 100,000 dots alone takes about half a second.
    assert seconds < (10 if wide == "dots" else 1)


@pytest.mark.parametrize("wide", ["staircase", "dots"])
def test_a_complex_too_wide_to_rank_still_validates_and_gets_verdicts_that_build_nothing(wide, wide_files, capsys):
    code, out, err = run(["validate", wide_files[wide]], capsys)
    assert code == 0 and out.splitlines()[1] == "valid=yes" and err == ""
    # Slopes with different p are told apart by H_1, with no rank read.
    code, out, err = run(["cosmetic", wide_files[wide], "-r", "1/1", "-s", "2/1"], capsys)
    assert code == 0 and out.startswith("verdict=not-applicable ") and err == ""


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
    # Plain output could not encode it, so it is refused before any work.
    "name-with-surrogate": (
        r'{"name": "a\ud800b", "generators": [{"id": "x", "alexander": 0}],'
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
    @pytest.mark.parametrize("name", BUILTIN_NAMES)
    def test_gen_builtin_round_trip(self, name, tmp_path, capsys):
        code, out, _ = run(["gen", "--builtin", name], capsys)
        assert code == 0
        path = tmp_path / f"{name}.json"
        path.write_text(out)
        assert run(["validate", str(path)], capsys)[0] == 0
        slope = ["-p", "1", "-q", "1"]
        assert run(["rank", str(path), *slope], capsys) == run(["rank", name, *slope], capsys)

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

    @pytest.mark.parametrize(
        "size",
        [["--dots", "100001", "--boxes", "0"], ["--boxes", "12500"], ["--dots", "100000000"], ["--boxes", "100000000"]],
    )
    def test_gen_random_past_the_generator_limit_is_a_usage_error(self, size, capsys):
        # dots + 8 * boxes: 100001 in the first two, one past the limit.
        # Without the check the third ran out of memory and the fourth did
        # not return.
        start = time.perf_counter()
        code, out, err = run(["gen", "--random", *size], capsys)
        assert time.perf_counter() - start < 1
        assert code == 2 and out == ""
        assert err.startswith("error: dots=") and err.endswith("over the limit 100000\n")
        assert err.count("\n") == 1

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

    def test_gen_name_with_a_lone_surrogate_is_a_usage_error(self, capsys):
        # An undecodable byte in argv reaches Python as a lone surrogate.
        code, out, err = run(["gen", "--builtin", "t25", "--name", "a\udcffb"], capsys)
        assert code == 2 and out == ""
        assert err == "error: 'name' must not contain the lone surrogate '\\udcff', got 'a\\udcffb'\n"


# -- the parser: each call builds the parser its command needs --------------

COMMANDS = ["validate", "info", "rank", "scan", "cosmetic", "complement", "gen"]
COMMAND_ARGS = {
    "validate": ["validate", "t25"],
    "info": ["info", "t25"],
    "rank": ["rank", "t25", "-p", "5", "-q", "3"],
    "scan": ["scan", "trefoil_rh", "--pmax", "2", "--qmax", "2"],
    "cosmetic": ["cosmetic", "trefoil_rh", "-r", "1/1", "-s", "1/2"],
    "complement": ["complement", "figure_eight", "-q", "2"],
    "gen": ["gen", "--builtin", "t25"],
}
PARSER_ARGVS = [
    [], ["-h"], ["--help"], *([c, "--help"] for c in COMMANDS),
    ["bogus"], ["--format", "json"], ["--", "rank"],
    *(COMMAND_ARGS[c] + ["extra"] for c in COMMANDS),
    *COMMAND_ARGS.values(),
    ["rank", "t25", "-p", "5"], ["cosmetic", "t25", "-r", "1/1"], ["gen"],
    ["rank", "t25", "-p", "5", "-q", "3", "--format", "xml"],
    ["info", "t25", "--format", "tsv"],
    ["rank", "t25", "-p", "5", "-q", "3", "--method", "magic"],
    ["gen", "--builtin", "t25", "--random"],
    # Forms that a command's own parser reads as the full parser's subparser does.
    ["rank", "t25", "-p", "5", "-q", "3", "--form", "json"],
    ["cosmetic", "trefoil_rh", "-r=1/1", "-s", "1/2"],
    ["rank", "-p", "5", "-q", "3", "t25"],
    ["rank", "t25", "-p", "5", "-q", "3", "--bogus"],
    ["validate", "--", "t25"], ["rank", "--", "t25", "-p", "5", "-q", "3"],
    ["rank", "t25", "-p", "5", "-q", "-3"],
    ["gen", "--random", "--dots", "2"],
]


@pytest.mark.parametrize("argv", PARSER_ARGVS, ids=map(" ".join, PARSER_ARGVS))
def test_main_matches_the_parser_of_every_command(argv, capsys, monkeypatch):
    # Help text wraps to the terminal width, which argparse reads from COLUMNS.
    monkeypatch.setenv("COLUMNS", "80")
    built = run(argv, capsys)
    monkeypatch.setattr(cli, "_parse", cli._build_parser().parse_args)
    assert run(argv, capsys) == built


PARSER_WORDS = [
    *COMMANDS, "bogus", "t25", "trefoil_rh", "-p", "-q", "1", "2", "-3", "-r", "-s", "1/2", "-r=1/1",
    "--pmax", "--qmax", "--check", "--method", "oracle", "--format", "--form", "json", "tsv",
    "--builtin", "--random", "--dots", "--name", "--", "-h", "--help", "--bogus", "extra",
]


@st.composite
def parser_argvs(draw):
    """A command's argv, or none, with up to three words of PARSER_WORDS put
    in at drawn places: most name a command, and many leave words over."""
    argv = list(draw(st.sampled_from([[], *COMMAND_ARGS.values()])))
    for word in draw(st.lists(st.sampled_from(PARSER_WORDS), max_size=3)):
        argv.insert(draw(st.integers(0, len(argv))), word)
    return argv


@settings(max_examples=150, deadline=None)
@given(argv=parser_argvs())
def test_main_matches_the_full_parser_on_drawn_argvs(argv):
    def outcome(parse):
        with mock.patch.object(cli, "_parse", parse), \
                contextlib.redirect_stdout(io.StringIO()) as out, contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse usage errors
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    assert outcome(cli._parse) == outcome(cli._build_parser().parse_args)


def count_parsers(monkeypatch):
    built, init = [], argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    return built


def count_subparsers(monkeypatch):
    added, add_parser = [], argparse._SubParsersAction.add_parser

    def counting(self, name, **kwargs):
        added.append(name)
        return add_parser(self, name, **kwargs)

    monkeypatch.setattr(argparse._SubParsersAction, "add_parser", counting)
    return added


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_builds_its_own_parser_alone(command, capsys, monkeypatch):
    built = count_parsers(monkeypatch)
    for argv in (COMMAND_ARGS[command], [command, "--help"]):
        del built[:]
        assert run(argv, capsys)[0] == 0 and built == [f"hfsurgery {command}"], argv


def test_help_builds_every_subparser(capsys, monkeypatch):
    added = count_subparsers(monkeypatch)
    code, out, _ = run(["--help"], capsys)
    assert code == 0 and added == COMMANDS
    assert "{validate,info,rank,scan,cosmetic,complement,gen}" in out


def test_module_entry_point():
    code, out, _ = scale.run("-m", "hfsurgery", "rank", "trefoil_rh", "-p", "1", "-q", "1")
    assert code == 0 and out == "oracle=1 formula=1\n"


def test_the_cli_imports_neither_dataclasses_nor_inspect():
    # A fresh child, since this process has already imported both.
    code, out, _ = scale.run("-c", "import sys, hfsurgery.cli; print({'dataclasses', 'inspect'} & set(sys.modules))")
    assert code == 0 and out == "set()\n"


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
    # A pipe whose read end is closed before the child starts: every write fails.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "hfsurgery", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=scale.ENV,
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


# sha256 over the label, exit code and stdout of every command below, pinned
# so that a change to the CLI or the library keeps every command's output
# byte for byte.  stderr and --help are left out: their argparse text
# changes between Python versions.
CLI_STDOUT_SHA256 = "9ddf0831171406223568f4be4313e7040cd82734e536faad37f1008cd1a40c99"


def test_every_commands_stdout_is_pinned(tmp_path, capsys):
    path = tmp_path / "tensor.json"
    path.write_text(models.tensor_of("trefoil_rh", "figure_eight").to_json())
    digest = hashlib.sha256()
    for label, source in [*zip(BUILTIN_NAMES, BUILTIN_NAMES), ("FILE", str(path))]:
        for command, *words in (
            ["validate"], ["info"], ["rank", "-p", "5", "-q", "3"],
            ["rank", "-p", "5", "-q", "3", "--format", "tsv"],
            ["rank", "-p", "5", "-q", "3", "--format", "json"],
            ["scan", "--pmax", "3", "--qmax", "3", "--check"],
            ["cosmetic", "-r", "5/1", "-s", "5/3"], ["complement", "-q", "2"],
        ):
            code, out, _ = run([command, source, *words], capsys)
            digest.update(json.dumps([" ".join([command, label, *words]), code, out]).encode())
    for name in BUILTIN_NAMES:
        code, out, _ = run(argv := ["gen", "--builtin", name], capsys)
        digest.update(json.dumps([" ".join(argv), code, out]).encode())
    assert digest.hexdigest() == CLI_STDOUT_SHA256


# -- fuzz: any file content, any small slope, no traceback --------------------

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
# A lone surrogate (category Cs) is a str that UTF-8 cannot encode, and JSON
# text can spell one (\ud800), so ids and names may hold it.
SURROGATES = st.characters(categories=["Cs"])
GEN_IDS = st.sampled_from("abcdef") | SURROGATES
NAMES = st.text(st.characters() | SURROGATES, max_size=6)


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
        data = json.loads(random_complex(spec).to_json())
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
        data["name"] = draw(NAMES | JSON_VALUES)
    return json.dumps(data)


SMALL = st.integers(0, 3)
SLOPE_TEXT = st.builds("{}/{}".format, st.integers(-1, 3), SMALL)


def _utf8_stream() -> io.TextIOWrapper:
    return io.TextIOWrapper(io.BytesIO(), encoding="utf-8", errors="strict")


@settings(max_examples=60, deadline=None)
@given(
    content=st.binary(max_size=24) | JSON_VALUES.map(json.dumps) | small_complexes(),
    p=SMALL, q=SMALL, r=SLOPE_TEXT, s=SLOPE_TEXT,
    fmt=st.sampled_from(["plain", "json"]),
)
# A lone surrogate in the name and in an id, which JSON text can spell and
# no output may carry raw.
@example(
    content=json.dumps({"name": "k\ud800", "generators": [{"id": "\udfff", "alexander": 0}]}),
    p=1, q=1, r="1/1", s="1/2", fmt="plain",
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
            # Strict UTF-8 streams, as a real stdout and stderr are: a str
            # UTF-8 cannot encode raises UnicodeEncodeError on write, which
            # main reports as a ValueError, so its message is looked for.
            with _utf8_stream() as out, _utf8_stream() as err:
                with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                    try:
                        code = cli.main([*args, "--format", fmt])
                    except SystemExit as exc:  # argparse usage errors
                        code = exc.code
                err.flush()
                message = err.buffer.getvalue().decode()
            assert code in (0, 1, 2), (args, message)
            assert "Traceback" not in message, args
            assert "can't encode" not in message, (args, message)
