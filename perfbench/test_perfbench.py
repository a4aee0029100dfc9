"""Self-tests of the benchmark, at tiny sizes.

    python -m pytest perfbench -q
"""

import io
import json
import shutil
import subprocess
import sys

import pytest

import gauge
import run

run.import_package()

import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _measure(name, trace, record=None):
    return run.measure(name, seed=3, seconds=0, trace=trace, small=True, record=record,
                       import_ms=1.0)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_with_its_unit(name, trace):
    result = _measure(name, trace)
    assert result["failures"] == []
    listed = SPEC["per_layer" if trace else "end_to_end"]
    line = json.loads(run.result_line(result, [m["name"] for m in listed]))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    assert line["metrics"] == {
        m["name"]: {"value": line["metrics"][m["name"]]["value"], "unit": m["unit"]} for m in listed
    }
    for m in listed:
        assert line["metrics"][m["name"]]["value"] > 0, m["name"]
    text = io.StringIO()
    run.report(result, trace, out=text)
    units = run.END_TO_END_UNITS if not trace else {k: u for k, (u, _) in run.PER_LAYER.items()}
    for metric, unit in units.items():
        assert f"{metric} = " in text.getvalue()
        assert f" {unit}" in text.getvalue()
    assert "failed_ratio = 0 " in text.getvalue()


def test_wrong_expected_rank_raises_failed_ratio():
    record = workloads.load_expected()
    record["trefoil_rh#figure_eight"]["1/1"] += 1
    result = _measure("scan-grid", False, record=record)
    # Per pass: the rank query at 1/1, the obstruction query that reuses it.
    assert result["failed"] == 2 * result["passes"]
    line = json.loads(run.result_line(result, ["wall_s"]))
    assert line["correct"] is False and line["failed"] == result["failed"]


def test_no_wrapper_survives_the_traced_run():
    mods = spans._modules()
    before = {name: dict(vars(mod)) for name, mod in mods.items()}
    for w in SPEC["workloads"]:
        _measure(w["name"], True)
    assert spans.leftover_wrappers() == []
    for name, mod in mods.items():
        assert dict(vars(mod)) == before[name]


def test_wrappers_are_removed_when_traced_work_raises():
    tracer = spans.Tracer()
    with pytest.raises(ZeroDivisionError):
        with tracer:
            assert spans.leftover_wrappers()
            1 / 0
    assert spans.leftover_wrappers() == []


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    assert run.tail(list(range(11))) == (100 * 1 / 11, 0)
    assert run.tail(list(range(100))) == (90.0, 89)


def test_gauge_scales_by_the_nearest_probes():
    g = gauge.Gauge()
    g.probe()
    assert g.took[0] > 0
    # Probes at t = 0..29: the machine runs at half the nominal speed until
    # t = 16, then at the nominal speed.
    g.at = [float(t) for t in range(30)]
    g.took = [2 * g.nominal_s] * 16 + [g.nominal_s] * 14
    assert g.scale(-1.0) == g.scale(3.5) == 0.5
    assert g.scale(25.0) == g.scale(99.0) == 1.0
    assert g.speed() == 2 * g.nominal_s


def test_fails_without_the_package_source(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable] + SPEC["command"][1:]
        + ["--workload", "scan-grid", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
