"""Benchmark for hfsurgery: end-to-end metrics, or per-layer metrics when traced.

    python3 perfbench/run.py --workload scan-grid --seed 1 --seconds 20 --trace 0

A run is one process and one closed-loop client.  It repeats the
workload's fixed load (a pass) on fresh inputs; the pass count is the
run's ``--seconds`` divided by the pass's nominal duration at the seed, so
two commits always do the same work.  Each query is timed alone and
checked after its pass.

Other tenants of a shared machine slow every instruction of a run, in
phases of seconds to a minute.  So each measured time is scaled to a fixed
machine speed by the probes of ``gauge.py``, run between the queries, and
a query's time is the median of its scaled times over the passes (every
pass runs the same queries in the same order).  ``wall_s`` is the sum of
those times, ``queries_per_s`` its rate, and the latency percentiles are
over the same per-query times.  ``setup_s`` is the median of all scaled
set-ups in the run.

The last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics of BENCHMARK.json, or
with ``--trace 1`` its per-layer metrics.  A readable report of every
metric, including the ones that are zero or undefined on a workload, goes
to stderr.  Exit code 2 means the package source is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from gauge import PROBE_EVERY_S, Gauge

ROOT = Path(__file__).resolve().parent.parent
MIN_PASSES = 2
SETUP_REPEATS = 5  # set-up is cheap and noisy; its median is over all repeats
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile

END_TO_END_UNITS = {
    "wall_s": "s",
    "queries_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metric -> (unit, how it is read from a pass summary).
_SELF = lambda kind: (lambda s: s[f"{kind}.self_s"])
_CALLS = lambda kind: (lambda s: s[f"{kind}.calls"])
_RATIO = lambda hits, calls: (lambda s: s[hits] / s[calls] if s[calls] else 0.0)
PER_LAYER = {
    "f2.elim_cone_s": ("s", _SELF("f2.elim_cone")),
    "f2.elim_cone_dim": ("count", lambda s: s["cone_dim"]),
    "f2.elim_cone_nnz": ("count", lambda s: s["cone_nnz"]),
    "surgery.cone_assemble_s": ("s", _SELF("surgery.cone_assemble")),
    "f2.elim_small_s": ("s", _SELF("f2.elim_small")),
    "f2.elim_small_calls": ("count", _CALLS("f2.elim_small")),
    "f2.homology_s": ("s", _SELF("f2.homology")),
    "f2.homology_calls": ("count", _CALLS("f2.homology")),
    "f2.induced_s": ("s", _SELF("f2.induced")),
    "f2.matmul_s": ("s", _SELF("f2.matmul")),
    "cfk.region_s": ("s", _SELF("cfk.region")),
    "cfk.chainmap_s": ("s", _SELF("cfk.chainmap")),
    "cfk.region_built": ("count", lambda s: s["region_calls"] - s["region_hits"]),
    "cfk.chainmap_built": ("count", lambda s: s["chainmap_calls"] - s["chainmap_hits"]),
    "cfk.region_hit_ratio": ("ratio", _RATIO("region_hits", "region_calls")),
    "cfk.chainmap_hit_ratio": ("ratio", _RATIO("chainmap_hits", "chainmap_calls")),
    "cfk.parse_s": ("s", _SELF("cfk.parse")),
    "cfk.validate_s": ("s", _SELF("cfk.validate")),
    "cfk.genus_s": ("s", _SELF("cfk.genus")),
    "surgery.chain_route_s": ("s", _SELF("surgery.chain_route")),
    "surgery.homological_route_s": ("s", _SELF("surgery.homological_route")),
    "surgery.formula_s": ("s", _SELF("surgery.formula")),
    "surgery.t_s": ("s", _SELF("surgery.t")),
    "surgery.hypothesis_s": ("s", _SELF("surgery.hypothesis")),
    "obstructions.check_s": ("s", _SELF("obstructions.check")),
    "cli.run_ms": ("ms", lambda s: s["cli.run.self_s"] * 1e3),
    "cli.import_ms": ("ms", lambda s: s["import_ms"]),
    "trace.wall_s": ("s", lambda s: s["wall_s"]),
    "trace.untraced_wall_s": ("s", lambda s: s["untraced_wall_s"]),
}


class MissingSource(Exception):
    pass


def import_package() -> float:
    """Import hfsurgery from this checkout's src/; returns the import time in ms."""
    package = ROOT / "src" / "hfsurgery"
    if not (package / "__init__.py").is_file():
        raise MissingSource(f"no package source at {package}")
    sys.path.insert(0, str(ROOT / "src"))
    start = time.perf_counter()
    import hfsurgery.cli  # noqa: F401

    elapsed_ms = (time.perf_counter() - start) * 1e3
    if Path(hfsurgery.__file__).resolve().parent != package.resolve():
        raise MissingSource(f"hfsurgery was imported from {hfsurgery.__file__}, not {package}")
    return elapsed_ms


def tail(samples: list[float]) -> tuple[float, float] | None:
    """(percentile, value): the highest nearest-rank percentile with at
    least TAIL_BEYOND samples beyond it, or None for too few samples."""
    n = len(samples)
    if n <= TAIL_BEYOND:
        return None
    return 100.0 * (n - TAIL_BEYOND) / n, sorted(samples)[n - TAIL_BEYOND - 1]


def run_pass(workload, tracer=None) -> dict:
    gauge = Gauge()
    setups = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        gauge.probe()
        start = time.perf_counter()
        queries = workload.setup()
        setups.append((start, time.perf_counter() - start))
    gc.collect()
    latencies, outputs = [], []
    if tracer is not None:
        tracer.reset()
        tracer.install()
    try:
        last_probe = gauge.probe()
        for query in queries:
            start = time.perf_counter()
            try:
                out, error = query.run(), None
            except Exception as exc:  # a raising query is a failed query
                out, error = None, f"raised {type(exc).__name__}: {exc}"
            end = time.perf_counter()
            latencies.append((start, end - start))
            outputs.append((out, error))
            if end - last_probe >= PROBE_EVERY_S:
                last_probe = gauge.probe()
        gauge.probe()
    finally:
        if tracer is not None:
            tracer.remove()
    failures = []
    for query, (out, error) in zip(queries, outputs):
        if error is None:
            try:
                error = query.check(out)
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        if error:
            failures.append(f"{query.label}: {error}")
    result = {
        "setup_s": [took * gauge.scale(at) for at, took in setups],
        "latencies": [took * gauge.scale(at) for at, took in latencies],
        "measured_s": sum(took for _, took in latencies),
        "probe_s": gauge.speed(),
        "probe_nominal_s": gauge.nominal_s,
        "queries": len(queries),
        "failures": failures,
    }
    if tracer is not None:
        result["summary"] = tracer.summary()
    return result


def measure(name: str, seed: int, seconds: float, trace: bool, small: bool = False, record=None,
            import_ms: float = 0.0) -> dict:
    """Run one workload and return its metrics plus the raw per-pass data."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed, small=small, record=record)
    passes = max(MIN_PASSES, round(seconds / workload.nominal_pass_s))
    tracer = None
    if trace:
        from spans import Tracer

        tracer = Tracer()
    try:
        if trace:
            # One untraced pass first: it warms up, and its wall time sits
            # beside the traced ones to show the tracing overhead.  Half the
            # passes are traced, which keeps the traced run about as long as
            # an untraced one.
            untraced = run_pass(workload)
            traced = max(1, passes // 2)
            runs = [run_pass(workload, tracer=tracer) for _ in range(traced)]
        else:
            untraced = None
            runs = [run_pass(workload) for _ in range(passes)]
    finally:
        workload.close()
    every = runs + ([untraced] if untraced else [])
    failures = [f for r in every for f in r["failures"]]
    latencies = [statistics.median(of_query) for of_query in zip(*(r["latencies"] for r in runs))]
    measured = [r["measured_s"] for r in runs]
    result = {
        "workload": name,
        "passes": len(runs),
        "attempted": sum(r["queries"] for r in every),
        "failed": len(failures),
        "failures": failures,
        "samples": len(latencies),
        "tail": tail(latencies),
        "median_pass_s": statistics.median(measured),
        "median_probe_s": statistics.median(r["probe_s"] for r in every),
        "probe_nominal_s": runs[0]["probe_nominal_s"],
    }
    if trace:
        layer = {}
        for metric, (_, read) in PER_LAYER.items():
            values = []
            for r in runs:
                summary = dict(r["summary"], wall_s=sum(r["latencies"]),
                               untraced_wall_s=sum(untraced["latencies"]), import_ms=import_ms)
                values.append(read(summary))
            layer[metric] = statistics.median(values)
        result["metrics"] = layer
    else:
        wall_s = sum(latencies)
        metrics = {
            "wall_s": wall_s,
            "queries_per_s": result["samples"] / wall_s,
            "latency_p50_ms": statistics.median(latencies) * 1e3,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "setup_s": statistics.median(x for r in runs for x in r["setup_s"]),
        }
        if result["tail"] is not None:
            metrics["latency_tail_ms"] = result["tail"][1] * 1e3
        result["metrics"] = metrics
    return result


def result_line(result: dict, names: list[str]) -> str:
    units = dict(END_TO_END_UNITS, **{k: u for k, (u, _) in PER_LAYER.items()})
    return json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            name: {"value": result["metrics"][name], "unit": units[name]} for name in names
        },
    })


def report(result: dict, trace: bool, out=sys.stderr) -> None:
    rule = "per-layer values are medians over traced passes" if trace else (
        "each query counts at its median scaled time over the passes")
    print(f"workload {result['workload']}: {result['passes']} passes of "
          f"{result['samples']} queries; {rule}", file=out)
    ratio = result["failed"] / result["attempted"]
    print(f"  failed_ratio = {ratio:.6g} ({result['failed']} of {result['attempted']})", file=out)
    print(f"  speed probe = {result['median_probe_s'] * 1e3:.4g} ms measured, "
          f"{result['probe_nominal_s'] * 1e3:.4g} ms nominal; times below are scaled to the nominal",
          file=out)
    for failure in result["failures"][:20]:
        print(f"  FAILED {failure}", file=out)
    units = END_TO_END_UNITS if not trace else {k: u for k, (u, _) in PER_LAYER.items()}
    for name, unit in units.items():
        value = result["metrics"].get(name)
        shown = "undefined" if value is None else f"{value:.6g} {unit}"
        if name == "latency_tail_ms" and result["tail"] is not None:
            shown += f" (p{result['tail'][0]:.2f} of {result['samples']} queries)"
        if name == "wall_s" and not trace:
            shown += f" (median measured pass {result['median_pass_s']:.6g} s, unscaled)"
        print(f"  {name} = {shown}", file=out)
    if trace:
        metrics = result["metrics"]
        overhead = metrics["trace.wall_s"] / metrics["trace.untraced_wall_s"] - 1
        print(f"  tracing overhead = {overhead:+.1%} of the untraced pass", file=out)


def benchmark_names(trace: bool) -> list[str]:
    with open(ROOT / "BENCHMARK.json") as handle:
        spec = json.load(handle)
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        import_ms = import_package()
    except MissingSource as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace), import_ms=import_ms)
    report(result, bool(args.trace))
    print(result_line(result, benchmark_names(bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
