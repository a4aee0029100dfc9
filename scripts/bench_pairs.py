"""Compare the working tree with a git revision on the benchmark, in
alternating pairs of ``perfbench/run.py`` runs.

    python scripts/bench_pairs.py REV [--workload W] [--pairs N] [--seconds S]

REV is exported by ``git archive`` into a temporary directory, and each
pair runs the benchmark once on that copy and once on the working tree,
uncommitted changes included, at the same seed: pair i uses seed i, and
REV runs first in the odd pairs and second in the even ones, so a slow
phase of the machine falls on both sides alike.  Without ``--workload``
every workload of BENCHMARK.json is compared, one after the other.

For each workload it prints every pair's end-to-end metrics, REV's value
then the working tree's, and for each metric both sides' medians, REV's
quartiles and how often the working tree came out lower (or higher, for
a metric where higher is better): "lower in k of N".  A run that fails
or reports a failed query is printed and counted against no metric.
Nothing under ``perfbench/`` is written.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import statistics
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent


def order(pair: int) -> tuple[str, str]:
    """The sides of pair ``pair``, counted from 1, in the order they run:
    the revision first in the odd pairs."""
    return ("rev", "tree") if pair % 2 else ("tree", "rev")


def summarize(rev: list[float], tree: list[float], better: str) -> dict:
    """The summary of one metric over N pairs, ``rev[i]`` and ``tree[i]``
    being pair i's two values: each side's median, the revision's first
    and third quartiles (inclusive method), and the number of pairs in
    which the tree's value is on the ``better`` side, "lower" or
    "higher", of the revision's, a tie counting for neither; and
    ``apart``, whether the medians lie further apart than the revision's
    quartiles."""
    q1, _, q3 = statistics.quantiles(rev, n=4, method="inclusive")
    sign = 1 if better == "higher" else -1
    rev_median, tree_median = statistics.median(rev), statistics.median(tree)
    return {
        "rev_median": rev_median,
        "tree_median": tree_median,
        "rev_q1": q1,
        "rev_q3": q3,
        "better": sum(1 for a, b in zip(rev, tree) if sign * (b - a) > 0),
        "pairs": len(rev),
        "apart": abs(tree_median - rev_median) > q3 - q1,
    }


def summary_line(name: str, unit: str, better: str, s: dict) -> str:
    change = s["tree_median"] / s["rev_median"] - 1
    return (
        f"  {name}: {s['rev_median']:.6g} -> {s['tree_median']:.6g} {unit} ({change:+.1%}), "
        f"{better} in {s['better']} of {s['pairs']}; rev quartiles {s['rev_q1']:.6g}-{s['rev_q3']:.6g}, "
        f"medians {'further apart than' if s['apart'] else 'within'} their spread"
    )


def run(tree: pathlib.Path, workload: str, seed: int, seconds: float) -> dict | None:
    """One benchmark run on ``tree``: its result, or None when the run
    fails, with its stderr printed."""
    done = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if done.returncode != 0 or not done.stdout.strip():
        print(f"    run failed in {tree} (exit {done.returncode}):\n{done.stderr}", file=sys.stderr)
        return None
    return json.loads(done.stdout.splitlines()[-1])


def export(rev: str, into: pathlib.Path) -> None:
    """Write the files of ``rev`` into ``into`` by ``git archive``."""
    archive = subprocess.run(["git", "archive", rev], cwd=ROOT, capture_output=True, check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive, check=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("rev")
    parser.add_argument("--workload")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=20)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [args.workload] if args.workload else [w["name"] for w in spec["workloads"]]
    metrics = spec["end_to_end"]
    with tempfile.TemporaryDirectory() as tmp:
        trees = {"rev": pathlib.Path(tmp), "tree": ROOT}
        export(args.rev, trees["rev"])
        for workload in workloads:
            print(f"workload {workload}: {args.pairs} pairs of {args.seconds:g} s, {args.rev} -> working tree")
            values = {m["name"]: ([], []) for m in metrics}
            for pair in range(1, args.pairs + 1):
                results = {side: run(trees[side], workload, pair, args.seconds) for side in order(pair)}
                failed = [side for side, r in results.items() if r is None or not r["correct"]]
                cells = []
                for m in metrics:
                    got = [r and r["metrics"].get(m["name"], {}).get("value") for r in (results["rev"], results["tree"])]
                    cells.append(f"{m['name']} " + " / ".join("-" if v is None else f"{v:.6g}" for v in got))
                    if not failed and None not in got:
                        values[m["name"]][0].append(got[0])
                        values[m["name"]][1].append(got[1])
                note = f"  FAILED: {', '.join(failed)}" if failed else ""
                print(f"  pair {pair} (seed {pair}, {order(pair)[0]} first): " + "; ".join(cells) + note)
            for m in metrics:
                rev, tree = values[m["name"]]
                if len(rev) >= 2:
                    print(summary_line(m["name"], m["unit"], m["better"], summarize(rev, tree, m["better"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
