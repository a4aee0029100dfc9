"""Regenerate expected_ranks.json, the rank record for complexes without a
closed-form golden value.

    python perfbench/make_expected.py

Each recorded rank comes from the chain route and must equal the
homological route; the script refuses to write the file otherwise.
"""

import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

from hfsurgery import cone_rank_chain, cone_rank_homological  # noqa: E402
from workloads import EXPECTED_PATH, GRID, NONTRIVIAL, build, golden_rank, tensor_name  # noqa: E402


def main() -> int:
    plan = {"trefoil_lh": GRID}
    for a, b in combinations_with_replacement(NONTRIVIAL, 2):
        plan[tensor_name(a, b)] = GRID
    record = {}
    for name, slopes in plan.items():
        c = build(name)
        ranks = {}
        for s in slopes:
            chain = cone_rank_chain(c, s)
            if chain != cone_rank_homological(c, s) or golden_rank(name, s.p, s.q) is not None:
                print(f"{name} {s}: routes disagree or a golden exists", file=sys.stderr)
                return 1
            ranks[str(s)] = chain
        record[name] = ranks
    with open(EXPECTED_PATH, "w") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
