#!/usr/bin/env python3
"""Survey seeded random complexes: invariants, hypothesis verdicts, and
formula-versus-oracle agreement on a few slopes.

Usage: python scripts/random_survey.py [--count N] [--boxes N]
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

from hfsurgery.knots import RandomSpec, random_complex
from hfsurgery.obstructions import hypothesis_check
from hfsurgery.surgery import Slope, cone_rank_chain, rank_formula

SLOPES = [Slope(1, 1), Slope(1, 2), Slope(2, 1), Slope(3, 2)]


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--count", type=int, default=50)
    parser.add_argument("--boxes", type=int, default=3)
    args = parser.parse_args()

    print("name\tgens\tb\tgenus\thypothesis\t" + "\t".join(map(str, SLOPES)))
    disagreements = 0
    for seed in range(args.count):
        spec = RandomSpec(
            seed=seed,
            dots=1 + seed % 3,
            boxes=seed % (args.boxes + 1),
            max_side=1 + seed % 2,
            max_offset=seed % 3,
        )
        c = random_complex(spec)
        report = c.validate()
        if not report.ok:
            print(f"{c.name}: invalid complex\n{report}", file=sys.stderr)
            return 1
        hyp = hypothesis_check(c).overall
        ranks = []
        for slope in SLOPES:
            oracle = cone_rank_chain(c, slope)
            if hyp and rank_formula(c, slope) != oracle:
                disagreements += 1
            ranks.append(str(oracle))
        print(
            f"{c.name}\t{len(c.columns[0][0])}\t{c.b_rank()}\t{c.genus()}\t"
            + ("pass" if hyp else "fail")
            + "\t"
            + "\t".join(ranks)
        )
    if disagreements:
        print(f"{disagreements} formula/oracle disagreements", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
