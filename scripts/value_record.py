#!/usr/bin/env python3
"""Write the value record: every rank, invariant and verdict over one fixed
corpus, one JSON line per complex with sorted keys and no timings, to
``tests/value_record.jsonl``.

The corpus is built from code and seeds alone: the builtins, the pairwise
tensors of the nontrivial ones (each pair once, a builtin with itself
too), the fuzz corpus ``CORPUS_SPECS`` of ``tests/test_acceptance.py``,
two staircases and ``t25#t27#figure_eight``.  Each line holds the
complex's genus, b, z (``acyclic_sum``), nu where b = 1, the sha256 of the
essential summand's JSON and the containment report; at every slope of
:data:`SLOPES` one list of the chain, homological, closed-form and kernel
ranks and t (:data:`SLOPE_KEYS`); and the ``complement`` verdicts and
ranks at q = 1..3.

``tests/test_value_record.py`` rebuilds the record and compares it line by
line, so a change that moves any value fails there.  Rewriting the record
is a deliberate act: say which values changed, and why.

Usage: python scripts/value_record.py
"""

import hashlib
import json
import sys
from itertools import combinations_with_replacement
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]

from hfsurgery import surgery
from hfsurgery.knots import BUILTIN_NAMES, builtin, random_complex, staircase, tensor
from hfsurgery.obstructions import complement_check
from hfsurgery.surgery import Slope, coprime_slopes
from test_acceptance import CORPUS_SPECS

RECORD = ROOT / "tests" / "value_record.jsonl"
# Every coprime p, q <= 8; then 61/3 and 200001/1, past the last HatB
# block of most of the corpus, 1/40, a long sweep, and 20001/12347, a
# large q.
SLOPES = coprime_slopes(8, 8) + [Slope(61, 3), Slope(1, 40), Slope(200001, 1), Slope(20001, 12347)]
# The values at each slope, in the order a slope's list holds them.
SLOPE_KEYS = ("chain", "homological", "formula", "kernel", "t")
COMPLEMENT_QS = (1, 2, 3)


def corpus():
    """The complexes of the record, built afresh, in record order."""
    nontrivial = [name for name in BUILTIN_NAMES if name != "unknot"]
    yield from map(builtin, BUILTIN_NAMES)
    for a, b in combinations_with_replacement(nontrivial, 2):
        yield tensor(builtin(a), builtin(b))
    yield from map(random_complex, CORPUS_SPECS)
    yield staircase([1, 2, 2, 1])
    yield staircase([3, 1, 1, 3])
    yield tensor(tensor(builtin("t25"), builtin("t27")), builtin("figure_eight"))


def slope_values(c, slope: Slope) -> list:
    """The values of :data:`SLOPE_KEYS` at one slope, in that order."""
    return [
        surgery.cone_rank_chain(c, slope),
        surgery.cone_rank_homological(c, slope),
        surgery.rank_formula(c, slope),
        surgery.kernel_rank(c, slope),
        surgery.t_invariant(c, slope),
    ]


def _verdict(check) -> dict:
    return {"verdict": check.verdict, "ranks": list(check.ranks)}


def values(c) -> dict:
    """Everything the record holds for one complex."""
    b = c.b_rank()
    return {
        "name": c.name,
        "genus": c.genus(),
        "b": b,
        "acyclic_sum": c.acyclic_sum(),
        "nu": surgery.nu_surrogate(c) if b == 1 else None,
        "summand_sha256": hashlib.sha256(c.essential_summand.to_json().encode()).hexdigest(),
        "containment": surgery.hypothesis_verdicts(c).to_json_dict(),
        "slopes": {str(slope): slope_values(c, slope) for slope in SLOPES},
        "complement": {str(q): _verdict(complement_check(c, q)) for q in COMPLEMENT_QS},
    }


def lines():
    """The record's lines, without their newlines."""
    for c in corpus():
        yield json.dumps(values(c), sort_keys=True, separators=(",", ":"))


if __name__ == "__main__":
    record = list(lines())
    RECORD.write_text("".join(line + "\n" for line in record))
    print(f"wrote {len(record)} complexes to {RECORD.relative_to(ROOT)}")
