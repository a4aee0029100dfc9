"""The committed value record, rebuilt and compared line by line.

``scripts/value_record.py`` writes one JSON line per complex of a fixed
corpus: its invariants, its containment report, every rank and t at each
of its slopes, and its ``complement`` verdicts.  A change that moves any
of them fails here, and the message names the complex, the key and both
values.  Rewrite the record with that script only on purpose.
"""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "scripts"))

import value_record


def differences(recorded, rebuilt, key=""):
    """(key, recorded value, rebuilt value) for each value that differs,
    the key a path of dict keys and, in a slope's list, value names."""
    if isinstance(recorded, dict) and isinstance(rebuilt, dict):
        for k in sorted(recorded.keys() | rebuilt.keys()):
            yield from differences(recorded.get(k), rebuilt.get(k), f"{key}.{k}" if key else k)
    elif key.startswith("slopes.") and isinstance(recorded, list) and isinstance(rebuilt, list):
        for name, old, new in zip(value_record.SLOPE_KEYS, recorded, rebuilt):
            yield from differences(old, new, f"{key}.{name}")
    elif recorded != rebuilt:
        yield key, recorded, rebuilt


def test_value_record_unchanged():
    recorded = value_record.RECORD.read_text().splitlines()
    rebuilt = list(value_record.lines())
    assert len(rebuilt) == len(recorded), f"{len(recorded)} complexes recorded, {len(rebuilt)} rebuilt"
    for old, new in zip(recorded, rebuilt):
        if old == new:
            continue
        old, new = json.loads(old), json.loads(new)
        found = [f"{key}: recorded {a!r}, rebuilt {b!r}" for key, a, b in differences(old, new)]
        pytest.fail(f"complex {old['name']}: " + "; ".join(found[:10] or ["same values, but the line's text differs"]))

