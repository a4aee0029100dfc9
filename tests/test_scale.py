"""The checks of ``scale.py`` at the scale where regressions show: each
memory bound is read from a fresh child's ``ru_maxrss``, never from this
process."""

import json

import pytest

from hfsurgery.cfk import CfkComplex

import scale
from models import dot_and_box, dot_and_pair


@pytest.mark.parametrize("check, bound_mb", [("big_cones", 40), ("wide_complexes", 40), ("rung", 200)])
def test_check_passes_in_a_fresh_process_under_its_bound(check, bound_mb):
    code, _, peak_mb = scale.run("-c", f"import scale; scale.{check}()")
    assert code == 0
    assert peak_mb <= bound_mb


@pytest.mark.parametrize("build, rank", [(dot_and_box, 399999), (dot_and_pair, 5)])
def test_rank_and_info_on_wide_json_stay_under_28_mb_per_process(build, rank, tmp_path):
    # The containment verdicts are held as one run per side and neither
    # command prints them per s, so neither holds anything per s in
    # [-g, g].
    path = tmp_path / "wide.json"
    path.write_text(build(100000).to_json())
    code, out, peak_mb = scale.run("-m", "hfsurgery", "rank", str(path), "-p", "1", "-q", "1")
    assert code == 0 and out == f"oracle={rank} formula={rank}\n" and peak_mb <= 28
    code, _, peak_mb = scale.run("-m", "hfsurgery", "info", str(path))
    assert code == 0 and peak_mb <= 28


def test_the_6125_generator_rungs_json_is_indented_json_and_round_trips():
    # The writer fills templates from the columns; json.dumps(indent=2) of
    # the parsed text is what json alone writes for the same data.
    text = scale.tensor_of(*scale.RUNG[1]).to_json()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert CfkComplex.from_json(text).to_json() == text
