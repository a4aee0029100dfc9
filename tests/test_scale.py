"""The checks of ``scale.py`` at the scale where regressions show: each
memory bound is read from a fresh child's ``ru_maxrss``, never from this
process."""

import json
import time

import pytest

from hfsurgery.cfk import CfkComplex
from hfsurgery.knots import RandomSpec, builtin, random_complex, staircase, tensor

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


def test_rank_and_info_on_t27_with_2000_dots_stay_fast_with_b_2000(tmp_path):
    # tensor(t27, 2,000 dots) has 14,000 generators and b = 2,000.  The
    # chain route and the genus read each map's 2,000 pulled classes
    # modulo its source's coboundaries.  Paired with a cycle basis instead,
    # one parity per class and cycle, rank took 8.5-10.6 s and info
    # 1.6-1.9 s; now they take about 0.8 s at 76 MB and 0.2 s at 53 MB
    # (2-core Xeon, Python 3.11.7).  Each time counts the child's start.
    # Rank peaked at 95 MB while each region read for its homology kept
    # its kernel list beside the basis.
    path = tmp_path / "dots.json"
    path.write_text(tensor(builtin("t27"), random_complex(RandomSpec(seed=1, dots=2000))).to_json())
    start = time.perf_counter()
    code, out, peak_mb = scale.run("-m", "hfsurgery", "rank", str(path), "-p", "5", "-q", "3")
    elapsed = time.perf_counter() - start
    assert code == 0 and out == "oracle=50000 formula=50000\n"
    assert elapsed <= 3 and peak_mb <= 90
    start = time.perf_counter()
    code, out, peak_mb = scale.run("-m", "hfsurgery", "info", str(path))
    elapsed = time.perf_counter() - start
    assert code == 0 and "b=2000" in out.split()
    assert elapsed <= 1 and peak_mb <= 80


def test_rank_on_the_1259_generator_staircase_stays_under_100_mb(tmp_path):
    # staircase([1] * 1258) weighs n**2 * k just under MAX_REGION_WEIGHT,
    # and every one of its 630 regions is read for its homology, beside
    # its coboundary table.  Rank peaked at 129 MB while each region kept
    # its kernel list; without it, 78 MB (2-core Xeon, Python 3.11.7).
    path = tmp_path / "staircase.json"
    path.write_text(staircase([1] * 1258).to_json())
    code, out, peak_mb = scale.run("-m", "hfsurgery", "rank", str(path), "-p", "1", "-q", "1")
    assert code == 0 and out == "oracle=2513 formula=2513\n" and peak_mb <= 100


def test_the_6125_generator_rungs_json_is_indented_json_and_round_trips():
    # The writer fills templates from the columns; json.dumps(indent=2) of
    # the parsed text is what json alone writes for the same data.
    text = scale.tensor_of(*scale.RUNG[1]).to_json()
    assert text == json.dumps(json.loads(text), indent=2) + "\n"
    assert CfkComplex.from_json(text).to_json() == text
