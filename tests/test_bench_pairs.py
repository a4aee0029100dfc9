"""The summary arithmetic of ``scripts/bench_pairs.py``, on fixed numbers:
no benchmark is run."""

import importlib.util
import pathlib

SCRIPT = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "bench_pairs.py"


def _script():
    """The script as a module, loaded from its file without running its
    main block."""
    spec = importlib.util.spec_from_file_location("bench_pairs_script", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


bench_pairs = _script()


def test_the_revision_runs_first_in_the_odd_pairs():
    assert [bench_pairs.order(pair) for pair in (1, 2, 3, 10)] == [
        ("rev", "tree"), ("tree", "rev"), ("rev", "tree"), ("tree", "rev"),
    ]


def test_medians_quartiles_and_wins_of_a_lower_is_better_metric():
    # Pair 3 is a tie and pair 5 a loss, so the tree is lower in 3 of 5.
    # The revision's inclusive quartiles of 1..5 are 2 and 4.
    rev = [1.0, 2.0, 3.0, 4.0, 5.0]
    tree = [0.5, 1.5, 3.0, 3.5, 6.0]
    assert bench_pairs.summarize(rev, tree, "lower") == {
        "rev_median": 3.0,
        "tree_median": 3.0,
        "rev_q1": 2.0,
        "rev_q3": 4.0,
        "better": 3,
        "pairs": 5,
        "apart": False,
    }


def test_a_higher_is_better_metric_counts_the_pairs_where_the_tree_is_higher():
    rev = [10.0, 10.0, 12.0, 14.0]
    tree = [11.0, 9.0, 20.0, 21.0]
    s = bench_pairs.summarize(rev, tree, "higher")
    assert (s["better"], s["rev_median"], s["tree_median"]) == (3, 11.0, 15.5)
    # Quartiles 10 and 12.5: the medians lie 4.5 apart, past the spread 2.5.
    assert (s["rev_q1"], s["rev_q3"], s["apart"]) == (10.0, 12.5, True)


def test_the_summary_line_quotes_the_protocol():
    s = bench_pairs.summarize([0.12, 0.121, 0.122, 0.123], [0.11, 0.111, 0.112, 0.124], "lower")
    line = bench_pairs.summary_line("wall_s", "s", "lower", s)
    assert "lower in 3 of 4" in line
    assert "0.1215 -> 0.1115 s (-8.2%)" in line
    assert "further apart than their spread" in line
