"""The paired-benchmark summary in ``tools/pairs.py``: quartiles, wins with
ties counted for neither side, and the median gap against the parent's
interquartile range, in both directions."""

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tools"))

import pairs  # noqa: E402


def test_quartiles_interpolate_like_numpy_linear():
    assert pairs.quartiles([4.0, 1.0, 3.0, 2.0, 5.0]) == (2.0, 3.0, 4.0)
    assert pairs.quartiles([1.0, 2.0]) == (1.25, 1.5, 1.75)
    assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)


def test_lower_is_better_wins_ties_and_gap():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    change = [8.0, 11.0, 9.0, 15.0, 7.0]  # better in 3, tie in 1, worse in 1
    s = pairs.summarize(parent, change)
    assert s["change_better_in_pairs"] == "3/5"
    assert s["change_worse_in_pairs"] == "1/5"
    assert s["parent"] == {"q1": 11.0, "median": 12.0, "q3": 13.0}
    assert s["change"]["median"] == 9.0
    assert s["median_gap"] == -3.0 and s["parent_iqr"] == 2.0
    assert s["median_delta"] == pytest.approx(-0.25)
    assert s["median_gap_exceeds_parent_iqr"] is True


def test_gap_must_point_the_better_way_and_exceed_the_iqr():
    parent = [10.0, 11.0, 12.0, 13.0, 14.0]
    worse = pairs.summarize(parent, [v + 5.0 for v in parent])
    assert worse["change_better_in_pairs"] == "0/5"
    assert worse["median_gap_exceeds_parent_iqr"] is False
    within = pairs.summarize(parent, [v - 2.0 for v in parent])  # gap == IQR
    assert within["change_better_in_pairs"] == "5/5"
    assert within["median_gap_exceeds_parent_iqr"] is False


def test_higher_is_better():
    s = pairs.summarize([1.0, 1.0, 1.0], [2.0, 1.0, 0.5], better="higher")
    assert s["change_better_in_pairs"] == "1/3"
    assert s["change_worse_in_pairs"] == "1/3"
    assert s["median_gap_exceeds_parent_iqr"] is False
    assert pairs.summarize([1.0, 1.0], [3.0, 3.0], better="higher")[
        "median_gap_exceeds_parent_iqr"] is True


def test_bad_input_rejected():
    with pytest.raises(ValueError, match="paired"):
        pairs.summarize([1.0, 2.0], [1.0])
    with pytest.raises(ValueError, match="paired"):
        pairs.summarize([], [])
    with pytest.raises(ValueError, match="better"):
        pairs.summarize([1.0], [1.0], better="faster")


def _run(wall, digest, failed=0.0):
    report = {"stages": {"wall_s": wall, "peak_rss_mb": 60.0}, "passes": 3,
              "failed_ratio": failed, "digests": {"eval/metrics.txt": digest},
              "env": {"seed": 0}}
    return {"report": report, "correct": failed == 0.0}


def test_build_record_flags_digests_and_failures():
    runs = [
        {"pair": 0, "seed": 0, "first": "parent",
         "parent": _run(3.0, "a"), "change": _run(2.0, "a")},
        {"pair": 1, "seed": 1, "first": "change",
         "parent": _run(3.2, "a"), "change": _run(2.5, "b", failed=0.1)},
    ]
    rec = pairs.build_record(runs, trace=0, directions={"wall_s": "lower"})
    assert rec["pairs"] == 2
    assert set(rec["summary"]) == {"wall_s", "peak_rss_mb"}
    assert rec["summary"]["wall_s"]["change_better_in_pairs"] == "2/2"
    assert rec["summary"]["peak_rss_mb"]["change_better_in_pairs"] == "0/2"
    assert [r["digests_equal"] for r in rec["runs"]] == [True, False]
    assert rec["digests_equal_all_pairs"] is False
    assert rec["failed_ratio_max"] == 0.1 and rec["correct_all_runs"] is False
    assert rec["runs"][1]["change"]["wall_s"] == 2.5


def test_build_record_keeps_setup_samples():
    # the samples behind each run's medians go into its row, set-up included
    runs = []
    for i, (p_setup, c_setup) in enumerate([([0.4, 0.6, 0.5], [0.3, 0.9]), ([1.1], [0.5, 0.7])]):
        pair = {"pair": i, "seed": i, "first": "parent"}
        for side, setup in (("parent", p_setup), ("change", c_setup)):
            run = _run(3.0 + i, "a")
            run["report"]["setup_peak_rss_mb"] = 40.0 + i
            run["report"]["samples"] = {"setup_s": setup,
                                        "passes": [{"wall_s": 3.0 + i, "student_s": 2.0}]}
            pair[side] = run
        runs.append(pair)
    rec = pairs.build_record(runs, trace=0, directions={})
    assert rec["runs"][0]["parent"]["samples"]["setup_s"] == [0.4, 0.6, 0.5]
    assert rec["runs"][1]["change"]["samples"]["setup_s"] == [0.5, 0.7]
    assert rec["runs"][1]["parent"]["samples"]["passes"] == [{"wall_s": 4.0, "student_s": 2.0}]
    assert [r["change"]["setup_peak_rss_mb"] for r in rec["runs"]] == [40.0, 41.0]
    # traced reports carry no samples; their rows have none either
    traced = [{"pair": 0, "seed": 0, "first": "parent",
               "parent": _run(3.0, "a"), "change": _run(2.0, "a")}]
    for side in ("parent", "change"):
        traced[0][side]["report"]["layers"] = {"tensor.nodes.student_step": 2460}
    row = pairs.build_record(traced, trace=1, directions={})["runs"][0]
    assert "samples" not in row["parent"] and "setup_peak_rss_mb" not in row["change"]
