"""``tools/bench_ab.py``'s summary maths: quartiles interpolated between
sorted values, each side's extremes, the per-pair change / base ratio,
wins counted in each metric's direction, ties apart, and the side that
runs first alternating from pair to pair. The script is
loaded by its path, as it is no package module."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench_ab.py"
_spec = importlib.util.spec_from_file_location("bench_ab", _PATH)
bench_ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_ab)


@pytest.mark.parametrize("values, expected", [
    ([7.0], (7.0, 7.0, 7.0)),
    ([2.0, 1.0], (1.25, 1.5, 1.75)),
    ([5.0, 1.0, 3.0], (2.0, 3.0, 4.0)),
    ([4.0, 1.0, 3.0, 2.0], (1.75, 2.5, 3.25)),
    ([10.0, 20.0, 30.0, 40.0, 50.0], (20.0, 30.0, 40.0)),
])
def test_quartiles_interpolate_between_sorted_values(values, expected):
    assert bench_ab.quartiles(values) == pytest.approx(expected)


def test_quartiles_of_nothing_is_an_error():
    with pytest.raises(ValueError):
        bench_ab.quartiles([])


def test_a_win_follows_the_metrics_direction_and_a_tie_is_no_win():
    pairs = [(10.0, 12.0), (10.0, 8.0), (10.0, 10.0), (9.0, 11.0)]
    higher = bench_ab.summarize(pairs, "higher")
    lower = bench_ab.summarize(pairs, "lower")
    assert (higher["pairs"], higher["won"], higher["tied"]) == (4, 2, 1)
    assert (lower["pairs"], lower["won"], lower["tied"]) == (4, 1, 1)


def test_each_side_is_summarized_from_its_own_values():
    pairs = [(1.0, 10.0), (3.0, 30.0), (2.0, 20.0), (4.0, 40.0)]
    summary = bench_ab.summarize(pairs, "higher")
    assert summary["base"] == {"median": 2.5, "q1": 1.75, "q3": 3.25,
                               "min": 1.0, "max": 4.0,
                               "values": [1.0, 3.0, 2.0, 4.0]}
    assert summary["change"] == {"median": 25.0, "q1": 17.5, "q3": 32.5,
                                 "min": 10.0, "max": 40.0,
                                 "values": [10.0, 30.0, 20.0, 40.0]}
    assert (summary["better"], summary["won"]) == ("higher", 4)


def test_an_unknown_direction_is_refused():
    with pytest.raises(ValueError):
        bench_ab.summarize([(1.0, 2.0)], "faster")


def test_the_side_that_runs_first_alternates():
    assert [bench_ab.first_side(i) for i in range(4)] == ["base", "change", "base", "change"]


def test_the_ratio_is_taken_within_each_pair():
    # The sides' medians are equal, yet every pair's change is 4 % lower:
    # the ratio shows what the spread between pairs hides.
    pairs = [(100.0, 96.0), (125.0, 120.0), (80.0, 76.8), (150.0, 144.0), (110.0, 105.6)]
    summary = bench_ab.summarize(pairs, "lower")
    assert summary["won"] == 5
    assert summary["ratio"] == {"median": pytest.approx(0.96), "q1": pytest.approx(0.96),
                                "q3": pytest.approx(0.96), "pairs": 5}
    uneven = bench_ab.summarize([(2.0, 1.0), (4.0, 5.0), (5.0, 10.0), (10.0, 10.0)],
                                "higher")
    # Ratios 0.5, 1.25, 2.0 and 1.0, interpolated as each side's values are.
    assert uneven["ratio"] == {"median": pytest.approx(1.125), "q1": pytest.approx(0.875),
                               "q3": pytest.approx(1.4375), "pairs": 4}


def test_a_pair_with_a_zero_base_has_no_ratio():
    summary = bench_ab.summarize([(0.0, 1.0), (2.0, 3.0)], "lower")
    assert summary["ratio"] == {"median": 1.5, "q1": 1.5, "q3": 1.5, "pairs": 1}
    assert bench_ab.summarize([(0.0, 0.0), (0.0, 1.0)], "lower")["ratio"] is None


def test_each_side_reports_its_extremes():
    summary = bench_ab.summarize([(3.0, 7.0), (1.0, 9.0), (2.0, 8.0)], "higher")
    assert (summary["base"]["min"], summary["base"]["max"]) == (1.0, 3.0)
    assert (summary["change"]["min"], summary["change"]["max"]) == (7.0, 9.0)
