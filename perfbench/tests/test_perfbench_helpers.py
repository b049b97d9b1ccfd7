"""Tests of the benchmark's own helpers.

Run from the repository root with ``python3 -m pytest perfbench/tests -q``.
"""

from dataclasses import dataclass

import pytest

import stats


# -- tail percentile ---------------------------------------------------------
def test_tail_is_highest_percentile_with_ten_beyond():
    assert stats.tail_percentile(1000) == 99
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(30) == 65


def test_tail_skips_percentile_at_a_slow_class_boundary():
    # Every tenth step is a maintain step: p90 would sit on the boundary.
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(100, [0.1]) == 85
    # Maintain 10 %, moves 10 %, together 20 %: p90 and p80 both skipped.
    assert stats.tail_percentile(60, stats.class_shares(60, 6, 6, union=12)) == 75


def test_tail_refuses_too_few_samples():
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(22)
    assert stats.tail_percentile(23) == 55
    with pytest.raises(stats.TooFewSamples):
        stats.tail_percentile(23, [0.45])


def test_class_shares():
    assert stats.class_shares(40, 4) == [0.1]
    assert stats.class_shares(40, 4, 0, union=4) == [0.1]
    assert stats.class_shares(20, 2, 2, union=3) == [0.1, 0.1, 0.15]


def test_percentile_matches_linear_interpolation():
    xs = [5.0, 1.0, 3.0, 2.0, 4.0]
    assert stats.percentile(xs, 50) == 3.0
    assert stats.percentile(xs, 75) == 4.0
    assert stats.percentile(xs, 90) == pytest.approx(4.6)
    assert stats.percentile([7.0], 99) == 7.0


# -- span self time ----------------------------------------------------------
@dataclass
class Span:
    span_id: int
    parent_id: int | None
    t0: float
    t1: float


def _nested_trace():
    return [
        Span(1, None, 0.0, 10.0),  # step
        Span(2, 1, 1.0, 4.0),  # child A
        Span(3, 2, 2.0, 3.0),  # grandchild of A
        Span(4, 1, 5.0, 9.0),  # child B
        Span(5, None, 20.0, 21.0),  # a second root
    ]


def test_self_time_subtracts_children_only():
    self_s = stats.self_times(_nested_trace())
    assert self_s == {1: 3.0, 2: 2.0, 3: 1.0, 4: 4.0, 5: 1.0}
    # The self times of a tree add up to its root's duration.
    assert sum(self_s[i] for i in (1, 2, 3, 4)) == 10.0


def test_self_time_clips_child_to_parent_interval():
    spans = [Span(1, None, 0.0, 2.0), Span(2, 1, 1.5, 3.0)]
    assert stats.self_times(spans)[1] == 1.5


def test_root_of_nested_trace():
    assert stats.root_of(_nested_trace()) == {1: 1, 2: 1, 3: 1, 4: 1, 5: 5}


# -- failure counting --------------------------------------------------------
def test_failed_episode_fails_all_its_steps():
    tally = stats.Tally()
    tally.add_episode(11, [])
    tally.add_episode(11, ["window_ht_end=0.01 outside [0.12, 0.2]"])
    tally.add_episode(11, [])
    assert (tally.attempted, tally.failed) == (33, 11)
    assert not tally.correct
    assert tally.problems == ["window_ht_end=0.01 outside [0.12, 0.2]"]


def test_clean_run_is_correct_and_empty_run_is_not():
    tally = stats.Tally()
    assert not tally.correct
    tally.add_episode(21, [])
    assert tally.correct and tally.failed == 0


# -- seed plumbing -----------------------------------------------------------
def test_episode_seeds_follow_the_run_seed():
    assert stats.episode_seeds(7, 5) == stats.episode_seeds(7, 5)
    assert stats.episode_seeds(7, 3) == stats.episode_seeds(7, 5)[:3]
    assert stats.episode_seeds(7, 5) != stats.episode_seeds(8, 5)


def test_cli_passes_the_seed_through():
    import run

    args = run.parse_args(
        ["--workload", "tube", "--seed", "42", "--seconds", "3", "--trace", "1"]
    )
    assert (args.workload, args.seed, args.seconds, args.trace) == ("tube", 42, 3.0, 1)


def test_same_seed_builds_the_same_inputs():
    import numpy as np

    import workloads

    wl = workloads.WORKLOADS["tube"]

    def centroids(seed):
        sim = workloads.build(wl, seed)
        try:
            return np.array([c.centroid() for c in sim.cells.cells])
        finally:
            sim.close()

    a, b, c = centroids(3), centroids(3), centroids(4)
    assert np.array_equal(a, b)
    assert a.shape != c.shape or not np.array_equal(a, c)


# -- host scaling ------------------------------------------------------------
def test_host_scaled_time_reads_wall_time_at_reference_speed():
    import machine

    ref = machine.REFERENCE_PROBE_MS
    assert machine.host_scaled(0.6, ref, ref) == pytest.approx(0.6)
    # A host half as fast doubles both the step and the probes around it.
    assert machine.host_scaled(1.2, 2 * ref, 2 * ref) == pytest.approx(0.6)
    assert machine.host_scaled(1.2, 1.5 * ref, 2.5 * ref) == pytest.approx(0.6)
