"""Tests of the ledger's own helpers: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import sys
import threading
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import spans  # noqa: E402
import summary  # noqa: E402

# -- percentile choice ---------------------------------------------------------


def test_tail_percentile_at_forty_jobs_is_p75_with_ten_beyond():
    assert summary.tail_percentile(40) == 75.0
    assert summary.beyond(40, 75.0) == 10
    assert summary.beyond(40, 90.0) == 4


@pytest.mark.parametrize("n, expected", [
    (19, None),     # even the median has only 9 beyond
    (20, 50.0),
    (39, 50.0),     # p75 would leave 9 beyond
    (40, 75.0),
    (99, 75.0),
    (100, 90.0),
    (160, 90.0),    # p95 leaves 8
    (200, 95.0),
    (1000, 99.0),
    (10000, 99.9),
])
def test_tail_percentile_needs_ten_samples_beyond(n, expected):
    chosen = summary.tail_percentile(n)
    assert chosen == expected
    if chosen is not None:
        assert summary.beyond(n, chosen) >= summary.MIN_BEYOND


def test_hd_quantile_matches_scipy_and_is_a_weighted_mean():
    from scipy.stats.mstats import hdquantiles

    values = [0.01 * (v * 7919 % 97) + 0.001 * v for v in range(40)]
    for q in (0.5, 0.75):
        assert summary.hd_quantile(values, q) == pytest.approx(float(hdquantiles(values, [q])[0]))
    assert summary.hd_quantile([0.25] * 7, 0.5) == pytest.approx(0.25)
    with pytest.raises(ValueError):
        summary.hd_quantile([], 0.5)


def test_hd_median_moves_less_than_nearest_rank_across_a_gap():
    # Two clusters with the gap at the median: one job crossing it moves the
    # nearest-rank median by the whole gap.
    before = [0.05] * 20 + [0.10] * 20
    after = [0.05] * 19 + [0.10] * 21
    nearest = sorted(after)[19] - sorted(before)[19]  # the 20th of 40
    smooth = summary.hd_quantile(after, 0.5) - summary.hd_quantile(before, 0.5)
    assert nearest == pytest.approx(0.05)
    assert 0 < smooth < nearest / 4


# -- self time ---------------------------------------------------------------------


def test_self_time_without_children_is_the_duration():
    assert summary.self_time(1.0, 4.0, []) == 3.0


def test_self_time_subtracts_sequential_siblings():
    assert summary.self_time(0.0, 10.0, [(1.0, 2.0), (4.0, 7.0)]) == pytest.approx(6.0)


def test_self_time_does_not_subtract_a_nested_grandchild_twice():
    # child [1, 5] contains grandchild [2, 3]
    assert summary.self_time(0.0, 10.0, [(1.0, 5.0), (2.0, 3.0)]) == pytest.approx(6.0)


def test_self_time_merges_overlapping_siblings_and_clips_to_the_parent():
    children = [(4.0, 6.0), (1.0, 5.0), (9.0, 12.0), (-3.0, -1.0)]
    # union inside [0, 10]: [1, 6] and [9, 10]
    assert summary.self_time(0.0, 10.0, children) == pytest.approx(4.0)


def test_tracer_self_time_of_nested_spans():
    tracer = spans.Tracer(sample_every=1)
    leaf = tracer.wrap("leaf", lambda: sum(range(1000)))
    middle = tracer.wrap("middle", lambda: [leaf() for _ in range(2)])
    outer = tracer.wrap("outer", middle)
    outer()
    table, _counters = tracer.totals()
    calls = {name: row[0] for name, row in table.items()}
    assert calls == {"leaf": 2, "middle": 1, "outer": 1}
    total = {name: row[1] for name, row in table.items()}
    own = {name: row[2] for name, row in table.items()}
    assert own["outer"] == pytest.approx(total["outer"] - total["middle"])
    assert own["middle"] == pytest.approx(total["middle"] - total["leaf"])
    parents = {name: parent for _id, name, _s, _e, parent, _own in tracer.spans}
    ids = {name: span_id for span_id, name, _s, _e, _parent, _own in tracer.spans}
    assert parents["outer"] is None
    assert parents["middle"] == ids["outer"]
    assert parents["leaf"] == ids["middle"]


def test_tracer_keeps_thread_stacks_apart():
    tracer = spans.Tracer(sample_every=1)
    barrier = threading.Barrier(2, timeout=10)
    work = tracer.wrap("work", barrier.wait)
    threads = [threading.Thread(target=tracer.wrap("outer", work)) for _ in range(2)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=10)
        assert not thread.is_alive()
    table, _ = tracer.totals()
    assert table["outer"][0] == 2 and table["work"][0] == 2
    outer_ids = {span_id for span_id, name, *_ in tracer.spans if name == "outer"}
    assert {parent for _id, name, _s, _e, parent, _o in tracer.spans if name == "work"} == outer_ids


def test_hot_spans_are_counted_every_call_but_sampled():
    tracer = spans.Tracer(sample_every=8)
    hot = tracer.wrap("hot", lambda: None, hot=True)
    for _ in range(64):
        hot()
    table, _ = tracer.totals()
    assert table["hot"][0] == 64
    assert len(tracer.spans) == 8


def test_uninstall_restores_patched_attributes():
    class Target:
        def method(self):
            return 7

    original = Target.__dict__["method"]
    tracer = spans.Tracer()
    tracer.patch_method(Target, "method", "target.method")
    assert Target().method() == 7
    assert Target.__dict__["method"] is not original
    tracer.uninstall()
    assert Target.__dict__["method"] is original
    assert tracer.totals()[0]["target.method"][0] == 1


# -- error accounting ----------------------------------------------------------------


def test_count_errors_counts_failed_refused_and_timed_out_jobs():
    states = ["done"] * 36 + ["failed", "refused", "refused", "timeout"]
    assert summary.count_errors(states) == (40, 4)
    assert summary.error_rate(states) == pytest.approx(0.1)


def test_count_errors_of_a_clean_run():
    assert summary.count_errors(["done"] * 5) == (5, 0)
    assert summary.error_rate(["done"] * 5) == 0.0


def test_count_errors_rejects_unknown_states():
    with pytest.raises(ValueError):
        summary.count_errors(["done", "queued"])


def test_layer_metrics_ratios_have_their_base():
    table = {
        "native.scalar": [90, 1.0, 0.5],
        "memo.call": [200, 2.0, 0.5],
        "store.get": [4, 0.1, 0.1],
    }
    counters = {"native.batch_rows": 10, "native.fallback_rows": 25,
                "memo.hits": 50, "store.get_hits": 1}
    layers = spans.layer_metrics(table, counters)
    assert layers["native.fallback_ratio"] == pytest.approx(25 / 100)
    assert layers["memo.hit_ratio"] == pytest.approx(50 / 200)
    assert layers["store.hit_ratio"] == pytest.approx(1 / 4)
    assert layers["engine.runs"] == 0 and layers["native.kernel_load_s"] == 0.0


# -- host-speed scaling --------------------------------------------------------


def test_scaled_span_takes_out_probe_time_on_an_idle_host():
    samples = [(1.2, 0.001), (1.5, 0.001), (1.8, 0.001)]
    assert summary.scaled_span(samples, 1.0, 2.0, 0.001, 0.05) == pytest.approx(1.0 - 0.003)


def test_scaled_span_shrinks_by_the_speed_the_host_ran_at():
    # Two probes at half speed, two at full: the host ran at 3/4 speed.
    samples = [(1.2, 0.002), (1.4, 0.002), (1.6, 0.001), (1.8, 0.001)]
    expected = (1.0 - 0.006) * (0.5 + 0.5 + 1.0 + 1.0) / 4
    assert summary.scaled_span(samples, 1.0, 2.0, 0.001, 0.05) == pytest.approx(expected)


def test_scaled_span_uses_probes_within_the_margin_but_subtracts_only_inside():
    samples = [(0.98, 0.002), (1.50, 0.001), (2.5, 0.001)]
    # A span with no probe inside takes its speed from the probe just before.
    assert summary.scaled_span(samples, 1.0, 1.01, 0.001, 0.05) == pytest.approx(0.01 * 0.5)
    with pytest.raises(ValueError):
        summary.scaled_span(samples, 2.0, 2.01, 0.001, 0.05)
    # An unbounded margin scales by every probe.
    assert summary.scaled_span(samples, 2.0, 2.01, 0.001, float("inf")) == pytest.approx(
        0.01 * (0.5 + 1.0 + 1.0) / 3)


def test_host_sampler_probes_at_its_interval_and_restores_the_handler():
    import signal
    import time

    import workloads

    before = signal.getsignal(signal.SIGALRM)
    sampler = workloads.HostSampler()
    sampler.start()
    try:
        deadline = time.monotonic() + 0.5
        while time.monotonic() < deadline:
            sum(range(1000))
    finally:
        sampler.stop()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert 4 <= len(sampler.samples) <= 12
    ends = [end for end, _took in sampler.samples]
    assert ends == sorted(ends) and all(took > 0 for _end, took in sampler.samples)
