"""Tests for the bit-pattern evaluation memo."""

from __future__ import annotations

import numpy as np
import pytest

from repro.optimize.basinhopping import basinhopping
from repro.optimize.memo import BitPatternMemo


class CountingObjective:
    def __init__(self):
        self.calls = 0

    def __call__(self, x):
        self.calls += 1
        x = np.atleast_1d(x)
        return float(np.sum((x - 1.5) ** 2))


class TestBitPatternMemo:
    def test_repeated_points_served_from_cache(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=2)
        a = np.array([1.0, 2.0])
        first = memo(a)
        second = memo(np.array([1.0, 2.0]))
        assert first == second
        assert objective.calls == 1
        assert memo.hits == 1 and memo.misses == 1
        assert len(memo) == 1

    def test_bit_pattern_keying_distinguishes_signed_zero(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=1)
        memo(np.array([0.0]))
        memo(np.array([-0.0]))
        assert objective.calls == 2  # 0.0 and -0.0 have different bit patterns

    def test_nan_inputs_are_cacheable(self):
        calls = []

        def weird(x):
            calls.append(tuple(x))
            return 7.0

        memo = BitPatternMemo(weird, arity=1)
        nan = float("nan")
        assert memo(np.array([nan])) == 7.0
        assert memo(np.array([nan])) == 7.0
        assert len(calls) == 1  # same NaN bit pattern hits the cache

    def test_capacity_bound_respected(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=1, max_entries=3)
        for i in range(10):
            memo(np.array([float(i)]))
        assert len(memo) == 3
        # Uncached points still evaluate correctly.
        assert memo(np.array([9.0])) == objective(np.array([9.0]))

    def test_fifo_eviction_keeps_newest_entries(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=1, max_entries=3)
        for i in range(5):
            memo(np.array([float(i)]))
        assert memo.evictions == 2  # 0.0 and 1.0 aged out
        calls_before = objective.calls
        memo(np.array([4.0]))  # newest entry survived the evictions
        assert objective.calls == calls_before
        memo(np.array([0.0]))  # oldest entry was evicted: re-evaluates
        assert objective.calls == calls_before + 1

    def test_stats_counters(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=1, max_entries=2)
        for value in (1.0, 1.0, 2.0, 3.0, 3.0):
            memo(np.array([value]))
        stats = memo.stats()
        assert stats == {
            "hits": 2,
            "misses": 3,
            "evictions": 1,
            "entries": 2,
            "max_entries": 2,
        }

    def test_rejects_nonpositive_capacity(self):
        with pytest.raises(ValueError, match="max_entries"):
            BitPatternMemo(CountingObjective(), arity=1, max_entries=0)

    def test_arity_mismatch_passes_through_uncached(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=3)
        value = memo(np.array([1.0]))  # pack fails; falls through
        assert value == objective(np.array([1.0]))
        assert len(memo) == 0

    def test_clear(self):
        memo = BitPatternMemo(CountingObjective(), arity=1)
        memo(np.array([1.0]))
        memo.clear()
        assert len(memo) == 0


class TestBasinhoppingMemoization:
    @pytest.mark.parametrize("backend_kwargs", [{}, {"local_options": {"max_iterations": 30}}])
    def test_memoized_run_matches_unmemoized(self, backend_kwargs):
        results = {}
        counts = {}
        for wrapped in (False, True):
            objective = CountingObjective()
            func = BitPatternMemo(objective, arity=2) if wrapped else objective
            result = basinhopping(
                func,
                np.array([8.0, -3.0]),
                n_iter=5,
                rng=np.random.default_rng(11),
                **backend_kwargs,
            )
            results[wrapped] = (float(result.fun), tuple(float(v) for v in result.x), result.nfev)
            counts[wrapped] = objective.calls
        assert results[True] == results[False]
        assert counts[True] < counts[False]


class TestMemoBatchAPIs:
    """``seed`` is the memo's one batch-side entry: native chunk priming
    plants first evaluations computed in one kernel call."""

    def _make(self, calls):
        def func(x):
            calls.append(tuple(np.atleast_1d(x)))
            return float(np.sum(np.atleast_1d(x)) * 2.0)

        return BitPatternMemo(func, arity=2, max_entries=8)

    def test_seed_plants_value_without_counting(self):
        calls = []
        memo = self._make(calls)
        memo.seed([1.0, 2.0], 42.0)
        assert memo.hits == 0 and memo.misses == 0
        assert memo([1.0, 2.0]) == 42.0
        assert memo.hits == 1 and len(calls) == 0
