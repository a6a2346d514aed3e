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


class TestRowKeyContiguity:
    """Regression: batch keys must match scalar ``struct.pack`` keys even for
    transposed/strided views and non-float64 dtypes (``tobytes`` on such
    inputs used to produce differently laid-out bytes and mis-key the memo)."""

    def _scalar_keys(self, rows):
        import struct

        return [struct.pack(f"={len(row)}d", *row) for row in rows]

    def test_strided_view_keys_match_scalar_keys(self):
        memo = BitPatternMemo(CountingObjective(), arity=2)
        base = np.arange(12, dtype=np.float64).reshape(3, 4)
        X = base[:, ::2]  # logical rows [[0,2],[4,6],[8,10]], non-contiguous
        assert not X.flags["C_CONTIGUOUS"]
        assert memo.row_keys(X) == self._scalar_keys(X.tolist())

    def test_transposed_view_keys_match_scalar_keys(self):
        memo = BitPatternMemo(CountingObjective(), arity=3)
        X = np.arange(6, dtype=np.float64).reshape(3, 2).T  # (2, 3) transposed
        assert not X.flags["C_CONTIGUOUS"]
        assert memo.row_keys(X) == self._scalar_keys(X.tolist())

    def test_get_many_hits_scalar_entries_through_views(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=2)
        rows = [[0.0, 1.0], [2.0, 3.0], [4.0, 5.0]]
        for row in rows:
            memo(np.array(row))
        base = np.zeros((3, 4), dtype=np.float64)
        base[:, ::2] = rows
        values, missing = memo.get_many(base[:, ::2])
        assert missing == []
        assert values == [memo.func(np.array(r)) for r in rows]

    def test_put_many_through_view_serves_scalar_calls(self):
        objective = CountingObjective()
        memo = BitPatternMemo(objective, arity=2)
        X = np.arange(8, dtype=np.float64).reshape(2, 4)[:, ::2]
        memo.put_many(X, [0, 1], [10.0, 20.0])
        assert memo(np.array(X[0])) == 10.0
        assert memo(np.array(X[1])) == 20.0
        assert objective.calls == 0

    def test_non_float64_dtype_is_normalized(self):
        memo = BitPatternMemo(CountingObjective(), arity=2)
        memo(np.array([1.0, 2.0]))
        values, missing = memo.get_many(np.array([[1, 2]], dtype=np.int64))
        assert missing == [] and values[0] is not None


class TestBasinhoppingMemoization:
    @pytest.mark.parametrize("backend_kwargs", [{}, {"local_options": {"max_iterations": 30}}])
    def test_memoized_run_matches_unmemoized(self, backend_kwargs):
        results = {}
        counts = {}
        for memoize in (False, True):
            objective = CountingObjective()
            result = basinhopping(
                objective,
                np.array([8.0, -3.0]),
                n_iter=5,
                rng=np.random.default_rng(11),
                memoize=memoize,
                **backend_kwargs,
            )
            results[memoize] = (float(result.fun), tuple(float(v) for v in result.x), result.nfev)
            counts[memoize] = objective.calls
        assert results[True] == results[False]
        assert counts[True] <= counts[False]


class TestMemoBatchAPIs:
    def _make(self, calls):
        def func(x):
            calls.append(tuple(np.atleast_1d(x)))
            return float(np.sum(np.atleast_1d(x)) * 2.0)

        return BitPatternMemo(func, arity=2, max_entries=8)

    def test_get_many_put_many_roundtrip(self):
        calls = []
        memo = self._make(calls)
        X = np.ascontiguousarray([[1.0, 2.0], [3.0, -0.0], [float("nan"), 1.0]])
        values, missing = memo.get_many(X)
        assert values == [None, None, None] and missing == [0, 1, 2]
        memo.put_many(X, missing, [6.0, 6.0, 99.0])
        values, missing = memo.get_many(X)
        assert missing == [] and values == [6.0, 6.0, 99.0]
        assert memo.hits == 3 and memo.misses == 3
        # Row-bytes keys are interchangeable with the scalar struct.pack
        # keys: a scalar call at a stored row is a hit, -0.0 stays distinct
        # from 0.0 and NaN rows are cacheable.
        assert memo([1.0, 2.0]) == 6.0
        assert len(calls) == 0
        memo([3.0, 0.0])
        assert len(calls) == 1

    def test_evaluate_batch_serves_hits_and_fills_misses(self):
        calls = []
        memo = self._make(calls)
        X = np.ascontiguousarray([[1.0, 1.0], [2.0, 2.0]])
        first = memo.evaluate_batch(X)
        assert first == [4.0, 8.0] and len(calls) == 2
        X2 = np.ascontiguousarray([[1.0, 1.0], [5.0, 0.0]])
        second = memo.evaluate_batch(X2)
        assert second == [4.0, 10.0]
        assert len(calls) == 3  # only the new row executed

    def test_evaluate_batch_prefers_wrapped_batch_path(self):
        class Obj:
            def __init__(self):
                self.batched = 0

            def __call__(self, x):
                raise AssertionError("scalar path must not run")

            def evaluate_batch(self, X):
                self.batched += 1
                return [float(v[0]) for v in X]

        obj = Obj()
        memo = BitPatternMemo(obj, arity=1)
        out = memo.evaluate_batch(np.ascontiguousarray([[1.5], [2.5]]))
        assert out == [1.5, 2.5] and obj.batched == 1

    def test_seed_plants_value_without_counting(self):
        calls = []
        memo = self._make(calls)
        memo.seed([1.0, 2.0], 42.0)
        assert memo.hits == 0 and memo.misses == 0
        assert memo([1.0, 2.0]) == 42.0
        assert memo.hits == 1 and len(calls) == 0
