"""Bit-pattern memoization of objective evaluations.

Basin hopping re-visits points: the accept/reject bookkeeping, restarted line
searches and the final re-evaluation of the best minimum all query the
objective at doubles it has already been evaluated at.  Because the
representing function is deterministic for a frozen saturation snapshot,
those repeats can be served from a cache keyed by the *bit patterns* of the
input doubles (``struct.pack``), which -- unlike keying by value -- is exact:
``-0.0`` and ``0.0`` stay distinct and NaNs are cacheable.

The memo is transparent to optimizers: wrapped and unwrapped objectives
return bit-identical values, so seeded search trajectories are unchanged;
only the number of true program executions drops.

Memory is bounded: the cache holds at most ``max_entries`` distinct points
and evicts in insertion (FIFO) order once full, so arbitrarily long
multi-start runs hold O(``max_entries``) memory per memo instead of growing
with the number of distinct points visited.  ``hits``/``misses``/
``evictions`` counters (see :meth:`BitPatternMemo.stats`) expose the cache's
behavior to diagnostics and benchmarks.
"""

from __future__ import annotations

import struct
from typing import Callable

try:
    import numpy as _np
except ImportError:  # pragma: no cover - numpy is an optional dependency
    _np = None

#: Default bound on distinct cached points per memo (one memo lives for a
#: single basin-hopping launch, so this is ample and keeps memory O(1)).
DEFAULT_MAX_ENTRIES = 65536


class BitPatternMemo:
    """Memoizing wrapper around an objective ``R^arity -> R``.

    Args:
        func: The objective to wrap.  Must be deterministic for the
            lifetime of the memo (true for the representing function within
            one start, whose saturation snapshot is frozen).
        arity: Number of input doubles.
        max_entries: Cache bound; when full, the oldest entry is evicted for
            each new point (FIFO), so the memo's memory stays O(1) while hot
            repeats -- which cluster in time during a line search -- keep
            hitting.
    """

    __slots__ = (
        "func",
        "arity",
        "max_entries",
        "hits",
        "misses",
        "evictions",
        "_cache",
        "_pack",
    )

    def __init__(self, func: Callable, arity: int, max_entries: int = DEFAULT_MAX_ENTRIES):
        if max_entries < 1:
            raise ValueError("max_entries must be >= 1")
        self.func = func
        self.arity = arity
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._cache: dict[bytes, float] = {}
        self._pack = struct.Struct(f"={arity}d").pack

    def __call__(self, x) -> float:
        try:
            key = self._pack(*x)
        except (TypeError, struct.error):
            # Arity mismatch or non-numeric input: let the wrapped function
            # produce its own (possibly raising) behavior, uncached.
            return self.func(x)
        cache = self._cache
        value = cache.get(key)
        if value is not None:
            self.hits += 1
            return value
        value = self.func(x)
        self.misses += 1
        if len(cache) >= self.max_entries:
            # FIFO bound: dicts iterate in insertion order, so the first key
            # is the oldest point.
            del cache[next(iter(cache))]
            self.evictions += 1
        cache[key] = value
        return value

    # -- batch APIs -----------------------------------------------------------------
    #
    # Batch callers (native chunk priming, proposal populations) submit whole
    # (N, arity) float64 arrays.  For a C-contiguous float64 row,
    # ``row.tobytes()`` is byte-for-byte the same key as
    # ``struct.pack(f"={arity}d", *row)``, so batch and scalar lookups share
    # one cache without N struct.pack calls.

    def seed(self, x, value) -> None:
        """Insert a known value for ``x`` without calling the objective.

        Used by chunk priming: the engine computes a whole batch of first
        evaluations with one kernel call and plants them here so each
        start's optimizer opens on a cache hit.  Counts neither a hit nor a
        miss (the caller accounts for the batched execution itself).
        """
        try:
            key = self._pack(*x)
        except (TypeError, struct.error):
            return
        cache = self._cache
        if key not in cache and len(cache) >= self.max_entries:
            del cache[next(iter(cache))]
            self.evictions += 1
        cache[key] = float(value)

    def row_keys(self, X) -> list[bytes]:
        """Bit-pattern keys for every row of an ``(N, arity)`` float64 array.

        The scalar path keys by ``struct.pack(f"={arity}d", *x)``; for the
        keys to coincide, the batch bytes must come from a C-contiguous
        float64 layout.  Caller-provided arrays are normalized through
        ``np.ascontiguousarray(..., dtype=float64)`` first, so transposed,
        sliced or otherwise strided views (and non-float64 dtypes) produce
        the same keys as their scalar counterparts instead of silently
        mis-keying the cache.
        """
        width = 8 * self.arity
        if _np is not None and isinstance(X, _np.ndarray):
            X = _np.ascontiguousarray(X, dtype=_np.float64)
        raw = memoryview(X.tobytes() if hasattr(X, "tobytes") else bytes(X))
        return [bytes(raw[i : i + width]) for i in range(0, len(raw), width)]

    def get_many(self, X) -> tuple[list, list[int]]:
        """Probe the cache for every row of ``X``.

        Returns ``(values, miss_indices)`` where ``values[i]`` is the cached
        value for row ``i`` or ``None``, and ``miss_indices`` lists the rows
        that must be evaluated.  Counts one hit per served row.
        """
        cache = self._cache
        values: list = []
        misses: list[int] = []
        for i, key in enumerate(self.row_keys(X)):
            value = cache.get(key)
            if value is None:
                misses.append(i)
            else:
                self.hits += 1
            values.append(value)
        return values, misses

    def put_many(self, X, indices, results) -> None:
        """Insert ``results[j]`` for row ``indices[j]`` of ``X`` (FIFO-bounded)."""
        cache = self._cache
        keys = self.row_keys(X)
        for j, i in enumerate(indices):
            self.misses += 1
            if len(cache) >= self.max_entries:
                del cache[next(iter(cache))]
                self.evictions += 1
            cache[keys[i]] = float(results[j])

    def evaluate_batch(self, X):
        """Batched objective: served rows come from the cache, the rest from
        one ``func.evaluate_batch`` call (falling back to per-row ``func``
        calls when the wrapped objective has no batch path)."""
        values, miss_indices = self.get_many(X)
        if miss_indices:
            batch = getattr(self.func, "evaluate_batch", None)
            if batch is not None:
                fresh = batch(X[miss_indices])
            else:
                fresh = [self.func(X[i]) for i in miss_indices]
            self.put_many(X, miss_indices, fresh)
            for j, i in enumerate(miss_indices):
                values[i] = float(fresh[j])
        return values

    def stats(self) -> dict[str, int]:
        """Hit/miss/evict counters plus the current and maximum size."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "entries": len(self._cache),
            "max_entries": self.max_entries,
        }

    def clear(self) -> None:
        self._cache.clear()

    def __len__(self) -> int:
        return len(self._cache)
