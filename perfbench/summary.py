"""Pure helpers of the coverage ledger: percentiles, self time, job counts.

Nothing here imports ``repro``; the benchmark's own tests exercise these
functions directly (``python -m pytest perfbench``).
"""

from __future__ import annotations

import math
import statistics
from typing import Iterable, Optional, Sequence

#: Percentiles the ledger may report, lowest first.
PERCENTILE_LADDER = (50.0, 75.0, 90.0, 95.0, 99.0, 99.9)

#: A tail percentile is only reported when at least this many samples lie
#: beyond it; fewer and one slow job decides the number.
MIN_BEYOND = 10

#: Job outcome states.  Everything but ``done`` counts against the run.
DONE = "done"
FAILED = "failed"
REFUSED = "refused"  # HTTP 429 from the daemon's admission queue
TIMEOUT = "timeout"
ERROR_STATES = (FAILED, REFUSED, TIMEOUT)


def beyond(n: int, percentile: float) -> int:
    """How many of ``n`` samples lie strictly beyond the nearest-rank
    ``percentile``."""
    # Rounded first so that 99.9% of 10000 is rank 9990, not 9991.
    return n - max(1, math.ceil(round(percentile * n / 100.0, 9)))


def tail_percentile(n: int) -> Optional[float]:
    """The highest ladder percentile with at least :data:`MIN_BEYOND` of
    ``n`` samples beyond it, or ``None`` when not even the median qualifies.

    At 40 jobs this is the 75th percentile (10 beyond); the 90th needs 100.
    """
    best = None
    for percentile in PERCENTILE_LADDER:
        if beyond(n, percentile) >= MIN_BEYOND:
            best = percentile
    return best


def hd_quantile(values: Sequence[float], q: float) -> float:
    """Harrell-Davis estimate of the ``q``-quantile of ``values``.

    A Beta-weighted mean of all order statistics, heaviest around rank
    ``q*n``.  Job latencies cluster, and a nearest-rank percentile that
    falls in a gap between clusters jumps by 20-30% when one job moves
    across it; this estimate moves smoothly.
    """
    from scipy.special import betainc

    if not values:
        raise ValueError("no samples")
    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * q, (n + 1) * (1.0 - q)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * x for lo, hi, x in zip(edges, edges[1:], ordered))


def self_time(start: float, end: float,
              children: Iterable[tuple[float, float]]) -> float:
    """A span's duration minus the part of it its children cover.

    Children are ``(start, end)`` intervals.  They are clipped to the
    parent and their union is subtracted, so a grandchild nested in a child
    and siblings that overlap (work on another thread) are not subtracted
    twice.
    """
    covered = 0.0
    run_start = run_end = None
    for child_start, child_end in sorted(children):
        child_start = max(child_start, start)
        child_end = min(child_end, end)
        if child_end <= child_start:
            continue
        if run_end is None or child_start > run_end:
            if run_end is not None:
                covered += run_end - run_start
            run_start, run_end = child_start, child_end
        else:
            run_end = max(run_end, child_end)
    if run_end is not None:
        covered += run_end - run_start
    return (end - start) - covered


def count_errors(states: Iterable[str]) -> tuple[int, int]:
    """``(attempted, failed)`` over job outcome states.

    Failed, refused and timed-out jobs all count as failed; every state
    counts as attempted.
    """
    attempted = failed = 0
    for state in states:
        attempted += 1
        if state != DONE:
            if state not in ERROR_STATES:
                raise ValueError(f"unknown job state {state!r}")
            failed += 1
    return attempted, failed


def error_rate(states: Iterable[str]) -> float:
    attempted, failed = count_errors(states)
    return failed / attempted if attempted else 1.0


def ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def scaled_span(samples: Sequence[tuple[float, float]], start: float, end: float,
                reference: float, margin: float) -> float:
    """The time from ``start`` to ``end`` as it would have run on the
    reference host.

    ``samples`` are host-speed probes ``(end time, seconds)``, taken on the
    same thread as the work, so a probe that ended inside the span also ran
    inside it and its time is taken out.  What is left is multiplied by the
    mean of ``reference / seconds`` over the probes that ended within
    ``margin`` of the span: the share of the reference speed the host ran
    at.  Work that slows the way the probe slows then reads the same on a
    busy and an idle host.
    """
    probed = sum(took for at, took in samples if start < at <= end)
    near = [reference / took for at, took in samples
            if start - margin <= at <= end + margin]
    if not near:
        raise ValueError("no host-speed probe near the span")
    return (end - start - probed) * statistics.fmean(near)
