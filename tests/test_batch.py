"""Tests of ``RepresentingFunction.evaluate_batch`` on the per-row path.

Every profile without a native kernel evaluates a ``(N, arity)`` batch by
looping over the scalar ``__call__``; the contract is that the returned
vector equals N sequential scalar calls bit-for-bit, NaN and infinity rows
included, and that each row counts as one evaluation.  The native batched
path is covered in ``tests/test_native.py``.
"""

from __future__ import annotations

import struct

import numpy as np

from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.instrument.program import instrument
from repro.instrument.runtime import ExecutionProfile
from tests import sample_programs as sp

_SPECIAL_VALUES = (0.0, -0.0, float("nan"), float("inf"), -float("inf"), 1e308, 1e-320)


def _bits(value: float) -> bytes:
    return struct.pack("=d", value)


def _point_rows(arity: int, n_random: int) -> np.ndarray:
    rng = np.random.default_rng(5)
    rows = [rng.normal(scale=5.0, size=arity) for _ in range(n_random)]
    rows += [[s] * arity for s in _SPECIAL_VALUES]
    return np.ascontiguousarray(rows, dtype=np.float64)


def _assert_matches_scalar(target, profile: ExecutionProfile) -> None:
    program = instrument(target)
    batched = RepresentingFunction(program, SaturationTracker(program), profile=profile)
    scalar = RepresentingFunction(program, SaturationTracker(program), profile=profile)
    X = _point_rows(program.arity, n_random=10)
    values = batched.evaluate_batch(X)
    assert batched.evaluations == X.shape[0]
    assert batched.last_value == values[-1]
    for i, row in enumerate(X):
        assert _bits(float(values[i])) == _bits(scalar(row)), row


class TestRepresentingEvaluateBatch:
    def test_matches_scalar_calls_and_counts_evaluations(self):
        for target in (sp.paper_foo, sp.nested_branches):
            _assert_matches_scalar(target, ExecutionProfile.PENALTY_SPECIALIZED)

    def test_non_specialized_profile_loops_per_row(self):
        for profile in (ExecutionProfile.PENALTY_ONLY, ExecutionProfile.FULL_TRACE):
            _assert_matches_scalar(sp.paper_foo, profile)
            _assert_matches_scalar(sp.nested_branches, profile)
