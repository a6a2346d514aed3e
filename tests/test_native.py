"""Tests of the native machine-code penalty tier (``instrument/native/``).

The contract under test is cross-tier bit-identity: for any program, any
saturation mask and any input row -- NaN, infinities, denormals, huge-int
word patterns included -- the native scalar entry point, the native batch
entry point (serial *and* threaded, ``n_threads`` in {1, 2, 4}), the scalar
``PENALTY_SPECIALIZED`` variant and the reference recording
:class:`~repro.instrument.runtime.Runtime` must compute the same ``r``
bit-for-bit and the same covered-branch sets.  On top of that sit the
caller-held covered-bit accumulator (incremental reduction), the
kernel/digest caches (including the ``-O3`` flag tier), the background
compiler (kernel absent: the specialized tier serves, no warning, and the
kernel swaps in once ``cc`` lands), the ``NativeUnavailable`` degradation
(no compiler: one per-instance warning, identical results through the
specialized tier), the ``repro native-cache`` CLI and the engine-level
identity of ``penalty-native`` vs ``penalty-specialized`` runs across
worker pools.

Every test that needs a C compiler self-skips when none is present, so the
suite passes on compiler-less machines with the degradation tests carrying
the load there.
"""

from __future__ import annotations

import dataclasses
import math
import os
import struct
import threading
import warnings

import numpy as np
import pytest

from repro.cli import main as cli_main
from repro.core.config import CoverMeConfig
from repro.core.representing import RepresentingFunction
from repro.core.saturation import SaturationTracker
from repro.engine.core import SearchEngine
from repro.experiments.pipeline import _TOOL_FP_EXCLUDE, tool_fingerprint
from repro.experiments.runner import instrument_case
from repro.fdlibm.suite import BENCHMARKS
from repro.instrument.native.cache import (
    NativeUnavailable,
    _reset_background_for_tests,
    _reset_cc_probe_for_tests,
    background_compile_stats,
    cc_available,
    compile_kernel,
    disk_cache_max,
    find_cc,
    native_cache_entries,
    opt_tier,
    wait_for_background,
)
from repro.instrument.native.kernel import (
    build_native_kernel,
    clear_native_cache,
    kernel_digest,
    native_cache_info,
)
from repro.instrument.program import (
    clear_compiled_cache,
    compiled_cache_info,
    instrument,
)
from repro.instrument.runtime import ExecutionProfile
from tests import sample_programs as sp
from tests.test_specialize import PARITY_TARGETS, _run_reference, _unsaturated_bits

requires_cc = pytest.mark.skipif(
    not cc_available(), reason="no C compiler (cc/gcc/clang) on PATH"
)


def _bits(value: float) -> bytes:
    return struct.pack("=d", value)


def _from_word(bits: int) -> float:
    return struct.unpack("=d", struct.pack("=Q", bits))[0]


#: Adversarial scalar inputs: signed zeros, NaN (quiet and the signaling
#: 0x7ff0000000000001 word pattern), infinities, near-overflow magnitudes,
#: denormals down to the smallest, and doubles beyond int64 (``int(x)``
#: cannot be replicated in an int64 lane -- the native code must bail).
_ADVERSARIAL = (
    0.0,
    -0.0,
    2.0,
    -7.5,
    float("nan"),
    float("inf"),
    -float("inf"),
    1e308,
    -1e308,
    5e-324,
    -5e-324,
    1e-320,
    1e19,
    -1e19,
    _from_word(0x7FF0000000000001),  # signaling-NaN word pattern
    _from_word(0x000FFFFFFFFFFFFF),  # largest denormal
    _from_word(0x7FEFFFFFFFFFFFFF),  # DBL_MAX
)

#: Programs whose loops never terminate on +inf input (in every tier alike).
_NO_INF = (sp.loop_program, sp.while_else_loop)


def _adversarial_rows(rng, target, arity: int, n_random: int) -> np.ndarray:
    specials = [
        s
        for s in _ADVERSARIAL
        if not (target in _NO_INF and s == float("inf"))
    ]
    rows = [rng.normal(scale=5.0, size=arity) for _ in range(n_random)]
    rows += [[s] * arity for s in specials]
    return np.ascontiguousarray(rows, dtype=np.float64)


def _assert_native_parity(program, mask: int, X: np.ndarray) -> None:
    """Native scalar == native batch == specialized == reference, row for row.

    The batch check runs the threaded entry at ``n_threads`` in {1, 2, 4}
    and the caller-held accumulator on top of the serial loop: every
    combination must produce bit-identical ``r`` rows and the same covered
    set (the accumulator reporting the full union on first use and the
    empty delta on repetition)."""
    kernel = program.native_kernel(mask)
    r_batch, cov_batch = kernel(X)
    r_bits = r_batch.view(np.uint64)
    for n_threads in (2, 4):
        r_mt, cov_mt = kernel(X, n_threads=n_threads)
        context = (program.name, hex(mask), n_threads)
        assert np.array_equal(r_bits, r_mt.view(np.uint64)), context
        assert cov_mt == cov_batch, context
    acc = kernel.new_accumulator()
    r_acc, new_mask = kernel(X, n_threads=2, accumulator=acc)
    assert np.array_equal(r_bits, r_acc.view(np.uint64))
    assert new_mask == cov_batch and acc.covered == cov_batch
    _r_again, again = kernel(X, n_threads=4, accumulator=acc)
    assert again == 0  # incremental: nothing newly set on a repeat batch
    cov_union = 0
    for i, row in enumerate(X):
        args = row.tolist()
        _, r_sp, cov_sp = program.run_specialized(args, mask)
        r_native, cov_native = kernel.scalar(args)
        _, r_ref, cov_ref = _run_reference(program, mask, args)
        context = (program.name, hex(mask), args)
        assert _bits(r_native) == _bits(r_sp) == _bits(r_ref), context
        assert _bits(float(r_batch[i])) == _bits(r_sp), context
        assert cov_native == cov_sp, context
        assert cov_sp == _unsaturated_bits(mask, cov_ref, program.n_conditionals), context
        cov_union |= cov_sp
    assert cov_batch == cov_union, (program.name, hex(mask))


@requires_cc
class TestSampleFormParity:
    @pytest.mark.parametrize("target", PARITY_TARGETS, ids=lambda f: f.__name__)
    def test_bit_identical_over_random_masks(self, target):
        program = instrument(target)
        rng = np.random.default_rng(41)
        n_bits = 2 * program.n_conditionals
        for trial in range(3):
            mask = int(rng.integers(0, 1 << n_bits)) if trial else 0
            X = _adversarial_rows(rng, target, program.arity, n_random=4)
            _assert_native_parity(program, mask, X)

    def test_all_saturated_mask(self):
        for target in (sp.paper_foo, sp.nested_boolean, sp.chained_comparison):
            program = instrument(target)
            rng = np.random.default_rng(43)
            X = _adversarial_rows(rng, target, program.arity, n_random=2)
            _assert_native_parity(program, (1 << (2 * program.n_conditionals)) - 1, X)

    def test_multi_unit_program_with_instrumented_helper(self):
        program = instrument(sp.calls_helper, extra_functions=[sp.helper_goo])
        rng = np.random.default_rng(47)
        X = _adversarial_rows(rng, sp.calls_helper, program.arity, n_random=4)
        for mask in (0, 1, 5):
            _assert_native_parity(program, mask, X)


@requires_cc
class TestFdlibmSuiteParity:
    @pytest.mark.parametrize("case", BENCHMARKS, ids=lambda c: c.function.split("(")[0])
    def test_bit_identical_row_for_row(self, case):
        program = instrument_case(case)
        rng = np.random.default_rng(53)
        n_bits = 2 * program.n_conditionals
        rows = [rng.uniform(-50, 50, size=program.arity) for _ in range(6)]
        rows += [[s] * program.arity for s in _ADVERSARIAL]
        X = np.ascontiguousarray(rows, dtype=np.float64)
        for trial in range(2):
            mask = int(rng.integers(0, 1 << min(n_bits, 62))) if trial else 0
            _assert_native_parity(program, mask, X)


def trunc_overflows(x):
    k = int(x)
    if k > 10:
        return 1.0
    return 0.0


@requires_cc
class TestRuntimeBail:
    def test_int64_overflow_rows_fall_back_per_row(self):
        """``int()`` of a double >= 2**63 hits a native bail site: those rows
        are transparently redone on the scalar specialized variant while the
        rest of the batch stays native, values and coverage identical."""
        program = instrument(trunc_overflows)
        X = np.ascontiguousarray([[2.5], [1e19], [-3.0], [-1e19]], dtype=np.float64)
        _assert_native_parity(program, 0, X)
        kernel = program.native_kernel(0)
        assert kernel.loaded.bail_sites >= 1

    def test_swallowed_exceptions_freeze_like_the_scalar_tier(self):
        # raises_for_small raises for |x| < 1: the native code must freeze
        # (keep r and coverage, stop executing) exactly where the scalar
        # tier swallows the exception.
        program = instrument(sp.raises_for_small)
        X = np.ascontiguousarray(
            [[0.5], [-0.25], [2.0], [float("nan")]], dtype=np.float64
        )
        _assert_native_parity(program, 0, X)


@requires_cc
class TestRepresentingFunctionNative:
    def _pair(self, target):
        program = instrument(target)
        # Pre-warm the mask-0 kernel (blocking build): these tests assert
        # exact respecialization counters, which the non-blocking default
        # would smear across the background-compile window.
        program.native_kernel(0)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        return program, native, specialized

    def test_scalar_calls_match_specialized_including_clamp(self):
        _, native, specialized = self._pair(sp.paper_foo)
        for value in _ADVERSARIAL:
            assert _bits(native([value])) == _bits(specialized([value])), value
        assert native.native_respecializations == 1
        assert native.evaluations == len(_ADVERSARIAL)

    def test_evaluate_batch_uses_native_kernel(self):
        _, native, specialized = self._pair(sp.paper_foo)
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        values = native.evaluate_batch(X)
        assert native.evaluations == X.shape[0]
        assert native.native_respecializations == 1  # served natively
        assert native.respecializations == 0  # no per-row specialized fallback
        for i in range(X.shape[0]):
            assert _bits(float(values[i])) == _bits(specialized(X[i]))

    def test_native_threads_change_nothing_but_the_thread_count(self):
        program = instrument(sp.paper_foo)
        program.native_kernel(0)
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        outputs = []
        for n_threads in (1, 2, 4):
            native = RepresentingFunction(
                program,
                SaturationTracker(program),
                profile=ExecutionProfile.PENALTY_NATIVE,
                native_threads=n_threads,
            )
            assert native.native_threads == n_threads
            outputs.append(native.evaluate_batch(X).view(np.uint64).tolist())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_config_validates_native_threads(self):
        with pytest.raises(ValueError, match="native_threads"):
            CoverMeConfig(native_threads=0)
        assert CoverMeConfig(native_threads=4).native_threads == 4

    def test_epoch_protocol_respecializes_only_on_mask_flip(self):
        program, native, _ = self._pair(sp.paper_foo)
        tracker = native.tracker
        native([4.0])
        native([4.0])
        assert native.native_respecializations == 1
        _, coverage = native.evaluate_with_coverage([4.0])
        tracker.add_covered(set(coverage.covered))
        if tracker.saturated_mask != 0:
            # Pre-warm the flipped mask too (see _pair).
            program.native_kernel(tracker.saturated_mask)
            native([4.0])
            assert native.native_respecializations == 2
            assert native._native_kernel.saturated_mask == tracker.saturated_mask

    def test_coverage_harvest_identical_across_profiles(self):
        _, native, specialized = self._pair(sp.nested_branches)
        for args in ([4.0, 1.0], [0.0, -2.0], [float("nan"), 3.0]):
            value_n, cov_n = native.evaluate_with_coverage(args)
            value_s, cov_s = specialized.evaluate_with_coverage(args)
            assert _bits(value_n) == _bits(value_s)
            assert cov_n.covered == cov_s.covered
            assert cov_n.last_conditional == cov_s.last_conditional


@requires_cc
class TestCachesAndDigest:
    _UNIT = ("def f(x):\n    return x\n", "f", "L0")

    def test_digest_sensitive_to_source_mask_and_epsilon(self):
        base = kernel_digest((self._UNIT,), 0, 1e-6)
        assert kernel_digest((self._UNIT,), 0, 1e-6) == base
        other_source = (("def f(x):\n    return x + 1.0\n", "f", "L0"),)
        assert kernel_digest(other_source, 0, 1e-6) != base
        assert kernel_digest((self._UNIT,), 3, 1e-6) != base
        assert kernel_digest((self._UNIT,), 0, 1e-7) != base

    def test_o3_flag_tier_folds_into_the_digest(self, monkeypatch):
        monkeypatch.delenv("REPRO_NATIVE_O3", raising=False)
        assert opt_tier() == "O2"
        base = kernel_digest((self._UNIT,), 0, 1e-6)
        monkeypatch.setenv("REPRO_NATIVE_O3", "1")
        assert opt_tier() == "O3"
        assert kernel_digest((self._UNIT,), 0, 1e-6) != base
        monkeypatch.setenv("REPRO_NATIVE_O3", "0")  # falsy spellings stay O2
        assert opt_tier() == "O2"
        assert kernel_digest((self._UNIT,), 0, 1e-6) == base

    def test_o3_tier_compiles_and_stays_bit_identical(self, monkeypatch):
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        monkeypatch.delenv("REPRO_NATIVE_O3", raising=False)
        base_kernel = instrument(sp.paper_foo).native_kernel(0)
        r_base, cov_base = base_kernel(X)
        monkeypatch.setenv("REPRO_NATIVE_O3", "1")
        o3_kernel = instrument(sp.paper_foo).native_kernel(0)
        assert o3_kernel.digest != base_kernel.digest  # separate cache entry
        r_o3, cov_o3 = o3_kernel(X)
        assert np.array_equal(r_base.view(np.uint64), r_o3.view(np.uint64))
        assert cov_o3 == cov_base

    def test_program_kernel_cache_and_build_counter(self):
        program = instrument(sp.paper_foo)
        first = program.native_kernel(0)
        assert program.native_kernel(0) is first
        assert program.native_kernel_builds == 1
        program.native_kernel(3)
        assert program.native_kernel_builds == 2

    def test_module_cache_hits_across_program_instances(self):
        clear_native_cache()
        instrument(sp.paper_foo).native_kernel(0)
        misses_before = native_cache_info()["misses"]
        instrument(sp.paper_foo).native_kernel(0)
        info = native_cache_info()
        assert info["misses"] == misses_before
        assert info["hits"] >= 1

    def test_compiled_cache_info_reports_native_and_clear_clears_it(self):
        clear_compiled_cache()
        info = compiled_cache_info()
        assert "native" in info
        assert {"entries", "hits", "misses", "evictions", "disk_entries", "cc"} <= set(
            info["native"]
        )
        instrument(sp.paper_foo).native_kernel(0)
        assert compiled_cache_info()["native"]["entries"] >= 1
        clear_compiled_cache()
        after = compiled_cache_info()["native"]
        assert after["entries"] == 0
        assert after["hits"] == 0 and after["misses"] == 0

    def test_unavailable_programs_are_negatively_cached(self):
        def calls_gamma(x: float) -> float:
            return math.gamma(x) + 0.0

        program = instrument(calls_gamma)
        clear_native_cache()
        with pytest.raises(NativeUnavailable):
            build_native_kernel(program, 0)
        misses = native_cache_info()["misses"]
        with pytest.raises(NativeUnavailable):
            build_native_kernel(program, 0)
        info = native_cache_info()
        assert info["misses"] == misses  # second failure served from cache
        assert info["hits"] >= 1

    def test_run_native_returns_r_and_coverage_only(self):
        program = instrument(sp.paper_foo)
        value, r, covered = program.run_native([4.0], 0)
        _, r_sp, cov_sp = program.run_specialized([4.0], 0)
        assert value is None  # the native kernel computes only r and coverage
        assert _bits(r) == _bits(r_sp)
        assert covered == cov_sp


@requires_cc
class TestBackgroundCompile:
    def test_absent_kernel_serves_specialized_then_swaps_in(
        self, tmp_path, monkeypatch
    ):
        """Kernel absent -> the first native-tier calls run on the
        specialized tier (transient state: no warning) while ``cc`` runs in
        the background; once the build lands the kernel swaps in at the
        next call boundary and the counters account for both phases."""
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))  # cold disk
        clear_native_cache()
        _reset_background_for_tests()
        program = instrument(sp.paper_foo)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        stats_before = background_compile_stats()
        with warnings.catch_warnings():
            # The compiling state is transient and must not trip the
            # degradation warning machinery.
            warnings.simplefilter("error", RuntimeWarning)
            first = native([4.0])
        assert native.native_respecializations == 0  # no kernel yet
        assert native.native_pending_calls >= 1
        assert native._native_ok  # not latched: this is not a degradation
        assert _bits(first) == _bits(specialized([4.0]))
        pending = native._native_pending
        assert pending is not None
        wait_for_background(pending)
        stats = background_compile_stats()
        assert stats["submitted"] == stats_before["submitted"] + 1
        assert stats["compiled"] == stats_before["compiled"] + 1
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            second = native([4.0])
        assert native.native_respecializations == 1  # swapped in
        assert native._native_pending is None
        assert _bits(second) == _bits(first)
        # The batch path serves from the swapped-in kernel too.
        X = np.ascontiguousarray([[v] for v in _ADVERSARIAL], dtype=np.float64)
        values = native.evaluate_batch(X)
        assert native.respecializations == 1  # only the pre-swap scalar call
        for i in range(X.shape[0]):
            assert _bits(float(values[i])) == _bits(specialized(X[i]))
        clear_native_cache()

    def test_background_jobs_deduplicate_by_digest(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        clear_native_cache()
        _reset_background_for_tests()
        program = instrument(sp.nested_boolean)
        submitted_before = background_compile_stats()["submitted"]
        instances = [
            RepresentingFunction(
                program,
                SaturationTracker(program),
                profile=ExecutionProfile.PENALTY_NATIVE,
            )
            for _ in range(3)
        ]
        args = [1.0] * program.arity
        pendings = set()
        for representing in instances:
            representing(args)
            pendings.add(representing._native_pending)
        pendings.discard(None)  # a fast build may land mid-loop
        assert len(pendings) <= 1  # all instances share one digest
        stats = background_compile_stats()
        assert stats["submitted"] <= submitted_before + 1  # de-duplicated
        for pending in pendings:
            wait_for_background(pending)
        clear_native_cache()

    def test_pruned_done_outcome_is_rebuilt_not_served_stale(
        self, tmp_path, monkeypatch
    ):
        """A recorded "done" outcome whose .so was FIFO-pruned from disk
        must be forgotten and rebuilt, never handed back as a dead path."""
        from repro.instrument.native.cache import (
            NativeCompiling,
            compile_kernel_background,
        )

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        _reset_background_for_tests()
        digest = "ab" * 32
        source = "int sp_dummy_prune(void) { return 7; }\n"
        with pytest.raises(NativeCompiling):
            compile_kernel_background(source, digest)
        wait_for_background(digest)
        so_path = tmp_path / f"{digest}.so"
        assert so_path.exists()
        # Simulate the FIFO prune deleting the entry while the "done"
        # outcome is still recorded in the job table.
        so_path.unlink()
        so_path.with_suffix(".c").unlink()
        with pytest.raises(NativeCompiling):
            compile_kernel_background(source, digest)  # resubmit, not stale
        wait_for_background(digest)
        assert compile_kernel_background(source, digest) == so_path
        assert so_path.exists()
        _reset_background_for_tests()

    def test_evaluate_batch_while_build_pending_matches_specialized(
        self, tmp_path, monkeypatch
    ):
        """While the background ``cc`` runs, a batch is served row by row on
        the specialized tier: same values, one evaluation per row."""
        from repro.instrument.native import cache as cache_module

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))  # cold disk
        clear_native_cache()
        _reset_background_for_tests()
        release = threading.Event()
        real_compile = cache_module.compile_kernel

        def held_compile(c_source, digest):
            release.wait(60)
            return real_compile(c_source, digest)

        monkeypatch.setattr(cache_module, "compile_kernel", held_compile)
        program = instrument(sp.nested_branches)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        rng = np.random.default_rng(17)
        X = _adversarial_rows(rng, sp.nested_branches, program.arity, n_random=6)
        try:
            values = native.evaluate_batch(X)
            assert native._native_pending is not None  # still compiling
            assert native.native_respecializations == 0
            assert native.evaluations == X.shape[0]
            for i in range(X.shape[0]):
                assert _bits(float(values[i])) == _bits(specialized(X[i])), X[i]
        finally:
            release.set()
            _reset_background_for_tests()
            clear_native_cache()

    def test_build_error_fails_its_digest_and_the_worker_survives(
        self, tmp_path, monkeypatch
    ):
        """Any exception of one build (here a full disk) is recorded as that
        digest's failure; the worker thread keeps draining the queue."""
        from repro.instrument.native import cache as cache_module
        from repro.instrument.native.cache import (
            NativeCompiling,
            compile_kernel_background,
        )

        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        _reset_background_for_tests()
        broken, healthy = "0e" * 32, "0f" * 32
        real_compile = cache_module.compile_kernel

        def flaky_compile(c_source, digest):
            if digest == broken:
                raise OSError(28, "No space left on device")
            return real_compile(c_source, digest)

        monkeypatch.setattr(cache_module, "compile_kernel", flaky_compile)
        for digest in (broken, healthy):
            with pytest.raises(NativeCompiling):
                compile_kernel_background(f"int sp_{digest[:2]}(void) {{ return 1; }}\n", digest)
        wait_for_background(broken, timeout=30)
        wait_for_background(healthy, timeout=30)
        stats = background_compile_stats()
        assert stats["pending"] == 0
        assert stats["failed"] == 1 and stats["compiled"] == 1
        with pytest.raises(NativeUnavailable, match="No space left"):
            compile_kernel_background("", broken)
        assert compile_kernel_background("", healthy) == tmp_path / f"{healthy}.so"
        _reset_background_for_tests()


class TestDiskCachePrune:
    def test_prune_skips_temp_files_and_entries_that_vanish(self, tmp_path, monkeypatch):
        """Another builder's in-flight ``.<digest>.XXXX.so`` is neither
        counted nor deleted, and an entry removed between the listing and
        its ``stat`` is skipped instead of raising."""
        from repro.instrument.native.cache import _prune_disk_cache

        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "1")
        for index, name in enumerate(("old.so", "new.so", ".inflight.abc123.so")):
            path = tmp_path / name
            path.write_bytes(b"")
            os.utime(path, (index, index))
        vanished = tmp_path / "vanished.so"
        listing = sorted(tmp_path.glob("*.so")) + [vanished]
        monkeypatch.setattr(type(tmp_path), "glob", lambda self, pattern: iter(listing))
        assert _prune_disk_cache(tmp_path) == 1
        monkeypatch.undo()
        assert sorted(p.name for p in tmp_path.iterdir()) == [".inflight.abc123.so", "new.so"]


class TestCcProbeCache:
    def test_failed_probe_is_cached_per_process(self, tmp_path, monkeypatch):
        """A compiler-less host walks $REPRO_CC/cc/gcc/clang exactly once;
        every later availability check and digest request answers from the
        cached failure without touching the filesystem."""
        import shutil as shutil_module

        calls: list[str] = []

        def fake_which(name, *args, **kwargs):
            calls.append(name)
            return None

        monkeypatch.setattr(shutil_module, "which", fake_which)
        monkeypatch.delenv("REPRO_CC", raising=False)
        _reset_cc_probe_for_tests()
        try:
            assert not cc_available()
            probe_calls = len(calls)
            assert probe_calls >= 3  # cc, gcc, clang at least
            for _ in range(3):
                assert not cc_available()
                with pytest.raises(NativeUnavailable, match="no C compiler"):
                    find_cc()
                with pytest.raises(NativeUnavailable):
                    kernel_digest((("def f(x):\n    return x\n", "f", "L0"),), 0, 1e-6)
            assert len(calls) == probe_calls  # no re-probe after the first
        finally:
            _reset_cc_probe_for_tests()


class TestDegradation:
    @pytest.fixture
    def no_cc(self, tmp_path):
        """Hide every C compiler (empty PATH, no REPRO_CC) and re-probe."""
        old_path = os.environ.get("PATH", "")
        old_cc = os.environ.pop("REPRO_CC", None)
        os.environ["PATH"] = str(tmp_path)
        _reset_cc_probe_for_tests()
        clear_native_cache()
        try:
            yield
        finally:
            os.environ["PATH"] = old_path
            if old_cc is not None:
                os.environ["REPRO_CC"] = old_cc
            _reset_cc_probe_for_tests()
            clear_native_cache()

    def test_degrades_to_specialized_with_single_warning(self, no_cc):
        assert not cc_available()
        assert native_cache_info()["cc"] is None
        program = instrument(sp.paper_foo)
        native = RepresentingFunction(
            program, SaturationTracker(program), profile=ExecutionProfile.PENALTY_NATIVE
        )
        specialized = RepresentingFunction(
            program,
            SaturationTracker(program),
            profile=ExecutionProfile.PENALTY_SPECIALIZED,
        )
        with pytest.warns(RuntimeWarning, match="native tier permanently unavailable"):
            first = native([4.0])
        assert _bits(first) == _bits(specialized([4.0]))
        # Further calls (scalar and batched) stay silent and identical.
        X = np.ascontiguousarray([[0.5], [-2.0], [float("nan")]], dtype=np.float64)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            values = native.evaluate_batch(X)
            assert _bits(native([9.0])) == _bits(specialized([9.0]))
        for i in range(X.shape[0]):
            assert _bits(float(values[i])) == _bits(specialized(X[i]))

    def test_warning_is_per_instance(self, no_cc):
        program = instrument(sp.paper_foo)
        for _ in range(2):  # each fresh instance warns once, again
            representing = RepresentingFunction(
                program,
                SaturationTracker(program),
                profile=ExecutionProfile.PENALTY_NATIVE,
            )
            with pytest.warns(RuntimeWarning, match="native tier permanently unavailable"):
                representing([4.0])
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                representing([4.0])

    def test_build_native_kernel_raises_without_compiler(self, no_cc):
        program = instrument(sp.paper_foo)
        with pytest.raises(NativeUnavailable, match="no C compiler"):
            build_native_kernel(program, 0)

    def test_engine_run_completes_and_matches_specialized(self, no_cc):
        outcomes = []
        for profile in ("penalty-native", "penalty-specialized"):
            program = instrument(sp.paper_foo)
            config = CoverMeConfig(
                n_start=8, n_iter=2, seed=7, eval_profile=profile, worker_mode="serial"
            )
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                result = SearchEngine(program, config).run()
            outcomes.append(
                (tuple(result.inputs), result.covered, result.evaluations)
            )
        assert outcomes[0] == outcomes[1]


@requires_cc
class TestEngineIdentity:
    def _run(self, program_factory, *, profile, n_workers, mode):
        program = program_factory()
        config = CoverMeConfig(
            n_start=16,
            n_iter=3,
            seed=42,
            eval_profile=profile,
            n_workers=n_workers,
            worker_mode=mode,
        )
        result = SearchEngine(program, config).run()
        return (
            tuple(result.inputs),
            result.covered,
            result.saturated,
            frozenset(result.infeasible),
            result.evaluations,
            result.n_starts_used,
            tuple(
                (t.start, t.minimum_point, t.minimum_value, t.accepted, t.evaluations)
                for t in result.traces
            ),
        )

    @pytest.mark.parametrize("n_workers,mode", [(1, "serial"), (3, "thread"), (2, "process")])
    def test_run_sets_identical_native_vs_specialized(self, n_workers, mode):
        factory = lambda: instrument(sp.paper_foo)  # noqa: E731
        native = self._run(factory, profile="penalty-native", n_workers=n_workers, mode=mode)
        specialized = self._run(
            factory, profile="penalty-specialized", n_workers=n_workers, mode=mode
        )
        # The native run primes each chunk with one kernel call; the
        # specialized and recording runs evaluate every start's x0 on its own.
        reference = self._run(factory, profile="full-trace", n_workers=n_workers, mode=mode)
        assert native == specialized == reference, mode

    def test_rows_mode_suite_entry_identical_across_pools(self):
        by_name = {c.function.split("(")[0]: c for c in BENCHMARKS}
        factory = lambda: instrument_case(by_name["tanh"])  # noqa: E731
        with warnings.catch_warnings():
            # Prove no degradation fired anywhere in the run.
            warnings.simplefilter("error", RuntimeWarning)
            serial = self._run(
                factory, profile="penalty-native", n_workers=1, mode="serial"
            )
            threaded = self._run(
                factory, profile="penalty-native", n_workers=2, mode="thread"
            )
        specialized = self._run(
            factory, profile="penalty-specialized", n_workers=1, mode="serial"
        )
        assert serial == threaded == specialized


@requires_cc
class TestNativeCacheCLI:
    def test_ls_and_clean_roundtrip(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        digest = "deadbeef" * 8
        so_path = compile_kernel("int sp_dummy(void) { return 0; }\n", digest)
        assert so_path.exists()
        assert cli_main(["native-cache", "ls"]) == 0
        out = capsys.readouterr().out
        assert "1 kernels" in out and digest[:16] in out
        # The summary line reports total on-disk size and the FIFO bound.
        assert f"{so_path.stat().st_size} bytes total" in out
        assert f"(bound {disk_cache_max()})" in out
        assert cli_main(["native-cache", "clean"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert native_cache_entries() == []
        assert cli_main(["native-cache", "ls"]) == 0
        assert "empty" in capsys.readouterr().out

    def test_cache_max_override_bounds_the_fifo(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_NATIVE_CACHE", str(tmp_path))
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "2")
        assert disk_cache_max() == 2
        for index in range(4):
            digest = f"{index:02d}" * 32
            path = compile_kernel(
                f"int sp_dummy{index}(void) {{ return {index}; }}\n", digest
            )
            # Deterministic FIFO order regardless of filesystem timestamp
            # granularity.
            os.utime(path, (index, index))
            os.utime(path.with_suffix(".c"), (index, index))
        survivors = {entry["digest"] for entry in native_cache_entries()}
        assert len(survivors) == 2
        assert "00" * 32 not in survivors  # oldest evicted first
        assert cli_main(["native-cache", "ls"]) == 0
        assert "(bound 2)" in capsys.readouterr().out
        monkeypatch.setenv("REPRO_NATIVE_CACHE_MAX", "not-a-number")
        assert disk_cache_max() == 256  # malformed override falls back


class TestFingerprintNeutrality:
    def test_eval_profile_excluded_from_tool_fingerprints(self):
        assert "eval_profile" in _TOOL_FP_EXCLUDE

        @dataclasses.dataclass
        class FakeTool:
            eval_profile: str
            depth: int = 3

        assert tool_fingerprint(FakeTool("penalty-native")) == tool_fingerprint(
            FakeTool("penalty-specialized")
        )

    def test_native_threads_excluded_from_tool_fingerprints(self):
        assert "native_threads" in _TOOL_FP_EXCLUDE

        @dataclasses.dataclass
        class FakeTool:
            native_threads: int
            depth: int = 3

        assert tool_fingerprint(FakeTool(1)) == tool_fingerprint(FakeTool(4))
