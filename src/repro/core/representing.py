"""The representing function ``FOO_R`` (Sect. 3.2, Step 2; Thm. 4.3).

``FOO_R(x)`` initializes the injected register ``r`` to 1, executes the
instrumented program on ``x`` and returns the final value of ``r``.  With the
``pen`` policy of Def. 4.2 installed, the two key conditions hold:

* **C1**: ``FOO_R(x) >= 0`` for all ``x`` -- ``r`` is only ever assigned
  branch distances (non-negative), zero, or its previous value starting at 1.
* **C2**: ``FOO_R(x) == 0`` iff ``x`` saturates a branch not yet saturated
  (Thm. 4.3).

The object is a plain callable ``R^n -> R`` so that any unconstrained
programming backend can minimize it as a black box; the optimizer only ever
makes scalar calls.  :meth:`RepresentingFunction.evaluate_batch` serves the
one batched caller, the engine's native chunk priming.

Evaluation runs under a configurable
:class:`~repro.instrument.runtime.ExecutionProfile`.  ``PENALTY_SPECIALIZED``
(the default of :class:`~repro.core.config.CoverMeConfig`) re-compiles the
program with the saturation mask resolved per probe site
(:mod:`repro.instrument.specialize`), the paper's ``pen`` code
transformation, and this wrapper implements the *epoch protocol* -- the
compiled variant is reused verbatim while the tracker's ``saturated_mask`` is
unchanged and transparently re-specialized (a cached lookup when the mask was
seen before) only when saturation actually flips a bit.  ``PENALTY_NATIVE``
applies the same protocol to machine code: the specialized lowering is
compiled to a shared object (:mod:`repro.instrument.native`) and both
``__call__`` and ``evaluate_batch`` dispatch to it, degrading to
``PENALTY_SPECIALIZED`` with a one-time per-instance warning when no C
compiler is present or the program cannot be emitted.  Cold compiles do not
block: the build runs on the background worker while calls are served by the
specialized tier (no warning — that state is transient, counted in
``native_pending_calls``) and the kernel swaps in at the next call/batch
boundary once the build lands.  ``FULL_TRACE`` runs the recording runtime on
every call and leaves a complete :class:`ExecutionRecord` in
:attr:`RepresentingFunction.last_record`.

All profiles compute bit-identical values.  Callers that need coverage from
a specific point (e.g. an accepted minimum) replay it via
:meth:`RepresentingFunction.evaluate_with_coverage`, which under every
profile runs the recording runtime with CoverMe's penalty -- the reference
semantics -- so the coverage outcome is complete and identical across
profiles.
"""

from __future__ import annotations

import math
import warnings
from typing import Optional, Sequence

import numpy as np

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.core.pen import CoverMePenalty
from repro.core.saturation import SaturationTracker
from repro.instrument.native.cache import (
    NativeCompiling,
    NativeUnavailable,
    background_ready,
)
from repro.instrument.program import InstrumentedProgram
from repro.instrument.runtime import (
    CoverageOutcome,
    ExecutionProfile,
    ExecutionRecord,
    Runtime,
)

#: Large finite stand-in for non-finite register values; see __call__.
_CLAMP = 1.0e300

_INF = math.inf
_F64 = np.dtype(np.float64)


class RepresentingFunction:
    """Callable wrapper computing ``FOO_R`` for an instrumented program."""

    def __init__(
        self,
        program: InstrumentedProgram,
        tracker: Optional[SaturationTracker] = None,
        epsilon: float = DEFAULT_EPSILON,
        profile: ExecutionProfile | str = ExecutionProfile.FULL_TRACE,
    ):
        self.program = program
        self.tracker = tracker if tracker is not None else SaturationTracker(program)
        self.epsilon = epsilon
        self.profile = ExecutionProfile(profile)
        self.evaluations = 0
        self.last_record: Optional[ExecutionRecord] = None
        self.last_value: Optional[float] = None
        # Epoch protocol state for the specialized tier: the active compiled
        # variant plus a counter of variant switches (a switch is a cached
        # lookup unless the mask is new to the program -- see
        # ``InstrumentedProgram.specialization_builds`` for true compiles).
        self._variant = None
        self.respecializations = 0
        # Native-kernel epoch state.  ``_native_ok`` latches False on the
        # first NativeUnavailable (no compiler, non-emittable program): the
        # instance degrades to the scalar specialized tier permanently, with
        # one warning.  A cold compile is *transient* instead: it runs on
        # the background worker (NativeCompiling), ``_native_pending`` holds
        # its digest, and calls are served by the specialized tier — no
        # warning — until the poll sees the build land and the kernel swaps
        # in at the next call/batch boundary.  Warn-once bookkeeping is
        # per-instance so a fresh RepresentingFunction (or a cleared cache)
        # warns again.
        self._native_kernel = None
        self.native_respecializations = 0
        self._native_ok = True
        self._native_pending: Optional[str] = None
        self.native_pending_calls = 0
        self._warned: set[str] = set()
        self._arity = program.arity
        self._native = self.profile is ExecutionProfile.PENALTY_NATIVE
        self._full_trace = self.profile is ExecutionProfile.FULL_TRACE
        # The recording runtime serves every FULL_TRACE call and, under the
        # compiled tiers, the coverage harvest of accepted minima.
        self._runtime = Runtime(policy=CoverMePenalty(self.tracker, epsilon), epsilon=epsilon)

    @property
    def arity(self) -> int:
        return self.program.arity

    def __call__(self, x) -> float:
        """Evaluate ``FOO_R`` at ``x`` (a scalar or a length-``arity`` vector)."""
        if self._full_trace:
            return self.evaluate_with_record(x)[0]
        args = self._coerce(x)
        self.evaluations += 1
        # Re-read the mask every call, but only touch the compiler when
        # saturation actually flipped a bit.  Mid-epoch calls are a single
        # int comparison away from the compiled variant (or the loaded
        # machine-code kernel under the native tier).
        mask = self.tracker.saturated_mask
        r = None
        if self._native and self._native_ok:
            kernel = self._native_kernel
            if kernel is None or kernel.saturated_mask != mask:
                kernel = self._native_kernel_for(mask)
            if kernel is not None:
                r, _cov = kernel.scalar(args)
        if r is None:
            variant = self._variant
            if variant is None or variant.saturated_mask != mask:
                variant = self.program.specialize(mask, self.epsilon)
                self._variant = variant
                self.respecializations += 1
            _, r = variant.run(args)
        self.last_record = None
        if r != r or r == _INF or r == -_INF:
            # NaN carries no gradient, and +/-inf (e.g. summed overflow-guard
            # distances of an ``and`` test) would poison any optimizer that
            # compares or subtracts objective values; clamp all three to the
            # same large finite penalty so C1 (FOO_R >= 0) holds numerically.
            # (Spelled as three comparisons rather than math.isfinite so the
            # overwhelmingly common finite case pays no call.)
            r = _CLAMP
        self.last_value = r
        return r

    def evaluate_batch(self, X) -> np.ndarray:
        """Evaluate ``FOO_R`` at every row of an ``(N, arity)`` array at once.

        Under the ``PENALTY_NATIVE`` profile with a loaded kernel the whole
        batch goes through one serial
        :class:`~repro.instrument.native.kernel.NativeKernel` call, following
        the same epoch protocol as ``__call__``.  Every other case -- other
        profiles, a native build still pending, or a degraded native tier --
        runs a per-row loop over ``__call__``, so the returned vector is
        bit-identical to N sequential scalar calls in all configurations.
        Non-finite register values clamp to the same large finite penalty as
        the scalar path.
        """
        X = np.ascontiguousarray(X, dtype=np.float64)
        if X.ndim == 1:
            X = X.reshape(-1, 1) if self._arity == 1 else X.reshape(1, -1)
        if X.ndim != 2 or X.shape[1] != self._arity:
            raise ValueError(
                f"{self.program.name} expects (N, {self._arity}) batches, got shape {X.shape}"
            )
        n = X.shape[0]
        if n == 0:
            return np.empty(0, dtype=np.float64)
        native = None
        if self._native and self._native_ok:
            mask = self.tracker.saturated_mask
            native = self._native_kernel
            if native is None or native.saturated_mask != mask:
                native = self._native_kernel_for(mask)
        if native is not None:
            raw, _cov = native(X)
            out = np.where(np.isfinite(raw), raw, _CLAMP)
            self.evaluations += n
            self.last_record = None
            self.last_value = float(out[-1])
            return out
        out = np.empty(n, dtype=np.float64)
        for i in range(n):
            out[i] = self(X[i])
        return out

    def evaluate_with_record(self, x) -> tuple[float, ExecutionRecord]:
        """Evaluate on the recording runtime and return the full record.

        Runs the reference semantics (the recording runtime with CoverMe's
        penalty) regardless of the configured profile, so trace consumers
        keep working; ``FULL_TRACE`` calls are exactly this.
        """
        args = self._coerce(x)
        self.evaluations += 1
        _, r, record = self.program.run(args, runtime=self._runtime)
        if not math.isfinite(r):
            r = _CLAMP  # the same clamp as __call__
        self.last_record = record
        self.last_value = r
        return r, record

    def evaluate_with_coverage(self, x) -> tuple[float, CoverageOutcome]:
        """Evaluate and return the covered branches and last conditional.

        This is what the engine calls on an accepted minimum: one replay on
        the recording runtime (see :meth:`evaluate_with_record`), distilled
        to the covered branches plus the last executed conditional for the
        infeasible-branch heuristic.  The compiled tiers' covered bitsets
        are partial and track no last conditional, so every profile
        harvests this way and returns identical outcomes.
        """
        value, record = self.evaluate_with_record(x)
        last = record.last
        return value, CoverageOutcome(
            covered=frozenset(record.covered),
            last_conditional=None if last is None else last.conditional,
            last_outcome=None if last is None else last.outcome,
        )

    # -- helpers -------------------------------------------------------------------

    def _native_kernel_for(self, mask):
        """Fetch/build the native kernel for ``mask``, degrading on failure.

        Returns ``None`` when the native tier cannot serve this call; the
        caller falls through to the scalar specialized tier.  The two
        failure states are reported distinctly: a *permanent*
        ``NativeUnavailable`` (no compiler, non-emittable program, failed
        build) latches ``_native_ok`` False and warns once, while a
        *transient* ``NativeCompiling`` (the background ``cc`` is still
        running) never warns — ``native_pending_calls`` counts the calls
        the specialized tier absorbed, and the kernel swaps in at the next
        boundary once :func:`background_ready` sees the build land.
        """
        pending = self._native_pending
        if pending is not None and not background_ready(pending):
            # Cheap poll: the background build is still running; don't
            # re-enter the emitter on every evaluation.
            self.native_pending_calls += 1
            return None
        try:
            kernel = self.program.native_kernel(mask, self.epsilon, wait=False)
        except NativeCompiling as exc:
            self._native_pending = exc.digest
            self.native_pending_calls += 1
            return None
        except NativeUnavailable as exc:
            self._native_ok = False
            self._native_pending = None
            self._warn_instance(
                "native-degraded",
                f"native tier permanently unavailable ({exc}); degrading to "
                "the scalar specialized tier",
            )
            return None
        self._native_pending = None
        self._native_kernel = kernel
        self.native_respecializations += 1
        return kernel

    def _warn_instance(self, key: str, message: str) -> None:
        """Emit ``message`` at most once per RepresentingFunction instance."""
        if key in self._warned:
            return
        self._warned.add(key)
        warnings.warn(message, RuntimeWarning, stacklevel=3)

    def _coerce(self, x) -> Sequence[float]:
        if x.__class__ is np.ndarray:
            # The optimizer hot path: a 1-d float64 vector of the right
            # length.  tolist() yields Python floats in one C call; the
            # generic reshaping/conversion below is kept for exotic inputs.
            if x.dtype is _F64 and x.ndim == 1:
                values = x.tolist()
            else:
                arr = np.atleast_1d(x).ravel()
                values = arr.tolist() if arr.dtype == np.float64 else [float(v) for v in arr]
        elif isinstance(x, np.ndarray):
            arr = np.atleast_1d(x).ravel()
            values = arr.tolist() if arr.dtype == np.float64 else [float(v) for v in arr]
        elif isinstance(x, (int, float)) and not isinstance(x, bool):
            values = [float(x)]
        elif isinstance(x, Sequence):
            values = [float(v) for v in x]
        else:
            values = [float(x)]
        if len(values) != self._arity:
            raise ValueError(
                f"{self.program.name} expects {self._arity} inputs, got {len(values)}"
            )
        # Returned as the list itself: every consumer star-unpacks or
        # iterates, so the historical tuple() copy was pure allocation.
        return values
