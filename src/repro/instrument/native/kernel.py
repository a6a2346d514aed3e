"""Build, cache and run native penalty kernels (``PENALTY_NATIVE``).

:func:`build_native_kernel` builds the scalar
:class:`~repro.instrument.program.SpecializedVariant` first (it is the
per-row bail target and supplies the namespace whose constants the emitter
folds), then the typed IR is emitted, rendered to C99, compiled into the
content-addressed disk cache and loaded with :mod:`ctypes`.  Loaded
kernels are cached module-wide per digest with the same hit/miss/evict
bookkeeping as the specialized cache.

The generated code keeps all state in a per-call stack context, so one
loaded kernel is safely shared across threads; worker processes re-open the
same ``.so`` from disk without recompiling.
"""

from __future__ import annotations

import ctypes
import hashlib
import threading

import numpy as np

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.native.c_backend import BACKEND_NAME, render_c
from repro.instrument.native.cache import (
    ABI_VERSION,
    NativeUnavailable,
    compile_kernel,
    compile_kernel_background,
    cc_version,
    find_cc,
    native_cache_dir,
    native_cache_entries,
    opt_tier,
)
from repro.instrument.native.emit import emit_program_ir

_C_DOUBLE_P = ctypes.POINTER(ctypes.c_double)
_C_U64_P = ctypes.POINTER(ctypes.c_uint64)
_C_U8_P = ctypes.POINTER(ctypes.c_ubyte)


class _LoadedKernel:
    """One compiled-and-loaded shared object (immutable, thread-shareable)."""

    __slots__ = ("digest", "so_path", "lib", "sp_entry", "sp_batch",
                 "arity", "n_words", "bail_sites", "freeze_sites")

    def __init__(self, digest, so_path, lib, arity, n_words,
                 bail_sites, freeze_sites):
        self.digest = digest
        self.so_path = so_path
        self.lib = lib
        self.arity = arity
        self.n_words = n_words
        self.bail_sites = bail_sites
        self.freeze_sites = freeze_sites
        entry = lib.sp_entry
        entry.restype = ctypes.c_int
        entry.argtypes = [_C_DOUBLE_P, _C_DOUBLE_P, _C_U64_P]
        batch = lib.sp_batch
        batch.restype = None
        batch.argtypes = [_C_DOUBLE_P, ctypes.c_longlong, _C_DOUBLE_P,
                          _C_U64_P, _C_U8_P]
        self.sp_entry = entry
        self.sp_batch = batch


def kernel_digest(units, saturated_mask: int, epsilon: float) -> str:
    """Content digest of one native kernel build.

    Everything that affects the generated machine code participates: the
    per-unit (source sha256, function name, start label) triples, the
    saturation mask, epsilon (hex, bit-exact), the backend name, the
    compiler version line, the optimization flag tier and the codegen ABI
    version."""
    _cc, version = find_cc()
    hasher = hashlib.sha256()
    for source, function_name, start_label in units:
        source_sha = hashlib.sha256(source.encode("utf-8")).hexdigest()
        hasher.update(f"{source_sha}:{function_name}:{start_label}\n".encode())
    hasher.update(f"mask={saturated_mask:x}\n".encode())
    hasher.update(f"eps={float(epsilon).hex()}\n".encode())
    hasher.update(f"backend={BACKEND_NAME}\n".encode())
    hasher.update(f"cc={version}\n".encode())
    hasher.update(f"opt={opt_tier()}\n".encode())
    hasher.update(f"abi={ABI_VERSION}\n".encode())
    return hasher.hexdigest()


#: Module-level loaded-kernel cache: digest -> _LoadedKernel.  Negative
#: results (NativeUnavailable from emission) are cached as the exception
#: instance so a non-emittable program does not re-run the emitter on every
#: epoch.
_NATIVE_CACHE: dict[str, object] = {}
_NATIVE_CACHE_LOCK = threading.Lock()
_NATIVE_CACHE_MAX = 128
_NATIVE_CACHE_STATS = {"hits": 0, "misses": 0, "evictions": 0}


def native_cache_info() -> dict:
    """Size and hit/miss/evict statistics of the native-kernel cache.

    ``disk_entries`` counts shared objects in the on-disk cache and ``cc``
    is the detected compiler version line (``None`` without a compiler)."""
    with _NATIVE_CACHE_LOCK:
        info = {
            "entries": len(_NATIVE_CACHE),
            "max_entries": _NATIVE_CACHE_MAX,
            **_NATIVE_CACHE_STATS,
        }
    info["disk_entries"] = len(native_cache_entries())
    info["cc"] = cc_version()
    return info


def clear_native_cache() -> None:
    """Drop every loaded kernel and reset the statistics (tests).

    The on-disk shared objects stay; use
    :func:`repro.instrument.native.cache.native_clean_disk_cache` for those.
    """
    with _NATIVE_CACHE_LOCK:
        _NATIVE_CACHE.clear()
        for key in _NATIVE_CACHE_STATS:
            _NATIVE_CACHE_STATS[key] = 0


def _load(units, entry_name, arity, n_conditionals, namespace,
          saturated_mask, epsilon, wait: bool = True) -> _LoadedKernel:
    digest = kernel_digest(units, saturated_mask, epsilon)
    with _NATIVE_CACHE_LOCK:
        cached = _NATIVE_CACHE.get(digest)
        if cached is not None:
            _NATIVE_CACHE_STATS["hits"] += 1
        else:
            _NATIVE_CACHE_STATS["misses"] += 1
    if cached is not None:
        if isinstance(cached, NativeUnavailable):
            raise cached
        return cached
    try:
        ir = emit_program_ir(units, entry_name, arity, n_conditionals,
                             namespace, saturated_mask, epsilon)
        c_source = render_c(ir)
        if wait:
            so_path = compile_kernel(c_source, digest)
        else:
            # Raises NativeCompiling while the background build runs; that
            # transient state is never negatively cached (it is not a
            # NativeUnavailable), so the next poll can pick the kernel up.
            so_path = compile_kernel_background(c_source, digest)
        try:
            lib = ctypes.CDLL(str(so_path))
        except OSError:
            # The .so can vanish between the cache lookup and the load when
            # a concurrent build FIFO-prunes the directory; rebuild once in
            # the foreground rather than degrading permanently.
            so_path = compile_kernel(c_source, digest)
            lib = ctypes.CDLL(str(so_path))
        loaded = _LoadedKernel(
            digest, so_path, lib, len(ir.entry.params), ir.n_words,
            ir.bail_sites, ir.freeze_sites,
        )
    except NativeUnavailable as exc:
        with _NATIVE_CACHE_LOCK:
            _NATIVE_CACHE[digest] = exc
        raise
    with _NATIVE_CACHE_LOCK:
        while len(_NATIVE_CACHE) >= _NATIVE_CACHE_MAX:
            _NATIVE_CACHE.pop(next(iter(_NATIVE_CACHE)))
            _NATIVE_CACHE_STATS["evictions"] += 1
        _NATIVE_CACHE[digest] = loaded
    return loaded


class NativeKernel:
    """One loaded native evaluator bound to a program's specialized variant.

    ``kernel(X)`` maps an ``(N, arity)`` float64 array to ``(r, covered)``
    with one serial ``sp_batch`` call, where ``r`` is the raw penalty vector
    (callers clamp) and ``covered`` the union covered-bit summary over all
    rows.  Rows the native code flags as bailed (a construct whose bit-exact
    CPython semantics the emitter could not prove) are transparently re-run
    on the scalar specialized variant, so results never depend on the
    emitter's coverage being perfect.  :meth:`scalar` is the one-row entry
    point used by ``evaluate``.
    """

    __slots__ = ("variant", "loaded", "saturated_mask", "epsilon", "arity")

    def __init__(self, variant, loaded: _LoadedKernel):
        self.variant = variant
        self.loaded = loaded
        self.saturated_mask = variant.saturated_mask
        self.epsilon = variant.epsilon
        self.arity = loaded.arity

    @property
    def digest(self) -> str:
        return self.loaded.digest

    def scalar(self, args) -> tuple[float, int]:
        """Evaluate one row, returning ``(r, covered_mask)`` (raw ``r``)."""
        arity = self.arity
        buf = (ctypes.c_double * arity)(*[float(v) for v in args])
        r_out = ctypes.c_double(0.0)
        cov = (ctypes.c_uint64 * self.loaded.n_words)()
        bailed = self.loaded.sp_entry(buf, ctypes.byref(r_out), cov)
        if bailed:
            return self._scalar_fallback(args)
        covered = 0
        for word_index in range(self.loaded.n_words):
            covered |= int(cov[word_index]) << (64 * word_index)
        return r_out.value, covered

    def _scalar_fallback(self, args) -> tuple[float, int]:
        variant = self.variant
        _value, r = variant.run(args)
        return r, variant.covered_mask()

    def __call__(self, X):
        """Evaluate a batch: ``(r, covered)``, ``covered`` the union over
        this call's rows."""
        X = np.ascontiguousarray(np.atleast_2d(np.asarray(X, dtype=np.float64)))
        n = X.shape[0]
        if X.shape[1] != self.arity:
            raise ValueError(f"expected {self.arity} columns, got {X.shape[1]}")
        n_words = self.loaded.n_words
        r = np.empty(n, dtype=np.float64)
        cov = np.zeros(n_words, dtype=np.uint64)
        bail = np.empty(n, dtype=np.uint8)
        self.loaded.sp_batch(
            X.ctypes.data_as(_C_DOUBLE_P),
            ctypes.c_longlong(n),
            r.ctypes.data_as(_C_DOUBLE_P),
            cov.ctypes.data_as(_C_U64_P),
            bail.ctypes.data_as(_C_U8_P),
        )
        covered = 0
        for word_index in range(n_words):
            covered |= int(cov[word_index]) << (64 * word_index)
        if bail.any():
            for row_index in np.nonzero(bail)[0]:
                row_r, row_cov = self._scalar_fallback(X[row_index].tolist())
                r[row_index] = row_r
                covered |= row_cov
        return r, covered


def build_native_kernel(program, saturated_mask: int,
                        epsilon: float = DEFAULT_EPSILON,
                        wait: bool = True) -> NativeKernel:
    """Build (or fetch from cache) the native kernel for one program/mask.

    Raises :class:`NativeUnavailable` when no C compiler is present, the
    program has no source units, or the emitter cannot produce a useful
    kernel (the entry would bail unconditionally); callers degrade to the
    scalar specialized tier.  With ``wait=False`` the compile is handed to
    the background worker and
    :class:`~repro.instrument.native.cache.NativeCompiling` is raised while
    it runs — a transient state callers serve the specialized tier through.
    """
    if not program.units:
        raise NativeUnavailable(
            f"program {program.name!r} carries no source units"
        )
    variant = program.specialize(saturated_mask, epsilon)
    loaded = _load(
        program.units,
        program.name,
        program.arity,
        program.n_conditionals,
        variant.namespace,
        variant.saturated_mask,
        variant.epsilon,
        wait=wait,
    )
    return NativeKernel(variant, loaded)


__all__ = [
    "NativeKernel",
    "build_native_kernel",
    "clear_native_cache",
    "kernel_digest",
    "native_cache_dir",
    "native_cache_info",
]
