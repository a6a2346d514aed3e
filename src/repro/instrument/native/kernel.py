"""Build, cache and run native penalty kernels (``PENALTY_NATIVE``).

:func:`build_native_kernel` loads a kernel by its content digest: when
``<digest>.so`` is already in the disk cache it is opened with
:mod:`ctypes` and its shape (arity, coverage words, bail/freeze site
counts) is read from the exported ``sp_meta`` array, so a warm load is one
``dlopen``.  Only a disk miss builds the scalar
:class:`~repro.instrument.program.SpecializedVariant` (its namespace
supplies the constants the emitter folds), emits the typed IR, renders it
to C99 and compiles it into the cache.  A cached ``.so`` that does not load
is removed and rebuilt once.  Loaded kernels are cached module-wide per
digest with the same hit/miss/evict bookkeeping as the specialized cache.

The variant that bailed rows re-run on is built on a kernel's first bail,
not at load time: most kernels never bail.

The generated code keeps all state in a per-call stack context, so one
loaded kernel is safely shared across threads; :meth:`NativeKernel.scalar`
keeps its argument buffers per thread.  Worker processes re-open the same
``.so`` from disk without recompiling.
"""

from __future__ import annotations

import _ctypes
import ctypes
import hashlib
import os
import struct
import threading

import numpy as np

from repro.core.branch_distance import DEFAULT_EPSILON
from repro.instrument.native.c_backend import BACKEND_NAME, render_c
from repro.instrument.native.cache import (
    ABI_VERSION,
    NativeUnavailable,
    _cleanup,
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

    def __init__(self, digest, so_path):
        """Open ``so_path``; raises ``OSError`` when it does not load and
        ``ValueError`` when it exports no ``sp_meta``."""
        if _elf_truncated(so_path):
            raise OSError(f"{so_path}: truncated shared object")
        lib = ctypes.CDLL(str(so_path))
        try:
            meta = (ctypes.c_longlong * 4).in_dll(lib, "sp_meta")
        except ValueError:
            # Unload it: dlopen of a path already loaded returns the loaded
            # object, so a rebuild at this path would otherwise never be read.
            _ctypes.dlclose(lib._handle)
            raise
        self.digest = digest
        self.so_path = so_path
        self.lib = lib
        self.arity, self.n_words, self.bail_sites, self.freeze_sites = meta
        # Exact array types rather than pointers: ctypes passes an instance
        # of the declared array type without converting it, which halves
        # the cost of the scalar call.  _ScalarBuffers allocates them.
        entry = lib.sp_entry
        entry.restype = ctypes.c_int
        entry.argtypes = [ctypes.c_double * self.arity, ctypes.c_double * 1,
                          ctypes.c_uint64 * self.n_words]
        batch = lib.sp_batch
        batch.restype = None
        batch.argtypes = [_C_DOUBLE_P, ctypes.c_longlong, _C_DOUBLE_P,
                          _C_U64_P, _C_U8_P]
        self.sp_entry = entry
        self.sp_batch = batch


def _elf_truncated(so_path) -> bool:
    """Does the ELF file ``so_path`` end before its section header table?

    ``dlopen`` maps the segments of a truncated shared object past the end
    of the file and the process dies of SIGBUS when it touches them, so a
    cut-short file must be caught before it is loaded.  A complete file
    contains its section header table, which the linker writes last, so a
    cut almost anywhere shows.  Files that are not ELF are left to
    ``dlopen``."""
    with open(so_path, "rb") as handle:
        header = handle.read(64)
        size = os.fstat(handle.fileno()).st_size
    if header[:4] != b"\x7fELF":
        return False
    if len(header) < 64:  # no shared object is shorter than this
        return True
    order = "<" if header[5] == 1 else ">"
    if header[4] == 2:  # ELFCLASS64
        (sh_offset,) = struct.unpack_from(order + "Q", header, 0x28)
        sh_entsize, sh_count = struct.unpack_from(order + "HH", header, 0x3A)
    else:
        (sh_offset,) = struct.unpack_from(order + "I", header, 0x20)
        sh_entsize, sh_count = struct.unpack_from(order + "HH", header, 0x2E)
    return size < sh_offset + sh_entsize * sh_count


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


def _load(program, saturated_mask, epsilon, wait: bool = True) -> _LoadedKernel:
    digest = kernel_digest(program.units, saturated_mask, epsilon)
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
        loaded = _open_or_build(program, saturated_mask, epsilon, digest, wait)
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


def _open_or_build(program, saturated_mask, epsilon, digest,
                   wait) -> _LoadedKernel:
    """Open ``<digest>.so`` from the disk cache; emit and compile it only
    when it is missing or does not load."""
    so_path = native_cache_dir() / f"{digest}.so"
    if so_path.exists():
        try:
            return _LoadedKernel(digest, so_path)
        except (OSError, ValueError):
            # Truncated or otherwise corrupt, or pruned by a concurrent
            # builder since the check: drop it and rebuild once, in the
            # foreground, rather than crash or serve a stale path.
            _cleanup(so_path)
            wait = True
    variant = program.specialize(saturated_mask, epsilon)
    ir = emit_program_ir(program.units, program.name, program.arity,
                         program.n_conditionals, variant.namespace,
                         saturated_mask, epsilon)
    c_source = render_c(ir)
    if wait:
        so_path = compile_kernel(c_source, digest)
    else:
        # Raises NativeCompiling while the background build runs; that
        # transient state is never negatively cached (it is not a
        # NativeUnavailable), so the next poll can pick the kernel up.
        so_path = compile_kernel_background(c_source, digest)
    try:
        return _LoadedKernel(digest, so_path)
    except (OSError, ValueError) as exc:
        raise NativeUnavailable(
            f"native kernel {digest[:12]} does not load: {exc}"
        ) from exc


class _ScalarBuffers(threading.local):
    """One thread's ``sp_entry`` arguments (input row, ``r``, coverage
    words), allocated on the thread's first call and reused after."""

    def __init__(self, argtypes):
        self.args = tuple(array_type() for array_type in argtypes)


class NativeKernel:
    """One loaded native evaluator of a program under one saturation mask.

    ``kernel(X)`` maps an ``(N, arity)`` float64 array to ``(r, covered)``
    with one serial ``sp_batch`` call, where ``r`` is the raw penalty vector
    (callers clamp) and ``covered`` the union covered-bit summary over all
    rows.  Rows the native code flags as bailed (a construct whose bit-exact
    CPython semantics the emitter could not prove) are transparently re-run
    on the program's scalar specialized variant, built on the first such
    row, so results never depend on the emitter's coverage being perfect.
    :meth:`scalar` is the one-row entry point used by ``evaluate``.
    """

    __slots__ = ("program", "saturated_mask", "epsilon", "loaded", "arity",
                 "_variant", "_buffers")

    def __init__(self, program, saturated_mask: int, epsilon: float,
                 loaded: _LoadedKernel):
        self.program = program
        self.saturated_mask = saturated_mask
        self.epsilon = epsilon
        self.loaded = loaded
        self.arity = loaded.arity
        self._variant = None
        self._buffers = _ScalarBuffers(loaded.sp_entry.argtypes)

    @property
    def digest(self) -> str:
        return self.loaded.digest

    def scalar(self, args) -> tuple[float, int]:
        """Evaluate one row, returning ``(r, covered_mask)`` (raw ``r``)."""
        row, r_out, cov = self._buffers.args
        row[:] = args
        if self.loaded.sp_entry(row, r_out, cov):
            return self._scalar_fallback(args)
        covered = cov[0]
        for word_index in range(1, len(cov)):
            covered |= cov[word_index] << (64 * word_index)
        return r_out[0], covered

    def _scalar_fallback(self, args) -> tuple[float, int]:
        variant = self._variant
        if variant is None:
            variant = self.program.specialize(self.saturated_mask, self.epsilon)
            self._variant = variant
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
    mask = saturated_mask & ((1 << (2 * program.n_conditionals)) - 1)
    loaded = _load(program, mask, epsilon, wait=wait)
    return NativeKernel(program, mask, epsilon, loaded)


__all__ = [
    "NativeKernel",
    "build_native_kernel",
    "clear_native_cache",
    "kernel_digest",
    "native_cache_dir",
    "native_cache_info",
]
