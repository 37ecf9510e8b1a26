"""Loader of ``_kernels.c``, the compiled event loops of the block-count
chain (``chain_run``), of the Moran dynamics (``particle_run``), of the
batch urn (``urn_run``) and of the scalar urn (``partition_run``), the
Gibbs-triangle descent of the urns' g0 rows (``g0_descend``) and the
power sums of Moran counts (``power_sums``); the last two draw nothing
and are called through ``lib()``.  ``run`` calls one of the loops on
the bit generator of a numpy ``Generator``, which ``require_generator``
checks.  ``map_threads`` runs independent jobs on all usable CPUs.

The first call of ``lib`` in a process loads the library from a cache
keyed by content, so a given source is compiled once per machine:

- The key is the SHA-256 of the bytes of ``_kernels.c``, the gcc command
  ``_COMMAND`` and the path, real path, size and mtime of gcc on PATH.
- The entry is ``$XDG_CACHE_HOME/nigdiff/_kernels-<key>.so``, or
  ``~/.cache/nigdiff/...`` when ``XDG_CACHE_HOME`` is unset or relative.
- On a miss gcc builds into a temporary file in that directory, which
  is sealed with the SHA-256 of its bytes and then renamed onto the key
  path, so processes that race each publish a complete file.  An entry
  whose seal does not match (a truncated file, say) or that fails to
  load is rebuilt and replaced once.
- Entries of other keys are never removed: checkouts of two sources
  keep one entry each instead of rebuilding each other's.
- The directory is made with mode 0700.  When it cannot be made or
  written, is not owned by the user, or is writable by group or
  others, the library is built in a temporary directory that is
  removed once it is loaded, and no file is left behind.

Nothing is built at import and a cached load runs no process, but gcc
must be on PATH, also for a cached entry: there is no fallback.
No flag changes floating-point results (no -march=native, no
-ffast-math, no contraction into fused multiply-adds), so the loops
compare bit for bit with numpy.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import subprocess
import tempfile
import threading

import numpy as np

from .errors import DomainError, KernelCompileError

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")
_COMMAND = ("gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_PTR, _I64 = ctypes.c_void_p, ctypes.c_int64


def _run(command) -> None:
    """Run ``command``; a compiler that is missing or fails raises
    ``KernelCompileError`` with its message."""
    try:
        proc = subprocess.run(command, capture_output=True, text=True)
    except OSError as exc:
        raise KernelCompileError(
            f"cannot run {command[0]!r} to build {_SOURCE}: {exc}") from exc
    if proc.returncode != 0:
        raise KernelCompileError(
            f"{' '.join(command)} exited with {proc.returncode}:\n"
            f"{proc.stderr}")


def _cache_dir() -> str | None:
    """The cache directory, made if needed, or None where it is unsafe
    or cannot be written."""
    base = os.environ.get("XDG_CACHE_HOME", "")
    if not os.path.isabs(base):
        base = os.path.join(os.path.expanduser("~"), ".cache")
    path = os.path.join(base, "nigdiff")
    if not os.path.isabs(path):  # no home directory
        return None
    try:
        os.makedirs(path, mode=0o700, exist_ok=True)
        info = os.stat(path)
    except OSError:
        return None
    if (info.st_uid != os.getuid() or info.st_mode & 0o022
            or not os.access(path, os.W_OK | os.X_OK)):
        return None
    return path


def _intact(path: str) -> bool:
    """Whether the file at ``path`` ends in the SHA-256 of the rest of
    it, as ``_cached`` seals an entry.  dlopen maps a truncated library
    and the process dies of SIGBUS where it reads past the end, so an
    entry is checked before it is loaded."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError:
        return False
    return blob[-32:] == hashlib.sha256(blob[:-32]).digest()


def _cached(cache: str) -> ctypes.CDLL | None:
    """The entry of this source in ``cache``, built if it is missing or
    does not load; None if no file can be made or loaded there.  A gcc
    missing from PATH raises ``KernelCompileError``."""
    gcc = shutil.which(_COMMAND[0])
    if gcc is None:
        raise KernelCompileError(f"cannot find {_COMMAND[0]!r} on PATH")
    info = os.stat(gcc)
    digest = hashlib.sha256()
    with open(_SOURCE, "rb") as fh:
        digest.update(fh.read())
    digest.update(repr((_COMMAND, gcc, os.path.realpath(gcc), info.st_size,
                        info.st_mtime_ns)).encode())
    target = os.path.join(cache, f"_kernels-{digest.hexdigest()}.so")
    if _intact(target):
        try:
            return ctypes.CDLL(target)
        except OSError:  # rebuild it
            pass
    try:
        fd, partial = tempfile.mkstemp(prefix="_kernels-", suffix=".tmp",
                                       dir=cache)
    except OSError:
        return None
    try:
        os.close(fd)
        _run([*_COMMAND, _SOURCE, "-o", partial])
        with open(partial, "rb") as fh:
            seal = hashlib.sha256(fh.read()).digest()
        with open(partial, "ab") as fh:  # the loader ignores trailing bytes
            fh.write(seal)
        os.replace(partial, target)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    try:
        return ctypes.CDLL(target)
    except OSError:  # a cache on a noexec mount, say
        return None


@functools.cache
def lib() -> ctypes.CDLL:
    """The compiled kernels, loaded or built on the first call in the
    process."""
    cache = _cache_dir()
    so = _cached(cache) if cache is not None else None
    if so is None:
        with tempfile.TemporaryDirectory(prefix="nigdiff-kernels-") as tmp:
            target = os.path.join(tmp, "_kernels.so")
            _run([*_COMMAND, _SOURCE, "-o", target])
            so = ctypes.CDLL(target)
    so.chain_run.restype = _I64
    so.chain_run.argtypes = [_PTR] + [_I64] * 3 + [_PTR] * 4
    so.particle_run.restype = _I64
    so.particle_run.argtypes = [_PTR, _I64, ctypes.c_int32, ctypes.c_double,
                                _PTR, _I64, _I64, _PTR, _PTR]
    so.g0_descend.restype = None
    so.g0_descend.argtypes = [_I64] * 4 + [ctypes.c_double] + [_PTR] * 3
    so.urn_run.restype = None
    so.urn_run.argtypes = [_PTR] + [_I64] * 4 + [_PTR] * 2
    so.partition_run.restype = _I64
    so.partition_run.argtypes = ([_PTR] + [_I64] * 4
                                 + [ctypes.c_double, _PTR, _I64, _PTR])
    so.power_sums.restype = None
    so.power_sums.argtypes = [_I64] * 2 + [_PTR] * 3
    return so


def require_generator(rng) -> None:
    """Raise ``DomainError`` unless ``rng`` is a numpy ``Generator``, the
    one kind of rng the loops and the samplers take."""
    if not isinstance(rng, np.random.Generator):
        raise DomainError("rng must be a numpy Generator, not "
                          f"{type(rng).__name__}")


def run(kernel: str, rng, *args) -> int | None:
    """Call ``kernel`` of ``lib()`` with the ``bitgen_t *`` of the numpy
    ``Generator`` ``rng``, which it draws from, and then ``args``, and
    return its result; anything but a ``Generator`` raises
    ``DomainError``.  The call holds the bit generator's lock, since
    ctypes releases the GIL while it runs."""
    require_generator(rng)
    fn, bits = getattr(lib(), kernel), rng.bit_generator
    lock = bits.lock
    lock.acquire()  # half the cost of a with statement
    try:
        return fn(bits.ctypes.bit_generator, *args)
    finally:
        lock.release()


def map_threads(fn, jobs) -> list:
    """``[fn(job) for job in jobs]``, last job first, on this thread and
    helper threads; every job runs, then the loop's first error is raised."""
    lib()  # built or loaded once, before any thread starts
    results, failures, lock = [None] * len(jobs), {}, threading.Lock()
    pending = list(range(len(jobs)))

    def work():
        while True:
            with lock:
                if not pending:
                    return
                i = pending.pop()
            try:
                results[i] = fn(jobs[i])
            except Exception as exc:  # raised by the caller
                failures[i] = exc

    helpers = [threading.Thread(target=work) for _ in range(
        min(len(jobs), len(os.sched_getaffinity(0))) - 1)]
    for thread in helpers:
        thread.start()
    try:
        work()
    finally:
        for thread in helpers:
            thread.join()
    if failures:
        raise failures[min(failures)]
    return results
