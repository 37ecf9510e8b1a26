"""Loader of ``_kernels.c``, the compiled event loops of the block-count
chain (``chain_run``) and of the Moran dynamics (``particle_run``).

The first call of ``lib`` in a process compiles the source with gcc in a
temporary directory and loads it; the directory is removed once the
library is loaded.  So nothing is built at import and no file is left
behind, but gcc is needed at run time: there is no fallback.  No flag
changes floating-point results (no -march=native, no -ffast-math, no
contraction into fused multiply-adds), so the loops compare bit for bit
with numpy.
"""

from __future__ import annotations

import ctypes
import functools
import os
import subprocess
import tempfile

from .errors import KernelCompileError

CHUNK = 1 << 16  # uniforms drawn at a time, so buffers stay small

_SOURCE = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                       "_kernels.c")
_COMMAND = ("gcc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_PTR, _I64 = ctypes.c_void_p, ctypes.c_int64


@functools.cache
def lib() -> ctypes.CDLL:
    """The compiled kernels, built on the first call in the process."""
    with tempfile.TemporaryDirectory(prefix="nigdiff-kernels-") as tmp:
        target = os.path.join(tmp, "_kernels.so")
        command = [*_COMMAND, _SOURCE, "-o", target]
        try:
            proc = subprocess.run(command, capture_output=True, text=True)
        except OSError as exc:
            raise KernelCompileError(
                f"cannot run {command[0]!r} to build {_SOURCE}: {exc}"
            ) from exc
        if proc.returncode != 0:
            raise KernelCompileError(
                f"{' '.join(command)} exited with {proc.returncode}:\n"
                f"{proc.stderr}")
        so = ctypes.CDLL(target)
    so.chain_run.restype = _I64
    so.chain_run.argtypes = [_I64] * 4 + [_PTR] * 5
    so.particle_run.restype = _I64
    so.particle_run.argtypes = [_I64, ctypes.c_int32, ctypes.c_double, _PTR,
                                _I64, _I64, _PTR, _I64, _PTR, _PTR, _PTR]
    return so
