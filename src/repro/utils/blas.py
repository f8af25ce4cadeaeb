"""One OpenBLAS thread by policy, where it was measured.

On a 2-vCPU host, where OpenBLAS runs 2 threads by default, a second thread
about doubles the CPU a training step costs and buys at most a few percent
of wall time at the quick-profile, ``small_config`` and ``paper_config``
shapes.  The trainer
and the server CLI therefore run their BLAS work inside
:func:`blas_policy`, which sets one thread only within what was measured:
it replaces a count of at most :data:`MEASURED_THREADS`, and training steps
up to :data:`MEASURED_BATCH_WIDTH`.  Beyond that (more cores, wider steps)
it leaves OpenBLAS's count alone.
An operator who sets ``OPENBLAS_NUM_THREADS``, ``GOTO_NUM_THREADS`` or
``OMP_NUM_THREADS`` keeps that choice: the scope then leaves the count
alone, as it does when NumPy links another BLAS (MKL, Accelerate).
"""

from __future__ import annotations

import ctypes
import functools
import os
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

import numpy  # noqa: F401  (maps the BLAS library that the lookup finds)

#: Environment variables that already pick OpenBLAS's thread count.
OVERRIDE_ENV = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")

#: The thread count the policy was measured replacing (a 2-vCPU host).
MEASURED_THREADS = 2

#: Widest training step measured, batch size x d_model (``paper_config``).
MEASURED_BATCH_WIDTH = 32 * 128

#: Get/set symbol patterns of the NumPy wheels' OpenBLAS builds, tried in order.
_SYMBOLS = ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads64_",
             "openblas_{}_num_threads")


@functools.cache
def _openblas() -> tuple[Callable[[], int], Callable[[int], None]] | None:
    """(get, set) thread-count functions of the loaded OpenBLAS, or None."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    paths = {line.split()[-1] for line in maps.splitlines()
             if "openblas" in line.lower() and ".so" in line}
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for pattern in _SYMBOLS:
            get = getattr(lib, pattern.format("get"), None)
            set_ = getattr(lib, pattern.format("set"), None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


def blas_thread_count() -> int | None:
    """OpenBLAS's current thread count, or None when no OpenBLAS is loaded."""
    funcs = _openblas()
    return None if funcs is None else funcs[0]()


@contextmanager
def blas_threads(count: int):
    """Run the block on ``count`` OpenBLAS threads, then restore the count
    read on entry.  Also usable as a decorator.

    A no-op when an :data:`OVERRIDE_ENV` variable is set or no OpenBLAS is
    loaded.  The count is process-global: a thread that enters the scope
    changes it for every other thread until the scope exits.
    """
    funcs = None if any(os.environ.get(name) for name in OVERRIDE_ENV) \
        else _openblas()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    previous = get()
    set_(count)
    try:
        yield
    finally:
        set_(previous)


@contextmanager
def blas_policy(batch_width: int = 0):
    """Run the block on one OpenBLAS thread where that was measured to cost
    at most a few percent of wall time: the count it replaces is at most :data:`MEASURED_THREADS`
    and ``batch_width`` (batch size x d_model of a training step, 0 for
    serving) is at most :data:`MEASURED_BATCH_WIDTH`.  Elsewhere the count
    is left alone.  Decides on each entry; also usable as a decorator.
    """
    current = blas_thread_count()
    if (current is None or current > MEASURED_THREADS
            or batch_width > MEASURED_BATCH_WIDTH):
        yield
        return
    with blas_threads(1):
        yield
