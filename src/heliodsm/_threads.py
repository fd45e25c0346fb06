"""Worker-thread budget for grid evaluations.

The worker count is the one `set_thread_count` pins (the CLI's
`--threads`), else the CPU count.  Results never depend on it: work is
split into chunks fixed by the problem size, whose internal summation
order is fixed, and threads only decide which chunk runs where; a call of
one chunk runs it inline.  `map_chunks` is the one place that runs work in
parallel.  While it runs, numpy's bundled OpenBLAS is held to one thread
(through its `scipy_openblas_set_num_threads64_` export), so the BLAS
products inside a chunk neither oversubscribe the workers nor change their
bits with the BLAS thread count.  `heliodsm.cli.main` holds it for a
whole command as well: synthesis and the sampling driver make small
products (a 1806 x 3 real matrix times a complex 3-vector) that two BLAS
threads run several times slower than one.  Under any other BLAS that
hold is not available: results are then bitwise reproducible only with
the BLAS itself limited to one thread (`OPENBLAS_NUM_THREADS=1` or that
library's equivalent).
"""

from __future__ import annotations

import functools
import os
import threading
from contextlib import contextmanager

import numpy as np

_thread_count: int | None = None

# callers inside `_one_blas_thread`, and the OpenBLAS count the first one found
_blas_lock = threading.Lock()
_blas_callers, _blas_found = 0, 1


def get_thread_count() -> int:
    """The pinned count, else the CPU count."""
    if _thread_count is not None:
        return _thread_count
    return os.cpu_count() or 1


def set_thread_count(n: int | None) -> None:
    """Pin the worker count (None unpins it)."""
    global _thread_count
    if n is not None and n < 1:
        raise ValueError("thread count must be >= 1")
    _thread_count = None if n is None else int(n)


@contextmanager
def pinned(n: int | None):
    """Pin the worker count to n (None leaves the pin alone) for the block,
    then restore the caller's pin.  A count below 1 fails on entry."""
    before = _thread_count
    set_thread_count(before if n is None else n)
    try:
        yield
    finally:
        set_thread_count(before)


@functools.cache
def openblas():
    """ctypes handle of numpy's bundled OpenBLAS, or None if there is none
    that exports the thread-count calls."""
    import ctypes  # on first use: importing ctypes costs ~5 ms of every CLI start
    import glob

    here = os.path.dirname(np.__file__)
    for path in (glob.glob(os.path.join(here, os.pardir, "numpy.libs", "*openblas*"))
                 + glob.glob(os.path.join(here, ".dylibs", "*openblas*"))):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        if hasattr(lib, "scipy_openblas_set_num_threads64_") and hasattr(lib, "scipy_openblas_get_num_threads64_"):
            return lib
    return None


@contextmanager
def _one_blas_thread():
    """Hold the bundled OpenBLAS to one thread while any caller is inside,
    then restore the count the first one found: a caller that restored it
    alone would give another thread's BLAS calls several threads and new bits."""
    global _blas_callers, _blas_found
    lib = openblas()
    if lib is None:
        yield
        return
    with _blas_lock:
        if not _blas_callers:
            _blas_found = lib.scipy_openblas_get_num_threads64_()
            lib.scipy_openblas_set_num_threads64_(1)
        _blas_callers += 1
    try:
        yield
    finally:
        with _blas_lock:
            _blas_callers -= 1
            if not _blas_callers:
                lib.scipy_openblas_set_num_threads64_(_blas_found)


def map_chunks(fn, starts: list[int]) -> None:
    """Run fn(start) for every chunk start, possibly across threads, with
    the bundled OpenBLAS held to one thread."""
    n = get_thread_count()
    with _one_blas_thread():
        if n <= 1 or len(starts) <= 1:
            for s in starts:
                fn(s)
            return
        from concurrent.futures import ThreadPoolExecutor  # on first use, as `openblas` imports ctypes

        with ThreadPoolExecutor(max_workers=min(n, len(starts))) as pool:
            list(pool.map(fn, starts))
