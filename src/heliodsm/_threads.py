"""Worker-thread budget for grid evaluations.

Results never depend on the thread count: work is split into fixed-size
chunks whose internal summation order is fixed, and threads only decide
which chunk runs where.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

_ENV_VAR = "HELIO_DSM_THREADS"
_thread_count: int | None = None


def get_thread_count() -> int:
    """The pinned count, else HELIO_DSM_THREADS, else the CPU count.

    A set but invalid HELIO_DSM_THREADS (not an integer >= 1) raises
    ValueError rather than falling back silently.
    """
    if _thread_count is not None:
        return _thread_count
    env = os.environ.get(_ENV_VAR)
    if not env:
        return os.cpu_count() or 1
    try:
        n = int(env)
    except ValueError:
        n = 0
    if n < 1:
        raise ValueError(f"{_ENV_VAR} must be an integer >= 1, got {env!r}")
    return n


def set_thread_count(n: int | None) -> None:
    """Pin the worker count (None restores the environment default)."""
    global _thread_count
    if n is not None and n < 1:
        raise ValueError("thread count must be >= 1")
    _thread_count = None if n is None else int(n)


def map_chunks(fn, starts: list[int]) -> None:
    """Run fn(start) for every chunk start, possibly across threads."""
    n = get_thread_count()
    if n <= 1 or len(starts) <= 1:
        for s in starts:
            fn(s)
        return
    with ThreadPoolExecutor(max_workers=min(n, len(starts))) as pool:
        list(pool.map(fn, starts))
