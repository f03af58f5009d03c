"""The package's one thread-count rule.

``empirics.collapse_H`` maps its H rows and ``wtmm.cwt`` its scale rows
through :func:`thread_map`.  Each row is computed by numpy calls that
release the GIL and does not depend on any other row, so no bit of a
result depends on the number of threads.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor

# Each thread holds its own scratch, which glibc keeps in a per-thread
# arena after the row is done.  In `collapse_H` that is a scaled copy of
# every usable layer, about 2.5 MB on a depth-17 pyramid: with four threads
# the `collapse` process peaked at 74 MB on a depth-17 pyramid, as
# `simulate` does at that depth; eight took 84 MB.
MAX_THREADS = 4
# In `cwt` it is the transforms of one row, about 16 MB at 2**19 points.
# `spectrum` on a 2**19-point path peaked at 601 MB serially before the
# rows were threaded, and at 613, 630, 646 and 662 MB on 1 to 4 threads.
MAX_CWT_THREADS = 2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_map(fn, items, max_threads: int = MAX_THREADS) -> list:
    """``[fn(item) for item in items]`` on ``min(len(items), usable CPUs, max_threads)`` threads."""
    workers = max(1, min(len(items), _usable_cpus(), max_threads))
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))
