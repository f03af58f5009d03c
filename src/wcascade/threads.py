"""The package's one thread-count rule.

``empirics.collapse_H`` maps its H rows and ``wtmm.cwt`` its scale rows
through :func:`thread_map`.  Each row is computed by numpy calls that
release the GIL and does not depend on any other row, so no bit of a
result depends on the number of threads.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import ThreadPoolExecutor

# Each thread holds its own scratch, which glibc keeps in a per-thread
# arena after the row is done.  In `collapse_H` that is a scaled copy of
# every usable layer, about 2.5 MB on a depth-17 pyramid: with four threads
# the `collapse` process peaked at 74 MB on a depth-17 pyramid, as
# `simulate` does at that depth; eight took 84 MB.
MAX_THREADS = 4
# In `cwt` the caller allocates each thread's product buffer, so a thread
# itself allocates only the inverse FFT's work buffers, which stay in its
# arena: about 8 MB at 2**19 points.  `spectrum`, which transforms 2 rows
# at a time into one buffer, peaked at 75.7 MB in 1.59-1.70 s on 1 CPU and
# at 83.8 MB in 1.29-1.46 s on 2 on a 2**19-point lognormal cascade path.
# Three or more threads have not been measured.
MAX_CWT_THREADS = 2
# Items submitted and not yet collected.  `singular_spectrum` hands `cwt` at
# most 2 rows per call, so the window bounds `collapse_H`'s futures: the
# memory budget admits an H grid of about 33.5 million points, and no future
# is held per point.
_MAX_PENDING = 256


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_map(fn, items, max_threads: int = MAX_THREADS) -> list:
    """``[fn(item) for item in items]`` on ``min(len(items), usable CPUs, max_threads)`` threads.

    Items start in order, and at most ``_MAX_PENDING`` are submitted and not
    yet collected, so a long list holds no future per item.
    """
    workers = max(1, min(len(items), _usable_cpus(), max_threads))
    results = []
    pending = deque()
    with ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for item in items:
                if len(pending) == _MAX_PENDING:
                    results.append(pending.popleft().result())
                pending.append(pool.submit(fn, item))
            while pending:
                results.append(pending.popleft().result())
        finally:
            for future in pending:
                future.cancel()
    return results
