"""The package's one thread-count rule.

``empirics.collapse_H`` maps its H values and ``wtmm.singular_spectrum``
its scale rows through :func:`thread_map`: each spectrum worker transforms
one row and finds its maxima while the main thread chains the rows before
it.  Each item is computed by numpy calls that release the GIL and does not
depend on any other item, so no bit of a result depends on the number of
threads.
"""

from __future__ import annotations

import os
from collections import deque

# Each thread holds its own scratch, which glibc keeps in a per-thread
# arena after the item is done.  In `collapse_H` that is a scaled copy of
# every usable layer, 2 MiB on a depth-17 pyramid, and one block of search
# results.  With the 101-point default grid on a depth-17 pyramid, the
# `collapse` process peaked at 45.4-45.5 MiB on one or two threads, which is
# its `load_pyramid` peak, at 47.7-48.3 MiB on four and 57.7-59.2 MiB on eight.
MAX_THREADS = 4
# `singular_spectrum` allocates each worker's row and product buffers, so a
# worker itself allocates only the inverse FFT's work buffers and its row's
# maxima scratch, which stay in its arena: about 9 MiB at 2**19 points.  On
# a 2**19-point lognormal cascade path `spectrum` peaked at 71.6-73.0 MiB in
# 1.50-1.96 s on 1 CPU and at 87.1-87.4 MiB in 0.95-1.35 s on 2 (a shared
# 2 vCPU host), while the main thread chains the finished rows.  Three or
# more threads have not been measured.
MAX_CWT_THREADS = 2
# Items submitted and not yet yielded, per thread: each thread may finish
# one item ahead of the one it runs, so at most a few finished spectrum rows
# wait for the chain, and no future is held per H value of a long grid.  One
# per thread left the 2**19-point `spectrum` 0.6 MiB lower but about 0.2 s
# slower: a worker waits whenever the chain falls a row behind.
_PENDING_PER_THREAD = 2


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def thread_map(fn, items, max_threads: int = MAX_THREADS):
    """Yield ``fn(item)`` for each item, in item order, as the results complete.

    The items run on ``min(len(items), usable CPUs, max_threads)`` threads.
    They start in order, and at most ``_PENDING_PER_THREAD`` per thread are
    submitted and not yet yielded.  Closing the generator, or an exception
    from ``fn``, cancels the items not yet started and waits for the running
    ones, so no thread outlives it.
    """
    # imported here, so a command that starts no thread skips its ~0.5 MB of RSS
    import concurrent.futures

    workers = max(1, min(len(items), _usable_cpus(), max_threads))
    pending = deque()
    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        try:
            for item in items:
                if len(pending) == _PENDING_PER_THREAD * workers:
                    yield pending.popleft().result()
                pending.append(pool.submit(fn, item))
            while pending:
                yield pending.popleft().result()
        finally:
            for future in pending:
                future.cancel()
