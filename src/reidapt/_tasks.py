"""Row blocks on the cores that BLAS leaves idle.

Neighbor-index row blocks are independent: each block writes only its own
rows, so the outputs do not depend on how many threads run them.  numpy
releases the GIL inside its large loops and BLAS calls, so threads overlap
there.  A BLAS pool that is not pinned spins on every core between calls, so
the thread count is derived from the pinning and is 1 without it; there is
no option and no pool that outlives a call.  Training runs on the calling
thread alone.
"""

from __future__ import annotations

import os
import threading


def workers() -> int:
    """W = max(1, cpus // blas), the threads blocks() runs on.

    cpus counts the CPUs this process may run on (os.cpu_count() where
    sched_getaffinity does not exist).  blas is the first positive integer
    in OPENBLAS_NUM_THREADS, then OMP_NUM_THREADS, which numpy's OpenBLAS
    reads when it loads; without one, blas = cpus.
    """
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:
        cpus = os.cpu_count() or 1
    blas = cpus
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS"):
        try:
            value = int(os.environ.get(name, ""))
        except ValueError:
            continue
        if value > 0:
            blas = value
            break
    return max(1, cpus // blas)


def blocks(fn, rows, size: int) -> None:
    """fn(block) for consecutive blocks of max(1, size // W) rows, W = workers().

    So at most size rows are in flight in total.  The calling thread and up
    to W - 1 threads take the next block in order; with W = 1 or one block
    no thread starts.  Once a block has raised no further block starts, and
    the first exception is raised again after every thread has ended, so no
    thread outlives the call.
    """
    w = workers()
    step = max(1, size // w)
    todo, errors, lock = iter(range(0, len(rows), step)), [], threading.Lock()

    def work():
        while True:
            with lock:
                a = None if errors else next(todo, None)
            if a is None:
                return
            try:
                fn(rows[a : a + step])
            except BaseException as exc:  # raised again below, on the calling thread
                with lock:
                    errors.append(exc)

    started = []
    try:
        for _ in range(min(w, -(-len(rows) // step)) - 1):
            t = threading.Thread(target=work)
            t.start()
            started.append(t)
        work()
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]
