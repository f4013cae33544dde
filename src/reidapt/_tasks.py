"""Independent numpy tasks on the cores that BLAS leaves idle.

Neighbor-index row blocks and chunks of tracklet means are independent: each
task writes only its own rows, so the outputs do not depend on how many
threads run them.  numpy releases the GIL inside its large loops and BLAS
calls, so threads overlap there.  A BLAS pool that is not pinned spins on
every core between calls, so the thread count is derived from the pinning
and is 1 without it; there is no option and no pool that outlives a call.
The same idle core serves training: with W >= 2, adapt._batch_chunks forks
one short-lived process that draws a round's batches beside its steps.
"""

from __future__ import annotations

import os
import threading


def workers() -> int:
    """W = max(1, cpus // blas), the threads run() is given.

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


def run(fn, items, w: int) -> list:
    """[fn(item) for item in items] on the calling thread plus up to w - 1 threads.

    Free threads take the next item in order; each result lands in its
    item's slot.  With w <= 1 or one item no thread starts.  Once a task has
    raised no further item starts, and the first exception is raised again
    after every thread has ended.
    """
    if w <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    out, errors = [None] * len(items), []
    todo, lock = iter(range(len(items))), threading.Lock()

    def work():
        while True:
            with lock:
                i = None if errors else next(todo, None)
            if i is None:
                return
            try:
                out[i] = fn(items[i])
            except BaseException as exc:  # raised again below, on the calling thread
                with lock:
                    errors.append(exc)

    started = []
    try:
        for _ in range(min(w, len(items)) - 1):
            t = threading.Thread(target=work)
            t.start()
            started.append(t)
        work()
    finally:
        for t in started:
            t.join()
    if errors:
        raise errors[0]
    return out
