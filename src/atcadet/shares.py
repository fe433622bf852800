"""Independent jobs dealt out over the CPUs this process may run on."""

import os


def run_shares(fn, jobs, *args) -> list:
    """The results of ``fn`` over ``jobs``, in job order.

    The jobs are dealt out in interleaved shares, one per CPU in this
    process's affinity mask and at most one per job: share k of n is
    ``jobs[k::n]``, and ``fn(share, *args)`` returns one result per job of
    its share. This process runs share 0 and forked workers the others;
    with one share there is no pool. A worker's exception is raised here,
    once every share has stopped; a worker that dies raises
    BrokenProcessPool.
    """
    n = min(len(os.sched_getaffinity(0)), len(jobs))
    if n <= 1:
        return fn(jobs, *args)
    # imported here to keep them out of every CLI start-up (about 30 ms)
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    results = [None] * len(jobs)
    # fork: spawn and forkserver would import numpy and scipy again in
    # every worker
    fork = multiprocessing.get_context("fork")
    with ProcessPoolExecutor(n - 1, mp_context=fork) as pool:
        pending = [pool.submit(fn, jobs[k::n], *args) for k in range(1, n)]
        results[0::n] = fn(jobs[0::n], *args)
        for k, future in enumerate(pending, 1):
            results[k::n] = future.result()
    return results
