"""Independent units of work shared among forked processes, one per
usable core, each on one OpenBLAS thread: share(task, units, work).

share returns task(*unit) for every unit, in unit order.  A unit that
raises an Exception has it in its place, and the rest of its process's
share has None; only a raised exception stops a share.  A child that
exits without its results leaves a RuntimeError at its first unit.

* Sharing.  Units fork only where two cores are usable
  (os.sched_getaffinity) and each process gets FORK_WORK of work, each
  unit's cost in FORK_WORK's units.  They are dealt longest first, each
  to the least loaded process; this one runs the first share, bare
  os.fork children the others, each in unit order.  A child pickles its
  results down a pipe and leaves through os._exit, so no handler, buffer
  or teardown of the parent's runs twice.  Children are always reaped,
  killed first if this process stops early (an interrupt).  They share
  arrays and loaded modules copy-on-write, so a caller imports what its
  units need first.  A profiler sees only its own process's share.
* Why fork.  Threads gain nothing on recovery's OMP trials, whose many
  small numpy calls hold the GIL: a ThreadPoolExecutor over recover's
  units took 0.556 s (omp) and 0.261 s (spread), against 0.507 and
  0.266 s in one process and 0.378 and 0.160 s forked (in-process
  run_experiment, medians of 7, 2-core box).  ProcessPoolExecutor's
  import and queue threads cost 1.1 MB of the omp bench's peak RSS.
* Why FORK_WORK.  A fork, its copy-on-write faults, its pickled reply
  and its reap took 3.8 ms, and recovery's trials on one BLAS thread
  run at 0.5-2.2 ns per unit of work (size * k * n * N), about 0.8
  typical: 5e6 units are about 4 ms (2-core box, Python 3.11, numpy
  2.4.6).  It leaves out that after a fork each later step of the parent
  runs about 1 ms slower (copy-on-write pages, OpenBLAS's pool restart).
* The fork warning.  Python 3.12 and later warn (DeprecationWarning)
  when a process with threads alive forks, as OpenBLAS's pool is; share
  silences it: a child runs only its units, which must import and log
  nothing, and OpenBLAS stops its pool before a fork (pthread_atfork).
* One BLAS thread.  Set before any fork, so the children inherit it;
  the caller's count comes back however the units end.  Small gemv and
  gelsd calls gain nothing from more threads, which only compete with
  the other processes: forked, spread(8,4,2)'s 200 trials took 140 ms
  (median of 15) at one thread per core, OpenBLAS's default, and 111 ms
  on one.  Where numpy links another BLAS the count is left alone.
"""

from __future__ import annotations

import ctypes
import functools
import os
import pickle
import warnings

from numpy._core import _multiarray_umath

FORK_WORK = 5_000_000


def share(task, units: list, work: list[int]) -> list:
    """task(*unit) for each unit, in unit order, on one BLAS thread per
    process; the module docstring gives the contract."""
    blas = _blas_threads()
    if blas:
        caller = blas[0]()
        blas[1](1)
    try:
        cores = (len(os.sched_getaffinity(0))
                 if hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
                 else 1)
        procs = min(cores, len(units), sum(work) // FORK_WORK)
        return (_fork(task, units, work, procs) if procs > 1
                else _run(task, units))
    finally:
        if blas:
            blas[1](caller)


@functools.cache
def _blas_threads():
    """(get, set) of the thread count of numpy's bundled OpenBLAS, or None
    where its symbols are absent (another BLAS, Windows).  dlsym on the
    handle of numpy's core extension searches its dependencies too."""
    try:
        lib = ctypes.CDLL(_multiarray_umath.__file__)
        get = lib.scipy_openblas_get_num_threads64_
        put = lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    return get, put


def _run(task, units: list) -> list:
    """task(*unit) for the units in order, up to the first that raises an
    Exception, which takes its result's place; None after it."""
    results = [None] * len(units)
    for i, unit in enumerate(units):
        try:
            results[i] = task(*unit)
        except Exception as exc:    # any: the caller decides what it means
            results[i] = exc
            break
    return results


def _fork(task, units: list, work: list[int], procs: int) -> list:
    """The units shared among procs processes, this one and procs - 1
    os.fork children, dealt longest first to the least loaded."""
    import signal   # loaded here, where a child may need killing
    loads, shares = [0] * procs, [[] for _ in range(procs)]
    for i in sorted(range(len(units)), key=lambda i: -work[i]):
        least = loads.index(min(loads))
        loads[least] += work[i]
        shares[least].append(i)
    shares = [sorted(share) for share in shares]
    results = [None] * len(units)
    children = []   # (pid, read end of its pipe, its share), unreaped
    try:
        for share in shares[1:]:
            read, write = os.pipe()
            try:
                with warnings.catch_warnings():
                    warnings.filterwarnings(
                        "ignore", "This process .* is multi-threaded",
                        DeprecationWarning)
                    pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                _child(write, task, [units[i] for i in share])
            os.close(write)
            children.append((pid, read, share))
        for i, result in zip(shares[0], _run(task, [units[i]
                                                      for i in shares[0]])):
            results[i] = result
        while children:
            pid, read, share = children[0]
            data = b"".join(iter(lambda: os.read(read, 1 << 16), b""))
            children.pop(0)
            os.close(read)
            status = os.waitpid(pid, 0)[1]
            if status or not data:
                results[share[0]] = RuntimeError(
                    f"recovery worker {pid} exited with status "
                    f"{os.waitstatus_to_exitcode(status)} before sending "
                    "its results")
                continue
            for i, result in zip(share, pickle.loads(data)):
                results[i] = result
    finally:
        for pid, read, _ in children:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            os.close(read)
    return results


def _child(fd: int, task, units: list) -> None:
    """A forked child's whole life: _run's results, pickled, down fd, then
    os._exit; status 0 only once every byte is written."""
    status = 1
    try:
        data = memoryview(pickle.dumps(_run(task, units)))
        while data:
            data = data[os.write(fd, data):]
        status = 0
    finally:
        os._exit(status)
