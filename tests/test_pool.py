"""The process pool: cwsense.pool.share over trivial tasks."""

import os
import time
import warnings

import pytest

from cwsense import pool

needs_fork = pytest.mark.skipif(not hasattr(os, "fork"),
                                reason="the pool forks only where os.fork is")


@pytest.fixture
def two_cores(monkeypatch):
    """Two usable cores, whatever the machine has, and every unit's work
    enough for a process of its own."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(pool, "FORK_WORK", 1)


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class Interrupt(BaseException):
    pass


def where(i):
    return i, os.getpid()


def fails_at(bad, i):
    if i in bad:
        raise ValueError(f"unit {i}")
    return i


def dies_in_child(parent, i):
    if os.getpid() != parent:
        os._exit(1)
    return i


def interrupted(parent, i):
    """The parent's share stops at once; a child's would take a minute."""
    if os.getpid() == parent:
        raise Interrupt
    time.sleep(60)
    return i


def threads(i):
    return pool._blas_threads()[0]()


@needs_fork
def test_results_come_back_in_unit_order(two_cores):
    """Under uneven work the units are dealt longest first to the least
    loaded process, this one taking the first share, and come back in
    unit order."""
    work = [1, 9, 2, 8, 3, 7, 4]
    results = pool.share(where, [(i,) for i in range(7)], work)
    assert [i for i, _ in results] == list(range(7))
    here = {i for i, pid in results if pid == os.getpid()}
    assert here == {0, 1, 4, 6}
    assert len({pid for _, pid in results}) == 2
    assert_no_child_left()


@needs_fork
@pytest.mark.parametrize("fork_work", [1, 2 ** 63])
def test_a_failed_unit_leaves_its_exception_then_none(monkeypatch, two_cores,
                                                       fork_work):
    """Forked, this process runs units 0, 2 and 4 and a child 1, 3 and 5:
    each share stops at its failure.  In one process the first stops
    all."""
    monkeypatch.setattr(pool, "FORK_WORK", fork_work)
    results = pool.share(fails_at, [({2, 3}, i) for i in range(6)], [1] * 6)
    failed = [2, 3] if fork_work == 1 else [2]
    assert [r.args for r in results if isinstance(r, ValueError)] == [
        (f"unit {i}",) for i in failed]
    assert results[:2] == [0, 1]
    assert [i for i, r in enumerate(results) if r is None] == (
        [4, 5] if fork_work == 1 else [3, 4, 5])
    assert_no_child_left()


@needs_fork
def test_a_child_that_dies_without_results_is_an_error(two_cores):
    results = pool.share(dies_in_child,
                         [(os.getpid(), i) for i in range(4)], [1] * 4)
    assert results[0::2] == [0, 2]
    assert isinstance(results[1], RuntimeError)
    assert results[3] is None
    with pytest.raises(RuntimeError, match=r"recovery worker \d+ exited with "
                       "status 1 before sending its results"):
        raise results[1]
    assert_no_child_left()


@needs_fork
def test_an_interrupted_parent_kills_its_children(two_cores):
    """The parent's share stops on an interrupt while the child would
    run for a minute: it is killed and reaped at once."""
    start = time.perf_counter()
    with pytest.raises(Interrupt):
        pool.share(interrupted, [(os.getpid(), i) for i in range(3)], [1] * 3)
    assert time.perf_counter() - start < 10
    assert_no_child_left()


@needs_fork
def test_the_fork_warning_is_silenced(monkeypatch, two_cores):
    """The DeprecationWarning Python 3.12 gives a parent with threads
    alive when it forks does not escape share."""
    real_fork = os.fork

    def warning_fork():
        pid = real_fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is "
                          "multi-threaded, use of fork() may lead to "
                          "deadlocks in the child.", DeprecationWarning)
        return pid
    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert pool.share(fails_at, [((), i) for i in range(3)],
                          [1] * 3) == [0, 1, 2]
    assert caught == []
    assert_no_child_left()


@needs_fork
def test_units_run_on_one_blas_thread(monkeypatch, two_cores,
                                      two_blas_threads):
    """In this process and in forked children alike; the caller's count
    is back afterwards."""
    for fork_work in (1, 2 ** 63):
        monkeypatch.setattr(pool, "FORK_WORK", fork_work)
        assert pool.share(threads, [(i,) for i in range(3)],
                          [1] * 3) == [1] * 3
        assert two_blas_threads() == 2


@needs_fork
def test_the_callers_blas_threads_come_back_after_a_failure(
        monkeypatch, two_cores, two_blas_threads):
    """After a unit that raises, in one process and forked, after a
    child that exits without its results and after an interrupt."""
    for fork_work in (2 ** 63, 1):
        monkeypatch.setattr(pool, "FORK_WORK", fork_work)
        assert isinstance(pool.share(fails_at, [({0}, 0)], [1])[0],
                          ValueError)
        assert two_blas_threads() == 2
    results = pool.share(dies_in_child, [(os.getpid(), i) for i in range(2)],
                         [1] * 2)
    assert isinstance(results[1], RuntimeError)
    assert two_blas_threads() == 2
    with pytest.raises(Interrupt):
        pool.share(interrupted, [(os.getpid(), i) for i in range(2)], [1] * 2)
    assert two_blas_threads() == 2
    assert_no_child_left()


@pytest.mark.parametrize("why", ["one core", "little work", "no fork"])
def test_one_process_when_forking_cannot_pay(monkeypatch, why):
    """One usable core, less than FORK_WORK per process, or no os.fork:
    every unit runs here, in order, on one BLAS thread where the count
    can be set."""
    def no_fork():
        raise AssertionError("forked")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1},
                        raising=False)
    monkeypatch.setattr(os, "fork", no_fork, raising=False)
    work = [1] * 4
    if why == "one core":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(pool, "FORK_WORK", 1)
    elif why == "little work":
        work = [(2 * pool.FORK_WORK - 1) // 4] * 4
    else:
        monkeypatch.delattr(os, "fork")
        monkeypatch.setattr(pool, "FORK_WORK", 1)
    assert pool.share(where, [(i,) for i in range(4)], work) == [
        (i, os.getpid()) for i in range(4)]
    if pool._blas_threads() is not None:
        assert pool.share(threads, [(i,) for i in range(4)], work) == [1] * 4
