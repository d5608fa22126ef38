"""Recovery: signal generation, measurement, OMP, the experiment harness."""

import os

import numpy as np
import pytest

from cwsense import pool, recovery
from cwsense.designs import spread_code, subspace_to_code
from cwsense.errors import ParameterError
from cwsense.matrices import devore, from_code
from cwsense.recovery import (CSV_HEADER, VALUE_MODELS, RecoveryReport, omp,
                              reports_to_csv, run_experiment)
from recovery_oracle import exact_recovery, gen_sparse, measure, to_dense


def spread_matrix():
    # 15 x 5, pairwise disjoint supports, coherence 0
    return from_code(subspace_to_code(spread_code(2, 4, 2)))


# -- gen_sparse -----------------------------------------------------------------

def test_gen_sparse_is_reproducible():
    a = gen_sparse(50, 5, seed=9)
    b = gen_sparse(50, 5, seed=9)
    assert a.support == b.support
    assert np.array_equal(a.values, b.values)
    c = gen_sparse(50, 5, seed=10)
    assert (a.support, tuple(a.values)) != (c.support, tuple(c.values))


def test_gen_sparse_support_shape():
    sig = gen_sparse(30, 7, seed=0)
    assert len(sig.support) == 7
    assert len(set(sig.support)) == 7
    assert list(sig.support) == sorted(sig.support)
    assert all(0 <= i < 30 for i in sig.support)


def test_gen_sparse_value_models():
    rad = gen_sparse(40, 10, model="rademacher", seed=2)
    assert set(np.abs(rad.values)) == {1.0}
    gau = gen_sparse(40, 10, model="gaussian", seed=2)
    assert np.all(gau.values != 0.0)
    assert not np.array_equal(rad.values, gau.values)


def test_gen_sparse_edge_cases():
    empty = gen_sparse(10, 0, seed=0)
    assert empty.support == () and len(empty.values) == 0
    with pytest.raises(ParameterError):
        gen_sparse(10, 11)
    with pytest.raises(ParameterError):
        gen_sparse(10, 2, model="cauchy")


def test_to_dense_places_values():
    sig = gen_sparse(12, 3, seed=5)
    dense = to_dense(sig)
    assert dense.shape == (12,)
    assert np.count_nonzero(dense) == 3
    for pos, val in zip(sig.support, sig.values):
        assert dense[pos] == val


# -- measure ---------------------------------------------------------------------

def test_measure_matches_dense_product():
    matrix = devore(3, 2)
    sig = gen_sparse(matrix.N, 3, seed=1)
    y = measure(matrix, sig)
    assert np.allclose(y, matrix.to_dense() @ to_dense(sig))


def test_measure_is_linear_in_the_signal():
    matrix = spread_matrix()
    sig = gen_sparse(matrix.N, 2, seed=4)
    doubled = type(sig)(N=sig.N, support=sig.support, values=2 * sig.values)
    assert np.allclose(measure(matrix, doubled), 2 * measure(matrix, sig))


def test_measure_rejects_length_mismatch():
    with pytest.raises(ParameterError):
        measure(devore(3, 2), gen_sparse(5, 1, seed=0))


# -- OMP -------------------------------------------------------------------------

def test_omp_single_column():
    matrix = devore(3, 2)
    truth = gen_sparse(matrix.N, 1, seed=3)
    estimate = omp(matrix, measure(matrix, truth), 1)
    assert exact_recovery(truth, estimate)


def test_omp_disjoint_columns_recover_to_full_width():
    matrix = spread_matrix()
    for k in range(1, 6):
        for trial in range(10):
            truth = gen_sparse(matrix.N, k,
                               seed=np.random.SeedSequence([k, trial]))
            estimate = omp(matrix, measure(matrix, truth), k)
            assert exact_recovery(truth, estimate)


def test_omp_residual_is_orthogonal_to_selection():
    matrix = devore(5, 2)
    truth = gen_sparse(matrix.N, 2, seed=11)
    y = measure(matrix, truth)
    estimate = omp(matrix, y, 2)
    a = matrix.to_dense()
    residual = y - a[:, list(estimate.support)] @ estimate.values
    assert np.max(np.abs(a[:, list(estimate.support)].T @ residual)) < 1e-9


def test_omp_residual_increase_raises(monkeypatch):
    matrix = devore(5, 2)
    y = measure(matrix, gen_sparse(matrix.N, 2, seed=11))

    def overshooting_lstsq(subs, ys):
        coef = np.full(subs.shape[::2], 100.0)
        return coef, np.full(len(subs), subs.shape[2])

    monkeypatch.setattr(recovery, "_lstsq", overshooting_lstsq)
    with pytest.raises(RuntimeError, match="residual norm increased"):
        omp(matrix, y, 2)


def test_stacked_lstsq_matches_numpy_bit_for_bit():
    """The engine's stacked solve returns what np.linalg.lstsq returns for
    each item, coefficients and rank, on full-rank and rank-deficient
    {0, +1, -1} selections in either memory order."""
    rng = np.random.default_rng(4)
    for m, t in ((9, 1), (9, 4), (25, 6), (49, 6)):
        subs = rng.integers(-1, 2, size=(30, m, t)).astype(np.float64)
        subs[::3, :, -1] = subs[::3, :, 0]           # a repeated column
        subs[1::5, :, 0] = 0.0                        # a zero column
        ys = rng.standard_normal((30, m))
        ys[::4] = np.matmul(subs[::4], rng.integers(-1, 2, (8, t, 1)))[..., 0]
        for stack in (subs, subs.transpose(0, 2, 1).copy().transpose(0, 2, 1)):
            coef, rank = recovery._lstsq(stack, ys)
            for b in range(len(subs)):
                want, _, want_rank, _ = np.linalg.lstsq(stack[b], ys[b],
                                                        rcond=None)
                assert coef[b].tobytes() == want.tobytes()
                assert int(rank[b]) == int(want_rank)
        assert (rank < t).any()


def test_omp_parameter_errors():
    matrix = devore(3, 2)
    y = np.zeros(matrix.n)
    with pytest.raises(ParameterError):
        omp(matrix, y, 0)
    with pytest.raises(ParameterError):
        omp(matrix, y, matrix.n + 1)
    with pytest.raises(ParameterError):
        omp(matrix, np.zeros(3), 1)


def test_exact_recovery_criteria():
    truth = gen_sparse(20, 3, seed=6)
    same = type(truth)(N=20, support=truth.support,
                       values=truth.values + 1e-12)
    assert exact_recovery(truth, same)
    off_value = type(truth)(N=20, support=truth.support,
                            values=truth.values + 1e-6)
    assert not exact_recovery(truth, off_value)
    other = gen_sparse(20, 3, seed=7)
    assert truth.support != other.support  # seed 7 draws a different support
    assert not exact_recovery(truth, other)


# -- experiment harness ------------------------------------------------------------

def test_run_experiment_is_deterministic():
    matrix = spread_matrix()
    a = run_experiment(matrix, [1, 2], trials=20, seed=5)
    b = run_experiment(matrix, [1, 2], trials=20, seed=5)
    for ra, rb in zip(a, b):
        assert (ra.k, ra.trials, ra.successes) == (rb.k, rb.trials, rb.successes)
        assert ra.max_support_err == rb.max_support_err
        assert ra.max_value_err == rb.max_value_err
        assert ra.max_residual == rb.max_residual  # everything but seconds


def test_run_experiment_per_trial_streams_are_stable():
    # Adding more trials must not disturb the earlier ones.
    matrix = spread_matrix()
    short = run_experiment(matrix, [2], trials=5, seed=1)[0]
    long = run_experiment(matrix, [2], trials=10, seed=1)[0]
    assert long.successes >= short.successes


def test_run_experiment_skips_k_zero():
    matrix = spread_matrix()
    reports = run_experiment(matrix, [0, 1], trials=5, seed=0)
    assert [r.k for r in reports] == [1]


def test_run_experiment_rejections():
    matrix = spread_matrix()
    with pytest.raises(ParameterError):
        run_experiment(matrix, [6], trials=5, seed=0)   # k > min(n, N) = 5
    with pytest.raises(ParameterError):
        run_experiment(matrix, [-1], trials=5, seed=0)
    with pytest.raises(ParameterError):
        run_experiment(matrix, [1], trials=5, model="cauchy")
    with pytest.raises(ParameterError):
        run_experiment(matrix, [1], trials=0, seed=0)
    with pytest.raises(ParameterError):
        run_experiment(matrix, [1], trials=5, seed=-2)
    # a trial index is one 32-bit word of its stream's entropy
    with pytest.raises(ParameterError, match=r"need 1 <= trials < 2\^32"):
        run_experiment(matrix, [1], trials=2 ** 32, seed=0)


def test_run_experiment_checks_every_k_before_any_trial(monkeypatch):
    def no_trials(*args):
        raise AssertionError("a trial ran before the bad k was refused")

    monkeypatch.setattr(recovery, "_omp_rows", no_trials)
    ks = iter(range(1, 61))     # materialized once, checked up front
    with pytest.raises(ParameterError, match=r"k=6 exceeds min\(n, N\) = 5"):
        run_experiment(spread_matrix(), ks, trials=5, seed=0)


def test_run_experiment_zero_coherence_always_succeeds():
    matrix = spread_matrix()
    reports = run_experiment(matrix, range(1, 6), trials=25, seed=0)
    assert all(r.successes == r.trials for r in reports)
    assert all(r.max_value_err < 1e-9 for r in reports)


# -- the units shared among processes (cwsense.pool) -------------------------

CORES = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1


def test_forked_runs_leave_no_child(monkeypatch):
    """One process per unit up to one per core, each reaped, after a
    normal return and after a residual growth raised in the units; the
    CSV fields match the in-process run."""
    forks, real_fork = [], os.fork

    def counted():
        pid = real_fork()
        forks.append(pid)
        return pid
    matrix = devore(5, 2)
    alone = run_experiment(matrix, [1, 2, 3], trials=30, seed=4)
    monkeypatch.setattr(os, "fork", counted)
    monkeypatch.setattr(pool, "FORK_WORK", 1)
    shared = run_experiment(matrix, [1, 2, 3], trials=30, seed=4)
    assert len(forks) == min(CORES, 3) - 1
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert [(r.k, r.successes, r.max_value_err) for r in shared] == \
        [(r.k, r.successes, r.max_value_err) for r in alone]

    def overshooting(subs, ys):
        return np.full(subs.shape[::2], 100.0), np.full(len(subs),
                                                        subs.shape[2])
    monkeypatch.setattr(recovery, "_lstsq", overshooting)
    with pytest.raises(RuntimeError, match="residual norm increased"):
        run_experiment(matrix, [1, 2, 3], trials=30, seed=4)
    assert len(forks) == 2 * (min(CORES, 3) - 1)
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("model", VALUE_MODELS)
def test_one_blas_thread_gives_the_same_bits(monkeypatch, two_blas_threads,
                                             model):
    """The results with the count left at the caller's equal those on one
    thread, bit for bit, field by field."""
    def fields(reports):
        return [(r.k, r.successes, r.max_support_err, r.max_value_err.hex(),
                 r.max_residual.hex()) for r in reports]
    matrix = from_code(subspace_to_code(spread_code(2, 8, 2)))
    one = fields(run_experiment(matrix, range(1, 6), trials=60, model=model,
                                seed=3))
    monkeypatch.setattr(pool, "_blas_threads", lambda: None)
    assert fields(run_experiment(matrix, range(1, 6), trials=60, model=model,
                                 seed=3)) == one
    assert two_blas_threads() == 2


def test_reports_to_csv_layout():
    report = RecoveryReport(matrix_id="m", k=2, trials=10, successes=9,
                            max_support_err=2, max_value_err=0.5,
                            max_residual=1.25, seconds=0.125)
    text = reports_to_csv([report])
    lines = text.splitlines()
    assert lines[0] == CSV_HEADER
    assert lines[1] == "m,2,10,9,5.000e-01,0.125000"
