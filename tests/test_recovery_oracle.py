"""The batched OMP engine against the per-trial oracle, bit for bit.

recovery_oracle keeps the one-trial-at-a-time bodies of gen_sparse, omp
and run_experiment; the engine makes recovery._draw's stream calls per
trial and finishes the draw per block.  Every RecoveryReport field but
seconds, every OMP support and value, and the warning lines in their
order must agree exactly, whatever the block size and the seed.
"""

import hashlib
import logging
import tracemalloc

import numpy as np
import pytest

import recovery_oracle as oracle
from cwsense import recovery
from cwsense.codes import greedy_binary
from cwsense.designs import (make_sts, spread_code, steiner_to_code,
                             subspace_to_code)
from cwsense.matrices import (MeasurementMatrix, devore, dumps_matrix,
                              from_code, loads_matrix)


def repeated_columns():
    """devore(3,2) with every column twice, through the loader.  With
    tol = 0 OMP iterates on rounding-level residuals, picks repeated or
    dependent columns and takes the rank-deficient path."""
    base = devore(3, 2)
    text = dumps_matrix(MeasurementMatrix(
        base.n, base.w, np.vstack([base.positions] * 2),
        np.vstack([base.signs] * 2), provenance="repeated devore p=3"))
    return loads_matrix(text)


MATRICES = {
    "devore73": lambda: devore(7, 3),
    "signed-greedy": lambda: from_code(greedy_binary(12, 4, 3), seed=7),
    "sts21": lambda: from_code(steiner_to_code(make_sts(21))),
    "spread": lambda: from_code(subspace_to_code(spread_code(2, 6, 2))),
    "repeated": repeated_columns,
}
# (tol, k_max, trials); the repeated-columns matrix runs to k = n on
# rounding-level residuals, where any change in a BLAS call's order of
# operations shows in the selected supports
SETTINGS = {"repeated": (0.0, 9, 60)}
DEFAULT = (1e-12, 6, 25)


def fields(reports):
    """Every report field except seconds, with floats as their bits."""
    return [(r.matrix_id, r.k, r.trials, r.successes, r.max_support_err,
             float(r.max_value_err).hex(), float(r.max_residual).hex())
            for r in reports]


def warnings(caplog):
    lines = [(r.levelname, r.getMessage()) for r in caplog.records]
    caplog.clear()
    return lines


def both(caplog, matrix, ks, trials, model, tol=1e-12, seed=3):
    """(fields, warning lines) of the oracle and of the engine."""
    with caplog.at_level(logging.INFO, logger="cwsense"):
        want = fields(oracle.run_experiment(matrix, ks, trials, model=model,
                                            seed=seed, tol=tol))
        want_log = warnings(caplog)
        got = fields(recovery.run_experiment(matrix, ks, trials, model=model,
                                             seed=seed, tol=tol))
        got_log = warnings(caplog)
    return (want, want_log), (got, got_log)


@pytest.mark.parametrize("model", recovery.VALUE_MODELS)
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_run_experiment_matches_oracle(caplog, name, model):
    matrix = MATRICES[name]()
    tol, k_max, trials = SETTINGS.get(name, DEFAULT)
    want, got = both(caplog, matrix, range(0, k_max + 1), trials, model, tol)
    assert got == want
    if name == "repeated":
        assert sum(level == "WARNING" for level, _ in want[1]) > 0


@pytest.mark.parametrize("model", recovery.VALUE_MODELS)
@pytest.mark.parametrize("name", sorted(MATRICES))
def test_omp_matches_oracle(caplog, name, model):
    matrix = MATRICES[name]()
    tol, k_max, trials = SETTINGS.get(name, DEFAULT)
    for k in range(1, k_max + 1):
        for trial in range(trials // 4):
            stream = [3, k, trial]
            truth = oracle.gen_sparse(matrix.N, k, model=model,
                                      seed=np.random.SeedSequence(stream))
            support, values = recovery._draw(
                np.random.default_rng(np.random.SeedSequence(stream)),
                matrix.N, k, model)
            assert tuple(support.tolist()) == truth.support
            assert values.tobytes() == truth.values.tobytes()
            y = oracle.measure(matrix, truth)
            with caplog.at_level(logging.WARNING, logger="cwsense"):
                want = oracle.omp(matrix, y, k, tol=tol)
                want_log = warnings(caplog)
                got = recovery.omp(matrix, y, k, tol=tol)
                got_log = warnings(caplog)
            assert got.support == want.support
            assert got.values.tobytes() == want.values.tobytes()
            assert got_log == want_log


def test_block_edges_match_oracle(caplog, monkeypatch):
    matrix = devore(7, 3)
    for k in (1, 6):
        block = recovery.BLOCK_BYTES // ((matrix.N + k * matrix.n) * 8)
        for trials in (block - 1, block, block + 1, 2 * block + 1):
            want, got = both(caplog, matrix, [k], trials, "rademacher")
            assert got == want
    # one-trial blocks, then blocks of 3 over 10 trials (3, 3, 3, 1)
    for trials_per_block in (1, 3):
        per_trial = (matrix.N + 4 * matrix.n) * 8
        monkeypatch.setattr(recovery, "BLOCK_BYTES",
                            trials_per_block * per_trial + 7)
        for model in recovery.VALUE_MODELS:
            want, got = both(caplog, matrix, [4], 10, model)
            assert got == want
    matrix = repeated_columns()
    monkeypatch.setattr(recovery, "BLOCK_BYTES",
                        3 * (matrix.N + 5 * matrix.n) * 8)
    want, got = both(caplog, matrix, [5], 10, "gaussian", tol=0.0)
    assert got == want and want[1]


# one, two and three 32-bit words of SeedSequence entropy, and a numpy
# integer, which SeedSequence also takes
@pytest.mark.parametrize("model", recovery.VALUE_MODELS)
@pytest.mark.parametrize("seed", [0, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 1,
                                  2 ** 70, np.uint64(2 ** 64 - 1)])
def test_multiword_seeds_match_oracle(caplog, monkeypatch, seed, model):
    matrix = devore(7, 3)
    # blocks of 7 trials at k = 1 down to 5 at k = 4
    monkeypatch.setattr(recovery, "BLOCK_BYTES", 7 * (matrix.N + matrix.n) * 8)
    want, got = both(caplog, matrix, range(1, 5), 20, model, seed=seed)
    assert got == want


def test_gaussian_exact_zero_is_redrawn_like_the_oracle(caplog, monkeypatch):
    """An exact 0.0 forced into the first Gaussian draw of trial 5 at
    k = 4: the engine must measure the values the oracle's per-trial
    resample gives, and report what the oracle reports."""
    matrix = devore(7, 3)
    target = np.random.SeedSequence([3, 4, 5]).pool
    hits = []

    class Zeroing(np.random.Generator):
        fresh = True

        def standard_normal(self, size=None, dtype=np.float64, out=None):
            x = super().standard_normal(size, dtype, out)
            if self.fresh and np.array_equal(self.bit_generator.seed_seq.pool,
                                             target):
                x[1] = 0.0
                hits.append(x.copy())
            self.fresh = False
            return x

    def zeroing_rng(seed):
        return Zeroing(np.random.PCG64(seed))

    measured = []
    real_measure = recovery._measure_rows

    def spy(at, supports, values):
        measured.append(values.copy())
        return real_measure(at, supports, values)

    monkeypatch.setattr(np.random, "Generator", Zeroing)
    monkeypatch.setattr(np.random, "default_rng", zeroing_rng)
    monkeypatch.setattr(recovery, "_measure_rows", spy)
    truth = oracle.gen_sparse(matrix.N, 4, model="gaussian",
                              seed=np.random.SeedSequence([3, 4, 5]))
    # the zero is resampled, the other values are kept
    assert len(hits) == 1 and 0.0 not in truth.values
    assert truth.values[[0, 2, 3]].tobytes() == hits[0][[0, 2, 3]].tobytes()
    want, got = both(caplog, matrix, [4], 12, "gaussian")
    assert len(hits) >= 3 and got == want
    # the block's first call measures the signals
    assert measured[0][5].tobytes() == truth.values.tobytes()


def test_residual_growth_stops_at_the_same_trial(caplog, monkeypatch):
    """A refit that overshoots in some trials: the engine raises after
    exactly the warnings the per-trial loop logs before its first
    failing trial, though later rows of the block ran on."""
    def marked(y):
        return int(np.abs(y).sum()) % 3 == 0

    real_lstsq, real_stacked = np.linalg.lstsq, recovery._lstsq

    def overshooting_lstsq(sub, y, rcond=None):
        coef, res, rank, sv = real_lstsq(sub, y, rcond=rcond)
        if sub.shape[1] == 6 and marked(y):
            coef = np.full_like(coef, 100.0)
        return coef, res, rank, sv

    def overshooting_stacked(subs, ys):
        coef, rank = real_stacked(subs, ys)
        if subs.shape[2] == 6:
            coef[[marked(y) for y in ys]] = 100.0
        return coef, rank

    monkeypatch.setattr(np.linalg, "lstsq", overshooting_lstsq)
    monkeypatch.setattr(recovery, "_lstsq", overshooting_stacked)
    matrix = repeated_columns()
    logs = []
    with caplog.at_level(logging.WARNING, logger="cwsense"):
        for run in (oracle.run_experiment, recovery.run_experiment):
            with pytest.raises(RuntimeError, match="residual norm increased"):
                run(matrix, [7], 40, model="rademacher", seed=3, tol=0.0)
            logs.append(warnings(caplog))
    assert logs[0] == logs[1] and logs[0]


# sha256 of reports_to_csv with the seconds column cut, devore(7,3),
# k = 1..6, 200 trials, seed 0, as the per-trial loop printed it.
PINNED = {
    "rademacher":
        "e9967d108c952632061e7dd941d3faebbf4fd387357a8b26c834a42259ab2897",
    "gaussian":
        "e6dd323945a5e50e367db8efeab23a75a46e818be513612e04f57be8805380ab",
}


@pytest.mark.parametrize("model", recovery.VALUE_MODELS)
def test_recover_csv_pinned(model):
    reports = recovery.run_experiment(devore(7, 3), range(1, 7), 200,
                                      model=model, seed=0)
    csv = recovery.reports_to_csv(reports)
    kept = "\n".join(line.rsplit(",", 1)[0] for line in csv.splitlines())
    assert hashlib.sha256(kept.encode()).hexdigest() == PINNED[model]


def test_run_experiment_memory_is_bounded_by_blocks():
    """devore(13,3): N = 2197, so a block holds a few trials.  The engine
    keeps a handful of (block, N) arrays alive at once, each within
    BLOCK_BYTES; the dense matrix is cached before tracing starts."""
    matrix = devore(13, 3)
    recovery.run_experiment(matrix, [1], 2)      # dense copy, lazy set-up
    tracemalloc.start()
    try:
        recovery.run_experiment(matrix, [1, 2, 6], 40, model="gaussian")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * recovery.BLOCK_BYTES
