"""The batched OMP engine against the per-trial oracle, bit for bit.

recovery_oracle keeps the one-trial-at-a-time bodies of gen_sparse, omp
and run_experiment; the engine computes the streams of a chunk of
trials as arrays and falls back to recovery._draw on a Generator per
trial where the module docstring says.  Every RecoveryReport field but
seconds, every OMP support and value, and the warning lines in their
order must agree exactly, whatever the block size and the seed; the
chunk draw must agree with _draw row by row.
"""

import functools
import hashlib
import logging
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import recovery_oracle as oracle
from cwsense import pool, recovery
from cwsense.codes import greedy_binary
from cwsense.designs import make_sts, spread_code
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
    "sts21": lambda: from_code(make_sts(21)),
    "spread": lambda: from_code(spread_code(2, 6, 2).binary),
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


def outcome(run, *args, **kwargs):
    """fields of run's reports, or the message of the residual-growth
    RuntimeError it raised."""
    try:
        return fields(run(*args, **kwargs))
    except RuntimeError as exc:
        return f"raised: {exc}"


def both(caplog, matrix, ks, trials, model, tol=1e-12, seed=3):
    """(fields, warning lines) of the oracle and of the engine, which
    stops OMP at recovery.TOL, set to tol for the call.  The engine runs
    twice, in this process (FORK_WORK past any work) and then shared
    among forked processes wherever more than one core is usable
    (FORK_WORK 1: one process per unit, up to one per core); the two
    runs must agree, and the first is returned."""
    args = (matrix, ks, trials)
    kwargs = dict(model=model, seed=seed)
    with caplog.at_level(logging.INFO, logger="cwsense"):
        want = outcome(oracle.run_experiment, *args, tol=tol, **kwargs)
        want_log = warnings(caplog)
        runs = []
        for fork_work in (2 ** 63, 1):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(pool, "FORK_WORK", fork_work)
                patch.setattr(recovery, "TOL", tol)
                runs.append((outcome(recovery.run_experiment, *args,
                                     **kwargs), warnings(caplog)))
    assert runs[1] == runs[0]
    return (want, want_log), runs[0]


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
def test_omp_matches_oracle(caplog, monkeypatch, name, model):
    matrix = MATRICES[name]()
    tol, k_max, trials = SETTINGS.get(name, DEFAULT)
    monkeypatch.setattr(recovery, "TOL", tol)
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
                got = recovery.omp(matrix, y, k)
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


def entropy_rows(seed, k, trials):
    """The uint32 rows [seed words..., k, trial] run_experiment draws."""
    words = [(seed >> s) & 0xFFFFFFFF
             for s in range(0, max(seed.bit_length(), 1), 32)]
    return np.array([[*words, k, t] for t in trials], dtype=np.uint32)


def assert_chunk_draw_matches(rows, N, k, model):
    """The chunk draw of rows against one Generator per row, and so is
    every row the streams drew themselves: the chunk's self-check would
    hide a wrong stream behind its per-trial fallback, so the check
    must not fire."""
    fired = []
    handler = logging.Handler(logging.WARNING)
    handler.emit = fired.append
    recovery.log.addHandler(handler)
    try:
        checks = [(rows, *recovery._draw_chunk(rows, N, k, model))]
    finally:
        recovery.log.removeHandler(handler)
    assert not fired
    if N <= 10000 or k <= N // 50:
        supports, values, exact = recovery._stream_draw(rows, N, k, model)
        checks.append((rows[exact], supports[exact], values[exact]))
    for drawn, supports, values in checks:
        assert supports.shape == values.shape == (len(drawn), k)
        for row, support, value in zip(drawn, supports, values):
            want = recovery._draw(np.random.Generator(np.random.PCG64(
                np.random.SeedSequence(row))), N, k, model)
            assert support.tolist() == want[0].tolist(), row
            assert value.tobytes() == want[1].tobytes(), row


# one, two and three 32-bit words of seed
DRAW_SEEDS = [0, 2 ** 32 - 1, 2 ** 40 + 3, 2 ** 64 + 5]


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(0, 2 ** 32 - 1), min_size=1, max_size=7),
       st.integers(1, 4))
def test_stream_seeding_matches_pcg64(row, count):
    rows = np.array([row] * count, dtype=np.uint32)
    rows[:, -1] += np.arange(count, dtype=np.uint32)
    state, inc = recovery._pcg64_seed(rows)
    for i, entropy in enumerate(rows):
        want = np.random.PCG64(np.random.SeedSequence(entropy)).state
        assert (int(state[0][i]) << 64 | int(state[1][i])
                == want["state"]["state"])
        assert int(inc[0][i]) << 64 | int(inc[1][i]) == want["state"]["inc"]


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(DRAW_SEEDS), st.sampled_from(recovery.VALUE_MODELS),
       st.data())
def test_chunk_draw_matches_generator(seed, model, data):
    N = data.draw(st.integers(1, 600), label="N")
    k = data.draw(st.one_of(st.just(N), st.integers(1, min(N, 12))),
                  label="k")
    trials = data.draw(st.lists(
        st.one_of(st.integers(0, 200), st.integers(2 ** 32 - 40, 2 ** 32 - 1)),
        min_size=1, max_size=12), label="trials")
    assert_chunk_draw_matches(entropy_rows(seed, k, trials), N, k, model)


@pytest.mark.parametrize("model", recovery.VALUE_MODELS)
@pytest.mark.parametrize("N,k", [(1, 1), (6, 6), (10001, 200), (10001, 201)])
def test_chunk_draw_edges_match_generator(N, k, model):
    """N = 1 and N = k skip the draw on [0, 0]; (10001, 200) is Floyd's
    branch of choice, (10001, 201) the tail shuffle, drawn per trial."""
    rows = entropy_rows(2 ** 40 + 3, k, [0, 1, 2 ** 32 - 2, 2 ** 32 - 1])
    assert_chunk_draw_matches(rows, N, k, model)


@pytest.mark.parametrize("model", recovery.VALUE_MODELS)
def test_chunk_draw_lemire_rejections_match_generator(model):
    """On [0, 3 * 2^30) a quarter of the words reject: the rows that
    drew one fall back to a Generator, and every row still matches."""
    N = 3 * 2 ** 30
    rows = entropy_rows(1, 2, range(300))
    assert (~recovery._stream_draw(rows, N, 2, model)[2]).sum() == 118
    assert_chunk_draw_matches(rows, N, 2, model)


def test_chunk_draw_self_check_falls_back(caplog, monkeypatch):
    """A Generator whose draws differ from the computed streams (a
    perturbed _draw stands in for a changed numpy): the chunk logs one
    warning and takes every row from the Generator."""
    real_draw = recovery._draw

    def perturbed(rng, N, k, model):
        support, values = real_draw(rng, N, k, model)
        return support, -values

    rows = entropy_rows(3, 4, range(10))
    with caplog.at_level(logging.WARNING, logger="cwsense"):
        recovery._draw_chunk(rows, 343, 4, "gaussian")
        assert warnings(caplog) == []
        monkeypatch.setattr(recovery, "_draw", perturbed)
        supports, values = recovery._draw_chunk(rows, 343, 4, "gaussian")
        lines = warnings(caplog)
    assert len(lines) == 1 and lines[0][0] == "WARNING"
    for row, support, value in zip(rows, supports, values):
        want = perturbed(np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(row))), 343, 4, "gaussian")
        assert support.tolist() == want[0].tolist()
        assert value.tobytes() == want[1].tobytes()


def test_gaussian_exact_zero_is_redrawn_like_the_oracle(caplog, monkeypatch):
    """An exact 0.0 forced into the first Gaussian draw of trial 5 at
    k = 4: the engine must measure the values the oracle's per-trial
    resample gives, and report what the oracle reports.  The oracle and
    the engine's per-trial fallback draw from Generators; the engine's
    chunk draw computes the streams, so the zero goes into its values."""
    matrix = devore(7, 3)
    row = [3, 4, 5]
    target = np.random.SeedSequence(row).pool
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

    real_stream_draw = recovery._stream_draw

    def zeroing_stream_draw(rows, N, k, model):
        supports, values, exact = real_stream_draw(rows, N, k, model)
        for i in np.flatnonzero((rows == row).all(axis=1)):
            values[i, 1] = 0.0
            hits.append(values[i].copy())
        return supports, values, exact

    measured = []
    real_measure = recovery._measure_rows

    def spy(at, supports, values):
        measured.append(values.copy())
        return real_measure(at, supports, values)

    monkeypatch.setattr(np.random, "Generator", Zeroing)
    monkeypatch.setattr(np.random, "default_rng", zeroing_rng)
    monkeypatch.setattr(recovery, "_stream_draw", zeroing_stream_draw)
    monkeypatch.setattr(recovery, "_measure_rows", spy)
    truth = oracle.gen_sparse(matrix.N, 4, model="gaussian",
                              seed=np.random.SeedSequence(row))
    # the zero is resampled, the other values are kept
    assert len(hits) == 1 and 0.0 not in truth.values
    assert truth.values[[0, 2, 3]].tobytes() == hits[0][[0, 2, 3]].tobytes()
    want, got = both(caplog, matrix, [4], 12, "gaussian")
    # the oracle's draw, the chunk draw's and the engine's fallback
    assert len(hits) >= 3 and got == want
    assert hits[2].tobytes() == hits[0].tobytes()
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
    monkeypatch.setattr(recovery, "TOL", 0.0)
    matrix = repeated_columns()
    logs = []
    with caplog.at_level(logging.WARNING, logger="cwsense"):
        for run in (functools.partial(oracle.run_experiment, tol=0.0),
                    recovery.run_experiment):
            with pytest.raises(RuntimeError, match="residual norm increased"):
                run(matrix, [7], 40, model="rademacher", seed=3)
            logs.append(warnings(caplog))
    assert logs[0] == logs[1] and logs[0]


def test_residual_growth_stops_at_the_same_trial_across_units(
        caplog, monkeypatch):
    """The refit overshoots at its sixth column in some trials, so the
    units of k = 6 and k = 7 both stop: whichever process ran them, the
    engine logs k = 5's warnings and k = 6's up to its first failing
    trial, then raises, as the per-trial loop does."""
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
    want, got = both(caplog, repeated_columns(), [5, 6, 7], 40, "rademacher",
                     tol=0.0)
    assert got == want and want[0].startswith("raised: residual norm")
    assert want[1]


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
