"""Orthogonal matching pursuit and the seeded recovery experiment
harness.

Everything here is deterministic given a seed.  Each trial has its own
stream, from SeedSequence([seed, k, trial]), so a trial can be replayed
alone and adding trials never disturbs earlier ones.

The experiment runs the trials of one k in blocks, in lockstep through
one batched OMP engine (_omp_rows), after the Batch-OMP idea of
Rubinstein, Zibulevsky and Elad (2008) but without its Gram/Cholesky
refit: every trial still gets its own gemv, gelsd solve and ddot, only
the Python loop around them is gone.  The bits therefore match the
one-trial-at-a-time loop:

* signals come from the same per-trial streams.  SeedSequence reads
  [seed, k, trial] as each int's little-endian 32-bit words (0 as one
  word), so a uint32 row of the seed's words, k and the trial index is
  the same entropy, and Generator(PCG64(...)) is what default_rng
  builds.  Per trial the loop makes _draw's choice and integers or
  standard_normal calls into the block arrays; once per block it sorts
  the supports, maps Rademacher 0/1 by the same exact x * 2.0 - 1.0,
  and redraws any Gaussian row holding an exact 0.0 with _draw from a
  fresh stream on the same row, which replays the per-trial resample;
* a measurement adds the support columns in support order, so each
  entry sees the additions the per-trial loop makes plus +-0.0 terms
  (a finite value times a zero entry); x + (+-0.0) is x, bit for bit,
  for every float x but -0.0, and no entry is ever -0.0 since sums
  start at +0.0;
* correlations are np.matmul over the transposed view of the cached
  dense matrix, which numpy evaluates as one gemv per trial with the
  strides the single-trial product uses; ties still go to the lowest
  column index (row-wise argmax);
* the refit is the gelsd gufunc np.linalg.lstsq wraps, called once on
  the stacked selections (_lstsq); each selection is laid out in
  Fortran order, as a[:, selected] is, so the residual's gemv runs the
  same kernel; norms are matmul dots, the ddot np.linalg.norm uses;
* rank-deficiency warnings and the residual-growth RuntimeError come
  out in trial order, as the per-trial loop would emit them.

tests/recovery_oracle.py keeps that per-trial loop, with its signal
generation, measurement and exact-recovery check; the tests hold the
engine to it bit for bit.
"""

from __future__ import annotations

import logging
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ParameterError
from .matrices import MeasurementMatrix

log = logging.getLogger(__name__)

VALUE_MODELS = ("rademacher", "gaussian")

# Bytes of truth and measurement data per trial block: (N + k n) * 8 per
# trial.  The engine's other per-block arrays scale with the same terms.
BLOCK_BYTES = 256 * 1024


@dataclass
class SparseSignal:
    """A k-sparse vector stored as (support, values)."""
    N: int
    support: tuple[int, ...]
    values: np.ndarray
    provenance: str = ""


def _draw(rng: np.random.Generator, N: int, k: int,
          model: str) -> tuple[np.ndarray, np.ndarray]:
    """Ascending support and values of one k-sparse draw from rng: a
    uniformly random support, then +-1 (rademacher) or unit normal
    values (gaussian, resampled in the measure-zero event of an exact
    0, so values are always nonzero)."""
    support = np.sort(rng.choice(N, size=k, replace=False))
    if model == "rademacher":
        values = rng.integers(0, 2, size=k) * 2.0 - 1.0
    else:
        values = rng.standard_normal(k)
        while np.any(values == 0.0):
            values[values == 0.0] = rng.standard_normal(
                int(np.sum(values == 0.0)))
    return support, values


def _measure_rows(at: np.ndarray, supports: np.ndarray,
                  values: np.ndarray) -> np.ndarray:
    """Row b is A x_b, adding the columns supports[b] (rows of at = A.T)
    scaled by values[b] in order."""
    y = np.zeros((len(supports), at.shape[1]))
    for i in range(supports.shape[1]):
        y += at[supports[:, i]] * values[:, i, None]
    return y


def _norms(r: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row, as np.linalg.norm computes it."""
    return np.sqrt(np.matmul(r[:, None, :], r[:, :, None])[:, 0, 0])


def _lstsq_failed(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq(subs: np.ndarray, ys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Stacked np.linalg.lstsq(sub, y, rcond=None) over subs (B, m, t)
    and ys (B, m): the gelsd gufunc that np.linalg.lstsq wraps, called
    once for the stack.  Returns coefficients (B, t) and ranks (B,)."""
    m, t = subs.shape[-2:]
    rcond = np.finfo(np.float64).eps * max(m, t)
    with np.errstate(call=_lstsq_failed, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        coef, _, rank, _ = _umath_linalg.lstsq(subs, ys[:, :, None], rcond,
                                               signature="ddd->ddid")
    return coef[:, :, 0], rank


def _omp_rows(a: np.ndarray, y: np.ndarray, k: int,
              tol: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """OMP on every row of y (B, n) in lockstep against dense a (n, N).

    Returns (selected, coef, count): row b picked the columns
    selected[b, :count[b]] in that order with least-squares
    coefficients coef[b, :count[b]]; entries past count[b] are 0.
    A row stops early once its residual norm drops below tol.
    """
    at = a.T
    B = len(y)
    selected = np.zeros((B, k), dtype=np.intp)
    coef = np.zeros((B, k))
    count = np.zeros(B, dtype=np.intp)
    warnings: list[tuple[int, int, int]] = []   # (row, columns, rank)
    grew: list[tuple[int, int]] = []            # (row, columns)
    rows = np.arange(B)          # the rows of y still iterating
    ys, residual = y, y
    prev = _norms(y)
    taken = np.zeros((B, a.shape[1]), dtype=bool)
    up = np.zeros(B, dtype=bool)
    for t in range(1, k + 1):
        go = ~(prev < tol) & ~up    # a row whose norm grew is out
        if not go.all():
            rows, ys, residual, prev, taken = (
                rows[go], ys[go], residual[go], prev[go], taken[go])
        if not len(rows):
            break
        corr = np.matmul(at, residual[:, :, None])[:, :, 0]
        np.abs(corr, out=corr)
        corr[taken] = -1.0
        j = np.argmax(corr, axis=1)  # the first (lowest) index on ties
        taken[np.arange(len(rows)), j] = True
        selected[rows, t - 1] = j
        # (rows, n, t), each item Fortran-ordered like a[:, selected]
        sub = at[selected[rows, :t]].transpose(0, 2, 1)
        c, rank = _lstsq(sub, ys)
        warnings += [(int(rows[i]), t, int(rank[i]))
                     for i in np.flatnonzero(rank < t)]
        coef[rows, :t] = c
        count[rows] = t
        residual = ys - np.matmul(sub, c[:, :, None])[:, :, 0]
        norm = _norms(residual)
        up = norm > prev + 1e-9 * (1.0 + prev)
        grew += [(int(row), t) for row in rows[up]]
        prev = norm
    first = min(grew, default=None)
    for row, cols, rank in sorted(warnings):
        if first is not None and (row, cols) > first:
            break
        log.warning("rank-deficient selection (%d columns, rank %d); "
                    "using the minimum-norm solution", cols, rank)
    if first is not None:
        raise RuntimeError("residual norm increased across an OMP iteration")
    return selected, coef, count


def omp(matrix: MeasurementMatrix, y: np.ndarray, k: int,
        tol: float = 1e-12) -> SparseSignal:
    """Orthogonal matching pursuit of y (shape (n,)) in at most k
    iterations, 1 <= k <= n, stopping once the residual norm drops below
    tol.  Returns the selected support (sorted) with the final
    least-squares coefficients.

    Each iteration picks the column of largest absolute correlation with
    the residual (the columns share one norm, so raw inner products rank
    them; ties go to the lowest index), then refits all selected columns
    by rank-revealing least squares: a rank-deficient selection is
    logged and solved minimum-norm, and a residual norm that grows
    raises RuntimeError.  This is the one-row case of the engine; the
    module docstring says why it matches the per-trial loop bit for bit.
    """
    if not 1 <= k <= matrix.n:
        raise ParameterError(f"need 1 <= k <= n rows, got k={k} n={matrix.n}")
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (matrix.n,):
        raise ParameterError(f"y must have shape ({matrix.n},)")
    selected, coef, count = _omp_rows(matrix.to_dense(), y[None], k, tol)
    picked = selected[0, :count[0]]
    order = np.argsort(picked)
    return SparseSignal(N=matrix.N, support=tuple(picked[order].tolist()),
                        values=coef[0, :count[0]][order], provenance="omp")


@dataclass
class RecoveryReport:
    """Aggregate of one (matrix, k) experiment."""
    matrix_id: str
    k: int
    trials: int
    successes: int
    max_support_err: int
    max_value_err: float
    max_residual: float
    seconds: float


def _score_rows(at: np.ndarray, truth: np.ndarray, values: np.ndarray,
                y: np.ndarray, selected: np.ndarray, coef: np.ndarray,
                count: np.ndarray) -> tuple[int, int, float, float]:
    """(successes, max support error, max value error, max residual) of
    a block: per trial, exact recovery (supports equal, values within
    1e-9), the symmetric support difference, the largest entry of
    |truth - estimate| as dense vectors, and |y - A estimate|."""
    k = truth.shape[1]
    N = at.shape[0]
    # estimates with unused slots pointing at column N (a pad) and 0.0
    est = np.where(np.arange(k) < count[:, None], selected, N)
    order = np.argsort(est, axis=1)
    est = np.take_along_axis(est, order, axis=1)
    est_values = np.take_along_axis(coef, order, axis=1)
    match = est[:, :, None] == truth[:, None, :]
    # the nonzero entries of the dense difference: a truth value less
    # its matched estimate (less +-0.0 when unmatched), and the
    # estimates that match nothing (a pad's 0.0 changes no maximum)
    matched = (match * est_values[:, :, None]).sum(axis=1)
    value_err = np.maximum(
        np.abs(values - matched).max(axis=1),
        (np.abs(est_values) * ~match.any(axis=2)).max(axis=1))
    # equal supports leave value_err = max |truth - estimate| on them
    exact = (est == truth).all(axis=1) & (value_err < 1e-9)
    support_err = k + count - 2 * match.sum(axis=(1, 2))
    # a pad adds 0.0 times some column: +-0.0 terms, which change nothing
    fit = _measure_rows(at, np.minimum(est, N - 1), est_values)
    return (int(exact.sum()), int(support_err.max()),
            float(value_err.max()), float(_norms(y - fit).max()))


def run_experiment(matrix: MeasurementMatrix, ks: Iterable[int], trials: int,
                   model: str = "rademacher", seed: int = 0,
                   tol: float = 1e-12) -> list[RecoveryReport]:
    """Seeded OMP recovery experiment over a range of sparsity levels.

    Each trial draws from the stream of SeedSequence([seed, k, trial]),
    measures a fresh k-sparse signal and checks exact recovery (support
    equality plus values within 1e-9).  k = 0 is skipped with a note;
    every k, and 1 <= trials < 2^32, is checked before the first trial
    runs.  The trials of one k run in blocks of about BLOCK_BYTES of
    signal data through the batched OMP engine; the module docstring
    says why the results are bit-identical to one trial at a time.
    """
    if not 1 <= trials < 2 ** 32:   # a trial index is one entropy word
        raise ParameterError(f"need 1 <= trials < 2^32, got {trials}")
    seed = operator.index(seed)     # numpy integers too, as SeedSequence
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    if model not in VALUE_MODELS:
        raise ParameterError(f"unknown value model {model!r}")
    ks = list(ks)
    n, N = matrix.n, matrix.N
    for k in ks:
        if k < 0:
            raise ParameterError(f"need 0 <= k <= N, got k={k} N={N}")
        if k > min(n, N):
            raise ParameterError(f"k={k} exceeds min(n, N) = {min(n, N)}")
    # the seed's 32-bit words, the head of every trial's entropy row
    words = [(seed >> s) & 0xFFFFFFFF
             for s in range(0, max(seed.bit_length(), 1), 32)]
    gaussian = model == "gaussian"
    Generator, PCG64, SeedSequence = (
        np.random.Generator, np.random.PCG64, np.random.SeedSequence)
    reports = []
    for k in ks:
        if k == 0:
            log.info("skipping k = 0: nothing to recover")
            continue
        start = time.perf_counter()
        a = matrix.to_dense()
        block = max(1, BLOCK_BYTES // ((N + k * n) * 8))
        totals = (0, 0, 0.0, 0.0)   # successes, then the report's maxima
        for first in range(0, trials, block):
            size = min(block, trials - first)
            rows = np.empty((size, len(words) + 2), dtype=np.uint32)
            rows[:, :-1] = [*words, k]
            rows[:, -1] = np.arange(first, first + size)
            truth = np.empty((size, k), dtype=np.intp)
            values = np.empty((size, k))
            for i in range(size):
                rng = Generator(PCG64(SeedSequence(rows[i])))
                truth[i] = rng.choice(N, size=k, replace=False)
                if gaussian:
                    rng.standard_normal(out=values[i])
                else:
                    values[i] = rng.integers(0, 2, size=k)
            truth.sort(axis=1)
            if gaussian:
                for i in np.flatnonzero((values == 0.0).any(axis=1)):
                    truth[i], values[i] = _draw(
                        Generator(PCG64(SeedSequence(rows[i]))), N, k, model)
            else:
                values = values * 2.0 - 1.0
            y = _measure_rows(a.T, truth, values)
            scores = _score_rows(a.T, truth, values, y,
                                 *_omp_rows(a, y, k, tol))
            totals = (totals[0] + scores[0],
                      *map(max, totals[1:], scores[1:]))
        reports.append(RecoveryReport(matrix.provenance, k, trials, *totals,
                                      seconds=time.perf_counter() - start))
    return reports


CSV_HEADER = "matrix_id,k,trials,successes,max_value_error,seconds"


def reports_to_csv(reports: Sequence[RecoveryReport]) -> str:
    """Serialize reports as CSV, one row per (matrix, k).  The seconds
    column, wall-clock time, is the only field not reproducible."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(f"{r.matrix_id},{r.k},{r.trials},{r.successes},"
                     f"{r.max_value_err:.3e},{r.seconds:.6f}")
    return "\n".join(lines) + "\n"
