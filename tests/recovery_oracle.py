"""Reference OMP and recovery experiment: one trial at a time.

These are the per-trial bodies that recovery.omp and
recovery.run_experiment replaced with the batched engine, with the
signal generation, measurement, dense expansion and exact-recovery
check they run on.  They stay here, unchanged in arithmetic, as the
oracle the engine must match bit for bit (every RecoveryReport field
but seconds, OMP supports and values, and the warning lines in order).
"""

from __future__ import annotations

import logging
import time
from typing import Iterable

import numpy as np

from cwsense.errors import ParameterError
from cwsense.matrices import MeasurementMatrix
from cwsense.recovery import VALUE_MODELS, RecoveryReport, SparseSignal

log = logging.getLogger("cwsense.recovery")


def gen_sparse(N: int, k: int, model: str = "rademacher",
               seed: int | np.random.SeedSequence = 0) -> SparseSignal:
    """Draw a k-sparse signal with a uniformly random support.

    model 'rademacher' puts +-1 on the support, 'gaussian' puts unit
    normal values (resampled in the measure-zero event of an exact 0,
    so listed values are always nonzero).
    """
    if not 0 <= k <= N:
        raise ParameterError(f"need 0 <= k <= N, got k={k} N={N}")
    if model not in VALUE_MODELS:
        raise ParameterError(f"unknown value model {model!r}")
    rng = np.random.default_rng(seed)
    support = tuple(sorted(int(i) for i in rng.choice(N, size=k, replace=False)))
    if model == "rademacher":
        values = rng.integers(0, 2, size=k) * 2.0 - 1.0
    else:
        values = rng.standard_normal(k)
        while np.any(values == 0.0):
            values[values == 0.0] = rng.standard_normal(
                int(np.sum(values == 0.0)))
    return SparseSignal(N=N, support=support, values=values,
                        provenance=f"model={model} seed={seed!r}")


def to_dense(x: SparseSignal) -> np.ndarray:
    dense = np.zeros(x.N)
    dense[list(x.support)] = x.values
    return dense


def measure(matrix: MeasurementMatrix, x: SparseSignal) -> np.ndarray:
    """y = A x, accumulated column by column over the sparse support."""
    if x.N != matrix.N:
        raise ParameterError(
            f"signal length {x.N} does not match column count {matrix.N}")
    y = np.zeros(matrix.n)
    for idx, val in zip(x.support, x.values):
        for r, s in zip(matrix.positions[idx], matrix.signs[idx]):
            y[r] += s * val
    return y


def exact_recovery(truth: SparseSignal, estimate: SparseSignal,
                   tol: float = 1e-9) -> bool:
    """Supports identical and every value within tol."""
    if truth.support != estimate.support:
        return False
    if len(truth.values) == 0:
        return True
    return float(np.max(np.abs(truth.values - estimate.values))) < tol


def omp(matrix: MeasurementMatrix, y: np.ndarray, k: int,
        tol: float = 1e-12) -> SparseSignal:
    if not 1 <= k <= matrix.n:
        raise ParameterError(f"need 1 <= k <= n rows, got k={k} n={matrix.n}")
    a = matrix.to_dense()
    y = np.asarray(y, dtype=np.float64)
    if y.shape != (matrix.n,):
        raise ParameterError(f"y must have shape ({matrix.n},)")
    selected: list[int] = []
    taken = np.zeros(matrix.N, dtype=bool)
    residual = y.copy()
    prev_norm = float(np.linalg.norm(residual))
    coef = np.zeros(0)
    for _ in range(k):
        if prev_norm < tol:
            break
        corr = np.abs(a.T @ residual)
        corr[taken] = -1.0
        j = int(np.argmax(corr))
        taken[j] = True
        selected.append(j)
        sub = a[:, selected]
        coef, _, rank, _ = np.linalg.lstsq(sub, y, rcond=None)
        if rank < len(selected):
            log.warning("rank-deficient selection (%d columns, rank %d); "
                        "using the minimum-norm solution", len(selected), rank)
        residual = y - sub @ coef
        norm = float(np.linalg.norm(residual))
        if norm > prev_norm + 1e-9 * (1.0 + prev_norm):
            raise RuntimeError(
                "residual norm increased across an OMP iteration")
        prev_norm = norm
    order = np.argsort(selected)
    support = tuple(selected[i] for i in order)
    values = np.asarray([coef[i] for i in order]) if selected else np.zeros(0)
    return SparseSignal(N=matrix.N, support=support, values=values,
                        provenance="omp")


def run_experiment(matrix: MeasurementMatrix, ks: Iterable[int], trials: int,
                   model: str = "rademacher", seed: int = 0,
                   tol: float = 1e-12) -> list[RecoveryReport]:
    if trials < 1:
        raise ParameterError(f"need at least one trial, got {trials}")
    if seed < 0:
        raise ParameterError(f"seed must be >= 0, got {seed}")
    reports = []
    for k in ks:
        if k == 0:
            log.info("skipping k = 0: nothing to recover")
            continue
        if k > min(matrix.n, matrix.N):
            raise ParameterError(
                f"k={k} exceeds min(n, N) = {min(matrix.n, matrix.N)}")
        start = time.perf_counter()
        successes = 0
        max_support_err = 0
        max_value_err = 0.0
        max_residual = 0.0
        for trial in range(trials):
            ss = np.random.SeedSequence([seed, k, trial])
            truth = gen_sparse(matrix.N, k, model=model, seed=ss)
            y = measure(matrix, truth)
            estimate = omp(matrix, y, k, tol=tol)
            if exact_recovery(truth, estimate):
                successes += 1
            support_err = len(set(truth.support) ^ set(estimate.support))
            value_err = float(np.max(np.abs(to_dense(truth)
                                            - to_dense(estimate))))
            residual = float(np.linalg.norm(y - measure(matrix, estimate)))
            max_support_err = max(max_support_err, support_err)
            max_value_err = max(max_value_err, value_err)
            max_residual = max(max_residual, residual)
        reports.append(RecoveryReport(
            matrix_id=matrix.provenance, k=k, trials=trials,
            successes=successes, max_support_err=max_support_err,
            max_value_err=max_value_err, max_residual=max_residual,
            seconds=time.perf_counter() - start))
    return reports
