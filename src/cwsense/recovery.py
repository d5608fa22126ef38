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
  builds.  The draw argument follows; the trial streams of a k are
  drawn in chunks of whole blocks, about BLOCK_BYTES of draw data each.
  - Streams.  _pcg64_seed runs SeedSequence's pool mixing (pool size 4)
    and generate_state(4, uint64) on uint32 words held in uint64 arrays
    (its hash constants do not depend on the data), then pcg64_set_seed:
    state 0, inc = (initseq << 1) | 1, step, add initstate, step.  A
    step is the 128-bit LCG on hi/lo uint64 halves, the high product
    over 32-bit limbs; an output is XSL-RR (O'Neill 2014) of the new
    state.  Each 64-bit output is two 32-bit words, low half first, the
    order PCG64's next_uint32 buffers them in.
  - Choice.  Generator.choice(N, k, replace=False) takes Floyd's branch
    when N <= 10000 or k <= N // 50.  Floyd's algorithm draws j = N-k ..
    N-1 on [0, j], no draw when j = 0, and a value already taken
    inserts j instead; then the shuffle makes k-1 draws on [0, i] for
    i = k-1 .. 1, which reorder the support but leave its set, sorted
    as _draw sorts it, alone.  A draw on [0, r] is Lemire's bounded
    draw (Lemire 2019) on one 32-bit word u: the top word of
    u * (r + 1), redrawn while the low word is below 2^32 mod (r + 1).
  - Values.  integers(0, 2, size=k) is the top bit of the next k words
    (Lemire on [0, 1] never redraws), mapped by the same exact
    x * 2.0 - 1.0.  standard_normal reads whole 64-bit outputs from the
    one after the choice's last word, that is from output
    ceil(words / 2) + 1, so it runs per trial on one reused PCG64 set
    to that state.
  - Fallback.  A trial is drawn by _draw from a real Generator on its
    row when one of its Lemire draws would redraw, when a Gaussian row
    holds an exact 0.0 (the Generator's resample then replays), and
    every trial when choice would not take Floyd's branch or N >= 2^32.
    Each chunk also draws its first computed row with a Generator; if
    they differ, as under a numpy whose streams changed, it logs one
    warning and draws the whole chunk one trial at a time.
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
* at one selected column the fit is each column entry times its
  coefficient, one product per entry as in the product a[:, selected]
  @ coef, whose 0.0 + a c differs only in turning a -0.0 product into
  +0.0.  y - (-0.0) and y - (+0.0) differ only where y is -0.0, which no
  measurement is; in a y given to omp the difference is the sign of a
  zero residual entry, which the norm squares away and which changes
  at most the sign of a zero correlation, whose absolute value is used;
* rank-deficiency warnings and the residual-growth RuntimeError come
  out in trial order, as the per-trial loop would emit them: the
  engine and the chunk draw return them as notes, and run_experiment
  logs each unit's notes and raises at the first growth, in unit
  order, whichever process of pool.share ran the unit.

tests/recovery_oracle.py keeps that per-trial loop, with its signal
generation, measurement and exact-recovery check; the tests hold the
engine to it bit for bit, and the chunk draw to _draw on a Generator
per row.
"""

from __future__ import annotations

import functools
import logging
import operator
import time
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np
from numpy.linalg import _umath_linalg

from . import pool
from .errors import ParameterError
from .matrices import MeasurementMatrix

log = logging.getLogger(__name__)

VALUE_MODELS = ("rademacher", "gaussian")

# Bytes of truth and measurement data per trial block: (N + k n) * 8 per
# trial.  The engine's other per-block arrays scale with the same terms.
BLOCK_BYTES = 256 * 1024

# OMP stops a row once its residual norm drops below this.
TOL = 1e-12

# The note that stops an experiment: _omp_rows ends its notes with it
# when a residual norm grew, and _report raises it.
GREW = "residual norm increased across an OMP iteration"


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


# SeedSequence's hash constants and PCG64's 128-bit multiplier, as hi
# and lo 64-bit halves: the chunk draw's streams are numpy's, computed
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint64(0xCA01F9DD), np.uint64(0x4973F715)
_PCG_HI, _PCG_LO = np.uint64(0x2360ED051FC65DA4), np.uint64(0x4385DF649FCCF645)
_LOW = np.uint64(0xFFFFFFFF)


def _hashes(const: int, mult: int, count: int) -> np.ndarray:
    """const and the count hash constants SeedSequence steps to from it."""
    out = [const]
    for _ in range(count):
        out.append(out[-1] * mult & 0xFFFFFFFF)
    return np.array(out, dtype=np.uint64)


def _hashmix(value: np.ndarray, h: np.ndarray) -> np.ndarray:
    """SeedSequence's hashmix of 32-bit words value (..., m) held as
    uint64, call i with hash constants h[i] and h[i + 1]."""
    value = (value ^ h[:-1]) * h[1:] & _LOW
    return value ^ value >> 16


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    r = (x * _MIX_L - y * _MIX_R) & _LOW
    return r ^ r >> 16


def _mulhi(a: np.ndarray, b: np.uint64) -> np.ndarray:
    """High 64 bits of a * b, over 32-bit limbs."""
    a0, a1, b0, b1 = a & _LOW, a >> 32, b & _LOW, b >> 32
    p01, p10 = a0 * b1, a1 * b0
    mid = (a0 * b0 >> 32) + (p01 & _LOW) + (p10 & _LOW)
    return a1 * b1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)


def _pcg_step(state: tuple, inc: tuple) -> tuple:
    """One LCG step, state * multiplier + inc mod 2^128, on (hi, lo)."""
    hi, lo = state
    new_lo = lo * _PCG_LO + inc[1]
    return (hi * _PCG_LO + lo * _PCG_HI + _mulhi(lo, _PCG_LO) + inc[0]
            + (new_lo < inc[1]), new_lo)


def _pcg64_seed(rows: np.ndarray) -> tuple[tuple, tuple]:
    """(state, inc) of PCG64(SeedSequence(row)) for each uint32 entropy
    row, each a (hi, lo) pair of uint64 arrays: the pool mixing (pool
    size 4), generate_state(4, uint64) and pcg64_set_seed."""
    size, length = rows.shape
    width = max(length, 4)  # short entropy is padded with 0 words
    entropy = np.zeros((size, width), dtype=np.uint64)
    entropy[:, :length] = rows
    h = _hashes(_INIT_A, _MULT_A, 4 * width)
    pool = _hashmix(entropy[:, :4], h[:5])
    at = 4
    for src in range(4):    # pool[src] into every other pool word
        dst = [i for i in range(4) if i != src]
        pool[:, dst] = _mix(pool[:, dst],
                            _hashmix(pool[:, src, None], h[at:at + 4]))
        at += 3
    for src in range(4, length):    # the rest of the entropy
        pool = _mix(pool, _hashmix(entropy[:, src, None], h[at:at + 5]))
        at += 4
    words = _hashmix(pool[:, [0, 1, 2, 3] * 2], _hashes(_INIT_B, _MULT_B, 8))
    seed = words[:, 0::2] | words[:, 1::2] << 32
    inc = (seed[:, 2] << 1 | seed[:, 3] >> 63, seed[:, 3] << 1 | 1)
    lo = inc[1] + seed[:, 1]    # state 0, step, add initstate
    state = _pcg_step((inc[0] + seed[:, 0] + (lo < inc[1]), lo), inc)
    return state, inc


def _stream_draw(rows: np.ndarray, N: int, k: int, model: str
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """_draw(Generator(PCG64(SeedSequence(row))), N, k, model) for each
    uint32 entropy row, computed from the streams as arrays, for Floyd's
    branch of choice and N < 2^32.  Returns (supports, values, exact):
    rows where exact is False had a Lemire draw reject, and their
    supports and values are meaningless.  The module docstring gives
    the word order."""
    state, inc = _pcg64_seed(rows)
    skip = N == k       # Floyd's first j is 0: no draw
    choice = 2 * k - 1 - skip
    need = choice + (k if model == "rademacher" else 0)
    words = np.empty((len(rows), need + need % 2), dtype=np.uint64)
    for t in range(0, need, 2):
        state = _pcg_step(state, inc)
        hi, lo = state
        x = hi ^ lo
        rot = hi >> 58
        out = x >> rot | x << (64 - rot & 63)
        words[:, t], words[:, t + 1] = out & _LOW, out >> 32
    # Lemire on [0, r - 1]: the top word of u * r, rejected while the
    # low word is below 2^32 mod r
    r = [*range(N - k + skip + 1, N + 1), *range(k, 1, -1)]
    m = words[:, :choice] * np.array(r, dtype=np.uint64)
    limit = np.array([2 ** 32 % x for x in r], dtype=np.uint64)
    exact = ~((m & _LOW) < limit).any(axis=1)
    picks = np.zeros((len(rows), k), dtype=np.intp)
    picks[:, skip:] = m[:, :k - skip] >> 32
    for t in range(1, k):   # a value already taken inserts j instead
        taken = (picks[:, :t] == picks[:, t, None]).any(axis=1)
        picks[taken, t] = N - k + t
    picks.sort(axis=1)      # the shuffle reorders, the set stays
    if model == "rademacher":
        return picks, (words[:, choice:need] >> 31) * 2.0 - 1.0, exact
    # standard_normal reads whole 64-bit outputs from the one after the
    # choice's last word, through one PCG64 set to each row's state
    values = np.empty((len(rows), k))
    gen = np.random.Generator(np.random.PCG64(0))
    pcg = {}
    full = {"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
            "state": pcg}
    # each row's state and inc as 128-bit little-endian integers
    packed = np.stack([state[1], state[0], inc[1], inc[0]], axis=1).astype(
        "<u8", copy=False).tobytes()
    for i in range(len(rows)):
        pcg["state"] = int.from_bytes(packed[32 * i:32 * i + 16], "little")
        pcg["inc"] = int.from_bytes(packed[32 * i + 16:32 * i + 32], "little")
        gen.bit_generator.state = full
        gen.standard_normal(out=values[i])
    return picks, values, exact


def _draw_chunk(rows: np.ndarray, N: int, k: int, model: str,
                warn=log.warning) -> tuple[np.ndarray, np.ndarray]:
    """Ascending supports (len(rows), k) and values of
    _draw(Generator(PCG64(SeedSequence(row))), N, k, model) for each
    uint32 entropy row, bit for bit: _stream_draw where it applies, and
    a per-trial Generator for the rest (the module docstring lists
    when).  The first row _stream_draw drew is checked against the
    Generator; if they differ, warn gets one message and the chunk is
    drawn one trial at a time."""
    def one(row):
        return _draw(np.random.Generator(np.random.PCG64(
            np.random.SeedSequence(row))), N, k, model)

    if N < 2 ** 32 and (N <= 10000 or k <= N // 50):   # Floyd's branch
        supports, values, exact = _stream_draw(rows, N, k, model)
        exact &= ~(values == 0.0).any(axis=1)
        for i in np.flatnonzero(exact)[:1]:
            support, value = one(rows[i])
            if not (np.array_equal(support, supports[i])
                    and value.tobytes() == values[i].tobytes()):
                warn(f"numpy's stream for {rows[i].tolist()} differs from "
                     f"the chunk draw; drawing {len(rows)} trials one at "
                     "a time")
                exact[:] = False
    else:
        supports = np.empty((len(rows), k), dtype=np.intp)
        values = np.empty((len(rows), k))
        exact = np.zeros(len(rows), dtype=bool)
    for i in np.flatnonzero(~exact):
        supports[i], values[i] = one(rows[i])
    return supports, values


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


def _omp_rows(a: np.ndarray, y: np.ndarray, k: int
              ) -> tuple[np.ndarray, np.ndarray, np.ndarray, list[str]]:
    """OMP on every row of y (B, n) in lockstep against dense a (n, N).

    Returns (selected, coef, count, notes): row b picked the columns
    selected[b, :count[b]] in that order with least-squares
    coefficients coef[b, :count[b]]; entries past count[b] are 0.
    A row stops early once its residual norm drops below TOL.  notes
    holds the rank-deficiency warnings in trial order, as the per-trial
    loop would log them, and ends with GREW when some row's residual
    norm grew: then only the warnings up to that row's failing
    iteration are kept, and the results are not to be used.
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
        go = ~(prev < TOL) & ~up    # a row whose norm grew is out
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
        residual = ys - (sub[:, :, 0] * c if t == 1 else
                         np.matmul(sub, c[:, :, None])[:, :, 0])
        norm = _norms(residual)
        up = norm > prev + 1e-9 * (1.0 + prev)
        grew += [(int(row), t) for row in rows[up]]
        prev = norm
    first = min(grew, default=(B, 0))
    notes = [f"rank-deficient selection ({cols} columns, rank {rank}); "
             "using the minimum-norm solution"
             for row, cols, rank in sorted(warnings) if (row, cols) <= first]
    return selected, coef, count, notes + [GREW] * bool(grew)


def _report(notes: list[str]) -> None:
    """Log notes as warnings in order, raising RuntimeError at GREW."""
    for note in notes:
        if note == GREW:
            raise RuntimeError(GREW)
        log.warning(note)


def omp(matrix: MeasurementMatrix, y: np.ndarray, k: int) -> SparseSignal:
    """Orthogonal matching pursuit of y (shape (n,)) in at most k
    iterations, 1 <= k <= n, stopping once the residual norm drops below
    TOL.  Returns the selected support (sorted) with the final
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
    selected, coef, count, notes = _omp_rows(matrix.to_dense(), y[None], k)
    _report(notes)
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
                   model: str = "rademacher", seed: int = 0
                   ) -> list[RecoveryReport]:
    """Seeded OMP recovery experiment over a range of sparsity levels.

    Each trial draws from the stream of SeedSequence([seed, k, trial]),
    measures a fresh k-sparse signal and checks exact recovery (support
    equality plus values within 1e-9).  k = 0 is skipped with a note;
    every k, and 1 <= trials < 2^32, is checked before the first trial
    runs.  The trials of one k run in blocks of about BLOCK_BYTES of
    signal data through the batched OMP engine; the module docstring
    says why the results are bit-identical to one trial at a time.

    The work is cut into units, a chunk of whole blocks of one k each,
    which pool.share runs with their trial work, size * k * n * N.  The
    results are folded in unit order, so every report field but seconds,
    and every warning and the residual-growth RuntimeError, come out as
    from one process.  seconds is the sum of each unit's time, over
    processes.
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
    plan = []   # (k, its units (first trial, trials, block size))
    for k in ks:
        block = max(1, BLOCK_BYTES // ((N + k * n) * 8))
        # whole blocks of trials per draw; a trial's draw holds at most
        # 40 + 9k uint64 at once: the seeding's, then its 3k stream
        # words, the choice's Lemire products and the values
        chunk = block * max(1, BLOCK_BYTES // (8 * (40 + 9 * k) * block))
        plan.append((k, [(first, min(chunk, trials - first), block)
                         for first in range(0, trials, chunk)] if k else []))
    units = [(k, *unit) for k, group in plan for unit in group]
    if units:
        # admitted, and numpy.random imported, before any fork, so the
        # children share both copy-on-write
        import numpy.random  # noqa: F401
        task = functools.partial(_unit, matrix.to_dense(), words, model)
        results = iter(pool.share(task, units, [k * size * n * N
                                                for k, _, size, _ in units]))
    reports = []
    for k, group in plan:
        if k == 0:
            log.info("skipping k = 0: nothing to recover")
            continue
        totals = (0, 0, 0.0, 0.0)   # successes, then the report's maxima
        seconds = 0.0
        for _ in group:
            result = next(results)
            if isinstance(result, Exception):
                raise result
            scores, took, notes = result
            _report(notes)
            totals = (totals[0] + scores[0],
                      *map(max, totals[1:], scores[1:]))
            seconds += took
        reports.append(RecoveryReport(matrix.provenance, k, trials, *totals,
                                      seconds=seconds))
    return reports


def _unit(a: np.ndarray, words: list[int], model: str, k: int, first: int,
          size: int, block: int) -> tuple[tuple, float, list[str]]:
    """Trials first .. first + size - 1 at sparsity k, drawn as one chunk
    and run in blocks of block trials: (scores, seconds, notes), the
    scores being the successes and the report's maxima over them.  The
    notes are the warnings in trial order; at a residual growth they end
    with GREW and the unit stops there."""
    start = time.perf_counter()
    rows = np.empty((size, len(words) + 2), dtype=np.uint32)
    rows[:, :-1] = [*words, k]
    rows[:, -1] = np.arange(first, first + size)
    notes: list[str] = []
    truth, values = _draw_chunk(rows, a.shape[1], k, model, notes.append)
    totals = (0, 0, 0.0, 0.0)
    for b in range(0, size, block):
        t, v = truth[b:b + block], values[b:b + block]
        y = _measure_rows(a.T, t, v)
        *found, block_notes = _omp_rows(a, y, k)
        notes += block_notes
        if GREW in block_notes:
            break
        scores = _score_rows(a.T, t, v, y, *found)
        totals = (totals[0] + scores[0], *map(max, totals[1:], scores[1:]))
    return totals, time.perf_counter() - start, notes


CSV_HEADER = "matrix_id,k,trials,successes,max_value_error,seconds"


def reports_to_csv(reports: Sequence[RecoveryReport]) -> str:
    """Serialize reports as CSV, one row per (matrix, k).  The seconds
    column, wall-clock time, is the only field not reproducible."""
    lines = [CSV_HEADER]
    for r in reports:
        lines.append(f"{r.matrix_id},{r.k},{r.trials},{r.successes},"
                     f"{r.max_value_err:.3e},{r.seconds:.6f}")
    return "\n".join(lines) + "\n"
