"""Measurement matrices with entries in {0, +1, -1} and constant column
weight, plus exact coherence certification.

Columns are stored as codes.CWCode words are, N x w positions and signs
arrays, checked by the same codes.check_words (duplicate columns are
allowed), and never normalized: every column has squared norm w, so the
coherence of a pair is just |<c_i, c_j>| / w and the maximum over all
pairs is an exact rational.  It comes from codes.array_maxima on the
columns, or from the code's own certificate via from_code.  That
kernel covers every pair: sorted s-subset keys of the supports give
the largest overlap when the columns are unsigned or meet in at most
one row, and float64 column tiles, whose products are exact integers
in any summation order, answer the rest.  coherence returns that
exact Fraction, compared against the construction's theoretical bound
every time; a violation raises, it is never waived.  A bound read from
a file is a claim, checked at load.  What follows from mu, n and N
(the sparsity order, the Welch bound, delta_k) is formed where
cli.analyze prints it.
from_code turns any code into a matrix and attaches its bound:
1 - d/(2w) for a binary code (kept under seeded sign randomization),
min(w, 2w - d)/w for a ternary one.  The two file FORMATS are
textio's; dumps_matrix and loads_matrix convert to and from them.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from . import textio
from .codes import CWCode, array_maxima, check_words
from .errors import FormatError, ParameterError, admit, power
from .field import factor_prime_power, make_field
from .textio import FORMATS

DEVORE_BLOCK = 1 << 16   # positions devore evaluates at once


class MeasurementMatrix:
    """n x N sensing matrix with constant column weight w.

    Column j holds signs[j] on the rows positions[j] (N x w arrays, kept
    as given, not copied).  bound is the theoretical coherence bound
    inherited from the source construction (None for raw ingested
    matrices).  The exact coherence is computed once on demand and
    cached.
    """

    __slots__ = ("n", "N", "w", "positions", "signs", "provenance", "bound",
                 "_mu", "_dense")

    def __init__(self, n: int, w: int, positions: np.ndarray,
                 signs: np.ndarray, provenance: str,
                 bound: Fraction | None = None):
        if not len(positions):
            raise ParameterError("a measurement matrix needs at least one column")
        check_words(n, w, positions, signs, what="column")
        self.n = n
        self.N = len(positions)
        self.w = w
        self.positions = positions
        self.signs = signs
        self.provenance = provenance
        self.bound = bound
        self._mu: Fraction | None = None
        self._dense: np.ndarray | None = None

    def to_dense(self) -> np.ndarray:
        """The n x N float64 array of the columns, cached for OMP,
        admitted at its 8 n N bytes."""
        if self._dense is None:
            admit(f"a dense {self.n} x {self.N} matrix", 8 * self.n * self.N)
            self._dense = np.zeros((self.n, self.N))
            self._dense[self.positions, np.arange(self.N)[:, None]] = self.signs
        return self._dense

    def __repr__(self) -> str:
        return (f"MeasurementMatrix({self.n}x{self.N}, w={self.w}, "
                f"{self.provenance!r})")


def coherence(matrix: MeasurementMatrix) -> Fraction:
    """The exact coherence mu of the matrix, cached on it.

    The largest |<c_i, c_j>| over all column pairs comes from
    codes.array_maxima on the columns (sorted subset keys or float64
    tiles, exact integers either way, every pair covered) or from
    from_code's seed; mu is it over w.  Raises RuntimeError if mu
    exceeds the matrix's theoretical bound; that check is a hard
    assertion and is never skipped.
    """
    if matrix._mu is None:
        top = array_maxima(matrix.n, matrix.positions, matrix.signs)[0]
        matrix._mu = Fraction(top, matrix.w)
    if matrix.bound is not None and matrix._mu > matrix.bound:
        raise RuntimeError(
            f"exact coherence {matrix._mu} exceeds the theoretical bound "
            f"{matrix.bound} ({matrix.provenance})")
    return matrix._mu


# -- constructions --------------------------------------------------------

def from_code(code: CWCode, seed: int | None = None) -> MeasurementMatrix:
    """Codewords as columns, with the code's coherence bound attached.

    A binary code gives coherence <= 1 - d/(2w): two supports share at
    most w - d/2 positions.  A ternary code's inner product of two words
    with s common positions and D sign disagreements among them is
    s - 2D, while the distance works out to 2(w - s) + D.  Distance >= d
    therefore pins the inner product into [-(2w - d), w - d/2]: the
    positive side matches the binary bound, but sign flips are cheap
    (cost 1 each, not 2) and the negative side only vanishes once
    d >= 2w.  The attached bound is the sharp two-sided one,
    min(w, 2w - d)/w.  Both are clamped at 0, since a single-word
    code's sentinel distance n + 1 can push them negative.

    A seed randomizes a binary code's column signs: numpy's PCG64
    generator seeded with it draws one bit per support position, column
    by column, positions ascending (integers(0, 2) shaped like the
    positions), with bit 0 -> +1 and bit 1 -> -1.  The stream layout is
    part of the format, so a given (code, seed) pair always yields the
    same matrix, and the unsigned bound still holds: sign flips never
    increase the magnitude of an integer inner product bounded by the
    support intersection.  The matrix shares the code's positions; with
    the code's signs too (no seed), CWCode.inner seeds its coherence.
    """
    w, d = code.w, code.d
    signs, kind = code.signs, "ternary" if code.signed else "binary"
    bound = (Fraction(max(0, min(w, 2 * w - d)), w) if code.signed
             else Fraction(max(0, 2 * w - d), 2 * w))
    if seed is not None:
        if code.signed:
            raise ParameterError("--signed applies to binary codes only")
        if seed < 0:
            raise ParameterError(f"seed must be >= 0, got {seed}")
        bits = np.random.default_rng(seed).integers(0, 2, code.positions.shape)
        signs = (1 - 2 * bits).astype(np.int8)
        kind = f"signed seed={seed} binary"
    matrix = MeasurementMatrix(code.n, w, code.positions, signs,
                               provenance=f"{kind} {code.provenance}",
                               bound=bound)
    if signs is code.signs:
        matrix._mu = Fraction(code.inner, w)
    return matrix


def devore_bytes(p: int, r: int) -> int:
    """Peak bytes of devore(p, r) and of the support list construct devore
    writes, 40 a position: the build holds 12 (int64 positions, then
    int8 signs and up to three bool masks) and eight block-sized int64
    temporaries; the write, the 9 of positions and signs and format_words'
    26 + D (cells of D digits, sign and separator, three int64 digit
    columns), D <= 5 the digits of p^2 - 1 for fewer than 7M positions."""
    return 40 * power(p, r + 1) + 64 * DEVORE_BLOCK


def devore(p: int, r: int) -> MeasurementMatrix:
    """Polynomial evaluation matrix over GF(p): p^2 rows, p^r columns.

    Rows are pairs (a, b), index a p + b; the column of a polynomial f
    of degree < r has ones exactly on the rows (a, f(a)).  Column j uses
    the base-p digits of j as coefficients (constant term least
    significant); Horner's rule evaluates every column at every point
    at once.  Distinct polynomials of degree < r agree on at most
    min(r - 1, p) points, and that many is reached, so coherence <=
    min(r - 1, p)/p; for r = 2 the value 1/p is attained.  p may be a
    prime power, in which case GF(p) is the extension field.  Its
    devore_bytes are admitted before p is factored.
    """
    if r < 2:
        raise ParameterError(f"need polynomial degree bound r >= 2, got {r}")
    admit(f"building devore({p}, {r})", devore_bytes(p, r))
    field = make_field(*factor_prime_power(p))
    a, step = np.arange(p), max(1, DEVORE_BLOCK // p)
    positions = np.empty((p ** r, p), dtype=np.int64)
    for start in range(0, p ** r, step):  # block-sized field temporaries
        j = np.arange(start, min(start + step, p ** r))[:, None]
        values = 0
        for i in reversed(range(r)):
            values = field.add(field.mul(values, a), j // p ** i % p)
        positions[start:start + step] = a * p + values
    return MeasurementMatrix(p * p, p, positions,
                             np.ones_like(positions, dtype=np.int8),
                             provenance=f"devore p={p} r={r}",
                             bound=Fraction(min(r - 1, p), p))


# -- text formats ---------------------------------------------------------

def admit_dense_csv(matrix: MeasurementMatrix) -> None:
    """Admit dumps_matrix's dense CSV first: 6 bytes an entry (its digit
    cells, np.insert's mask and output, then its bytes and their str),
    48 a position (the indices of the '-' signs)."""
    n, N = matrix.n, matrix.N
    admit(f"writing a dense {n} x {N} matrix as CSV",
          6 * n * N + 48 * N * matrix.w + (1 << 16))


def _text(matrix: MeasurementMatrix, fmt: str) -> bytes:
    if fmt == "dense-csv":
        admit_dense_csv(matrix)
        return textio.format_dense_csv(matrix.n, matrix.positions,
                                       matrix.signs)
    if fmt == "support-list":
        return textio.format_words(matrix.provenance, textio.support_header(
            matrix.n, matrix.w, matrix.bound), matrix.positions, matrix.signs)
    raise ParameterError(f"unknown format {fmt!r}, expected one of {FORMATS}")


def dumps_matrix(matrix: MeasurementMatrix, fmt: str = "support-list") -> str:
    return _text(matrix, fmt).decode("utf-8", "surrogatepass")


def loads_matrix(text: str) -> MeasurementMatrix:
    return matrix_from_lines(*textio.read_lines(text))


def matrix_from_lines(provenance: str, comments: list[tuple[int, str]],
                      data: textio.Lines) -> MeasurementMatrix:
    """loads_matrix on read_lines' split of a text."""
    fmt = textio.matrix_format(comments, data)
    if fmt is None:
        raise FormatError("unrecognized matrix format: expected a '# n <n> w "
                          "<w>' header (support-list) or a CSV row (dense-csv)")
    return (_loads_dense_csv(data) if fmt == "dense-csv"
            else _loads_support_list(provenance, comments, data))


def _loads_support_list(provenance: str, comments: list[tuple[int, str]],
                        lines: textio.Lines) -> MeasurementMatrix:
    """The columns under the dimension header, certified against its bound."""
    n, w, bound = textio.read_support_header(comments)  # saw a '# n'
    try:
        positions, signs = textio.parse_words(lines, True, w, "column")
        matrix = MeasurementMatrix(n, w, positions, signs,
                                   provenance=provenance)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    if bound is not None and (mu := coherence(matrix)) > bound:
        raise FormatError(f"header claims coherence bound {bound} but the "
                          f"columns reach {mu}")
    matrix.bound = bound
    return matrix


def _loads_dense_csv(lines: textio.Lines) -> MeasurementMatrix:
    rows = textio.read_dense_csv(lines)
    positions, cols = np.nonzero(rows)
    order = np.argsort(cols, kind="stable")  # column by column
    weights = np.unique(np.bincount(cols, minlength=rows.shape[1])).tolist()
    if len(weights) != 1:
        raise FormatError(f"column weights differ: {weights}")
    shape = (rows.shape[1], weights[0])
    try:
        return MeasurementMatrix(len(rows), weights[0],
                                 positions[order].reshape(shape),
                                 rows[positions, cols][order].reshape(shape),
                                 provenance="dense-csv")
    except ParameterError as exc:
        raise FormatError(str(exc)) from None


def save_matrix(matrix: MeasurementMatrix, path, fmt: str = "support-list") -> None:
    textio.write_text(path, _text(matrix, fmt))


def load_matrix(path) -> MeasurementMatrix:
    return loads_matrix(textio.read_text(path))
