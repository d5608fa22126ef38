"""Constant-weight codes: exact validation, size bounds, constructions.

One type, CWCode, holds binary and ternary codes alike as two N x w
arrays, positions (int64, rows strictly increasing) and signs (+1/-1),
the same pair a matrix's columns use; a binary code has every sign +1.
The alphabet is recorded in CWCode.signed, taken from the construction
or the file syntax and never inferred from the signs, because it picks
the file syntax and the coherence bound a matrix inherits.  A CWCode is
certified by its constructor: its minimum distance d (and max |inner
product|, CWCode.inner) is recomputed over every pair of its words by
array_maxima (shared with matrices and designs), never taken on trust
from a header or a construction argument.  array_maxima admits its scan
(admit_scan, the one estimate of a certification's bytes, which
constructions also call before they build), then answers on one of two
exact paths.  The subset path sorts int64 keys of each word's s-subsets
of positions: two words share at least s positions exactly when they
share an s-subset, so the largest overlap is s - 1 at the first s
without a repeated key.  It answers for binary words, and for signed
words whose supports meet in at most one position, where the two signs
there fix the inner product.  Other signed words, and levels whose keys
would take more memory than the word tiles or pass int64, go to products
of float64 word tiles.  Neither path allocates an n x N array.
check_words is shared with matrices; repeated_rows names a repeat only
after array_maxima finds one, and finds duplicate subspaces in designs.

Distances count positions whose symbols differ.  For binary words they
are even, d = 2(w - |A & B|) for supports A and B, so the binary bound
and construction routines take the full distance and insist that it is
even.  Ternary distances can be odd.

All bounds are arbitrary-precision integer arithmetic ending in one
ceiling division (gilbert_bound, graham_sloane_bound,
ternary_gilbert_bound) or one floor division (moment_dimension).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations, product

import numpy as np

from . import textio
from .errors import FormatError, ParameterError, admit, power
from .field import is_prime


@dataclass(eq=False)
class CWCode:
    """A constant-weight code over {0, +1, -1}, certified as it is made.

    Word i is row i of positions (an N x w int64 array, each row
    strictly increasing) with the matching row of signs (+1/-1, int8).
    signed is the alphabet: False for a binary code (every sign +1,
    written as bare positions), True for a ternary one (written with
    signs, even when every sign is +1).  The constructor certifies the
    words, raising ParameterError: check_words, no '-' sign in a binary
    code, then one scan of every pair (array_maxima, no early exit).  d
    is the exact minimum pairwise distance; a code with fewer than two
    words gets the sentinel n + 1 (no pair exists, distance unbounded).
    inner is the exact max |<word_i, word_j>|, 0 without a pair.  The
    scan's (3S + G) / 2 is 2w exactly when two words are equal (G <= S
    <= w; a negation gives w), and only then repeated_rows names the
    first repeat, keyed 2x + 1 for a '-' sign.
    """
    n: int
    w: int
    positions: np.ndarray
    signs: np.ndarray
    signed: bool
    provenance: str = "ingested"
    d: int = field(init=False)
    inner: int = field(init=False)

    def __post_init__(self) -> None:
        positions, signs = self.positions, self.signs
        check_words(self.n, self.w, positions, signs)
        if not self.signed and (bad := (signs < 0).any(axis=1)).any():
            raise ParameterError(
                f"word #{int(bad.argmax())} of a binary code has a '-' sign")
        self.inner, top_s = array_maxima(self.n, positions, signs)
        if top_s == 2 * self.w:
            repeat = repeated_rows((positions << 1) | (signs < 0))
            raise ParameterError(f"duplicate codeword #{int(repeat.argmax())}")
        self.d = self.n + 1 if len(positions) < 2 else 2 * self.w - top_s

    def __len__(self) -> int:
        return len(self.positions)


# -- pairwise kernel -----------------------------------------------------

PAIR_TILE = 256  # words per tile; a pair of tiles allocates O(PAIR_TILE n)


def array_maxima(n: int, positions: np.ndarray,
                 signs: np.ndarray) -> tuple[int, int]:
    """Exact extremes over all pairs i < j of the N words of length n.

    Returns (max |G_ij|, max (3 S_ij + G_ij) / 2), G the signed inner
    product and S the support overlap; (0, 0) without a pair.  Coherence
    is the first value over w and the minimum distance is 2w minus the
    second, since D sign disagreements on S common positions give
    G = S - 2D and distance 2(w - S) + D.  For words without a -1 sign
    S = G, so the second value is 2 max G.

    The words are admitted first (admit_scan), whichever path answers,
    so both refuse the same inputs.
    _subset_maxima finds the largest S from sorted integer keys for
    words without a -1 sign and for signed words with S <= 1; other
    signed words, and words whose keys would take more memory than the
    word tiles or pass int64, go to the float64 tiles of _tile_maxima.
    """
    N, w = positions.shape
    signed = bool((signs < 0).any())
    admit_scan(n, N, w, signed, f"certifying {N} words of length {n}")
    top = _subset_maxima(n, positions, signs)
    return _tile_maxima(n, positions, signs, signed) if top is None else top


def admit_scan(n: int, N: int, w: int, signed: bool, what: str) -> None:
    """Admit array_maxima's scan of N words of weight w and length n (with
    a -1 sign if signed): the larger of their dense float64 size, 8 n N
    bytes, and the arrays _tile_maxima holds (_tile_layout).  Every
    estimate of a certification's bytes is this one, so a construction
    that calls it before building refuses what the scan would refuse."""
    admit(what, max(8 * n * N, 8 * sum(
        math.prod(shape) for shape in _tile_layout(n, N, w, signed))))


def _tile_layout(n: int, N: int, w: int,
                 signed: bool) -> tuple[tuple[int, ...], ...]:
    """Shapes of the 8-byte arrays _tile_maxima holds at its peak: two
    tiles of words and one pair's products (G, then 3S + G for signed
    words), allocated once, and one tile's scatter (its int64 indices
    and float64 values)."""
    t = min(N, PAIR_TILE)
    return (min(N, 2 * t), n), (1 + signed, t * t), (2, t, w)


def _lex_supports(n: int, w: int) -> np.ndarray:
    """The w-subsets of range(n) in lexicographic order, one a row of a
    C(n, w) x w int64 array.  Row r has entries s_0 < ... < s_(w-1) with
    C(n, w) - 1 - r = sum_i C(n - 1 - s_i, w - i), so each column is
    decoded from the rows' remainders by one search in a table of
    C(x, j) over x < n, j = w - i (capped at C(n, w), which no
    remainder reaches)."""
    count = math.comb(n, w)
    tables = [np.ones(n, dtype=np.int64)]  # C(x, 0); then C(x, j) by Pascal
    for _ in range(w):
        tables.append(np.minimum(np.cumsum(tables[-1]) - tables[-1], count))
    rest = np.arange(count - 1, -1, -1)
    supports = np.empty((count, w), dtype=np.int64)
    for i in range(w):
        x = np.searchsorted(tables[w - i], rest, "right") - 1
        rest -= tables[w - i][x]
        supports[:, i] = n - 1 - x
    return supports


def _subset_maxima(n: int, positions: np.ndarray,
                   signs: np.ndarray) -> tuple[int, int] | None:
    """array_maxima from sorted s-subset keys, without products.

    Two distinct words share at least s positions exactly when they
    share some s-subset of positions.  Level s writes each word's
    C(w, s) subsets as int64 keys (base-n digits, one word's keys all
    distinct as its positions are) and sorts them: the largest overlap
    S is s - 1 at the first level without a repeated key, or w when
    level w repeats (a repeated support).  Words without a -1 sign have
    G = S, so the answer is (S, 2S).  For signed words S = 0 gives
    (0, 0), and S = 1 gives max |G| = 1 with the one shared position
    deciding G: the second value is 2 when some (position, sign) key
    repeats (G = +1) and 1 otherwise (G = -1 only).

    Level s holds about 8 C(w, s) (2N + 3s) bytes: the keys, one
    gathered digit of theirs and the subset table as it is built.  It
    is built only while that fits in the word tiles _tile_maxima holds
    at once (_tile_layout's first shape), so this path never needs
    more memory than the tiles, and only while its keys fit int64
    (n^s < 2^62).  Returns None for the tiles when a level does not,
    and for signed words with S >= 2.
    """
    N, w = positions.shape
    if N < 2:
        return 0, 0
    signed = bool((signs < 0).any())
    tiles = 8 * math.prod(_tile_layout(n, N, w, signed)[0])
    overlap = 0
    for s in range(1, w + 1):
        if (8 * math.comb(w, s) * (2 * N + 3 * s) > tiles
                or n ** s >= 1 << 62):
            return None
        subsets = _lex_supports(w, s)
        keys = positions[:, subsets[:, 0]]
        for column in subsets.T[1:]:
            keys *= n
            keys += positions[:, column]
        keys = keys.reshape(-1)
        keys.sort()
        if not (keys[1:] == keys[:-1]).any():
            break
        overlap = s
        if signed and s == 2:
            return None
    if not signed:
        return overlap, 2 * overlap
    if overlap == 0:
        return 0, 0
    keys = (2 * positions + (signs < 0)).reshape(-1)
    keys.sort()
    return 1, 2 if (keys[1:] == keys[:-1]).any() else 1


def _tile_maxima(n: int, positions: np.ndarray, signs: np.ndarray,
                 signed: bool) -> tuple[int, int]:
    """array_maxima by products of float64 word tiles.

    Scatters PAIR_TILE words at a time into a word-major float64 tile
    for BLAS, exact in any summation order as every partial sum is an
    integer of magnitude at most n < 2^53.  Two tiles of words and
    their product (and for signed words the overlaps' product, from the
    tiles made absolute in place) are allocated once for all pairs; one
    tile's scatter (its indices and values) is the only other array, no
    n x N or N x N one.  Words without a -1 sign skip the overlaps.
    """
    (N, w), T = positions.shape, PAIR_TILE
    rows, products = map(np.empty, _tile_layout(n, N, w, signed)[:2])

    def tile(i0, at):  # words i0 .. i0 + T - 1 into rows at ..
        t = rows[at:at + min(T, N - i0)]
        t[:] = 0
        t[np.arange(len(t))[:, None], positions[i0:i0 + T]] = signs[i0:i0 + T]
        return t

    top_g = top_s = 0
    for i0 in range(0, N, T):
        a = tile(i0, 0)
        for j0 in range(i0, N, T):
            b = a if i0 == j0 else tile(j0, T)
            g = products[0, :len(a) * len(b)].reshape(len(a), len(b))
            np.matmul(a, b.T, out=g)
            if i0 == j0:  # a symmetric tile: drop the diagonal, i != j
                np.fill_diagonal(g, 0)
            top_g = max(top_g, int(g.max()), int(-g.min()))
            if signed:  # the supports' overlaps, from absolute tiles
                s = products[1, :g.size].reshape(g.shape)
                np.matmul(np.abs(a, out=a), np.abs(b, out=b).T, out=s)
                if i0 == j0:
                    np.fill_diagonal(s, 0)
                s *= 3
                s += g
                top_s = max(top_s, int(s.max()))
                a = tile(i0, 0)  # its signs back
    return top_g, top_s // 2 if signed else 2 * top_g


def check_words(n: int, w: int, positions: np.ndarray, signs: np.ndarray,
                what: str = "word") -> None:
    """Raise ParameterError unless 1 <= w <= n and every word has w
    positions in [0, n), strictly increasing, and signs in {+1, -1}.
    Codes and matrix columns share it; messages name the first what
    (word or column) failing the first of these checks that fails.  A
    repeat is caught where it is adjacent (a weight error); any other
    makes the row unsorted.  Only bool arrays are formed, no copy of
    the positions."""
    if not 1 <= w <= n:
        raise ParameterError(f"need 1 <= w <= n, got w={w} n={n}")
    left, right = positions[:, :-1], positions[:, 1:]
    for bad, message in (
            ((right == left).any(axis=1) | (positions.shape[1] != w),
             f"does not have weight {w}"),
            (((positions < 0) | (positions >= n)).any(axis=1),
             f"has positions outside [0, {n})"),
            (((signs != 1) & (signs != -1)).any(axis=1),
             "has signs outside {+1, -1}"),
            ((right < left).any(axis=1), "is not sorted by position")):
        if bad.any():
            raise ParameterError(f"{what} #{int(bad.argmax())} {message}")


def repeated_rows(rows: np.ndarray) -> np.ndarray:
    """Mask of the rows of a 2-D integer array equal to an earlier row.
    A stable sort of the rows, each viewed as one string of bytes (not
    one lexsort key per column), puts each repeat right after an equal
    row with a smaller index, so comparing neighbours finds every one.
    The sorted rows are gathered about 256 KiB at a time, never whole."""
    rows = np.ascontiguousarray(rows)
    width = rows.itemsize * rows.shape[1]
    order = np.argsort(rows.view(f"V{width}").ravel(),
                       kind="stable") if rows.size else np.arange(len(rows))
    repeated = np.zeros(len(rows), dtype=bool)
    step = max(1, (1 << 18) // max(width, 1))
    for start in range(1, len(rows), step):
        near = rows[order[start - 1:start + step]]
        repeated[order[start:start + step]] = (near[1:] == near[:-1]).all(
            axis=1)
    return repeated


def as_points(values, shape: tuple, bound: int, what: str) -> np.ndarray:
    """values as an int64 array of the given shape with entries in
    [0, bound), else a ParameterError; 1.5 and 2^70 (an object array)
    are outside, caught before the cast would truncate or overflow.  An
    int64 array comes back as it is, not copied."""
    try:
        a = np.asarray(values)
        if a.shape != shape:
            raise ValueError  # ragged rows raise here too
    except ValueError:
        raise ParameterError(f"{what}s do not form a {shape} array") from None
    inside = (a >= 0) & (a < bound)
    if not np.issubdtype(a.dtype, np.integer):
        inside &= a % 1 == 0
    bad = ~inside.all(axis=tuple(range(1, a.ndim)))
    if bad.any():
        raise ParameterError(
            f"{what} #{int(bad.argmax())} has entries outside [0, {bound})")
    return a.astype(np.int64, copy=False)


def certify_binary(n: int, w: int, supports,
                   provenance: str = "ingested") -> CWCode:
    """A binary CWCode from an N x w array-like of bare support positions
    in [0, n) (each row sorted here), certified."""
    positions = np.sort(as_points(supports, (len(supports), w), n, "word"),
                        axis=1)
    return CWCode(n, w, positions, np.ones_like(positions, dtype=np.int8),
                  False, provenance)


# -- lower bounds --------------------------------------------------------

def _check_nwd(n: int, dist: int, w: int, even: bool) -> None:
    if not 1 <= w <= n:
        raise ParameterError(f"need 1 <= w <= n, got w={w} n={n}")
    if dist < 1:
        raise ParameterError(f"distance must be positive, got {dist}")
    if even and dist % 2:
        raise ParameterError(
            f"binary constant-weight distances are even, got {dist}")


def _word_count(n: int, w: int, sign_bits: int) -> int:
    """C(n, w) 2^sign_bits, an enumeration's steps, or 2^64 where C(n, w)
    >= 2^min(w, n - w) puts it past every budget before it is formed."""
    bits = min(w, n - w) + sign_bits
    return math.comb(n, w) << sign_bits if bits < 64 else 1 << 64


def _bound_work(terms: int, n: int, w: int) -> int:
    """Steps of a bound: terms big-integer terms of n bits and C(n, w),
    which math.comb builds from min(w, n - w) factors: as many terms."""
    return (terms + min(w, n - w)) * n


def gilbert_bound(n: int, dist: int, w: int) -> int:
    """Gilbert-style lower bound on the size of a binary (n, dist, w) code.

    ceil(C(n, w) / sum_{i<dist/2} C(w, i) * C(n-w, i)); dist must be even.
    Each word a greedy scan keeps excludes at most that sum of words, so
    it keeps at least the ceiling.
    """
    _check_nwd(n, dist, w, even=True)
    d = dist // 2
    admit("the gilbert bound", _bound_work(d, n, w), "steps")
    denom = sum(math.comb(w, i) * math.comb(n - w, i) for i in range(d))
    return -(-math.comb(n, w) // denom)


def smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    admit(f"a prime search from {p}", math.isqrt(p), "steps")
    while not is_prime(p):
        p += 1
    return p


def graham_sloane_bound(n: int, dist: int, w: int) -> int:
    """Moment-bucket lower bound: ceil(C(n, w) / q^(dist/2 - 1)), the
    size of the largest of the q^(dist/2 - 1) buckets at the least.

    q is the smallest prime >= n, the same prime the matching
    construction buckets with, so bound and construction agree.
    """
    _check_nwd(n, dist, w, even=True)
    d = dist // 2
    admit("the graham-sloane bound", _bound_work(d - 1, n, w), "steps")
    q = smallest_prime_at_least(n)
    return -(-math.comb(n, w) // q ** (d - 1))


def _ternary_sphere(n: int, w: int, radius: int) -> int:
    """Number of ternary words within the given distance of a fixed
    weight-w word: sum over i <= radius of
    C(w, j) * C(n-w, j) * C(w-j, i-2j) * 2^j, j up to min(i // 2, n - w,
    w) (C(w, j) = 0 past w).
    """
    total = 0
    for i in range(radius + 1):
        for j in range(min(i // 2, n - w, w) + 1):
            total += (math.comb(w, j) * math.comb(n - w, j)
                      * math.comb(w - j, i - 2 * j) << j)
    return total


def ternary_gilbert_bound(n: int, dist: int, w: int) -> int:
    """Gilbert-style bound for ternary constant-weight codes:
    ceil(C(n, w) * 2^w / sphere(dist - 1)), as gilbert_bound's argument
    gives.  dist may be odd.  Admitted at the terms _ternary_sphere sums.
    """
    _check_nwd(n, dist, w, even=False)
    terms = dist * (min((dist - 1) // 2, n - w, w) + 1)
    admit("the ternary-gilbert bound", _bound_work(terms, n, w), "steps")
    return -(-(math.comb(n, w) << w) // _ternary_sphere(n, w, dist - 1))


# -- constructions -------------------------------------------------------

def greedy_binary(n: int, dist: int, w: int) -> CWCode:
    """Lexicographic greedy: scan weight-w supports in lex order, keep a
    word when it sits at distance >= dist from everything kept so far.

    For even dist the result is at least as large as gilbert_bound.
    """
    return _greedy(n, dist, w, (1,), "greedy")


def greedy_ternary(n: int, dist: int, w: int) -> CWCode:
    """Greedy over signed supports: supports in lex order (major key),
    sign patterns with + before - at each position (minor key)."""
    return _greedy(n, dist, w, (1, -1), "greedy-ternary")


def _greedy(n: int, dist: int, w: int, sign_set: tuple[int, ...],
            name: str) -> CWCode:
    """The lexicographic greedy over words with signs from sign_set.
    Position x of a word is the three bits at 3x of a mask, 000 for 0,
    110 for + and 101 for -, pairwise two bits apart: the popcount of
    two masks' XOR is twice the number of positions where they differ.
    Three bits are one octal digit, so a mask is read from its n digits,
    position n - 1 first, in one linear int(..., 8)."""
    _check_nwd(n, dist, w, even=False)
    admit(f"enumerating C({n},{w}) * {len(sign_set)}^{w} words",
          _word_count(n, w, w * (len(sign_set) - 1)), "steps")
    # the first word, all '+', is always kept
    admit_scan(n, 1, w, False, f"certifying the first word of {name}")
    patterns = list(product(sign_set, repeat=w))
    kept: list[int] = []
    positions, signs = [], []
    limit = 2 * dist
    digit = {1: ord("6"), -1: ord("5")}
    for sup in combinations(range(n), w):
        for pattern in patterns:
            digits = bytearray(b"0" * n)
            for p, g in zip(sup, pattern):
                digits[~p] = digit[g]
            mask = int(digits, 8)
            for other in kept:
                if (mask ^ other).bit_count() < limit:
                    break
            else:
                kept.append(mask)
                positions.append(sup)
                signs.append(pattern)
    return CWCode(n, w, np.array(positions), np.array(signs, dtype=np.int8),
                  len(sign_set) > 1, f"{name} n={n} d={dist} w={w}")


def graham_sloane_construct(n: int, dist: int, w: int) -> CWCode:
    """Moment-bucket construction certified to distance >= dist.

    Buckets every weight-w support by its power-sum moments
    (sum s, sum s^2, ..., sum s^(dist/2 - 1)) mod q with q the smallest
    prime >= n, and returns the largest bucket (ties broken by the
    smallest moment key).  Distinct supports in one bucket differ in
    more than dist/2 - 1 positions, which forces distance >= dist; the
    certification scan double-checks that and a failure would mean an
    implementation bug, so it raises RuntimeError rather than a
    parameter error.  Keys stop at w moments: for w < q Newton's
    identities make the first w separate all supports (w = q leaves
    one), so each bucket holds one and those w decide the smallest key.

    The supports are enumerated once, into a C(n, w) x w int64 array in
    lexicographic order (_lex_supports), their moments mod q are rows
    of big-endian int32, one power at a time, and one np.unique over
    the rows buckets them, keys sorted, so argmax takes the smallest of
    the largest.  Admitted first: the certification of the largest of
    the q^(dist/2 - 1) buckets, at least ceil(C(n, w) / q^(dist/2 - 1))
    words, and the peak bytes of those arrays; then the chosen bucket
    with its certification, at 8 (n + w) bytes a word.
    """
    _check_nwd(n, dist, w, even=True)
    count = _word_count(n, w, 0)
    admit(f"enumerating C({n},{w}) supports", count, "steps")
    q = smallest_prime_at_least(n)
    d, m = dist // 2, min(dist // 2, w + 1) - 1
    admit_scan(n, -(-count // power(q, d - 1)), w, False,
               f"certifying the largest of {q}^{d - 1} buckets of C({n},{w})")
    # _lex_supports' w + 1 tables of n int64 and 8 (w + 3) bytes a support
    # (the supports, the remainders, two columns in flight), or np.unique's
    # peak: the supports, three copies of the key rows (the keys, a flat and
    # a sorted copy), 25 bytes a support for the order, mask and inverse,
    # and width + 24 for each of at most min(C(n, w), q^m) distinct keys
    width = 4 * max(m, 1)  # bytes a key row; m = 0: one zero key for all
    admit(f"bucketing C({n},{w}) supports by {m} moments mod {q}", max(
        8 * count * (w + 3) + 8 * (w + 1) * n,
        count * (8 * w + 3 * width + 25)
        + min(count, power(q, m)) * (width + 24)) + (1 << 16))
    supports = _lex_supports(n, w)
    # big-endian, so a key row's bytes sort as its moments do
    keys = np.zeros((len(supports), width // 4), dtype=">i4")
    power_of = np.ones(n, dtype=np.int64)  # s^e mod q, e = 1 .. m
    for e in range(m):
        power_of = power_of * np.arange(n) % q
        keys[:, e] = sum(power_of[column] for column in supports.T) % q
    bucket, sizes = np.unique(keys.view(f"V{width}")[:, 0],
                              return_inverse=True, return_counts=True)[1:]
    del keys
    admit(f"certifying a bucket of {int(sizes.max())} supports",
          8 * (n + w) * int(sizes.max()))
    supports = supports[bucket == sizes.argmax()]
    del bucket
    code = certify_binary(n, w, supports,
                          provenance=f"graham-sloane n={n} d={dist} w={w} q={q}")
    if len(code) >= 2 and code.d < dist:
        # a single word carries the sentinel distance n + 1, which can sit
        # below dist at tiny n without any promise being broken
        raise RuntimeError(
            f"moment bucket violated its distance promise: {code.d} < {dist}")
    return code


# -- dimension calculators ----------------------------------------------
#
# A binary (n, 2(k-1)t, kt) code has overlaps of at most kt - (k-1)t = t,
# so the matrix built from it has coherence mu <= t/(kt) = 1/k, and its
# sparsity order follows from k alone.  "How many columns can such a
# matrix have" is therefore a size bound at the (dist, w) below.

def dimension_params(n: int, k: int, t: int) -> tuple[int, int]:
    """(dist, w) = (2(k-1)t, kt), the code behind the dimension N(n, k, t)."""
    if k < 2 or t < 1:
        raise ParameterError(f"need k >= 2 and t >= 1, got k={k} t={t}")
    if n < k * t:
        raise ParameterError(f"need n >= k*t, got n={n} k*t={k * t}")
    return 2 * (k - 1) * t, k * t


def moment_dimension(n: int, dist: int, w: int) -> int:
    """floor(C(n, w) / n^(dist/2 - 1)).  n is not a bucket count, so,
    unlike the other bounds, no argument raises this to the ceiling.

    Note the denominator uses n itself, not a prime rounded up from n;
    graham_sloane_bound is the prime-based variant and the CLI prints
    both so the difference stays visible.
    """
    _check_nwd(n, dist, w, even=True)
    d = dist // 2
    admit("the moment dimension", _bound_work(d - 1, n, w), "steps")
    return math.comb(n, w) // n ** (d - 1)


# -- code files -----------------------------------------------------------

def _words(code: CWCode) -> bytes:
    return textio.format_words(code.provenance, f"{code.n} {code.d} {code.w}",
                               code.positions,
                               code.signs if code.signed else None)


def dumps_code(code: CWCode) -> str:
    return _words(code).decode("utf-8", "surrogatepass")


def loads_code(text: str) -> CWCode:
    provenance, _, data = textio.read_lines(text)
    return code_from_lines(provenance, data)


def code_from_lines(provenance: str, data: textio.Lines) -> CWCode:
    """loads_code on the provenance and data lines read_lines splits off."""
    n, claimed_d, w, body = textio.read_header(data, "n d w")
    if n < 1 or w < 1 or claimed_d < 1:
        raise FormatError(f"header values must be positive: {(n, claimed_d, w)}")
    signed = len(body) > 0 and body.line(0)[0] in "+-"  # first word's syntax
    try:
        code = CWCode(n, w, *textio.parse_words(body, signed, w), signed,
                      provenance)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    if code.d < claimed_d:
        raise FormatError(
            f"header claims distance {claimed_d} but the words only "
            f"achieve {code.d}")
    return code


def save_code(code: CWCode, path) -> None:
    textio.write_text(path, _words(code))


def load_code(path) -> CWCode:
    return loads_code(textio.read_text(path))
