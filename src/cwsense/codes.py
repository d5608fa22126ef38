"""Constant-weight codes: exact validation, size bounds, constructions.

One type, CWCode, holds binary and ternary codes alike: every word is a
sorted tuple of (position, sign) pairs with signs in {+1, -1}, and a
binary code is the case with every sign +1.  The alphabet is recorded
in CWCode.signed, taken from the construction or the file syntax and
never inferred from the signs, because it picks the file syntax and the
coherence bound a matrix inherits.  Every code object carries a
certified minimum distance d that was recomputed by an exhaustive
pairwise scan (overlap_maxima, shared with matrices.coherence and
designs.certify_subspace_code), never taken on trust from a header or a
construction argument.  The scan's dense array is checked against
DENSE_CAP before it is allocated; the per-word checks (check_words) are
shared with matrices.MeasurementMatrix.

Distances count positions whose symbols differ.  For binary words they
are even, d = 2(w - |A & B|) for supports A and B, so the binary bound
and construction routines take the full distance and insist that it is
even.  Ternary distances can be odd.

All bound values are computed in arbitrary-precision integer
arithmetic with a single floor division at the end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import combinations, product
from typing import Iterable, Sequence

import numpy as np

from .errors import BudgetError, FormatError, ParameterError
from .field import is_prime

ENUM_BUDGET = 10_000_000

BinaryWord = tuple[int, ...]
Word = tuple[tuple[int, int], ...]  # sorted (position, sign) pairs


@dataclass
class CWCode:
    """A constant-weight code over {0, +1, -1} with a certified exact
    distance.

    signed is the alphabet: False for a binary code (every sign +1,
    written as bare positions), True for a ternary one (written with
    signs, even when every sign is +1).  d is the exact minimum pairwise
    distance; a code with fewer than two words gets the sentinel n + 1
    (no pair exists, distance unbounded).
    """
    n: int
    w: int
    d: int
    words: list[Word]
    signed: bool
    provenance: str = "ingested"

    def __len__(self) -> int:
        return len(self.words)


@dataclass
class BoundReport:
    """A named lower bound value together with the parameters it used."""
    name: str
    params: dict
    value: int


# -- exact distances ----------------------------------------------------

def binary_distance(a: BinaryWord, b: BinaryWord, w: int) -> int:
    """Hamming distance between two weight-w supports: 2(w - |A & B|)."""
    return 2 * (w - len(set(a) & set(b)))


def ternary_distance(a: Word, b: Word) -> int:
    """Number of positions whose symbols differ, alphabet {0, +1, -1}."""
    da = dict(a)
    db = dict(b)
    dist = 0
    for pos, sign in da.items():
        if db.get(pos, 0) != sign:
            dist += 1
    for pos in db:
        if pos not in da:
            dist += 1
    return dist


# -- pairwise kernel -----------------------------------------------------

PAIR_TILE = 256  # columns per tile; a tile pair allocates O(PAIR_TILE^2)
DENSE_CAP = 1 << 28  # bytes of dense float64 the kernel may allocate


def check_dense_budget(n: int, N: int, signed: bool = False) -> None:
    """Raise BudgetError when the kernel's dense float64 arrays for N words
    of length n (n x N, doubled for signed words, whose supports need a
    second array) would pass DENSE_CAP bytes."""
    size = 8 * n * N * (2 if signed else 1)
    if size > DENSE_CAP:
        raise BudgetError(f"{n} x {N} dense float64 words need {size} "
                          f"bytes, past the cap {DENSE_CAP}")


def signed_array(n: int, supports: Sequence[Word]) -> np.ndarray:
    """The n x N float64 array whose column j holds signed support j,
    checked against DENSE_CAP before it is allocated."""
    check_dense_budget(n, len(supports),
                       any(s < 0 for sup in supports for _, s in sup))
    a = np.zeros((n, len(supports)))
    for j, sup in enumerate(supports):
        for pos, sign in sup:
            a[pos, j] = sign
    return a


def overlap_maxima(n: int, supports: Sequence[Word]) -> tuple[int, int]:
    """array_maxima of the signed supports' dense array (signed_array)."""
    return array_maxima(signed_array(n, supports))


def array_maxima(a: np.ndarray) -> tuple[int, int]:
    """Exact extremes over all column pairs i < j of a {0, +1, -1} array.

    Returns (max |G_ij|, max (3 S_ij + G_ij) / 2), G the signed inner
    product and S the support overlap; (0, 0) without a pair.  Coherence
    is the first value over w and the minimum distance is 2w minus the
    second, since D sign disagreements on S common positions give
    G = S - 2D and distance 2(w - S) + D.  For an array without -1
    entries S = G, so the second value is 2 max G and S is not formed.
    Float64 column tiles go through BLAS, exact in any summation order
    because every partial sum is an integer of magnitude at most
    n < 2^53; only tile-sized products are allocated, never an N x N
    array.
    """
    b = np.abs(a) if (a < 0).any() else a  # supports; binary words: a
    top_g = top_s = 0
    N, T = a.shape[1], PAIR_TILE
    for i0 in range(0, N, T):
        for j0 in range(i0, N, T):
            g = a[:, i0:i0 + T].T @ a[:, j0:j0 + T]
            if i0 == j0:  # a symmetric tile: drop the diagonal, i != j
                np.fill_diagonal(g, 0)
            top_g = max(top_g, int(g.max()), int(-g.min()))
            if b is not a:
                s = b[:, i0:i0 + T].T @ b[:, j0:j0 + T]
                if i0 == j0:
                    np.fill_diagonal(s, 0)
                s *= 3
                s += g
                top_s = max(top_s, int(s.max()))
    return top_g, 2 * top_g if b is a else top_s // 2


def check_words(n: int, w: int, words: Sequence[Word],
                what: str = "word") -> None:
    """Raise ParameterError unless 1 <= w <= n and every word has w
    distinct positions in [0, n), signs in {+1, -1} and is sorted by
    position.  Codes and matrix columns share it; what names the item
    in messages."""
    if not 1 <= w <= n:
        raise ParameterError(f"need 1 <= w <= n, got w={w} n={n}")
    for i, word in enumerate(words):
        positions = [p for p, _ in word]
        if len(word) != w or len(set(positions)) != w:
            raise ParameterError(f"{what} #{i} does not have weight {w}")
        if any(not 0 <= p < n for p in positions):
            raise ParameterError(f"{what} #{i} has positions outside [0, {n})")
        if any(s not in (1, -1) for _, s in word):
            raise ParameterError(f"{what} #{i} has signs outside {{+1, -1}}")
        if list(word) != sorted(word):
            raise ParameterError(f"{what} #{i} is not sorted by position")


def validate(code: CWCode) -> int:
    """Exhaustively recompute the minimum distance and certify it.

    Checks the words (check_words), rejects duplicates and, in a binary
    code, '-' signs; scans every pair (no early exit), writes the exact
    distance back into code.d and returns it.  A code with fewer than
    two words certifies n + 1.
    """
    check_words(code.n, code.w, code.words)
    seen = set()
    for i, word in enumerate(code.words):
        if not code.signed and any(s < 0 for _, s in word):
            raise ParameterError(f"word #{i} of a binary code has a '-' sign")
        if word in seen:
            raise ParameterError(f"duplicate codeword #{i}")
        seen.add(word)
    code.d = (code.n + 1 if len(code.words) < 2
              else 2 * code.w - overlap_maxima(code.n, code.words)[1])
    return code.d


def certify_binary(n: int, w: int, supports: Iterable[Iterable[int]],
                   provenance: str = "ingested") -> CWCode:
    """A binary CWCode from bare support positions (sorted here),
    certified."""
    code = CWCode(n=n, w=w, d=0, signed=False, provenance=provenance,
                  words=[tuple((p, 1) for p in sorted(sup)) for sup in supports])
    validate(code)
    return code


# -- lower bounds --------------------------------------------------------

def _comb0(a: int, b: int) -> int:
    # comb that is 0 outside the usual domain instead of raising
    if b < 0 or b > a:
        return 0
    return math.comb(a, b)


def _check_nwd(n: int, dist: int, w: int, even: bool) -> None:
    if not 1 <= w <= n:
        raise ParameterError(f"need 1 <= w <= n, got w={w} n={n}")
    if dist < 1:
        raise ParameterError(f"distance must be positive, got {dist}")
    if even and dist % 2:
        raise ParameterError(
            f"binary constant-weight distances are even, got {dist}")


def gilbert_bound(n: int, dist: int, w: int) -> BoundReport:
    """Gilbert-style lower bound on the size of a binary (n, dist, w) code.

    floor(C(n, w) / sum_{i<dist/2} C(w, i) * C(n-w, i)); dist must be even.
    """
    _check_nwd(n, dist, w, even=True)
    d = dist // 2
    denom = sum(_comb0(w, i) * _comb0(n - w, i) for i in range(d))
    value = math.comb(n, w) // denom
    return BoundReport("gilbert", {"n": n, "dist": dist, "w": w}, value)


def smallest_prime_at_least(n: int) -> int:
    p = max(n, 2)
    while not is_prime(p):
        p += 1
    return p


def graham_sloane_bound(n: int, dist: int, w: int) -> BoundReport:
    """Moment-bucket lower bound: floor(C(n, w) / q^(dist/2 - 1)).

    q is the smallest prime >= n, the same prime the matching
    construction buckets with, so bound and construction agree.
    """
    _check_nwd(n, dist, w, even=True)
    q = smallest_prime_at_least(n)
    d = dist // 2
    value = math.comb(n, w) // q ** (d - 1)
    return BoundReport("graham-sloane", {"n": n, "dist": dist, "w": w, "q": q},
                       value)


def _ternary_sphere(n: int, w: int, radius: int) -> int:
    """Number of ternary words within the given distance of a fixed
    weight-w word: sum over i <= radius of
    C(w, j) * C(n-w, j) * C(w-j, i-2j) * 2^j, j up to min(i // 2, n - w).
    """
    total = 0
    for i in range(radius + 1):
        for j in range(min(i // 2, n - w) + 1):
            total += (_comb0(w, j) * _comb0(n - w, j)
                      * _comb0(w - j, i - 2 * j) * (1 << j))
    return total


def ternary_gilbert_bound(n: int, dist: int, w: int) -> BoundReport:
    """Gilbert-style bound for ternary constant-weight codes:
    floor(C(n, w) * 2^w / sphere(dist - 1)).  dist may be odd.
    """
    _check_nwd(n, dist, w, even=False)
    value = (math.comb(n, w) << w) // _ternary_sphere(n, w, dist - 1)
    return BoundReport("ternary-gilbert", {"n": n, "dist": dist, "w": w},
                       value)


# -- constructions -------------------------------------------------------

def greedy_binary(n: int, dist: int, w: int) -> CWCode:
    """Lexicographic greedy: scan weight-w supports in lex order, keep a
    word when it sits at distance >= dist from everything kept so far.

    For even dist the result is at least as large as gilbert_bound.
    """
    _check_nwd(n, dist, w, even=False)  # odd dist allowed, bound not claimed
    if math.comb(n, w) > ENUM_BUDGET:
        raise BudgetError(
            f"C({n},{w}) = {math.comb(n, w)} supports exceed budget {ENUM_BUDGET}")
    # distance 2(w - inter) >= dist  <=>  inter <= w - ceil(dist / 2)
    max_inter = w - (dist + 1) // 2
    kept_masks: list[int] = []
    kept: list[BinaryWord] = []
    for sup in combinations(range(n), w):
        m = 0
        for pos in sup:
            m |= 1 << pos
        ok = True
        for km in kept_masks:
            if (m & km).bit_count() > max_inter:
                ok = False
                break
        if ok:
            kept_masks.append(m)
            kept.append(sup)
    return certify_binary(n, w, kept,
                          provenance=f"greedy n={n} d={dist} w={w}")


_SIGNS = (1, -1)  # enumeration order: plus before minus


def greedy_ternary(n: int, dist: int, w: int) -> CWCode:
    """Greedy over signed supports: supports in lex order (major key),
    sign patterns with + before - at each position (minor key)."""
    _check_nwd(n, dist, w, even=False)
    if math.comb(n, w) * (1 << w) > ENUM_BUDGET:
        raise BudgetError(
            f"{math.comb(n, w)} * 2^{w} signed supports exceed budget {ENUM_BUDGET}")
    kept: list[Word] = []
    for sup in combinations(range(n), w):
        for signs in product(_SIGNS, repeat=w):
            word = tuple(zip(sup, signs))
            if all(ternary_distance(word, other) >= dist for other in kept):
                kept.append(word)
    code = CWCode(n=n, w=w, d=0, words=kept, signed=True,
                  provenance=f"greedy-ternary n={n} d={dist} w={w}")
    validate(code)
    return code


def graham_sloane_construct(n: int, dist: int, w: int) -> CWCode:
    """Moment-bucket construction certified to distance >= dist.

    Buckets every weight-w support by its power-sum moments
    (sum s, sum s^2, ..., sum s^(dist/2 - 1)) mod q with q the smallest
    prime >= n, and returns the largest bucket (ties broken by the
    smallest moment key).  Distinct supports in one bucket differ in
    more than dist/2 - 1 positions, which forces distance >= dist; the
    certification scan double-checks that and a failure would mean an
    implementation bug, so it raises RuntimeError rather than a
    parameter error.
    """
    _check_nwd(n, dist, w, even=True)
    if math.comb(n, w) > ENUM_BUDGET:
        raise BudgetError(
            f"C({n},{w}) = {math.comb(n, w)} supports exceed budget {ENUM_BUDGET}")
    q = smallest_prime_at_least(n)
    d = dist // 2
    buckets: dict[tuple[int, ...], list[BinaryWord]] = {}
    for sup in combinations(range(n), w):
        key = tuple(sum(pow(s, e, q) for s in sup) % q for e in range(1, d))
        buckets.setdefault(key, []).append(sup)
    best_key = min(buckets, key=lambda k: (-len(buckets[k]), k))
    code = certify_binary(n, w, buckets[best_key],
                          provenance=f"graham-sloane n={n} d={dist} w={w} q={q}")
    if len(code) >= 2 and code.d < dist:
        # a single word carries the sentinel distance n + 1, which can sit
        # below dist at tiny n without any promise being broken
        raise RuntimeError(
            f"moment bucket violated its distance promise: {code.d} < {dist}")
    return code


# -- dimension calculators ----------------------------------------------
#
# For a measurement matrix built from an (n, 2(k-1)t, kt) code the
# coherence bound 1 - d/(2w) works out to (1 - 1/k)/t and the usable
# sparsity order is controlled by k and t alone.  These calculators
# answer "how many columns can such a matrix have" directly from
# (n, k, t).

def _check_nkt(n: int, k: int, t: int) -> None:
    if k < 2 or t < 1:
        raise ParameterError(f"need k >= 2 and t >= 1, got k={k} t={t}")
    if n < k * t:
        raise ParameterError(f"need n >= k*t, got n={n} k*t={k * t}")


def dimension_binary_gilbert(n: int, k: int, t: int) -> int:
    """floor(C(n, kt) / sum_{i<(k-1)t} C(kt, i) * C(n-kt, i))."""
    _check_nkt(n, k, t)
    w = k * t
    denom = sum(_comb0(w, i) * _comb0(n - w, i) for i in range((k - 1) * t))
    return math.comb(n, w) // denom


def dimension_binary_gs(n: int, k: int, t: int) -> int:
    """floor(C(n, kt) / n^((k-1)t - 1)).

    Note the denominator uses n itself, not a prime rounded up from n;
    graham_sloane_bound(n, 2(k-1)t, kt) is the prime-based variant and
    the CLI prints both so the difference stays visible.
    """
    _check_nkt(n, k, t)
    w = k * t
    return math.comb(n, w) // n ** ((k - 1) * t - 1)


def dimension_ternary_gilbert(n: int, k: int, t: int) -> int:
    """floor(C(n, kt) * 2^kt / sphere(2(k-1)t - 1)), the ternary analogue."""
    _check_nkt(n, k, t)
    w = k * t
    return (math.comb(n, w) << w) // _ternary_sphere(n, w, 2 * (k - 1) * t - 1)


# -- file format ---------------------------------------------------------
#
# Line-oriented text.  Optional leading comment lines starting with '#'
# ('# provenance: <tag>' is read back), then a header 'n d w', then one
# codeword per line: bare support positions for binary codes, signed
# positions like '+3 -7 +9' for ternary ones (the syntax sets
# CWCode.signed).  Loading recomputes the distance and rejects files
# whose header claims more than the words deliver.

def format_word(word: Word, signed: bool = True) -> str:
    """'+3 -7 +9' for a signed word, '3 7 9' for a binary one."""
    return " ".join(f"{'+' if s > 0 else '-'}{p}" if signed else str(p)
                    for p, s in word)


def parse_word(lineno: int, line: str, signed: bool) -> Word:
    """The sorted word of a data line written by format_word."""
    word = []
    for tok in line.split():
        if (tok[0] in "+-") != signed:
            raise FormatError(f"line {lineno}: expected "
                              f"{'signed' if signed else 'unsigned'} "
                              f"positions, got {tok!r}")
        try:
            word.append((int(tok[1:] if signed else tok),
                         -1 if tok[0] == "-" else 1))
        except ValueError:
            raise FormatError(f"line {lineno}: bad position {tok!r}") from None
    return tuple(sorted(word))


def dumps_code(code: CWCode) -> str:
    lines = [f"# provenance: {code.provenance}",
             f"{code.n} {code.d} {code.w}"]
    lines.extend(format_word(word, code.signed) for word in code.words)
    return "\n".join(lines) + "\n"


def read_lines(text: str) -> tuple[str, list[tuple[int, str]],
                                   list[tuple[int, str]]]:
    """Split a line-oriented file into (provenance, comments, data).

    Blank lines are dropped; comments are the bodies of '#' lines other
    than '# provenance: <tag>' (the last such tag wins, 'ingested' when
    absent); data are the remaining stripped lines.  Both lists carry
    1-based line numbers.  Code, matrix and subspace files share it.
    """
    provenance = "ingested"
    comments: list[tuple[int, str]] = []
    data: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance:"):
                provenance = body[len("provenance:"):].strip()
            else:
                comments.append((lineno, body))
        else:
            data.append((lineno, line))
    return provenance, comments, data


def loads_code(text: str) -> CWCode:
    provenance, _, lines = read_lines(text)
    if not lines:
        raise FormatError("missing 'n d w' header")
    (lineno, header), body = lines[0], lines[1:]
    tokens = header.split()
    if len(tokens) != 3:
        raise FormatError(f"line {lineno}: header must be 'n d w'")
    try:
        n, claimed_d, w = map(int, tokens)
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header") from None
    if n < 1 or w < 1 or claimed_d < 1:
        raise FormatError(f"header values must be positive: {(n, claimed_d, w)}")
    signed = any(tok[0] in "+-" for _, line in body for tok in line.split())
    code = CWCode(n=n, w=w, d=0, signed=signed, provenance=provenance,
                  words=[parse_word(i, line, signed) for i, line in body])
    try:
        validate(code)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    if code.d < claimed_d:
        raise FormatError(
            f"header claims distance {claimed_d} but the words only "
            f"achieve {code.d}")
    return code


def save_code(code: CWCode, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_code(code))


def load_code(path) -> CWCode:
    with open(path, "r", encoding="ascii") as fh:
        return loads_code(fh.read())
