"""Combinatorial designs that yield good constant-weight codes.

Three families live here:

* Steiner triple systems on n points (n = 1, 3 mod 6), built by the
  quasigroup constructions over Z_m x {0, 1, 2}.  They are returned as
  the (n, 4, 3) code of their n(n-1)/6 blocks (steiner_code).
* Lines of the affine plane over GF(q), the columns of devore(q, 2)
  and the q verticals: a (q^2, 2(q-1), q) code of q^2 + q words.
* Constant-dimension subspace codes in GF(q)^n, in particular spreads,
  with two binary constant-weight codes: SubspaceCode.binary, one word
  per subspace, and subspace_to_coset_code, one per proper coset
  (exactly N (q^(n-k) - 1)).

Designs are int64 arrays: N x 3 blocks, N x k x n subspace bases, all
row-reduced at once.  Every derived code goes through the exhaustive
distance certification in codes.py.  A subspace code is certified where
it is made, in SubspaceCode's constructor, once, as the binary code of
its nonzero points: subspaces meeting in q^dim points share q^dim - 1
nonzero ones, which gives the subspace distance exactly, and
SubspaceCode.binary is that code.  So is a triple system: n(n-1)/6
blocks meeting pairwise in at most one point cover every pair.
"""

from __future__ import annotations

from dataclasses import InitVar, dataclass, field as dc_field

import numpy as np

from . import matrices, textio
from .codes import (CWCode, admit_scan, as_points, certify_binary,
                    repeated_rows)
from .errors import FormatError, ParameterError, admit, power
from .field import (FiniteField, factor_prime_power, find_irreducible,
                    make_field)


# -- Steiner triple systems ----------------------------------------------

def steiner_code(n: int, blocks, tag: str) -> CWCode:
    """The certified (n, 4, 3) code of a Steiner triple system's blocks
    on the points {0..n-1}: an array-like of n(n-1)/6 triples, each row
    sorted here.  Its inner <= 1 certifies that every pair of points
    lies in exactly one block (the single block of STS(3) gets the
    sentinel distance n + 1)."""
    if len(blocks) != n * (n - 1) // 6:
        raise ParameterError(f"STS({n}) has {n * (n - 1) // 6} blocks, "
                             f"got {len(blocks)}")
    code = certify_binary(n, 3, blocks, provenance=f"steiner-{tag} n={n}")
    if code.inner > 1:
        raise ParameterError("two blocks cover the same pair of points")
    return code


def make_sts(n: int) -> CWCode:
    """A Steiner triple system on n points by a quasigroup construction
    over Z_m x {0, 1, 2}, m = n // 3, point (i, l) indexed 3i + l.

    Bose's, for n = 3 mod 6 (m odd, tag bose), uses the idempotent
    commutative quasigroup x o y = (x + y) / 2 mod m.  Skolem's, for
    n = 6s + 1 >= 7 (m = 2s, tag skolem), uses the half-idempotent one
    x o y = pi(x + y mod 2s), pi(2i) = i and pi(2i + 1) = i + s, and
    one extra point n - 1.  The blocks, in order: {3i, 3i + 1, 3i + 2}
    for i < m (Bose) or i < s (Skolem); Skolem's {n - 1, 3(s + i) + l,
    3i + (l + 1) mod 3} for i < s, l = 0, 1, 2; then {3x + l, 3y + l,
    3(x o y) + (l + 1) mod 3} for x < y (combinations order) and l = 0,
    1, 2.  Certifying the n(n-1)/6 blocks is admitted first.
    """
    if n < 3 or n % 6 not in (1, 3):
        raise ParameterError(f"a Steiner triple system needs n >= 3 and "
                             f"n = 1 or 3 mod 6, got {n}")
    admit_scan(n, n * (n - 1) // 6, 3, False, f"certifying STS({n})")
    m = n // 3
    x, level = np.arange(m), np.arange(3)
    v = (x[:, None] + x) % m
    if n % 6 == 3:
        table, heads, extra, tag = v * ((m + 1) // 2) % m, m, [], "bose"
    else:
        s = m // 2
        table, heads, tag = v // 2 + v % 2 * s, s, "skolem"
        extra = [np.stack(np.broadcast_arrays(
            n - 1, 3 * (s + x[:s, None]) + level,
            3 * x[:s, None] + (level + 1) % 3), axis=2).reshape(-1, 3)]
    x, y = np.triu_indices(m, 1)
    triples = np.stack([3 * x[:, None] + level, 3 * y[:, None] + level,
                        3 * table[x, y][:, None] + (level + 1) % 3], axis=2)
    return steiner_code(n, np.concatenate([
        3 * np.arange(heads)[:, None] + level, *extra,
        triples.reshape(-1, 3)]), tag)


# -- affine plane lines ---------------------------------------------------

def affine_plane_code(q: int) -> CWCode:
    """Lines of AG(2, q) as supports: a (q^2, 2(q-1), q) code, q^2 + q words.

    Point (x, y) gets index x * q + y.  Lines y = a*x + b come first,
    ordered by (a, b): they are the columns of devore(q, 2).  Then the
    verticals x = c.  The certification is admitted before q is factored.
    """
    if q > 1:  # factoring refuses the rest at once
        admit_scan(q * q, q * q + q, q, False,
                   f"certifying the lines of AG(2, {q})")
    words = np.concatenate([matrices.devore(q, 2).positions,
                            np.arange(q * q).reshape(q, q)])  # x = c
    return certify_binary(q * q, q, words, provenance=f"affine q={q}")


# -- subspace codes -------------------------------------------------------

def _rref(field: FiniteField,
          stack: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """RREF over the field of every item of an N x k x n int64 stack,
    one column at a time for all items; returns the reduced stack (rank
    r < k leaves k - r zero rows) and the N ranks."""
    rows = stack.copy()
    rank = np.zeros(len(rows), dtype=np.int64)
    below = np.arange(rows.shape[1])
    for c in range(rows.shape[2]):
        found = (rows[:, :, c] != 0) & (below >= rank[:, None])
        at = np.flatnonzero(found.any(axis=1))
        r, piv = rank[at], found[at].argmax(axis=1)
        rows[at, r], rows[at, piv] = rows[at, piv], rows[at, r]
        scale = field.inv(rows[at, r, c])[:, None]
        rows[at, r] = field.mul(scale, rows[at, r])
        factors = np.where(below == r[:, None], 0, rows[at, :, c])
        rows[at] = field.sub(rows[at], field.mul(factors[:, :, None],
                                                 rows[at, r][:, None]))
        rank[at] += 1
    return rows, rank


def _subspace_bytes(q: int, n: int, k: int, N: int) -> int:
    """Peak bytes of certifying N k-subspaces of GF(q)^n, q >= 2: 10 int64
    per entry of the N x k x n bases as they are reduced, 10 per point of
    _span_points and their code, and the N words array_maxima admits."""
    return 8 * N * (10 * k * n + 10 * power(q, k) + power(q, n)) + (1 << 16)


def _span_points(field: FiniteField, bases: np.ndarray) -> np.ndarray:
    """N x q^k array whose row i holds the sorted base-q encodings of the
    points of the rank-k subspace spanned by bases[i] (an N x k x n
    coordinate array), zero first; each basis row multiplies the point
    set by q through its q multiples."""
    q, n = field.q, bases.shape[2]
    scalars = np.arange(q)[:, None, None]
    points = np.zeros((len(bases), 1), dtype=np.int64)
    for i in range(bases.shape[1]):
        multiples = field.mul(scalars, bases[:, i]) @ q ** np.arange(n)
        points = field.add(points[:, :, None], multiples.T[:, None], n)
        points = points.reshape(len(bases), q ** (i + 1))
    points.sort(axis=1)
    return points


@dataclass(eq=False)
class SubspaceCode:
    """k-dimensional subspaces of GF(q)^n, certified as they are made.

    The constructor takes bases, an N x k x n array-like of coordinates
    (N >= 1), and raises ParameterError for other shapes, entries
    outside [0, q), rank defects and duplicates.  Admitted first
    (_subspace_bytes), one _rref pass reduces all N bases to subspaces,
    an N x k x n int64 array, and binary certifies them: a binary
    (q^n - 1, q^k - 1) code, word i the nonzero points of subspace i as
    sorted base-q encodings minus one.  Two subspaces meet in t = q^dim
    points exactly when their nonzero points meet in t - 1, so t is
    binary's inner + 1 and d = 2k - 2 dim (the sentinel 2k for one
    subspace).  d, subspaces and binary cannot be passed in.
    """
    field: FiniteField
    n: int
    k: int
    bases: InitVar[object]
    provenance: str = "ingested"
    d: int = dc_field(init=False)
    subspaces: np.ndarray = dc_field(init=False)
    binary: CWCode = dc_field(init=False, repr=False)

    def __post_init__(self, bases) -> None:
        field, n, k, q = self.field, self.n, self.k, self.field.q
        if not 1 <= k <= n:
            raise ParameterError(f"need 1 <= k <= n, got k={k} n={n}")
        admit(f"certifying {len(bases)} subspaces of GF({q})^{n}",
              _subspace_bytes(q, n, k, len(bases)))
        if not len(bases):
            raise ParameterError("a subspace code needs at least one subspace")
        bases = as_points(bases, (len(bases), k, n), q, "basis")
        bases, rank = _rref(field, bases)
        if (short := rank < k).any():
            i = int(short.argmax())
            raise ParameterError(
                f"basis #{i} has rank {rank[i]}, expected {k}")
        if (repeated := repeated_rows(bases.reshape(len(bases), -1))).any():
            raise ParameterError(
                f"duplicate subspace #{int(repeated.argmax())}")
        binary = certify_binary(q ** n - 1, q ** k - 1,
                                _span_points(field, bases)[:, 1:] - 1,
                                provenance=f"subspace {self.provenance}")
        t = binary.inner + 1  # one subspace: no pair, t = 1, the sentinel 2k
        dim = next(e for e in range(k + 1) if q ** e >= t)
        if q ** dim != t:
            raise RuntimeError(
                f"two subspaces share {t} points, not a power of {q}")
        self.d, self.subspaces, self.binary = 2 * k - 2 * dim, bases, binary

    def __len__(self) -> int:
        return len(self.subspaces)


def spread_code(q: int, n: int, k: int) -> SubspaceCode:
    """The spread of GF(q)^n by k-dimensional subspaces (k | n).

    Views GF(q)^n as GF(q^k)^(n/k), with GF(q^k) = GF(q)[x]/f for the
    irreducible f = find_irreducible(GF(q), k), and takes the
    (q^n - 1)/(q^k - 1) one-dimensional GF(q^k)-subspaces: each is
    spanned over GF(q) by v, x v, ..., x^(k-1) v for its normalized
    generator v (first nonzero coordinate 1).  Every nonzero vector lies
    in exactly one member, so pairwise intersections are trivial and the
    certified distance is 2k.  Certifying that many members is admitted
    before q is factored.
    """
    if k < 1 or n < 1 or n % k != 0:
        raise ParameterError(f"need k | n, got n={n} k={k}")
    if q > 1:  # factoring refuses the rest at once
        admit(f"certifying the spread of GF({q})^{n}", _subspace_bytes(
            q, n, k, (power(q, n) - 1) // (power(q, k) - 1)))
    field = make_field(*factor_prime_power(q))
    low = np.array(find_irreducible(field, k)[:k])
    r, qk = n // k, q ** k
    # generators v, pivot by pivot with tails in ascending base-q^k
    # encoding, as r GF(q^k) coordinates of k GF(q) coefficients each
    gens = []
    for pivot in range(r):
        tails = np.arange(qk ** (r - pivot - 1))[:, None]
        gens.append(np.hstack([np.zeros((len(tails), pivot), dtype=np.int64),
                               np.ones_like(tails),
                               tails // qk ** np.arange(r - pivot - 1) % qk]))
    v = np.concatenate(gens)[:, :, None] // q ** np.arange(k) % q
    rows = [v]
    for _ in range(k - 1):
        # times x: shift the coefficients up, then fold x^k back in with f
        c = rows[-1]
        shifted = np.pad(c[:, :, :-1], ((0, 0), (0, 0), (1, 0)))
        rows.append(field.sub(shifted, field.mul(c[:, :, -1:], low)))
    bases = np.stack(rows, axis=1).reshape(len(v), k, n)
    code = SubspaceCode(field, n, k, bases,
                        provenance=f"spread q={q} n={n} k={k}")
    if code.d != 2 * k:
        raise RuntimeError(f"spread members intersect: distance {code.d}")
    return code


def subspace_to_coset_code(code: SubspaceCode) -> CWCode:
    """One word per proper coset v + U of each subspace U in the code.

    A coset's differences are its subspace, so no coset repeats: the
    code has exactly N (q^(n-k) - 1) words of weight q^k, admitted
    before any is formed.  A reduced basis's non-pivot coordinates carry
    one representative per coset, and one field.add forms them all, each
    subspace's cosets ordered by smallest element.  The provenance
    records that count next to the nominal q^(n-k-1) N.
    """
    field, n, k, N = code.field, code.n, code.k, len(code)
    q, count = field.q, N * (field.q ** (n - k) - 1)
    admit_scan(q ** n - 1, count, q ** k, False,
               f"certifying {count} words of length {q ** n - 1}")
    free = np.ones((N, n), dtype=bool)
    free[np.arange(N)[:, None], (code.subspaces != 0).argmax(axis=2)] = False
    digits = np.arange(1, q ** (n - k))[:, None] // q ** np.arange(n - k) % q
    reps = q ** np.nonzero(free)[1].reshape(N, n - k) @ digits.T  # N x R
    points = np.pad(code.binary.positions + 1, ((0, 0), (1, 0)))
    cosets = field.add(points[:, None], reps[:, :, None], n)
    cosets -= 1
    cosets = cosets[np.arange(N)[:, None], cosets.min(axis=2).argsort(axis=1)]
    return certify_binary(
        q ** n - 1, q ** k, cosets.reshape(count, q ** k),
        provenance=(f"subspace-cosets {code.provenance} achieved={count} "
                    f"nominal={q ** (n - k) // q * N}"))


# -- subspace code file format --------------------------------------------
#
# One subspace per line under 'q n k d', its k reduced-echelon basis
# rows as base-q encodings.  Loading admits the subspaces before decoding,
# builds the SubspaceCode, which re-reduces them and recomputes the
# distance, and rejects overstated headers.

def _words(code: SubspaceCode) -> bytes:
    q, n = code.field.q, code.n
    return textio.format_words(code.provenance, f"{q} {n} {code.k} {code.d}",
                               code.subspaces @ q ** np.arange(n))


def dumps_subspace_code(code: SubspaceCode) -> str:
    return _words(code).decode("utf-8", "surrogatepass")


def loads_subspace_code(text: str) -> SubspaceCode:
    provenance, _, lines = textio.read_lines(text)
    q, n, k, claimed_d, body = textio.read_header(lines, "q n k d")
    if q < 2 or n < 1:
        raise FormatError(f"header needs q >= 2 and n >= 1, got q={q} n={n}")
    # a k past n fails SubspaceCode's own check
    admit(f"certifying {len(body)} subspaces of GF({q})^{n}",
          _subspace_bytes(q, n, min(k, n), max(len(body), 1)))
    try:
        field = make_field(*factor_prime_power(q))
        words = textio.parse_words(body, False, k, "subspace row")[0]
        rows = as_points(words, (len(body), k), q ** n, "subspace row")
        code = SubspaceCode(field, n, k,
                            rows[..., None] // q ** np.arange(n) % q,
                            provenance=provenance)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    if code.d < claimed_d:
        raise FormatError(
            f"header claims distance {claimed_d} but the subspaces only "
            f"achieve {code.d}")
    return code


def save_subspace_code(code: SubspaceCode, path) -> None:
    textio.write_text(path, _words(code))


def load_subspace_code(path) -> SubspaceCode:
    return loads_subspace_code(textio.read_text(path))
