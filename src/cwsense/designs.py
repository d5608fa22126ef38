"""Combinatorial designs that yield good constant-weight codes.

Three families live here:

* Steiner triple systems on n points (n = 1, 3 mod 6), built by the
  quasigroup constructions over Z_m x {0, 1, 2}.  Their blocks form an
  (n, 4, 3) code of n(n-1)/6 words.
* Lines of the affine plane over GF(q): a (q^2, 2(q-1), q) code of
  q^2 + q words.
* Constant-dimension subspace codes in GF(q)^n, in particular spreads,
  together with two conversions into binary constant-weight codes (one
  word per subspace, or one word per proper coset).

Every derived code goes through the exhaustive distance certification
in codes.py; the design-level validity checks (pair coverage, trivial
pairwise intersections) are separate and also exhaustive.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .codes import BinaryCWCode, certify_binary, read_lines
from .errors import BudgetError, FormatError, ParameterError
from .field import (FieldElement, FiniteField, factor_prime_power,
                    find_irreducible, make_field, vector_encoding, vectors)

SPREAD_CAP = 1 << 20      # largest q^n a spread is enumerated for
COSET_CAP = 1 << 16       # largest q^n the coset conversion sweeps


# -- Steiner triple systems ----------------------------------------------

@dataclass
class SteinerTripleSystem:
    """Blocks of size 3 on points {0..n-1}, every pair in exactly one."""
    n: int
    blocks: list[tuple[int, int, int]]
    tag: str

    def __post_init__(self):
        expected = self.n * (self.n - 1) // 6
        if len(self.blocks) != expected:
            raise ParameterError(
                f"{len(self.blocks)} blocks, an STS({self.n}) needs {expected}")
        seen: dict[tuple[int, int], int] = {}
        for block in self.blocks:
            if len(set(block)) != 3 or not all(0 <= p < self.n for p in block):
                raise ParameterError(f"bad block {block}")
            for pair in combinations(sorted(block), 2):
                if pair in seen:
                    raise ParameterError(f"pair {pair} covered twice")
                seen[pair] = 1
        if len(seen) != self.n * (self.n - 1) // 2:
            raise ParameterError("some pair is never covered")

    def __len__(self) -> int:
        return len(self.blocks)


def sts_bose(n: int) -> SteinerTripleSystem:
    """Bose construction for n = 3 mod 6.

    Points are Z_m x {0,1,2} with m = n/3 odd, indexed as 3*i + level.
    Uses the idempotent commutative quasigroup i * j = (i + j) / 2 mod m.
    """
    if n % 6 != 3 or n < 3:
        raise ParameterError(f"Bose construction needs n = 3 mod 6, got {n}")
    m = n // 3
    half = (m + 1) // 2  # inverse of 2 mod m
    blocks: list[tuple[int, int, int]] = []
    for i in range(m):
        blocks.append(tuple(sorted((3 * i, 3 * i + 1, 3 * i + 2))))
    for i, j in combinations(range(m), 2):
        k = (i + j) * half % m
        for level in range(3):
            up = (level + 1) % 3
            blocks.append(tuple(sorted((3 * i + level, 3 * j + level,
                                        3 * k + up))))
    return SteinerTripleSystem(n, blocks, "bose")


def sts_skolem(n: int) -> SteinerTripleSystem:
    """Skolem construction for n = 1 mod 6.

    Points are Z_{2s} x {0,1,2} plus one extra point (index n-1), with
    n = 6s + 1.  The half-idempotent commutative quasigroup on Z_{2s}
    is x * y = pi(x + y mod 2s) where pi(2i) = i and pi(2i+1) = i + s.
    """
    if n % 6 != 1 or n < 7:
        raise ParameterError(f"Skolem construction needs n = 1 mod 6 >= 7, got {n}")
    s = n // 6
    size = 2 * s
    inf = n - 1

    def pi(v: int) -> int:
        return v // 2 if v % 2 == 0 else v // 2 + s

    def mul(x: int, y: int) -> int:
        return pi((x + y) % size)

    blocks: list[tuple[int, int, int]] = []
    for i in range(s):
        blocks.append(tuple(sorted((3 * i, 3 * i + 1, 3 * i + 2))))
    for i in range(s):
        for level in range(3):
            up = (level + 1) % 3
            blocks.append(tuple(sorted((inf, 3 * (s + i) + level,
                                        3 * i + up))))
    for x, y in combinations(range(size), 2):
        k = mul(x, y)
        for level in range(3):
            up = (level + 1) % 3
            blocks.append(tuple(sorted((3 * x + level, 3 * y + level,
                                        3 * k + up))))
    return SteinerTripleSystem(n, blocks, "skolem")


def make_sts(n: int) -> SteinerTripleSystem:
    """Dispatch on the residue of n mod 6 (1 -> Skolem, 3 -> Bose)."""
    if n % 6 == 3:
        return sts_bose(n)
    if n % 6 == 1 and n >= 7:
        return sts_skolem(n)
    raise ParameterError(
        f"a Steiner triple system needs n = 1 or 3 mod 6, got {n}")


def steiner_to_code(sts: SteinerTripleSystem) -> BinaryCWCode:
    """Blocks as supports: an (n, 4, 3) code of n(n-1)/6 words.

    Two blocks share at most one point, so the certified distance is 4
    (the sentinel n + 1 for the degenerate single-block STS(3))."""
    return certify_binary(sts.n, 3, sts.blocks,
                          provenance=f"steiner-{sts.tag} n={sts.n}")


# -- affine plane lines ---------------------------------------------------

def affine_plane_code(q: int) -> BinaryCWCode:
    """Lines of AG(2, q) as supports: a (q^2, 2(q-1), q) code, q^2 + q words.

    Point (x, y) gets index int(x) * q + int(y).  Lines y = a*x + b come
    first, ordered by (int(a), int(b)), then the verticals x = c.
    """
    p, m = factor_prime_power(q)
    if q > 16:
        raise BudgetError(f"affine plane over GF({q}) exceeds desk scale (q <= 16)")
    field = make_field(p, m)
    elems = field.elements()
    words: list[list[int]] = []
    for a in elems:
        for b in elems:
            words.append(sorted(int(x) * q + int(a * x + b) for x in elems))
    for c in elems:
        words.append(sorted(int(c) * q + int(y) for y in elems))
    return certify_binary(q * q, q, words, provenance=f"affine q={q}")


# -- subspace codes -------------------------------------------------------

Vector = tuple[FieldElement, ...]
Basis = tuple[Vector, ...]


def _rref(rows: list[list[FieldElement]]) -> list[Vector]:
    """Reduced row echelon form over the field; returns nonzero rows."""
    rows = [list(r) for r in rows]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, nrows):
            if rows[i][c]:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][c].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c]:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return [tuple(row) for row in rows[:r]]


def _rank(rows: list[list[FieldElement]]) -> int:
    return len(_rref(rows))


@dataclass
class SubspaceCode:
    """k-dimensional subspaces of GF(q)^n with a certified distance.

    Bases are stored in reduced echelon form.  The subspace distance is
    2k - 2 dim(U & V), certified by an exhaustive pairwise rank scan;
    a single-subspace code gets the sentinel 2k.
    """
    field: FiniteField
    n: int
    k: int
    d: int
    subspaces: list[Basis]
    provenance: str = "ingested"

    def __len__(self) -> int:
        return len(self.subspaces)


def certify_subspace_code(field: FiniteField, n: int, k: int,
                          bases, provenance: str = "ingested") -> SubspaceCode:
    """Canonicalize bases to RREF, reject rank defects and duplicates,
    and certify the exact subspace distance."""
    if not 1 <= k <= n:
        raise ParameterError(f"need 1 <= k <= n, got k={k} n={n}")
    canon: list[Basis] = []
    seen = set()
    for i, basis in enumerate(bases):
        rows = [list(v) for v in basis]
        if any(len(row) != n for row in rows):
            raise ParameterError(f"basis #{i} has vectors of length != {n}")
        red = _rref(rows)
        if len(red) != k:
            raise ParameterError(f"basis #{i} has rank {len(red)}, expected {k}")
        key = tuple(tuple(int(x) for x in row) for row in red)
        if key in seen:
            raise ParameterError(f"duplicate subspace #{i}")
        seen.add(key)
        canon.append(tuple(red))
    if len(canon) < 2:
        d = 2 * k
    else:
        d = 2 * k
        for a, b in combinations(canon, 2):
            inter = 2 * k - _rank([list(v) for v in a + b])
            dist = 2 * k - 2 * inter
            if dist < d:
                d = dist
        if d == 0:
            raise ParameterError("duplicate subspaces (distance 0)")
    return SubspaceCode(field=field, n=n, k=k, d=d, subspaces=canon,
                        provenance=provenance)


class _Ext:
    """Degree-k extension of an arbitrary base field, used to slice
    GF(q)^n into a spread.  Elements are length-k coefficient tuples
    over the base; multiplication reduces by a deterministic monic
    irreducible of degree k."""

    def __init__(self, base: FiniteField, k: int):
        self.base = base
        self.k = k
        self.modulus = find_irreducible(base, k)

    def mul(self, a: Vector, b: Vector) -> Vector:
        base, k = self.base, self.k
        prod = [base.zero] * (2 * k - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] = prod[i + j] + ai * bj
        for i in range(2 * k - 2, k - 1, -1):
            c = prod[i]
            if c:
                shift = i - k
                for j in range(k + 1):
                    prod[shift + j] = prod[shift + j] - c * self.modulus[j]
        return tuple(prod[:k])

    def elements(self):
        return vectors(self.base, self.k)

    def zero(self) -> Vector:
        return (self.base.zero,) * self.k

    def one(self) -> Vector:
        return (self.base.one,) + (self.base.zero,) * (self.k - 1)

    def x_power(self, j: int) -> Vector:
        out = [self.base.zero] * self.k
        out[j] = self.base.one
        return tuple(out)


def spread_code(q: int, n: int, k: int) -> SubspaceCode:
    """The spread of GF(q)^n by k-dimensional subspaces (k | n).

    Views GF(q)^n as a free module over the degree-k extension E and
    takes the (q^n - 1)/(q^k - 1) one-dimensional E-subspaces.  Every
    nonzero vector lies in exactly one member, so pairwise intersections
    are trivial and the certified distance is 2k.
    """
    if k < 1 or n < 1 or n % k != 0:
        raise ParameterError(f"need k | n, got n={n} k={k}")
    p, m = factor_prime_power(q)
    if q ** n > SPREAD_CAP:
        raise BudgetError(f"q^n = {q ** n} exceeds spread cap {SPREAD_CAP}")
    field = make_field(p, m)
    ext = _Ext(field, k)
    r = n // k
    qk = q ** k
    ext_elems = list(ext.elements())

    def flatten(vec_e: list[Vector]) -> list[FieldElement]:
        flat: list[FieldElement] = []
        for coord in vec_e:
            flat.extend(coord)
        return flat

    bases: list[list[list[FieldElement]]] = []
    for pivot in range(r):
        tail_len = r - pivot - 1
        for tail_enc in range(qk ** tail_len):
            vec_e: list[Vector] = [ext.zero()] * pivot + [ext.one()]
            e = tail_enc
            for _ in range(tail_len):
                vec_e.append(ext_elems[e % qk])
                e //= qk
            rows = []
            for j in range(k):
                xj = ext.x_power(j)
                rows.append(flatten([ext.mul(xj, coord) for coord in vec_e]))
            bases.append(rows)
    code = certify_subspace_code(field, n, k, bases,
                                 provenance=f"spread q={q} n={n} k={k}")
    if code.d != 2 * k:
        raise RuntimeError(f"spread members intersect: distance {code.d}")
    return code


def _subspace_points(code: SubspaceCode, basis: Basis) -> list[Vector]:
    """All q^k points of the subspace, zero included."""
    field = code.field
    points = [(field.zero,) * code.n]
    for row in basis:
        new = []
        for scale in field.elements():
            if not scale:
                continue
            scaled = tuple(scale * x for x in row)
            for pt in points:
                new.append(tuple(a + b for a, b in zip(pt, scaled)))
        points.extend(new)
    return points


def subspace_to_code(code: SubspaceCode) -> BinaryCWCode:
    """One word per subspace: the characteristic vector of its nonzero
    points inside the q^n - 1 nonzero vectors of GF(q)^n.

    Vectors are indexed by their base-q encoding minus one, so the
    derived code has length q^n - 1 and weight q^k - 1.  Two subspaces
    meeting only at zero give disjoint supports.
    """
    q, n, k = code.field.q, code.n, code.k
    words = []
    for basis in code.subspaces:
        encs = sorted(vector_encoding(pt) - 1
                      for pt in _subspace_points(code, basis)
                      if any(pt))
        words.append(encs)
    return certify_binary(q ** n - 1, q ** k - 1, words,
                          provenance=f"subspace {code.provenance}")


def subspace_to_coset_code(code: SubspaceCode) -> BinaryCWCode:
    """One word per proper coset v + U over all subspaces U in the code.

    Each subspace contributes q^(n-k) - 1 cosets of weight q^k; cosets
    are canonicalized by their minimum-encoded element and duplicate
    point sets across subspaces are dropped before certification.  The
    achieved size is recorded in the provenance next to the nominal
    count q^(n-k-1) * |code|, which it usually exceeds.
    """
    q, n, k = code.field.q, code.n, code.k
    if q ** n > COSET_CAP:
        raise BudgetError(f"q^n = {q ** n} exceeds coset sweep cap {COSET_CAP}")
    field = code.field
    all_vectors = list(vectors(field, n))
    words: dict[tuple[int, ...], None] = {}
    for basis in code.subspaces:
        points = _subspace_points(code, basis)
        member = {vector_encoding(pt) for pt in points}
        seen = set(member)
        for vec in all_vectors:
            if vector_encoding(vec) in seen:
                continue
            coset = sorted(
                vector_encoding(tuple(a + b for a, b in zip(vec, pt)))
                for pt in points)
            seen.update(coset)
            words.setdefault(tuple(e - 1 for e in coset), None)
    nominal = q ** (n - k - 1) * len(code) if n - k - 1 >= 0 else 0
    return certify_binary(
        q ** n - 1, q ** k, list(words),
        provenance=(f"subspace-cosets {code.provenance} "
                    f"achieved={len(words)} nominal={nominal}"))


# -- subspace code file format --------------------------------------------
#
# Header 'q n k d', then one subspace per line: k base-q integer
# encodings of its reduced-echelon basis rows.  Loading re-reduces,
# recomputes the distance and rejects overstated headers.

def dumps_subspace_code(code: SubspaceCode) -> str:
    lines = [f"# provenance: {code.provenance}",
             f"{code.field.q} {code.n} {code.k} {code.d}"]
    for basis in code.subspaces:
        lines.append(" ".join(str(vector_encoding(row)) for row in basis))
    return "\n".join(lines) + "\n"


def loads_subspace_code(text: str) -> SubspaceCode:
    provenance, _, lines = read_lines(text)
    header = None
    rows_enc: list[list[int]] = []
    for lineno, line in lines:
        try:
            values = [int(tok) for tok in line.split()]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer entry") from None
        if header is None:
            if len(values) != 4:
                raise FormatError(f"line {lineno}: header must be 'q n k d'")
            header = values
        else:
            rows_enc.append(values)
    if header is None:
        raise FormatError("missing 'q n k d' header")
    q, n, k, claimed_d = header
    try:
        p, m = factor_prime_power(q)
    except ParameterError:
        raise FormatError(f"header order {q} is not a prime power") from None
    field = make_field(p, m)
    bases = []
    for i, encs in enumerate(rows_enc):
        if len(encs) != k:
            raise FormatError(f"subspace #{i}: expected {k} basis rows")
        basis = []
        for e in encs:
            if not 0 <= e < q ** n:
                raise FormatError(f"subspace #{i}: encoding {e} out of range")
            coords = []
            for _ in range(n):
                coords.append(field.from_encoding(e % q))
                e //= q
            basis.append(tuple(coords))
        bases.append(tuple(basis))
    try:
        code = certify_subspace_code(field, n, k, bases, provenance=provenance)
    except ParameterError as exc:
        raise FormatError(str(exc)) from None
    if code.d < claimed_d:
        raise FormatError(
            f"header claims distance {claimed_d} but the subspaces only "
            f"achieve {code.d}")
    return code


def save_subspace_code(code: SubspaceCode, path) -> None:
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.write(dumps_subspace_code(code))


def load_subspace_code(path) -> SubspaceCode:
    with open(path, "r", encoding="ascii") as fh:
        return loads_subspace_code(fh.read())
