"""Schoolbook reference for the integer-coded field.

cwsense.field.FieldElement keeps the coefficient-vector arithmetic
(schoolbook products reduced by the modulus, inverses by a^(q-2)).
These are its constructors and the polynomial and vector helpers built
on it, as the library had them before its elements became ints: the
oracle the integer field, the constructions and the subspace code
certification are held to.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence, Union

from cwsense.errors import ParameterError
from cwsense.field import FieldElement, FiniteField


# -- element construction -----------------------------------------------

def element(field: FiniteField, value: Union[int, Iterable[int]]) -> FieldElement:
    """Build an element from a base-p encoding or a coefficient list."""
    if isinstance(value, int):
        return from_encoding(field, value)
    coeffs = [int(c) % field.p for c in value]
    if len(coeffs) > field.m:
        raise ParameterError(
            f"coefficient vector longer than degree {field.m}")
    coeffs += [0] * (field.m - len(coeffs))
    return FieldElement(field, tuple(coeffs))


def from_encoding(field: FiniteField, e: int) -> FieldElement:
    if not 0 <= e < field.q:
        raise ParameterError(f"encoding {e} outside [0, {field.q})")
    coeffs = []
    for _ in range(field.m):
        coeffs.append(e % field.p)
        e //= field.p
    return FieldElement(field, tuple(coeffs))


def zero(field: FiniteField) -> FieldElement:
    return FieldElement(field, (0,) * field.m)


def one(field: FiniteField) -> FieldElement:
    return FieldElement(field, (1,) + (0,) * (field.m - 1))


@functools.lru_cache(maxsize=None)
def elements(field: FiniteField) -> tuple[FieldElement, ...]:
    """All q elements in ascending encoding order (cached)."""
    return tuple(from_encoding(field, e) for e in range(field.q))


# -- polynomials over a field -------------------------------------------
#
# Coefficient lists run low to high: coeffs[i] multiplies x^i.

def poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    """Evaluate sum(coeffs[i] * x^i) by Horner's rule."""
    field = x.field
    for c in coeffs:
        if c.field != field:
            raise ParameterError("polynomial coefficients from a different field")
    acc = zero(field)
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_degree(coeffs: Sequence[FieldElement]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _poly_rem(num: Sequence[FieldElement],
              den: Sequence[FieldElement]) -> list[FieldElement]:
    """Remainder of num modulo den (den monic, degree >= 1)."""
    r = list(num)
    dd = _poly_degree(den)
    while _poly_degree(r) >= dd:
        k = _poly_degree(r)
        c = r[k]
        shift = k - dd
        for j in range(dd + 1):
            r[shift + j] = r[shift + j] - c * den[j]
    return r


def monic_polys(field: FiniteField, degree: int) -> Iterator[tuple[FieldElement, ...]]:
    """Monic polynomials of the given degree, in ascending encoding order
    of their low coefficient vector (constant term least significant)."""
    for e in range(field.q ** degree):
        low = []
        r = e
        for _ in range(degree):
            low.append(from_encoding(field, r % field.q))
            r //= field.q
        yield tuple(low) + (one(field),)


def is_irreducible(poly: Sequence[FieldElement], field: FiniteField) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = _poly_degree(poly)
    if deg < 1:
        return False
    for d in range(1, deg // 2 + 1):
        for div in monic_polys(field, d):
            if _poly_degree(_poly_rem(poly, div)) < 0:
                return False
    return True


def find_irreducible(field: FiniteField, degree: int) -> tuple[FieldElement, ...]:
    """First irreducible monic polynomial of the given degree in the
    enumeration order of monic_polys."""
    for poly in monic_polys(field, degree):
        if is_irreducible(poly, field):
            return poly
    raise RuntimeError(f"no irreducible of degree {degree}")  # unreachable


# -- vectors over a field -------------------------------------------------

def vectors(field: FiniteField, length: int) -> Iterator[tuple[FieldElement, ...]]:
    """All vectors of F^length in ascending base-q encoding order.

    Coordinate 0 is the least significant digit of the encoding, so the
    first coordinate cycles fastest.
    """
    elems = elements(field)
    idx = [0] * length
    for _ in range(field.q ** length):
        yield tuple(elems[i] for i in idx)
        for pos in range(length):
            idx[pos] += 1
            if idx[pos] < field.q:
                break
            idx[pos] = 0


def vector_encoding(vec: Sequence[FieldElement]) -> int:
    """Base-q integer encoding of a coordinate vector (coordinate 0 least
    significant)."""
    q = vec[0].field.q
    e = 0
    for v in reversed(vec):
        e = e * q + int(v)
    return e


def rref(rows: list[list[FieldElement]]) -> list[tuple[FieldElement, ...]]:
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
