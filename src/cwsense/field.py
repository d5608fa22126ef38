"""Exact arithmetic over GF(p) and small extension fields GF(p^m).

Elements are fixed-length coefficient vectors over GF(p) in the
polynomial basis {1, x, ..., x^(m-1)}.  Multiplication is schoolbook
convolution followed by reduction modulo a monic irreducible modulus.
The modulus is chosen deterministically (smallest base-p encoding among
the monic irreducibles of degree m), so two fields built with the same
(p, m) are interchangeable and everything constructed on top of them is
bit-stable across runs.

Field orders are capped at 2^16.  Everything in this package runs at
desk scale and the representation favours auditability over speed:
no log tables, no bit tricks, every operation is plain modular
arithmetic that can be checked by hand.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Sequence, Union

from .errors import BudgetError, ParameterError

ORDER_CAP = 1 << 16


def is_prime(n: int) -> bool:
    """Trial-division primality test, adequate below the order cap."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def power_exceeds(base: int, e: int, cap: int) -> bool:
    """Whether base^e > cap, for base >= 2 (False below 2, which
    factor_prime_power rejects).  The power is only formed for e below
    cap's bit length, past which 2^e alone exceeds cap, so a huge e
    costs nothing.  Callers check their size caps with it before
    factoring, whose trial division runs up to sqrt(q)."""
    return base >= 2 and (e >= cap.bit_length() or base ** e > cap)


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m and p prime.

    Raises ParameterError when q is not a prime power.  Trial division
    runs up to sqrt(q), so callers check their size caps first.
    """
    if q < 2:
        raise ParameterError(f"not a prime power: {q}")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        return q, 1
    m = 0
    r = q
    while r % p == 0:
        r //= p
        m += 1
    if r != 1:
        raise ParameterError(f"not a prime power: {q}")
    return p, m


class FieldElement:
    """An immutable element of a FiniteField.

    Stored as a tuple of m coefficients in [0, p); index i holds the
    coefficient of x^i.  Supports +, -, *, /, unary -, ** and integer
    encoding via int().  Elements compare equal whenever their fields
    describe the same GF(p^m) and their coefficients agree.
    """

    __slots__ = ("field", "coeffs", "_hash")

    def __init__(self, field: "FiniteField", coeffs: tuple[int, ...]):
        self.field = field
        self.coeffs = coeffs
        self._hash = hash((field.p, field.m, coeffs))

    def _check(self, other: "FieldElement") -> None:
        if not isinstance(other, FieldElement):
            raise ParameterError(f"not a field element: {other!r}")
        if self.field != other.field:
            raise ParameterError(
                f"field mismatch: GF({self.field.q}) vs GF({other.field.q})")

    def __add__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        p = self.field.p
        return FieldElement(
            self.field,
            tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self) -> "FieldElement":
        p = self.field.p
        return FieldElement(self.field, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return FieldElement(self.field,
                            self.field._mul_coeffs(self.coeffs, other.coeffs))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = self.field.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse via a^(q-2); zero raises ZeroDivisionError."""
        if not self:
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.field.q - 2)

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        self._check(other)
        return self * other.inverse()

    def __bool__(self) -> bool:
        return any(self.coeffs)

    def __int__(self) -> int:
        # Base-p encoding; coefficient 0 is the least significant digit.
        e = 0
        for c in reversed(self.coeffs):
            e = e * self.field.p + c
        return e

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FieldElement)
                and self.field == other.field
                and self.coeffs == other.coeffs)

    def __hash__(self) -> int:
        return self._hash

    def __repr__(self) -> str:
        if self.field.m == 1:
            return f"GF({self.field.q}):{self.coeffs[0]}"
        terms = []
        for i in reversed(range(self.field.m)):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xi = "x" if i == 1 else f"x^{i}"
                terms.append(xi if c == 1 else f"{c}{xi}")
        return f"GF({self.field.q}):{'+'.join(terms) or '0'}"


class FiniteField:
    """GF(p^m) with a deterministically chosen modulus.

    Parameters
    ----------
    p : prime characteristic.
    m : extension degree, m >= 1.

    Prefer make_field(), which caches and hands back the same object for
    the same parameters.  Direct construction is equivalent but redoes
    the modulus search.
    """

    __slots__ = ("p", "m", "q", "modulus", "_elements")

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ParameterError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ParameterError(f"extension degree must be >= 1, got {m}")
        q = p ** m
        if q > ORDER_CAP:
            raise BudgetError(f"field order {q} exceeds cap {ORDER_CAP}")
        self.p = p
        self.m = m
        self.q = q
        if m == 1:
            self.modulus: tuple[int, ...] = (0, 1)
        else:
            base = make_field(p, 1)
            poly = find_irreducible(base, m)
            self.modulus = tuple(c.coeffs[0] for c in poly)
        self._elements: tuple[FieldElement, ...] | None = None

    # -- element construction -------------------------------------------

    def element(self, value: Union[int, Iterable[int]]) -> FieldElement:
        """Build an element from a base-p encoding or a coefficient list."""
        if isinstance(value, int):
            return self.from_encoding(value)
        coeffs = [int(c) % self.p for c in value]
        if len(coeffs) > self.m:
            raise ParameterError(
                f"coefficient vector longer than degree {self.m}")
        coeffs += [0] * (self.m - len(coeffs))
        return FieldElement(self, tuple(coeffs))

    def from_encoding(self, e: int) -> FieldElement:
        if not 0 <= e < self.q:
            raise ParameterError(f"encoding {e} outside [0, {self.q})")
        coeffs = []
        for _ in range(self.m):
            coeffs.append(e % self.p)
            e //= self.p
        return FieldElement(self, tuple(coeffs))

    @property
    def zero(self) -> FieldElement:
        return FieldElement(self, (0,) * self.m)

    @property
    def one(self) -> FieldElement:
        return FieldElement(self, (1,) + (0,) * (self.m - 1))

    def elements(self) -> tuple[FieldElement, ...]:
        """All q elements in ascending encoding order (cached)."""
        if self._elements is None:
            self._elements = tuple(
                self.from_encoding(e) for e in range(self.q))
        return self._elements

    # -- internal arithmetic --------------------------------------------

    def _mul_coeffs(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        p, m = self.p, self.m
        if m == 1:
            return ((a[0] * b[0]) % p,)
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    prod[i + j] += ai * bj
        # reduce by the monic modulus, highest term first
        mod = self.modulus
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i] % p
            if c:
                base = i - m
                for j in range(m):
                    prod[base + j] -= c * mod[j]
            prod[i] = 0
        return tuple(v % p for v in prod[:m])

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FiniteField:
    """Construct (and cache) GF(p^m).

    Repeated calls with the same arguments return the same object, so
    elements from separate call sites interoperate directly.
    """
    return FiniteField(p, m)


# -- polynomials over a field ------------------------------------------
#
# Coefficient lists run low to high: coeffs[i] multiplies x^i.

def poly_eval(coeffs: Sequence[FieldElement], x: FieldElement) -> FieldElement:
    """Evaluate sum(coeffs[i] * x^i) by Horner's rule."""
    field = x.field
    for c in coeffs:
        if c.field != field:
            raise ParameterError("polynomial coefficients from a different field")
    acc = field.zero
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _poly_degree(coeffs: Sequence[FieldElement]) -> int:
    for i in range(len(coeffs) - 1, -1, -1):
        if coeffs[i]:
            return i
    return -1


def _poly_rem(num: Sequence[FieldElement], den: Sequence[FieldElement]) -> list[FieldElement]:
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
    one = field.one
    for e in range(field.q ** degree):
        low = []
        r = e
        for _ in range(degree):
            low.append(field.from_encoding(r % field.q))
            r //= field.q
        yield tuple(low) + (one,)


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
    deterministic enumeration order.  Exists for every degree >= 1."""
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    for poly in monic_polys(field, degree):
        if is_irreducible(poly, field):
            return poly
    raise RuntimeError(
        f"no irreducible of degree {degree} over GF({field.q})")  # unreachable


# -- vectors over a field ----------------------------------------------

def vectors(field: FiniteField, length: int) -> Iterator[tuple[FieldElement, ...]]:
    """All vectors of F^length in ascending base-q encoding order.

    Coordinate 0 is the least significant digit of the encoding, so the
    first coordinate cycles fastest.
    """
    elems = field.elements()
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
