"""Exact arithmetic over GF(p) and small extension fields GF(p^m).

An element is an int in [0, q) whose base-p digits (least significant
first) are its coefficients in the polynomial basis {1, x, ...,
x^(m-1)}; the code, matrix and subspace files use the same encoding.
Addition and subtraction work digit by digit mod p, on ints or int64
arrays alike, and also add vectors of GF(q)^n by their base-q
encodings, whose base-p digits are the coordinates' coefficients.
Multiplication and inversion go through exp/log tables of a primitive
element.  The modulus is chosen deterministically (the first monic
irreducible in ascending base-p encoding of its low coefficients), so
two fields built with the same (p, m) are interchangeable and
everything constructed on top of them is bit-stable across runs.

Field orders are capped at 2^16.  FieldElement keeps the schoolbook
coefficient-vector arithmetic as a reference; no library code uses it.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ParameterError, admit, power

# The one proxy cap: the work of the irreducible and primitive-element
# searches has no estimate, so the field order stands in for it.
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


def factor_prime_power(q: int) -> tuple[int, int]:
    """Return (p, m) with q = p^m and p prime.

    Raises ParameterError when q is not a prime power.  Trial division
    runs up to sqrt(q), so callers admit their stage first.
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
    """Schoolbook reference element of a FiniteField.

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
        p, m = self.field.p, self.field.m
        prod = [0] * (2 * m - 1)
        for i, ai in enumerate(self.coeffs):
            if ai:
                for j, bj in enumerate(other.coeffs):
                    prod[i + j] += ai * bj
        # reduce by the monic modulus, highest term first
        mod = self.field.modulus
        for i in range(2 * m - 2, m - 1, -1):
            c = prod[i] % p
            if c:
                base = i - m
                for j in range(m):
                    prod[base + j] -= c * mod[j]
            prod[i] = 0
        return FieldElement(self.field, tuple(v % p for v in prod[:m]))

    def __pow__(self, e: int) -> "FieldElement":
        if e < 0:
            return self.inverse() ** (-e)
        result = FieldElement(self.field, (1,) + (0,) * (self.field.m - 1))
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
    """GF(p^m) on integer-coded elements, with a deterministic modulus.

    Parameters
    ----------
    p : prime characteristic.
    m : extension degree, m >= 1.

    add and sub take ints or int64 arrays (broadcast against each
    other) and n, the number of coordinates of a vector encoding;
    mul and inv take ints or arrays.  Ints come back as ints.
    Arguments must lie in [0, q) (in [0, q^n) for vectors): the
    boundaries that take outside input check that, the operations do
    not.

    Prefer make_field(), which caches and hands back the same object for
    the same parameters.  Direct construction is equivalent but redoes
    the modulus search and the tables.
    """

    __slots__ = ("p", "m", "q", "modulus", "_exp", "_log")

    def __init__(self, p: int, m: int = 1):
        if not is_prime(p):
            raise ParameterError(f"characteristic must be prime, got {p}")
        if m < 1:
            raise ParameterError(f"extension degree must be >= 1, got {m}")
        admit(f"building GF({p}^{m})", power(p, m), "elements", ORDER_CAP)
        self.p, self.m, self.q = p, m, p ** m
        self.modulus = ((0, 1) if m == 1
                        else find_irreducible(make_field(p), m))
        self._exp, self._log = _tables(p, m, self.modulus)

    def add(self, a, b, n: int = 1):
        """a + b, digit by digit mod p over the m n base-p digits."""
        return self._digitwise(a, b, 1, n)

    def sub(self, a, b, n: int = 1):
        """a - b, digit by digit mod p; sub(0, b) is -b."""
        return self._digitwise(a, b, -1, n)

    def _digitwise(self, a, b, sign: int, n: int):
        p = self.p
        out = 0
        for i in range(self.m * n):
            unit = p ** i
            out = out + (a // unit + sign * (b // unit)) % p * unit
        return out

    def mul(self, a, b):
        """a * b through the exp/log tables (zero's log points past
        every product of two nonzero logs, into zeros)."""
        prod = self._exp[self._log[a] + self._log[b]]
        return prod if isinstance(prod, np.ndarray) else int(prod)

    def inv(self, a):
        """Inverse, elementwise on arrays; a zero raises ZeroDivisionError."""
        if not np.all(a):
            raise ZeroDivisionError("inverse of zero")
        out = self._exp[self.q - 1 - self._log[a]]
        return out if isinstance(out, np.ndarray) else int(out)

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, FiniteField)
                and self.p == other.p and self.m == other.m
                and self.modulus == other.modulus)

    def __hash__(self) -> int:
        return hash((self.p, self.m, self.modulus))

    def __repr__(self) -> str:
        return f"GF({self.q})"


def _tables(p: int, m: int, modulus: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """(exp, log) tables of GF(p^m) for the first primitive element by
    encoding.

    Multiplication by a candidate g is one permutation of [0, q), built
    for all q elements at once by Horner's rule on their digit arrays.
    Walking it from 1 lists the subgroup <g>; g is primitive when that
    walk has q - 1 steps, and no element of a subgroup walked so far is
    tried again.  exp holds two periods then zeros; log[0] = 2q - 2, so
    a product with zero indexes the zeros and needs no branch.
    """
    q = p ** m
    weights = p ** np.arange(m)
    digits = np.arange(q)[:, None] // weights % p
    low = np.array(modulus[:m])
    tried = np.zeros(q, dtype=bool)
    for g in range(1, q):
        if tried[g]:
            continue
        prod, shifted = 0, digits          # shifted: a * x^i as digits
        for c in np.trim_zeros(digits[g], "b"):
            prod = prod + c * shifted
            top = shifted[:, -1:]
            shifted = (np.pad(shifted[:, :-1], ((0, 0), (1, 0)))
                       - top * low) % p
        step = (prod % p @ weights).tolist()
        powers = [1]
        while (e := step[powers[-1]]) != 1:
            powers.append(e)
        if len(powers) == q - 1:
            break
        tried[powers] = True
    log = np.empty(q, dtype=np.int64)
    log[powers] = np.arange(q - 1)
    log[0] = 2 * q - 2
    exp = np.zeros(4 * q - 3, dtype=np.int64)
    exp[:2 * q - 2] = powers * 2
    return exp, log


@functools.lru_cache(maxsize=None)
def make_field(p: int, m: int = 1) -> FiniteField:
    """Construct (and cache) GF(p^m).

    Repeated calls with the same arguments return the same object.
    """
    return FiniteField(p, m)


def _divides(field: FiniteField, div: tuple[int, ...],
             poly: tuple[int, ...]) -> bool:
    """Whether the monic div divides poly (coefficients low to high)."""
    r = list(poly)
    d = len(div) - 1
    for i in range(len(r) - 1, d - 1, -1):
        c = r[i]
        if c:
            for j in range(d + 1):
                r[i - d + j] = field.sub(r[i - d + j], field.mul(c, div[j]))
    return not any(r)


def find_irreducible(field: FiniteField, degree: int) -> tuple[int, ...]:
    """First monic irreducible of the given degree over field, as its
    coefficients low to high (leading 1 last).

    Candidates run in ascending base-q encoding of their low
    coefficients (constant term least significant); each is tested by
    trial division by every monic polynomial of degree <= degree/2.
    Exists for every degree >= 1.
    """
    if degree < 1:
        raise ParameterError("degree must be >= 1")
    q = field.q

    def monic(d: int, e: int) -> tuple[int, ...]:
        return tuple(e // q ** i % q for i in range(d)) + (1,)

    for e in range(q ** degree):
        poly = monic(degree, e)
        if not any(_divides(field, monic(d, f), poly)
                   for d in range(1, degree // 2 + 1)
                   for f in range(q ** d)):
            return poly
    raise RuntimeError(
        f"no irreducible of degree {degree} over GF({q})")  # unreachable
