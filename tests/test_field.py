"""Field arithmetic: frozen moduli, axioms, polynomial behaviour.

The integer-coded field is tested through its own operations; the
schoolbook FieldElement constructors and polynomial helpers come from
tests/field_oracle.py."""

import itertools

import numpy as np
import pytest

from cwsense.errors import BudgetError, ParameterError
from cwsense.field import (FiniteField, factor_prime_power, find_irreducible,
                           is_prime, make_field)
from field_oracle import (element, elements, from_encoding, monic_polys, one,
                          poly_eval, vector_encoding, vectors, zero)

SMALL_ORDERS = (2, 3, 4, 5, 7, 8, 9)
BIG_ORDERS = (25, 49)


def test_is_prime_small():
    primes = [n for n in range(60) if is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43,
                      47, 53, 59]


@pytest.mark.parametrize("q,expected", [
    (2, (2, 1)), (9, (3, 2)), (8, (2, 3)), (49, (7, 2)), (1024, (2, 10)),
])
def test_factor_prime_power(q, expected):
    assert factor_prime_power(q) == expected


@pytest.mark.parametrize("q", [1, 6, 12, 100])
def test_factor_prime_power_rejects(q):
    with pytest.raises(ParameterError):
        factor_prime_power(q)


def test_moduli_are_frozen():
    # The deterministic modulus choice is part of the file formats, so
    # these exact polynomials must never change.
    assert make_field(2, 2).modulus == (1, 1, 1)        # x^2 + x + 1
    assert make_field(2, 3).modulus == (1, 1, 0, 1)     # x^3 + x + 1
    assert make_field(3, 2).modulus == (1, 0, 1)        # x^2 + 1
    assert make_field(5, 1).modulus == (0, 1)


def power(field, a, e):
    result = 1
    for _ in range(e):
        result = field.mul(result, a)
    return result


def test_prime_field_spot_values():
    f5 = make_field(5)
    assert f5.add(3, 4) == 2
    f7 = make_field(7)
    assert f7.inv(3) == 5
    assert f7.sub(0, 2) == 5


def test_gf4_multiplication_table_corner():
    f4 = make_field(2, 2)
    x = 2                   # coefficients (0, 1)
    assert f4.mul(x, x) == 3  # x^2 = x + 1 under the frozen modulus


@pytest.mark.parametrize("q", SMALL_ORDERS)
def test_field_axioms_exhaustive(q):
    field = make_field(*factor_prime_power(q))
    elems = range(q)
    add, mul = field.add, field.mul
    for a in elems:
        assert add(a, 0) == a
        assert mul(a, 1) == a
        assert add(a, field.sub(0, a)) == 0
        if a:
            assert mul(a, field.inv(a)) == 1
    for a, b in itertools.product(elems, repeat=2):
        assert add(a, b) == add(b, a)
        assert mul(a, b) == mul(b, a)
    for a, b, c in itertools.product(elems, repeat=3):
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))


@pytest.mark.parametrize("q", BIG_ORDERS)
def test_field_axioms_sampled(q):
    """The big extension fields get a seeded triple sample instead of a
    full cube; identities and inverses still run over every element."""
    import random
    field = make_field(*factor_prime_power(q))
    add, mul = field.add, field.mul
    for a in range(q):
        assert add(a, 0) == a and mul(a, 1) == a
        if a:
            assert mul(a, field.inv(a)) == 1
    rng = random.Random(20260819)
    for _ in range(2000):
        a, b, c = (rng.randrange(q) for _ in range(3))
        assert add(add(a, b), c) == add(a, add(b, c))
        assert mul(mul(a, b), c) == mul(a, mul(b, c))
        assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
        assert mul(a, b) == mul(b, a)


@pytest.mark.parametrize("q", [8, 9])
def test_frobenius_is_additive(q):
    field = make_field(*factor_prime_power(q))
    p = field.p
    for a, b in itertools.product(range(q), repeat=2):
        assert (power(field, field.add(a, b), p)
                == field.add(power(field, a, p), power(field, b, p)))


@pytest.mark.parametrize("q", [4, 8, 9, 25])
def test_multiplicative_group_order(q):
    field = make_field(*factor_prime_power(q))
    for a in range(1, q):
        assert power(field, a, q - 1) == 1


def test_zero_has_no_inverse():
    with pytest.raises(ZeroDivisionError):
        make_field(3).inv(0)
    for values in ([1, 2, 0], [[1, 1], [0, 2]]):   # any zero in an array
        with pytest.raises(ZeroDivisionError):
            make_field(3).inv(np.array(values))
    with pytest.raises(ZeroDivisionError):
        zero(make_field(3)).inverse()


def test_cross_field_operations_rejected():
    a = one(make_field(2, 2))
    b = one(make_field(3, 2))
    with pytest.raises(ParameterError):
        a + b
    with pytest.raises(ParameterError):
        a * 1  # plain ints are not field elements


def test_constructor_rejections():
    with pytest.raises(ParameterError):
        FiniteField(4)
    with pytest.raises(ParameterError):
        FiniteField(2, 0)
    with pytest.raises(BudgetError):
        FiniteField(2, 17)  # 2^17 over the order cap


def test_make_field_caches():
    assert make_field(3, 2) is make_field(3, 2)


def test_encoding_round_trip():
    field = make_field(3, 2)
    for e in range(field.q):
        assert int(from_encoding(field, e)) == e
    with pytest.raises(ParameterError):
        from_encoding(field, 9)
    with pytest.raises(ParameterError):
        element(field, [1, 2, 1])  # three coefficients for degree two


def test_poly_eval_spot_value():
    f3 = make_field(3)
    coeffs = [element(f3, 1), element(f3, 0), element(f3, 1)]  # 1 + x^2
    assert int(poly_eval(coeffs, element(f3, 2))) == 2


def test_poly_eval_rejects_foreign_coefficients():
    f3, f5 = make_field(3), make_field(5)
    with pytest.raises(ParameterError):
        poly_eval([one(f5)], element(f3, 2))


def test_low_degree_polys_agree_rarely():
    # Distinct polynomials of degree < r agree on at most r - 1 points;
    # exhaustive over every pair for GF(5), r = 3.
    field = make_field(5)
    elems = elements(field)
    polys = [tuple(from_encoding(field, d) for d in (e % 5, e // 5 % 5, e // 25))
             for e in range(125)]
    for i, f in enumerate(polys):
        for g in polys[i + 1:]:
            agreements = sum(poly_eval(f, x) == poly_eval(g, x) for x in elems)
            assert agreements <= 2


def test_find_irreducible_refuses_degree_zero():
    with pytest.raises(ParameterError, match="degree must be >= 1"):
        find_irreducible(make_field(2), 0)


def test_find_irreducible_has_no_roots():
    field = make_field(3)
    poly = find_irreducible(field, 2)
    assert len(poly) == 3 and poly[-1] == 1
    coeffs = [from_encoding(field, c) for c in poly]
    assert all(poly_eval(coeffs, x) for x in elements(field))


def test_monic_polys_count():
    field = make_field(2)
    assert sum(1 for _ in monic_polys(field, 3)) == 8


def test_vectors_enumeration_matches_encoding():
    field = make_field(2)
    vecs = list(vectors(field, 3))
    assert len(vecs) == 8
    assert all(not c for c in vecs[0])
    for idx, vec in enumerate(vecs):
        assert vector_encoding(vec) == idx
