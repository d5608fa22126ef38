"""The integer-coded field and its users against the schoolbook oracle.

Every operation of FiniteField is checked against FieldElement
arithmetic (tests/field_oracle.py): exhaustively for every order up to
64, on seeded samples for the largest fields.  The constructions that
run on the field (devore columns, affine-plane lines, spread bases and
their point sets) are rebuilt with FieldElement arithmetic and must
agree exactly, and sha256 pins hold their files to the bytes written
before the field became integer-coded.
"""

import hashlib
from itertools import product

import numpy as np
import pytest

from codes_oracle import words_of
import field_oracle as oracle
from cwsense.codes import dumps_code
from cwsense.designs import affine_plane_code, spread_code
from cwsense.errors import ParameterError
from cwsense.field import factor_prime_power, find_irreducible, make_field
from cwsense.matrices import devore, dumps_matrix


def prime_power(q):
    try:
        return factor_prime_power(q)
    except ParameterError:
        return None


ORDERS = [q for q in range(2, 65) if prime_power(q)]


def field_of(q):
    return make_field(*factor_prime_power(q))


def check_pairs(field, a, b):
    """Every operation on the int pairs (a[i], b[i]), as arrays and as
    scalars, against FieldElement arithmetic."""
    elems = [oracle.from_encoding(field, int(x)) for x in a]
    others = [oracle.from_encoding(field, int(x)) for x in b]
    added, subbed, mult = field.add(a, b), field.sub(a, b), field.mul(a, b)
    assert added.tolist() == [int(x + y) for x, y in zip(elems, others)]
    assert subbed.tolist() == [int(x - y) for x, y in zip(elems, others)]
    assert mult.tolist() == [int(x * y) for x, y in zip(elems, others)]
    for i in range(0, len(a), max(1, len(a) // 50)):
        x, y = int(a[i]), int(b[i])
        for got, want in ((field.add(x, y), added[i]),
                          (field.sub(x, y), subbed[i]),
                          (field.sub(0, x), int(-elems[i])),
                          (field.mul(x, y), mult[i])):
            assert type(got) is int and got == want


@pytest.mark.parametrize("q", ORDERS)
def test_ops_match_oracle_exhaustively(q):
    field = field_of(q)
    a, b = (g.ravel() for g in np.meshgrid(np.arange(q), np.arange(q)))
    check_pairs(field, a, b)
    nonzero = oracle.elements(field)[1:]
    for x in nonzero:
        got = field.inv(int(x))
        assert type(got) is int and got == int(x.inverse())
    # all at once, as an int64 array
    inverses = field.inv(np.array([int(x) for x in nonzero]))
    assert inverses.tolist() == [int(x.inverse()) for x in nonzero]


@pytest.mark.parametrize("p,m", [(2, 16), (3, 10), (251, 2)])
def test_ops_match_oracle_sampled(p, m):
    field = make_field(p, m)
    assert field.modulus == tuple(
        int(c) for c in oracle.find_irreducible(make_field(p), m))
    rng = np.random.default_rng(20261018)
    a, b = rng.integers(0, field.q, size=(2, 3000))
    a[:10] = 0                    # zero on both sides of a product
    b[10:20] = 0
    check_pairs(field, a, b)
    one = oracle.one(field)
    for x in a[20:220].tolist():
        if x:
            inv = oracle.from_encoding(field, field.inv(x))
            assert oracle.from_encoding(field, x) * inv == one


@pytest.mark.parametrize("q,n", [(4, 3), (9, 2), (8, 2), (5, 2)])
def test_vector_addition_matches_coordinates(q, n):
    field = field_of(q)
    vecs = list(oracle.vectors(field, n))
    enc = np.arange(q ** n)
    a, b = (g.ravel() for g in np.meshgrid(enc, enc))
    want_add = [oracle.vector_encoding([x + y for x, y in zip(vecs[i], vecs[j])])
                for i, j in zip(a, b)]
    want_sub = [oracle.vector_encoding([x - y for x, y in zip(vecs[i], vecs[j])])
                for i, j in zip(a, b)]
    assert field.add(a, b, n).tolist() == want_add
    assert field.sub(a, b, n).tolist() == want_sub


@pytest.mark.parametrize("q,degree", [
    (2, 2), (2, 5), (3, 3), (4, 2), (4, 3), (5, 2), (7, 3), (8, 2), (9, 2),
    (16, 2), (25, 2),
])
def test_find_irreducible_matches_oracle_order(q, degree):
    field = field_of(q)
    want = oracle.find_irreducible(field, degree)
    assert find_irreducible(field, degree) == tuple(int(c) for c in want)


@pytest.mark.parametrize("p,r", [(7, 3), (8, 3), (9, 2), (13, 3), (16, 2),
                                 (4, 3)])
def test_devore_columns_match_poly_eval(p, r):
    field = field_of(p)
    elems = oracle.elements(field)
    matrix = devore(p, r)
    assert matrix.N == p ** r
    for j, col in enumerate(words_of(matrix)):
        coeffs = [elems[j // p ** i % p] for i in range(r)]
        assert col == tuple((int(a) * p + int(oracle.poly_eval(coeffs, a)), 1)
                            for a in elems)


@pytest.mark.parametrize("q", [2, 3, 4, 8, 9])
def test_affine_lines_match_oracle(q):
    elems = oracle.elements(field_of(q))
    words = [sorted(int(x) * q + int(a * x + b) for x in elems)
             for a in elems for b in elems]
    words += [sorted(int(c) * q + int(y) for y in elems) for c in elems]
    code = affine_plane_code(q)
    assert words_of(code) == [tuple((pos, 1) for pos in w) for w in words]


def oracle_spread_bases(q, n, k):
    """The spread's bases built with FieldElement arithmetic: GF(q^k)
    elements as coefficient vectors over GF(q), multiplied by x
    through the oracle's irreducible."""
    field = field_of(q)
    modulus = oracle.find_irreducible(field, k)
    zero = oracle.zero(field)
    ext = list(oracle.vectors(field, k))    # ext[0] is 0, ext[1] is 1

    def times_x(c):
        return tuple(a - c[-1] * b for a, b in zip((zero,) + c[:-1], modulus))

    r, qk = n // k, q ** k
    bases = []
    for pivot in range(r):
        for tail in range(qk ** (r - pivot - 1)):
            coords = ([ext[0]] * pivot + [ext[1]]
                      + [ext[tail // qk ** j % qk] for j in range(r - pivot - 1)])
            rows = [coords]
            for _ in range(k - 1):
                rows.append([times_x(c) for c in rows[-1]])
            bases.append([[x for c in row for x in c] for row in rows])
    return field, bases


@pytest.mark.parametrize("q,n,k", [
    (2, 4, 2), (2, 6, 3), (2, 6, 2), (3, 4, 2), (3, 3, 1), (4, 4, 2),
    (8, 4, 2), (9, 4, 2), (4, 6, 3),
])
def test_spread_bases_and_points_match_oracle(q, n, k):
    field, bases = oracle_spread_bases(q, n, k)
    code = spread_code(q, n, k)
    want = [[[int(x) for x in row] for row in oracle.rref(basis)]
            for basis in bases]
    assert code.subspaces.tolist() == want
    for basis, word in zip(bases, code.binary.positions):
        span = set()
        for coeffs in product(oracle.elements(field), repeat=k):
            vec = [oracle.zero(field)] * n
            for c, row in zip(coeffs, basis):
                vec = [a + c * b for a, b in zip(vec, row)]
            span.add(oracle.vector_encoding(vec))
        assert [0, *(word + 1).tolist()] == sorted(span)


# sha256 of the files written before the field became integer-coded
AFFINE_DIGESTS = {
    4: "0cd882b52f172d5d9b84b81dfed8e52df641dd412d86c18c26f2a0b7c53c0ea9",
    8: "e4cf3aab2e525f2bdfb96dc4165dd90575500621504820aa2c13fd296bd90cfd",
    9: "64a96fd23e9e0793459e792b4eb8cdfbe3c4edb809ce95ed861722b682aad085",
    16: "118327c03b509c590166dd81d8d714ef65e59576038ebf1ce1bff5347723749e",
}
DEVORE_DIGESTS = {
    (7, 3): "db4a35fcb31506586393287ade73a6caa545070981cb08dc1b23784300ebd20d",
    (8, 3): "c6952de88e13282a401896c85f262d722e9cd313f7e9daba4727d1837de76380",
    (16, 2): "1e20db721d140170ecace23891709fee4832c46b3c7eab83478b68fd2b77b789",
}


def sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.mark.parametrize("q", sorted(AFFINE_DIGESTS))
def test_affine_file_digest_frozen(q):
    assert sha256(dumps_code(affine_plane_code(q))) == AFFINE_DIGESTS[q]


@pytest.mark.parametrize("params", sorted(DEVORE_DIGESTS))
def test_devore_file_digest_frozen(params):
    assert sha256(dumps_matrix(devore(*params))) == DEVORE_DIGESTS[params]
