"""Designs: triple systems, affine planes, spreads and their codes."""

import functools
import hashlib
import tracemalloc
from collections import Counter
from itertools import combinations, product

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from codes_oracle import coset_code, words_of
from cwsense import codes, designs
from cwsense.codes import dumps_code
from cwsense.designs import (SteinerTripleSystem, _rref, affine_plane_code,
                             certify_subspace_code, dumps_subspace_code,
                             load_subspace_code, loads_subspace_code,
                             make_sts, save_subspace_code, spread_code,
                             steiner_to_code, sts_bose, sts_skolem,
                             subspace_to_code, subspace_to_coset_code)
from cwsense.errors import BudgetError, FormatError, ParameterError
from cwsense.field import (FiniteField, factor_prime_power, find_irreducible,
                           make_field)
from field_oracle import elements, from_encoding, rref, vector_encoding


# -- Steiner triple systems -------------------------------------------------

@pytest.mark.parametrize("n,blocks", [
    (7, 7), (9, 12), (13, 26), (15, 35), (19, 57), (21, 70),
])
def test_sts_block_counts(n, blocks):
    sts = make_sts(n)
    assert len(sts) == blocks
    assert sts.tag == ("bose" if n % 6 == 3 else "skolem")


def test_sts_constructor_checks_pair_coverage():
    # The dataclass revalidates everything, so a tampered block list fails.
    good = make_sts(9)
    bad = [list(b) for b in good.blocks]
    bad[0] = (0, 1, 3)
    with pytest.raises(ParameterError):
        SteinerTripleSystem(9, [tuple(b) for b in bad], "tampered")


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 7, 9, 13, 15]), st.data())
def test_sts_pair_check_matches_pair_set_oracle(n, data):
    """A block array with one point moved (possibly out of range) or two
    points swapped is accepted exactly when a brute-force pair count
    finds three distinct points in [0, n) per block and every pair of
    points in exactly one block."""
    blocks = make_sts(n).blocks.tolist()
    index = st.tuples(st.integers(0, len(blocks) - 1), st.integers(0, 2))
    (i, j), (i2, j2) = data.draw(index), data.draw(index)
    if data.draw(st.booleans(), label="move"):
        blocks[i][j] = data.draw(st.integers(-1, n), label="point")
    else:
        blocks[i][j], blocks[i2][j2] = blocks[i2][j2], blocks[i][j]
    counts = Counter(pair for block in blocks
                     for pair in combinations(sorted(block), 2))
    valid = (all(len(set(b)) == 3 and 0 <= min(b) and max(b) < n
                 for b in blocks)
             and set(counts.values()) == {1}
             and len(counts) == n * (n - 1) // 2)
    if valid:
        sts = SteinerTripleSystem(n, blocks, "tampered")
        assert sts.blocks.tolist() == [sorted(b) for b in blocks]
    else:
        with pytest.raises(ParameterError):
            SteinerTripleSystem(n, blocks, "tampered")


@pytest.mark.parametrize("n", [5, 8, 11, 6, 0])
def test_sts_wrong_residues_rejected(n):
    with pytest.raises(ParameterError):
        make_sts(n)


def test_sts_dispatch_matches_direct_constructors():
    assert np.array_equal(make_sts(9).blocks, sts_bose(9).blocks)
    assert np.array_equal(make_sts(13).blocks, sts_skolem(13).blocks)
    with pytest.raises(ParameterError):
        sts_bose(13)
    with pytest.raises(ParameterError):
        sts_skolem(9)


# sha256 of dumps_code(steiner_to_code(make_sts(n))): the blocks, their
# order and so the files must not drift when the constructions change
# (Bose for n = 3 mod 6, Skolem for n = 1 mod 6).
STS_DIGESTS = {
    3: "c3a246623c8f441e7ffcbbc72ebe9c3fffec550182ac7572ab82b1b77d8f3346",
    7: "cb4ac50be0cd3bd6c0feec456bbb3ae6f49d9aeb48d801926ac300b5b0ce280a",
    9: "731a8e42ef4b8d2ef907eb6106485b4cf6271c2c5003d282068202c36d51a565",
    13: "36ca59aef6425be75b49fe071a4182a667a8b043b68a94c90a943778d06ee978",
    109: "6c61b0c07be4120cbb287e3fe1814c6f814cb40d9ed4566ccb0b03ac2f5eda0b",
    331: "6f91936b3aa425244a8f40cf262261ce83c6eeb2b7a8b9ef323a995e64655856",
}


@pytest.mark.parametrize("n", sorted(STS_DIGESTS))
def test_sts_code_file_digest_frozen(n):
    text = dumps_code(steiner_to_code(make_sts(n)))
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == STS_DIGESTS[n]


def test_steiner_code_parameters():
    code = steiner_to_code(make_sts(9))
    assert (code.n, code.w, code.d, len(code)) == (9, 3, 4, 12)
    assert code.provenance == "steiner-bose n=9"


def test_steiner_code_degenerate_three_points():
    code = steiner_to_code(make_sts(3))
    assert len(code) == 1 and code.d == 4  # sentinel n + 1


@pytest.mark.parametrize("n", [3, 7, 9, 109])
def test_steiner_code_runs_the_kernel_once(monkeypatch, n):
    calls = []
    real = codes.array_maxima

    def counted(n, positions, signs):
        calls.append(n)
        return real(n, positions, signs)
    for module in (codes, designs):  # every name it is bound to
        if hasattr(module, "array_maxima"):
            monkeypatch.setattr(module, "array_maxima", counted)
    sts = make_sts(n)
    code = steiner_to_code(sts)
    assert calls == [n]
    assert code is sts.code and code.positions is sts.blocks
    assert code.provenance == f"steiner-{sts.tag} n={n}"


def test_sts_refuses_a_pair_covered_twice():
    # (0, 1, 3) in place of (0, 3, 7) shares (0, 1) with (0, 1, 2)
    blocks = make_sts(9).blocks.tolist()
    blocks[blocks.index([0, 3, 7])] = [0, 1, 3]
    with pytest.raises(ParameterError,
                       match="^two blocks cover the same pair of points$"):
        SteinerTripleSystem(9, blocks, "tampered")
    with pytest.raises(ParameterError, match="^STS.9. has 12 blocks, got 11$"):
        SteinerTripleSystem(9, blocks[1:], "tampered")


# -- affine planes ------------------------------------------------------------

@pytest.mark.parametrize("q", [2, 3, 4, 5, 17])  # 17: N = 306, d = 32
def test_affine_plane_parameters(q):
    code = affine_plane_code(q)
    assert (code.n, code.w, len(code)) == (q * q, q, q * q + q)
    assert code.d == 2 * (q - 1)


def test_affine_plane_lines_cover_pairs_once():
    # Two points of AG(2, 3) lie on exactly one common line.
    code = affine_plane_code(3)
    for p, r in combinations(range(9), 2):
        containing = [w for w in words_of(code) if (p, 1) in w and (r, 1) in w]
        assert len(containing) == 1


def test_affine_plane_rejections():
    with pytest.raises(ParameterError):
        affine_plane_code(6)       # not a prime power
    with pytest.raises(BudgetError):
        affine_plane_code(79)      # 8 * 79^2 * (79^2 + 79) bytes > DENSE_CAP


# -- spreads and subspace codes ----------------------------------------------

@pytest.mark.parametrize("q,n,k,size", [
    (2, 4, 2, 5), (2, 6, 2, 21), (2, 6, 3, 9), (3, 4, 2, 10),
])
def test_spread_sizes_and_distance(q, n, k, size):
    code = spread_code(q, n, k)
    assert len(code) == size
    assert code.d == 2 * k


# sha256 of dumps_subspace_code(spread_code(q, n, k)): the bases, and so
# the files, must not drift when the construction's arithmetic changes
# (prime and extension fields, k = 1 to 4).
SPREAD_DIGESTS = {
    (2, 6, 3): "4378958d8125da97d9cfa427d234616900e4c637e7b00879d436ea0132a537e2",
    (3, 4, 2): "5b3d50c7ca7a011fb28abe910e4ea283abc5b8d7e91b78f1d8f6c40b6b6ea3ba",
    (4, 4, 2): "d486260fe845cfec0a5b0e07b590a950cd505d277ea4cf5fffb588b6163decf1",
    (8, 4, 2): "6c60f7a8cfb43f04d39fea0dc3d0d7e1cbe411371bea2867d7b17ced5ca808c9",
    (9, 4, 2): "bf97921acadd7b0452ccfdba26c0a95d55bd20cfa851915224387f74a52a0f1e",
    (2, 8, 4): "6b78cf74afad17b6a3bb30b68aa58752c1d5c5baea181ce513331e6b5532f660",
    (4, 6, 3): "01959fccd55f45c683a61c2aeed1de870a685a8f9d6d72f20ecf8115d781e1f1",
    (3, 3, 1): "13664eb615cb8a2466479596dd548e33c9b1de902d050d0f79b50b5a08bd46f8",
    # the other three instances of the benchmark's spread workload
    (2, 8, 2): "08c766b49a29561db1d46cd1182ac4661a6f05e26ccb1ad341ce6c9c6a7b161f",
    (3, 6, 2): "eb9d5bfb6e84e45c7a4f553f5ca003487259434d8e59950662199e4c57c56589",
    (2, 9, 3): "baf06e2c951d000308524f70cead6dafcef25a0642cb344d64b6702b9847338a",
}


@pytest.mark.parametrize("params", sorted(SPREAD_DIGESTS))
def test_spread_file_digest_frozen(params):
    text = dumps_subspace_code(spread_code(*params))
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    assert digest == SPREAD_DIGESTS[params]


def test_spread_requires_divisibility():
    with pytest.raises(ParameterError):
        spread_code(2, 5, 2)


def test_spread_budget():
    with pytest.raises(BudgetError):
        spread_code(2, 21, 3)


@pytest.mark.parametrize("q,n,k", [(2, 8, 4), (2, 12, 3), (4, 4, 2),
                                   (9, 4, 2), (16, 4, 2), (2, 16, 16),
                                   (3, 9, 9)])
def test_subspace_stages_peak_within_their_estimate(q, n, k):
    # _subspace_bytes admits spreading, certifying and loading in place of
    # a cap on q^n, so each must stay within it (k = n is one subspace
    # whose points alone are the whole space)
    field = make_field(*factor_prime_power(q))
    find_irreducible(field, k)
    code = spread_code(q, n, k)
    text = dumps_subspace_code(code)
    estimate = designs._subspace_bytes(q, n, k, len(code))
    for stage in (lambda: spread_code(q, n, k),
                  lambda: certify_subspace_code(field, n, k, code.subspaces),
                  lambda: loads_subspace_code(text)):
        tracemalloc.start()
        try:
            stage()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= estimate


def test_spread_memory_budget_before_enumeration():
    # q^n = 2^20 is within SPREAD_CAP, but certifying 2^20 - 1 lines would
    # need a 2^20 x (2^20 - 1) float64 array: refused before any basis
    tracemalloc.start()
    try:
        with pytest.raises(BudgetError):
            spread_code(2, 20, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (2, 6, 2), (2, 6, 3), (3, 4, 2)])
def test_spread_code_words_partition_nonzero_vectors(q, n, k):
    code = subspace_to_code(spread_code(q, n, k))
    assert (code.n, code.w) == (q ** n - 1, q ** k - 1)
    covered = [pos for word in words_of(code) for pos, _ in word]
    assert sorted(covered) == list(range(q ** n - 1))  # each exactly once
    assert code.d == 2 * code.w  # disjoint supports


@pytest.mark.parametrize("q,n,k", [(4, 8, 4), (16, 4, 2)])
def test_spread_certifies_its_nonzero_points_in_little_memory(q, n, k):
    # 257 subspaces of 256 points: with the shared zero vector every pair
    # repeats a level-1 key and level 2 took about 130 MiB; on the
    # nonzero points level 1 already answers
    tracemalloc.start()
    try:
        code = spread_code(q, n, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.d == 2 * k
    assert peak < 16 << 20


@pytest.mark.parametrize("q,n,k", [(2, 4, 2), (3, 4, 2), (8, 4, 2), (4, 8, 4)])
def test_spread_and_its_binary_code_run_the_kernel_once(monkeypatch, q, n, k):
    calls = []
    real = codes.array_maxima

    def counted(n, positions, signs):
        calls.append(n)
        return real(n, positions, signs)
    for module in (codes, designs):  # every name it is bound to
        if hasattr(module, "array_maxima"):
            monkeypatch.setattr(module, "array_maxima", counted)
    spread = spread_code(q, n, k)
    code = subspace_to_code(spread)
    assert calls == [q ** n - 1]
    assert code is not spread.binary  # its own provenance, same words
    assert code.provenance == f"subspace spread q={q} n={n} k={k}"
    assert (code.n, code.w, code.d) == (q ** n - 1, q ** k - 1, 2 * code.w)


def test_coset_code_frozen_small_case():
    code = subspace_to_coset_code(spread_code(2, 4, 2))
    assert (code.n, code.w, code.d, len(code)) == (15, 4, 6, 15)
    assert "achieved=15 nominal=10" in code.provenance


def test_coset_code_budget():
    field = make_field(2)
    basis = [tuple(1 if i == 0 else 0 for i in range(17))]
    tiny = certify_subspace_code(field, 17, 1, [basis])
    with pytest.raises(BudgetError):
        subspace_to_coset_code(tiny)  # 65,535 cosets: past the dense cap


COSET_SPREADS = [(2, 4, 2), (2, 6, 2), (2, 6, 3), (2, 8, 2), (2, 9, 3),
                 (2, 10, 5), (3, 4, 2), (3, 6, 3), (4, 4, 2), (4, 2, 1),
                 (5, 4, 2), (7, 4, 2), (8, 4, 2), (2, 3, 3)]


def hyperplanes(n):
    """The 2^n - 1 hyperplanes of GF(2)^n, the kernels of the nonzero
    functionals a: e_j for j not the lowest set bit p of a, plus e_p
    where a has bit j."""
    bases = []
    for a in range(1, 1 << n):
        p = (a & -a).bit_length() - 1
        bases.append([[int(i == j or (i == p and a >> j & 1))
                       for i in range(n)] for j in range(n) if j != p])
    return certify_subspace_code(make_field(2), n, n - 1, bases,
                                 provenance="hyperplanes")


def random_subspace_codes(count, seed=20):
    """Seeded certified codes over fields up to GF(9) with q^n <= 4096
    and at most 20,000 vectors swept in all; draws that repeat a
    subspace or lose rank are redrawn."""
    rng = np.random.default_rng(seed)
    out = []
    while len(out) < count:
        q = int(rng.choice([2, 3, 4, 5, 7, 8, 9]))
        top = next(m for m in range(13) if q ** (m + 1) > 4096)
        n = int(rng.integers(1, top + 1))
        k = int(rng.integers(1, n + 1))
        size = int(rng.integers(1, 1 + min(6, 20000 // q ** n)))
        field = make_field(*factor_prime_power(q))
        try:
            out.append(certify_subspace_code(
                field, n, k, rng.integers(0, q, (size, k, n)),
                provenance=f"random #{len(out)}"))
        except ParameterError:
            continue
    return out


def coset_outcome(convert, code, traced=False):
    """(outcome, tracemalloc peak or None) of one conversion; the outcome
    is the positions bytes, provenance, d and inner, or the error's type
    and message."""
    if traced:
        tracemalloc.start()
    try:
        got = convert(code)
        outcome = (got.positions.tobytes(), got.provenance, got.d, got.inner)
    except Exception as exc:
        outcome = (type(exc), str(exc))
    finally:
        peak = tracemalloc.get_traced_memory()[1] if traced else None
        tracemalloc.stop()  # a no-op when not tracing
    return outcome, peak


PEAK_CASES = [(8, 4, 2), "hyperplanes"]


@functools.cache
def coset_outcomes(case):
    """Oracle and library outcome (and peak, for PEAK_CASES) for a
    spread's (q, n, k), 'hyperplanes' or five coordinate 'axes',
    computed once for the tests that share them."""
    if case == "axes":  # 10,235 cosets of GF(2)^12: past the byte budget
        code = certify_subspace_code(make_field(2), 12, 1,
                                     np.eye(12, dtype=int)[:5, None])
    else:
        code = hyperplanes(10) if case == "hyperplanes" else spread_code(*case)
    return [coset_outcome(convert, code, case in PEAK_CASES)
            for convert in (coset_code, subspace_to_coset_code)]


@pytest.mark.parametrize("case", COSET_SPREADS + ["hyperplanes", "axes"],
                         ids=str)
def test_coset_code_matches_the_sweep_oracle(case):
    (want, _), (got, _) = coset_outcomes(case)
    assert got == want


def test_coset_code_matches_the_sweep_oracle_on_random_codes():
    cases = random_subspace_codes(50)
    assert {code.field.q for code in cases} == {2, 3, 4, 5, 7, 8, 9}
    for code in cases:
        want, _ = coset_outcome(coset_code, code)
        assert coset_outcome(subspace_to_coset_code, code)[0] == want, \
            code.provenance


@pytest.mark.parametrize("case", PEAK_CASES, ids=str)
def test_coset_code_peak_memory_at_most_the_sweeps(case):
    (_, want), (_, got) = coset_outcomes(case)
    assert got <= want


@pytest.mark.parametrize("q,n,k", [(2, 12, 2), (2, 10, 2), (4, 6, 2)])
def test_coset_code_is_refused_before_any_coset(monkeypatch, q, n, k):
    # 1,396,395, 86,955 and 69,615 cosets: refused from their count
    # alone, before the one field.add that would form them
    spread = spread_code(q, n, k)

    def no_cosets(*args):
        raise AssertionError("a coset was formed before the budget check")
    monkeypatch.setattr(FiniteField, "add", no_cosets)
    with pytest.raises(BudgetError, match="past the cap"):
        subspace_to_coset_code(spread)


def test_coset_code_forms_every_coset_in_one_add(monkeypatch):
    spread = spread_code(2, 8, 2)
    calls = []
    real = FiniteField.add

    def counted(self, a, b, n=1):
        calls.append(n)
        return real(self, a, b, n)
    monkeypatch.setattr(FiniteField, "add", counted)
    code = subspace_to_coset_code(spread)
    assert calls == [8]
    assert len(code) == 85 * 63


def test_coset_code_past_q_n_of_2_16():
    # q^n = 2^17 fits when the count does: one hyperplane has one proper
    # coset, its complement
    basis = [[int(i == j) for i in range(17)] for j in range(16)]
    code = subspace_to_coset_code(
        certify_subspace_code(make_field(2), 17, 16, [basis]))
    assert (code.n, code.w, len(code)) == ((1 << 17) - 1, 1 << 16, 1)
    assert code.positions.tolist() == [list(range((1 << 16) - 1,
                                                  (1 << 17) - 1))]
    assert "achieved=1 nominal=1" in code.provenance


def test_certify_subspace_code_rejections():
    field = make_field(2)
    e = lambda *bits: tuple(bits)
    with pytest.raises(ParameterError):
        certify_subspace_code(field, 4, 2, [(e(1, 0, 0, 0), e(1, 0, 0, 0))])
    with pytest.raises(ParameterError):
        certify_subspace_code(field, 4, 2, [
            (e(1, 0, 0, 0), e(0, 1, 0, 0)),
            (e(0, 1, 0, 0), e(1, 0, 0, 0)),   # same subspace, other order
        ])
    with pytest.raises(ParameterError):
        certify_subspace_code(field, 4, 0, [])
    a, b = (e(1, 0, 0, 0), e(0, 1, 0, 0)), (e(0, 0, 1, 0), e(0, 0, 0, 1))
    with pytest.raises(ParameterError, match="^duplicate subspace #2$"):
        certify_subspace_code(field, 4, 2, [a, b, a, b])


def test_rank_error_names_the_first_deficient_basis():
    field = make_field(3)
    full = ((1, 0, 2), (0, 1, 1))
    deficient = ((1, 2, 0), (2, 1, 0))   # the second row is twice the first
    with pytest.raises(ParameterError,
                       match=r"^basis #1 has rank 1, expected 2$"):
        certify_subspace_code(field, 3, 2, [full, deficient,
                                            ((0, 0, 1), (1, 0, 0)),
                                            ((0, 0, 0), (0, 0, 0))])


def test_certification_reduces_all_bases_in_one_pass(monkeypatch):
    # 1365 lines of GF(2)^12: one field.sub per column, where reducing
    # each basis on its own subtracts once per pivot of every basis
    spread = spread_code(2, 12, 2)
    calls = []
    real = FiniteField.sub

    def counted(self, a, b, n=1):
        calls.append(n)
        return real(self, a, b, n)
    monkeypatch.setattr(FiniteField, "sub", counted)
    code = certify_subspace_code(spread.field, 12, 2, spread.subspaces)
    assert len(calls) <= 12
    assert code.d == 4
    assert (code.subspaces == spread.subspaces).all()


def test_over_budget_subspace_file_is_refused_before_reduction(monkeypatch):
    # 65,535 lines of GF(2)^16 would be a 2^16 x 65,535 float64 array:
    # refused from N and q^n before any basis is reduced
    def no_reduction(*args):
        raise AssertionError("a basis was reduced before the budget check")
    monkeypatch.setattr(designs, "_rref", no_reduction)
    text = "2 16 1 2\n" + "\n".join(map(str, range(1, 1 << 16))) + "\n"
    with pytest.raises(BudgetError, match="past the cap"):
        loads_subspace_code(text)


@pytest.mark.parametrize("bad", [3, -1, 2 ** 70, 1.5, "ragged", "empty"])
def test_certify_subspace_code_rejects_coordinates_outside_field(bad):
    # 1.5 and 2^70 must be refused, not truncated or overflowed on the
    # way to int64; ragged bases and the empty code are refused too
    field = make_field(3)
    bases, match = {"ragged": ([((1, 0, 0), (0, 1))], "do not form"),
                    "empty": ([], "at least one")}.get(
        bad, ([((1, 0, 0), (0, 1, bad))], "outside"))
    with pytest.raises(ParameterError, match=match):
        certify_subspace_code(field, 3, 2, bases)


def test_certified_subspace_distance_counts_intersection():
    field = make_field(2)
    e = lambda *bits: tuple(bits)
    code = certify_subspace_code(field, 4, 2, [
        (e(1, 0, 0, 0), e(0, 1, 0, 0)),
        (e(1, 0, 0, 0), e(0, 0, 1, 0)),   # shares the first axis
    ])
    assert code.d == 2  # 2k - 2 dim(U & V) = 4 - 2


def test_large_subspaces_certify_within_one_word_tile():
    # two 12-dimensional subspaces of GF(2)^20 meeting in 11 dimensions:
    # words of 4096 points out of 2^20.  Their 2 C(4096, 2) level-2 keys
    # would take 537 MB, past the 16 MiB tile of both words, so the
    # tiles answer and the peak stays near that one tile
    k = 12
    first = " ".join(str(1 << i) for i in range(k))
    second = " ".join(str(1 << i) for i in (*range(k - 1), k))
    tracemalloc.start()
    try:
        code = loads_subspace_code(f"2 20 {k} 0\n{first}\n{second}\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code.d == 2
    assert peak < 8 * 2 * (1 << 20) + (1 << 20)  # 17 MiB


def test_subspace_file_round_trip(tmp_path):
    code = spread_code(2, 4, 2)
    text = dumps_subspace_code(code)
    loaded = loads_subspace_code(text)
    assert dumps_subspace_code(loaded) == text
    assert loaded.provenance == code.provenance
    assert loaded != code  # identity, not an ambiguous array comparison
    path = tmp_path / "spread.txt"
    save_subspace_code(code, path)
    assert dumps_subspace_code(load_subspace_code(path)) == text


def test_subspace_loads_rejections():
    with pytest.raises(FormatError):
        loads_subspace_code("")                       # no header
    with pytest.raises(FormatError):
        loads_subspace_code("6 4 2 4\n1 2\n")         # q not a prime power
    with pytest.raises(FormatError):
        loads_subspace_code("2 4 2 4\n1\n")           # wrong row count
    with pytest.raises(FormatError):
        loads_subspace_code("2 4 2 4\n1 99\n")        # encoding out of range
    with pytest.raises(FormatError):
        loads_subspace_code("2 4 2 4\nx y\n")         # non-integer entry


def test_subspace_loads_overstated_distance_rejected():
    code = spread_code(2, 4, 2)
    text = dumps_subspace_code(code)
    lied = text.replace("2 4 2 4", "2 4 2 6")
    with pytest.raises(FormatError):
        loads_subspace_code(lied)


# -- point-set certification against a rank oracle ----------------------------

@st.composite
def subspace_codes(draw):
    """Random small codes over GF(2), GF(3) and GF(4): distinct full-rank
    bases (random rows, so overlapping non-spread subspaces are common),
    possibly a single subspace, never none (a code needs one)."""
    q = draw(st.sampled_from((2, 3, 4)))
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, n))
    field = make_field(*factor_prime_power(q))
    rows = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    bases, keys = [], set()
    for basis in draw(st.lists(st.lists(rows, min_size=k, max_size=k),
                               min_size=1, max_size=6)):
        red = tuple(map(tuple, oracle_rref(field, basis)))
        if len(red) == k and red not in keys:
            keys.add(red)
            bases.append(tuple(map(tuple, basis)))
    assume(bases)
    return field, n, k, bases


def oracle_rref(field, rows):
    """RREF of int coordinate rows by the FieldElement oracle, as ints."""
    red = rref([[from_encoding(field, x) for x in row] for row in rows])
    return [[int(x) for x in row] for row in red]


def span_oracle(field, basis):
    """Sorted encodings of every combination of the rows, by field ops."""
    basis = [[from_encoding(field, x) for x in row] for row in basis]
    n = len(basis[0])
    points = set()
    for coeffs in product(elements(field), repeat=len(basis)):
        vec = [from_encoding(field, 0)] * n
        for c, row in zip(coeffs, basis):
            vec = [a + c * b for a, b in zip(vec, row)]
        points.add(vector_encoding(vec))
    return sorted(points)


@settings(max_examples=150, deadline=None)
@given(subspace_codes())
def test_point_set_distance_matches_rank_oracle(case):
    field, n, k, bases = case
    code = certify_subspace_code(field, n, k, bases)
    subspaces = code.subspaces.tolist()
    want = min((2 * k - 2 * (2 * k - len(oracle_rref(field, a + b)))
                for a, b in combinations(subspaces, 2)),
               default=2 * k)  # the single-subspace sentinel
    assert code.d == want
    assert subspaces == [oracle_rref(field, b) for b in bases]
    for basis, red in zip(bases, subspaces):
        assert _rref(field, np.array([basis]))[0][0].tolist() == red
    # the certificate's words are the nonzero points, encodings minus one
    positions = code.binary.positions
    assert positions.shape == (len(bases), field.q ** k - 1)
    for basis, word in zip(subspaces, positions):
        assert [0, *(word + 1).tolist()] == span_oracle(field, basis)


@st.composite
def basis_stacks(draw):
    """N x k x n stacks over GF(2), GF(3), GF(4) and GF(9) whose items
    are random rows (often rank-deficient), rows with zero rows mixed
    in, or an already reduced basis padded with zero rows; k = n is
    drawn as often as the other k put together."""
    q = draw(st.sampled_from((2, 3, 4, 9)))
    n = draw(st.integers(1, 5))
    k = draw(st.one_of(st.just(n), st.integers(1, n)))
    field = make_field(*factor_prime_power(q))
    row = st.lists(st.integers(0, q - 1), min_size=n, max_size=n)
    items = []
    for _ in range(draw(st.integers(1, 8))):
        rows = draw(st.lists(row, min_size=k, max_size=k))
        kind = draw(st.sampled_from(("random", "zeros", "reduced")))
        if kind == "zeros":
            rows = [r if draw(st.booleans()) else [0] * n for r in rows]
        elif kind == "reduced":
            red = oracle_rref(field, rows)
            rows = red + [[0] * n] * (k - len(red))
        items.append(rows)
    return field, np.array(items, dtype=np.int64).reshape(-1, k, n)


@settings(max_examples=300, deadline=None)
@given(basis_stacks())
def test_batched_rref_matches_oracle_per_item(case):
    field, stack = case
    before = stack.copy()
    reduced, rank = _rref(field, stack)
    assert (stack == before).all()  # the input is not touched
    assert reduced.shape == stack.shape and rank.shape == (len(stack),)
    for item, red, r in zip(stack.tolist(), reduced, rank.tolist()):
        want = oracle_rref(field, item)
        assert r == len(want)
        assert red[:r].tolist() == want
        assert not red[r:].any()  # below the rank only zero rows


@settings(max_examples=100, deadline=None)
@given(subspace_codes(), st.data())
def test_subspace_file_round_trip_and_damage(case, data):
    field, n, k, bases = case
    text = dumps_subspace_code(certify_subspace_code(field, n, k, bases))
    assert dumps_subspace_code(loads_subspace_code(text)) == text
    cut = data.draw(st.integers(0, len(text)), label="cut")
    pos = data.draw(st.integers(0, len(text) - 1), label="pos")
    char = data.draw(st.sampled_from("0123456789 -+\n#x"), label="char")
    for damaged in (text[:cut], text[:pos] + char + text[pos + 1:],
                    text[:pos] + char + text[pos:]):
        try:
            loads_subspace_code(damaged)
        except (FormatError, BudgetError):
            pass
