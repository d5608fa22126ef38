"""Codes: exact distances, frozen bound values, constructions, file I/O."""

import math
import time
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import codes_oracle
from codes_oracle import (arrays_of, binary_distance, code_of, greedy_words,
                          moment_bucket, ternary_distance, words_of)
from cwsense import codes, designs, errors
from cwsense.codes import (array_maxima, certify_binary,
                           dimension_binary_gilbert, dimension_binary_gs,
                           dimension_ternary_gilbert, dumps_code,
                           gilbert_bound, graham_sloane_bound,
                           graham_sloane_construct, greedy_binary,
                           greedy_ternary, load_code, loads_code, save_code,
                           repeated_rows, smallest_prime_at_least,
                           ternary_gilbert_bound, validate)
from cwsense.errors import BudgetError, FormatError, ParameterError
from cwsense.matrices import dumps_matrix, from_code, loads_matrix
from cwsense.textio import parse_words, read_lines

# Lines of the projective plane of order 2: the classic (7, 4, 3) code.
FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
        (2, 3, 6), (2, 4, 5)]


# -- distances ------------------------------------------------------------

def test_binary_distance_spot():
    assert binary_distance((0, 1, 2), (0, 3, 4), 3) == 4
    assert binary_distance((0, 1, 2), (0, 1, 2), 3) == 0
    assert binary_distance((0, 1), (2, 3), 2) == 4


def test_ternary_distance_spot():
    a = ((0, 1), (1, 1))
    assert ternary_distance(a, ((0, 1), (1, -1))) == 1   # one sign flip
    assert ternary_distance(a, ((2, 1), (3, 1))) == 4    # disjoint supports
    assert ternary_distance(a, ((0, 1), (2, 1))) == 2    # one moved position
    assert ternary_distance(a, a) == 0


def test_ternary_distance_matches_dense_oracle():
    rng = np.random.default_rng(7)
    n, w = 12, 4
    for _ in range(500):
        words = []
        for _ in range(2):
            sup = sorted(int(i) for i in rng.choice(n, size=w, replace=False))
            signs = [1 if b else -1 for b in rng.integers(0, 2, size=w)]
            words.append(tuple(zip(sup, signs)))
        dense = np.zeros((2, n), dtype=int)
        for row, word in enumerate(words):
            for pos, sign in word:
                dense[row, pos] = sign
        assert ternary_distance(*words) == int(np.sum(dense[0] != dense[1]))


# -- pairwise kernel --------------------------------------------------------

def overlap_maxima(n, words):
    """array_maxima of the tuple words."""
    return array_maxima(n, *arrays_of(words, 0))


def tile_maxima(n, words):
    """The float64 tile path alone on the tuple words."""
    return codes._tile_maxima(n, *arrays_of(words, 0))


@st.composite
def signed_supports(draw):
    n = draw(st.integers(1, 9))
    w = draw(st.integers(1, n))
    words = draw(st.lists(
        st.tuples(st.permutations(range(n)),
                  st.lists(st.sampled_from((1, -1)), min_size=w, max_size=w)),
        max_size=12))
    return n, w, [tuple(sorted(zip(perm[:w], signs))) for perm, signs in words]


def brute_extremes(n, words):
    """(max |G|, 2w - min distance) over pairs, by the per-pair references
    and an int64 Gram; (0, 0) without a pair."""
    if len(words) < 2:
        return 0, 0
    w = len(words[0])
    a = np.zeros((n, len(words)), dtype=np.int64)
    for j, word in enumerate(words):
        for pos, sign in word:
            a[pos, j] = sign
    gram = a.T @ a
    np.fill_diagonal(gram, 0)
    dist = min(ternary_distance(x, y)
               for i, x in enumerate(words) for y in words[i + 1:])
    return int(np.abs(gram).max()), 2 * w - dist


@settings(max_examples=200, deadline=None)
@given(signed_supports())
def test_overlap_maxima_matches_brute_force(case):
    n, w, words = case
    assert overlap_maxima(n, words) == brute_extremes(n, words)
    unsigned = sorted({tuple((p, 1) for p, _ in word) for word in words})
    top_g, top_s = overlap_maxima(n, unsigned)
    assert top_s == 2 * top_g  # binary words: G = S
    if len(unsigned) >= 2:
        supports = [tuple(p for p, _ in word) for word in unsigned]
        dist = min(binary_distance(x, y, w)
                   for i, x in enumerate(supports) for y in supports[i + 1:])
        assert top_s == 2 * w - dist


def test_overlap_maxima_ragged_tiles(monkeypatch):
    rng = np.random.default_rng(3)
    n, w = 11, 4
    words = []
    for _ in range(40):
        sup = sorted(int(i) for i in rng.choice(n, size=w, replace=False))
        words.append(tuple((p, 1 if b else -1)
                           for p, b in zip(sup, rng.integers(0, 2, size=w))))
    want = brute_extremes(n, words)
    for tile in (1, 3, 7, 40, 41):
        monkeypatch.setattr(codes, "PAIR_TILE", tile)
        assert tile_maxima(n, words) == want
    # the closest pair straddles a tile boundary and sits at the ragged end
    far = [((0, 1),), ((1, 1),), ((2, 1),), ((3, 1),), ((4, 1),),
           ((5, 1),), ((6, 1),), ((0, -1),)]
    for tile in (3, 5):
        monkeypatch.setattr(codes, "PAIR_TILE", tile)
        assert tile_maxima(8, far) == (1, 1)
        assert tile_maxima(8, far[:-1]) == (0, 0)


def test_overlap_maxima_memory_budget(monkeypatch):
    words = [((0, 1), (1, 1)), ((1, 1), (2, 1)), ((0, 1), (2, -1))]
    monkeypatch.setattr(errors, "BYTE_BUDGET", 8 * 3 * 3)  # one 3 x 3 array
    assert overlap_maxima(3, words[:2] + [((0, 1), (2, 1))]) == (1, 2)
    # signed words are admitted at the binary size: no path holds a
    # second n x N array
    assert overlap_maxima(3, words) == (1, 2)
    with pytest.raises(BudgetError):   # 4 x 3 binary words
        overlap_maxima(4, words[:2] + [((0, 1), (3, 1))])


@st.composite
def sparse_words(draw):
    """Few positions per word out of many: signed words whose supports
    mostly meet in at most one position, the subset path's signed case."""
    n = draw(st.integers(3, 30))
    w = draw(st.integers(1, 3))
    words = draw(st.lists(
        st.tuples(st.lists(st.integers(0, n - 1), min_size=w, max_size=w,
                           unique=True),
                  st.lists(st.sampled_from((1, -1)), min_size=w, max_size=w)),
        max_size=14))
    return n, w, [tuple(sorted(zip(sup, signs))) for sup, signs in words]


@st.composite
def crowded_words(draw):
    """11 of the first 13 positions of n = 64: supports meet in 9 to 11
    positions, and the level-2 keys already need more bytes than the
    word tiles, so the subset path declines after level 1."""
    words = draw(st.lists(
        st.tuples(st.permutations(range(13)),
                  st.lists(st.sampled_from((1, -1)), min_size=11,
                           max_size=11)),
        min_size=2, max_size=5))
    return 64, 11, [tuple(sorted(zip(perm[:11], signs)))
                    for perm, signs in words]


def max_overlap(words):
    """The largest support overlap S over pairs, 0 without a pair."""
    return max((len({p for p, _ in x} & {p for p, _ in y})
                for i, x in enumerate(words) for y in words[i + 1:]),
               default=0)


def declines(n, words, w, signed):
    """Whether the subset path must leave the words to the tiles: a
    level it needs (1 to S + 1, at most w) holds more than the bytes of
    the word tiles (8 n min(N, 2 PAIR_TILE)) or has keys past int64,
    or the words are signed with S >= 2."""
    N, overlap = len(words), max_overlap(words)
    if N < 2:
        return False
    tiles = 8 * n * min(N, 2 * codes.PAIR_TILE)
    for s in range(1, min(overlap + 1, w) + 1):
        if 8 * math.comb(w, s) * (2 * N + 3 * s) > tiles or n ** s >= 1 << 62:
            return True
    return signed and overlap >= 2


@settings(max_examples=300, deadline=None)
@given(st.one_of(signed_supports(), sparse_words(), crowded_words()),
       st.booleans())
def test_subset_maxima_matches_tiles_and_brute_force(case, unsign):
    n, w, words = case
    if unsign:
        words = [tuple((p, 1) for p, _ in word) for word in words]
    positions, signs = arrays_of(words, w)
    want = brute_extremes(n, words)
    signed = bool((signs < 0).any())
    assert codes._tile_maxima(n, positions, signs) == want
    # the default tiles, then one word per tile: a smaller key budget
    for tile in (codes.PAIR_TILE, 1):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(codes, "PAIR_TILE", tile)
            assert array_maxima(n, positions, signs) == want
            top = codes._subset_maxima(n, positions, signs)
            assert top == (None if declines(n, words, w, signed) else want)


@pytest.mark.parametrize("words,want", [
    ([], (0, 0)),
    ([((2, 1),)], (0, 0)),
    ([((2, 1),), ((3, 1),)], (0, 0)),
    ([((2, 1),), ((2, 1),)], (1, 2)),      # a repeated column
    ([((2, 1),), ((2, -1),)], (1, 1)),     # repeated, signs differ
    ([((2, -1),), ((2, -1),)], (1, 2)),
    ([((2, -1),), ((3, 1),)], (0, 0)),
])
def test_subset_maxima_weight_one(words, want):
    positions, signs = arrays_of(words, 1)
    assert codes._subset_maxima(5, positions, signs) == want
    assert array_maxima(5, positions, signs) == want
    assert brute_extremes(5, words) == want
    # without a pair no level is built, however many subsets a word has
    assert codes._subset_maxima(100, *arrays_of([], 60)) == (0, 0)


def test_subset_maxima_signed_overlap_one():
    # supports meet in one position at most: the shared sign decides G
    same = [((0, 1), (1, -1)), ((1, -1), (2, 1)), ((3, 1), (4, 1))]
    opposite = [((0, 1), (1, -1)), ((1, 1), (2, 1)), ((0, -1), (3, 1))]
    for words, want in ((same, (1, 2)), (opposite, (1, 1))):
        assert codes._subset_maxima(40, *arrays_of(words, 2)) == want
        assert brute_extremes(40, words) == want
    # a shared pair of positions needs the products, whatever its signs
    words = [((0, 1), (1, 1)), ((0, 1), (1, -1))]
    assert codes._subset_maxima(40, *arrays_of(words, 2)) is None
    assert array_maxima(40, *arrays_of(words, 2)) == (0, 3)


def test_subset_maxima_repeated_supports():
    words = [((0, 1), (1, 1), (2, 1)), ((0, 1), (1, 1), (2, 1)),
             ((0, 1), (3, 1), (4, 1))]
    assert codes._subset_maxima(60, *arrays_of(words, 3)) == (3, 6)
    signed = [((0, 1), (1, 1), (2, 1)), ((0, -1), (1, 1), (2, -1))]
    assert codes._subset_maxima(60, *arrays_of(signed, 3)) is None
    assert array_maxima(60, *arrays_of(signed, 3)) == \
        brute_extremes(60, signed) == (1, 4)


def test_subset_maxima_int64_fallback():
    # levels 1 to 3 repeat and fit the budget; level 4 needs keys up to
    # n^4 = 2^68, where the first digits 0 and 2^13 would wrap to one key
    n = 1 << 17
    words = [((0, 1), (9000, 1), (9001, 1), (9002, 1)),
             ((1 << 13, 1), (9000, 1), (9001, 1), (9002, 1))]
    positions, signs = arrays_of(words, 4)
    assert codes._subset_maxima(n, positions, signs) is None
    assert array_maxima(n, positions, signs) == (3, 6)


def test_subset_path_admitted_like_tiles(monkeypatch):
    # words the subset path answers are refused by the same admission
    words = [((0, 1), (1, 1)), ((2, 1), (3, 1))]
    assert codes._subset_maxima(40, *arrays_of(words, 2)) == (0, 0)
    monkeypatch.setattr(errors, "BYTE_BUDGET", 8 * 40 * 2 - 1)
    with pytest.raises(BudgetError):
        overlap_maxima(40, words)


def test_read_lines_splits_comments_and_data():
    text = "# provenance: a\n\n# note\n1 2 3\n  # provenance: b \n4\n"
    assert read_lines(text) == ("b", [(3, "note")], [(4, "1 2 3"), (6, "4")])
    assert read_lines("") == ("ingested", [], [])


# -- validation -----------------------------------------------------------

def test_fano_certifies():
    code = certify_binary(7, 3, FANO, provenance="fano")
    assert (code.n, code.w, code.d, len(code)) == (7, 3, 4, 7)


def test_validate_rejections():
    with pytest.raises(ParameterError):
        certify_binary(7, 3, [(0, 1, 2), (0, 1, 2)])       # duplicate
    with pytest.raises(ParameterError):
        certify_binary(7, 3, [(0, 1)])                     # wrong weight
    with pytest.raises(ParameterError):
        certify_binary(7, 3, [(0, 1, 9)])                  # out of range
    with pytest.raises(ParameterError):
        certify_binary(3, 4, [(0, 1, 2, 3)])               # w > n
    for supports in ([[0, 1.5], [2, 3]],                   # never truncated
                     [],                                   # no words
                     [[0, 1], [2]],                        # ragged
                     [[0, 1], [2, 2 ** 70]]):              # past int64
        with pytest.raises(ParameterError):
            certify_binary(5, 2, supports)
    with pytest.raises(ParameterError):
        validate(code_of(7, 3, [((2, 1), (1, 1), (0, 1))], signed=False))


def test_certify_binary_leaves_the_callers_array_alone():
    """as_points hands an int64 array back uncopied, so the rows must be
    sorted into a new array."""
    supports = np.array([[2, 0, 1], [5, 4, 3]], dtype=np.int64)
    code = certify_binary(7, 3, supports)
    assert supports.tolist() == [[2, 0, 1], [5, 4, 3]]
    assert code.positions.tolist() == [[0, 1, 2], [3, 4, 5]]
    assert not np.shares_memory(code.positions, supports)


def test_first_repeat_is_named():
    a, b = ((0, 1), (1, 1)), ((0, 1), (2, 1))
    assert repeated_rows(np.array([[0, 1], [0, 2], [0, 1], [0, 2]])).tolist() \
        == [False, False, True, True]
    with pytest.raises(ParameterError, match="^duplicate codeword #2$"):
        validate(code_of(4, 2, [a, b, a, b], signed=False))
    for rows in (np.zeros((0, 3)), np.zeros((3, 0))):  # no rows, no columns
        assert repeated_rows(rows).tolist() == [False, True, True][:len(rows)]


@pytest.mark.parametrize("signed", [False, True])
def test_certify_peaks_within_its_admission(signed, monkeypatch):
    """Every support of weight 5 in 20 positions (w > n / 7), signed or
    not: certification, which sorts rows for repeats only once the
    pairwise scan has found one, stays within the 8 n N bytes the words
    are admitted at."""
    supports = np.array(list(combinations(range(20), 5)))
    signs = np.ones_like(supports, dtype=np.int8)
    signs[:, 0] = -1 if signed else 1
    sizes, real = [], codes.admit

    def recorded(what, size, *rest):
        sizes.append(size)
        real(what, size, *rest)
    monkeypatch.setattr(codes, "admit", recorded)
    tracemalloc.start()
    try:
        if signed:
            validate(codes.CWCode(20, 5, 0, supports, signs, signed=True))
        else:
            certify_binary(20, 5, supports)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes == [8 * 20 * len(supports)]
    assert peak <= sizes[0]


@st.composite
def planted_words(draw):
    """Distinct words of a binary or ternary code (w = 1 among them) with
    a copy of one, or in a ternary code its negation, planted anywhere."""
    n = draw(st.integers(1, 7))
    w = draw(st.integers(1, n))
    signed = draw(st.booleans())
    sign = st.sampled_from((1, -1) if signed else (1,))
    drawn = draw(st.lists(
        st.tuples(st.permutations(range(n)),
                  st.lists(sign, min_size=w, max_size=w)),
        min_size=1, max_size=10))
    words = list(dict.fromkeys(tuple(sorted(zip(perm[:w], signs)))
                               for perm, signs in drawn))
    planted = draw(st.sampled_from(words))
    if signed and draw(st.booleans(), label="negate"):
        planted = tuple((p, -s) for p, s in planted)
    words.insert(draw(st.integers(0, len(words))), planted)
    return n, w, words, signed


@settings(max_examples=200, deadline=None)
@given(planted_words())
def test_validate_names_the_first_repeat_and_certifies_negations(case):
    """A repeat is refused as the first one a brute-force scan finds and
    anything else certifies, negations too, on the subset path and on
    the tiles alone."""
    n, w, words, signed = case
    first = next((j for j in range(len(words)) if words[j] in words[:j]),
                 None)
    for tiles in (False, True):
        with pytest.MonkeyPatch.context() as mp:
            if tiles:
                mp.setattr(codes, "_subset_maxima", lambda *args: None)
            code = code_of(n, w, words, signed)
            if first is not None:
                with pytest.raises(ParameterError,
                                   match=f"^duplicate codeword #{first}$"):
                    validate(code)
            else:
                top_g, top_s = brute_extremes(n, words)
                assert validate(code) == 2 * w - top_s
                assert code.inner == top_g


def test_validate_writes_back_exact_distance():
    code = code_of(6, 2, [((0, 1), (1, 1)), ((2, 1), (3, 1)), ((0, 1), (2, 1))],
                   signed=False, d=99)
    assert validate(code) == 2
    assert code.d == 2


def test_single_word_sentinel():
    assert certify_binary(9, 4, [(0, 1, 2, 3)]).d == 10
    assert validate(signed_code(5, 2, [((0, 1), (1, -1))])) == 6


def signed_code(n, w, words):
    return code_of(n, w, words, signed=True)


def test_ternary_validation_rejections():
    with pytest.raises(ParameterError):
        validate(signed_code(5, 2, [((0, 2), (1, 1))]))      # bad sign
    with pytest.raises(ParameterError):
        validate(signed_code(5, 2, [((0, -1), (0, 1))]))     # repeated position
    # loading normalizes ordering; only direct storage must be sorted
    assert words_of(loads_code("5 2 2\n+1 +0\n")) == [((0, 1), (1, 1))]
    unsorted = signed_code(5, 2, [((1, 1), (0, 1))])
    with pytest.raises(ParameterError):
        validate(unsorted)


# -- bounds, frozen values --------------------------------------------------

@pytest.mark.parametrize("n,dist,w,value", [
    (40, 10, 6, 4),
    (12, 6, 4, 2),
    (9, 4, 3, 4),
    (10, 2, 2, 45),
])
def test_gilbert_bound_frozen(n, dist, w, value):
    assert gilbert_bound(n, dist, w).value == value


@pytest.mark.parametrize("n,dist,w,value,q", [
    (10, 4, 3, 10, 11),
    (9, 4, 3, 7, 11),
    (40, 6, 10, 504259, 41),
    (12, 4, 4, 38, 13),
])
def test_graham_sloane_bound_frozen(n, dist, w, value, q):
    report = graham_sloane_bound(n, dist, w)
    assert report.value == value
    assert report.params["q"] == q


@pytest.mark.parametrize("n,dist,w,value", [
    (6, 3, 3, 6),
    (4, 4, 2, 1),
    (10, 4, 4, 16),
])
def test_ternary_gilbert_bound_frozen(n, dist, w, value):
    assert ternary_gilbert_bound(n, dist, w).value == value


def test_smallest_prime_at_least():
    assert smallest_prime_at_least(9) == 11
    assert smallest_prime_at_least(40) == 41
    assert smallest_prime_at_least(13) == 13
    assert smallest_prime_at_least(1) == 2


def test_binary_bounds_insist_on_even_distance():
    with pytest.raises(ParameterError):
        gilbert_bound(10, 3, 3)
    with pytest.raises(ParameterError):
        graham_sloane_bound(10, 3, 3)
    assert ternary_gilbert_bound(10, 3, 3).value >= 1  # odd is fine here


def test_gilbert_bound_monotone_in_distance():
    values = [gilbert_bound(12, dist, 4).value for dist in (2, 4, 6, 8)]
    assert values == sorted(values, reverse=True)


# -- constructions ----------------------------------------------------------

def test_greedy_binary_disjoint_triples():
    code = greedy_binary(6, 6, 3)
    assert words_of(code) == [((0, 1), (1, 1), (2, 1)), ((3, 1), (4, 1), (5, 1))]
    assert code.d == 6


def test_greedy_binary_distance_two_keeps_everything():
    code = greedy_binary(5, 2, 2)
    assert len(code) == math.comb(5, 2)
    assert code.d == 2


@pytest.mark.parametrize("n,dist,w", [(8, 4, 3), (10, 4, 3), (12, 6, 4)])
def test_greedy_binary_meets_gilbert(n, dist, w):
    assert len(greedy_binary(n, dist, w)) >= gilbert_bound(n, dist, w).value


def test_greedy_binary_budget():
    with pytest.raises(BudgetError):
        greedy_binary(40, 4, 10)


def test_greedy_one_wide_word_is_linear():
    """w = n leaves one word; its mask is built in O(n), not from n
    shifted ints, so n = 200,000 answers at once."""
    start = time.perf_counter()
    code = greedy_binary(200_000, 2, 200_000)
    assert time.perf_counter() - start < 1.0
    assert len(code) == 1 and code.positions[0, -1] == 199_999


def test_greedy_ternary_smallest_case():
    code = greedy_ternary(2, 1, 1)
    assert words_of(code) == [((0, 1),), ((0, -1),), ((1, 1),), ((1, -1),)]
    assert code.d == 1


def test_greedy_ternary_respects_distance():
    code = greedy_ternary(6, 4, 3)
    assert code.d >= 4
    assert len(code) >= ternary_gilbert_bound(6, 4, 3).value


def test_greedy_ternary_budget():
    with pytest.raises(BudgetError):
        greedy_ternary(30, 4, 8)  # C(30,8) * 2^8 is over the cap


@pytest.mark.parametrize("n", range(1, 9))
def test_greedy_matches_tuple_oracle(n):
    """Both greedy builders against the plain loop over tuple words and
    ternary_distance (binary: + signs only), for every w <= 4 and every
    distance up to 2w + 1."""
    for w in range(1, min(n, 4) + 1):
        for dist in range(1, 2 * w + 2):
            assert (words_of(greedy_ternary(n, dist, w))
                    == greedy_words(n, dist, w))
            assert (words_of(greedy_binary(n, dist, w))
                    == greedy_words(n, dist, w, sign_set=(1,)))


def test_graham_sloane_construct_frozen_sizes():
    code = graham_sloane_construct(7, 4, 3)
    assert len(code) >= 5 and code.d >= 4
    assert len(graham_sloane_construct(6, 2, 2)) == 15
    assert len(graham_sloane_construct(10, 4, 3)) >= 10


@pytest.mark.parametrize("n", range(1, 9))
def test_graham_sloane_keys_stop_at_w_moments(n):
    # past dist/2 - 1 = w moments every bucket holds one support, and the
    # w-moment keys pick the same word as the full ones
    for w in range(1, min(n, 4) + 1):
        q = graham_sloane_bound(n, 2, w).params["q"]
        for dist in range(2 * w + 2, 2 * w + 9, 2):
            code = graham_sloane_construct(n, dist, w)
            assert code.positions.tolist() == moment_bucket(n, dist, w, q)
            assert code.provenance == f"graham-sloane n={n} d={dist} w={w} q={q}"


def test_graham_sloane_refuses_its_bucket_before_enumerating(monkeypatch):
    # C(100, 4) supports in one bucket (dist 2) would need 3.1 GB to
    # certify: refused before the first support
    def no_supports(*args):
        raise AssertionError("a support was enumerated")
    monkeypatch.setattr(codes, "combinations", no_supports)
    with pytest.raises(BudgetError, match="past the cap"):
        graham_sloane_construct(100, 2, 4)


@pytest.mark.parametrize("n,dist,w", [
    (22, 4, 6),    # 23 buckets of about 3245 supports each
    (24, 12, 5),   # one support per bucket, 5-moment keys
    (22, 14, 6),   # one support per bucket, 6-moment keys
    (10, 4, 3),    # a few words
])
def test_graham_sloane_peaks_within_its_bucket_admission(n, dist, w,
                                                         monkeypatch):
    sizes, real = {}, codes.admit

    def recorded(what, size, *rest):
        sizes[what.split()[0]] = size
        real(what, size, *rest)
    monkeypatch.setattr(codes, "admit", recorded)
    tracemalloc.start()
    try:
        graham_sloane_construct(n, dist, w)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= sizes["bucketing"]


def test_graham_sloane_peaks_within_its_certifying_admission(monkeypatch):
    """One bucket of all C(20, 5) supports: it reaches certification as
    one int64 array, its tuples freed, and the peak stays within the
    8 (n + w) N bytes admitted for that array and its certification."""
    sizes, real = [], codes.admit

    def recorded(what, size, *rest):
        if what.startswith("certifying a bucket"):
            sizes.append(size)
        real(what, size, *rest)
    monkeypatch.setattr(codes, "admit", recorded)
    tracemalloc.start()
    try:
        code = graham_sloane_construct(20, 2, 5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(code) == math.comb(20, 5)
    assert sizes == [8 * 25 * len(code)]
    assert peak <= sizes[0]


def test_graham_sloane_construct_beats_its_bound():
    for n, dist, w in [(8, 4, 3), (10, 4, 3), (12, 4, 4)]:
        code = graham_sloane_construct(n, dist, w)
        assert len(code) >= graham_sloane_bound(n, dist, w).value
        assert code.d >= dist


# -- dimension calculators ---------------------------------------------------

def test_dimension_calculators_frozen():
    assert dimension_binary_gilbert(9, 3, 1) == 4
    assert dimension_binary_gs(9, 3, 1) == 9
    assert dimension_binary_gilbert(10, 2, 1) == 45
    assert dimension_binary_gilbert(12, 2, 2) == 15
    assert dimension_binary_gs(10, 2, 2) == 21
    assert dimension_ternary_gilbert(10, 2, 2) == 16
    assert dimension_ternary_gilbert(9, 2, 1) == 48


def test_dimension_calculators_reject_bad_parameters():
    with pytest.raises(ParameterError):
        dimension_binary_gilbert(10, 1, 1)   # k must be >= 2
    with pytest.raises(ParameterError):
        dimension_binary_gs(5, 3, 2)         # n < k*t
    with pytest.raises(ParameterError):
        dimension_ternary_gilbert(10, 2, 0)


# -- file format --------------------------------------------------------------

def test_binary_round_trip(tmp_path):
    code = greedy_binary(8, 4, 3)
    path = tmp_path / "code.txt"
    save_code(code, path)
    loaded = load_code(path)
    assert words_of(loaded) == words_of(code)
    assert loaded.provenance == code.provenance
    assert dumps_code(loaded) == dumps_code(code)


def test_ternary_round_trip():
    code = greedy_ternary(5, 3, 2)
    text = dumps_code(code)
    loaded = loads_code(text)
    assert loaded.signed
    assert words_of(loaded) == words_of(code)
    assert dumps_code(loaded) == text


def test_loads_overstated_header_rejected():
    text = "4 6 2\n0 1\n0 2\n"  # claims distance 6, words achieve 2
    with pytest.raises(FormatError):
        loads_code(text)


def test_loads_understated_header_is_fine():
    code = loads_code("4 2 2\n0 1\n2 3\n")
    assert code.d == 4  # recomputed, not taken from the header


def test_loads_format_rejections():
    with pytest.raises(FormatError):
        loads_code("")                            # no header
    with pytest.raises(FormatError):
        loads_code("4 2\n0 1\n")                  # short header
    with pytest.raises(FormatError):
        loads_code("a b c\n0 1\n")                # non-integer header
    with pytest.raises(FormatError):
        loads_code("4 2 2\n+0 1\n")               # mixed signed and unsigned
    with pytest.raises(FormatError):
        loads_code("4 2 2\n0 1\n0 1\n")           # duplicate words
    with pytest.raises(FormatError):
        loads_code("0 2 2\n")                     # non-positive header


@pytest.mark.parametrize("loader, header", [
    (loads_code, "n d w"), (designs.loads_subspace_code, "q n k d")])
@pytest.mark.parametrize("line, message", [
    (None, "missing '{}' header"),
    ("{short}", "line 2: header must be '{}'"),
    ("{full} 4", "line 2: header must be '{}'"),
    ("{short} x", "line 2: non-integer header"),
    ("{short} 1_0", "line 2: non-integer header"),   # int() would take these
    ("{short} +2", "line 2: non-integer header"),
])
def test_headers_share_one_reader(loader, header, line, message):
    full = {"n d w": "4 2 2", "q n k d": "2 4 2 4"}[header]
    text = "# provenance: p\n"
    if line is not None:
        text += line.format(short=full.rsplit(" ", 1)[0], full=full) + "\n1 2\n"
    with pytest.raises(FormatError) as exc:
        loader(text)
    assert str(exc.value) == message.format(header)


# The tokens of the position grammar's cases: digits with leading zeros,
# values around 2^63 and int()'s 4300-digit limit, stray '+', '-', '_'
# and 'x', and non-ASCII digits.
DIGITS = st.from_regex(r"\A0{0,3}[0-9]{1,3}\Z")
LONG = st.sampled_from(["9" * 18, "1" + "0" * 17, "9" * 19, "1" + "0" * 18,
                        "0" * 19 + "7", "9" * 20, "0" * 18 + "12",
                        str(2 ** 63 - 1), str(2 ** 63), "0" * 4300,
                        "0" * 4299 + "5", "1" * 4300, "0" * 4301, "1" * 4301])
WILD = st.text("0123456789+-_x\u00b2\u0661", max_size=4)
SEPARATORS = st.sampled_from([" ", "\t", "\x1f", "\u2003", "\xa0"])


@st.composite
def position_lines(draw):
    """(lines, signed, w): numbered lines of good tokens of the drawn
    alphabet, mostly w of them, with any of the separators between and
    around them; in about half the cases one token is then redrawn from
    anything."""
    signed = draw(st.booleans())
    w = draw(st.integers(1, 3))
    good = st.builds(str.__add__,
                     st.sampled_from(("+", "-") if signed else ("",)),
                     DIGITS | LONG)
    rows = draw(st.lists(st.lists(good, min_size=w, max_size=w)
                         | st.lists(good, max_size=4), max_size=4))
    if draw(st.booleans()) and any(rows):
        row = draw(st.sampled_from([row for row in rows if row]))
        row[draw(st.integers(0, len(row) - 1))] = draw(st.builds(
            str.__add__, st.sampled_from(("", "+", "-", "++", "+-", "_")),
            DIGITS | LONG | WILD))
    lines = []
    for i, row in enumerate(rows):
        line = draw(SEPARATORS).join(row)
        for _ in range(draw(st.integers(0, 2))):  # more blanks, anywhere
            at = draw(st.integers(0, len(line)))
            line = line[:at] + draw(SEPARATORS) + line[at:]
        lines.append((2 * i + 3, line))
    return lines, signed, w


def parsed(parse, lines, signed, w):
    try:
        return parse(lines, signed, w, "row")
    except (FormatError, ParameterError) as exc:
        return type(exc), str(exc)


@settings(max_examples=400, deadline=None)
@given(position_lines())
def test_parse_words_matches_token_loop(case):
    got = parsed(parse_words, *case)
    want = parsed(codes_oracle.parse_words, *case)
    if isinstance(want[0], type):
        assert got == want
    else:
        assert not isinstance(got[0], type), got
        for a, b in zip(got, want):
            assert a.dtype == b.dtype and a.shape == b.shape
            assert (a == b).all()


@pytest.mark.parametrize("loader, dumps", [
    (loads_code, dumps_code),
    (loads_matrix, lambda code: dumps_matrix(from_code(code)))])
def test_loading_memory_stays_proportional_to_text(loader, dumps):
    # STS(109): 1962 words of weight 3, the benchmark's largest files;
    # the reader's arrays are per token (int64) or per byte (1 byte)
    text = dumps(designs.steiner_to_code(designs.make_sts(109)))
    loader(text)  # numpy's one-time set-up is not the reader's
    tracemalloc.start()
    try:
        loader(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45 * len(text)


def test_provenance_comment_round_trip():
    text = "# provenance: hand made\n5 2 2\n0 1\n2 3\n"
    assert loads_code(text).provenance == "hand made"


def test_all_plus_signed_file_stays_signed():
    # the alphabet comes from the file syntax, never from the signs
    text = "# provenance: ingested\n3 2 2\n+0 +1\n+1 +2\n"
    code = loads_code(text)
    assert code.signed and code.d == 2
    assert dumps_code(code) == text
    assert not loads_code(text.replace("+", "")).signed


def test_binary_code_rejects_minus_signs():
    with pytest.raises(ParameterError):
        validate(code_of(4, 2, [((0, 1), (1, -1))], signed=False))


@st.composite
def cw_codes(draw):
    """Certified random codes: binary, signed, and signed with every sign
    + (which must load back as signed)."""
    n = draw(st.integers(1, 8))
    w = draw(st.integers(1, n))
    kind = draw(st.sampled_from(("binary", "signed", "all-plus")))
    signs = st.sampled_from((1, -1)) if kind == "signed" else st.just(1)
    drawn = draw(st.lists(
        st.tuples(st.permutations(range(n)),
                  st.lists(signs, min_size=w, max_size=w)),
        min_size=1, max_size=10))
    words = list(dict.fromkeys(tuple(sorted(zip(perm[:w], sg)))
                               for perm, sg in drawn))
    code = code_of(n, w, words, signed=kind != "binary",
                   provenance=draw(st.sampled_from(
                       ("ingested", "hand made", "greedy n=5 d=2 w=2"))))
    validate(code)
    return code


@settings(max_examples=150, deadline=None)
@given(cw_codes(), st.data())
def test_code_file_round_trip_and_damage(code, data):
    from cwsense.matrices import coherence, from_code
    text = dumps_code(code)
    loaded = loads_code(text)
    assert (loaded.signed, loaded.d, words_of(loaded)) == (code.signed, code.d,
                                                           words_of(code))
    assert dumps_code(loaded) == text
    cut = data.draw(st.integers(0, len(text)), label="cut")
    pos = data.draw(st.integers(0, len(text) - 1), label="pos")
    char = data.draw(st.sampled_from("0123456789 -+\n#x"), label="char")
    for damaged in (text[:cut], text[:pos] + char + text[pos + 1:],
                    text[:pos] + char + text[pos:]):
        try:
            loaded = loads_code(damaged)
        except (FormatError, BudgetError):
            continue
        if len(loaded):  # then analyze certifies its matrix
            coherence(from_code(loaded))
        else:            # a header alone: no matrix, analyze exits 2
            with pytest.raises(ParameterError):
                from_code(loaded)
