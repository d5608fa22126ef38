"""Matrices: exact coherence, construction bounds, Welch values, formats."""

import hashlib
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from codes_oracle import matrix_of, words_of
from cwsense import cli, matrices
from cwsense.codes import (CWCode, array_maxima, certify_binary,
                           dumps_code, greedy_binary, greedy_ternary,
                           loads_code)
from cwsense.designs import make_sts, steiner_code
from cwsense.errors import BudgetError, FormatError, ParameterError
from cwsense.field import factor_prime_power, make_field
from cwsense.matrices import (MeasurementMatrix, coherence, devore,
                              devore_bytes, dumps_matrix, from_code,
                              load_matrix, loads_matrix, save_matrix)
from cwsense.textio import FORMATS, _parse_bound, matrix_format, read_lines

FANO = [(0, 1, 2), (0, 3, 4), (0, 5, 6), (1, 3, 5), (1, 4, 6),
        (2, 3, 6), (2, 4, 5)]


def fano_matrix() -> MeasurementMatrix:
    return from_code(certify_binary(7, 3, FANO, provenance="fano"))


# -- coherence ----------------------------------------------------------------

def test_fano_coherence_exact():
    matrix = fano_matrix()
    assert coherence(matrix) == Fraction(1, 3)
    assert matrix.bound == Fraction(1, 3)
    assert cli._coherence_lines(matrix, None)[:2] == [
        "mu = 1/3, bound = 1/3, order k = 4",
        "welch = 0 (degenerate: N <= n)"]  # N = n = 7


def test_coherence_delta_k():
    assert cli._coherence_lines(fano_matrix(), 4)[2] == "delta_4 = 1"


def test_coherence_refuses_k_before_the_scan(monkeypatch, tmp_path, capsys):
    path = tmp_path / "eye.csv"
    path.write_text("1,0\n0,1\n")  # no cached coherence

    def scan(*args):
        raise AssertionError("scanned before checking k")
    monkeypatch.setattr(matrices, "array_maxima", scan)
    assert cli.main(["analyze", str(path), "--k", "0"]) == 2
    assert capsys.readouterr().err == "error: k must be >= 1, got 0\n"


def test_zero_coherence_order_is_row_count():
    matrix = loads_matrix("1,0\n0,1\n")
    assert (matrix.n, matrix.N, matrix.w) == (2, 2, 1)
    assert coherence(matrix) == 0
    assert matrix.bound is None  # raw ingested matrices carry no bound
    assert cli._coherence_lines(matrix, None)[0] == (
        "mu = 0, bound = n/a, order k = 2")


def test_coherence_is_cached():
    matrix = fano_matrix()
    assert coherence(matrix) is coherence(matrix)


def test_coherence_and_omp_share_one_dense_copy(monkeypatch, tmp_path):
    from cwsense import matrices, recovery
    path = tmp_path / "fano.matrix"
    save_matrix(fano_matrix(), path)
    built = []
    real = matrices.MeasurementMatrix.to_dense

    def counted(self):
        built.append(self._dense is None)
        return real(self)
    monkeypatch.setattr(matrices.MeasurementMatrix, "to_dense", counted)
    matrix = load_matrix(path)
    assert matrix.bound == Fraction(1, 3)  # certified at load
    coherence(matrix)
    assert matrix._dense is None and built == []  # certified from tiles
    recovery.run_experiment(matrix, [1, 2], trials=3)
    assert built.count(True) == 1


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 8), st.integers(1, 3), st.integers(1, 3),
       st.sampled_from(("unsigned", "ternary", "signed")))
def test_code_certificate_seeds_coherence(n, w, dist, kind):
    w = min(w, n)
    if kind == "ternary":
        code = greedy_ternary(n, dist, w)
    else:
        code = greedy_binary(n, 2 * dist, w)
    matrix = from_code(code, seed=7 if kind == "signed" else None)
    top = array_maxima(matrix.n, matrix.positions, matrix.signs)[0]
    assert matrix._mu == (None if kind == "signed" else Fraction(top, w))
    assert coherence(matrix) == Fraction(top, w)


def test_coherence_allocates_tiles_only():
    matrix = devore(23, 3)
    tracemalloc.start()
    try:
        assert coherence(matrix) == Fraction(2, 23)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20 < 8 * matrix.n * matrix.N  # 8 MiB, against 49 MiB


def cyclic_sts_blocks(p):
    """The cyclic STS on Z_p, p = 1 mod 6 prime: the p translates of the
    base blocks g^i {1, c, c^2}, i < (p - 1)/6, with g a primitive root
    and c a cube root of unity."""
    g = next(g for g in range(2, p)
             if len({pow(g, e, p) for e in range(p - 1)}) == p - 1)
    c = pow(g, (p - 1) // 3, p)
    base = np.array([[pow(g, i, p) * pow(c, j, p) % p for j in range(3)]
                     for i in range((p - 1) // 6)])
    return (base[:, None, :] + np.arange(p)[:, None]).reshape(-1, 3) % p


def test_low_weight_certification_takes_no_products(monkeypatch):
    from cwsense import codes
    entered = []
    real = codes._tile_maxima

    def tiles(n, positions, signs, signed):
        entered.append(n)
        return real(n, positions, signs, signed)
    monkeypatch.setattr(codes, "_tile_maxima", tiles)
    code = make_sts(109)
    text = dumps_matrix(from_code(code))
    tracemalloc.start()
    try:
        assert array_maxima(code.n, code.positions, code.signs) == (1, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # a few key arrays of 3N int64 entries, under one word tile's floats
    assert peak < 8 * codes.PAIR_TILE * code.n
    assert coherence(loads_matrix(text)) == Fraction(1, 3)
    blocks = steiner_code(97, cyclic_sts_blocks(97), "cyclic").positions
    rng = np.random.default_rng(0)
    signed = CWCode(97, 3, blocks, 1 - 2 * rng.integers(
        0, 2, blocks.shape, dtype=np.int8), signed=True)
    ternary = loads_code(dumps_code(signed))
    assert (ternary.d, ternary.inner) == (4, 1)
    assert entered == []
    assert coherence(devore(23, 3)) == Fraction(2, 23)
    assert entered == [23 * 23]


def test_lying_bound_header_raises():
    text = ("# n 3 w 3 bound 1/6\n"
            "+0 +1 +2\n"
            "+0 +1 -2\n")
    with pytest.raises(FormatError):
        loads_matrix(text)  # actual coherence 1/3 exceeds the stated 1/6


def test_bound_header_is_certified_at_load():
    text = dumps_matrix(from_code(make_sts(9)))
    assert "bound 1/3" in text
    assert loads_matrix(text)._mu == Fraction(1, 3)  # certified and cached
    # exponent and decimal forms are refused outright, even where the
    # value would hold (1e5000, 0.5 >= 1/3): a claim is digits or p/q
    for bad in ("bound 1/9", "bound 1/0", "bound -1", "bound x",
                "bound 1e5000", "bound 1e30000000", "bound 0.5"):
        with pytest.raises(FormatError):
            loads_matrix(text.replace("bound 1/3", bad))


def test_attached_bound_violation_stays_runtime_error():
    matrix = matrix_of(3, [((0, 1), (1, 1), (2, 1)),
                           ((0, 1), (1, 1), (2, -1))], 3,
                       provenance="x", bound=Fraction(1, 6))
    with pytest.raises(RuntimeError):
        coherence(matrix)


# -- constructions --------------------------------------------------------------

def test_binary_code_matrix_bound():
    code = greedy_binary(10, 4, 3)
    matrix = from_code(code)
    assert matrix.bound == 1 - Fraction(code.d, 2 * code.w)
    assert coherence(matrix) <= matrix.bound


def test_signed_matrix_is_deterministic():
    code = make_sts(9)
    a = from_code(code, seed=3)
    b = from_code(code, seed=3)
    assert words_of(a) == words_of(b)
    assert a.provenance == b.provenance
    c = from_code(code, seed=4)
    assert words_of(c) != words_of(a)


def test_signed_matrix_keeps_unsigned_bound_and_coherence_holds():
    code = make_sts(9)
    plain = from_code(code)
    for seed in range(5):
        signed = from_code(code, seed=seed)
        assert signed.bound == plain.bound
        assert coherence(signed) <= signed.bound


# sha256 of dumps_matrix(from_code(code, seed=s)): the seeded sign stream
# (one PCG64 bit per support position, column by column) is part of the
# format, so these bytes must never move.
SIGNED_DIGESTS = {
    ("greedy", 0): "65603fce732bfc7acab96c0e5c7dae2d26f79deee9ed9ca5030fc0a4cdfcdcd4",
    ("greedy", 1): "556c80c3b778b67d6d881011ecbc8e14a1add54e5cb0a02baef3abab44688255",
    ("greedy", 7): "f5fbce276a83207ce5132809024070bbdd0f71e3f2ebd126decd0be3442f4dd4",
    ("greedy", 123): "04930a0ee397bb92805c97ac33f50277178c093b6c0764d6dad81d24e16488f2",
    ("sts31", 0): "6c2c269f5b8dd3fb0862c0dba9530be7337e6b0916feaf4436fee737f079f8b6",
    ("sts31", 1): "bc5322f306d10998c395f3e1caa72ba093701c5d687296fc1eb1ccbaece86683",
    ("sts31", 7): "3c85821b2b314a755b13b6c23e2149f5041f86d16888358a90c9d2bed0639fcc",
    ("sts31", 123): "7e1c4a3d09e6f673bc7d789b1cc5efadae8d3b116201a1c997c85e8fb9e6e0c7",
}


@pytest.mark.parametrize("name,seed", sorted(SIGNED_DIGESTS))
def test_signed_matrix_bytes_pinned(name, seed):
    code = (greedy_binary(9, 4, 3) if name == "greedy"
            else make_sts(31))
    text = dumps_matrix(from_code(code, seed=seed))
    assert hashlib.sha256(text.encode()).hexdigest() == SIGNED_DIGESTS[name,
                                                                       seed]


def test_signed_rejects_negative_seed():
    code = make_sts(9)
    with pytest.raises(ParameterError):
        from_code(code, seed=-1)


@pytest.mark.parametrize("params,mu,bound,order", [
    ((6, 4, 3), Fraction(2, 3), Fraction(2, 3), 2),
    ((4, 4, 2), Fraction(0), Fraction(0), 4),
    ((9, 6, 4), Fraction(1, 2), Fraction(1, 2), 3),
])
def test_ternary_matrix_two_sided_bound(params, mu, bound, order):
    """Sign flips cost one distance unit but swing inner products by two,
    so the certified bound takes min(w, 2w - d)/w; these greedy outputs
    attain it exactly."""
    matrix = from_code(greedy_ternary(*params))
    assert coherence(matrix) == mu
    assert matrix.bound == bound
    assert cli._coherence_lines(matrix, None)[0] == (
        f"mu = {mu}, bound = {bound}, order k = {order}")


@pytest.mark.parametrize("p,r,mu", [
    (2, 2, Fraction(1, 2)), (3, 2, Fraction(1, 3)), (5, 2, Fraction(1, 5)),
    (7, 2, Fraction(1, 7)), (2, 3, Fraction(1)), (3, 3, Fraction(2, 3)),
    (5, 3, Fraction(2, 5)), (7, 3, Fraction(2, 7)),
])
def test_devore_exact_coherence(p, r, mu):
    matrix = devore(p, r)
    assert (matrix.n, matrix.N, matrix.w) == (p * p, p ** r, p)
    assert coherence(matrix) == mu
    assert matrix.bound == Fraction(r - 1, p)


def test_devore_prime_power_base():
    assert coherence(devore(4, 2)) == Fraction(1, 4)


def test_devore_rejections():
    with pytest.raises(ParameterError):
        devore(5, 1)
    with pytest.raises(ParameterError):
        devore(6, 2)
    with pytest.raises(BudgetError):
        devore(101, 3)


def test_devore_largest_builds_under_position_cap():
    # p^r x p positions of 31^4 and 101^3 entries stay under DENSE_CAP
    for p, r in ((31, 3), (101, 2)):
        matrix = devore(p, r)
        assert (matrix.n, matrix.N, matrix.w) == (p * p, p ** r, p)
        assert matrix.positions.shape == (p ** r, p)


@pytest.mark.parametrize("p,r", [(101, 2), (81, 2), (31, 3)])
def test_devore_peak_memory_within_its_budget_estimate(p, r):
    # the cap is checked against devore_bytes, so the build must not
    # allocate more (the field's cached tables are made first)
    make_field(*factor_prime_power(p))
    tracemalloc.start()
    try:
        devore(p, r)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= devore_bytes(p, r)


# -- Welch bound -----------------------------------------------------------------

def test_welch_bound_frozen_values():
    # sqrt((N - n)/(n (N - 1))) and sqrt(N/(n (N - n))) as analyze prints them
    assert cli._coherence_lines(from_code(make_sts(9)), None)[1] == (
        "welch = 0.174078 (alt form 0.666667)")            # 9 x 12
    assert cli._coherence_lines(devore(5, 3), None) == [
        "mu = 2/5, bound = 2/5, order k = 3",
        "welch = 0.179605 (alt form 0.223607)"]             # 25 x 125


def test_welch_bound_degenerate_and_errors():
    assert cli._coherence_lines(fano_matrix(), None)[1] == (
        "welch = 0 (degenerate: N <= n)")                   # N = n = 7
    # the formula needs n, N >= 1, which every matrix has: check_words
    # forces n >= w >= 1, and a matrix needs a column
    one = (np.zeros((1, 1), dtype=np.int64), np.ones((1, 1), dtype=np.int8))
    with pytest.raises(ParameterError):
        MeasurementMatrix(0, 1, *one, provenance="x")
    with pytest.raises(ParameterError):
        MeasurementMatrix(1, 1, one[0][:0], one[1][:0], provenance="x")


# -- matrix validation ---------------------------------------------------------

def test_measurement_matrix_rejections():
    with pytest.raises(ParameterError):
        matrix_of(3, [], 1, provenance="empty")
    with pytest.raises(ParameterError):
        matrix_of(3, [((0, 1), (0, -1))], 2, provenance="dup row")
    with pytest.raises(ParameterError):
        matrix_of(3, [((0, 1), (5, 1))], 2, provenance="range")
    with pytest.raises(ParameterError):
        matrix_of(3, [((0, 2),)], 1, provenance="sign")
    with pytest.raises(ParameterError):
        matrix_of(3, [((1, 1), (0, 1))], 2, provenance="unsorted")


# -- text formats ----------------------------------------------------------------

@pytest.mark.parametrize("fmt", FORMATS)
def test_round_trip_is_byte_idempotent(fmt, tmp_path):
    for matrix in (devore(3, 2),
                   from_code(make_sts(9), seed=3),
                   from_code(greedy_ternary(6, 4, 3))):
        text = dumps_matrix(matrix, fmt)
        again = dumps_matrix(loads_matrix(text), fmt)
        assert again == text
        path = tmp_path / "m.txt"
        save_matrix(matrix, path, fmt=fmt)
        assert dumps_matrix(load_matrix(path), fmt) == text


def test_support_list_keeps_bound_and_provenance():
    matrix = devore(3, 2)
    loaded = loads_matrix(dumps_matrix(matrix))
    assert loaded.bound == Fraction(1, 3)
    assert loaded.provenance == "devore p=3 r=2"
    assert coherence(loaded) == Fraction(1, 3)


def test_dense_csv_drops_metadata():
    loaded = loads_matrix(dumps_matrix(devore(3, 2), "dense-csv"))
    assert loaded.bound is None
    assert loaded.provenance == "dense-csv"
    # '#' lines are comments to the loader as they are to the sniffer
    loaded = loads_matrix("# note\n1,0\n0,1\n")
    assert (loaded.n, loaded.N, loaded.provenance) == (2, 2, "dense-csv")


@pytest.mark.parametrize("entry", ["0_1", "+1", "\u0661", "1.0", "- 1", "",
                                   "0" * 4301, "\x1f1"])
def test_dense_csv_entries_are_ascii_integers(entry):
    with pytest.raises(FormatError, match="^line 2: non-integer entry$"):
        loads_matrix(f"1,0\n0,{entry}\n")


def test_dense_csv_entries_may_have_blanks():
    loaded = loads_matrix(" 1 ,\t0\n-0 , -1\xa0\n")
    assert loaded.positions.tolist() == [[0], [1]]
    assert loaded.signs.tolist() == [[1], [-1]]


def test_dumps_unknown_format():
    with pytest.raises(ParameterError):
        dumps_matrix(devore(3, 2), "parquet")


def kind(text):
    return matrix_format(*read_lines(text)[1:])


def test_matrix_format_predicate():
    assert kind(dumps_matrix(devore(3, 2))) == "support-list"
    assert kind(dumps_matrix(devore(3, 2), "dense-csv")) == "dense-csv"
    assert kind("# provenance: x\n9 4 3\n0 1 2\n") is None  # a code
    assert kind("") is None
    # only a '# n' comment before the first data line marks a support list
    assert kind("9 4 3\n# n 9 w 3\n0 1 2\n") is None
    assert kind("1,0\n# n 2 w 1\n0,1\n") == "dense-csv"
    # and only before signed columns (or none): other '# n' comments are
    # free text, and a comma always means dense CSV
    assert kind("# n is the length\n4 2 2\n0 1\n2 3\n") is None
    assert kind("# n rows, 2 columns\n1,0\n0,1\n") == "dense-csv"
    assert kind("# n 2 w 1\n") == "support-list"
    assert kind("# n 3 w 1\n+0\n-2\n") == "support-list"
    assert kind("# n 3 w 1 bound 0\n-1\n") == "support-list"
    assert kind("# a remark\n1\n0\n") == "dense-csv"
    assert kind("# n 2 w 1\n1\n0\n") == "dense-csv"
    assert kind("# n 4 w 2\n0 1\n") is None
    assert kind("# n\t4 w 2\n+0 +1\n") is None
    # before a one-entry line ('-1' is also a CSV row) the comment must be
    # shaped 'n _ w ...' like the header
    assert kind("# n rows\n-1\n0\n1\n") == "dense-csv"
    assert kind("# n 3 w oops\n-1\n") == "support-list"


def test_one_column_support_list_stays_a_support_list(capsys):
    matrix = MeasurementMatrix(3, 1, np.array([[0], [2]]),
                               np.array([[1], [-1]], dtype=np.int8), "w1")
    text = dumps_matrix(matrix)
    assert text == "# provenance: w1\n# n 3 w 1\n+0\n-2\n"
    assert kind(text) == "support-list"
    loaded = loads_matrix(text)
    assert (loaded.n, loaded.w, loaded.provenance) == (3, 1, "w1")
    assert dumps_matrix(loaded) == text


def old_parse_bound(token):
    """_parse_bound as it was, on the regex the grammar was written in."""
    if not re.fullmatch(r"-?[0-9]+(/[0-9]+)?", token):
        raise ValueError(f"bad bound {token!r}")
    num, _, den = token.partition("/")
    return Fraction(int(num), int(den or 1))


def outcome(parse, token):
    try:
        return parse(token)
    except (ValueError, ZeroDivisionError) as exc:
        return type(exc)


LONG = "1" * 4301  # past int()'s 4300-digit limit


def bound_tokens():
    """Tokens over '-0123456789/+e._', pieced from short runs and from
    signs, slashes and digit runs up to and past 4300 digits."""
    pieces = st.one_of(st.text("-0123456789/+e._", max_size=4),
                       st.sampled_from(["-", "/", "/0", "0", "12", "007",
                                        LONG, "9" * 4300]))
    return st.lists(pieces, max_size=4).map("".join)


@settings(max_examples=600, deadline=None)
@given(bound_tokens())
def test_bound_grammar_matches_the_old_regex(token):
    assert outcome(_parse_bound, token) == outcome(old_parse_bound, token)


def test_loads_matrix_rejections():
    with pytest.raises(FormatError):
        loads_matrix("")
    with pytest.raises(FormatError):
        loads_matrix("# provenance: x\n0 1 2\n")     # unsigned support entries
    with pytest.raises(FormatError):
        loads_matrix("# n 3 w 1\n+x\n")              # bad row index
    with pytest.raises(FormatError):
        loads_matrix("+0 +1\n")                      # no header at all
    with pytest.raises(FormatError):
        loads_matrix("1,2\n0,1\n")                   # entries outside -1..1
    with pytest.raises(FormatError):
        loads_matrix("1,0\n0\n")                     # ragged rows
    with pytest.raises(FormatError):
        loads_matrix("1,0\n1,1\n")                   # unequal column weights
    with pytest.raises(FormatError):
        loads_matrix("# n 3 w oops\n+0\n")           # bad dimension header


@pytest.mark.parametrize("header, line", [
    ("# n 4 w 2 junk", 1), ("# n 4 w 2 foo 7", 1), ("# n 4 w 2 w 3", 1),
    ("# n 4 w 2 bound", 1), ("# n 4 bound 1/2 w 2", 1), ("# n 1_0 w 2", 1),
    ("# n 4 w +2", 1), ("# n 4 w 2\n# n 9 w 2", 2),
])
def test_support_list_header_is_n_w_bound_once(header, line):
    # int() and a dict of the tokens took all of these, the last key or
    # the last '# n' line winning
    with pytest.raises(FormatError, match=f"^line {line}: bad dimension header$"):
        loads_matrix(f"{header}\n+0 +1\n")


def test_float_oracle_agrees_on_small_cases():
    for matrix in (fano_matrix(), devore(5, 2),
                   from_code(make_sts(13), seed=1)):
        exact = coherence(matrix)
        a = matrix.to_dense() / np.sqrt(matrix.w)
        gram = np.abs(a.T @ a)
        np.fill_diagonal(gram, 0.0)
        assert abs(float(exact) - float(gram.max())) <= 1e-12


def test_from_code_ternary_bound_and_signed_seed():
    code = loads_code("3 2 2\n+0 +1\n+1 +2\n")          # all +, still signed
    assert from_code(code).bound == 1                    # binary reading: 1/2
    assert from_code(loads_code("3 2 2\n0 1\n1 2\n")).bound == Fraction(1, 2)
    with pytest.raises(ParameterError, match="binary codes only"):
        from_code(code, seed=0)


def test_matrix_columns_may_repeat_but_not_vanish():
    matrix = loads_matrix("1,1,0\n0,0,1\n")
    assert coherence(matrix) == 1                        # equal columns
    with pytest.raises(FormatError):
        loads_matrix("0,0\n0,0\n")                       # weight 0


@st.composite
def measurement_matrices(draw):
    """Random {0, +1, -1} matrices, repeated columns allowed, with or
    without a bound at or above the exact coherence."""
    n = draw(st.integers(1, 7))
    w = draw(st.integers(1, n))
    drawn = draw(st.lists(
        st.tuples(st.permutations(range(n)),
                  st.lists(st.sampled_from((1, -1)), min_size=w, max_size=w)),
        min_size=1, max_size=8))
    columns = [tuple(sorted(zip(perm[:w], signs))) for perm, signs in drawn]
    provenance = draw(st.sampled_from(("ingested", "devore p=3 r=2", "x")))
    matrix = matrix_of(n, columns, w, provenance=provenance)
    if draw(st.booleans()):
        slack = draw(st.sampled_from((0, Fraction(1, 7), 1)))
        matrix = matrix_of(n, columns, w, provenance=provenance,
                           bound=coherence(matrix) + slack)
    return matrix


@settings(max_examples=150, deadline=None)
@given(measurement_matrices(), st.sampled_from(FORMATS), st.data())
def test_matrix_file_round_trip_and_damage(matrix, fmt, data):
    text = dumps_matrix(matrix, fmt)
    assert dumps_matrix(loads_matrix(text), fmt) == text
    cut = data.draw(st.integers(0, len(text)), label="cut")
    pos = data.draw(st.integers(0, len(text) - 1), label="pos")
    char = data.draw(st.sampled_from("0123456789 -+,/\n#xnwb"), label="char")
    for damaged in (text[:cut], text[:pos] + char + text[pos + 1:],
                    text[:pos] + char + text[pos:]):
        try:  # what analyze and recover do with a matrix file
            coherence(loads_matrix(damaged))
        except (FormatError, BudgetError):
            pass


@pytest.mark.parametrize("p,r", [(2, 15), (3, 9), (7, 5), (31, 3)])
def test_devore_with_its_write_peaks_within_its_budget_estimate(
        p, r, tmp_path, monkeypatch, capsys):
    # construct devore always writes its support list, and devore_bytes
    # admits that write too
    make_field(*factor_prime_power(p))
    monkeypatch.chdir(tmp_path)
    tracemalloc.start()
    try:
        assert cli.main(["construct", "devore", "--p", str(p),
                         "--r", str(r)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= devore_bytes(p, r)
    assert capsys.readouterr().out.endswith(f"devore_p{p}_r{r}.matrix\n")


@pytest.mark.parametrize("make", [
    lambda: devore(13, 3), lambda: devore(17, 3), lambda: devore(2, 2),
    lambda: from_code(make_sts(99), seed=3),
    lambda: from_code(greedy_ternary(9, 4, 3)),
])
def test_dense_csv_write_peaks_within_its_admission(make, monkeypatch):
    # the float64 array and its text are admitted together, first
    matrix, sizes, real = make(), [], matrices.admit

    def recorded(what, size, *rest):
        sizes.append((what, size))
        real(what, size, *rest)
    monkeypatch.setattr(matrices, "admit", recorded)
    tracemalloc.start()
    try:
        dumps_matrix(matrix, "dense-csv")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sizes[0][0].startswith("writing a dense")
    assert peak <= sizes[0][1]
