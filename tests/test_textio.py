"""textio's byte-level reader and writers against the line, entry and
word loops kept in codes_oracle: the same lines, arrays, bytes, and the
same exception with the same message for every text drawn."""

import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import codes_oracle
from cwsense import textio
from cwsense.errors import FormatError, ParameterError

# every line end of str.splitlines() and blank of str.split() in ASCII,
# then those past ASCII, which only a str passed to the API can hold
ASCII_ENDS = ["\n", "\r\n", "\r", "\v", "\f", "\x1c", "\x1d", "\x1e"]
WIDE_ENDS = ["\x85", "\u2028", "\u2029"]
ASCII_BLANKS = [" ", "\t", "\x1f"]
WIDE_BLANKS = [chr(c) for c in (0xa0, 0x1680, *range(0x2000, 0x200b),
                                 0x202f, 0x205f, 0x3000)]
# dense entries, which dense_rows puts blanks around: read_int's, '-0'
# and leading zeros among them, then what it refuses or is out of range
GOOD = ["0", "1", "-1", "-0", "00", "01", "-001", "0" * 4299 + "1"]
BAD = ["+1", "0_1", "2", "10", "-", "- ", "", "0,,1", "1 1", "- 1", "1-", "x",
       "\u0661", "0" * 4301, "5" * 4301]


@st.composite
def texts(draw, rows):
    """A text of one to four data rows from rows and up to four blank,
    '#' comment and provenance lines (some after blanks, some tags
    repeated) in a drawn order, ended by drawn line ends, the last one
    perhaps not; past ASCII in about a quarter of the cases."""
    wide = draw(st.booleans()) and draw(st.booleans())
    ends = st.sampled_from(ASCII_ENDS + (WIDE_ENDS if wide else []))
    blank = st.sampled_from(ASCII_BLANKS + (WIDE_BLANKS if wide else []))
    blanks = st.lists(blank, max_size=2).map("".join)
    tag = st.text(st.sampled_from("ab x:\xe9" if wide else "ab x:"),
                  max_size=5)
    lines = draw(st.permutations(
        draw(st.lists(st.builds("{}{}{}".format, blanks, rows(blank), blanks),
                      min_size=1, max_size=4))
        + draw(st.lists(st.one_of(
            blanks, st.builds("{}#{}{}".format, blanks, blanks, tag),
            st.builds("{}#{}provenance:{}{}".format, blanks, blanks, blanks,
                      tag)), max_size=4))))
    breaks = [draw(ends) for _ in lines]
    if draw(st.booleans()):
        breaks[-1] = ""  # no final line end
    return "".join(map(str.__add__, lines, breaks))


def position_rows(blank):
    """Rows of one to three positions, good and bad, signed or not."""
    token = st.builds(str.__add__, st.sampled_from(["", "", "+", "-", "#"]),
                      st.sampled_from(["0", "7", "12", "007", "1_0", "x",
                                       "9" * 19, "9" * 18]))
    return st.builds(str.join, blank, st.lists(token, min_size=1, max_size=3))


def dense_rows(blank):
    """Rows of one to four entries, about two thirds of them good."""
    blanks = st.lists(blank, max_size=1).map("".join)
    good = st.sampled_from(GOOD)
    entry = st.builds("{}{}{}".format, blanks,
                      good | good | st.sampled_from(BAD), blanks)
    return st.lists(entry, min_size=1, max_size=4).map(",".join)


def canonical_rows(blank):
    """Rows of one to four entries 0, 1, -1 between single commas, no
    blanks, as format_dense_csv writes them."""
    return st.lists(st.sampled_from(["0", "1", "-1"]), min_size=1,
                    max_size=4).map(",".join)


def outcome(read, *args):
    """read(*args) as nested lists of its arrays' values, or its error
    as (type, message)."""
    try:
        got = read(*args)
    except (FormatError, ParameterError) as exc:
        return type(exc), str(exc)
    return [a.tolist() for a in (got if isinstance(got, tuple) else (got,))]


def split(text):
    """read_lines' split of the text, also from its bytes when it is
    ASCII, checked against the line loop's."""
    provenance, comments, data = textio.read_lines(text)
    old = codes_oracle.read_lines(text)
    assert (provenance, comments, codes_oracle.numbered(data)) == old
    if text.isascii():
        again = textio.read_lines(text.encode("ascii"))
        assert again[:2] == old[:2]
        assert codes_oracle.numbered(again[2]) == old[2]
    return data, old[2]


# a '\r' before a line end past ASCII ends a line of its own
@settings(max_examples=500, deadline=None)
@given(texts(position_rows), st.booleans())
@example("0\n\r\x850\n", False)
@example("\r\x850\n", True)
def test_read_lines_and_positions_match_the_line_loop(text, signed):
    data, old = split(text)
    w = len(old[0][1].split()) if old else 1
    assert outcome(textio.parse_words, data, signed, w) == outcome(
        codes_oracle.parse_words, old, signed, w)


@settings(max_examples=1000, deadline=None)
@given(texts(dense_rows))
@example("0\n\r\x850\n")
@example("\r\x850\n")
def test_dense_csv_matches_the_entry_loop(text):
    data, old = split(text)
    if old:  # a matrix file has a data line
        assert outcome(textio.read_dense_csv, data) == outcome(
            codes_oracle.read_dense_csv, old)


# a file mixes canonical lines, read at their rare bytes, and others,
# read entry by entry; the first bad line wins, a length error comes last
@settings(max_examples=500, deadline=None)
@given(texts(lambda blank: canonical_rows(blank) | dense_rows(blank)))
@example("1,0,-1\n0, 1,0\n-1,0,1\n")
@example("0,-0,1\n")
@example("01,0\n")
@example("1,,0\n")
@example("1,0,\n")
@example("-1,1\n1,2\n")
@example("1,0\n1\n0,0 1\n")
def test_canonical_and_other_lines_match_the_entry_loop(text):
    data, old = split(text)
    if old:
        assert outcome(textio.read_dense_csv, data) == outcome(
            codes_oracle.read_dense_csv, old)


# a wide first line over 10^4 short ones, canonical or not, would size
# 10^8 bytes of rows; the length error comes first, within the text's
# proportion that loading keeps
@pytest.mark.parametrize("entry", ["0", " 0"])
def test_ragged_rows_are_refused_within_their_text(entry):
    text = ",".join([entry] * 10 ** 4) + "\n" + f"{entry}\n" * 10 ** 4
    data = textio.read_lines(text)[2]
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="rows have differing lengths"):
            textio.read_dense_csv(data)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 45 * len(text)


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 6), st.data())
def test_writers_match_the_string_joins(n, N, data):
    w = data.draw(st.integers(1, n))
    positions = np.sort(np.array([data.draw(st.permutations(range(n)))[:w]
                                  for _ in range(N)]), axis=1)
    signs = np.array(data.draw(st.lists(st.lists(st.sampled_from((1, -1)),
                                                 min_size=w, max_size=w),
                                        min_size=N, max_size=N)), np.int8)
    rows = np.zeros((n, N), dtype=np.int64)
    rows[positions, np.arange(N)[:, None]] = signs
    assert textio.format_dense_csv(n, positions, signs) == (
        codes_oracle.format_dense_csv(rows).encode())
    positions *= data.draw(st.sampled_from((1, 10, 10 ** 17)))  # wider
    for s in (None, signs):
        assert textio.format_words("p \xe9", "h", positions, s) == (
            codes_oracle.format_words("p \xe9", "h", positions, s).encode())


def test_a_file_that_is_not_ascii_fails_as_its_ascii_read(tmp_path):
    path = tmp_path / "m.csv"
    path.write_bytes(b"1,0\n0,\xc3\xa91\n")
    with pytest.raises(UnicodeDecodeError) as new:
        textio.read_text(path)
    with pytest.raises(UnicodeDecodeError) as old:
        Path(path).read_text(encoding="ascii")
    assert str(new.value) == str(old.value)


def test_a_tag_that_is_not_ascii_fails_as_its_ascii_write(tmp_path):
    data = textio.format_words("caf\xe9", "1 2 1", np.array([[0]]))
    assert data.decode("utf-8") == "# provenance: caf\xe9\n1 2 1\n0\n"
    with pytest.raises(UnicodeEncodeError) as new:
        textio.write_text(tmp_path / "c.code", data)
    with pytest.raises(UnicodeEncodeError) as old:
        (tmp_path / "d.code").write_text(data.decode("utf-8"),
                                         encoding="ascii")
    assert str(new.value) == str(old.value)
