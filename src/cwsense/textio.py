"""The grammar of every file cwsense reads or writes, byte by byte, and
the one place a file is opened (read_text, write_text: ASCII bytes).
read_lines splits each file once, in one numpy pass, into data lines as
spans (Lines); lines end where str.splitlines ends them, so a str loads
as its bytes do.  Code and subspace files have an 'n d w' or 'q n k d'
header (read_header), then a word a line, bare ('3 7 9') or signed
('+3 -7 +9'): parse_words, format_words.  Matrix FORMATS (matrix_format):
'support-list', signed columns under a '# n <n> w <w> [bound <fraction>]'
comment, and 'dense-csv', {-1, 0, 1} rows: format_dense_csv, and
read_dense_csv, canonical lines at their rare bytes, others by read_int.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError

FORMATS = ("support-list", "dense-csv")


class _Narrow(dict):
    """str.translate's table to one byte a code point, so offsets index
    the str: past ASCII, str.splitlines()' line ends become '\\x1e' (a
    line end that, unlike '\\n', makes no pair with a '\\r' before it),
    other str.split() blanks ' ', the rest '\\x80'."""
    def __missing__(self, c: int):
        self[c] = c if c < 128 else "\x80" if not chr(c).isspace() else (
            "\x1e" if len(f"a{chr(c)}b".splitlines()) == 2 else " ")
        return self[c]


_NARROW = _Narrow()
# bytes 0-32: 0, 1 a blank of str.split(), 2 a line end of str.splitlines()
KINDS = np.array([c.isspace() + (len(f"a{c}b".splitlines()) == 2)
                  for c in map(chr, range(33))], dtype=np.uint8)


def read_text(path) -> bytes:
    """An ASCII file's bytes, else an ASCII decode's UnicodeDecodeError."""
    data = Path(path).read_bytes()
    if not data.isascii():
        data.decode("ascii")
    return data


def write_text(path, data: bytes | str) -> None:
    """Write ASCII bytes or a str; a text past ASCII (a caller's tag, which
    the writers encode as UTF-8) fails as its str's ASCII encode does."""
    if isinstance(data, bytes) and data.isascii():
        Path(path).write_bytes(data)
    else:
        Path(path).write_text(data if isinstance(data, str) else
                              data.decode("utf-8", "surrogatepass"),
                              encoding="ascii", newline="\n")


def _text(src: str | bytes, a: int, b: int) -> str:
    text = src[a:b]
    return text if isinstance(text, str) else text.decode("ascii")


class Lines:
    """Data lines as spans: line i is numbered lineno[i] and has the
    str.split() tokens first[i]:first[i + 1] of starts/stops (first runs
    from 0 to their length), offsets into buf, the bytes of src
    (_NARROW's for a non-ASCII str); blank marks the blanks in buf."""

    __slots__ = ("src", "buf", "blank", "lineno", "first", "starts", "stops")

    def __init__(self, src, buf, blank, lineno, first, starts, stops):
        self.src, self.buf, self.blank = src, buf, blank
        self.lineno, self.first = lineno, first
        self.starts, self.stops = starts, stops

    def __len__(self) -> int:
        return len(self.lineno)

    def line(self, i: int) -> str:  # stripped
        return _text(self.src, self.starts[self.first[i]],
                     self.stops[self.first[i + 1] - 1])

    def tail(self) -> Lines:  # the lines after the first
        k = self.first[1]
        return Lines(self.src, self.buf, self.blank, self.lineno[1:],
                     self.first[1:] - k, self.starts[k:], self.stops[k:])


def read_lines(text: str | bytes) -> tuple[str, list[tuple[int, str]], Lines]:
    """(provenance, comments, data): blank lines dropped, '#' lines'
    bodies as comments, numbered from 1, but for '# provenance: <tag>'
    (the last wins, else 'ingested'), the rest as data.  Every file is
    split here, once: tokens lie between blanks, a token's line is the
    count of line ends ('\\r\\n' one) before it, and the line's first byte
    sorts it."""
    src = text
    if isinstance(text, str):
        text = (text if text.isascii() else text.translate(_NARROW)).encode(
            "latin-1")
    buf = np.frombuffer(text, np.uint8)
    blank = buf <= ord(" ")
    ends = np.flatnonzero(blank)
    kind = KINDS[buf[ends]]
    if not kind.all():  # a control byte that is no blank
        blank[ends[kind == 0]] = False
        ends, kind = ends[kind > 0], kind[kind > 0]
    edges = np.concatenate(([-1], ends, [len(buf)]))
    gaps = np.flatnonzero(np.diff(edges) > 1)
    starts, stops = edges[gaps] + 1, edges[gaps + 1]  # of tokens
    end = kind == 2
    crlf = np.flatnonzero(np.diff(ends) == 1)  # '\r\n' is one line end
    end[crlf[(buf[ends[crlf]] == 13) & (buf[ends[crlf + 1]] == 10)] + 1] = 0
    line = np.concatenate(([0], np.cumsum(end)))[gaps]  # numbers, from 0
    heads = np.flatnonzero(np.diff(line, prepend=-1))  # first tokens
    bounds = np.append(heads, len(starts))
    comment = buf[starts[heads]] == ord("#")
    provenance, comments = "ingested", []
    for j in np.flatnonzero(comment).tolist():
        body = _text(src, starts[heads[j]] + 1,
                     stops[bounds[j + 1] - 1]).strip()
        if body.startswith("provenance:"):
            provenance = body[len("provenance:"):].strip()
        else:
            comments.append((int(line[heads[j]]) + 1, body))
    if comment.any():
        keep = np.repeat(~comment, np.diff(bounds))
        starts, stops = starts[keep], stops[keep]
    first = np.concatenate(([0], np.cumsum(np.diff(bounds)[~comment])))
    return provenance, comments, Lines(src, buf, blank,
                                       line[heads[~comment]] + 1, first,
                                       starts, stops)


def read_int(token: str) -> int:
    """A header integer, '-'? and ASCII digits with int()'s blanks around,
    else a ValueError (int() alone also takes '1_0', '+9', '\u0661')."""
    digits = token.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def read_header(data: Lines, names: str) -> tuple:
    """The integers named in names ('n d w' or 'q n k d') read from the
    first data line, then the data lines after it.  A missing header, a
    count other than names' or a value read_int refuses is a
    FormatError; each caller checks the ranges of its own values."""
    if not len(data):
        raise FormatError(f"missing '{names}' header")
    lineno, tokens = data.lineno[0], data.line(0).split()
    if len(tokens) != len(names.split()):
        raise FormatError(f"line {lineno}: header must be '{names}'")
    try:
        return (*map(read_int, tokens), data.tail())
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header") from None


def format_words(provenance: str, header: str, positions: np.ndarray,
                 signs: np.ndarray | None = None) -> bytes:
    """A code, support-list or subspace file: '# provenance: <tag>', the
    header, then a word a line, '+3 -7 +9' given signs, '3 7 9' without.
    Each position gets a row of bytes, its sign, its digit columns (NUL
    above its first digit) and a separator, and the NULs are dropped."""
    width = len(str(int(positions.max(initial=0))))
    cells = np.zeros((*positions.shape, width + 2), dtype=np.uint8)
    if signs is not None:
        cells[..., 0] = np.where(signs < 0, ord("-"), ord("+"))
    for j in range(width):  # the digits of 10^j, and 0's own
        digit = positions // 10 ** j % 10 + ord("0")
        cells[..., width - j] = np.where((positions >= 10 ** j) | (j == 0),
                                         digit, 0)
    cells[..., -1] = ord(" ")
    cells[:, -1:, -1] = ord("\n")
    head = f"# provenance: {provenance}\n{header}\n"
    return b"".join((head.encode("utf-8", "surrogatepass"),
                     cells[cells != 0]))


def parse_words(lines: Lines, signed: bool, w: int,
                what: str = "word") -> tuple[np.ndarray, np.ndarray]:
    """(positions, signs) of the lines, rows sorted by position.  A
    position is a token of ASCII digits below 2^63, with one '+' or '-'
    when signed, bare when not; the first other token is a FormatError
    naming its line, then lines of lengths other than the first's fail,
    at the first without w.  Byte masks check the grammar (passing over
    comment lines), digit columns from the last give the values, and
    int() those of 19 digits or more, keeping its limits."""
    buf, first = lines.buf, lines.first
    starts, stops = lines.starts, lines.stops
    counts, heads = np.diff(first), buf[starts]
    length = stops - starts - signed  # digits
    culprit = len(starts)  # the first bad token, none yet
    if len(starts):
        lo, hi = starts[0], stops[-1]
        bad = ~lines.blank[lo:hi] & (buf[lo:hi] - ord("0") >= 10)
        if signed:
            bad[starts - lo] = (heads != ord("+")) & (heads != ord("-"))
        at = np.flatnonzero(bad) + lo
        tokens = np.searchsorted(starts, at, "right") - 1
        tokens = tokens[at < stops[tokens]]  # not in a comment line
        culprit = int(tokens[0]) if len(tokens) else culprit
    if (length < 1).any():  # a lone sign
        culprit = min(culprit, int((length < 1).argmax()))
    big = {}
    for t in np.flatnonzero(length[:culprit] > 18).tolist():
        try:
            big[t] = int(_text(lines.src, starts[t] + signed, stops[t]))
        except ValueError:  # past int()'s 4300 digits
            big[t] = 1 << 63
        if big[t] >= 1 << 63:
            culprit = t
            break
    if culprit < len(starts):
        i = int(np.searchsorted(first, culprit, "right")) - 1
        token = _text(lines.src, starts[culprit], stops[culprit])
        raise FormatError(f"line {lines.lineno[i]}: bad "
                          f"{'' if signed else 'un'}signed position {token!r}")
    if (counts != counts[:1]).any():
        raise ParameterError(f"{what} #{int((counts != w).argmax())} "
                             f"does not have weight {w}")
    values = np.zeros(len(starts), dtype=np.int64)
    for k in range(min(int(length.max(initial=0)), 18)):  # k-th from last
        digit = buf.take(stops - 1 - k, mode="clip") - np.int64(ord("0"))
        values += digit * (length > k) * 10 ** k
    values[list(big)] = list(big.values())
    shape = (len(lines), int(counts[0]) if len(lines) else 0)
    positions = values.reshape(shape)
    signs = (np.where(heads == ord("-"), np.int8(-1), np.int8(1))
             if signed else np.ones_like(heads, dtype=np.int8)).reshape(shape)
    if (positions[:, 1:] < positions[:, :-1]).any():  # else already sorted
        order = np.argsort(positions, axis=1, kind="stable")
        positions, signs = (np.take_along_axis(positions, order, axis=1),
                            np.take_along_axis(signs, order, axis=1))
    return positions, signs


def matrix_format(comments: list[tuple[int, str]], data: Lines) -> str | None:
    """The matrix format of read_lines' (comments, data), else None: dense
    CSV if the first data line has a comma; else a support list if a
    '# n ...' comment (shaped 'n _ w ...' before a one-entry line, since
    '-1' is a CSV row too) precedes a first data line starting with '+'
    or '-' (or there is none); else dense CSV if that line has one entry.
    A code's bare 'n d w' header is none of these; other comments never count."""
    lineno, line = (data.lineno[0], data.line(0)) if len(data) else (
        float("inf"), "")
    if "," in line:
        return "dense-csv"
    one = len(line.split()) == 1
    if (not len(data) or line[0] in "+-") and any(
            at < lineno and body.startswith("n ")
            and (not one or body.split()[:3:2] == ["n", "w"])
            for at, body in comments):
        return "support-list"
    return "dense-csv" if one else None


def support_header(n: int, w: int, bound: Fraction | None) -> str:
    """The dimension header line of a support list."""
    return f"# n {n} w {w}" + ("" if bound is None else f" bound {bound}")


def read_support_header(comments: list[tuple[int, str]]):
    """(n, w, bound or None) of the one '# n' comment, as support_header
    writes it (None without one); any other '# n' is a FormatError."""
    header = None
    for lineno, tokens in [(at, body.split()) for at, body in comments
                           if body.startswith("n ")]:
        try:
            if (header is not None or len(tokens) not in (4, 6)
                    or tokens[0::2] != ["n", "w", "bound"][:len(tokens) // 2]):
                raise ValueError
            header = (read_int(tokens[1]), read_int(tokens[3]),
                      _parse_bound(tokens[5]) if len(tokens) == 6 else None)
        except (ValueError, ZeroDivisionError):
            raise FormatError(f"line {lineno}: bad dimension header") from None
    return header


def _parse_bound(token: str) -> Fraction:
    """A bound claim as str(Fraction) writes it, read_int's '[-]digits' then
    optionally '/digits', else a ValueError: Fraction(token) takes '0.5'."""
    num, slash, den = token.partition("/")
    if slash and not (den.isascii() and den.isdigit()):
        raise ValueError(f"bad bound {token!r}")
    return Fraction(read_int(num), int(den or 1))


def format_dense_csv(n: int, positions: np.ndarray,
                     signs: np.ndarray) -> bytes:
    """The n x N matrix whose column j holds signs[j] on the rows
    positions[j] as CSV, one line of -1/0/1 a row: every entry is a
    digit and its separator, then a '-' goes before each -1."""
    N = len(positions)
    cells = np.empty((n, N, 2), dtype=np.uint8)
    cells[...] = (ord("0"), ord(","))
    cells[:, -1, 1] = ord("\n")
    cells[positions, np.arange(N)[:, None], 0] = ord("1")
    at = (positions * N + np.arange(N)[:, None])[signs < 0]
    return np.insert(cells.reshape(-1), 2 * at, ord("-")).tobytes()


def read_dense_csv(lines: Lines) -> np.ndarray:
    """The rows (one line or more) of a dense CSV as an int8 array: each
    entry is read_int's, in {-1, 0, 1}, and rows are as long; the first
    line with an entry read_int refuses, else one out of range, is a
    FormatError, and only then a length.  A canonical line (one token of
    0, 1, -1 between single commas, as format_dense_csv writes) is read
    at its bytes other than '0' ',' and those equal to the next (it has
    none): (length - its '-' + 1) / 2 entries, a '1' in column (offset -
    the '-' before it in its line) / 2, -1 after a '-'.  Other lines are
    split at ',' and read with read_int."""
    buf, first = lines.buf, lines.first
    begin, end = lines.starts[first[:-1]], lines.stops[first[1:] - 1]
    r = buf[begin[0]:end[-1]]
    rare = np.flatnonzero((r != ord("0")) & (r != ord(",")))

    def inside(at):  # the bytes at that are in the lines, and their lines
        at = at + begin[0]
        line = np.searchsorted(begin, at, "right") - 1
        return at[at < end[line]], line[at < end[line]]
    at, line = inside(rare)
    pairs, paired = inside(np.flatnonzero(r[1:] == r[:-1]))
    kind = buf[at]
    prev = np.where(at > begin[line], buf[at - 1], ord(","))
    after = np.where(at + 1 < end[line], buf.take(at + 1, mode="clip"),
                     ord(","))
    odd = (np.diff(first) > 1) | (buf[begin] == ord(",")) | (
        buf[end - 1] == ord(","))  # the lines that are not canonical
    odd[paired[pairs + 1 < end[paired]]] = True  # '00' ',,' '11' '--'
    odd[line[(prev - ord("0") < 2) | np.where(  # '01' '1-' '-0' '-,' '10'
        kind == ord("-"), after != ord("1"),
        (kind != ord("1")) | (after == ord("0")))]] = True
    minus = at[kind == ord("-")]
    counts = (end - begin + 1 - np.searchsorted(minus, end)
              + np.searchsorted(minus, begin)) // 2
    width = lines.line(0).count(",") + 1
    fits, others, entries = counts == width, np.flatnonzero(odd), []
    for i in others.tolist():
        try:
            row = [read_int(entry) for entry in lines.line(i).split(",")]
        except ValueError:
            raise FormatError(f"line {lines.lineno[i]}: non-integer entry"
                              ) from None
        if not set(row) <= {-1, 0, 1}:
            raise FormatError(f"line {lines.lineno[i]}: "
                              "entries must be in {-1, 0, 1}")
        fits[i] = len(row) == width
        entries += row  # the other lines' entries, as many as their text
    if not fits.all():  # before rows, which a ragged text could not fill
        raise FormatError("rows have differing lengths")
    rows = np.zeros((len(lines), width), np.int8)
    rows[others] = np.array(entries, np.int8).reshape(-1, width)
    one = (kind == ord("1")) & ~odd[line]
    at, line = at[one], line[one]
    column = (at - begin[line] - np.searchsorted(minus, at)
              + np.searchsorted(minus, begin[line])) // 2
    rows[line, column] = np.where(prev[one] == ord("-"), -1, 1)
    return rows
