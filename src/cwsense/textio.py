"""The grammar of every file cwsense reads or writes, and the one place
a file is opened (read_text, write_text: ASCII, '\\n' line ends); the
loaders in codes, matrices and designs convert.  read_lines splits each
file once.  Code and subspace files have an 'n d w' or 'q n k d' header
(read_header), then a word a line in parse_words' grammar, bare ('3 7 9')
or signed ('+3 -7 +9'), written by format_words.  Matrix FORMATS, told
apart by matrix_format: 'support-list', signed columns under a '# n <n>
w <w> [bound <fraction>]' comment, and 'dense-csv', {-1, 0, 1} rows.
"""

from __future__ import annotations

from fractions import Fraction
from pathlib import Path

import numpy as np

from .errors import FormatError, ParameterError

FORMATS = ("support-list", "dense-csv")


def read_text(path) -> str:
    """An ASCII file's text: the one way cwsense reads a file."""
    return Path(path).read_text(encoding="ascii")


def write_text(path, text: str) -> None:
    """The one way cwsense writes a file: ASCII, '\\n' line ends."""
    Path(path).write_text(text, encoding="ascii", newline="\n")


def read_lines(text: str) -> tuple[str, list[tuple[int, str]],
                                   list[tuple[int, str]]]:
    """Split a line-oriented file into (provenance, comments, data).

    Blank lines are dropped; comments are the bodies of '#' lines other
    than '# provenance: <tag>' (the last such tag wins, 'ingested' when
    absent); data are the remaining stripped lines.  Both lists carry
    1-based line numbers.  Every file cwsense loads is split here, once.
    """
    provenance = "ingested"
    comments: list[tuple[int, str]] = []
    data: list[tuple[int, str]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            body = line[1:].strip()
            if body.startswith("provenance:"):
                provenance = body[len("provenance:"):].strip()
            else:
                comments.append((lineno, body))
        else:
            data.append((lineno, line))
    return provenance, comments, data


def read_int(token: str) -> int:
    """A header or dense-CSV integer: an optional '-' and ASCII digits,
    with the blanks int() allows around them, else a ValueError (int()
    alone would also take '1_0', '+9' and '١')."""
    digits = token.strip().removeprefix("-")
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an integer: {token!r}")
    return int(token)


def read_header(data: list[tuple[int, str]], names: str) -> tuple:
    """The integers named in names ('n d w' or 'q n k d') read from the
    first data line, then the data lines after it.  A missing header, a
    count other than names' or a value read_int refuses is a
    FormatError; each caller checks the ranges of its own values."""
    if not data:
        raise FormatError(f"missing '{names}' header")
    lineno, tokens = data[0][0], data[0][1].split()
    if len(tokens) != len(names.split()):
        raise FormatError(f"line {lineno}: header must be '{names}'")
    try:
        return (*map(read_int, tokens), data[1:])
    except ValueError:
        raise FormatError(f"line {lineno}: non-integer header") from None


def format_words(provenance: str, header: str, positions: np.ndarray,
                 signs: np.ndarray | None = None) -> str:
    """The text of a code, support-list or subspace file: '# provenance:
    <tag>', the header line, then one line per word, '+3 -7 +9' given
    signs, '3 7 9' without.  Each distinct position is formatted once."""
    values, index = np.unique(positions, return_inverse=True)  # index: N x w
    table = list(map(str, values.tolist()))
    if signs is not None:
        table = ["+" + t for t in table] + ["-" + t for t in table]
        index = index + len(values) * (signs < 0)
    tokens = np.array(table, dtype=object)[index]
    return "\n".join([f"# provenance: {provenance}", header,
                      *map(" ".join, tokens.tolist())]) + "\n"


def parse_words(lines: list[tuple[int, str]], signed: bool, w: int,
                what: str = "word") -> tuple[np.ndarray, np.ndarray]:
    """(positions, signs) of numbered lines, rows sorted by position: the
    one position reader of code, support-list and subspace files.  The
    tokens are those of str.split().  A position is ASCII digits below
    2^63, signed by exactly one '+' or '-' when signed and bare when
    not; the first other token in file order is a FormatError naming its
    line (_read_positions).  Only then do lines of differing lengths
    fail, at the first without w."""
    values, heads, counts = _read_positions(lines, signed)
    if (counts != counts[:1]).any():
        raise ParameterError(f"{what} #{int((counts != w).argmax())} "
                             f"does not have weight {w}")
    shape = (len(lines), int(counts[0]) if len(lines) else 0)
    positions = values.reshape(shape)
    signs = (np.where(heads == ord("-"), np.int8(-1), np.int8(1))
             if signed else np.ones_like(heads, dtype=np.int8)).reshape(shape)
    order = np.argsort(positions, axis=1, kind="stable")
    return (np.take_along_axis(positions, order, axis=1),
            np.take_along_axis(signs, order, axis=1))


def _read_positions(lines: list[tuple[int, str]],
                   signed: bool) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(values, first bytes) of every token of the lines in file order,
    and the number of tokens on each line: parse_words' reader, which
    raises the FormatError naming the first bad token.

    The lines (read_lines' data, no line break inside one) are read in
    one pass over their bytes joined by newlines: separator edges give
    the tokens, byte masks check the grammar, and Horner's rule over
    digit columns gives the values on per-token int64 arrays; no
    per-byte int64 array is formed.  Tokens of 19 digits or more go to
    int(), which keeps the 2^63 and 4300-digit limits.  A text that is
    not ASCII is first rebuilt with one space between tokens, so a byte
    >= 0x80 left sits inside a token.
    """
    text = "\n".join(line for _, line in lines)
    if not text.isascii():
        text = "\n".join(" ".join(line.split()) for _, line in lines)
    buf = np.frombuffer(text.encode("utf-8", "surrogatepass"), dtype=np.uint8)
    # str.split()'s ASCII whitespace: \t \n \v \f \r, \x1c-\x1f and space
    blank = (buf - 9 < 5) | (buf - 28 < 5)
    zero = np.int8(0)  # an int 0 would widen the diff to int64 per byte
    rise = np.diff((~blank).view(np.int8), prepend=zero, append=zero)
    starts = np.flatnonzero(rise == 1)  # tokens end where rise is -1
    length = np.flatnonzero(rise == -1) - starts - signed  # digits
    newlines = np.flatnonzero(buf == ord("\n"))
    counts = np.bincount(np.searchsorted(newlines, starts),
                         minlength=len(lines))
    heads = buf[starts]
    bad = ~blank & (buf - ord("0") >= 10)  # neither a blank nor a digit
    if signed:
        bad[starts] = (heads != ord("+")) & (heads != ord("-"))
    culprit = len(starts)  # the first bad token, none yet
    if bad.any():
        culprit = int(np.searchsorted(starts, bad.argmax(), "right")) - 1
    if (length < 1).any():  # a lone sign
        culprit = min(culprit, int((length < 1).argmax()))
    big = {}
    for t in np.flatnonzero(length[:culprit] > 18).tolist():
        first = starts[t] + signed
        try:
            big[t] = int(buf[first:first + length[t]].tobytes())
        except ValueError:  # past int()'s 4300 digits
            big[t] = 1 << 63
        if big[t] >= 1 << 63:
            culprit = t
            break
    if culprit < len(starts):
        i = int(np.searchsorted(newlines, starts[culprit]))
        tok = lines[i][1].split()[culprit - int(counts[:i].sum())]
        raise FormatError(f"line {lines[i][0]}: bad {'' if signed else 'un'}"
                          f"signed position {tok!r}")
    values = np.zeros(len(starts), dtype=np.int64)
    for k in range(min(int(length.max(initial=0)), 18)):  # Horner's rule
        live = length > k
        digit = buf.take(starts + (signed + k), mode="clip") - ord("0")
        np.multiply(values, 10, out=values, where=live)
        np.add(values, digit, out=values, where=live)
    values[list(big)] = list(big.values())
    return values, heads, counts


def matrix_format(comments: list[tuple[int, str]],
                  data: list[tuple[int, str]]) -> str | None:
    """The matrix format of read_lines' (comments, data), else None: dense
    CSV if the first data line has a comma; else a support list if a
    '# n ...' comment (shaped 'n _ w ...' before a one-entry line, since
    '-1' is a CSV row too) precedes a first data line starting with '+'
    or '-' (or there is none); else dense CSV if that line has one entry.
    A code's bare 'n d w' header is none of these; other comments never count."""
    lineno, line = data[0] if data else (float("inf"), "")
    if "," in line:
        return "dense-csv"
    one = len(line.split()) == 1
    if (not data or line[0] in "+-") and any(
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


def format_dense_csv(rows: np.ndarray) -> str:
    """One CSV line of integers per row of the array."""
    return "".join(",".join(str(int(v)) for v in row) + "\n" for row in rows)


def read_dense_csv(lines: list[tuple[int, str]]) -> np.ndarray:
    """The rows of a dense CSV as an int64 array: entries are integers as
    read_int reads them, in {-1, 0, 1}, and every row has as many."""
    rows = []
    for lineno, line in lines:
        try:
            row = [read_int(tok) for tok in line.split(",")]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer entry") from None
        if any(v not in (-1, 0, 1) for v in row):
            raise FormatError(f"line {lineno}: entries must be in {{-1, 0, 1}}")
        rows.append(row)
    if len({len(r) for r in rows}) != 1:
        raise FormatError("rows have differing lengths")
    return np.array(rows, dtype=np.int64)
