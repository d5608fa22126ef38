"""Reference forms for code words: tuples of (position, sign) pairs, the
distances defined on them, and the lexicographic greedy loop over them.

codes.CWCode and matrices.MeasurementMatrix hold word i as row i of a
positions array and a signs array.  Tests that spell words out use
tuples of (position, sign) pairs (binary supports: tuples of positions)
and convert them with the helpers here.  greedy_words is the greedy
search as a plain loop over such tuples with ternary_distance; the
bit-mask search behind codes.greedy_binary and codes.greedy_ternary is
checked against it.  parse_words is the position reader as a loop
over the tokens of str.split(); textio.parse_words, which reads every
line's bytes in one numpy pass, is checked against it.  read_lines,
read_dense_csv, format_words and format_dense_csv are the line splitter,
the dense-CSV reader and the two writers as loops over lines, entries
and words, on str; textio's byte-level versions are checked against
them, and numbered turns textio.Lines into their (lineno, line) pairs.
coset_code is the coset conversion as a sweep of all q^n vectors per
subspace; designs.subspace_to_coset_code, which forms every coset in
one array pass from complement representatives, is checked against it.
"""

from itertools import combinations, product

import numpy as np

from cwsense.codes import CWCode, certify_binary
from cwsense.errors import BudgetError, FormatError, ParameterError
from cwsense.matrices import MeasurementMatrix
from cwsense.textio import read_int


def binary_distance(a, b, w: int) -> int:
    """Hamming distance between two weight-w supports: 2(w - |A & B|)."""
    return 2 * (w - len(set(a) & set(b)))


def ternary_distance(a, b) -> int:
    """Number of positions whose symbols differ, alphabet {0, +1, -1},
    for two words given as (position, sign) pairs."""
    da = dict(a)
    db = dict(b)
    dist = 0
    for pos, sign in da.items():
        if db.get(pos, 0) != sign:
            dist += 1
    for pos in db:
        if pos not in da:
            dist += 1
    return dist


def words_of(obj) -> list[tuple[tuple[int, int], ...]]:
    """The words of a CWCode or the columns of a MeasurementMatrix as
    tuples of (position, sign) pairs of Python ints."""
    return [tuple(zip(p, s))
            for p, s in zip(obj.positions.tolist(), obj.signs.tolist())]


def arrays_of(words, w: int) -> tuple[np.ndarray, np.ndarray]:
    """(positions, signs) of equal-length tuple words: N x len(word)
    int64 and int8 arrays, N x w when there are no words."""
    shape = (len(words), len(words[0]) if words else w)
    positions = np.array([[p for p, _ in word] for word in words],
                         dtype=np.int64).reshape(shape)
    signs = np.array([[s for _, s in word] for word in words],
                     dtype=np.int8).reshape(shape)
    return positions, signs


def code_of(n: int, w: int, words, signed: bool,
            provenance: str = "ingested") -> CWCode:
    """The CWCode of the tuple words, certified as it is made."""
    return CWCode(n, w, *arrays_of(words, w), signed=signed,
                  provenance=provenance)


def matrix_of(n: int, columns, w: int, provenance: str,
              bound=None) -> MeasurementMatrix:
    """A MeasurementMatrix whose columns are the tuple words."""
    return MeasurementMatrix(n, w, *arrays_of(columns, w),
                             provenance=provenance, bound=bound)


def greedy_words(n: int, dist: int, w: int, sign_set=(1, -1)):
    """Greedy over signed supports: supports in lex order (major key),
    sign patterns in product(sign_set) order (minor key), a word kept
    when its ternary_distance to every kept word is at least dist."""
    kept = []
    for sup in combinations(range(n), w):
        for signs in product(sign_set, repeat=w):
            word = tuple(zip(sup, signs))
            if all(ternary_distance(word, other) >= dist for other in kept):
                kept.append(word)
    return kept


def parse_words(lines, signed: bool, w: int, what: str = "word"):
    """(positions, signs) of numbered lines, token by token: the grammar,
    errors and error precedence textio.parse_words must reproduce."""
    positions, signs, counts = [], [], []
    for lineno, line in lines:
        try:
            for tok in (row := line.split()):
                digits = tok[1:] if signed else tok
                if not (digits.isascii() and digits.isdigit()
                        and (tok[0] in "+-") == signed
                        and (value := int(digits)) < 1 << 63):
                    raise ValueError
                positions.append(value)
        except ValueError:  # int() also refuses more than 4300 digits
            raise FormatError(f"line {lineno}: bad {'' if signed else 'un'}"
                              f"signed position {tok!r}") from None
        if signed:
            signs.extend(-1 if tok[0] == "-" else 1 for tok in row)
        counts.append(len(row))
    if len(set(counts)) > 1:
        i = next(i for i, c in enumerate(counts) if c != w)
        raise ParameterError(f"{what} #{i} does not have weight {w}")
    shape = (len(counts), counts[0] if counts else 0)
    positions = np.array(positions, dtype=np.int64).reshape(shape)
    signs = (np.array(signs, dtype=np.int8).reshape(shape) if signed
             else np.ones(shape, dtype=np.int8))
    order = np.argsort(positions, axis=1, kind="stable")
    return (np.take_along_axis(positions, order, axis=1),
            np.take_along_axis(signs, order, axis=1))


def read_lines(text: str):
    """(provenance, comments, data) of a text, line by line: blank lines
    dropped, '#' lines' bodies as comments but for '# provenance: <tag>'
    (the last wins), the other stripped lines as data, each numbered."""
    provenance = "ingested"
    comments, data = [], []
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


def numbered(lines) -> list[tuple[int, str]]:
    """textio.Lines as read_lines' (lineno, stripped line) pairs."""
    return [(int(lineno), lines.line(i))
            for i, lineno in enumerate(lines.lineno.tolist())]


def read_dense_csv(lines):
    """The rows of numbered dense-CSV lines, entry by entry with
    read_int, as an int64 array."""
    rows = []
    for lineno, line in lines:
        try:
            row = [read_int(tok) for tok in line.split(",")]
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer entry") from None
        if any(v not in (-1, 0, 1) for v in row):
            raise FormatError(
                f"line {lineno}: entries must be in {{-1, 0, 1}}")
        rows.append(row)
    if len({len(r) for r in rows}) != 1:
        raise FormatError("rows have differing lengths")
    return np.array(rows, dtype=np.int64)


def format_words(provenance: str, header: str, positions, signs=None) -> str:
    """A code, support-list or subspace file's text, word by word."""
    words = [" ".join(("" if signs is None else "-" if s < 0 else "+")
                      + str(p) for p, s in zip(row, srow))
             for row, srow in zip(positions.tolist(), (
                 positions if signs is None else signs).tolist())]
    return "\n".join([f"# provenance: {provenance}", header, *words]) + "\n"


def format_dense_csv(rows) -> str:
    """One CSV line of integers per row of a 2-D array, entry by entry."""
    return "".join(",".join(str(int(v)) for v in row) + "\n" for row in rows)


COSET_CAP = 1 << 16  # largest q^n the sweep is run for


def coset_code(code) -> CWCode:
    """One word per proper coset v + U of each subspace U of a
    designs.SubspaceCode: every vector v of GF(q)^n not yet covered
    starts a coset, kept by its bytes unless already kept, then the
    words are certified (certify_binary)."""
    q, n, k = code.field.q, code.n, code.k
    if q ** n > COSET_CAP:
        raise BudgetError(f"q^n = {q ** n} exceeds coset sweep cap {COSET_CAP}")
    words: dict[bytes, np.ndarray] = {}  # keyed by the coset's bytes
    for positions in code.binary.positions:
        points = np.concatenate([[0], positions + 1])  # zero, then the rest
        seen = np.zeros(q ** n, dtype=bool)
        seen[points] = True
        for v in range(q ** n):
            if seen[v]:
                continue
            coset = np.sort(code.field.add(points, v, n))
            seen[coset] = True
            words.setdefault(coset.tobytes(), coset)
    nominal = q ** (n - k - 1) * len(code) if n - k - 1 >= 0 else 0
    return certify_binary(
        q ** n - 1, q ** k,
        np.array(list(words.values()), dtype=np.int64).reshape(-1, q ** k) - 1,
        provenance=(f"subspace-cosets {code.provenance} "
                    f"achieved={len(words)} nominal={nominal}"))


def moment_bucket(n: int, dist: int, w: int, q: int):
    """The largest moment bucket with full keys, by the dict loop over
    tuple supports that graham_sloane_construct's arrays replace: every
    weight-w support keyed by its dist/2 - 1 power sums mod q, ties to
    the smallest key."""
    buckets = {}
    for sup in combinations(range(n), w):
        key = tuple(sum(s ** e for s in sup) % q for e in range(1, dist // 2))
        buckets.setdefault(key, []).append(list(sup))
    return buckets[min(buckets, key=lambda k: (-len(buckets[k]), k))]
