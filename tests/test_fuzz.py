"""Fuzz gate: damaged input files load or fail with a clean exit.

A seeded random.Random damages a binary code, a ternary code, a
support-list matrix, a dense-CSV matrix and two subspace code files by
byte edits, insertions, deletions, and duplicated or dropped lines.
Every damaged code and matrix file goes through `cwsense analyze`, the
matrix files also through `cwsense recover --k-max 1 --trials 2`; each
run must exit 0, 2 or 3 with no exception escaping main.  Damaged
subspace files go to loads_subspace_code, which may only raise
FormatError or BudgetError.
"""

import random

import pytest

from cwsense import cli
from cwsense.codes import dumps_code, greedy_ternary
from cwsense.designs import (dumps_subspace_code, loads_subspace_code,
                             make_sts, spread_code, steiner_to_code)
from cwsense.errors import BudgetError, FormatError
from cwsense.matrices import dumps_matrix, from_code

MUTANTS = 120  # per source file, 720 in all
# bytes the file grammars care about, then any byte at all
ALPHABET = b"0123456789 +-,#:\n\r\t_x."


def sources():
    sts9 = steiner_to_code(make_sts(9))
    return {
        "code": dumps_code(sts9),
        "ternary": dumps_code(greedy_ternary(5, 3, 2)),
        "support-list": dumps_matrix(from_code(sts9), "support-list"),
        "dense-csv": dumps_matrix(from_code(steiner_to_code(make_sts(7))),
                                  "dense-csv"),
        "subspace-2": dumps_subspace_code(spread_code(2, 4, 2)),
        "subspace-3": dumps_subspace_code(spread_code(3, 4, 2)),
    }


def mutate(rng: random.Random, data: bytes) -> bytes:
    """One to three random edits of data."""
    for _ in range(rng.randint(1, 3)):
        op = rng.randrange(5)
        pos = rng.randrange(len(data) + 1)
        byte = bytes([rng.choice(ALPHABET) if rng.random() < 0.9
                      else rng.randrange(256)])
        lines = data.split(b"\n")
        line = rng.randrange(len(lines))
        if op == 0:                                   # overwrite a byte
            data = data[:pos] + byte + data[pos + 1:]
        elif op == 1:                                 # insert a byte
            data = data[:pos] + byte + data[pos:]
        elif op == 2:                                 # delete a run
            data = data[:pos] + data[pos + rng.randint(1, 4):]
        elif op == 3:                                 # duplicate a line
            data = b"\n".join(lines[:line + 1] + lines[line:])
        else:                                         # drop a line
            data = b"\n".join(lines[:line] + lines[line + 1:])
    return data


@pytest.mark.parametrize("kind", sorted(sources()))
def test_damaged_files_fail_cleanly(kind, tmp_path, capsys):
    rng = random.Random(f"cwsense fuzz {kind}")
    original = sources()[kind].encode("ascii")
    path = tmp_path / "damaged"
    commands = [["analyze", str(path)]]
    if kind in ("support-list", "dense-csv"):
        commands.append(["recover", str(path), "--k-max", "1",
                         "--trials", "2"])
    for i in range(MUTANTS):
        data = mutate(rng, original)
        if kind.startswith("subspace"):
            try:
                loads_subspace_code(data.decode("latin-1"))
            except (FormatError, BudgetError):
                pass
            continue
        path.write_bytes(data)
        for argv in commands:
            assert cli.main(argv) in (0, 2, 3), (i, argv, data)
        capsys.readouterr()
