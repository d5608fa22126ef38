"""Fuzz gate: damaged input files load or fail with a clean exit.

A seeded random.Random damages a binary code, a ternary code, a
support-list matrix, a dense-CSV matrix and two subspace code files by
byte edits, insertions, deletions, and duplicated or dropped lines.
Every damaged code and matrix file goes through `cwsense analyze`, the
matrix files also through `cwsense recover --k-max 1 --trials 2`; each
run must exit 0, 2 or 3 with no exception escaping main.  Damaged
subspace files go to loads_subspace_code, which may only raise
FormatError or BudgetError.

The argv gate draws seeded `construct` and `bounds` commands whose
integer options come from VALUES.  Each must exit 0, 2 or 3 with no
exception escaping main; an exit 3, and a command that enumerates at
most SMALL_COUNT words or points, must end within one second, under a
per-command timer (signal.setitimer) in this process.
"""

import math
import random
import signal
import time

import pytest

from cwsense import cli
from cwsense.codes import dumps_code, greedy_ternary
from cwsense.designs import (dumps_subspace_code, loads_subspace_code,
                             make_sts, spread_code)
from cwsense.errors import BudgetError, FormatError
from cwsense.matrices import dumps_matrix, from_code

MUTANTS = 120  # per source file, 720 in all
# bytes the file grammars care about, then any byte at all
ALPHABET = b"0123456789 +-,#:\n\r\t_x."


def sources():
    sts9 = make_sts(9)
    return {
        "code": dumps_code(sts9),
        "ternary": dumps_code(greedy_ternary(5, 3, 2)),
        "support-list": dumps_matrix(from_code(sts9), "support-list"),
        "dense-csv": dumps_matrix(from_code(make_sts(7)),
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


# -- argv contract gate --------------------------------------------------------

SMALL = (2, 3, 4, 5, 7, 9)
VALUES = (-1, 0, 1, *SMALL, 2 ** 31, 2 ** 63, 10 ** 30)
COMMANDS = {  # argv head -> the options drawn from VALUES
    **{("construct", name): options
       for name, (options, _) in cli.CONSTRUCTIONS.items()},
    ("bounds",): "ndw", ("bounds", "--ternary"): "ndw",
    ("bounds", "--dims"): "nkt", ("bounds", "--dims", "--ternary"): "nkt",
}
COMMANDS_DRAWN = 200  # per argv head
SMALL_COUNT = 1000


def enumeration_count(head, v) -> int:
    """Words or points a construct command enumerates, when every option
    is in SMALL; 0 otherwise and for bounds, whose work is small then."""
    if head[0] != "construct" or not set(v.values()) <= set(SMALL):
        return 0
    n, w = v.get("n", 0), v.get("w", 0)
    return {"greedy": math.comb(n, w), "graham-sloane": math.comb(n, w),
            "ternary-greedy": math.comb(n, w) << w, "sts": n * n,
            "affine": v.get("q", 0) ** 3,
            "spread": v.get("q", 0) ** n,
            "devore": v.get("p", 0) ** (v.get("r", 0) + 1)}[head[1]]


class Late(Exception):
    """A command ran past its wall bound."""


def _late(signum, frame):
    raise Late


@pytest.mark.parametrize("head", sorted(COMMANDS), ids=" ".join)
def test_argv_contract(head, tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # devore writes its matrix here
    rng = random.Random(f"cwsense argv {' '.join(head)}")
    previous = signal.signal(signal.SIGALRM, _late)
    try:
        for _ in range(COMMANDS_DRAWN):
            values = {name: rng.choice(VALUES) for name in COMMANDS[head]}
            argv = [*head] + [f"--{name}={value}"
                              for name, value in values.items()]
            small = enumeration_count(head, values) <= SMALL_COUNT
            start = time.perf_counter()
            signal.setitimer(signal.ITIMER_REAL, 1.0 if small else 30.0)
            try:
                code = cli.main(argv)
            except Late:
                pytest.fail(f"{' '.join(argv)} ran past its wall bound")
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            elapsed = time.perf_counter() - start
            err = capsys.readouterr().err
            assert code in (0, 2, 3), (argv, err)
            assert code != 3 or elapsed < 1.0, (argv, elapsed)
    finally:
        signal.signal(signal.SIGALRM, previous)
