"""CLI: subcommand output, exit codes, file side effects."""

import contextlib
import hashlib
import io
import re
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from cwsense import cli
from cwsense.codes import (dumps_code, gilbert_bound, greedy_ternary,
                           load_code, loads_code)
from cwsense.designs import (dumps_subspace_code, loads_subspace_code,
                             make_sts, spread_code)
from cwsense.errors import FormatError
from cwsense.matrices import dumps_matrix, from_code, loads_matrix, save_matrix
from cwsense.recovery import CSV_HEADER, RecoveryReport


def run_cli(*argv):
    return cli.main(list(argv))


def sha256(data):
    return hashlib.sha256(data).hexdigest()


@pytest.fixture()
def spread_matrix_file(tmp_path):
    matrix = from_code(spread_code(2, 4, 2).binary)
    path = tmp_path / "spread.matrix"
    save_matrix(matrix, path)
    return path


# -- construct -------------------------------------------------------------

def test_construct_sts_summary(capsys, tmp_path):
    out = tmp_path / "sts.matrix"
    assert run_cli("construct", "sts", "--n", "9",
                   "--emit-matrix", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("summary: construction=sts n=9 N=12 w=3 d=4 "
                        "mu_bound=1/3")
    assert lines[1] == f"wrote matrix: {out}"
    assert out.exists()


def test_construct_devore_summary(capsys, tmp_path):
    out = tmp_path / "d.matrix"
    assert run_cli("construct", "devore", "--p", "5", "--r", "3",
                   "--emit-matrix", str(out)) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == ("summary: construction=devore n=25 N=125 w=5 d=6 "
                     "mu_bound=2/5")


@pytest.mark.parametrize("p,r,n,N", [(2, 4, 4, 16), (3, 5, 9, 243)])
def test_construct_devore_summary_degree_past_field(capsys, tmp_path, p, r,
                                                    n, N):
    """With r > p two distinct polynomials can agree on every point
    (x and x^p), so columns repeat: the bound is min(r - 1, p)/p = 1,
    d = 2 (p - min(r - 1, p)) = 0, and analyze certifies mu = 1."""
    out = tmp_path / "d.matrix"
    assert run_cli("construct", "devore", "--p", str(p), "--r", str(r),
                   "--emit-matrix", str(out)) == 0
    first = capsys.readouterr().out.splitlines()[0]
    assert first == (f"summary: construction=devore n={n} N={N} w={p} d=0 "
                     "mu_bound=1")
    assert run_cli("analyze", str(out)) == 0
    assert "mu = 1, bound = 1," in capsys.readouterr().out


def test_construct_greedy_writes_loadable_code(capsys, tmp_path):
    out = tmp_path / "code.txt"
    assert run_cli("construct", "greedy", "--n", "10", "--d", "4", "--w", "3",
                   "--out", str(out)) == 0
    code = load_code(out)
    assert len(code) >= gilbert_bound(10, 4, 3)
    assert "wrote code:" in capsys.readouterr().out


def test_construct_default_matrix_name(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("construct", "sts", "--n", "7", "--emit-matrix") == 0
    expected = tmp_path / "binary_steiner-skolem_n7.matrix"
    assert expected.exists()
    assert f"wrote matrix: {expected.name}" in capsys.readouterr().out


def test_construct_signed_is_seed_reproducible(tmp_path, capsys):
    a, b = tmp_path / "a.matrix", tmp_path / "b.matrix"
    for path in (a, b):
        assert run_cli("construct", "greedy", "--n", "9", "--d", "4",
                       "--w", "3", "--signed", "--seed", "5",
                       "--matrix-out", str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


def test_matrix_out_is_a_second_spelling_of_emit_matrix(capsys, tmp_path):
    a, b = tmp_path / "a.matrix", tmp_path / "b.matrix"
    for option, path in (("--matrix-out", a), ("--emit-matrix", b)):
        assert run_cli("construct", "sts", "--n", "9", "--out",
                       str(tmp_path / "c.code"), option, str(path)) == 0
    assert a.read_bytes() == b.read_bytes()


# sha256 of construct's stdout and of every file it writes, pinned before
# the seven constructions shared one write path: the summary line, the
# code and matrix bytes and the derived default matrix names must not drift
CONSTRUCT_DIGESTS = [
    ("greedy --n 10 --d 4 --w 3 --out c.code --emit-matrix m.matrix", {
        "stdout":
            "3e151d68699b642152118b797243674a0bdd7d3f94863c0a9f93d38899791522",
        "c.code":
            "595cc8d94587592e52fbccca551d4eae1d325f37b01a1099316ee3fd4745e33f",
        "m.matrix":
            "e10db542e64542d92880e05b45b98ba1afc3ef84f5ac38edfd8edf2eee09bfbb",
    }),
    ("ternary-greedy --n 6 --d 4 --w 3 --out c.code --emit-matrix", {
        "stdout":
            "f7b80aa193c5525eb4635a6fa97734d712953ff95680bcc080f8255ca581a003",
        "c.code":
            "a003d751b096bd853dd4e1135255dad57ad2fc8a2107ab5c30117614df41c49f",
        "ternary_greedy-ternary_n6_d4_w3.matrix":
            "fa49a3a214c64e59bc5528cf0a730edd912e5d0abb5c773ef4d52a97c0476da7",
    }),
    ("graham-sloane --n 10 --d 4 --w 3 --out c.code --matrix-out m.csv "
     "--matrix-format dense-csv", {
        "stdout":
            "413f182cb7d9897d7f1aec40096241ec5a70e1228b8bd8da10a4a07d3745c64f",
        "c.code":
            "f59c8690b22b5400c7097976098ec84f08d13ae2558b97dec3a92de68a4a8130",
        "m.csv":
            "359f26d0dd06afd82df5a4f5f8b87f658e6428d14a4683b9012805d09985dd84",
    }),
    ("sts --n 9 --out sts9.code --emit-matrix sts9.matrix", {
        "stdout":
            "242a4ad5b4cc857fd2f2ae4fd4b4371a93fe2ed41301b91b176b611d3cb4ad6c",
        "sts9.code":
            "731a8e42ef4b8d2ef907eb6106485b4cf6271c2c5003d282068202c36d51a565",
        "sts9.matrix":
            "ffbb89d2a7b39ab3ea3d1753468a6b8958897fada6a79c1e6c289e162602f3e7",
    }),
    ("sts --n 7", {
        "stdout":
            "09c84d9b20ab736f78008aaa4f1013e6c4d502ff993d2f6c4bf7166502f5a2af",
    }),
    ("affine --q 5 --out a.code --emit-matrix", {
        "stdout":
            "2bae039392c812c8b06d242d76883e2fc4a69204e9fb1fc65a969df852b3c746",
        "a.code":
            "2ad7fda8c7b5b06ca2c208dcd829bcfaee75e4bd8b0a709160fe8139b46c35ea",
        "binary_affine_q5.matrix":
            "4cfd4070f2de87e5ad487f8f79ac57730650282bd22665429ad2abe558118903",
    }),
    ("spread --q 2 --n 6 --k 2 --out s.code --emit-matrix", {
        "stdout":
            "102aa5938a895624bf21a5a67e938643a6fc79e1fbaae471322137ac8305242c",
        "binary_subspace_spread_q2_n6_k2.matrix":
            "82c492016e7549e6c8620ed4614940291ec6b65f87e300f7935350ab455c080f",
        "s.code":
            "78785b7caa7fad31655ef32c29352234ef174c6ae826077234422222635fbcf0",
    }),
    ("greedy --n 9 --d 4 --w 3 --signed --seed 7 --out g.code "
     "--emit-matrix", {
        "stdout":
            "0ccf6df519015729b31dc66a7c3c75ab78403bcbb10d62b62fbf38aef31bded0",
        "g.code":
            "7f3d6402a414dabee100566647efcc7eaf2653fb500006642527dc30a7233a20",
        "signed_seed7_binary_greedy_n9_d4_w3.matrix":
            "f5fbce276a83207ce5132809024070bbdd0f71e3f2ebd126decd0be3442f4dd4",
    }),
    ("devore --p 5 --r 2", {
        "stdout":
            "7b7d64003e935cd499e4178a6106ef1719b3b6613d746b7ab3d547f1a07ecc44",
        "devore_p5_r2.matrix":
            "99affa6851e2601103054927cd21e693e46f18fc72bf6c73f4c71068e9a680e8",
    }),
    ("devore --p 5 --r 3 --emit-matrix d.matrix", {
        "stdout":
            "5e3f94201dd855198f5b9123d8797243dec418980b541649d52ed8c1f4e53419",
        "d.matrix":
            "3654ba6dbd5640e912b8e4470cc182416ed5e1d3e276ef94f376b167db32f21f",
    }),
    ("devore --p 4 --r 2 --emit-matrix --matrix-format dense-csv", {
        "stdout":
            "13fa2e9fbd1a2b61c7c4b0081d6190cef7aa90b24931b77e615e6945bab19b6f",
        "devore_p4_r2.matrix":
            "b73650fc427ad405a8213f9c14efe9ea355edbc0e9bccd091eca7e28df158838",
    }),
    # pinned before a subspace code was certified once, on its nonzero
    # points: the (8, 4, 2) spread used to take the float64 tiles
    ("spread --q 8 --n 4 --k 2 --out s.code --emit-matrix", {
        "stdout":
            "7161bc44e84751d4308e80259bf9ba200ee32f6ee3f448c4b89d7f6ad3b46824",
        "binary_subspace_spread_q8_n4_k2.matrix":
            "9188cf3c7747e64363cc142dd11af363f7610bd6cb7c2b57c0d8f253bb2ced1a",
        "s.code":
            "dac9c4c877efc83419b2f0302be37de3f0bdbca17bed0cfe3263b05480c3cf7b",
    }),
    ("spread --q 4 --n 8 --k 4 --out s.code --emit-matrix s.matrix", {
        "stdout":
            "f80b8ef3225e36541eec2af34a06dc001ca0020ebd1a3b0dc0ff93a2a03fda26",
        "s.code":
            "44475463ecb6cb4c99f69e9287ef640210303ee9fd70a6c2c40c4efb8a471ad4",
        "s.matrix":
            "08217d15c442c8d8eda826c5d7c7d15e05c9ef7632f739af5eb259bc86fa5591",
    }),
]


@pytest.mark.parametrize("argv,digests", CONSTRUCT_DIGESTS)
def test_construct_output_digests_frozen(capsys, tmp_path, monkeypatch, argv,
                                         digests):
    monkeypatch.chdir(tmp_path)
    assert run_cli("construct", *argv.split()) == 0
    written = {"stdout": sha256(capsys.readouterr().out.encode())}
    for path in sorted(tmp_path.iterdir()):
        written[path.name] = sha256(path.read_bytes())
    assert written == digests


def test_construct_usage_errors(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert run_cli("construct", "greedy", "--n", "6") == 2
    assert "needs --d --w" in capsys.readouterr().err
    assert run_cli("construct", "ternary-greedy", "--n", "5", "--d", "3",
                   "--w", "2", "--signed") == 2
    assert run_cli("construct", "devore", "--p", "3", "--r", "2",
                   "--signed") == 2
    # devore has no code to write: --out is refused before the build
    assert run_cli("construct", "devore", "--p", "3", "--r", "2",
                   "--matrix-out", "x.matrix", "--out", "y.code") == 2
    assert capsys.readouterr().out == ""
    assert list(tmp_path.iterdir()) == []
    # and its matrix goes where --matrix-out says, not to the default name
    assert run_cli("construct", "devore", "--p", "3", "--r", "2",
                   "--matrix-out", "x.matrix") == 0
    assert capsys.readouterr().out.splitlines()[1] == "wrote matrix: x.matrix"
    assert [p.name for p in tmp_path.iterdir()] == ["x.matrix"]


def test_construct_budget_exit(capsys):
    for argv in ("affine --q 79", "greedy --n 40 --d 4 --w 10",
                 # C(400000, 200000) has 120,000 digits: the enumeration
                 # count is refused before the binomial is formed
                 "greedy --n 400000 --d 2 --w 200000",
                 "graham-sloane --n 400000 --d 4 --w 200000",
                 "ternary-greedy --n 400000 --d 2 --w 399999"):
        start = time.perf_counter()
        assert run_cli("construct", *argv.split()) == 3, argv
        assert time.perf_counter() - start < 1.0, argv
        assert capsys.readouterr().err.startswith("budget exceeded"), argv


def test_memory_budget_exit(capsys, tmp_path):
    # 2^20 - 1 lines of GF(2)^20: q^n is within the spread cap, the
    # certification array is not
    assert run_cli("construct", "spread", "--q", "2", "--n", "20",
                   "--k", "1") == 3
    assert "budget exceeded" in capsys.readouterr().err
    # a hostile header: 10^8 rows would be a 1.6 GB dense array
    path = tmp_path / "tall.matrix"
    path.write_text("# n 100000000 w 1\n+0\n+1\n")
    assert run_cli("analyze", str(path)) == 3
    assert run_cli("recover", str(path), "--k-max", "1") == 3


def test_signed_words_admitted_at_the_binary_size(capsys, tmp_path):
    # 2 x 10^7 dense float64 is 160 MB, under the cap for either alphabet
    path = tmp_path / "tall.matrix"
    path.write_text("# n 10000000 w 1\n+0\n-1\n")
    assert run_cli("analyze", str(path)) == 0
    assert capsys.readouterr().out.splitlines()[1].startswith("mu = 0,")


@pytest.mark.parametrize("argv", [
    "affine --q 1000000000000000003",
    "spread --q 1000000000000000003 --n 1 --k 1",
    "devore --p 1000000000000000003 --r 2",
    "devore --p 3 --r 100000000",
    "devore --p 997 --r 2",   # a 997^2 x 997 int64 positions array: 7.4 GiB
])
def test_caps_checked_before_factoring(argv):
    # factoring the 19-digit prime or forming 3^(10^8) would run far past
    # the timeout; the size caps must refuse these first
    proc = subprocess.run(
        [sys.executable, "-c", "from cwsense.cli import run; run()",
         "construct", *argv.split()],
        capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stderr.startswith("budget exceeded")


def test_devore_byte_budget_refuses_before_the_build(capsys):
    # the 997^2 x 997 positions array alone would be 7.4 GiB; the refusal
    # allocates next to nothing
    tracemalloc.start()
    try:
        assert run_cli("construct", "devore", "--p", "997", "--r", "2") == 3
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("budget exceeded: building devore(997, 2) needs "
                            "39645273224 bytes, past the cap 268435456\n")


@pytest.mark.parametrize("argv,code,err", [
    # 2^15000 has 4516 digits, past int->str's 4300: counted, not printed
    ("bounds --n 15000 --d 1 --w 15000 --ternary", 3,
     "printing a 15001-bit value needs 4516 digits, past the cap 4300"),
    # one bucket of C(100, 4) supports: refused before any is enumerated
    ("construct graham-sloane --n 100 --d 2 --w 4", 3,
     "certifying the largest of 101^0 buckets of C(100,4) needs 3136980000 "
     "bytes, past the cap 268435456"),
    # w = 3 moments separate every support: one word, whatever d is
    ("construct graham-sloane --n 4 --d 1000000 --w 3", 0, None),
    (f"construct graham-sloane --n 4 --d {2 ** 31} --w 3", 0, None),
    (f"construct graham-sloane --n 16 --d {10 ** 30} --w 8", 0, None),
])
def test_huge_values_end_at_once(argv, code, err, capsys):
    start = time.perf_counter()
    assert run_cli(*argv.split()) == code
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.err == ("" if err is None else f"budget exceeded: {err}\n")
    if code == 0:
        assert captured.out.startswith("summary: construction=graham-sloane")
        assert " N=1 " in captured.out


def test_graham_sloane_buckets_refused_before_enumerating(capsys):
    # about 3.8M supports with their 5-moment keys would hold 680 MB
    start = time.perf_counter()
    assert run_cli("construct", "graham-sloane", "--n", "40", "--d", "12",
                   "--w", "6") == 3
    assert time.perf_counter() - start < 1.0
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: bucketing C(40,6) supports by 5 moments mod 41 "
        "needs 679458796 bytes, past the cap 268435456\n")


def test_dense_csv_write_refused_before_anything_is_written(
        capsys, tmp_path, monkeypatch):
    # devore(37, 3): its build fits the budget, its CSV text and the
    # writer's two byte arrays (6 bytes an entry) do not
    monkeypatch.chdir(tmp_path)
    assert run_cli("construct", "devore", "--p", "37", "--r", "3",
                   "--matrix-format", "dense-csv",
                   "--emit-matrix", "big.csv") == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "budget exceeded: writing a dense 1369 x 50653 matrix as CSV needs "
        "506089006 bytes, past the cap 268435456\n")
    assert list(tmp_path.iterdir()) == []


def test_bounds_print_up_to_the_int_str_limit(capsys):
    # 2^14284 has 4300 digits, as many as int->str gives; 2^14285 has 4301
    argv = "bounds --d 1 --ternary --n {0} --w {0}"
    assert run_cli(*argv.format(14284).split()) == 0
    assert capsys.readouterr().out.endswith(f" >= {2 ** 14284}\n")
    assert run_cli(*argv.format(14285).split()) == 3
    assert capsys.readouterr().err == (
        "budget exceeded: printing a 14286-bit value needs 4301 digits, "
        "past the cap 4300\n")


@pytest.mark.parametrize("argv", [
    "--n 10000000 --d 2000000 --w 1000000",
    "--dims --n 100000000 --k 50 --t 1000000",
    "--ternary --n 300000 --d 100000 --w 100000",
    # one term, but C(n, w) alone takes minutes at w = n/2
    "--n 5000000 --d 2 --w 2500000",
])
def test_bounds_refuse_huge_parameters_at_once(argv):
    # each would run for minutes; the work estimate refuses it before
    # the first binomial coefficient
    script = ("import sys, time; from cwsense.cli import main; "
              "start = time.perf_counter(); rc = main(sys.argv[1:]); "
              "print(time.perf_counter() - start); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", script, "bounds",
                           *argv.split()],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 3
    assert proc.stderr.startswith("budget exceeded")
    assert float(proc.stdout) < 1.0


@pytest.mark.parametrize("text", [
    f"5 2 2\n0 1\n0 {2 ** 63}\n",
    f"5 2 2\n0 1\n0 {2 ** 70}\n",
    "5 2 2\n0 1\n0 -1\n",
    "5 2 2\n+0 +1\n+0 +-1\n",
    f"# n 5 w 2\n+0 +1\n+0 +{2 ** 63}\n",
    f"# n 5 w 2\n+0 +1\n+0 -{2 ** 70}\n",
    "# n 5 w 2\n+0 +1\n+0 +-1\n",
])
def test_out_of_range_positions_are_format_errors(tmp_path, text):
    loader = loads_matrix if text.startswith("#") else loads_code
    with pytest.raises(FormatError):
        loader(text)
    path = tmp_path / "hostile.txt"
    path.write_text(text)
    assert run_cli("analyze", str(path)) == 2


@pytest.mark.parametrize("signed_token, unsigned_token", [
    ("++1", "++1"), ("-+2", "-+2"), ("+-1", "+-1"), ("+", "+"),
    ("+1_0", "1_0"), ("+0x1", "0x1"), (f"+{2 ** 63}", str(2 ** 63)),
    ("1", "+1"),  # the other alphabet's token, after a first good word
    ("+" + "1" * 5000, "1" * 5000),  # past int()'s 4300-digit limit
])
def test_position_grammar_is_one_for_every_file(tmp_path, signed_token,
                                                unsigned_token):
    # each bad token sits on line 3 of a binary and a ternary code file,
    # a support-list matrix and a subspace code file
    files = [(loads_code, f"4 2 2\n0 1\n{unsigned_token} 3\n"),
             (loads_code, f"4 2 2\n+0 -1\n{signed_token} +3\n"),
             (loads_matrix, f"# n 4 w 2\n+0 -1\n{signed_token} +3\n"),
             (loads_subspace_code, f"2 4 2 4\n1 2\n{unsigned_token} 8\n")]
    for loader, text in files:
        with pytest.raises(FormatError, match="^line 3: "):
            loader(text)
        if loader is not loads_subspace_code:
            path = tmp_path / "hostile.txt"
            path.write_text(text)
            assert run_cli("analyze", str(path)) == 2


def test_dense_csv_underscore_entry_exits_2(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("0_1,0\n0,1\n")  # int() reads 0_1 as 1
    assert run_cli("analyze", str(path)) == 2


def test_leading_zeros_are_positions():
    assert dumps_code(loads_code("8 2 2\n007 3\n0 01\n")).endswith(
        "\n3 7\n0 1\n")
    assert loads_matrix("# n 8 w 2\n+007 -03\n").positions.tolist() == [[3, 7]]
    spread = "2 4 2 4\n001 02\n04 0008\n"
    assert dumps_subspace_code(loads_subspace_code(spread)).endswith(
        "\n1 2\n4 8\n")


def test_unknown_construction_is_usage_error(capsys):
    assert run_cli("construct", "bogus") == 2
    assert run_cli() == 2


# -- analyze ---------------------------------------------------------------

def test_analyze_matrix_file(capsys, tmp_path):
    out = tmp_path / "sts.matrix"
    run_cli("construct", "sts", "--n", "7", "--emit-matrix", str(out))
    capsys.readouterr()
    assert run_cli("analyze", str(out)) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "matrix: 7x7 w=3 provenance='binary steiner-skolem n=7'"
    assert lines[1] == "mu = 1/3, bound = 1/3, order k = 4"
    assert lines[2] == "welch = 0 (degenerate: N <= n)"


def test_analyze_nondegenerate_welch_line(capsys, tmp_path):
    out = tmp_path / "sts9.matrix"
    run_cli("construct", "sts", "--n", "9", "--emit-matrix", str(out))
    capsys.readouterr()
    assert run_cli("analyze", str(out)) == 0
    assert ("welch = 0.174078 (alt form 0.666667)"
            in capsys.readouterr().out)


def test_analyze_code_file_and_delta_k(capsys, tmp_path):
    out = tmp_path / "code.txt"
    run_cli("construct", "sts", "--n", "7", "--out", str(out))
    capsys.readouterr()
    assert run_cli("analyze", str(out), "--k", "4") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "code: binary n=7 w=3 d=4 size=7"
    assert "delta_4 = 1" in lines


@pytest.mark.parametrize("argv,mu", [
    ("sts --n 13", "mu = 1/3, bound = 1/3, order k = 4"),
    ("ternary-greedy --n 7 --d 4 --w 3", "mu = 2/3, bound = 2/3, order k = 2"),
])
def test_analyze_code_file_runs_the_kernel_once(capsys, tmp_path,
                                                monkeypatch, argv, mu):
    from cwsense import codes, matrices
    out = tmp_path / "code.txt"
    assert run_cli("construct", *argv.split(), "--out", str(out)) == 0
    capsys.readouterr()
    calls = []
    real = codes.array_maxima

    def counted(n, positions, signs):
        calls.append(n)
        return real(n, positions, signs)
    monkeypatch.setattr(codes, "array_maxima", counted)
    monkeypatch.setattr(matrices, "array_maxima", counted)
    assert run_cli("analyze", str(out)) == 0
    assert capsys.readouterr().out.splitlines()[1] == mu
    assert len(calls) == 1


def test_construct_spread_runs_the_kernel_once(capsys, tmp_path,
                                              monkeypatch):
    # the spread's certificate is its binary code: construct certifies
    # the nonzero points once and the matrix inherits that value
    from cwsense import codes, designs, matrices
    calls = []
    real = codes.array_maxima

    def counted(n, positions, signs):
        calls.append(n)
        return real(n, positions, signs)
    for module in (codes, designs, matrices):  # every name it is bound to
        if hasattr(module, "array_maxima"):
            monkeypatch.setattr(module, "array_maxima", counted)
    assert run_cli("construct", "spread", "--q", "4", "--n", "8", "--k", "4",
                   "--out", str(tmp_path / "s.code"),
                   "--emit-matrix", str(tmp_path / "s.matrix")) == 0
    assert calls == [4 ** 8 - 1]


def test_no_certification_scans_for_repeats(capsys, tmp_path, monkeypatch):
    # repeated_rows only names a repeat the certificate has found; the
    # spread's basis scan calls the name designs binds, not this one
    from cwsense import codes, designs

    def refused(rows):
        raise AssertionError("repeated_rows was called")
    monkeypatch.setattr(codes, "repeated_rows", refused)
    spread = spread_code(2, 4, 2)
    built = [codes.greedy_binary(8, 4, 3), greedy_ternary(6, 3, 2),
             codes.graham_sloane_construct(10, 4, 3),
             make_sts(13), designs.affine_plane_code(4),
             spread.binary, designs.subspace_to_coset_code(spread)]
    assert [code.d for code in built] == [4, 3, 4, 4, 6, 6, 6]
    for code in built[:2]:  # a binary and a ternary code file
        path = tmp_path / "c.code"
        path.write_text(dumps_code(code))
        assert run_cli("analyze", str(path)) == 0
        assert f"d={code.d}" in capsys.readouterr().out


def test_analyze_bound_survives_construct_chain(capsys, tmp_path):
    out = tmp_path / "g.matrix"
    run_cli("construct", "greedy", "--n", "12", "--d", "6", "--w", "4",
            "--emit-matrix", str(out))
    summary = capsys.readouterr().out.splitlines()[0]
    assert "mu_bound=1/4" in summary
    assert run_cli("analyze", str(out)) == 0
    assert "bound = 1/4" in capsys.readouterr().out


def test_analyze_k_below_one_is_refused_before_the_file_is_read(
        capsys, tmp_path, monkeypatch):
    out = tmp_path / "code.txt"
    run_cli("construct", "sts", "--n", "7", "--out", str(out))
    capsys.readouterr()

    def no_read(path):
        raise AssertionError("the file was read before --k was checked")
    monkeypatch.setattr("cwsense.textio.read_text", no_read)
    assert run_cli("analyze", str(out), "--k", "0") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k must be >= 1, got 0\n"


def test_free_n_comments_leave_the_file_kind(capsys, tmp_path):
    # a '# n' comment marks a support list only before signed columns:
    # here it is free text before a code header and a CSV row
    code = tmp_path / "c.code"
    code.write_text("# n is the length\n4 2 2\n0 1\n2 3\n")
    csv = tmp_path / "ncomment.csv"
    csv.write_text("# n rows, 2 columns\n1,0\n0,1\n")
    assert run_cli("analyze", str(code)) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "code: binary n=4 w=2 d=4 size=2")
    assert run_cli("analyze", str(csv)) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "matrix: 2x2 w=1 provenance='dense-csv'")
    assert run_cli("recover", str(csv), "--k-max", "1") == 0
    assert capsys.readouterr().err == ""
    # also above a one-entry row, unless shaped 'n _ w': '-1' is a CSV row
    neg = tmp_path / "neg.csv"
    neg.write_text("# n rows\n-1\n0\n1\n")
    assert run_cli("analyze", str(neg)) == 0
    assert capsys.readouterr().out.splitlines()[0] == (
        "matrix: 3x1 w=2 provenance='dense-csv'")
    assert run_cli("recover", str(neg), "--k-max", "1") == 0
    assert capsys.readouterr().err == ""


def analyze_output(path):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(["analyze", str(path)]) == 0
    return out.getvalue()


FREE_COMMENT_SOURCES = {
    "binary.code": dumps_code(make_sts(7)),
    "ternary.code": dumps_code(greedy_ternary(5, 3, 2)),
    "sts7.csv": dumps_matrix(from_code(make_sts(7)),
                             "dense-csv"),
}


def free_comments():
    """Bodies of '#' lines other than a provenance tag, a third of them
    starting with 'n '."""
    text = st.text(st.characters(min_codepoint=32, max_codepoint=126),
                   max_size=12)
    return st.one_of(text, text, text.map(lambda t: "n " + t)).filter(
        lambda body: not body.strip().startswith("provenance:"))


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(FREE_COMMENT_SOURCES)),
       st.lists(free_comments(), min_size=1, max_size=4), st.data())
def test_free_comments_before_the_data_leave_analyze_unchanged(name, bodies,
                                                               data):
    lines = FREE_COMMENT_SOURCES[name].split("\n")
    first = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(FREE_COMMENT_SOURCES[name])
        expected = analyze_output(path)
        for body in bodies:
            at = data.draw(st.integers(0, first))
            lines.insert(at, "#" + body)
            first += 1
        path.write_text("\n".join(lines))
        assert analyze_output(path) == expected


def test_analyze_garbage_is_format_error(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("hello\nworld\n")
    assert run_cli("analyze", str(bad)) == 2
    assert "error:" in capsys.readouterr().err


def test_analyze_header_only_code_prints_nothing(capsys, tmp_path):
    # a code without words certifies, but no matrix has no columns: the
    # refusal comes before the code line is printed
    path = tmp_path / "e.code"
    path.write_text("5 4 2\n")
    assert run_cli("analyze", str(path)) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: a measurement matrix needs at least one column\n"


def test_analyze_missing_file(capsys, tmp_path):
    assert run_cli("analyze", str(tmp_path / "nope.txt")) == 2


def unreadable_inputs(tmp_path):
    """Files analyze and recover must refuse with exit 2: a lowered, a
    zero-denominator, an exponent and a decimal bound header, support-list
    headers with trailing junk, an unknown or repeated key, keys out of
    order, an integer int() takes but the formats do not, or a second
    '# n' line, a non-ASCII byte, a directory."""
    matrix = tmp_path / "sts9.matrix"
    assert run_cli("construct", "sts", "--n", "9", "--emit-matrix",
                   str(matrix)) == 0
    text = matrix.read_text()
    paths = []
    for name, bound in (("lowered", "1/9"), ("zero", "1/0"),
                        ("exponent", "1e5000"), ("huge", "1e30000000"),
                        ("decimal", "0.5")):
        path = tmp_path / f"{name}.matrix"
        path.write_text(text.replace("bound 1/3", f"bound {bound}"))
        paths.append(path)
    for name, header in (("junk", "n 9 w 3 bound 1/3 junk"),
                         ("unknown", "n 9 w 3 foo 7"),
                         ("repeated", "n 9 w 3 w 3"),
                         ("order", "n 9 bound 1/3 w 3"),
                         ("underscore", "n 9 w 0_3"),
                         ("second", "n 9 w 3 bound 1/3\n# n 12 w 3")):
        path = tmp_path / f"{name}.matrix"
        path.write_text(text.replace("n 9 w 3 bound 1/3", header))
        paths.append(path)
    binary = tmp_path / "binary.matrix"
    binary.write_bytes(text.encode("ascii") + b"\xff\n")
    return paths + [binary, tmp_path]


@pytest.mark.parametrize("command", [["analyze"], ["recover", "--k-max", "1"]])
def test_unreadable_input_is_exit_2(capsys, tmp_path, command):
    inputs = unreadable_inputs(tmp_path)
    capsys.readouterr()
    for path in inputs:
        assert run_cli(command[0], str(path), *command[1:]) == 2, path
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err


# -- bounds ------------------------------------------------------------------

def test_bounds_binary_lines(capsys):
    assert run_cli("bounds", "--n", "10", "--d", "4", "--w", "3") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "gilbert A(10,4,3) >= 6"
    assert lines[1] == "graham-sloane A(10,4,3) >= 11 (q=11)"


def test_bounds_ternary_line(capsys):
    assert run_cli("bounds", "--ternary", "--n", "6", "--d", "3",
                   "--w", "3") == 0
    assert capsys.readouterr().out.splitlines() == [
        "ternary-gilbert A3(6,3,3) >= 7"]


def test_bounds_ternary_admits_the_terms_it_sums(capsys):
    # the sphere stops j at w = 1: 2000 terms, not 500000
    assert run_cli("bounds", "--ternary", "--n", "1000", "--d", "1000",
                   "--w", "1") == 0
    assert capsys.readouterr().out == "ternary-gilbert A3(1000,1000,1) >= 1\n"


def test_bounds_dims_trio(capsys):
    assert run_cli("bounds", "--dims", "--n", "10", "--k", "2",
                   "--t", "2") == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "dimension gilbert N(n=10,k=2,t=2) = 9"
    assert lines[1] == ("dimension moment N(n=10,k=2,t=2) = 21 "
                        "(denominator n^((k-1)t-1))")
    assert lines[2] == ("dimension moment-prime N(n=10,k=2,t=2) = 20 "
                        "(denominator q^((k-1)t-1), q=11)")


def test_bounds_dims_ternary(capsys):
    assert run_cli("bounds", "--dims", "--ternary", "--n", "10", "--k", "2",
                   "--t", "2") == 0
    assert capsys.readouterr().out.splitlines() == [
        "dimension ternary-gilbert N(n=10,k=2,t=2) = 17"]


def test_bounds_usage_errors(capsys):
    assert run_cli("bounds", "--n", "10", "--d", "4") == 2
    assert run_cli("bounds", "--dims", "--n", "10", "--k", "2") == 2
    assert run_cli("bounds", "--n", "10", "--d", "3", "--w", "3") == 2


@pytest.mark.parametrize("argv,message", [
    ("--n 3 --d 4 --w 5", "need 1 <= w <= n, got w=5 n=3"),
    ("--n 5 --d 0 --w 2", "distance must be positive, got 0"),
])
def test_bounds_parameter_errors_name_the_parameter(capsys, argv, message):
    assert run_cli("bounds", *argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


@pytest.mark.parametrize("argv,code,err", [
    # the parameters are checked before any work is estimated
    (f"--n {10 ** 30} --d 3 --w 2", 2,
     "error: binary constant-weight distances are even, got 3"),
    (f"--n {10 ** 30} --d 4 --w 2", 3,
     "budget exceeded: the gilbert bound needs 2^101 or more steps, "
     "past the cap 10000000"),
    ("--dims --n 5 --k 3 --t 2", 2, "error: need n >= k*t, got n=5 k*t=6"),
])
def test_bounds_check_parameters_before_budgets(capsys, argv, code, err):
    assert run_cli("bounds", *argv.split()) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"{err}\n"


# -- recover ------------------------------------------------------------------

def test_recover_zero_coherence(capsys, spread_matrix_file, tmp_path):
    out = tmp_path / "report.csv"
    assert run_cli("recover", str(spread_matrix_file), "--k-max", "3",
                   "--trials", "10", "--out", str(out)) == 0
    printed = capsys.readouterr().out
    assert "k=1: 10/10 exact (guaranteed)" in printed
    assert "k=3: 10/10 exact (guaranteed)" in printed
    header = out.read_text().splitlines()[0]
    assert header == "matrix_id,k,trials,successes,max_value_error,seconds"


def test_recover_reports_beyond_guarantee_ungated(capsys, tmp_path):
    out = tmp_path / "sts9.matrix"
    run_cli("construct", "sts", "--n", "9", "--emit-matrix", str(out))
    capsys.readouterr()
    assert run_cli("recover", str(out), "--k-max", "2", "--trials", "5") == 0
    printed = capsys.readouterr().out
    assert "k=1: 5/5 exact (guaranteed)" in printed
    assert "(beyond guarantee)" in printed


def test_recover_refuses_large_k_before_any_trial(capsys, tmp_path,
                                                  monkeypatch):
    out = tmp_path / "sts9.matrix"
    run_cli("construct", "sts", "--n", "9", "--emit-matrix", str(out))
    capsys.readouterr()

    def no_trials(*args):
        raise AssertionError("a trial ran before k=10 was refused")

    monkeypatch.setattr("cwsense.recovery._omp_rows", no_trials)
    assert run_cli("recover", str(out), "--k-max", "60") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k=10 exceeds min(n, N) = 9\n"


def test_recover_refuses_large_k_before_certifying(capsys, tmp_path,
                                                   monkeypatch):
    # a dense CSV carries no coherence, and only the status lines after
    # the report read mu: a k past min(n, N) is refused before the scan
    from cwsense import matrices
    out = tmp_path / "sts9.csv"
    run_cli("construct", "sts", "--n", "9", "--matrix-format", "dense-csv",
            "--emit-matrix", str(out))
    capsys.readouterr()
    calls = []
    real = matrices.array_maxima

    def counted(n, positions, signs):
        calls.append(n)
        return real(n, positions, signs)
    monkeypatch.setattr(matrices, "array_maxima", counted)
    assert run_cli("recover", str(out), "--k-max", "10") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k=10 exceeds min(n, N) = 9\n"
    assert calls == []


def test_recover_refuses_a_huge_k_range_without_holding_it(capsys, tmp_path):
    # the range is read up to its first bad k, never copied: a list of
    # its 10^6 levels traced about 38 MB
    out = tmp_path / "sts9.matrix"
    run_cli("construct", "sts", "--n", "9", "--emit-matrix", str(out))
    capsys.readouterr()
    tracemalloc.start()
    try:
        assert run_cli("recover", str(out), "--k-max", str(10 ** 6)) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 << 20
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: k=10 exceeds min(n, N) = 9\n"


def test_recover_refuses_2_to_the_32_trials_at_once(tmp_path):
    # a trial index must fit one 32-bit word of its stream's entropy;
    # without the check this count runs until killed
    out = tmp_path / "s.matrix"
    assert run_cli("construct", "sts", "--n", "9", "--emit-matrix",
                   str(out)) == 0
    script = ("import sys, time; from cwsense.cli import main; "
              "start = time.perf_counter(); rc = main(sys.argv[1:]); "
              "print(time.perf_counter() - start); sys.exit(rc)")
    proc = subprocess.run([sys.executable, "-c", script, "recover", str(out),
                           "--k-max", "2", "--trials",
                           "99999999999999999999"],
                          capture_output=True, text=True, timeout=10)
    assert proc.returncode == 2
    assert proc.stderr.startswith("error: ")
    assert float(proc.stdout) < 1.0


def test_recover_guarantee_violation_exit(capsys, spread_matrix_file,
                                          monkeypatch):
    fake = [RecoveryReport(matrix_id="m", k=1, trials=100, successes=97,
                           max_support_err=2, max_value_err=1.0,
                           max_residual=1.0, seconds=0.0)]
    monkeypatch.setattr("cwsense.recovery.run_experiment",
                        lambda *a, **kw: fake)
    assert run_cli("recover", str(spread_matrix_file), "--k-max", "1") == 4
    captured = capsys.readouterr()
    assert "k=1: 97/100 exact (guaranteed)" in captured.out
    assert "guarantee violated" in captured.err


def test_recover_k_zero_note_on_stderr(capsys, spread_matrix_file):
    args = ("--k-max", "1", "--trials", "3")
    assert run_cli("recover", str(spread_matrix_file), *args) == 0
    plain = capsys.readouterr()
    assert "skipping k = 0" not in plain.err
    assert run_cli("recover", str(spread_matrix_file), "--k-min", "0",
                   *args) == 0
    noted = capsys.readouterr()
    assert noted.err.count("info: skipping k = 0: nothing to recover") == 1

    def rows(out):  # the CSV and summary lines minus the seconds column
        return [line.rsplit(",", 1)[0] for line in out.splitlines()]
    assert rows(noted.out) == rows(plain.out)


def test_recover_empty_k_range_is_usage_error(capsys, spread_matrix_file,
                                              monkeypatch):
    assert run_cli("recover", str(spread_matrix_file), "--k-min", "0",
                   "--k-max", "0") == 0   # k = 0 alone: the skip note
    captured = capsys.readouterr()
    assert captured.out == CSV_HEADER + "\n"
    assert "info: skipping k = 0" in captured.err

    def no_trials(*args, **kwargs):
        raise AssertionError("an empty k range reached the trials")
    monkeypatch.setattr("cwsense.recovery.run_experiment", no_trials)
    assert run_cli("recover", str(spread_matrix_file), "--k-min", "3",
                   "--k-max", "2") == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: empty k range 3..2\n"


def opening_error(path):
    """The message the CLI prints when open(path, "w") fails."""
    with pytest.raises(OSError) as failed:
        open(path, "w")
    return f"error: {failed.value}\n"


@pytest.mark.parametrize("outputs,bad", [
    ("--out missing/g.code", "missing/g.code"),
    ("--out somedir", "somedir"),
    ("--out kept.code --matrix-out missing/g.matrix", "missing/g.matrix"),
    ("--emit-matrix missing/g.matrix", "missing/g.matrix"),
    ("--emit-matrix somedir", "somedir"),
    ("--out kept.code/x.code", "kept.code/x.code"),          # ENOTDIR
    ("--out kept.code/sub/x.code", "kept.code/sub/x.code"),  # ENOTDIR
])
def test_unwritable_construct_output_fails_before_the_build(
        capsys, tmp_path, monkeypatch, outputs, bad):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "somedir").mkdir()
    (tmp_path / "kept.code").write_text("kept")

    def no_build(*args):
        raise AssertionError("the code was built before its output failed")
    monkeypatch.setitem(cli.CONSTRUCTIONS, "greedy",
                        (("n", "d", "w"), no_build))
    assert run_cli("construct", "greedy", "--n", "30", "--d", "4", "--w",
                   "4", *outputs.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == opening_error(bad)
    # nothing created or truncated
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.code",
                                                          "somedir"]
    assert (tmp_path / "kept.code").read_text() == "kept"
    assert not any((tmp_path / "somedir").iterdir())


@pytest.mark.parametrize("out", ["missing/r.csv", "somedir",
                                 "kept.code/r.csv"])
def test_unwritable_recover_output_fails_before_any_trial(
        capsys, tmp_path, monkeypatch, spread_matrix_file, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "somedir").mkdir()
    (tmp_path / "kept.code").write_text("kept")

    def no_trials(*args, **kwargs):
        raise AssertionError("a trial ran before the report path failed")
    monkeypatch.setattr("cwsense.recovery.run_experiment", no_trials)
    assert run_cli("recover", str(spread_matrix_file), "--k-max", "2",
                   "--out", out) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == opening_error(out)
    assert not (tmp_path / "missing").exists()
    assert (tmp_path / "kept.code").read_text() == "kept"


@pytest.mark.parametrize("argv,derived", [
    ("devore --p 5 --r 2", "devore_p5_r2.matrix"),
    ("sts --n 9 --out c.code --emit-matrix", "binary_steiner-bose_n9.matrix"),
])
def test_derived_matrix_name_is_checked_before_any_output(
        capsys, tmp_path, monkeypatch, argv, derived):
    monkeypatch.chdir(tmp_path)
    (tmp_path / derived).mkdir()
    assert run_cli("construct", *argv.split()) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == opening_error(derived)
    assert [p.name for p in tmp_path.iterdir()] == [derived]
    assert not any((tmp_path / derived).iterdir())


def test_recover_csv_stdout_when_no_out(capsys, spread_matrix_file):
    assert run_cli("recover", str(spread_matrix_file), "--k-max", "1",
                   "--trials", "5") == 0
    out = capsys.readouterr().out
    assert out.startswith("matrix_id,k,trials,successes")


# -- README tour ------------------------------------------------------------------

def readme_tour():
    """(argv, printed lines) of every '$ cwsense ...' line in README.md's
    code blocks, in order; the lines are the block's non-blank lines up
    to the next command."""
    steps, in_block, printed = [], False, None
    readme = Path(__file__).parents[1] / "README.md"
    for line in readme.read_text(encoding="utf-8").splitlines():
        if line.startswith("```"):
            in_block, printed = not in_block, None
        elif in_block and line.startswith("$ cwsense "):
            printed = []
            steps.append((line.split()[2:], printed))
        elif printed is not None and line.strip():
            printed.append(line)
    return steps


def test_readme_tour_matches_the_program(capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    steps = readme_tour()
    assert [argv[0] for argv, _ in steps] == [
        "construct", "analyze", "bounds", "bounds", "recover"]
    for argv, expected in steps:
        assert run_cli(*argv) == 0, argv
        printed = capsys.readouterr().out.splitlines()
        if argv[0] == "recover":  # the wall-clock seconds column varies
            printed, expected = ([line.rsplit(",", 1)[0] for line in lines]
                                 for lines in (printed, expected))
        assert printed == expected, argv


# -- console entry point --------------------------------------------------------

def test_installed_script_runs():
    proc = subprocess.run(
        [sys.executable, "-c",
         "from cwsense.cli import run; run()"],
        input="", capture_output=True, text=True)
    assert proc.returncode == 2  # no subcommand is a usage error


def test_main_reuses_one_parser(capsys, tmp_path, monkeypatch):
    """Consecutive main calls with different subcommands, options left
    out after a call that gave them, and usage errors print what a
    fresh parser per call prints."""
    monkeypatch.chdir(tmp_path)
    argvs = [
        ["construct", "sts", "--n", "9", "--out", "s.code",
         "--emit-matrix", "s.matrix"],
        ["analyze", "s.code", "--k", "2"],
        ["analyze", "s.code"],
        ["bounds", "--n", "12", "--d", "4", "--w", "4"],
        ["recover", "s.matrix", "--k-max", "2", "--trials", "5",
         "--values", "gaussian", "--seed", "4"],
        ["recover", "s.matrix", "--k-max", "2"],
        ["bounds", "--bogus"],
        ["recover", "s.matrix"],
        ["construct", "sts", "--n", "9"],
    ]

    def outputs():
        seen = []
        for argv in argvs:
            rc = cli.main(argv)
            out, err = capsys.readouterr()
            # the recover CSV's seconds column is wall time
            seen.append((rc, re.sub(r",[0-9.]+$", "", out, flags=re.M), err))
        return seen

    shared = outputs()
    assert cli._parser() is cli._parser()
    monkeypatch.setattr(cli, "_parser", cli.build_parser)
    assert outputs() == shared
    assert [rc for rc, _, _ in shared] == [0, 0, 0, 0, 0, 0, 2, 2, 0]
