"""Command line interface.

Subcommands:

* construct: build a code (and optionally its measurement matrix) from
  one of the named deterministic constructions; devore builds the
  matrix alone and always writes it.
* analyze: certify a code or matrix file: its exact coherence mu
  with the attached bound, and the sparsity order, Welch bound and
  delta_k formed from mu, n and N.
* bounds: print size bounds or dimension calculator values, each the
  ceiling its counting argument gives (the moment dimension a floor).
* recover: run the seeded OMP experiment against a matrix file.

Exit codes: 0 success, 2 usage, file-format or unreadable-file error,
3 a stage's work or bytes estimate past its budget (errors.admit), 4
recovery guarantee violated.
Every randomized path takes --seed (default 0); no command ever draws
entropy from the system, so identical invocations write identical
files, with the single exception of the wall-clock seconds column in
recovery CSVs.  Notes and warnings of the cwsense loggers (INFO and up)
go to stderr.
"""

from __future__ import annotations

import argparse
import errno
import functools
import logging
import math
import os
import sys

from . import codes, designs, matrices, recovery, textio
from .errors import BudgetError, FormatError, ParameterError, admit


def _require(args: argparse.Namespace, names, what: str) -> None:
    missing = [f"--{n}" for n in names if getattr(args, n) is None]
    if missing:
        raise ParameterError(f"{what} needs {' '.join(missing)}")


def _check_outputs(*paths) -> None:
    """Fail as opening each path for writing would, touching no file: it
    is a directory, or its parent does not look up as one (ENOENT, ENOTDIR)."""
    for path in filter(None, paths):
        if os.path.isdir(path):
            raise OSError(errno.EISDIR, os.strerror(errno.EISDIR), path)
        try:  # the trailing '/' makes a parent that is a file ENOTDIR
            os.stat(os.path.join(os.path.dirname(path) or ".", ""))
        except OSError as exc:
            raise OSError(exc.errno, exc.strerror, path) from None


# name -> (required options, builder called with their values); the
# builder returns a CWCode, or for devore its MeasurementMatrix directly
CONSTRUCTIONS = {
    "greedy": (("n", "d", "w"), codes.greedy_binary),
    "ternary-greedy": (("n", "d", "w"), codes.greedy_ternary),
    "graham-sloane": (("n", "d", "w"), codes.graham_sloane_construct),
    "sts": (("n",), designs.make_sts),
    "affine": (("q",), designs.affine_plane_code),
    "spread": (("q", "n", "k"),
               lambda q, n, k: designs.spread_code(q, n, k).binary),
    "devore": (("p", "r"), matrices.devore),
}


def cmd_construct(args: argparse.Namespace) -> int:
    name = args.construction
    options, build = CONSTRUCTIONS[name]
    _require(args, options, f"construction {name!r}")
    if name == "devore" and (args.out or args.signed):
        raise ParameterError("devore builds a matrix, not a code: "
                             "--out and --signed do not apply")
    _check_outputs(args.out, args.emit_matrix)
    built = build(*(getattr(args, o) for o in options))
    if isinstance(built, codes.CWCode):
        code, d = built, built.d
        matrix = matrices.from_code(code,
                                    seed=args.seed if args.signed else None)
    else:  # matrix-only: d = 2w (1 - bound), for devore 2(p - min(r-1, p))
        code, matrix = None, built
        d = int(2 * matrix.w * (1 - matrix.bound))
    path = args.emit_matrix  # "", or None for devore: the derived name
    if path == "" or code is None and path is None:
        path = matrix.provenance.replace(" ", "_").replace("=", "") + ".matrix"
        _check_outputs(path)
    if path is not None and args.matrix_format == "dense-csv":
        matrices.admit_dense_csv(matrix)  # before anything is written
    print(f"summary: construction={name} n={matrix.n} N={matrix.N} "
          f"w={matrix.w} d={d} mu_bound={matrix.bound}")
    if args.out:
        codes.save_code(code, args.out)
        print(f"wrote code: {args.out}")
    if path is not None:
        matrices.save_matrix(matrix, path, fmt=args.matrix_format)
        print(f"wrote matrix: {path}")
    return 0


def _coherence_lines(matrix: matrices.MeasurementMatrix,
                     k: int | None) -> list[str]:
    """The certified mu with its bound and sparsity order floor(1/mu) + 1
    (n when mu = 0), the Welch bound sqrt((N - n)/(n (N - 1))) of an
    n x N unit-norm frame with the variant sqrt(N/(n (N - n))) some
    references print (both 0 when N <= n), and delta_k = (k - 1) mu."""
    mu, n, N = matrices.coherence(matrix), matrix.n, matrix.N
    bound = "n/a" if matrix.bound is None else matrix.bound
    order = n if mu == 0 else math.floor(1 / mu) + 1
    lines = [f"mu = {mu}, bound = {bound}, order k = {order}"]
    if N <= n:
        lines.append("welch = 0 (degenerate: N <= n)")
    else:
        lines.append(f"welch = {math.sqrt((N - n) / (n * (N - 1))):.6f} "
                     f"(alt form {math.sqrt(N / (n * (N - n))):.6f})")
    if k is not None:
        lines.append(f"delta_{k} = {(k - 1) * mu}")
    return lines


def cmd_analyze(args: argparse.Namespace) -> int:
    if args.k is not None and args.k < 1:
        raise ParameterError(f"k must be >= 1, got {args.k}")
    provenance, comments, data = textio.read_lines(textio.read_text(args.file))
    if textio.matrix_format(comments, data) is not None:
        matrix = matrices.matrix_from_lines(provenance, comments, data)
        print(f"matrix: {matrix.n}x{matrix.N} w={matrix.w} "
              f"provenance={matrix.provenance!r}")
    else:
        code = codes.code_from_lines(provenance, data)
        matrix = matrices.from_code(code)  # refuses a code without words
        print(f"code: {'ternary' if code.signed else 'binary'} n={code.n} "
              f"w={code.w} d={code.d} size={len(code)}")
    print("\n".join(_coherence_lines(matrix, args.k)))
    return 0


def cmd_bounds(args: argparse.Namespace) -> int:
    n, d, w, k, t = args.n, args.d, args.w, args.k, args.t
    if args.dims:
        _require(args, ("n", "k", "t"), "bounds --dims")
        d, w = codes.dimension_params(n, k, t)
        at = f"N(n={n},k={k},t={t}) ="
        if args.ternary:
            rows = [(f"dimension ternary-gilbert {at}",
                     codes.ternary_gilbert_bound(n, d, w), "")]
        else:
            rows = [(f"dimension gilbert {at}",
                     codes.gilbert_bound(n, d, w), ""),
                    (f"dimension moment {at}", codes.moment_dimension(
                        n, d, w), " (denominator n^((k-1)t-1))"),
                    (f"dimension moment-prime {at}",
                     codes.graham_sloane_bound(n, d, w),
                     f" (denominator q^((k-1)t-1), "
                     f"q={codes.smallest_prime_at_least(n)})")]
    else:
        _require(args, ("n", "d", "w"), "bounds")
        if args.ternary:
            rows = [(f"ternary-gilbert A3({n},{d},{w}) >=",
                     codes.ternary_gilbert_bound(n, d, w), "")]
        else:
            rows = [(f"gilbert A({n},{d},{w}) >=",
                     codes.gilbert_bound(n, d, w), ""),
                    (f"graham-sloane A({n},{d},{w}) >=",
                     codes.graham_sloane_bound(n, d, w),
                     f" (q={codes.smallest_prime_at_least(n)})")]
    limit = sys.get_int_max_str_digits() or float("inf")
    for _, value, _ in rows:  # at most limit digits below 10^limit
        digits = value.bit_length() * 30103 // 100000 + 1  # >= log10 + 1
        admit(f"printing a {value.bit_length()}-bit value", digits if value
              >= 10 ** limit else min(digits, limit), "digits", limit)
    for head, value, tail in rows:
        print(f"{head} {value}{tail}")
    return 0


def cmd_recover(args: argparse.Namespace) -> int:
    if args.k_min > args.k_max:
        raise ParameterError(f"empty k range {args.k_min}..{args.k_max}")
    _check_outputs(args.out)
    matrix = matrices.load_matrix(args.file)
    mu = matrices.coherence(matrix)
    ks = range(args.k_min, args.k_max + 1)
    results = recovery.run_experiment(matrix, ks, trials=args.trials,
                                      model=args.values, seed=args.seed)
    csv_text = recovery.reports_to_csv(results)
    if args.out:
        textio.write_text(args.out, csv_text)
        print(f"wrote report: {args.out}")
    else:
        sys.stdout.write(csv_text)
    failed_guarantee = False
    for rep in results:
        guaranteed = (2 * rep.k - 1) * mu < 1
        status = "guaranteed" if guaranteed else "beyond guarantee"
        print(f"k={rep.k}: {rep.successes}/{rep.trials} exact ({status})")
        if guaranteed and rep.successes < rep.trials:
            failed_guarantee = True
    if failed_guarantee:
        print("guarantee violated: an exact-recovery trial failed inside "
              "the (2k-1) mu < 1 regime", file=sys.stderr)
        return 4
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cwsense",
        description="Deterministic compressed-sensing matrices from "
                    "constant-weight codes.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_con = sub.add_parser("construct", help="build a code or matrix")
    p_con.add_argument("construction", choices=CONSTRUCTIONS)
    for name in "ndwqkpr":
        p_con.add_argument(f"--{name}", type=int)
    p_con.add_argument("--out", help="write the code file here")
    p_con.add_argument("--emit-matrix", "--matrix-out", nargs="?", const="",
                       metavar="PATH",
                       help="also write the measurement matrix (default "
                            "path derived from the provenance)")
    p_con.add_argument("--matrix-format", choices=textio.FORMATS,
                       default="support-list")
    p_con.add_argument("--signed", action="store_true",
                       help="randomize column signs (binary codes)")
    p_con.add_argument("--seed", type=int, default=0)
    p_con.set_defaults(func=cmd_construct)

    p_an = sub.add_parser("analyze", help="certify a code or matrix file")
    p_an.add_argument("file")
    p_an.add_argument("--k", type=int, default=None,
                      help="report delta_k = (k-1) mu as well")
    p_an.set_defaults(func=cmd_analyze)

    p_bo = sub.add_parser("bounds", help="size bounds and dimension values")
    for name in "ndwkt":
        p_bo.add_argument(f"--{name}", type=int)
    p_bo.add_argument("--ternary", action="store_true")
    p_bo.add_argument("--dims", action="store_true",
                      help="dimension calculators instead of size bounds")
    p_bo.set_defaults(func=cmd_bounds)

    p_re = sub.add_parser("recover", help="seeded OMP recovery experiment")
    p_re.add_argument("file", help="matrix file (either text format)")
    p_re.add_argument("--k-min", type=int, default=1)
    p_re.add_argument("--k-max", type=int, required=True)
    p_re.add_argument("--trials", type=int, default=100)
    p_re.add_argument("--values", choices=recovery.VALUE_MODELS,
                      default="rademacher")
    p_re.add_argument("--seed", type=int, default=0)
    p_re.add_argument("--out", help="write the CSV report here")
    p_re.set_defaults(func=cmd_recover)
    return parser


class _StderrHandler(logging.Handler):
    """Writes each record to sys.stderr as it is at emit time, so callers
    that swap stderr (contextlib.redirect_stderr, test capture) see it."""

    def emit(self, record: logging.LogRecord) -> None:
        try:
            print(f"{record.levelname.lower()}: {record.getMessage()}",
                  file=sys.stderr)
        except Exception:
            self.handleError(record)


def _install_logging() -> None:
    log = logging.getLogger("cwsense")
    log.setLevel(logging.INFO)
    if not any(isinstance(h, _StderrHandler) for h in log.handlers):
        log.addHandler(_StderrHandler())


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser main uses in this process: parse_args keeps no
    state between calls, and building it costs about a millisecond."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    _install_logging()
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.func(args)
    except (ParameterError, FormatError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 3


def run() -> None:
    raise SystemExit(main())
