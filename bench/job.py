"""One benchmark job: a chain of cwsense CLI commands in a fresh interpreter.

    python bench/job.py SPEC.json RESULT.json

SPEC holds {"steps": [argv, ...], "trace": bool}.  Each argv goes to
cwsense.cli.main in this process, with stdout and stderr captured, so
caches such as make_field's start cold exactly as for a CLI user.  The
import of cwsense.cli is timed, and the chain is timed from just after
it to the end of its last command; a job with no steps is one set-up
sample.  Fixed probe work (pure Python, then small numpy calls) is timed
just before and just after the chain, so the caller can scale both
times to one host speed.
RESULT receives these times, the per-step exit codes, output and
seconds, the process's peak RSS and, when traced, the aggregated spans.
"""

from __future__ import annotations

import contextlib
import ctypes
import glob
import io
import json
import os
import resource
import sys
import time
import traceback


def blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy bundles, if it can be asked."""
    import numpy as np
    libs = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    for path in glob.glob(os.path.join(libs, "libscipy_openblas*")):
        lib = ctypes.CDLL(path)
        for name in ("scipy_openblas_get_num_threads64_",
                     "scipy_openblas_get_num_threads"):
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def probe_s() -> tuple[float, float]:
    """Seconds this process takes for fixed pure-Python work and for fixed
    small numpy calls (lstsq, matvec), the kinds of work the chains do."""
    import numpy as np
    start = time.perf_counter()
    acc = 0
    for i in range(400_000):
        acc = (acc + i * i) % 1_000_003
    mid = time.perf_counter()
    a = np.linspace(-1.0, 1.0, 49 * 343).reshape(49, 343)
    for j in range(1200):
        np.linalg.lstsq(a[:, j % 300:j % 300 + 4], a[:, 340], rcond=None)
        int(np.argmax(np.abs(a.T @ a[:, j % 343])))
    return mid - start, time.perf_counter() - mid


def run_step(cli, argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(argv)
    except SystemExit as exc:
        rc = exc.code if isinstance(exc.code, int) else 1
    except Exception:  # an uncaught traceback is exit 1 for a CLI user
        rc = 1
        err.write(traceback.format_exc())
    return {"argv": argv, "rc": rc, "seconds": time.perf_counter() - start,
            "stdout": out.getvalue(), "stderr": err.getvalue()}


def main() -> int:
    spec_path, result_path = sys.argv[1:3]
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    start = time.perf_counter()
    from cwsense import cli
    import_s = time.perf_counter() - start
    probe_before = probe_s()
    rec = None
    if spec["trace"]:
        import spans
        rec = spans.Recorder()
        spans.install(rec)
    start = time.perf_counter()
    steps = [run_step(cli, argv) for argv in spec["steps"]]
    chain_s = time.perf_counter() - start
    result = {
        "import_s": import_s,
        "chain_s": chain_s,
        "probe_s": [(x + y) / 2 for x, y in zip(probe_before, probe_s())],
        "steps": steps,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "blas_threads": blas_threads(),
        "spans": rec.spans if rec else None,
        "counts": dict(rec.counts) if rec else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
