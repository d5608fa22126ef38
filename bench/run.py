"""cwsense benchmark: timed, checked construct -> analyze -> recover chains.

    python3 bench/run.py --workload {spread,gram,omp} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a cwsense checkout; it imports the program from
./src and writes only under ./.bench_work (scratch, removed at the end)
and ./.bench_out (the full report).  Each job is one workload chain in a
fresh interpreter (bench/job.py); jobs run one at a time until --seconds
have passed.  Every step's output is checked (bench/workloads.py).

--trace 0 reports the end-to-end metrics: chain_s (median job chain
time), setup_s (median time for a fresh interpreter to import
cwsense.cli), both in reference-speed seconds (see PROBE_NOMINAL_S),
and peak_rss_mb (median peak RSS of a job).  --trace 1
alternates untraced and traced jobs and reports per-layer metrics from
the spans of bench/spans.py, plus the tracing overhead.  The last line
of stdout is one JSON object: correct, attempted and failed CLI steps,
and the metrics.  See bench/README.md for the workloads and the
layer -> metric -> workload map.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

IMPORT_REPS = 7          # fewest fresh-interpreter imports behind setup_s
RUN_LIMIT_S = 170        # a run must end before this, whatever --seconds
# The host's speed drifts by 20-50% in phases of seconds to minutes, so
# chain_s and setup_s are scaled to the speed at which job.py's probe
# (fixed Python and numpy work, timed in the same process just before
# and after the chain) takes this long.
PROBE_NOMINAL_S = 0.1

END_TO_END = {"chain_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

# Per-layer metrics emitted with --trace 1: name -> unit.  Times that are
# exactly 0 on a workload which never calls the function (designs on
# omp, field on gram, ...) appear in the report and the printed table
# only; the layer's work counts and self-time share cover it here.
PER_LAYER = {
    "cli.construct_s": "s", "cli.analyze_s": "s", "cli.recover_s": "s",
    "cli.self_share": "ratio",
    "field.ops": "count", "field.self_share": "ratio",
    "designs.rank_checks": "count", "designs.self_share": "ratio",
    "codes.pairs_scanned": "count", "codes.io_bytes": "bytes",
    "codes.self_share": "ratio",
    "matrices.coherence_s": "s", "matrices.load_matrix_s": "s",
    "matrices.save_matrix_s": "s", "matrices.coherence_calls": "count",
    "matrices.io_bytes": "bytes", "matrices.gram_bytes": "bytes",
    "matrices.self_share": "ratio",
    "recovery.run_experiment_s": "s", "recovery.omp_s": "s",
    "recovery.measure_s": "s", "recovery.gen_sparse_s": "s",
    "recovery.trials": "count", "recovery.lstsq_calls": "count",
    "recovery.trials_per_s": "1/s", "recovery.success_ratio": "ratio",
    "recovery.success_ratio_rademacher": "ratio",
    "recovery.self_share": "ratio",
    "numpy.lstsq_s": "s", "numpy.self_share": "ratio",
    "cli.import_s": "s", "field.import_s": "s", "designs.import_s": "s",
    "codes.import_s": "s", "matrices.import_s": "s",
    "recovery.import_s": "s", "numpy.import_s": "s",
    "trace.chain_s": "s", "trace.untraced_chain_s": "s",
    "trace.overhead_s": "s",
}

# Report-only per-layer times (see above), span group -> metric name.
REPORT_TIMES = {
    "designs.spread_code": "designs.spread_code_s",
    "designs.certify_subspace_code": "designs.certify_subspace_code_s",
    "designs.subspace_to_code": "designs.subspace_to_code_s",
    "designs.make_sts": "designs.make_sts_s",
    "codes.certify_binary": "codes.certify_binary_s",
    "codes.certify_ternary": "codes.certify_ternary_s",
    "codes.load": "codes.loads_code_s",
    "codes.save_code": "codes.save_code_s",
    "matrices.devore": "matrices.devore_s",
    "matrices.from_code": "matrices.from_code_s",
    "field.ops": "field.busy_s",
}


# -- child processes -------------------------------------------------------

def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def parse_importtime(stderr: str) -> dict[str, float]:
    """Seconds per module from `python -X importtime`: self time for the
    cwsense modules, cumulative time for numpy."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = [p.strip() for p in line[len("import time:"):].split("|")]
        if len(parts) != 3 or not parts[0].isdigit():
            continue
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2]
        if name.startswith("cwsense."):
            out[name.split(".", 1)[1]] = self_us / 1e6
        elif name == "numpy":
            out["numpy"] = cum_us / 1e6
    return out


def run_job(steps: list, work: Path, env: dict, name: str, traced: bool,
            timeout: float, flags=()) -> tuple[Path, dict | None, str]:
    """Run bench/job.py on these argv steps in a new directory under work;
    return (that directory, the job's result or None, an error)."""
    job_dir = work / name
    job_dir.mkdir()
    spec, result = work / f"{name}.spec.json", work / f"{name}.json"
    spec.write_text(json.dumps({"steps": steps, "trace": traced}))
    wall = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, *flags, str(BENCH / "job.py"),
                               str(spec), str(result)],
                              cwd=job_dir, env=env, capture_output=True,
                              text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return job_dir, None, f"job timed out after {timeout:.0f} s"
    if proc.returncode != 0 or not result.is_file():
        return job_dir, None, (f"job exited {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
    data = json.loads(result.read_text())
    data["wall_s"] = time.perf_counter() - wall
    data["traced"] = traced
    data["imports"] = parse_importtime(proc.stderr)
    return job_dir, data, ""


def import_sample(work: Path, env: dict, index: int, importtime: bool):
    """A job with no steps: one fresh `import cwsense.cli`, timed."""
    job_dir, data, error = run_job(
        [], work, env, f"setup{index}", False, 60,
        ("-X", "importtime") if importtime else ())
    shutil.rmtree(job_dir)
    if data is None:
        raise RuntimeError(f"set-up import failed: {error}")
    return data


def scaled(job: dict, key: str) -> float:
    """job[key] in reference-speed seconds: the seconds it would take on a
    host where the probe takes PROBE_NOMINAL_S."""
    return job[key] * PROBE_NOMINAL_S / sum(job["probe_s"])


# -- metrics ---------------------------------------------------------------

def tail(values) -> str:
    """The highest percentile with at least ten samples beyond it."""
    n = len(values)
    if n < 11:
        return f"n/a (needs >= 11 jobs, have {n})"
    pct = math.floor(100 * (n - 10) / n)
    return f"p{pct} = {sorted(values)[n - 11]:.4f}"


def step_seconds(job: dict, steps, kind: str) -> float:
    return sum(r["seconds"] for s, r in zip(steps, job["steps"])
               if s.kind == kind)


def group_s(spans_: dict, group: str) -> float:
    return sum(v[3] for name, v in spans_.items()
               if spans.GROUPS.get(name, name) == group)


def layer_values(job: dict) -> tuple[dict, dict]:
    """(times, counts) of one traced job, by metric name."""
    sp, counts = job["spans"], job["counts"]
    chain = job["chain_s"]
    times = {}
    for module in spans.MODULES + ("numpy",):
        own = sum(v[2] for name, v in sp.items()
                  if name.startswith(module + "."))
        times[f"{module}.self_share"] = own / chain
    for name in ("matrices.coherence", "recovery.run_experiment",
                 "recovery.omp", "recovery.measure", "recovery.gen_sparse"):
        times[name + "_s"] = group_s(sp, name)
    times["matrices.load_matrix_s"] = group_s(sp, "matrices.load")
    times["matrices.save_matrix_s"] = group_s(sp, "matrices.save_matrix")
    times["numpy.lstsq_s"] = group_s(sp, "numpy.lstsq")
    for group, metric in REPORT_TIMES.items():
        times[metric] = group_s(sp, group)
    trials = counts.get("recovery.trials", 0)
    times["recovery.trials_per_s"] = (
        trials / times["recovery.run_experiment_s"] if trials else 0.0)
    exact = {
        "field.ops": sum(v[0] for name, v in sp.items()
                         if spans.GROUPS.get(name) == "field.ops"),
        "recovery.lstsq_calls": sp["numpy.lstsq"][0],
    }
    for name in ("designs.rank_checks", "codes.pairs_scanned",
                 "codes.io_bytes", "matrices.coherence_calls",
                 "matrices.io_bytes", "matrices.gram_bytes",
                 "recovery.trials"):
        exact[name] = counts.get(name, 0)
    successes = sum(v for k, v in counts.items()
                    if k.startswith("recovery.successes."))
    exact["recovery.success_ratio"] = successes / trials if trials else 0.0
    for model in ("rademacher", "gaussian"):
        n = counts.get(f"recovery.trials.{model}", 0)
        if n:
            exact[f"recovery.success_ratio_{model}"] = (
                counts[f"recovery.successes.{model}"] / n)
    return times, exact


def per_layer(wl, traced: list, untraced: list, imports: list) -> tuple[dict, list]:
    """Median per-layer metrics and a list of problems (counts that did
    not repeat exactly across traced jobs)."""
    problems = []
    values = [layer_values(job) for job in traced]
    metrics = {k: median([v[0][k] for v in values]) for k in values[0][0]}
    exact = values[0][1]
    for _, other in values[1:]:
        if other != exact:
            problems.append(f"traced counts differ between jobs: "
                            f"{exact} vs {other}")
    metrics.update(exact)
    for kind in ("construct", "analyze", "recover"):
        metrics[f"cli.{kind}_s"] = median(
            [step_seconds(j, wl.steps, kind) for j in untraced])
    for module in spans.MODULES + ("numpy",):
        metrics[f"{module}.import_s"] = median(
            [m.get(module, 0.0) for m in imports])
    metrics["trace.chain_s"] = median([j["chain_s"] for j in traced])
    metrics["trace.untraced_chain_s"] = median([j["chain_s"] for j in untraced])
    metrics["trace.overhead_s"] = (metrics["trace.chain_s"]
                                   - metrics["trace.untraced_chain_s"])
    return metrics, problems


# -- run -------------------------------------------------------------------

def metadata(root: Path, args, blas) -> dict:
    import numpy as np
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                env=env, capture_output=True, text=True,
                                timeout=10).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((root / "src" / "cwsense").glob("*.py")))
    return {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "commit": commit,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": blas,
        "thread_env": {k: os.environ[k] for k in
                       ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                        "MKL_NUM_THREADS") if k in os.environ},
        "python": platform.python_version(), "numpy": np.__version__,
        "src_lines": src_lines,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WHY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def bench(args, root: Path) -> tuple[dict | None, list[str]]:
    """Run the jobs and return (report, printable lines).  The report is
    None, and the lines say why, when a job died before the metrics
    could be measured."""
    sys.path.insert(0, str(root / "src"))
    started = time.perf_counter()
    wl = workloads.build(args.workload, args.seed, args.size)
    work = root / ".bench_work" / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    (work / "inputs").mkdir(parents=True)
    try:
        for name, text in wl.inputs.items():
            (work / "inputs" / name).write_text(text, encoding="ascii")
        env = child_env(root)
        # one warm-up import leaves the bytecode cache as an installed
        # package has it; the timed imports are spread over the run
        import_sample(work, env, 0, False)
        samples = []
        checker = workloads.Checker(wl)
        jobs, lines, failures = [], [], []
        attempted = failed = 0
        t0 = time.perf_counter()
        while (not jobs or time.perf_counter() - t0 < args.seconds
               or (args.trace and len(jobs) < 2)):
            remaining = RUN_LIMIT_S - (time.perf_counter() - started)
            if jobs and remaining < 2 * max(j["wall_s"] for j in jobs):
                break
            samples.append(import_sample(work, env, len(samples) + 1,
                                         bool(args.trace)))
            traced = bool(args.trace) and len(jobs) % 2 == 1
            job_dir, job, error = run_job([s.argv for s in wl.steps], work,
                                          env, f"job{len(jobs)}", traced,
                                          max(remaining - 5, 5))
            attempted += len(wl.steps)
            if job is None:
                failed += len(wl.steps)
                failures.append(f"job {len(jobs)}: {error}")
                break
            bad = 0
            for i, (step, res) in enumerate(zip(wl.steps, job["steps"])):
                errs = checker.check_step(i, step, res, job_dir)
                if errs:
                    bad += 1
                    failures += [f"job {len(jobs)} step {i} "
                                 f"({' '.join(step.argv)}): {e}" for e in errs]
            failed += bad
            shutil.rmtree(job_dir)
            lines.append(f"job {len(jobs)}{' traced' if traced else ''}: "
                         f"chain_s={job['chain_s']:.4f} "
                         f"peak_rss_mb={job['peak_rss_kb'] / 1024:.1f} "
                         f"failed_steps={bad}/{len(wl.steps)}")
            jobs.append(job)
        while len(samples) < IMPORT_REPS:
            samples.append(import_sample(work, env, len(samples) + 1,
                                         bool(args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (root / ".bench_work").rmdir()
        except OSError:
            pass
    imports = [sample["imports"] for sample in samples]
    untraced = [j for j in jobs if not j["traced"]]
    traced = [j for j in jobs if j["traced"]]
    if not untraced or (args.trace and not traced):
        return None, failures
    if args.trace:
        metrics, problems = per_layer(wl, traced, untraced, imports)
        failures += problems
        correct = failed == 0 and not problems
    else:
        metrics = {
            "chain_s": median([scaled(j, "chain_s") for j in untraced]),
            "setup_s": median([scaled(j, "import_s") for j in samples]),
            "peak_rss_mb": median([j["peak_rss_kb"] / 1024 for j in untraced]),
        }
        correct = failed == 0
    report = {
        "meta": metadata(root, args, jobs[0]["blas_threads"] if jobs else None),
        "why": workloads.WHY[args.workload],
        "correct": correct, "attempted": attempted, "failed": failed,
        "ops_failed_frac": failed / attempted,
        "failures": failures,
        "metrics": metrics,
        "setup_samples": [{k: j[k] for k in ("import_s", "probe_s")}
                          for j in samples],
        "jobs": [{"traced": j["traced"], "chain_s": j["chain_s"],
                  "probe_s": j["probe_s"],
                  "wall_s": j["wall_s"],
                  "peak_rss_mb": j["peak_rss_kb"] / 1024,
                  "step_seconds": [s["seconds"] for s in j["steps"]],
                  "spans": j["spans"], "counts": j["counts"]}
                 for j in jobs],
    }
    chains = [j["chain_s"] for j in untraced]
    lines += [f"meta {k}={v}" for k, v in report["meta"].items()]
    lines.append(f"why {report['why']}")
    lines += [f"FAILED {f}" for f in failures[:20]]
    lines.append(f"ops_failed_frac = {report['ops_failed_frac']:g} "
                 f"({failed} of {attempted} CLI steps failed)")
    scaled_chains = [scaled(j, "chain_s") for j in untraced]
    lines.append(f"chain_s: median of {len(chains)} untraced jobs, tail "
                 f"{tail(scaled_chains)}; unscaled wall median "
                 f"{median(chains):.4f} s")
    lines.append(f"setup_s: median of {len(samples)} fresh imports, one "
                 f"before each job; unscaled median "
                 f"{median([j['import_s'] for j in samples]):.4f} s")
    lines.append(f"probe: median {median([sum(j['probe_s']) for j in jobs]):.4f} s"
                 f" (nominal {PROBE_NOMINAL_S} s)")
    return report, lines


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "cwsense" / "cli.py").is_file():
        print("error: run from the root of a cwsense checkout "
              "(src/cwsense/cli.py not found)", file=sys.stderr)
        return 2
    report, lines = bench(args, root)
    if report is None:
        print("error: no metrics measured", *lines, sep="\n", file=sys.stderr)
        return 1
    out = (root / ".bench_out" /
           f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json")
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1, default=str))
    units = END_TO_END if not args.trace else dict(
        PER_LAYER, **{m: "s" for m in REPORT_TIMES.values()},
        **{"recovery.success_ratio_gaussian": "ratio"})
    for line in lines:
        print(line)
    for name, value in report["metrics"].items():
        shown = value if isinstance(value, int) else f"{value:.6g}"
        print(f"metric {name} = {shown} {units.get(name, '')}")
    print(f"report {out}")
    declared = END_TO_END if not args.trace else PER_LAYER
    print(json.dumps({
        "correct": report["correct"], "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {name: {"value": report["metrics"][name], "unit": unit}
                    for name, unit in declared.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
