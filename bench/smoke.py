"""Smoke test of the benchmark itself.

    python3 bench/smoke.py        (from the root of a cwsense checkout)

Runs tiny instances of every workload through run.py, traced
and untraced, and shows that the checks bite: a tampered `mu =` line, a
tampered CSV row and a tampered written file each count as a failed
step.  Also checks that BENCHMARK.json declares exactly the metrics the
benchmark emits, and that it refuses to run without the program.
Prints one line per check and exits 1 if any of them fails.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
RESULTS: list[bool] = []


def report(ok: bool, what: str) -> None:
    RESULTS.append(ok)
    print(f"{'ok  ' if ok else 'FAIL'} {what}", flush=True)


def tiny_runs() -> None:
    for name in sorted(workloads.WHY):
        for trace in (0, 1):
            args = run.parse_args(["--workload", name, "--seed", "0",
                                   "--seconds", "0.5", "--trace", str(trace),
                                   "--size", "tiny"])
            rep, lines = run.bench(args, ROOT)
            if rep is None:
                report(False, f"{name} trace={trace}: {lines}")
                continue
            want = set(run.PER_LAYER if trace else run.END_TO_END)
            report(rep["correct"] and rep["failed"] == 0
                   and rep["attempted"] > 0 and want <= set(rep["metrics"]),
                   f"{name} trace={trace}: {rep['attempted']} steps, "
                   f"{rep['failed']} failed, all declared metrics present")
            if trace:
                traced = [j for j in rep["jobs"] if j["traced"]]
                seen = {n.split(".")[0] for j in traced for n in j["spans"]
                        if j["spans"][n][0]}
                imported = all(rep["metrics"][f"{m}.import_s"] > 0
                               for m in spans.MODULES)
                report(imported and bool(seen), f"{name}: import spans for all six "
                       f"modules; call spans in {sorted(seen)}")


def failed_steps(wl, job: dict, job_dir: Path) -> list[int]:
    checker = workloads.Checker(wl)
    return [i for i, (step, res) in enumerate(zip(wl.steps, job["steps"]))
            if checker.check_step(i, step, res, job_dir)]


def tamper_runs() -> None:
    wl = workloads.build("omp", 0, "tiny")
    work = ROOT / ".bench_work" / f"smoke-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        job_dir, job, error = run.run_job([s.argv for s in wl.steps], work,
                                          run.child_env(ROOT), "job0", False,
                                          120)
        report(job is not None and not failed_steps(wl, job, job_dir),
               f"untampered tiny omp job passes {error}")
        if job is None:
            return

        def tampered(index: int, old: str, new: str) -> list[int]:
            steps = [dict(s) for s in job["steps"]]
            steps[index]["stdout"] = re.sub(old, new, steps[index]["stdout"],
                                            count=1)
            return failed_steps(wl, dict(job, steps=steps), job_dir)

        report(tampered(1, r"mu = 1/3", "mu = 1/2") == [1],
               "a tampered mu line fails its analyze step")
        report(tampered(2, r"\n(.*?),1,20,20,", r"\n\1,1,20,19,") == [2],
               "a tampered CSV success count fails its recover step")
        report(tampered(3, r"e-1(\d),", r"e-2\1,") == [3],
               "a tampered CSV error digit fails the seed-0 digest")
        matrix = job_dir / "devore_p3_r2.matrix"
        matrix.write_text(matrix.read_text() + "# trailing comment\n")
        report(failed_steps(wl, job, job_dir) == [0],
               "a tampered written file fails its construct step")
    finally:
        shutil.rmtree(work, ignore_errors=True)


def declared_metrics() -> None:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        report(False, "BENCHMARK.json exists at the checkout root")
        return
    spec = json.loads(path.read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    report(e2e == run.END_TO_END and layer == run.PER_LAYER,
           "BENCHMARK.json declares exactly the metrics run.py emits")
    report({w["name"] for w in spec["workloads"]} == set(workloads.WHY),
           "BENCHMARK.json lists exactly the workloads run.py knows")


def refuses_without_program() -> None:
    bare = ROOT / ".bench_work" / f"bare-{os.getpid()}"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(Path(__file__).resolve().parent, bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    if (ROOT / "BENCHMARK.json").is_file():
        shutil.copy(ROOT / "BENCHMARK.json", bare)
    try:
        proc = subprocess.run(
            [sys.executable, "bench/run.py", "--workload", "omp", "--seed",
             "0", "--seconds", "1", "--trace", "0"], cwd=bare,
            capture_output=True, text=True, timeout=60)
        report(proc.returncode != 0 and '"correct"' not in proc.stdout,
               f"without src/cwsense the benchmark exits {proc.returncode} "
               f"and prints no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


def main() -> int:
    if not (ROOT / "src" / "cwsense" / "cli.py").is_file():
        print("error: run from the root of a cwsense checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))    # the checks load written files
    declared_metrics()
    tamper_runs()
    refuses_without_program()
    tiny_runs()
    print(f"{sum(RESULTS)}/{len(RESULTS)} smoke checks passed")
    return 0 if all(RESULTS) else 1


if __name__ == "__main__":
    sys.exit(main())
