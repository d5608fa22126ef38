"""Workloads of the cwsense benchmark: CLI chains, generated inputs and
the checks every step's output must pass.

A workload is built from a name, a seed and a size.  The seed drives
only what the benchmark itself generates (the signs of the ternary
Steiner file and `recover --seed`); the program sees nothing but argv
and the generated files.  Every expected value below is analytic: it is
derived from the construction's parameters, not read back from the
program.  The one exception is the seed-0 CSV digest, pinned from the
commit that defined the benchmark.
"""

from __future__ import annotations

import hashlib
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from pathlib import Path

CSV_HEADER = "matrix_id,k,trials,successes,max_value_error,seconds"

WHY = {
    "spread": "spread codes over prime and extension fields: time goes to "
              "field arithmetic and subspace certification",
    "gram": "Steiner codes with N=1962 and a seeded ternary N=1552 file: "
            "time goes to the int64 Gram and pairwise code certification",
    "omp": "devore(7,3) with 1000 OMP trials per k up to 6, Rademacher "
           "and Gaussian values: time goes to per-trial recovery",
}

# sha256 of the recover CSV with the seconds column removed, at seed 0,
# keyed by (workload, size) and then by step index.
PINNED_CSV = {
    ("spread", "full"): {
        3: "277e7c913571441b63a293e7d294c9fef2fbb2f619e90481ea2006fa4776c449",
        7: "e46f7bc55a2b40492e5941179e5bac89356d88291887d583a038b6fa266b7e31",
        11: "c44ef9a0d1eac8c95c39eadca957fc29c49f8ce71f286e9f4a7174ab7d76401d",
        15: "3ae0c54812e02dd95064df1bc38fd9bcaf5cd0374ab52213d9bcb88aa87b0bd9"},
    ("spread", "tiny"): {
        3: "dfac5390a8702ff12f073415c1b69877709376fe2dcdbb26747faf2e86da130d",
        7: "c410945dda544fbf7cbcbfa800cbf43172db779d22a2289f6344a119f0b10456"},
    ("gram", "full"): {
        3: "a093b8627dff8c50ba7b94248437b09a5ae0d41c47356b9e7f4668a91da599ea"},
    ("gram", "tiny"): {
        3: "ed240a49ea0efa32d60325c8785751899b7439b985cb41a2fcb5012ff0fdf8f5"},
    ("omp", "full"): {
        2: "28f5b8c8340aff5c5457d484ddb6ada91801600d27a435bb8a301676c9ce1848",
        3: "237f52fd3862177d07fcc23ca93dc850949ce368bb73d9b5b94ee67ecb7f3f47"},
    ("omp", "tiny"): {
        2: "d79e5f033d9823ec130aaca3349cc54f149ed68a713e92a47b0cf204a1baefbf",
        3: "a86bf727a1af8b067b366bd7d4f3c03b601a00fd6e8b32fc85f382b7266c7d9d"},
}


@dataclass
class Step:
    kind: str                  # "construct", "analyze" or "recover"
    argv: list[str]
    expect: dict
    writes: dict = field(default_factory=dict)   # file name -> "code" | "matrix"


@dataclass
class Workload:
    name: str
    size: str
    seed: int
    steps: list[Step]
    inputs: dict[str, str]     # generated file name -> text

    @property
    def pinned(self) -> dict[int, str] | None:
        """Pinned recover digests by step index; None off seed 0."""
        return PINNED_CSV[(self.name, self.size)] if self.seed == 0 else None


# -- generated input ------------------------------------------------------

def cyclic_sts(p: int) -> list[tuple[int, int, int]]:
    """Blocks of the cyclic Steiner triple system on Z_p, p = 1 mod 6 prime.

    With g a primitive root, t = (p-1)/6 and w = g^(2t) a cube root of
    unity, the base blocks g^i {1, w, w^2} (i < t) have differences that
    cover each nonzero residue once, so their p translates form an STS.
    """
    t = (p - 1) // 6
    if 6 * t + 1 != p or any(p % f == 0 for f in range(2, math.isqrt(p) + 1)):
        raise ValueError(f"need a prime p = 1 mod 6, got {p}")
    prime_factors = [f for f in range(2, p)
                     if (p - 1) % f == 0 and all(f % e for e in range(2, f))]
    g = next(g for g in range(2, p)
             if all(pow(g, (p - 1) // f, p) != 1 for f in prime_factors))
    w = pow(g, 2 * t, p)
    base = [tuple(pow(g, i, p) * pow(w, j, p) % p for j in range(3))
            for i in range(t)]
    blocks = sorted(tuple(sorted((b + x) % p for b in block))
                    for block in base for x in range(p))
    pairs = {pair for block in blocks for pair in combinations(block, 2)}
    if len(pairs) != p * (p - 1) // 2 or len(blocks) != p * (p - 1) // 6:
        raise RuntimeError(f"cyclic STS({p}) construction is not a design")
    return blocks


def signed_sts_text(p: int, seed: int) -> str:
    """A ternary code file: STS(p) blocks with seeded random signs.

    Every point lies on (p-1)/2 >= 3 blocks, so two blocks through it
    agree in sign there: the distance is exactly 4 and mu = 1/3.
    """
    rng = random.Random(seed)
    lines = [f"# provenance: bench signed cyclic sts p={p} seed={seed}",
             f"{p} 4 3"]
    for block in cyclic_sts(p):
        lines.append(" ".join(f"{'-' if rng.getrandbits(1) else '+'}{pt}"
                              for pt in block))
    return "\n".join(lines) + "\n"


# -- workload chains -------------------------------------------------------

def _coherence_expect(n: int, N: int, w: int, mu: Fraction, bound: Fraction,
                      **header) -> dict:
    return dict(header, n=n, N=N, w=w, mu=mu, bound=bound)


def _construct(argv, name, n, N, w, d, mu_bound, writes) -> Step:
    return Step("construct", ["construct", name] + argv,
                dict(construction=name, n=n, N=N, w=w, d=d, mu_bound=mu_bound),
                writes)


def _recover(path, k_max, trials, values, seed, mu) -> Step:
    return Step("recover",
                ["recover", path, "--k-max", str(k_max), "--trials",
                 str(trials), "--values", values, "--seed", str(seed)],
                dict(k_max=k_max, trials=trials, mu=mu))


def _spread(seed: int, instances, k_max: int, trials: int) -> list[Step]:
    steps = []
    for q, n, k in instances:
        length, w = q ** n - 1, q ** k - 1
        N = length // w
        base = f"spread_q{q}_n{n}_k{k}"
        code, mat = base + ".code", base + ".matrix"
        steps.append(_construct(
            ["--q", str(q), "--n", str(n), "--k", str(k),
             "--out", code, "--matrix-out", mat],
            "spread", length, N, w, 2 * w, Fraction(0),
            {code: "code", mat: "matrix"}))
        zero = Fraction(0)
        steps.append(Step("analyze", ["analyze", code], _coherence_expect(
            length, N, w, zero, zero, kind="binary", d=2 * w)))
        steps.append(Step("analyze", ["analyze", mat],
                          _coherence_expect(length, N, w, zero, zero)))
        steps.append(_recover(mat, k_max, trials, "rademacher", seed, zero))
    return steps


def _gram(seed: int, n: int, k_max: int, trials: int, tern: str,
          p: int) -> list[Step]:
    N = n * (n - 1) // 6
    third = Fraction(1, 3)
    code, mat = f"sts{n}.code", f"sts{n}.matrix"
    return [
        _construct(["--n", str(n), "--out", code, "--matrix-out", mat],
                   "sts", n, N, 3, 4, third, {code: "code", mat: "matrix"}),
        Step("analyze", ["analyze", code], _coherence_expect(
            n, N, 3, third, third, kind="binary", d=4)),
        Step("analyze", ["analyze", mat],
             _coherence_expect(n, N, 3, third, third)),
        _recover(mat, k_max, trials, "rademacher", seed, third),
        # ternary bound min(w, 2w - d)/w = 2/3; exact mu stays 1/3
        Step("analyze", ["analyze", tern], _coherence_expect(
            p, p * (p - 1) // 6, 3, third, Fraction(2, 3),
            kind="ternary", d=4)),
    ]


def _omp(seed: int, p: int, r: int, k_max: int, trials: int) -> list[Step]:
    mat = f"devore_p{p}_r{r}.matrix"
    mu = Fraction(r - 1, p)
    return [
        _construct(["--p", str(p), "--r", str(r), "--emit-matrix", mat],
                   "devore", p * p, p ** r, p, 2 * (p - r + 1), mu,
                   {mat: "matrix"}),
        Step("analyze", ["analyze", mat],
             _coherence_expect(p * p, p ** r, p, mu, mu)),
        _recover(mat, k_max, trials, "rademacher", seed, mu),
        _recover(mat, k_max, trials, "gaussian", seed, mu),
    ]


TERNARY_INPUT = "sts{p}_signed.code"


def build(name: str, seed: int, size: str = "full") -> Workload:
    """The workload's chain and generated inputs for this seed.

    size "tiny" keeps every step of the chain on instances that finish
    in well under a second; it exists for the smoke test.
    """
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    full = size == "full"
    if size not in ("full", "tiny"):
        raise ValueError(f"unknown size {size!r}")
    inputs: dict[str, str] = {}
    if name == "spread":
        instances = ([(2, 8, 2), (3, 6, 2), (2, 9, 3), (8, 4, 2)] if full
                     else [(2, 4, 2), (4, 2, 1)])
        steps = _spread(seed, instances, 4 if full else 2, 50 if full else 5)
    elif name == "gram":
        p = 97 if full else 13
        tern = TERNARY_INPUT.format(p=p)
        inputs[tern] = signed_sts_text(p, seed)
        steps = _gram(seed, 109 if full else 9, 2, 10 if full else 5,
                      "../inputs/" + tern, p)
    elif name == "omp":
        steps = (_omp(seed, 7, 3, 6, 1000) if full
                 else _omp(seed, 3, 2, 2, 20))
    else:
        raise ValueError(f"unknown workload {name!r}")
    return Workload(name, size, seed, steps, inputs)


# -- output checks ---------------------------------------------------------

def _order(n: int, mu: Fraction) -> int:
    return n if mu == 0 else math.floor(1 / mu) + 1


def _welch_line(n: int, N: int) -> str:
    if N <= n:
        return "welch = 0 (degenerate: N <= n)"
    value = math.sqrt((N - n) / (n * (N - 1)))
    alt = math.sqrt(N / (n * (N - n)))
    return f"welch = {value:.6f} (alt form {alt:.6f})"


def csv_digest(csv_text: str) -> str:
    """sha256 of the CSV with its last (wall-clock seconds) column cut."""
    kept = "\n".join(line.rsplit(",", 1)[0] for line in csv_text.splitlines())
    return hashlib.sha256(kept.encode()).hexdigest()


def check_construct(step: Step, out: str) -> list[str]:
    exp = step.expect
    want = [f"summary: construction={exp['construction']} n={exp['n']} "
            f"N={exp['N']} w={exp['w']} d={exp['d']} "
            f"mu_bound={exp['mu_bound']}"]
    want += [f"wrote {kind}: {path}" for path, kind in step.writes.items()]
    lines = out.splitlines()
    return [] if lines == want else [f"construct output {lines!r} != {want!r}"]


def check_analyze(exp: dict, out: str) -> list[str]:
    lines = out.splitlines()
    if "kind" in exp:
        head = (f"code: {exp['kind']} n={exp['n']} w={exp['w']} "
                f"d={exp['d']} size={exp['N']}")
        head_ok = lines[:1] == [head]
    else:
        head = f"matrix: {exp['n']}x{exp['N']} w={exp['w']} provenance="
        head_ok = bool(lines) and lines[0].startswith(head)
    mu_line = (f"mu = {exp['mu']}, bound = {exp['bound']}, "
               f"order k = {_order(exp['n'], exp['mu'])}")
    want_tail = [mu_line, _welch_line(exp["n"], exp["N"])]
    failures = []
    if not head_ok:
        failures.append(f"analyze header {lines[:1]!r} != {head!r}")
    if lines[1:] != want_tail:
        failures.append(f"analyze lines {lines[1:]!r} != {want_tail!r}")
    return failures


def split_recover(out: str) -> tuple[str, list[str]]:
    """(CSV text, status lines) of a recover step's stdout."""
    lines = out.splitlines()
    n_csv = sum(1 for line in lines if "," in line)
    return ("".join(line + "\n" for line in lines[:n_csv]), lines[n_csv:])


def check_recover(exp: dict, out: str, pinned: dict | None,
                  index: int) -> list[str]:
    csv_text, status = split_recover(out)
    rows = csv_text.splitlines()
    k_max, trials, mu = exp["k_max"], exp["trials"], exp["mu"]
    if not rows or rows[0] != CSV_HEADER:
        return [f"recover CSV header {rows[:1]!r} != {CSV_HEADER!r}"]
    failures = []
    if len(rows) - 1 != k_max or len(status) != k_max:
        failures.append(f"recover printed {len(rows) - 1} rows and "
                        f"{len(status)} status lines, want {k_max} each")
    ids = set()
    for k, (row, line) in enumerate(zip(rows[1:], status), start=1):
        fields = row.rsplit(",", 5)
        try:
            mid, rk, rt, rs = fields[0], int(fields[1]), int(fields[2]), \
                int(fields[3])
            err, secs = float(fields[4]), float(fields[5])
        except (IndexError, ValueError):
            failures.append(f"recover row {row!r} does not parse")
            continue
        ids.add(mid)
        guaranteed = (2 * k - 1) * mu < 1
        label = "guaranteed" if guaranteed else "beyond guarantee"
        if (rk, rt) != (k, trials) or not 0 <= rs <= trials:
            failures.append(f"recover row {row!r}: want k={k} trials={trials}")
        if guaranteed and (rs != trials or not err < 1e-9):
            failures.append(f"recover row {row!r}: guaranteed level failed")
        if not (math.isfinite(err) and err >= 0 and secs >= 0):
            failures.append(f"recover row {row!r}: bad error or seconds")
        if line != f"k={k}: {rs}/{rt} exact ({label})":
            failures.append(f"recover status {line!r} disagrees with {row!r}")
    if len(ids) > 1:
        failures.append(f"recover rows name several matrices: {sorted(ids)}")
    if pinned is not None and csv_digest(csv_text) != pinned.get(index):
        failures.append("recover CSV (seconds cut) differs from the digest "
                        "pinned at seed 0")
    return failures


class Checker:
    """Checks every step of every job of one run.

    Files a construct step writes are verified once by load -> dump byte
    equality with the program's own loaders; every later job must then
    write the very same bytes.  Recover CSVs (seconds cut) must agree
    across all jobs of the run, and at seed 0 with the pinned digest.
    """

    def __init__(self, workload: Workload):
        self.workload = workload
        self.files: dict[str, bytes] = {}
        self.csvs: dict[int, str] = {}

    def _roundtrip(self, kind: str, data: bytes) -> bool:
        from cwsense import codes, matrices
        text = data.decode("ascii")
        if kind == "code":
            return codes.dumps_code(codes.loads_code(text)) == text
        return matrices.dumps_matrix(matrices.loads_matrix(text)) == text

    def check_files(self, step: Step, job_dir: Path) -> list[str]:
        failures = []
        for name, kind in step.writes.items():
            path = job_dir / name
            if not path.is_file():
                failures.append(f"{name} was not written")
                continue
            data = path.read_bytes()
            known = self.files.get(name)
            if known is None:
                try:
                    ok = self._roundtrip(kind, data)
                except Exception as exc:  # any loader failure fails the step
                    failures.append(f"{name} does not load: {exc!r}")
                    continue
                if ok:
                    self.files[name] = data
                else:
                    failures.append(f"{name}: load -> dump is not byte-equal")
            elif data != known:
                failures.append(f"{name} differs from the first job's bytes")
        return failures

    def check_step(self, index: int, step: Step, result: dict,
                   job_dir: Path) -> list[str]:
        failures = []
        if result["rc"] != 0:
            failures.append(f"exit code {result['rc']}: "
                            f"{result['stderr'].strip()[-300:]}")
        out = result["stdout"]
        if step.kind == "construct":
            failures += check_construct(step, out)
            failures += self.check_files(step, job_dir)
        elif step.kind == "analyze":
            failures += check_analyze(step.expect, out)
        else:
            failures += check_recover(step.expect, out,
                                      self.workload.pinned, index)
            digest = csv_digest(split_recover(out)[0])
            first = self.csvs.setdefault(index, digest)
            if digest != first:
                failures.append("recover CSV (seconds cut) differs from the "
                                "first job's")
        return failures
