"""In-memory spans for the traced benchmark run.

`install` wraps every public function of the six cwsense modules, the
FieldElement operators and numpy's lstsq, and rebinds each wrapper
wherever a caller looks the name up: the defining module, every cwsense
module that imported the name, and the package namespace.  Spans are
aggregated by name as they close (calls, inclusive and self seconds),
so a run with hundreds of thousands of field operations stays small;
the aggregate is written out once, when the job ends.

Self time is a span's duration minus the time its child spans cover.
Each span also belongs to a group (by default itself); "outer" time
counts only calls not nested in another span of the same group, so a
group's time is never counted twice (load_matrix calls loads_matrix,
a**e calls a*b).
"""

from __future__ import annotations

import inspect
import math
import os
import sys
import time
from collections import defaultdict

MODULES = ("cli", "field", "designs", "codes", "matrices", "recovery")
FIELD_OPS = ("__add__", "__sub__", "__mul__", "__truediv__", "inverse",
             "__pow__")

# span name -> group; members of a group share one "outer" clock
GROUPS = {
    "codes.load_code": "codes.load", "codes.loads_code": "codes.load",
    "matrices.load_matrix": "matrices.load",
    "matrices.loads_matrix": "matrices.load",
    "matrices.from_binary_code": "matrices.from_code",
    "matrices.from_binary_code_signed": "matrices.from_code",
    "matrices.from_ternary_code": "matrices.from_code",
    "codes.certify_binary": "codes.certify_binary",
    "codes.validate_binary": "codes.certify_binary",
    "codes.certify_ternary": "codes.certify_ternary",
    "codes.validate_ternary": "codes.certify_ternary",
    **{f"field.FieldElement.{op}": "field.ops" for op in FIELD_OPS},
}


class Recorder:
    """Aggregated spans and counters of one traced job."""

    def __init__(self):
        # name -> [calls, inclusive_s, self_s, outer_s]
        self.spans: dict[str, list] = {}
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[float] = []      # child seconds of each open span
        self._open: dict[str, int] = defaultdict(int)

    def wrap(self, name: str, fn, after=None):
        """fn wrapped in a span; after(outer, bound_args, result) counts."""
        group = GROUPS.get(name, name)
        stats = self.spans.setdefault(name, [0, 0.0, 0.0, 0.0])
        stack, open_, clock = self._stack, self._open, time.perf_counter
        sig = inspect.signature(fn) if after is not None else None

        def traced(*args, **kwargs):
            outer = open_[group] == 0
            open_[group] += 1
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                open_[group] -= 1
                if stack:
                    stack[-1] += elapsed
                stats[0] += 1
                stats[1] += elapsed
                stats[2] += elapsed - inner
                if outer:
                    stats[3] += elapsed
            if after is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                after(outer, bound.arguments, result)
            return result

        traced.__name__ = getattr(fn, "__name__", name)
        traced.__qualname__ = getattr(fn, "__qualname__", name)
        traced.__doc__ = fn.__doc__
        traced.__wrapped__ = fn
        return traced

    # -- counters fed by span hooks ---------------------------------------

    def _pairs(self, outer, a, code):
        self.counts["codes.pairs_scanned"] += math.comb(len(a["code"].words), 2)

    def _rank_checks(self, outer, a, code):
        n = len(code.subspaces)
        self.counts["designs.rank_checks"] += math.comb(n, 2) + n

    def _coherence(self, outer, a, report):
        n = a["matrix"].N
        self.counts["matrices.coherence_calls"] += 1
        # computed, not measured: the int64 Gram and its np.abs copy
        self.counts["matrices.gram_bytes"] += 2 * n * n * 8

    def _io(self, layer, source):
        def count(outer, a, result):
            if not outer:
                return
            if source == "text":
                size = len(a["text"])
            else:
                size = os.path.getsize(a["path"])
            self.counts[f"{layer}.io_bytes"] += size
        return count

    def _experiment(self, outer, a, reports):
        model = a["model"]
        for rep in reports:
            self.counts["recovery.trials"] += rep.trials
            self.counts[f"recovery.trials.{model}"] += rep.trials
            self.counts[f"recovery.successes.{model}"] += rep.successes

    def hooks(self) -> dict:
        return {
            "codes.validate_binary": self._pairs,
            "codes.validate_ternary": self._pairs,
            "designs.certify_subspace_code": self._rank_checks,
            "matrices.coherence": self._coherence,
            "matrices.load_matrix": self._io("matrices", "path"),
            "matrices.loads_matrix": self._io("matrices", "text"),
            "matrices.save_matrix": self._io("matrices", "path"),
            "codes.load_code": self._io("codes", "path"),
            "codes.loads_code": self._io("codes", "text"),
            "codes.save_code": self._io("codes", "path"),
            "recovery.run_experiment": self._experiment,
        }


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj)
                and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


def install(rec: Recorder) -> None:
    """Wrap the cwsense layers and numpy's lstsq, recording into rec."""
    import numpy as np

    from cwsense import field

    hooks = rec.hooks()
    wrappers = {}    # id(original) -> (original, wrapper)
    for short in MODULES:
        module = sys.modules[f"cwsense.{short}"]
        for attr, fn in _public_functions(module):
            name = f"{short}.{attr}"
            wrappers[id(fn)] = (fn, rec.wrap(name, fn, hooks.get(name)))
    for name, module in list(sys.modules.items()):
        if name != "cwsense" and not name.startswith("cwsense."):
            continue
        for attr, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(module, attr, hit[1])
    for op in FIELD_OPS:
        setattr(field.FieldElement, op,
                rec.wrap(f"field.FieldElement.{op}",
                         getattr(field.FieldElement, op)))
    np.linalg.lstsq = rec.wrap("numpy.lstsq", np.linalg.lstsq)
