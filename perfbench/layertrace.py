"""Per-layer tracing from outside the program.

Public functions are wrapped where the calling module looks them up: every
pisomlab module that binds the function's name gets the wrapper, so
`pisomlab.sgroup.make_partial_isometry` and
`pisomlab.pisom.make_partial_isometry` are both counted.  The dedup store's
lookup and append are wrapped on the class.  Calls and seconds are summed
per layer name; stage-level calls are also kept as spans (name, start, end,
parent span, operation) in memory and written out at the end of the run.
Frequent leaf calls (tolerance predicates, SVDs, validation, store lookups)
are summed only, which keeps the trace small.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from time import perf_counter

MODULES = ("pisomlab", "pisomlab.numlin", "pisomlab.pisom", "pisomlab.projlat",
           "pisomlab.sgroup", "pisomlab.invsg", "pisomlab.jsonio", "pisomlab.cli")

# (module, function) -> layer name; several functions may share a name
FUNCTIONS = {
    ("pisomlab.sgroup", "close"): "sgroup.close",
    ("pisomlab.pisom", "make_partial_isometry"): "pisom.make_partial_isometry",
    ("pisomlab.sgroup", "family_projections"): "sgroup.family_projections",
    ("pisomlab.sgroup", "check_pq_equal"): "sgroup.check_pq",
    ("pisomlab.sgroup", "check_pq_contained"): "sgroup.check_pq",
    ("pisomlab.numlin", "approx_equal"): "numlin.approx_equal",
    ("pisomlab.numlin", "rank"): "numlin.svd",
    ("pisomlab.numlin", "range_basis"): "numlin.svd",
    ("pisomlab.numlin", "kernel_basis"): "numlin.svd",
    ("pisomlab.projlat", "projection_family"): "projlat.projection_family",
    ("pisomlab.projlat", "boolean_atoms"): "projlat.boolean_atoms",
    ("pisomlab.sgroup", "brandt_structure"): "sgroup.brandt_structure",
    ("pisomlab.sgroup", "is_irreducible"): "sgroup.is_irreducible",
    ("pisomlab.invsg", "barnes_representation"): "invsg.barnes_representation",
    ("pisomlab.jsonio", "load_generator_problem"): "jsonio.load_generator_problem",
}
STORE_METHODS = {"lookup": "sgroup.store.lookup", "append": "sgroup.store.append"}
LEAVES = {"numlin.approx_equal", "numlin.svd", "pisom.make_partial_isometry",
          "sgroup.store.lookup", "sgroup.store.append"}

# per-layer metrics: name -> (unit, better)
PER_LAYER = {
    "sgroup.close.calls": ("count", "lower"),
    "sgroup.close.s": ("s", "lower"),
    "sgroup.close.self_s": ("s", "lower"),
    "sgroup.close.products": ("count", "lower"),
    "sgroup.close.new_ratio": ("ratio", "higher"),
    "sgroup.store.lookup.s": ("s", "lower"),
    "pisom.make_partial_isometry.calls": ("count", "lower"),
    "pisom.make_partial_isometry.s": ("s", "lower"),
    "sgroup.family_projections.calls": ("count", "lower"),
    "sgroup.family_projections.s": ("s", "lower"),
    "sgroup.check_pq.s": ("s", "lower"),
    "numlin.approx_equal.calls": ("count", "lower"),
    "numlin.approx_equal.s": ("s", "lower"),
    "projlat.projection_family.s": ("s", "lower"),
    "projlat.projection_family.pairs": ("count", "lower"),
    "projlat.boolean_atoms.s": ("s", "lower"),
    "numlin.svd.calls": ("count", "lower"),
    "sgroup.brandt_structure.s": ("s", "lower"),
    "sgroup.is_irreducible.s": ("s", "lower"),
    "invsg.barnes_representation.s": ("s", "lower"),
    "jsonio.load_generator_problem.s": ("s", "lower"),
}


class Tracer:
    """Install with `installed()`; read one pass with `pass_metrics()`."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.seconds: defaultdict = defaultdict(float)
        self.close_pi_seconds = 0.0
        self.pairs = 0
        self.spans: list[tuple] = []
        self.op = None
        self._stack: list[list] = []
        self._next_id = 0
        self._patches: list[tuple] = []

    def reset_counts(self) -> None:
        self.calls.clear()
        self.seconds.clear()
        self.close_pi_seconds = 0.0
        self.pairs = 0

    def _wrap(self, name: str, fn):
        leaf = name in LEAVES
        stack = self._stack

        def traced(*args, **kwargs):
            if name == "projlat.projection_family" and args:
                m = len(args[0])
                self.pairs += m * (m - 1) // 2
            span_id = parent = None
            if not leaf:
                span_id = self._next_id
                self._next_id += 1
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
            frame = [name, perf_counter(), 0.0, span_id]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                dt = t1 - frame[1]
                self.calls[name] += 1
                self.seconds[name] += dt
                if name == "pisom.make_partial_isometry" and stack \
                        and stack[-1][0] == "sgroup.close":
                    stack[-1][2] += dt
                elif name == "sgroup.close":
                    self.close_pi_seconds += frame[2]
                if span_id is not None:
                    self.spans.append((span_id, parent, self.op, name, frame[1], t1))

        return traced

    def install(self) -> None:
        modules = [importlib.import_module(m) for m in MODULES]
        wrappers = {}
        for (mod_name, attr), name in FUNCTIONS.items():
            original = getattr(importlib.import_module(mod_name), attr)
            wrappers[id(original)] = (original, self._wrap(name, original))
        for module in modules:
            for attr, value in list(vars(module).items()):
                if id(value) in wrappers and wrappers[id(value)][0] is value:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, wrappers[id(value)][1])
        store = importlib.import_module("pisomlab.sgroup")._ElementStore
        for attr, name in STORE_METHODS.items():
            original = vars(store)[attr]
            self._patches.append((store, attr, original))
            setattr(store, attr, self._wrap(name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def pass_metrics(self) -> dict[str, float]:
        s, c = self.seconds, self.calls
        products = c["sgroup.store.lookup"]
        return {
            "sgroup.close.calls": c["sgroup.close"],
            "sgroup.close.s": s["sgroup.close"],
            "sgroup.close.self_s": s["sgroup.close"] - self.close_pi_seconds,
            "sgroup.close.products": products,
            "sgroup.close.new_ratio": c["sgroup.store.append"] / products if products else 0.0,
            "sgroup.store.lookup.s": s["sgroup.store.lookup"],
            "pisom.make_partial_isometry.calls": c["pisom.make_partial_isometry"],
            "pisom.make_partial_isometry.s": s["pisom.make_partial_isometry"],
            "sgroup.family_projections.calls": c["sgroup.family_projections"],
            "sgroup.family_projections.s": s["sgroup.family_projections"],
            "sgroup.check_pq.s": s["sgroup.check_pq"],
            "numlin.approx_equal.calls": c["numlin.approx_equal"],
            "numlin.approx_equal.s": s["numlin.approx_equal"],
            "projlat.projection_family.s": s["projlat.projection_family"],
            "projlat.projection_family.pairs": self.pairs,
            "projlat.boolean_atoms.s": s["projlat.boolean_atoms"],
            "numlin.svd.calls": c["numlin.svd"],
            "sgroup.brandt_structure.s": s["sgroup.brandt_structure"],
            "sgroup.is_irreducible.s": s["sgroup.is_irreducible"],
            "invsg.barnes_representation.s": s["invsg.barnes_representation"],
            "jsonio.load_generator_problem.s": s["jsonio.load_generator_problem"],
        }

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, parent, op, name, t0, t1 in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op,
                                     "name": name, "start": t0, "end": t1}) + "\n")
