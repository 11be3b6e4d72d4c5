"""One workload in one process: build the inputs, compute the expected
answers, run the operations in a closed loop, check every output.

Started by run.py with BLAS and OpenMP limited to one thread and `src` on
PYTHONPATH.  Prints one JSON object on its last stdout line.

Timing: a fixed numpy reference kernel is timed right before and right
after every operation; the operation's relative time is its wall time
divided by the mean of the two.  Host-speed drift moves both alike, so the
ratio repeats where raw seconds do not.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import statistics
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable

import numpy as np

import checks
import inputs
import oracle

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
MIN_PASSES = 3
MIN_TRACED_PASSES = 4        # alternating untraced / traced

_REF_RNG = np.random.default_rng(12345)
_REF_U = np.linalg.qr(_REF_RNG.standard_normal((4, 4))
                      + 1j * _REF_RNG.standard_normal((4, 4)))[0]
_REF_C = _REF_RNG.standard_normal((4, 4)) + 0j
_REF_STACK = (_REF_RNG.standard_normal((1024, 4, 4))
              + 1j * _REF_RNG.standard_normal((1024, 4, 4)))
REF_PRODUCTS = 500
REF_SCANS = 20


def reference_kernel() -> float:
    """Seconds for a fixed numpy loop that never calls pisomlab: 4x4 complex
    products with Frobenius norms (interpreter-bound, like most of the
    program) and distance scans over a stack of 1024 such matrices
    (memory-bound, like the closure's dedup lookup)."""
    t0 = perf_counter()
    a = np.eye(4, dtype=complex)
    acc = 0.0
    for _ in range(REF_PRODUCTS):
        a = a @ _REF_U
        acc += float(np.linalg.norm(a - _REF_C))
    for i in range(REF_SCANS):
        diffs = _REF_STACK - _REF_STACK[i]
        acc += float(np.linalg.norm(diffs.reshape(len(_REF_STACK), -1), axis=1).sum())
    t1 = perf_counter()
    if not acc > 0.0:
        raise RuntimeError("reference kernel produced no work")
    return t1 - t0


@dataclass
class Operation:
    label: str
    run: Callable[[], object]
    check: Callable[[object], list]
    elements: Callable[[object], int]
    walls: list = field(default_factory=list)
    rels: list = field(default_factory=list)
    last_elements: int = 0


def _import_program():
    import pisomlab
    import pisomlab.cli
    where = Path(pisomlab.__file__).resolve()
    if (ROOT / "src" / "pisomlab") not in where.parents:
        raise SystemExit(f"pisomlab was imported from {where}, not from {ROOT / 'src'}")


def _cli_json(argv) -> dict:
    from pisomlab import cli
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"pisomlab {' '.join(argv)} exited {code}")
    return json.loads(buf.getvalue())


def closure_operations(seed: int) -> list[Operation]:
    from pisomlab.sgroup import Limits, generator_set, selfadjoint_closure
    ops = []
    rng = np.random.default_rng([seed, 11])
    for inp in inputs.closure_inputs(seed):
        gens = generator_set(inp.named)
        limits = Limits(max_elements=inp.max_elements)

        def run(gens=gens, limits=limits):
            return selfadjoint_closure(gens, limits)

        def check(result, inp=inp):
            return checks.check_infinite_closure(result, inp.named, inp.max_elements, rng)

        ops.append(Operation(inp.label, run, check, lambda result: len(result.elements)))
    return ops


def _report_elements(report: dict) -> int:
    if report.get("command") == "barnes":
        return report.get("closure_elements", 0)
    base = report.get("base_closure") or {}
    return base.get("element_count", 0) + report.get("element_count", 0)


def expected_report(item) -> dict:
    if item.kind == "barnes":
        return oracle.barnes_report(inputs.BARNES_ORDER)
    if item.kind == "units":
        return oracle.units_report(item.dim)
    gens = [oracle.monomial_from_matrix(m) for _, m in item.source]
    return oracle.monomial_report(item.dim, gens, *item.limits)


def report_operations(items, workdir: Path) -> list[Operation]:
    ops = []
    for item in items:
        path = workdir / f"{item.label}.json"
        item.write(path)
        command = "barnes" if item.kind == "barnes" else "report"
        argv = [command, str(path), "--format", "json"]
        if item.kind == "golden":
            check = (lambda report, named=item.named: checks.check_golden(report, named))
        else:
            expected = expected_report(item)
            check = (lambda report, expected=expected: checks.check_report(report, expected))
        ops.append(Operation(item.label, lambda argv=argv: _cli_json(argv), check,
                             _report_elements))
    return ops


def build_operations(workload: str, seed: int, workdir: Path) -> list[Operation]:
    if workload == "closure-infinite":
        return closure_operations(seed)
    if workload == "corpus-report":
        return report_operations(inputs.corpus_inputs(seed), workdir)
    if workload == "structure-units":
        return report_operations(inputs.units_inputs(seed), workdir)
    raise SystemExit(f"unknown workload {workload!r}")


def run_workload(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    _import_program()
    OUT_DIR.mkdir(exist_ok=True)
    tracer = None
    if traced:
        from layertrace import Tracer
        tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
        ops = build_operations(workload, seed, Path(tmp))
        attempted = failed = 0
        problems: list[str] = []
        pass_rels: list[tuple[bool, float]] = []
        layer_passes: list[tuple[float, dict]] = []
        min_passes = MIN_TRACED_PASSES if traced else MIN_PASSES
        start = perf_counter()
        passes = 0
        while passes < min_passes or perf_counter() - start < seconds:
            trace_this = traced and passes % 2 == 1
            if trace_this:
                tracer.reset_counts()
                tracer.install()
            pass_rel = pass_wall = 0.0
            for op in ops:
                attempted += 1
                if tracer is not None:
                    tracer.op = f"{passes}:{op.label}"
                ref_before = reference_kernel()
                t0 = perf_counter()
                try:
                    output = op.run()
                except Exception:
                    failed += 1
                    problems.append(f"{op.label}: raised\n{traceback.format_exc()}")
                    continue
                t1 = perf_counter()
                ref_after = reference_kernel()
                wall = t1 - t0
                rel = wall / ((ref_before + ref_after) / 2)
                found = op.check(output)
                if found:
                    failed += 1
                    problems.extend(f"{op.label}: {p}" for p in found)
                    continue
                if not trace_this:
                    op.walls.append(wall)
                    op.rels.append(rel)
                pass_rel += rel
                pass_wall += wall
                op.last_elements = op.elements(output)
            if trace_this:
                tracer.uninstall()
                layer_passes.append((pass_wall, tracer.pass_metrics()))
            pass_rels.append((trace_this, pass_rel))
            passes += 1
    wrong = [p for p in problems if ": raised\n" not in p]
    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "passes": passes,
        "problems": problems[:20],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    timed = [op for op in ops if op.rels]
    if timed:
        result["op_rel_p50"] = statistics.median(r for op in timed for r in op.rels)
        result["pass_rel"] = sum(statistics.median(op.rels) for op in timed)
        result["raw"] = {
            "pass_s": sum(statistics.median(op.walls) for op in timed),
            "op_ms_p50": 1e3 * statistics.median(w for op in timed for w in op.walls),
            "us_per_element": 1e6 * sum(statistics.median(op.walls) for op in timed)
            / max(1, sum(op.last_elements for op in timed)),
            "ops": {op.label: {"s": statistics.median(op.walls),
                               "rel": statistics.median(op.rels)} for op in timed},
        }
    if traced and layer_passes:
        names = layer_passes[0][1]
        result["layers"] = {name: statistics.median(p[name] for _, p in layer_passes)
                            for name in names}
        result["layer_shares"] = {
            name: statistics.median(p[name] / wall for wall, p in layer_passes)
            for name in names if name.rsplit(".", 1)[-1] in ("s", "self_s")}
        plain = [r for t, r in pass_rels if not t]
        with_trace = [r for t, r in pass_rels if t]
        if plain and with_trace:
            result["trace_overhead"] = statistics.median(with_trace) / statistics.median(plain) - 1.0
        spans = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl"
        tracer.write_spans(spans)
        result["spans_file"] = str(spans.relative_to(ROOT))
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    sys.stdout.write(json.dumps(result) + "\n")
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
