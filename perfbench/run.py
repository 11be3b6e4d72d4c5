"""pisomlab benchmark: one workload per invocation, every metric by name.

    python3 perfbench/run.py --workload closure-infinite --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The program is used from `src/` as it
stands; nothing is installed.  With --trace 0 the last stdout line holds the
end-to-end metrics (setup_s, peak_rss_mb, op_rel_p50, pass_rel); with
--trace 1 it holds the per-layer metrics of BENCHMARK.json.  Raw seconds
and the traced run's layer shares are printed above it; they are not
metrics, because raw times do not repeat on a shared host.

Exit status: 0 when every output passed its check, 1 when one did not
(the result line is still printed), 2 when the program cannot be run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from layertrace import PER_LAYER  # noqa: E402

WORKLOADS = ("closure-infinite", "corpus-report", "structure-units")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0

_IMPORT_SNIPPET = (
    "import time\n"
    "t0 = time.perf_counter()\n"
    "import pisomlab, pisomlab.cli\n"
    "t1 = time.perf_counter()\n"
    "print(repr(t1 - t0), pisomlab.__file__)\n"
)


def child_env() -> dict:
    env = dict(os.environ)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def measure_setup(env: dict) -> list[float]:
    """Wall time of `import pisomlab, pisomlab.cli` in fresh processes; the
    first import writes bytecode caches and is not counted."""
    times = []
    for i in range(SETUP_SAMPLES + 1):
        proc = subprocess.run([sys.executable, "-c", _IMPORT_SNIPPET], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"cannot import pisomlab from src/:\n{proc.stderr.strip()}")
        seconds, where = proc.stdout.split(maxsplit=1)
        if (ROOT / "src" / "pisomlab") not in Path(where.strip()).resolve().parents:
            raise RuntimeError(f"pisomlab was imported from {where.strip()}, not from src/")
        if i:
            times.append(float(seconds))
    return times


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pisomlab benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = monotonic()
    if not (ROOT / "src" / "pisomlab" / "__init__.py").is_file():
        return fail(f"no program source at {ROOT / 'src' / 'pisomlab'}")
    env = child_env()

    setup = None
    if not args.trace:
        try:
            setup = measure_setup(env)
        except (RuntimeError, subprocess.TimeoutExpired) as err:
            return fail(str(err))

    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=max(1.0, DEADLINE_S - (monotonic() - started)))
    except subprocess.TimeoutExpired:
        return fail("the workload did not finish in time")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return fail(f"the workload process exited {proc.returncode}")
    res = json.loads(lines[-1])
    if "op_rel_p50" not in res and not res.get("layers"):
        for problem in res.get("problems", []):
            print(problem, file=sys.stderr)
        return fail("no operation completed")

    for problem in res["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    raw = res.get("raw", {})
    print(f"workload {args.workload} seed {args.seed}: {res['passes']} passes, "
          f"{res['attempted']} operations, {res['failed']} failed")
    if raw:
        print(f"raw: pass_s {raw['pass_s']:.4f}  op_ms_p50 {raw['op_ms_p50']:.3f}  "
              f"us_per_element {raw['us_per_element']:.2f}")
        for label, op in raw["ops"].items():
            print(f"  {label}: {op['s'] * 1e3:.2f} ms  rel {op['rel']:.3f}")
    if setup:
        print("setup_s samples: " + " ".join(f"{t:.4f}" for t in setup))

    if args.trace:
        layers = res["layers"]
        shares = res["layer_shares"]
        for name, value in layers.items():
            share = f"  ({100 * shares[name]:.1f}% of a traced pass)" if name in shares else ""
            print(f"layer {name}: {value:.6g}{share}")
        if "trace_overhead" in res:
            print(f"tracing overhead: {100 * res['trace_overhead']:+.1f}% of a pass")
        print(f"spans written to {res['spans_file']}")
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, (unit, _better) in PER_LAYER.items()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "op_rel_p50": {"value": res["op_rel_p50"], "unit": "ref"},
            "pass_rel": {"value": res["pass_rel"], "unit": "ref"},
        }
    out = {"correct": res["correct"], "attempted": res["attempted"],
           "failed": res["failed"], "metrics": metrics}
    print(json.dumps(out))
    return 0 if res["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
