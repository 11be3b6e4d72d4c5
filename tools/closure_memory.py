"""Memory of the closure and cost of `report` on cyclic matrix units.

    PYTHONPATH=src python tools/closure_memory.py

The generators are E_{i,i+1} (i < n) and E_{n,1} at n = 16, 24 and 32, with
the word limit n + 1, so the closure is every matrix unit together with I
and 0.  For each n the script prints

- the wall time of `pisomlab report` on these generators and the peak RSS
  of its process, for RUNS runs, each in a fresh Python process;
- the memory that tracemalloc counts as held after the base closure
  (`close`, which validates every element it keeps), its peak during the
  closure, and the bytes of the element matrices and of the store's buffer;
- the median over RUNS runs of the wall time of the base closure
  (`close`), of the selfadjoint closure (`selfadjoint_closure`, which
  `report` runs too; cyclic units are *-closed, so it finds nothing new),
  and of `family_projections`, `boolean_atoms` of its Q family and then
  `brandt_structure` (which reuses the families) on the base closure, each
  run on a fresh closure, since a closure keeps its families once built:
  where `report` spends its time;
- the median over RUNS runs of the wall time of `is_irreducible` on cyclic
  units of size n/2 tensored with I_2, and its tracemalloc peak in one more
  run.  Every eigenvalue of a combination of these generators is double, so
  Norton's test finds no simple one and the span of words in C^(n^2) is
  grown; it has dimension (n/2)^2.  The witness is not read;
- at n = 2 and 4, the median over RUNS runs of the wall time per element of
  the default-limit selfadjoint closure of a seeded pair of generic
  unitaries, each run a fresh closure.  The semigroup is infinite, so every
  closure stops at the 20000-element limit;
- the median over RUNS runs of the wall time of `barnes_representation` on
  the symmetric inverse semigroup I_3 (n = 34), and then of the `barnes`
  command on fixtures/tables/i3.json, which adds the injectivity check and
  the selfadjoint closure of the images.

The time is taken around `pisomlab.cli.main` inside that process, so it
leaves out interpreter start-up and imports; the RSS includes them.  The
report runs come first: on Linux a child's peak RSS starts from the RSS of
the process that started it, which the closures below would raise.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np

from pisomlab.cli import main as cli_main
from pisomlab.invsg import barnes_representation, symmetric_inverse_table
from pisomlab.jsonio import matrix_to_json
from pisomlab.projlat import boolean_atoms
from pisomlab.sgroup import (Limits, brandt_structure, close, family_projections, generator_set,
                             is_irreducible, selfadjoint_closure)

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIZES = (16, 24, 32)
UNITARY_SIZES = (2, 4)
RUNS = 3
MB = 1e6

REPORT = """
import contextlib, io, resource, sys, time
from pisomlab.cli import main
start = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = main(["report", sys.argv[1], "--format", "json"])
wall = time.perf_counter() - start
print(code, wall, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
"""


def cyclic_units(n: int) -> list[tuple[str, np.ndarray]]:
    named = []
    for i in range(n):
        mat = np.zeros((n, n), dtype=complex)
        mat[i, (i + 1) % n] = 1.0
        named.append((f"E{i + 1}_{(i + 1) % n + 1}", mat))
    return named


def closure_memory(n: int) -> str:
    gens = generator_set(cyclic_units(n), dim=n)
    tracemalloc.start()
    try:
        result = close(gens, Limits(20000, n + 1))
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    matrices = len(result) * n * n * 16
    return (f"n={n}: {len(result)} elements, held {held / MB:.1f} MB, peak {peak / MB:.1f} MB, "
            f"matrices {matrices / MB:.1f} MB, store buffer {result.store._buf.nbytes / MB:.1f} MB")


def stage_times(n: int) -> str:
    gens = generator_set(cyclic_units(n), dim=n)
    limits = Limits(20000, n + 1)
    stages = {"close": [], "selfadjoint_closure": [], "family_projections": [],
              "boolean_atoms": [], "brandt_structure": []}
    for _ in range(RUNS):
        marks = [time.perf_counter()]
        result = close(gens, limits)
        marks.append(time.perf_counter())
        selfadjoint_closure(gens, limits)
        marks.append(time.perf_counter())
        q_set = family_projections(result).q_set
        marks.append(time.perf_counter())
        boolean_atoms(q_set)
        marks.append(time.perf_counter())
        brandt_structure(result)
        marks.append(time.perf_counter())
        for times, start, end in zip(stages.values(), marks, marks[1:]):
            times.append(end - start)
    return f"n={n}: " + ", ".join(f"{name} {statistics.median(times) * 1e3:.0f} ms"
                                  for name, times in stages.items()) + f" (median of {RUNS})"


def irreducible_runs(n: int) -> str:
    named = [(name, np.kron(mat, np.eye(2))) for name, mat in cyclic_units(n // 2)]
    gens = generator_set(named, dim=n)
    times = []
    for _ in range(RUNS):
        start = time.perf_counter()
        span_dim = is_irreducible(gens).span_dim
        times.append(time.perf_counter() - start)
    tracemalloc.start()
    try:
        is_irreducible(gens)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (f"n={n}: is_irreducible on units (x) I_2, span_dim {span_dim}: "
            f"{statistics.median(times) * 1e3:.0f} ms (median of {RUNS}), "
            f"tracemalloc peak {peak / MB:.2f} MB")


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """A Haar-random n x n unitary: Q of a complex Gaussian, column phases
    fixed by R's diagonal."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
    return q * (np.diagonal(r) / np.abs(np.diagonal(r)))


def unitary_closure_runs(n: int) -> str:
    rng = np.random.default_rng(n)
    gens = generator_set([("U", random_unitary(rng, n)), ("V", random_unitary(rng, n))], dim=n)
    per_element = []
    for _ in range(RUNS):
        start = time.perf_counter()
        result = selfadjoint_closure(gens)
        per_element.append((time.perf_counter() - start) / len(result))
    return (f"n={n}: selfadjoint closure of two generic unitaries, {len(result)} elements "
            f"({result.status}): {statistics.median(per_element) * 1e6:.1f} µs per element "
            f"(median of {RUNS})")


def barnes_runs() -> str:
    table = symmetric_inverse_table(3)
    path = ROOT / "fixtures" / "tables" / "i3.json"
    representation, command = [], []
    for _ in range(RUNS):
        start = time.perf_counter()
        barnes_representation(table)
        middle = time.perf_counter()
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli_main(["barnes", str(path), "--format", "json"])
        command.append(time.perf_counter() - middle)
        representation.append(middle - start)
        if code != 0:
            raise RuntimeError(f"barnes exited with {code}")
    return (f"I_3 (n={table.n}): barnes_representation "
            f"{statistics.median(representation) * 1e3:.1f} ms, barnes command "
            f"{statistics.median(command) * 1e3:.0f} ms (median of {RUNS})")


def report_runs(n: int, workdir: pathlib.Path) -> str:
    path = workdir / f"units-{n}.json"
    document = {"dim": n,
                "generators": [{"name": name, "matrix": matrix_to_json(mat)}
                               for name, mat in cyclic_units(n)],
                "limits": {"max_elements": 20000, "max_word_length": n + 1}}
    path.write_text(json.dumps(document))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    runs = []
    for _ in range(RUNS):
        out = subprocess.run([sys.executable, "-c", REPORT, str(path)], env=env,
                             capture_output=True, text=True, check=True).stdout.split()
        if out[0] != "0":
            raise RuntimeError(f"report exited with {out[0]} at n={n}")
        runs.append(f"{float(out[1]):.2f} s / {float(out[2]):.0f} MB")
    return f"n={n}: report " + ", ".join(runs)


def main() -> None:
    with tempfile.TemporaryDirectory() as workdir:
        for n in SIZES:
            print(report_runs(n, pathlib.Path(workdir)), flush=True)
    for n in SIZES:
        print(closure_memory(n), flush=True)
    for n in SIZES:
        print(stage_times(n), flush=True)
    for n in SIZES:
        print(irreducible_runs(n), flush=True)
    for n in UNITARY_SIZES:
        print(unitary_closure_runs(n), flush=True)
    print(barnes_runs(), flush=True)


if __name__ == "__main__":
    main()
