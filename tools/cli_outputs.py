"""Write the command line's stdout, stderr and exit code for every command on
a fixed set of inputs, one file per run, so that two versions of the program
can be compared with one `diff -r`:

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR

The inputs are the shipped fixtures and tables, the benchmark's corpus and
units inputs for seeds 1-3 (built by perfbench/inputs.py, which is imported
without writing anything next to it), pairs of projections on either side
of the tolerances (also with a tolerance in the file), generator and table
files with badly typed fields, and a generator named "0" next to
include_zero.  Each input is written to OUTDIR/inputs/ and every run reads
it from there by a relative path, so no output depends on where OUTDIR is.
Generator files run every generator command in json and text format, tables
run `barnes`.  The fixtures and the near-threshold pairs also run with
`--tol 1e-6`, and the pairs that carry a tolerance also with `--tol 1e-8`,
which covers the flag > file > default rule for the tolerance.

Runs are in-process, through `pisomlab.cli.main`; an exception that escapes
it (exit 1 and a traceback at the command line) is recorded as exit 1 with
its type and message.
"""

from __future__ import annotations

import contextlib
import importlib.util
import io
import json
import os
import pathlib
import sys

import numpy as np

from pisomlab.cli import COMMANDS, main

ROOT = pathlib.Path(__file__).resolve().parent.parent
SEEDS = (1, 2, 3)
FORMATS = ("json", "text")
GENERATOR_COMMANDS = tuple(c for c in COMMANDS if c != "barnes")


def load_bench_inputs():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def projection_onto(v) -> np.ndarray:
    v = np.asarray(v, dtype=float) / np.linalg.norm(v)
    return np.outer(v, v)


def near_threshold_inputs() -> dict[str, dict]:
    """A = diag(1,1,0), B onto (1,0,eps); A = diag(1,0,0), B onto (1,d,0)."""
    pairs = [(f"near-110-{eps:g}", np.diag([1.0, 1.0, 0.0]), projection_onto([1.0, 0.0, eps]))
             for eps in (1e-9, 2e-9, 5e-9, 1e-8, 1e-7)]
    pairs += [(f"near-100-{d:g}", np.diag([1.0, 0.0, 0.0]), projection_onto([1.0, d, 0.0]))
              for d in (1e-7, 1e-4)]
    return {label: {"dim": 3, "generators": [{"name": "A", "matrix": a.tolist()},
                                              {"name": "B", "matrix": b.tolist()}]}
            for label, a, b in pairs}


def file_tolerance_inputs() -> dict[str, dict]:
    """The near-threshold pairs with a tolerance of 1e-6 in the file."""
    return {f"{label}-file-tol": {**doc, "tolerance": 1e-6}
            for label, doc in near_threshold_inputs().items()}


def zero_name_input() -> dict[str, dict]:
    """A generator named "0" while include_zero adjoins the zero matrix."""
    return {"schema-zero-name": {"dim": 2, "include_zero": True, "generators": [
        {"name": "0", "matrix": [[0, 1], [1, 0]]}, {"name": "A", "matrix": [[0, 0], [1, 0]]}]}}


def badly_typed_tables() -> dict[str, dict]:
    """Table files with a wrongly typed or unknown field, and two with names
    that would collide as generator names."""
    base = {"n": 2, "mult": [[0, 0], [0, 1]], "star": [0, 1]}
    changes = {
        "mult-null": {"mult": None},
        "n-float": {"n": 2.7},
        "n-true": {"n": True, "mult": [[0]], "star": [0]},
        "mult-float": {"mult": [[0, 0], [0, 1.9]]},
        "star-float": {"star": [0.4, 1.2]},
        "mult-bool": {"mult": [[False, False], [False, True]]},
        "mult-string": {"mult": [["0", "0"], ["0", "1"]]},
        "names-ints": {"names": [1, 2]},
        "names-string": {"names": "ab"},
        "names-star": {"names": ["a*", "a'"]},
        "names-empty": {"names": ["", "s0"]},
        "unknown-field": {"extra": 1},
    }
    return {f"schema-table-{label}": {**base, **change} for label, change in changes.items()}


def badly_typed_inputs() -> dict[str, dict]:
    """Generator files whose dim, limit or tolerance field has the wrong JSON type."""
    base = {"dim": 2, "generators": [{"name": "A", "matrix": [[1, 0], [0, 0]]}]}
    out = {"schema-dim-true": {**base, "dim": True}}
    for label, value in (("null", None), ("list", [3]), ("float", 2.5),
                         ("true", True), ("string", "7")):
        out[f"schema-max-elements-{label}"] = {**base, "limits": {"max_elements": value}}
    for label, value in (("null", None), ("string", "1e-6")):
        out[f"schema-eq-tol-{label}"] = {**base, "tolerance": {"eq_tol": value}}
    return out


def collect_inputs() -> tuple[dict[str, dict], dict[str, dict]]:
    """-> (generator files, table files), each label -> JSON document."""
    gens, tables = {}, {}
    for path in sorted((ROOT / "fixtures").glob("*.json")):
        gens[f"fixture-{path.stem}"] = json.loads(path.read_text())
    for path in sorted((ROOT / "fixtures" / "tables").glob("*.json")):
        tables[f"table-{path.stem}"] = json.loads(path.read_text())
    bench = load_bench_inputs()
    for seed in SEEDS:
        for item in bench.corpus_inputs(seed) + bench.units_inputs(seed):
            target = tables if item.kind == "barnes" else gens
            target[f"bench-s{seed}-{item.label}"] = item.document
    gens.update(near_threshold_inputs())
    gens.update(file_tolerance_inputs())
    gens.update(badly_typed_inputs())
    gens.update(zero_name_input())
    tables.update(badly_typed_tables())
    return gens, tables


def tol_values(label: str) -> tuple[str, ...]:
    """The --tol values an input also runs with."""
    if label.endswith("-file-tol"):
        return ("1e-6", "1e-8")
    if label.startswith(("fixture-", "near-")):
        return ("1e-6",)
    return ()


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except Exception as exc:  # the command line would exit 1 here
            code = 1
            print(f"uncaught {type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def write_outputs(outdir: pathlib.Path) -> int:
    if outdir.exists() and any(outdir.iterdir()):
        sys.exit(f"{outdir} is not empty")
    gens, tables = collect_inputs()
    (outdir / "inputs").mkdir(parents=True)
    (outdir / "runs").mkdir()
    os.chdir(outdir)
    for label, doc in {**gens, **tables}.items():
        pathlib.Path("inputs", f"{label}.json").write_text(json.dumps(doc))
    runs = [(label, command, tol) for label in gens for command in GENERATOR_COMMANDS
            for tol in (None, *tol_values(label))]
    runs += [(label, "barnes", None) for label in tables]
    for label, command, tol in runs:
        flags, suffix = ([], "") if tol is None else (["--tol", tol], f"__tol{tol}")
        for fmt in FORMATS:
            code, out, err = run_cli([command, f"inputs/{label}.json", "--format", fmt, *flags])
            pathlib.Path("runs", f"{label}__{command}{suffix}__{fmt}.txt").write_text(
                f"exit: {code}\n--- stdout\n{out}--- stderr\n{err}")
    return len(runs) * len(FORMATS)


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit("usage: tools/cli_outputs.py OUTDIR")
    count = write_outputs(pathlib.Path(sys.argv[1]).resolve())
    print(f"{count} runs written to {sys.argv[1]}")
