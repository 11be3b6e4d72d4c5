"""Write the command line's stdout, stderr and exit code for every command on
a fixed set of inputs, one file per run, so that two versions of the program
can be compared with one `diff -r`:

    PYTHONPATH=src python tools/cli_outputs.py OUTDIR

The inputs are the shipped fixtures and tables, the benchmark's corpus and
units inputs for seeds 1-3 (built by perfbench/inputs.py, which is imported
without writing anything next to it), pairs of projections on either side
of the tolerances (also with a tolerance in the file), inputs whose atoms
are split in a later cell of a later member's split, the fixtures, those
pairs and those inputs under file tolerances whose eq_tol and proj_tol lie
a factor 1000 apart either way, generator and table
files with badly typed fields, a generator file and a table file that are
not UTF-8 text, a generator file and a table file whose arrays nest 100,000
deep, past the interpreter's recursion limit, a generator named "0" next to
include_zero, a generator that is no partial isometry, generator files with
an entry that is not finite or whose partial isometry defect overflows,
E12 with an eq_tol of 1e-20 and 1e-300 (run by `closure` and `report`
only), the benchmark's generic unitary pairs at n = 2 and 4
(seed 1) and seeded generic unitary pairs at n = 3 and 5, whose closures
are infinite, cyclic matrix units at n = 16 and 20, plain and conjugated by
a seeded signed permutation, with the benchmark's limits, and a late
failure at n = 24: the cyclic shift, E_11 and the projection onto
(e_9 + e_17)/sqrt(2), whose closures fail at P.S^8.Q after their stores
have grown past the elements they keep.
Each input is written to OUTDIR/inputs/ and every run reads it from there
by a relative path, so no output depends on where OUTDIR is.
Generator files run every generator command in json and text format, tables
run `barnes`.  The fixtures and the near-threshold pairs also run with
`--tol 1e-6`, and the pairs that carry a tolerance also with `--tol 1e-8`,
which covers the flag > file > default rule for the tolerance.  The unitary
pairs run only with `--max-elements 301` and `2000`, limits that cut a BFS
level and one of its chunks, so the truncation point is compared too.  The
golden fixture also runs `report --seed -1`, an input error, and `closure`,
`extend` and `report` with `--max-elements 19`, `20` and `21`: its
selfadjoint closure is cut at 19 elements, fails at C.B*.A, element 20 and
the first past the limit, and fails there again inside the limit.

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
LARGE_UNITS = (16, 20)
# generic unitary pairs beside the benchmark's n = 2 and 4: product
# dimensions that are not multiples of 4
ODD_UNITARY_DIMS = (3, 5)
TINY_TOL = "tiny-eq-tol-"
# file tolerances that separate the equality scale from the projection scale
MIXED_TOLS = ({"eq_tol": 1e-6, "proj_tol": 1e-9}, {"eq_tol": 1e-9, "proj_tol": 1e-6})
NESTED_DEPTH = 100_000


def load_bench_inputs():
    sys.dont_write_bytecode = True
    spec = importlib.util.spec_from_file_location("bench_inputs",
                                                  ROOT / "perfbench" / "inputs.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def unit(v) -> np.ndarray:
    return np.asarray(v, dtype=float) / np.linalg.norm(v)


def projection_onto(v) -> np.ndarray:
    return np.outer(unit(v), unit(v))


def generator_file(*mats) -> dict:
    """A generator file of the matrices, named A, B, C, ..."""
    return {"dim": len(mats[0]), "generators": [{"name": chr(ord("A") + i), "matrix": m.tolist()}
                                                for i, m in enumerate(mats)]}


def near_threshold_inputs() -> dict[str, dict]:
    """A = diag(1,1,0), B onto (1,0,eps); A = diag(1,0,0), B onto (1,d,0),
    where d = 3e-5 and 3e-4 lie just outside the band of the atom split
    (lambda(1 - lambda) = d^2 against proj_tol / 10 and 10 proj_tol); and
    A = e1 e3*, B = v e4* with v onto (1,d,0,0), whose final projections do
    not commute at d = 1e-2 although every product of A and B is 0."""
    pairs = [(f"near-110-{eps:g}", np.diag([1.0, 1.0, 0.0]), projection_onto([1.0, 0.0, eps]))
             for eps in (1e-9, 2e-9, 5e-9, 1e-8, 1e-7)]
    pairs += [(f"near-100-{d:g}", np.diag([1.0, 0.0, 0.0]), projection_onto([1.0, d, 0.0]))
              for d in (1e-7, 3e-5, 1e-4, 3e-4)]
    e = np.eye(4)
    pairs += [(f"near-offdiag-{d:g}", np.outer(e[0], e[2]),
               np.outer(unit([1.0, d, 0.0, 0.0]), e[3])) for d in (1e-4, 1e-2)]
    return {label: generator_file(a, b) for label, a, b in pairs}


def later_cell_inputs() -> dict[str, dict]:
    """Inputs at n = 4 whose atoms are decided in a later cell of a later
    member's split.  A = diag(1,1,0,0), B onto (5e-9,0,1,0) and
    A = diag(1,1,1,0), B onto (0,0,9e-9,1) leave lambda(1 - lambda) of
    about 2.5e-17 and 8.1e-17, far below the band: both give atoms.  A = E_11,
    B = E_22 and C onto (0,1,1e-4,0): C leaks between the second cell, e2,
    and the third, with lambda(1 - lambda) = 1e-8, inside the band
    (IllConditionedSplit, named in cell 1)."""
    e = np.eye(4)
    return {"near-later-cell-ill-conditioned": generator_file(
                np.diag([1.0, 1.0, 0.0, 0.0]), projection_onto([5e-9, 0.0, 1.0, 0.0])),
            "near-later-cell-noncommuting": generator_file(
                np.diag([1.0, 1.0, 1.0, 0.0]), projection_onto([0.0, 0.0, 9e-9, 1.0])),
            "near-later-cell-band": generator_file(
                np.outer(e[0], e[0]), np.outer(e[1], e[1]),
                projection_onto([0.0, 1.0, 1e-4, 0.0]))}


def file_tolerance_inputs() -> dict[str, dict]:
    """The near-threshold pairs with a tolerance of 1e-6 in the file."""
    return {f"{label}-file-tol": {**doc, "tolerance": 1e-6}
            for label, doc in near_threshold_inputs().items()}


def mixed_tolerance_inputs(gens: dict[str, dict]) -> dict[str, dict]:
    """The fixtures, the near-threshold pairs and the later-cell inputs of
    gens under each file tolerance of MIXED_TOLS."""
    return {f"mixed-eq{tol['eq_tol']:g}-proj{tol['proj_tol']:g}-{label}": {**doc, "tolerance": tol}
            for tol in MIXED_TOLS for label, doc in gens.items()
            if label.startswith(("fixture-", "near-"))}


def zero_name_input() -> dict[str, dict]:
    """A generator named "0" while include_zero adjoins the zero matrix."""
    return {"schema-zero-name": {"dim": 2, "include_zero": True, "generators": [
        {"name": "0", "matrix": [[0, 1], [1, 0]]}, {"name": "A", "matrix": [[0, 0], [1, 0]]}]}}


def no_partial_isometry_input() -> dict[str, dict]:
    """A = diag(1, 0) beside B = diag(2, 0), which is no partial isometry."""
    return {"schema-no-partial-isometry": {"dim": 2, "generators": [
        {"name": "A", "matrix": [[1, 0], [0, 0]]}, {"name": "B", "matrix": [[2, 0], [0, 0]]}]}}


def unrepresentable_inputs() -> dict[str, dict]:
    """A generator with an entry of NaN or Infinity (json writes and reads
    both), or of 1e100 or 1e200, which overflow its defect."""
    return {f"entry-{label}": {"dim": 2, "generators": [
        {"name": "A", "matrix": [[0, value], [0, 0]]}]}
        for label, value in (("nan", float("nan")), ("inf", float("inf")),
                             ("1e100", 1e100), ("1e200", 1e200))}


def tiny_tolerance_inputs() -> dict[str, dict]:
    """E12 with an eq_tol far below rounding, which every store scans."""
    return {f"{TINY_TOL}{tol:g}": {"dim": 2, "tolerance": {"eq_tol": tol}, "generators": [
        {"name": "A", "matrix": [[0, 1], [0, 0]]}]} for tol in (1e-20, 1e-300)}


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


def non_utf8_inputs() -> tuple[dict[str, bytes], dict[str, bytes]]:
    """A generator file and a table file with a Latin-1 e-acute in a name,
    a byte that starts no UTF-8 sequence: (generator files, table files)."""
    return ({"encoding-latin1": b'{"dim": 1, "generators": [{"name": "\xe9", "matrix": [[1]]}]}'},
            {"encoding-table-latin1": b'{"n": 1, "mult": [[0]], "star": [0], "names": ["\xe9"]}'})


def nested_inputs() -> tuple[dict[str, bytes], dict[str, bytes]]:
    """A generator file and a table file whose arrays nest NESTED_DEPTH deep,
    which json.dumps cannot write: (generator files, table files)."""
    nested = b"[" * NESTED_DEPTH + b"]" * NESTED_DEPTH
    return ({"nested-generators": b'{"dim": 1, "generators": ' + nested + b"}"},
            {"nested-table": b'{"n": 1, "mult": ' + nested + b', "star": [0]}'})


def large_units_inputs(bench) -> dict[str, dict]:
    """Cyclic units of LARGE_UNITS, plain and conjugated by a signed
    permutation, which keeps every entry exactly 0 or +-1."""
    rng = np.random.default_rng(1)
    out = {}
    for n in LARGE_UNITS:
        named = bench.cyclic_units(n)
        perm = rng.permutation(n)
        w = np.zeros((n, n), dtype=complex)
        w[perm, np.arange(n)] = rng.choice([1.0, -1.0], size=n)
        signed = [(name, w @ m @ w.conj().T) for name, m in named]
        for label, mats in (("plain", named), ("signed", signed)):
            out[f"units-{n}-{label}"] = bench.generator_file(n, mats, (20000, n + 1))
    return out


def odd_unitary_inputs(bench) -> dict[str, dict]:
    """A seeded generic unitary pair at each of ODD_UNITARY_DIMS."""
    out = {}
    for n in ODD_UNITARY_DIMS:
        rng = np.random.default_rng([1, n])
        named = [("a", bench.random_unitary(rng, n)), ("b", bench.random_unitary(rng, n))]
        out[f"unitary-s1-u{n}"] = bench.generator_file(n, named)
    return out


def late_failure_input(bench) -> dict[str, dict]:
    """S: e_i -> e_i+1 at n = 24, P = E_11 and Q onto (e_9 + e_17)/sqrt(2)."""
    n = 24
    v = np.zeros(n)
    v[[8, 16]] = 1 / np.sqrt(2)
    p = np.zeros((n, n))
    p[0, 0] = 1.0
    named = [("S", np.roll(np.eye(n), 1, axis=0)), ("P", p), ("Q", np.outer(v, v))]
    return {"late-failure-24": bench.generator_file(n, named)}


def collect_inputs() -> tuple[dict[str, dict | bytes], dict[str, dict | bytes]]:
    """-> (generator files, table files), each label -> JSON document, or
    the file's bytes where they are no JSON text."""
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
    for item in bench.closure_inputs(1)[:2]:
        gens[f"unitary-s1-{item.label}"] = bench.generator_file(item.dim, item.named)
    gens.update(odd_unitary_inputs(bench))
    gens.update(large_units_inputs(bench))
    gens.update(late_failure_input(bench))
    gens.update(near_threshold_inputs())
    gens.update(later_cell_inputs())
    gens.update(mixed_tolerance_inputs(gens))
    gens.update(file_tolerance_inputs())
    gens.update(badly_typed_inputs())
    gens.update(zero_name_input())
    gens.update(no_partial_isometry_input())
    gens.update(unrepresentable_inputs())
    gens.update(tiny_tolerance_inputs())
    tables.update(badly_typed_tables())
    for raw_gens, raw_tables in (non_utf8_inputs(), nested_inputs()):
        gens.update(raw_gens)
        tables.update(raw_tables)
    return gens, tables


def flag_sets(label: str) -> list[tuple[str, list[str]]]:
    """(file name suffix, flags) of each run of an input."""
    if label.startswith("unitary-"):
        return [(f"__max{n}", ["--max-elements", n]) for n in ("301", "2000")]
    tols: tuple[str, ...] = ()
    if label.endswith("-file-tol"):
        tols = ("1e-6", "1e-8")
    elif label.startswith(("fixture-", "near-")):
        tols = ("1e-6",)
    return [("", [])] + [(f"__tol{tol}", ["--tol", tol]) for tol in tols]


def commands(label: str) -> tuple[str, ...]:
    """The commands that run an input."""
    return ("closure", "report") if label.startswith(TINY_TOL) else GENERATOR_COMMANDS


SEED_RUN = ("fixture-example-1-3", "report", "__seed-1", ["--seed", "-1"])
# limits just below, at and above the golden fixture's failing element
LIMIT_RUNS = [("fixture-example-1-3", command, f"__max{n}", ["--max-elements", str(n)])
              for command in ("closure", "extend", "report") for n in (19, 20, 21)]


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
        data = doc if isinstance(doc, bytes) else json.dumps(doc).encode()
        pathlib.Path("inputs", f"{label}.json").write_bytes(data)
    runs = [(label, command, suffix, flags) for label in gens for command in commands(label)
            for suffix, flags in flag_sets(label)]
    runs += [(label, "barnes", "", []) for label in tables]
    runs += [SEED_RUN, *LIMIT_RUNS]
    for label, command, suffix, flags in runs:
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
