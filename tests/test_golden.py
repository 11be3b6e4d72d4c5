"""Golden CLI snapshots: the output of every command on every shipped fixture.

Key order and every non-float value must match exactly; floats may differ by
at most 1e-12.  Regenerate the snapshots (only when an output change is
intended) with

    PYTHONPATH=src python tests/test_golden.py
"""

import contextlib
import io
import json
import pathlib
import re
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = ROOT / "fixtures"
GOLDEN = ROOT / "tests" / "golden"
FLOAT_TOL = 1e-12

GENERATOR_COMMANDS = ("check", "closure", "extend", "atoms", "multiplicity",
                      "decompose", "brandt", "report")
FLOAT = re.compile(r"(?<![\w.])-?(?:\d+\.\d*(?:e[-+]?\d+)?|\d+e[-+]?\d+|nan|inf)(?![\w.])")


def _cases() -> list[tuple[list[str], str]]:
    """(argv, snapshot file name) for every snapshot."""
    cases = []
    for path in sorted(FIXTURES.glob("*.json")):
        for command in GENERATOR_COMMANDS:
            cases.append(([command, str(path), "--format", "json"],
                          f"{command}__{path.stem}.json"))
    for path in sorted((FIXTURES / "tables").glob("*.json")):
        cases.append((["barnes", str(path), "--format", "json"],
                      f"barnes__{path.stem}.json"))
    cases.append((["report", str(FIXTURES / "example-1-3.json"), "--format", "text"],
                  "report__example-1-3.txt"))
    return cases


def _run_cli(argv: list[str]) -> tuple[int, str]:
    from pisomlab.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def _same_json(got, want, where: str = "$") -> None:
    if isinstance(want, dict):
        assert isinstance(got, dict), where
        assert list(got) == list(want), f"{where}: keys {list(got)} != {list(want)}"
        for key in want:
            _same_json(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _same_json(g, w, f"{where}[{i}]")
    elif isinstance(want, float):
        assert type(got) is float, f"{where}: {got!r} is not a float"
        assert abs(got - want) <= FLOAT_TOL, f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


def _same_text(got: str, want: str) -> None:
    got_lines, want_lines = got.splitlines(), want.splitlines()
    assert len(got_lines) == len(want_lines)
    for g, w in zip(got_lines, want_lines):
        assert FLOAT.sub("#", g) == FLOAT.sub("#", w), f"{g!r} != {w!r}"
        for a, b in zip(FLOAT.findall(g), FLOAT.findall(w)):
            assert abs(float(a) - float(b)) <= FLOAT_TOL, f"{g!r} != {w!r}"


@pytest.mark.parametrize("argv,name", _cases(), ids=[name for _, name in _cases()])
def test_cli_output_matches_snapshot(argv, name):
    code, out = _run_cli(argv)
    assert code == 0
    want = (GOLDEN / name).read_text()
    if name.endswith(".json"):
        _same_json(json.loads(out), json.loads(want))
    else:
        _same_text(out, want)


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for argv, name in _cases():
        code, out = _run_cli(argv)
        if code != 0:
            sys.exit(f"pisomlab {' '.join(argv)} exited {code}")
        (GOLDEN / name).write_text(out)
        print(name)
