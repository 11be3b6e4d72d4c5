"""`report` against the benchmark's exact oracle.

Seeded monomial generator sets (partial permutations whose entries are sixth
roots of unity), conjugated by a seeded unitary, run through `report` in
process; perfbench/oracle.py computes the fields the report must hold in
exact arithmetic, and perfbench/checks.py compares them.  Both are imported
by path, without writing bytecode next to them.
"""

import json

import numpy as np
import pytest

from pisomlab.cli import EXIT_OK, main
from factories import bench_module, random_unitary

DRAWS = 100
# (max_elements, max_word_length) choices: about half of the draws close
MAX_ELEMENTS = (200, 500)
MAX_WORD_LENGTH = (8, 16)


oracle = bench_module("oracle")
checks = bench_module("checks")


def monomial_draw(seed: int):
    """-> (n, monomial generators in the oracle's encoding, a unitary to
    conjugate them by, limits): n in 2-10 and 1-4 generators of rank 1-n."""
    rng = np.random.default_rng([seed, 21])
    n = int(rng.integers(2, 11))
    gens = []
    for _ in range(int(rng.integers(1, 5))):
        rank = int(rng.integers(1, n + 1))
        mono = [-1] * n
        for col, row, k in zip(rng.choice(n, rank, replace=False),
                               rng.choice(n, rank, replace=False),
                               rng.integers(0, oracle.PHASES, rank)):
            mono[col] = int(row) * oracle.PHASES + int(k)
        gens.append(tuple(mono))
    w = random_unitary(rng, n)
    limits = (int(rng.choice(MAX_ELEMENTS)), int(rng.choice(MAX_WORD_LENGTH)))
    return n, gens, w, limits


def monomial_matrix(n: int, mono) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for col, entry in enumerate(mono):
        if entry >= 0:
            row, k = divmod(entry, oracle.PHASES)
            out[row, col] = np.exp(2j * np.pi * k / oracle.PHASES)
    return out


@pytest.mark.parametrize("seed", range(DRAWS))
def test_report_agrees_with_exact_oracle(seed, tmp_path, capsys):
    n, gens, w, limits = monomial_draw(seed)
    named = [(f"G{i}", w @ monomial_matrix(n, g) @ w.conj().T) for i, g in enumerate(gens)]
    path = tmp_path / "monomial.json"
    path.write_text(json.dumps({
        "dim": n,
        "generators": [{"name": name, "matrix": [[[z.real, z.imag] for z in row] for row in m]}
                       for name, m in named],
        "limits": {"max_elements": limits[0], "max_word_length": limits[1]}}))
    assert main(["report", str(path), "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert checks.check_report(report, oracle.monomial_report(n, gens, *limits)) == []


def test_draws_mix_closed_and_truncated():
    # the selfadjoint closures of the draws close about as often as they
    # truncate, so both kinds of verdict are compared
    closed = 0
    for seed in range(DRAWS):
        n, gens, _, limits = monomial_draw(seed)
        closed += oracle.exact_closure(n, oracle.with_adjoints(gens), *limits)[1] is None
    assert DRAWS // 3 < closed < DRAWS - DRAWS // 3
