"""Output checks: compare what the program returned with the answers of
oracle.py.  Each check returns a list of problems; an empty list passes.

The checks read only public fields of the program's results (a closure's
status, limit, words and matrices; a report's JSON) and replay matrices
with plain numpy, so they do not depend on how the program computes.
"""

from __future__ import annotations

import numpy as np

from oracle import GOLDEN_ATOM_RANKS, GOLDEN_DEFECT, free_group_census

EQ_TOL = 1e-8          # the program's default eq_tol, used for replays
GOLDEN_DEFECT_TOL = 1e-6
REPLAY_SAMPLE = 32


def _lookup(report: dict, path: str):
    node = report
    for key in path.split("."):
        if not isinstance(node, dict) or key not in node:
            return None
        node = node[key]
    return node


def check_report(report: dict, expected: dict) -> list[str]:
    """Every expected field must be present with exactly the expected value;
    a field expected as None must be absent or null."""
    problems = []
    for path, want in expected.items():
        got = _lookup(report, path)
        if got != want:
            problems.append(f"{path}: expected {want!r}, got {got!r}")
    return problems


def _replay(named: dict, word) -> np.ndarray:
    dim = next(iter(named.values())).shape[0]
    out = np.eye(dim, dtype=complex)
    for letter in word:
        if letter.endswith("*"):
            out = out @ named[letter[:-1]].conj().T
        else:
            out = out @ named[letter]
    return out


def check_golden(report: dict, named) -> list[str]:
    """The 8x8 counterexample: the selfadjoint closure fails, the witness
    replays to an idempotency defect of 1/4 in operator norm, and the atoms
    of the final projections have ranks {5, 1, 1, 1}."""
    problems = check_report(report, {"status": "failure",
                                     "certificate.verdict": "NotExtendable"})
    ranks = _lookup(report, "atoms.ranks")
    if ranks is None or sorted(ranks, reverse=True) != GOLDEN_ATOM_RANKS:
        problems.append(f"atoms.ranks: expected {GOLDEN_ATOM_RANKS}, got {ranks!r}")
    word = report.get("witness_word")
    if not word:
        return problems + ["witness_word missing"]
    try:
        v = _replay(dict(named), word)
    except KeyError as err:
        return problems + [f"witness word uses unknown letter {err}"]
    p = v.conj().T @ v
    defect = float(np.linalg.norm(p @ p - p, 2))
    if abs(defect - GOLDEN_DEFECT) > GOLDEN_DEFECT_TOL:
        problems.append(f"witness replays to defect {defect!r}, expected {GOLDEN_DEFECT}")
    return problems


def check_infinite_closure(result, named, max_elements: int,
                           rng: np.random.Generator) -> list[str]:
    """Closure of two generic unitaries and their adjoints: truncated at
    exactly max_elements; every word reduced and distinct; the free-group
    census per length; a sample of elements replays to unitaries equal to
    the stored matrices within eq_tol."""
    problems = []
    if result.status != "truncated" or result.limit_hit != "max_elements":
        problems.append(f"status {result.status}/{result.limit_hit}, "
                        f"expected truncated/max_elements")
    if len(result.elements) != max_elements:
        problems.append(f"{len(result.elements)} elements, expected {max_elements}")
    words = [tuple(e.word) for e in result.elements]
    if len(set(words)) != len(words):
        problems.append("a word is retained twice")
    for word in words:
        for x, y in zip(word, word[1:]):
            if x == y + "*" or y == x + "*":
                problems.append(f"word {'.'.join(word)} is not reduced")
                break
        if len(problems) > 8:
            return problems
    census: dict[int, int] = {}
    for word in words:
        census[len(word)] = census.get(len(word), 0) + 1
    expected = free_group_census(max_elements)
    if census != expected:
        problems.append(f"census {census}, expected {expected}")
    named = dict(named)
    picks = rng.choice(len(result.elements),
                       size=min(REPLAY_SAMPLE, len(result.elements)), replace=False)
    for i in sorted(int(k) for k in picks):
        elem = result.elements[i]
        mat = np.asarray(elem.matrix)
        replay = _replay(named, elem.word)
        scale = max(1.0, float(np.linalg.norm(mat)), float(np.linalg.norm(replay)))
        if np.linalg.norm(replay - mat) > EQ_TOL * scale:
            problems.append(f"element {i} does not match its word's replay")
        gram = replay.conj().T @ replay
        if np.linalg.norm(gram - np.eye(gram.shape[0])) > EQ_TOL * scale:
            problems.append(f"replay of element {i} is not unitary")
    return problems
