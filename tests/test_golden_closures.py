"""Golden closure snapshots: what `close` and `selfadjoint_closure` retain.

For each closure the snapshot holds the status, the limit that fired, every
element's word, the witness word and its deviation; every element it keeps
is a partial isometry.  Words and statuses must match exactly; deviations
within 1e-6 relative.
The inputs are infinite semigroups cut at a limit, tiny rotations that sit
on the equality tolerance, projection pairs whose products cross the
projection tolerance, matrix units and a conjugated equal-P/Q instance.
Regenerate the snapshot (only when a change of closure output is intended)
with

    PYTHONPATH=src python tests/test_golden_closures.py
"""

import json
import pathlib

import numpy as np
import pytest

from factories import pq_equal_instance, random_unitary
from pisomlab.numlin import ToleranceConfig
from pisomlab.pisom import partial_isometry_rule
from pisomlab.sgroup import Limits, close, generator_set, selfadjoint_closure, word_label

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "closures.json"
REL_TOL = 1e-6

P = np.diag([1.0, 0.0]).astype(complex)
ANGLES = (3e-9, 7e-9, 1.5e-8, 3e-8, 6e-8, 1e-7, 2.5e-7, 5e-7)
OFFSETS = (1e-9, 1e-6, 1e-3, 0.3)
SMALL = Limits(500, 16)


def rotation(theta: float) -> np.ndarray:
    c, s = np.cos(theta), np.sin(theta)
    return np.array([[c, -s], [s, c]], dtype=complex)


def line_projection(d: float) -> np.ndarray:
    v = np.array([1.0, d]) / np.hypot(1.0, d)
    return np.outer(v, v).astype(complex)


def _unitary_pair(n: int, seed: int):
    rng = np.random.default_rng(seed)
    named = [("U", random_unitary(rng, n)), ("V", random_unitary(rng, n))]
    return selfadjoint_closure(generator_set(named, dim=n), SMALL)


def _conjugated_pq_equal(seed: int):
    n, named = pq_equal_instance(seed)
    w = random_unitary(np.random.default_rng(seed + 100), n)
    conj = [(name, w @ m @ w.conj().T) for name, m in named]
    return selfadjoint_closure(generator_set(conj, dim=n), Limits(250, 8))


def _matrix_units(n: int):
    named = [(f"E{i}{j}", np.eye(n, dtype=complex)[:, [i]] @ np.eye(n)[[j], :])
             for i in range(n) for j in range(n) if i != j]
    return close(generator_set(named, dim=n))


def cases() -> dict:
    """name -> zero-argument builder of one closure."""
    out = {}
    for n in (2, 4):
        for seed in (1, 2):
            out[f"unitary-n{n}-s{seed}"] = lambda n=n, seed=seed: _unitary_pair(n, seed)
    # "-mon" (monitored) names a validated closure, as every closure is
    for theta in ANGLES:
        for eq_tol in (1e-8, 1e-6):
            out[f"rotation-{theta:g}-tol{eq_tol:g}-mon"] = (
                lambda theta=theta, eq_tol=eq_tol: close(
                    generator_set([("R", rotation(theta)), ("P", P)], dim=2,
                                  cfg=ToleranceConfig(eq_tol=eq_tol)), SMALL))
    for d in OFFSETS:
        out[f"pq-{d:g}-mon"] = lambda d=d: close(
            generator_set([("P", P), ("Q", line_projection(d))], dim=2), SMALL)
    out["units-4"] = lambda: _matrix_units(4)
    out["pq-equal-5-conjugated"] = lambda: _conjugated_pq_equal(5)
    return out


def summary(c) -> dict:
    return {
        "status": c.status,
        "limit_hit": c.limit_hit,
        "words": [word_label(e.word) for e in c.elements],
        "witness_word": None if c.witness_word is None else list(c.witness_word),
        "witness_deviation": c.witness_deviation,
    }


def _close_enough(got, want) -> bool:
    if want is None or got is None:
        return got is want
    return abs(got - want) <= REL_TOL * max(abs(want), 1e-300)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_snapshot_covers_every_case(golden):
    assert list(golden) == list(cases())


@pytest.mark.parametrize("name", list(cases()))
def test_closure_matches_snapshot(name, golden):
    got, want = summary(cases()[name]()), golden[name]
    for key in ("status", "limit_hit", "words", "witness_word"):
        assert got[key] == want[key], key
    assert _close_enough(got["witness_deviation"], want["witness_deviation"])


@pytest.mark.parametrize("name", list(cases()))
def test_every_element_is_a_partial_isometry(name):
    c = cases()[name]()
    assert partial_isometry_rule(c.store.stack(), c.cfg)[0].all()


if __name__ == "__main__":
    snapshot = {name: summary(build()) for name, build in cases().items()}
    with open(GOLDEN, "w") as fh:
        fh.write("{\n")
        fh.write(",\n".join(f"{json.dumps(name)}: {json.dumps(entry)}"
                            for name, entry in snapshot.items()))
        fh.write("\n}\n")
    for name, entry in snapshot.items():
        print(f"{name}: {entry['status']} {len(entry['words'])} elements")
