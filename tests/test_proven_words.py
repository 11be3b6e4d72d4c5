"""numlin.proven_word_length: every defect that the partial-isometry rule
forms on a word within the proven length lies below the bound, and close
returns the same stores, words, statuses and witnesses whether it skips the
proven words or tests them."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab import sgroup
from pisomlab.numlin import (
    DEFAULT_TOL,
    ToleranceConfig,
    _letter_defect,
    _squared_norms,
    _word_defect_bound,
    partial_isometry_rule,
    proven_word_length,
)
from pisomlab.sgroup import (
    CLOSED,
    FAILURE,
    TRUNCATED,
    Limits,
    adjoint_generator_set,
    close,
    generator_set,
    selfadjoint_closure,
)
from conftest import golden_generators
from factories import random_unitary

WORD_LIMIT = 12
CFGS = tuple(ToleranceConfig(proj_tol=tol) for tol in (1e-8, 1e-6, 1e-12, 1e-14))


def rule_defects(v: np.ndarray) -> np.ndarray:
    """The square roots of the three squared norms that partial_isometry_rule
    compares for v, formed as it forms them."""
    ms = v[None]
    p = ms.conj().transpose(0, 2, 1) @ ms
    d = np.conj(p, order="C")
    d -= p.transpose(0, 2, 1)
    hermiticity = _squared_norms(d)[0]
    np.matmul(p, p, out=d)
    d -= p
    idempotency = _squared_norms(d)[0]
    d = ms @ p
    d -= ms
    return np.sqrt([hermiticity, idempotency, _squared_norms(d)[0]])


def letters_of(rng, n: int, count: int, kind: str, eta: float) -> np.ndarray:
    """count unitaries, each kept, scaled by 1 + eta, or moved by a random
    matrix of norm eta."""
    out = []
    for _ in range(count):
        u = random_unitary(rng, n)
        if kind == "scaled":
            u = (1.0 + eta) * u
        elif kind == "moved":
            e = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
            u = u + eta * e / np.linalg.norm(e)
        out.append(u)
    return np.array(out)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), count=st.integers(1, 3),
       kind=st.sampled_from(("unitary", "scaled", "moved")),
       eta=st.floats(1e-15, 1e-9), cfg=st.sampled_from(CFGS))
def test_every_defect_of_a_proven_word_lies_below_the_bound(seed, n, count, kind, eta, cfg):
    rng = np.random.default_rng(seed)
    letters = letters_of(rng, n, count, kind, eta)
    proven = proven_word_length(letters, cfg, WORD_LIMIT)
    if kind == "unitary" and cfg == DEFAULT_TOL:
        assert proven == WORD_LIMIT
    delta = _letter_defect(letters)
    assert 0.0 <= proven <= WORD_LIMIT
    assert proven == WORD_LIMIT or _word_defect_bound(proven + 1, n, delta) > cfg.proj_tol
    # random words, each product a stored parent times a letter, as a
    # closure forms it
    for _ in range(3):
        v = letters[rng.integers(count)]
        for k in range(1, proven + 1):
            bound = _word_defect_bound(k, n, delta)
            assert bound <= cfg.proj_tol
            assert (rule_defects(v) <= bound).all(), (k, rule_defects(v), bound)
            assert partial_isometry_rule(v[None], cfg)[0][0]
            v = v @ letters[rng.integers(count)]


def test_letters_that_are_not_unitary_prove_nothing():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 3)
    projection = np.diag([1.0, 1.0, 0.0]).astype(complex)
    assert proven_word_length(np.array([u]), DEFAULT_TOL, 16) == 16
    for other in (projection, np.zeros((3, 3), dtype=complex), (1.0 + 1e-6) * u):
        assert proven_word_length(np.array([u, other]), DEFAULT_TOL, 16) == 0
    # no letters: no word to prove wrong
    assert proven_word_length(np.zeros((0, 3, 3), dtype=complex), DEFAULT_TOL, 16) == 16
    # a word limit far past the proof: the bound grows past every proj_tol
    # without overflowing
    wide = ToleranceConfig(proj_tol=1e-2)
    assert 0 < proven_word_length(np.array([(1.0 + 1e-4) * u]), wide, 10 ** 9) < 100


def chain_gens() -> sgroup.GeneratorSet:
    """One letter A = (1 + eta) U, eta = 1.96e-10: A^k has the idempotency
    defect about 2k eta ||P||, against proj_tol ||P||, so its powers pass
    the rule up to A^25 and fail at A^26, each 2% from the threshold, while
    the bound proves only the first few."""
    u = random_unitary(np.random.default_rng(11), 2)
    return generator_set([("A", (1.0 + 1.96e-10) * u)])


def closures():
    """(label, run) pairs: closures of unitary, near-unitary and other letters."""
    rng = np.random.default_rng(5)
    u, v = random_unitary(rng, 2), random_unitary(rng, 2)
    pair = generator_set([("U", u), ("V", v)])
    order5 = np.diag(np.exp(2j * np.pi * np.array([1, 2]) / 5))
    w = random_unitary(rng, 2)
    cyclic = generator_set([("R", (1.0 + 1e-9) * w @ order5 @ w.conj().T)])
    golden = generator_set(list(zip("ABC", golden_generators())))
    zero = generator_set([("U", u)], include_zero=True)
    return [("pair", lambda: selfadjoint_closure(pair, Limits(3000, 16))),
            ("pair-word-limit", lambda: selfadjoint_closure(pair, Limits(20000, 5))),
            ("chain", lambda: close(chain_gens(), Limits(20000, 40))),
            ("chain-extend", lambda: selfadjoint_closure(chain_gens(), Limits(20000, 40))),
            ("order-5", lambda: close(cyclic)),
            ("golden", lambda: selfadjoint_closure(golden)),
            ("zero", lambda: close(zero, Limits(500, 16)))]


def rule_stacks(monkeypatch) -> list[np.ndarray]:
    """Copies of the stacks that sgroup's partial_isometry_rule is called on."""
    stacks = []
    rule = sgroup.partial_isometry_rule
    monkeypatch.setattr(sgroup, "partial_isometry_rule",
                        lambda ms, cfg: stacks.append(ms.copy()) or rule(ms, cfg))
    return stacks


@pytest.mark.parametrize("label, run", closures())
def test_skipping_proven_words_changes_no_result(label, run, monkeypatch):
    stacks = rule_stacks(monkeypatch)
    got = run()
    proven_rows = sum(map(len, stacks))
    stacks.clear()
    monkeypatch.setattr(sgroup, "proven_word_length", lambda *args: 0)
    want = run()
    assert np.array_equal(got.store.stack(), want.store.stack())
    assert got.store.count == want.store.count
    assert (got.words, got.status, got.limit_hit) == (want.words, want.status, want.limit_hit)
    assert (got.witness_word, got.witness_deviation) == (want.witness_word, want.witness_deviation)
    assert proven_rows <= sum(map(len, stacks))
    if label.startswith("pair"):
        # every word of two unitary letters is proven: the rule runs on none
        assert want.status == TRUNCATED and proven_rows == 0 < sum(map(len, stacks))
    elif label.startswith("chain"):
        assert want.status == FAILURE and len(want.witness_word) == 26
    elif label == "order-5":
        assert want.status == CLOSED and len(want) == 5


def test_the_rule_resumes_past_the_proven_length(monkeypatch):
    gens = chain_gens()
    letters = np.array([m for _, m in gens.named_generators])
    proven = proven_word_length(letters, gens.cfg, 40)
    assert 2 <= proven < 25
    stacks = rule_stacks(monkeypatch)
    got = close(gens, Limits(20000, 40))
    proven_stacks = stacks[:]
    stacks.clear()
    monkeypatch.setattr(sgroup, "proven_word_length", lambda *args: 0)
    want = close(gens, Limits(20000, 40))
    assert got.witness_word == want.witness_word == ("A",) * 26
    assert got.words == want.words == [()] + [("A",) * k for k in range(1, 26)]
    # the rule runs from A^(proven + 1) on, and without the proof from A
    powers = want.store.stack()
    assert np.array_equal(proven_stacks[0][0], powers[proven + 1])
    assert np.array_equal(stacks[0][0], powers[1])
    assert sum(map(len, stacks)) - sum(map(len, proven_stacks)) == proven
    # the selfadjoint closure proves the same length over A and A*
    both = adjoint_generator_set(gens)
    stack = np.array([m for _, m in both.named_generators])
    assert proven_word_length(stack, gens.cfg, 40) == proven
