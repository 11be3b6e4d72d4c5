"""Unit tests for the partial isometry calculus."""

import numpy as np
import pytest

from pisomlab.numlin import approx_equal, range_basis
from pisomlab.pisom import (
    NotPartialIsometry,
    NotPowerPartialIsometry,
    hw_decompose,
    hw_product_test,
    is_power_partial_isometry,
    make_partial_isometry,
    partial_isometry_defect,
    partial_isometry_rule,
)
from conftest import block_diag_matrix, coord_projection, half_projection
from factories import (
    block_diag,
    hw_mixed_operator,
    random_partial_isometry,
    random_unitary,
    truncated_shift,
)


def test_golden_initial_final_projections(golden):
    A, B, C = golden
    E = half_projection()
    F = coord_projection()
    expected = {
        "A": (block_diag_matrix(E, 1), block_diag_matrix(E, 0)),
        "B": (block_diag_matrix(np.eye(2), 3), block_diag_matrix(np.eye(2), 0)),
        "C": (block_diag_matrix(F, 3), block_diag_matrix(F, 2)),
    }
    for name, mat in zip("ABC", (A, B, C)):
        pi = make_partial_isometry(mat)
        p_exp, q_exp = expected[name]
        assert np.max(np.abs(pi.initial - p_exp)) < 1e-12
        assert np.max(np.abs(pi.final - q_exp)) < 1e-12


def test_identity_is_partial_isometry():
    pi = make_partial_isometry(np.eye(4))
    assert np.allclose(pi.initial, np.eye(4))
    assert np.allclose(pi.final, np.eye(4))


def test_zero_is_partial_isometry():
    pi = make_partial_isometry(np.zeros((3, 3)))
    assert np.allclose(pi.initial, 0)


def test_product_of_noncommuting_projections_fails():
    EF = half_projection() @ coord_projection()
    with pytest.raises(NotPartialIsometry) as excinfo:
        make_partial_isometry(EF)
    # (EF)*(EF) = FEF = F/2, whose idempotency defect is F/4: operator norm 1/4
    assert excinfo.value.deviation == pytest.approx(0.25, abs=1e-12)
    assert partial_isometry_defect(EF) == pytest.approx(0.25, abs=1e-12)


def test_adjoint_swaps_projections(golden):
    A, _, _ = golden
    pi = make_partial_isometry(A)
    adj = pi.adjoint()
    assert np.allclose(adj.initial, pi.final)
    assert np.allclose(adj.final, pi.initial)
    make_partial_isometry(adj.matrix)


def test_hw_product_projection_pair():
    E = half_projection()
    F = coord_projection()
    v = make_partial_isometry(E)
    w = make_partial_isometry(F)
    result = hw_product_test(v, w)
    assert not result.is_pi
    assert result.commutator == pytest.approx(1.0 / np.sqrt(2), abs=1e-15)


def test_hw_product_unitaries():
    rng = np.random.default_rng(0)
    v = make_partial_isometry(random_unitary(rng, 4))
    w = make_partial_isometry(random_unitary(rng, 4))
    assert hw_product_test(v, w).is_pi


def test_hw_product_golden_pair(golden):
    A, B, _ = golden
    v = make_partial_isometry(A.conj().T)
    w = make_partial_isometry(B)
    # final of B lives on the first block where the initial of A* acts as E
    result = hw_product_test(v, w)
    assert result.is_pi
    make_partial_isometry(A.conj().T @ B)


def test_power_partial_isometry_examples():
    j3 = make_partial_isometry(truncated_shift(3))
    assert is_power_partial_isometry(j3)

    rng = np.random.default_rng(1)
    u = make_partial_isometry(random_unitary(rng, 4))
    assert is_power_partial_isometry(u)

    # rank one onto a diagonal direction: the square fails
    s = np.zeros((3, 3), dtype=complex)
    s[0, 0] = s[0, 1] = 1.0 / np.sqrt(2)
    pi = make_partial_isometry(s)
    assert not is_power_partial_isometry(pi)
    with pytest.raises(NotPowerPartialIsometry):
        hw_decompose(pi)


def test_hw_decompose_pure_shift():
    dec = hw_decompose(make_partial_isometry(truncated_shift(3)))
    assert dec.unitary_dim == 0
    assert dec.shift_lengths == (3,)
    chain = dec.chains[0].vectors
    assert np.allclose(np.abs(chain), np.eye(3))


def test_hw_decompose_pure_unitary():
    rng = np.random.default_rng(2)
    u = random_unitary(rng, 4)
    dec = hw_decompose(make_partial_isometry(u))
    assert dec.unitary_dim == 4
    assert dec.shift_lengths == ()
    assert approx_equal(dec.reassemble(), u)


def test_hw_decompose_zero():
    dec = hw_decompose(make_partial_isometry(np.zeros((3, 3))))
    assert dec.unitary_dim == 0
    assert dec.shift_lengths == (1, 1, 1)


def test_hw_decompose_conjugated_mixture():
    rng = np.random.default_rng(3)
    v0 = block_diag(random_unitary(rng, 1), truncated_shift(2), truncated_shift(3))
    w = random_unitary(rng, 6)
    v = w @ v0 @ w.conj().T
    dec = hw_decompose(make_partial_isometry(v))
    assert dec.unitary_dim == 1
    assert sorted(dec.shift_lengths) == [2, 3]
    assert np.linalg.norm(dec.reassemble() - v) < 1e-9


@pytest.mark.parametrize("seed", range(12))
def test_hw_decompose_roundtrip_property(seed):
    v, u_dim, lengths = hw_mixed_operator(seed)
    dec = hw_decompose(make_partial_isometry(v))
    assert dec.unitary_dim == u_dim
    assert tuple(sorted(dec.shift_lengths)) == lengths
    assert np.linalg.norm(dec.reassemble() - v) < 1e-9


def test_hw_decomposition_basis_is_orthonormal():
    # unitary subspace and all chain vectors together form an orthonormal
    # system, and the unitary restriction is two-sided unitary
    for seed in (0, 4, 9):
        v, _, _ = hw_mixed_operator(seed)
        dec = hw_decompose(make_partial_isometry(v))
        columns = [dec.unitary_subspace.basis] + [c.vectors for c in dec.chains]
        stacked = np.hstack([c for c in columns if c.shape[1]])
        gram = stacked.conj().T @ stacked
        assert np.linalg.norm(gram - np.eye(gram.shape[0])) < 1e-10
        u = dec.unitary_matrix
        if u.shape[0]:
            assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0])) < 1e-10
            assert np.linalg.norm(u @ u.conj().T - np.eye(u.shape[0])) < 1e-10


def test_shift_lengths_invariant_under_conjugation():
    rng = np.random.default_rng(4)
    v0 = block_diag(truncated_shift(2), truncated_shift(2), truncated_shift(4))
    base = hw_decompose(make_partial_isometry(v0))
    for _ in range(3):
        w = random_unitary(rng, 8)
        dec = hw_decompose(make_partial_isometry(w @ v0 @ w.conj().T))
        assert sorted(dec.shift_lengths) == sorted(base.shift_lengths)
        assert dec.unitary_dim == base.unitary_dim


def conjugated_partial_permutation(seed: int) -> np.ndarray:
    """A partial permutation with sixth-root phases, conjugated by a random
    unitary: its powers are partial permutations, so all are partial isometries."""
    rng = np.random.default_rng([22, seed])
    n = int(rng.integers(2, 8))
    domain = rng.permutation(n)[:int(rng.integers(0, n + 1))]
    image = rng.permutation(n)[:len(domain)]
    v = np.zeros((n, n), dtype=complex)
    v[image, domain] = np.exp(2j * np.pi * rng.integers(0, 6, size=len(domain)) / 6)
    w = random_unitary(rng, n)
    return w @ v @ w.conj().T


def conjugated_mixtures():
    rng = np.random.default_rng(12)
    for lengths in ((2, 3), (1, 1, 4), (3, 3)):
        v0 = block_diag(random_unitary(rng, 2), *map(truncated_shift, lengths))
        w = random_unitary(rng, v0.shape[0])
        yield w @ v0 @ w.conj().T


@pytest.mark.parametrize("v", [hw_mixed_operator(seed)[0] for seed in range(40)]
                         + list(conjugated_mixtures()) + [conjugated_partial_permutation(0)])
def test_chains_are_truncated_shifts_of_v(v):
    # each chain starts in ker V*, V moves vector i onto vector i + 1 and
    # sends the last one to 0; the unitary part lives on range(V^n)
    dec = hw_decompose(make_partial_isometry(v))
    for chain in dec.chains:
        x = chain.vectors
        assert np.linalg.norm(v.conj().T @ x[:, 0]) < 1e-10
        assert np.linalg.norm(v @ x[:, :-1] - x[:, 1:]) < 1e-10
        assert np.linalg.norm(v @ x[:, -1]) < 1e-10
    n = v.shape[0]
    stable = range_basis(np.linalg.matrix_power(v, n))
    assert np.linalg.norm(dec.unitary_subspace.projection() - stable.projection()) < 1e-10


def perturbed_mixture(seed: int) -> np.ndarray:
    v, _, _ = hw_mixed_operator(100 + seed)
    rng = np.random.default_rng([33, seed])
    e = rng.standard_normal(v.shape) + 1j * rng.standard_normal(v.shape)
    return v + 10 ** rng.uniform(-14, -10) * e / np.linalg.norm(e)


def every_power_passes(v: np.ndarray) -> bool:
    n = v.shape[0]
    powers = np.array([np.linalg.matrix_power(v, k) for k in range(1, n + 1)])
    return bool(partial_isometry_rule(powers)[0].all())


@pytest.mark.parametrize("family", ["generic", "permutation", "perturbed"])
def test_power_partial_isometry_is_every_power_passing(family):
    # the definition: every power up to n is a partial isometry
    rng = np.random.default_rng(7)
    verdicts = []
    for seed in range(60):
        if family == "generic":
            v = random_partial_isometry(rng, int(rng.integers(1, 7)))
        elif family == "permutation":
            v = conjugated_partial_permutation(seed)
        else:
            v = perturbed_mixture(seed)
        want = every_power_passes(v)
        assert is_power_partial_isometry(make_partial_isometry(v)) == want, f"seed {seed}"
        verdicts.append(want)
    assert all(verdicts) == (family != "generic") and any(verdicts)


def test_hw_decomposition_serialization():
    rng = np.random.default_rng(8)
    v = block_diag(random_unitary(rng, 2), truncated_shift(3))
    dec = hw_decompose(make_partial_isometry(v))
    data = dec.to_json_dict()
    assert data["unitary_dim"] == 2
    assert data["shift_lengths"] == [3]
    assert len(data["basis_columns"]) == 1
    assert len(data["basis_columns"][0]) == 5  # ambient rows


def test_projections_are_exactly_fixed_partial_isometries():
    rng = np.random.default_rng(5)
    q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    p = q[:, :2] @ q[:, :2].conj().T
    pi = make_partial_isometry(p)
    assert approx_equal(pi.initial, p)
    assert approx_equal(pi.final, p)


def test_partial_isometry_identities():
    rng = np.random.default_rng(6)
    for _ in range(10):
        n = int(rng.integers(2, 7))
        d = np.diag(rng.integers(0, 2, size=n).astype(complex))
        v = random_unitary(rng, n) @ d @ random_unitary(rng, n)
        pi = make_partial_isometry(v)
        assert np.allclose(pi.matrix @ pi.initial, pi.matrix)
        assert np.allclose(pi.final @ pi.matrix, pi.matrix)
        assert np.linalg.matrix_rank(pi.initial) == np.linalg.matrix_rank(pi.final)
