"""Unit tests for the linear algebra substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab.numlin import (
    DEFAULT_TOL,
    IllConditionedSplit,
    NonCommuting,
    NotSquare,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    _eigen_halves,
    approx_equal,
    commutator_norm,
    first_overlap,
    frame_blocks,
    full_subspace,
    is_projection,
    kernel_basis,
    range_basis,
    rank,
    split_by_projection,
    worst_pair,
    zero_subspace,
)
from conftest import coord_projection, golden_generators, half_projection
from factories import random_unitary


def test_tolerance_config_bounds():
    ToleranceConfig(1e-10, 1e-10, 1e-2)
    with pytest.raises(ValueError):
        ToleranceConfig(eq_tol=0.0)
    with pytest.raises(ValueError):
        ToleranceConfig(proj_tol=-1e-9)
    with pytest.raises(ValueError):
        ToleranceConfig(rank_tol=0.5)


def test_approx_equal_identity():
    assert approx_equal(np.eye(2), np.eye(2))


def test_approx_equal_visible_perturbation():
    a = np.eye(2)
    b = np.eye(2).astype(complex)
    b[0, 0] += 1e-3
    assert not approx_equal(a, b)


def test_approx_equal_below_threshold():
    E = half_projection()
    Ep = E.astype(complex)
    Ep[0, 0] += 1e-12
    assert approx_equal(E, Ep)


def test_approx_equal_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        approx_equal(np.eye(2), np.eye(3))


def test_approx_equal_reflexive_symmetric():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
        b = a + rng.standard_normal((3, 3)) * 1e-10
        assert approx_equal(a, a)
        assert approx_equal(a, b) == approx_equal(b, a)


def test_is_projection_examples():
    assert is_projection(half_projection())
    assert is_projection(np.zeros((2, 2)))
    # E @ F is not hermitian: [[.5, 0], [.5, 0]] by direct 2x2 arithmetic
    EF = half_projection() @ coord_projection()
    assert np.allclose(EF, [[0.5, 0.0], [0.5, 0.0]])
    assert not is_projection(EF)


def test_is_projection_requires_square():
    with pytest.raises(NotSquare):
        is_projection(np.zeros((2, 3)))


def test_rank_examples():
    assert rank(np.eye(5)) == 5
    # E has eigenvalues {0, 1}: rank one
    assert rank(half_projection()) == 1
    assert rank(np.zeros((3, 3))) == 0


def test_range_basis_examples():
    assert range_basis(np.eye(3)).dim == 3
    sub = range_basis(half_projection())
    assert sub.dim == 1
    direction = sub.basis[:, 0]
    expected = np.array([1.0, 1.0]) / np.sqrt(2)
    # equal up to phase
    assert abs(abs(np.vdot(direction, expected)) - 1.0) < 1e-12
    assert range_basis(np.zeros((4, 4))).dim == 0


def test_range_basis_reprojection_bound():
    rng = np.random.default_rng(1)
    for _ in range(10):
        a = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        sub = range_basis(a)
        resid = (np.eye(5) - sub.projection()) @ a
        assert np.linalg.norm(resid) <= DEFAULT_TOL.rank_tol * np.linalg.norm(a)


def test_kernel_basis_complements_range():
    rng = np.random.default_rng(2)
    a = rng.standard_normal((4, 6))
    k = kernel_basis(a)
    assert k.dim == 6 - rank(a)
    assert np.linalg.norm(a @ k.basis) < 1e-10


def test_subspace_validation():
    sub = full_subspace(3)
    assert np.array_equal(sub.basis.conj().T @ sub.basis, np.eye(3))
    assert zero_subspace(3).dim == 0
    with pytest.raises(ShapeMismatch):
        Subspace(2, np.zeros((3, 1)))


def test_split_by_projection_coordinate():
    F = coord_projection()
    full = full_subspace(2)
    inside, outside = split_by_projection(full, F)
    assert inside.dim == 1
    assert abs(abs(inside.basis[0, 0]) - 1.0) < 1e-12
    assert outside.dim == 1
    e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    inside, outside = split_by_projection(e1, F)
    assert (inside.dim, outside.dim) == (1, 0)


def test_split_by_projection_golden_block():
    # final projection of B is the identity on the first 2x2 block
    _, B, _ = golden_generators()
    QB = B @ B.conj().T
    sub, rest = split_by_projection(full_subspace(8), QB)
    assert (sub.dim, rest.dim) == (2, 6)
    proj = sub.projection()
    expected = np.zeros((8, 8))
    expected[0, 0] = expected[1, 1] = 1.0
    assert np.allclose(proj, expected)


def test_split_by_projection_noncommuting():
    E = half_projection()
    e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(NonCommuting):
        split_by_projection(e1, E)


def test_intersect_dimension_additivity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        n = 6
        d = np.diag(rng.integers(0, 2, size=n).astype(complex))
        inside, outside = split_by_projection(full_subspace(n), d)
        assert inside.dim + outside.dim == n
        assert inside.dim == rank(d)


def test_commutator_norm_examples():
    E = half_projection()
    F = coord_projection()
    assert commutator_norm(E, E) == 0.0
    # EF - FE = [[0, -1/2], [1/2, 0]] by direct arithmetic, Frobenius 1/sqrt(2)
    assert commutator_norm(E, F) == pytest.approx(1.0 / np.sqrt(2), abs=1e-15)
    rng = np.random.default_rng(4)
    x = rng.standard_normal((4, 4))
    assert commutator_norm(np.eye(4), x) < 1e-14


def test_commutator_norm_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        commutator_norm(np.eye(2), np.eye(3))


def test_projection_rank_complement():
    rng = np.random.default_rng(5)
    for _ in range(10):
        n = 5
        q, _ = np.linalg.qr(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)))
        k = int(rng.integers(0, n + 1))
        p = q[:, :k] @ q[:, :k].conj().T
        assert is_projection(p)
        assert rank(p) + rank(np.eye(n) - p) == n
        assert range_basis(p).dim == rank(p)


def test_ill_conditioned_split_guard():
    # p onto (1, tilt, 0) compresses the line e1 to lambda = 1 / (1 + tilt^2),
    # so lambda(1 - lambda) is about tilt^2: the split is clean up to
    # proj_tol / 10 = 1e-9, too close to call up to 10 proj_tol = 1e-7, and
    # refused above
    e1 = Subspace(3, np.eye(3, 1, dtype=complex))
    for tilt, error in ((3e-5, None), (3.3e-5, IllConditionedSplit), (1e-4, IllConditionedSplit),
                        (3.1e-4, IllConditionedSplit), (3.2e-4, NonCommuting)):
        u = np.array([1.0, tilt, 0.0]) / np.linalg.norm([1.0, tilt, 0.0])
        if error is None:
            assert split_by_projection(e1, np.outer(u, u))[0].dim == 1
            continue
        with pytest.raises(error, match=f"lambda\\(1 - lambda\\) = {tilt ** 2:.3e}"):
            split_by_projection(e1, np.outer(u, u))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 7), data=st.data())
def test_split_defect_is_the_leak_out_of_the_cell(seed, n, data):
    # for a projection p and a cell of orthonormal basis B, the eigenvalues
    # lambda = v* p v of the halves' vectors v satisfy
    # sum lambda(1 - lambda) = ||(I - BB*) p B||_F^2; the defect is the
    # largest term, the halves span the cell and split it at lambda = 1/2
    k, r = data.draw(st.integers(0, n)), data.draw(st.integers(0, n))
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    p = u[:, :k] @ u[:, :k].conj().T
    b = random_unitary(rng, n)[:, :r]
    [(inside, outside)], [defect] = _eigen_halves([Subspace(n, b)], p)
    vecs = np.hstack([inside.basis, outside.basis])
    lam = np.einsum("ij,ij->j", vecs.conj(), p @ vecs).real
    leak = (np.eye(n) - b @ b.conj().T) @ p @ b
    assert np.sum(lam * (1 - lam)) == pytest.approx(np.linalg.norm(leak) ** 2, abs=1e-12)
    assert defect == pytest.approx(max(lam * (1 - lam), default=0.0), abs=1e-12)
    assert np.all(lam[:inside.dim] > 0.5) and np.all(lam[inside.dim:] <= 0.5)
    assert np.allclose(vecs @ vecs.conj().T, b @ b.conj().T, atol=1e-12)


def test_worst_pair_is_the_first_within_rel_1e_12_of_the_maximum():
    table = np.array([[0.0, 1.0 - 1e-13, 0.5], [1.0, 0.0, 1.0], [0.0, 0.0, 0.0]])
    assert worst_pair(table) == (0, 1)
    table[0, 1] = 1.0 - 1e-11
    assert worst_pair(table) == (1, 0)
    assert worst_pair(np.zeros((3, 3))) is None
    assert worst_pair(np.zeros((0, 0))) is None


def test_first_overlap_at_eq_tol_times_sqrt_dim():
    # bases e1 and c e1 + sqrt(1 - c^2) e2 meet in the block c of U*U, the
    # norm of P_0 P_1: orthogonal up to eq_tol * max(1, sqrt(n)), whatever
    # proj_tol is
    for cfg in (ToleranceConfig(eq_tol=1e-9, proj_tol=1e-6),
                ToleranceConfig(eq_tol=1e-6, proj_tol=1e-9)):
        for n in (2, 5):
            e = np.eye(n, dtype=complex)
            bound = cfg.eq_tol * max(1.0, np.sqrt(n))
            for c, want in ((bound, None), (np.nextafter(bound, 0.0), None),
                            (np.nextafter(bound, np.inf), (0, 1))):
                tilted = c * e[:, :1] + np.sqrt(1.0 - c ** 2) * e[:, 1:2]
                assert first_overlap([e[:, :1], tilted], cfg) == want
            assert first_overlap([], cfg) is None
    # the first overlapping pair in row-major order, across bases of rank 2
    e = np.eye(4, dtype=complex)
    diagonal = np.full((4, 1), 0.5, dtype=complex)
    bases = [e[:, :1], e[:, 1:3], diagonal, e[:, 3:]]
    assert first_overlap(bases, DEFAULT_TOL) == (0, 2)
    assert first_overlap([e[:, :1], e[:, 1:3], e[:, 3:]], DEFAULT_TOL) is None
    # a basis of width 0 overlaps nothing, and the others keep their indices
    assert first_overlap([e[:, :0], e[:, :1], e[:, :0], diagonal], DEFAULT_TOL) == (1, 3)
    assert first_overlap([e[:, :0], e[:, :0]], DEFAULT_TOL) is None


@pytest.mark.parametrize("widths", [(0, 1, 2), (1, 0, 2), (1, 2, 0), (0, 0, 3), (0, 3, 0)])
def test_frame_blocks_give_a_basis_of_width_0_norm_0(widths):
    # coordinate bases: U = I, so block (i, j) is M's block; an empty one
    # at any position has norm 0 and leaves the others' norms as they are
    m = np.arange(9.0).reshape(3, 3) + 1j
    offsets = np.cumsum((0,) + widths)
    cut = [slice(a, b) for a, b in zip(offsets, offsets[1:])]
    bases = [np.eye(3, dtype=complex)[:, s] for s in cut]
    want = np.array([[np.linalg.norm(m[r, c]) for c in cut] for r in cut])
    for stack, norms in ((m, want), (np.array([m, 2 * m]), np.array([want, 2 * want]))):
        x, got_offsets, got = frame_blocks(stack, bases)
        assert np.array_equal(x, stack) and got_offsets.tolist() == offsets.tolist()
        assert np.allclose(got, norms, rtol=1e-15, atol=0.0)
    assert want[np.array(widths) == 0].max() == 0.0
