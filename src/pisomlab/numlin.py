"""Tolerance-aware dense complex linear algebra.

Every other module builds on the predicates and subspace primitives here.
All matrices are numpy complex128 arrays; all comparisons are relative to a
:class:`ToleranceConfig`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PisomError(Exception):
    """Base class for every error raised by this package."""


class ShapeMismatch(PisomError):
    pass


class NotSquare(PisomError):
    pass


class NonCommuting(PisomError):
    pass


class IllConditionedSplit(PisomError):
    """A rank decision fell inside the ambiguity band around the SVD cutoff."""


class InvariantViolation(PisomError):
    """An internally guaranteed identity failed numerically (a bug or a
    tolerance breakdown, never a property of valid input)."""


@dataclass(frozen=True)
class ToleranceConfig:
    """Relative tolerances shared by the whole library.

    eq_tol    Frobenius matrix equality threshold.
    proj_tol  hermiticity/idempotency threshold for projection tests.
    rank_tol  singular value cutoff, relative to the largest singular value.
    """

    eq_tol: float = 1e-8
    proj_tol: float = 1e-8
    rank_tol: float = 1e-8

    def __post_init__(self):
        for name in ("eq_tol", "proj_tol", "rank_tol"):
            value = getattr(self, name)
            if not 0.0 < value <= 1e-2:
                raise ValueError(f"{name} must lie in (0, 1e-2], got {value!r}")


DEFAULT_TOL = ToleranceConfig()


def as_matrix(a) -> np.ndarray:
    """Coerce to a 2-d complex128 array, rejecting NaN/Inf entries."""
    m = np.asarray(a, dtype=np.complex128)
    if m.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got ndim={m.ndim}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    return m


def frobenius(a) -> float:
    return float(np.linalg.norm(a))


def operator_norm(a) -> float:
    m = np.asarray(a)
    if min(m.shape) == 0:
        return 0.0
    return float(np.linalg.norm(m, 2))


def adjoint(a: np.ndarray) -> np.ndarray:
    return a.conj().T


def frozen(a: np.ndarray) -> np.ndarray:
    """Return a non-writeable copy; stored values are immutable by contract."""
    out = np.array(a, dtype=np.complex128)
    out.setflags(write=False)
    return out


def approx_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Relative Frobenius equality: ||a-b|| <= eq_tol * max(1, ||a||, ||b||).

    Reflexive and symmetric but (deliberately) not transitive.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    scale = max(1.0, frobenius(a), frobenius(b))
    return frobenius(a - b) <= cfg.eq_tol * scale


def is_projection(a, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Selfadjoint idempotent test, both defects relative to max(1, ||a||)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"projection test needs a square matrix, got {a.shape}")
    scale = max(1.0, frobenius(a))
    if frobenius(a - adjoint(a)) > cfg.proj_tol * scale:
        return False
    return frobenius(a @ a - a) <= cfg.proj_tol * scale


def commutator_norm(a, b) -> float:
    """||ab - ba|| in Frobenius norm."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"need equal square shapes, got {a.shape} and {b.shape}")
    return frobenius(a @ b - b @ a)


def commutes(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    scale = max(1.0, frobenius(a), frobenius(b))
    return commutator_norm(a, b) <= cfg.proj_tol * scale


def _rank_from_singular_values(s: np.ndarray, cfg: ToleranceConfig,
                               ambiguity_factor: float | None = None) -> int:
    # everything here is a contraction, so a top singular value below
    # rank_tol means the matrix is zero, not that its noise has rank
    if s.size == 0 or s[0] <= cfg.rank_tol:
        return 0
    cut = cfg.rank_tol * s[0]
    if ambiguity_factor is not None:
        band = (s >= cut / ambiguity_factor) & (s <= cut * ambiguity_factor)
        if np.any(band):
            raise IllConditionedSplit(
                f"singular value {s[band][0]:.3e} lies within a factor "
                f"{ambiguity_factor:g} of the rank cutoff {cut:.3e}")
    return int(np.sum(s > cut))


def rank(a, cfg: ToleranceConfig = DEFAULT_TOL) -> int:
    """Number of singular values above rank_tol * s_max.

    A matrix whose largest singular value is itself below rank_tol counts as
    zero; operators in this library are contractions, so that floor never
    discards genuine structure.
    """
    m = as_matrix(a)
    if m.size == 0:
        return 0
    s = np.linalg.svd(m, compute_uv=False)
    return _rank_from_singular_values(s, cfg)


@dataclass(frozen=True)
class Subspace:
    """Subspace of C^ambient_dim given by an orthonormal column basis.

    Zero columns encode the zero subspace.
    """

    ambient_dim: int
    basis: np.ndarray

    def __post_init__(self):
        if self.basis.ndim != 2 or self.basis.shape[0] != self.ambient_dim:
            raise ShapeMismatch(
                f"basis shape {self.basis.shape} does not match ambient "
                f"dimension {self.ambient_dim}")
        if self.basis.shape[1] > self.ambient_dim:
            raise ShapeMismatch("more basis columns than the ambient dimension")

    @property
    def dim(self) -> int:
        return self.basis.shape[1]

    def projection(self) -> np.ndarray:
        if self.dim == 0:
            return np.zeros((self.ambient_dim, self.ambient_dim), dtype=np.complex128)
        return self.basis @ adjoint(self.basis)

    def validate(self, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
        if self.dim == 0:
            return True
        gram = adjoint(self.basis) @ self.basis
        return frobenius(gram - np.eye(self.dim)) <= cfg.proj_tol * max(1.0, frobenius(gram))


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0), dtype=np.complex128))


def full_subspace(n: int) -> Subspace:
    return Subspace(n, np.eye(n, dtype=np.complex128))


def range_basis(a, cfg: ToleranceConfig = DEFAULT_TOL,
                ambiguity_factor: float | None = None) -> Subspace:
    """Orthonormal basis of the column space, dimension = rank(a)."""
    m = as_matrix(a)
    if m.shape[1] == 0 or frobenius(m) == 0.0:
        return zero_subspace(m.shape[0])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = _rank_from_singular_values(s, cfg, ambiguity_factor)
    return Subspace(m.shape[0], frozen(u[:, :r]))


def kernel_basis(a, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the (right) null space."""
    m = as_matrix(a)
    n = m.shape[1]
    if m.shape[0] == 0 or frobenius(m) == 0.0:
        return full_subspace(n)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    r = _rank_from_singular_values(s, cfg)
    return Subspace(n, frozen(adjoint(vh[r:, :])))


def intersect_with_projection(s: Subspace, p, take_range: bool,
                              cfg: ToleranceConfig = DEFAULT_TOL,
                              ambiguity_factor: float | None = None) -> Subspace:
    """Intersect s with range(p) (take_range) or ker(p).

    Requires p to be a projection commuting, within proj_tol, with the
    orthogonal projection onto s; under that hypothesis the intersection is
    the range of proj(s) @ p resp. proj(s) @ (I - p).
    """
    p = as_matrix(p)
    if p.shape != (s.ambient_dim, s.ambient_dim):
        raise ShapeMismatch(
            f"projection shape {p.shape} does not match ambient dim {s.ambient_dim}")
    ps = s.projection()
    if not commutes(ps, p, cfg):
        raise NonCommuting(
            f"projection does not commute with the subspace projection "
            f"(commutator norm {commutator_norm(ps, p):.3e})")
    target = ps @ p if take_range else ps @ (np.eye(s.ambient_dim) - p)
    return range_basis(target, cfg, ambiguity_factor)


def frame_blocks(stack: np.ndarray, bases) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Conjugate a matrix (or a k x n x n stack) by the frame U = [B_0 ... B_{F-1}]
    of orthonormal column bases.

    -> (X = U* M U, the F + 1 block offsets o of X, the Frobenius norms of
    the (i, j) blocks X[o_i:o_(i+1), o_j:o_(j+1)], F x F per matrix).  When
    the bases are mutually orthogonal and span C^n, U is unitary and block
    (i, j) is B_i* M B_j: the compression of M from range(B_j) to range(B_i),
    with the same norms as E_i M E_j for E_i = B_i B_i*.
    """
    u = np.hstack(bases)
    offsets = np.cumsum([0] + [b.shape[1] for b in bases])
    x = adjoint(u) @ stack @ u
    starts = offsets[:-1]
    sq = np.add.reduceat(x.real ** 2 + x.imag ** 2, starts, axis=-2)
    return x, offsets, np.sqrt(np.add.reduceat(sq, starts, axis=-1))


def dominant_index(a: np.ndarray) -> int:
    """Index of the dominant coordinate: argmax of |diag| for square matrices,
    argmax of |entries| for vectors.  First maximum wins (deterministic)."""
    m = np.asarray(a)
    values = np.abs(np.diag(m)) if m.ndim == 2 else np.abs(m)
    return int(np.argmax(values))
