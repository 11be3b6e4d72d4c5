"""Tolerance-aware dense complex linear algebra.

Every other module builds on the predicates and subspace primitives here.
All matrices are numpy complex128 arrays.  Every tolerance comparison of
the package is one of these rules, written once over stacks (only the
dedup store in index reads a tolerance besides, for its grid and lookup):
- equal_rule: approx_equal, atoms summing to I, Brandt blocks, hw_decompose;
- vanishing_rule: zero blocks, residuals and compressions in the Brandt
  search, decompose_by_atoms, standard projections, a·S·b != 0, the
  invariance checks of hw_decompose and of the reducibility witness, and
  orthogonality of atoms and Brandt family (first_overlap, frame blocks);
- projection_rule, partial_isometry_rule: validation, closures, power test;
- the split (split_cells, _split_error), lambda(1 - lambda) of a projection
  compressed to a cell: commutation and the halves, for ProjectionFamily;
  atom_sum_rule, the atoms' sums to each member on the split's scale;
- the rank_tol cutoff: rank, range_basis, kernel_basis and spin.
One routine, spin, grows the span of every orbit: Burnside's span of
words, the spins of Norton's test (norton_test) and of the reducibility
witness (invariant_subspaces), and the span behind a·S·b != 0.
"""

from __future__ import annotations

import math
from collections import deque
from collections.abc import Iterator
from dataclasses import dataclass
from functools import cached_property

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
    """A split's defect lambda(1 - lambda) fell inside the ambiguity band,
    within a factor SPLIT_BAND of proj_tol on either side."""


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


def _squared_norms(x: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of each matrix of a stack."""
    x = np.ascontiguousarray(x)
    flat = x.reshape(x.shape[0], math.prod(x.shape[1:])).view(np.float64)
    return np.einsum("ij,ij->i", flat, flat)


def equal_rule(a: np.ndarray, b: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """approx_equal's rule over stacks (b broadcasts against a): a mask of
    the members with ||a-b|| <= eq_tol * max(1, ||a||, ||b||)."""
    a, b = np.broadcast_arrays(a, b)
    bound = cfg.eq_tol ** 2 * np.maximum(1.0, np.maximum(_squared_norms(a), _squared_norms(b)))
    return _squared_norms(a - b) <= bound


def vanishing_rule(norms, refs, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """The one "this block, residual or compression is zero" relation: a mask
    of the norms <= eq_tol * max(1, ref), refs broadcast against norms."""
    return np.asarray(norms) <= cfg.eq_tol * np.maximum(1.0, refs)


def projection_rule(ps: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """is_projection's rule over a k x n x n stack: a mask of the members
    whose hermiticity and idempotency defects are both within
    proj_tol * max(1, ||P||)."""
    bound = cfg.proj_tol ** 2 * np.maximum(1.0, _squared_norms(ps))
    # both defects are formed in place in one C-ordered stack d, so at most
    # one stack besides ps is held; conj(P) - P^T is the entrywise conjugate
    # of P - P*, whose norm is the same to the bit
    d = np.conj(ps, order="C")
    d -= ps.transpose(0, 2, 1)
    ok = _squared_norms(d) <= bound
    np.matmul(ps, ps, out=d)
    d -= ps
    ok &= _squared_norms(d) <= bound
    return ok


def partial_isometry_rule(ms: np.ndarray,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The partial isometry rule over a k x a x b stack: P = V*V passes
    projection_rule and ||VP - V|| <= proj_tol * max(1, ||V||).
    -> (mask of the members that pass, the stack of their P)."""
    p = ms.conj().transpose(0, 2, 1) @ ms
    ok = projection_rule(p, cfg)
    d = ms @ p
    d -= ms
    ok &= _squared_norms(d) <= cfg.proj_tol ** 2 * np.maximum(1.0, _squared_norms(ms))
    return ok, p


def approx_equal(a, b, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Relative Frobenius equality: ||a-b|| <= eq_tol * max(1, ||a||, ||b||).

    Reflexive and symmetric but (deliberately) not transitive.
    """
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"shapes differ: {a.shape} vs {b.shape}")
    return bool(equal_rule(a[None], b[None], cfg)[0])


def is_projection(a, cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """Selfadjoint idempotent test, both defects relative to max(1, ||a||)."""
    a = as_matrix(a)
    if a.shape[0] != a.shape[1]:
        raise NotSquare(f"projection test needs a square matrix, got {a.shape}")
    return bool(projection_rule(a[None], cfg)[0])


def commutator_norm(a, b) -> float:
    """||ab - ba|| in Frobenius norm."""
    a = as_matrix(a)
    b = as_matrix(b)
    if a.shape != b.shape or a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"need equal square shapes, got {a.shape} and {b.shape}")
    return frobenius(a @ b - b @ a)


def _rank_from_singular_values(s: np.ndarray, cfg: ToleranceConfig) -> np.ndarray:
    """Rank of each row of descending singular values: the count above rank_tol
    times the largest, 0 if that is below rank_tol (all here are contractions)."""
    cut = cfg.rank_tol * s[:, :1]
    return np.where(s[:, 0] > cfg.rank_tol, (s > cut).sum(axis=1), 0)


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
    return int(_rank_from_singular_values(s[None], cfg)[0])


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
        """basis @ basis*, formed on the first call and returned read-only."""
        return self._projection

    @cached_property
    def _projection(self) -> np.ndarray:
        proj = self.basis @ adjoint(self.basis)
        proj.flags.writeable = False
        return proj


def zero_subspace(n: int) -> Subspace:
    return Subspace(n, np.zeros((n, 0), dtype=np.complex128))


def full_subspace(n: int) -> Subspace:
    return Subspace(n, np.eye(n, dtype=np.complex128))


def range_basis(a, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the column space, dimension = rank(a)."""
    m = as_matrix(a)
    if m.shape[1] == 0 or frobenius(m) == 0.0:
        return zero_subspace(m.shape[0])
    u, s, _ = np.linalg.svd(m, full_matrices=False)
    r = int(_rank_from_singular_values(s[None], cfg)[0])
    return Subspace(m.shape[0], frozen(u[:, :r]))


def kernel_basis(a, cfg: ToleranceConfig = DEFAULT_TOL) -> Subspace:
    """Orthonormal basis of the (right) null space."""
    m = as_matrix(a)
    n = m.shape[1]
    if m.shape[0] == 0 or frobenius(m) == 0.0:
        return full_subspace(n)
    _, s, vh = np.linalg.svd(m, full_matrices=True)
    r = int(_rank_from_singular_values(s[None], cfg)[0])
    return Subspace(n, frozen(adjoint(vh[r:, :])))


# the ambiguity band of a split: a defect lambda(1 - lambda) above
# proj_tol / SPLIT_BAND and at most proj_tol * SPLIT_BAND is too close to call
SPLIT_BAND = 10.0


def split_by_projection(s: Subspace, p,
                        cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[Subspace, Subspace]:
    """Split s into (s ∩ range(p), s ∩ ker(p)): split_cells of one cell."""
    return split_cells([s], p, cfg)[0]


def split_cells(cells, p, cfg: ToleranceConfig = DEFAULT_TOL) -> list[tuple[Subspace, Subspace]]:
    """Split each subspace s of cells into (s ∩ range(p), s ∩ ker(p)) by the
    eigenvalues of the compression of the projection p to s: the halves of
    _eigen_halves, if every defect lambda(1 - lambda) passes _split_error."""
    halves, defects = _eigen_halves(cells, p)
    error = _split_error(defects, cfg, "projection")
    if error is not None:
        raise error
    return halves


def _eigen_halves(cells, p) -> tuple[list[tuple[Subspace, Subspace]], np.ndarray]:
    """For each cell of orthonormal basis B (n x r), the eigenvectors B·W of
    eigh(B* p B) = W diag(lambda) W*, split into (lambda > 1/2, the rest),
    and the cell's largest lambda(1 - lambda).  For a projection p,
    ||(I - BB*) p B||_F^2 = sum lambda(1 - lambda): one quantity bounds p's
    leak out of the cell and the error of the halves, on the scale of the
    partial-isometry defect (about theta^2 for two lines at angle theta).
    Cells of one dimension share one stacked eigh."""
    p = as_matrix(p)
    n = cells[0].ambient_dim if cells else p.shape[0]
    if p.shape != (n, n):
        raise ShapeMismatch(f"projection shape {p.shape} does not match ambient dim {n}")
    halves: list = [None] * len(cells)
    defects = np.zeros(len(cells))
    for r in {s.dim for s in cells}:
        which = [i for i, s in enumerate(cells) if s.dim == r]
        bases = np.array([cells[i].basis for i in which]).reshape(len(which), n, r)
        lam, w = np.linalg.eigh(bases.conj().transpose(0, 2, 1) @ p @ bases)
        defects[which] = (lam * (1.0 - lam)).max(axis=1, initial=0.0)
        for i, vecs, inside in zip(which, bases @ w, lam > 0.5):
            halves[i] = (Subspace(n, frozen(vecs[:, inside])),
                         Subspace(n, frozen(vecs[:, ~inside])))
    return halves, defects


def _split_error(defects: np.ndarray, cfg: ToleranceConfig, what: str) -> PisomError | None:
    """NonCommuting for the first cell whose defect exceeds
    proj_tol * SPLIT_BAND, else IllConditionedSplit for the first whose
    defect lies in the band above proj_tol / SPLIT_BAND, else None."""
    high = np.flatnonzero(defects > cfg.proj_tol * SPLIT_BAND)
    if high.size:
        i = high[0]
        return NonCommuting(f"{what} does not commute with cell {i}: "
                            f"lambda(1 - lambda) = {defects[i]:.3e}")
    band = np.flatnonzero(defects > cfg.proj_tol / SPLIT_BAND)
    if band.size:
        i = band[0]
        return IllConditionedSplit(
            f"{what} splits cell {i} with lambda(1 - lambda) = {defects[i]:.3e}, within "
            f"a factor {SPLIT_BAND:g} of proj_tol {cfg.proj_tol:.3e}")
    return None


def atom_sum_rule(diffs: np.ndarray, cfg: ToleranceConfig = DEFAULT_TOL) -> np.ndarray:
    """A mask of the k x n x n stack of P_k - (the sum of its atoms) with
    ||.||_F^2 <= proj_tol * n: in the frame of the cells that P_k split, the
    diagonal blocks leave min(lambda, 1 - lambda)^2 <= lambda(1 - lambda)
    per eigenvalue and the off-diagonal blocks sum lambda(1 - lambda) over
    each cell, so the error is at most 2 sum lambda(1 - lambda) <=
    0.2 n proj_tol once every split passed _split_error."""
    return _squared_norms(diffs) <= cfg.proj_tol * diffs.shape[-1]


def spin(seeds: np.ndarray, mats: np.ndarray, cfg: ToleranceConfig) -> Subspace:
    """The span of the orbit of the seeds (row vectors of C^c, or r x c
    matrices taken as vectors of C^(r*c)) under right multiplication by the
    k x c x c stack mats, grown one BFS level at a time in (frontier member,
    factor) order, a member's k images from one stacked product.  A vector
    joins unless its norm is within eq_tol of zero or its residual, after two
    projections on the basis so far, is within rank_tol * max(1, its norm).
    """
    seeds = np.asarray(seeds, dtype=np.complex128)
    size = math.prod(seeds.shape[1:])
    rows = np.zeros((size, size), dtype=np.complex128)
    dim = 0

    def grow(v: np.ndarray) -> bool:
        nonlocal dim
        v = v.reshape(-1)
        nv = float(np.linalg.norm(v))
        if nv <= cfg.eq_tol:
            return False
        resid = v
        for _ in range(2):
            resid = resid - rows[:dim].T @ (rows[:dim] @ resid.conj()).conj()
        rn = float(np.linalg.norm(resid))
        if rn <= cfg.rank_tol * max(1.0, nv):
            return False
        rows[dim] = resid / rn
        dim += 1
        return True

    # first in, first out is BFS level order, and drops each expanded member
    queue = deque(s for s in seeds if grow(s))
    while queue and dim < size:
        queue.extend(u.copy() for u in queue.popleft() @ mats if dim < size and grow(u))
    basis = rows[:dim].T
    basis.setflags(write=False)
    return Subspace(size, basis)


def invariant_subspaces(mats: np.ndarray, vs, ws, cfg: ToleranceConfig) -> Iterator[Subspace]:
    """Lazily, the proper spins of the vectors vs under the k x n x n stack
    mats, then the orthocomplements of the proper spins of the vectors ws
    under the adjoints: each is invariant under mats."""
    n = mats.shape[-1]
    for v in vs:
        sub = spin(v[None], mats.transpose(0, 2, 1), cfg)
        if sub.dim < n:
            yield sub
    for w in ws:
        sub = spin(w[None], mats.conj(), cfg)
        if sub.dim < n:
            yield kernel_basis(adjoint(sub.basis), cfg)


# random elements x that Norton's test draws before it gives up
_NORTON_TRIES = 3


def norton_test(mats: np.ndarray, cfg: ToleranceConfig, seed: int) -> Subspace | None:
    """Norton's irreducibility test (Holt & Rees, "Testing modules for
    irreducibility", 1994) for the unital algebra of the k x n x n stack mats.

    x is a seeded combination of I, the generators and their length-2 words;
    its most isolated eigenvalue lambda is used when the singular values of
    x - lambda show a one-dimensional kernel under the rank_tol rule and no
    other eigenvalue lies within sqrt(rank_tol) * ||x - lambda||.  A nearer
    one may be lambda's twin in a Jordan block, computed only to about
    sqrt(eps) * ||x||: then v leaves the kernel by as much, and its spin
    need not show an invariant subspace that holds the kernel.  The answer
    is the first of invariant_subspaces for a kernel vector v of x - lambda
    and w of (x - lambda)*; both spins full -> C^n: the algebra is
    irreducible.  None when no try found such a lambda.
    """
    k, n = mats.shape[0], mats.shape[-1]
    rng = np.random.default_rng(seed)
    for _ in range(_NORTON_TRIES):
        c = rng.standard_normal((1 + k + k * k, 2)) @ np.array([1.0, 1j])
        y = np.tensordot(c[1 + k:].reshape(k, k), mats, axes=1)
        x = c[0] * np.eye(n) + np.tensordot(c[1:1 + k], mats, axes=1) + (mats @ y).sum(axis=0)
        eigs = np.linalg.eigvals(x)
        gaps = (np.abs(eigs[:, None] - eigs[None, :]) + np.diag(np.full(n, np.inf))).min(axis=1)
        lam = eigs[np.argmax(gaps)]
        u, s, vh = np.linalg.svd(x - lam * np.eye(n))
        scale = max(1.0, s[0])
        if gaps.max() <= np.sqrt(cfg.rank_tol) * scale or np.sum(s <= cfg.rank_tol * scale) != 1:
            continue
        return next(invariant_subspaces(mats, [vh[-1].conj()], [u[:, -1]], cfg),
                    full_subspace(n))
    return None


def worst_pair(table: np.ndarray) -> tuple[int, int] | None:
    """The first entry of a table of pair norms, in row-major order, within
    rel 1e-12 of the maximum (rounding splits exact ties); None if all are 0."""
    worst = table.max(initial=0.0)
    tied = np.argwhere((table > 0) & (table >= worst - 1e-12 * worst))
    return (int(tied[0, 0]), int(tied[0, 1])) if len(tied) else None


def first_overlap(bases, cfg: ToleranceConfig) -> tuple[int, int] | None:
    """The first pair i < j, in row-major order, of orthonormal bases whose
    block B_i* B_j of U*U, U = [B_0 ... B_{F-1}], with the norm of P_i P_j,
    does not vanish against ||I||_F = sqrt(n), or None: the Brandt pair
    check's zero-block test on E_i·I·E_j.  A basis of width 0 meets none."""
    wide = [i for i, b in enumerate(bases) if b.shape[1]]
    if not wide:
        return None
    n = bases[0].shape[0]
    _, _, norms = frame_blocks(np.eye(n), [bases[i] for i in wide])
    overlapping = np.argwhere(np.triu(~vanishing_rule(norms, math.sqrt(n), cfg), 1))
    return (wide[overlapping[0, 0]], wide[overlapping[0, 1]]) if len(overlapping) else None


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
