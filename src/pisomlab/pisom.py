"""Partial isometries: validation, the product criterion, and the
unitary-plus-truncated-shift decomposition of power partial isometries.

In finite dimension every isometry is unitary, so the pure isometry and pure
co-isometry summands of the general decomposition are absent: a power partial
isometry on C^n splits as (unitary) + (truncated shift chains).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    NotSquare,
    PisomError,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    adjoint,
    approx_equal,
    as_matrix,
    commutator_norm,
    dominant_index,
    frobenius,
    frozen,
    kernel_basis,
    operator_norm,
    partial_isometry_rule,
    range_basis,
    vanishing_rule,
)


class NotPartialIsometry(PisomError):
    """Raised when V*V fails the projection test.

    ``deviation`` is the operator-norm idempotency defect ||P^2 - P||_2 of
    P = V*V, the quantity certificates report.
    """

    def __init__(self, message: str, deviation: float):
        super().__init__(message)
        self.deviation = deviation

    @classmethod
    def of(cls, m) -> "NotPartialIsometry":
        dev = partial_isometry_defect(m)
        return cls(f"V*V is not a projection (idempotency defect {dev:.6g})", dev)


class NotPowerPartialIsometry(PisomError):
    pass


@dataclass(frozen=True)
class PartialIsometry:
    """A validated partial isometry with cached initial/final projections.

    initial = V*V projects onto the initial space, final = VV* onto the final
    space; V acts isometrically from the first onto the second.
    """

    matrix: np.ndarray
    initial: np.ndarray
    final: np.ndarray

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def adjoint(self) -> "PartialIsometry":
        return PartialIsometry(frozen(adjoint(self.matrix)),
                               self.final, self.initial)


def partial_isometry_defect(m) -> float:
    """Operator-norm idempotency defect of V*V; 0 for genuine partial isometries."""
    m = as_matrix(m)
    p = adjoint(m) @ m
    return operator_norm(p @ p - p)


def make_partial_isometry(m, cfg: ToleranceConfig = DEFAULT_TOL) -> PartialIsometry:
    """Validate m by partial_isometry_rule and return read-only copies of m,
    P = m*m and Q = mm*; a matrix that fails the rule raises
    NotPartialIsometry with partial_isometry_defect(m) as the deviation."""
    m = as_matrix(m)
    if m.shape[0] != m.shape[1]:
        raise NotSquare(f"partial isometries must be square, got {m.shape}")
    ok, p = partial_isometry_rule(m[None], cfg)
    if not ok[0]:
        raise NotPartialIsometry.of(m)
    q = m[None] @ m[None].conj().transpose(0, 2, 1)
    return PartialIsometry(frozen(m), frozen(p[0]), frozen(q[0]))


@dataclass(frozen=True)
class HWProductResult:
    is_pi: bool
    commutator: float


def hw_product_test(v: PartialIsometry, w: PartialIsometry,
                    cfg: ToleranceConfig = DEFAULT_TOL) -> HWProductResult:
    """Product criterion: v @ w is a partial isometry iff the final projection
    of w commutes with the initial projection of v.

    is_pi is the partial isometry rule on v @ w, the rule closures use;
    commutator is ||[Q_w, P_v]||, the margin the criterion reads.
    """
    if v.dim != w.dim:
        raise ShapeMismatch(f"dimensions differ: {v.dim} vs {w.dim}")
    is_pi = bool(partial_isometry_rule((v.matrix @ w.matrix)[None], cfg)[0][0])
    return HWProductResult(is_pi, commutator_norm(w.final, v.initial))


@dataclass(frozen=True)
class ShiftChain:
    """Orthonormal chain v_1 -> v_2 -> ... -> v_len -> 0 (columns of vectors)."""

    vectors: np.ndarray

    @property
    def length(self) -> int:
        return self.vectors.shape[1]

    def operator(self) -> np.ndarray:
        return self.vectors[:, 1:] @ adjoint(self.vectors[:, :-1])


@dataclass(frozen=True)
class HWDecomposition:
    """unitary restriction + truncated shift chains; a certificate object.

    ``reassemble()`` must reproduce the decomposed operator within eq_tol,
    which is what makes the finite power test conclusive.
    """

    unitary_subspace: Subspace
    unitary_matrix: np.ndarray
    chains: tuple[ShiftChain, ...]

    @property
    def unitary_dim(self) -> int:
        return self.unitary_subspace.dim

    @property
    def shift_lengths(self) -> tuple[int, ...]:
        return tuple(c.length for c in self.chains)

    def reassemble(self) -> np.ndarray:
        n = self.unitary_subspace.ambient_dim
        out = np.zeros((n, n), dtype=np.complex128)
        if self.unitary_dim > 0:
            b = self.unitary_subspace.basis
            out += b @ self.unitary_matrix @ adjoint(b)
        for chain in self.chains:
            out += chain.operator()
        return out

    def to_json_dict(self) -> dict:
        from .jsonio import matrix_to_json
        basis_columns = [matrix_to_json(c.vectors) for c in self.chains]
        return {
            "unitary_dim": self.unitary_dim,
            "shift_lengths": list(self.shift_lengths),
            "basis_columns": basis_columns,
        }


def is_power_partial_isometry(v: PartialIsometry,
                              cfg: ToleranceConfig = DEFAULT_TOL) -> bool:
    """True iff every power of v is a partial isometry.

    Powers are tested up to k = n and the verdict is certified by a successful
    decomposition + reassembly, which covers all k at once.
    """
    try:
        hw_decompose(v, cfg)
    except NotPowerPartialIsometry:
        return False
    return True


def _chain_sort_key(chain: ShiftChain) -> tuple:
    rounded = np.round(chain.vectors[:, 0], 9)
    return (-chain.length, dominant_index(chain.vectors[:, 0]),
            tuple(rounded.real.tolist()), tuple(rounded.imag.tolist()))


def hw_decompose(v: PartialIsometry,
                 cfg: ToleranceConfig = DEFAULT_TOL) -> HWDecomposition:
    """Decompose a power partial isometry as unitary + truncated shifts.

    Everything is read off the powers V, ..., V^n and their initial
    projections P_k = (V^k)*V^k, the stack the power test returns, with
    P_0 = I.  The ranges of the powers shrink and settle by k = n, so the
    unitary subspace is range(V^n).  The starts of the length-j chains span
    ker V* ∩ ker V^j ∩ range(P_(j-1)), the kernel of the stacked
    [V*; V^j; I - P_(j-1)], and the chain of a start x is x, Vx, ...,
    V^(j-1)x.  Chains are listed longest first, ties broken by the dominant
    coordinate of the chain start.

    Raises NotPowerPartialIsometry when any certificate check fails (power
    defect, unitary restriction, invariance, coverage or reassembly).
    """
    n = v.dim
    v_powers = np.array(list(accumulate([v.matrix] * n, np.matmul))).reshape(n, n, n)
    ok, p = partial_isometry_rule(v_powers, cfg)
    if not ok.all():
        raise NotPowerPartialIsometry("a power of v fails the partial isometry test")

    unitary_sub = range_basis(v_powers[-1], cfg)
    ub = unitary_sub.basis
    restriction = adjoint(ub) @ v.matrix @ ub
    gram = adjoint(restriction) @ restriction
    if not approx_equal(gram, np.eye(unitary_sub.dim), cfg):
        raise NotPowerPartialIsometry("restriction to the stable range is not unitary")
    # the stable range must reduce v
    comp = np.eye(n) - unitary_sub.projection()
    if not vanishing_rule(frobenius(comp @ v.matrix @ unitary_sub.projection()),
                          frobenius(v.matrix), cfg):
        raise NotPowerPartialIsometry("stable range is not invariant")

    # I - P_(j-1) for j = 1, ..., n
    outside = np.concatenate([np.zeros((1, n, n)), np.eye(n) - p[:-1]])
    v_star = adjoint(v.matrix)
    chains: list[ShiftChain] = []
    for j in range(n, 0, -1):
        starts = kernel_basis(np.vstack([v_star, v_powers[j - 1], outside[j - 1]]), cfg).basis
        images = np.concatenate([starts[None], v_powers[:j - 1] @ starts])
        chains += [ShiftChain(frozen(images[:, :, c].T)) for c in range(starts.shape[1])]

    chains.sort(key=_chain_sort_key)
    result = HWDecomposition(unitary_subspace=unitary_sub,
                             unitary_matrix=frozen(restriction),
                             chains=tuple(chains))

    if result.unitary_dim + sum(result.shift_lengths) != n:
        raise NotPowerPartialIsometry(
            f"decomposition covers {result.unitary_dim + sum(result.shift_lengths)} "
            f"of {n} dimensions")
    if not approx_equal(result.reassemble(), v.matrix, cfg):
        raise NotPowerPartialIsometry("reassembled operator does not match the input")
    return result
