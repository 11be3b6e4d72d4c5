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
    _squared_norms,
    adjoint,
    approx_equal,
    as_matrix,
    commutator_norm,
    dominant_index,
    frobenius,
    frozen,
    kernel_basis,
    operator_norm,
    projection_rule,
    range_basis,
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


def partial_isometry_rule(ms: np.ndarray,
                          cfg: ToleranceConfig = DEFAULT_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The partial isometry rule over a k x a x b stack: P = V*V passes
    numlin.projection_rule and ||VP - V|| <= proj_tol * max(1, ||V||).
    -> (mask of the members that pass, the stack of their P)."""
    p = ms.conj().transpose(0, 2, 1) @ ms
    ok = projection_rule(p, cfg)
    d = ms @ p
    d -= ms
    ok &= _squared_norms(d) <= cfg.proj_tol ** 2 * np.maximum(1.0, _squared_norms(ms))
    return ok, p


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
        n, length = self.vectors.shape
        out = np.zeros((n, n), dtype=np.complex128)
        for i in range(length - 1):
            out += np.outer(self.vectors[:, i + 1], self.vectors[:, i].conj())
        return out


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


def _stable_range(v: PartialIsometry, powers: np.ndarray, cfg: ToleranceConfig) -> Subspace:
    """Intersection of range(V^k) over k >= 1, read from the stack of powers
    V, ..., V^n; stabilizes within n steps."""
    prev_rank, sub = v.dim, None
    for power in powers:
        sub = range_basis(power, cfg)
        if sub.dim == prev_rank:
            break
        prev_rank = sub.dim
    return sub if sub is not None else range_basis(v.matrix, cfg)


def _chain_sort_key(chain: ShiftChain) -> tuple:
    rounded = np.round(chain.vectors[:, 0], 9)
    return (-chain.length, dominant_index(chain.vectors[:, 0]),
            tuple(rounded.real.tolist()), tuple(rounded.imag.tolist()))


def hw_decompose(v: PartialIsometry,
                 cfg: ToleranceConfig = DEFAULT_TOL) -> HWDecomposition:
    """Decompose a power partial isometry as unitary + truncated shifts.

    The unitary subspace is the stabilized range of the powers of v; on its
    orthocomplement v restricts to a nilpotent partial isometry whose shift
    chains are read off the kernel filtration: starts of length-j chains span
    ker(N^j) ∩ ker(N^{j-1})^⊥ ∩ ker(N*).  Chains are listed longest first,
    ties broken by the dominant coordinate of the chain start.

    Raises NotPowerPartialIsometry when any certificate check fails (power
    defect, broken chain, or reassembly mismatch).
    """
    n = v.dim
    v_powers = np.array(list(accumulate([v.matrix] * n, np.matmul))).reshape(n, n, n)
    if not partial_isometry_rule(v_powers, cfg)[0].all():
        raise NotPowerPartialIsometry("a power of v fails the partial isometry test")

    unitary_sub = _stable_range(v, v_powers, cfg)
    ub = unitary_sub.basis
    if unitary_sub.dim > 0:
        restriction = adjoint(ub) @ v.matrix @ ub
        gram = adjoint(restriction) @ restriction
        if frobenius(gram - np.eye(unitary_sub.dim)) > cfg.proj_tol * unitary_sub.dim:
            raise NotPowerPartialIsometry("restriction to the stable range is not unitary")
        # the stable range must reduce v
        comp = np.eye(n) - unitary_sub.projection()
        if frobenius(comp @ v.matrix @ unitary_sub.projection()) > cfg.proj_tol * max(1.0, frobenius(v.matrix)):
            raise NotPowerPartialIsometry("stable range is not invariant")
    else:
        restriction = np.zeros((0, 0), dtype=np.complex128)

    wb = kernel_basis(adjoint(ub), cfg).basis if unitary_sub.dim > 0 else np.eye(n, dtype=np.complex128)
    chains: list[ShiftChain] = []
    m = wb.shape[1]
    if m > 0:
        nil = adjoint(wb) @ v.matrix @ wb
        # nilpotency index
        powers = [np.eye(m, dtype=np.complex128)]
        idx = 0
        for j in range(1, m + 1):
            powers.append(powers[-1] @ nil)
            if frobenius(powers[-1]) <= cfg.eq_tol * m:
                idx = j
                break
        else:
            raise NotPowerPartialIsometry("complement of the stable range is not nilpotent")
        for j in range(idx, 0, -1):
            rows = [powers[j]]
            kj_prev = kernel_basis(powers[j - 1], cfg) if j > 1 else None
            if kj_prev is not None and kj_prev.dim > 0:
                rows.append(adjoint(kj_prev.basis))
            rows.append(adjoint(nil))
            starts = kernel_basis(np.vstack(rows), cfg)
            for col in range(starts.dim):
                vec = starts.basis[:, col]
                vectors = [vec]
                for _ in range(j - 1):
                    nxt = nil @ vectors[-1]
                    norm = frobenius(nxt.reshape(-1, 1))
                    if norm < 0.5:
                        raise NotPowerPartialIsometry("shift chain broke before its expected length")
                    vectors.append(nxt / norm)
                chain = np.column_stack([wb @ u for u in vectors])
                chains.append(ShiftChain(frozen(chain)))

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
