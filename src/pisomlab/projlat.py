"""Commuting projection families: Boolean atoms, standard projections,
multiplicity profiles, atom-block decompositions, and the atom map a partial
isometry induces.

At finite dimension the von Neumann algebra generated by a commuting family
is the linear span of its Boolean atoms, so the atoms are all this module
ever materializes.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    InvariantViolation,
    NonCommuting,
    PisomError,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    _eigen_halves,
    _split_error,
    _squared_norms,
    as_matrix,
    dominant_index,
    equal_rule,
    first_overlap,
    frame_blocks,
    frobenius,
    frozen,
    full_subspace,
    is_projection,
    projection_rule,
    worst_pair,
)
from .pisom import PartialIsometry, make_partial_isometry


class NotProjection(PisomError):
    pass


class IndexOutOfRange(PisomError):
    pass


class OffDiagonalResidual(PisomError):
    def __init__(self, message: str, worst_pair: tuple[int, int], residual: float):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.residual = residual


class NotStandard(PisomError):
    pass


@dataclass(frozen=True)
class ProjectionFamily:
    """Validated projections; their joint split is formed on first read."""

    dim: int
    members: tuple[np.ndarray, ...]
    cfg: ToleranceConfig

    def __len__(self) -> int:
        return len(self.members)

    @cached_property
    def _split(self) -> tuple[list[tuple[Subspace, tuple[bool, ...]]], PisomError | None]:
        """(cells, error): starting from the full space, each member splits
        every cell its predecessors left by numlin.split_cells' rule, and
        empty halves are dropped; a cell's pattern records the side of each
        member it lies on.  The error is the first NonCommuting, which ends
        the split with no cells, or else the first IllConditionedSplit: a
        split inside the band goes on at lambda > 1/2, so that a later
        member that does not commute is still found."""
        cells: list[tuple[Subspace, tuple[bool, ...]]] = [(full_subspace(self.dim), ())]
        ambiguous = None
        for k, p in enumerate(self.members):
            halves, defects = _eigen_halves([sub for sub, _ in cells], p)
            error = _split_error(defects, self.cfg, f"family member {k}")
            if isinstance(error, NonCommuting):
                return [], error
            ambiguous = ambiguous or error
            cells = [(half, pattern + (side,))
                     for (_, pattern), pair in zip(cells, halves)
                     for half, side in zip(pair, (True, False)) if half.dim]
        return cells, ambiguous

    def is_commuting(self) -> bool:
        """Whether the joint split found no member that fails to commute."""
        return not isinstance(self._split[1], NonCommuting)


def projection_family(members, dim: int | None = None,
                      cfg: ToleranceConfig = DEFAULT_TOL) -> ProjectionFamily:
    """Validate a list of projections; the family's joint split is formed
    when first read.  cfg is the tolerance of every analysis of the family."""
    mats = [as_matrix(p) for p in members]
    if dim is None:
        if not mats:
            raise ShapeMismatch("empty family needs an explicit dimension")
        dim = mats[0].shape[0]
    for i, p in enumerate(mats):
        if p.shape != (dim, dim):
            raise ShapeMismatch(f"member {i} has shape {p.shape}, expected {(dim, dim)}")
    stack = np.array(mats, dtype=np.complex128).reshape(len(mats), dim, dim)
    failing = np.flatnonzero(~projection_rule(stack, cfg))
    if failing.size:
        raise NotProjection(f"member {failing[0]} is not a projection")
    return ProjectionFamily(dim, tuple(frozen(stack)), cfg)


@dataclass(frozen=True)
class AtomDecomposition:
    """Atoms of the Boolean algebra generated by a commuting family.

    atoms[i] = bases[i] @ bases[i]* are pairwise orthogonal projections
    summing to the identity; generator_masks[k] marks which atoms sum to
    family member k.
    """

    dim: int
    atoms: tuple[np.ndarray, ...]
    ranks: tuple[int, ...]
    generator_masks: tuple[tuple[bool, ...], ...]
    bases: tuple[np.ndarray, ...]
    cfg: ToleranceConfig

    def __len__(self) -> int:
        return len(self.atoms)

    def to_json_dict(self) -> dict:
        from .jsonio import matrix_to_json
        return {
            "ranks": list(self.ranks),
            "atoms": [matrix_to_json(a) for a in self.atoms],
            "generator_masks": [list(m) for m in self.generator_masks],
        }


def _atom_sort_key(sub: Subspace) -> tuple:
    proj = sub.projection()
    rounded = np.round(proj, 9)
    return (-sub.dim, dominant_index(proj),
            tuple(rounded.real.ravel().tolist()),
            tuple(rounded.imag.ravel().tolist()))


def boolean_atoms(fam: ProjectionFamily) -> AtomDecomposition:
    """The joint eigenspaces of the family: the cells of its joint split.

    The split's error is raised: NonCommuting, or IllConditionedSplit
    instead of a guess when a split falls inside the ambiguity band, because
    a silently wrong atom corrupts every downstream check.

    The empty family yields the single atom I (the algebra C·I).
    """
    cells, error = fam._split
    if error is not None:
        raise error
    cells = sorted(cells, key=lambda item: _atom_sort_key(item[0]))

    atoms = tuple(frozen(sub.projection()) for sub, _ in cells)
    ranks = tuple(sub.dim for sub, _ in cells)
    bases = tuple(frozen(sub.basis) for sub, _ in cells)
    masks = tuple(
        tuple(pattern[k] for _, pattern in cells)
        for k in range(len(fam.members)))

    decomposition = AtomDecomposition(fam.dim, atoms, ranks, masks, bases, fam.cfg)
    _validate_atoms(decomposition, fam)
    return decomposition


def _validate_atoms(dec: AtomDecomposition, fam: ProjectionFamily) -> None:
    """The atoms are orthogonal (numlin.first_overlap), sum to the identity
    (equal_rule) and sum, by the masks, to each member P_k within
    ||P_k - sum of its atoms||_F^2 <= proj_tol * n.  That is the split's own
    scale: in the frame of the cells that P_k split, the diagonal blocks
    leave min(lambda, 1 - lambda)^2 <= lambda(1 - lambda) per eigenvalue
    and the off-diagonal blocks sum lambda(1 - lambda) over each cell, so
    the error is at most 2 sum lambda(1 - lambda) <= 0.2 n proj_tol once
    every split passed."""
    atoms = np.array(dec.atoms)
    overlap = first_overlap(atoms, dec.cfg)
    if overlap is not None:
        raise InvariantViolation("atoms {} and {} are not orthogonal".format(*overlap))
    if not equal_rule(atoms.sum(axis=0)[None], np.eye(dec.dim)[None], dec.cfg)[0]:
        raise InvariantViolation("atoms do not sum to the identity")
    masks = np.array(dec.generator_masks, dtype=np.complex128).reshape(len(fam), len(dec))
    members = np.array(fam.members, dtype=np.complex128).reshape(len(fam), dec.dim, dec.dim)
    errors = _squared_norms(np.tensordot(masks, atoms, axes=1) - members)
    failing = np.flatnonzero(errors > dec.cfg.proj_tol * dec.dim)
    if failing.size:
        raise InvariantViolation(f"family member {failing[0]} is not the sum of its atoms")


def standard_projection(atoms: AtomDecomposition, subset) -> np.ndarray:
    """Sum of the selected atoms, the finite-dimensional standard projection."""
    indices = sorted(set(int(i) for i in subset))
    out = np.zeros((atoms.dim, atoms.dim), dtype=np.complex128)
    for i in indices:
        if not 0 <= i < len(atoms):
            raise IndexOutOfRange(f"atom index {i} out of range 0..{len(atoms) - 1}")
        out += atoms.atoms[i]
    return out


@dataclass(frozen=True)
class MultiplicityProfile:
    counts: dict[int, int]
    uniform: bool
    multiplicity: int | None


def multiplicity_profile(atoms: AtomDecomposition) -> MultiplicityProfile:
    """Histogram of atom ranks; uniform iff a single rank occurs."""
    counts = dict(Counter(atoms.ranks))
    uniform = len(counts) == 1
    return MultiplicityProfile(counts, uniform,
                               next(iter(counts)) if uniform else None)


def decompose_by_atoms(t, atoms: AtomDecomposition) -> list[np.ndarray]:
    """Diagonal blocks of t in the atom bases; fails when t couples atoms.

    Succeeds iff every off-diagonal compression a_i t a_j (i != j) vanishes
    within eq_tol, i.e. iff t is decomposable along the atom decomposition;
    the error names numlin.worst_pair of the residuals and its residual.
    """
    t = as_matrix(t)
    if t.shape != (atoms.dim, atoms.dim):
        raise ShapeMismatch(f"operator shape {t.shape}, expected {(atoms.dim,) * 2}")
    x, offsets, norms = frame_blocks(t, atoms.bases)
    np.fill_diagonal(norms, 0.0)
    if norms.max() > atoms.cfg.eq_tol * max(1.0, frobenius(t)):
        pair = worst_pair(norms)
        residual = float(norms[pair])
        raise OffDiagonalResidual(
            f"atoms {pair} are coupled with residual {residual:.3e}", pair, residual)
    return [x[a:b, a:b] for a, b in zip(offsets[:-1], offsets[1:])]


def membership_in_span(p, atoms: AtomDecomposition) -> bool:
    """Is the projection p a sum of atoms (i.e. in the span algebra)?"""
    p = as_matrix(p)
    if not is_projection(p, atoms.cfg):
        raise NotProjection("membership_in_span expects a projection")
    subset = _as_atom_subset(p, atoms)
    return subset is not None


def _as_atom_subset(p: np.ndarray, atoms: AtomDecomposition) -> frozenset[int] | None:
    """Express p as a subset of atoms, or None when it is not standard."""
    tol = atoms.cfg.eq_tol * max(1.0, frobenius(p))
    x, offsets, norms = frame_blocks(p, atoms.bases)
    if np.any(np.triu(norms, 1) > tol):
        return None
    chosen = []
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        if norms[i, i] <= tol:
            continue
        if frobenius(x[a:b, a:b] - np.eye(b - a)) <= tol:
            chosen.append(i)
            continue
        return None
    return frozenset(chosen)


def induced_atom_map(t: PartialIsometry, atoms: AtomDecomposition) -> dict[int, frozenset[int]]:
    """Atom image map: atom index i -> subset Y with final(t·a_i) = sum of Y.

    Each product t·a_i must validate as a partial isometry and its final
    projection must be standard; images of distinct atoms must be disjoint,
    which is the finite form of additivity over unions.
    """
    if t.dim != atoms.dim:
        raise ShapeMismatch(f"operator dim {t.dim}, atoms dim {atoms.dim}")
    mapping: dict[int, frozenset[int]] = {}
    for i, a in enumerate(atoms.atoms):
        product = make_partial_isometry(t.matrix @ a, atoms.cfg)
        subset = _as_atom_subset(np.asarray(product.final), atoms)
        if subset is None:
            raise NotStandard(
                f"final projection of t·atom[{i}] is not a standard projection")
        mapping[i] = subset
    covered: set[int] = set()
    for i, subset in mapping.items():
        overlap = covered & subset
        if overlap:
            raise NotStandard(
                f"atom images overlap on atoms {sorted(overlap)}; additivity fails")
        covered |= subset
    return mapping
