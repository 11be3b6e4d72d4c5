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

import numpy as np

from .numlin import (
    DEFAULT_TOL,
    InvariantViolation,
    PisomError,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    as_matrix,
    dominant_index,
    equal_rule,
    frame_blocks,
    frobenius,
    frozen,
    full_subspace,
    is_projection,
    pair_table,
    projection_rule,
    split_by_projection,
)
from .pisom import PartialIsometry, make_partial_isometry


class NotProjection(PisomError):
    pass


class NonCommutingFamily(PisomError):
    def __init__(self, message: str, worst_pair: tuple[int, int], norm: float):
        super().__init__(message)
        self.worst_pair = worst_pair
        self.norm = norm


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
    dim: int
    members: tuple[np.ndarray, ...]
    max_pairwise_commutator: float
    worst_pair: tuple[int, int] | None
    cfg: ToleranceConfig

    def __len__(self) -> int:
        return len(self.members)

    def is_commuting(self) -> bool:
        scale = max([1.0] + [frobenius(p) for p in self.members])
        return self.max_pairwise_commutator <= self.cfg.proj_tol * scale


def projection_family(members, dim: int | None = None,
                      cfg: ToleranceConfig = DEFAULT_TOL) -> ProjectionFamily:
    """Validate a list of projections and record the worst pairwise
    commutator; cfg is the tolerance of every analysis of the family."""
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
    commutators = pair_table(stack)[1]
    worst, worst_pair = 0.0, None
    if commutators.any():
        i, j = np.unravel_index(np.argmax(commutators), commutators.shape)
        worst, worst_pair = float(commutators[i, j]), (int(i), int(j))
    return ProjectionFamily(dim, tuple(frozen(stack)), worst, worst_pair, cfg)


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
    """Split the space into joint eigenspaces of the family.

    Starting from the full space, each member splits every surviving cell
    into cell ∩ range(p) and cell ∩ ker(p); zero cells are dropped.  A split
    whose rank decision falls inside a factor-10 band around the SVD cutoff
    raises IllConditionedSplit instead of guessing, because a silently wrong
    atom corrupts every downstream check.

    The empty family yields the single atom I (the algebra C·I).
    """
    if not fam.is_commuting():
        raise NonCommutingFamily(
            f"family members {fam.worst_pair} have commutator norm "
            f"{fam.max_pairwise_commutator:.3e}",
            fam.worst_pair, fam.max_pairwise_commutator)
    cells: list[tuple[Subspace, tuple[bool, ...]]] = [(full_subspace(fam.dim), ())]
    for p in fam.members:
        split: list[tuple[Subspace, tuple[bool, ...]]] = []
        for sub, pattern in cells:
            inside, outside = split_by_projection(sub, p, fam.cfg, ambiguity_factor=10.0)
            if inside.dim > 0:
                split.append((inside, pattern + (True,)))
            if outside.dim > 0:
                split.append((outside, pattern + (False,)))
        cells = split
    cells.sort(key=lambda item: _atom_sort_key(item[0]))

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
    atoms = np.array(dec.atoms)
    overlapping = pair_table(atoms)[0] > dec.cfg.proj_tol * dec.dim
    if overlapping.any():
        i, j = np.unravel_index(np.argmax(overlapping), overlapping.shape)
        raise InvariantViolation(f"atoms {i} and {j} are not orthogonal")
    # row 0 sums every atom to the identity, row k + 1 sums member k's atoms
    masks = np.array([(True,) * len(dec)] + list(dec.generator_masks), dtype=np.complex128)
    sums = np.tensordot(masks, atoms, axes=1)
    targets = np.array([np.eye(dec.dim)] + list(fam.members), dtype=np.complex128)
    failing = np.flatnonzero(~equal_rule(sums, targets, dec.cfg))
    if failing.size:
        k = failing[0] - 1
        raise InvariantViolation("atoms do not sum to the identity" if k < 0
                                 else f"family member {k} is not the sum of its atoms")


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
    within eq_tol, i.e. iff t is decomposable along the atom decomposition.
    """
    t = as_matrix(t)
    if t.shape != (atoms.dim, atoms.dim):
        raise ShapeMismatch(f"operator shape {t.shape}, expected {(atoms.dim,) * 2}")
    x, offsets, norms = frame_blocks(t, atoms.bases)
    np.fill_diagonal(norms, 0.0)
    # the first maximum in (i, j) order names the worst pair
    i, j = (int(k) for k in np.unravel_index(np.argmax(norms), norms.shape))
    residual = float(norms[i, j])
    if residual > atoms.cfg.eq_tol * max(1.0, frobenius(t)):
        raise OffDiagonalResidual(
            f"atoms {(i, j)} are coupled with residual {residual:.3e}",
            (i, j), residual)
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
