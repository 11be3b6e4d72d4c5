"""Unit tests for Boolean atoms, standard projections, and multiplicity."""

import itertools

import numpy as np
import pytest

from pisomlab.numlin import NonCommuting, approx_equal, frame_blocks, frobenius
from pisomlab.pisom import NotPartialIsometry, make_partial_isometry
from pisomlab.projlat import (
    IndexOutOfRange,
    NotProjection,
    NotStandard,
    OffDiagonalResidual,
    _as_atom_subset,
    boolean_atoms,
    decompose_by_atoms,
    induced_atom_map,
    membership_in_span,
    multiplicity_profile,
    projection_family,
    standard_projection,
)
from conftest import coord_projection, golden_generators, half_projection
from factories import diagonal_indicator, random_unitary


def golden_q_family():
    A, B, C = golden_generators()
    qs = [m @ m.conj().T for m in (A, B, C)] + [np.eye(8)]
    return projection_family(qs, dim=8)


def test_projection_family_validation():
    with pytest.raises(NotProjection):
        projection_family([half_projection() @ coord_projection()])
    fam = projection_family([half_projection(), coord_projection()])
    assert not fam.is_commuting()
    # the cells of the first member are lines onto (1, 1) and (1, -1); the
    # second compresses each to 1/2, so lambda(1 - lambda) = 1/4
    with pytest.raises(NonCommuting, match=r"^family member 1 does not commute with cell 0: "
                       r"lambda\(1 - lambda\) = 2\.500e-01$"):
        boolean_atoms(fam)


def test_boolean_atoms_golden_ranks():
    atoms = boolean_atoms(golden_q_family())
    assert atoms.ranks == (5, 1, 1, 1)
    profile = multiplicity_profile(atoms)
    assert not profile.uniform
    assert profile.counts == {5: 1, 1: 3}


def test_boolean_atoms_single_projection():
    p = diagonal_indicator(5, [0, 1])
    atoms = boolean_atoms(projection_family([p], dim=5))
    assert sorted(atoms.ranks) == [2, 3]
    # masks recover the generator
    recon = standard_projection(
        atoms, [i for i in range(len(atoms)) if atoms.generator_masks[0][i]])
    assert approx_equal(recon, p)


def test_boolean_atoms_diagonal_oracle():
    # independent oracle: atoms of indicator projections are the coordinate
    # sets with a fixed membership pattern, enumerated by brute force
    d1_set, d2_set = {0, 1}, {0, 2}
    patterns = {}
    for coord in range(4):
        patterns.setdefault((coord in d1_set, coord in d2_set), set()).add(coord)
    expected = sorted(frozenset(v) for v in patterns.values())

    d1 = diagonal_indicator(4, d1_set)
    d2 = diagonal_indicator(4, d2_set)
    atoms = boolean_atoms(projection_family([d1, d2], dim=4))
    got = sorted(frozenset(np.nonzero(np.abs(np.diag(a)) > 0.5)[0].tolist())
                 for a in atoms.atoms)
    assert got == expected
    assert atoms.ranks == (1, 1, 1, 1)


def test_boolean_atoms_empty_family_is_identity():
    atoms = boolean_atoms(projection_family([], dim=3))
    assert atoms.ranks == (3,)
    assert approx_equal(atoms.atoms[0], np.eye(3))


def test_boolean_atoms_rejects_noncommuting():
    fam = projection_family([half_projection(), coord_projection()])
    with pytest.raises(NonCommuting):
        boolean_atoms(fam)


def test_boolean_atoms_order_independent():
    fam = golden_q_family()
    atoms = boolean_atoms(fam)
    for perm in itertools.permutations(range(4)):
        shuffled = projection_family([fam.members[i] for i in perm], dim=8)
        again = boolean_atoms(shuffled)
        assert again.ranks == atoms.ranks
        for a, b in zip(again.atoms, atoms.atoms):
            assert approx_equal(a, b)


def test_standard_projection_boolean_structure():
    atoms = boolean_atoms(golden_q_family())
    k = len(atoms)
    assert approx_equal(standard_projection(atoms, range(k)), np.eye(8))
    assert approx_equal(standard_projection(atoms, []), np.zeros((8, 8)))
    with pytest.raises(IndexOutOfRange):
        standard_projection(atoms, [k])
    # disjoint additivity and intersection-as-product
    ex = standard_projection(atoms, [0, 1])
    ey = standard_projection(atoms, [2])
    assert approx_equal(ex + ey, standard_projection(atoms, [0, 1, 2]))
    exy = standard_projection(atoms, [1]) @ standard_projection(atoms, [1, 2])
    assert approx_equal(exy, standard_projection(atoms, [1]))


def test_standard_projection_recovers_golden_qb():
    _, B, _ = golden_generators()
    QB = B @ B.conj().T
    atoms = boolean_atoms(golden_q_family())
    # Q_B is the sum of the two rank-one atoms supported on the first block
    subset = [i for i in range(len(atoms))
              if approx_equal(atoms.atoms[i] @ QB, atoms.atoms[i])]
    assert len(subset) == 2
    assert approx_equal(standard_projection(atoms, subset), QB)


def test_multiplicity_profile_masa_case():
    atoms = boolean_atoms(projection_family(
        [diagonal_indicator(3, [0]), diagonal_indicator(3, [1])], dim=3))
    profile = multiplicity_profile(atoms)
    assert profile.uniform and profile.multiplicity == 1


def test_multiplicity_profile_block_case():
    # two blocks of size 2 on C^4
    p = diagonal_indicator(4, [0, 1])
    atoms = boolean_atoms(projection_family([p], dim=4))
    profile = multiplicity_profile(atoms)
    assert profile.uniform and profile.multiplicity == 2


def test_decompose_by_atoms_golden():
    A, B, _ = golden_generators()
    atoms = boolean_atoms(golden_q_family())
    # standard projections decompose with 0/I blocks
    blocks = decompose_by_atoms(standard_projection(atoms, [1]), atoms)
    for i, block in enumerate(blocks):
        target = np.eye(block.shape[0]) if i == 1 else np.zeros_like(block)
        assert approx_equal(block, target)
    # the initial projection of B sits inside the rank-five atom
    PB = B.conj().T @ B
    blocks = decompose_by_atoms(PB, atoms)
    assert blocks[0].shape == (5, 5)
    # A couples atoms, so it is not decomposable
    with pytest.raises(OffDiagonalResidual):
        decompose_by_atoms(A, atoms)


def test_decompose_by_atoms_swap_violation():
    atoms = boolean_atoms(projection_family([diagonal_indicator(4, [0, 1])], dim=4))
    swap = np.eye(4)[[3, 1, 2, 0]]
    with pytest.raises(OffDiagonalResidual):
        decompose_by_atoms(swap, atoms)



def test_decompose_by_atoms_names_the_first_tied_pair():
    # t = U F U* for the unitary DFT matrix F couples every two of the rank-one
    # atoms u_i u_i* with the same residual 1/2 in exact arithmetic; rounding
    # spreads the computed residuals over a few ulps, and the first pair in
    # row-major order is named
    n = 4
    dft = np.exp(2j * np.pi * np.outer(range(n), range(n)) / n) / np.sqrt(n)
    for seed in range(8):
        u = random_unitary(np.random.default_rng(seed), n)
        atoms = boolean_atoms(projection_family([np.outer(u[:, i], u[:, i].conj())
                                                 for i in range(n)]))
        with pytest.raises(OffDiagonalResidual) as err:
            decompose_by_atoms(u @ dft @ u.conj().T, atoms)
        assert err.value.worst_pair == (0, 1)
        assert err.value.residual == pytest.approx(0.5, rel=1e-12)

def test_membership_in_span_golden():
    _, B, _ = golden_generators()
    atoms = boolean_atoms(golden_q_family())
    assert membership_in_span(np.eye(8), atoms)
    QB = B @ B.conj().T
    PB = B.conj().T @ B
    assert membership_in_span(QB, atoms)
    # P_B sits strictly inside the rank-five atom, so it is not standard
    assert not membership_in_span(PB, atoms)
    with pytest.raises(NotProjection):
        membership_in_span(B, atoms)


def reference_atom_subset(p, atoms):
    """The block loop: the blocks above the diagonal are zero, and each
    diagonal block is zero or I, all within eq_tol * max(1, ||p||)."""
    tol = atoms.cfg.eq_tol * max(1.0, frobenius(p))
    x, offsets, norms = frame_blocks(p, atoms.bases)
    if np.any(np.triu(norms, 1) > tol):
        return None
    chosen = []
    for i, (a, b) in enumerate(zip(offsets[:-1], offsets[1:])):
        if norms[i, i] <= tol:
            continue
        if frobenius(x[a:b, a:b] - np.eye(b - a)) > tol:
            return None
        chosen.append(i)
    return frozenset(chosen)


@pytest.mark.parametrize("seed", range(4))
def test_atom_subsets_answer_as_the_block_loop(seed):
    # sums of atoms, moved by hermitian noise at half and twice the equality
    # scale, and a random line, which is not standard
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, 5)
    members = [u @ diagonal_indicator(5, s) @ u.conj().T for s in ([0, 1, 2], [1, 3])]
    atoms = boolean_atoms(projection_family(members))
    for subset in itertools.product((False, True), repeat=len(atoms)):
        p = sum((a for a, keep in zip(atoms.atoms, subset) if keep), np.zeros((5, 5)))
        for factor in (0.0, 0.5, 2.0):
            e = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
            e += e.conj().T
            q = p + e * (factor * atoms.cfg.eq_tol * max(1.0, frobenius(p)) / frobenius(e))
            assert _as_atom_subset(q, atoms) == reference_atom_subset(q, atoms)
        want = frozenset(i for i, keep in enumerate(subset) if keep)
        assert _as_atom_subset(p, atoms) == want
    line = random_unitary(rng, 5)[:, :1]
    assert _as_atom_subset(line @ line.conj().T, atoms) is reference_atom_subset(
        line @ line.conj().T, atoms) is None


def test_induced_atom_map_identity():
    atoms = boolean_atoms(golden_q_family())
    ident = make_partial_isometry(np.eye(8))
    mapping = induced_atom_map(ident, atoms)
    assert mapping == {i: frozenset([i]) for i in range(len(atoms))}


def test_induced_atom_map_golden_b():
    A, B, _ = golden_generators()
    atoms = boolean_atoms(golden_q_family())
    QA = A @ A.conj().T
    QB = B @ B.conj().T
    rank5 = next(i for i in range(len(atoms)) if atoms.ranks[i] == 5)
    qa_atom = next(i for i in range(len(atoms)) if approx_equal(atoms.atoms[i], QA))
    qb_minus = next(i for i in range(len(atoms))
                    if approx_equal(atoms.atoms[i], QB - QA))
    mapping = induced_atom_map(make_partial_isometry(B), atoms)
    assert mapping[rank5] == frozenset({qa_atom, qb_minus})
    for i in range(len(atoms)):
        if i != rank5:
            assert mapping[i] == frozenset()


def test_induced_atom_map_not_standard():
    # atoms of the coordinate masa on C^2; a rotation maps e11 to a
    # non-diagonal projection, which is not standard
    atoms = boolean_atoms(projection_family([diagonal_indicator(2, [0])], dim=2))
    rng = np.random.default_rng(0)
    u = random_unitary(rng, 2)
    with pytest.raises(NotStandard):
        induced_atom_map(make_partial_isometry(u), atoms)


def test_standard_compatible_conjugation_gives_projections():
    # V (Q_R1 ... Q_Rm) V* is a projection whenever the initial projection of
    # V commutes with every Q; here P_V is a standard projection of the atoms
    from pisomlab.numlin import is_projection

    A, B, C = golden_generators()
    qs = [m @ m.conj().T for m in (A, B, C)] + [np.eye(8)]
    atoms = boolean_atoms(projection_family(qs, dim=8))
    rng = np.random.default_rng(7)
    for _ in range(20):
        subset = [i for i in range(len(atoms)) if rng.integers(2)]
        e = standard_projection(atoms, subset)
        v = random_unitary(rng, 8) @ e
        prod = np.eye(8, dtype=complex)
        for _ in range(int(rng.integers(1, 5))):
            prod = prod @ qs[int(rng.integers(len(qs)))]
        assert is_projection(v @ prod @ v.conj().T)


def test_atom_decomposition_serialization():
    atoms = boolean_atoms(golden_q_family())
    data = atoms.to_json_dict()
    assert data["ranks"] == [5, 1, 1, 1]
    assert len(data["atoms"]) == 4
    assert len(data["generator_masks"]) == 4
    assert all(len(mask) == 4 for mask in data["generator_masks"])


def test_induced_atom_map_invalid_product():
    # a partial isometry whose product with an atom is not a partial isometry
    atoms = boolean_atoms(projection_family([half_projection()], dim=2))
    f = make_partial_isometry(coord_projection())
    with pytest.raises((NotPartialIsometry, NotStandard)):
        induced_atom_map(f, atoms)
