"""The stacked family relations against the scalar loops they replaced: the
orthogonality of atoms and of Brandt families, the sum and reconstruction
checks of an atom decomposition and the Brandt minimal search.  The split
of a cell by the eigenvalues of a compression, and the joint split of a
family (formed on first read, and by a report for its Q family only),
against the loops of the linear rule they replaced, a commutator test and
SVDs of both halves, far from the thresholds where the two rules differ;
and near them, the band, the error of the first failing cell and the
member-sum check that catches a misplaced eigenvector."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from pisomlab import projlat
from pisomlab.cli import main
from pisomlab.jsonio import parse_generator_problem
from pisomlab.numlin import (
    DEFAULT_TOL,
    IllConditionedSplit,
    InvariantViolation,
    NonCommuting,
    PisomError,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    approx_equal,
    as_matrix,
    commutator_norm,
    frobenius,
    frozen,
    full_subspace,
    range_basis,
    split_cells,
)
from pisomlab.projlat import (
    AtomDecomposition,
    _atom_sort_key,
    _validate_atoms,
    boolean_atoms,
    projection_family,
)
from pisomlab.sgroup import (
    DEFAULT_LIMITS,
    CoverageGap,
    _minimal_projections,
    brandt_structure,
    close,
    family_projections,
    generator_set,
)
from factories import bench_module, diagonal_indicator, random_unitary

CFGS = (DEFAULT_TOL, ToleranceConfig(1e-6, 1e-6, 1e-6))


# --- the scalar loops, kept as references -------------------------------

def reference_worst_pair(mats):
    """projection_family's pair loop: the largest commutator norm, and the
    first pair, in loop order, within rel 1e-12 of it."""
    norms = {(i, j): commutator_norm(mats[i], mats[j])
             for i in range(len(mats)) for j in range(i + 1, len(mats))}
    worst = max(norms.values(), default=0.0)
    tied = [pair for pair, c in norms.items() if c > 0 and c >= worst - 1e-12 * worst]
    return worst, (tied[0] if tied else None)


def reference_first_overlap(mats, cfg):
    """The orthogonality loops of _validate_atoms and brandt_structure: the
    first pair of projections with ||P_i P_j|| > eq_tol * max(1, sqrt(n))."""
    bound = cfg.eq_tol * max(1.0, np.sqrt(len(mats[0]))) if len(mats) else 0.0
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if frobenius(mats[i] @ mats[j]) > bound:
                return i, j
    return None


def reference_validate_atoms(dec, fam):
    """_validate_atoms as a loop: orthogonality, then the sum, then the
    reconstruction of each member from its atoms, on the split's scale."""
    cfg = dec.cfg
    overlap = reference_first_overlap(dec.atoms, cfg)
    if overlap is not None:
        raise InvariantViolation("atoms {} and {} are not orthogonal".format(*overlap))
    total = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for a in dec.atoms:
        total += a
    if not approx_equal(total, np.eye(dec.dim), cfg):
        raise InvariantViolation("atoms do not sum to the identity")
    for k, member in enumerate(fam.members):
        recon = sum((dec.atoms[i] for i in range(len(dec)) if dec.generator_masks[k][i]),
                    start=np.zeros((dec.dim, dec.dim), dtype=np.complex128))
        if frobenius(recon - member) ** 2 > cfg.proj_tol * dec.dim:
            raise InvariantViolation(f"family member {k} is not the sum of its atoms")


def reference_minimal(union, cfg):
    """The Brandt minimal search: indices of the members with no member
    strictly below them, q below p when ||pq - q|| is within eq_tol of
    zero, relative to the larger norm, and p is not below q."""
    def is_subprojection(small, big):
        scale = max(1.0, frobenius(small), frobenius(big))
        return frobenius(big @ small - small) <= cfg.eq_tol * scale

    return [k for k, p in enumerate(union)
            if not any(is_subprojection(q, p) and not is_subprojection(p, q)
                       for q in union)]


def intersect_with_projection(s, p, take_range, cfg=DEFAULT_TOL):
    p = as_matrix(p)
    if p.shape != (s.ambient_dim, s.ambient_dim):
        raise ShapeMismatch(
            f"projection shape {p.shape} does not match ambient dim {s.ambient_dim}")
    ps = s.projection()
    scale = max(1.0, frobenius(ps), frobenius(p))
    if not commutator_norm(ps, p) <= cfg.proj_tol * scale:
        raise NonCommuting(
            f"projection does not commute with the subspace projection "
            f"(commutator norm {commutator_norm(ps, p):.3e})")
    target = ps @ p if take_range else ps @ (np.eye(s.ambient_dim) - p)
    return range_basis(target, cfg)


def reference_split(s, p, cfg=DEFAULT_TOL):
    """The linear rule: a commutator test, the ranges of both halves by
    SVD, then the dimension check boolean_atoms made."""
    inside = intersect_with_projection(s, p, True, cfg)
    outside = intersect_with_projection(s, p, False, cfg)
    if inside.dim + outside.dim != s.dim:
        raise InvariantViolation(
            f"cell of dimension {s.dim} split into {inside.dim} + {outside.dim}")
    return inside, outside


def reference_split_cells(cells, p, cfg=DEFAULT_TOL):
    """split_cells under the linear rule: reference_split of each cell."""
    return [reference_split(s, p, cfg) for s in cells]


def reference_atoms(fam):
    """boolean_atoms under the linear rule: the family's pairwise commutator
    test, reference_split and reference_validate_atoms."""
    cfg = fam.cfg
    worst, pair = reference_worst_pair(fam.members)
    if worst > cfg.proj_tol * max([1.0] + [frobenius(p) for p in fam.members]):
        raise NonCommuting(f"family members {pair} have commutator norm {worst:.3e}")
    cells = [(full_subspace(fam.dim), ())]
    for p in fam.members:
        split = []
        for sub, pattern in cells:
            inside, outside = reference_split(sub, p, cfg)
            if inside.dim > 0:
                split.append((inside, pattern + (True,)))
            if outside.dim > 0:
                split.append((outside, pattern + (False,)))
        cells = split
    cells.sort(key=lambda item: _atom_sort_key(item[0]))
    dec = AtomDecomposition(
        fam.dim, tuple(frozen(sub.projection()) for sub, _ in cells),
        tuple(sub.dim for sub, _ in cells),
        tuple(tuple(pattern[k] for _, pattern in cells) for k in range(len(fam.members))),
        tuple(frozen(sub.basis) for sub, _ in cells), cfg)
    reference_validate_atoms(dec, fam)
    return dec


# --- comparison helpers ---------------------------------------------------

def outcome(fn, *args):
    """-> ("ok", value) or (exception type, message)."""
    try:
        return "ok", fn(*args)
    except PisomError as err:
        return type(err), str(err)


def assert_same_outcome(new, ref, same_value):
    assert new[0] == ref[0], (new, ref)
    if new[0] == "ok":
        same_value(new[1], ref[1])
    else:
        assert new[1] == ref[1]


def same_atoms(a, b):
    """Equal ranks and masks, atoms within 1e-10."""
    assert a.ranks == b.ranks
    assert a.generator_masks == b.generator_masks
    assert all(np.abs(x - y).max() <= 1e-10 for x, y in zip(a.atoms, b.atoms))


def assert_same_minimal(union, cfg):
    minimal = _minimal_projections(union, cfg)
    want = reference_minimal(list(union), cfg)
    assert len(minimal) == len(want)
    assert all(np.array_equal(m, union[i]) for m, i in zip(minimal, want))
    return want


def perturbed(rng, m, scale):
    """m plus a hermitian random matrix of Frobenius norm scale."""
    e = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    e = e + e.conj().T
    return m + e * (scale / np.linalg.norm(e))


def coupled(dec, pairs, c):
    """dec with the first column x of atom i's basis tilted towards the first
    column y of atom j's, x -> sqrt(1 - c^2) x + c y, for each of the
    disjoint pairs (i, j), and each atom B B* of its basis: ||a_i a_j|| = c,
    and no other pair overlaps."""
    bases = [np.array(b) for b in dec.bases]
    for i, j in pairs:
        bases[i][:, 0] = np.sqrt(1.0 - c ** 2) * bases[i][:, 0] + c * bases[j][:, 0]
    return replace(dec, atoms=tuple(b @ b.conj().T for b in bases), bases=tuple(bases))


def conjugated_diagonals(rng, n, k):
    return conjugated_subsets(rng, n, k)[0]


def conjugated_subsets(rng, n, k):
    """k members U D_i U* for one random unitary U and random 0/1 diagonals
    D_i: (members, U, the coordinate subset of each D_i)."""
    u = random_unitary(rng, n)
    subsets = [{i for i in range(n) if rng.integers(2)} for _ in range(k)]
    return [u @ diagonal_indicator(n, d) @ u.conj().T for d in subsets], u, subsets


# --- the comparisons ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(0, 5),
       factor=st.sampled_from((0.0, 0.5, 2.0)), cfg=st.sampled_from(CFGS),
       noncommuting=st.booleans())
def test_family_relations_answer_as_the_pair_loops(seed, n, k, factor, cfg, noncommuting):
    rng = np.random.default_rng(seed)
    exact = conjugated_diagonals(rng, n, k)
    if noncommuting and k:
        # one member from another frame: a non-commuting pair
        exact[-1] = conjugated_diagonals(rng, n, 1)[0]
    mats = [perturbed(rng, p, factor * cfg.proj_tol * max(1.0, frobenius(p)))
            for p in exact]

    union = np.array([p for p in mats if frobenius(p) > cfg.eq_tol],
                     dtype=np.complex128).reshape(-1, n, n)
    assert_same_minimal(union, cfg)

    fam_outcome = outcome(projection_family, mats, n, cfg)
    if fam_outcome[0] != "ok":
        return
    # far from the thresholds the two rules agree: a pair from two random
    # frames has a commutator of order 1, a perturbation of the order of
    # proj_tol moves lambda(1 - lambda) by its square
    fam = fam_outcome[1]
    worst, _ = reference_worst_pair(mats)
    assert fam.is_commuting() == (worst < 1e-3)
    if not fam.is_commuting():
        assert outcome(boolean_atoms, fam)[0] is NonCommuting


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), k=st.integers(0, 5),
       cfg=st.sampled_from(CFGS))
def test_atoms_equal_the_reference_far_from_the_band(seed, n, k, cfg):
    # conjugated commuting 0/1 families: every lambda is 0 or 1 up to
    # rounding, far below the band, and the linear rule's commutators and
    # singular values are as far from its cutoffs
    fam = projection_family(conjugated_diagonals(np.random.default_rng(seed), n, k), n, cfg)
    assert fam.is_commuting()
    same_atoms(boolean_atoms(fam), reference_atoms(fam))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       factor=st.sampled_from((0.0, 0.3, 0.9, 2.0)),
       target=st.sampled_from(("atoms", "members")), cfg=st.sampled_from(CFGS))
def test_atom_validation_answers_as_the_loops(seed, n, factor, target, cfg):
    # couple atoms at the orthogonality scale eq_tol * max(1, sqrt(n)), or
    # move a member at the member-sum scale, so that every check can fail.
    # p disjoint pairs at c = factor * that scale move the atoms' sum by
    # sqrt(2p) c, on the same scale: each check passes or fails by 10% or more
    rng = np.random.default_rng(seed)
    fam = projection_family(conjugated_diagonals(rng, n, 3), n, cfg)
    dec = boolean_atoms(fam)
    if target == "atoms":
        order = rng.permutation(len(dec))
        pairs = list(zip(order[0::2], order[1::2]))
        dec = coupled(dec, pairs, factor * cfg.eq_tol * max(1.0, np.sqrt(n)))
    else:
        # one member moves by factor * sqrt(proj_tol * n), so that a single
        # reconstruction can fail
        k = rng.integers(len(fam))
        members = tuple(perturbed(rng, p, factor * np.sqrt(cfg.proj_tol * n))
                        if i == k else p for i, p in enumerate(fam.members))
        fam = replace(fam, members=members)
    assert_same_outcome(outcome(_validate_atoms, dec, fam),
                        outcome(reference_validate_atoms, dec, fam),
                        lambda a, b: None)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), k=st.integers(1, 4),
       cfg=st.sampled_from(CFGS))
def test_member_sum_check_catches_a_misplaced_eigenvector(seed, n, k, cfg):
    # the last member's split puts one eigenvector of lambda = 1 into the
    # outside half: the atoms stay orthogonal and sum to the identity, and
    # only the member-sum check can see that the last member lost it
    fam = projection_family(conjugated_diagonals(np.random.default_rng(seed), n, k), n, cfg)
    eigen_halves, calls, moved = projlat._eigen_halves, [], []

    def misplacing(cells, p):
        halves, defects = eigen_halves(cells, p)
        calls.append(len(cells))
        i = next((i for i, (inside, _) in enumerate(halves) if inside.dim), None)
        if len(calls) == k and i is not None:
            inside, outside = halves[i]
            halves[i] = (Subspace(n, inside.basis[:, :-1]),
                         Subspace(n, np.hstack([outside.basis, inside.basis[:, -1:]])))
            moved.append(i)
        return halves, defects

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(projlat, "_eigen_halves", misplacing)
        got = outcome(boolean_atoms, fam)
    assume(moved)
    assert got == (InvariantViolation, f"family member {k - 1} is not the sum of its atoms")


def test_first_overlapping_atoms_in_loop_order():
    # atoms (1, 2) and (0, 3) overlap: a loop over i, then j > i, meets (0, 3) first
    fam = projection_family([np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 1.0, 0.0])])
    dec = coupled(boolean_atoms(fam), [(1, 2), (0, 3)], 1e-6)
    for check in (_validate_atoms, reference_validate_atoms):
        with pytest.raises(InvariantViolation, match=r"^atoms 0 and 3 are not orthogonal$"):
            check(dec, fam)


@pytest.mark.parametrize("eps", (1e-9, 1e-8, 1e-7))
def test_near_threshold_pair(eps):
    # A = diag(1,1,0) and B the projection onto (1,0,eps)/||.||: B's
    # compressions to the cells of A leave lambda(1 - lambda) of about
    # eps^2, far below the band, where the linear rule's commutator of about
    # eps was within its factor 10 of proj_tol
    v = np.array([1.0, 0.0, eps]) / np.linalg.norm([1.0, 0.0, eps])
    mats = [np.diag([1.0, 1.0, 0.0]).astype(complex), np.outer(v, v).astype(complex)]
    fam = projection_family(mats)
    assert fam.is_commuting()
    dec = boolean_atoms(fam)
    assert dec.ranks == (1, 1, 1)
    assert dec.generator_masks == ((True, True, False), (True, False, False))
    for atom, i in zip(dec.atoms, (0, 1, 2)):
        assert np.abs(atom - np.diag(np.eye(3)[i])).max() <= 2 * eps


def same_halves(a, b):
    """Equal dimensions, each half's projection within 1e-10."""
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for u, v in zip(x, y):
            assert u.dim == v.dim
            assert np.abs(u.projection() - v.projection()).max(initial=0.0) <= 1e-10


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), k=st.integers(1, 5),
       plant=st.sampled_from((None, "noncommuting", "band")), cfg=st.sampled_from(CFGS))
def test_stacked_split_answers_as_the_cell_loop(seed, n, k, plant, cfg):
    # each member splits every cell of the partition its predecessors made,
    # as the linear rule's loop over cells does far from the thresholds; a
    # planted last member may come from another frame, or be the last
    # member with one vector x of its range turned by an angle t towards a
    # vector y of its kernel: lambda(1 - lambda) = (sin t cos t)^2 lies in
    # the band for the cells of x and y if they differ, and is 0 otherwise
    rng = np.random.default_rng(seed)
    members, u, subsets = conjugated_subsets(rng, n, k)
    separated = None
    if plant == "noncommuting":
        members[-1] = conjugated_diagonals(rng, n, 1)[0]
    elif plant == "band":
        inside, outside = sorted(subsets[-1]), sorted(set(range(n)) - subsets[-1])
        assume(inside and outside)
        i, j = inside[rng.integers(len(inside))], outside[rng.integers(len(outside))]
        t = np.sqrt(cfg.proj_tol) * 10.0 ** rng.uniform(-0.45, 0.45)
        v = np.cos(t) * u[:, i] + np.sin(t) * u[:, j]
        members[-1] = members[-1] - np.outer(u[:, i], u[:, i].conj()) + np.outer(v, v.conj())
        separated = any((i in d) != (j in d) for d in subsets[:-1])
    cells = [full_subspace(n)]
    for m, p in enumerate(members):
        new = outcome(split_cells, cells, p, cfg)
        if m == k - 1 and plant == "band":
            assert new[0] is (IllConditionedSplit if separated else "ok")
            break
        ref = outcome(reference_split_cells, cells, p, cfg)
        assert new[0] == ref[0], (new, ref)
        if new[0] != "ok":
            assert new[0] is NonCommuting
            break
        same_halves(new[1], ref[1])
        cells = [half for pair in new[1] for half in pair if half.dim]


def test_stacked_split_raises_for_the_first_failing_cell():
    # the first cell commutes with p; the second does not, nor does the
    # third, with another lambda(1 - lambda)
    cells = [Subspace(3, np.array(b, dtype=complex).reshape(3, 1))
             for b in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, np.sqrt(0.5), np.sqrt(0.5)])]
    v = np.array([0.0, np.cos(0.1), np.sin(0.1)])
    p = np.outer(v, v).astype(complex)
    lam = [abs(s.basis[:, 0] @ v) ** 2 for s in cells]
    defects = [f"{x * (1 - x):.3e}" for x in lam]
    assert lam[0] == 0.0 and defects[1] != defects[2]
    got = outcome(split_cells, cells, p)
    assert got[0] is NonCommuting == outcome(reference_split_cells, cells, p)[0]
    assert got[1] == f"projection does not commute with cell 1: lambda(1 - lambda) = {defects[1]}"
    assert outcome(split_cells, cells[:1], p)[0] == "ok"
    assert split_cells([], p) == []
    with pytest.raises(ShapeMismatch):
        split_cells(cells, np.eye(2))


def unit(*v) -> np.ndarray:
    return np.array(v, dtype=complex) / np.linalg.norm(v)


def line(*v) -> Subspace:
    return Subspace(len(v), unit(*v).reshape(-1, 1))


# cells of C^5 against p onto (1, 0, 1e-4, 0, 0): e4 and e5 lie in its
# kernel; p compresses span(e1, e2) to diag(1 / (1 + 1e-8), 0), so
# lambda(1 - lambda) = 1.000e-08 lies in the band around proj_tol (so does
# 1 - lambda, for I - p); and it compresses (e1 + e4)/sqrt(2) to about 1/2,
# with lambda(1 - lambda) about 1/4
SPLIT_CELLS = {
    "clean": line(0, 0, 0, 1, 0),
    "clean-2": line(0, 0, 0, 0, 1),
    "ambiguous": Subspace(5, np.eye(5, 2, dtype=complex)),
    "noncommuting": line(1, 0, 0, 1, 0),
}


@pytest.mark.parametrize("names,error", [
    (("clean", "ambiguous"), IllConditionedSplit),
    (("clean", "clean-2", "noncommuting", "ambiguous"), NonCommuting),
    (("clean", "ambiguous", "clean-2"), IllConditionedSplit),
    (("noncommuting", "ambiguous"), NonCommuting),
    (("clean", "ambiguous", "noncommuting"), NonCommuting),
])
@pytest.mark.parametrize("complement", (False, True))
def test_stacked_split_raises_the_first_error_of_a_later_cell(names, error, complement):
    # a cell that does not commute outranks an ambiguous one anywhere in
    # the partition; the error names the first cell of its kind
    u = unit(1.0, 0.0, 1e-4, 0.0, 0.0)
    p = np.outer(u, u.conj())
    if complement:
        p = np.eye(5) - p
    cells = [SPLIT_CELLS[name] for name in names]
    got = outcome(split_cells, cells, p)
    assert got[0] is error
    first = names.index("ambiguous" if error is IllConditionedSplit else "noncommuting")
    if error is IllConditionedSplit:
        assert got[1].startswith(f"projection splits cell {first} with "
                                 "lambda(1 - lambda) = 1.000e-08, within a factor 10 ")
    else:
        assert got[1].startswith(f"projection does not commute with cell {first}: ")
    assert outcome(split_cells, cells[:first], p)[0] is not error


@pytest.mark.parametrize("tilt", (0.0, 0.4e-8, 0.6e-8))
def test_zero_and_tiny_halves_have_rank_zero(tilt):
    # p onto (1, tilt, 0) compresses e2 to lambda = tilt^2 / (1 + tilt^2)
    # and e3 to 0: both fall outside, with an empty inside half, as the
    # loop over cells finds
    u = unit(1.0, tilt, 0.0)
    p = np.outer(u, u.conj())
    cells = [line(0, 1, 0), line(0, 0, 1)]
    got = outcome(split_cells, cells, p)
    assert got[0] == "ok" and got[1][0][0].dim == 0 and got[1][1][0].dim == 0
    same_halves(got[1], reference_split_cells(cells, p))


@pytest.mark.parametrize("factor", (0.15, 0.49, 0.51, 0.99, 1.01, 2.0, 9.5))
def test_halves_near_rank_tol_split_as_the_cell_loop(factor):
    # against p onto (1, tilt, 0), tilt = factor * rank_tol, e2 has
    # lambda about tilt^2 and e1 about 1 - tilt^2: the split puts e2
    # outside and e1 inside whatever rank_tol is.  The linear rule's loop
    # agrees up to tilt = rank_tol; past it, the SVD ranks e2's inside half
    # 1 as well and the loop finds a cell of dimension 1 split into 1 + 1
    cfg = ToleranceConfig(eq_tol=1e-8, proj_tol=1e-6, rank_tol=1e-8)
    u = unit(1.0, factor * cfg.rank_tol, 0.0)
    p = np.outer(u, u.conj())
    cells = [line(0, 1, 0), line(0, 0, 1), line(1, 0, 0)]
    got = outcome(split_cells, cells, p, cfg)
    assert got[0] == "ok"
    assert [(inside.dim, outside.dim) for inside, outside in got[1]] == [(0, 1), (0, 1), (1, 0)]
    ref = outcome(reference_split_cells, cells, p, cfg)
    if factor < 1:
        same_halves(got[1], ref[1])
    else:
        assert ref == (InvariantViolation, "cell of dimension 1 split into 1 + 1")


def count_splits(monkeypatch) -> list[np.ndarray]:
    """The members that projlat splits the cells of a family by, from now on."""
    members = []
    eigen_halves = projlat._eigen_halves

    def recorded(cells, p):
        members.append(np.array(p))
        return eigen_halves(cells, p)

    monkeypatch.setattr(projlat, "_eigen_halves", recorded)
    return members


def test_split_is_formed_on_first_read(monkeypatch):
    members = count_splits(monkeypatch)
    family = conjugated_diagonals(np.random.default_rng(4), 4, 3)
    family.append(conjugated_diagonals(np.random.default_rng(5), 4, 1)[0])
    fam = projection_family(family)
    assert members == []
    assert not fam.is_commuting()
    # the fourth member, from another frame, ends the split
    assert len(members) == 4
    assert outcome(boolean_atoms, fam)[0] is NonCommuting
    assert len(members) == 4


def test_a_member_that_does_not_commute_outranks_an_earlier_band():
    # member 1 splits the cells of diag(1,1,0) inside the band (lambda(1 -
    # lambda) = 1e-8); the split goes on, and member 2, the projection onto
    # (1,1,1)/sqrt(3), does not commute: the family does not commute
    members = [np.diag([1.0, 1.0, 0.0]), np.outer(unit(1.0, 0.0, 1e-4), unit(1.0, 0.0, 1e-4)),
               np.full((3, 3), 1 / 3)]
    assert outcome(boolean_atoms, projection_family(members[:2]))[0] is IllConditionedSplit
    fam = projection_family(members)
    assert not fam.is_commuting()
    got = outcome(boolean_atoms, fam)
    assert got[0] is NonCommuting and got[1].startswith("family member 2 does not commute")


@pytest.mark.parametrize("index", (0, 4, 9, 12))
def test_a_report_forms_only_the_q_table(index, monkeypatch, tmp_path, capsys):
    # the one family table a report forms is the joint split of Q: once,
    # member by member, read by both q_commuting and the atoms
    item = bench_module("inputs").corpus_inputs(1)[index]
    path = tmp_path / "in.json"
    item.write(path)
    members = count_splits(monkeypatch)
    assert main(["report", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    problem = parse_generator_problem(item.document)
    q_set = family_projections(close(problem.gens, problem.limits or DEFAULT_LIMITS)).q_set
    assert len(members) == len(q_set)
    assert all(np.array_equal(a, b) for a, b in zip(members, q_set.members))


@pytest.mark.parametrize("tilt,want", [(1.5e-8, [1]), (2.5e-8, [0, 1])])
def test_minimal_search_scale(tilt, want):
    # q onto (cos t, 0, 0, 0, sin t) lies below p = diag(1,1,1,1,0) up to
    # ||pq - q|| = sin t, against eq_tol * max(1, ||q||, ||p||) = 2e-8
    v = np.array([np.sqrt(1.0 - tilt ** 2), 0.0, 0.0, 0.0, tilt])
    union = np.array([np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), np.outer(v, v)], dtype=np.complex128)
    assert assert_same_minimal(union, DEFAULT_TOL) == want


def test_minimal_search_has_no_two_cycle():
    # lines at angle t lie below each other up to ||pq - q|| = sin t <= eq_tol,
    # while ||p - q|| = sqrt(2) sin t > eq_tol: neither is strictly below
    # the other, so both are minimal
    t = 0.9e-8
    u, v = np.array([1.0, 0.0]), np.array([np.cos(t), np.sin(t)])
    union = np.array([np.outer(u, u), np.outer(v, v)], dtype=np.complex128)
    assert not approx_equal(union[0], union[1])
    assert assert_same_minimal(union, DEFAULT_TOL) == [0, 1]


def test_split_checks_the_dimensions():
    # a "projection" whose two halves would overlap, range and kernel both
    # holding e1: the halves of an eigenbasis always add up to the cell, and
    # the compression's eigenvalue 1/2 is refused (the loop of the linear
    # rule found the dimensions 1 + 1)
    fake = np.diag([0.5, 1.0]).astype(complex)
    e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(NonCommuting, match=r"^projection does not commute with cell 0: "
                       r"lambda\(1 - lambda\) = 2\.500e-01$"):
        split_cells([e1], fake)
    with pytest.raises(InvariantViolation, match=r"^cell of dimension 1 split into 1 \+ 1$"):
        reference_split(e1, fake)


def test_brandt_family_must_be_orthogonal():
    # two rank-one projections at angle 1e-5: their product passes the
    # partial-isometry rule (defect ~ 1e-10), they are distinct and neither
    # lies below the other, so both are minimal and overlap
    theta = 1e-5
    u = np.array([1.0, 0.0])
    v = np.array([np.cos(theta), np.sin(theta)])
    named = [("P", np.outer(u, u)), ("Q", np.outer(v, v))]
    c = close(generator_set(named, include_identity=False))
    members = [m for _, m in named]
    pair = reference_first_overlap(members, DEFAULT_TOL)
    assert pair == (0, 1)
    with pytest.raises(CoverageGap, match=r"^minimal projections 0 and 1 are not orthogonal$"):
        brandt_structure(c)
