"""The stacked family relations against the scalar pair loops they replaced:
the worst commuting pair of a projection family (formed on first read, and
by a report for its Q family only), the orthogonality of atoms and of Brandt
families, the sum and reconstruction checks of an atom decomposition, the
Brandt minimal search, the split of an atom cell and the stacked split of
every cell of a partition against a loop over its cells, down to the error
of the first failing cell."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

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
    pair_table,
    range_basis,
    split_by_projection,
    split_cells,
)
from pisomlab.projlat import (
    AtomDecomposition,
    NonCommutingFamily,
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


def reference_first_overlap(mats, bound):
    """The orthogonality loops of _validate_atoms and brandt_structure."""
    for i in range(len(mats)):
        for j in range(i + 1, len(mats)):
            if frobenius(mats[i] @ mats[j]) > bound:
                return i, j
    return None


def reference_validate_atoms(dec, fam):
    """_validate_atoms as a loop: orthogonality, then the sum, then the
    reconstruction of each member from its atoms."""
    cfg = dec.cfg
    total = np.zeros((dec.dim, dec.dim), dtype=np.complex128)
    for i, a in enumerate(dec.atoms):
        total += a
        for j in range(i + 1, len(dec.atoms)):
            if frobenius(a @ dec.atoms[j]) > cfg.proj_tol * dec.dim:
                raise InvariantViolation(f"atoms {i} and {j} are not orthogonal")
    if not approx_equal(total, np.eye(dec.dim), cfg):
        raise InvariantViolation("atoms do not sum to the identity")
    for k, member in enumerate(fam.members):
        recon = sum((dec.atoms[i] for i in range(len(dec)) if dec.generator_masks[k][i]),
                    start=np.zeros((dec.dim, dec.dim), dtype=np.complex128))
        if not approx_equal(recon, member, cfg):
            raise InvariantViolation(f"family member {k} is not the sum of its atoms")


def reference_minimal(union, cfg):
    """The Brandt minimal search: indices of the members with no member
    strictly below them."""
    def is_subprojection(small, big):
        scale = max(1.0, frobenius(small), frobenius(big))
        return frobenius(big @ small - small) <= cfg.proj_tol * scale

    return [k for k, p in enumerate(union)
            if not any(is_subprojection(q, p) and not approx_equal(q, p, cfg)
                       for q in union)]


def intersect_with_projection(s, p, take_range, cfg=DEFAULT_TOL, ambiguity_factor=None):
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
    return range_basis(target, cfg, ambiguity_factor)


def reference_split(s, p, cfg=DEFAULT_TOL, ambiguity_factor=None):
    """intersect_with_projection on both halves, then the dimension check
    boolean_atoms made."""
    inside = intersect_with_projection(s, p, True, cfg, ambiguity_factor)
    outside = intersect_with_projection(s, p, False, cfg, ambiguity_factor)
    if inside.dim + outside.dim != s.dim:
        raise InvariantViolation(
            f"cell of dimension {s.dim} split into {inside.dim} + {outside.dim}")
    return inside, outside


def reference_split_cells(cells, p, cfg=DEFAULT_TOL, ambiguity_factor=None):
    """split_cells as a loop: reference_split of each cell in turn."""
    return [reference_split(s, p, cfg, ambiguity_factor) for s in cells]


def reference_atoms(fam):
    """boolean_atoms over reference_split and reference_validate_atoms."""
    cfg = fam.cfg
    if not fam.is_commuting():
        raise NonCommutingFamily(
            f"family members {fam.worst_pair} have commutator norm "
            f"{fam.max_pairwise_commutator:.3e}",
            fam.worst_pair, fam.max_pairwise_commutator)
    cells = [(full_subspace(fam.dim), ())]
    for p in fam.members:
        split = []
        for sub, pattern in cells:
            inside, outside = reference_split(sub, p, cfg, ambiguity_factor=10.0)
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


def same_subspaces(a, b):
    for x, y in zip(a, b):
        assert x.dim == y.dim
        assert np.array_equal(x.basis, y.basis)


def same_atoms(a, b):
    assert a.ranks == b.ranks
    assert a.generator_masks == b.generator_masks
    assert all(np.array_equal(x, y) for x, y in zip(a.atoms, b.atoms))


def assert_same_worst_pair(mats, fam):
    worst, pair = reference_worst_pair(mats)
    assert fam.worst_pair == pair
    assert fam.max_pairwise_commutator == pytest.approx(worst, rel=1e-12, abs=0.0)


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
    """dec with atom i plus c (xy* + yx*) for each pair (i, j), x in atom i
    and y in atom j: ||a_i a_j|| = c, and no other pair overlaps."""
    atoms = [np.array(a) for a in dec.atoms]
    for i, j in pairs:
        x, y = dec.bases[i][:, 0], dec.bases[j][:, 0]
        atoms[i] += c * (np.outer(x, y.conj()) + np.outer(y, x.conj()))
    return replace(dec, atoms=tuple(atoms))


def conjugated_diagonals(rng, n, k):
    u = random_unitary(rng, n)
    return [u @ diagonal_indicator(n, [i for i in range(n) if rng.integers(2)]) @ u.conj().T
            for _ in range(k)]


# --- the comparisons ------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 5), k=st.integers(0, 5),
       factor=st.sampled_from((0.0, 0.5, 2.0)), cfg=st.sampled_from(CFGS),
       noncommuting=st.booleans())
# two pairs whose commutator norms are equal in exact arithmetic and differ
# by rounding between the stacked table and the loop
@example(seed=20943, n=4, k=4, factor=0.0, cfg=DEFAULT_TOL, noncommuting=True)
def test_family_relations_answer_as_the_pair_loops(seed, n, k, factor, cfg, noncommuting):
    rng = np.random.default_rng(seed)
    exact = conjugated_diagonals(rng, n, k)
    if noncommuting and k:
        # one member from another frame: a non-commuting pair
        exact[-1] = conjugated_diagonals(rng, n, 1)[0]
    mats = [perturbed(rng, p, factor * cfg.proj_tol * max(1.0, frobenius(p)))
            for p in exact]
    stack = np.array(mats, dtype=np.complex128).reshape(k, n, n)

    products, commutators = pair_table(stack)
    for i in range(k):
        for j in range(k):
            want_p = frobenius(mats[i] @ mats[j]) if i < j else 0.0
            want_c = commutator_norm(mats[i], mats[j]) if i < j else 0.0
            assert products[i, j] == pytest.approx(want_p, rel=1e-12, abs=0.0)
            assert commutators[i, j] == pytest.approx(want_c, rel=1e-12, abs=1e-300)
    for bound in (cfg.proj_tol * n, 0.5):
        overlapping = products > bound
        first = (tuple(int(x) for x in np.argwhere(overlapping)[0])
                 if overlapping.any() else None)
        assert first == reference_first_overlap(mats, bound)

    union = np.array([p for p in mats if frobenius(p) > cfg.eq_tol],
                     dtype=np.complex128).reshape(-1, n, n)
    assert_same_minimal(union, cfg)

    fam_outcome = outcome(projection_family, mats, n, cfg)
    if fam_outcome[0] != "ok":
        return
    fam = fam_outcome[1]
    assert_same_worst_pair(mats, fam)
    assert_same_outcome(outcome(boolean_atoms, fam), outcome(reference_atoms, fam),
                        same_atoms)

    cell = full_subspace(n)
    for p in mats:
        new = outcome(split_by_projection, cell, p, cfg, 10.0)
        assert_same_outcome(new, outcome(reference_split, cell, p, cfg, 10.0),
                            same_subspaces)
        if new[0] != "ok":
            break
        cell = new[1][0] if new[1][0].dim else new[1][1]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 5),
       factor=st.sampled_from((0.0, 0.5, 2.0)), target=st.sampled_from(("atoms", "members")),
       cfg=st.sampled_from(CFGS))
def test_atom_validation_answers_as_the_loops(seed, n, factor, target, cfg):
    # couple atoms at the orthogonality scale, or move a member at the
    # equality scale, so that every check can fail
    rng = np.random.default_rng(seed)
    fam = projection_family(conjugated_diagonals(rng, n, 3), n, cfg)
    dec = boolean_atoms(fam)
    if target == "atoms":
        pairs = [rng.permutation(len(dec))[:2] for _ in range(3 if len(dec) > 1 else 0)]
        dec = coupled(dec, pairs, factor * cfg.proj_tol * n)
    else:
        # one member moves, so that a single reconstruction can fail
        k = rng.integers(len(fam))
        members = tuple(perturbed(rng, p, factor * cfg.eq_tol * max(1.0, frobenius(p)))
                        if i == k else p for i, p in enumerate(fam.members))
        fam = replace(fam, members=members)
    assert_same_outcome(outcome(_validate_atoms, dec, fam),
                        outcome(reference_validate_atoms, dec, fam),
                        lambda a, b: None)


def test_first_overlapping_atoms_in_loop_order():
    # atoms (1, 2) and (0, 3) overlap: a loop over i, then j > i, meets (0, 3) first
    fam = projection_family([np.diag([1.0, 1.0, 0.0, 0.0]), np.diag([1.0, 0.0, 1.0, 0.0])])
    dec = coupled(boolean_atoms(fam), [(1, 2), (0, 3)], 1e-6)
    for check in (_validate_atoms, reference_validate_atoms):
        with pytest.raises(InvariantViolation, match=r"^atoms 0 and 3 are not orthogonal$"):
            check(dec, fam)


@pytest.mark.parametrize("eps", (1e-9, 1e-8, 1e-7))
def test_near_threshold_pair(eps):
    # A = diag(1,1,0) and B the projection onto (1,0,eps)/||.||
    v = np.array([1.0, 0.0, eps]) / np.linalg.norm([1.0, 0.0, eps])
    mats = [np.diag([1.0, 1.0, 0.0]).astype(complex), np.outer(v, v).astype(complex)]
    fam = projection_family(mats)
    assert_same_worst_pair(mats, fam)
    new, ref = outcome(boolean_atoms, fam), outcome(reference_atoms, fam)
    assert_same_outcome(new, ref, same_atoms)
    assert new[0] != "ok"
    cell = full_subspace(3)
    assert_same_outcome(outcome(split_by_projection, cell, mats[1], DEFAULT_TOL, 10.0),
                        outcome(reference_split, cell, mats[1], DEFAULT_TOL, 10.0),
                        same_subspaces)


def same_halves(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for u, v in zip(x, y):
            assert u.dim == v.dim and u.basis.tobytes() == v.basis.tobytes()


def tilted(rng, p, angle):
    """p with one unit vector of its range turned by angle towards its
    kernel, or p itself when either is zero."""
    w, vecs = np.linalg.eigh(p)
    inside, outside = vecs[:, w > 0.5], vecs[:, w <= 0.5]
    if not inside.shape[1] or not outside.shape[1]:
        return p
    x = inside[:, rng.integers(inside.shape[1])]
    y = outside[:, rng.integers(outside.shape[1])]
    v = np.cos(angle) * x + np.sin(angle) * y
    return p - np.outer(x, x.conj()) + np.outer(v, v.conj())


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6), k=st.integers(1, 5),
       plant=st.sampled_from((None, "noncommuting", "band")), cfg=st.sampled_from(CFGS),
       ambiguity_factor=st.sampled_from((None, 10.0)))
def test_stacked_split_answers_as_the_cell_loop(seed, n, k, plant, cfg, ambiguity_factor):
    # each member splits every cell of the partition its predecessors made;
    # a planted member may fail the commutator test, or (tilted by an angle
    # near rank_tol, below the commutator tolerance) leave a singular value
    # inside the ambiguity band
    rng = np.random.default_rng(seed)
    members = conjugated_diagonals(rng, n, k)
    last = members[-1]
    if plant == "noncommuting":
        members[-1] = conjugated_diagonals(rng, n, 1)[0]
    elif plant == "band":
        members[-1] = tilted(rng, last, cfg.rank_tol * 10.0 ** rng.uniform(-0.9, 0.9))
    cells = [full_subspace(n)]
    for p in members:
        new = outcome(split_cells, cells, p, cfg, ambiguity_factor)
        assert_same_outcome(new, outcome(reference_split_cells, cells, p, cfg, ambiguity_factor),
                            same_halves)
        if new[0] != "ok":
            break
        cells = [half for pair in new[1] for half in pair if half.dim]


def test_stacked_split_raises_for_the_first_failing_cell():
    # the first cell commutes with p; the second does not, nor does the
    # third, with another commutator norm
    cells = [Subspace(3, np.array(b, dtype=complex).reshape(3, 1))
             for b in ([1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, np.sqrt(0.5), np.sqrt(0.5)])]
    v = np.array([0.0, np.cos(0.1), np.sin(0.1)])
    p = np.outer(v, v).astype(complex)
    norms = [f"{commutator_norm(s.projection(), p):.3e}" for s in cells]
    assert norms[0] == "0.000e+00" and norms[1] != norms[2]
    got = outcome(split_cells, cells, p)
    assert got == outcome(reference_split_cells, cells, p)
    assert got[0] is NonCommuting and got[1].endswith(f"(commutator norm {norms[1]})")
    assert outcome(split_cells, cells[:1], p)[0] == "ok"
    assert split_cells([], p) == []
    with pytest.raises(ShapeMismatch):
        split_cells(cells, np.eye(2))


def unit(*v) -> np.ndarray:
    return np.array(v, dtype=complex) / np.linalg.norm(v)


def line(*v) -> Subspace:
    return Subspace(len(v), unit(*v).reshape(-1, 1))


# cells of C^5 against p onto (1, 0, 5e-9, 0, 0): e4 and e5 commute with p
# and split cleanly; span(e1, e2) commutes within proj_tol, but its outside
# half has the singular values 1 and about 5e-9, inside the factor-10 band
# around the cutoff 1e-8 (its inside half, for I - p); (e1 + e4)/sqrt(2)
# does not commute with p
SPLIT_CELLS = {
    "clean": line(0, 0, 0, 1, 0),
    "clean-2": line(0, 0, 0, 0, 1),
    "ambiguous": Subspace(5, np.eye(5, 2, dtype=complex)),
    "noncommuting": line(1, 0, 0, 1, 0),
}


@pytest.mark.parametrize("names,error", [
    (("clean", "ambiguous"), IllConditionedSplit),
    (("clean", "clean-2", "noncommuting", "ambiguous"), NonCommuting),
    (("clean", "ambiguous", "noncommuting"), IllConditionedSplit),
    (("noncommuting", "ambiguous"), NonCommuting),
])
@pytest.mark.parametrize("complement", (False, True))
def test_stacked_split_raises_the_first_error_of_a_later_cell(names, error, complement):
    u = unit(1.0, 0.0, 5e-9, 0.0, 0.0)
    p = np.outer(u, u.conj())
    if complement:
        p = np.eye(5) - p
    cells = [SPLIT_CELLS[name] for name in names]
    got = outcome(split_cells, cells, p, DEFAULT_TOL, 10.0)
    assert got == outcome(reference_split_cells, cells, p, DEFAULT_TOL, 10.0)
    assert got[0] is error
    if error is IllConditionedSplit:
        assert got[1].startswith("singular value 5.000e-09 ")
    first = names.index("ambiguous" if error is IllConditionedSplit else "noncommuting")
    assert outcome(split_cells, cells[:first], p, DEFAULT_TOL, 10.0)[0] == "ok"


@pytest.mark.parametrize("tilt", (0.0, 0.4e-8, 0.6e-8))
def test_zero_and_tiny_halves_have_rank_zero(tilt):
    # the inside half of e2 against p onto (1, tilt, 0) has norm about tilt,
    # zero or below rank_tol: rank 0 by the rule, as the loop over cells finds
    u = unit(1.0, tilt, 0.0)
    p = np.outer(u, u.conj())
    cells = [line(0, 1, 0), line(0, 0, 1)]
    got = outcome(split_cells, cells, p, DEFAULT_TOL, 10.0)
    assert got[0] == "ok" and got[1][0][0].dim == 0 and got[1][1][0].dim == 0
    assert_same_outcome(got, outcome(reference_split_cells, cells, p, DEFAULT_TOL, 10.0),
                        same_halves)


@pytest.mark.parametrize("factor", (0.15, 0.49, 0.51, 0.99, 1.01, 2.0, 9.5))
def test_halves_near_rank_tol_split_as_the_cell_loop(factor):
    # against p onto (1, tilt, 0), the inside half of e2 and the outside half
    # of e1 have norm about tilt = factor * rank_tol, within the factor-10
    # band around rank_tol: split_cells skips the SVD of such a half at most
    # rank_tol / 2 and takes the others (the rest of the stack) in one call.
    # proj_tol is wide, so p commutes with every cell; a tilt past rank_tol
    # leaves e2 of rank 1 on both sides
    cfg = ToleranceConfig(eq_tol=1e-8, proj_tol=1e-6, rank_tol=1e-8)
    u = unit(1.0, factor * cfg.rank_tol, 0.0)
    p = np.outer(u, u.conj())
    cells = [line(0, 1, 0), line(0, 0, 1), line(1, 0, 0)]
    got = outcome(split_cells, cells, p, cfg, 10.0)
    assert_same_outcome(got, outcome(reference_split_cells, cells, p, cfg, 10.0), same_halves)
    assert got[0] == ("ok" if factor < 1 else InvariantViolation)


def count_pair_tables(monkeypatch) -> list[np.ndarray]:
    """The stacks that projlat hands to pair_table from now on."""
    stacks = []
    table = projlat.pair_table

    def recorded(stack):
        stacks.append(np.array(stack))
        return table(stack)

    monkeypatch.setattr(projlat, "pair_table", recorded)
    return stacks


def test_commutator_table_is_formed_on_first_read(monkeypatch):
    stacks = count_pair_tables(monkeypatch)
    members = conjugated_diagonals(np.random.default_rng(4), 4, 3)
    members.append(conjugated_diagonals(np.random.default_rng(5), 4, 1)[0])
    fam = projection_family(members)
    assert stacks == []
    assert not fam.is_commuting()
    assert_same_worst_pair(members, fam)
    assert len(stacks) == 1


@pytest.mark.parametrize("index", (0, 4, 9, 12))
def test_a_report_forms_only_the_q_table(index, monkeypatch, tmp_path, capsys):
    item = bench_module("inputs").corpus_inputs(1)[index]
    path = tmp_path / "in.json"
    item.write(path)
    stacks = count_pair_tables(monkeypatch)
    assert main(["report", str(path), "--format", "json"]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    problem = parse_generator_problem(item.document)
    q_set = family_projections(close(problem.gens, problem.limits or DEFAULT_LIMITS)).q_set
    assert len(stacks) == 1
    assert np.array_equal(stacks[0], np.array(q_set.members))


@pytest.mark.parametrize("tilt,want", [(1.5e-8, [1]), (2.5e-8, [0, 1])])
def test_minimal_search_scale(tilt, want):
    # q onto (cos t, 0, 0, 0, sin t) lies below p = diag(1,1,1,1,0) up to
    # ||pq - q|| = sin t, against proj_tol * max(1, ||q||, ||p||) = 2e-8
    v = np.array([np.sqrt(1.0 - tilt ** 2), 0.0, 0.0, 0.0, tilt])
    union = np.array([np.diag([1.0, 1.0, 1.0, 1.0, 0.0]), np.outer(v, v)], dtype=np.complex128)
    assert assert_same_minimal(union, DEFAULT_TOL) == want


def test_split_checks_the_dimensions():
    # a "projection" whose two halves overlap: range and kernel both hold e1
    fake = np.diag([0.5, 1.0]).astype(complex)
    e1 = Subspace(2, np.array([[1.0], [0.0]], dtype=complex))
    with pytest.raises(InvariantViolation, match=r"^cell of dimension 1 split into 1 \+ 1$"):
        split_by_projection(e1, fake)
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
    pair = reference_first_overlap(members, DEFAULT_TOL.proj_tol * 2)
    assert pair == (0, 1)
    with pytest.raises(CoverageGap, match=r"^minimal projections 0 and 1 are not orthogonal$"):
        brandt_structure(c)
