"""The block-form Brandt pair check against the scalar compression loop it
replaced, and the order of the Brandt family."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab import index, sgroup
from pisomlab.numlin import ToleranceConfig, approx_equal, frobenius
from pisomlab.pisom import NotPartialIsometry, make_partial_isometry
from pisomlab.sgroup import (
    CoverageGap,
    _brandt_pair_failure,
    brandt_membership,
    brandt_structure,
    close,
    generator_set,
)
from conftest import matrix_unit
from factories import random_unitary

CFGS = (ToleranceConfig(), ToleranceConfig(eq_tol=3e-8),
        ToleranceConfig(proj_tol=3e-8))


def reference_pair_check(mat, projections, cfg):
    """The scalar pair check: every compression E_i·w·E_j is zero, or a
    partial isometry with initial projection E_j and final projection E_i."""
    scale = max(1.0, frobenius(mat))
    for i, e1 in enumerate(projections):
        for j, e2 in enumerate(projections):
            block = e1 @ mat @ e2
            if frobenius(block) <= cfg.eq_tol * scale:
                continue
            try:
                pi = make_partial_isometry(block, cfg)
            except NotPartialIsometry:
                return False, f"E{i}·w·E{j} is neither zero nor a partial isometry"
            if not approx_equal(pi.initial, e2, cfg):
                return False, f"initial projection of E{i}·w·E{j} is not E{j}"
            if not approx_equal(pi.final, e1, cfg):
                return False, f"final projection of E{i}·w·E{j} is not E{i}"
    return True, None


def reference_first_failure(mats, projections, cfg):
    for k, mat in enumerate(mats):
        ok, reason = reference_pair_check(mat, projections, cfg)
        if not ok:
            return k, reason
    return None


def cyclic_units(m):
    named = [(f"E{i}{i + 1}", matrix_unit(m, i - 1, i)) for i in range(1, m)]
    return named + [(f"E{m}1", matrix_unit(m, m - 1, 0))]


def structure_of(kind, m, rng, cfg):
    """A conjugated closure with a Brandt family of rank-one members
    ("rank1", on C^m), rank-two members ("rank2", units (x) I_2 on C^2m), or
    members of ranks two and one ("mixed", on C^3)."""
    if kind == "mixed":
        rot = np.zeros((3, 3), dtype=complex)
        rot[:2, :2] = [[0, -1], [1, 0]]
        named = [("D", np.diag([1.0, 1.0, 0.0])), ("F", np.diag([0.0, 0.0, 1.0])),
                 ("R", rot)]
    elif kind == "rank2":
        named = [(name, np.kron(u, np.eye(2))) for name, u in cyclic_units(m)]
    else:
        named = cyclic_units(m)
    n = named[0][1].shape[0]
    w = random_unitary(rng, n)
    gens = generator_set([(name, w @ g @ w.conj().T) for name, g in named], dim=n, cfg=cfg)
    c = close(gens)
    return c, brandt_structure(c)


def unit_vector(rng, basis):
    x = basis @ (rng.standard_normal(basis.shape[1]) + 1j * rng.standard_normal(basis.shape[1]))
    return x / np.linalg.norm(x)


def planted(kind, s, mats, rng):
    """A matrix that breaks the pair condition in the named way."""
    bases = [m.basis for m in s.family]
    nonzero = [w for w in mats if frobenius(w) > 0.5]
    w = nonzero[rng.integers(len(nonzero))]
    if kind == "rotated":
        # rotate part of the final range of w into another member
        i = int(np.argmax([frobenius(b.conj().T @ w) for b in bases]))
        j = rng.choice([k for k in range(len(bases)) if k != i])
        u, v = unit_vector(rng, bases[i]), unit_vector(rng, bases[j])
        theta = rng.uniform(0.05, 1.5)
        rot = (np.eye(s.dim) + (np.cos(theta) - 1) * (np.outer(u, u.conj()) + np.outer(v, v.conj()))
               + np.sin(theta) * (np.outer(v, u.conj()) - np.outer(u, v.conj())))
        return rot @ w
    if kind == "unequal":
        # a rank-one isometry between members of unequal rank, either way
        big, small = (0, 1) if s.family[0].rank > s.family[1].rank else (1, 0)
        u, v = unit_vector(rng, bases[big]), unit_vector(rng, bases[small])
        return np.outer(u, v.conj()) if rng.integers(2) else np.outer(v, u.conj())
    # compressions that are neither zero nor partial isometries
    return rng.uniform(0.2, 0.9) * w


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1),
       kind=st.sampled_from(("rank1", "rank2", "mixed")),
       m=st.integers(2, 6), cfg=st.sampled_from(CFGS),
       shift=st.sampled_from((0.0, 0.5, 2.0)), which_tol=st.sampled_from(("eq", "proj")),
       violation=st.sampled_from((None, "rotated", "unequal", "non_pi")))
def test_frame_check_agrees_with_the_scalar_loop(seed, kind, m, cfg, shift, which_tol,
                                                 violation):
    rng = np.random.default_rng(seed)
    if kind == "rank2":
        m = min(m, 3)
    if violation == "unequal":
        kind = "mixed"
    c, s = structure_of(kind, m, rng, cfg)
    mats = [e.matrix for e in c.elements]
    tol = cfg.eq_tol if which_tol == "eq" else cfg.proj_tol
    perturbed = []
    for w in mats:
        d = rng.standard_normal(w.shape) + 1j * rng.standard_normal(w.shape)
        perturbed.append(w + shift * tol * max(1.0, frobenius(w)) * d / np.linalg.norm(d))
    if violation is not None:
        perturbed.insert(int(rng.integers(len(perturbed) + 1)), planted(violation, s, mats, rng))
    stack = np.array(perturbed)
    projections = [member.projection for member in s.family]
    bases = [member.basis for member in s.family]

    expected = reference_first_failure(perturbed, projections, cfg)
    assert _brandt_pair_failure(stack, bases, cfg) == expected
    if violation is not None and shift == 0.0:
        assert expected is not None
    for w in perturbed:
        assert brandt_membership(w, s) == reference_pair_check(w, projections, cfg)[0]


def test_frame_check_reports_the_first_element_across_chunks(monkeypatch):
    rng = np.random.default_rng(5)
    c, s = structure_of("rank1", 4, rng, ToleranceConfig())
    mats = [e.matrix for e in c.elements]
    stack = np.array(mats + [0.5 * mats[1], planted("rotated", s, mats, rng)])
    projections = [member.projection for member in s.family]
    bases = [member.basis for member in s.family]
    expected = reference_first_failure(stack, projections, ToleranceConfig())
    assert expected is not None and expected[0] == len(mats)
    for elements_per_chunk in (1, 3, len(stack)):
        monkeypatch.setattr(index, "_CHUNK", elements_per_chunk * 16)
        assert _brandt_pair_failure(stack, bases, ToleranceConfig()) == expected


def test_family_order_does_not_round_diagonals():
    """Two minimal projections share their dominant coordinate and have
    diagonals within 1e-9 of each other, the first entry on a rounding
    boundary of the ninth decimal.  Rotating them into each other by +-3e-10
    must not reorder the family."""
    a = 0.4999999995
    u = np.sqrt([a, 0.3, 0.5 - a, 0.2])
    v = u * [1, -1, 1, -1]
    rest = np.linalg.qr(np.column_stack([u, v, np.eye(4)[:, 1:3]]))[0][:, 2:]
    orders = []
    for t in (-3e-10, 0.0, 3e-10):
        ut = np.cos(t) * u + np.sin(t) * v
        vt = -np.sin(t) * u + np.cos(t) * v
        frame = np.column_stack([ut, vt, rest])
        p_u, p_v = np.outer(ut, ut), np.outer(vt, vt)
        assert np.max(np.abs(np.diag(p_u) - np.diag(p_v))) < 1e-9
        named = [(name, frame @ g @ frame.T) for name, g in cyclic_units(4)]
        s = brandt_structure(close(generator_set(named, dim=4)))
        labels = [frame.T @ member.projection @ frame for member in s.family]
        orders.append([int(np.argmax(np.abs(np.diag(x)))) for x in labels])
    assert sorted(orders[0]) == [0, 1, 2, 3]
    assert orders[0] == orders[1] == orders[2]


@pytest.mark.parametrize("kind,m", [("rank1", 4), ("rank2", 3), ("mixed", 0)])
def test_membership_of_the_closure_elements(kind, m):
    c, s = structure_of(kind, m, np.random.default_rng(11), ToleranceConfig())
    assert all(brandt_membership(e.matrix, s) for e in c.elements)
    assert _brandt_pair_failure(c.store.stack(), [m.basis for m in s.family],
                                ToleranceConfig()) is None


def test_minimal_search_orders_at_the_equality_scale(monkeypatch):
    # A = diag(1,1,0) and B onto (1,0,1e-8) with eq_tol 1e-9 below proj_tol
    # 1e-6: the lines e1 and B, 1e-8 apart, are distinct, so neither lies
    # below the other; both are minimal and the family fails on their overlap
    cfg = ToleranceConfig(eq_tol=1e-9, proj_tol=1e-6)
    v = np.array([1.0, 0.0, 1e-8]) / np.hypot(1.0, 1e-8)
    gens = generator_set([("A", np.diag([1.0, 1.0, 0.0])), ("B", np.outer(v, v))], cfg=cfg)
    found = []
    minimal = sgroup._minimal_projections
    monkeypatch.setattr(sgroup, "_minimal_projections",
                        lambda union, cfg: found.append(minimal(union, cfg)) or found[-1])
    with pytest.raises(CoverageGap, match="^minimal projections 0 and 1 are not orthogonal$"):
        brandt_structure(close(gens))
    lines = sorted(found[0], key=lambda p: abs(p[2, 2]))
    assert len(lines) == 2
    assert approx_equal(lines[0], np.diag([1.0, 0.0, 0.0]), cfg)
    assert approx_equal(lines[1], np.outer(v, v), cfg)


def test_family_overlap_on_the_zero_block_scale():
    # A = diag(1,1,1,0) and B onto (0,0,9e-9,1) under eq_tol 1e-9 below
    # proj_tol 1e-6: the minimal projections of ranks 3 and 1 overlap by
    # ||P_0 P_1|| = 9e-9, above eq_tol * sqrt(4), where the pair check counts
    # the block E_0·I·E_1 as zero; the family is not orthogonal, and the
    # identity is not blamed for the overlap
    cfg = ToleranceConfig(eq_tol=1e-9, proj_tol=1e-6)
    v = np.array([0.0, 0.0, 9e-9, 1.0]) / np.hypot(1.0, 9e-9)
    gens = generator_set([("A", np.diag([1.0, 1.0, 1.0, 0.0])), ("B", np.outer(v, v))], cfg=cfg)
    with pytest.raises(CoverageGap, match="^minimal projections 0 and 1 are not orthogonal$"):
        brandt_structure(close(gens))


@pytest.mark.parametrize("named,total", [
    ([("A", np.diag([1e-3, 0.0]))], 0),
    ([("A", np.diag([1.0, 0.0])), ("B", np.diag([0.0, 1e-3]))], 1)])
def test_minimal_projection_of_rank_zero_leaves_a_coverage_gap(named, total):
    # with rank_tol 1e-2 above eq_tol 1e-10, the projection diag(1e-6, 0)
    # of a generator is nonzero but its basis has width 0: its rank counts
    # 0 towards the coverage, and it overlaps no other member
    cfg = ToleranceConfig(eq_tol=1e-10, proj_tol=1e-2, rank_tol=1e-2)
    with pytest.raises(CoverageGap, match=f"^family ranks sum to {total}, not the dimension 2$"):
        brandt_structure(close(generator_set(named, cfg=cfg)))
