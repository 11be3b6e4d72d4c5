"""The tolerant element index, the projection-family memo and the adjoin
fixpoint."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab.numlin import ShapeMismatch, ToleranceConfig, approx_equal
from pisomlab.projlat import boolean_atoms
from pisomlab.sgroup import (
    _ElementStore,
    adjoin_algebra_projections,
    close,
    family_projections,
    generator_set,
    same_projection_set,
)
from conftest import matrix_unit

CFG = ToleranceConfig()
OTHER_CFGS = (ToleranceConfig(eq_tol=3e-8), ToleranceConfig(eq_tol=4e-9))
# member spacings and query shifts, in units of eq_tol * max(1, ||x||)
SPACINGS = (0.5, 1 - 1e-3, 1 + 1e-3, 2.0)


def first_match(mats, q, cfg):
    return next((i for i, m in enumerate(mats) if approx_equal(m, q, cfg)), None)


def units_closure(n=3):
    named = [(f"E{i}{j}", matrix_unit(n, i, j)) for i in range(n) for j in range(n) if i != j]
    return close(generator_set(named, dim=n), monitor_pi=True)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       size=st.floats(0.1, 10.0),
       gaps=st.lists(st.sampled_from(SPACINGS), min_size=1, max_size=6),
       shifts=st.lists(st.sampled_from((0.0,) + SPACINGS + tuple(-g for g in SPACINGS)),
                       min_size=1, max_size=4))
def test_store_agrees_with_first_match_scan(seed, dim, size, gaps, shifts):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x *= size / np.linalg.norm(x)
    d = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    d /= np.linalg.norm(d)
    offsets = np.cumsum([0.0] + gaps)
    mats = [x + t * CFG.eq_tol * max(1.0, size) * d for t in offsets]
    store = _ElementStore(dim, CFG)
    for m in mats:
        store.append(m)
    for cfg in (CFG,) + OTHER_CFGS:
        unit = cfg.eq_tol * max(1.0, size)
        for pos in offsets * CFG.eq_tol / cfg.eq_tol:
            for shift in shifts:
                t = pos + shift
                if any(abs(abs(t - o * CFG.eq_tol / cfg.eq_tol) - 1.0) < 1e-6
                       for o in offsets):
                    continue  # a distance exactly at the threshold is a coin flip
                q = x + t * unit * d
                want = first_match(mats, q, cfg)
                assert store.find(q, cfg.eq_tol) == want
                if cfg is CFG:
                    assert store.lookup(q)[0] == want


@pytest.mark.parametrize("cfg", (CFG,) + OTHER_CFGS)
def test_closure_find_answers_under_the_given_cfg(cfg):
    c = units_closure()
    mats = c.matrices()
    rng = np.random.default_rng(1)
    d = rng.standard_normal((3, 3))
    d /= np.linalg.norm(d)
    for m in mats:
        for factor in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
            q = m + factor * cfg.eq_tol * max(1.0, np.linalg.norm(m)) * d
            assert c.find(q, cfg) == first_match(mats, q, cfg)


def test_closure_find_checks_its_input():
    c = units_closure()
    with pytest.raises(ShapeMismatch):
        c.find(np.eye(2))
    with pytest.raises(ValueError):
        c.find(np.full((3, 3), np.nan))


def test_same_projection_set_edge_cases():
    e11, e22 = matrix_unit(2, 0, 0), matrix_unit(2, 1, 1)
    assert same_projection_set([], [])
    assert not same_projection_set([e11], [])
    assert same_projection_set([e11, e22, e11], [e22, e11])
    assert not same_projection_set([e11], [e22])
    with pytest.raises(ShapeMismatch):
        same_projection_set([e11], [np.eye(3)])


def test_family_projections_built_once_per_closure():
    c = units_closure()
    fams = family_projections(c)
    assert family_projections(c) is fams
    assert family_projections(c, ToleranceConfig(eq_tol=1e-6)) is not fams


def test_adjoin_algebra_projections_keeps_closure_when_atoms_are_elements():
    c = units_closure()
    atoms = boolean_atoms(family_projections(c).q_set)
    assert all(c.find(atom) is not None for atom in atoms.atoms)
    assert adjoin_algebra_projections(c, atoms) is c
