"""The tolerant element index (its sketch grid and the full-scan fallback),
the batched validation of closure products, the projection-family memo and
the adjoin fixpoint."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab.numlin import ShapeMismatch, ToleranceConfig, approx_equal
from pisomlab.pisom import NotPartialIsometry, make_partial_isometry
from pisomlab.projlat import boolean_atoms
from pisomlab.sgroup import (
    FAILURE,
    Limits,
    _ElementStore,
    adjoin_algebra_projections,
    adjoint_generator_set,
    close,
    family_projections,
    generator_set,
    same_projection_set,
    selfadjoint_closure,
)
from conftest import golden_generators, matrix_unit
from factories import random_unitary

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


@pytest.mark.parametrize("order", (1, -1))
def test_near_pair_tie_goes_to_the_lower_index(order):
    # exact binary entries: both members lie exactly t from q, with
    # eq_tol < t <= 10 eq_tol
    q = np.diag([1.0, 0.0])
    d = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = 2.0 ** -26
    store = _ElementStore(2, CFG)
    for sign in (order, -order):
        store.append(q + sign * t * d)
    assert store.lookup(q) == (None, (0, t))


def assert_store_holds_the_elements(c):
    assert c.store.count == len(c)
    for i, e in enumerate(c.elements):
        assert c.find(e.matrix) == i
    assert c.find(c.evaluate(c.witness_word)) is None


def test_failure_closure_store_holds_the_elements():
    c = selfadjoint_closure(generator_set(zip("ABC", golden_generators()), dim=8))
    assert c.status == FAILURE
    assert_store_holds_the_elements(c)


def scan_reference(mats, q, cfg):
    """Brute force: (first match, None), else (None, the nearest member within
    10x the band as (index, distance)), else (None, None)."""
    match = first_match(mats, q, cfg)
    if match is not None:
        return match, None
    loose = ToleranceConfig(eq_tol=10.0 * cfg.eq_tol)
    near = [(float(np.linalg.norm(m - q)), i) for i, m in enumerate(mats)
            if approx_equal(m, q, loose)]
    return None, (min(near)[::-1] if near else None)


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), dim=st.integers(1, 3),
       size=st.floats(0.1, 0.9), along=st.floats(0.6, 1.0), cut=st.floats(0.05, 0.95),
       gaps=st.lists(st.sampled_from(SPACINGS), min_size=1, max_size=6),
       shifts=st.lists(st.sampled_from((0.0,) + SPACINGS + tuple(-g for g in SPACINGS)),
                       min_size=1, max_size=4))
def test_grid_across_a_cell_boundary_agrees_with_the_scan(seed, dim, size, along, cut,
                                                          gaps, shifts):
    rng = np.random.default_rng(seed)
    store = _ElementStore(dim, CFG)
    g = store._direction.reshape(dim, dim)  # moving along g moves the sketch 1:1
    # members step along d, which leans on g: their sketches differ by >= 0.2x
    # their distances
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    d = along * g + (1 - along) * noise / np.linalg.norm(noise)
    d /= np.linalg.norm(d)
    offsets = np.cumsum([0.0] + gaps)
    unit = CFG.eq_tol
    x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    x *= size / np.linalg.norm(x)
    # move x along g so that a cell boundary cuts the members' sketches at `cut`
    boundary = round(store._sketch(x) / store._width) * store._width
    spread = offsets[-1] * unit * store._sketch(d)
    x = x + (boundary - cut * spread - store._sketch(x)) * g
    mats = [x + t * unit * d for t in offsets]
    for m in mats:
        store.append(m)
    assert len(store._cells) == 2
    for pos in offsets:
        for shift in shifts:
            t = pos + shift
            if any(abs(abs(t - o) - edge) < 1e-6 for o in offsets for edge in (1.0, 10.0)):
                continue  # a distance exactly at a threshold is a coin flip
            q = x + t * unit * d
            assert store._candidates(q, np.linalg.norm(q), CFG.eq_tol) is not None
            match, near = store.lookup(q)
            want_match, want_near = scan_reference(mats, q, CFG)
            assert match == want_match
            nearest = sorted(abs(t - o) for o in offsets) + [np.inf]
            if nearest[1] - nearest[0] < 1e-6:
                continue  # two members equally near: rounding picks one
            assert (near is None) == (want_near is None)
            if near is not None:
                assert near[0] == want_near[0]
                assert near[1] == pytest.approx(want_near[1], rel=1e-9)


def generic_unitary_gens(dim, seed):
    rng = np.random.default_rng(seed)
    return generator_set([(name, random_unitary(rng, dim)) for name in "UV"], dim=dim)


def record_candidates(monkeypatch):
    seen = []
    original = _ElementStore._candidates

    def recording(self, mat, norm, tol):
        idxs = original(self, mat, norm, tol)
        seen.append(None if idxs is None else len(idxs))
        return idxs

    monkeypatch.setattr(_ElementStore, "_candidates", recording)
    return seen


@pytest.mark.parametrize("dim", (2, 4))
def test_unitary_closure_lookups_take_few_candidates(dim, monkeypatch):
    seen = record_candidates(monkeypatch)
    c = selfadjoint_closure(generic_unitary_gens(dim, seed=dim), Limits(2000))
    assert len(c) == 2000
    assert len(seen) > 2000
    assert None not in seen  # the full scan never ran
    assert max(seen) <= 8


def test_looser_find_scans_everything_and_agrees(monkeypatch):
    c = units_closure()
    mats = c.matrices()
    loose = ToleranceConfig(eq_tol=3e-8)
    rng = np.random.default_rng(2)
    d = rng.standard_normal((3, 3))
    d /= np.linalg.norm(d)
    seen = record_candidates(monkeypatch)
    for m in mats:
        for factor in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
            q = m + factor * loose.eq_tol * max(1.0, np.linalg.norm(m)) * d
            assert c.find(q, loose) == first_match(mats, q, loose)
    assert seen and all(s is None for s in seen)


@pytest.mark.parametrize("monitor", (True, False))
def test_batched_validation_matches_make_partial_isometry(monitor):
    statuses, unvalidated = set(), 0
    for d in np.geomspace(1e-6, 1e-3, 13):
        v = np.array([1.0, d]) / np.hypot(1.0, d)
        gens = generator_set([("P", np.diag([1.0, 0.0])), ("Q", np.outer(v, v))], dim=2)
        c = close(gens, Limits(200, 16), monitor_pi=monitor)
        statuses.add(c.status)
        for e in c.elements:
            try:
                want = make_partial_isometry(e.matrix)
            except NotPartialIsometry:
                want = None
            assert (e.pi is None) == (want is None)
            unvalidated += e.pi is None
            if want is not None:
                for field in ("matrix", "initial", "final"):
                    assert np.array_equal(getattr(e.pi, field), getattr(want, field))
        if c.status == FAILURE:
            with pytest.raises(NotPartialIsometry) as err:
                make_partial_isometry(c.evaluate(c.witness_word))
            assert c.witness_deviation == err.value.deviation
            assert_store_holds_the_elements(c)
    # the sweep crosses proj_tol: both outcomes occur
    assert (FAILURE in statuses) if monitor else unvalidated > 0
    assert statuses - {FAILURE}


@pytest.mark.parametrize("dim", (2, 4))
def test_truncated_closure_looks_up_nothing_past_the_limit(dim, monkeypatch):
    outcomes = []
    original = _ElementStore.lookup

    def recording(self, mat, tol=None):
        found = original(self, mat, tol)
        outcomes.append(found[0] is not None)
        return found

    gens = adjoint_generator_set(generic_unitary_gens(dim, seed=dim))
    monkeypatch.setattr(_ElementStore, "lookup", recording)
    c = close(gens, Limits(301), monitor_pi=True)
    assert c.limit_hit == "max_elements"
    # generic unitaries give no duplicates within one parent, so every
    # lookup is a hit or a retained element, except the last: the product
    # that found no room
    retained = len(c) - 1  # the identity is retained without a lookup
    assert not outcomes[-1]
    assert len(outcomes) == sum(outcomes) + retained + 1
