"""The tolerant element index (its sketch grid, the full-scan fallback and
its batches against a per-query reference), the level-batched closure
against the per-parent closure it replaced, the batched validation of
closure products, the projection-family memo and the adjoin fixpoint."""

from collections import deque

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pisomlab import index
from pisomlab.index import _Queries
from pisomlab.invsg import barnes_representation, symmetric_inverse_table
from pisomlab.numlin import ShapeMismatch, ToleranceConfig, approx_equal
from pisomlab.pisom import NotPartialIsometry, make_partial_isometry, partial_isometry_rule
from pisomlab.projlat import boolean_atoms
from pisomlab.sgroup import (
    CLOSED,
    FAILURE,
    TRUNCATED,
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


def units_closure(n=3, cfg=CFG):
    named = [(f"E{i}{j}", matrix_unit(n, i, j)) for i in range(n) for j in range(n) if i != j]
    return close(generator_set(named, dim=n, cfg=cfg), monitor_pi=True)


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
    for cfg in (CFG,) + OTHER_CFGS:
        store = _ElementStore(dim, cfg, mats)
        unit = cfg.eq_tol * max(1.0, size)
        for pos in offsets * CFG.eq_tol / cfg.eq_tol:
            for shift in shifts:
                t = pos + shift
                if any(abs(abs(t - o * CFG.eq_tol / cfg.eq_tol) - 1.0) < 1e-6
                       for o in offsets):
                    continue  # a distance exactly at the threshold is a coin flip
                q = x + t * unit * d
                want = first_match(mats, q, cfg)
                assert store.find(q) == want
                assert store.lookup(q)[0] == want


@pytest.mark.parametrize("cfg", (CFG,) + OTHER_CFGS)
def test_closure_find_answers_under_the_given_cfg(cfg):
    c = units_closure(cfg=cfg)
    mats = c.matrices()
    rng = np.random.default_rng(1)
    d = rng.standard_normal((3, 3))
    d /= np.linalg.norm(d)
    for m in mats:
        for factor in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
            q = m + factor * cfg.eq_tol * max(1.0, np.linalg.norm(m)) * d
            assert c.find(q) == first_match(mats, q, cfg)


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
    loose = units_closure(cfg=ToleranceConfig(eq_tol=1e-6))
    fams = family_projections(loose)
    assert fams.p_set.cfg == fams.q_set.cfg == ToleranceConfig(eq_tol=1e-6)


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


@pytest.mark.parametrize("order", (1, -1))
def test_near_pair_tie_across_pair_chunks_goes_to_the_lower_index(order, monkeypatch):
    # one (query, member) pair per chunk of the rule: the tie is settled
    # between chunks, not within one
    monkeypatch.setattr(index, "_CHUNK", index._HELD * 4)
    q = np.diag([1.0, 0.0])
    d = np.array([[0.0, 1.0], [0.0, 0.0]])
    t = 2.0 ** -26
    store = _ElementStore(2, CFG)
    for sign in (order, -order, 3 * order):
        store.append(q + sign * t * d)
    assert store.lookup(q) == (None, (0, t))


def assert_store_holds_the_elements(c):
    assert c.store.count == len(c)
    for i, e in enumerate(c.elements):
        assert c.find(e.matrix) == i
    if c.witness_word is not None:
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

    def sketch(m):
        return float(np.vdot(g, m).real)

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
    boundary = round(sketch(x) / store._width) * store._width
    spread = offsets[-1] * unit * sketch(d)
    x = x + (boundary - cut * spread - sketch(x)) * g
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
            assert _Queries(store, q[None]).cover[0] is not None  # the grid, no full scan
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
    """-> (the cover of every query, None for a full scan; the candidate
    pairs per query over both phases of its batch)."""
    covers, pairs = [], {}
    queries_of, resolve = _ElementStore._queries, _ElementStore._resolve

    def recording_queries(self, mats):
        queries = queries_of(self, mats)
        covers.extend(queries.cover)
        return queries

    def recording_resolve(self, queries, qs, ms):
        for q in qs.tolist():  # keyed by the batch itself, which keeps it alive
            pairs[queries, q] = pairs.get((queries, q), 0) + 1
        return resolve(self, queries, qs, ms)

    monkeypatch.setattr(_ElementStore, "_queries", recording_queries)
    monkeypatch.setattr(_ElementStore, "_resolve", recording_resolve)
    return covers, pairs


@pytest.mark.parametrize("dim", (2, 4))
def test_unitary_closure_lookups_take_few_candidates(dim, monkeypatch):
    covers, pairs = record_candidates(monkeypatch)
    c = selfadjoint_closure(generic_unitary_gens(dim, seed=dim), Limits(2000))
    assert len(c) == 2000
    assert len(covers) > 2000
    assert None not in covers  # the full scan never ran
    assert max(pairs.values()) <= 8


def test_large_norm_find_scans_everything_and_agrees(monkeypatch):
    # members of norm 10 sqrt(dim) put the near radius beyond half a cell
    mats = [10.0 * np.sqrt(3) * m / np.linalg.norm(m) for m in units_closure().matrices()
            if m.any()]
    store = _ElementStore(3, CFG, mats)
    rng = np.random.default_rng(2)
    d = rng.standard_normal((3, 3))
    d /= np.linalg.norm(d)
    covers, pairs = record_candidates(monkeypatch)
    for m in mats:
        for factor in (0.5, 1 - 1e-3, 1 + 1e-3, 2.0):
            q = m + factor * CFG.eq_tol * max(1.0, np.linalg.norm(m)) * d
            assert store.find(q) == first_match(mats, q, CFG)
    assert covers and all(cover is None for cover in covers)
    assert set(pairs.values()) == {len(mats)}


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
    original = _ElementStore.add_batch

    def recording(self, mats, room=None):
        found = original(self, mats, room)
        outcomes.extend(match is not None for match, _ in found)
        return found

    gens = adjoint_generator_set(generic_unitary_gens(dim, seed=dim))
    monkeypatch.setattr(_ElementStore, "add_batch", recording)
    c = close(gens, Limits(301), monitor_pi=True)
    assert c.limit_hit == "max_elements"
    assert c.store.count == len(c)
    # generic unitaries give no duplicates within one level, so every
    # product looked up is a hit or a retained element, except the last:
    # the product that found no room, where the results end
    retained = len(c) - 1  # the identity is retained without a lookup
    assert not outcomes[-1]
    assert len(outcomes) == sum(outcomes) + retained + 1


# --- the per-query store and the per-parent closure, kept as references ---

class ReferenceStore:
    """The store as it was before batching: each lookup scans every member
    with the old per-query rule, and each new member is appended alone."""

    def __init__(self, dim, cfg):
        self.cfg = cfg
        self.mats = np.zeros((0, dim, dim), dtype=complex)
        self.norms = np.zeros(0)

    def lookup(self, q):
        tol = self.cfg.eq_tol
        norm = np.linalg.norm(q)
        scale = np.maximum(1.0, np.maximum(self.norms, norm))
        idxs = np.flatnonzero(np.abs(self.norms - norm) <= 10.0 * tol * scale)
        if idxs.size == 0:
            return None, None
        scale = scale[idxs]
        dists = np.linalg.norm((self.mats[idxs] - q).reshape(idxs.size, -1), axis=1)
        matches = dists <= tol * scale
        if np.any(matches):
            return int(idxs[np.argmax(matches)]), None
        near = dists <= 10.0 * tol * scale
        if np.any(near):
            pos = int(np.argmin(np.where(near, dists, np.inf)))
            return None, (int(idxs[pos]), float(dists[pos]))
        return None, None

    def append(self, mat):
        self.mats = np.concatenate([self.mats, mat[None]])
        self.norms = np.append(self.norms, np.linalg.norm(mat))

    def add_batch(self, mats, room=None):
        out = []
        for mat in mats:
            out.append(self.lookup(mat))
            if out[-1][0] is None:
                if room is not None and len(self.mats) >= room:
                    break
                self.append(mat)
        return out


def assert_same_found(got, want):
    assert len(got) == len(want)
    for (match, near), (want_match, want_near) in zip(got, want):
        assert match == want_match
        assert (near is None) == (want_near is None)
        if near is not None:
            assert near[0] == want_near[0]
            assert near[1] == pytest.approx(want_near[1], rel=1e-12)


@st.composite
def batch_cases(draw):
    """Members and a batch drawn, with repeats, from a pool of points x + t d
    (t in units of eq_tol * max(1, ||x||)), d leaning on the sketch
    direction and x placed so that a cell edge cuts the pool; x of norm up
    to 10 sqrt(dim) makes every query scan all members.  The entries a mask
    picks are zero in every point, +0.0 or -0.0 as each draw says, so that
    repeats are copies entry for entry but not always bit for bit."""
    dim = draw(st.integers(1, 3))
    pool = draw(st.lists(st.floats(-12.0, 12.0), min_size=1, max_size=7))
    pick = st.tuples(st.integers(0, len(pool) - 1), st.booleans())
    members = draw(st.lists(pick, max_size=6))
    batch = draw(st.lists(pick, max_size=10))
    extra = draw(st.none() | st.integers(0, len(batch)))
    zeros = draw(st.lists(st.booleans(), min_size=dim * dim, max_size=dim * dim)
                 .filter(lambda z: not all(z)))
    return dict(dim=dim, pool=pool, members=members, batch=batch, zeros=zeros,
                room=None if extra is None else len(members) + extra,
                size=draw(st.sampled_from((0.3, 1.0, 2.5, 10.0 * np.sqrt(dim)))),
                seed=draw(st.integers(0, 2**32 - 1)), cut=draw(st.floats(0.0, 1.0)))


def batch_case(pool, members, batch, room, dim=1, size=1.0, seed=0, cut=0.5):
    """A batch_cases draw written out, with no zero entries."""
    return dict(dim=dim, pool=pool, members=members, batch=[(k, False) for k in batch],
                zeros=[False] * dim * dim, room=room, size=size, seed=seed, cut=cut)


@settings(max_examples=300, deadline=None)
@given(case=batch_cases(), per_chunk=st.none() | st.integers(1, 3))
# with two queries per chunk: a room cut in a later chunk with a member
# indexed but not yet written, and an in-batch lookup (of the point 3
# units from -12) right after such a member
@example(case=batch_case([-100.0, 0.0, 100.0], [], [0, 0, 1, 2], room=2), per_chunk=2)
@example(case=batch_case([-12.0, -9.0, 12.0], [], [2, 2, 0, 1], room=2), per_chunk=2)
def test_add_batch_agrees_with_the_per_query_store(case, per_chunk):
    with pytest.MonkeyPatch.context() as patch:
        if per_chunk is not None:
            # batches span several chunks of per_chunk queries
            patch.setattr(index, "_CHUNK", index._HELD * case["dim"] ** 2 * per_chunk)
        add_batch_agrees_with_the_per_query_store(case)


def add_batch_agrees_with_the_per_query_store(case):
    dim, pool = case["dim"], np.array(case["pool"])
    gaps = np.abs(pool[:, None] - pool[None, :])
    # a distance at a threshold is a coin flip between two norm roundings
    assume(not np.any((np.abs(gaps - 1.0) < 1e-6) | (np.abs(gaps - 10.0) < 1e-6)))
    rng = np.random.default_rng(case["seed"])
    store, ref = _ElementStore(dim, CFG), ReferenceStore(dim, CFG)
    zeros = np.array(case["zeros"]).reshape(dim, dim)
    g = store._direction.reshape(dim, dim)
    g_free = np.where(zeros, 0.0, g)
    noise = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    d = np.where(zeros, 0.0, 0.8 * g + 0.2 * noise / np.linalg.norm(noise))
    d /= np.linalg.norm(d)
    x = np.where(zeros, 0.0, rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    x *= case["size"] / np.linalg.norm(x)
    unit = CFG.eq_tol * max(1.0, case["size"])
    # move x along the free entries of g until a cell edge cuts the pool
    edge = np.ceil(np.vdot(g, x).real / store._width) * store._width
    x += ((edge - np.vdot(g, x).real - (pool.min() + case["cut"] * np.ptp(pool))
           * unit * np.vdot(g, d).real) / np.vdot(g, g_free).real) * g_free
    points = [x + t * unit * d for t in pool]

    def point(k, negative_zeros):
        out = points[k].copy()
        out[zeros] = complex(-0.0, -0.0) if negative_zeros else 0.0
        return out

    for k, negative_zeros in case["members"]:
        store.append(point(k, negative_zeros))
        ref.append(point(k, negative_zeros))
    mats = np.array([point(k, neg) for k, neg in case["batch"]]).reshape(-1, dim, dim)
    assert_same_found(store.add_batch(mats, case["room"]),
                      ref.add_batch(mats, case["room"]))
    assert store.count == len(ref.mats)
    assert np.array_equal(store.stack(), ref.mats)
    assert_same_found(store.lookup_batch(mats), [ref.lookup(m) for m in mats])


def count_lookups(monkeypatch):
    """-> a list that records each single-query _ElementStore.lookup."""
    calls = []
    lookup = _ElementStore.lookup
    monkeypatch.setattr(_ElementStore, "lookup",
                        lambda self, mat: calls.append(mat) or lookup(self, mat))
    return calls


@pytest.mark.parametrize("negative_zeros", (False, True))
def test_copy_after_a_near_member_of_the_batch_is_its_first_match(negative_zeros, monkeypatch):
    # b lies 3 eq_tol from a: near, no match, and looked up since a came
    # first in the batch.  The copies of b and a that follow match them
    # without a lookup; c, 2 eq_tol beyond b, is no copy and is looked up
    rng = np.random.default_rng(5)
    a = np.zeros((2, 2), dtype=complex)
    a[0] = rng.standard_normal(2) + 1j * rng.standard_normal(2)
    a /= np.linalg.norm(a)
    step = np.zeros((2, 2), dtype=complex)
    step[0, 0] = CFG.eq_tol
    b, c = a + 3.0 * step, a + 5.0 * step
    copy_b, copy_a = b.copy(), a.copy()
    if negative_zeros:
        copy_b[1] = copy_a[1] = complex(-0.0, -0.0)
    batch = np.array([a, b, copy_b, copy_a, c])
    calls = count_lookups(monkeypatch)
    for room in (None, 2):
        store, ref = _ElementStore(2, CFG), ReferenceStore(2, CFG)
        calls.clear()
        got = store.add_batch(batch, room)
        assert_same_found(got, ref.add_batch(batch, room))
        assert got[:4] == [(None, None), (None, (0, pytest.approx(3.0 * CFG.eq_tol))),
                           (1, None), (0, None)]
        assert len(calls) == 2
        assert np.array_equal(calls[0], b) and np.array_equal(calls[1], c)
        assert np.array_equal(store.stack(), ref.mats)


def exact_closure_cases():
    n = 8
    units = [(f"E{i}", matrix_unit(n, i, (i + 1) % n)) for i in range(n)]
    table = symmetric_inverse_table(3)
    images = [(f"s{i}", pi.matrix) for i, pi in enumerate(barnes_representation(table))]
    # (generators, limits, whether a batch meets copies of its own members):
    # the Barnes images are closed under products, so each product is found
    # among the generators
    return {
        "units-8": (generator_set(units, dim=n), Limits(20000, n + 1), True),
        "units-8-selfadjoint": (adjoint_generator_set(generator_set(units, dim=n)),
                                Limits(20000, n + 1), True),
        "barnes-I3": (adjoint_generator_set(generator_set(images, dim=table.n)), Limits(),
                      False),
    }


@pytest.mark.parametrize("label", sorted(exact_closure_cases()))
def test_exact_closures_find_in_batch_copies_without_lookup(label, monkeypatch):
    # partial permutations multiply exactly: every in-batch duplicate is a copy
    gens, limits, meets_copies = exact_closure_cases()[label]
    calls = count_lookups(monkeypatch)
    copies = []
    copy_since = _ElementStore._copy_since
    monkeypatch.setattr(_ElementStore, "_copy_since",
                        lambda *args: copies.append(copy_since(*args)) or copies[-1])
    c = close(gens, limits, monitor_pi=True)
    assert calls == [] and None not in copies and bool(copies) == meets_copies
    words, near_pairs, status, limit_hit, witness = reference_close(gens, limits, True)
    assert [e.word for e in c.elements] == words
    assert (c.status, c.limit_hit, c.witness_word) == (status, limit_hit, witness)
    assert c.near_duplicate_pairs == near_pairs == []
    assert_store_holds_the_elements(c)


def reference_close(gens, limits, monitor_pi):
    """close as it was before level batching, for generator sets without
    include_zero: one parent at a time, each product looked up against
    every element kept before it.  -> (words, near pairs, status, limit
    hit, witness word)."""
    dim, cfg = gens.dim, gens.cfg
    store = ReferenceStore(dim, cfg)
    words, near_pairs, queue = [], [], deque()

    def retain(mat, word, near):
        if near is not None:
            near_pairs.append((near[0], len(words), near[1]))
        words.append(word)
        queue.append(len(words) - 1)

    if gens.include_identity:
        store.append(np.eye(dim, dtype=complex))
        retain(None, (), None)
    for name, mat in gens.named_generators:
        match, near = store.lookup(mat)
        if match is None:
            if len(words) >= limits.max_elements:
                return words, near_pairs, TRUNCATED, "max_elements", None
            store.append(mat)
            retain(mat, (name,), near)
    gen_stack = np.array([m for _, m in gens.named_generators]).reshape(-1, dim, dim)
    limit_hit = None
    while queue:
        k = queue.popleft()
        if len(words[k]) >= limits.max_word_length:
            limit_hit = limit_hit or "max_word_length"
            continue
        prods = store.mats[k] @ gen_stack
        new = []
        for i, prod in enumerate(prods):
            match, near = store.lookup(prod)
            if match is None:
                new.append((i, near))
                if len(store.mats) >= limits.max_elements:
                    break
                store.append(prod)
        if not new:
            continue
        valid = partial_isometry_rule(prods[[i for i, _ in new]], cfg)[0]
        for (i, near), ok in zip(new, valid):
            word = words[k] + (gens.names[i],)
            if not ok and monitor_pi:
                return words, near_pairs, FAILURE, None, word
            if len(words) >= limits.max_elements:
                return words, near_pairs, TRUNCATED, "max_elements", None
            retain(prods[i], word, near)
    return words, near_pairs, TRUNCATED if limit_hit else CLOSED, limit_hit, None


def chunk_cases():
    e = np.diag([1.0, 0.0])
    v = np.array([1.0, 1e-4]) / np.hypot(1.0, 1e-4)
    units = [(f"E{i}{j}", matrix_unit(4, i, j)) for i in range(4) for j in range(4) if i != j]
    return {
        "unitary-n2": (adjoint_generator_set(generic_unitary_gens(2, seed=7)), Limits(700), True),
        "unitary-n4": (adjoint_generator_set(generic_unitary_gens(4, seed=8)), Limits(1500), True),
        "units-n4": (generator_set(units, dim=4), Limits(5000), True),
        "units-n4-short": (generator_set(units, dim=4), Limits(5000, 2), True),
        "golden-8": (adjoint_generator_set(generator_set(zip("ABC", golden_generators()), dim=8)),
                     Limits(5000), True),
        "projections-raw": (generator_set([("P", e), ("Q", np.outer(v, v))], dim=2),
                            Limits(200, 16), False),
    }


@pytest.mark.parametrize("chunk", (64, 256, None))
@pytest.mark.parametrize("label", sorted(chunk_cases()))
def test_level_batched_closure_agrees_with_the_per_parent_closure(label, chunk, monkeypatch):
    gens, limits, monitor = chunk_cases()[label]
    if chunk is not None:  # a few parents per chunk: every level spans several
        monkeypatch.setattr(index, "_CHUNK", chunk)
    c = close(gens, limits, monitor_pi=monitor)
    words, near_pairs, status, limit_hit, witness = reference_close(gens, limits, monitor)
    assert [e.word for e in c.elements] == words
    assert (c.status, c.limit_hit, c.witness_word) == (status, limit_hit, witness)
    assert [p[:2] for p in c.near_duplicate_pairs] == [p[:2] for p in near_pairs]
    for got, want in zip(c.near_duplicate_pairs, near_pairs):
        assert got[2] == pytest.approx(want[2], rel=1e-12)
    assert_store_holds_the_elements(c)


def test_default_chunk_splits_a_level():
    # the fifth level of the free group on U, V has 324 elements, more
    # parents than a chunk holds with four generators in dimension 4
    gens, limits, _ = chunk_cases()["unitary-n4"]
    assert len(index._chunks(324, 4, index._HELD * len(gens.names))) > 1
    words = [e.word for e in close(gens, limits, monitor_pi=True).elements]
    assert sum(len(w) == 5 for w in words) == 324
