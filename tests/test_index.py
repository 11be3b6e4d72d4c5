"""The tolerant element index (its sketch grid, the full-scan fallback and
its batches against a per-query reference), the level-batched closure
against the per-parent closure it replaced, the batched validation of
closure products, the projection-family memo and the adjoin fixpoint."""

from collections import deque
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from pisomlab import index, sgroup
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
    return close(generator_set(named, dim=n, cfg=cfg))


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
                assert store.lookup(q) == want


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


@pytest.mark.parametrize("eq_tol", [1e-20, 1e-300, 5e-324])
def test_tiny_eq_tol_lookups_agree_with_first_match(eq_tol):
    # the match radius is below rounding, so every stack scans all members;
    # the sketch cells leave the int64 range and must not warn
    cfg = ToleranceConfig(eq_tol=eq_tol)
    mats = units_closure(cfg=cfg).matrices()
    assert len(mats) == len(units_closure().matrices())
    store = _ElementStore(3, cfg, mats)
    rng = np.random.default_rng(4)
    d = rng.standard_normal((3, 3))
    queries = [m + t * d for m in mats for t in (0.0, 1e-12, 1.0)] + [1e3 * d]
    for q in queries:
        assert store.lookup(q) == first_match(mats, q, cfg)
    assert store.lookup_batch(queries) == [first_match(mats, q, cfg) for q in queries]


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


# exact binary entries: each step moves q by exactly t = 2^-28 < eq_tol
TIE_QUERY = np.diag([1.0, 0.0])
TIE_STEPS = (np.array([[0.0, 1.0], [0.0, 0.0]]), np.array([[0.0, -1.0], [0.0, 0.0]]),
             np.array([[0.0, 0.0], [1.0, 0.0]]))


@pytest.mark.parametrize("order", (1, -1))
def test_match_tie_goes_to_the_lower_index(order):
    # both members match q at the same distance t
    store = _ElementStore(2, CFG)
    for step in TIE_STEPS[:2][::order]:
        store.append(TIE_QUERY + 2.0 ** -28 * step)
    assert store.lookup(TIE_QUERY) == 0


@pytest.mark.parametrize("order", (1, -1))
def test_match_tie_across_pair_chunks_goes_to_the_lower_index(order, monkeypatch):
    # one (query, member) pair per chunk of the rule: the tie between three
    # members is settled between chunks, not within one
    monkeypatch.setattr(index, "_CHUNK", index._HELD * 4)
    monkeypatch.setattr(index, "_FLOOR", 1)
    store = _ElementStore(2, CFG)
    for step in TIE_STEPS[::order]:
        store.append(TIE_QUERY + 2.0 ** -28 * step)
    assert store.lookup(TIE_QUERY) == 0


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


def assert_cells_list_the_members(store):
    """Each member below count is listed once, in increasing order within
    its cell, and no other index is listed."""
    cells = list(store._cells.values())
    assert all(members == sorted(members) for members in cells)
    assert sorted(m for members in cells for m in members) == list(range(store.count))


def test_closed_truncated_and_failed_stores_hold_their_elements():
    truncated = close(generic_unitary_gens(2, seed=2), Limits(100))
    failure = selfadjoint_closure(generator_set(zip("ABC", golden_generators()), dim=8))
    closed = units_closure()
    assert (closed.status, truncated.status, failure.status) == (CLOSED, TRUNCATED, FAILURE)
    for c in (closed, truncated):
        # the buffers grow by a quarter, or to fit, from 64 rows
        assert len(c.store._buf) == len(c.store._norms) <= max(64, 1.25 * len(c))
    for c in (closed, truncated, failure):
        assert_cells_list_the_members(c.store)
        assert_store_holds_the_elements(c)


def spread_matrices(dim, clusters, per_cluster, seed):
    """Distinct dim x dim matrices of norm about 1, per_cluster of them in
    each cluster sharing one sketch (so one grid cell) 3 eq_tol apart, the
    clusters interleaved."""
    rng = np.random.default_rng(seed)
    g = _ElementStore(dim, CFG)._direction.reshape(dim, dim)
    out = []
    for _ in range(clusters):
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        d = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        d -= np.vdot(g, d).real * g     # no move along g: the sketch stays
        d *= 3 * CFG.eq_tol / np.linalg.norm(d)
        out.append([x / np.linalg.norm(x) + k * d for k in range(per_cluster)])
    return [m for row in zip(*out) for m in row]


def test_truncate_after_growth_answers_as_a_fresh_store():
    mats = spread_matrices(2, 30, 10, seed=5)
    store = _ElementStore(2, CFG)
    sizes = set()
    for batch in (mats[start:start + 12] for start in range(0, len(mats), 12)):
        assert store.add_batch(batch) == [None] * len(batch)
        sizes.add(len(store._buf))
    assert store.count == 300 and len(sizes) > 4
    store.truncate(70)      # inside the buffer's first growth, 64 -> 80 rows
    assert_cells_list_the_members(store)
    fresh = _ElementStore(2, CFG)
    assert fresh.add_batch(mats[:70]) == [None] * 70
    near = [m + CFG.eq_tol / 4 for m in mats[::7]]
    queries = mats + near + spread_matrices(2, 5, 4, seed=6)
    assert store.lookup_batch(queries) == fresh.lookup_batch(queries)
    assert store.add_batch(queries) == fresh.add_batch(queries)
    assert np.array_equal(store.stack(), fresh.stack())
    assert_cells_list_the_members(store)
    assert store.lookup_batch(queries) == fresh.lookup_batch(queries)


def shift_projection_gens(n=24):
    """The cyclic shift e_i -> e_i+1, E_11 and the projection onto
    (e_9 + e_17)/sqrt(2): P.S^8.Q fails the rule late in the closure."""
    v = np.zeros(n)
    v[[8, 16]] = 1 / np.sqrt(2)
    p = np.zeros((n, n))
    p[0, 0] = 1.0
    return generator_set([("S", np.roll(np.eye(n), 1, axis=0)), ("P", p), ("Q", np.outer(v, v))],
                         dim=n)


@pytest.mark.parametrize("closure, kept", ((close, 121), (selfadjoint_closure, 346)))
def test_late_failure_store_answers_as_a_fresh_store(closure, kept):
    c = closure(shift_projection_gens())
    assert (c.status, len(c), c.witness_word) == (FAILURE, kept, ("P",) + ("S",) * 8 + ("Q",))
    assert len(c.store._buf) > kept     # rows past the failure were written, then dropped
    assert_cells_list_the_members(c.store)
    assert_store_holds_the_elements(c)
    fresh = _ElementStore(c.dim, CFG)
    assert fresh.add_batch(c.matrices()) == [None] * kept
    queries = np.concatenate([c.store.stack() @ g for g in c.name_map.values()])
    assert c.store.lookup_batch(queries) == fresh.lookup_batch(queries)
    assert c.store.add_batch(queries) == fresh.add_batch(queries)
    assert np.array_equal(c.store.stack(), fresh.stack())


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
    # move x along g so that a cell boundary cuts the members' sketches at
    # `cut`; a cell is 2.5 eq_tol sqrt(dim) wide, so wider pools cross more
    boundary = round(sketch(x) / store._width) * store._width
    spread = offsets[-1] * unit * sketch(d)
    x = x + (boundary - cut * spread - sketch(x)) * g
    mats = [x + t * unit * d for t in offsets]
    for m in mats:
        store.append(m)
    assert len(store._cells) >= 2
    for pos in offsets:
        for shift in shifts:
            t = pos + shift
            if any(abs(abs(t - o) - 1.0) < 1e-6 for o in offsets):
                continue  # a distance exactly at the threshold is a coin flip
            q = x + t * unit * d
            assert _Queries(store, q[None]).cover[0] is not None  # the grid, no full scan
            assert store.lookup(q) == first_match(mats, q, CFG)


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


def test_store_stacks_hold_at_least_the_floor(monkeypatch):
    # at dim 34 _CHUNK alone leaves 3 queries per stack; the floor makes a
    # 64-query batch two stacks of 32, in add_batch and in lookup_batch
    dim = 34
    assert index._CHUNK // (index._HELD * dim * dim) < index._FLOOR == 32
    rng = np.random.default_rng(3)
    mats = rng.standard_normal((64, dim, dim)) + 1j * rng.standard_normal((64, dim, dim))
    mats /= np.linalg.norm(mats, axis=(1, 2))[:, None, None]  # on the grid: no full scan
    store = _ElementStore(dim, CFG)
    sizes = []
    queries_of = _ElementStore._queries
    monkeypatch.setattr(_ElementStore, "_queries",
                        lambda self, stack: sizes.append(len(stack)) or queries_of(self, stack))
    found = store.add_batch(mats)
    assert sizes == [32, 32]
    assert store.count == 64 and all(match is None for match in found)
    sizes.clear()
    assert store.lookup_batch(mats) == list(range(64))
    assert sizes == [32, 32]


def store_list(name):
    """-> (dim, cfg, members) of a store built from a list: 150 members of
    dim 8 (three stacks of 64 at most) with repeats and near copies; members
    of norm 1e6, whose match radius makes every stack scan; and an eq_tol of
    1e-300, whose cells are clipped."""
    rng = np.random.default_rng(11)
    dim = {"random": 8, "large-norm": 3, "tiny-eq-tol": 2}[name]
    base = rng.standard_normal((50, dim, dim)) + 1j * rng.standard_normal((50, dim, dim))
    base /= np.linalg.norm(base, axis=(1, 2))[:, None, None]
    near = base + 0.5e-8 * rng.standard_normal(base.shape)
    mats = np.concatenate([base, near, base[rng.permutation(50)]])
    if name == "large-norm":
        mats *= 1e6
    cfg = ToleranceConfig(eq_tol=1e-300) if name == "tiny-eq-tol" else CFG
    return dim, cfg, list(mats)


@pytest.mark.parametrize("name", ["random", "large-norm", "tiny-eq-tol"])
def test_store_from_a_list_is_the_store_of_single_appends(name, monkeypatch):
    dim, cfg, mats = store_list(name)
    stacks = []
    queries_of = _Queries.__init__
    monkeypatch.setattr(_Queries, "__init__",
                        lambda self, store, stack: stacks.append(len(stack))
                        or queries_of(self, store, stack))
    built = _ElementStore(dim, cfg, mats)
    assert stacks == [len(mats[part]) for part in index._chunks(len(mats), dim, index._HELD,
                                                                index._FLOOR)]
    assert len(stacks) == (3 if name == "random" else 1)
    monkeypatch.undo()
    appended = _ElementStore(dim, cfg)
    for mat in mats:
        appended.append(mat)
    assert built.count == appended.count == len(mats)
    assert np.array_equal(built.stack(), appended.stack())
    assert np.array_equal(built._norms[:built.count], appended._norms[:appended.count])
    assert built._cells == appended._cells
    assert built._max_norm == appended._max_norm
    rng = np.random.default_rng(12)
    queries = mats + [m + 1e-9 * rng.standard_normal((dim, dim)) for m in mats[:40]]
    queries += list(rng.standard_normal((10, dim, dim)))
    assert built.lookup_batch(queries) == appended.lookup_batch(queries)


def test_large_norm_find_scans_everything_and_agrees(monkeypatch):
    # members of norm 10 sqrt(dim) put the match radius beyond half a cell
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
            assert store.lookup(q) == first_match(mats, q, CFG)
    assert covers and all(cover is None for cover in covers)
    assert set(pairs.values()) == {len(mats)}


def test_batched_validation_matches_make_partial_isometry():
    statuses = set()
    for d in np.geomspace(1e-6, 1e-3, 13):
        v = np.array([1.0, d]) / np.hypot(1.0, d)
        gens = generator_set([("P", np.diag([1.0, 0.0])), ("Q", np.outer(v, v))], dim=2)
        c = close(gens, Limits(200, 16))
        statuses.add(c.status)
        for e in c.elements:
            make_partial_isometry(e.matrix)
        if c.status == FAILURE:
            with pytest.raises(NotPartialIsometry) as err:
                make_partial_isometry(c.evaluate(c.witness_word))
            assert c.witness_deviation == err.value.deviation
            assert_store_holds_the_elements(c)
    # the sweep crosses proj_tol: both outcomes occur
    assert FAILURE in statuses
    assert statuses - {FAILURE}


@pytest.mark.parametrize("dim", (2, 4))
def test_truncated_closure_looks_up_nothing_past_the_limit(dim, monkeypatch):
    outcomes = []
    original = _ElementStore.add_batch

    def recording(self, mats, room=None):
        found = original(self, mats, room)
        outcomes.extend(match is not None for match in found)
        return found

    gens = adjoint_generator_set(generic_unitary_gens(dim, seed=dim))
    monkeypatch.setattr(_ElementStore, "add_batch", recording)
    c = close(gens, Limits(301))
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
        scale = np.maximum(1.0, np.maximum(self.norms, np.linalg.norm(q)))
        dists = np.linalg.norm((self.mats - q).reshape(len(self.mats), q.size), axis=1)
        matches = np.flatnonzero(dists <= self.cfg.eq_tol * scale)
        return int(matches[0]) if matches.size else None

    def append(self, mat):
        self.mats = np.concatenate([self.mats, mat[None]])
        self.norms = np.append(self.norms, np.linalg.norm(mat))

    def add_batch(self, mats, room=None):
        out = []
        for mat in mats:
            out.append(self.lookup(mat))
            if out[-1] is None:
                if room is not None and len(self.mats) >= room:
                    break
                self.append(mat)
        return out


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
            patch.setattr(index, "_FLOOR", 1)
        add_batch_agrees_with_the_per_query_store(case)


def add_batch_agrees_with_the_per_query_store(case):
    dim, pool = case["dim"], np.array(case["pool"])
    gaps = np.abs(pool[:, None] - pool[None, :])
    # a distance at a threshold is a coin flip between two norm roundings
    assume(not np.any(np.abs(gaps - 1.0) < 1e-6))
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
    assert store.add_batch(mats, case["room"]) == ref.add_batch(mats, case["room"])
    assert store.count == len(ref.mats)
    assert np.array_equal(store.stack(), ref.mats)
    assert store.lookup_batch(mats) == [ref.lookup(m) for m in mats]


def count_lookups(monkeypatch):
    """-> a list that records each single-query _ElementStore.lookup."""
    calls = []
    lookup = _ElementStore.lookup
    monkeypatch.setattr(_ElementStore, "lookup",
                        lambda self, mat: calls.append(mat) or lookup(self, mat))
    return calls


@pytest.mark.parametrize("negative_zeros", (False, True))
def test_copy_after_a_near_member_of_the_batch_is_its_first_match(negative_zeros, monkeypatch):
    # b lies 3 eq_tol from a: simply a distinct member, looked up since a came
    # first in the batch and lies in its cells.  The copies of b and a that follow
    # match them without a lookup; c, 2 eq_tol beyond b, is no copy and is
    # looked up
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
        assert got == ref.add_batch(batch, room)
        assert got[:4] == [None, None, 1, 0]
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
    c = close(gens, limits)
    assert calls == [] and None not in copies and bool(copies) == meets_copies
    words, status, limit_hit, witness = reference_close(gens, limits)
    assert [e.word for e in c.elements] == words
    assert (c.status, c.limit_hit, c.witness_word) == (status, limit_hit, witness)
    assert_store_holds_the_elements(c)


def reference_close(gens, limits):
    """close as it was before level batching, for generator sets without
    include_zero: one parent at a time, each product looked up against
    every element kept before it and validated, the generators too.
    -> (words, status, limit hit, witness word)."""
    dim, cfg = gens.dim, gens.cfg
    store = ReferenceStore(dim, cfg)
    words, queue = [], deque()

    def retain(word):
        words.append(word)
        queue.append(len(words) - 1)

    if gens.include_identity:
        store.append(np.eye(dim, dtype=complex))
        retain(())
    for name, mat in gens.named_generators:
        if store.lookup(mat) is None:
            if not partial_isometry_rule(mat[None], cfg)[0][0]:
                return words, FAILURE, None, (name,)
            if len(words) >= limits.max_elements:
                return words, TRUNCATED, "max_elements", None
            store.append(mat)
            retain((name,))
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
            if store.lookup(prod) is None:
                new.append(i)
                if len(store.mats) >= limits.max_elements:
                    break
                store.append(prod)
        if not new:
            continue
        valid = partial_isometry_rule(prods[new], cfg)[0]
        for i, ok in zip(new, valid):
            word = words[k] + (gens.names[i],)
            if not ok:
                return words, FAILURE, None, word
            if len(words) >= limits.max_elements:
                return words, TRUNCATED, "max_elements", None
            retain(word)
    return words, TRUNCATED if limit_hit else CLOSED, limit_hit, None


def scaled_unitary_gens():
    """Generic unitaries U, V, W at n = 4 with V scaled by 1 + 0.92e-9: a
    word with k letters V has a defect of about 4k * 0.92e-9 against the
    bound 2e-8, so V^6 is the first word that fails the rule."""
    rng = np.random.default_rng(9)
    scale = {"V": 1.0 + 0.92e-9}
    return generator_set([(name, random_unitary(rng, 4) * scale.get(name, 1.0))
                          for name in "UVW"], dim=4)


def chunk_cases():
    e = np.diag([1.0, 0.0])
    v = np.array([1.0, 1e-4]) / np.hypot(1.0, 1e-4)
    units = [(f"E{i}{j}", matrix_unit(4, i, j)) for i in range(4) for j in range(4) if i != j]
    projections = generator_set([("P", e), ("Q", np.outer(v, v))], dim=2)
    golden = adjoint_generator_set(generator_set(zip("ABC", golden_generators()), dim=8))
    return {
        "unitary-n2": (adjoint_generator_set(generic_unitary_gens(2, seed=7)), Limits(700)),
        "unitary-n4": (adjoint_generator_set(generic_unitary_gens(4, seed=8)), Limits(1500)),
        "units-n4": (generator_set(units, dim=4), Limits(5000)),
        "units-n4-short": (generator_set(units, dim=4), Limits(5000, 2)),
        "golden-8": (golden, Limits(5000)),
        # the failing member, element 20 of golden-8, is the first past the limit
        "golden-8-at-limit": (golden, Limits(20)),
        # V^6 fails in the second validation stack of its level, before others
        "scaled-unitary-n4": (scaled_unitary_gens(), Limits(5000)),
        "projections": (projections, Limits(200, 16)),
        # a generator that is no partial isometry, past the factory's check
        "projections-seed-failure": (
            replace(projections, named_generators=projections.named_generators
                    + (("X", np.array([[1.0, 0.5], [0.0, 0.0]])),)), Limits(200, 16)),
    }


@pytest.mark.parametrize("chunk", (64, 256, None))
@pytest.mark.parametrize("label", sorted(chunk_cases()))
def test_level_batched_closure_agrees_with_the_per_parent_closure(label, chunk, monkeypatch):
    gens, limits = chunk_cases()[label]
    if chunk is not None:  # a few parents per chunk: every level spans several
        monkeypatch.setattr(index, "_CHUNK", chunk)
    c = close(gens, limits)
    words, status, limit_hit, witness = reference_close(gens, limits)
    assert [e.word for e in c.elements] == words
    assert (c.status, c.limit_hit, c.witness_word) == (status, limit_hit, witness)
    assert_store_holds_the_elements(c)


def test_failure_cases_fail_where_they_are_meant_to():
    gens, limits = chunk_cases()["golden-8-at-limit"]
    at_limit, free = close(gens, limits), close(gens, replace(limits, max_elements=5000))
    assert at_limit.status == free.status == FAILURE
    assert len(at_limit) == len(free) == limits.max_elements
    # level 6 holds 3^6 words; the failure is past the first validation stack
    c = close(*chunk_cases()["scaled-unitary-n4"])
    before = sum(len(w) == 6 for w in c.words)
    assert (c.status, len(c.witness_word)) == (FAILURE, 6)
    assert index._step(4, index._HELD) < before < 3 ** 6 - 1


@pytest.mark.parametrize("max_elements", (19, 20))
def test_cut_back_closure_keeps_no_trace_of_the_member_past_the_limit(max_elements,
                                                                       monkeypatch):
    # golden-8 keeps 20 elements and fails at element 20: at a limit of 19
    # the member past it is element 19, which passes; at 20 it is element 20
    gens, _ = chunk_cases()["golden-8"]
    free = close(gens, Limits(5000))
    validated = []
    rule = sgroup.partial_isometry_rule
    monkeypatch.setattr(sgroup, "partial_isometry_rule",
                        lambda ms, cfg: validated.extend(np.array(ms)) or rule(ms, cfg))
    c = close(gens, Limits(max_elements))
    if max_elements == 19:
        assert (c.status, c.limit_hit) == (TRUNCATED, "max_elements")
        cut = free.matrices()[19]
        assert free.find(cut) == 19
    else:
        assert (c.status, c.witness_word) == (FAILURE, free.witness_word)
        cut = c.evaluate(c.witness_word)
    assert len(c) == max_elements
    assert c.store.count == len(c.words)
    assert c.store.lookup_batch(c.matrices()) == list(range(len(c)))
    assert c.find(cut) is None
    # each kept element but I, then the member past the limit, once
    assert len(validated) == len(c)
    assert np.array_equal(validated[:-1], c.matrices()[1:])
    assert approx_equal(validated[-1], cut, CFG)


def test_close_validates_each_level_once(monkeypatch):
    # every level of cyclic units at n = 8 fits one validation stack
    gens, limits, _ = exact_closure_cases()["units-8"]
    sizes = []
    rule = sgroup.partial_isometry_rule
    monkeypatch.setattr(sgroup, "partial_isometry_rule",
                        lambda ms, cfg: sizes.append(len(ms)) or rule(ms, cfg))
    c = close(gens, limits)
    assert c.status == CLOSED
    assert len(sizes) <= max(len(w) for w in c.words)
    assert sum(sizes) == len(c) - 1     # every element but I, once


def test_default_chunk_splits_a_level():
    # the fifth level of the free group on U, V has 324 elements, more
    # parents than a chunk holds with four generators in dimension 4
    gens, limits = chunk_cases()["unitary-n4"]
    assert len(index._chunks(324, 4, index._HELD * len(gens.names))) > 1
    words = [e.word for e in close(gens, limits).elements]
    assert sum(len(w) == 5 for w in words) == 324


@pytest.mark.parametrize("dim", (1, 3, 8))
def test_each_dimension_builds_its_sketch_direction_once(dim):
    # every store of a dimension reads one read-only direction, whatever
    # its tolerance: the unit vector of the seeded generator, as each store
    # once drew for itself, and its conjugate
    rng = np.random.default_rng([0x5EED, dim])
    g = rng.standard_normal(dim * dim) + 1j * rng.standard_normal(dim * dim)
    g = g / np.linalg.norm(g)
    stores = [_ElementStore(dim, cfg) for cfg in (CFG, *OTHER_CFGS)]
    for store in stores:
        assert store._direction is stores[0]._direction
        assert store._direction_conj is stores[0]._direction_conj
    assert np.array_equal(stores[0]._direction, g)
    assert np.array_equal(stores[0]._direction_conj, g.conj())
    for array in (stores[0]._direction, stores[0]._direction_conj):
        assert not array.flags.writeable
