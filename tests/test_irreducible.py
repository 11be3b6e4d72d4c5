"""Norton's irreducibility test against Burnside span growth: the verdict and
span_dim on reducible and irreducible generator sets, its independence of
the seed, the witnesses its spins give, and the inputs where it falls back;
and is_irreducible against the span loop and witness search it had before
numlin.spin grew every orbit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab import numlin, sgroup
from pisomlab.numlin import DEFAULT_TOL, kernel_basis, norton_test
from pisomlab.sgroup import _is_invariant, generator_set, is_irreducible
from conftest import golden_generators, matrix_unit
from factories import block_diag, random_partial_isometry, random_unitary


def span_growth(gens, seed=0):
    """is_irreducible with Norton's test undecided: span growth alone."""
    with mock.patch.object(sgroup, "norton_test", lambda mats, cfg, seed: None):
        return is_irreducible(gens, seed)


class ReferenceSpan:
    """The span that the reference loops grow: a vector joins unless its norm
    is within eq_tol of zero or its residual, after two projections on the
    rows, is within rank_tol * max(1, its norm)."""

    def __init__(self, size, cfg):
        self.rows = np.zeros((size, size), dtype=np.complex128)
        self.dim = 0
        self.cfg = cfg

    def grow(self, v):
        nv = float(np.linalg.norm(v))
        if nv <= self.cfg.eq_tol:
            return False
        resid = v.astype(np.complex128)
        basis = self.rows[: self.dim]
        for _ in range(2):
            if self.dim:
                resid = resid - basis.T @ (basis @ resid.conj()).conj()
        rn = float(np.linalg.norm(resid))
        if rn <= self.cfg.rank_tol * max(1.0, nv):
            return False
        self.rows[self.dim] = resid / rn
        self.dim += 1
        return True


def reference_spin(v, mats, cfg):
    """The basis (as columns) of the span of v's orbit under x -> g x, a BFS
    level's images grown in (factor, frontier member) order."""
    n = v.shape[0]
    span = ReferenceSpan(n, cfg)
    span.grow(v)
    frontier = v[None]
    while frontier.size and span.dim < n:
        images = (frontier @ mats.transpose(0, 2, 1)).reshape(-1, n)
        frontier = np.array([u for u in images if span.dim < n and span.grow(u)]).reshape(-1, n)
    return span.rows[: span.dim].T


def reference_witness(mats, n, cfg, seed):
    """The invariant-subspace search is_irreducible ran when Norton's test gave
    no witness: proper spins of the basis vectors and 32 seeded random unit
    vectors under the generators, then the orthocomplements of their proper
    spins under the adjoints; the first that passes _is_invariant."""
    rng = np.random.default_rng(seed)
    candidates = [np.eye(n, dtype=np.complex128)[:, i] for i in range(n)]
    for _ in range(32):
        vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        candidates.append(vec / np.linalg.norm(vec))
    for x in candidates:
        basis = reference_spin(x, mats, cfg)
        if 0 < basis.shape[1] < n and _is_invariant(basis, mats, n, cfg):
            return basis
    adjoints = mats.conj().transpose(0, 2, 1)
    for x in candidates:
        basis = reference_spin(x, adjoints, cfg)
        if 0 < basis.shape[1] < n:
            comp = kernel_basis(basis.conj().T, cfg).basis
            if 0 < comp.shape[1] < n and _is_invariant(comp, mats, n, cfg):
                return comp
    return None


def reference_is_irreducible(gens, seed=0):
    """(irreducible, span_dim, witness basis or None) as is_irreducible gave
    them with its own span loop over words and the reference witness search
    after Norton's proper spin."""
    n, cfg = gens.dim, gens.cfg
    mats = np.array([m for _, m in gens.named_generators], dtype=np.complex128).reshape(-1, n, n)
    spun = norton_test(mats, cfg, seed)
    if spun is not None and spun.dim == n:
        return True, n * n, None
    span = ReferenceSpan(n * n, cfg)
    frontier = [mat for mat in [np.eye(n, dtype=np.complex128), *mats]
                if span.grow(mat.reshape(-1))]
    while frontier and span.dim < n * n:
        products = (mat @ g for mat in frontier for g in mats)
        frontier = [w for w in products if span.dim < n * n and span.grow(w.reshape(-1))]
    if span.dim == n * n:
        return True, span.dim, None
    if spun is not None and _is_invariant(spun.basis, mats, n, cfg):
        return False, span.dim, spun.basis
    return False, span.dim, reference_witness(mats, n, cfg, seed)


def recorded_spins(monkeypatch):
    """Every Subspace that numlin.spin returns, through numlin and sgroup."""
    spins = []
    spin = numlin.spin

    def recording(*args):
        spins.append(spin(*args))
        return spins[-1]

    monkeypatch.setattr(numlin, "spin", recording)
    monkeypatch.setattr(sgroup, "spin", recording)
    return spins


def rectangular_partial_isometry(rng, rows, cols):
    """U1 D U2 with D a rows x cols 0/1 diagonal."""
    d = np.zeros((rows, cols), dtype=complex)
    for i in range(min(rows, cols)):
        d[i, i] = rng.integers(2)
    return random_unitary(rng, rows) @ d @ random_unitary(rng, cols)


def norton_case(kind, n, count, rng):
    """count partial isometries on C^n of the given kind, conjugated by a
    random unitary:
    random:           generic, mostly irreducible;
    direct-sum:       block diagonal over C^m + C^(n-m);
    block-triangular: block diagonal or strictly block upper triangular, so
                      C^m is invariant and C^(n-m) need not be;
    tensor:           g (x) I_k, every eigenvalue of multiplicity k;
    coupled:          g (x) I_2 and I_m (x) E12 on C^m (x) C^2, two equal
                      diagonal blocks coupled above the diagonal, so that
                      every eigenvalue of a combination is defective."""
    m = int(rng.integers(1, n)) if n > 1 else 1
    mats = []
    if kind == "coupled":
        mats.append(np.kron(np.eye(n // 2), matrix_unit(2, 0, 1)))
    for _ in range(count):
        if kind == "random":
            mat = random_partial_isometry(rng, n)
        elif kind == "direct-sum":
            mat = block_diag(random_partial_isometry(rng, m), random_partial_isometry(rng, n - m))
        elif kind == "block-triangular" and rng.integers(2):
            mat = np.zeros((n, n), dtype=complex)
            mat[:m, m:] = rectangular_partial_isometry(rng, m, n - m)
        elif kind == "block-triangular":
            mat = block_diag(random_partial_isometry(rng, m), random_partial_isometry(rng, n - m))
        elif kind == "coupled":
            mat = np.kron(random_partial_isometry(rng, n // 2), np.eye(2))
        else:
            k = next(k for k in (2, 3, 5, 7) if n % k == 0)
            mat = np.kron(random_partial_isometry(rng, n // k), np.eye(k))
        mats.append(mat)
    u = random_unitary(rng, n)
    return generator_set([(f"g{i}", u @ g @ u.conj().T) for i, g in enumerate(mats)], dim=n)


@settings(max_examples=120, deadline=None)
@given(kind=st.sampled_from(("random", "direct-sum", "block-triangular", "tensor", "coupled")),
       n=st.integers(1, 8), count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       norton_seeds=st.lists(st.integers(0, 2**32 - 1), min_size=2, max_size=2))
def test_norton_answers_as_span_growth(kind, n, count, seed, norton_seeds):
    if kind in ("direct-sum", "block-triangular"):
        n = max(n, 2)
    if kind in ("tensor", "coupled"):
        n = max(4, n - n % 2)
    gens = norton_case(kind, n, count, np.random.default_rng(seed))
    want = span_growth(gens)
    for norton_seed in norton_seeds:
        got = is_irreducible(gens, seed=norton_seed)
        assert (got.irreducible, got.span_dim) == (want.irreducible, want.span_dim)
        if not got.irreducible and got.witness is not None:
            assert 0 < got.witness.dim < n
            assert _is_invariant(got.witness.basis, [m for _, m in gens.named_generators],
                                 n, gens.cfg)
    if kind != "random":
        assert not want.irreducible


@pytest.mark.parametrize("factor,want", [(0.5, True), (5.0, False)])
def test_invariance_is_decided_at_the_equality_scale(factor, want):
    # g = I_2 plus a leak d from e1 to e2: range(e1) is invariant iff d
    # vanishes against ||g||, eq_tol * max(1, ||g||), with no factor of its own
    leak = factor * DEFAULT_TOL.eq_tol * np.sqrt(2.0)
    g = np.array([[[1.0, 0.0], [leak, 1.0]]], dtype=complex)
    assert _is_invariant(np.eye(2, 1, dtype=complex), g, 2, DEFAULT_TOL) == want


def test_one_dimensional_space_is_irreducible():
    for named in ([], [("A", np.eye(1))], [("Z", np.zeros((1, 1)))]):
        gens = generator_set(named, dim=1)
        mats = np.array([m for _, m in named], dtype=complex).reshape(-1, 1, 1)
        assert norton_test(mats, gens.cfg, 0).dim == 1
        res = is_irreducible(gens)
        assert (res.irreducible, res.span_dim, res.witness) == (True, 1, None)


def test_empty_set_on_c2_falls_back_and_finds_a_witness():
    # x is a multiple of I: no eigenvalue is simple
    assert norton_test(np.zeros((0, 2, 2), dtype=complex), DEFAULT_TOL, 0) is None
    res = is_irreducible(generator_set([], dim=2))
    assert (res.irreducible, res.span_dim) == (False, 1)
    assert res.witness is not None and res.witness.dim == 1


def test_golden_input_falls_back_and_keeps_its_witness():
    # the golden generators are nilpotent: x - c0 I is too, no simple eigenvalue
    named = list(zip("ABC", golden_generators()))
    mats = np.array([m for _, m in named], dtype=complex)
    for seed in range(8):
        assert norton_test(mats, DEFAULT_TOL, seed) is None
    res = is_irreducible(generator_set(named))
    assert (res.irreducible, res.span_dim) == (span_growth(generator_set(named)).irreducible, 4)
    assert res.witness is not None


def test_defective_eigenvalues_fall_back_to_span_growth():
    # every eigenvalue of x is a Jordan 2-block, computed only to about
    # sqrt(eps): each has a twin that near, and no try takes one
    for seed in range(6):
        rng = np.random.default_rng(seed)
        n = 2 * int(rng.integers(2, 5))
        gens = norton_case("coupled", n, 2, rng)
        mats = np.array([m for _, m in gens.named_generators])
        for norton_seed in range(4):
            assert norton_test(mats, gens.cfg, norton_seed) is None
        res, want = is_irreducible(gens), span_growth(gens)
        assert (res.irreducible, res.span_dim) == (want.irreducible, want.span_dim)
        assert not res.irreducible


def test_cyclic_units_decided_by_norton_without_span_growth(monkeypatch):
    n = 12
    named = [(f"E{i}", matrix_unit(n, i, (i + 1) % n)) for i in range(n)]
    spins = recorded_spins(monkeypatch)
    for seed in range(4):
        res = is_irreducible(generator_set(named, dim=n), seed=seed)
        assert (res.irreducible, res.span_dim) == (True, n * n)
    # two full spins in C^n per seed, and no span of words in C^(n^2)
    assert [(s.ambient_dim, s.dim) for s in spins] == [(n, n)] * 8


def test_both_spins_give_the_invariant_subspace(monkeypatch):
    # E11, E12, E23 and E32 leave span(e1) invariant, and only it.  When
    # lambda is the eigenvalue of the E11 block, the kernel of x - lambda lies
    # in span(e1) and v spins to it; otherwise v spins to C^3 and w, under
    # the adjoints, to span(e2, e3), whose orthocomplement is span(e1)
    named = [("A", matrix_unit(3, 0, 0)), ("B", matrix_unit(3, 0, 1)),
             ("C", matrix_unit(3, 1, 2)), ("D", matrix_unit(3, 2, 1))]
    gens = generator_set(named, dim=3)
    spins = recorded_spins(monkeypatch)
    routes = set()
    for seed in range(16):
        spins.clear()
        res = is_irreducible(gens, seed=seed)
        assert (res.irreducible, res.span_dim) == (False, 7)
        assert np.allclose(res.witness.projection(), matrix_unit(3, 0, 0), atol=1e-12)
        # Norton's spins, then the span of words in C^9, and no spin after it
        assert (spins[-1].ambient_dim, spins[-1].dim) == (9, 7)
        routes.add(tuple(s.dim for s in spins[:-1]))
    assert routes == {(1,), (3, 2)}


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(("random", "direct-sum", "block-triangular", "tensor", "coupled")),
       n=st.integers(1, 8), count=st.integers(1, 3), seed=st.integers(0, 2**32 - 1),
       norton_seed=st.integers(0, 2**32 - 1))
def test_spins_answer_as_the_reference_loops(kind, n, count, seed, norton_seed):
    if kind in ("direct-sum", "block-triangular"):
        n = max(n, 2)
    if kind in ("tensor", "coupled"):
        n = max(4, n - n % 2)
    gens = norton_case(kind, n, count, np.random.default_rng(seed))
    irreducible, span_dim, witness = reference_is_irreducible(gens, norton_seed)
    got = is_irreducible(gens, seed=norton_seed)
    assert (got.irreducible, got.span_dim) == (irreducible, span_dim)
    assert (got.witness is None) == (witness is None)
    if witness is not None:
        assert got.witness.dim == witness.shape[1]
        assert np.allclose(got.witness.projection(), witness @ witness.conj().T, atol=1e-9)
