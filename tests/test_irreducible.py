"""Norton's irreducibility test against Burnside span growth: the verdict and
span_dim on reducible and irreducible generator sets, its independence of
the seed, the witnesses its spins give, and the inputs where it falls back."""

from unittest import mock

import numpy as np
from hypothesis import given, settings, strategies as st

from pisomlab import numlin, sgroup
from pisomlab.numlin import DEFAULT_TOL, norton_test
from pisomlab.sgroup import _is_invariant, generator_set, is_irreducible
from conftest import golden_generators, matrix_unit
from factories import block_diag, random_partial_isometry, random_unitary


def span_growth(gens, seed=0):
    """is_irreducible with Norton's test undecided: span growth alone."""
    with mock.patch.object(sgroup, "norton_test", lambda mats, cfg, seed: None):
        return is_irreducible(gens, seed)


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
    spins = []
    spin = numlin.spin
    monkeypatch.setattr(numlin, "spin", lambda *args: spins.append(spin(*args)) or spins[-1])
    monkeypatch.setattr(sgroup, "Span", None)  # no span of words in C^(n^2)
    for seed in range(4):
        res = is_irreducible(generator_set(named, dim=n), seed=seed)
        assert (res.irreducible, res.span_dim) == (True, n * n)
    assert [s.dim for s in spins] == [n] * 8


def test_both_spins_give_the_invariant_subspace(monkeypatch):
    # E11, E12, E23 and E32 leave span(e1) invariant, and only it.  When
    # lambda is the eigenvalue of the E11 block, the kernel of x - lambda lies
    # in span(e1) and v spins to it; otherwise v spins to C^3 and w, under
    # the adjoints, to span(e2, e3), whose orthocomplement is span(e1)
    named = [("A", matrix_unit(3, 0, 0)), ("B", matrix_unit(3, 0, 1)),
             ("C", matrix_unit(3, 1, 2)), ("D", matrix_unit(3, 2, 1))]
    gens = generator_set(named, dim=3)
    monkeypatch.setattr(sgroup, "_invariant_subspace_witness", None)
    spins = []
    spin = numlin.spin
    monkeypatch.setattr(numlin, "spin", lambda *args: spins.append(spin(*args)) or spins[-1])
    routes = set()
    for seed in range(16):
        spins.clear()
        res = is_irreducible(gens, seed=seed)
        assert (res.irreducible, res.span_dim) == (False, 7)
        assert np.allclose(res.witness.projection(), matrix_unit(3, 0, 0), atol=1e-12)
        routes.add(tuple(s.dim for s in spins))
    assert routes == {(1,), (3, 2)}
