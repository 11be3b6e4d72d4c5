"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Every tolerance and runtime budget is pinned here.  The infinite-dimensional
constructions (a dense-range isometry semigroup on L2([0,1], K) and genuine
direct-integral multiplicity) have no finite matrix realization and are
documented limitations; the finite-multiplicity criteria below stand in as
the verifiable content.
"""

import time

import numpy as np
import pytest

from pisomlab.invsg import (
    barnes_representation,
    cyclic_group_table,
    symmetric_inverse_table,
)
from pisomlab.jsonio import load_generator_problem
from pisomlab.numlin import DEFAULT_TOL, approx_equal, operator_norm
from pisomlab.pisom import (
    NotPartialIsometry,
    hw_decompose,
    hw_product_test,
    make_partial_isometry,
)
from pisomlab.projlat import (
    boolean_atoms,
    membership_in_span,
    multiplicity_profile,
)
from pisomlab.sgroup import (
    CLOSED,
    FAILURE,
    CoverageGap,
    Limits,
    MembershipViolation,
    NoMinimalWithLoop,
    brandt_membership,
    brandt_structure,
    check_intertwining_identity,
    close,
    family_projections,
    generator_set,
    is_irreducible,
    selfadjoint_closure,
)
from conftest import FIXTURES, golden_generators, matrix_unit
from factories import (
    diagonal_indicator,
    hw_mixed_operator,
    irreducible_uniform_instance,
    pq_equal_instance,
    random_unitary,
    uniform_multiplicity_instance,
)


class Budget:
    def __init__(self, name: str, seconds: float):
        self.name = name
        self.seconds = seconds
        self.start = time.monotonic()

    def done(self, detail: str = ""):
        elapsed = time.monotonic() - self.start
        suffix = f" [{detail}]" if detail else ""
        print(f"\n[{self.name}] PASS in {elapsed:.2f}s (budget {self.seconds:.0f}s){suffix}")
        assert elapsed < self.seconds, f"{self.name} exceeded its runtime budget"


def _golden_problem():
    return load_generator_problem(str(FIXTURES / "example-1-3.json"))


def test_criterion_01_golden_example():
    budget = Budget("criterion-01 golden example", 1.0)
    problem = _golden_problem()
    gens = problem.gens
    A, B, C = golden_generators()

    # (a) generators validate with the published initial/final projections
    E = np.array([[0.5, 0.5], [0.5, 0.5]])
    F = np.array([[1.0, 0.0], [0.0, 0.0]])

    def block(mat, pos):
        out = np.zeros((8, 8), dtype=complex)
        out[2 * pos:2 * pos + 2, 2 * pos:2 * pos + 2] = mat
        return out

    expected = {"A": (block(E, 1), block(E, 0)),
                "B": (block(np.eye(2), 3), block(np.eye(2), 0)),
                "C": (block(F, 3), block(F, 2))}
    for name, mat in gens.named_generators:
        pi = make_partial_isometry(mat)
        p_exp, q_exp = expected[name]
        assert np.max(np.abs(pi.initial - p_exp)) < 1e-12
        assert np.max(np.abs(pi.final - q_exp)) < 1e-12

    # (b) the final projection family commutes
    base = close(gens)
    fams = family_projections(base)
    assert fams.q_set.is_commuting()

    # (c) atom ranks {5, 1, 1, 1}
    atoms = boolean_atoms(fams.q_set)
    assert sorted(atoms.ranks, reverse=True) == [5, 1, 1, 1]

    # (d) multiplicity is not uniform
    assert not multiplicity_profile(atoms).uniform

    # (e) reducible
    assert not is_irreducible(gens).irreducible

    # (f) the selfadjoint closure fails with deviation 0.25 in operator norm;
    # oracle: for M = Diag(EF, 0, 0, 0), M*M = Diag(FEF, 0, 0, 0) = Diag(F/2, ...)
    # whose idempotency defect is Diag(F/4, ...): operator norm exactly 1/4
    oracle_m = block(E @ F, 0)
    oracle_p = oracle_m.conj().T @ oracle_m
    oracle_dev = operator_norm(oracle_p @ oracle_p - oracle_p)
    assert oracle_dev == pytest.approx(0.25, abs=1e-15)

    result = selfadjoint_closure(gens)
    assert result.status == FAILURE
    replay = result.evaluate(result.witness_word)
    p = replay.conj().T @ replay
    assert operator_norm(p @ p - p) == pytest.approx(0.25, abs=1e-6)
    assert result.witness_deviation == pytest.approx(0.25, abs=1e-6)
    budget.done(f"witness {'.'.join(result.witness_word)}")


def test_criterion_02_product_criterion_fuzz():
    budget = Budget("criterion-02 product criterion fuzz", 10.0)
    rng = np.random.default_rng(20240202)
    agreements = 0
    for trial in range(1000):
        n = int(rng.integers(2, 9))
        d1 = diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
        d2 = diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
        v = make_partial_isometry(random_unitary(rng, n) @ d1)
        if trial % 2 == 0:
            # diagonal final against diagonal initial: commuting by construction
            w = make_partial_isometry(d2 @ random_unitary(rng, n))
        else:
            w = make_partial_isometry(
                random_unitary(rng, n) @ d2 @ random_unitary(rng, n))
        try:
            make_partial_isometry(v.matrix @ w.matrix)
            direct = True
        except NotPartialIsometry:
            direct = False
        result = hw_product_test(v, w)
        assert result.is_pi == direct
        # the paper's criterion: [Q_w, P_v] = 0, within proj_tol
        scale = max(1.0, np.linalg.norm(w.final), np.linalg.norm(v.initial))
        assert (result.commutator <= DEFAULT_TOL.proj_tol * scale) == direct
        agreements += 1
    assert agreements == 1000
    budget.done("1000/1000 agree")


def test_criterion_03_equal_projection_sets_suite():
    budget = Budget("criterion-03 equal P/Q sets", 60.0)
    limits = Limits(250, 8)
    for seed in range(200):
        n, named = pq_equal_instance(seed)
        gens = generator_set(named, dim=n)
        result = selfadjoint_closure(gens, limits)
        assert result.status != FAILURE, f"seed {seed} produced a failure witness"
    budget.done("200/200 without failure witness")


def test_criterion_04_uniform_finite_multiplicity_suite():
    budget = Budget("criterion-04 uniform finite multiplicity", 120.0)
    limits = Limits(300, 8)
    seen = set()
    for seed in range(100):
        n, m, k, named = uniform_multiplicity_instance(seed)
        gens = generator_set(named, dim=n)
        result = selfadjoint_closure(gens, limits)
        assert result.status != FAILURE, f"seed {seed} produced a failure witness"
        base = close(gens, limits)
        atoms = boolean_atoms(family_projections(base).q_set)
        profile = multiplicity_profile(atoms)
        assert profile.uniform and profile.multiplicity == m
        seen.add(m)
    assert seen == {1, 2, 3}
    budget.done("100/100 without failure witness")


def test_criterion_05_irreducible_uniformity_suite():
    budget = Budget("criterion-05 irreducible => uniform", 60.0)
    limits = Limits(400, 10)
    for seed in range(50):
        n, m, k, named = irreducible_uniform_instance(seed)
        gens = generator_set(named, dim=n)
        irr = is_irreducible(gens)
        assert irr.irreducible and irr.span_dim == n * n
        base = close(gens, limits)
        assert base.status != FAILURE
        atoms = boolean_atoms(family_projections(base).q_set)
        assert multiplicity_profile(atoms).uniform
        # finite multiplicity: every initial projection lies in the span algebra
        for e in base.elements:
            assert membership_in_span(e.matrix.conj().T @ e.matrix, atoms)
    budget.done("50/50 uniform with initial projections in the algebra")


def _closed_corpus():
    corpus = []
    A, B, C = golden_generators()
    corpus.append(("golden-base", close(
        generator_set([("A", A), ("B", B), ("C", C)]))))
    for n in (2, 3):
        named = [(f"E{i}{i + 1}", matrix_unit(n, i - 1, i)) for i in range(1, n)]
        named.append((f"E{n}1", matrix_unit(n, n - 1, 0)))
        corpus.append((f"units-{n}", close(generator_set(named, dim=n))))
    pauli = load_generator_problem(str(FIXTURES / "pauli-tensor-units.json"))
    corpus.append(("pauli", close(pauli.gens)))
    i2 = symmetric_inverse_table(2)
    images = barnes_representation(i2)
    named = [(i2.name_of(i), images[i].matrix) for i in range(i2.n)]
    corpus.append(("barnes-i2", close(generator_set(named, dim=7))))
    for seed in (1, 2):
        n, m, k, named = uniform_multiplicity_instance(seed)
        result = close(generator_set(named, dim=n), Limits(1500, 16))
        if result.status == CLOSED:
            corpus.append((f"uniform-{seed}", result))
    return corpus


def test_criterion_06_intertwining_identity():
    budget = Budget("criterion-06 intertwining identity", 60.0)
    corpus = _closed_corpus()
    assert len(corpus) >= 5
    worst = 0.0
    for name, result in corpus:
        assert result.status == CLOSED
        report = check_intertwining_identity(result, samples=100, seed=6)
        assert report.max_residual <= 1e-9, f"{name}: residual {report.max_residual}"
        worst = max(worst, report.max_residual)
    budget.done(f"max residual {worst:.2e} over {len(corpus)} instances")


def test_criterion_07_decomposition_roundtrip():
    budget = Budget("criterion-07 decomposition round-trip", 60.0)
    for seed in range(200):
        v, u_dim, lengths = hw_mixed_operator(seed)
        dec = hw_decompose(make_partial_isometry(v))
        assert dec.unitary_dim == u_dim, f"seed {seed}"
        assert tuple(sorted(dec.shift_lengths)) == lengths, f"seed {seed}"
        assert np.linalg.norm(dec.reassemble() - v) <= 1e-9, f"seed {seed}"
    budget.done("200/200 recovered exactly")


def test_criterion_08_brandt_suite():
    budget = Budget("criterion-08 Brandt structure", 60.0)
    for n in range(2, 6):
        named = [(f"E{i}{i + 1}", matrix_unit(n, i - 1, i)) for i in range(1, n)]
        named.append((f"E{n}1", matrix_unit(n, n - 1, 0)))
        result = close(generator_set(named, dim=n))
        assert result.status == CLOSED
        structure = brandt_structure(result)
        assert sorted(structure.family_ranks) == [1] * n
        diag_units = [matrix_unit(n, i, i) for i in range(n)]
        for unit, member in zip(diag_units, structure.family):
            assert any(approx_equal(unit, m.projection) for m in structure.family)
        for e in result.elements:
            assert brandt_membership(e.matrix, structure)

    gens = _golden_problem().gens
    base = close(gens)
    with pytest.raises((NoMinimalWithLoop, CoverageGap, MembershipViolation)):
        brandt_structure(base)
    budget.done("matrix units n=2..5 pass; golden example raises")


def test_criterion_09_barnes_representation():
    budget = Budget("criterion-09 Barnes representation", 60.0)
    tables = [cyclic_group_table(2), symmetric_inverse_table(1), symmetric_inverse_table(2)]
    for table in tables:
        images = barnes_representation(table)
        mats = [np.asarray(pi.matrix) for pi in images]
        worst = 0.0
        for s in range(table.n):
            for u in range(table.n):
                worst = max(worst, float(np.linalg.norm(
                    mats[s] @ mats[u] - mats[table.mult[s, u]])))
            assert np.array_equal(mats[table.star[s]], mats[s].conj().T)
        assert worst <= 1e-12
        assert len({tuple(m.ravel().tolist()) for m in mats}) == table.n

    i2 = symmetric_inverse_table(2)
    images = barnes_representation(i2)
    named = [(i2.name_of(i), images[i].matrix) for i in range(i2.n)]
    result = selfadjoint_closure(generator_set(named, dim=7))
    assert result.status == CLOSED
    budget.done("Z2, I1, I2 multiplicative, injective, *-compatible; I2 closure closed")


def _verdict_and_ranks(gens, limits=Limits(2000, 16)):
    ext = selfadjoint_closure(gens, limits)
    verdict = {CLOSED: "Extendable", FAILURE: "NotExtendable"}.get(ext.status, "Inconclusive")
    base = close(gens, limits)
    if base.status == FAILURE:
        return verdict, None
    fams = family_projections(base)
    if not fams.q_set.is_commuting():
        return verdict, None
    atoms = boolean_atoms(fams.q_set)
    return verdict, tuple(sorted(atoms.ranks))


def test_criterion_10_determinism():
    budget = Budget("criterion-10 determinism", 120.0)
    fixture_names = ["example-1-3.json", "identity-only.json", "matrix-units-2.json",
                     "matrix-units-3.json", "pauli-tensor-units.json"]
    rng = np.random.default_rng(10)
    for fname in fixture_names:
        problem = load_generator_problem(str(FIXTURES / fname))
        baseline = _verdict_and_ranks(problem.gens)
        named = list(problem.gens.named_generators)
        # shuffled generator orders
        for _ in range(3):
            if len(named) > 1:
                order = rng.permutation(len(named))
                shuffled = generator_set([named[i] for i in order], dim=problem.gens.dim)
                assert _verdict_and_ranks(shuffled) == baseline, fname
        # simultaneous unitary conjugations
        for _ in range(10):
            w = random_unitary(rng, problem.gens.dim)
            conjugated = generator_set(
                [(n, w @ m @ w.conj().T) for n, m in named], dim=problem.gens.dim)
            assert _verdict_and_ranks(conjugated) == baseline, fname
    budget.done("5 fixtures x (3 shuffles + 10 conjugations)")
