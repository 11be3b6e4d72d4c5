"""Unit and property tests for the semigroup engine."""

import os
import pathlib
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from pisomlab.numlin import ToleranceConfig, approx_equal
from pisomlab import index, sgroup
from pisomlab.pisom import NotPartialIsometry, partial_isometry_defect
from pisomlab.projlat import boolean_atoms, multiplicity_profile
from pisomlab.sgroup import (
    CLOSED,
    FAILURE,
    TRUNCATED,
    CoverageGap,
    InvalidState,
    Limits,
    MembershipViolation,
    NoMinimalWithLoop,
    NonzeroRequired,
    adjoin_algebra_projections,
    adjoin_final_projections,
    adjoint_generator_set,
    brandt_membership,
    brandt_structure,
    check_asb_nonzero,
    check_intertwining_identity,
    check_pq_contained,
    check_pq_equal,
    close,
    enrich_projections,
    evaluate_word,
    family_projections,
    generator_set,
    is_irreducible,
    selfadjoint_closure,
)
from conftest import golden_generators, matrix_unit
from factories import (
    diagonal_indicator,
    pq_equal_instance,
    random_unitary,
    uniform_multiplicity_instance,
)

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def golden_gens():
    A, B, C = golden_generators()
    return generator_set([("A", A), ("B", B), ("C", C)])


def units_gens(n):
    named = [(f"E{i}{i + 1}", matrix_unit(n, i - 1, i)) for i in range(1, n)]
    named.append((f"E{n}1", matrix_unit(n, n - 1, 0)))
    return generator_set(named, dim=n)


def m2_gens():
    return generator_set([("E12", matrix_unit(2, 0, 1)), ("E21", matrix_unit(2, 1, 0))])


def test_close_identity_only():
    gens = generator_set([], dim=3)
    result = close(gens)
    assert result.status == CLOSED
    assert len(result.elements) == 1
    assert result.elements[0].word == ()


def test_close_golden_base():
    result = close(golden_gens())
    assert result.status == CLOSED
    # I, A, B, C, and the zero matrix generated by any length-two product
    assert len(result.elements) == 5
    assert result.find(np.zeros((8, 8))) is not None


def test_close_matrix_units_m2():
    result = close(m2_gens())
    assert result.status == CLOSED
    expected = [np.eye(2), matrix_unit(2, 0, 1), matrix_unit(2, 1, 0),
                matrix_unit(2, 0, 0), matrix_unit(2, 1, 1), np.zeros((2, 2))]
    assert len(result.elements) == 6
    for mat in expected:
        assert result.find(mat) is not None


def test_close_include_zero():
    gens = generator_set([("V", matrix_unit(2, 0, 1))], include_zero=True)
    result = close(gens)
    assert result.status == CLOSED
    idx = result.find(np.zeros((2, 2)))
    assert idx is not None
    assert result.elements[idx].word == ("0",)


def test_include_zero_reserves_the_name_zero():
    # a generator named "0" would be shadowed by the adjoined zero matrix, so
    # words naming it would replay to the wrong element
    named = [("0", np.array([[0.0, 1.0], [1.0, 0.0]])), ("A", matrix_unit(2, 1, 0))]
    with pytest.raises(ValueError, match=r"^generator name '0' is reserved for the zero matrix$"):
        generator_set(named, include_zero=True)
    c = close(generator_set(named))
    assert all(approx_equal(c.evaluate(e.word), e.matrix) for e in c.elements)


def test_generator_that_is_no_partial_isometry_is_named_with_its_defect():
    named = [("A", np.diag([1.0, 0.0])), ("B", np.diag([2.0, 0.0])), ("C", np.diag([3.0, 0.0]))]
    with pytest.raises(NotPartialIsometry, match=r"^generators\[1\]: 'B' is not a partial "
                       r"isometry: V\*V is not a projection \(idempotency defect 12\)$") as err:
        generator_set(named)
    assert err.value.deviation == partial_isometry_defect(named[1][1]) == 12


def test_every_result_keeps_the_generators_tolerance():
    cfg = ToleranceConfig(eq_tol=1e-6, proj_tol=1e-7, rank_tol=1e-7)
    named = [(f"E{i}{i + 1}", matrix_unit(3, i - 1, i)) for i in (1, 2)]
    gens = generator_set(named + [("E31", matrix_unit(3, 2, 0))], dim=3, cfg=cfg)
    c = close(gens)
    fams = family_projections(c)
    atoms = boolean_atoms(fams.q_set)
    results = [adjoint_generator_set(gens), c, fams.p_set, fams.q_set, atoms,
               brandt_structure(c), selfadjoint_closure(gens),
               adjoin_final_projections(c), adjoin_algebra_projections(c, atoms)]
    assert [r.cfg for r in results] == [cfg] * len(results)


def test_close_respects_element_limit():
    rng = np.random.default_rng(0)
    # an irrational rotation generates an infinite group
    theta = np.sqrt(2)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    gens = generator_set([("R", rot)])
    result = close(gens, Limits(max_elements=25, max_word_length=1000))
    assert result.status == TRUNCATED
    assert result.limit_hit == "max_elements"
    assert len(result.elements) <= 25
    result = close(gens, Limits(max_elements=10_000, max_word_length=5))
    assert result.status == TRUNCATED
    assert result.limit_hit == "max_word_length"


def test_close_deterministic_element_set_under_shuffle():
    A, B, C = golden_generators()
    base = close(generator_set([("A", A), ("B", B), ("C", C)]))
    for order in [("B", B), ("C", C), ("A", A)], [("C", C), ("A", A), ("B", B)]:
        other = close(generator_set(list(order)))
        assert len(other.elements) == len(base.elements)
        for e in base.elements:
            assert other.find(e.matrix) is not None


def test_closed_status_certifies_products():
    result = close(m2_gens())
    for a in result.elements:
        for b in result.elements:
            assert result.find(a.matrix @ b.matrix) is not None


def test_selfadjoint_closure_golden_failure():
    result = selfadjoint_closure(golden_gens())
    assert result.status == FAILURE
    assert result.witness_deviation == pytest.approx(0.25, abs=1e-9)
    replay = result.evaluate(result.witness_word)
    assert partial_isometry_defect(replay) == pytest.approx(0.25, abs=1e-9)


def test_selfadjoint_closure_witness_is_minimal_length():
    # every length-two word over the golden generators and adjoints is a
    # partial isometry (zero, a projection, or a single off-diagonal block),
    # so the first failure must occur at word length three
    result = selfadjoint_closure(golden_gens())
    assert result.status == FAILURE
    assert len(result.witness_word) == 3


def test_close_bitwise_deterministic():
    first = close(golden_gens())
    second = close(golden_gens())
    assert [e.word for e in first.elements] == [e.word for e in second.elements]
    for a, b in zip(first.elements, second.elements):
        assert np.array_equal(a.matrix, b.matrix)


def test_selfadjoint_closure_matrix_units():
    result = selfadjoint_closure(m2_gens())
    assert result.status == CLOSED
    assert len(result.elements) == 6


def test_selfadjoint_closure_pq_equal_instance():
    n, named = pq_equal_instance(seed=11)
    gens = generator_set(named, dim=n)
    result = selfadjoint_closure(gens, Limits(400, 10))
    assert result.status in (CLOSED, TRUNCATED)


def test_family_projections_golden():
    base = close(golden_gens())
    fams = family_projections(base)
    A, B, C = golden_generators()
    expected_q = [m @ m.conj().T for m in (A, B, C)] + [np.eye(8), np.zeros((8, 8))]
    assert len(fams.q_set) == 5
    for q in expected_q:
        assert any(approx_equal(q, member) for member in fams.q_set.members)
    assert fams.q_set.is_commuting()
    # P(S) contains Diag(0,E,0,0) which is not in the Q family
    assert not check_pq_equal(base)
    assert not check_pq_contained(base)


def test_family_projections_requires_valid_closure():
    failed = selfadjoint_closure(golden_gens())
    with pytest.raises(InvalidState):
        family_projections(failed)


@pytest.mark.parametrize("per_chunk", (None, 3))
def test_family_projections_checks_what_close_did_not(per_chunk, monkeypatch):
    # close validated every element but I, seeds included, so
    # family_projections applies the rule to none, across chunks as well
    gens = units_gens(4)
    want = family_projections(close(gens, Limits(100, 5)))
    checked = []
    rule = sgroup.partial_isometry_rule
    monkeypatch.setattr(sgroup, "partial_isometry_rule",
                        lambda ms, cfg: checked.append(len(ms)) or rule(ms, cfg))
    c = close(gens, Limits(100, 5))
    assert sum(checked) == len(c) - 1 and all(checked)
    checked.clear()
    if per_chunk is not None:
        monkeypatch.setattr(index, "_CHUNK", index._HELD * 16 * per_chunk)
    fams = family_projections(c)
    assert checked == []
    assert np.array_equal(fams.p_of, want.p_of) and np.array_equal(fams.q_of, want.q_of)
    for got, ref in ((fams.p_set, want.p_set), (fams.q_set, want.q_set)):
        assert np.array_equal(np.array(got.members), np.array(ref.members))


@pytest.mark.parametrize("per_chunk", (None, 3))
@pytest.mark.parametrize("kind, n", [("unitary", 2), ("unitary", 3), ("unitary", 5),
                                     ("units", 4)])
def test_products_are_parent_times_letter_bit_for_bit(kind, n, per_chunk, monkeypatch):
    # close multiplies a chunk of parents by one letter at a time; each
    # element must still be exactly its parent times its last letter, with
    # chunks of a few parents as well as of the default size
    if per_chunk is not None:
        monkeypatch.setattr(index, "_CHUNK", index._HELD * 4 * n * n * per_chunk)
    if kind == "unitary":
        rng = np.random.default_rng([7, n])
        gens = generator_set([("a", random_unitary(rng, n)), ("b", random_unitary(rng, n))])
        c = selfadjoint_closure(gens, Limits(1500, 16))
    else:
        c = close(units_gens(n))
    rows = c.store.stack()
    member = {word: k for k, word in enumerate(c.words)}
    longer = [k for k, word in enumerate(c.words) if len(word) >= 2]
    assert len(longer) > len(c) // 2
    for k in longer:
        word = c.words[k]
        assert np.array_equal(rows[k], rows[member[word[:-1]]] @ c.name_map[word[-1]]), word


def test_close_validates_its_generators():
    # the factory rejects X, so it is put in past the factory's check
    x = np.array([[1.0, 0.5], [0.0, 0.0]])
    gens = replace(generator_set([], dim=2), named_generators=(("X", x),))
    c = close(gens)
    assert (c.status, c.witness_word, c.words) == (FAILURE, ("X",), [()])
    # X*X = [[1, .5], [.5, .25]] has idempotency defect 1/4 + 1/16
    assert c.witness_deviation == pytest.approx(0.3125, rel=1e-12)


def test_close_holds_one_copy_of_each_element():
    gens = units_gens(16)
    tracemalloc.start()
    try:
        result = close(gens, Limits(1000, 17))
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert (result.status, len(result)) == (CLOSED, 16 * 16 + 2)
    assert held < 2 * result.store._buf.nbytes


def test_close_peaks_below_two_and_a_half_times_its_elements():
    # the store copies its rows only to grow them by a quarter
    gens = units_gens(24)
    tracemalloc.start()
    try:
        result = close(gens, Limits(20000, 25))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (result.status, len(result)) == (CLOSED, 24 * 24 + 2)
    assert peak < 2.5 * len(result) * 24 * 24 * 16


def test_closure_matrices_are_read_only():
    result = close(units_gens(3))
    for mat in result.matrices() + [e.matrix for e in result.elements]:
        with pytest.raises(ValueError):
            mat[0, 0] = 1.0


def test_pq_checks_matrix_units():
    result = close(m2_gens())
    assert check_pq_equal(result)
    assert check_pq_contained(result)


def test_pq_checks_identity():
    result = close(generator_set([], dim=2))
    assert check_pq_equal(result)
    assert check_pq_contained(result)


def test_adjoin_final_projections_fixed_point():
    # matrix units already contain their projections: unchanged
    result = close(m2_gens())
    enriched = adjoin_final_projections(result)
    assert len(enriched.elements) == len(result.elements)

    # S = {I, V} with V = e1 e2*: gains Q_V = e11
    v = matrix_unit(2, 0, 1)
    c = close(generator_set([("V", v)]))
    assert c.find(matrix_unit(2, 0, 0)) is None
    enriched = adjoin_final_projections(c)
    assert enriched.status == CLOSED
    assert enriched.find(matrix_unit(2, 0, 0)) is not None
    for e in enriched.elements:
        assert enriched.find(e.matrix @ e.matrix.conj().T) is not None

    # identity alone: unchanged
    ident = close(generator_set([], dim=2))
    assert len(adjoin_final_projections(ident).elements) == 1


ADJOIN_AFTER_ADJOINTS = """
import numpy as np
from pisomlab.sgroup import Limits, adjoin_final_projections, generator_set, selfadjoint_closure
e21, e32 = np.zeros((3, 3)), np.zeros((3, 3))
e21[1, 0] = e32[2, 1] = 1.0
c = selfadjoint_closure(generator_set([("A", e21), ("B", e32)]), Limits(5, 16))
print(" ".join(adjoin_final_projections(c, Limits(5, 16)).generators.names))
"""


def test_adjoin_after_adjoints_names_fresh_generators():
    # the selfadjoint closure holds generators named 'A*'; adjoining Q[A*]
    # must name it Q[A'] and return (a child process, so that a hang fails)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in [env.get("PYTHONPATH")] if p])
    try:
        proc = subprocess.run([sys.executable, "-c", ADJOIN_AFTER_ADJOINTS], env=env,
                              capture_output=True, text=True, timeout=60)
    except subprocess.TimeoutExpired:
        pytest.fail("adjoin_final_projections did not return within 60 s")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["A", "B", "A*", "B*", "Q[A]", "Q[B]", "Q[A']"]


def test_adjoin_algebra_projections_golden():
    base = close(golden_gens())
    atoms = boolean_atoms(family_projections(base).q_set)
    enriched = adjoin_algebra_projections(base, atoms)
    # adjoining commuting projections on the non-adjoint side stays closed
    assert enriched.status == CLOSED
    for atom in atoms.atoms:
        assert enriched.find(atom) is not None


def test_adjoin_algebra_projections_identity_atoms():
    c = close(generator_set([], dim=3))
    atoms = boolean_atoms(family_projections(c).q_set)
    enriched = adjoin_algebra_projections(c, atoms)
    assert len(enriched.elements) == 1


def test_is_irreducible_matrix_units():
    res = is_irreducible(units_gens(3))
    assert res.irreducible
    assert res.span_dim == 9


def test_is_irreducible_golden_witness():
    gens = golden_gens()
    res = is_irreducible(gens)
    assert not res.irreducible
    assert res.span_dim < 64
    assert res.witness is not None
    # the witness really is invariant for every generator
    proj = res.witness.projection()
    comp = np.eye(8) - proj
    for _, mat in gens.named_generators:
        assert np.linalg.norm(comp @ mat @ proj) < 1e-8


def test_is_irreducible_identity_on_c2():
    res = is_irreducible(generator_set([], dim=2))
    assert not res.irreducible
    assert res.span_dim == 1


def test_check_asb_nonzero():
    gens = units_gens(3)
    assert check_asb_nonzero(gens, matrix_unit(3, 0, 0), matrix_unit(3, 1, 1))
    with pytest.raises(NonzeroRequired):
        check_asb_nonzero(gens, np.zeros((3, 3)), matrix_unit(3, 0, 0))

    # invariant subspace obstruction in the golden example: project onto e3
    gens8 = golden_gens()
    a = np.zeros((8, 8))
    a[2, 2] = 1.0
    b = np.zeros((8, 8))
    b[0, 0] = 1.0
    assert not check_asb_nonzero(gens8, a, b)


def test_brandt_structure_matrix_units():
    for n in (2, 3):
        result = close(units_gens(n))
        structure = brandt_structure(result)
        assert sorted(structure.family_ranks) == [1] * n
        for e in result.elements:
            assert brandt_membership(e.matrix, structure)


def test_brandt_structure_identity():
    result = close(generator_set([], dim=4))
    structure = brandt_structure(result)
    assert structure.family_ranks == (4,)


def test_brandt_structure_golden_fails():
    base = close(golden_gens())
    with pytest.raises((NoMinimalWithLoop, CoverageGap, MembershipViolation)):
        brandt_structure(base)


def test_brandt_membership_violation():
    result = close(units_gens(2))
    structure = brandt_structure(result)
    # a matrix whose initial space is a strict sub-projection inside e22
    bad = np.zeros((2, 2))
    bad[0, 1] = 1.0 / np.sqrt(2)
    assert not brandt_membership(bad, structure)


def test_intertwining_identity_matrix_units():
    result = close(units_gens(3))
    report = check_intertwining_identity(result, samples=100, seed=1)
    assert report.max_residual <= 1e-12


def test_intertwining_identity_golden():
    base = close(golden_gens())
    report = check_intertwining_identity(base, samples=200, seed=2)
    assert report.max_residual <= 1e-12


def test_intertwining_single_factor_identity_case():
    result = close(generator_set([], dim=3))
    report = check_intertwining_identity(result, samples=5, seed=0)
    assert report.max_residual == 0.0


def test_evaluate_word_empty_is_identity():
    result = close(m2_gens())
    assert np.allclose(result.evaluate(()), np.eye(2))
    with pytest.raises(KeyError):
        evaluate_word(result.name_map, ("missing",), 2)


# -- theorem-shaped properties --------------------------------------------


@pytest.mark.parametrize("seed", range(8))
def test_pq_equal_implies_no_failure(seed):
    """Equal initial and final projection sets make the selfadjoint closure safe."""
    n, named = pq_equal_instance(seed)
    gens = generator_set(named, dim=n)
    result = selfadjoint_closure(gens, Limits(300, 8))
    assert result.status != FAILURE
    base = close(gens, Limits(300, 8))
    if base.status == CLOSED:
        assert check_pq_equal(base)


@pytest.mark.parametrize("seed", range(8))
def test_uniform_multiplicity_implies_no_failure(seed):
    n, m, k, named = uniform_multiplicity_instance(seed)
    gens = generator_set(named, dim=n)
    result = selfadjoint_closure(gens, Limits(300, 8))
    assert result.status != FAILURE
    base = close(gens, Limits(300, 8))
    if base.status == CLOSED:
        atoms = boolean_atoms(family_projections(base).q_set)
        profile = multiplicity_profile(atoms)
        assert profile.uniform and profile.multiplicity == m


@pytest.mark.parametrize("seed", range(6))
def test_masa_case_never_fails(seed):
    # an n-cycle spreads a coordinate projection over every coordinate, so
    # the atoms of the final projection family are all rank one
    rng = np.random.default_rng(seed)
    n = int(rng.integers(3, 7))
    order = rng.permutation(n)
    cycle = np.zeros((n, n), dtype=complex)
    for i in range(n):
        cycle[order[(i + 1) % n], order[i]] = 1.0
    named = [("D", diagonal_indicator(n, [int(order[0])])), ("P", cycle)]
    gens = generator_set(named, dim=n)
    base = close(gens, Limits(600, 12))
    assert base.status != FAILURE
    if base.status == CLOSED:
        atoms = boolean_atoms(family_projections(base).q_set)
        assert set(atoms.ranks) == {1}
    result = selfadjoint_closure(gens, Limits(600, 12))
    assert result.status != FAILURE


def test_closed_commuting_pq_with_stable_adjunction_is_selfadjoint():
    """Closed + nothing to adjoin + commuting P/Q forces adjoint-closedness."""
    corpus = [close(m2_gens()),
              close(units_gens(3)),
              close(generator_set([], dim=2))]
    for result in corpus:
        fams = family_projections(result)
        union = list(fams.p_set.members) + list(fams.q_set.members)
        from pisomlab.projlat import projection_family
        if not projection_family(union, dim=result.dim).is_commuting():
            continue
        enriched = adjoin_final_projections(result)
        if len(enriched.elements) != len(result.elements):
            continue
        for e in result.elements:
            assert result.find(e.matrix.conj().T) is not None


@pytest.mark.parametrize("seed", [0, 3, 5])
def test_enrichment_pipeline_contains_all_projections(seed):
    n, m, k, named = uniform_multiplicity_instance(seed)
    gens = generator_set(named, dim=n)
    result = enrich_projections(gens, Limits(1500, 16))
    assert result.status == CLOSED
    for e in result.elements:
        assert result.find(e.matrix.conj().T @ e.matrix) is not None
        assert result.find(e.matrix @ e.matrix.conj().T) is not None


def test_rotation_just_beyond_eq_tol_is_a_new_element():
    eps = 5e-8  # ||U - I|| = sqrt(2) eps: within 10x of eq_tol but no match
    u = np.array([[np.cos(eps), -np.sin(eps)], [np.sin(eps), np.cos(eps)]])
    result = close(generator_set([("U", u)], include_identity=True), Limits(10, 2))
    assert result.words == [(), ("U",), ("U", "U")]
    assert (result.status, result.limit_hit) == (TRUNCATED, "max_word_length")
