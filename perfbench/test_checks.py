"""Tests of the benchmark's own answers and checks.

    PYTHONPATH=src python3 -m pytest -q perfbench

They run the program on small inputs of each workload, require that the
checks accept its current outputs, and require that they reject outputs
corrupted in each checked field.
"""

from __future__ import annotations

import copy
import json
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import checks  # noqa: E402
import inputs  # noqa: E402
import oracle  # noqa: E402
from layertrace import PER_LAYER, Tracer  # noqa: E402

from pisomlab import cli  # noqa: E402
from pisomlab.sgroup import Limits, generator_set, selfadjoint_closure  # noqa: E402


def _report(tmp_path, item, command="report") -> dict:
    path = tmp_path / f"{item.label}.json"
    item.write(path)
    _, report = cli.run(cli.AnalysisRequest(command, str(path)))
    return json.loads(json.dumps(report))


def _corpus_item(label):
    return next(i for i in inputs.corpus_inputs(7) if i.label.startswith(label + "-"))


def _units_item(label):
    return next(i for i in inputs.units_inputs(7) if i.label.startswith(label))


def _expected(item) -> dict:
    gens = [oracle.monomial_from_matrix(m) for _, m in item.source]
    return oracle.monomial_report(item.dim, gens, *item.limits)


def test_monomial_oracle_agrees_with_unit_closed_forms():
    for item in inputs.units_inputs(3)[:-1]:
        gens = [oracle.monomial_from_matrix(m) for _, m in item.named]
        exact = oracle.monomial_report(item.dim, gens, *item.limits)
        closed = oracle.units_report(item.dim)
        assert {k: exact[k] for k in exact} == {k: closed[k] for k in exact}


def test_monomial_arithmetic_matches_numpy():
    for family, seed in inputs.CORPUS_SPECS:
        n, named = inputs.FAMILIES[family](seed)
        mats = [m for _, m in named]
        mats += [a @ b for a in mats for b in mats]
        for a in mats:
            ma = oracle.monomial_from_matrix(a)
            assert oracle.mono_adjoint(ma) == oracle.monomial_from_matrix(a.conj().T)
            for b in mats:
                mb = oracle.monomial_from_matrix(b)
                assert oracle.mono_product(ma, mb) == oracle.monomial_from_matrix(a @ b)


def _mono_matrix(n, mono) -> np.ndarray:
    out = np.zeros((n, n), dtype=complex)
    for j, c in enumerate(mono):
        if c >= 0:
            out[c // oracle.PHASES, j] = np.exp(2j * np.pi * (c % oracle.PHASES) / oracle.PHASES)
    return out


def test_span_dimension_matches_numerical_rank_of_whole_semigroup():
    for family, seed in (("pq-equal", 5), ("uniform", 3), ("ring", 1)):
        n, named = inputs.FAMILIES[family](seed)
        gens = [oracle.monomial_from_matrix(m) for _, m in named]
        elements, limit = oracle.exact_closure(n, gens, 100000, 100000)
        assert limit is None
        rows = np.array([_mono_matrix(n, m).ravel() for m in elements])
        assert oracle.span_dimension(n, gens) == np.linalg.matrix_rank(rows)


def test_free_group_census():
    assert oracle.free_group_census(1) == {0: 1}
    assert oracle.free_group_census(17) == {0: 1, 1: 4, 2: 12}
    assert oracle.free_group_census(20) == {0: 1, 1: 4, 2: 12, 3: 3}


@pytest.mark.parametrize("label", ["uniform-3", "uniform-1", "pq-equal-5", "ring-1"])
def test_corpus_reports_pass(tmp_path, label):
    item = _corpus_item(label)
    assert checks.check_report(_report(tmp_path, item), _expected(item)) == []


@pytest.mark.parametrize("path, value", [
    ("base_closure.element_count", 999),
    ("element_count", 1),
    ("status", "failure"),
    ("atoms.ranks", [1, 1]),
    ("span_dim", 3),
    ("pq_equal", False),
    ("pq_contained", False),
    ("certificate.verdict", "NotExtendable"),
])
def test_corrupted_corpus_report_is_rejected(tmp_path, path, value):
    item = _corpus_item("uniform-3")
    report = _report(tmp_path, item)
    bad = copy.deepcopy(report)
    node = bad
    keys = path.split(".")
    for key in keys[:-1]:
        node = node[key]
    node[keys[-1]] = value
    problems = checks.check_report(bad, _expected(item))
    assert problems and problems[0].startswith(path.split(".")[0])


def test_golden_report_passes_and_corruptions_fail(tmp_path):
    item = _corpus_item("golden-0")
    report = _report(tmp_path, item)
    assert checks.check_golden(report, item.named) == []
    shorter = copy.deepcopy(report)
    shorter["witness_word"] = shorter["witness_word"][:-1]
    assert checks.check_golden(shorter, item.named)
    ranks = copy.deepcopy(report)
    ranks["atoms"]["ranks"] = [4, 2, 1, 1]
    assert checks.check_golden(ranks, item.named)
    verdict = copy.deepcopy(report)
    verdict["certificate"]["verdict"] = "Extendable"
    assert checks.check_golden(verdict, item.named)


def test_units_and_barnes_pass_and_corruptions_fail(tmp_path):
    item = _units_item("units-4-0")
    report = _report(tmp_path, item)
    assert checks.check_report(report, oracle.units_report(4)) == []
    report["brandt"]["family_ranks"] = [2, 1, 1]
    assert checks.check_report(report, oracle.units_report(4))

    barnes = _units_item(f"barnes-I{inputs.BARNES_ORDER}")
    out = _report(tmp_path, barnes, command="barnes")
    expected = oracle.barnes_report(inputs.BARNES_ORDER)
    assert checks.check_report(out, expected) == []
    out["closure_elements"] -= 1
    assert checks.check_report(out, expected)


def _small_closure(seed=5, max_elements=200):
    rng = np.random.default_rng(seed)
    named = [("a", inputs.random_unitary(rng, 2)), ("b", inputs.random_unitary(rng, 2))]
    return named, selfadjoint_closure(generator_set(named), Limits(max_elements))


def test_infinite_closure_passes():
    named, result = _small_closure()
    rng = np.random.default_rng(0)
    assert checks.check_infinite_closure(result, named, 200, rng) == []


def test_corrupted_infinite_closure_is_rejected():
    named, result = _small_closure()
    rng = np.random.default_rng(0)
    elements = list(result.elements)

    def fake(elems, status="truncated", limit="max_elements"):
        return SimpleNamespace(status=status, limit_hit=limit, elements=elems)

    assert checks.check_infinite_closure(fake(elements, "closed", None), named, 200, rng)
    assert checks.check_infinite_closure(fake(elements[:-1]), named, 200, rng)
    last = elements[-1]
    unreduced = SimpleNamespace(word=last.word[:-1] + ("a", "a*"), matrix=last.matrix)
    problems = checks.check_infinite_closure(fake(elements[:-1] + [unreduced]), named, 200, rng)
    assert any("not reduced" in p for p in problems)
    wrong = [SimpleNamespace(word=e.word, matrix=-np.asarray(e.matrix)) for e in elements]
    assert checks.check_infinite_closure(fake(wrong), named, 200, rng)


def test_tracer_counts_and_restores(tmp_path):
    item = _corpus_item("uniform-3")
    path = tmp_path / "in.json"
    item.write(path)
    from pisomlab import sgroup
    before = (sgroup.close, sgroup.make_partial_isometry, sgroup._ElementStore.lookup)
    tracer = Tracer()
    tracer.install()
    try:
        cli.run(cli.AnalysisRequest("report", str(path)))
    finally:
        tracer.uninstall()
    assert (sgroup.close, sgroup.make_partial_isometry, sgroup._ElementStore.lookup) == before
    metrics = tracer.pass_metrics()
    assert set(metrics) == set(PER_LAYER)
    assert metrics["sgroup.close.calls"] == 2
    assert metrics["sgroup.family_projections.calls"] >= 3
    assert 0 < metrics["sgroup.close.self_s"] <= metrics["sgroup.close.s"]
    assert 0 < metrics["sgroup.close.new_ratio"] < 1
    assert tracer.spans
