"""Each tolerance rule has one stacked home; the scalar predicates, the
projection family, the product criterion and the power test must answer as
that rule does on the same matrices."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pisomlab.numlin import (
    DEFAULT_TOL,
    ToleranceConfig,
    approx_equal,
    commutator_norm,
    equal_rule,
    is_projection,
    projection_rule,
)
from pisomlab.pisom import (
    NotPartialIsometry,
    PartialIsometry,
    hw_product_test,
    is_power_partial_isometry,
    make_partial_isometry,
    partial_isometry_rule,
    validate_stack,
)
from pisomlab.projlat import NotProjection, projection_family
from factories import diagonal_indicator, random_unitary

CFGS = (DEFAULT_TOL, ToleranceConfig(1e-6, 1e-6, 1e-6))


def accepted(v: np.ndarray, cfg=DEFAULT_TOL) -> bool:
    return validate_stack(v[None], cfg)[0] is not None


def perturbed(rng, m: np.ndarray, factor: float, tol: float) -> np.ndarray:
    """m plus a random matrix of norm factor * tol * max(1, ||m||)."""
    e = rng.standard_normal(m.shape) + 1j * rng.standard_normal(m.shape)
    return m + e * (factor * tol * max(1.0, np.linalg.norm(m)) / np.linalg.norm(e))


@settings(max_examples=80, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(1, 6),
       factor=st.sampled_from((0.0, 0.5, 2.0)), cfg=st.sampled_from(CFGS))
def test_scalar_predicates_answer_as_the_stacked_rules(seed, n, factor, cfg):
    rng = np.random.default_rng(seed)
    u = random_unitary(rng, n)
    d = diagonal_indicator(n, [i for i in range(n) if rng.integers(2)])
    proj = u @ d @ u.conj().T
    m = perturbed(rng, proj, factor, cfg.proj_tol)

    assert is_projection(m, cfg) == projection_rule(m[None], cfg)[0]
    assert approx_equal(m, proj, cfg) == equal_rule(m[None], proj[None], cfg)[0]
    family = [proj, m, perturbed(rng, proj, factor, cfg.proj_tol)]
    passing = projection_rule(np.array(family), cfg)
    if passing.all():
        assert len(projection_family(family, cfg=cfg)) == 3
    else:
        first = int(np.argmin(passing))
        with pytest.raises(NotProjection, match=f"^member {first} is not"):
            projection_family(family, cfg=cfg)

    v = perturbed(rng, random_unitary(rng, n) @ d @ random_unitary(rng, n),
                  factor, cfg.proj_tol)
    w = perturbed(rng, d @ u.conj().T, factor, cfg.proj_tol)
    rule_v, rule_w = (partial_isometry_rule(x[None], cfg)[0][0] for x in (v, w))
    for x, rule in ((v, rule_v), (w, rule_w)):
        try:
            make_partial_isometry(x, cfg)
            assert rule
        except NotPartialIsometry:
            assert not rule
    if rule_v and rule_w:
        pv, pw = make_partial_isometry(v, cfg), make_partial_isometry(w, cfg)
        result = hw_product_test(pv, pw, cfg)
        assert result.is_pi == partial_isometry_rule((v @ w)[None], cfg)[0][0]
        assert result.commutator == commutator_norm(pw.final, pv.initial)


@pytest.mark.parametrize("overlap,want", [(1e-3, False), (1e-5, False), (1e-6, False),
                                          (1e-7, False), (1e-9, True)])
def test_rank_one_power_test_follows_the_square(overlap, want):
    # V = e1 b* is a partial isometry with V^2 = <e1, b> V, so V*V is a
    # projection while (V^2)*V^2 = |<e1, b>|^2 bb* is one only within tolerance
    b = np.array([overlap, np.sqrt(1.0 - overlap ** 2), 0.0])
    v = np.outer([1.0, 0.0, 0.0], b.conj())
    pi = make_partial_isometry(v)
    assert is_power_partial_isometry(pi) == accepted(v @ v) == want


@pytest.mark.parametrize("order", ("PQ", "QP"))
def test_product_criterion_sweep_across_the_threshold(order):
    p = make_partial_isometry(np.diag([1.0, 0.0]))
    ds = np.union1d(np.geomspace(1e-10, 1e-2, 33), [2e-8, 1e-6, 1e-4])
    verdicts = set()
    for d in ds:
        q_vec = np.array([1.0, d]) / np.hypot(1.0, d)
        q = make_partial_isometry(np.outer(q_vec, q_vec))
        v, w = (p, q) if order == "PQ" else (q, p)
        result = hw_product_test(v, w)
        assert result.is_pi == accepted(v.matrix @ w.matrix)
        assert result.commutator == commutator_norm(w.final, v.initial)
        verdicts.add(result.is_pi)
    # the sweep crosses proj_tol: both verdicts occur
    assert verdicts == {True, False}


def test_validated_members_are_read_only_views():
    rng = np.random.default_rng(3)
    stack = np.array([random_unitary(rng, 3) for _ in range(4)])
    pis = validate_stack(stack)
    for i, pi in enumerate(pis):
        assert isinstance(pi, PartialIsometry)
        for field in (pi.matrix, pi.initial, pi.final):
            assert not field.flags.writeable
        assert np.array_equal(pi.matrix, stack[i])
    stack[0] = 0.0
    assert not np.array_equal(pis[0].matrix, stack[0])
