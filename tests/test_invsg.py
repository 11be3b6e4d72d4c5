"""Tests for inverse semigroup tables and the left regular representation."""

import numpy as np
import pytest

from pisomlab import invsg
from pisomlab.invsg import (
    InvalidTable,
    NotIdempotent,
    barnes_representation,
    cyclic_group_table,
    make_table,
    natural_order_leq,
    symmetric_inverse_table,
    table_from_dict,
    table_to_dict,
    validate_table,
)
from pisomlab.numlin import InvariantViolation
from pisomlab.sgroup import CLOSED, generator_set, selfadjoint_closure


def test_cyclic_group_valid():
    assert validate_table(cyclic_group_table(2)) == []
    assert validate_table(cyclic_group_table(5)) == []


def test_symmetric_inverse_semigroups_valid():
    i1 = symmetric_inverse_table(1)
    assert i1.n == 2
    assert validate_table(i1) == []
    i2 = symmetric_inverse_table(2)
    assert i2.n == 7
    assert validate_table(i2) == []


def test_left_zero_semigroup_violations():
    # x*y = x is associative with non-commuting idempotents; star = id breaks
    # the antihomomorphism law as well
    t = make_table([[0, 0], [1, 1]], [0, 1])
    kinds = {v.kind for v in validate_table(t)}
    assert "idempotents_commute" in kinds


def test_broken_associativity_reported():
    # (0·0)·1 = 1·1 = 0 but 0·(0·1) = 0·0 = 1
    bad = make_table([[1, 0], [0, 0]], [0, 1])
    kinds = {v.kind for v in validate_table(bad)}
    assert "associativity" in kinds


def test_natural_order_i2():
    i2 = symmetric_inverse_table(2)
    names = list(i2.names)
    zero = names.index("z")
    ident = names.index("0>0,1>1")
    e0 = names.index("0>0")
    assert natural_order_leq(i2, zero, ident)
    assert natural_order_leq(i2, zero, e0)
    assert natural_order_leq(i2, e0, ident)
    assert not natural_order_leq(i2, ident, e0)
    assert natural_order_leq(i2, ident, ident)
    swap = names.index("0>1,1>0")
    with pytest.raises(NotIdempotent):
        natural_order_leq(i2, swap, ident)


def test_barnes_i1():
    i1 = symmetric_inverse_table(1)
    images = barnes_representation(i1)
    names = list(i1.names)
    ident = names.index("0>0")
    zero = names.index("z")
    assert np.allclose(images[ident].matrix, np.eye(2))
    expected = np.zeros((2, 2))
    expected[zero, zero] = 1.0
    assert np.allclose(images[zero].matrix, expected)


def test_barnes_z2_is_regular_representation():
    images = barnes_representation(cyclic_group_table(2))
    for pi in images:
        m = pi.matrix
        assert np.allclose(m @ m.conj().T, np.eye(2))
    assert np.allclose(images[1].matrix, np.array([[0, 1], [1, 0]]))


def test_barnes_i2_properties():
    i2 = symmetric_inverse_table(2)
    images = barnes_representation(i2)
    assert len(images) == 7
    mats = [np.asarray(pi.matrix) for pi in images]
    # multiplicative and star-compatible, exactly
    for s in range(7):
        for u in range(7):
            prod = mats[s] @ mats[u]
            assert np.array_equal(prod, mats[i2.mult[s, u]])
        assert np.array_equal(mats[i2.star[s]], mats[s].conj().T)
    # injective
    assert len({tuple(m.ravel().tolist()) for m in mats}) == 7
    # idempotents map to commuting projections
    for e in i2.idempotents():
        for f in i2.idempotents():
            assert np.array_equal(mats[e] @ mats[f], mats[f] @ mats[e])


def dense_barnes(t):
    """The left regular representation entry by entry: column c of the image
    of s is basis_{s·c} when c·c* lies below s*·s, and zero otherwise."""
    m, n = t.mult, t.n
    mats = np.zeros((n, n, n))
    for s in range(n):
        for c in range(n):
            cc_star = m[c, t.star[c]]
            if m[cc_star, m[t.star[s], s]] == cc_star:
                mats[s, m[s, c], c] = 1.0
    return mats


@pytest.mark.parametrize("table", (symmetric_inverse_table(2), symmetric_inverse_table(3),
                                   cyclic_group_table(5)), ids=("I2", "I3", "Z5"))
def test_barnes_images_equal_the_dense_construction(table):
    images = barnes_representation(table)
    want = dense_barnes(table)
    assert len(images) == table.n
    for pi, mat in zip(images, want):
        assert pi.matrix.dtype == np.complex128
        assert np.array_equal(pi.matrix, mat)
        for s, t in ((pi.initial, mat.T @ mat), (pi.final, mat @ mat.T)):
            assert np.array_equal(s, t)


def test_barnes_reports_a_non_multiplicative_map(monkeypatch):
    # the broken-associativity table, let past the axiom check: s0 maps to
    # E_{0,1} and s1 to 0, so image(s0) image(s1) = 0 != image(s0·s1) = image(s0)
    bad = make_table([[1, 0], [0, 0]], [0, 1])
    monkeypatch.setattr(invsg, "validate_table", lambda t: [])
    with pytest.raises(InvariantViolation, match=r"not multiplicative at \(s0, s1\)"):
        barnes_representation(bad)


def test_barnes_image_selfadjoint_closure():
    i2 = symmetric_inverse_table(2)
    images = barnes_representation(i2)
    named = [(i2.name_of(i), images[i].matrix) for i in range(i2.n)]
    gens = generator_set(named, dim=7)
    result = selfadjoint_closure(gens)
    assert result.status == CLOSED
    assert len(result.elements) == 7


def test_barnes_rejects_invalid_table():
    t = make_table([[0, 0], [1, 1]], [0, 1])
    with pytest.raises(InvalidTable):
        barnes_representation(t)


def test_table_dict_roundtrip():
    i2 = symmetric_inverse_table(2)
    again = table_from_dict(table_to_dict(i2))
    assert np.array_equal(again.mult, i2.mult)
    assert np.array_equal(again.star, i2.star)
    assert again.names == i2.names
