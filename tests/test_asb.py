"""check_asb_nonzero, which spins range(b) under the generators, against the
search it replaced: every element of a closure cut at 2000 elements and
words of length 8.  The two agree wherever that closure is complete; the
spin also answers for words beyond the cut."""

import numpy as np
import pytest

from pisomlab.numlin import NonCommuting, frobenius
from pisomlab.projlat import boolean_atoms
from pisomlab.sgroup import (CLOSED, TRUNCATED, Limits, check_asb_nonzero,
                             close, family_projections, generator_set)
from conftest import golden_generators, matrix_unit
from factories import uniform_multiplicity_instance

SEARCH_LIMITS = Limits(2000, 8)


def cyclic_units(n):
    return generator_set([(f"E{i}", matrix_unit(n, i, (i + 1) % n)) for i in range(n)], dim=n)


def closure_search(c, a, b):
    """The answer the closure search gave over the elements w of c: some
    ||a w b|| > eq_tol * max(1, ||a||, ||b||)."""
    prods = a @ c.store.stack() @ b
    scale = max(1.0, frobenius(a), frobenius(b))
    return bool(np.any(np.linalg.norm(prods.reshape(len(prods), -1), axis=1) > c.cfg.eq_tol * scale))


def probes(gens):
    """The diagonal matrix units and, when the Q family of the closure
    commutes, its atoms."""
    n = gens.dim
    out = [matrix_unit(n, i, i) for i in range(n)]
    try:
        q_set = family_projections(close(gens, SEARCH_LIMITS)).q_set
        out += list(boolean_atoms(q_set).atoms)
    except NonCommuting:
        pass
    return out


def inputs():
    """(dim, named generators): cyclic units at n = 3...8, the golden input
    and uniform_multiplicity_instance seeds 0-7."""
    yield from ((n, cyclic_units(n).named_generators) for n in range(3, 9))
    yield 8, list(zip("ABC", golden_generators()))
    for seed in range(8):
        n, _, _, named = uniform_multiplicity_instance(seed)
        yield n, named


@pytest.mark.parametrize("include_identity", [True, False])
@pytest.mark.parametrize("dim, named", list(inputs()))
def test_answers_as_the_closure_search_where_it_is_complete(dim, named, include_identity):
    # a truncated search only certifies the words it reached
    gens = generator_set(named, dim=dim, include_identity=include_identity)
    c = close(gens, SEARCH_LIMITS)
    mats = probes(gens)
    for a in mats:
        for b in mats:
            got, want = check_asb_nonzero(gens, a, b), closure_search(c, a, b)
            assert got == want if c.status == CLOSED else got or not want


def test_words_beyond_the_search_limit():
    # the shortest word from e_11 to e_0 is E0.E1...E10, of length 11
    gens = cyclic_units(12)
    a, b = matrix_unit(12, 0, 0), matrix_unit(12, 11, 11)
    cut = close(gens, SEARCH_LIMITS)
    assert cut.status == TRUNCATED and not closure_search(cut, a, b)
    assert check_asb_nonzero(gens, a, b)


def test_identity_is_a_word_only_when_included():
    # E01 maps e0 to zero and squares to zero: only the identity reaches E00
    named = [("E01", matrix_unit(2, 0, 1))]
    e00 = matrix_unit(2, 0, 0)
    assert not check_asb_nonzero(generator_set(named, include_identity=False), e00, e00)
    assert check_asb_nonzero(generator_set(named, include_identity=True), e00, e00)
