"""Irreducibility by span dimension and the matrix-unit (Brandt) structure.

A semigroup acts irreducibly exactly when the algebra its words span is the
full matrix algebra, so span dimension n^2 is a certificate.  When an
irreducible semigroup's projections contain a minimal one, the whole
semigroup embeds into a Brandt semigroup: an orthogonal family of minimal
projections with partial isometries shuffling the blocks.
"""

import numpy as np

from pisomlab.sgroup import (
    brandt_membership,
    brandt_structure,
    check_asb_nonzero,
    close,
    generator_set,
    is_irreducible,
    word_label,
)


def unit(n, i, j):
    m = np.zeros((n, n))
    m[i, j] = 1.0
    return m


n = 3
gens = generator_set([("E12", unit(n, 0, 1)), ("E23", unit(n, 1, 2)),
                      ("E31", unit(n, 2, 0))], dim=n)

irr = is_irreducible(gens)
print(f"matrix-unit cycle on C^{n}: span dimension {irr.span_dim} = {n * n},",
      "irreducible:", irr.irreducible)
print("A·S·B is nonzero for A = e11, B = e22:",
      check_asb_nonzero(gens, unit(n, 0, 0), unit(n, 1, 1)))

result = close(gens)
print(f"\nclosure has {len(result)} elements:",
      [word_label(w) for w in result.words])

structure = brandt_structure(result)
print("Brandt family ranks:", list(structure.family_ranks), structure.checks)
print("every element passes the pair condition:",
      all(brandt_membership(m, structure) for m in result.matrices()))

print("\nA strict sub-isometry into one of the blocks is rejected:")
bad = np.zeros((n, n))
bad[0, 1] = 1.0 / np.sqrt(2)
print("membership of a norm-1/sqrt(2) matrix:", brandt_membership(bad, structure))
