"""Inverse semigroups as tables and their matrix representation.

Selfadjoint semigroups of partial isometries are inverse semigroups, and
conversely every finite inverse semigroup acts faithfully by partial
isometries through its left regular representation.  This script builds the
symmetric inverse semigroup on two points, validates the axioms, and checks
that its representation is a closed selfadjoint semigroup of matrices.
"""

import numpy as np

from pisomlab.invsg import (
    barnes_representation,
    natural_order_leq,
    symmetric_inverse_table,
    validate_table,
)
from pisomlab.sgroup import generator_set, selfadjoint_closure

i2 = symmetric_inverse_table(2)
print(f"I_2 has {i2.n} elements:", list(i2.names))
print("axiom violations:", validate_table(i2) or "none")

names = list(i2.names)
zero = names.index("z")
ident = names.index("0>0,1>1")
print("natural order: z <= id:", natural_order_leq(i2, zero, ident),
      "; id <= z:", natural_order_leq(i2, ident, zero))

images = barnes_representation(i2)
print("\neach element becomes a 7x7 zero/one partial isometry; for the")
print("transposition 0>1,1>0 the matrix is a permutation of the basis:")
swap = names.index("0>1,1>0")
print(np.asarray(images[swap].matrix).real.astype(int))

gens = generator_set([(i2.name_of(i), images[i].matrix) for i in range(i2.n)], dim=7)
closure = selfadjoint_closure(gens)
print(f"\nselfadjoint closure of the image: {closure.status} with",
      f"{len(closure)} elements (the image itself).")
