"""Boolean atoms, standard projections, and multiplicity.

A commuting projection family splits the space into joint eigenspaces, the
atoms.  Sums of atoms are the standard projections, and the multiset of atom
ranks is the multiplicity profile of the generated algebra.  Uniform finite
multiplicity guarantees that the selfadjoint closure stays inside the partial
isometries; this script shows both a uniform and a non-uniform family.
"""

import pathlib

import numpy as np

from pisomlab.jsonio import load_generator_problem
from pisomlab.projlat import (
    boolean_atoms,
    decompose_by_atoms,
    membership_in_span,
    multiplicity_profile,
    projection_family,
    standard_projection,
)
from pisomlab.sgroup import close, family_projections, selfadjoint_closure

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

print("== a diagonal family on C^4 ==")
d1 = np.diag([1.0, 1.0, 0.0, 0.0])
d2 = np.diag([1.0, 0.0, 1.0, 0.0])
atoms = boolean_atoms(projection_family([d1, d2], dim=4))
print("atom ranks:", list(atoms.ranks), "->",
      multiplicity_profile(atoms))
print("d1 as a sum of atoms:",
      [i for i in range(len(atoms)) if atoms.generator_masks[0][i]])
e01 = standard_projection(atoms, [0, 1])
print("standard projection over atoms {0,1} has trace", np.trace(e01).real)

print("\n== the uniform multiplicity two fixture on C^2 (x) C^3 ==")
problem = load_generator_problem(str(FIXTURES / "pauli-tensor-units.json"))
base = close(problem.gens)
atoms = boolean_atoms(family_projections(base).q_set)
profile = multiplicity_profile(atoms)
print("atom ranks:", list(atoms.ranks), "uniform:", profile.uniform,
      "multiplicity:", profile.multiplicity)
print("every element's initial projection lies in the span algebra:",
      all(membership_in_span(v.conj().T @ v, atoms) for v in base.matrices()))
ext = selfadjoint_closure(problem.gens)
print("selfadjoint closure status:", ext.status,
      f"({len(ext)} elements)")

print("\n== block decomposition along atoms ==")
blocks = decompose_by_atoms(problem.gens.named_generators[0][1] @
                            problem.gens.named_generators[0][1].conj().T, atoms)
print("a final projection decomposes into blocks of sizes",
      [b.shape[0] for b in blocks])
