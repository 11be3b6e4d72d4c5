"""The 8x8 counterexample: commuting projections are not enough.

Three partial isometries A, B, C with pairwise zero products generate a
semigroup whose initial and final projections all commute.  Still, no
selfadjoint semigroup of partial isometries contains it: the engine finds a
concrete word over the generators and their adjoints that evaluates to an
operator failing the partial isometry test by 1/4.
"""

import pathlib

from pisomlab.jsonio import load_generator_problem
from pisomlab.projlat import boolean_atoms, multiplicity_profile
from pisomlab.sgroup import (
    close,
    family_projections,
    is_irreducible,
    selfadjoint_closure,
    word_label,
)

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

problem = load_generator_problem(str(FIXTURES / "example-1-3.json"))
gens = problem.gens

base = close(gens)
print(f"the semigroup itself closes with {len(base)} elements:",
      [word_label(w) for w in base.words])

fams = family_projections(base)
print("final projections commute:", fams.q_set.is_commuting())

atoms = boolean_atoms(fams.q_set)
profile = multiplicity_profile(atoms)
print("atoms of the generated algebra have ranks", list(atoms.ranks),
      "-> uniform multiplicity?", profile.uniform)

irr = is_irreducible(gens)
print("irreducible?", irr.irreducible,
      f"(word span has dimension {irr.span_dim} of 64)")

result = selfadjoint_closure(gens)
print(f"\nselfadjoint closure: {result.status}")
print(f"witness word: {word_label(result.witness_word)}")
print(f"partial isometry deviation: {result.witness_deviation}")
print("\nNon-uniform multiplicity is what blocks the extension here; with")
print("uniform finite multiplicity the closure always stays inside the")
print("partial isometries (see demo 03).")
