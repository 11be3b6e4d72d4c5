"""pisomlab: finite-dimensional calculus of semigroups of partial isometries.

Decides partial-isometry and extendability properties, computes the Boolean
atom and multiplicity structure of the algebra generated by the final
projections, constructs monitored selfadjoint closures with failure
witnesses, and represents finite inverse semigroups by matrices.
"""

__version__ = "0.1.0"

from .numlin import (
    DEFAULT_TOL,
    IllConditionedSplit,
    InvariantViolation,
    NonCommuting,
    NotSquare,
    PisomError,
    ShapeMismatch,
    Subspace,
    ToleranceConfig,
    approx_equal,
    commutator_norm,
    is_projection,
    range_basis,
    rank,
    split_by_projection,
)
from .pisom import (
    HWDecomposition,
    HWProductResult,
    NotPartialIsometry,
    NotPowerPartialIsometry,
    PartialIsometry,
    hw_decompose,
    hw_product_test,
    is_power_partial_isometry,
    make_partial_isometry,
)
from .projlat import (
    AtomDecomposition,
    MultiplicityProfile,
    NotProjection,
    NotStandard,
    OffDiagonalResidual,
    ProjectionFamily,
    boolean_atoms,
    decompose_by_atoms,
    induced_atom_map,
    membership_in_span,
    multiplicity_profile,
    projection_family,
    standard_projection,
)
from .sgroup import (
    CLOSED,
    FAILURE,
    TRUNCATED,
    BrandtStructure,
    ClosureResult,
    GeneratorSet,
    Limits,
    adjoin_algebra_projections,
    adjoin_final_projections,
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
from .invsg import (
    InverseSemigroupTable,
    barnes_representation,
    cyclic_group_table,
    natural_order_leq,
    symmetric_inverse_table,
    validate_table,
)
