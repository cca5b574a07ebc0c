"""Desk-scale laboratory for dyadic sparse domination.

Vector-valued multilinear maximal functions on shifted dyadic lattices,
stopping-time construction of dominating sparse collections, Muckenhoupt and
reverse Hoelder weight machinery, model singular operators, and a harness
that verifies the structural inequalities tying them together.
"""

from .errors import (
    CalibrationFailureError,
    ConfigError,
    EmptyCubeError,
    EmptyCubeFamilyError,
    ExponentDomainError,
    ExponentOrderError,
    HypothesisViolationError,
    InfeasibleCollectionError,
    InstanceTooLargeError,
    NoCertificateError,
    NonpositiveValueError,
    RequiresPeriodicError,
    SizeMismatchError,
    SparsedomError,
    SpecMismatchError,
    TruncationTooLargeError,
    ZeroInputError,
)
from .lattice import (
    DyadicCube,
    ExponentTuple,
    GridFunction,
    GridSpec,
    cube_cells,
    cube_size,
    dilate,
    enumerate_cubes,
    gridfunction_from_csv,
    holder_aggregate,
    is_banach_holder_tuple,
    load_gridfunction,
    lr_norm,
    power_mean,
    save_gridfunction,
)
from .maximal import (
    holder_dominator,
    localized_maximal,
    mixed_norm,
    partitioned_maximal,
    vector_maximal,
    weak_type_quotient,
)
from .sparse import (
    ConstructionReport,
    SparseCollection,
    SparsityVerdict,
    build_sparse_collection,
    integral_of_form,
    lower_direction_check,
    sparse_form,
    sup_sparse_form,
    verify_sparsity,
)
from .weights import (
    Weight,
    WeightVector,
    classify_growth,
    make_power_weight,
    muckenhoupt_characteristic,
    multilinear_characteristic,
    p_form,
    rc_characteristic,
    refinement_protocol,
    reverse_holder_characteristic,
    weighted_norm,
)
from .operators import (
    FormOperator,
    OperatorFamily,
    admissible_sparse_tuple,
    discrete_bht,
    discrete_bht_reference,
    estimate_sparse_norm_lower_bound,
    lemma1_check,
    model_sparse_operator,
    theorem11_check,
    vector_form,
    weighted_bound_check,
    weighted_quotient,
)
from .harness import ExperimentConfig, generate_corpus, run_experiment

__version__ = "0.1.0"
