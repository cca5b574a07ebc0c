"""Desk-scale laboratory for dyadic sparse domination.

Vector-valued multilinear maximal functions on shifted dyadic lattices,
stopping-time construction of dominating sparse collections, Muckenhoupt and
reverse Hoelder weight machinery, model singular operators, and a harness
that verifies the structural inequalities tying them together.
"""

from .errors import (
    CalibrationFailureError,
    ConfigError,
    DomainError,
    InfeasibleCollectionError,
    NonpositiveValueError,
    SparsedomError,
    ZeroInputError,
)
from .lattice import (
    DyadicCube,
    GridFunction,
    GridSpec,
    cube_cells,
    dilate,
    enumerate_cubes,
    holder_aggregate,
    power_mean,
)
from .maximal import (
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
    rc_characteristic,
    reverse_holder_characteristic,
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
    weighted_quotient,
)
from .harness import ExperimentConfig, generate_corpus, run_experiment

__version__ = "0.1.0"
