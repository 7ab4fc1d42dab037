"""Exact-arithmetic toolkit for maximal commutative matrix subalgebras.

Builds two parametric families of maximal commutative subalgebras of
n-by-n matrices, measures lengths of generating systems through exact
span chains, certifies maximality via centralizers, and checks the
radical-nilpotency length bound.  All arithmetic is exact, over the
rationals or over a prime field GF(p).
"""

from .commute import MaximalityVerdict, centralizer, is_commutative, is_maximal_commutative
from .constructions import (
    BkmParams,
    ConstructionParams,
    GeneratingSystem,
    IndexSets,
    assemble_element,
    build_bkm,
    build_bkml,
    coefficient_template,
    dimension_formula,
    dimension_formula_bkm,
    index_sets,
    shift_matrix,
    valid_bkm_params,
    valid_bkml_params,
    witness_system,
    witness_system_bkm,
)
from .errors import (
    BudgetExceeded,
    DimensionMismatch,
    EmptySystem,
    FieldMismatch,
    IndexOutOfRange,
    InvalidGeneratorFile,
    InvalidParams,
    NotASubalgebra,
    NotGenerating,
    NotLocalForm,
    NotNilpotent,
    SamplingExhausted,
    SubalgError,
    UnknownCoefficientKey,
)
from .exact_linalg import (
    QQ,
    Field,
    Matrix,
    PrimeField,
    RationalField,
    Subspace,
    field_from_name,
    kernel,
    mat_mul,
    matrix_unit,
    unvectorize,
    vectorize,
)
from .lengths import (
    LengthReport,
    algebra_closure,
    length_of_system,
    li_chain,
    li_chain_spans,
    sample_generating_systems,
)
from .radical import (
    RadicalReport,
    nilpotency_index,
    radical_power_dims,
    radical_span,
)
from .verify import VerificationReport, bound_check, verify_system

__version__ = "0.1.0"
