"""Numerical laboratory for weighted composition operators acting from
weighted Bergman-type spaces on the unit disk into the Bloch and little
Bloch spaces: criterion quantities, boundedness and compactness
classification, and independent brute-force oracles."""

__version__ = "0.1.0"

from . import heap  # fixes glibc's heap thresholds for the process; see its docstring
from .disk_functions import (
    Affine,
    BlaschkeFactor,
    ComposedWithSelfMap,
    CompositionMap,
    DiskFunction,
    DomainError,
    FiniteBlaschkeProduct,
    FractionalKernel,
    MonomialPower,
    PowerSeries,
    Product,
    Scaled,
    ScaledMap,
    SelfMap,
    Sum,
    SymbolPair,
    constant,
    identity_map,
    pseudo_hyperbolic,
    truncated_log_series,
    validate_self_map,
)
from .weights import NormalWeight, NormalityReport, SpaceSpec, check_normality
from .norms import (
    DEFAULT_GRID,
    BoundaryProfile,
    NonConvergentError,
    RadialGrid,
    bergman_type_norm,
    bloch_seminorm,
    boundary_profile,
    derivative_form_norm,
    little_bloch_profile,
    sw_integral_check,
)
from .criteria import (
    EquivalenceProbe,
    PreconditionUnmetError,
    Status,
    Verdict,
    VerdictGroup,
    bergman_specialization_ratio,
    classify_bounded_into_bloch,
    classify_bounded_into_little_bloch,
    classify_compact_into_bloch,
    classify_compact_into_little_bloch,
    composition_limit_probe,
    composition_quotient,
    derivative_limit_probe,
    multiplier_quotient,
)
from .oracle import (
    CompactnessProbe,
    LowerBoundTrend,
    boundary_test_function,
    compactness_probe,
    lower_bound_trend,
    operator_apply,
    vanishing_test_function,
)
