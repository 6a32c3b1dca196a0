"""Active-variable truncation and changing-dimension approximation.

A library plus CLI for approximation in weighted tensor-product Hilbert
spaces whose product weights ``d^{-|u|}`` penalize high interaction orders.
It computes certified interaction-truncation levels, builds and prices the
changing-dimension algorithm, enumerates the sorted tensor eigenvalues that
drive the spectral-optimal algorithm, and prices complexity grids with
least-squares fits over them.
"""

from .cda import (
    ApplyResult,
    CdaApplier,
    CdaPlan,
    build_plan,
    price_plan,
)
from .cost import (
    ComplexityReport,
    CostModel,
    complexity_curve,
    eval_cost,
)
from .errors import ActiveVarsError, EnumerationCapError
from .harness import (
    GOLDEN_MAJORANT_CEILINGS,
    mc_l2_error,
    mean_function,
    random_function,
    single_subset_function,
    table_check,
)
from .optimal import (
    TensorEigenStream,
    optimal_algorithm,
)
from .space import (
    AnovaFunction,
    eval_pointwise,
    g_norm_exact,
    h_norm,
)
from .spectrum import (
    KernelSpec,
    Spectrum,
    build_spectrum,
    custom_kernel,
    eval_eigenfunction,
    korobov_kernel,
    power_sum,
    spectrum_to_json,
    wiener_kernel,
)
from .truncation import (
    TruncationReport,
    binomial_tail,
    factorial_majorant,
    orthogonal_truncation_level,
    truncation_level,
)

__version__ = "0.1.0"

__all__ = [
    "ActiveVarsError",
    "AnovaFunction",
    "ApplyResult",
    "CdaApplier",
    "CdaPlan",
    "ComplexityReport",
    "CostModel",
    "EnumerationCapError",
    "GOLDEN_MAJORANT_CEILINGS",
    "KernelSpec",
    "Spectrum",
    "TensorEigenStream",
    "TruncationReport",
    "binomial_tail",
    "build_plan",
    "build_spectrum",
    "complexity_curve",
    "custom_kernel",
    "eval_cost",
    "eval_eigenfunction",
    "eval_pointwise",
    "factorial_majorant",
    "g_norm_exact",
    "h_norm",
    "korobov_kernel",
    "mc_l2_error",
    "mean_function",
    "optimal_algorithm",
    "orthogonal_truncation_level",
    "power_sum",
    "price_plan",
    "random_function",
    "single_subset_function",
    "spectrum_to_json",
    "table_check",
    "truncation_level",
    "wiener_kernel",
]
