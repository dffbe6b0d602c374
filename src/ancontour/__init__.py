"""Explicit second-order ancillary contours for quantile-defined models.

The package turns a vector quantile function y = q(x; theta) into observed
contours of an approximate ancillary statistic: fit the parameter, hold the
fitted reference value fixed, and sweep the parameter over a standardized
grid.  Supporting modules expose the Taylor-frame geometry behind the
construction, exact-ancillary cross checks, a full-data pivot counterexample,
a coordinate-inversion counterexample, and simulation and quadrature
harnesses measuring the order of approximate ancillarity.

numpy is the only runtime dependency; no code path imports scipy.
"""

from .ancillary import (
    ContourCloud,
    ExactComparisonReport,
    GridSpec,
    InversionReport,
    PartitionReport,
    SeveriniReport,
    build_contour,
    cauchy_inversion_demo,
    compare_exact,
    contour_min_distance,
    exact_label,
    partition_check,
    severini_pivot,
    severini_pivot_check,
)
from .diffgeo import (
    TaylorFrame,
    build_frame,
    orthogonalize,
    quadratic_point,
    reparameterize,
)
from .errors import (
    AncontourError,
    ConvergenceError,
    DegenerateTangentError,
    EmptyStudyError,
    InvalidDimensionError,
    InvalidParameterError,
    NumericalFailureError,
    PartialResultsError,
    SingularInformationError,
    UnsupportedFamilyError,
)
from .estimation import (
    FitResult,
    StandardizationRecord,
    closed_form_mle,
    fit_mle,
    fitted_reference,
    loglik,
    observed_information,
    score,
    standardize,
)
from .models import (
    EtaHandle,
    InvertedCauchyMap,
    QuantileModel,
    eta_circle,
    eta_curved,
    invert_coordinates,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    make_synthetic_curved,
    model_from_config,
    non_invertible_mask,
)
from .montecarlo import (
    OrderStudyReport,
    OrderStudySpec,
    PartitionOrderReport,
    QuadratureReport,
    order_spec_from_config,
    partition_order_study,
    quadrature_first_derivative,
    run_replicated,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # models
    "QuantileModel", "EtaHandle", "InvertedCauchyMap",
    "make_location_scale", "make_circle", "make_nonlinear_regression",
    "make_synthetic_curved", "eta_circle", "eta_curved",
    "invert_coordinates", "model_from_config", "non_invertible_mask",
    # estimation
    "FitResult", "StandardizationRecord", "fitted_reference", "loglik",
    "score", "observed_information", "closed_form_mle", "fit_mle",
    "standardize",
    # differential geometry
    "TaylorFrame", "build_frame", "orthogonalize", "quadratic_point",
    "reparameterize",
    # contours and checks
    "GridSpec", "ContourCloud", "PartitionReport", "ExactComparisonReport",
    "SeveriniReport", "InversionReport", "build_contour",
    "contour_min_distance", "partition_check", "compare_exact",
    "exact_label", "severini_pivot", "severini_pivot_check",
    "cauchy_inversion_demo",
    # simulation and quadrature
    "QuadratureReport", "OrderStudySpec", "OrderStudyReport",
    "PartitionOrderReport", "quadrature_first_derivative",
    "run_replicated", "partition_order_study", "order_spec_from_config",
    # errors
    "AncontourError", "InvalidDimensionError", "InvalidParameterError",
    "UnsupportedFamilyError", "DegenerateTangentError", "ConvergenceError",
    "SingularInformationError", "NumericalFailureError", "EmptyStudyError",
    "PartialResultsError",
]
