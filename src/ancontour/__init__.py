"""Explicit second-order ancillary contours for quantile-defined models.

The package turns a vector quantile function y = q(x; theta) into observed
contours of an approximate ancillary statistic: fit the parameter, hold the
fitted reference value fixed, and sweep the parameter over a standardized
grid.  Supporting modules expose the Taylor-frame geometry behind the
construction, exact-ancillary cross checks, a full-data pivot counterexample,
a coordinate-inversion counterexample, and simulation and quadrature
harnesses measuring the order of approximate ancillarity.

numpy is the only runtime dependency; no code path imports scipy.
``import ancontour`` loads no submodule (and so not numpy): each public name
and each submodule loads its module when first read.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "models": (
        "QuantileModel", "EtaHandle", "make_location_scale", "make_circle",
        "make_nonlinear_regression", "make_synthetic_curved", "eta_circle", "eta_curved",
        "model_from_config", "non_invertible_mask"),
    "estimation": (
        "FitResult", "StandardizationRecord", "fitted_reference", "loglik", "score",
        "observed_information", "closed_form_mle", "fit_mle", "standardize"),
    "diffgeo": (
        "TaylorFrame", "build_frame", "orthogonalize", "quadratic_point", "reparameterize"),
    "ancillary": (  # contours and checks
        "GridSpec", "ContourCloud", "PartitionReport", "ExactComparisonReport",
        "SeveriniReport", "InversionReport", "build_contour", "contour_min_distance",
        "partition_check", "compare_exact", "exact_label", "severini_pivot",
        "severini_pivot_check", "cauchy_inversion_demo"),
    "montecarlo": (  # simulation and quadrature
        "QuadratureSpec", "QuadratureReport", "OrderStudySpec", "OrderStudyReport",
        "PartitionOrderSpec", "PartitionOrderReport", "quadrature_first_derivative",
        "run_replicated", "partition_order_study", "spec_from_config"),
    "errors": (
        "AncontourError", "InvalidDimensionError", "InvalidParameterError",
        "UnsupportedFamilyError", "DegenerateTangentError", "ConvergenceError",
        "SingularInformationError", "NumericalFailureError", "EmptyStudyError",
        "PartialResultsError"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "_jsonio"}

__all__ = ["__version__", *_MODULE_OF]


def __getattr__(name):
    """A public name or a submodule, imported on first use (PEP 562).  Names
    are looked up in their module on every read, never copied here."""
    if name in _MODULE_OF:
        return getattr(importlib.import_module(f"{__name__}.{_MODULE_OF[name]}"), name)
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(__all__))
