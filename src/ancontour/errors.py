"""Exception types shared across the package.

Every raiser passes a short diagnostic message; errors that occur mid-iteration
carry enough state (trace, partial results) to debug the failure.
"""

from __future__ import annotations


class AncontourError(Exception):
    """Base class for all package errors."""


class InvalidDimensionError(AncontourError):
    """Array argument has the wrong shape for the model."""


class InvalidParameterError(AncontourError):
    """Parameter vector outside the model's domain, or bad option value."""


class UnsupportedFamilyError(AncontourError):
    """Operation requested for a family it is not defined on."""


class DegenerateTangentError(AncontourError):
    """Velocity array is rank deficient at the expansion point."""


class ConvergenceError(AncontourError):
    """Iterative fit did not converge; carries the iterate trace."""

    def __init__(self, message: str, trace: list | None = None):
        super().__init__(message)
        self.trace = trace if trace is not None else []


class SingularInformationError(AncontourError):
    """Observed information (or a Newton Hessian) is singular at an iterate."""


class NumericalFailureError(AncontourError):
    """Quadrature or linear algebra failed to reach the requested tolerance."""


class EmptyStudyError(AncontourError):
    """Simulation study invoked with no replicates."""


class PartialResultsError(AncontourError):
    """A replicated run failed part-way; completed batches are attached."""

    def __init__(self, message: str, completed: list | None = None):
        super().__init__(message)
        self.completed = completed if completed is not None else []
