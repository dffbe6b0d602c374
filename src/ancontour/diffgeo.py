"""Taylor frames for parameter trajectories of a quantile model.

At a fitted reference value the map t -> q(x_ref; theta_hat + t) is a
p-dimensional surface in sample space.  The frame records its velocity and
acceleration arrays, the induced metric (gram), and the split of the
acceleration into tangential mixing plus the normal component (the second
fundamental form).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from ._jsonio import record
from .errors import DegenerateTangentError, InvalidDimensionError, InvalidParameterError
from .models import QuantileModel, _max

__all__ = _EXPORTS["diffgeo"]

_RANK_TOL = 1e-10


class TaylorFrame(NamedTuple):
    """Second-order expansion of a parameter trajectory at a base point.

    velocity is n x p, acceleration n x p x p (symmetric trailing axes).
    gram = V'V is the induced metric, mixing the tangential regression
    coefficients of the acceleration columns (p x p x p, leading axis indexes
    the tangent coordinate), and normal_acceleration the residual after
    removing the tangential part: acceleration = normal + velocity . mixing.
    """

    base_point: np.ndarray
    x_ref: np.ndarray
    theta: np.ndarray
    velocity: np.ndarray
    acceleration: np.ndarray
    gram: np.ndarray
    mixing: np.ndarray
    normal_acceleration: np.ndarray

    @property
    def n(self) -> int:
        return self.velocity.shape[0]

    @property
    def p(self) -> int:
        return self.velocity.shape[1]

    def to_json_dict(self) -> dict:
        return record(self, n=self.n, p=self.p)


def _split(velocity, acceleration):
    """The checked velocity, the symmetrized acceleration, then orthogonalize's split."""
    velocity = np.asarray(velocity, dtype=float)
    acceleration = np.asarray(acceleration, dtype=float)
    if velocity.ndim != 2:
        raise InvalidDimensionError("velocity must be n x p")
    n, p = velocity.shape
    if acceleration.shape != (n, p, p):
        raise InvalidDimensionError(
            f"acceleration shape {acceleration.shape}, expected {(n, p, p)}"
        )
    asym = _max(np.abs(acceleration - acceleration.swapaxes(1, 2)), None)
    if asym > 1e-8 * (1.0 + _max(np.abs(acceleration), None)):
        raise InvalidParameterError(
            f"acceleration not symmetric in trailing axes (gap {asym:.3e})"
        )
    acceleration = 0.5 * (acceleration + acceleration.swapaxes(1, 2))
    svals = np.linalg.svd(velocity, compute_uv=False)
    if svals[-1] <= _RANK_TOL * svals[0]:
        raise DegenerateTangentError(
            f"velocity rank deficient (singular values {svals})"
        )
    gram = velocity.T @ velocity
    gram_inv = np.linalg.inv(gram)
    # regression coefficients of each acceleration column on the velocity span
    mixing = np.einsum("kl,nl,nab->kab", gram_inv, velocity, acceleration)
    normal = acceleration - np.einsum("nk,kab->nab", velocity, mixing)
    return velocity, acceleration, gram, mixing, normal


def orthogonalize(velocity: np.ndarray, acceleration: np.ndarray):
    """Split the acceleration into tangential mixing and a normal part.

    Returns (gram, mixing, normal) with
    acceleration = normal + einsum('nk,kab->nab', velocity, mixing) and
    velocity' normal = 0.
    """
    return _split(velocity, acceleration)[2:]


def build_frame(model: QuantileModel, x_ref: np.ndarray, theta: np.ndarray) -> TaylorFrame:
    """Assemble the Taylor frame of t -> q(x_ref; theta + t) at t = 0."""
    x_ref = model.check_point(x_ref, name="x_ref")
    theta = model.check_theta(theta)
    base = model.quantile(x_ref, theta)
    velocity, acceleration, gram, mixing, normal = _split(
        model.dquantile_dtheta(x_ref, theta), model.d2quantile_dtheta2(x_ref, theta))
    return TaylorFrame(
        base_point=base,
        x_ref=x_ref,
        theta=theta,
        velocity=velocity,
        acceleration=acceleration,
        gram=gram,
        mixing=mixing,
        normal_acceleration=normal,
    )


def quadratic_point(frame: TaylorFrame, t: np.ndarray) -> np.ndarray:
    """Second-order predicted point y0 + V t + t'W t / 2."""
    t = np.asarray(t, dtype=float)
    if t.shape != (frame.p,):
        raise InvalidDimensionError(f"t has shape {t.shape}, expected ({frame.p},)")
    quad = 0.5 * np.einsum("nab,a,b->n", frame.acceleration, t, t)
    return frame.base_point + frame.velocity @ t + quad


def reparameterize(frame: TaylorFrame, t: np.ndarray) -> np.ndarray:
    """Tilted coordinate t~ = t + t' mixing t / 2.

    The substitution absorbs the tangential part exactly: y0 + V t~ +
    t' normal t / 2 reproduces the full quadratic prediction.
    """
    t = np.asarray(t, dtype=float)
    if t.shape != (frame.p,):
        raise InvalidDimensionError(f"t has shape {t.shape}, expected ({frame.p},)")
    bend = np.einsum("kab,a,b->k", frame.mixing, t, t)
    return t + 0.5 * bend
