"""Quantile-defined statistical models.

A model is recorded through its vector quantile function y = q(x; theta),
coordinate-wise in the reference (scoring) variable x and smooth in the
parameter theta.  Every family has the affine form q(x; theta) = a(theta) +
b(theta) * x, coordinate by coordinate, which the estimation routines rely
on.  Each instance bundles the quantile map (vectorized over a batch of
parameter rows, so a contour sweep is one call), its first and second
parameter derivatives, the x-derivative and cross derivative, the reference
distribution (log density, score, sampler), and the family's own Newton
start and closed-form estimate, where one exists.

Instances are frozen; samplers take explicit seeds, so models are safe to
share across worker threads.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    SingularInformationError,
    UnsupportedFamilyError,
)

__all__ = [
    "QuantileModel",
    "EtaHandle",
    "InvertedCauchyMap",
    "make_location_scale",
    "make_circle",
    "make_nonlinear_regression",
    "make_synthetic_curved",
    "eta_circle",
    "eta_curved",
    "invert_coordinates",
    "model_from_config",
    "non_invertible_mask",
]

_UNBOUNDED = (-math.inf, math.inf)
_POSITIVE = (0.0, math.inf)


@dataclass(frozen=True)
class QuantileModel:
    """Bundle of quantile-map callables defining one parametric family.

    Every family is affine in x: q(x; theta) = q(0; theta) + dq_dx(theta) * x
    coordinate-wise.  Shapes: quantile maps (n,),(p,) -> (n,) and
    (n,),(K, p) -> (K, n), one row per parameter row; dquantile_dx maps
    (n,),(p,) -> (n,); dquantile_dtheta -> (n, p); d2quantile_dtheta2 ->
    (n, p, p) symmetric in the trailing axes; cross_hessian -> (n, p) holding
    d2 y_i / dx_i dtheta_a.  ref_sampler(seed, count) returns (count, n)
    reference draws.  param_domain holds one open interval per parameter
    coordinate.  start(y) is the Newton starting value for data y;
    closed_form(y), when not None, is the exact MLE.
    """

    family: str
    n: int
    p: int
    quantile: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dquantile_dtheta: Callable[[np.ndarray, np.ndarray], np.ndarray]
    d2quantile_dtheta2: Callable[[np.ndarray, np.ndarray], np.ndarray]
    dquantile_dx: Callable[[np.ndarray, np.ndarray], np.ndarray]
    cross_hessian: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ref_log_density: Callable[[np.ndarray], float]
    ref_score: Callable[[np.ndarray], np.ndarray]
    ref_sampler: Callable[[int, int], np.ndarray]
    param_domain: tuple
    start: Callable[[np.ndarray], np.ndarray]
    closed_form: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise InvalidDimensionError(
                f"theta has shape {theta.shape}, expected ({self.p},)"
            )
        if not np.all(np.isfinite(theta)):
            raise InvalidParameterError("theta has non-finite entries")
        for value, (lo, hi) in zip(theta, self.param_domain):
            if not (lo < value < hi):
                raise InvalidParameterError(
                    f"theta value {value!r} outside open domain ({lo}, {hi})"
                )
        return theta

    def check_point(self, y: np.ndarray, name: str = "y") -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise InvalidDimensionError(
                f"{name} has shape {y.shape}, expected ({self.n},)"
            )
        if not np.all(np.isfinite(y)):
            raise InvalidParameterError(f"{name} has non-finite entries")
        return y


def _normal_logpdf(x: np.ndarray, var: float) -> float:
    return float(-0.5 * np.sum(x * x) / var - 0.5 * x.size * math.log(2.0 * math.pi * var))


def _cauchy_logpdf(x: np.ndarray) -> float:
    return float(-np.sum(np.log1p(x * x)) - x.size * math.log(math.pi))


def _moments(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    mu = np.mean(y, axis=-1, keepdims=True)
    return mu[..., 0], np.sqrt(np.mean((y - mu) ** 2, axis=-1))


def make_location_scale(n: int, error_law: str = "normal") -> QuantileModel:
    """Location-scale family y = mu 1 + sigma z with standard error law z.

    Parameters
    ----------
    n : sample size (>= 2 so that sigma is identifiable).
    error_law : "normal" or "cauchy".  Normal errors have a closed-form MLE,
        which also takes rows of points (..., n) -> (..., 2).
    """
    if n < 2:
        raise InvalidDimensionError("location-scale needs n >= 2")
    if error_law not in ("normal", "cauchy"):
        raise UnsupportedFamilyError(f"unknown error law {error_law!r}")
    ones = np.ones(n)
    zeros_col = np.zeros(n)

    def quantile(x, theta):
        theta = np.asarray(theta, dtype=float)
        return theta[..., :1] + theta[..., 1:] * np.asarray(x, dtype=float)

    def dq_dtheta(x, theta):
        return np.column_stack([ones, np.asarray(x, dtype=float)])

    def d2q_dtheta2(x, theta):
        return np.zeros((n, 2, 2))

    def dq_dx(x, theta):
        return np.full(n, theta[1], dtype=float)

    def cross(x, theta):
        return np.column_stack([zeros_col, ones])

    if error_law == "normal":
        ref_log_density = lambda x: _normal_logpdf(np.asarray(x, dtype=float), 1.0)
        ref_score = lambda x: -np.asarray(x, dtype=float)

        def sampler(seed, count):
            rng = np.random.default_rng(seed)
            return rng.standard_normal((count, n))

        def closed_form(y):
            mu, sigma = _moments(y)
            if np.any(sigma <= 0.0):
                raise SingularInformationError("degenerate sample, sigma_hat = 0")
            return np.stack([mu, sigma], axis=-1)

        def start(y):
            mu, sigma = _moments(y)
            return np.stack([mu, np.maximum(sigma, 1e-8)], axis=-1)

        family = "location-scale"
    else:
        def ref_log_density(x):
            return _cauchy_logpdf(np.asarray(x, dtype=float))

        def ref_score(x):
            x = np.asarray(x, dtype=float)
            return -2.0 * x / (1.0 + x * x)

        def sampler(seed, count):
            rng = np.random.default_rng(seed)
            return rng.standard_cauchy((count, n))

        def start(y):
            q75, q25 = np.percentile(y, [75.0, 25.0])
            return np.array([float(np.median(y)), max(0.5 * float(q75 - q25), 1e-8)])

        closed_form = None
        family = "cauchy-location-scale"

    return QuantileModel(
        family=family,
        n=n,
        p=2,
        quantile=quantile,
        dquantile_dtheta=dq_dtheta,
        d2quantile_dtheta2=d2q_dtheta2,
        dquantile_dx=dq_dx,
        cross_hessian=cross,
        ref_log_density=ref_log_density,
        ref_score=ref_score,
        ref_sampler=sampler,
        param_domain=(_UNBOUNDED, _POSITIVE),
        start=start,
        closed_form=closed_form,
        meta={"error_law": error_law},
    )


def make_circle(rho: float, n: int = 2, variance_scale: float = 1.0) -> QuantileModel:
    """Circle mean family y = rho (cos t, sin t, 0, ..., 0)' + x.

    The reference coordinates are independent mean-0 Normals with variance
    variance_scale; p = 1.  n = 2 gives the planar family, n > 2 embeds the
    same circle in higher dimension (rotation taken as the identity).
    """
    if n < 2:
        raise InvalidDimensionError("circle family needs n >= 2")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise InvalidParameterError("rho must be positive and finite")
    if not (variance_scale > 0.0 and math.isfinite(variance_scale)):
        raise InvalidParameterError("variance_scale must be positive and finite")

    def quantile(x, theta):
        angle = np.asarray(theta, dtype=float)[..., 0]
        out = np.zeros(angle.shape + (n,))
        out[..., 0] = rho * np.cos(angle)
        out[..., 1] = rho * np.sin(angle)
        return out + np.asarray(x, dtype=float)

    def dq_dtheta(x, theta):
        out = np.zeros((n, 1))
        out[0, 0] = -rho * math.sin(theta[0])
        out[1, 0] = rho * math.cos(theta[0])
        return out

    def d2q_dtheta2(x, theta):
        out = np.zeros((n, 1, 1))
        out[0, 0, 0] = -rho * math.cos(theta[0])
        out[1, 0, 0] = -rho * math.sin(theta[0])
        return out

    def dq_dx(x, theta):
        return np.ones(n)

    def cross(x, theta):
        return np.zeros((n, 1))

    def sampler(seed, count):
        rng = np.random.default_rng(seed)
        return math.sqrt(variance_scale) * rng.standard_normal((count, n))

    def start(y):
        return np.array([math.atan2(y[1], y[0])])

    def closed_form(y):
        if math.hypot(y[0], y[1]) == 0.0:
            raise SingularInformationError("data at the circle center, angle undefined")
        return start(y)

    return QuantileModel(
        family="circle2d" if n == 2 else "circleN",
        n=n,
        p=1,
        quantile=quantile,
        dquantile_dtheta=dq_dtheta,
        d2quantile_dtheta2=d2q_dtheta2,
        dquantile_dx=dq_dx,
        cross_hessian=cross,
        ref_log_density=lambda x: _normal_logpdf(np.asarray(x, dtype=float), variance_scale),
        ref_score=lambda x: -np.asarray(x, dtype=float) / variance_scale,
        ref_sampler=sampler,
        param_domain=(_UNBOUNDED,),
        start=start,
        closed_form=closed_form,
        meta={"rho": float(rho), "variance_scale": float(variance_scale)},
    )


@dataclass(frozen=True)
class EtaHandle:
    """Mean-curve handle for regression families.

    value(theta) -> (n,), and (..., n) for a batch of rows (..., r);
    jac(theta) -> (n, r), hess(theta) -> (n, r, r).
    """

    tag: str
    n: int
    r: int
    value: Callable[[np.ndarray], np.ndarray]
    jac: Callable[[np.ndarray], np.ndarray]
    hess: Callable[[np.ndarray], np.ndarray]


def eta_circle(rho: float, n: int = 2) -> EtaHandle:
    """Circle mean curve as a scalar-parameter regression surface."""
    base = make_circle(rho, n=n)
    return EtaHandle(
        tag="circle",
        n=n,
        r=1,
        value=lambda th: base.quantile(np.zeros(n), th),
        jac=lambda th: base.dquantile_dtheta(np.zeros(n), th),
        hess=lambda th: base.d2quantile_dtheta2(np.zeros(n), th),
    )


def eta_curved(n: int) -> EtaHandle:
    """Scalar curved mean eta(t) = v t + w t^2 / 2 with fixed smooth patterns.

    The velocity and curvature patterns are deterministic in n, non-parallel,
    and O(1) per coordinate, so the information grows linearly with n.
    """
    if n < 2:
        raise InvalidDimensionError("curved mean needs n >= 2")
    idx = np.arange(n)
    v = 1.0 + 0.3 * np.sin(2.0 * math.pi * idx / n + 0.7)
    w = 0.8 * np.cos(4.0 * math.pi * idx / n + 0.3)
    return EtaHandle(
        tag="curved",
        n=n,
        r=1,
        value=lambda th: v * th + 0.5 * w * th ** 2,  # th: (1,) or (..., 1)
        jac=lambda th: (v + w * th[0]).reshape(n, 1),
        hess=lambda th: w.reshape(n, 1, 1),
    )


def _regression_start(quantile, n: int, r: int, p: int):
    """Newton start for regression: a scalar mean parameter is the best point
    of a coarse grid over [-3, 3] (a longer one starts at 0); an unknown sigma
    (p = r + 1) starts at the root mean square residual."""
    axis = np.linspace(-3.0, 3.0, 61)
    zero = np.zeros(n)

    def start(y):
        head = np.zeros(r)
        if r == 1:
            rows = np.ones((len(axis), p))
            rows[:, 0] = axis
            sse = np.sum((y - quantile(zero, rows)) ** 2, axis=1)
            head[0] = axis[np.argmin(sse)]
        if p == r:
            return head
        resid = y - quantile(zero, np.append(head, 1.0))
        return np.append(head, max(float(np.sqrt(np.mean(resid ** 2))), 1e-8))

    return start


def make_nonlinear_regression(eta: EtaHandle, sigma_mode="unknown") -> QuantileModel:
    """Regression family y = eta(theta) + error around a smooth mean curve.

    sigma_mode ("known", sigma0) keeps the error variance fixed at sigma0^2
    and p = r; sigma_mode "unknown" appends sigma as the last parameter
    coordinate (y = eta(theta_r) + sigma x with standard Normal x).
    """
    n, r = eta.n, eta.r
    probe = np.asarray(eta.value(np.zeros(r)), dtype=float)
    if probe.shape != (n,):
        raise InvalidDimensionError(
            f"eta value shape {probe.shape} does not match declared n = {n}"
        )
    if np.asarray(eta.jac(np.zeros(r))).shape != (n, r):
        raise InvalidDimensionError("eta jacobian shape does not match (n, r)")

    if sigma_mode == "unknown":
        p = r + 1

        def quantile(x, theta):
            theta = np.asarray(theta, dtype=float)
            return eta.value(theta[..., :r]) + theta[..., r:] * np.asarray(x, dtype=float)

        def dq_dtheta(x, theta):
            out = np.empty((n, p))
            out[:, :r] = eta.jac(theta[:r])
            out[:, r] = np.asarray(x, dtype=float)
            return out

        def d2q_dtheta2(x, theta):
            out = np.zeros((n, p, p))
            out[:, :r, :r] = eta.hess(theta[:r])
            return out

        def dq_dx(x, theta):
            return np.full(n, theta[r], dtype=float)

        def cross(x, theta):
            out = np.zeros((n, p))
            out[:, r] = 1.0
            return out

        def sampler(seed, count):
            rng = np.random.default_rng(seed)
            return rng.standard_normal((count, n))

        return QuantileModel(
            family="nonlinreg-unknown-sigma",
            n=n,
            p=p,
            quantile=quantile,
            dquantile_dtheta=dq_dtheta,
            d2quantile_dtheta2=d2q_dtheta2,
            dquantile_dx=dq_dx,
            cross_hessian=cross,
            ref_log_density=lambda x: _normal_logpdf(np.asarray(x, dtype=float), 1.0),
            ref_score=lambda x: -np.asarray(x, dtype=float),
            ref_sampler=sampler,
            param_domain=tuple([_UNBOUNDED] * r + [_POSITIVE]),
            start=_regression_start(quantile, n, r, p),
            meta={"eta": eta.tag, "sigma_mode": "unknown"},
        )

    if not (isinstance(sigma_mode, tuple) and len(sigma_mode) == 2 and sigma_mode[0] == "known"):
        raise InvalidParameterError(
            "sigma_mode must be 'unknown' or ('known', sigma0)"
        )
    sigma0 = float(sigma_mode[1])
    if not (sigma0 > 0.0 and math.isfinite(sigma0)):
        raise InvalidParameterError("sigma0 must be positive and finite")
    var = sigma0 * sigma0

    def quantile(x, theta):
        return eta.value(np.asarray(theta, dtype=float)) + np.asarray(x, dtype=float)

    def sampler(seed, count):
        rng = np.random.default_rng(seed)
        return sigma0 * rng.standard_normal((count, n))

    return QuantileModel(
        family="nonlinreg-known-sigma",
        n=n,
        p=r,
        quantile=quantile,
        dquantile_dtheta=lambda x, th: np.asarray(eta.jac(th), dtype=float),
        d2quantile_dtheta2=lambda x, th: np.asarray(eta.hess(th), dtype=float),
        dquantile_dx=lambda x, th: np.ones(n),
        cross_hessian=lambda x, th: np.zeros((n, r)),
        ref_log_density=lambda x: _normal_logpdf(np.asarray(x, dtype=float), var),
        ref_score=lambda x: -np.asarray(x, dtype=float) / var,
        ref_sampler=sampler,
        param_domain=tuple([_UNBOUNDED] * r),
        start=_regression_start(quantile, n, r, r),
        meta={"eta": eta.tag, "sigma_mode": "known", "sigma0": sigma0},
    )


def make_synthetic_curved(n: int) -> QuantileModel:
    """Scalar curved-mean regression with known unit variance, for order studies."""
    return make_nonlinear_regression(eta_curved(n), sigma_mode=("known", 1.0))


def non_invertible_mask(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """True for points with any (near-)zero coordinate: 1/y has no image there."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.any(np.abs(points) <= tol, axis=1)


@dataclass(frozen=True)
class InvertedCauchyMap:
    """Cauchy model re-expressed through the coordinate inversion y -> 1/y.

    model acts on the inverted coordinates and is again Cauchy location-scale;
    param_map sends (mu, sigma) to the inverted-coordinate parameters and is
    an involution.  point_map applies 1/y coordinate-wise and is undefined on
    points with a zero coordinate (see invertible).
    """

    model: QuantileModel
    param_map: Callable[[np.ndarray], np.ndarray]
    point_map: Callable[[np.ndarray], np.ndarray]
    invertible: Callable[[np.ndarray], np.ndarray]


def invert_coordinates(model: QuantileModel) -> InvertedCauchyMap:
    """Re-express a Cauchy location-scale model in inverted coordinates.

    If y is Cauchy(mu, sigma) then 1/y is Cauchy(mu~, sigma~) with
    mu~ = mu / (mu^2 + sigma^2) and sigma~ = sigma / (mu^2 + sigma^2), so the
    family is closed under coordinate inversion with a reparameterization.
    """
    if model.family != "cauchy-location-scale":
        raise UnsupportedFamilyError(
            f"coordinate inversion is defined for cauchy-location-scale, got {model.family!r}"
        )

    inverted = replace(model, family="inverted-cauchy",
                       meta={"error_law": "cauchy", "inverted": True})

    def param_map(theta):
        theta = np.asarray(theta, dtype=float)
        mu, sigma = theta[0], theta[1]
        denom = mu * mu + sigma * sigma
        if denom <= 0.0:
            raise InvalidParameterError("parameter map undefined at mu = sigma = 0")
        return np.array([mu / denom, sigma / denom])

    def point_map(y):
        y = np.asarray(y, dtype=float)
        if np.any(non_invertible_mask(y.reshape(1, -1) if y.ndim == 1 else y)):
            raise InvalidParameterError("point has a zero coordinate, no image under 1/y")
        return 1.0 / y

    return InvertedCauchyMap(
        model=inverted,
        param_map=param_map,
        point_map=point_map,
        invertible=lambda pts: ~non_invertible_mask(pts),
    )


_CONFIG_KEYS = {
    "location-scale": {"required": {"family", "n"}, "optional": {"error_law"}},
    "cauchy-location-scale": {"required": {"family", "n"}, "optional": set()},
    "inverted-cauchy": {"required": {"family", "n"}, "optional": set()},
    "circle2d": {"required": {"family", "rho"}, "optional": {"n", "variance_scale"}},
    "circleN": {"required": {"family", "n", "rho"}, "optional": {"variance_scale"}},
    "nonlinreg-known-sigma": {
        "required": {"family", "eta"},
        "optional": {"n", "rho", "sigma0", "sigma_mode"},
    },
    "nonlinreg-unknown-sigma": {
        "required": {"family", "eta"},
        "optional": {"n", "rho", "sigma_mode"},
    },
}


def _build_eta(config: dict) -> EtaHandle:
    tag = config["eta"]
    if tag == "circle":
        if "rho" not in config:
            raise InvalidParameterError("eta 'circle' needs key 'rho'")
        return eta_circle(float(config["rho"]), int(config.get("n", 2)))
    if tag == "curved":
        if "n" not in config:
            raise InvalidParameterError("eta 'curved' needs key 'n'")
        return eta_curved(int(config["n"]))
    raise UnsupportedFamilyError(f"unknown eta tag {tag!r} (use 'circle' or 'curved')")


def model_from_config(config) -> QuantileModel:
    """Build a model from a JSON-style mapping; unknown keys are rejected.

    Accepts a dict or a JSON string.  The "family" key selects the builder;
    remaining keys must belong to that family's allowed set.
    """
    if isinstance(config, str):
        config = json.loads(config)
    if not isinstance(config, dict):
        raise InvalidParameterError("model config must be a JSON object")
    family = config.get("family")
    if family not in _CONFIG_KEYS:
        raise UnsupportedFamilyError(
            f"unknown family {family!r}; known: {sorted(_CONFIG_KEYS)}"
        )
    spec = _CONFIG_KEYS[family]
    keys = set(config)
    unknown = keys - spec["required"] - spec["optional"]
    if unknown:
        raise InvalidParameterError(
            f"unknown keys for family {family!r}: {sorted(unknown)}"
        )
    missing = spec["required"] - keys
    if missing:
        raise InvalidParameterError(
            f"missing keys for family {family!r}: {sorted(missing)}"
        )

    if family == "location-scale":
        law = config.get("error_law", "normal")
        return make_location_scale(int(config["n"]), error_law=law)
    if family == "cauchy-location-scale":
        return make_location_scale(int(config["n"]), error_law="cauchy")
    if family == "inverted-cauchy":
        base = make_location_scale(int(config["n"]), error_law="cauchy")
        return invert_coordinates(base).model
    if family == "circle2d":
        n = int(config.get("n", 2))
        if n != 2:
            raise InvalidParameterError("circle2d has n = 2; use circleN for n > 2")
        return make_circle(float(config["rho"]), n=2,
                           variance_scale=float(config.get("variance_scale", 1.0)))
    if family == "circleN":
        return make_circle(float(config["rho"]), n=int(config["n"]),
                           variance_scale=float(config.get("variance_scale", 1.0)))

    eta = _build_eta(config)
    mode = config.get("sigma_mode", "known" if family == "nonlinreg-known-sigma" else "unknown")
    if family == "nonlinreg-known-sigma":
        if mode != "known":
            raise InvalidParameterError("sigma_mode must be 'known' for this family")
        return make_nonlinear_regression(eta, ("known", float(config.get("sigma0", 1.0))))
    if mode != "unknown":
        raise InvalidParameterError("sigma_mode must be 'unknown' for this family")
    return make_nonlinear_regression(eta, "unknown")
