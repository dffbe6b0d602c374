"""Quantile-defined statistical models.

A model is recorded through its vector quantile function y = q(x; theta),
coordinate-wise in the reference (scoring) variable x and smooth in the
parameter theta.  Every family is declared once, by its mean a(theta), its
scale b(theta) and a reference law: q(x; theta) = a(theta) + b(theta) * x
coordinate by coordinate, where b is either 1 or the last parameter
coordinate, and the law is independent Normal(0, var) or standard Cauchy
coordinates.  One constructor derives from this the quantile map (vectorized
over a batch of parameter rows, so a contour sweep is one call), its first
and second parameter derivatives, the x-derivative and the cross derivative;
each family adds its own Newton start and closed-form estimate, where one
exists.

Instances are frozen; samplers take explicit seeds, so models are safe to
share.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from ._jsonio import config_int
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


def _normal_law(n: int, var: float):
    """(log density, score, sampler) of n independent Normal(0, var) coordinates."""
    sd = math.sqrt(var)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        return float(-0.5 * np.sum(x * x) / var - 0.5 * x.size * math.log(2.0 * math.pi * var))

    def sampler(seed, count):
        return sd * np.random.default_rng(seed).standard_normal((count, n))

    return log_density, lambda x: -np.asarray(x, dtype=float) / var, sampler


def _cauchy_law(n: int):
    """(log density, score, sampler) of n independent standard Cauchy coordinates."""

    def log_density(x):
        x = np.asarray(x, dtype=float)
        return float(-np.sum(np.log1p(x * x)) - x.size * math.log(math.pi))

    def score(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x / (1.0 + x * x)

    def sampler(seed, count):
        return np.random.default_rng(seed).standard_cauchy((count, n))

    return log_density, score, sampler


def _affine_model(family, n, a, da, d2a, scaled, law, domain, start,
                  closed_form, meta) -> QuantileModel:
    """The model q(x; theta) = a(theta[:r]) + b(theta) * x, all callables derived here.

    p = len(domain).  With scaled, b is the last coordinate theta[r] (r = p - 1)
    and a does not depend on it; otherwise b = 1 and r = p.  a maps parameter
    rows (..., r) to (..., n); da and d2a take one row (r,) and give (n, r) and
    (n, r, r).  Each may return anything that broadcasts to its shape.  b is
    linear in theta, so its second derivative is zero.  law is the reference
    (log density, score, sampler).
    """
    p = len(domain)
    r = p - 1 if scaled else p

    def quantile(x, theta):
        theta = np.asarray(theta, dtype=float)
        x = np.asarray(x, dtype=float)
        return a(theta[..., :r]) + (theta[..., r:] * x if scaled else x)

    def dquantile_dtheta(x, theta):
        out = np.zeros((n, p))
        out[:, :r] = da(np.asarray(theta, dtype=float)[:r])
        if scaled:
            out[:, r] = x  # assigned, not added: keeps the sign of a zero x
        return out

    def d2quantile_dtheta2(x, theta):
        out = np.zeros((n, p, p))
        out[:, :r, :r] = d2a(np.asarray(theta, dtype=float)[:r])
        return out

    def dquantile_dx(x, theta):
        return np.full(n, theta[r], dtype=float) if scaled else np.ones(n)

    def cross_hessian(x, theta):
        out = np.zeros((n, p))
        out[:, r:] = 1.0
        return out

    ref_log_density, ref_score, ref_sampler = law
    return QuantileModel(
        family=family,
        n=n,
        p=p,
        quantile=quantile,
        dquantile_dtheta=dquantile_dtheta,
        d2quantile_dtheta2=d2quantile_dtheta2,
        dquantile_dx=dquantile_dx,
        cross_hessian=cross_hessian,
        ref_log_density=ref_log_density,
        ref_score=ref_score,
        ref_sampler=ref_sampler,
        param_domain=tuple(domain),
        start=start,
        closed_form=closed_form,
        meta=meta,
    )


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

    if error_law == "normal":
        def closed_form(y):
            mu, sigma = _moments(y)
            if np.any(sigma <= 0.0):
                raise SingularInformationError("degenerate sample, sigma_hat = 0")
            return np.stack([mu, sigma], axis=-1)

        def start(y):
            mu, sigma = _moments(y)
            return np.stack([mu, np.maximum(sigma, 1e-8)], axis=-1)

        family, law = "location-scale", _normal_law(n, 1.0)
    else:
        def start(y):
            q75, q25 = np.percentile(y, [75.0, 25.0])
            return np.array([float(np.median(y)), max(0.5 * float(q75 - q25), 1e-8)])

        closed_form = None
        family, law = "cauchy-location-scale", _cauchy_law(n)

    # a(mu) = mu broadcasts over the n coordinates
    return _affine_model(family, n, lambda mu: mu, lambda mu: 1.0, lambda mu: 0.0,
                         True, law, (_UNBOUNDED, _POSITIVE), start, closed_form,
                         {"error_law": error_law})


def _circle_mean(rho: float, n: int):
    """(a, da, d2a) of the circle mean rho (cos t, sin t, 0, ..., 0)."""
    if n < 2:
        raise InvalidDimensionError("circle family needs n >= 2")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise InvalidParameterError("rho must be positive and finite")

    def a(theta):
        angle = np.asarray(theta, dtype=float)[..., 0]
        out = np.zeros(angle.shape + (n,))
        out[..., 0] = rho * np.cos(angle)
        out[..., 1] = rho * np.sin(angle)
        return out

    def da(theta):
        out = np.zeros((n, 1))
        out[0, 0] = -rho * math.sin(theta[0])
        out[1, 0] = rho * math.cos(theta[0])
        return out

    def d2a(theta):
        out = np.zeros((n, 1, 1))
        out[0, 0, 0] = -rho * math.cos(theta[0])
        out[1, 0, 0] = -rho * math.sin(theta[0])
        return out

    return a, da, d2a


def make_circle(rho: float, n: int = 2, variance_scale: float = 1.0) -> QuantileModel:
    """Circle mean family y = rho (cos t, sin t, 0, ..., 0)' + x.

    The reference coordinates are independent mean-0 Normals with variance
    variance_scale; p = 1.  n = 2 gives the planar family, n > 2 embeds the
    same circle in higher dimension (rotation taken as the identity).
    """
    a, da, d2a = _circle_mean(rho, n)
    if not (variance_scale > 0.0 and math.isfinite(variance_scale)):
        raise InvalidParameterError("variance_scale must be positive and finite")

    def start(y):
        return np.array([math.atan2(y[1], y[0])])

    def closed_form(y):
        if math.hypot(y[0], y[1]) == 0.0:
            raise SingularInformationError("data at the circle center, angle undefined")
        return start(y)

    return _affine_model("circle2d" if n == 2 else "circleN", n, a, da, d2a, False,
                         _normal_law(n, variance_scale), (_UNBOUNDED,), start, closed_form,
                         {"rho": float(rho), "variance_scale": float(variance_scale)})


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
    a, da, d2a = _circle_mean(rho, n)
    return EtaHandle(tag="circle", n=n, r=1, value=a, jac=da, hess=d2a)


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


def _regression_start(mean, r: int, scaled: bool):
    """Newton start for regression: a scalar mean parameter is the best point
    of a coarse grid over [-3, 3] (a longer one starts at 0); an unknown sigma
    (scaled) starts at the root mean square residual."""
    axis = np.linspace(-3.0, 3.0, 61)

    def start(y):
        head = np.zeros(r)
        if r == 1:
            sse = np.sum((y - mean(axis[:, None])) ** 2, axis=1)
            head[0] = axis[np.argmin(sse)]
        if not scaled:
            return head
        resid = y - mean(head)
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

    scaled = sigma_mode == "unknown"
    if scaled:
        var, meta = 1.0, {"eta": eta.tag, "sigma_mode": "unknown"}
    else:
        if not (isinstance(sigma_mode, tuple) and len(sigma_mode) == 2
                and sigma_mode[0] == "known"):
            raise InvalidParameterError(
                "sigma_mode must be 'unknown' or ('known', sigma0)"
            )
        sigma0 = float(sigma_mode[1])
        if not (sigma0 > 0.0 and math.isfinite(sigma0)):
            raise InvalidParameterError("sigma0 must be positive and finite")
        var, meta = sigma0 * sigma0, {"eta": eta.tag, "sigma_mode": "known", "sigma0": sigma0}

    return _affine_model(f"nonlinreg-{meta['sigma_mode']}-sigma", n, eta.value, eta.jac,
                         eta.hess, scaled, _normal_law(n, var),
                         (_UNBOUNDED,) * r + (_POSITIVE,) * scaled,
                         _regression_start(eta.value, r, scaled), None, meta)


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


def _build_eta(config: dict) -> EtaHandle:
    tag = config["eta"]
    if tag == "circle":
        if "rho" not in config:
            raise InvalidParameterError("eta 'circle' needs key 'rho'")
        return eta_circle(float(config["rho"]), config_int(config.get("n", 2), "n"))
    if tag == "curved":
        if "n" not in config:
            raise InvalidParameterError("eta 'curved' needs key 'n'")
        return eta_curved(config_int(config["n"], "n"))
    raise UnsupportedFamilyError(f"unknown eta tag {tag!r} (use 'circle' or 'curved')")


def _circle_from_config(config: dict, n: int) -> QuantileModel:
    return make_circle(float(config["rho"]), n=n,
                       variance_scale=float(config.get("variance_scale", 1.0)))


def _circle2d_from_config(config: dict) -> QuantileModel:
    if config_int(config.get("n", 2), "n") != 2:
        raise InvalidParameterError("circle2d has n = 2; use circleN for n > 2")
    return _circle_from_config(config, 2)


def _regression_from_config(config: dict, mode: str) -> QuantileModel:
    eta = _build_eta(config)
    if config.get("sigma_mode", mode) != mode:
        raise InvalidParameterError(f"sigma_mode must be '{mode}' for this family")
    sigma_mode = ("known", float(config.get("sigma0", 1.0))) if mode == "known" else mode
    return make_nonlinear_regression(eta, sigma_mode)


def _location_scale_from_config(config: dict, law: str) -> QuantileModel:
    return make_location_scale(config_int(config["n"], "n"), error_law=law)


# family -> (required keys besides "family", optional keys, model factory)
_FAMILIES = {
    "location-scale": ({"n"}, {"error_law"}, lambda c: _location_scale_from_config(
        c, c.get("error_law", "normal"))),
    "cauchy-location-scale": ({"n"}, set(), lambda c: _location_scale_from_config(
        c, "cauchy")),
    "inverted-cauchy": ({"n"}, set(), lambda c: invert_coordinates(
        _location_scale_from_config(c, "cauchy")).model),
    "circle2d": ({"rho"}, {"n", "variance_scale"}, _circle2d_from_config),
    "circleN": ({"n", "rho"}, {"variance_scale"}, lambda c: _circle_from_config(
        c, config_int(c["n"], "n"))),
    "nonlinreg-known-sigma": ({"eta"}, {"n", "rho", "sigma0", "sigma_mode"},
                              lambda c: _regression_from_config(c, "known")),
    "nonlinreg-unknown-sigma": ({"eta"}, {"n", "rho", "sigma_mode"},
                                lambda c: _regression_from_config(c, "unknown")),
}


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
    if family not in _FAMILIES:
        raise UnsupportedFamilyError(
            f"unknown family {family!r}; known: {sorted(_FAMILIES)}"
        )
    required, optional, build = _FAMILIES[family]
    keys = set(config) - {"family"}
    unknown = keys - required - optional
    if unknown:
        raise InvalidParameterError(
            f"unknown keys for family {family!r}: {sorted(unknown)}"
        )
    missing = required - keys
    if missing:
        raise InvalidParameterError(
            f"missing keys for family {family!r}: {sorted(missing)}"
        )
    return build(config)
