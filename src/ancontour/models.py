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
each family adds its own Newton start and, where one exists, its closed-form
estimate and exact ancillary.

Instances are frozen; samplers take explicit seeds, so models are safe to
share.
"""

from __future__ import annotations

import json
import math
import sys
from dataclasses import dataclass, field
from typing import Callable, NamedTuple

import numpy as np

from . import _EXPORTS
from ._jsonio import config_block
from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    SingularInformationError,
    UnsupportedFamilyError,
)

__all__ = _EXPORTS["models"]

_UNBOUNDED = (-math.inf, math.inf)
_POSITIVE = (0.0, math.inf)
# ndarray.all, any, sum, max and min without their Python wrappers; axis 0 by default
_all, _any, _sum, _max, _min = (
    u.reduce for u in (np.logical_and, np.logical_or, np.add, np.maximum, np.minimum))


# A dataclass, unlike the package's NamedTuple records: span tracers outside
# the package rebuild a model with some callables swapped by dataclasses.replace.
@dataclass(frozen=True)
class QuantileModel:
    """Bundle of quantile-map callables defining one parametric family.

    Every family is affine in x: q(x; theta) = q(0; theta) + dq_dx(theta) * x
    coordinate-wise.  Quantile callables take theta (p,) or rows (K, p) and x
    (n,) or (K, n); rows add a leading K axis to the output.  For one row,
    quantile and dquantile_dx give (n,), dquantile_dtheta (n, p),
    d2quantile_dtheta2 (n, p, p) symmetric in the trailing axes, and
    cross_hessian (n, p) holding d2 y_i / dx_i dtheta_a.  ref_log_density sums
    over the last axis, (..., n) -> (...); ref_score and ref_score_derivative
    are the elementwise first and second derivatives of each coordinate's
    reference log density; ref_sampler(seed, count) returns (count, n) draws.
    param_domain holds one open interval per parameter coordinate.  start(y)
    is the Newton start for data y, (..., n) -> (..., p); closed_form(y), when
    not None, is the exact MLE; exact_label(y), when not None, is an exact
    ancillary statistic of a point or of rows of points, (..., n) -> (..., m).
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
    ref_score_derivative: Callable[[np.ndarray], np.ndarray]
    ref_sampler: Callable[[int, int], np.ndarray]
    param_domain: tuple
    start: Callable[[np.ndarray], np.ndarray]
    closed_form: Callable[[np.ndarray], np.ndarray] | None = None
    exact_label: Callable[[np.ndarray], np.ndarray] | None = None
    meta: dict = field(default_factory=dict)

    def check_theta(self, theta: np.ndarray) -> np.ndarray:
        theta = np.asarray(theta, dtype=float)
        if theta.shape != (self.p,):
            raise InvalidDimensionError(f"theta has shape {theta.shape}, expected ({self.p},)")
        if not _all(np.isfinite(theta)):
            raise InvalidParameterError("theta has non-finite entries")
        for value, (lo, hi) in zip(theta.tolist(), self.param_domain):
            if not (lo < value < hi):
                raise InvalidParameterError(
                    f"theta value {value!r} outside open domain ({lo}, {hi})")
        return theta

    def check_point(self, y: np.ndarray, name: str = "y") -> np.ndarray:
        y = np.asarray(y, dtype=float)
        if y.shape != (self.n,):
            raise InvalidDimensionError(f"{name} has shape {y.shape}, expected ({self.n},)")
        if not _all(np.isfinite(y)):
            raise InvalidParameterError(f"{name} has non-finite entries")
        return y


def _check_n(n: int, what: str) -> None:
    """InvalidDimensionError unless 2 <= n and n floats fit one numpy array."""
    if not 2 <= n <= sys.maxsize // 8:
        raise InvalidDimensionError(f"{what} needs 2 <= n <= {sys.maxsize // 8}")


def _normal_law(n: int, var: float):
    """(log density, score, score derivative, sampler) of n iid Normal(0, var)."""
    sd = math.sqrt(var)

    def log_density(x):
        x = np.asarray(x, dtype=float)
        return -0.5 * _sum(x * x, -1) / var - 0.5 * n * math.log(2.0 * math.pi * var)

    def score_derivative(x):  # np.full without its Python wrapper
        (out := np.empty(np.shape(x))).fill(-1.0 / var)
        return out

    def sampler(seed, count):
        return sd * np.random.default_rng(seed).standard_normal((count, n))

    return log_density, lambda x: -np.asarray(x, dtype=float) / var, score_derivative, sampler


def _cauchy_law(n: int):
    """(log density, score, score derivative, sampler) of n iid standard Cauchy."""

    def log_density(x):
        x = np.asarray(x, dtype=float)
        return -_sum(np.log1p(x * x), -1) - n * math.log(math.pi)

    def score(x):
        x = np.asarray(x, dtype=float)
        return -2.0 * x / (1.0 + x * x)

    def score_derivative(x):  # -2 (1 - x^2) / (1 + x^2)^2, kept finite as x grows
        u = 1.0 / (1.0 + np.asarray(x, dtype=float) ** 2)
        return 2.0 * u * (1.0 - 2.0 * u)

    def sampler(seed, count):
        return np.random.default_rng(seed).standard_cauchy((count, n))

    return log_density, score, score_derivative, sampler


def _affine_model(family, n, a, da, d2a, scaled, law, domain, start,
                  closed_form, exact_label, meta) -> QuantileModel:
    """The model q(x; theta) = a(theta[:r]) + b(theta) * x, all callables derived here.

    p = len(domain).  With scaled, b is the last coordinate theta[r] (r = p - 1)
    and a does not depend on it; otherwise b = 1 and r = p.  a, da and d2a
    map parameter rows (..., r) to (..., n), (..., n, r) and (..., n, r, r);
    each may return anything that broadcasts to its shape.  b is linear in
    theta, so its second derivative is zero.  law is the reference (log
    density, score, score derivative, sampler).
    """
    p = len(domain)
    r = p - 1 if scaled else p

    def blank(x, theta, *tail):  # float x and theta, and zeros (rows..., n, *tail)
        x, theta = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
        rows = x.shape[:-1] if x.ndim >= theta.ndim else theta.shape[:-1]
        return x, theta, np.zeros(rows + (n,) + tail)

    def quantile(x, theta):
        x, theta = np.asarray(x, dtype=float), np.asarray(theta, dtype=float)
        return a(theta[..., :r]) + (theta[..., r:] * x if scaled else x)

    def dquantile_dtheta(x, theta):
        x, theta, out = blank(x, theta, p)
        out[..., :r] = da(theta[..., :r])
        if scaled:
            out[..., r] = x  # assigned, not added: keeps the sign of a zero x
        return out

    def d2quantile_dtheta2(x, theta):
        x, theta, out = blank(x, theta, p, p)
        out[..., :r, :r] = d2a(theta[..., :r])
        return out

    def dquantile_dx(x, theta):
        x, theta, out = blank(x, theta)
        out[...] = theta[..., r:] if scaled else 1.0
        return out

    def cross_hessian(x, theta):
        x, theta, out = blank(x, theta, p)
        out[..., r:] = 1.0
        return out

    ref_log_density, ref_score, ref_score_derivative, ref_sampler = law
    return QuantileModel(
        family=family, n=n, p=p, quantile=quantile, dquantile_dtheta=dquantile_dtheta,
        d2quantile_dtheta2=d2quantile_dtheta2, dquantile_dx=dquantile_dx,
        cross_hessian=cross_hessian, ref_log_density=ref_log_density, ref_score=ref_score,
        ref_score_derivative=ref_score_derivative, ref_sampler=ref_sampler,
        param_domain=tuple(domain), start=start, closed_form=closed_form,
        exact_label=exact_label, meta=meta,
    )


def _moments(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = y.shape[-1]  # sum / n: np.mean's own reduction and division
    mu = _sum(y, -1, keepdims=True) / n
    return mu[..., 0], np.sqrt(_sum((y - mu) ** 2, -1) / n)


def _moment_fit(y: np.ndarray) -> np.ndarray:
    """Rows (mean, rms) of points (..., n) whose rms deviation is positive:
    the Normal location-scale MLE."""
    mu, rms = _moments(y)
    if _any(rms <= 0.0, None):
        raise SingularInformationError("degenerate sample, sigma_hat = 0")
    return np.concatenate([mu[..., None], rms[..., None]], -1)


def _configuration(y: np.ndarray) -> np.ndarray:
    """(y - mean) / rms: the maximal invariant of y -> m + s y (s > 0), so an
    exact ancillary of every location-scale law, and a one-to-one function
    of any equivariant fit's configuration (y - mu_hat) / sigma_hat."""
    mu, rms = _moments(y)
    if _any(rms <= 0.0, None):
        raise SingularInformationError("degenerate sample, sigma_hat = 0")
    return (y - mu[..., None]) / rms[..., None]


def make_location_scale(n: int, error_law: str = "normal") -> QuantileModel:
    """Location-scale family y = mu 1 + sigma z with standard error law z.

    n >= 2, so that sigma is identifiable; error_law is "normal" or "cauchy".
    Normal errors have a closed-form MLE, which also takes rows of points
    (..., n) -> (..., 2).  Either law has the exact ancillary (y - mean) / rms.
    """
    _check_n(n, "location-scale")
    if error_law not in ("normal", "cauchy"):
        raise UnsupportedFamilyError(f"unknown error law {error_law!r}")

    if error_law == "normal":
        def start(y):
            mu, sigma = _moments(y)
            return np.concatenate([mu[..., None], np.maximum(sigma, 1e-8)[..., None]], -1)

        closed_form, family, law = _moment_fit, "location-scale", _normal_law(n, 1.0)
    else:
        def quartile(s, q):  # np.percentile's linear rule, on rows s sorted along the last axis
            v = q * (s.shape[-1] - 1)
            a, b, t = s[..., int(v)], s[..., int(v) + 1], v - int(v)
            return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t

        def start(y):  # median and half the interquartile range, from one sort
            s = np.sort(y, axis=-1)
            m = s.shape[-1]  # np.median: the mean of the middle one or two
            middle = s[..., (m - 1) // 2:m // 2 + 1]
            return np.concatenate([_sum(middle, -1, keepdims=True) / middle.shape[-1], np.maximum(
                0.5 * (quartile(s, 0.75) - quartile(s, 0.25)), 1e-8)[..., None]], -1)

        closed_form, family, law = None, "cauchy-location-scale", _cauchy_law(n)

    # a(mu) = mu broadcasts over the n coordinates
    return _affine_model(
        family, n, lambda mu: mu, lambda mu: 1.0, lambda mu: 0.0, True, law,
        (_UNBOUNDED, _POSITIVE), start, closed_form, _configuration, {"error_law": error_law})


def _circle_mean(rho: float, n: int):
    """(a, da, d2a) of the circle mean rho (cos t, sin t, 0, ..., 0)."""
    _check_n(n, "circle family")
    if not (rho > 0.0 and math.isfinite(rho)):
        raise InvalidParameterError("rho must be positive and finite")

    def plane(theta, first, second, trailing):
        # rho (first(t), second(t), 0, ..., 0) per row, with trailing unit axes
        angle = np.asarray(theta, dtype=float)[..., 0]
        out = np.zeros(angle.shape + (n,))
        out[..., 0] = rho * first(angle)
        out[..., 1] = rho * second(angle)
        return out.reshape(angle.shape + (n,) + (1,) * trailing)

    return (lambda theta: plane(theta, np.cos, np.sin, 0),
            lambda theta: plane(theta, lambda t: -np.sin(t), np.cos, 1),
            lambda theta: plane(theta, lambda t: -np.cos(t), lambda t: -np.sin(t), 2))


def make_circle(rho: float, n: int = 2, variance_scale: float = 1.0) -> QuantileModel:
    """Circle mean family y = rho (cos t, sin t, 0, ..., 0)' + x.

    The reference coordinates are independent mean-0 Normals with variance
    variance_scale; p = 1.  n = 2 gives the planar family, n > 2 embeds the
    same circle in higher dimension (rotation taken as the identity).  The
    radius |(y_1, y_2)| with y_3..y_n is an exact ancillary.
    """
    a, da, d2a = _circle_mean(rho, n)
    if not (variance_scale > 0.0 and math.isfinite(variance_scale)):
        raise InvalidParameterError("variance_scale must be positive and finite")

    def start(y):  # math.atan2: np.arctan2 differs from it in the last bit
        y = np.asarray(y, dtype=float)
        angle = [math.atan2(v, u) for u, v in y[..., :2].reshape(-1, 2).tolist()]
        return np.array(angle).reshape(y.shape[:-1] + (1,))

    def closed_form(y):
        if math.hypot(y[0], y[1]) == 0.0:
            raise SingularInformationError("data at the circle center, angle undefined")
        return start(y)

    def exact_label(y):
        return np.concatenate([np.hypot(y[..., :1], y[..., 1:2]), y[..., 2:]], axis=-1)

    return _affine_model(
        "circle2d" if n == 2 else "circleN", n, a, da, d2a, False, _normal_law(n, variance_scale),
        (_UNBOUNDED,), start, closed_form, exact_label,
        {"rho": float(rho), "variance_scale": float(variance_scale)})


class EtaHandle(NamedTuple):
    """Mean-curve handle for regression families.

    Each callable takes one row theta (r,) or rows (..., r): value gives
    (..., n), jac (..., n, r) and hess (..., n, r, r), one entry per row.
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
    _check_n(n, "curved mean")
    idx = np.arange(n)
    v = 1.0 + 0.3 * np.sin(2.0 * math.pi * idx / n + 0.7)
    w = 0.8 * np.cos(4.0 * math.pi * idx / n + 0.3)
    return EtaHandle(
        tag="curved",
        n=n,
        r=1,
        value=lambda th: v * th + 0.5 * w * th ** 2,  # th: (1,) or (..., 1)
        jac=lambda th: (v + w * th[..., :1])[..., None],
        hess=lambda th: w.reshape(n, 1, 1),
    )


def _regression_start(mean, r: int, scaled: bool):
    """Newton start for regression: a scalar mean parameter at the vertex of the parabola
    through the residual sums of squares at the best point of a grid over [-3, 3] and its
    neighbours (at that point on the grid's ends or where the parabola is not convex; a
    longer one at 0); an unknown sigma (scaled) at the root mean square residual."""
    axis = np.linspace(-3.0, 3.0, 61)

    def start(y):
        y = np.asarray(y, dtype=float)
        head = np.zeros(y.shape[:-1] + (r,))
        if r == 1:
            grid = mean(axis[:, None])  # sse_k - |y|^2 = |G_k|^2 - 2 G_k y: no other (61, n) array
            sse = np.einsum("kn,kn->k", grid, grid) - 2.0 * (grid @ y[..., None])[..., 0]
            k = sse.argmin(axis=-1)  # sse at k and its neighbours, clipped at an end (unused)
            at = np.arange(0, sse.size, 61).reshape(k.shape) + k
            low, mid, high = sse.take(np.add.outer((-1, 0, 1), at), mode="clip")
            bend = low - 2.0 * mid + high  # no shift on the grid's ends or where sse is flat
            shift = np.divide(low - high, bend, out=np.zeros(k.shape),
                              where=(bend > 0.0) & (k % 60 > 0))
            head[..., 0] = axis[k] + 0.05 * shift  # 0.05: half the grid spacing
        if not scaled:
            return head
        sigma = np.sqrt(_sum((y - mean(head)) ** 2, -1, keepdims=True) / y.shape[-1])
        return np.concatenate([head, np.maximum(sigma, 1e-8)], axis=-1)

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
                         _regression_start(eta.value, r, scaled), None, None, meta)


def make_synthetic_curved(n: int) -> QuantileModel:
    """Scalar curved-mean regression with known unit variance, for order studies."""
    return make_nonlinear_regression(eta_curved(n), sigma_mode=("known", 1.0))


def non_invertible_mask(points: np.ndarray, tol: float = 1e-12) -> np.ndarray:
    """True for points with any (near-)zero coordinate: 1/y has no image there."""
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return _any(np.abs(points) <= tol, 1)


# eta tag -> (its keys: a default, or the type of a required key; the handle of the typed keys)
_ETAS = {"circle": ({"rho": float, "n": 2}, lambda c: eta_circle(c["rho"], c["n"])),
         "curved": ({"n": int}, lambda c: eta_curved(c["n"]))}
# family -> (its keys, as for _ETAS, and those of its eta tag; the model of the typed keys)
_FAMILIES = {
    "location-scale": ({"n": int}, lambda c: make_location_scale(c["n"])),
    "cauchy-location-scale": ({"n": int}, lambda c: make_location_scale(c["n"], "cauchy")),
    "circle2d": ({"rho": float, "n": 2, "variance_scale": 1.0},
                 lambda c: make_circle(c["rho"], c["n"], c["variance_scale"])),
    "circleN": ({"n": int, "rho": float, "variance_scale": 1.0},
                lambda c: make_circle(c["rho"], c["n"], c["variance_scale"])),
    "nonlinreg-known-sigma": ({"eta": str, "sigma0": 1.0}, lambda c: make_nonlinear_regression(
        _ETAS[c["eta"]][1](c), ("known", c["sigma0"]))),
    "nonlinreg-unknown-sigma": ({"eta": str}, lambda c: make_nonlinear_regression(
        _ETAS[c["eta"]][1](c), "unknown")),
}


def _tagged(table: dict, config: dict, key: str):
    """table's entry for config[key]; UnsupportedFamilyError unless that is a key of table."""
    tag = config.get(key)
    if not (isinstance(tag, str) and tag in table):
        raise UnsupportedFamilyError(f"unknown {key} {tag!r}; known: {sorted(table)}")
    return table[tag]


def model_from_config(config) -> QuantileModel:
    """Build a model from a JSON object or its text: "family", that family's
    keys and, for a regression, those of its "eta" tag (config_block's rule).
    The model's family is the config's: a circle's n picks no other family.
    """
    if isinstance(config, str):
        try:
            config = json.loads(config)
        except ValueError as exc:
            raise InvalidParameterError(f"model config is not JSON: {exc}") from None
    if not isinstance(config, dict):
        raise InvalidParameterError(f"'model' must be an object, got {config!r}")
    declared, build = _tagged(_FAMILIES, config, "family")
    if "eta" in declared:
        declared = {**declared, **_tagged(_ETAS, config, "eta")[0]}
    family = config["family"]
    model = build(config_block(config, {"family": str, **declared}, f"{family} model"))
    if model.family != family:
        raise InvalidParameterError(f"'n' = {model.n} makes a {model.family} model, not {family}")
    return model
