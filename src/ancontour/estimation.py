"""Maximum likelihood fitting and reference-value recovery for quantile models.

Every model is affine in x, q(x; theta) = a(theta) + b(theta) x, so the
reference value x(y, theta) = (y - a) / b is closed form.  The
log-likelihood of y under theta is the reference log density at x(y, theta)
minus the log Jacobian sum(log b).  Scores are analytic via implicit
differentiation; Hessians come from central differences of the score.
Newton starts and closed-form estimates come from the model itself, so no
family is named here.  Sigma-type parameters (positive open domain) are
iterated on the log scale internally.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from ._jsonio import encode_array
from .errors import (
    AncontourError,
    ConvergenceError,
    InvalidParameterError,
    ReferenceSolveError,
    SingularInformationError,
)
from .models import QuantileModel

__all__ = [
    "FitResult",
    "StandardizationRecord",
    "fitted_reference",
    "loglik",
    "score",
    "observed_information",
    "closed_form_mle",
    "fit_mle",
    "standardize",
]

_SCORE_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 100


@dataclass(frozen=True)
class FitResult:
    """MLE output: estimate, fitted point, reference value, curvature, diagnostics."""

    theta_hat: np.ndarray
    y_fit: np.ndarray
    x_hat: np.ndarray
    obs_info: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    score_norm: float

    def to_json_dict(self) -> dict:
        return {
            "theta_hat": [float(v) for v in self.theta_hat],
            "y_fit": [float(v) for v in self.y_fit],
            "x_hat": [float(v) for v in self.x_hat],
            "obs_info": encode_array(self.obs_info),
            "loglik": float(self.loglik),
            "converged": bool(self.converged),
            "iterations": int(self.iterations),
            "score_norm": float(self.score_norm),
        }


def fitted_reference(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Solve y = q(x; theta) coordinate-wise for the reference value x."""
    y = model.check_point(y)
    theta = model.check_theta(theta)
    zero = np.zeros(model.n)
    a = model.quantile(zero, theta)
    b = model.dquantile_dx(zero, theta)
    if np.any(b <= 0.0):
        raise ReferenceSolveError("dquantile_dx not positive, solve undefined")
    return (y - a) / b


def loglik(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> float:
    """Exact log-likelihood via the reference density and the x-Jacobian."""
    x = fitted_reference(model, y, theta)
    jac = model.dquantile_dx(x, theta)
    return model.ref_log_density(x) - float(np.sum(np.log(jac)))


def score(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Analytic score via implicit differentiation of the reference solve.

    dx/dtheta = -V / D coordinate-wise, and since the model is affine in x
    the Jacobian term contributes exactly -sum(B / D).
    """
    theta = model.check_theta(theta)
    x = fitted_reference(model, y, theta)
    d = model.dquantile_dx(x, theta)
    v = model.dquantile_dtheta(x, theta)
    b = model.cross_hessian(x, theta)
    lref = model.ref_score(x)
    dx_dtheta = -v / d[:, None]
    return dx_dtheta.T @ lref - (b / d[:, None]).sum(axis=0)


def observed_information(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Negative Hessian of the log-likelihood by central differences of the score."""
    theta = model.check_theta(theta)
    p = model.p
    jac = np.empty((p, p))
    for a in range(p):
        h = 1e-6 * max(1.0, abs(theta[a]))
        lo, hi = model.param_domain[a]
        if theta[a] + h >= hi or theta[a] - h <= lo:
            h = 0.25 * min(hi - theta[a], theta[a] - lo)
        up = theta.copy()
        dn = theta.copy()
        up[a] += h
        dn[a] -= h
        jac[:, a] = (score(model, y, up) - score(model, y, dn)) / (2.0 * h)
    info = -0.5 * (jac + jac.T)
    return info


def closed_form_mle(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """The model's closed-form estimate; InvalidParameterError if it has none."""
    y = model.check_point(y)
    if model.closed_form is None:
        raise InvalidParameterError(f"no closed form for family {model.family!r}")
    return model.closed_form(y)


def _to_internal(model, theta):
    z = np.array(theta, dtype=float)
    for j, (lo, hi) in enumerate(model.param_domain):
        if lo == 0.0 and math.isinf(hi):
            z[j] = math.log(theta[j])
    return z


def _from_internal(model, z):
    theta = np.array(z, dtype=float)
    for j, (lo, hi) in enumerate(model.param_domain):
        if lo == 0.0 and math.isinf(hi):
            theta[j] = math.exp(z[j])
    return theta


def _internal_score(model, y, z):
    theta = _from_internal(model, z)
    s = score(model, y, theta)
    for j, (lo, hi) in enumerate(model.param_domain):
        if lo == 0.0 and math.isinf(hi):
            s[j] *= theta[j]
    return s, theta


def _golden_section(model, y, center, half_width=1.6, tol=1e-12):
    # derivative-free fallback for scalar parameters (circle angle)
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = center - half_width, center + half_width
    f = lambda t: -loglik(model, y, _from_internal(model, np.array([t])))
    c, d = b - invphi * (b - a), a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    return np.array([0.5 * (a + b)])


def fit_mle(
    model: QuantileModel,
    y: np.ndarray,
    init: np.ndarray | None = None,
    method: str = "auto",
    max_iterations: int = _MAX_ITER,
    score_tol: float = _SCORE_TOL,
    step_tol: float = _STEP_TOL,
) -> FitResult:
    """Fit by Newton iteration with backtracking line search.

    Parameters
    ----------
    model, y : family and observed data point.
    init : starting value; model.start(y) when omitted.
    method : "auto" starts Newton from model.closed_form(y) when one exists;
        "closed" returns the closed form directly; "newton" forces iteration
        from the default or given init.

    Returns a FitResult; the score norm at the estimate is below score_tol
    and the observed information is symmetric positive definite.
    """
    y = model.check_point(y)
    if method not in ("auto", "newton", "closed"):
        raise InvalidParameterError(f"unknown method {method!r}")

    if method == "closed":
        return _finalize(model, y, closed_form_mle(model, y), iterations=0)

    if init is None:
        closed = method == "auto" and model.closed_form is not None
        init = model.closed_form(y) if closed else model.start(y)
    init = model.check_theta(np.asarray(init, dtype=float))

    z = _to_internal(model, init)
    trace = []
    s, theta = _internal_score(model, y, z)
    current = loglik(model, y, theta)
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if float(np.linalg.norm(score(model, y, theta))) < score_tol:
            return _finalize(model, y, theta, iterations - 1)
        info = _internal_information(model, y, z)
        try:
            cond = np.linalg.cond(info)
        except np.linalg.LinAlgError:
            cond = math.inf
        if not math.isfinite(cond) or cond > 1e14:
            raise SingularInformationError(
                f"Hessian singular at iterate {iterations} (cond {cond:.2e})"
            )
        step = np.linalg.solve(info, s)
        # backtracking: accept the first step that does not reduce the log-likelihood
        scale = 1.0
        for _ in range(40):
            z_new = z + scale * step
            try:
                theta_new = _from_internal(model, z_new)
                model.check_theta(theta_new)
                value = loglik(model, y, theta_new)
            except (InvalidParameterError, ReferenceSolveError, FloatingPointError):
                scale *= 0.5
                continue
            if value >= current - 1e-12 * (1.0 + abs(current)):
                break
            scale *= 0.5
        else:
            # line search failed; record the stuck iterate for diagnostics
            trace.append({"iter": iterations, "theta": theta.tolist(), "loglik": current})
            break
        trace.append({"iter": iterations, "theta": theta.tolist(), "loglik": current})
        moved = float(np.linalg.norm(z_new - z))
        z, theta, current = z_new, theta_new, value
        s, theta = _internal_score(model, y, z)
        if moved < step_tol:
            break

    if float(np.linalg.norm(score(model, y, theta))) < score_tol:
        return _finalize(model, y, theta, iterations)

    if model.p == 1:
        z = _golden_section(model, y, z[0])
        theta = _from_internal(model, z)
        if float(np.linalg.norm(score(model, y, theta))) < math.sqrt(score_tol):
            # polish the derivative-free bracket with a couple of Newton steps
            for _ in range(8):
                s, theta = _internal_score(model, y, z)
                info = _internal_information(model, y, z)
                z = z + np.linalg.solve(info, s)
                theta = _from_internal(model, z)
            if float(np.linalg.norm(score(model, y, theta))) < score_tol:
                return _finalize(model, y, theta, iterations)
    elif method == "auto":
        # Newton stalled away from a stationary point (Cauchy likelihoods are
        # not concave); quasi-Newton in the unconstrained internal coordinates
        # is robust there, followed by the usual Newton polish
        try:
            res = minimize(
                lambda zv: -loglik(model, y, _from_internal(model, zv)),
                z,
                jac=lambda zv: -_internal_score(model, y, zv)[0],
                method="BFGS",
                options={"gtol": 1e-12, "maxiter": 500},
            )
            z = np.asarray(res.x, dtype=float)
            for _ in range(8):
                s, theta = _internal_score(model, y, z)
                info = _internal_information(model, y, z)
                z = z + np.linalg.solve(info, s)
            theta = _from_internal(model, z)
            if float(np.linalg.norm(score(model, y, theta))) < score_tol:
                return _finalize(model, y, theta, iterations)
        except (AncontourError, np.linalg.LinAlgError, FloatingPointError):
            pass

    raise ConvergenceError(
        f"no convergence after {iterations} iterations "
        f"(score norm {float(np.linalg.norm(score(model, y, theta))):.3e})",
        trace=trace,
    )


def _internal_information(model, y, z):
    p = model.p
    jac = np.empty((p, p))
    for a in range(p):
        h = 1e-6 * max(1.0, abs(z[a]))
        up = z.copy()
        dn = z.copy()
        up[a] += h
        dn[a] -= h
        su, _ = _internal_score(model, y, up)
        sd, _ = _internal_score(model, y, dn)
        jac[:, a] = (su - sd) / (2.0 * h)
    return -0.5 * (jac + jac.T)


def _finalize(model, y, theta, iterations) -> FitResult:
    s = score(model, y, theta)
    info = observed_information(model, y, theta)
    eigs = np.linalg.eigvalsh(info)
    if eigs[0] <= 0.0:
        raise SingularInformationError(
            f"observed information not positive definite (min eig {eigs[0]:.3e})"
        )
    x_hat = fitted_reference(model, y, theta)
    y_fit = model.quantile(np.zeros(model.n), theta)
    return FitResult(
        theta_hat=theta,
        y_fit=y_fit,
        x_hat=x_hat,
        obs_info=info,
        loglik=loglik(model, y, theta),
        converged=True,
        iterations=iterations,
        score_norm=float(np.linalg.norm(s)),
    )


@dataclass(frozen=True)
class StandardizationRecord:
    """Information standardization at the fit.

    chol is the lower Cholesky factor L of the observed information; scales
    is L^{-T}, so theta = theta_hat + scales @ t has identity observed
    information in t.  sqrt_n carries the moderate-deviation bookkeeping
    factor n^{1/2} for callers that track it explicitly.
    """

    chol: np.ndarray
    scales: np.ndarray
    sqrt_n: float

    def map_offsets(self, t_std: np.ndarray) -> np.ndarray:
        """Map standardized offsets (rows) to raw parameter offsets."""
        t_std = np.atleast_2d(np.asarray(t_std, dtype=float))
        return t_std @ self.scales.T


def standardize(obs_info: np.ndarray, n: int) -> StandardizationRecord:
    """Cholesky-standardize an observed information matrix (must be SPD)."""
    obs_info = np.asarray(obs_info, dtype=float)
    try:
        chol = np.linalg.cholesky(obs_info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(f"information not SPD: {exc}") from exc
    scales = np.linalg.inv(chol).T
    return StandardizationRecord(chol=chol, scales=scales, sqrt_n=math.sqrt(n))
