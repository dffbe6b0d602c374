"""Maximum likelihood fitting and reference-value recovery for quantile models.

Every model is affine in x, q(x; theta) = a(theta) + b(theta) x, so the
reference value x(y, theta) = (y - a) / b is closed form.  The
log-likelihood of y under theta is the reference log density at x(y, theta)
minus the log Jacobian sum(log b).  Implicit differentiation of the
reference solve gives the score and the observed information in closed form,
in one pass, from the model's derivatives and its reference law; nothing is
differenced numerically.  Newton starts and closed-form estimates come from
the model itself, so no family is named here.  Sigma-type parameters
(positive open domain) are iterated on the log scale internally.  A fit is
accepted only where the information is positive definite relative to its
scale, so flat likelihood ridges raise SingularInformationError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

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
# A fit is accepted only if the smallest information eigenvalue exceeds this
# fraction of the largest (plain positivity for p = 1).  On the flat ridge of
# two-observation Cauchy data the ratio is rounding noise, |ratio| < 1e-15;
# identifiable fits in seeded runs of every family sit above 1e-3.
_RANK_TOL = 1e-10


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


def _likelihood(model, y, theta):
    """(x, log-likelihood, score, observed information) at theta in one pass.

    Implicit differentiation of y = a + b x at fixed y gives, coordinate-wise
    with D = b, V = dquantile_dtheta, B = cross_hessian / D and
    W = d2quantile_dtheta2 / D: dx = -V / D and d2x = -(W + B dx' + dx B').
    B = grad log D and b is linear in theta, so with g the reference log
    density the Hessian is sum g''(x) dx dx' + sum g'(x) d2x + B'B.
    """
    theta = model.check_theta(theta)
    x = fitted_reference(model, y, theta)
    d = model.dquantile_dx(x, theta)
    dx = -model.dquantile_dtheta(x, theta) / d[:, None]
    b = model.cross_hessian(x, theta) / d[:, None]
    g1 = model.ref_score(x)
    cross = b[:, :, None] * dx[:, None, :]
    d2x = -(model.d2quantile_dtheta2(x, theta) / d[:, None, None]
            + cross + cross.transpose(0, 2, 1))
    hess = ((dx.T * model.ref_score_derivative(x)) @ dx
            + np.tensordot(g1, d2x, axes=1) + b.T @ b)
    value = model.ref_log_density(x) - float(np.sum(np.log(d)))
    return x, value, dx.T @ g1 - b.sum(axis=0), -0.5 * (hess + hess.T)


def loglik(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> float:
    """Exact log-likelihood via the reference density and the x-Jacobian."""
    return _likelihood(model, y, theta)[1]


def score(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Analytic score via implicit differentiation of the reference solve."""
    return _likelihood(model, y, theta)[2]


def observed_information(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Negative Hessian of the log-likelihood, in closed form."""
    return _likelihood(model, y, theta)[3]


def closed_form_mle(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """The model's closed-form estimate; InvalidParameterError if it has none."""
    y = model.check_point(y)
    if model.closed_form is None:
        raise InvalidParameterError(f"no closed form for family {model.family!r}")
    return model.closed_form(y)


def _log_axes(model) -> np.ndarray:
    """True on the sigma-type coordinates (domain (0, inf)), iterated as log(theta)."""
    return np.array([lo == 0.0 and math.isinf(hi) for lo, hi in model.param_domain])


def _to_internal(model, theta):
    z = np.array(theta, dtype=float)
    for j in np.flatnonzero(_log_axes(model)):
        z[j] = math.log(theta[j])
    return z


def _from_internal(model, z):
    theta = np.array(z, dtype=float)
    for j in np.flatnonzero(_log_axes(model)):
        theta[j] = math.exp(z[j])
    return theta


def _newton_system(model, theta, s, info):
    """(information, score) in the internal coordinates, by the chain rule.

    On a log axis theta_j = exp(z_j), so the score is scaled by theta_j and
    the information by theta_j theta_k, less s_j theta_j on the diagonal.
    """
    logs = _log_axes(model)
    jac = np.where(logs, theta, 1.0)
    return info * np.outer(jac, jac) - np.diag(np.where(logs, s * theta, 0.0)), s * jac


def _polish(model, y, z):
    """Eight undamped Newton steps from the internal point z; returns theta."""
    for _ in range(8):
        theta = _from_internal(model, z)
        _, _, s, info = _likelihood(model, y, theta)
        z = z + np.linalg.solve(*_newton_system(model, theta, s, info))
    return _from_internal(model, z)


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
) -> FitResult:
    """Fit by Newton iteration with backtracking line search.

    Parameters
    ----------
    model, y : family and observed data point.
    init : starting value; model.start(y) when omitted.
    method : "auto" starts Newton from model.closed_form(y) when one exists;
        "closed" returns the closed form directly; "newton" forces iteration
        from the default or given init.

    Returns a FitResult; the score norm at the estimate is below 1e-8 and the
    observed information is positive definite relative to its scale.
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
    theta = _from_internal(model, z)
    _, current, s, info = _likelihood(model, y, theta)
    trace = []
    iterations = 0
    for iterations in range(1, max_iterations + 1):
        if float(np.linalg.norm(s)) < _SCORE_TOL:
            return _finalize(model, y, theta, iterations - 1)
        hess, grad = _newton_system(model, theta, s, info)
        try:
            cond = np.linalg.cond(hess)
        except np.linalg.LinAlgError:
            cond = math.inf
        if not math.isfinite(cond) or cond > 1e14:
            raise SingularInformationError(
                f"Hessian singular at iterate {iterations} (cond {cond:.2e})"
            )
        step = np.linalg.solve(hess, grad)
        trace.append({"iter": iterations, "theta": theta.tolist(), "loglik": current})
        # backtracking: accept the first step that does not reduce the log-likelihood
        scale = 1.0
        for _ in range(40):
            z_new = z + scale * step
            try:
                theta_new = _from_internal(model, z_new)
                _, value, s_new, info_new = _likelihood(model, y, theta_new)
            except (InvalidParameterError, ReferenceSolveError, FloatingPointError):
                scale *= 0.5
                continue
            if value >= current - 1e-12 * (1.0 + abs(current)):
                break
            scale *= 0.5
        else:
            break  # line search failed; the trace ends at the stuck iterate
        moved = float(np.linalg.norm(z_new - z))
        z, theta, current, s, info = z_new, theta_new, value, s_new, info_new
        if moved < _STEP_TOL:
            break

    if float(np.linalg.norm(s)) < _SCORE_TOL:
        return _finalize(model, y, theta, iterations)

    if model.p == 1:
        z = _golden_section(model, y, z[0])
        bracket = _from_internal(model, z)
        if float(np.linalg.norm(score(model, y, bracket))) < math.sqrt(_SCORE_TOL):
            # polish the derivative-free bracket with a couple of Newton steps
            theta = _polish(model, y, z)
    elif method == "auto":
        # Newton stalled away from a stationary point (Cauchy likelihoods are
        # not concave); quasi-Newton in the unconstrained internal coordinates
        # is robust there, followed by the usual Newton polish
        from scipy.optimize import minimize

        def objective(zv):  # negative log-likelihood and its internal gradient
            theta_v = _from_internal(model, zv)
            _, value, s_v, info_v = _likelihood(model, y, theta_v)
            return -value, -_newton_system(model, theta_v, s_v, info_v)[1]

        try:
            res = minimize(objective, z, jac=True, method="BFGS",
                           options={"gtol": 1e-12, "maxiter": 500})
            theta = _polish(model, y, np.asarray(res.x, dtype=float))
        except (AncontourError, np.linalg.LinAlgError, FloatingPointError):
            pass

    norm = float(np.linalg.norm(score(model, y, theta)))
    if norm < _SCORE_TOL:
        return _finalize(model, y, theta, iterations)
    raise ConvergenceError(
        f"no convergence after {iterations} iterations (score norm {norm:.3e})", trace=trace
    )


def _finalize(model, y, theta, iterations) -> FitResult:
    x_hat, value, s, info = _likelihood(model, y, theta)
    eigs = np.linalg.eigvalsh(info)
    if not eigs[0] > _RANK_TOL * eigs[-1]:
        raise SingularInformationError(
            f"observed information not positive definite relative to its scale "
            f"(eigenvalues {eigs[0]:.3e} to {eigs[-1]:.3e})"
        )
    return FitResult(
        theta_hat=theta,
        y_fit=model.quantile(np.zeros(model.n), theta),
        x_hat=x_hat,
        obs_info=info,
        loglik=value,
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
