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
    ConvergenceError,
    InvalidParameterError,
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
# Backtracking scales of _line_search, and the float64 elements of the largest
# (rows, scales, n) block of Newton candidates, unless one scale is larger
_SCALES = 0.5 ** np.arange(40)
_BLOCK = 1 << 11


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


def _likelihood(model, y, theta):
    """(x, log-likelihood, score, observed information) of rows y (K, n) at
    unchecked rows theta (K, p), in one pass.

    Implicit differentiation of y = a + b x at fixed y gives, coordinate-wise
    with D = b, V = dquantile_dtheta, B = cross_hessian / D and
    W = d2quantile_dtheta2 / D: dx = -V / D and d2x = -(W + B dx' + dx B').
    B = grad log D and b is linear in theta, so with g the reference log
    density the Hessian is sum g''(x) dx dx' + sum g'(x) d2x + B'B.  Stacked
    matmuls give each row the same bits as a one-row call.
    """
    k, p = theta.shape
    x, d, value = _values(model, y, theta)
    dx = -model.dquantile_dtheta(x, theta) / d[..., None]
    b = model.cross_hessian(x, theta) / d[..., None]
    dx_t, g1 = np.swapaxes(dx, 1, 2), model.ref_score(x)
    cross = b[..., :, None] * dx[..., None, :]
    d2x = -(model.d2quantile_dtheta2(x, theta) / d[..., None, None]
            + cross + np.swapaxes(cross, 2, 3))
    hess = ((dx_t * model.ref_score_derivative(x)[:, None, :]) @ dx
            + (g1[:, None, :] @ d2x.reshape(x.shape + (p * p,))).reshape(k, p, p)
            + np.swapaxes(b, 1, 2) @ b)
    s = (dx_t @ g1[..., None])[..., 0] - b.sum(axis=1)
    return x, value, s, -0.5 * (hess + np.swapaxes(hess, 1, 2))


def _values(model, y, theta):
    """(x, dquantile_dx, log-likelihood) of rows y (K, n) at unchecked rows theta (K, p)."""
    zero = np.zeros(model.n)
    d = model.dquantile_dx(zero, theta)  # 1 or a sigma that check_theta keeps positive
    x = (y - model.quantile(zero, theta)) / d
    return x, d, model.ref_log_density(x) - np.sum(np.log(d), axis=-1)


def _at(model, y, theta):
    """_likelihood of one point y (n,) at one checked parameter row."""
    theta = model.check_theta(theta)
    x, value, s, info = _likelihood(model, y[None], theta[None])
    return x[0], float(value[0]), s[0], info[0]


def fitted_reference(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Solve y = q(x; theta) coordinate-wise for the reference value x."""
    y, theta, zero = model.check_point(y), model.check_theta(theta), np.zeros(model.n)
    return (y - model.quantile(zero, theta)) / model.dquantile_dx(zero, theta)


def loglik(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> float:
    """Exact log-likelihood via the reference density and the x-Jacobian."""
    return _at(model, model.check_point(y), theta)[1]


def score(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Analytic score via implicit differentiation of the reference solve."""
    return _at(model, model.check_point(y), theta)[2]


def observed_information(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Negative Hessian of the log-likelihood, in closed form."""
    return _at(model, model.check_point(y), theta)[3]


def closed_form_mle(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """The model's closed-form estimate; InvalidParameterError if it has none."""
    y = model.check_point(y)
    if model.closed_form is None:
        raise InvalidParameterError(f"no closed form for family {model.family!r}")
    return model.closed_form(y)


def _log_axes(model) -> np.ndarray:
    """True on the sigma-type coordinates (domain (0, inf)), iterated as log(theta)."""
    return np.array([lo == 0.0 and math.isinf(hi) for lo, hi in model.param_domain])


def _on_log_axes(model, values, fn):
    # fn (math.log or math.exp) per element: numpy's vector log and exp can
    # differ from them in the last bit, and a fit must not depend on its batch
    out = np.array(values, dtype=float)
    for j in np.flatnonzero(_log_axes(model)):
        out[..., j] = np.reshape([fn(v) for v in np.ravel(out[..., j])], out.shape[:-1])
    return out


def _to_internal(model, theta):
    return _on_log_axes(model, theta, math.log)


def _from_internal(model, z):
    return _on_log_axes(model, z, math.exp)


def _newton_system(model, theta, s, info):
    """(information, score) in the internal coordinates, by the chain rule.

    On a log axis theta_j = exp(z_j), so the score is scaled by theta_j and
    the information by theta_j theta_k, less s_j theta_j on the diagonal.
    Takes one row or rows (K, p).
    """
    logs = _log_axes(model)
    jac = np.where(logs, theta, 1.0)
    diag = np.where(logs, s * theta, 0.0)
    return (info * (jac[..., :, None] * jac[..., None, :])
            - diag[..., None] * np.eye(model.p)), s * jac


def _norms(v):
    """Euclidean norm of each row of v (K, m), by the dot product np.linalg.norm uses."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


def _line_search(rows, x, step, width, block, evaluate):
    """Move each listed row of x (K, p) to its first candidate x + scale * step,
    scale 1, 1/2, ..., 1/2^39, that evaluate accepts; returns the rows with
    none.  Scale 1 goes for every row in one call, then m scales a call with
    rows * m * width <= block (m >= 1).  evaluate(rows, cand (rows, m, p))
    returns the acceptance (rows, m) and keep(acc, pick, moved), called once
    x[acc] is cand[pick] to carry the solver's state and apply its stop rule."""
    k = 0
    while rows.size and k < len(_SCALES):
        m = 1 if k == 0 else min(len(_SCALES) - k, max(1, block // (rows.size * width)))
        cand = x[rows, None] + _SCALES[k:k + m, None] * step[:, None]
        hit, keep = evaluate(rows, cand)
        got = hit.any(axis=1)
        acc, pick = rows[got], (np.flatnonzero(got), hit.argmax(axis=1)[got])
        moved = _norms(cand[pick] - x[acc])
        x[acc] = cand[pick]
        keep(acc, pick, moved)
        rows, step, k = rows[~got], step[~got], k + m
        del cand, hit, keep  # free this block before the next one is built
    return rows


def _newton(model, y, theta, max_iterations=_MAX_ITER, trace=None, damped=False):
    """Newton with backtracking in internal coordinates, rows theta (K, p) for rows y (K, n).

    A row stops at a score norm below 1e-8, a failed line search
    (_line_search finds no scale of the step that stays in the domain and
    keeps the log-likelihood from falling), a step under 1e-10 or the
    iteration limit; a singular Hessian raises.  Returns rows (z, theta,
    iterations, converged, log-likelihood, score, information), the last
    three _likelihood's at the final theta; trace gets the first row's
    iterates.

    damped (the rescue) adds lam I to each information H whose smallest
    eigenvalue is not above 1e-8 |tr H|, lam = 1.5 max(0, -eig_min) +
    1e-3 |tr H|, so every step ascends (Levenberg); where H is safely
    positive definite the step stays Newton's, which keeps convergence
    quadratic near the estimate.
    """
    logs, (lo, hi) = _log_axes(model), np.array(model.param_domain).T

    def evaluate(rows, cand):  # in the domain, and not lowering the log-likelihood
        # past 709 math.exp overflows; such a candidate is out of the domain
        theta_c = _from_internal(model, np.where(logs & (cand > 709.0), np.nan, cand))
        ok = np.all((theta_c > lo) & (theta_c < hi), axis=2)
        of = rows[np.nonzero(ok)[0]]  # the row of each candidate in the domain
        # one scale is evaluated in full; a block of scales by value, then only
        # its accepted candidates in full, so no information is discarded
        full = _likelihood(model, y[of], theta_c[ok]) if cand.shape[1] == 1 else None
        v = _values(model, y[of], theta_c[ok])[2] if full is None else full[1]
        up = np.zeros(ok.shape, dtype=bool)
        up[ok] = v >= current[of] - 1e-12 * (1.0 + np.abs(current[of]))

        def keep(acc, pick, moved):
            theta[acc] = theta_c[pick]
            if full is not None:
                current[acc], s[acc], info[acc] = (part[up[ok]] for part in full[1:])
            elif acc.size:
                _, current[acc], s[acc], info[acc] = _likelihood(model, y[acc], theta[acc])
            active[acc[moved < _STEP_TOL]] = False
        return up, keep

    z = _to_internal(model, theta)
    theta = _from_internal(model, z)
    _, current, s, info = _likelihood(model, y, theta)
    iterations, active = np.zeros(len(y), dtype=int), np.ones(len(y), dtype=bool)
    for _ in range(max_iterations):
        active &= ~(_norms(s) < _SCORE_TOL)
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        iterations[rows] += 1
        hess, grad = _newton_system(model, theta[rows], s[rows], info[rows])
        if damped:
            low, size = np.linalg.eigvalsh(hess)[:, 0], np.abs(np.trace(hess, axis1=1, axis2=2))
            lam = np.where(low > 1e-8 * size, 0.0, 1.5 * np.maximum(0.0, -low) + 1e-3 * size)
            hess = hess + lam[:, None, None] * np.eye(model.p)
        try:
            cond = np.linalg.cond(hess)
        except np.linalg.LinAlgError:
            cond = np.full(len(rows), math.inf)
        if not np.all(cond <= 1e14):
            k = int(np.argmin(cond <= 1e14))
            raise SingularInformationError(
                f"Hessian singular at iterate {iterations[rows[k]]} (cond {cond[k]:.2e})"
            )
        step = np.linalg.solve(hess, grad[..., None])[..., 0]
        if trace is not None and rows[0] == 0:
            trace.append({"iter": int(iterations[0]), "theta": theta[0].tolist(),
                          "loglik": float(current[0])})
        rows = _line_search(rows, z, step, model.n, _BLOCK, evaluate)
        active[rows] = False  # line search failed: the row stays where it is
    return z, theta, iterations, _norms(s) < _SCORE_TOL, current, s, info


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
    method : "auto" starts Newton from model.closed_form(y) when one exists
        and, where Newton stops short, finishes with the damped rescue (up
        to 100 more iterations); "closed" returns the closed form directly;
        "newton" is plain Newton from the default or given init, no rescue.
    max_iterations : limit on the plain Newton iterations.

    Returns a FitResult whose iterations count Newton and rescue together;
    the score norm at the estimate is below 1e-8 and the observed information
    is positive definite relative to its scale.  ConvergenceError otherwise.
    """
    y = model.check_point(y)
    if method not in ("auto", "newton", "closed"):
        raise InvalidParameterError(f"unknown method {method!r}")

    if method == "closed":
        theta = model.check_theta(closed_form_mle(model, y))[None]
        iterations, (x_hat, value, s, info) = [0], _likelihood(model, y[None], theta)
        _rank_gate(info)
    else:
        init = model.start(y) if init is None and method == "newton" else init
        theta, info, x_hat, iterations, value, s = _fit_points(
            model, y[None], init if init is None else model.check_theta(init)[None],
            max_iterations, [], method == "auto")
    return FitResult(theta_hat=theta[0], y_fit=model.quantile(np.zeros(model.n), theta[0]),
                     x_hat=x_hat[0], obs_info=info[0], loglik=float(value[0]), converged=True,
                     iterations=int(iterations[0]), score_norm=float(np.linalg.norm(s[0])))


def _fit_points(model, y, init=None, max_iterations=_MAX_ITER, trace=None, rescue=True):
    """Rows (theta, information, x_hat, iterations, log-likelihood, score) of
    fit_mle on each row of y (K, n) at once: Newton from rows init (by default
    each row's checked closed form or Newton start), then the damped Newton
    (the rescue) over the rows it leaves short of a score norm of 1e-8, so
    rows that converge under plain Newton keep their bits; then the
    convergence check and the rank gate.  Each row has a one-row fit's bits."""
    if init is None:
        init = np.array([model.check_theta((model.closed_form or model.start)(row)) for row in y])
    _, theta, iterations, converged, value, s, info = _newton(model, y, init, max_iterations, trace)
    short = np.flatnonzero(~converged)
    if rescue and short.size:
        _, theta[short], extra, converged[short], value[short], s[short], info[short] = _newton(
            model, y[short], theta[short], trace=trace, damped=True)
        iterations[short] += extra
    if not np.all(converged):
        k = int(np.argmin(converged))
        raise ConvergenceError(f"no convergence after {iterations[k]} iterations "
                               f"(score norm {float(np.linalg.norm(s[k])):.3e})", trace=trace)
    _rank_gate(info)
    return theta, info, _values(model, y, theta)[0], iterations, value, s


def _rank_gate(info):
    """Raise unless every information matrix is positive definite relative to its scale."""
    eigs = np.linalg.eigvalsh(info).reshape(-1, info.shape[-1])[:, [0, -1]]
    bad = eigs[~(eigs[:, 0] > _RANK_TOL * eigs[:, 1])]
    if len(bad):
        raise SingularInformationError(
            f"observed information not positive definite relative to its scale "
            f"(eigenvalues {bad[0, 0]:.3e} to {bad[0, 1]:.3e})"
        )


@dataclass(frozen=True)
class StandardizationRecord:
    """Information standardization at the fit.

    chol is the lower Cholesky factor L of the observed information; scales
    is L^{-T}, so theta = theta_hat + scales @ t has identity observed
    information in t.
    """

    chol: np.ndarray
    scales: np.ndarray

    def map_offsets(self, t_std: np.ndarray) -> np.ndarray:
        """Map standardized offsets (rows) to raw parameter offsets."""
        t_std = np.atleast_2d(np.asarray(t_std, dtype=float))
        return t_std @ self.scales.swapaxes(-1, -2)


def standardize(obs_info: np.ndarray) -> StandardizationRecord:
    """Cholesky-standardize an observed information matrix (must be SPD), or
    a stack of them (K, p, p) one by one; map_offsets then gives (K, rows, p)."""
    obs_info = np.asarray(obs_info, dtype=float)
    try:
        chol = np.linalg.cholesky(obs_info)
    except np.linalg.LinAlgError as exc:
        raise SingularInformationError(f"information not SPD: {exc}") from exc
    scales = np.linalg.inv(chol).swapaxes(-1, -2)
    return StandardizationRecord(chol=chol, scales=scales)
