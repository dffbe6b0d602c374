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
scale, so flat likelihood ridges raise SingularInformationError.  LAPACK is
called through numpy's gufuncs, the kernels behind np.linalg: the same bits,
without wrapper checks that cost more than p x p arithmetic.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np
from numpy.linalg import _umath_linalg

from . import _EXPORTS
from .errors import (
    ConvergenceError,
    InvalidParameterError,
    SingularInformationError,
)
from .models import QuantileModel, _all, _any, _max, _min, _sum

__all__ = _EXPORTS["estimation"]

_SCORE_TOL = 1e-8
_STEP_TOL = 1e-10
_MAX_ITER = 100
# A fit is accepted only if the smallest information eigenvalue exceeds this
# fraction of the largest (plain positivity for p = 1).  On the flat ridge of
# two-observation Cauchy data the ratio is rounding noise, |ratio| < 1e-15;
# identifiable fits in seeded runs of every family sit above 1e-3.
_RANK_TOL = 1e-10
_SCALES = 0.5 ** np.arange(40)  # the backtracking scales of _line_search, one a call


class FitResult(NamedTuple):
    """MLE output: estimate, fitted point, reference value, curvature, diagnostics."""

    theta_hat: np.ndarray
    y_fit: np.ndarray
    x_hat: np.ndarray
    obs_info: np.ndarray
    loglik: float
    converged: bool
    iterations: int
    score_norm: float


def _likelihood(model, y, theta):
    """(x, log-likelihood, score, observed information) of rows y (K, n) at
    unchecked rows theta (K, p), in one pass.

    Implicit differentiation of y = a + b x at fixed y gives, coordinate-wise
    with D = b, V = dquantile_dtheta, B = cross_hessian / D and
    W = d2quantile_dtheta2 / D: dx = -V / D and d2x = -(W + B dx' + dx B').
    B = grad log D and b is linear in theta, so with g the reference log
    density the Hessian is sum g''(x) dx dx' + sum g'(x) d2x + B'B.  With
    v = -dx, w = -d2x and g1 = -g'(x) each product in these sums keeps its
    bits and sign; D is repeated over p.  Stacked matmuls give each row a
    one-row call's bits.
    """
    k, p = theta.shape
    x, d, value = _values(model, y, theta)
    d = d[..., None].repeat(p, -1)
    v, b = model.dquantile_dtheta(x, theta) / d, model.cross_hessian(x, theta) / d
    v_t, g1 = v.swapaxes(1, 2), -model.ref_score(x)
    c = b[..., :, None] * v[..., None, :]
    w = model.d2quantile_dtheta2(x, theta) / d[..., None] - c - c.swapaxes(2, 3)
    hess = ((v_t * model.ref_score_derivative(x)[:, None, :]) @ v
            + (g1[:, None, :] @ w.reshape(x.shape + (p * p,))).reshape(k, p, p)
            + b.swapaxes(1, 2) @ b)
    s = (v_t @ g1[..., None])[..., 0] - _sum(b, 1)
    return x, value, s, -0.5 * (hess + hess.swapaxes(1, 2))


def _values(model, y, theta):
    """(x, dquantile_dx, log-likelihood) of rows y (K, n) at unchecked rows theta (K, p)."""
    zero = np.zeros(model.n)
    d = model.dquantile_dx(zero, theta)  # 1 or a sigma that check_theta keeps positive
    x = (y - model.quantile(zero, theta)) / d
    return x, d, model.ref_log_density(x) - _sum(np.log(d), -1)


def _at(model, y, theta):
    """_likelihood of one point y (n,) at one parameter row, both checked."""
    y, theta = model.check_point(y), model.check_theta(theta)
    x, value, s, info = _likelihood(model, y[None], theta[None])
    return x[0], float(value[0]), s[0], info[0]


def fitted_reference(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Solve y = q(x; theta) coordinate-wise for the reference value x."""
    return _values(model, model.check_point(y), model.check_theta(theta))[0]


def loglik(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> float:
    """Exact log-likelihood via the reference density and the x-Jacobian."""
    return _at(model, y, theta)[1]


def score(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Analytic score via implicit differentiation of the reference solve."""
    return _at(model, y, theta)[2]


def observed_information(model: QuantileModel, y: np.ndarray, theta: np.ndarray) -> np.ndarray:
    """Negative Hessian of the log-likelihood, in closed form."""
    return _at(model, y, theta)[3]


def closed_form_mle(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """The model's closed-form estimate; InvalidParameterError if it has none."""
    y = model.check_point(y)
    if model.closed_form is None:
        raise InvalidParameterError(f"no closed form for family {model.family!r}")
    return model.closed_form(y)


def _on_log_axes(logs, values, fn):
    # fn (math.log or math.exp) per element: numpy's vector log and exp can
    # differ from them in the last bit, and a fit must not depend on its batch
    out = np.array(values, dtype=float)
    flat = out.reshape(-1, out.shape[-1])
    for j in logs.nonzero()[0]:
        flat[:, j] = list(map(fn, flat[:, j].tolist()))
    return out


def _newton_system(logs, theta, s, info):
    """(information, score) in the internal coordinates, by the chain rule:
    on a log axis (logs True) theta_j = exp(z_j), so the score is scaled by
    theta_j and the information by theta_j theta_k, less s_j theta_j on the
    diagonal; with none, both are returned as they are.  One row or (K, p).
    """
    if not _any(logs):
        return info, s
    jac = np.where(logs, theta, 1.0)
    diag = np.where(logs, grad := s * jac, 0.0)
    return info * (jac[..., :, None] * jac[..., None, :]) - diag[..., None] * _eye(len(logs)), grad


def _norms(v):
    """Euclidean norm of each row of v (K, m), by the dot product np.linalg.norm uses."""
    return np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])


# np.linalg's eigvalsh (lower triangle), solve, inv and cholesky, same kernels and bits, but a
# failed factorization warns and gives NaN, not LinAlgError: pass stacks known to be well posed
_eigvalsh, _solve, _inv, _cholesky = (_umath_linalg.eigvalsh_lo, _umath_linalg.solve,
                                      _umath_linalg.inv, _umath_linalg.cholesky_lo)
_eye = functools.lru_cache(maxsize=8)(lambda p: np.broadcast_to(np.eye(p), (p, p)))  # read-only


@functools.lru_cache(maxsize=32)
def _domain(param_domain):
    """Read-only (lo, hi, logs) of param_domain: bounds, and the (0, inf) axes iterated as log."""
    lo, hi = np.array(param_domain).T
    return tuple(np.broadcast_to(a, a.shape) for a in (lo, hi, (lo == 0.0) & np.isinf(hi)))


def _line_search(rows, x, step, evaluate):
    """Move each listed row of x (K, p) (rows: indices, or slice(None) for
    all) to its first candidate x + scale * step, scale 1, 1/2, ..., 1/2^39,
    that evaluate accepts; returns |cand - x| for each row of x, NaN where
    none was taken.  One call a scale: evaluate(rows, cand (rows, p)), rows as
    given and then the indices still searching, stores the state of the rows
    it accepts and returns that acceptance (rows,)."""
    (moved := np.empty(len(x))).fill(np.nan)  # np.full without its Python wrapper
    for scale in _SCALES:
        cand = x[rows] + scale * step
        hit = evaluate(rows, cand)
        if _all(hit):  # no index bookkeeping
            moved[rows] = _norms(cand - x[rows])
            x[rows] = cand
            break
        rows = np.arange(len(x))[rows]
        moved[rows[hit]] = _norms(cand[hit] - x[rows[hit]])
        x[rows[hit]] = cand[hit]
        rows, step = rows[~hit], step[~hit]
    return moved


def _newton(model, y, theta, max_iterations=_MAX_ITER, trace=None, damped=False):
    """Newton with backtracking in internal coordinates, rows theta (K, p) for rows y (K, n).

    A row stops at a score norm below 1e-8 (with no loop if all start there),
    a failed line search (no scale of the step stays in the domain and keeps
    the log-likelihood from falling), a step under 1e-10 or the iteration
    limit.  Rows that stop before others are written out, and only the others
    held; rows that stop together (one row always does) are returned as they
    stand.  A singular Hessian raises.  Returns rows (x, theta, iterations,
    converged, log-likelihood, score, information), all _likelihood's at the
    final theta; trace gets the first row's iterates.  damped (the rescue)
    adds lam I to each H whose least eigenvalue is not above 1e-8 |tr H|,
    lam = 1.5 max(0, -eig_min) + 1e-3 |tr H|: every step ascends (Levenberg),
    and a safely positive definite H keeps Newton's quadratic convergence.
    """
    (lo, hi, logs), eye = _domain(model.param_domain), _eye(model.p)
    z = _on_log_axes(logs, theta, math.log)
    theta = _on_log_axes(logs, z, math.exp)
    x, value, s, info = _likelihood(model, y, theta)
    if _all(conv := _norms(s) < _SCORE_TOL):
        return x, theta, np.zeros(len(y), dtype=int), conv, value, s, info
    idx, out = np.arange(len(y)), [np.zeros(len(y), dtype=int), theta, x, value, s, info]

    def evaluate(rows, cand):  # in the domain, and not lowering the log-likelihood
        nonlocal theta, x, value, s, info
        # past 709 math.exp overflows; such a candidate is out of the domain
        theta_c = _on_log_axes(logs, cand, lambda v: math.exp(v) if v <= 709.0 else math.nan)
        ok = _all((theta_c > lo) & (theta_c < hi), 1)
        # one out of the domain is evaluated at its row's theta, and refused
        th = np.where(ok[:, None], theta_c, theta[rows])
        full = _likelihood(model, y[rows], th)
        hit = ok & (full[1] >= value[rows] - 1e-12 * (1.0 + np.abs(value[rows])))
        if isinstance(rows, slice) and _all(hit):  # the pass is the state
            theta, (x, value, s, info) = th, full
        else:
            acc = np.arange(len(theta))[rows][hit]
            theta[acc], x[acc], value[acc], s[acc], info[acc] = (part[hit] for part in (th,) + full)
        return hit

    halt = False  # after a line search: no scale accepted (NaN), or a step under 1e-10
    for count in range(max_iterations + 1):
        done = conv | (halt | (count == max_iterations))
        if _any(done):  # write rows out: iterations, then _likelihood's
            rows = idx[done]
            out[0][rows] = count
            if len(rows) == len(out[0]):
                return x, theta, out[0], conv, value, s, info
            for o, v in zip(out[1:], (theta, x, value, s, info)):
                o[rows] = v[done]
            if len(rows) == len(idx):
                break
            idx, y, z, theta, x, value, s, info = (  # hold only the others
                v[~done] for v in (idx, y, z, theta, x, value, s, info))
        hess, grad = _newton_system(logs, theta, s, info)
        if damped:
            low, size = _eigvalsh(hess)[:, 0], np.abs(hess.trace(axis1=1, axis2=2))
            lam = np.where(low > 1e-8 * size, 0.0, 1.5 * np.maximum(0.0, -low) + 1e-3 * size)
            hess = hess + lam[:, None, None] * eye
        size = np.abs(_eigvalsh(hess))
        big, small = _max(size, 1), _min(size, 1)
        ok = (big <= 1e14 * small) & (small > 0.0)  # cond = big / small <= 1e14, finite
        if not _all(ok):
            k = ok.argmin()
            with np.errstate(divide="ignore", invalid="ignore"):  # inf or nan where small is 0
                cond = big[k] / small[k]
            raise SingularInformationError(
                f"Hessian singular at iterate {count + 1} (cond {cond:.2e})")
        step = _solve(hess, grad[..., None])[..., 0]  # cond <= 1e14: no singular pivot
        if trace is not None and idx[0] == 0:
            trace.append({"iter": count + 1, "theta": theta[0].tolist(), "loglik": float(value[0])})
        halt = ~(_line_search(slice(None), z, step, evaluate) >= _STEP_TOL)
        conv = _norms(s) < _SCORE_TOL
    iterations, theta, x, value, s, info = out
    return x, theta, iterations, _norms(s) < _SCORE_TOL, value, s, info


def fit_mle(model: QuantileModel, y: np.ndarray, init: np.ndarray | None = None) -> FitResult:
    """Fit by Newton iteration with backtracking line search.

    Newton starts at init, by default at model.closed_form(y) where the model
    has one and at model.start(y) otherwise; where it stops short of a score
    norm of 1e-8 (at most 100 iterations), the damped rescue finishes the fit
    (up to 100 more).  The FitResult's iterations count both; its score norm
    is below 1e-8 and its information positive definite relative to its
    scale, or ConvergenceError (with the iterates) or SingularInformationError
    is raised.
    """
    y = model.check_point(y)
    theta, info, x_hat, iterations, value, s = _fit_points(
        model, y[None], init if init is None else model.check_theta(init)[None], [])
    return FitResult(theta_hat=theta[0], y_fit=model.quantile(np.zeros(model.n), theta[0]),
                     x_hat=x_hat[0], obs_info=info[0], loglik=float(value[0]), converged=True,
                     iterations=int(iterations[0]), score_norm=math.sqrt(s[0] @ s[0]))


def _fit_points(model, y, init=None, trace=None):
    """Rows (theta, information, x_hat, iterations, log-likelihood, score) of
    fit_mle on each row of y (K, n) at once: Newton from rows init (by default
    each row's checked closed form or start), the rescue over rows it leaves
    short of a score norm of 1e-8, the convergence check and the rank gate.
    Each row has a one-row fit's bits, all from _newton's last pass."""
    if init is None:
        init = np.array([model.check_theta((model.closed_form or model.start)(row)) for row in y])
    x, theta, iterations, converged, value, s, info = _newton(model, y, init, trace=trace)
    if not _all(converged):
        short = (~converged).nonzero()[0]
        x[short], theta[short], extra, converged[short], value[short], s[short], info[short] = (
            _newton(model, y[short], theta[short], trace=trace, damped=True))
        iterations[short] += extra
    if not _all(converged):
        k = int(converged.argmin())
        raise ConvergenceError(f"no convergence after {iterations[k]} iterations "
                               f"(score norm {math.sqrt(s[k] @ s[k]):.3e})", trace=trace)
    _rank_gate(info)
    return theta, info, x, iterations, value, s


def _rank_gate(info):
    """Raise unless every information matrix is positive definite relative to its scale."""
    eigs = _eigvalsh(info).reshape(-1, info.shape[-1])
    ok = eigs[:, 0] > _RANK_TOL * eigs[:, -1]
    if not _all(ok):
        k = ok.argmin()
        raise SingularInformationError(
            f"observed information not positive definite relative to its scale "
            f"(eigenvalues {eigs[k, 0]:.3e} to {eigs[k, -1]:.3e})")


class StandardizationRecord(NamedTuple):
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
    if obs_info.ndim < 2 or obs_info.shape[-1] != obs_info.shape[-2]:
        raise SingularInformationError(f"information not SPD: shape {obs_info.shape}")
    with np.errstate(invalid="ignore"):  # a matrix that is not SPD factors to NaN
        chol = _cholesky(obs_info)
    if not _all(np.isfinite(chol), None):
        raise SingularInformationError(
            "information not SPD: Matrix is not positive definite"
            if _all(np.isfinite(obs_info), None) else "information has non-finite entries")
    scales = _inv(chol).swapaxes(-1, -2)
    return StandardizationRecord(chol=chol, scales=scales)
