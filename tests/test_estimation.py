"""Likelihood machinery: fits, score/information oracles, standardization."""

import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize, stats

from ancontour import (
    ConvergenceError,
    FitResult,
    GridSpec,
    InvalidDimensionError,
    InvalidParameterError,
    SingularInformationError,
    build_contour,
    closed_form_mle,
    eta_circle,
    eta_curved,
    fit_mle,
    fitted_reference,
    loglik,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    observed_information,
    score,
    standardize,
)
from ancontour._jsonio import dumps
from ancontour.estimation import (
    _RANK_TOL,
    _SCORE_TOL,
    _cholesky,
    _eigvalsh,
    _fit_points,
    _inv,
    _likelihood,
    _line_search,
    _newton,
    _newton_system,
    _on_log_axes,
    _solve,
)
from conftest import (
    FAMILY_NAMES,
    central_difference,
    iter_instances,
    make_instance,
    second_difference,
)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_fitted_reference_roundtrip(family):
    """quantile(fitted_reference(y, theta), theta) reproduces y exactly, and at
    the estimate it is the fit's x_hat, which the likelihood pass solves."""
    for model, theta, y in iter_instances(family, 10, seed=201):
        x = fitted_reference(model, y, theta)
        np.testing.assert_allclose(model.quantile(x, theta), y,
                                   rtol=1e-10, atol=1e-10)
        fit = fit_mle(model, y)
        assert fitted_reference(model, y, fit.theta_hat).tobytes() == fit.x_hat.tobytes()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_check_theta_rejects_every_non_positive_scale(family):
    """b = dquantile_dx is 1 or the last parameter coordinate, so the reference
    solve y = a + b x needs no guard of its own: check_theta already rejects
    every theta with b <= 0 (and every non-finite one)."""
    rng = np.random.default_rng(211)
    edges = (0.0, -0.0, -5e-324, -1e-300, -1.0, -math.inf, math.inf, math.nan)
    for model, theta, _ in iter_instances(family, 5, seed=211):
        zero = np.zeros(model.n)
        trials = [theta + rng.normal(0.0, 3.0, model.p) for _ in range(200)]
        for edge in edges:
            bad = theta.copy()
            bad[-1] = edge
            trials.append(bad)
        for trial in trials:
            try:
                checked = model.check_theta(trial)
            except (InvalidParameterError, InvalidDimensionError):
                continue
            assert np.all(model.dquantile_dx(zero, checked) > 0.0), trial
        if model.param_domain[-1][0] == 0.0:  # scaled: b is theta[-1]
            for edge in edges[:6]:
                bad = theta.copy()
                bad[-1] = edge
                with pytest.raises(InvalidParameterError):
                    model.check_theta(bad)


def test_loglik_matches_scipy():
    rng = np.random.default_rng(17)
    model = make_location_scale(6)
    y = rng.normal(0.4, 1.3, 6)
    theta = np.array([0.1, 0.9])
    direct = stats.norm.logpdf(y, loc=0.1, scale=0.9).sum()
    assert abs(loglik(model, y, theta) - direct) < 1e-12

    cauchy = make_location_scale(6, error_law="cauchy")
    direct = stats.cauchy.logpdf(y, loc=0.1, scale=0.9).sum()
    assert abs(loglik(cauchy, y, theta) - direct) < 1e-12

    circ = make_circle(1.2, n=3, variance_scale=0.25)
    y3 = y[:3]
    th = np.array([0.6])
    u = np.array([math.cos(0.6), math.sin(0.6), 0.0])
    direct = stats.norm.logpdf(y3 - 1.2 * u, scale=0.5).sum()
    assert abs(loglik(circ, y3, th) - direct) < 1e-12


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_score_matches_fd_of_loglik(family):
    for model, theta, y in iter_instances(family, 6, seed=202):
        fd = central_difference(lambda th: loglik(model, y, th), theta, h=1e-6)
        np.testing.assert_allclose(score(model, y, theta), fd,
                                   rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_internal_newton_system_matches_fd(family):
    """The chain rule into log-sigma coordinates matches differencing there."""
    for model, theta, y in iter_instances(family, 4, seed=206):
        logs = np.array([lo == 0.0 and math.isinf(hi) for lo, hi in model.param_domain])
        z = _on_log_axes(logs, theta, math.log)
        theta = _on_log_axes(logs, z, math.exp)
        internal = lambda zv: loglik(model, y, _on_log_axes(logs, zv, math.exp))
        info, s = _newton_system(logs, theta, score(model, y, theta),
                                 observed_information(model, y, theta))
        np.testing.assert_allclose(s, central_difference(internal, z, h=1e-6),
                                   rtol=1e-5, atol=1e-6)
        np.testing.assert_allclose(info, -second_difference(internal, z, h=1e-4),
                                   rtol=5e-4, atol=5e-4)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_observed_information_matches_fd_hessian(family):
    """Information = negative Hessian of the log likelihood, at generic theta."""
    for model, theta, y in iter_instances(family, 5, seed=203):
        fd = -second_difference(lambda th: loglik(model, y, th), theta, h=1e-4)
        analytic = observed_information(model, y, theta)
        np.testing.assert_allclose(analytic, fd, rtol=5e-4, atol=5e-4)
        np.testing.assert_allclose(analytic, analytic.T, atol=1e-12)


def test_closed_form_location_scale():
    rng = np.random.default_rng(23)
    model = make_location_scale(9)
    y = rng.normal(1.0, 2.0, 9)
    theta = closed_form_mle(model, y)
    assert abs(theta[0] - y.mean()) < 1e-14
    assert abs(theta[1] - math.sqrt(np.mean((y - y.mean()) ** 2))) < 1e-14
    fit = fit_mle(model, y)  # Newton from the closed form stops at its first pass
    assert fit.iterations == 0
    np.testing.assert_allclose(fit.theta_hat, theta, atol=1e-14)
    # label configuration is exactly centered and normalized
    assert abs(fit.x_hat.sum()) < 1e-12
    assert abs(float(fit.x_hat @ fit.x_hat) - 9.0) < 1e-12


def test_closed_form_circle():
    model = make_circle(1.5, n=2, variance_scale=0.3)
    y = np.array([0.8, 0.6])
    theta = closed_form_mle(model, y)
    assert abs(theta[0] - math.atan2(0.6, 0.8)) < 1e-14
    fit = fit_mle(model, y)
    assert fit.converged
    # curvature scalar: radius * distance-from-center / noise variance
    r0 = math.hypot(0.8, 0.6)
    assert abs(fit.obs_info[0, 0] - 1.5 * r0 / 0.3) < 1e-8


def test_closed_form_cauchy_pair():
    """With two observations the Cauchy likelihood is flat along the semicircle
    over [y1, y2] (Copas 1975), so no MLE is unique and every fit raises,
    whatever the location and scale of the pair."""
    model = make_location_scale(2, error_law="cauchy")
    for y in ([-1.0, 2.0], [1.0, 4.0], [-2.0, 4.0]):
        with pytest.raises(SingularInformationError):
            fit_mle(model, np.array(y))


def test_location_scale_information_at_mle():
    rng = np.random.default_rng(31)
    model = make_location_scale(12)
    y = rng.normal(0, 1, 12)
    fit = fit_mle(model, y)
    sigma2 = fit.theta_hat[1] ** 2
    expected = np.diag([12 / sigma2, 24 / sigma2])
    np.testing.assert_allclose(fit.obs_info, expected, rtol=1e-8, atol=1e-7)


def test_location_scale_equivariance():
    rng = np.random.default_rng(37)
    model = make_location_scale(7)
    y = rng.normal(0, 1, 7)
    base = fit_mle(model, y)
    shifted = fit_mle(model, 2.5 + 0.75 * y)
    assert abs(shifted.theta_hat[0] - (2.5 + 0.75 * base.theta_hat[0])) < 1e-10
    assert abs(shifted.theta_hat[1] - 0.75 * base.theta_hat[1]) < 1e-10
    np.testing.assert_allclose(shifted.x_hat, base.x_hat, atol=1e-10)


EQUIVARIANT = {  # model, and the bound on the fit's gap relative to its scale
    "location-scale": (make_location_scale(8), 1e-12),
    # Newton stops at a score norm of 1e-8, which is not scale-free
    "cauchy-location-scale": (make_location_scale(8, error_law="cauchy"), 1e-6),
}


@pytest.mark.parametrize("family", sorted(EQUIVARIANT))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-10.0, 10.0), scale=st.floats(0.1, 10.0))
def test_fit_is_location_scale_equivariant(family, seed, shift, scale):
    """fit_mle(shift + scale y) is (shift + scale mu_hat, scale sigma_hat): to
    rounding of the data's size for the closed-form Normal fit, and relative
    to scale sigma_hat for the Newton fit of the Cauchy law."""
    model, tol = EQUIVARIANT[family]
    y = model.quantile(model.ref_sampler(seed, 1)[0], np.array([0.3, 1.1]))
    (mu, sigma), moved = fit_mle(model, y).theta_hat, fit_mle(model, shift + scale * y)
    gap = np.abs(moved.theta_hat - [shift + scale * mu, scale * sigma])
    size = abs(shift) + scale * (abs(mu) + sigma) if family == "location-scale" else scale * sigma
    assert np.all(gap <= tol * size)


@pytest.mark.parametrize("family", FAMILY_NAMES)
@settings(derandomize=True, database=None, max_examples=50, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_accepted_fit_has_well_ranked_information(family, seed):
    """Every fit fit_mle accepts has an information matrix whose smallest
    eigenvalue exceeds _RANK_TOL times its largest, so it standardizes."""
    model, _, y = make_instance(family, np.random.default_rng(seed))
    fit = fit_mle(model, y)
    eigs = np.linalg.eigvalsh(fit.obs_info)
    assert eigs[0] > _RANK_TOL * eigs[-1]
    assert np.all(np.isfinite(standardize(fit.obs_info).scales))


def test_newton_agrees_with_closed_form():
    """Newton from a start off the closed form iterates to it."""
    rng = np.random.default_rng(41)
    model = make_location_scale(8)
    y = rng.normal(0.5, 1.5, 8)
    closed = closed_form_mle(model, y)
    newton = fit_mle(model, y, init=closed * [1.2, 1.5] + [0.3, 0.0])
    assert newton.iterations > 0
    np.testing.assert_allclose(newton.theta_hat, closed, rtol=1e-8, atol=1e-8)
    assert newton.score_norm < 1e-8


def test_curved_fit_matches_scalar_minimizer():
    """Independent route: 1-d profile optimization with scipy."""
    model = make_nonlinear_regression(eta_curved(14), ("known", 0.6))
    rng = np.random.default_rng(43)
    y = model.quantile(0.6 * rng.standard_normal(14) * 0 + model.ref_sampler(5, 1)[0],
                       np.array([0.4]))
    fit = fit_mle(model, y)
    res = optimize.minimize_scalar(lambda t: -loglik(model, y, np.array([t])),
                                   bounds=(-2.0, 2.0), method="bounded",
                                   options={"xatol": 1e-12})
    assert abs(fit.theta_hat[0] - res.x) < 1e-7
    assert fit.score_norm < 1e-8


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_fit_first_order_conditions(family):
    for model, _, y in iter_instances(family, 6, seed=204):
        fit = fit_mle(model, y)
        assert fit.converged
        assert fit.score_norm < 1e-8
        assert np.linalg.norm(score(model, y, fit.theta_hat)) < 1e-7
        eigs = np.linalg.eigvalsh(fit.obs_info)
        assert eigs.min() > 0
        np.testing.assert_allclose(model.quantile(fit.x_hat, fit.theta_hat), y,
                                   rtol=1e-10, atol=1e-10)


def test_standardize_diagonal():
    record = standardize(np.diag([4.0, 9.0]))
    np.testing.assert_allclose(record.scales, np.diag([0.5, 1.0 / 3.0]),
                               atol=1e-14)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_standardize_whitens(family):
    for model, _, y in iter_instances(family, 4, seed=205):
        fit = fit_mle(model, y)
        record = standardize(fit.obs_info)
        ident = record.scales.T @ fit.obs_info @ record.scales
        np.testing.assert_allclose(ident, np.eye(model.p), atol=1e-10)


def test_standardize_rejects_non_spd():
    with pytest.raises(SingularInformationError):
        standardize(np.array([[1.0, 2.0], [2.0, 1.0]]))
    with pytest.raises(SingularInformationError):
        standardize(np.zeros((2, 2)))


@pytest.mark.parametrize("info", [
    np.array([[1.0, 2.0], [2.0, 1.0]]),
    np.stack([np.eye(2), np.array([[1.0, 0.0], [0.0, -1e-300]]), np.diag([4.0, 9.0])]),
], ids=["one", "stack"])
def test_standardize_names_information_not_spd(info):
    """standardize factors through LAPACK's gufunc, not np.linalg.cholesky: a
    matrix that is not SPD, alone or one member of a stack (K, p, p), still
    raises SingularInformationError, with no warning, and leaves the state
    of numpy's floating-point errors as it found it; so does a stack that is
    not square."""
    before = np.geterr()
    with pytest.raises(SingularInformationError, match="information not SPD"):
        standardize(info)
    assert np.geterr() == before
    with pytest.raises(SingularInformationError, match="information not SPD: shape"):
        standardize(info[..., :1])


def _lapack_stacks(k, p, seed):
    """Seeded float64 stacks (k, p, p): general, symmetric positive definite, and
    right-hand sides (k, p, 1)."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((k, p, p)) * 10.0 ** rng.integers(-3, 4, (k, 1, 1))
    return a, a @ a.swapaxes(1, 2) + p * np.eye(p), rng.standard_normal((k, p, 1))


@pytest.mark.parametrize("k", [1, 3, 17])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_lapack_gufuncs_match_np_linalg_bit_for_bit(k, p):
    """estimation's direct LAPACK calls give the bits of np.linalg's eigvalsh,
    solve, inv and cholesky on seeded general and SPD stacks, and on one
    unstacked matrix factored and inverted as standardize does it; a numpy
    whose private gufuncs differ fails here."""
    a, spd, b = _lapack_stacks(k, p, 1000 * k + p)
    pairs = [(_eigvalsh(spd), np.linalg.eigvalsh(spd)), (_eigvalsh(a), np.linalg.eigvalsh(a)),
             (_solve(a, b), np.linalg.solve(a, b)), (_solve(spd, b), np.linalg.solve(spd, b)),
             (_inv(a), np.linalg.inv(a)), (_cholesky(spd), np.linalg.cholesky(spd)),
             (_inv(_cholesky(spd[0])), np.linalg.inv(np.linalg.cholesky(spd[0])))]
    for mine, numpys in pairs:
        assert mine.shape == numpys.shape and mine.dtype == numpys.dtype == np.float64
        assert mine.tobytes() == numpys.tobytes()


def test_cauchy_quasi_newton_fallback():
    """A heavy-tailed sample where plain Newton stalls still fits, in the
    damped rescue."""
    model = make_location_scale(4, error_law="cauchy")
    y = np.array([-0.760033411767359, 2.0551768100006615,
                  -2.0417065446907747, -0.7852925465289906])
    assert not _newton(model, y[None], model.start(y[None]))[3][0]
    fit = fit_mle(model, y)
    assert fit.converged
    assert fit.score_norm < 1e-8
    assert np.linalg.norm(score(model, y, fit.theta_hat)) < 1e-7


def _count_rescues(monkeypatch, limit=None):
    """Record the row count of every damped Newton call (the rescue); with a
    limit, plain Newton stops after that many iterations."""
    import ancontour.estimation as est

    calls, newton = [], est._newton

    def counted(model, y, theta, *args, **kw):
        if kw.get("damped"):
            calls.append(len(y))
        elif limit is not None:
            kw["max_iterations"] = limit
        return newton(model, y, theta, *args, **kw)

    monkeypatch.setattr(est, "_newton", counted)
    return calls


def _same_stationary_point(model, y, theta, reference):
    """|info (theta - reference)| within what a score norm of 1e-8 allows."""
    gap = observed_information(model, y, reference) @ (theta - np.asarray(reference))
    return np.linalg.norm(gap) < 2.0 * _SCORE_TOL


def test_scalar_forced_rescue(monkeypatch):
    """A one-parameter fit cut off after one Newton step from off the mode is
    finished by the damped rescue at the plain fit."""
    model = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
    y = model.quantile(model.ref_sampler(101, 1)[0], np.array([0.3]))
    plain = fit_mle(model, y)
    assert not _newton(model, y[None], np.array([[1.0]]), 1)[3][0]  # one step stops short
    calls = _count_rescues(monkeypatch, limit=1)
    fit = fit_mle(model, y, init=np.array([1.0]))
    assert calls == [1]
    assert fit.iterations > 1  # Newton's one and the rescue's
    np.testing.assert_allclose(fit.theta_hat, plain.theta_hat, rtol=0, atol=1e-10)
    assert np.linalg.norm(score(model, y, fit.theta_hat)) < 1e-8


def test_vector_forced_rescue(monkeypatch):
    """A two-parameter Cauchy fit cut off after one Newton step is finished by
    the damped rescue at the plain fit's stationary point."""
    model = make_location_scale(8, error_law="cauchy")
    y = _draws(model, (0.3, 1.1), 1, seed=42)[0]
    plain = fit_mle(model, y)
    assert not _newton(model, y[None], model.start(y[None]), 1)[3][0]  # one step stops short
    calls = _count_rescues(monkeypatch, limit=1)
    fit = fit_mle(model, y)
    assert calls == [1]
    assert fit.score_norm < 1e-8
    assert _same_stationary_point(model, y, fit.theta_hat, plain.theta_hat)


# Seeded fit outcomes per family, fit_mle on
# iter_instances(family, 40, seed=2026): every instance converges under plain
# Newton except the listed ones, finished by the rescue at the estimate the
# one-row BFGS rescue gave them; plus one input per family that raises.
RESCUED = {"cauchy-location-scale": {5: [-1.3589187323010794, 0.3503686355308432]}}
RAISES = {
    "location-scale": (make_location_scale(4), np.full(4, 1.7)),
    "cauchy-location-scale": (make_location_scale(2, error_law="cauchy"),
                              np.array([-1.0, 2.0])),
    "circle2d": (make_circle(1.0, n=2), np.zeros(2)),
    "circleN": (make_circle(1.0, n=4), np.zeros(4)),
    "nonlinreg-known-sigma": None,
    "nonlinreg-unknown-sigma": (make_nonlinear_regression(eta_curved(8), "unknown"),
                                np.zeros(8)),
}


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_fit_outcome_table(family, monkeypatch):
    calls, rescued = _count_rescues(monkeypatch), []
    for i, (model, _, y) in enumerate(iter_instances(family, 40, seed=2026)):
        before = len(calls)
        fit = fit_mle(model, y)
        assert fit.score_norm < _SCORE_TOL
        if len(calls) > before:
            rescued.append(i)
            assert _same_stationary_point(model, y, fit.theta_hat, RESCUED[family][i])
    assert rescued == sorted(RESCUED.get(family, {}))
    if RAISES[family] is not None:
        with pytest.raises(SingularInformationError):
            fit_mle(*RAISES[family])


def test_fit_batch_cauchy_rescues_match_recorded():
    """The two fit-batch Cauchy datasets whose fits stall: the dataset fit and
    every stalled row of a batched fit of its contour points from the Newton
    start land on the stationary points recorded from the one-row BFGS rescue."""
    path = os.path.join(os.path.dirname(__file__), "data", "fit_batch_cauchy_rescues.json")
    with open(path) as handle:
        records = json.load(handle)["datasets"]
    model = make_location_scale(8, error_law="cauchy")
    for record in records:
        y = _draws(model, (0.3, 1.1), 16, seed=record["seed"])[record["dataset"]]
        fit = fit_mle(model, y)
        assert fit.score_norm < _SCORE_TOL
        assert _same_stationary_point(model, y, fit.theta_hat, record["theta_hat"])
        # the dataset and the contour points around the recorded estimate
        at = fit_mle(model, y, init=np.array(record["theta_hat"]))
        assert at.theta_hat.tolist() == record["theta_hat"]
        ys = np.vstack([y, build_contour(model, y, GridSpec(2.0, 11), fit=at).points])
        stalled = np.flatnonzero(~_newton(model, ys, model.start(ys))[3])
        assert stalled.tolist() == record["rows"]
        rows = _fit_points(model, ys, model.start(ys))[0]
        for k, theta in zip(stalled, record["theta"]):
            assert _same_stationary_point(model, ys[k], rows[k], theta)


def _draws(model, theta, count, seed):
    return model.quantile(model.ref_sampler(seed, count), np.asarray(theta, dtype=float))


def _one_row_likelihood(model, y, theta):
    """Reference: the one-point likelihood pass, written with 2-D products."""
    zero = np.zeros(model.n)
    x = (y - model.quantile(zero, theta)) / model.dquantile_dx(zero, theta)
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


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_likelihood_rows_match_one_row_reference(family):
    """The row pass gives every row the bits of the one-point pass, signed
    zeros included: where a family has a closed form, its estimates of the
    draws are rows too, and there a score coordinate can be exactly zero."""
    for model, theta, _ in iter_instances(family, 3, seed=213):
        rng = np.random.default_rng(17)
        thetas = theta * np.exp(rng.normal(0.0, 0.2, (7, model.p)))
        ys = _draws(model, theta, 7, seed=19)
        if model.closed_form is not None:
            thetas = np.vstack([thetas, [model.closed_form(y) for y in ys]])
            ys = np.vstack([ys, ys])
        rows = _likelihood(model, ys, thetas)
        for k in range(len(ys)):
            for got, want in zip(rows, _one_row_likelihood(model, ys[k], thetas[k])):
                assert np.asarray(got[k]).tobytes() == np.asarray(want).tobytes()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_fit_many_rows_agree_with_fit_mle(family):
    """Each row of one batched fit from the Newton start is a stationary point
    fit_mle accepts, and it differs from fit_mle's estimate by no more than
    fit_mle's score tolerance allows."""
    for model, theta, _ in iter_instances(family, 3, seed=212):
        ys = _draws(model, theta, 12, seed=31)
        rows = _fit_points(model, ys, model.start(ys))[0]
        assert rows.shape == (12, model.p)
        for y, row in zip(ys, rows):
            fit = fit_mle(model, y)
            assert np.linalg.norm(score(model, y, row)) < _SCORE_TOL
            # one Newton step from fit_mle's estimate: |info (row - theta_hat)| ~ |score|
            gap = observed_information(model, y, fit.theta_hat) @ (row - fit.theta_hat)
            assert np.linalg.norm(gap) < 2.0 * _SCORE_TOL


def test_fit_many_forced_fallback_row():
    """In a batched fit, a row whose Newton line search fails is finished by
    the damped rescue, as fit_mle finishes it, while the other rows keep
    their Newton bits."""
    model = make_location_scale(4, error_law="cauchy")
    hard = np.array([-0.760033411767359, 2.0551768100006615,
                     -2.0417065446907747, -0.7852925465289906])
    ys = np.vstack([_draws(model, (0.3, 1.1), 3, seed=42), hard])
    converged = _newton(model, ys, model.start(ys))[3]
    assert converged.tolist() == [True, True, True, False]
    rows = _fit_points(model, ys, model.start(ys))[0]
    assert rows[:3].tobytes() == _fit_points(model, ys[:3], model.start(ys[:3]))[0].tobytes()
    for y, row in zip(ys, rows):
        assert np.linalg.norm(score(model, y, row)) < _SCORE_TOL
        np.testing.assert_allclose(row, fit_mle(model, y).theta_hat, rtol=0, atol=1e-8)


def test_fit_points_reuse_newtons_values_at_the_estimate():
    """The reference values, log-likelihood, score and information a batched
    fit returns come from its Newton and rescue iterations' last likelihood
    pass, rescued rows included: all of them _likelihood's at the estimate,
    bit for bit."""
    model = make_location_scale(4, error_law="cauchy")
    hard = np.array([-0.760033411767359, 2.0551768100006615,
                     -2.0417065446907747, -0.7852925465289906])
    ys = np.vstack([_draws(model, (0.3, 1.1), 3, seed=42), hard])
    theta, info, x_hat, iterations, value, s = _fit_points(model, ys, model.start(ys))
    assert iterations[3] > _newton(model, ys[3:], model.start(ys[3:]))[2][0]  # rescued
    x_ref, value_ref, s_ref, info_ref = _likelihood(model, ys, theta)
    for got, want in ((x_hat, x_ref), (value, value_ref), (s, s_ref), (info, info_ref)):
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_fit_from_an_answering_start_takes_one_likelihood_pass(family, monkeypatch):
    """Where every start already has a score norm below 1e-8 (a closed form, or
    a fit's own estimate), the fit is one likelihood pass with no iteration,
    and a batch of such rows has each row's one-row bits."""
    import ancontour.estimation as est

    calls, likelihood = [], est._likelihood
    monkeypatch.setattr(est, "_likelihood", lambda *a: calls.append(1) or likelihood(*a))
    for model, theta, y in iter_instances(family, 3, seed=17):
        fit = fit_mle(model, y)
        calls.clear()
        again = fit_mle(model, y, init=fit.theta_hat)
        assert (len(calls), again.iterations) == (1, 0)
        np.testing.assert_allclose(again.theta_hat, fit.theta_hat, rtol=1e-14, atol=0)
        if model.closed_form is not None:
            calls.clear()
            assert (fit_mle(model, y).iterations, len(calls)) == (0, 1)
        rows = np.array([y, y])
        batch = _newton(model, rows, np.array([fit.theta_hat, fit.theta_hat]))
        one = _newton(model, y[None], fit.theta_hat[None])
        for got, want in zip(batch, one):
            assert np.asarray(got[1]).tobytes() == np.asarray(want[0]).tobytes()


def test_fit_many_guards():
    """A batched fit raises on the flat two-observation ridge, and the batched
    partition pass checks every row before it fits any."""
    from ancontour.ancillary import _partition_pass

    ridge = make_location_scale(2, error_law="cauchy")
    with pytest.raises(SingularInformationError):
        _fit_points(ridge, np.array([[-1.0, 2.0]]), ridge.start(np.array([[-1.0, 2.0]])))
    model, t1 = make_location_scale(4, error_law="cauchy"), np.array([1.0, 0.5])
    with pytest.raises(InvalidDimensionError):
        _partition_pass(model, np.zeros((3, 5)), t1, GridSpec(2.0, 5))
    with pytest.raises(InvalidParameterError):
        _partition_pass(model, np.array([[0.0, 1.0, math.nan, 2.0]]), t1, GridSpec(2.0, 5))


def test_convergence_error_carries_trace():
    """A fit that neither Newton nor the rescue finishes raises with its iterates."""
    model = make_location_scale(6, error_law="cauchy")
    y = model.quantile(model.ref_sampler(3, 1)[0], np.array([0.2, 1.3]))
    with pytest.raises(ConvergenceError) as err:
        fit_mle(model, y, init=np.array([1e6, 1.0]))
    assert len(err.value.trace) >= 1


def _fake_likelihood(info_at):
    """A _likelihood stand-in giving every row the score (1, 0) and the
    information info_at(theta): at theta = (mu, 1) the location-scale Newton
    matrix is that information itself, as sigma's log-axis factor is 1."""
    def likelihood(model, y, theta):
        k = len(theta)
        return (np.zeros((k, model.n)), np.zeros(k), np.tile([1.0, 0.0], (k, 1)),
                np.array([info_at(row) for row in theta]))
    return likelihood


@pytest.mark.parametrize("bad, cond", [
    (np.diag([1.0, 1e-15]), "1.00e+15"),
    (np.diag([1.0, 0.0]), None),
    (np.zeros((2, 2)), None),
    (np.diag([math.nan, 1.0]), None),
    (np.diag([math.inf, 1.0]), None),
], ids=["ratio-1e15", "rank-one", "zero", "nan", "inf"])
def test_singular_newton_matrix_raises_at_its_iterate(bad, cond, monkeypatch):
    """The in-loop guard: a Newton matrix whose largest to smallest |eigenvalue|
    ratio exceeds 1e14, or is infinite or NaN (a zero or non-finite matrix),
    raises SingularInformationError naming the iterate that meets it; a ratio of
    1e13 iterates on.  The identity at the start gives the step (1, 0) to mu = 1."""
    import ancontour.estimation as est

    model, y, start = make_location_scale(4), np.zeros((1, 4)), np.array([[0.0, 1.0]])
    monkeypatch.setattr(est, "_likelihood",
                        _fake_likelihood(lambda th: np.eye(2) if th[0] == 0.0 else bad))
    with pytest.raises(SingularInformationError,
                       match=r"^Hessian singular at iterate 2 \(cond ") as err:
        est._newton(model, y, start)
    if cond is not None:
        assert str(err.value).endswith(f"(cond {cond})")
    monkeypatch.setattr(est, "_likelihood", _fake_likelihood(lambda th: np.diag([1.0, 1e-13])))
    assert est._newton(model, y, start, max_iterations=2)[2].tolist() == [2]


# Per family: a model with a small noise scale, so that a start `tiny` from the
# estimate in its first coordinate has a score norm above 1e-8 but a Newton step
# under 1e-10, its true theta, and further starts (theta_hat + shift) * factor
# whose one-row fits stop, under a limit of 5 iterations, by the other rules.
RETIREMENT = {
    "location-scale": (make_location_scale(8), (0.3, 0.05), 3e-12, [
        ((0.006, 0.0), 1.0), ((0.0, 0.0), (1.0, 3.0)), ((0.02, 0.0), 1.0), ((0.04, 0.0), 1.0)]),
    "cauchy-location-scale": (make_location_scale(8, error_law="cauchy"), (0.3, 0.05), 3e-13, [
        ((-0.0036, 0.0), 1.0), ((0.0036, 0.0), 1.0), ((0.02, 0.0), 1.0), ((0.04, 0.0), 1.0)]),
    "circle2d": (make_circle(1.0, n=2, variance_scale=1e-4), (0.3,), 1e-12, [
        ((0.02,), 1.0), ((1.18,), 1.0), ((1.14,), 1.0), ((1.98,), 1.0)]),
    "circleN": (make_circle(1.5, n=4, variance_scale=1e-4), (0.3,), 1e-12, [
        ((0.02,), 1.0), ((1.18,), 1.0), ((1.14,), 1.0), ((1.98,), 1.0)]),
    # the curved mean's fits take full steps from any start: the circle's mean backtracks
    "nonlinreg-known-sigma": (make_nonlinear_regression(eta_circle(1.2, 3), ("known", 0.01)),
                              (0.3,), 1e-12, [((0.02,), 1.0), ((1.18,), 1.0), ((1.14,), 1.0),
                                              ((1.98,), 1.0)]),
    "nonlinreg-unknown-sigma": (make_nonlinear_regression(eta_curved(12), "unknown"),
                                (0.4, 0.02), 3e-13, [((0.0018, 0.0), 1.0), ((0.0, 0.0), (1.0, 3.0)),
                                                     ((0.14, 0.0), 1.0), ((0.08, 0.0), 1.0)]),
}


def _one_row_newton(model, y, theta, limit, monkeypatch):
    """_newton of one row, and the rule that stopped it, read from the moves its
    line searches return and the evaluate calls each one made."""
    import ancontour.estimation as est

    searches, line_search = [], est._line_search

    def recording(rows, x, step, evaluate):
        calls = []
        moved = line_search(rows, x, step, lambda r, cand: calls.append(1) or evaluate(r, cand))
        searches.append((len(calls), float(moved[0])))
        return moved

    monkeypatch.setattr(est, "_line_search", recording)
    out = est._newton(model, y[None], theta[None], limit)
    monkeypatch.setattr(est, "_line_search", line_search)
    if out[2][0] == 0:
        return out, "converged at the start"
    if math.isnan(searches[-1][1]):
        return out, "failed line search"
    if searches[-1][1] < 1e-10:
        return out, "step under 1e-10"
    if not out[3][0]:
        return out, "iteration limit"
    backtracked = any(calls > 1 for calls, _ in searches)
    return out, "score after backtracking" if backtracked else "score"


def test_line_search_tries_one_scale_a_call():
    """The shared line search's contract, on a toy evaluate that accepts row r
    at scales of at most 2^-k[r], and never where k[r] is None: under slice(None)
    every row takes scale 1 in one call; a row first accepted at 2^-k moves
    by 2^-k |step| after k + 1 calls, each of which saw only the rows still
    searching; a row never accepted keeps its x and gets NaN after 40 calls,
    as does a row not listed."""
    def toy(bounds, calls):
        def evaluate(rows, cand):
            calls.append(rows if isinstance(rows, slice) else rows.tolist())
            assert cand.shape == (len(bounds[rows]), 2)
            return cand[:, 0] - 1.0 <= 3.0 * bounds[rows]
        return evaluate

    step = np.array([[3.0, 4.0]] * 5)
    x, calls = np.ones((5, 2)), []
    moved = _line_search(slice(None), x, step, toy(np.ones(5), calls))
    assert calls == [slice(None)]
    assert x.tolist() == [[4.0, 5.0]] * 5 and moved.tolist() == [5.0] * 5

    k = [0, 1, 3, 7, None]
    bounds = np.array([-1.0 if j is None else 0.5**j for j in k])
    x, calls = np.ones((5, 2)), []
    moved = _line_search(slice(None), x, step, toy(bounds, calls))
    assert calls == [slice(None)] + [[row for row, j in enumerate(k) if j is None or j >= call]
                                     for call in range(1, 40)]
    for row, j in enumerate(k):
        if j is None:
            assert x[row].tolist() == [1.0, 1.0] and math.isnan(moved[row])
        else:
            assert moved[row] == 0.5**j * 5.0
            assert x[row].tolist() == [1.0 + 3.0 * 0.5**j, 1.0 + 4.0 * 0.5**j]

    x, calls = np.ones((3, 2)), []
    moved = _line_search(np.array([0, 2]), x, step[:2], toy(np.ones(3), calls))
    assert calls == [[0, 2]] and x[1].tolist() == [1.0, 1.0] and math.isnan(moved[1])
    assert moved[[0, 2]].tolist() == [5.0, 5.0]


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_newton_batch_rows_retire_as_one_row_fits(family, monkeypatch):
    """One batch whose rows stop by every rule (converged at the start, the score
    tolerance after full steps and after backtracking, a step under 1e-10, the
    iteration limit and a failed line search) gives each row the bits,
    iteration count and converged flag of its one-row call.  The rows of the
    first dataset stop by those rules in turn; each is followed by a row of a
    second dataset from the same start relative to its own estimate."""
    model, theta, tiny, starts = RETIREMENT[family]
    ys = model.quantile(model.ref_sampler(7, 2), np.array(theta))
    theta_hats = [fit_mle(model, y).theta_hat for y in ys]
    starts = [(tiny * np.eye(model.p)[0], 1.0)] + [(np.array(shift), f) for shift, f in starts]
    inits = np.array(theta_hats + [(theta_hat + shift) * f for shift, f in starts
                                   for theta_hat in theta_hats])
    y_rows = np.tile(ys, (len(inits) // 2, 1))
    rows = [_one_row_newton(model, y, init, 5, monkeypatch) for y, init in zip(y_rows, inits)]
    assert [rule for _, rule in rows[::2]] == [
        "converged at the start", "step under 1e-10", "score", "score after backtracking",
        "iteration limit", "failed line search"]
    batch = _newton(model, y_rows, inits, 5)
    for k, (one, rule) in enumerate(rows):
        for got, want in zip(batch, one):
            assert np.asarray(got[k]).tobytes() == np.asarray(want[0]).tobytes(), (k, rule)


def test_overflowing_newton_step_is_a_named_failure():
    """A trial sigma past math.exp's range counts as out of the domain, so a
    wild start ends in ConvergenceError, not in an OverflowError."""
    model = make_location_scale(6, error_law="cauchy")
    y = model.quantile(model.ref_sampler(3, 1)[0], np.array([0.2, 1.3]))
    with pytest.raises(ConvergenceError):
        fit_mle(model, y, init=np.array([1e6, 1.0]))


def test_circle_fit_at_center_fails_loudly():
    model = make_circle(1.0, n=2)
    with pytest.raises(SingularInformationError):
        fit_mle(model, np.zeros(2))


def test_degenerate_sample_fails_loudly():
    model = make_location_scale(4)
    with pytest.raises(SingularInformationError):
        fit_mle(model, np.full(4, 1.7))


def test_fit_result_json_roundtrip():
    rng = np.random.default_rng(47)
    model = make_location_scale(5)
    fit = fit_mle(model, rng.normal(0, 1, 5))
    payload = json.loads(dumps(fit))
    np.testing.assert_array_equal(np.array(payload["theta_hat"]), fit.theta_hat)
    np.testing.assert_array_equal(np.array(payload["x_hat"]), fit.x_hat)
    data = np.array(payload["obs_info"]["data"]).reshape(payload["obs_info"]["dims"])
    np.testing.assert_array_equal(data, fit.obs_info)
    assert payload["loglik"] == fit.loglik
    assert payload["converged"] is True
