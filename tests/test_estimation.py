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
    eta_curved,
    fit_mle,
    fitted_reference,
    invert_coordinates,
    loglik,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    observed_information,
    score,
    standardize,
)
from ancontour.estimation import (
    _RANK_TOL,
    _SCORE_TOL,
    _fit_points,
    _from_internal,
    _likelihood,
    _newton,
    _newton_system,
    _to_internal,
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
        z = _to_internal(model, theta)
        theta = _from_internal(model, z)
        internal = lambda zv: loglik(model, y, _from_internal(model, zv))
        info, s = _newton_system(model, theta, score(model, y, theta),
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
    fit = fit_mle(model, y, method="closed")
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
        for method in ("auto", "newton"):
            with pytest.raises(SingularInformationError):
                fit_mle(model, np.array(y), method=method)


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
    "inverted-cauchy": (invert_coordinates(make_location_scale(8, error_law="cauchy")).model,
                        1e-6),
}


@pytest.mark.parametrize("family", sorted(EQUIVARIANT))
@settings(derandomize=True, database=None, max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-10.0, 10.0), scale=st.floats(0.1, 10.0))
def test_fit_is_location_scale_equivariant(family, seed, shift, scale):
    """fit_mle(shift + scale y) is (shift + scale mu_hat, scale sigma_hat): to
    rounding of the data's size for the closed-form Normal fit, and relative
    to scale sigma_hat for the Newton fits of the Cauchy laws."""
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
    rng = np.random.default_rng(41)
    model = make_location_scale(8)
    y = rng.normal(0.5, 1.5, 8)
    closed = fit_mle(model, y, method="closed")
    newton = fit_mle(model, y, method="newton")
    np.testing.assert_allclose(newton.theta_hat, closed.theta_hat,
                               rtol=1e-8, atol=1e-8)
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


def test_cauchy_quasi_newton_fallback():
    """A heavy-tailed sample where plain Newton stalls still fits under auto,
    in the damped rescue; method="newton" has no rescue and raises."""
    model = make_location_scale(4, error_law="cauchy")
    y = np.array([-0.760033411767359, 2.0551768100006615,
                  -2.0417065446907747, -0.7852925465289906])
    with pytest.raises(ConvergenceError):
        fit_mle(model, y, method="newton")
    fit = fit_mle(model, y)
    assert fit.converged
    assert fit.score_norm < 1e-8
    assert np.linalg.norm(score(model, y, fit.theta_hat)) < 1e-7


def _count_rescues(monkeypatch):
    """Record the row count of every damped Newton call (the rescue)."""
    import ancontour.estimation as est

    calls, newton = [], est._newton

    def counted(model, y, theta, *args, **kw):
        if kw.get("damped"):
            calls.append(len(y))
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
    calls = _count_rescues(monkeypatch)
    fit = fit_mle(model, y, init=np.array([1.0]), max_iterations=1)
    assert calls == [1]
    assert fit.iterations > 1  # Newton's one and the rescue's
    np.testing.assert_allclose(fit.theta_hat, plain.theta_hat, rtol=0, atol=1e-10)
    assert np.linalg.norm(score(model, y, fit.theta_hat)) < 1e-8
    with pytest.raises(ConvergenceError):  # no rescue under method="newton"
        fit_mle(model, y, init=np.array([1.0]), method="newton", max_iterations=1)


def test_vector_forced_rescue(monkeypatch):
    """A two-parameter Cauchy fit cut off after one Newton step is finished by
    the damped rescue at the plain fit's stationary point."""
    model = make_location_scale(8, error_law="cauchy")
    y = _draws(model, (0.3, 1.1), 1, seed=42)[0]
    plain = fit_mle(model, y)
    calls = _count_rescues(monkeypatch)
    fit = fit_mle(model, y, max_iterations=1)
    assert calls == [1]
    assert fit.score_norm < 1e-8
    assert _same_stationary_point(model, y, fit.theta_hat, plain.theta_hat)
    with pytest.raises(ConvergenceError):
        fit_mle(model, y, method="newton", max_iterations=1)


# Seeded fit outcomes per family, fit_mle under method="auto" on
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
        at = fit_mle(model, y, init=np.array(record["theta_hat"]), method="newton")
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
    """The row pass gives every row the bits of the one-point pass."""
    for model, theta, _ in iter_instances(family, 3, seed=213):
        rng = np.random.default_rng(17)
        thetas = theta * np.exp(rng.normal(0.0, 0.2, (7, model.p)))
        ys = _draws(model, theta, 7, seed=19)
        rows = _likelihood(model, ys, thetas)
        for k in range(7):
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
    """The log-likelihood, score and information a batched fit returns come
    from its Newton and rescue iterations, rescued rows included, and its
    reference values from the closed-form solve: all of them _likelihood's
    at the estimate, bit for bit."""
    model = make_location_scale(4, error_law="cauchy")
    hard = np.array([-0.760033411767359, 2.0551768100006615,
                     -2.0417065446907747, -0.7852925465289906])
    ys = np.vstack([_draws(model, (0.3, 1.1), 3, seed=42), hard])
    theta, info, x_hat, iterations, value, s = _fit_points(model, ys, model.start(ys))
    assert iterations[3] > _newton(model, ys[3:], model.start(ys[3:]))[2][0]  # rescued
    x_ref, value_ref, s_ref, info_ref = _likelihood(model, ys, theta)
    for got, want in ((x_hat, x_ref), (value, value_ref), (s, s_ref), (info, info_ref)):
        assert got.tobytes() == want.tobytes()


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
    model = make_nonlinear_regression(eta_curved(10), "unknown")
    y = model.quantile(model.ref_sampler(3, 1)[0], np.array([0.2, 1.0]))
    with pytest.raises(ConvergenceError) as err:
        fit_mle(model, y, init=np.array([3.0, 5.0]), method="newton",
                max_iterations=1)
    assert len(err.value.trace) >= 1


def test_overflowing_newton_step_is_a_named_failure():
    """A trial sigma past math.exp's range counts as out of the domain, so a
    wild start ends in ConvergenceError, not in an OverflowError."""
    model = make_location_scale(6, error_law="cauchy")
    y = model.quantile(model.ref_sampler(3, 1)[0], np.array([0.2, 1.3]))
    with pytest.raises(ConvergenceError):
        fit_mle(model, y, init=np.array([1e6, 1.0]), method="newton")


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
    payload = json.loads(json.dumps(fit.to_json_dict()))
    np.testing.assert_array_equal(np.array(payload["theta_hat"]), fit.theta_hat)
    np.testing.assert_array_equal(np.array(payload["x_hat"]), fit.x_hat)
    data = np.array(payload["obs_info"]["data"]).reshape(payload["obs_info"]["dims"])
    np.testing.assert_array_equal(data, fit.obs_info)
    assert payload["loglik"] == fit.loglik
    assert payload["converged"] is True
