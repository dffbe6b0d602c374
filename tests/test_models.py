"""Model constructors: derivative correctness, domains, config parsing."""

import dataclasses
import functools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from ancontour import (
    GridSpec,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
    build_contour,
    eta_circle,
    eta_curved,
    fit_mle,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    make_synthetic_curved,
    model_from_config,
    non_invertible_mask,
)
from ancontour._jsonio import dumps
from ancontour.models import _FAMILIES, _moments
from conftest import FAMILY_NAMES, central_difference, iter_instances


def test_location_scale_values():
    model = make_location_scale(4)
    x = np.array([0.5, -1.0, 2.0, 0.0])
    theta = np.array([1.5, 2.0])
    np.testing.assert_allclose(model.quantile(x, theta), 1.5 + 2.0 * x)
    np.testing.assert_allclose(model.dquantile_dtheta(x, theta),
                               np.column_stack([np.ones(4), x]))
    np.testing.assert_allclose(model.d2quantile_dtheta2(x, theta), np.zeros((4, 2, 2)))
    np.testing.assert_allclose(model.dquantile_dx(x, theta), np.full(4, 2.0))
    np.testing.assert_allclose(model.cross_hessian(x, theta),
                               np.column_stack([np.zeros(4), np.ones(4)]))


def test_circle_values():
    rho = 1.3
    model = make_circle(rho)
    theta = np.array([0.7])
    x = np.array([0.1, -0.2])
    u = np.array([math.cos(0.7), math.sin(0.7)])
    np.testing.assert_allclose(model.quantile(x, theta), rho * u + x)
    vel = model.dquantile_dtheta(x, theta)[:, 0]
    np.testing.assert_allclose(vel, rho * np.array([-math.sin(0.7), math.cos(0.7)]))
    # constant speed rho and second derivative pointing back at the center
    assert abs(np.linalg.norm(vel) - rho) < 1e-12
    acc = model.d2quantile_dtheta2(x, theta)[:, 0, 0]
    np.testing.assert_allclose(acc, -rho * u, atol=1e-12)
    assert abs(float(vel @ acc)) < 1e-12


# The model fields a span tracer wraps by name, through dataclasses.replace.
TRACED_FIELDS = ("quantile", "dquantile_dtheta", "d2quantile_dtheta2", "dquantile_dx",
                 "cross_hessian", "ref_log_density", "ref_score")


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_wrapped_callable_fields_change_no_result(family):
    """Wrapping the callable fields of a model changes no fit or contour bit,
    and fitting plus contouring reaches every wrapped field."""
    called = set()

    def wrap(name, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            called.add(name)
            return fn(*args, **kwargs)
        return traced

    for model, _, y in iter_instances(family, 3, seed=107):
        wrapped = dataclasses.replace(
            model, **{f: wrap(f, getattr(model, f)) for f in TRACED_FIELDS})
        plain_fit, traced_fit = fit_mle(model, y), fit_mle(wrapped, y)
        for field in ("theta_hat", "x_hat", "obs_info"):
            assert (getattr(plain_fit, field).tobytes()
                    == getattr(traced_fit, field).tobytes()), field
        assert plain_fit.iterations == traced_fit.iterations
        grid = GridSpec(2.0, 5)
        assert (dumps(build_contour(model, y, grid))
                == dumps(build_contour(wrapped, y, grid)))
    assert called == set(TRACED_FIELDS)


DERIVED_FIELDS = ("quantile", "dquantile_dtheta", "d2quantile_dtheta2", "dquantile_dx",
                  "cross_hessian")


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_callables_on_rows_match_per_row_calls(family):
    """theta rows (K, p), with x one point or rows (K, n), give each row the
    bytes of a one-row call; so do start and the reference log density."""
    for model, theta, y in iter_instances(family, 4, seed=109):
        rng = np.random.default_rng(5)
        thetas = theta * np.exp(rng.normal(0.0, 0.2, (6, model.p)))  # same signs, in domain
        xs = model.ref_sampler(9, 6)
        for name in DERIVED_FIELDS:
            fn = getattr(model, name)
            rows, shared = fn(xs, thetas), fn(xs[0], thetas)
            assert rows.shape[0] == shared.shape[0] == 6, name
            for k in range(6):
                assert rows[k].tobytes() == fn(xs[k], thetas[k]).tobytes(), name
                assert shared[k].tobytes() == fn(xs[0], thetas[k]).tobytes(), name
        ys = model.quantile(xs, thetas)
        starts, densities = model.start(ys), model.ref_log_density(xs)
        for k in range(6):
            assert starts[k].tobytes() == model.start(ys[k]).tobytes()
            assert densities[k] == model.ref_log_density(xs[k])


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_first_derivative_matches_fd(family):
    for model, theta, _ in iter_instances(family, 8, seed=101):
        x = model.ref_sampler(3, 1)[0]
        fd = central_difference(lambda th: model.quantile(x, th), theta, h=1e-6)
        analytic = model.dquantile_dtheta(x, theta)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_second_derivative_matches_fd(family):
    for model, theta, _ in iter_instances(family, 6, seed=102):
        x = model.ref_sampler(4, 1)[0]
        fd = central_difference(lambda th: model.dquantile_dtheta(x, th), theta, h=1e-5)
        analytic = model.d2quantile_dtheta2(x, theta)
        np.testing.assert_allclose(analytic, fd, rtol=1e-4, atol=1e-5)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_cross_hessian_matches_fd(family):
    for model, theta, _ in iter_instances(family, 6, seed=103):
        x = model.ref_sampler(5, 1)[0]
        fd = central_difference(lambda th: model.dquantile_dx(x, th), theta, h=1e-6)
        analytic = model.cross_hessian(x, theta)
        np.testing.assert_allclose(analytic, fd, rtol=1e-6, atol=1e-6)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_affine_structure(family):
    """q(x) - q(0) = dq_dx(0) * x coordinate-wise for every built-in family."""
    for model, theta, _ in iter_instances(family, 5, seed=104):
        x = model.ref_sampler(6, 1)[0]
        zero = np.zeros(model.n)
        lhs = model.quantile(x, theta) - model.quantile(zero, theta)
        rhs = model.dquantile_dx(zero, theta) * x
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_ref_score_matches_log_density_gradient(family):
    for model, _, _ in iter_instances(family, 4, seed=105):
        x = model.ref_sampler(7, 1)[0]
        fd = central_difference(model.ref_log_density, x, h=1e-6)
        np.testing.assert_allclose(model.ref_score(x), fd, rtol=1e-5, atol=1e-6)


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_ref_score_derivative_matches_score_gradient(family):
    """Coordinates are independent, so the score's Jacobian is diagonal."""
    for model, _, _ in iter_instances(family, 4, seed=106):
        x = model.ref_sampler(8, 1)[0]
        fd = central_difference(model.ref_score, x, h=1e-6)
        np.testing.assert_allclose(np.diag(model.ref_score_derivative(x)), fd,
                                   rtol=1e-5, atol=1e-6)


def test_cauchy_score_derivative_stays_finite():
    law = make_location_scale(3, error_law="cauchy").ref_score_derivative
    np.testing.assert_allclose(law(np.array([0.0, 1.0, 1e150])), [-2.0, 0.0, 2e-300],
                               rtol=1e-15, atol=0.0)


def test_reference_density_oracles():
    """Log densities agree with the scipy distributions they implement."""
    model = make_location_scale(5)
    x = np.array([0.3, -1.2, 0.0, 2.5, -0.4])
    assert abs(model.ref_log_density(x) - stats.norm.logpdf(x).sum()) < 1e-12
    cauchy = make_location_scale(5, error_law="cauchy")
    assert abs(cauchy.ref_log_density(x) - stats.cauchy.logpdf(x).sum()) < 1e-12
    circ = make_circle(1.0, n=4, variance_scale=0.25)
    x4 = x[:4]
    assert abs(circ.ref_log_density(x4)
               - stats.norm.logpdf(x4, scale=0.5).sum()) < 1e-12


def test_domain_validation():
    model = make_location_scale(3)
    with pytest.raises(InvalidDimensionError):
        model.check_theta(np.array([1.0]))
    with pytest.raises(InvalidParameterError):
        model.check_theta(np.array([0.0, -1.0]))
    with pytest.raises(InvalidParameterError):
        model.check_theta(np.array([np.nan, 1.0]))
    with pytest.raises(InvalidDimensionError):
        model.check_point(np.zeros(4))
    with pytest.raises(InvalidParameterError):
        model.check_point(np.array([0.0, np.inf, 1.0]))
    with pytest.raises(InvalidDimensionError):
        make_location_scale(1)
    with pytest.raises(UnsupportedFamilyError):
        make_location_scale(4, error_law="laplace")
    with pytest.raises(InvalidParameterError):
        make_circle(-1.0)
    with pytest.raises(InvalidDimensionError):
        make_circle(1.0, n=1)


def test_sampler_shapes_and_determinism():
    model = make_circle(1.0, n=3, variance_scale=0.04)
    a = model.ref_sampler(42, 10)
    b = model.ref_sampler(42, 10)
    assert a.shape == (10, 3)
    np.testing.assert_array_equal(a, b)
    big = model.ref_sampler(7, 40000)
    assert abs(float(np.var(big)) - 0.04) < 0.002


def test_eta_circle_matches_circle_model():
    eta = eta_circle(1.4, n=3)
    base = make_circle(1.4, n=3)
    th = np.array([0.9])
    zero = np.zeros(3)
    np.testing.assert_allclose(eta.value(th), base.quantile(zero, th))
    np.testing.assert_allclose(eta.jac(th), base.dquantile_dtheta(zero, th))
    np.testing.assert_allclose(eta.hess(th), base.d2quantile_dtheta2(zero, th))


def test_eta_curved_derivatives():
    eta = eta_curved(9)
    th = np.array([0.35])
    fd_jac = central_difference(eta.value, th, h=1e-6)
    np.testing.assert_allclose(eta.jac(th), fd_jac, rtol=1e-6, atol=1e-8)
    fd_hess = central_difference(lambda t: eta.jac(t)[:, 0], th, h=1e-6)
    np.testing.assert_allclose(eta.hess(th)[:, 0, 0], fd_hess[:, 0], rtol=1e-5,
                               atol=1e-7)


def test_synthetic_curved_information_grows_linearly():
    for n in (16, 64, 256):
        model = make_synthetic_curved(n)
        v = model.dquantile_dtheta(np.zeros(n), np.zeros(1))[:, 0]
        gram = float(v @ v)
        assert 0.9 * n < gram < 1.2 * n


def test_nonlinreg_unknown_sigma_blocks():
    model = make_nonlinear_regression(eta_curved(7), sigma_mode="unknown")
    assert model.p == 2
    theta = np.array([0.3, 1.2])
    x = model.ref_sampler(11, 1)[0]
    vel = model.dquantile_dtheta(x, theta)
    np.testing.assert_allclose(vel[:, 1], x)
    acc = model.d2quantile_dtheta2(x, theta)
    np.testing.assert_allclose(acc[:, 1, :], np.zeros((7, 2)), atol=1e-14)
    np.testing.assert_allclose(acc[:, :, 1], np.zeros((7, 2)), atol=1e-14)
    cross = model.cross_hessian(x, theta)
    np.testing.assert_allclose(cross[:, 0], np.zeros(7), atol=1e-14)
    np.testing.assert_allclose(cross[:, 1], np.ones(7))


def test_inverted_cauchy_distribution_closure():
    """If y is Cauchy(mu, sigma), then 1/y is Cauchy at (mu, sigma) / (mu^2 + sigma^2):
    the family is closed under coordinate inversion (McCullagh 1992)."""
    def inverted(theta):
        return theta / (theta @ theta)

    mu, sigma = 0.5, 1.5
    mapped = inverted(np.array([mu, sigma]))
    np.testing.assert_allclose(mapped, [0.2, 0.6], atol=1e-15)
    np.testing.assert_allclose(inverted(mapped), [mu, sigma], rtol=1e-12)  # an involution
    rng = np.random.default_rng(99)
    z = rng.standard_cauchy(200000)
    y = mu + sigma * z
    w = 1.0 / y[np.abs(y) > 1e-12]
    for q in (-2.0, -0.5, 0.0, 0.5, 2.0):
        empirical = float(np.mean(w <= q))
        expected = float(stats.cauchy.cdf(q, loc=mapped[0], scale=mapped[1]))
        assert abs(empirical - expected) < 0.01


def test_non_invertible_mask():
    pts = np.array([[1.0, 2.0], [0.0, 3.0], [1e-15, 1.0], [-2.0, -3.0]])
    np.testing.assert_array_equal(non_invertible_mask(pts),
                                  [False, True, True, False])
    assert non_invertible_mask(np.array([1.0, 0.0]))[0]


# a config for each config family, and one for each eta of nonlinreg-known-sigma
FAMILY_CONFIGS = [
    {"family": "location-scale", "n": 5},
    {"family": "cauchy-location-scale", "n": 4},
    {"family": "circle2d", "rho": 1.5},
    {"family": "circleN", "n": 4, "rho": 1.0, "variance_scale": 0.1},
    {"family": "nonlinreg-known-sigma", "eta": "curved", "n": 8, "sigma0": 0.7},
    {"family": "nonlinreg-known-sigma", "eta": "circle", "rho": 1.2},
    {"family": "nonlinreg-unknown-sigma", "eta": "curved", "n": 6},
]


def test_every_config_family_builds_a_model_of_that_family():
    """One config spelling per model: each family of the config table builds
    a model whose family is that name, from a dict and from its JSON text."""
    assert {config["family"] for config in FAMILY_CONFIGS} == set(_FAMILIES)
    for config in FAMILY_CONFIGS:
        for source in (config, json.dumps(config)):
            model = model_from_config(source)
            assert model.family == config["family"] and model.n >= 2


def test_model_from_config_rejects_bad_input():
    for family in ("gamma", "inverted-cauchy"):
        with pytest.raises(UnsupportedFamilyError, match="known: "):
            model_from_config({"family": family, "n": 3})
    with pytest.raises(InvalidParameterError):
        model_from_config({"family": "location-scale", "n": 5, "bogus": 1})
    with pytest.raises(InvalidParameterError):
        model_from_config({"family": "circleN", "rho": 1.0})  # missing n
    with pytest.raises(InvalidParameterError):
        model_from_config({"family": "circle2d", "rho": 1.0, "n": 3})
    with pytest.raises(InvalidParameterError):
        model_from_config("[1, 2]")
    with pytest.raises(UnsupportedFamilyError):
        model_from_config({"family": "nonlinreg-known-sigma", "eta": "spiral"})
    with pytest.raises(InvalidParameterError):
        model_from_config({"family": "nonlinreg-known-sigma", "eta": "curved"})
    for bad in ({"family": "location-scale", "n": 3.7},
                {"family": "circleN", "n": 4.0, "rho": 1.0}):
        with pytest.raises(InvalidParameterError):
            model_from_config(bad)
    # the family name says which sigma: no sigma_mode key, matching or not
    for family, mode in (("nonlinreg-known-sigma", "unknown"), ("nonlinreg-known-sigma", "known"),
                         ("nonlinreg-unknown-sigma", "known"),
                         ("nonlinreg-unknown-sigma", "unknown")):
        with pytest.raises(InvalidParameterError, match="'sigma_mode'"):
            model_from_config({"family": family, "eta": "curved", "n": 8, "sigma_mode": mode})
    # text that does not parse, and a family or eta tag that is not a string
    with pytest.raises(InvalidParameterError, match="model config is not JSON"):
        model_from_config("{bad")
    for bad, key in (({"family": ["circle2d"], "rho": 1.0}, "family"),
                     ({"family": "nonlinreg-known-sigma", "eta": ["curved"], "n": 8}, "eta")):
        with pytest.raises(UnsupportedFamilyError, match=f"unknown {key} "):
            model_from_config(bad)
    # configs that would build another family, or ignore a key, name the key
    for bad, key in (({"family": "circleN", "n": 2, "rho": 1.0}, "'n'"),
                     ({"family": "location-scale", "n": 5, "error_law": "cauchy"},
                      "'error_law'"),
                     ({"family": "nonlinreg-known-sigma", "eta": "curved", "n": 8, "rho": 1.0},
                      "'rho'"),
                     ({"family": "nonlinreg-unknown-sigma", "eta": "curved", "n": 8, "rho": 1.0},
                      "'rho'")):
        with pytest.raises(InvalidParameterError, match=key):
            model_from_config(bad)


# heavy tails (squares stay finite), ordinary values, and ties with signed zeros
_SAMPLE_VALUES = st.one_of(st.floats(-1e150, 1e150), st.floats(-10.0, 10.0),
                           st.sampled_from([0.0, -0.0, 1.0, -2.5]))


@st.composite
def _samples(draw):
    """One point (n,) or rows (K, n) of it, n from 2 to 40."""
    n, lead = draw(st.integers(2, 40)), draw(st.sampled_from([(), (1,), (3,)]))
    size = n * math.prod(lead)
    return np.array(draw(st.lists(_SAMPLE_VALUES, min_size=size, max_size=size))).reshape(
        lead + (n,))


def _same_bits(got, expected):
    return got.shape == np.shape(expected) and got.tobytes() == np.asarray(expected).tobytes()


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(y=_samples())
def test_cauchy_start_is_numpys_median_and_quartiles(y):
    """The Cauchy start's one sort gives np.median and np.percentile(y, [75, 25])
    bit for bit: (median, max(half the interquartile range, 1e-8))."""
    q75, q25 = np.percentile(y, [75.0, 25.0], axis=-1)
    expected = np.stack([np.median(y, axis=-1), np.maximum(0.5 * (q75 - q25), 1e-8)], axis=-1)
    assert _same_bits(make_location_scale(y.shape[-1], error_law="cauchy").start(y), expected)


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(y=_samples())
def test_sample_moments_are_numpys_means(y):
    """_moments and the regression sigma start, sums over n, match their
    np.mean forms bit for bit."""
    mu = np.mean(y, axis=-1, keepdims=True)
    mean, rms = _moments(y)
    assert _same_bits(mean, mu[..., 0])
    assert _same_bits(rms, np.sqrt(np.mean((y - mu) ** 2, axis=-1)))
    eta = eta_curved(y.shape[-1])
    start = make_nonlinear_regression(eta, "unknown").start(y)
    sigma = np.sqrt(np.mean((y - eta.value(start[..., :1])) ** 2, axis=-1, keepdims=True))
    assert _same_bits(start[..., 1:], np.maximum(sigma, 1e-8))
