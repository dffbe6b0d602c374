"""Taylor frames: metric, tangential splitting, reparameterization."""

import math

import numpy as np
import pytest

from ancontour import (
    DegenerateTangentError,
    InvalidDimensionError,
    InvalidParameterError,
    build_frame,
    eta_circle,
    eta_curved,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    make_synthetic_curved,
    orthogonalize,
    quadratic_point,
    reparameterize,
)
from conftest import FAMILY_NAMES, five_point_derivative, iter_instances


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_frame_algebra(family):
    """Metric, projector, and tangential/normal split identities."""
    for model, theta, _ in iter_instances(family, 6, seed=301):
        x = model.ref_sampler(13, 1)[0]
        frame = build_frame(model, x, theta)
        np.testing.assert_allclose(frame.gram, frame.velocity.T @ frame.velocity,
                                   rtol=1e-12, atol=1e-12)
        # tangent projector V G^-1 V', built here from the frame
        p = frame.velocity @ np.linalg.inv(frame.gram) @ frame.velocity.T
        np.testing.assert_allclose(p, p.T, atol=1e-12)
        np.testing.assert_allclose(p @ p, p, atol=1e-12)
        np.testing.assert_allclose(p @ frame.velocity, frame.velocity,
                                   rtol=1e-10, atol=1e-12)
        # normal part is orthogonal to the tangent span
        contraction = np.einsum("nk,nab->kab", frame.velocity,
                                frame.normal_acceleration)
        assert np.max(np.abs(contraction)) < 1e-10 * (
            1.0 + np.max(np.abs(frame.acceleration)))
        # reconstruction: acceleration = normal + velocity . mixing
        rebuilt = frame.normal_acceleration + np.einsum(
            "nk,kab->nab", frame.velocity, frame.mixing)
        np.testing.assert_allclose(rebuilt, frame.acceleration,
                                   rtol=1e-10, atol=1e-12)


def test_mixing_matches_least_squares():
    """Independent route: regress each acceleration column with lstsq."""
    rng = np.random.default_rng(61)
    for _ in range(10):
        n, p = 7, 3
        velocity = rng.normal(size=(n, p))
        raw = rng.normal(size=(n, p, p))
        acceleration = 0.5 * (raw + np.swapaxes(raw, 1, 2))
        gram, mixing, normal = orthogonalize(velocity, acceleration)
        for a in range(p):
            for b in range(p):
                coef, *_ = np.linalg.lstsq(velocity, acceleration[:, a, b],
                                           rcond=None)
                np.testing.assert_allclose(mixing[:, a, b], coef,
                                           rtol=1e-9, atol=1e-10)
                resid = acceleration[:, a, b] - velocity @ coef
                np.testing.assert_allclose(normal[:, a, b], resid,
                                           rtol=1e-9, atol=1e-10)


def test_orthogonalize_rejects_rank_deficiency():
    velocity = np.column_stack([np.arange(5.0), 2.0 * np.arange(5.0)])
    acceleration = np.zeros((5, 2, 2))
    with pytest.raises(DegenerateTangentError):
        orthogonalize(velocity, acceleration)


def test_orthogonalize_rejects_asymmetric_acceleration():
    velocity = np.eye(4)[:, :2]
    acceleration = np.zeros((4, 2, 2))
    acceleration[:, 0, 1] = 1.0
    with pytest.raises(InvalidParameterError):
        orthogonalize(velocity, acceleration)


def test_orthogonalize_rejects_bad_shapes():
    with pytest.raises(InvalidDimensionError):
        orthogonalize(np.ones(4), np.zeros((4, 1, 1)))
    with pytest.raises(InvalidDimensionError):
        orthogonalize(np.ones((4, 1)), np.zeros((4, 2, 2)))


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_velocity_matches_directional_stencil(family):
    """Five-point stencil of the trajectory reproduces each velocity column."""
    for model, theta, _ in iter_instances(family, 4, seed=302):
        x = model.ref_sampler(17, 1)[0]
        frame = build_frame(model, x, theta)
        for a in range(model.p):
            direction = np.zeros(model.p)
            direction[a] = 1.0

            def coord(s):
                return model.quantile(x, theta + s * direction)

            fd = five_point_derivative(coord, 0.0, h=1e-3)
            np.testing.assert_allclose(frame.velocity[:, a], fd,
                                       rtol=1e-8, atol=1e-8)


def test_expansion_residual_is_third_order():
    """Residual of the quadratic prediction scales like the cube of the step."""
    cases = [
        (make_circle(1.0, n=2, variance_scale=1.0 / 64.0),
         np.array([0.3]), np.array([0.05, -0.02])),
        (make_circle(1.4, n=4, variance_scale=0.2),
         np.array([-0.8]), np.array([0.05, -0.02, 0.01, 0.03])),
        (make_nonlinear_regression(eta_circle(1.2, n=3), ("known", 0.5)),
         np.array([0.6]), np.array([0.04, -0.01, 0.02])),
    ]
    for model, theta, x in cases:
        frame = build_frame(model, x, theta)
        hs = np.array([0.2, 0.1, 0.05, 0.025])
        direction = np.ones(model.p) / math.sqrt(model.p)
        res = np.array([np.linalg.norm(model.quantile(x, theta + h * direction)
                                       - quadratic_point(frame, h * direction)) for h in hs])
        assert np.all(res > 0)
        slopes = np.diff(np.log(res)) / np.diff(np.log(hs))
        assert slopes.mean() >= 2.7


def test_expansion_exact_for_theta_linear_family():
    model = make_location_scale(5)
    rng = np.random.default_rng(67)
    x = rng.normal(size=5)
    frame = build_frame(model, x, np.array([0.4, 1.3]))
    for t in ([0.5, 0.2], [-1.0, 0.6], [2.0, -0.5]):
        t = np.array(t)
        exact = model.quantile(x, frame.theta + t)
        assert np.linalg.norm(exact - quadratic_point(frame, t)) < 1e-12


def test_expansion_exact_for_quadratic_mean_family():
    """A quadratic mean curve is reproduced by its own second-order frame."""
    model = make_nonlinear_regression(eta_curved(11), ("known", 0.7))
    x = model.ref_sampler(29, 1)[0]
    frame = build_frame(model, x, np.array([0.2]))
    for t in (0.5, -1.0, 2.0):
        t = np.array([t])
        exact = model.quantile(x, frame.theta + t)
        assert np.linalg.norm(exact - quadratic_point(frame, t)) < 1e-12


def test_reparameterize_absorbs_tangential_part():
    """The tilted coordinate plus the normal term is exact."""
    for model, theta, _ in iter_instances("circleN", 5, seed=304):
        x = model.ref_sampler(19, 1)[0]
        frame = build_frame(model, x, theta)
        rng = np.random.default_rng(71)
        for _ in range(5):
            t = 0.3 * rng.standard_normal(model.p)
            tilted = reparameterize(frame, t)
            alt = (frame.base_point + frame.velocity @ tilted
                   + 0.5 * np.einsum("nab,a,b->n", frame.normal_acceleration,
                                     t, t))
            np.testing.assert_allclose(alt, quadratic_point(frame, t),
                                       rtol=1e-12, atol=1e-12)


def test_reparameterize_scalar_formula_and_scaling():
    model = make_circle(2.0, n=2)
    frame = build_frame(model, np.array([0.3, -0.1]), np.array([0.8]))
    m = frame.mixing[0, 0, 0]
    t = np.array([0.25])
    expected = t + 0.5 * m * t ** 2
    np.testing.assert_allclose(reparameterize(frame, t), expected, atol=1e-14)
    with pytest.raises(InvalidDimensionError):
        reparameterize(frame, np.array([0.1, 0.2]))


def test_frame_json_payload():
    model = make_circle(1.0, n=3, variance_scale=0.2)
    frame = build_frame(model, np.array([0.1, 0.0, -0.2]), np.array([0.6]))
    payload = frame.to_json_dict()
    assert payload["n"] == 3 and payload["p"] == 1
    vel = np.array(payload["velocity"]["data"]).reshape(
        payload["velocity"]["dims"])
    np.testing.assert_array_equal(vel, frame.velocity)
    acc = np.array(payload["acceleration"]["data"]).reshape(
        payload["acceleration"]["dims"])
    np.testing.assert_array_equal(acc, frame.acceleration)


def test_frame_has_no_n_by_n_array():
    """The frame is O(n p^2): at n = 64 no array field has two axes of length n."""
    model = make_synthetic_curved(64)
    frame = build_frame(model, model.ref_sampler(29, 1)[0], np.array([0.2]))
    shapes = {name: value.shape for name, value in frame._asdict().items()
              if isinstance(value, np.ndarray)}
    assert shapes["velocity"] == (64, 1)
    for name, shape in shapes.items():
        assert shape.count(64) <= 1, f"{name} has shape {shape}"


def test_quadratic_point_shape_guard():
    model = make_circle(1.0, n=2)
    frame = build_frame(model, np.zeros(2), np.array([0.2]))
    with pytest.raises(InvalidDimensionError):
        quadratic_point(frame, np.array([0.1, 0.2]))
