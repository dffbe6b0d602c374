"""Contour clouds, partition checks, pivot back-solve, inversion demo."""

import hashlib
import json
import math
import tracemalloc
import warnings
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import ndimage
from scipy.optimize import root

from ancontour import (
    GridSpec,
    InvalidDimensionError,
    InvalidParameterError,
    PartitionOrderSpec,
    SingularInformationError,
    UnsupportedFamilyError,
    build_contour,
    cauchy_inversion_demo,
    compare_exact,
    contour_min_distance,
    eta_curved,
    exact_label,
    fit_mle,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    make_synthetic_curved,
    partition_check,
    severini_pivot,
    severini_pivot_check,
    standardize,
)
from ancontour._jsonio import dumps
from ancontour.ancillary import _T1_CAP, _halfplane_membership
from ancontour.models import non_invertible_mask
from conftest import FAMILY_NAMES, iter_instances


def test_grid_spec_parse_and_validation():
    grid = GridSpec.parse("2.5,21")
    assert grid.half_width == 2.5
    assert grid.points_per_axis == 21
    assert grid.standardized
    with pytest.raises(InvalidParameterError):
        GridSpec.parse("2.5")
    with pytest.raises(InvalidParameterError, match="point count must be an integer"):
        GridSpec.parse("2.5,4.5")
    with pytest.raises(InvalidParameterError, match="half width must be a number"):
        GridSpec.parse("x,5")
    with pytest.raises(InvalidParameterError):
        GridSpec(half_width=-1.0)
    with pytest.raises(InvalidParameterError):
        GridSpec(points_per_axis=2)
    with pytest.raises(InvalidParameterError, match="'standardized' must be true or false"):
        GridSpec(standardized="false")


def test_grid_is_row_major_with_exact_center():
    model = make_location_scale(4)
    rng = np.random.default_rng(81)
    y0 = rng.normal(0.5, 1.2, 4)
    grid = GridSpec(half_width=2.0, points_per_axis=5)
    cloud = build_contour(model, y0, grid)
    center = cloud.offsets_std[cloud.center_index]
    np.testing.assert_array_equal(center, np.zeros(2))
    # axis order: second coordinate varies fastest
    kept = cloud.offsets_std
    firsts = kept[kept[:, 0] == kept[0, 0]]
    assert np.all(np.diff(firsts[:, 1]) > 0)
    # the center row is the fitted point itself
    np.testing.assert_allclose(cloud.points[cloud.center_index],
                               model.quantile(cloud.fit.x_hat,
                                              cloud.fit.theta_hat),
                               atol=1e-14)


def test_circle_contour_is_shifted_unit_circle():
    """Unit-variance circle: the cloud is y = x_hat + u(angle) exactly."""
    model = make_circle(1.0, n=2, variance_scale=1.0)
    y0 = np.array([1.2, 0.0])
    cloud = build_contour(model, y0, GridSpec(3.0, 41))
    np.testing.assert_allclose(cloud.fit.theta_hat, [0.0], atol=1e-12)
    np.testing.assert_allclose(cloud.fit.x_hat, [0.2, 0.0], atol=1e-12)
    radii = np.linalg.norm(cloud.points - cloud.fit.x_hat, axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-12)
    angles = cloud.offsets[:, 0]
    expected = np.column_stack([np.cos(angles), np.sin(angles)])
    np.testing.assert_allclose(cloud.points - cloud.fit.x_hat, expected,
                               atol=1e-12)
    assert cloud.dropped_out_of_domain == 0


def test_cloud_tangent_matches_frame():
    """Five-point stencil across cloud rows reproduces the scaled velocity."""
    model = make_circle(1.0, n=2, variance_scale=1.0)
    y0 = np.array([1.2, 0.0])
    cloud = build_contour(model, y0, GridSpec(0.02, 5))
    h = 0.01
    rows = cloud.points
    fd = (-rows[4] + 8.0 * rows[3] - 8.0 * rows[1] + rows[0]) / (12.0 * h)
    scaled_velocity = cloud.frame.velocity @ cloud.standardization.scales
    np.testing.assert_allclose(fd, scaled_velocity[:, 0], atol=1e-6)
    direction = fd / np.linalg.norm(fd)
    np.testing.assert_allclose(direction, [0.0, 1.0], atol=1e-6)


def test_location_scale_cloud_lies_on_positive_ray():
    """Every cloud point is m 1 + s zhat with s > 0: the configuration is fixed."""
    model = make_location_scale(4)
    rng = np.random.default_rng(83)
    y0 = rng.normal(1.0, 2.0, 4)
    cloud = build_contour(model, y0, GridSpec(3.0, 9))
    zhat = cloud.fit.x_hat
    design = np.column_stack([np.ones(4), zhat])
    for q in cloud.points:
        coef, *_ = np.linalg.lstsq(design, q, rcond=None)
        resid = q - design @ coef
        assert np.max(np.abs(resid)) < 1e-10
        assert coef[1] > 0.0
    # sigma stays positive because offending grid rows are dropped
    assert cloud.dropped_out_of_domain > 0
    assert len(cloud.points) + cloud.dropped_out_of_domain == 81


def test_exact_label_families():
    model = make_location_scale(5)
    rng = np.random.default_rng(87)
    y = rng.normal(0, 1, 5)
    fit = fit_mle(model, y)
    np.testing.assert_allclose(exact_label(model, y),
                               (y - fit.theta_hat[0]) / fit.theta_hat[1],
                               atol=1e-12)
    circ = make_circle(1.0, n=4)
    label = exact_label(circ, np.array([0.6, 0.8, 0.3, -0.1]))
    np.testing.assert_allclose(label, [1.0, 0.3, -0.1], atol=1e-15)
    from ancontour import make_synthetic_curved
    with pytest.raises(UnsupportedFamilyError):
        exact_label(make_synthetic_curved(8), np.zeros(8))


def test_compare_exact_location_scale_spread():
    model = make_location_scale(6)
    rng = np.random.default_rng(89)
    y0 = rng.normal(-0.5, 0.8, 6)
    cloud = build_contour(model, y0, GridSpec(2.5, 11))
    report = compare_exact(model, cloud)
    assert report.label_spread < 1e-12
    assert report.radius_contour is None


def test_compare_exact_circle_radii():
    """Contour curvature radius is rho; the exact contour radius is |y0|."""
    model = make_circle(1.0, n=2, variance_scale=1.0)
    cloud = build_contour(model, np.array([1.2, 0.0]), GridSpec(3.0, 41))
    report = compare_exact(model, cloud)
    assert abs(report.radius_contour - 1.0) < 1e-8
    assert abs(report.radius_exact - 1.2) < 1e-15
    assert report.label_spread > 0.01  # the exact radius moves along the cloud


def test_partition_location_scale_exact():
    model = make_location_scale(5)
    rng = np.random.default_rng(91)
    y0 = rng.normal(0.3, 1.1, 5)
    report = partition_check(model, y0, np.array([1.0, 0.5]),
                             GridSpec(2.0, 7))
    assert report.discrepancy <= 1e-10
    assert report.theta_gap <= 1e-10
    np.testing.assert_allclose(report.theta_hat1,
                               report.theta_hat0 + report.t1_raw, atol=1e-10)


def test_partition_circle_exact_on_circle():
    model = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
    y0 = np.array([1.0, 0.0])
    report = partition_check(model, y0, np.array([1.0]), GridSpec(3.0, 21))
    assert report.discrepancy <= 1e-10
    assert report.theta_gap <= 1e-10


def test_partition_circle_positive_off_circle():
    """Away from the exact shell the rebuilt contour genuinely differs."""
    model = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
    y0 = np.array([1.2, 0.0])
    report = partition_check(model, y0, np.array([1.0]), GridSpec(3.0, 21))
    assert report.discrepancy > 1e-4


def test_partition_guards():
    model = make_location_scale(4)
    y0 = np.array([0.1, -0.4, 1.2, 0.6])
    with pytest.raises(InvalidParameterError,
                       match=rf"\|t1\| = 4\.000 exceeds the moderate-deviation cap {_T1_CAP}"):
        partition_check(model, y0, np.array([4.0, 0.0]))
    with pytest.raises(InvalidDimensionError):
        partition_check(model, y0, np.array([1.0]))


def test_contour_min_distance_recovers_offset():
    model = make_circle(1.0, n=2, variance_scale=1.0)
    fit = fit_mle(model, np.array([1.2, 0.0]))
    for eps in (0.05, 0.01, 0.001):
        q = fit.x_hat + (1.0 + eps) * np.array([math.cos(0.4), math.sin(0.4)])
        dist, t_at = contour_min_distance(model, fit, q, np.array([0.3]))
        assert abs(dist - eps) < 1e-9
        assert abs(t_at[0] - 0.4) < 1e-6
    on_curve = fit.x_hat + np.array([math.cos(-0.7), math.sin(-0.7)])
    dist, _ = contour_min_distance(model, fit, on_curve, np.array([-0.5]))
    assert dist < 1e-10


def _one_point(model, fit, q, t_init, max_iter, direction, halvings=None, settled=None):
    """Refine one point, one backtracking scale at a time: direction(theta, r)
    gives each step, or None to stop; a step moving t by less than
    1e-13 (1 + |t|) stops too, and so does settled(theta, r), when given,
    before the first step.  halvings, when a list, gets the number of
    halvings of each accepted step."""
    theta, t = fit.theta_hat, np.asarray(t_init, dtype=float).copy()

    def in_domain(tv):
        return all(lo < theta[j] + tv[j] < hi for j, (lo, hi) in enumerate(model.param_domain))

    for _ in range(60):
        if in_domain(t):
            break
        t *= 0.5
    r = q - model.quantile(fit.x_hat, theta + t)
    value = float(r @ r)
    if settled is not None and settled(theta + t, r):
        max_iter = 0
    for _ in range(max_iter):
        step = direction(theta + t, r)
        if step is None:
            break
        scale = 1.0
        for halved in range(40):
            t_new = t + scale * step
            if in_domain(t_new):
                r_new = q - model.quantile(fit.x_hat, theta + t_new)
                value_new = float(r_new @ r_new)
                if value_new <= value:
                    break
            scale *= 0.5
        else:
            break
        if halvings is not None:
            halvings.append(halved)
        moved = float(np.linalg.norm(t_new - t))
        t, r, value = t_new, r_new, value_new
        if moved < 1e-13 * (1.0 + float(np.linalg.norm(t))):
            break
    return math.sqrt(value), t


def _loop_min_distance(model, fit, q, t_init, max_iter=60, halvings=None, steps=None):
    """Reference: one point's refinement.  Each step is Newton's where the
    Hessian of |r|^2 / 2 has its smallest eigenvalue above 1e-8 tr(V'V) and
    Gauss-Newton's elsewhere; the point stops before a step whose predicted
    decrease g's is within 4 ulps of sum |r_i| |q_i|.  steps, when a list,
    gets True for each Newton step taken and False for each Gauss-Newton one.
    A point whose squared distance at the start is within 4 ulps of
    sum |r_i| (|q_i| + |a_i| + |b_i x_i|), the rounding of q - Q with
    Q = a + b x, takes no step."""
    def settled(th, r):
        zero = np.zeros(model.n)
        terms = (np.abs(q) + np.abs(model.quantile(zero, th))
                 + np.abs(model.dquantile_dx(zero, th) * fit.x_hat))
        return r @ r <= 4 * np.finfo(float).eps * (np.abs(r) @ terms)

    def direction(th, r):
        vel = model.dquantile_dtheta(fit.x_hat, th)
        gram, grad = vel.T @ vel, vel.T @ r
        bend = model.d2quantile_dtheta2(fit.x_hat, th).reshape(model.n, -1)
        hess = gram - (r @ bend).reshape(model.p, model.p)
        newton = np.linalg.eigvalsh(hess)[0] > 1e-8 * np.trace(gram)
        ridge = 1e-14 * np.trace(gram) + np.finfo(float).tiny
        step = np.linalg.solve((hess if newton else gram) + ridge * np.eye(model.p), grad)
        if not step @ grad > 4 * np.finfo(float).eps * (np.abs(r) @ np.abs(q)):
            return None
        if steps is not None:
            steps.append(bool(newton))
        return step

    return _one_point(model, fit, q, t_init, max_iter, direction, halvings, settled)


def _gauss_newton_loop(model, fit, q, t_init):
    """Oracle: plain Gauss-Newton for one point, stopped only by a short step."""
    def direction(th, r):
        vel = model.dquantile_dtheta(fit.x_hat, th)
        gram = vel.T @ vel
        ridge = 1e-14 * np.trace(gram) + np.finfo(float).tiny
        return np.linalg.solve(gram + ridge * np.eye(model.p), vel.T @ r)

    return _one_point(model, fit, q, t_init, 60, direction)


def _refinement_rows(model, fit):
    """25 points near the contour through fit, every other one off it, and
    starts near their offsets; the last start's sigma, if any, is outside (0, inf)."""
    rng = np.random.default_rng(7)
    offsets = rng.normal(0.0, 0.3, (25, model.p)) * np.abs(fit.theta_hat)
    points = model.quantile(fit.x_hat, fit.theta_hat + offsets)
    points[::2] += rng.normal(0.0, 0.05, (13, model.n))
    t_init = offsets + rng.normal(0.0, 0.1, offsets.shape)
    t_init[-1, -1] = -2.0 * fit.theta_hat[-1]
    return points, t_init


def _overshooting_rows(model, fit, offsets):
    """Points and starts at the given offsets whose first step overshoots
    2^10-fold and more, or None on a circle, whose distance is periodic in
    the angle, so no step overshoots by more than a turn.

    With a sigma axis (the last coordinate, on (0, inf)) each point has a zero
    residual at its own parameter with sigma negated, and its start has 2^-12
    of that sigma: the step heads for the negated sigma, and only a scale
    under 2^-12 stays in the domain.  Otherwise each point lies 2^30 |V|
    off the contour along n + V / |V| (n the unit normal of the curvature),
    far beyond the centre of curvature, where the Hessian is indefinite:
    the Gauss-Newton step 2^30 is cut back until its quadratic term is
    within reach."""
    if "rho" in model.meta:
        return None
    theta = fit.theta_hat + offsets
    if model.param_domain[-1][0] == 0.0:
        start = offsets.copy()
        start[:, -1] = 2.0**-12 * theta[:, -1] - fit.theta_hat[-1]
        return model.quantile(fit.x_hat, theta * np.r_[np.ones(model.p - 1), -1.0]), start
    vel = model.dquantile_dtheta(fit.x_hat, theta)[..., 0]
    bend = model.d2quantile_dtheta2(fit.x_hat, theta)[..., 0, 0]
    speed = np.linalg.norm(vel, axis=1, keepdims=True)
    along = vel / speed
    normal = bend - np.sum(bend * along, axis=1, keepdims=True) * along
    normal /= np.linalg.norm(normal, axis=1, keepdims=True)
    return model.quantile(fit.x_hat, theta) + 2.0**30 * speed * (normal + along), offsets


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_batched_contour_min_distance_matches_single_points(family):
    """Rows solved together agree with one call per point and with the
    one-point loop, from starts on and off the domain edge and points on and
    off the contour, also when stopped after two iterations, where each
    row's path still shows, and restarted at their own minimizer.  Rows
    whose first step overshoots, on every family but the circles, need ten
    and more halvings."""
    halvings = []
    for model, theta, y in iter_instances(family, 3, seed=301):
        fit = fit_mle(model, y)
        points, t_init = _refinement_rows(model, fit)
        restart = contour_min_distance(model, fit, points, t_init)[1]
        over = _overshooting_rows(model, fit, t_init[:4])
        points = np.vstack([points, points] + ([] if over is None else [over[0]]))
        t_init = np.vstack([t_init, restart] + ([] if over is None else [over[1]]))
        rows = len(points)
        for max_iter in (2, 60):
            dist, t = contour_min_distance(model, fit, points, t_init, max_iter)
            assert dist.shape == (rows,) and t.shape == (rows, model.p)
            for k in range(rows):
                one, t_one = contour_min_distance(model, fit, points[k], t_init[k], max_iter)
                assert isinstance(one, float)
                assert abs(dist[k] - one) <= 1e-12
                np.testing.assert_allclose(t[k], t_one, rtol=0, atol=1e-12)
                # the arithmetic of each row is the loop's, so its bits are too
                ref, t_ref = _loop_min_distance(model, fit, points[k], t_init[k], max_iter,
                                                halvings)
                assert (dist[k], t[k].tobytes()) == (ref, t_ref.tobytes())
        # rows anchored on three fits of the model at once, as a partition
        # pass refines several draws: each fit's rows keep their one-fit bits
        fits = [fit] + [fit_mle(model, model.quantile(x, theta)) for x in model.ref_sampler(302, 2)]
        owner = np.arange(rows) % 3
        anchor = SimpleNamespace(x_hat=np.array([fits[k].x_hat for k in owner]),
                                 theta_hat=np.array([fits[k].theta_hat for k in owner]))
        dist, t = contour_min_distance(model, anchor, points, t_init)
        for k, one_fit in enumerate(fits):
            one, t_one = contour_min_distance(model, one_fit, points[owner == k],
                                              t_init[owner == k])
            assert (one.tobytes(), t_one.tobytes()) == (dist[owner == k].tobytes(),
                                                        t[owner == k].tobytes())
        with pytest.raises(InvalidDimensionError, match="one per row"):
            contour_min_distance(model, anchor, points[:-1], t_init[:-1])
    assert over is None or max(halvings) >= 10


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_newton_refinement_agrees_with_gauss_newton(family):
    """Newton steps and the rounding-floor stop move a refined distance by
    rounding only: within 1e-14 of plain Gauss-Newton's from the same start."""
    for model, theta, y in iter_instances(family, 3, seed=301):
        fit = fit_mle(model, y)
        points, t_init = _refinement_rows(model, fit)
        dist, _ = contour_min_distance(model, fit, points, t_init)
        for k in range(len(points)):
            oracle, _ = _gauss_newton_loop(model, fit, points[k], t_init[k])
            assert abs(dist[k] - oracle) <= 1e-14


def test_gauss_newton_step_where_the_hessian_is_indefinite():
    """A point near the centre of a circle2d contour, seen from an angle more
    than a right angle off its own: the Hessian rho d cos(phi - t) is negative
    there, so the first step is Gauss-Newton's, (d / rho) sin(phi - t), and
    the refinement still ends at the distance |rho - d| from the centre."""
    model = make_circle(1.5, n=2, variance_scale=0.25)
    fit = fit_mle(model, np.array([1.2, 0.4]))
    d, phi = 0.05, 0.7
    q = fit.x_hat + d * np.array([math.cos(phi), math.sin(phi)])
    start = phi + 2.5 - fit.theta_hat
    _, t_one = contour_min_distance(model, fit, q, start, max_iter=1)
    assert t_one[0] - start[0] == pytest.approx(d / 1.5 * math.sin(-2.5), rel=1e-12)
    steps = []
    dist, t = contour_min_distance(model, fit, q, start)
    ref, t_ref = _loop_min_distance(model, fit, q, start, steps=steps)
    assert (dist, t.tobytes()) == (ref, t_ref.tobytes())
    assert steps[0] is False and True in steps  # Newton once past the right angle
    assert abs(dist - (1.5 - d)) <= 1e-12
    assert math.cos(fit.theta_hat[0] + t[0] - phi) == pytest.approx(1.0, abs=1e-12)


def test_backtracking_blocks_split_one_rows_scales():
    """At n = 1024 each halving is its own line-search call over the rows
    still searching, so the halvings of one row span several calls: rows
    whose first step overshoots 2^10-fold and more take more than two
    quantile calls per iteration.  Every row, from its start, restarted at
    its own minimizer and overshooting, ends on the one-point loop's bits;
    the restarted rows retire without a step."""
    model = make_synthetic_curved(1024)
    y0 = model.quantile(model.ref_sampler(20260816, 1)[0], np.array([0.4]))
    fit = fit_mle(model, y0)
    rng = np.random.default_rng(11)
    offsets = np.linspace(-0.3, 0.3, 21)[:, None]
    points = model.quantile(fit.x_hat, fit.theta_hat + offsets)
    points[::2] += rng.normal(0.0, 0.01, (11, model.n))
    t_init = offsets + rng.normal(0.0, 0.05, offsets.shape)
    dist, t = contour_min_distance(model, fit, points, t_init)
    again, t_again = contour_min_distance(model, fit, points, t)
    far, far_start = _overshooting_rows(model, fit, offsets)
    calls = {"quantile": 0, "dquantile_dtheta": 0}
    far_dist, t_far = contour_min_distance(_counting(model, calls), fit, far, far_start)
    halvings = []
    for k in range(21):
        ref, t_ref = _loop_min_distance(model, fit, points[k], t_init[k])
        assert (dist[k], t[k].tobytes()) == (ref, t_ref.tobytes())
        ref, t_ref = _loop_min_distance(model, fit, points[k], t[k])
        assert (again[k], t_again[k].tobytes()) == (ref, t_ref.tobytes()) == (ref, t[k].tobytes())
        ref, t_ref = _loop_min_distance(model, fit, far[k], far_start[k], halvings=halvings)
        assert (far_dist[k], t_far[k].tobytes()) == (ref, t_ref.tobytes())
    assert max(halvings) >= 10
    assert calls["quantile"] > 1 + 2 * calls["dquantile_dtheta"]


def _counting(model, calls):
    """model with its quantile and dquantile_dtheta calls tallied in calls."""
    def tally(key):
        def counted(x, th):
            calls[key] += 1
            return getattr(model, key)(x, th)
        return counted

    return replace(model, **{key: tally(key) for key in calls})


@pytest.mark.parametrize("family", ["circle2d", "synthetic-curved"])
def test_backtracking_costs_at_most_two_quantile_calls_per_iteration(family, monkeypatch):
    """The line search makes one quantile call per scale it tries, and
    partition_check's refinement backtracks so rarely that its iterations
    average at most two quantile calls each, after one call for the start."""
    import ancontour.ancillary as anc

    model, theta = {"circle2d": (make_circle(1.0, n=2, variance_scale=1.0 / 64.0), 0.3),
                    "synthetic-curved": (make_synthetic_curved(24), 0.4)}[family]

    counts, solve = [], anc.contour_min_distance

    def counting(model, fit, q, t_init, max_iter=60):
        counts.append({"quantile": 0, "dquantile_dtheta": 0})
        return solve(_counting(model, counts[-1]), fit, q, t_init, max_iter)

    monkeypatch.setattr(anc, "contour_min_distance", counting)
    draws = model.ref_sampler(101, 4)
    for x in draws:
        partition_check(model, model.quantile(x, np.array([theta])), np.array([1.0]),
                        GridSpec(3.0, 21))
    assert len(counts) == len(draws)
    for calls in counts:
        assert calls["dquantile_dtheta"] >= 3
        assert calls["quantile"] <= 1 + 2 * calls["dquantile_dtheta"]


def test_cauchy_exact_labels_agree_to_rounding():
    """An outlier at y = -3355 scales the configuration by about 960; the
    label (y - mean) / rms, in closed form, spreads over the cloud by
    rounding only, and the data and the fit's configuration x_hat share it."""
    model = make_location_scale(8, error_law="cauchy")
    y0 = model.quantile(model.ref_sampler(708, 16)[5], np.array([0.3, 1.1]))
    assert np.min(y0) < -3000.0
    cloud = build_contour(model, y0, GridSpec(2.0, 11))
    assert compare_exact(model, cloud).label_spread <= 1e-12
    np.testing.assert_allclose(exact_label(model, y0), exact_label(model, cloud.fit.x_hat),
                               rtol=0, atol=1e-12)


LOCATION_SCALE = {
    "location-scale": make_location_scale(6),
    "cauchy-location-scale": make_location_scale(6, error_law="cauchy"),
}


@pytest.mark.parametrize("family", sorted(LOCATION_SCALE))
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), shift=st.floats(-10.0, 10.0), scale=st.floats(0.1, 10.0))
def test_location_scale_label_is_an_exact_ancillary(family, seed, shift, scale):
    """The declared label is unchanged by y -> shift + scale y, and constant
    to rounding along the family's own contour cloud."""
    model = LOCATION_SCALE[family]
    y = model.quantile(model.ref_sampler(seed, 1)[0], np.array([0.3, 1.1]))
    np.testing.assert_allclose(model.exact_label(shift + scale * y), model.exact_label(y),
                               rtol=0, atol=1e-12)
    assert compare_exact(model, build_contour(model, y, GridSpec(2.0, 5))).label_spread <= 1e-12


@pytest.mark.parametrize("n", [2, 4])
@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), angle=st.floats(-math.pi, math.pi))
def test_circle_label_is_rotation_invariant(n, seed, angle):
    """The radius with y_3..y_n is unchanged by a rotation of (y_1, y_2)."""
    model = make_circle(1.3, n=n, variance_scale=0.2)
    y = model.quantile(model.ref_sampler(seed, 1)[0], np.array([0.4]))
    turned = y.copy()
    turned[:2] = [math.cos(angle) * y[0] - math.sin(angle) * y[1],
                  math.sin(angle) * y[0] + math.cos(angle) * y[1]]
    np.testing.assert_allclose(model.exact_label(turned), model.exact_label(y),
                               rtol=0, atol=1e-12)


def test_partition_check_memory_is_bounded():
    """The rebuilt cloud's sweep and the batched refinement hold bounded
    blocks: the nonlinreg-unknown example's check (peak 0.47 MiB), and a
    synthetic-curved one at n = 1024 whose backtracking candidates overflow
    one block (1.11 MiB), peak well under 4 MiB."""
    probes = [(make_nonlinear_regression(eta_curved(16), "unknown"), [0.25, 0.9], [0.8, -0.5],
               GridSpec(2.0, 21)),
              (make_synthetic_curved(1024), [0.4], [1.0], GridSpec(3.0, 21))]
    for model, theta, t1, grid in probes:
        y0 = model.quantile(model.ref_sampler(20260816, 1)[0], np.array(theta))
        args = (model, y0, np.array(t1), grid)
        partition_check(*args)  # warm caches outside the traced call
        tracemalloc.start()
        try:
            report = partition_check(*args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert math.isfinite(report.discrepancy)
        assert peak < 4 * 2**20


@pytest.mark.parametrize("q,t_init,max_iter,error", [
    (np.zeros((3, 2)), np.zeros((2, 1)), 60, InvalidDimensionError),
    (np.zeros(3), np.zeros(1), 60, InvalidDimensionError),
    (np.array([math.nan, 0.0]), np.zeros(1), 60, InvalidParameterError),
    (np.zeros(2), np.array([math.inf]), 60, InvalidParameterError),
    (np.array([1e308, -1e308]), np.zeros(1), 60, InvalidParameterError),
    (np.zeros(2), np.zeros(1), -1, InvalidParameterError),
], ids=["rows-mismatch", "wrong-n", "nan-q", "inf-t_init", "overflowing-q", "negative-max_iter"])
def test_contour_min_distance_names_bad_input(q, t_init, max_iter, error):
    model = make_circle(1.0, n=2, variance_scale=1.0)
    fit = fit_mle(model, np.array([1.2, 0.0]))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error):
            contour_min_distance(model, fit, q, t_init, max_iter)


@pytest.mark.parametrize("example", ["circle2d", "location-scale", "nonlinreg-unknown"])
def test_partition_check_reuses_a_given_fit(example, monkeypatch):
    """With the fit of y0 given, the report is the same to the bit and the
    base point is not fitted again: one Newton fit (at y1) instead of two."""
    import ancontour.estimation as est

    model, theta, t1 = {
        "circle2d": (make_circle(1.0, n=2, variance_scale=1.0 / 64.0), [0.3], [1.0]),
        "location-scale": (make_location_scale(8), [0.3, 1.1], [1.0, 0.5]),
        "nonlinreg-unknown": (make_nonlinear_regression(eta_curved(16), "unknown"),
                              [0.25, 0.9], [0.8, -0.5]),
    }[example]
    y0 = model.quantile(model.ref_sampler(3, 1)[0], np.array(theta))
    grid = GridSpec(2.0, 21)
    fit = fit_mle(model, y0)
    newtons, newton = [], est._newton
    monkeypatch.setattr(est, "_newton",
                        lambda *a, **k: newtons.append(k.get("damped", False)) or newton(*a, **k))
    fresh = partition_check(model, y0, np.array(t1), grid)
    assert newtons == [False, False]
    reused = partition_check(model, y0, np.array(t1), grid, fit=fit)
    assert newtons == [False, False, False]
    assert dumps(reused) == dumps(fresh)


def test_partition_pass_with_ragged_drops_matches_one_draw_checks():
    """Draws whose raw-unit grids drop different numbers of points (sigma
    offsets that leave (0, inf)), checked in one pass, each keep the report
    of their own partition_check, bit for bit, and its discrepancy is the
    largest refined distance of the draw's rebuilt cloud, each point started
    at t = (theta_hat1 - theta_hat0) + its own raw grid offset."""
    from ancontour.ancillary import _partition_pass

    model = make_location_scale(4)
    y0 = model.quantile(model.ref_sampler(11, 6), np.array([0.3, 1.1]))
    grid = GridSpec(1.0, 9, standardized=False)
    assert len({build_contour(model, y, grid).dropped_out_of_domain for y in y0}) > 2
    for y, report in zip(y0, _partition_pass(model, y0, np.array([1.0, 0.5]), grid)):
        one = partition_check(model, y, np.array([1.0, 0.5]), grid)
        assert dumps(report) == dumps(one)
        cloud0, cloud1 = build_contour(model, y, grid), build_contour(model, report.y1, grid)
        start = (cloud1.fit.theta_hat - cloud0.fit.theta_hat) + cloud1.offsets
        dist, _ = contour_min_distance(model, cloud0.fit, cloud1.points, start)
        assert report.discrepancy == np.max(dist)


# (model, true theta, standardized t1) per family the partition check serves
PARTITION_FAMILIES = {
    "circle2d": (lambda: make_circle(1.0, n=2, variance_scale=1.0 / 64.0), [0.3], [1.0]),
    "circleN": (lambda: make_circle(1.3, n=4, variance_scale=0.1), [0.3], [1.0]),
    "synthetic-curved": (lambda: make_synthetic_curved(24), [0.4], [1.0]),
    "nonlinreg-known": (lambda: make_nonlinear_regression(eta_curved(16), ("known", 0.9)),
                        [0.25], [0.8]),
    "nonlinreg-unknown": (lambda: make_nonlinear_regression(eta_curved(16), "unknown"),
                          [0.25, 0.9], [0.8, -0.5]),
    "location-scale": (lambda: make_location_scale(8), [0.3, 1.1], [1.0, 0.5]),
    "cauchy-location-scale": (lambda: make_location_scale(8, error_law="cauchy"),
                              [0.3, 1.1], [1.0, 0.5]),
}
EXACT_FAMILIES = ("location-scale", "cauchy-location-scale")


def _partition_draws(family, seeds=range(1, 6)):
    make, theta, t1 = PARTITION_FAMILIES[family]
    model = make()
    grid = GridSpec(3.0, 21) if model.p == 1 else GridSpec(2.0, 11)
    for seed in seeds:
        yield model, model.quantile(model.ref_sampler(seed, 1)[0], np.array(theta)), \
            np.array(t1), grid


def _rebuilt_cloud(model, report, grid):
    """The check's rebuilt cloud, from the report's own probe fit: the closed
    form where the model has one, else Newton from theta_hat0 + t1."""
    init = None if model.closed_form else report.theta_hat0 + report.t1_raw
    fit = fit_mle(model, report.y1, init=init)
    assert fit.theta_hat.tobytes() == report.theta_hat1.tobytes()
    return build_contour(model, report.y1, grid, fit=fit)


@pytest.mark.parametrize("family", list(PARTITION_FAMILIES))
def test_partition_check_agrees_with_nearest_grid_refinement(family):
    """The discrepancy equals the one refined from each rebuilt point's nearest
    node of the original grid, found by brute force: within 1e-14 on curved
    families, and both at most 1e-10 where the contour is an exact ancillary."""
    for model, y0, t1, grid in _partition_draws(family):
        report = partition_check(model, y0, t1, grid)
        cloud0, cloud1 = build_contour(model, y0, grid), _rebuilt_cloud(model, report, grid)
        gaps = np.sum((cloud1.points[:, None] - cloud0.points) ** 2, axis=2)
        dist, _ = contour_min_distance(model, cloud0.fit, cloud1.points,
                                       cloud0.offsets[np.argmin(gaps, axis=1)])
        if family in EXACT_FAMILIES:
            assert max(report.discrepancy, np.max(dist)) <= 1e-10
        else:
            assert abs(report.discrepancy - np.max(dist)) <= 1e-14


@pytest.mark.parametrize("family", list(PARTITION_FAMILIES))
def test_partition_check_agrees_with_gauss_newton(family):
    """The discrepancy is the largest distance plain Gauss-Newton refines from
    the same starts: within 1e-14 on curved families, and within 1e-14 of the
    data's scale where the contour is an exact ancillary and both are
    rounding of the data (ulps of a coordinate near 440 on one Cauchy draw)."""
    for model, y0, t1, grid in _partition_draws(family):
        report = partition_check(model, y0, t1, grid)
        cloud0, cloud1 = build_contour(model, y0, grid), _rebuilt_cloud(model, report, grid)
        start = (cloud1.fit.theta_hat - cloud0.fit.theta_hat) + cloud1.offsets
        oracle = max(_gauss_newton_loop(model, cloud0.fit, q, t)[0]
                     for q, t in zip(cloud1.points, start))
        scale = np.max(np.abs(cloud1.points)) if family in EXACT_FAMILIES else 1.0
        assert abs(report.discrepancy - oracle) <= 1e-14 * scale


def _counting_line_searches(monkeypatch):
    import ancontour.ancillary as anc

    calls, line_search = [], anc._line_search
    monkeypatch.setattr(anc, "_line_search", lambda *a: calls.append(1) or line_search(*a))
    return calls


@pytest.mark.parametrize("family", EXACT_FAMILIES)
def test_exact_partition_check_takes_no_line_search(family, monkeypatch):
    """Where x_hat1 = x_hat0 each rebuilt point starts at its minimiser, at a
    squared distance within the rounding of q - Q: on these draws the start
    check retires every point before the refinement's first derivative pass,
    so it takes no line search and no second derivative.  theta_hat1 is
    theta1 = theta_hat0 + t1 within 4 ulps (the closed form, or a Newton fit
    started at theta1, its MLE to rounding)."""
    import ancontour.ancillary as anc

    calls, bends, refine = _counting_line_searches(monkeypatch), [], anc.contour_min_distance

    def counting(model, *args):
        bend = model.d2quantile_dtheta2
        return refine(replace(model, d2quantile_dtheta2=lambda *a: bends.append(1) or bend(*a)),
                      *args)

    monkeypatch.setattr(anc, "contour_min_distance", counting)
    for model, y0, t1, grid in _partition_draws(family, range(1, 21)):
        report = partition_check(model, y0, t1, grid)
        theta1 = report.theta_hat0 + report.t1_raw
        assert report.theta_gap <= 4 * np.spacing(np.max(np.abs(theta1)))
    assert calls == [] and bends == []


def _probe_datasets():
    """(model, y0, t1) of the 16 datasets of seeds 1 and 2517 of each
    fit-batch family without a closed form, then of every draw of the
    default partition-order study."""
    for family in ("cauchy-location-scale", "synthetic-curved", "nonlinreg-unknown"):
        make, theta, t1 = PARTITION_FAMILIES[family]
        model = make()
        for seed in (1, 2517):
            for x in model.ref_sampler(seed, 16):
                yield model, model.quantile(x, np.array(theta)), np.array(t1)
    spec = PartitionOrderSpec()
    for n_idx, n in enumerate(spec.n_grid):
        model = make_synthetic_curved(n)
        for d in range(spec.draws):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=spec.seed,
                                                               spawn_key=(n_idx, d)))
            y0 = model.quantile(rng.standard_normal(n), np.zeros(1))
            yield model, y0, np.array([spec.t1_std])


def _relative_gap(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


def test_warm_and_cold_probe_fits_agree():
    """A probe fit started at theta1 = theta_hat0 + t1 (the check's) reaches the
    estimate a cold fit of y1 (from model.start) reaches, within 1e-8
    relative: the warm start finds no other local maximum."""
    for model, y0, t1 in _probe_datasets():
        report = partition_check(model, y0, t1, GridSpec(2.0, 3))
        cold = fit_mle(model, report.y1)
        assert _relative_gap(report.theta_hat1, cold.theta_hat) <= 1e-8


def _grid_start(model, y):
    """A regression family's start before its vertex step: the best point of
    the 61-point grid over [-3, 3], and sigma (if unknown) at the rms residual."""
    rows = np.ones((61, model.p))
    rows[:, 0] = np.linspace(-3.0, 3.0, 61)
    zero = np.zeros(model.n)
    theta = rows[np.argmin(np.sum((y - model.quantile(zero, rows)) ** 2, axis=1))]
    if model.p == 2:
        theta[1] = max(math.sqrt(np.mean((y - model.quantile(zero, theta)) ** 2)), 1e-8)
    return theta


def test_vertex_and_grid_starts_reach_the_same_estimate():
    """A regression fit from the vertex start (model.start) reaches the estimate
    the fit from the best grid point reaches, within 1e-8 relative, and in
    fewer Newton iterations over all the datasets."""
    iterations = {"vertex": 0, "grid": 0}
    for model, y0, _ in _probe_datasets():
        if model.meta.get("eta") is None:
            continue
        vertex, grid = fit_mle(model, y0), fit_mle(model, y0, init=_grid_start(model, y0))
        assert abs(vertex.theta_hat[0] - _grid_start(model, y0)[0]) <= 0.05 + 1e-12
        assert _relative_gap(vertex.theta_hat, grid.theta_hat) <= 1e-8
        iterations["vertex"] += vertex.iterations
        iterations["grid"] += grid.iterations
    assert iterations["vertex"] < iterations["grid"]


def test_grid_offsets_are_one_read_only_array_per_grid():
    """The offset grid is built once per (p, grid) and shared read-only, and a
    contour built from the cached grid has the bytes of one built afresh."""
    from ancontour.ancillary import _grid_offsets

    offsets = _grid_offsets(2, GridSpec(2.0, 5))
    assert _grid_offsets(2, GridSpec(2.0, 5)) is offsets
    with pytest.raises(ValueError, match="read-only"):
        offsets[0, 0] = 1.0
    model = make_location_scale(5)
    y0 = model.quantile(model.ref_sampler(4, 1)[0], np.array([0.3, 1.1]))
    cached = build_contour(model, y0, GridSpec(2.0, 5))
    _grid_offsets.cache_clear()
    assert dumps(build_contour(model, y0, GridSpec(2.0, 5))) == dumps(cached)


@pytest.mark.parametrize("family", ["circle2d", "synthetic-curved", "nonlinreg-unknown"])
def test_curved_partition_check_takes_at_most_five_line_searches(family, monkeypatch):
    """Newton steps converge quadratically and the rounding-floor stop retires
    each point once its predicted decrease is rounding: a curved family's
    check takes at most five line searches (Gauss-Newton took about seven)."""
    calls = _counting_line_searches(monkeypatch)
    for model, y0, t1, grid in _partition_draws(family):
        calls.clear()
        partition_check(model, y0, t1, grid)
        assert 1 <= len(calls) <= 5


@pytest.mark.parametrize("check", ["build_contour", "partition_check"])
def test_a_fit_of_another_point_is_refused(check):
    """fit= must be the fit of y0 under the same model: another point's fit, or
    one of another p or n, raises an error naming fit."""
    model = make_nonlinear_regression(eta_curved(5), "unknown")
    y, y_other = model.quantile(model.ref_sampler(3, 2), np.array([0.25, 0.9]))
    run = {"build_contour": lambda m, f: build_contour(m, y, GridSpec(2.0, 5), fit=f),
           "partition_check": lambda m, f: partition_check(m, y, np.array([0.8, -0.5]),
                                                           GridSpec(2.0, 5), fit=f)}[check]
    run(model, fit_mle(model, y))
    with pytest.raises(InvalidParameterError, match="fit is not a fit of this point"):
        run(model, fit_mle(model, y_other))
    known = make_nonlinear_regression(eta_curved(5), ("known", 0.9))
    with pytest.raises(InvalidDimensionError, match="fit.theta_hat has shape"):
        run(model, fit_mle(known, y))
    longer = make_nonlinear_regression(eta_curved(6), "unknown")
    with pytest.raises(InvalidDimensionError, match="fit.x_hat has shape"):
        run(model, fit_mle(longer, np.append(y, 0.1)))


@pytest.mark.parametrize("info", [[[math.inf, 0.0], [0.0, 1.0]], [[1.0, math.inf], [math.inf, 1.0]],
                                  [[math.nan, 0.0], [0.0, 1.0]]], ids=["diagonal", "off", "nan"])
def test_a_fit_with_non_finite_information_is_refused(info):
    """An information with an infinite or NaN entry factors to an infinite
    Cholesky factor (whose inverse gives a zero scale, so the contour never
    moves along that axis) or to a NaN one: standardize, alone or in a stack,
    build_contour and partition_check each raise SingularInformationError
    naming the non-finite information."""
    model = make_location_scale(4)
    y = model.quantile(model.ref_sampler(3, 1)[0], np.array([0.3, 1.1]))
    fit = fit_mle(model, y)._replace(obs_info=np.array(info))
    for run in (lambda: standardize(fit.obs_info), lambda: standardize(np.stack([np.eye(2), info])),
                lambda: build_contour(model, y, GridSpec(2.0, 5), fit=fit),
                lambda: partition_check(model, y, np.array([1.0, 0.5]), GridSpec(2.0, 5), fit=fit)):
        with pytest.raises(SingularInformationError, match="information has non-finite entries"):
            run()


def test_partition_check_names_non_finite_t1():
    model = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
    with pytest.raises(InvalidParameterError, match="t1 has non-finite entries"):
        partition_check(model, np.array([1.2, 0.0]), np.array([math.nan]))


def test_severini_pivot_values():
    model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
    y = np.array([1.25, 0.0, 0.15])
    pivot = severini_pivot(model, y)
    np.testing.assert_allclose(pivot, [0.25, 0.0, 0.15], atol=1e-14)
    with pytest.raises(UnsupportedFamilyError):
        severini_pivot(make_location_scale(3), y)


@pytest.mark.parametrize("y", [[1.0, 0.0], [1.25, 0.0, 0.15, 0.2], [1.25, math.nan, 0.15],
                               [math.inf, 0.0, 0.15]],
                         ids=["short", "long", "nan", "inf"])
def test_severini_pivot_checks_its_point(y):
    """A point of the wrong length or with non-finite entries raises, with
    the error severini_pivot_check gives for it."""
    model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
    with pytest.raises((InvalidDimensionError, InvalidParameterError)) as expected:
        severini_pivot_check(model, y)
    with pytest.raises(type(expected.value)) as got:
        severini_pivot(model, y)
    assert str(got.value) == str(expected.value)


def test_severini_unique_pre_image():
    model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
    y0 = np.array([1.25, 0.0, 0.15])
    report = severini_pivot_check(model, y0)
    assert report.unique_in_neighborhood
    assert not report.degenerate
    assert report.solution_set_dim == 0
    assert report.max_gap_to_y0 <= 1e-8
    assert len(report.solutions) == 1
    np.testing.assert_allclose(report.solutions[0], y0, atol=1e-8)
    # the second global pre-image sits across the center, 2 rho away
    np.testing.assert_allclose(report.antipodal_candidate, [-0.75, 0.0, 0.15],
                               atol=1e-12)
    gap = np.linalg.norm(report.antipodal_candidate - y0)
    assert abs(gap - 2.0) < 1e-12


def _root_pre_images(model, y0, starts=64, seed=20260816):
    """Distinct solutions of pivot(y) = pivot(y0) by a multi-start hybr search.

    Starts spread over a box three radii wide in the first two coordinates,
    so both global pre-images are reachable without knowing where they are.
    """
    observed = severini_pivot(model, y0)
    rho = model.meta["rho"]
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(starts):
        start = y0.copy()
        start[:2] = rng.uniform(-3.0 * rho, 3.0 * rho, 2)
        sol = root(lambda y: severini_pivot(model, y) - observed, start,
                   method="hybr", tol=1e-12)
        gap = np.max(np.abs(severini_pivot(model, sol.x) - observed))
        if sol.success and gap <= 1e-12 and not any(
                np.linalg.norm(sol.x - f) < 1e-6 for f in found):
            found.append(sol.x)
    return sorted(found, key=lambda y: float(np.linalg.norm(y - y0)))


@pytest.mark.parametrize("r0,angle", [(1.25, 0.0), (1.6, 2.1), (0.6, -0.7), (0.2, 3.0),
                                      (2.5, 0.4)],
                         ids=["outside", "outside-turned", "inside", "near-center",
                              "beyond-2rho"])
def test_severini_closed_form_matches_root_search(r0, angle):
    """Closed-form pre-images equal what a numeric root search finds, to 1e-10."""
    model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
    y0 = np.array([r0 * math.cos(angle), r0 * math.sin(angle), 0.15])
    report = severini_pivot_check(model, y0)
    found = _root_pre_images(model, y0)
    closed = [report.solutions[0]]
    if report.antipodal_candidate is not None:
        closed.append(report.antipodal_candidate)
    assert len(closed) == (1 if r0 > 2.0 else 2)
    assert len(found) == len(closed)
    for numeric, exact in zip(found, closed):
        np.testing.assert_allclose(exact, numeric, rtol=0.0, atol=1e-10)
    np.testing.assert_allclose(report.solutions[0], y0, rtol=0.0, atol=1e-10)
    assert report.unique_in_neighborhood and report.solution_set_dim == 0


def test_severini_degenerate_shell():
    model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
    report = severini_pivot_check(model, np.array([1.0, 0.0, 0.15]))
    assert report.degenerate
    assert report.solution_set_dim == 1
    assert not report.unique_in_neighborhood


@pytest.mark.parametrize("s", [1e-9, 1e-6, 1.0, 1e6])
def test_severini_classification_is_scale_free(s):
    """y, rho -> s y, s rho scales every pre-image and keeps the solution set's
    dimension: the degenerate shell |r0 - rho| < 1e-8 rho is relative, so the
    point 1.25 rho out is never on it, and one 5e-9 rho off always is."""
    model = make_circle(s, n=3)
    for r0, dim in ((1.25, 0), (1.0 + 2e-8, 0), (1.0 + 5e-9, 1), (1.0, 1), (0.6, 0)):
        report = severini_pivot_check(model, s * np.array([r0, 0.0, 0.15]))
        assert (report.degenerate, report.solution_set_dim) == (dim == 1, dim), r0


def test_severini_family_guard():
    with pytest.raises(UnsupportedFamilyError):
        severini_pivot_check(make_circle(1.0, n=2), np.array([1.2, 0.0]))
    with pytest.raises(UnsupportedFamilyError):
        severini_pivot_check(make_location_scale(3), np.zeros(3))


def test_inversion_demo_values():
    report = cauchy_inversion_demo()
    assert report.component_count == 3
    assert report.line_segment_count == 3
    np.testing.assert_array_equal(report.theta_hat, [0.5, 1.5])
    np.testing.assert_array_equal(report.zhat, [-1.0, 1.0])
    pts = {tuple(np.round(row, 9)) for row in report.line_excluded_points}
    assert pts == {(0.0, 1.0), (-1.0, 0.0)}


def test_inversion_demo_resolution_stable():
    for resolution in (300, 640):
        report = cauchy_inversion_demo(resolution=resolution)
        assert report.component_count == 3
        assert report.line_segment_count == 3


def _labelled_component_count(ytilde0, window, resolution, bounds):
    """The demo's raster, its components counted by scipy.ndimage.label."""
    ytilde0 = np.asarray(ytilde0, dtype=float)
    zhat = np.sign(ytilde0 - ytilde0[::-1])
    axis = np.linspace(window[0], window[1], resolution)
    yy1, yy2 = np.meshgrid(axis, axis, indexing="ij")
    safe = (np.abs(yy1) > 1e-300) & (np.abs(yy2) > 1e-300)
    ytilde = np.stack([np.where(safe, 1.0 / yy1, np.inf),
                       np.where(safe, 1.0 / yy2, np.inf)], axis=-1)
    mask = safe & _halfplane_membership(ytilde, zhat, bounds)
    structure = np.ones((3, 3), dtype=int)
    return sum(ndimage.label(mask & s1 & s2, structure=structure)[1]
               for s1 in (yy1 > 0, yy1 < 0) for s2 in (yy2 > 0, yy2 < 0))


def _looped_segment_count(ytilde0, window, bounds, line_offset):
    """The demo's line segments, counted point by point."""
    ytilde0 = np.asarray(ytilde0, dtype=float)
    ts = np.linspace(window[0], window[1], 4801)
    line = np.stack([ts, ts + line_offset], axis=1)
    ok = (_halfplane_membership(line, np.sign(ytilde0 - ytilde0[::-1]), bounds)
          & ~non_invertible_mask(line, tol=1e-9))
    segments, previous = 0, None
    for keep, sign in zip(ok, map(tuple, np.sign(line))):
        if keep and sign != previous:
            segments += 1
        previous = sign if keep else None
    return segments


def test_inversion_counts_match_labelling_and_loop():
    """Each sign quadrant holds at most one component, so counting the
    non-empty quadrant pieces gives ndimage's 8-connected count; the line
    segments match a point-by-point count."""
    rng = np.random.default_rng(1203)
    cases = [((-1.0, 2.0), (-3.0, 3.0), 400, None, 1.0)]
    while len(cases) < 321:
        ytilde0 = tuple(rng.normal(0.0, 2.0, 2))
        window = tuple(sorted(rng.uniform(-4.0, 4.0, 2)))
        bounds = None if len(cases) % 2 else [tuple(sorted(rng.normal(0.0, 3.0, 2)))
                                               for _ in range(2)]
        cases.append((ytilde0, window, int(rng.integers(16, 260)), bounds, rng.normal(0.0, 2.0)))
    counts, segments = [], []
    for ytilde0, window, resolution, bounds, offset in cases:
        report = cauchy_inversion_demo(ytilde0, window, resolution, bounds, offset)
        want = _labelled_component_count(ytilde0, window, resolution, bounds)
        assert report.component_count == want, (ytilde0, window, resolution, bounds)
        assert report.line_segment_count == _looped_segment_count(ytilde0, window, bounds, offset)
        counts.append(want)
        segments.append(report.line_segment_count)
    assert counts[0] == 3 and set(counts) == {0, 1, 2, 3}
    assert segments[0] == 3 and set(segments) == {0, 1, 2, 3}


def test_inversion_demo_guards():
    with pytest.raises(InvalidDimensionError):
        cauchy_inversion_demo(ytilde0=(1.0, 2.0, 3.0))
    with pytest.raises(InvalidParameterError):
        cauchy_inversion_demo(resolution=8)
    with pytest.raises(SingularInformationError):
        cauchy_inversion_demo(ytilde0=(1.0, 1.0))


def test_cloud_csv_and_json_formats():
    model = make_circle(1.0, n=2, variance_scale=0.5)
    cloud = build_contour(model, np.array([0.9, 0.5]), GridSpec(1.0, 5))
    csv_text = cloud.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "t_1,y_1,y_2"
    assert len(lines) == 1 + len(cloud.points)
    first = [float(v) for v in lines[1].split(",")]
    np.testing.assert_allclose(first, np.concatenate([cloud.offsets[0],
                                                      cloud.points[0]]))
    payload = json.loads(dumps(cloud))
    assert payload["family"] == "circle2d"
    pts = np.array(payload["points"]["data"]).reshape(payload["points"]["dims"])
    np.testing.assert_array_equal(pts, cloud.points)


def test_cloud_rebuild_is_bit_identical():
    model = make_location_scale(5)
    rng = np.random.default_rng(93)
    y0 = rng.normal(0, 1, 5)
    a = build_contour(model, y0, GridSpec(2.0, 9))
    b = build_contour(model, y0, GridSpec(2.0, 9))
    assert dumps(a) == dumps(b)
    assert a.to_csv() == b.to_csv()


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_cloud_points_match_row_by_row_quantile(family):
    """The batched sweep equals one quantile call per grid row, byte for byte."""
    for model, _, y0 in iter_instances(family, 3, seed=95):
        cloud = build_contour(model, y0, GridSpec(2.0, 9))
        rows = [model.quantile(cloud.fit.x_hat, cloud.fit.theta_hat + off)
                for off in cloud.offsets]
        assert cloud.points.shape == (len(cloud.offsets), model.n)
        assert cloud.points.tobytes() == np.array(rows).tobytes()


def test_report_json_dicts_are_serializable():
    model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
    report = severini_pivot_check(model, np.array([1.25, 0.0, 0.15]))
    assert json.loads(dumps(report))["unique_in_neighborhood"] is True
    demo = cauchy_inversion_demo(resolution=200)
    assert json.loads(dumps(demo))["component_count"] == 3


# The fit-batch benchmark's datasets: family -> (model, true theta, probe t1 in
# standardized units, exact ancillary declared), 16 seed-1 draws each.
PIPELINE_FAMILIES = {
    "circle2d": (make_circle(1.0, n=2, variance_scale=1.0 / 64.0), (0.3,), (1.0,), True),
    "location-scale": (make_location_scale(8), (0.3, 1.1), (1.0, 0.5), True),
    "cauchy-location-scale": (make_location_scale(8, error_law="cauchy"), (0.3, 1.1),
                              (1.0, 0.5), True),
    "synthetic-curved": (make_synthetic_curved(24), (0.4,), (1.0,), False),
    "nonlinreg-unknown": (make_nonlinear_regression(eta_curved(16), "unknown"), (0.25, 0.9),
                          (0.8, -0.5), False),
}
# sha256 over the 80 datasets' digests, frozen so that a faster pipeline
# cannot alter a byte of a fit, cloud, probe or discrepancy unnoticed
PIPELINE_DIGEST = "baff0c1d52c388bf7113dfec248a26a1319cb256a3074decc005bfa453607fce"


def test_fit_batch_pipeline_is_byte_identical():
    """fit_mle -> build_contour -> compare_exact -> partition_check on every
    fit-batch dataset of seed 1, in the benchmark's order, each digested as
    the benchmark digests it: theta_hat, cloud points, y1, theta_hat1, then
    the repr of (discrepancy, label spread or None)."""
    draws = {name: spec[0].ref_sampler(1, 16) for name, spec in PIPELINE_FAMILIES.items()}
    total = hashlib.sha256()
    for k in range(16):
        for name, (model, theta, t1, exact) in PIPELINE_FAMILIES.items():
            y = model.quantile(draws[name][k], np.array(theta))
            grid = GridSpec(3.0, 21) if model.p == 1 else GridSpec(2.0, 11)
            fit = fit_mle(model, y)
            cloud = build_contour(model, y, grid, fit=fit)
            comp = compare_exact(model, cloud) if exact else None
            part = partition_check(model, y, np.array(t1), grid=grid)
            digest = hashlib.sha256()
            for arr in (fit.theta_hat, cloud.points, part.y1, part.theta_hat1):
                digest.update(np.ascontiguousarray(arr).tobytes())
            digest.update(repr((part.discrepancy, comp and comp.label_spread)).encode())
            total.update(digest.digest())
    assert total.hexdigest() == PIPELINE_DIGEST
