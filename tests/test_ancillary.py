"""Contour clouds, partition checks, pivot back-solve, inversion demo."""

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
    SingularInformationError,
    UnsupportedFamilyError,
    build_contour,
    cauchy_inversion_demo,
    compare_exact,
    contour_min_distance,
    eta_curved,
    exact_label,
    fit_mle,
    invert_coordinates,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    make_synthetic_curved,
    partition_check,
    severini_pivot,
    severini_pivot_check,
)
from ancontour.ancillary import _halfplane_membership
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
    with pytest.raises(InvalidParameterError):
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


def _loop_min_distance(model, fit, q, t_init, max_iter=60, halvings=None):
    """Reference: Gauss-Newton for one point, one backtracking scale at a time.

    halvings, when a list, gets the number of halvings of each accepted step."""
    theta, t = fit.theta_hat, np.asarray(t_init, dtype=float).copy()

    def in_domain(tv):
        return all(lo < theta[j] + tv[j] < hi for j, (lo, hi) in enumerate(model.param_domain))

    for _ in range(60):
        if in_domain(t):
            break
        t *= 0.5
    r = q - model.quantile(fit.x_hat, theta + t)
    value = float(r @ r)
    for _ in range(max_iter):
        vel = model.dquantile_dtheta(fit.x_hat, theta + t)
        gram = vel.T @ vel
        try:
            step = np.linalg.solve(gram + 1e-14 * np.trace(gram) * np.eye(model.p), vel.T @ r)
        except np.linalg.LinAlgError:
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


@pytest.mark.parametrize("family", FAMILY_NAMES)
def test_batched_contour_min_distance_matches_single_points(family):
    """Rows solved together agree with one call per point and with the
    one-point loop, from starts on and off the domain edge and points on and
    off the contour, also when stopped after two iterations, where each
    row's path still shows.  Rows restarted at their own minimizer sit at
    rounding, where a step needs ten and more halvings."""
    halvings = []
    for model, theta, y in iter_instances(family, 3, seed=301):
        fit = fit_mle(model, y)
        rng = np.random.default_rng(7)
        offsets = rng.normal(0.0, 0.3, (25, model.p)) * np.abs(fit.theta_hat)
        points = model.quantile(fit.x_hat, fit.theta_hat + offsets)
        points[::2] += rng.normal(0.0, 0.05, (13, model.n))
        t_init = offsets + rng.normal(0.0, 0.1, offsets.shape)
        t_init[-1, -1] = -2.0 * fit.theta_hat[-1]  # a sigma start outside (0, inf)
        points = np.vstack([points, points])
        t_init = np.vstack([t_init, contour_min_distance(model, fit, points[:25], t_init)[1]])
        for max_iter in (2, 60):
            dist, t = contour_min_distance(model, fit, points, t_init, max_iter)
            assert dist.shape == (50,) and t.shape == (50, model.p)
            for k in range(50):
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
        owner = np.arange(50) % 3
        anchor = SimpleNamespace(x_hat=np.array([fits[k].x_hat for k in owner]),
                                 theta_hat=np.array([fits[k].theta_hat for k in owner]))
        dist, t = contour_min_distance(model, anchor, points, t_init)
        for k, one_fit in enumerate(fits):
            one, t_one = contour_min_distance(model, one_fit, points[owner == k],
                                              t_init[owner == k])
            assert (one.tobytes(), t_one.tobytes()) == (dist[owner == k].tobytes(),
                                                        t[owner == k].tobytes())
        with pytest.raises(InvalidDimensionError, match="one per row"):
            contour_min_distance(model, anchor, points[:49], t_init[:49])
    assert max(halvings) >= 10


def test_backtracking_blocks_split_one_rows_scales():
    """At n = 1024 one halving of 21 rows fills a block, so while more than
    ten rows search each halving is its own call and the halvings of one row
    span several calls: rows restarted at their own minimizer, where a step
    needs ten and more halvings, take more than two quantile calls per
    iteration.  Every row, from its start and restarted, still ends on the
    one-point loop's bits."""
    model = make_synthetic_curved(1024)
    y0 = model.quantile(model.ref_sampler(20260816, 1)[0], np.array([0.4]))
    fit = fit_mle(model, y0)
    rng = np.random.default_rng(11)
    offsets = np.linspace(-0.3, 0.3, 21)[:, None]
    points = model.quantile(fit.x_hat, fit.theta_hat + offsets)
    points[::2] += rng.normal(0.0, 0.01, (11, model.n))
    t_init = offsets + rng.normal(0.0, 0.05, offsets.shape)
    dist, t = contour_min_distance(model, fit, points, t_init)
    calls = {"quantile": 0, "dquantile_dtheta": 0}
    again, t_again = contour_min_distance(_counting(model, calls), fit, points, t)
    halvings = []
    for k in range(21):
        ref, t_ref = _loop_min_distance(model, fit, points[k], t_init[k])
        assert (dist[k], t[k].tobytes()) == (ref, t_ref.tobytes())
        ref, t_ref = _loop_min_distance(model, fit, points[k], t[k], halvings=halvings)
        assert (again[k], t_again[k].tobytes()) == (ref, t_ref.tobytes())
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
    """With every halving in one block, a Gauss-Newton iteration of
    partition_check's refinement makes one quantile call at scale 1 and at
    most one for all smaller scales, after one call for the start."""
    import ancontour.ancillary as anc

    model, theta = {"circle2d": (make_circle(1.0, n=2, variance_scale=1.0 / 64.0), 0.3),
                    "synthetic-curved": (make_synthetic_curved(24), 0.4)}[family]

    monkeypatch.setattr(anc, "_BLOCK", 1 << 30)
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
    "inverted-cauchy": invert_coordinates(make_location_scale(6, error_law="cauchy")).model,
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
    """The nearest-grid-point search and the batched refinement hold bounded
    blocks: the nonlinreg-unknown example's check, and a synthetic-curved one
    at n = 1024 whose backtracking candidates overflow one block, peak well
    under 4 MiB."""
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
    assert json.dumps(reused.to_json_dict()) == json.dumps(fresh.to_json_dict())


def test_partition_pass_with_ragged_drops_matches_one_draw_checks():
    """Draws whose raw-unit grids drop different numbers of points (sigma
    offsets that leave (0, inf)), checked in one pass, each keep the report
    of their own partition_check, bit for bit, and its discrepancy is the
    largest refined distance of the draw's rebuilt cloud from the nearest
    point of its own cloud."""
    from ancontour.ancillary import _partition_pass

    model = make_location_scale(4)
    y0 = model.quantile(model.ref_sampler(11, 6), np.array([0.3, 1.1]))
    grid = GridSpec(1.0, 9, standardized=False)
    assert len({build_contour(model, y, grid).dropped_out_of_domain for y in y0}) > 2
    for y, report in zip(y0, _partition_pass(model, y0, np.array([1.0, 0.5]), grid)):
        one = partition_check(model, y, np.array([1.0, 0.5]), grid)
        assert json.dumps(report.to_json_dict()) == json.dumps(one.to_json_dict())
        cloud0, cloud1 = build_contour(model, y, grid), build_contour(model, report.y1, grid)
        gaps = np.sum((cloud1.points[:, None] - cloud0.points) ** 2, axis=2)
        dist, _ = contour_min_distance(model, cloud0.fit, cloud1.points,
                                       cloud0.offsets[np.argmin(gaps, axis=1)])
        assert report.discrepancy == np.max(dist)


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
    payload = json.loads(cloud.to_json())
    assert payload["family"] == "circle2d"
    pts = np.array(payload["points"]["data"]).reshape(payload["points"]["dims"])
    np.testing.assert_array_equal(pts, cloud.points)


def test_cloud_rebuild_is_bit_identical():
    model = make_location_scale(5)
    rng = np.random.default_rng(93)
    y0 = rng.normal(0, 1, 5)
    a = build_contour(model, y0, GridSpec(2.0, 9))
    b = build_contour(model, y0, GridSpec(2.0, 9))
    assert a.to_json() == b.to_json()
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
    text = json.dumps(report.to_json_dict(), sort_keys=True)
    assert json.loads(text)["unique_in_neighborhood"] is True
    demo = cauchy_inversion_demo(resolution=200)
    assert json.loads(json.dumps(demo.to_json_dict()))["component_count"] == 3
