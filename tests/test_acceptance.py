"""Numbered end-to-end acceptance checks with wall-clock budgets.

Each test covers one acceptance criterion, prints exactly one greppable
``ACCEPTANCE <n>: PASS/FAIL`` line, and fails if the check runs over its
time budget.  Run with ``pytest -rA`` to see the lines for passing tests.
"""

import time
from contextlib import contextmanager

import numpy as np

from conftest import FAMILY_NAMES, MASTER_SEED, iter_instances
from ancontour import (
    GridSpec,
    OrderStudySpec,
    build_contour,
    build_frame,
    cauchy_inversion_demo,
    compare_exact,
    exact_label,
    fit_mle,
    make_circle,
    make_location_scale,
    non_invertible_mask,
    partition_check,
    partition_order_study,
    quadratic_point,
    quadrature_first_derivative,
    reparameterize,
    run_replicated,
    severini_pivot_check,
)
from ancontour._jsonio import dumps


@contextmanager
def _criterion(number: int, label: str, budget: float | None):
    """Time a criterion body and print its single PASS/FAIL summary line."""
    start = time.perf_counter()
    info = {"detail": ""}
    try:
        yield info
        elapsed = time.perf_counter() - start
        if budget is not None and elapsed > budget:
            raise AssertionError(
                f"wall time {elapsed:.2f}s exceeds the {budget:.0f}s budget")
    except BaseException as exc:
        print(f"ACCEPTANCE {number}: FAIL - {label}: {exc}")
        raise
    timing = f"{elapsed:.2f}s" + (f" of {budget:.0f}s" if budget else "")
    tail = f"; {info['detail']}" if info["detail"] else ""
    print(f"ACCEPTANCE {number}: PASS - {label} ({timing}{tail})")


LOCSCALE_Y0 = np.array([0.41, -1.37, 2.06, 0.64, -0.58])


def test_criterion_1_circle_geometry():
    with _criterion(1, "circle contour geometry", 1.0) as info:
        model = make_circle(1.0, n=2, variance_scale=1.0)
        y0 = np.array([1.2, 0.0])
        fit = fit_mle(model, y0)
        assert abs(fit.theta_hat[0]) <= 1e-12, "theta_hat must be 0"
        assert np.max(np.abs(fit.x_hat - [0.2, 0.0])) <= 1e-12, "x_hat must be (0.2, 0)"

        cloud = build_contour(model, y0, fit=fit)
        angles = cloud.offsets[:, 0]
        expected = np.stack([0.2 + np.cos(angles), np.sin(angles)], axis=1)
        assert np.max(np.abs(cloud.points - expected)) <= 1e-10, \
            "contour must equal (0.2, 0) + (cos t, sin t)"

        velocity = cloud.frame.velocity[:, 0]
        assert np.max(np.abs(velocity - [0.0, 1.0])) <= 1e-12, "tangent must be (0, 1)'"
        fine = build_contour(model, y0, grid=GridSpec(0.02, 5), fit=fit)
        pts = fine.points
        h = fine.offsets[1, 0] - fine.offsets[0, 0]
        fd_tangent = (-pts[4] + 8.0 * pts[3] - 8.0 * pts[1] + pts[0]) / (12.0 * h)
        assert np.linalg.norm(fd_tangent - velocity) <= 1e-6, \
            "analytic tangent must match finite differences to 1e-6"

        accel = cloud.frame.acceleration[:, 0, 0]
        assert abs(np.dot(velocity, accel)) <= 1e-10, \
            "acceleration must be orthogonal to the tangent"

        report = compare_exact(model, cloud)
        assert abs(report.radius_contour - 1.0) <= 1e-8, "contour radius must be rho = 1"
        assert abs(report.radius_exact - 1.2) <= 1e-12, "exact radius must be r0 = 1.2"
        info["detail"] = (
            f"radii=({report.radius_contour:.10f}, {report.radius_exact:.10f})")


def test_criterion_2_location_scale_exactness():
    with _criterion(2, "location-scale exactness", 1.0) as info:
        model = make_location_scale(5)
        cloud = build_contour(model, LOCSCALE_Y0)

        zhat = exact_label(model, LOCSCALE_Y0)
        basis = np.stack([np.ones(model.n), zhat], axis=1)
        coef, *_ = np.linalg.lstsq(basis, cloud.points.T, rcond=None)
        resid = cloud.points.T - basis @ coef
        assert np.max(np.abs(resid)) <= 1e-10, "cloud must lie in span{1, zhat}"
        assert np.all(coef[1] > 0.0), "scale coordinate must stay positive"

        report = compare_exact(model, cloud)
        assert report.label_spread <= 1e-12, "configuration spread must vanish"

        assert np.count_nonzero(cloud.frame.acceleration) == 0, "W must be zero"
        assert np.count_nonzero(cloud.frame.normal_acceleration) == 0, "W~ must be zero"
        info["detail"] = (
            f"spread={report.label_spread:.3e} over {len(cloud.points)} points")


def test_criterion_3_partition_property():
    with _criterion(3, "contour partition property", 120.0) as info:
        ls_model = make_location_scale(5)
        ls_report = partition_check(ls_model, LOCSCALE_Y0, t1_std=np.array([1.0, 0.5]))
        assert ls_report.discrepancy <= 1e-10, \
            f"location-scale partition discrepancy {ls_report.discrepancy:.3e}"

        circle = make_circle(1.0, n=2, variance_scale=1.0)
        circle_report = partition_check(circle, np.array([1.0, 0.0]),
                                        t1_std=np.array([1.2]))
        assert circle_report.discrepancy <= 1e-10, \
            f"circle partition discrepancy {circle_report.discrepancy:.3e}"

        study = partition_order_study()
        assert -1.3 <= study.slope <= -0.7, \
            f"discrepancy decay slope {study.slope:.3f} outside -1 +/- 0.3"
        info["detail"] = (
            f"loc-scale={ls_report.discrepancy:.2e}, "
            f"circle={circle_report.discrepancy:.2e}, slope={study.slope:.3f}")


def test_criterion_4_first_derivative_quadrature():
    with _criterion(4, "first-derivative quadrature", 5.0) as info:
        report = quadrature_first_derivative()
        assert tuple(case.c for case in report.cases) == (0.5, 1.0, 2.0)
        worst_deriv = max(case.max_abs_derivative for case in report.cases)
        worst_sym = max(case.symmetry_gap for case in report.cases)
        assert worst_deriv < 1e-8, f"max |df/dtheta| at 0 is {worst_deriv:.3e}"
        assert worst_sym <= 1e-12, f"theta-symmetry gap is {worst_sym:.3e}"
        info["detail"] = f"max_deriv={worst_deriv:.2e}, sym_gap={worst_sym:.2e}"


def test_criterion_5_ancillarity_order_study():
    with _criterion(5, "ancillarity order study", 600.0) as info:
        spec = OrderStudySpec()
        assert spec.reps == 20000
        report = run_replicated(spec)
        assert not report.inconclusive, "study must resolve both slopes"

        second = report.arms["second_order"]
        tangent = report.arms["tangent_only"]
        assert -1.3 <= second.slope <= -0.7, \
            f"second-order arm slope {second.slope:.3f} outside -1 +/- 0.3"
        assert -0.8 <= tangent.slope <= -0.2, \
            f"tangent-only arm slope {tangent.slope:.3f} outside -0.5 +/- 0.3"
        for srow, trow in zip(second.per_n, tangent.per_n):
            assert trow.sensitivity > srow.sensitivity, \
                f"tangent arm must dominate at n={srow.n}"
        info["detail"] = (
            f"slopes=({second.slope:.3f}, {tangent.slope:.3f}) at reps={spec.reps}")


def test_criterion_6_severini_counterexample():
    with _criterion(6, "plug-in pivot back-solve", 1.0) as info:
        model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
        y0 = np.array([1.25, 0.0, 0.15])
        report = severini_pivot_check(model, y0)
        assert report.unique_in_neighborhood, "pivot level set must be unique near y0"
        assert report.solution_set_dim == 0, "solution set must be zero-dimensional"
        assert report.max_gap_to_y0 <= 1e-8, \
            f"back-solve gap {report.max_gap_to_y0:.3e} above 1e-8"
        info["detail"] = f"gap={report.max_gap_to_y0:.2e}, solutions={len(report.solutions)}"


def test_criterion_7_cauchy_inversion():
    with _criterion(7, "inverted-coordinate contour components", 30.0) as info:
        report = cauchy_inversion_demo()
        assert report.component_count == 3, \
            f"back-mapped contour has {report.component_count} components, expected 3"
        excluded = report.line_excluded_points
        assert len(excluded) > 0, "the marked line must cross a coordinate axis"
        mask = non_invertible_mask(excluded)
        assert mask.all(), "every excluded point must have a zero coordinate"
        info["detail"] = (
            f"components={report.component_count}, flagged_points={len(excluded)}")


def test_criterion_8_property_suites():
    with _criterion(8, "randomized property suites", None) as info:
        worst = {"roundtrip": 0.0, "orth": 0.0, "projector": 0.0, "reparam": 0.0}
        total = 0
        for family in FAMILY_NAMES:
            for model, _, y in iter_instances(family, 200, seed=MASTER_SEED):
                fit = fit_mle(model, y)
                assert fit.converged, f"{family}: fit must converge"
                gap = np.linalg.norm(model.quantile(fit.x_hat, fit.theta_hat) - y)
                assert gap <= 1e-10, f"{family}: roundtrip gap {gap:.3e}"
                worst["roundtrip"] = max(worst["roundtrip"], gap)

                frame = build_frame(model, fit.x_hat, fit.theta_hat)
                vel, normal = frame.velocity, frame.normal_acceleration
                cross = np.einsum("na,nbc->abc", vel, normal)
                scale = 1.0 + np.linalg.norm(vel) * np.linalg.norm(normal)
                orth = np.max(np.abs(cross)) / scale
                assert orth <= 1e-10, f"{family}: V'W~ residual {orth:.3e}"
                worst["orth"] = max(worst["orth"], orth)

                projector = vel @ np.linalg.inv(frame.gram) @ vel.T
                proj = np.max(np.abs(projector @ projector - projector))
                assert proj <= 1e-12, f"{family}: projector not idempotent ({proj:.3e})"
                worst["projector"] = max(worst["projector"], proj)

                t = np.full(model.p, 0.2)
                t_tilde = reparameterize(frame, t)
                tilted = (frame.base_point + vel @ t_tilde
                          + 0.5 * np.einsum("nab,a,b->n", normal, t, t))
                rep_gap = np.linalg.norm(tilted - quadratic_point(frame, t))
                bound = 1e-8 * (1.0 + np.linalg.norm(frame.base_point))
                assert rep_gap <= bound, f"{family}: tilt identity gap {rep_gap:.3e}"
                worst["reparam"] = max(worst["reparam"], rep_gap)
                total += 1

        spec = OrderStudySpec(n_grid=(8, 16), reps=400, batch_size=100)
        first = run_replicated(spec)
        again = run_replicated(spec)
        assert dumps(first) == dumps(again), \
            "replicated study must be bit-identical across reruns"

        ls_model = make_location_scale(5)
        cloud_a = build_contour(ls_model, LOCSCALE_Y0)
        cloud_b = build_contour(ls_model, LOCSCALE_Y0)
        assert dumps(cloud_a) == dumps(cloud_b), \
            "contour cloud must be bit-identical across reruns"

        info["detail"] = (
            f"{total} instances over {len(FAMILY_NAMES)} families, "
            f"worst roundtrip={worst['roundtrip']:.1e}, orth={worst['orth']:.1e}")
