"""Verification harness: quadrature checks and replicated order studies."""

import json
import math

import numpy as np
import pytest

import ancontour.montecarlo as mc
from ancontour import (
    EmptyStudyError,
    InvalidParameterError,
    PartialResultsError,
    UnsupportedFamilyError,
    order_spec_from_config,
    partition_order_study,
    quadrature_first_derivative,
    run_replicated,
)
from ancontour.montecarlo import OrderStudySpec, _density_integral

# reference values computed with 30-digit arbitrary-precision quadrature
DENSITY_ORACLES = [
    ((0.0, 0.0, 1.0), 0.33453746999371104),
    ((1.0, 0.0, 1.0), 0.29430420466219109),
    ((-1.0, 0.5, 1.0), 0.14818084427048054),
    ((2.0, 0.5, 2.0), 0.15636893373053587),
    ((1.5, 0.0, 0.5), 0.18073610314160314),
]


@pytest.mark.parametrize("args,expected", DENSITY_ORACLES)
def test_density_integral_oracles(args, expected):
    assert abs(_density_integral(*args) - expected) < 1e-13


def test_density_integral_sign_flip_invariance():
    """f(a; theta, c) = f(-a; theta, -c): the gaussian factor is even."""
    for theta in (0.0, 0.3):
        for a, c in ((0.7, 1.0), (-1.2, 0.5), (2.0, 2.0)):
            lhs = _density_integral(a, theta, c)
            rhs = _density_integral(-a, theta, -c)
            assert abs(lhs - rhs) < 1e-12


def test_quadrature_report_bounds():
    report = quadrature_first_derivative()
    assert {case.c for case in report.cases} == {0.5, 1.0, 2.0}
    for case in report.cases:
        assert case.max_abs_derivative < 1e-10
        assert case.symmetry_gap < 1e-12
        assert case.flip_gap < 1e-10
        assert case.second_order_scale > 0.01
    assert report.max_abs_derivative < 1e-10
    assert len(report.a_grid) == 61


def test_quadrature_zero_curvature_case():
    """At c = 0 the statistic is an exact pivot: derivative and curvature die."""
    report = quadrature_first_derivative(c_values=(0.0,))
    case = report.cases[0]
    assert case.max_abs_derivative < 1e-10
    assert case.second_order_scale < 1e-10


def test_quadrature_second_order_scale_value():
    """First-order ancillarity only: the theta^2 coefficient is genuinely there."""
    report = quadrature_first_derivative(c_values=(1.0,))
    assert abs(report.cases[0].second_order_scale - 0.070887002079149) < 1e-9
    assert report.cases[0].second_order_scale > 0.05


def test_quadrature_report_formats():
    report = quadrature_first_derivative(c_values=(1.0,),
                                         a_grid=np.linspace(-2, 2, 9))
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["study"] == "quadrature"
    assert len(payload["cases"]) == 1
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "c,max_abs_derivative,symmetry_gap,flip_gap,second_order_scale"
    assert len(lines) == 1 + len(report.cases)


def test_order_spec_validation():
    with pytest.raises(EmptyStudyError):
        OrderStudySpec(reps=0).validate()
    with pytest.raises(UnsupportedFamilyError):
        OrderStudySpec(family="gamma").validate()
    with pytest.raises(InvalidParameterError):
        OrderStudySpec(cells=1).validate()
    with pytest.raises(InvalidParameterError):
        OrderStudySpec(batch_size=0).validate()
    with pytest.raises(InvalidParameterError):
        OrderStudySpec(deltas=()).validate()
    with pytest.raises(InvalidParameterError):
        OrderStudySpec(deltas=(-0.5,)).validate()
    with pytest.raises(InvalidParameterError):
        OrderStudySpec(n_grid=(1, 16)).validate()
    for bad in ({"n_grid": (8.5,)}, {"cells": 8.0}, {"lattice_points": 2}, {"rho": 0.0}):
        with pytest.raises(InvalidParameterError):
            OrderStudySpec(**bad).validate()


def test_order_spec_from_config():
    spec = order_spec_from_config({
        "study": "ancillarity-order",
        "family": "circle",
        "n_grid": [8, 16],
        "deltas": [1.0],
        "reps": 200,
        "batch_size": 100,
    })
    assert spec.n_grid == (8, 16)
    assert spec.deltas == (1.0,)
    with pytest.raises(InvalidParameterError):
        order_spec_from_config({"family": "circle", "bogus": 3})


def test_order_study_rerun_identity():
    """The report payload depends on the spec alone."""
    spec = OrderStudySpec(family="circle", n_grid=(16, 32), deltas=(1.0, 2.0),
                          reps=400, batch_size=100, cells=6)
    first = run_replicated(spec)
    again = run_replicated(spec)
    assert first.to_json() == again.to_json()
    assert first.to_csv() == again.to_csv()


def test_order_study_partial_results_error(monkeypatch):
    spec = OrderStudySpec(family="circle", n_grid=(8, 16), deltas=(1.0,),
                          reps=300, batch_size=100)
    original = mc._run_batch

    def failing(spec_arg, ctx, n_idx, batch_idx, count):
        if n_idx == 1 and batch_idx == 2:
            raise RuntimeError("simulated batch failure")
        return original(spec_arg, ctx, n_idx, batch_idx, count)

    monkeypatch.setattr(mc, "_run_batch", failing)
    with pytest.raises(PartialResultsError) as err:
        run_replicated(spec)
    assert len(err.value.completed) >= 1


def test_order_study_zero_delta_probe_is_null():
    """A zero offset reuses the same draws, so every statistic is exactly zero."""
    spec = OrderStudySpec(family="circle", n_grid=(16,), deltas=(0.0,),
                          reps=200, batch_size=100)
    report = run_replicated(spec)
    for arm in report.arms.values():
        for row in arm.per_n:
            assert row.sensitivity == 0.0
            assert all(z == 0.0 for z in row.per_cell_z)
            for entry in row.per_delta:
                assert entry["tv_per_std"] == 0.0
    assert not report.inconclusive
    json.dumps(report.to_json_dict())  # None slope serializes


def test_order_study_se_scaling_with_reps():
    """Monte Carlo error shrinks like 1 / sqrt(reps) on the reported scale."""

    def pooled_ses(reps):
        spec = OrderStudySpec(family="circle", n_grid=(16,),
                              deltas=(0.5, 1.0, 2.0), reps=reps,
                              batch_size=100, cells=8)
        report = run_replicated(spec)
        out = []
        for arm in report.arms.values():
            for row in arm.per_n:
                out.extend(entry["se"] for entry in row.per_delta)
        return np.array(out)

    base = pooled_ses(1600)
    double = pooled_ses(3200)
    quad = pooled_ses(6400)
    assert np.all(base > 0)
    ratio2 = float(np.mean(double / base))
    ratio4 = float(np.mean(quad / base))
    # quadrupling the replications halves the standard error within 20 percent
    assert 0.4 < ratio4 < 0.6
    assert 0.57 < ratio2 < 0.85


def test_order_study_location_scale_sensitivity_is_exactly_zero():
    """The exact-ancillary family: cell occupancies never react to the probe."""
    spec = OrderStudySpec(family="location-scale", n_grid=(8, 16),
                          deltas=(1.0,), reps=600, batch_size=200)
    report = run_replicated(spec)
    assert set(report.arms) == {"second_order"}
    for row in report.arms["second_order"].per_n:
        assert row.sensitivity == 0.0
        assert row.se == 0.0
        assert all(z == 0.0 for z in row.per_cell_z)
    assert report.arms["second_order"].slope is None
    assert not report.inconclusive


def test_order_study_circle_arms_small():
    """Both arms respond on the curved family, tangent-only responding more."""
    spec = OrderStudySpec(family="circle", n_grid=(16, 32), deltas=(1.0, 2.0),
                          reps=2000, batch_size=250)
    report = run_replicated(spec)
    second = {row.n: row.sensitivity for row in report.arms["second_order"].per_n}
    tangent = {row.n: row.sensitivity for row in report.arms["tangent_only"].per_n}
    for n in (16, 32):
        assert second[n] > 0
        assert tangent[n] > second[n]


def test_partition_order_study_decay():
    report = partition_order_study(n_grid=(16, 64, 256), draws=6)
    means = report.mean_discrepancy
    assert len(means) == 3
    assert means[0] > means[1] > means[2]
    assert -1.3 < report.slope < -0.7
    payload = json.loads(report.to_json())
    assert payload["study"] == "partition-order"
    np.testing.assert_allclose(payload["mean_discrepancy"], means)


def test_partition_order_study_guards():
    with pytest.raises(EmptyStudyError):
        partition_order_study(draws=0)
    with pytest.raises(EmptyStudyError):
        partition_order_study(n_grid=())


def test_partition_order_study_rerun_identical():
    a = partition_order_study(n_grid=(16, 64), draws=4)
    b = partition_order_study(n_grid=(16, 64), draws=4)
    assert a.to_json() == b.to_json()
