"""Verification harness: quadrature checks and replicated order studies."""

import json
import math
from statistics import NormalDist

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ancontour.montecarlo as mc
from ancontour import (
    EmptyStudyError,
    GridSpec,
    InvalidParameterError,
    NumericalFailureError,
    PartialResultsError,
    UnsupportedFamilyError,
    build_contour,
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


def test_density_integral_accepts_an_array_of_a():
    a = np.linspace(-3.0, 3.0, 13)
    values = _density_integral(a, 0.4, 1.5)
    assert values.shape == a.shape
    for a_i, value in zip(a, values):
        assert abs(_density_integral(a_i, 0.4, 1.5) - value) < 1e-15


def test_quadrature_gaps_are_exactly_zero():
    """Mirror-image nodes are summed in pairs, so the symmetries hold bit for bit."""
    for case in quadrature_first_derivative().cases:
        assert case.max_abs_derivative == 0.0
        assert case.symmetry_gap == 0.0
        assert case.flip_gap == 0.0


def test_density_integral_names_an_unresolved_integrand():
    """A curvature too sharp for the fixed rule raises instead of returning a value."""
    with pytest.raises(NumericalFailureError, match="error estimate"):
        _density_integral(np.linspace(-4.0, 4.0, 81), 0.0, 8.0)


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
    for bad in ({"n_grid": (8.5,)}, {"n_grid": (16, 16)}, {"cells": 8.0},
                {"lattice_points": 2}, {"rho": 0.0},
                {"family": "location-scale", "n_grid": (2, 8)}):
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


def _explicit_lattice(spec, ctx):
    """Every lattice node, one equal-sized block per cell, for a KD-tree oracle."""
    if spec.family == "circle":
        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * ctx.sd
        grid = GridSpec(half_width=spec.lattice_half_width,
                        points_per_axis=spec.lattice_points)
        clouds = [build_contour(ctx.model, (spec.rho + tau) * u, grid) for tau in centers]
        return {"second_order": [c.points for c in clouds],
                "tangent_only": [c.base_point + c.offsets @ c.frame.velocity.T
                                 for c in clouds]}
    n = ctx.n
    base = np.sort([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    base = (base - base.mean()) / math.sqrt(np.mean((base - base.mean()) ** 2))
    direction = np.sin(2.0 * math.pi * (np.arange(n) + 0.25) / n)
    ones = np.ones(n) / math.sqrt(n)
    direction -= (direction @ ones) * ones
    direction -= (direction @ base) * base / float(base @ base)
    direction /= np.linalg.norm(direction)
    mm, ss = np.meshgrid(np.linspace(-3.0, 3.0, 41) / math.sqrt(n),
                         1.0 + np.linspace(-3.0, 3.0, 41) / math.sqrt(2.0 * n), indexing="ij")
    blocks = []
    for tau in (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * 0.5:
        z = base + tau * direction
        z = (z - z.mean()) / math.sqrt(np.mean((z - z.mean()) ** 2))
        blocks.append(mm.reshape(-1, 1) + ss.reshape(-1, 1) * z[None, :])
    return {"second_order": blocks}


@pytest.mark.parametrize("spec", [
    OrderStudySpec(n_grid=(2, 5, 16, 128), theta_star=2.5),
    OrderStudySpec(n_grid=(2, 16), theta_star=2.5, lattice_points=40,
                   lattice_half_width=2.0),
    OrderStudySpec(n_grid=(2, 16), theta_star=2.5, cells=3, rho=0.3),
    OrderStudySpec(family="location-scale", n_grid=(3, 8, 64), cells=5),
], ids=["circle", "circle-short-even-lattice", "circle-3-cells", "location-scale"])
def test_closed_form_labels_match_kd_tree(spec):
    """Snapping to each lattice picks the cell a KD-tree over all nodes picks."""
    from scipy.spatial import cKDTree

    for n in spec.n_grid:
        ctx = mc._StudyContext(spec, n)
        x = ctx.draw(np.random.default_rng(n), 1000)
        for arm, blocks in _explicit_lattice(spec, ctx).items():
            tree = cKDTree(np.vstack(blocks))
            for base in ctx.bases:
                y = base + x
                np.testing.assert_array_equal(ctx.labels(arm, y),
                                              tree.query(y)[1] // len(blocks[0]))


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["reach-below-pi", "reach-above-pi"])
def test_arc_labels_match_kd_tree_near_half_turn(side):
    """Arcs whose largest offset max |t| sits just below pi snap one turn of
    a point's angle, just above pi three; either way the labels are a
    KD-tree's over every node, for the draws and for points all around."""
    from dataclasses import replace

    from scipy.spatial import cKDTree

    def reach(spec):
        ctx = mc._StudyContext(spec, 16)
        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        grid = GridSpec(half_width=spec.lattice_half_width, points_per_axis=spec.lattice_points)
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * ctx.sd
        return ctx, max(float(np.max(np.abs(build_contour(ctx.model, (spec.rho + tau) * u,
                                                          grid).offsets))) for tau in centers)

    unit = OrderStudySpec(n_grid=(16,), theta_star=2.5, lattice_half_width=1.0)
    spec = replace(unit, lattice_half_width=math.pi * (1.0 + 1e-3 * side) / reach(unit)[1])
    ctx, max_t = reach(spec)
    assert side * (max_t - math.pi) > 0.0
    arcs = _explicit_lattice(spec, ctx)["second_order"]
    tree = cKDTree(np.vstack(arcs))
    ring = np.random.default_rng(5).uniform(-3.0, 3.0, (2000, 2))
    for y in [base + ctx.draw(np.random.default_rng(16), 1000) for base in ctx.bases] + [ring]:
        np.testing.assert_array_equal(ctx.labels("second_order", y),
                                      tree.query(y)[1] // len(arcs[0]))
    # each cell's score is its squared distance to the nearest node, less rho^2
    nearest = np.array([np.min(np.sum((ring[:, None] - arc) ** 2, axis=2), axis=1)
                        for arc in arcs])
    np.testing.assert_allclose(ctx.scores["second_order"](ring), nearest - spec.rho**2,
                               rtol=0, atol=1e-12)


TWO_PI = 2.0 * math.pi


@settings(derandomize=True, database=None, max_examples=400)
@given(st.floats(-TWO_PI, 2.0 * TWO_PI, exclude_max=True))
@example(-TWO_PI)
@example(-0.0)
@example(0.0)
@example(-1e-300)
@example(float(np.nextafter(TWO_PI, 0.0)))
@example(TWO_PI)
@example(float(np.nextafter(2.0 * TWO_PI, 0.0)))
def test_wrap_is_remainder_bit_for_bit(a):
    """On [-2 pi, 4 pi) the two conditional shifts give np.remainder's bits,
    +0.0 for -0.0 and 2 pi for a tiny negative a included."""
    got = mc._wrap(np.array([a]))
    assert got.tobytes() == np.remainder(np.array([a]), TWO_PI).tobytes()


def _every_turn_arc(spec, ctx, y):
    """The arc score as (arctan2 - theta_hat + pi) % 2 pi - pi, with seven
    turns of every point's angle snapped, each step on a fresh array."""
    u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
    centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * ctx.sd
    grid = GridSpec(half_width=spec.lattice_half_width, points_per_axis=spec.lattice_points)
    clouds = [build_contour(ctx.model, (spec.rho + tau) * u, grid) for tau in centers]
    x1, x2 = (np.array([[c.fit.x_hat[i]] for c in clouds]) for i in (0, 1))
    theta_hat = np.array([c.fit.theta_hat for c in clouds])
    t_axis = np.array([c.offsets[:, 0] for c in clouds])
    last = t_axis.shape[1] - 1
    d1, d2 = y[:, 0] - x1, y[:, 1] - x2
    phi = (np.arctan2(d2, d1) - theta_hat + math.pi) % TWO_PI - math.pi
    node_cos, node_sin = np.cos(theta_hat + t_axis), np.sin(theta_hat + t_axis)
    along = np.maximum(d1 * node_cos[:, :1] + d2 * node_sin[:, :1],
                       d1 * node_cos[:, -1:] + d2 * node_sin[:, -1:])
    step = (t_axis[:, -1:] - t_axis[:, :1]) / last
    for m in range(-3, 4):
        k = np.clip(np.rint((phi + TWO_PI * m - t_axis[:, :1]) / step), 0, last).astype(np.intp)
        along = np.maximum(along, d1 * np.take_along_axis(node_cos, k, axis=1)
                           + d2 * np.take_along_axis(node_sin, k, axis=1))
    return d1 * d1 + d2 * d2 - 2.0 * spec.rho * along


@pytest.mark.parametrize("theta_star", [0.0, 2.5, -3.0])
def test_arc_scores_match_every_turn_bit_for_bit(theta_star):
    """Turns are snapped only for the points that can land inside an arc, in
    place, on the draws as rows or as contiguous coordinate rows: every
    score still has the bits of snapping every turn of every point, for
    draws and for points all around (arcs reaching past pi at n = 2 and 16)."""
    spec = OrderStudySpec(n_grid=(2, 16), theta_star=theta_star)
    ring = np.random.default_rng(5).uniform(-3.0, 3.0, (2000, 2))
    for n in spec.n_grid:
        ctx = mc._StudyContext(spec, n)
        x = ctx.draw(np.random.default_rng(n), 1000)
        for y in [base + x for base in ctx.bases] + [ring]:
            want = _every_turn_arc(spec, ctx, y).tobytes()
            assert ctx.scores["second_order"](y).tobytes() == want
            assert ctx.scores["second_order"](np.ascontiguousarray(y.T).T).tobytes() == want


@pytest.mark.parametrize("theta_star,turn", [(2.5, 1), (-2.5, -1)], ids=["above", "below"])
def test_arc_labelling_names_a_theta_hat_outside_its_range(theta_star, turn, monkeypatch):
    """A cell fit a turn away from its arctan2 angle, past 2 pi or -2 pi,
    raises before any draw is labelled instead of reducing angles wrongly."""
    from dataclasses import replace

    build = mc.build_contour

    def turned(*args):
        cloud = build(*args)
        theta_hat = cloud.fit.theta_hat + turn * TWO_PI
        return replace(cloud, fit=replace(cloud.fit, theta_hat=theta_hat))

    monkeypatch.setattr(mc, "build_contour", turned)
    spec = OrderStudySpec(n_grid=(16,), theta_star=theta_star, reps=100, batch_size=100)
    with pytest.raises(NumericalFailureError, match=r"theta_hat in \(-2 pi, 2 pi\]"):
        run_replicated(spec)


# sha256 of each report's JSON and CSV and of one batch's label counts, as
# the labelling computed them with np.remainder and one snap call per turn
FROZEN_REPORTS = [
    (OrderStudySpec(n_grid=(16, 32), deltas=(1.0, 2.0), reps=400, batch_size=100, cells=6),
     "2dfcc770c1ee4324cbc93d88ff4bebb48f91876d009c49bc25e812047430ebb7",
     "0be277738342a1f3ba30c42fef266dc549a085848665921ec3c996fce931f5de",
     "f859affeb876788b20e224eedc9122998a46bff10f770fcc49b03ed72863a891"),
    (OrderStudySpec(n_grid=(16, 32), deltas=(1.0, 2.0), reps=400, batch_size=100, cells=6,
                    theta_star=2.5),
     "fb313ce5b3d4ae04043fddc4984faa9222c4ac9195017252966e149a145376ab",
     "85d4e409b179fee62e984debe2c5e80af1e6d0ac52590be6c92034525a058165",
     "cca06442378ccdb5afda9ae925a8257b8f3f38c408004d1bda66a65731dd3b1b"),
    (OrderStudySpec(family="location-scale", n_grid=(8, 16), deltas=(1.0,), reps=600,
                    batch_size=200),
     "c19edd27bb6bf2c8898ae60baeeec5b607cc153b97c958fc1015645171969ca8",
     "154025213013e54d2e9b42b028581c0b60e8410a598cc861fba62cde0e00865e",
     "24fd5f8ea031ddd09f28f99e7b06cc5f9f94119bc4e1462c763be805266de822"),
]


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec,json_digest,csv_digest,counts_digest", FROZEN_REPORTS,
                         ids=["circle", "circle-theta-2.5", "location-scale"])
def test_order_study_reports_are_frozen(spec, json_digest, csv_digest, counts_digest):
    """The reports, and the label counts behind them, keep every byte."""
    report = run_replicated(spec)
    assert _sha256(report.to_json().encode()) == json_digest
    assert _sha256(report.to_csv().encode()) == csv_digest
    ctx = mc._StudyContext(spec, spec.n_grid[0])
    counts = mc._run_batch(spec, ctx, 0, 0, spec.batch_size)
    assert _sha256(b"".join(counts[arm].tobytes() for arm in ctx.arms)) == counts_digest


def test_partition_order_report_is_frozen():
    """Draws at n = 16, 64 and 1024, whose refinements backtrack in blocks of
    the pass's size, keep every byte of the report."""
    report = partition_order_study(n_grid=(16, 64, 1024), draws=3)
    assert (_sha256(report.to_json().encode()), _sha256(report.to_csv().encode())) == (
        "8db6b988834b7a7b83871cf2a1c8fda7c0c7df9462f4fecadbb5c803d4fef03a",
        "ad554f7ede4523cf0065289796d24be1b2a7e4857b0679d504623d5b0cfe6630")


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
    for n_grid in ((16,), (16, 16)):
        with pytest.raises(InvalidParameterError, match="n_grid"):
            partition_order_study(n_grid=n_grid, draws=2)


@pytest.mark.parametrize("kwargs", [
    {"draws": True}, {"draws": 2.5}, {"n_grid": (16.0, 64)}, {"n_grid": (1, 64)},
    {"seed": -1}, {"seed": 1.0},
], ids=["bool-draws", "float-draws", "float-n", "n-below-2", "negative-seed", "float-seed"])
def test_partition_order_study_names_bad_config(kwargs, monkeypatch):
    """Each bad setting is named before any partition pass runs."""
    monkeypatch.setattr(mc, "_partition_pass", lambda *a, **k: pytest.fail("pass ran"))
    key = next(iter(kwargs))
    with pytest.raises(InvalidParameterError, match=key):
        partition_order_study(**kwargs)


def test_partition_order_study_caps_t1_before_any_fit(monkeypatch):
    """A t1_std beyond the moderate-deviation cap 3.0 is a configuration
    error, named before any partition pass (so before any fit) runs; the cap
    itself is allowed through to the pass."""
    monkeypatch.setattr(mc, "_partition_pass", lambda *a, **k: pytest.fail("pass ran"))
    for t1 in (5, -5.0, 3.0 + 1e-12):
        with pytest.raises(InvalidParameterError,
                           match=r"exceeds the moderate-deviation cap 3\.0"):
            partition_order_study(t1_std=t1)
    with pytest.raises(pytest.fail.Exception, match="pass ran"):
        partition_order_study(t1_std=3.0)


def test_partition_order_study_matches_one_draw_checks():
    """Draws refined together, in blocks that split n = 256 into 4 + 1 draws
    and n = 1024 into one draw each, give each draw's one-draw
    partition_check discrepancy, bit for bit."""
    from ancontour import make_synthetic_curved, partition_check

    n_grid, draws, seed = (16, 256, 1024), 5, 20260816
    report = partition_order_study(n_grid=n_grid, draws=draws, seed=seed)
    for n_idx, n in enumerate(n_grid):
        model = make_synthetic_curved(n)
        for d in range(draws):
            rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n_idx, d)))
            y0 = model.quantile(rng.standard_normal(n), np.zeros(1))
            one = partition_check(model, y0, np.array([1.0]), GridSpec(3.0, 21))
            assert report.per_draw[n_idx][d] == one.discrepancy


def test_partition_order_study_memory_is_bounded():
    """At the defaults the study holds one block of 21 x 1024 float64 rebuilt
    points at a time beside the fits' rows: its traced peak stays within
    1.1 times the 1.42 MiB of one partition_check per draw."""
    import tracemalloc

    partition_order_study(n_grid=(16, 64), draws=2)  # warm caches outside the traced call
    tracemalloc.start()
    try:
        partition_order_study()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * 1.42 * 2**20


def test_partition_order_study_rerun_identical():
    a = partition_order_study(n_grid=(16, 64), draws=4)
    b = partition_order_study(n_grid=(16, 64), draws=4)
    assert a.to_json() == b.to_json()
