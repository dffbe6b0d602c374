"""Verification harness: quadrature checks and replicated order studies."""

import json
import math
from statistics import NormalDist

import numpy as np
import pytest

import ancontour.ancillary as anc
import ancontour.montecarlo as mc
from ancontour import (
    EmptyStudyError,
    GridSpec,
    InvalidParameterError,
    NumericalFailureError,
    PartialResultsError,
    UnsupportedFamilyError,
    build_contour,
    partition_order_study,
    quadrature_first_derivative,
    run_replicated,
    spec_from_config,
)
from ancontour._jsonio import dumps
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
    report = quadrature_first_derivative(c_values=(1.0,), a_points=9)
    payload = json.loads(json.dumps(report.to_json_dict()))
    assert payload["study"] == "quadrature"
    assert len(payload["cases"]) == 1
    csv_text = report.to_csv()
    lines = csv_text.strip().split("\n")
    assert lines[0] == "c,max_abs_derivative,symmetry_gap,flip_gap,second_order_scale"
    assert len(lines) == 1 + len(report.cases)


@pytest.mark.parametrize("kwargs,error,key", [
    ({"theta_probe": 0.0}, InvalidParameterError, "theta_probe"),
    ({"eps": 0.0}, InvalidParameterError, "eps"),
    ({"c_values": ()}, EmptyStudyError, "c_values"),
    ({"c_values": (1.0, math.nan)}, InvalidParameterError, "c_values"),
    ({"eps": True}, InvalidParameterError, "eps"),
    ({"c_values": 5}, InvalidParameterError, "c_values"),
], ids=["probe-0", "eps-0", "c_values-empty", "c_values-nan", "eps-bool", "c_values-scalar"])
def test_quadrature_rejects_bad_arguments(kwargs, error, key, monkeypatch):
    """A zero probe, a zero step or no curvature is named before any integral
    is taken, instead of a ZeroDivisionError, a NaN derivative or a failing max()."""
    monkeypatch.setattr(mc, "_density_integral", lambda *a: pytest.fail("integral taken"))
    with pytest.raises(error, match=key):
        quadrature_first_derivative(**kwargs)


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
                {"lattice_half_width": 0.0}, {"rho": 0.0},
                {"family": "location-scale", "n_grid": (2, 8)}):
        with pytest.raises(InvalidParameterError):
            OrderStudySpec(**bad).validate()
    # the location-scale study reads theta_star as its location, and not
    # rho or lattice_half_width, so those must keep their defaults there
    for key, value in (("rho", 5.0), ("lattice_half_width", 0.1)):
        with pytest.raises(InvalidParameterError, match=f"'{key}'"):
            OrderStudySpec(family="location-scale", **{key: value}).validate()
    OrderStudySpec(family="location-scale", theta_star=0.5, rho=1, lattice_half_width=6.0,
                   n_grid=(8,)).validate()


@pytest.mark.parametrize("family,theta_star", [
    ("circle", 1e300), ("location-scale", 1e300), ("location-scale", 1e15),
])
def test_order_spec_names_a_theta_star_that_rounding_swallows(family, theta_star):
    """At 1e300, theta_star plus any offset is theta_star, so every
    sensitivity read 0 and the study called itself conclusive; at 1e15 each
    location-scale draw theta_star + x rounded to a multiple of 0.125, and
    the study read a sensitivity of 0.18 where the exact one is 0.  Both
    raise InvalidParameterError naming theta_star instead; at 1e6, whose
    ulp is 1.2e-10, offsets and draws keep their values to 1e-9 of their size."""
    spec = OrderStudySpec(family=family, theta_star=theta_star, n_grid=(16, 32), reps=200,
                          batch_size=100)
    with pytest.raises(InvalidParameterError, match="'theta_star'"):
        spec.validate()
    with pytest.raises(InvalidParameterError, match="'theta_star'"):
        run_replicated(spec)
    spec._replace(theta_star=1e6).validate()


@pytest.mark.parametrize("rho", [1e-200, 1e-100, 1e200, 0.5 / math.pi * (1.0 - 1e-9)],
                         ids=["tiny", "small", "huge", "half-turn"])
def test_order_spec_names_a_rho_the_circle_cannot_hold(rho):
    """At rho 1e-200 the information rho^2 n underflowed to 0 and the study
    raised a bare ZeroDivisionError; at 1e200 rho^2 overflowed; at 1e-100
    every offset wrapped the circle many times and the study read all-zero
    sensitivities and called itself conclusive.  Each raises
    InvalidParameterError naming rho, as does an offset of just past a half
    turn; rho 0.7 at n = 5, one of the frozen studies, keeps offsets of 1.28."""
    spec = OrderStudySpec(rho=rho, n_grid=(16, 32), reps=200, batch_size=100)
    with pytest.raises(InvalidParameterError, match="'rho'"):
        spec.validate()
    with pytest.raises(InvalidParameterError, match="'rho'"):
        run_replicated(spec)
    # the largest offset is max(deltas) / (rho sqrt(min(n_grid))): 2 / (4 rho)
    spec._replace(rho=0.5 / math.pi * (1.0 + 1e-9)).validate()
    spec._replace(rho=0.7, n_grid=(5, 24, 40)).validate()


@pytest.mark.parametrize("kwargs", [
    {"reps": "5"}, {"reps": 5.0}, {"n_grid": 16}, {"deltas": 1.0}, {"deltas": "1"},
], ids=["reps-string", "reps-float", "n_grid-scalar", "deltas-scalar", "deltas-string"])
def test_order_spec_names_a_mistyped_key(kwargs):
    """A non-integer reps and a scalar where a list belongs raise
    InvalidParameterError naming the key, from the spec and from run_replicated,
    instead of a TypeError from a comparison or an iteration."""
    key = next(iter(kwargs))
    with pytest.raises(InvalidParameterError, match=key):
        OrderStudySpec(**kwargs).validate()
    with pytest.raises(InvalidParameterError, match=key):
        run_replicated(OrderStudySpec(**kwargs))


def test_order_spec_from_config():
    spec = spec_from_config({
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
        spec_from_config({"study": "ancillarity-order", "family": "circle", "bogus": 3})
    # labels project onto each contour exactly, so no lattice size is read
    with pytest.raises(InvalidParameterError, match=r"unknown study keys: \['lattice_points'\]"):
        spec_from_config({"study": "ancillarity-order", "lattice_points": 337})


def test_order_study_rerun_identity():
    """The report payload depends on the spec alone."""
    spec = OrderStudySpec(family="circle", n_grid=(16, 32), deltas=(1.0, 2.0),
                          reps=400, batch_size=100, cells=6)
    first = run_replicated(spec)
    again = run_replicated(spec)
    assert dumps(first) == dumps(again)
    assert first.to_csv() == again.to_csv()


# A label may differ from the dense oracle's only where the two nearest
# cells' dense distances are closer than this; every oracle's own error
# bound is asserted below it.
TIE_MARGIN = 1e-4


def _dense_contours(spec, ctx):
    """Per arm, each cell's clipped contour as dense nodes, and their spacing
    error for points y: a bound on the excess of a point's squared distance
    to the nearest node over its squared distance to the contour.

    Arcs and segments have 8001 nodes.  A location-scale plane patch (m 1 +
    s z_c, |m| <= 3 / sqrt(n), s within 1 +- 3 / sqrt(2 n)) is a 501 x 501
    grid in the coordinates of an orthonormal basis of its plane, returned
    with the basis: a point's squared distance is its distance to the plane
    plus its distance within it."""
    if spec.family == "circle":
        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * ctx.sd
        grid = GridSpec(half_width=spec.lattice_half_width, points_per_axis=8001)
        clouds = [build_contour(ctx.model, (spec.rho + tau) * u, grid) for tau in centers]
        step = max(float(np.ptp(c.offsets)) for c in clouds) / 8000
        speed2 = max(float(np.sum(c.frame.velocity**2)) for c in clouds)

        def arc_error(y):  # 2 rho r (1 - cos(step / 2)) at radius r = |y - x_hat|
            radius = max(float(np.max(np.hypot(*(y - c.fit.x_hat).T))) for c in clouds)
            return spec.rho * radius * step**2 / 4.0

        return {"second_order": ([(c.points, None) for c in clouds], arc_error),
                "tangent_only": ([(c.base_point + c.offsets @ c.frame.velocity.T, None)
                                  for c in clouds], lambda y: speed2 * step**2 / 4.0)}
    n = ctx.n
    base = np.sort([NormalDist().inv_cdf((i + 0.5) / n) for i in range(n)])
    base = (base - base.mean()) / math.sqrt(np.mean((base - base.mean()) ** 2))
    direction = np.sin(2.0 * math.pi * (np.arange(n) + 0.25) / n)
    ones = np.ones(n) / math.sqrt(n)
    direction -= (direction @ ones) * ones
    direction -= (direction @ base) * base / float(base @ base)
    direction /= np.linalg.norm(direction)
    m_axis = np.linspace(-3.0, 3.0, 501) / math.sqrt(n)
    s_axis = 1.0 + np.linspace(-3.0, 3.0, 501) / math.sqrt(2.0 * n)
    mm, ss = (axis.reshape(-1, 1) for axis in np.meshgrid(m_axis, s_axis, indexing="ij"))
    cells = []
    for tau in (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * 0.5:
        z = base + tau * direction
        z = (z - z.mean()) / math.sqrt(np.mean((z - z.mean()) ** 2))
        basis = np.linalg.qr(np.column_stack([np.ones(n), z]))[0]
        cells.append(((mm * np.ones(n) + ss * z) @ basis, basis))
    error = n * ((m_axis[1] - m_axis[0]) ** 2 + (s_axis[1] - s_axis[0]) ** 2) / 4.0
    return {"second_order": (cells, lambda y: error)}


def _dense_oracle(spec, ctx, y):
    """{arm: (squared distances (cells, points) to each cell's nearest dense
    node, their spacing error)}, by a KD-tree over each cell's nodes."""
    from scipy.spatial import cKDTree

    out = {}
    for arm, (cells, error) in _dense_contours(spec, ctx).items():
        rows = []
        for nodes, basis in cells:
            if basis is None:
                rows.append(cKDTree(nodes).query(y, workers=2)[0] ** 2)
            else:
                coords = y @ basis
                normal = np.sum((y - coords @ basis.T) ** 2, axis=1)
                rows.append(cKDTree(nodes).query(coords, workers=2)[0] ** 2 + normal)
        out[arm] = np.array(rows), error(y)
    return out


def _exact_squared_distances(spec, ctx, arm, y):
    """Each cell's score made a squared distance again: rho^2 added on the
    arcs, and on the plane the m part every cell shares."""
    scores = ctx.scores[arm](y)
    if spec.family == "circle":
        return scores + spec.rho**2 if arm == "second_order" else scores
    n, total = ctx.n, y.sum(axis=1)
    m = np.clip(total / n, -3.0 / math.sqrt(n), 3.0 / math.sqrt(n))
    return scores + np.sum(y * y, axis=1) - 2.0 * m * total + n * m * m


def _ring(count, seed=5):
    """Points uniform in angle about the origin at radii up to 3, centre included."""
    rng = np.random.default_rng(seed)
    angle, radius = rng.uniform(0.0, 2.0 * math.pi, count), rng.uniform(0.0, 3.0, count)
    return np.column_stack([radius * np.cos(angle), radius * np.sin(angle)])


def _check_against_dense_oracle(spec, ctx, points):
    """Labels agree with the dense oracle's wherever its two nearest cells
    are more than TIE_MARGIN apart, and every score is the dense minimum to
    within the nodes' spacing error; the scores of the transposed view of
    contiguous coordinate rows that _run_batch passes are the same."""
    y = np.vstack(points)
    for arm, (dense, error) in _dense_oracle(spec, ctx, y).items():
        assert error < TIE_MARGIN
        exact = _exact_squared_distances(spec, ctx, arm, y)
        assert ctx.scores[arm](np.ascontiguousarray(y.T).T).tobytes() == ctx.scores[arm](y).tobytes()
        slack = 1e-12 * max(1.0, float(np.max(dense)))
        assert np.all(dense - exact >= -slack), arm
        assert np.all(dense - exact <= error + slack), arm
        two = np.sort(dense, axis=0)[:2]
        clear = two[1] - two[0] > TIE_MARGIN
        assert clear.mean() > 0.95
        np.testing.assert_array_equal(ctx.labels(arm, y)[clear],
                                      np.argmin(dense, axis=0)[clear])


@pytest.mark.parametrize("spec", [
    OrderStudySpec(n_grid=(2, 5, 16, 128), theta_star=2.5),
    OrderStudySpec(n_grid=(2, 16), theta_star=2.5, lattice_half_width=2.0),
    OrderStudySpec(n_grid=(2, 16), theta_star=2.5, cells=3, rho=0.3),
    OrderStudySpec(family="location-scale", n_grid=(3, 8, 64), cells=5),
], ids=["circle", "circle-short-arcs", "circle-3-cells", "location-scale"])
def test_closed_form_labels_match_kd_tree(spec):
    """Each draw's label is the cell whose clipped contour holds its nearest
    point: a KD-tree over dense nodes of every contour agrees, for seeded
    draws at every offset and, on the circle, for a ring of points around
    the arcs (which reach past pi, and at n = 2 past a whole turn)."""
    for n in spec.n_grid:
        ctx = mc._StudyContext(spec, n)
        x = ctx.draw(np.random.default_rng(n), 250)
        points = [base + x for base in ctx.bases]
        _check_against_dense_oracle(spec, ctx, points + [_ring(1000)] * (spec.family == "circle"))


@pytest.mark.parametrize("side", [-1.0, 1.0], ids=["reach-below-pi", "reach-above-pi"])
def test_arc_labels_match_kd_tree_near_half_turn(side):
    """Arcs whose largest offset max |t| sits just below pi leave a gap just
    short of a turn; just above pi they close it.  Either way the labels
    and scores are a dense oracle's, for the draws and for points all around."""
    def reach(spec):
        ctx = mc._StudyContext(spec, 16)
        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        grid = GridSpec(half_width=spec.lattice_half_width, points_per_axis=3)
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * ctx.sd
        return ctx, max(float(np.max(np.abs(build_contour(ctx.model, (spec.rho + tau) * u,
                                                          grid).offsets))) for tau in centers)

    unit = OrderStudySpec(n_grid=(16,), theta_star=2.5, lattice_half_width=1.0)
    spec = unit._replace(lattice_half_width=math.pi * (1.0 + 1e-3 * side) / reach(unit)[1])
    ctx, max_t = reach(spec)
    assert side * (max_t - math.pi) > 0.0
    x = ctx.draw(np.random.default_rng(16), 250)
    _check_against_dense_oracle(spec, ctx, [base + x for base in ctx.bases] + [_ring(1000)])


@pytest.mark.parametrize("turn", [1, -1], ids=["above", "below"])
def test_arc_labels_are_turn_invariant(turn, monkeypatch):
    """Cells fitted a turn away, at theta_hat + 2 pi turn, give every draw and
    every point of a ring the labels they had: no angle is reduced."""
    spec = OrderStudySpec(n_grid=(2, 16), theta_star=2.5 * turn)

    def labels():
        out = []
        for n in spec.n_grid:
            ctx = mc._StudyContext(spec, n)
            x = ctx.draw(np.random.default_rng(n), 1000)
            for y in [base + x for base in ctx.bases] + [_ring(2000)]:
                out.extend(ctx.labels(arm, y) for arm in ctx.arms)
        return np.concatenate(out)

    want = labels()
    build = anc.build_contour

    def turned(*args):
        cloud = build(*args)
        theta_hat = cloud.fit.theta_hat + turn * 2.0 * math.pi
        return cloud._replace(fit=cloud.fit._replace(theta_hat=theta_hat))

    monkeypatch.setattr(anc, "build_contour", turned)
    np.testing.assert_array_equal(labels(), want)


def _reference_scores(spec, ctx, y):
    """{arm: (cells, points) scores} by elementwise formulas, one cell at a
    time: on the arc, |d|^2 - 2 rho max d.u over its directions u for
    d = y - x_hat; on the segment, |d|^2 - t (2 d.v - t |v|^2) at the
    clipped t for d = y - anchor."""
    u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
    grid = GridSpec(half_width=spec.lattice_half_width, points_per_axis=3)
    arcs, lines = [], []
    for tau in (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * ctx.sd:
        cloud = build_contour(ctx.model, (spec.rho + tau) * u, grid)
        (t_lo,), (t_hi,) = cloud.offsets[0], cloud.offsets[-1]
        theta_hat, v = cloud.fit.theta_hat[0], cloud.frame.velocity[:, 0]
        d = y - cloud.fit.x_hat
        rr = d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1]
        r = np.sqrt(rr)

        def toward(angle):
            return d[:, 0] * math.cos(angle) + d[:, 1] * math.sin(angle)

        half = 0.5 * (t_hi - t_lo)
        inside = toward(theta_hat + 0.5 * (t_lo + t_hi)) >= r * (
            math.cos(half) if half < math.pi else -2.0)
        ends = np.maximum(toward(theta_hat + t_lo), toward(theta_hat + t_hi))
        arcs.append(rr - 2.0 * spec.rho * np.where(inside, r, ends))
        d = y - cloud.base_point
        dv, vv = d[:, 0] * v[0] + d[:, 1] * v[1], v[0] * v[0] + v[1] * v[1]
        t = np.clip(dv / vv, t_lo, t_hi)
        lines.append(d[:, 0] * d[:, 0] + d[:, 1] * d[:, 1] - t * (2.0 * dv - t * vv))
    return {"second_order": np.array(arcs), "tangent_only": np.array(lines)}


@pytest.mark.parametrize("theta_star", [0.0, 2.5])
def test_circle_scores_match_elementwise_reference(theta_star):
    """The scores of one product of cell constants with the draws are the
    elementwise squared distances (less rho^2 on the arcs) to rounding, and
    label every draw as they do wherever their two best cells are apart:
    draws at every offset and a ring of points, at sample sizes whose arcs
    pass a whole turn (n = 2), and are long (16) and short (128)."""
    spec = OrderStudySpec(n_grid=(2, 16, 128), theta_star=theta_star)
    for n in spec.n_grid:
        ctx = mc._StudyContext(spec, n)
        x = ctx.draw(np.random.default_rng(n), 500)
        y = np.vstack([base + x for base in ctx.bases] + [_ring(1000)])
        rows = np.ascontiguousarray(y.T).T  # the layout _run_batch passes
        slack = 1e-12 * (1.0 + np.sum(y * y, axis=1))
        for arm, want in _reference_scores(spec, ctx, y).items():
            assert np.all(np.abs(ctx.scores[arm](rows) - want) <= slack), (n, arm)
            two = np.sort(want, axis=0)[:2]
            clear = two[1] - two[0] > 1e-9
            assert clear.mean() > 0.99
            np.testing.assert_array_equal(ctx.labels(arm, rows)[clear],
                                          np.argmin(want, axis=0)[clear])


# sha256 of each report's JSON and CSV and of one batch's label counts, with
# each draw labelled by its exact projection onto every cell's contour
FROZEN_REPORTS = [
    (OrderStudySpec(n_grid=(16, 32), deltas=(1.0, 2.0), reps=400, batch_size=100, cells=6),
     "3b884369e9681492f279f739faacbde0b753805449a61d8ba9fd82e6e572a5ca",
     "0be277738342a1f3ba30c42fef266dc549a085848665921ec3c996fce931f5de",
     "f859affeb876788b20e224eedc9122998a46bff10f770fcc49b03ed72863a891"),
    (OrderStudySpec(n_grid=(16, 32), deltas=(1.0, 2.0), reps=400, batch_size=100, cells=6,
                    theta_star=2.5),
     "2c034859bf07bd5e1044384efc7a7378c5ad21f626b6115249c561a08d38a097",
     "85d4e409b179fee62e984debe2c5e80af1e6d0ac52590be6c92034525a058165",
     "cca06442378ccdb5afda9ae925a8257b8f3f38c408004d1bda66a65731dd3b1b"),
    (OrderStudySpec(family="location-scale", n_grid=(8, 16), deltas=(1.0,), reps=600,
                    batch_size=200),
     "c9b1a75ce4ad21d6def759a4bc11e62ca02e4781eb40ea8f0bc1056f3a59f4bd",
     "154025213013e54d2e9b42b028581c0b60e8410a598cc861fba62cde0e00865e",
     "24fd5f8ea031ddd09f28f99e7b06cc5f9f94119bc4e1462c763be805266de822"),
    # eleven and nine batches: from eight terms on, numpy sums a contiguous
    # axis pairwise and a strided one in order, so a reduction over the
    # batches shows its axis; sample sizes not powers of two, rho and
    # theta_star moved
    (OrderStudySpec(n_grid=(5, 24, 40), reps=1100, batch_size=100, rho=0.7, theta_star=1.3),
     "8eb666c8ebf8e0ddb0a6f239ec2d37ea2adcaa9c11c2263fca81be6db9db7dc5",
     "69880e9f8ccea1cf015a2a7576f6df78c91442ed013197418e85e5b57b96b69a",
     "201c8c2e5f42858d1742211f16c49a934aa4eabea9ac3a9e9ebcb778f749f2d6"),
    (OrderStudySpec(family="location-scale", n_grid=(8, 16), reps=900, batch_size=100),
     "25997021b9f4a4233e80a128e3a31c4a1bf1c9d7de72d89de2aa2fd267e00a32",
     "8098b9b4c01cdca0e3603eb89c5e9db465368564037030bc9d2769825c8fa316",
     "0a16c458f5885ccdad30a50e8d1cf2f0ef6a29c1099b34b335ec9e6d98bfea12"),
    # the study `ancontour verify` runs at its defaults: 80 batches of 1000
    (OrderStudySpec(),
     "fe2ba695843fa3fff00af5ff3b777d35ceda5674029f226b0f2d6229c8f9130b",
     "dde6034cba4a04a9e5fdabb0da99c4e25e5f5e6e97fe50b3f627509998488e3b",
     "9b7c9cbec07c4023506c82a34903c419c5ae8e53fa192b793929b7e4931193fb"),
]


def _sha256(data: bytes) -> str:
    import hashlib

    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("spec,json_digest,csv_digest,counts_digest", FROZEN_REPORTS,
                         ids=["circle", "circle-theta-2.5", "location-scale",
                              "circle-11-batches", "location-scale-9-batches", "default"])
def test_order_study_reports_are_frozen(spec, json_digest, csv_digest, counts_digest):
    """The reports, and the label counts behind them, keep every byte."""
    report = run_replicated(spec)
    assert _sha256(dumps(report).encode()) == json_digest
    assert _sha256(report.to_csv().encode()) == csv_digest
    ctx = mc._StudyContext(spec, spec.n_grid[0])
    counts = mc._run_batch(spec, ctx, 0, 0, spec.batch_size)
    assert _sha256(b"".join(counts[arm].tobytes() for arm in ctx.arms)) == counts_digest


def test_partition_order_report_is_frozen():
    """Draws at n = 16, 64 and 1024, whose refinements backtrack in blocks of
    the pass's size, keep every byte of the report."""
    report = partition_order_study(n_grid=(16, 64, 1024), draws=3)
    assert (_sha256(dumps(report).encode()), _sha256(report.to_csv().encode())) == (
        "ffef353e8d7d305b6d89053349350f7eb29742ff98519242b36a07ff6782d6ce",
        "a62bf9fe2e418cd83001304e617a0d958da81cb6576f0d0b7d9004e79f7e65f4")


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


def test_one_batch_study_with_a_signal_is_inconclusive():
    """One batch has no spread to give a standard error, so a positive
    sensitivity is not claimed: the report asks for two full batches.  The
    exact location-scale arm has no signal and stays conclusive."""
    spec = OrderStudySpec(n_grid=(16, 32), reps=500)
    report = run_replicated(spec)
    rows = [row for arm in report.arms.values() for row in arm.per_n]
    assert all(row.sensitivity > 0 and row.se == 0.0 for row in rows)
    assert report.inconclusive and report.required_reps_estimate == 2 * spec.batch_size
    exact = run_replicated(OrderStudySpec(family="location-scale", n_grid=(8, 16), reps=300))
    assert all(row.sensitivity == 0.0 for row in exact.arms["second_order"].per_n)
    assert not exact.inconclusive and exact.required_reps_estimate is None


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
    payload = json.loads(dumps(report))
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
    {"seed": -1}, {"seed": 1.0}, {"n_grid": 64},
], ids=["bool-draws", "float-draws", "float-n", "n-below-2", "negative-seed", "float-seed",
        "scalar-n"])
def test_partition_order_study_names_bad_config(kwargs, monkeypatch):
    """Each bad setting is named before any partition pass runs."""
    monkeypatch.setattr(anc, "_partition_pass", lambda *a, **k: pytest.fail("pass ran"))
    key = next(iter(kwargs))
    with pytest.raises(InvalidParameterError, match=key):
        partition_order_study(**kwargs)


def test_partition_order_study_caps_t1_before_any_fit(monkeypatch):
    """A t1_std beyond the moderate-deviation cap 3.0 is a configuration
    error, named before any partition pass (so before any fit) runs; the cap
    itself is allowed through to the pass."""
    monkeypatch.setattr(anc, "_partition_pass", lambda *a, **k: pytest.fail("pass ran"))
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
    points at a time beside the fits' rows, and its traced peak stays within
    1.1 times 1.42 MiB.  That peak (1.43 MiB) is set at n = 1024 by the
    (rows, n) temporaries of contour_min_distance's start check; the fits
    peak near 1.38 MiB, inside models._regression_start, while eta_curved
    evaluates the start grid's means (two (61, n) arrays; the residual sums
    of squares take no other)."""
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
    assert dumps(a) == dumps(b)
