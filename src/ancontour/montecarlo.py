"""Simulation and quadrature checks of approximate ancillarity.

Three studies live here: a quadrature check that the candidate scalar
statistic has a vanishing parameter derivative of its density at the
expansion point, by a fixed Gauss-Legendre rule; a replicated order study
that bins draws by nearest contour (the exact projection onto each cell's
clipped contour, in closed form) and tracks how fast cell-probability
sensitivity decays with n (second-order contours decay like 1/n,
tangent-only contours like 1/sqrt(n)); and a deterministic partition-discrepancy study on a
synthetic curved family.  Each study is a spec NamedTuple whose fields are
its config keys: spec_from_config checks a JSON mapping into one, spec.run()
runs the study and report.summary() gives the values the CLI prints.  All
randomness is counter-seeded per (n, batch), so results are a function of
the configuration alone.  Model and contour code is imported by the studies
that run it: the quadrature check loads neither, the location-scale order
study the models only.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

import numpy as np

from . import _EXPORTS
from ._jsonio import SIZE_MAX, config_block, config_int, csv_lines, record
from .errors import (
    EmptyStudyError,
    InvalidParameterError,
    NumericalFailureError,
    PartialResultsError,
    UnsupportedFamilyError,
)

__all__ = _EXPORTS["montecarlo"]


@functools.cache  # built on first use: the nodes cost more than importing the module
def _half_rule(points: int):
    """Gauss-Legendre nodes of [-8, 8] on the positive half, with their weights."""
    nodes, weights = np.polynomial.legendre.leggauss(points)
    return 8.0 * nodes[points // 2:], 8.0 * weights[points // 2:]


def _folded_sum(a, theta, c, rule):
    """sum_i w_i (f(x_i) + f(-x_i)) for f(x) = phi(x - theta) phi(a - c x^2 / 2)."""
    nodes, weights = rule

    def two_pi_f(x):
        u, v = x - theta, a - 0.5 * c * x * x
        return np.exp(-0.5 * (u * u + v * v))

    return np.sum((two_pi_f(nodes) + two_pi_f(-nodes)) * weights, axis=-1) / (2.0 * math.pi)


def _density_integral(a, theta: float, c: float):
    """f(a; theta) = integral of phi(x - theta) phi(a - c x^2 / 2) dx over [-8, 8].

    a may be an array.  The 256-node Gauss-Legendre rule sums mirror-image
    nodes in pairs, so theta -> -theta and (a, c) -> (-a, -c) give
    bit-identical values; the 192-node rule estimates the error.
    """
    a = np.asarray(a, dtype=float)[..., None]
    value = _folded_sum(a, theta, c, _half_rule(256))
    err = float(np.max(np.abs(value - _folded_sum(a, theta, c, _half_rule(192)))))
    if not (np.all(np.isfinite(value)) and err <= 1e-9):
        raise NumericalFailureError(f"quadrature error estimate {err:.3e} too large")
    return value


class QuadratureCase(NamedTuple):
    c: float
    max_abs_derivative: float
    symmetry_gap: float
    flip_gap: float
    second_order_scale: float
    derivatives: np.ndarray


class QuadratureReport(NamedTuple):
    """First-derivative ancillarity of the curved scalar statistic.

    For each curvature c: the largest central-difference theta-derivative of
    the statistic density over the a grid at theta = 0, the direct symmetry
    gap f(a; t) - f(a; -t) at the probe theta, and the invariance gap under
    (a, c) -> (-a, -c).
    """

    cases: tuple
    a_grid: np.ndarray
    eps: float
    theta_probe: float

    @property
    def max_abs_derivative(self) -> float:
        return max(case.max_abs_derivative for case in self.cases)

    def summary(self) -> dict:
        return {"study": "quadrature", "max_abs_derivative": self.max_abs_derivative,
                "symmetry_gap": max(case.symmetry_gap for case in self.cases),
                "flip_gap": max(case.flip_gap for case in self.cases)}

    def to_json_dict(self) -> dict:
        return record(self, study="quadrature")

    def to_csv(self) -> str:
        header = ["c", "max_abs_derivative", "symmetry_gap", "flip_gap", "second_order_scale"]
        return csv_lines(header, [[getattr(case, key) for key in header] for case in self.cases])


def _checked(spec, changes, **minimum):
    """spec with changes (a study config's other keys), if any, over its
    fields, each typed once by config_block, at least minimum[field] where
    given; each integer but the seed sizes an array, so is at most SIZE_MAX."""
    fields = {**spec._asdict(), **(changes or {})}
    spec = spec._make(config_block(fields, spec._field_defaults, "study", **minimum).values())
    for key, value in spec._asdict().items():
        for entry in value if isinstance(value, tuple) else (value,):
            if key != "seed" and type(entry) is int:
                config_int(entry, key, maximum=SIZE_MAX)
    return spec


class QuadratureSpec(NamedTuple):
    """Configuration of the quadrature check: the curvatures c_values, the
    a_points values of a spaced evenly over [-3, 3], the central-difference
    step eps and the symmetry probe theta_probe.  c_values must be nonempty
    and finite, a_points at least 1, eps positive and finite, theta_probe
    nonzero and finite."""

    c_values: tuple = (0.5, 1.0, 2.0)
    a_points: int = 61
    eps: float = 1e-4
    theta_probe: float = 0.5

    def validate(self, changes=None) -> QuadratureSpec:
        """The spec (changes over its fields) typed; a value the study cannot run with raises."""
        spec = _checked(self, changes, a_points=1)
        if not spec.c_values:
            raise EmptyStudyError("'c_values' must be nonempty")
        if not spec.eps > 0.0:
            raise InvalidParameterError("'eps' must be positive and finite")
        if spec.theta_probe == 0.0:
            raise InvalidParameterError("'theta_probe' must be nonzero and finite")
        return spec

    def run(self) -> QuadratureReport:
        return quadrature_first_derivative(self)


def quadrature_first_derivative(spec: QuadratureSpec = QuadratureSpec()) -> QuadratureReport:
    """Check d f(a; theta) / d theta = 0 at theta = 0 by tight quadrature.

    The folded rule makes f(a; theta) and f(a; -theta) bit-identical, and
    likewise the (a, c) sign flip, so max_abs_derivative (central difference
    with step eps), symmetry_gap (at theta_probe) and flip_gap are exactly
    0.0 for every spec; the numerical content is second_order_scale and each
    integral's 192-node error bound.  spec is validated first.
    """
    c_values, a_points, eps, theta_probe = spec.validate()
    a_grid = np.linspace(-3.0, 3.0, a_points)
    cases = []
    for c in c_values:
        derivs = (_density_integral(a_grid, eps, c)
                  - _density_integral(a_grid, -eps, c)) / (2.0 * eps)
        at_probe = _density_integral(a_grid, theta_probe, c)

        def gap_to(other):
            return float(np.max(np.abs(at_probe - other)))

        cases.append(
            QuadratureCase(
                c=float(c),
                max_abs_derivative=float(np.max(np.abs(derivs))),
                symmetry_gap=gap_to(_density_integral(a_grid, -theta_probe, c)),
                flip_gap=gap_to(_density_integral(-a_grid, theta_probe, -c)),
                second_order_scale=gap_to(_density_integral(a_grid, 0.0, c)) / theta_probe**2,
                derivatives=derivs,
            )
        )
    return QuadratureReport(cases=tuple(cases), a_grid=a_grid, eps=eps,
                            theta_probe=theta_probe)


class OrderStudySpec(NamedTuple):
    """Configuration of the replicated cell-sensitivity study.

    family "circle" scales the coordinate variance like 1/n on the planar
    circle model and runs both arms; family "location-scale" uses n >= 3 as
    the sample size with Normal errors and runs the exact (second-order) arm
    only.  deltas are standardized parameter offsets; cells is the number of
    contours per transverse direction, and each draw's label is the cell
    whose contour holds its nearest point.  lattice_half_width is each circle
    contour's clip half-width in standardized units (the location-scale
    plane is clipped at 3 in both coordinates), and rho the circle's radius,
    whose angular offsets d / (rho sqrt(n)) must not wrap the circle;
    location-scale refuses either away from its default, and takes
    theta_star as its location.  The default n_grid keeps the
    second-order signal several standard errors above the replication noise
    floor at the default reps; larger n needs more reps and is flagged
    inconclusive otherwise.
    """

    family: str = "circle"
    n_grid: tuple = (16, 32, 64, 128)
    deltas: tuple = (0.5, 1.0, 2.0)
    reps: int = 20000
    batch_size: int = 1000
    cells: int = 8
    rho: float = 1.0
    theta_star: float = 0.0
    seed: int = 20260816
    lattice_half_width: float = 6.0

    def validate(self, changes=None) -> OrderStudySpec:
        """The spec (changes over its fields) typed; a value the study cannot run with raises."""
        spec = _checked(self, changes, batch_size=1, cells=2, seed=0, n_grid=2)
        if spec.reps <= 0:
            raise EmptyStudyError("reps must be positive")
        if spec.family not in ("circle", "location-scale"):
            raise UnsupportedFamilyError(f"no order study for family {spec.family!r}")
        if not spec.deltas or min(spec.deltas) < 0.0:
            raise InvalidParameterError("deltas must be nonnegative, finite and nonempty")
        if not spec.n_grid:
            raise InvalidParameterError("n_grid must be nonempty")
        if spec.family == "location-scale" and min(spec.n_grid) < 3:  # a direction normal to 1
            raise InvalidParameterError("'n_grid' must be >= 3 for family 'location-scale'")
        if len(set(spec.n_grid)) < len(spec.n_grid):
            raise InvalidParameterError("n_grid must not repeat a sample size")
        for key in ("rho", "lattice_half_width"):
            default = self._field_defaults[key]
            if spec.family == "location-scale" and getattr(spec, key) != default:
                raise InvalidParameterError(
                    f"{key!r} is read by family 'circle' only; 'location-scale' takes {default}")
            if not getattr(spec, key) > 0.0:
                raise InvalidParameterError(f"{key!r} must be positive and finite")
        if spec.family == "circle":  # information rho^2 n and offsets d / sqrt of it, in radians
            low, high = (spec.rho * spec.rho * n for n in (min(spec.n_grid), max(spec.n_grid)))
            if not (0.0 < low and high < math.inf and max(spec.deltas) < math.pi * math.sqrt(low)):
                raise InvalidParameterError(
                    f"'rho' = {spec.rho!r} is out of range: the information rho^2 n must be "
                    "positive and finite, and each angle d / (rho sqrt(n)) below pi")
        n = max(spec.n_grid)  # where _StudyContext's offsets and draws are smallest
        sd, root_info = ((math.sqrt(1.0 / n), spec.rho * math.sqrt(n)) if spec.family == "circle"
                         else (1.0, math.sqrt(n)))
        size = min([sd] + [d / root_info for d in spec.deltas if d > 0.0])
        if math.ulp(spec.theta_star) > 1e-6 * size:
            raise InvalidParameterError(f"'theta_star' = {spec.theta_star!r} is too large: "
                                        f"its rounding swallows offsets and draws of {size:.3g}")
        return spec

    def run(self) -> OrderStudyReport:
        return run_replicated(self)


class _StudyContext:
    """Per-n immutable pieces: model, offset thetas, contour scores, draws.

    scores[arm](y) is, per cell and draw, the part of the squared distance to
    the nearest point of the cell's clipped contour that differs between
    cells, for rows y (count, n); the transposed view of contiguous
    coordinate rows that _run_batch passes reads fastest.  A circle arm's
    terms come from one product of cell constants with (y1, y2, 1, |y|^2)
    per offset: stacking the offsets saved 2 % and cost 2.5 MB of peak RSS."""

    def __init__(self, spec: OrderStudySpec, n: int):
        from .models import make_circle, make_location_scale

        self.n = n
        if spec.family == "circle":
            variance = 1.0 / n
            self.model = make_circle(spec.rho, n=2, variance_scale=variance)
            self.sd = math.sqrt(variance)
            info = spec.rho**2 / variance
            tail, scores = (), self._circle_scores
        else:
            self.model = make_location_scale(n)
            self.sd = 1.0
            info = float(n)
            tail, scores = (1.0,), self._location_scale_scores  # the scale held at 1

        self.offsets = [(0.0, 0, 0)]
        for d in spec.deltas:
            raw = d / math.sqrt(info)
            self.offsets.append((d, +1, raw))
            self.offsets.append((d, -1, -raw))
        thetas = [np.array([spec.theta_star + off, *tail]) for (_, _, off) in self.offsets]
        self.scores = scores(spec)
        # both models have dquantile_dx = 1 on these rows, so y = base + x
        zero = np.zeros(self.model.n)
        self.bases = [self.model.quantile(zero, th) for th in thetas]
        self.arms = tuple(self.scores)

    def _circle_scores(self, spec):
        from .ancillary import GridSpec, build_contour

        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * self.sd
        grid = GridSpec(half_width=spec.lattice_half_width, points_per_axis=3)  # its ends only
        clouds = [build_contour(self.model, (spec.rho + tau) * u, grid) for tau in centers]
        # per cell: the fit, the anchor (the data point), velocity, offsets [t_lo, t_hi]
        x1, x2, theta_hat, a1, a2, v1, v2, t_lo, t_hi = np.array([
            [*c.fit.x_hat, *c.fit.theta_hat, *c.base_point, *c.frame.velocity[:, 0],
             c.offsets[0, 0], c.offsets[-1, 0]] for c in clouds]).T
        two_rho, cells, zeros = 2.0 * spec.rho, spec.cells, np.zeros(spec.cells)
        mid, half = theta_hat + 0.5 * (t_lo + t_hi), 0.5 * (t_hi - t_lo)
        # d's angle is within the half span h of the arc's middle m where
        # d.m >= |d| cos h; an arc of a turn or more holds every angle, which
        # a bound below -1 passes
        cos_half = np.where(half < math.pi, np.cos(half), -2.0)[:, None]
        speed = np.hypot(v1, v2)
        e1, e2 = v1 / speed, v2 / speed

        def along(w1, w2, p1, p2, shift=zeros):  # rows of w_c.(y - p_c) + shift_c
            return np.column_stack([w1, w2, shift - (w1 * p1 + w2 * p2), zeros])

        # each table holds blocks of one row per cell, applied to (y1, y2, 1, |y|^2)
        arc_table = np.concatenate([
            np.column_stack([-2.0 * x1, -2.0 * x2, x1 * x1 + x2 * x2, np.ones(cells)]),  # |d|^2
            along(np.cos(mid), np.sin(mid), x1, x2),  # d.m, then 2 rho d.u at either end
            *(two_rho * along(np.cos(theta_hat + t), np.sin(theta_hat + t), x1, x2)
              for t in (t_lo, t_hi))])
        # y - anchor_c normal to v_c, and its length along v_c past either end
        line_table = np.concatenate([along(-e2, e1, a1, a2), along(e1, e2, a1, a2, -speed * t_hi),
                                     along(-e1, -e2, a1, a2, speed * t_lo)])

        def terms(table, y):  # table's blocks at the draws y, (cells, count) each
            yh = np.ones((4, len(y)))
            yh[:2] = y.T
            yh[3] = yh[0] * yh[0] + yh[1] * yh[1]
            return (table @ yh).reshape(-1, cells, len(y))

        def arc(y):  # cell c: x_hat_c + rho u(theta_hat_c + t), t in [t_lo, t_hi]
            # |d - rho u|^2 = |d|^2 - 2 rho d.u + rho^2 for d = y - x_hat_c;
            # over the arc d.u is at most |d|, reached where the arc holds d's
            # direction, and is largest at an end otherwise
            rr, middle, lo_end, hi_end = terms(arc_table, y)
            r = np.sqrt(np.maximum(rr, 0.0))  # |d|^2 may round below zero at the centre
            inside = middle >= r * cos_half
            np.maximum(lo_end, hi_end, out=lo_end)
            r *= two_rho
            np.copyto(lo_end, r, where=inside)
            rr -= lo_end
            return rr

        def line(y):  # cell c: anchor_c + t v_c, t in [t_lo, t_hi]
            # the part normal to v_c squared, plus the part past an end squared
            normal, past_hi, past_lo = terms(line_table, y)
            past = np.maximum(past_hi, past_lo, out=past_hi)  # at most one end is passed
            np.maximum(past, 0.0, out=past)
            normal *= normal
            past *= past
            normal += past
            return normal

        return {"second_order": arc, "tangent_only": line}

    def _location_scale_scores(self, spec):
        n = self.n

        def unit(z):  # centred, with mean square 1
            return (z - z.mean()) / math.sqrt(np.mean((z - z.mean()) ** 2))

        # deterministic base configuration (normal scores) and a transverse pattern
        from statistics import NormalDist  # only here: statistics costs ~4 ms to import

        inv_cdf = NormalDist().inv_cdf
        base = unit(np.sort([inv_cdf((i + 0.5) / n) for i in range(n)]))
        direction = np.sin(2.0 * math.pi * (np.arange(n) + 0.25) / n)
        ones = np.ones(n) / math.sqrt(n)
        direction -= (direction @ ones) * ones
        direction -= (direction @ base) * base / float(base @ base)
        direction /= np.linalg.norm(direction)
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * 0.5
        z = np.array([unit(base + tau * direction) for tau in centers])
        s_lo, s_hi = 1.0 - 3.0 / math.sqrt(2.0 * n), 1.0 + 3.0 / math.sqrt(2.0 * n)

        # cell c: the plane m 1 + s z_c, |m| <= 3 / sqrt(n) and s in [s_lo, s_hi];
        # 1.z_c = 0 and |z_c|^2 = n, so the m coordinate and its part of the
        # distance are common to all cells, and s is y.z_c / n clipped
        def plane(y):
            yz = z @ y.T
            s = yz / n
            np.maximum(s, s_lo, out=s)
            np.minimum(s, s_hi, out=s)
            return n * s * s - 2.0 * s * yz

        return {"second_order": plane}

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.sd * rng.standard_normal((count, self.model.n))

    def labels(self, arm: str, y: np.ndarray) -> np.ndarray:
        return np.argmin(self.scores[arm](y), axis=0)


def _run_batch(spec: OrderStudySpec, ctx: _StudyContext, n_idx: int, batch_idx: int,
               count: int) -> dict:
    """Counts of cell labels for one batch, all offsets, common random numbers."""
    seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(n_idx, batch_idx))
    rng = np.random.default_rng(seq)
    xt = ctx.draw(rng, count).T.copy()  # one row per coordinate, transposed once
    counts = {arm: [] for arm in ctx.arms}
    for base in ctx.bases:
        y = (base[:, None] + xt).T  # rows base + x, each coordinate contiguous
        for arm in ctx.arms:
            counts[arm].append(np.bincount(ctx.labels(arm, y), minlength=spec.cells))
    return {arm: np.array(rows) for arm, rows in counts.items()}


class ArmPerN(NamedTuple):
    n: int
    sensitivity: float
    se: float
    per_delta: list
    per_cell_z: list


class ArmSummary(NamedTuple):
    name: str
    per_n: list
    slope: float | None
    slope_se: float | None
    slope_band: tuple | None


class OrderStudyReport(NamedTuple):
    """Replicated study output: per-n sensitivities, slopes, diagnostics.

    The JSON payload is a pure function of the spec, so reruns are
    bit-comparable.
    """

    spec: OrderStudySpec
    arms: dict
    inconclusive: bool
    required_reps_estimate: int | None

    def to_json_dict(self) -> dict:  # every spec key, at the top level
        return record(self, skip=("spec",), study="ancillarity-order",
                      arms={name: record(arm, skip=("name",)) for name, arm in self.arms.items()},
                      **self.spec._asdict())

    def summary(self) -> dict:
        out = {"study": "ancillarity-order", "family": self.spec.family,
               "inconclusive": self.inconclusive}
        for name, arm in self.arms.items():
            out[f"slope_{name}"] = arm.slope
            out[f"sensitivity_{name}"] = [row.sensitivity for row in arm.per_n]
        return out

    def to_csv(self) -> str:
        rows = []
        for name, arm in self.arms.items():
            slope = arm.slope if arm.slope is not None else math.nan
            for row in arm.per_n:
                for entry in row.per_delta:
                    rows.append([name, row.n, entry["delta"], entry["sign"], entry["tv_per_std"],
                                 entry["se"], row.sensitivity, slope])
        header = ["arm", "n", "delta", "sign", "tv_per_std", "se", "sensitivity", "slope"]
        return csv_lines(header, rows)


def _slope_fit(ns, values):
    """Slope of log values on log ns, its se and 2-se band; None each unless 2+ values, all > 0."""
    if len(values) < 2 or not all(v > 0 for v in values):
        return None, None, None
    xs = np.log(np.asarray(ns, dtype=float))
    ys = np.log(np.asarray(values, dtype=float))
    k = len(xs)
    slope, intercept = np.polyfit(xs, ys, 1)
    if k <= 2:
        return float(slope), None, None
    resid = ys - (slope * xs + intercept)
    sigma2 = float(resid @ resid) / (k - 2)
    se = math.sqrt(sigma2 / float(np.sum((xs - xs.mean()) ** 2)))
    return float(slope), float(se), (float(slope - 2 * se), float(slope + 2 * se))


def _batch_se(values):
    """Standard error of the mean over axis 1 (the batches) of values, 0 for
    one batch.  The batches are moved to a contiguous last axis, so each
    standard deviation sums in numpy's pairwise order for a 1-D array."""
    if values.shape[1] == 1:
        return np.zeros(values.shape[:1] + values.shape[2:])
    spread = np.std(np.ascontiguousarray(np.moveaxis(values, 1, -1)), axis=-1, ddof=1)
    return spread / math.sqrt(values.shape[1])


def run_replicated(spec: OrderStudySpec) -> OrderStudyReport:
    """Run the order study with counter-based per-batch seeds.

    Batches are the unit of work: each draws its own reference noise from
    SeedSequence(seed, spawn_key=(n_index, batch_index)) and counts cell
    labels at every parameter offset with the same draws, so the output
    depends on the spec alone.  A failed batch raises PartialResultsError
    carrying the finished ones.  One batch gives no standard error, so a
    positive sensitivity then makes the report inconclusive.
    """
    spec = spec.validate()
    contexts = [_StudyContext(spec, n) for n in spec.n_grid]
    n_batches = math.ceil(spec.reps / spec.batch_size)
    sizes = np.minimum(spec.batch_size, spec.reps - spec.batch_size * np.arange(n_batches))
    offsets = contexts[0].offsets[1:]  # past the null; each (delta, sign) alike for every n
    shape = (len(spec.n_grid), n_batches, 1 + len(offsets), spec.cells)
    counts = {arm: np.empty(shape, dtype=np.intp) for arm in contexts[0].arms}
    done = []
    try:
        for n_idx, b in np.ndindex(shape[:2]):
            for arm, batch in _run_batch(spec, contexts[n_idx], n_idx, b, int(sizes[b])).items():
                counts[arm][n_idx, b] = batch
            done.append((n_idx, b))
    except Exception as exc:
        raise PartialResultsError(
            f"replicated study failed mid-run: {exc}", completed=done
        ) from exc

    deltas = np.array([delta for delta, _, _ in offsets])
    per = np.where(deltas > 0, deltas, 1.0)  # TV per unit offset; a zero offset's as it is
    rows = np.arange(len(spec.n_grid))
    arms = {}
    for arm, count in counts.items():
        # each offset's shift of the cell probabilities from the null, pooled
        # (n, offset, cell) and per batch (n, batch, offset, cell)
        shift = count.sum(axis=1) / spec.reps
        shift = shift[:, 1:] - shift[:, :1]
        batch_shift = count / sizes[:, None, None]
        batch_shift = batch_shift[:, :, 1:] - batch_shift[:, :, :1]
        tv = 0.5 * np.abs(shift).sum(axis=-1) / per
        tv_se = _batch_se(0.5 * np.abs(batch_shift).sum(axis=-1) / per)
        best = tv.shape[1] - 1 - np.argmax(tv[:, ::-1], axis=1)  # the last strongest offset
        dp, cell_se = shift[rows, best], _batch_se(batch_shift[rows, :, best])
        z = np.divide(dp, cell_se, out=np.zeros_like(dp), where=cell_se > 0)
        per_n = [
            ArmPerN(n=n, sensitivity=tv_n[k], se=se_n[k], per_cell_z=z_n,
                    per_delta=[{"delta": float(delta), "sign": int(sign), "tv_per_std": v,
                                "se": e} for (delta, sign, _), v, e in zip(offsets, tv_n, se_n)])
            for n, tv_n, se_n, k, z_n in zip(spec.n_grid, tv.tolist(), tv_se.tolist(),
                                             best.tolist(), z.tolist())]
        slope, slope_se, band = _slope_fit(spec.n_grid, [row.sensitivity for row in per_n])
        arms[arm] = ArmSummary(name=arm, per_n=per_n, slope=slope,
                               slope_se=slope_se, slope_band=band)

    every_n = [row for arm in arms.values() for row in arm.per_n]
    ratios = [(3.0 * row.se / row.sensitivity) ** 2 for row in every_n
              if 0 < row.sensitivity < 3.0 * row.se]
    required = math.ceil(spec.reps * max(ratios)) if ratios else None
    if n_batches == 1 and any(row.sensitivity > 0 for row in every_n):
        required = 2 * spec.batch_size  # one batch has no spread: two give the first se
    return OrderStudyReport(spec=spec, arms=arms,
                            inconclusive=required is not None,
                            required_reps_estimate=required)


class PartitionOrderReport(NamedTuple):
    """Partition discrepancy of the synthetic curved family versus n."""

    spec: PartitionOrderSpec
    mean_discrepancy: list
    per_draw: list
    slope: float | None
    slope_se: float | None
    slope_band: tuple | None

    def summary(self) -> dict:
        return {"study": "partition-order", "slope": self.slope,
                "mean_discrepancy": self.mean_discrepancy}

    def to_json_dict(self) -> dict:  # every spec key, at the top level
        return record(self, skip=("spec",), study="partition-order", **self.spec._asdict())

    def to_csv(self) -> str:
        rows = [[n, m] for n, m in zip(self.spec.n_grid, self.mean_discrepancy)]
        return csv_lines(["n", "mean_discrepancy"], rows)


class PartitionOrderSpec(NamedTuple):
    """Configuration of the partition-order study: the sample sizes n_grid,
    at least two distinct ones to fit a slope, the standardized offset
    t1_std, nonzero and within the moderate-deviation cap, draws per n, the
    seed, and the contour grid's half width and points per axis."""

    n_grid: tuple = (16, 64, 256, 1024)
    t1_std: float = 1.0
    draws: int = 12
    seed: int = 20260816
    grid_half_width: float = 3.0
    grid_points: int = 21

    def validate(self, changes=None) -> PartitionOrderSpec:
        """The spec (changes over its fields) typed; a value the study cannot run with raises."""
        from .ancillary import _T1_CAP

        spec = _checked(self, changes, n_grid=2, seed=0, grid_points=3)
        spec.grid  # GridSpec's own checks of the half width
        if spec.draws <= 0:
            raise EmptyStudyError("draws must be positive")
        if not spec.n_grid:
            raise EmptyStudyError("n_grid must be nonempty")
        if len(set(spec.n_grid)) < 2:
            raise InvalidParameterError("n_grid needs two distinct sample sizes to fit a slope")
        if spec.t1_std == 0.0:
            raise InvalidParameterError("'t1_std' must be nonzero: a zero offset moves no contour")
        if abs(spec.t1_std) > _T1_CAP:
            raise InvalidParameterError(
                f"|t1| = {abs(spec.t1_std):.3f} exceeds the moderate-deviation cap {_T1_CAP}")
        return spec

    @property
    def grid(self):
        from .ancillary import GridSpec

        return GridSpec(half_width=self.grid_half_width, points_per_axis=self.grid_points)

    def run(self) -> PartitionOrderReport:
        return partition_order_study(self)


def partition_order_study(spec: PartitionOrderSpec = PartitionOrderSpec()) -> PartitionOrderReport:
    """Measure how the partition discrepancy of a curved family decays with n.

    For each n, reference draws from the synthetic curved scalar model give
    observed points; the contour is rebuilt from its own point at offset
    t1_std and the one-sided set discrepancy recorded.  The log-log slope of
    the per-n means is the order estimate (1/n for this second-order
    construction), None unless every mean is positive.  spec is validated
    first; each contour's grid has grid_points per axis over the
    standardized half width grid_half_width.
    """
    from .ancillary import _partition_pass
    from .models import make_synthetic_curved

    n_grid, t1_std, draws, seed, *_ = spec = spec.validate()
    per_draw = []
    for n_idx, n in enumerate(n_grid):
        model = make_synthetic_curved(n)
        rngs = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n_idx, d)))
                for d in range(draws))
        y0 = model.quantile(np.array([rng.standard_normal(n) for rng in rngs]), np.zeros(1))
        reports = _partition_pass(model, y0, np.array([t1_std]), spec.grid)
        per_draw.append([report.discrepancy for report in reports])
    means = [float(np.mean(row)) for row in per_draw]
    slope, slope_se, band = _slope_fit(n_grid, means)
    return PartitionOrderReport(spec, means, per_draw, slope, slope_se, band)


_STUDIES = {"quadrature": QuadratureSpec, "ancillarity-order": OrderStudySpec,
            "partition-order": PartitionOrderSpec}


def spec_from_config(config: dict, seed=None):
    """The checked spec of the study config["study"] names, from the other
    keys; seed (--seed), if given, replaces the config's."""
    study = config.get("study")
    spec_type = _STUDIES.get(study) if isinstance(study, str) else None
    if spec_type is None:
        raise InvalidParameterError(
            f"config key 'study' must be one of {list(_STUDIES)}, got {study!r}")
    fields = {key: value for key, value in config.items() if key != "study"}
    # every command accepts --seed (the benchmark passes it to each one), so
    # it sets the field where the spec has one and is ignored elsewhere
    if seed is not None and "seed" in spec_type._fields:
        fields["seed"] = seed
    return spec_type().validate(fields)
