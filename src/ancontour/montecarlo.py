"""Simulation and quadrature checks of approximate ancillarity.

Three harnesses live here: a quadrature check that the candidate scalar
statistic has a vanishing parameter derivative of its density at the
expansion point, by a fixed Gauss-Legendre rule; a replicated order study
that bins draws by nearest lattice contour (a projection snapped to each
contour's uniform grid) and tracks how fast cell-probability sensitivity
decays with n (second-order contours decay like 1/n, tangent-only contours
like 1/sqrt(n)); and a deterministic partition-discrepancy study on a
synthetic curved family.  All randomness is counter-seeded per (n, batch),
so results are a function of the configuration alone.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields

import numpy as np

from ._jsonio import config_int, csv_lines, dumps
from .ancillary import _T1_CAP, GridSpec, _partition_pass, build_contour
from .errors import (
    EmptyStudyError,
    InvalidParameterError,
    NumericalFailureError,
    PartialResultsError,
    UnsupportedFamilyError,
)
from .models import make_circle, make_location_scale, make_synthetic_curved

__all__ = [
    "QuadratureReport",
    "OrderStudySpec",
    "OrderStudyReport",
    "PartitionOrderReport",
    "quadrature_first_derivative",
    "run_replicated",
    "partition_order_study",
    "order_spec_from_config",
]


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


@dataclass(frozen=True)
class QuadratureCase:
    c: float
    max_abs_derivative: float
    symmetry_gap: float
    flip_gap: float
    second_order_scale: float
    derivatives: np.ndarray


@dataclass(frozen=True)
class QuadratureReport:
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

    def to_json_dict(self) -> dict:
        return {
            "study": "quadrature",
            "eps": float(self.eps),
            "theta_probe": float(self.theta_probe),
            "a_grid": [float(a) for a in self.a_grid],
            "cases": [
                {
                    "c": float(case.c),
                    "max_abs_derivative": float(case.max_abs_derivative),
                    "symmetry_gap": float(case.symmetry_gap),
                    "flip_gap": float(case.flip_gap),
                    "second_order_scale": float(case.second_order_scale),
                    "derivatives": [float(v) for v in case.derivatives],
                }
                for case in self.cases
            ],
        }

    def to_csv(self) -> str:
        rows = [
            [case.c, case.max_abs_derivative, case.symmetry_gap, case.flip_gap,
             case.second_order_scale]
            for case in self.cases
        ]
        return csv_lines(
            ["c", "max_abs_derivative", "symmetry_gap", "flip_gap",
             "second_order_scale"],
            rows,
        )


def quadrature_first_derivative(
    c_values=(0.5, 1.0, 2.0),
    a_grid=None,
    eps: float = 1e-4,
    theta_probe: float = 0.5,
) -> QuadratureReport:
    """Check d f(a; theta) / d theta = 0 at theta = 0 by tight quadrature.

    The statistic density is symmetric in theta, so the central difference
    with step eps measures quadrature noise only; the report also evaluates
    the symmetry directly at theta_probe and the (a, c) sign flip.
    """
    if a_grid is None:
        a_grid = np.linspace(-3.0, 3.0, 61)
    a_grid = np.asarray(a_grid, dtype=float)
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


@dataclass(frozen=True)
class OrderStudySpec:
    """Configuration of the replicated cell-sensitivity study.

    family "circle" scales the coordinate variance like 1/n on the planar
    circle model and runs both arms; family "location-scale" uses n >= 3 as
    the sample size with Normal errors and runs the exact (second-order) arm
    only.  deltas are standardized parameter offsets; cells is the number of
    lattice contours per transverse direction.  The default n_grid keeps the
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
    lattice_points: int = 337

    def validate(self):
        """Reject every value the study cannot run with, before any work."""
        if self.reps <= 0:
            raise EmptyStudyError("reps must be positive")
        if self.family not in ("circle", "location-scale"):
            raise UnsupportedFamilyError(f"no order study for family {self.family!r}")
        for key, minimum in (("reps", 1), ("batch_size", 1), ("cells", 2),
                             ("lattice_points", 3), ("seed", 0)):
            config_int(getattr(self, key), key, minimum)
        if not self.deltas or not all(0.0 <= d < math.inf for d in self.deltas):
            raise InvalidParameterError("deltas must be nonnegative, finite and nonempty")
        if not self.n_grid:
            raise InvalidParameterError("n_grid must be nonempty")
        for n in self.n_grid:  # location-scale needs a direction normal to 1 and the scores
            config_int(n, "n_grid", 3 if self.family == "location-scale" else 2)
        if len(set(self.n_grid)) < len(self.n_grid):
            raise InvalidParameterError("n_grid must not repeat a sample size")
        for key in ("rho", "lattice_half_width"):
            if not 0.0 < getattr(self, key) < math.inf:
                raise InvalidParameterError(f"{key!r} must be positive and finite")
        if not math.isfinite(self.theta_star):
            raise InvalidParameterError("'theta_star' must be finite")


def order_spec_from_config(config: dict) -> OrderStudySpec:
    """Build an OrderStudySpec from a JSON mapping: "study" plus spec fields."""
    kwargs = {k: v for k, v in config.items() if k != "study"}
    unknown = set(kwargs) - {f.name for f in fields(OrderStudySpec)}
    if unknown:
        raise InvalidParameterError(f"unknown study keys: {sorted(unknown)}")
    for key in ("n_grid", "deltas"):
        if key in kwargs:
            kwargs[key] = tuple(kwargs[key])
    spec = OrderStudySpec(**kwargs)
    spec.validate()
    return spec


_TWO_PI = 2.0 * math.pi


def _wrap(a):
    """np.remainder(a, 2 pi) in place, bit for bit, for a in [-2 pi, 4 pi).

    fmod is exact, so np.remainder returns a - 2 pi (exact there) on
    [2 pi, 4 pi), a itself on [0, 2 pi) and a + 2 pi, rounded, on [-2 pi, 0):
    one conditional subtract and one conditional add.  Adding +0.0 gives -0.0
    the +0.0 np.remainder returns for it.
    """
    np.subtract(a, _TWO_PI, out=a, where=a >= _TWO_PI)
    np.add(a, _TWO_PI, out=a, where=a < 0.0)
    a += 0.0
    return a


class _Snap:
    """Nearest node of each row's uniform grid in axis (rows, K), clipped to
    the row's ends, with the grid's start, step and flat row offsets computed
    once."""

    def __init__(self, axis):
        self.last = axis.shape[1] - 1
        self.start = axis[:, :1]
        self.step = (axis[:, -1:] - axis[:, :1]) / self.last
        self.offset = (self.last + 1) * np.arange(axis.shape[0])[:, None]

    def __call__(self, coord, rows=None):
        """Flat index into axis of the node nearest coord (rows, count), or
        of each entry of coord (m,) on its row in rows; overwrites coord."""
        start, step, offset = ((self.start, self.step, self.offset) if rows is None else
                               (self.start[rows, 0], self.step[rows, 0], self.offset[rows, 0]))
        coord -= start
        coord /= step
        np.rint(coord, out=coord)
        np.maximum(coord, 0.0, out=coord)  # np.clip's values, without its overhead
        np.minimum(coord, self.last, out=coord)
        k = coord.astype(np.intp)
        k += offset
        return k


class _StudyContext:
    """Per-n immutable pieces: model, offset thetas, lattice scores, draws.

    scores[arm](y) is, per cell and draw, the part of the squared distance to
    the cell's nearest lattice node that differs between cells, for rows y
    (count, n); the transposed view of contiguous coordinate rows that
    _run_batch passes reads fastest."""

    def __init__(self, spec: OrderStudySpec, n: int):
        self.n = n
        if spec.family == "circle":
            variance = 1.0 / n
            self.model = make_circle(spec.rho, n=2, variance_scale=variance)
            self.sd = math.sqrt(variance)
            info = spec.rho**2 / variance
        else:
            self.model = make_location_scale(n)
            self.sd = 1.0
            info = float(n)

        self.offsets = [(0.0, 0, 0)]
        for d in spec.deltas:
            raw = d / math.sqrt(info)
            self.offsets.append((d, +1, raw))
            self.offsets.append((d, -1, -raw))

        if spec.family == "circle":
            thetas = [np.array([spec.theta_star + off]) for (_, _, off) in self.offsets]
            self.scores = self._circle_scores(spec)
        else:
            thetas = [np.array([spec.theta_star + off, 1.0]) for (_, _, off) in self.offsets]
            self.scores = self._location_scale_scores(spec)
        # both models have dquantile_dx = 1 on these rows, so y = base + x
        zero = np.zeros(self.model.n)
        self.bases = [self.model.quantile(zero, th) for th in thetas]
        self.arms = tuple(self.scores)

    def _circle_scores(self, spec):
        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * self.sd
        grid = GridSpec(half_width=spec.lattice_half_width,
                        points_per_axis=spec.lattice_points)
        clouds = [build_contour(self.model, (spec.rho + tau) * u, grid) for tau in centers]
        # (cells, 1) columns: the fit, the anchor (the data point) and the velocity
        x1, x2, theta_hat, a1, a2, v1, v2 = np.array([
            [*c.fit.x_hat, *c.fit.theta_hat, *c.base_point, *c.frame.velocity[:, 0]]
            for c in clouds]).T[:, :, None]
        # arctan2 is in [-pi, pi] and each step rounds monotonically, so these
        # bound the angles arc passes to _wrap: inside its range for theta_hat
        # in (-2 pi, 2 pi], bar the one float just above -2 pi
        ok = (((-math.pi - theta_hat) + math.pi >= -_TWO_PI)
              & ((math.pi - theta_hat) + math.pi < 2.0 * _TWO_PI))
        if not ok.all():
            raise NumericalFailureError("the arc labelling needs each cell's theta_hat in "
                                        f"(-2 pi, 2 pi], got {theta_hat[~ok][0]!r}")
        t_axis = np.array([c.offsets[:, 0] for c in clouds])
        snap, vv, two_rho = _Snap(t_axis), v1 * v1 + v2 * v2, 2.0 * spec.rho
        node_cos, node_sin = np.cos(theta_hat + t_axis), np.sin(theta_hat + t_axis)
        ends = node_cos[:, :1], node_sin[:, :1], node_cos[:, -1:], node_sin[:, -1:]
        # phi + 2 pi m, phi in [-pi, pi], can land inside the arc only where
        # 2 pi |m| - pi < max |t|; any other turn snaps to an end node.  A turn
        # m > 0 (m < 0) snaps a draw to the last (first) node, which along
        # holds already, unless its phi is below (above) t_last - 2 pi m
        # (t_first - 2 pi m) or within a node spacing of it.
        most = math.ceil((np.max(np.abs(t_axis)) + math.pi) / _TWO_PI) - 1
        turns = []
        for m in range(1, most + 1):
            turns.append((_TWO_PI * m, np.less, t_axis[:, -1:] - _TWO_PI * m + snap.step))
            turns.append((-_TWO_PI * m, np.greater, t_axis[:, :1] + _TWO_PI * m - snap.step))

        def arc(y):  # cell c: x_hat_c + rho u(theta_hat_c + t_k)
            d1, d2 = np.subtract(y[:, 0], x1), np.subtract(y[:, 1], x2)
            phi = np.arctan2(d2, d1)
            phi -= theta_hat
            phi += math.pi
            _wrap(phi)
            phi -= math.pi
            # the end nodes, then the turns that can land inside, each row's own
            along, near = d1 * ends[0], d2 * ends[1]
            along += near
            np.multiply(d1, ends[2], out=near)
            far = d2 * ends[3]
            near += far
            np.maximum(along, near, out=along)
            for shift, inside, bound in turns:
                rows, cols = np.nonzero(inside(phi, bound))
                if rows.size:
                    k = snap(phi[rows, cols] + shift, rows)
                    hit = d1[rows, cols] * node_cos.take(k) + d2[rows, cols] * node_sin.take(k)
                    along[rows, cols] = np.maximum(along[rows, cols], hit)
            k = snap(phi)
            node_cos.take(k, out=near, mode="clip")  # k is in range: clip only skips a check
            near *= d1
            node_sin.take(k, out=far, mode="clip")
            far *= d2
            near += far
            np.maximum(along, near, out=along)
            d1 *= d1
            d2 *= d2
            d1 += d2
            along *= two_rho
            d1 -= along
            return d1

        def line(y):  # cell c: anchor_c + t_k v_c
            d1, d2 = np.subtract(y[:, 0], a1), np.subtract(y[:, 1], a2)
            dv, tmp = d1 * v1, d2 * v2
            dv += tmp
            np.divide(dv, vv, out=tmp)
            t = t_axis.take(snap(tmp))
            d1 *= d1
            d2 *= d2
            d1 += d2
            np.multiply(t, 2.0, out=tmp)
            tmp *= dv
            d1 -= tmp
            t *= t
            t *= vv
            d1 += t
            return d1

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
        s_axis = 1.0 + np.linspace(-3.0, 3.0, 41)[None, :] / math.sqrt(2.0 * n)
        snap = _Snap(s_axis)

        # cell c: the plane m 1 + s z_c on a 41 x 41 grid; 1.z_c = 0 and
        # |z_c|^2 = n, so the m coordinate and its snap are common to all cells
        def plane(y):
            yz = z @ y.T
            s = s_axis.take(snap(yz / n))
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


@dataclass(frozen=True)
class ArmPerN:
    n: int
    sensitivity: float
    se: float
    per_delta: list
    per_cell_z: list


@dataclass(frozen=True)
class ArmSummary:
    name: str
    per_n: list
    slope: float | None
    slope_se: float | None
    slope_band: tuple | None


@dataclass(frozen=True)
class OrderStudyReport:
    """Replicated study output: per-n sensitivities, slopes, diagnostics.

    The JSON payload is a pure function of the spec, so reruns are
    bit-comparable.
    """

    spec: OrderStudySpec
    arms: dict
    inconclusive: bool
    required_reps_estimate: int | None

    def to_json_dict(self) -> dict:
        return {
            "study": "ancillarity-order",
            "family": self.spec.family,
            "n_grid": list(self.spec.n_grid),
            "deltas": [float(d) for d in self.spec.deltas],
            "reps": self.spec.reps,
            "batch_size": self.spec.batch_size,
            "cells": self.spec.cells,
            "seed": self.spec.seed,
            "inconclusive": bool(self.inconclusive),
            "required_reps_estimate": self.required_reps_estimate,
            "arms": {
                name: {
                    "slope": arm.slope,
                    "slope_se": arm.slope_se,
                    "slope_band": list(arm.slope_band) if arm.slope_band else None,
                    "per_n": [
                        {
                            "n": row.n,
                            "sensitivity": row.sensitivity,
                            "se": row.se,
                            "per_delta": row.per_delta,
                            "per_cell_z": row.per_cell_z,
                        }
                        for row in arm.per_n
                    ],
                }
                for name, arm in self.arms.items()
            },
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict())

    def to_csv(self) -> str:
        names, rows = [], []
        for name, arm in self.arms.items():
            slope = arm.slope if arm.slope is not None else math.nan
            for row in arm.per_n:
                for entry in row.per_delta:
                    names.append(name)
                    rows.append([row.n, entry["delta"], entry["sign"], entry["tv_per_std"],
                                 entry["se"], row.sensitivity, slope])
        header = ["n", "delta", "sign", "tv_per_std", "se", "sensitivity", "slope"]
        # csv_lines is numeric, so the arm column is prepended to its lines
        lines = csv_lines(header, rows).splitlines()
        return "\n".join(f"{name},{line}" for name, line in zip(["arm"] + names, lines)) + "\n"


def _slope_fit(ns, values):
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


def run_replicated(spec: OrderStudySpec) -> OrderStudyReport:
    """Run the order study with counter-based per-batch seeds.

    Batches are the unit of work: each draws its own reference noise from
    SeedSequence(seed, spawn_key=(n_index, batch_index)) and counts cell
    labels at every parameter offset with the same draws, so the output
    depends on the spec alone.  A failed batch raises PartialResultsError
    carrying the finished ones.
    """
    spec.validate()
    contexts = [_StudyContext(spec, n) for n in spec.n_grid]
    n_batches = math.ceil(spec.reps / spec.batch_size)
    sizes = [min(spec.batch_size, spec.reps - b * spec.batch_size)
             for b in range(n_batches)]

    results: dict = {}
    try:
        for n_idx in range(len(spec.n_grid)):
            for b in range(n_batches):
                results[(n_idx, b)] = _run_batch(spec, contexts[n_idx], n_idx, b, sizes[b])
    except Exception as exc:
        raise PartialResultsError(
            f"replicated study failed mid-run: {exc}", completed=list(results)
        ) from exc

    arm_names = contexts[0].arms
    arms = {}
    flagged_ratio = 0.0
    inconclusive = False
    for arm in arm_names:
        per_n = []
        for n_idx, n in enumerate(spec.n_grid):
            ctx = contexts[n_idx]
            batch_counts = [results[(n_idx, b)][arm] for b in range(n_batches)]
            pooled = np.sum(batch_counts, axis=0)
            p_pool = pooled / spec.reps
            per_delta = []
            best = (0.0, 0.0, None)
            for t_idx, (delta, sign, _raw) in enumerate(ctx.offsets):
                if t_idx == 0:
                    continue
                tv = 0.5 * float(np.sum(np.abs(p_pool[t_idx] - p_pool[0])))
                tv_per = tv / delta if delta > 0 else tv
                batch_vals = []
                for b in range(n_batches):
                    pb = batch_counts[b] / sizes[b]
                    tvb = 0.5 * float(np.sum(np.abs(pb[t_idx] - pb[0])))
                    batch_vals.append(tvb / delta if delta > 0 else tvb)
                se = (float(np.std(batch_vals, ddof=1)) / math.sqrt(n_batches)
                      if n_batches > 1 else 0.0)
                per_delta.append({"delta": float(delta), "sign": int(sign),
                                  "tv_per_std": tv_per, "se": se})
                if tv_per >= best[0]:
                    best = (tv_per, se, t_idx)
            # per-cell z at the probe with the strongest pooled signal
            t_star = best[2] if best[2] is not None else 1
            cell_z = []
            dps = np.stack([batch_counts[b][t_star] / sizes[b]
                            - batch_counts[b][0] / sizes[b]
                            for b in range(n_batches)])
            for j in range(spec.cells):
                spread = float(np.std(dps[:, j], ddof=1)) if n_batches > 1 else 0.0
                se_j = spread / math.sqrt(n_batches)
                dp = float(p_pool[t_star, j] - p_pool[0, j])
                cell_z.append(dp / se_j if se_j > 0 else 0.0)
            sens, sens_se = best[0], best[1]
            per_n.append(ArmPerN(n=n, sensitivity=sens, se=sens_se,
                                 per_delta=per_delta, per_cell_z=cell_z))
            if sens > 0 and sens < 3.0 * sens_se:
                inconclusive = True
                flagged_ratio = max(flagged_ratio, (3.0 * sens_se / sens) ** 2)
        values = [row.sensitivity for row in per_n]
        if all(v > 0 for v in values) and len(values) >= 2:
            slope, slope_se, band = _slope_fit(spec.n_grid, values)
        else:
            slope = slope_se = band = None
        arms[arm] = ArmSummary(name=arm, per_n=per_n, slope=slope,
                               slope_se=slope_se, slope_band=band)

    required = math.ceil(spec.reps * flagged_ratio) if inconclusive else None
    return OrderStudyReport(spec=spec, arms=arms,
                            inconclusive=inconclusive,
                            required_reps_estimate=required)


@dataclass(frozen=True)
class PartitionOrderReport:
    """Partition discrepancy of the synthetic curved family versus n."""

    n_grid: tuple
    t1_std: float
    draws: int
    seed: int
    mean_discrepancy: list
    per_draw: list
    slope: float
    slope_se: float
    slope_band: tuple

    def to_json_dict(self) -> dict:
        return {
            "study": "partition-order",
            "n_grid": list(self.n_grid),
            "t1_std": float(self.t1_std),
            "draws": self.draws,
            "seed": self.seed,
            "mean_discrepancy": [float(v) for v in self.mean_discrepancy],
            "per_draw": [[float(v) for v in row] for row in self.per_draw],
            "slope": float(self.slope),
            "slope_se": None if self.slope_se is None else float(self.slope_se),
            "slope_band": None if self.slope_band is None
            else [float(v) for v in self.slope_band],
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict())

    def to_csv(self) -> str:
        rows = [[n, m] for n, m in zip(self.n_grid, self.mean_discrepancy)]
        return csv_lines(["n", "mean_discrepancy"], rows)


def _partition_order_args(**given) -> dict:
    """partition_order_study's keyword arguments, checked before any work:
    the given ones, and the study's own defaults for the rest."""
    bound = inspect.signature(partition_order_study).bind(**given)
    bound.apply_defaults()
    n_grid, t1_std, draws, seed, grid = bound.arguments.values()
    draws, seed, t1_std = config_int(draws, "draws"), config_int(seed, "seed", 0), float(t1_std)
    if draws <= 0:
        raise EmptyStudyError("draws must be positive")
    if not n_grid:
        raise EmptyStudyError("n_grid must be nonempty")
    n_grid = tuple(config_int(n, "n_grid", 2) for n in n_grid)
    if len(set(n_grid)) < 2:
        raise InvalidParameterError("n_grid needs two distinct sample sizes to fit a slope")
    if not math.isfinite(t1_std):
        raise InvalidParameterError("'t1_std' must be finite")
    if abs(t1_std) > _T1_CAP:
        raise InvalidParameterError(
            f"|t1| = {abs(t1_std):.3f} exceeds the moderate-deviation cap {_T1_CAP}")
    return {"n_grid": n_grid, "t1_std": t1_std, "draws": draws, "seed": seed, "grid": grid}


def partition_order_study(
    n_grid=(16, 64, 256, 1024),
    t1_std: float = 1.0,
    draws: int = 12,
    seed: int = 20260816,
    grid: GridSpec = GridSpec(half_width=3.0, points_per_axis=21),
) -> PartitionOrderReport:
    """Measure how the partition discrepancy of a curved family decays with n.

    For each n, reference draws from the synthetic curved scalar model give
    observed points; the contour is rebuilt from its own point at offset
    t1_std and the one-sided set discrepancy recorded.  The log-log slope of
    the per-n means is the order estimate (1/n for this second-order
    construction), so n_grid needs at least two distinct sample sizes.
    """
    n_grid, t1_std, draws, seed, grid = _partition_order_args(
        n_grid=n_grid, t1_std=t1_std, draws=draws, seed=seed, grid=grid).values()
    per_draw = []
    for n_idx, n in enumerate(n_grid):
        model = make_synthetic_curved(n)
        rngs = (np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(n_idx, d)))
                for d in range(draws))
        y0 = model.quantile(np.array([rng.standard_normal(n) for rng in rngs]), np.zeros(1))
        reports = _partition_pass(model, y0, np.array([t1_std]), grid)
        per_draw.append([report.discrepancy for report in reports])
    means = [float(np.mean(row)) for row in per_draw]
    slope, slope_se, band = _slope_fit(n_grid, means)
    return PartitionOrderReport(
        n_grid=n_grid,
        t1_std=t1_std,
        draws=draws,
        seed=seed,
        mean_discrepancy=means,
        per_draw=per_draw,
        slope=slope,
        slope_se=slope_se,
        slope_band=band,
    )
