"""Simulation and quadrature checks of approximate ancillarity.

Three harnesses live here: a quadrature check that the candidate scalar
statistic has a vanishing parameter derivative of its density at the
expansion point; a replicated order study that bins draws by nearest
contour and tracks how fast cell-probability sensitivity decays with n
(second-order contours decay like 1/n, tangent-only contours like
1/sqrt(n)); and a deterministic partition-discrepancy study on a synthetic
curved family.  All randomness is counter-seeded per (n, batch), so results
are a function of the configuration alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np
from scipy.integrate import quad
from scipy.spatial import cKDTree

from ._jsonio import config_int, csv_lines, dumps
from .ancillary import GridSpec, build_contour, partition_check
from .errors import (
    EmptyStudyError,
    InvalidParameterError,
    NumericalFailureError,
    PartialResultsError,
    UnsupportedFamilyError,
)
from .estimation import fit_mle
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

_SQRT_2PI = math.sqrt(2.0 * math.pi)


def _phi(u: float) -> float:
    return math.exp(-0.5 * u * u) / _SQRT_2PI


def _density_integral(a: float, theta: float, c: float, bound: float = 8.0) -> float:
    """f(a; theta) = integral of phi(x - theta) phi(a - c x^2 / 2) dx."""
    value, err = quad(
        lambda x: _phi(x - theta) * _phi(a - 0.5 * c * x * x),
        -bound,
        bound,
        epsabs=1e-13,
        epsrel=1e-12,
        limit=300,
    )
    if not math.isfinite(value) or err > 1e-9:
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
        derivs = np.empty(len(a_grid))
        sym = 0.0
        flip = 0.0
        curvature = 0.0
        for i, a in enumerate(a_grid):
            up = _density_integral(a, eps, c)
            dn = _density_integral(a, -eps, c)
            derivs[i] = (up - dn) / (2.0 * eps)
            at_probe = _density_integral(a, theta_probe, c)
            at_zero = _density_integral(a, 0.0, c)
            sym = max(sym, abs(at_probe - _density_integral(a, -theta_probe, c)))
            flip = max(flip, abs(at_probe - _density_integral(-a, theta_probe, -c)))
            curvature = max(curvature, abs(at_probe - at_zero) / theta_probe**2)
        cases.append(
            QuadratureCase(
                c=float(c),
                max_abs_derivative=float(np.max(np.abs(derivs))),
                symmetry_gap=float(sym),
                flip_gap=float(flip),
                second_order_scale=float(curvature),
                derivatives=derivs,
            )
        )
    return QuadratureReport(cases=tuple(cases), a_grid=a_grid, eps=eps,
                            theta_probe=theta_probe)


@dataclass(frozen=True)
class OrderStudySpec:
    """Configuration of the replicated cell-sensitivity study.

    family "circle" scales the coordinate variance like 1/n on the planar
    circle model and runs both arms; family "location-scale" uses n as the
    sample size with Normal errors and runs the exact (second-order) arm
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
        for n in self.n_grid:
            config_int(n, "n_grid", 2)
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


class _StudyContext:
    """Per-n immutable pieces: model, offset thetas, lattice trees, draws."""

    def __init__(self, spec: OrderStudySpec, n: int):
        self.n = n
        if spec.family == "circle":
            variance = 1.0 / n
            self.model = make_circle(spec.rho, n=2, variance_scale=variance)
            self.dim = 2
            self.sd = math.sqrt(variance)
            info = spec.rho**2 / variance
            self.arms = ("second_order", "tangent_only")
        else:
            self.model = make_location_scale(n)
            self.dim = n
            self.sd = 1.0
            info = float(n)
            self.arms = ("second_order",)

        self.offsets = [(0.0, 0, 0)]
        for d in spec.deltas:
            raw = d / math.sqrt(info)
            self.offsets.append((d, +1, raw))
            self.offsets.append((d, -1, -raw))

        theta_star = spec.theta_star
        if spec.family == "circle":
            thetas = [np.array([theta_star + off]) for (_, _, off) in self.offsets]
        else:
            thetas = [np.array([theta_star + off, 1.0]) for (_, _, off) in self.offsets]
        zero = np.zeros(self.dim)
        self.bases = [self.model.quantile(zero, th) for th in thetas]
        self.jacs = [self.model.dquantile_dx(zero, th) for th in thetas]

        self.trees = {}
        self.block = 0
        if spec.family == "circle":
            self._build_circle_lattice(spec)
        else:
            self._build_location_scale_lattice(spec)

    def _build_circle_lattice(self, spec):
        u = np.array([math.cos(spec.theta_star), math.sin(spec.theta_star)])
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * self.sd
        grid = GridSpec(half_width=spec.lattice_half_width,
                        points_per_axis=spec.lattice_points)
        curved, tangent = [], []
        for tau in centers:
            anchor = (spec.rho + tau) * u
            fit = fit_mle(self.model, anchor)
            cloud = build_contour(self.model, anchor, grid, fit=fit)
            curved.append(cloud.points)
            tangent.append(anchor[None, :] + cloud.offsets @ cloud.frame.velocity.T)
        self.block = curved[0].shape[0]
        if any(c.shape[0] != self.block for c in curved):
            raise InvalidParameterError("lattice contours must share the grid size")
        self.trees["second_order"] = cKDTree(np.vstack(curved))
        self.trees["tangent_only"] = cKDTree(np.vstack(tangent))

    def _build_location_scale_lattice(self, spec):
        n = self.n
        # deterministic base configuration (normal scores) and a transverse pattern
        base = np.sort(np.array([_norm_ppf((i + 0.5) / n) for i in range(n)]))
        base = (base - base.mean()) / math.sqrt(np.mean((base - base.mean()) ** 2))
        direction = np.sin(2.0 * math.pi * (np.arange(n) + 0.25) / n)
        ones = np.ones(n) / math.sqrt(n)
        direction -= (direction @ ones) * ones
        direction -= (direction @ base) * base / float(base @ base)
        direction /= np.linalg.norm(direction)
        centers = (np.arange(spec.cells) - (spec.cells - 1) / 2.0) * 0.5
        m_axis = np.linspace(-3.0, 3.0, 41) / math.sqrt(n)
        s_axis = 1.0 + np.linspace(-3.0, 3.0, 41) / math.sqrt(2.0 * n)
        mm, ss = np.meshgrid(m_axis, s_axis, indexing="ij")
        clouds = []
        for tau in centers:
            z = base + tau * direction
            z = (z - z.mean()) / math.sqrt(np.mean((z - z.mean()) ** 2))
            pts = mm.reshape(-1, 1) + ss.reshape(-1, 1) * z[None, :]
            clouds.append(pts)
        self.block = clouds[0].shape[0]
        self.trees["second_order"] = cKDTree(np.vstack(clouds))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return self.sd * rng.standard_normal((count, self.dim))

    def labels(self, arm: str, y: np.ndarray) -> np.ndarray:
        _, idx = self.trees[arm].query(y)
        return idx // self.block


def _norm_ppf(q: float) -> float:
    from scipy.special import ndtri

    return float(ndtri(q))


def _run_batch(spec: OrderStudySpec, ctx: _StudyContext, n_idx: int, batch_idx: int,
               count: int) -> dict:
    """Counts of cell labels for one batch, all offsets, common random numbers."""
    seq = np.random.SeedSequence(entropy=spec.seed, spawn_key=(n_idx, batch_idx))
    rng = np.random.default_rng(seq)
    x = ctx.draw(rng, count)
    out = {}
    for arm in ctx.arms:
        counts = np.zeros((len(ctx.offsets), spec.cells), dtype=np.int64)
        for t_idx in range(len(ctx.offsets)):
            y = ctx.bases[t_idx][None, :] + ctx.jacs[t_idx][None, :] * x
            lab = ctx.labels(arm, y)
            counts[t_idx] = np.bincount(lab, minlength=spec.cells)
        out[arm] = counts
    return out


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
    construction).
    """
    if draws <= 0:
        raise EmptyStudyError("draws must be positive")
    if not n_grid:
        raise EmptyStudyError("n_grid must be nonempty")
    per_draw = []
    means = []
    for n_idx, n in enumerate(n_grid):
        model = make_synthetic_curved(int(n))
        row = []
        for d in range(draws):
            seq = np.random.SeedSequence(entropy=seed, spawn_key=(n_idx, d))
            rng = np.random.default_rng(seq)
            x0 = rng.standard_normal(n)
            y0 = model.quantile(x0, np.zeros(1))
            report = partition_check(model, y0, np.array([t1_std]), grid=grid)
            row.append(report.discrepancy)
        per_draw.append(row)
        means.append(float(np.mean(row)))
    slope, slope_se, band = _slope_fit(n_grid, means)
    return PartitionOrderReport(
        n_grid=tuple(int(n) for n in n_grid),
        t1_std=float(t1_std),
        draws=draws,
        seed=seed,
        mean_discrepancy=means,
        per_draw=per_draw,
        slope=slope,
        slope_se=slope_se,
        slope_band=band,
    )
