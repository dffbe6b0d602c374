"""Second-order approximate ancillary contours and their verification checks.

The contour through an observed point is the parameter trajectory of the
quantile map holding the fitted reference value fixed: t -> q(x_hat; theta_hat + t).
Quantile maps take a batch of parameter rows, so a whole grid cloud is one
call.  This module builds grid clouds of such contours, measures how close the
construction is to a partition of sample space, compares against exact
ancillaries where those exist, and carries the two counterexample
demonstrations (a full-data pivot that is no ancillary, and the coordinate
inversion that breaks global invertibility).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import ndimage
from scipy.optimize import root

from ._jsonio import config_int, csv_lines, dumps, encode_array
from .diffgeo import TaylorFrame, build_frame
from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
)
from .estimation import FitResult, StandardizationRecord, fit_mle, standardize
from .models import QuantileModel, make_location_scale, non_invertible_mask

__all__ = [
    "GridSpec",
    "ContourCloud",
    "PartitionReport",
    "ExactComparisonReport",
    "SeveriniReport",
    "InversionReport",
    "build_contour",
    "contour_min_distance",
    "partition_check",
    "compare_exact",
    "severini_pivot_check",
    "cauchy_inversion_demo",
]


@dataclass(frozen=True)
class GridSpec:
    """Parameter-offset grid: box of half_width per axis, points_per_axis each.

    Offsets are in information-standardized units when standardized is set,
    otherwise raw parameter units.  Odd points_per_axis keeps t = 0 on the
    grid.
    """

    half_width: float = 3.0
    points_per_axis: int = 41
    standardized: bool = True

    def __post_init__(self):
        if not (self.half_width > 0.0 and math.isfinite(self.half_width)):
            raise InvalidParameterError("half_width must be positive and finite")
        config_int(self.points_per_axis, "points_per_axis", 3)

    @classmethod
    def parse(cls, text: str, standardized: bool = True) -> "GridSpec":
        """Parse the CLI form 'half_width,points'."""
        parts = text.split(",")
        if len(parts) != 2:
            raise InvalidParameterError(f"grid spec {text!r} is not 'half_width,points'")
        return cls(half_width=float(parts[0]), points_per_axis=int(parts[1]),
                   standardized=standardized)


@dataclass(frozen=True)
class ContourCloud:
    """Grid sample of one contour: offsets, points, and the frame at its base.

    offsets (K, p) are raw parameter offsets from theta_hat; offsets_std the
    same rows in standardized units; points (K, n) the contour points
    q(x_hat; theta_hat + offset).  Rows follow row-major order over the grid
    axes, so reruns are ordered identically.
    """

    family: str
    base_point: np.ndarray
    fit: FitResult
    frame: TaylorFrame
    standardization: StandardizationRecord
    grid: GridSpec
    offsets: np.ndarray
    offsets_std: np.ndarray
    points: np.ndarray
    dropped_out_of_domain: int = 0
    meta: dict = field(default_factory=dict)

    @property
    def center_index(self) -> int:
        return int(np.argmin(np.sum(self.offsets_std**2, axis=1)))

    def to_csv(self) -> str:
        p, n = self.offsets.shape[1], self.points.shape[1]
        header = [f"t_{j+1}" for j in range(p)] + [f"y_{i+1}" for i in range(n)]
        rows = np.hstack([self.offsets, self.points])
        return csv_lines(header, rows)

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "base_point": [float(v) for v in self.base_point],
            "theta_hat": [float(v) for v in self.fit.theta_hat],
            "x_hat": [float(v) for v in self.fit.x_hat],
            "grid": {
                "half_width": self.grid.half_width,
                "points_per_axis": self.grid.points_per_axis,
                "standardized": self.grid.standardized,
            },
            "dropped_out_of_domain": self.dropped_out_of_domain,
            "offsets": encode_array(self.offsets),
            "offsets_std": encode_array(self.offsets_std),
            "points": encode_array(self.points),
            "frame": self.frame.to_json_dict(),
        }

    def to_json(self) -> str:
        return dumps(self.to_json_dict())


def _grid_offsets(p: int, grid: GridSpec) -> np.ndarray:
    axis = np.linspace(-grid.half_width, grid.half_width, grid.points_per_axis)
    if grid.points_per_axis % 2 == 1:
        axis[grid.points_per_axis // 2] = 0.0
    mesh = np.meshgrid(*([axis] * p), indexing="ij")
    return np.stack([m.reshape(-1) for m in mesh], axis=1)


def build_contour(
    model: QuantileModel,
    y0: np.ndarray,
    grid: GridSpec = GridSpec(),
    fit: FitResult | None = None,
) -> ContourCloud:
    """Build the observed contour cloud through y0.

    Fits the model (unless a fit is supplied), solves the fitted reference
    value, and evaluates the quantile map on the offset grid in one call.
    Grid points whose parameter leaves the open domain (a negative sigma,
    say) are dropped, which is how positive-ray constraints are enforced.
    """
    y0 = model.check_point(y0)
    if fit is None:
        fit = fit_mle(model, y0)
    rec = standardize(fit.obs_info, model.n)
    t_std = _grid_offsets(model.p, grid)
    if grid.standardized:
        offsets = rec.map_offsets(t_std)
        offsets_std = t_std
    else:
        offsets = t_std
        offsets_std = offsets @ rec.chol  # t_std = L' t
    rows = fit.theta_hat + offsets
    lo, hi = np.array(model.param_domain).T
    keep = np.all((rows > lo) & (rows < hi), axis=1)
    dropped = int(len(offsets) - keep.sum())
    offsets, offsets_std = offsets[keep], offsets_std[keep]
    points = model.quantile(fit.x_hat, rows[keep])

    frame = build_frame(model, fit.x_hat, fit.theta_hat)
    return ContourCloud(
        family=model.family,
        base_point=y0,
        fit=fit,
        frame=frame,
        standardization=rec,
        grid=grid,
        offsets=offsets,
        offsets_std=offsets_std,
        points=points,
        dropped_out_of_domain=dropped,
    )


def contour_min_distance(
    model: QuantileModel,
    fit: FitResult,
    q: np.ndarray,
    t_init: np.ndarray,
    max_iter: int = 60,
) -> tuple[float, np.ndarray]:
    """Distance from q to the continuous contour through fit, by Gauss-Newton.

    Minimizes ||q - quantile(x_hat; theta_hat + t)|| over t starting from
    t_init (typically the nearest grid offset), with backtracking and domain
    clipping.  Returns (distance, argmin offset).
    """
    theta = fit.theta_hat
    t = np.asarray(t_init, dtype=float).copy()

    def residual(tv):
        return q - model.quantile(fit.x_hat, theta + tv)

    def in_domain(tv):
        return all(lo < theta[j] + tv[j] < hi
                   for j, (lo, hi) in enumerate(model.param_domain))

    for _ in range(60):
        if in_domain(t):
            break
        t *= 0.5
    r = residual(t)
    value = float(r @ r)
    for _ in range(max_iter):
        vel = model.dquantile_dtheta(fit.x_hat, theta + t)
        grad = vel.T @ r
        gram = vel.T @ vel
        try:
            step = np.linalg.solve(gram + 1e-14 * np.trace(gram) * np.eye(model.p), grad)
        except np.linalg.LinAlgError:
            break
        scale = 1.0
        for _ in range(40):
            t_new = t + scale * step
            if in_domain(t_new):
                r_new = residual(t_new)
                value_new = float(r_new @ r_new)
                if value_new <= value:
                    break
            scale *= 0.5
        else:
            break
        moved = float(np.linalg.norm(t_new - t))
        t, r, value = t_new, r_new, value_new
        if moved < 1e-13 * (1.0 + float(np.linalg.norm(t))):
            break
    return math.sqrt(value), t


@dataclass(frozen=True)
class PartitionReport:
    """One-sided distance from the rebuilt contour to the original one.

    discrepancy is the max over the rebuilt grid of the continuous distance
    to the original contour; theta_gap compares the fresh MLE at y1 with
    theta_hat0 + t1 (exact for location-type exact ancillaries, O(n^-1) in
    moderate deviations otherwise).
    """

    discrepancy: float
    theta_gap: float
    t1_std: np.ndarray
    t1_raw: np.ndarray
    y1: np.ndarray
    theta_hat0: np.ndarray
    theta_hat1: np.ndarray

    def to_json_dict(self) -> dict:
        return {
            "discrepancy": float(self.discrepancy),
            "theta_gap": float(self.theta_gap),
            "t1_std": [float(v) for v in self.t1_std],
            "t1_raw": [float(v) for v in self.t1_raw],
            "y1": [float(v) for v in self.y1],
            "theta_hat0": [float(v) for v in self.theta_hat0],
            "theta_hat1": [float(v) for v in self.theta_hat1],
        }


def partition_check(
    model: QuantileModel,
    y0: np.ndarray,
    t1_std: np.ndarray,
    grid: GridSpec = GridSpec(),
    cap: float = 3.0,
) -> PartitionReport:
    """Rebuild the contour from a point on it and measure the set discrepancy.

    Picks y1 = q(x_hat0; theta_hat0 + t1), refits from scratch at y1, and
    reports the maximum over the rebuilt cloud of the distance to the
    original (continuous) contour.  t1 is given in standardized units and is
    capped to keep the probe inside moderate deviations.
    """
    t1_std = np.atleast_1d(np.asarray(t1_std, dtype=float))
    if t1_std.shape != (model.p,):
        raise InvalidDimensionError(f"t1 has shape {t1_std.shape}, expected ({model.p},)")
    if float(np.linalg.norm(t1_std)) > cap:
        raise InvalidParameterError(
            f"|t1| = {float(np.linalg.norm(t1_std)):.3f} exceeds the moderate-deviation cap {cap}"
        )
    fit0 = fit_mle(model, y0)
    rec0 = standardize(fit0.obs_info, model.n)
    t1_raw = rec0.map_offsets(t1_std)[0]
    theta1_expected = fit0.theta_hat + t1_raw
    model.check_theta(theta1_expected)
    y1 = model.quantile(fit0.x_hat, theta1_expected)

    fit1 = fit_mle(model, y1)
    cloud1 = build_contour(model, y1, grid, fit=fit1)

    # nearest original grid offset as the refinement start for each rebuilt point
    cloud0 = build_contour(model, y0, grid, fit=fit0)
    worst = 0.0
    for q in cloud1.points:
        d2 = np.sum((cloud0.points - q) ** 2, axis=1)
        t_init = cloud0.offsets[int(np.argmin(d2))]
        dist, _ = contour_min_distance(model, fit0, q, t_init)
        worst = max(worst, dist)

    theta_gap = float(np.linalg.norm(fit1.theta_hat - theta1_expected))
    return PartitionReport(
        discrepancy=worst,
        theta_gap=theta_gap,
        t1_std=t1_std,
        t1_raw=t1_raw,
        y1=y1,
        theta_hat0=fit0.theta_hat,
        theta_hat1=fit1.theta_hat,
    )


@dataclass(frozen=True)
class ExactComparisonReport:
    """Spread of an exact ancillary label over a contour cloud.

    label_spread is the max-infinity-norm deviation of the per-point exact
    label from the label at the base point.  For circle families the report
    also carries the curvature radius of the built contour (from the frame)
    against the exact contour radius through the data.
    """

    family: str
    label_spread: float
    base_label: np.ndarray
    radius_contour: float | None = None
    radius_exact: float | None = None

    def to_json_dict(self) -> dict:
        out = {
            "family": self.family,
            "label_spread": float(self.label_spread),
            "base_label": [float(v) for v in self.base_label],
        }
        if self.radius_contour is not None:
            out["radius_contour"] = float(self.radius_contour)
            out["radius_exact"] = float(self.radius_exact)
        return out


_CIRCLES = ("circle2d", "circleN")


def exact_label(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """Exact ancillary statistic where one exists, for a point or rows of points.

    Location-scale: the configuration (y - mu_hat 1) / sigma_hat, in closed
    form for Normal errors and from one fit per point otherwise.  Circle: the
    radius together with the untouched coordinates y_3..y_n.
    """
    y = np.asarray(y, dtype=float)
    if model.family in _CIRCLES:
        return np.concatenate([np.hypot(y[..., :1], y[..., 1:2]), y[..., 2:]], axis=-1)
    if model.family == "location-scale":
        theta = model.closed_form(y)
    elif model.family in ("cauchy-location-scale", "inverted-cauchy"):
        fits = [fit_mle(model, row).theta_hat for row in y.reshape(-1, model.n)]
        theta = np.reshape(fits, y.shape[:-1] + (2,))
    else:
        raise UnsupportedFamilyError(f"no exact ancillary registered for {model.family!r}")
    return (y - theta[..., :1]) / theta[..., 1:]


def compare_exact(model: QuantileModel, cloud: ContourCloud) -> ExactComparisonReport:
    """Evaluate the family's exact ancillary along a contour cloud."""
    base = exact_label(model, cloud.base_point)
    spread = float(np.max(np.abs(exact_label(model, cloud.points) - base), initial=0.0))
    radius_contour = radius_exact = None
    if model.family in _CIRCLES:
        vel = cloud.frame.velocity[:, 0]
        normal = cloud.frame.normal_acceleration[:, 0, 0]
        bend = float(np.linalg.norm(normal))
        if bend > 0.0:
            radius_contour = float(np.dot(vel, vel)) / bend
        radius_exact = float(math.hypot(cloud.base_point[0], cloud.base_point[1]))
    return ExactComparisonReport(
        family=model.family,
        label_spread=spread,
        base_label=base,
        radius_contour=radius_contour,
        radius_exact=radius_exact,
    )


@dataclass(frozen=True)
class SeveriniReport:
    """Back-solve of the full-data pivot statistic.

    The pivot ((r - rho) cos theta_hat, (r - rho) sin theta_hat, y_3..y_n)
    has the same dimension as the data.  Away from the degenerate shell
    r0 = rho, solving pivot(y) = observed over a moderate-deviation
    neighborhood recovers y0 alone (solution set dimension 0), which is what
    disqualifies the pivot as an ancillary: its level set is a point cloud,
    not a contour.  A second, antipodal pre-image exists globally when
    |r0 - rho| < rho and is reported separately.
    """

    observed: np.ndarray
    solutions: np.ndarray
    unique_in_neighborhood: bool
    max_gap_to_y0: float
    degenerate: bool
    solution_set_dim: int
    antipodal_candidate: np.ndarray | None

    def to_json_dict(self) -> dict:
        return {
            "observed": [float(v) for v in self.observed],
            "solutions": encode_array(self.solutions),
            "unique_in_neighborhood": bool(self.unique_in_neighborhood),
            "max_gap_to_y0": float(self.max_gap_to_y0),
            "degenerate": bool(self.degenerate),
            "solution_set_dim": int(self.solution_set_dim),
            "antipodal_candidate": None if self.antipodal_candidate is None
            else [float(v) for v in self.antipodal_candidate],
        }


def severini_pivot(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """The full-data pivot for the circle family."""
    if model.family not in _CIRCLES:
        raise UnsupportedFamilyError("pivot defined for circle families only")
    rho = model.meta["rho"]
    r = math.hypot(y[0], y[1])
    angle = math.atan2(y[1], y[0])
    head = [(r - rho) * math.cos(angle), (r - rho) * math.sin(angle)]
    return np.concatenate([head, y[2:]])


def severini_pivot_check(
    model: QuantileModel,
    y0: np.ndarray,
    n_starts: int = 64,
    radius: float | None = None,
    neighborhood: float | None = None,
    seed: int = 20260816,
    tol: float = 1e-8,
) -> SeveriniReport:
    """Solve pivot(y) = pivot(y0) from many starts near y0 and classify the set.

    Needs the embedded circle family with n >= 3.  radius (the start spread)
    defaults to three reference standard deviations; neighborhood (the
    locality filter on solutions) defaults to rho, strictly inside the 2 rho
    separation between the two global pre-images, so the count is local.
    """
    if model.family != "circleN" or model.n < 3:
        raise UnsupportedFamilyError("pivot check needs the circleN family with n >= 3")
    y0 = model.check_point(y0)
    rho = model.meta["rho"]
    observed = severini_pivot(model, y0)
    r0 = math.hypot(y0[0], y0[1])

    if abs(r0 - rho) < 1e-8:
        # level set degenerates to the whole solution circle in the first two
        # coordinates: a contour of dimension 1, not a point
        return SeveriniReport(
            observed=observed,
            solutions=y0.reshape(1, -1),
            unique_in_neighborhood=False,
            max_gap_to_y0=0.0,
            degenerate=True,
            solution_set_dim=1,
            antipodal_candidate=None,
        )

    if radius is None:
        radius = 3.0 * math.sqrt(model.meta.get("variance_scale", 1.0))
    if neighborhood is None:
        neighborhood = rho

    def gap(y):
        return severini_pivot(model, y) - observed

    rng = np.random.default_rng(seed)
    found = []
    for _ in range(n_starts):
        start = y0 + radius * rng.standard_normal(model.n)
        sol = root(gap, start, method="hybr", tol=1e-12)
        if not sol.success:
            continue
        cand = sol.x
        if float(np.max(np.abs(gap(cand)))) > 1e-9:
            continue
        if float(np.linalg.norm(cand - y0)) > neighborhood:
            continue  # wandered outside the neighborhood under study
        if not any(np.linalg.norm(cand - f) < 1e-6 for f in found):
            found.append(cand)
    solutions = np.array(found) if found else np.empty((0, model.n))
    gaps = [float(np.linalg.norm(s - y0)) for s in found]
    unique = len(found) == 1 and gaps[0] <= tol

    anti = None
    r_anti = 2.0 * rho - r0
    if r_anti > 0.0:
        angle0 = math.atan2(y0[1], y0[0])
        cand = y0.copy()
        cand[0] = r_anti * math.cos(angle0 + math.pi)
        cand[1] = r_anti * math.sin(angle0 + math.pi)
        if float(np.max(np.abs(gap(cand)))) < 1e-10:
            anti = cand

    return SeveriniReport(
        observed=observed,
        solutions=solutions,
        unique_in_neighborhood=unique,
        max_gap_to_y0=max(gaps) if gaps else math.inf,
        degenerate=False,
        solution_set_dim=0,
        antipodal_candidate=anti,
    )


@dataclass(frozen=True)
class InversionReport:
    """Back-mapping of a contour through the coordinate inversion y -> 1/y.

    component_count is the number of 8-connected raster components of the
    back-mapped contour region; line_segment_count the number of connected
    pieces the marked straight line maps back to; line_excluded_points the
    points of that line with a zero coordinate (no back image).
    """

    component_count: int
    line_segment_count: int
    line_excluded_points: np.ndarray
    zhat: np.ndarray
    theta_hat: np.ndarray
    resolution: int
    window: tuple

    def to_json_dict(self) -> dict:
        return {
            "component_count": int(self.component_count),
            "line_segment_count": int(self.line_segment_count),
            "line_excluded_points": encode_array(self.line_excluded_points),
            "zhat": [float(v) for v in self.zhat],
            "theta_hat": [float(v) for v in self.theta_hat],
            "resolution": int(self.resolution),
            "window": [float(v) for v in self.window],
        }


def _halfplane_membership(ytilde: np.ndarray, zhat: np.ndarray, bounds=None) -> np.ndarray:
    """Solve ytilde = m 1 + s zhat in the plane and test s > 0 (n = 2)."""
    z1, z2 = zhat
    denom = z2 - z1
    s = (ytilde[..., 1] - ytilde[..., 0]) / denom
    inside = s > 0.0
    if bounds is not None:
        (lo1, hi1), (lo2, hi2) = bounds
        inside &= (ytilde[..., 0] > lo1) & (ytilde[..., 0] < hi1)
        inside &= (ytilde[..., 1] > lo2) & (ytilde[..., 1] < hi2)
    return inside


def cauchy_inversion_demo(
    ytilde0=(-1.0, 2.0),
    window: tuple = (-3.0, 3.0),
    resolution: int = 400,
    tilde_bounds=None,
    line_offset: float = 1.0,
) -> InversionReport:
    """Count back-mapped components of an inverted-coordinate Cauchy contour.

    Fits the two-observation Cauchy location-scale model at ytilde0, forms
    the contour half-plane {m 1 + s zhat : s > 0} in the inverted
    coordinates, rasterizes its back image under y = 1/ytilde over the
    square window, and counts 8-connected components per sign quadrant (the
    back-mapped set never touches the axes, so components cannot join across
    them).  Also samples the line ytilde_2 = ytilde_1 + line_offset on the
    contour and reports its zero-coordinate points, which have no back image.
    """
    ytilde0 = np.asarray(ytilde0, dtype=float)
    if ytilde0.shape != (2,):
        raise InvalidDimensionError("demo is the two-observation case")
    if resolution < 16:
        raise InvalidParameterError("resolution too small to count components")
    model = make_location_scale(2, error_law="cauchy")
    fit = fit_mle(model, ytilde0)
    zhat = fit.x_hat
    if abs(zhat[1] - zhat[0]) < 1e-12:
        raise InvalidParameterError("degenerate configuration, equal coordinates")

    lo, hi = window
    axis = np.linspace(lo, hi, resolution)
    yy1, yy2 = np.meshgrid(axis, axis, indexing="ij")
    safe = (np.abs(yy1) > 1e-300) & (np.abs(yy2) > 1e-300)
    ytilde = np.stack([np.where(safe, 1.0 / yy1, np.inf),
                       np.where(safe, 1.0 / yy2, np.inf)], axis=-1)
    mask = safe & _halfplane_membership(ytilde, zhat, tilde_bounds)

    structure = np.ones((3, 3), dtype=int)
    count = 0
    for s1 in (yy1 > 0, yy1 < 0):
        for s2 in (yy2 > 0, yy2 < 0):
            quadrant = mask & s1 & s2
            _, pieces = ndimage.label(quadrant, structure=structure)
            count += pieces

    # the marked straight line on the contour, split where a coordinate hits 0
    ts = np.linspace(lo, hi, 4801)
    line = np.stack([ts, ts + line_offset], axis=1)
    excluded = []
    if lo < 0.0 < hi:
        excluded.append((0.0, line_offset))
    if lo < -line_offset < hi:
        excluded.append((-line_offset, 0.0))
    on_contour = _halfplane_membership(line, zhat, tilde_bounds)
    ok = on_contour & ~non_invertible_mask(line, tol=1e-9)
    signs = np.sign(line)
    segments = 0
    previous = None
    for keep, sg in zip(ok, map(tuple, signs)):
        if keep and sg != previous:
            segments += 1
        previous = sg if keep else None
    return InversionReport(
        component_count=count,
        line_segment_count=segments,
        line_excluded_points=np.array(excluded) if excluded else np.empty((0, 2)),
        zhat=zhat,
        theta_hat=fit.theta_hat,
        resolution=resolution,
        window=(float(lo), float(hi)),
    )
