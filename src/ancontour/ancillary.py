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
from types import SimpleNamespace

import numpy as np

from ._jsonio import config_int, csv_lines, dumps, encode_array
from .diffgeo import TaylorFrame, build_frame
from .errors import (
    InvalidDimensionError,
    InvalidParameterError,
    SingularInformationError,
    UnsupportedFamilyError,
)
from .estimation import (
    _BLOCK, FitResult, StandardizationRecord, _fit_points, _line_search, _norms, fit_mle,
    standardize,
)
from .models import QuantileModel, non_invertible_mask

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
        try:
            half_width = float(parts[0])
        except ValueError:
            raise InvalidParameterError(
                f"grid spec {text!r}: the half width must be a number") from None
        try:
            points = int(parts[1])
        except ValueError:
            raise InvalidParameterError(
                f"grid spec {text!r}: the point count must be an integer") from None
        return cls(half_width=half_width, points_per_axis=points, standardized=standardized)


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


def _sweep(model, x_hat, theta_hat, rec, grid):
    """Grid contours through rows x_hat (K, n), theta_hat (K, p) standardized by
    rec (of one fit or of K): offsets and offsets_std, (G, p) or (K, G, p) as
    rec and grid give them, the kept points (N, n) in row-major order and
    keep (K, G), False off the open domain."""
    t_std = _grid_offsets(model.p, grid)
    if grid.standardized:
        offsets, offsets_std = rec.map_offsets(t_std), t_std
    else:
        offsets, offsets_std = t_std, t_std @ rec.chol  # t_std = L' t
    rows = theta_hat[:, None] + offsets
    lo, hi = np.array(model.param_domain).T
    keep = np.all((rows > lo) & (rows < hi), axis=2)
    x = x_hat[0] if len(x_hat) == 1 else np.repeat(x_hat, keep.sum(axis=1), axis=0)
    points = model.quantile(x, rows[keep])
    return offsets, offsets_std, points, keep


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
    rec = standardize(fit.obs_info)
    offsets, offsets_std, points, keep = _sweep(model, fit.x_hat[None], fit.theta_hat[None], rec,
                                                grid)
    return ContourCloud(
        family=model.family,
        base_point=y0,
        fit=fit,
        frame=build_frame(model, fit.x_hat, fit.theta_hat),
        standardization=rec,
        grid=grid,
        offsets=offsets[keep[0]],
        offsets_std=offsets_std[keep[0]],
        points=points,
        dropped_out_of_domain=int(keep.size - keep.sum()),
    )


def contour_min_distance(
    model: QuantileModel,
    fit: FitResult,
    q: np.ndarray,
    t_init: np.ndarray,
    max_iter: int = 60,
) -> tuple:
    """Distance from q to the continuous contour through fit, by Gauss-Newton.

    Minimizes ||q - quantile(x_hat; theta_hat + t)|| over t starting from
    t_init (typically the nearest grid offset), with domain clipping and the
    line search of the Newton fit, estimation._line_search.  Returns
    (distance, argmin offset): a float and (p,) for one point q (n,), or (K,)
    and (K, p) for rows q (K, n) and t_init (K, p), solved together with each
    row on the path it would take alone; fit may carry one anchor per row
    instead, x_hat (K, n) and theta_hat (K, p).
    Shapes that do not match raise InvalidDimensionError; non-finite inputs,
    a negative max_iter and a q whose squared distance overflows raise
    InvalidParameterError.
    """
    lo, hi = np.array(model.param_domain).T
    q, t = np.asarray(q, dtype=float), np.array(t_init, dtype=float)
    single = q.ndim == 1
    if q.ndim not in (1, 2) or q.shape[-1] != model.n:
        raise InvalidDimensionError(f"q has shape {q.shape}, expected rows of {model.n}")
    if t.shape != q.shape[:-1] + (model.p,):
        raise InvalidDimensionError(f"t_init has shape {t.shape}, expected {model.p} per q row")
    for name, v in (("q", q), ("t_init", t)):
        if not np.all(np.isfinite(v)):
            raise InvalidParameterError(f"{name} has non-finite entries")
    config_int(max_iter, "max_iter", 0)
    q, t = np.atleast_2d(q), np.atleast_2d(t)
    x_hat, theta = fit.x_hat, fit.theta_hat
    if x_hat.ndim == 2 and (x_hat.shape, theta.shape) != (q.shape, t.shape):
        raise InvalidDimensionError("a fit with row anchors needs one per row of q")

    def at(v, rows):  # the anchor of rows: the one fit's, or each row's own
        return v if v.ndim == 1 else v[rows]

    def inside(rows, tv):
        th = at(theta, rows) + tv
        return np.all((th > lo) & (th < hi), axis=-1)

    def residual(rows, tv):
        r = model.quantile(at(x_hat, rows), at(theta, rows) + tv)
        return np.subtract(q[rows], r, out=r)  # in place: one (rows, n) array fewer

    def evaluate(rows, cand):  # in the domain, and not raising the squared distance
        ok = inside(rows[:, None], cand)
        of = rows[np.nonzero(ok)[0]]
        res = residual(of, cand[ok])
        values, hit = (res[:, None, :] @ res[:, :, None])[:, 0, 0], np.zeros(ok.shape, dtype=bool)
        hit[ok] = values <= value[of]

        def keep(acc, pick, moved):
            place = (np.cumsum(ok) - 1).reshape(ok.shape)[pick]  # each accepted one's row in res
            resid[acc], value[acc] = res[place], values[place]
            active[acc[moved < 1e-13 * (1.0 + _norms(t[acc]))]] = False
        return hit, keep

    for _ in range(60):
        out = ~inside(slice(None), t)
        if not out.any():
            break
        t[out] *= 0.5
    with np.errstate(over="ignore", invalid="ignore"):
        resid = residual(slice(None), t)
        value = (resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
    if not np.all(np.isfinite(value)):
        raise InvalidParameterError("q is too far from the contour for a finite squared distance")
    active = np.ones(len(q), dtype=bool)
    for _ in range(max_iter):
        rows = np.flatnonzero(active)
        if rows.size == 0:
            break
        vel = model.dquantile_dtheta(at(x_hat, rows), at(theta, rows) + t[rows])
        vel_t = np.swapaxes(vel, 1, 2)
        gram = vel_t @ vel
        # tiny changes no nonzero ridge and gives a zero Gram the step 0, which retires the row
        ridge = 1e-14 * np.trace(gram, axis1=1, axis2=2) + np.finfo(float).tiny
        grad = vel_t @ resid[rows][..., None]
        step = np.linalg.solve(gram + ridge[:, None, None] * np.eye(model.p), grad)[..., 0]
        del vel, vel_t  # free before the line search allocates its candidates
        # a block holds at least the points refined: a partition pass's block bounds it
        rows = _line_search(rows, t, step, model.n, max(_BLOCK, q.size), evaluate)
        active[rows] = False  # line search failed
    dist = np.sqrt(value)
    return (float(dist[0]), t[0]) if single else (dist, t)


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


_T1_CAP = 3.0  # the largest standardized |t1|, to keep the probe in moderate deviations


def partition_check(
    model: QuantileModel,
    y0: np.ndarray,
    t1_std: np.ndarray,
    grid: GridSpec = GridSpec(),
    cap: float = _T1_CAP,
    fit: FitResult | None = None,
) -> PartitionReport:
    """Rebuild the contour from a point on it and measure the set discrepancy.

    Picks y1 = q(x_hat0; theta_hat0 + t1), refits from scratch at y1, and
    reports the maximum over the rebuilt cloud of the distance to the
    original (continuous) contour.  t1 is given in standardized units and is
    capped to keep the probe inside moderate deviations.  fit, when given,
    is the fit of y0 (fit_mle's), which is then not repeated.
    """
    return _partition_pass(model, [y0], t1_std, grid, cap, fit)[0]


_PASS_BLOCK = 21 << 10  # float64 (rebuilt points x n) a pass block holds: 21 at n = 1024


def _partition_pass(model, y0, t1_std, grid, cap=_T1_CAP, fit=None) -> list:
    """partition_check of each row of y0 at the one offset t1_std: one batched
    fit of the base points and one of the probe points, then the sweeps,
    nearest-offset search and refinement over blocks of draws of at most
    _PASS_BLOCK elements.  Each report has the bits of a one-draw pass."""
    t1_std = np.atleast_1d(np.asarray(t1_std, dtype=float))
    if t1_std.shape != (model.p,):
        raise InvalidDimensionError(f"t1 has shape {t1_std.shape}, expected ({model.p},)")
    if not np.all(np.isfinite(t1_std)):
        raise InvalidParameterError("t1 has non-finite entries")
    if (size := float(np.linalg.norm(t1_std))) > cap:
        raise InvalidParameterError(f"|t1| = {size:.3f} exceeds the moderate-deviation cap {cap}")
    for row in y0:
        model.check_point(row)
    y0 = np.asarray(y0, dtype=float)
    theta0, info0, x0 = ((fit.theta_hat[None], fit.obs_info[None], fit.x_hat[None])
                         if fit is not None else _fit_points(model, y0)[:3])
    t1_raw = standardize(info0).map_offsets(t1_std)[:, 0]
    theta1 = theta0 + t1_raw
    y1 = model.quantile(x0, theta1)
    for row, point in zip(theta1, y1):
        model.check_theta(row)
        model.check_point(point)
    theta_hat1, info1, x1 = _fit_points(model, y1)[:3]

    worst = np.zeros(len(y0))
    step = max(1, _PASS_BLOCK // (grid.points_per_axis ** model.p * model.n))
    for lo in range(0, len(y0), step):
        b = slice(lo, lo + step)
        offsets0, _, points0, keep0 = _sweep(model, x0[b], theta0[b], standardize(info0[b]), grid)
        points1, keep1 = _sweep(model, x1[b], theta_hat1[b], standardize(info1[b]), grid)[2:]
        # start each rebuilt point at its own draw's nearest grid offset, searched in
        # blocks of 8 Ki float64 differences, with dropped grid points at infinity
        padded, owner = np.full(keep0.shape + (model.n,), np.inf), np.nonzero(keep1)[0]
        padded[keep0] = points0
        block = max(1, (1 << 13) // padded[0].size)
        nearest = [np.argmin(np.sum((padded[owner[i:i + block]] - points1[i:i + block, None]) ** 2,
                                    axis=2), axis=1) for i in range(0, len(points1), block)]
        del padded, points0  # room for the refinement's rows
        # refine toward each point's own draw's fit; a one-draw block passes that one fit
        x_a, t_a = (x0[lo], theta0[lo]) if len(keep1) == 1 else (x0[b][owner], theta0[b][owner])
        offsets0 = np.broadcast_to(offsets0, keep0.shape + (model.p,))  # one grid per draw
        dist, _ = contour_min_distance(model, SimpleNamespace(x_hat=x_a, theta_hat=t_a), points1,
                                       offsets0[owner, np.concatenate(nearest)])
        np.maximum.at(worst, lo + owner, dist)
    return [PartitionReport(discrepancy=float(worst[k]),
                            theta_gap=float(np.linalg.norm(theta_hat1[k] - theta1[k])),
                            t1_std=t1_std, t1_raw=t1_raw[k], y1=y1[k], theta_hat0=theta0[k],
                            theta_hat1=theta_hat1[k]) for k in range(len(y0))]


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


def exact_label(model: QuantileModel, y: np.ndarray) -> np.ndarray:
    """The model's exact ancillary statistic (model.exact_label) of a point or
    of rows of points; UnsupportedFamilyError where the model declares none."""
    if model.exact_label is None:
        raise UnsupportedFamilyError(f"no exact ancillary declared for {model.family!r}")
    return model.exact_label(np.asarray(y, dtype=float))


def compare_exact(model: QuantileModel, cloud: ContourCloud) -> ExactComparisonReport:
    """Evaluate the family's exact ancillary along a contour cloud."""
    labels = exact_label(model, np.vstack([cloud.base_point, cloud.points]))
    base = labels[0]
    spread = float(np.max(np.abs(labels[1:] - base), initial=0.0))
    radius_contour = radius_exact = None
    if "rho" in model.meta:  # a circle family
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
    r0 = rho, its level set within rho of y0 is y0 alone (solution set
    dimension 0), which is what disqualifies the pivot as an ancillary: its
    level set is a point cloud, not a contour.  A second, antipodal
    pre-image 2 rho away exists when |r0 - rho| < rho and is reported
    separately.
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
    """The full-data pivot of a point of a circle family, checked by model.check_point."""
    if "rho" not in model.meta:
        raise UnsupportedFamilyError("pivot defined for circle families only")
    y, rho = model.check_point(y), model.meta["rho"]
    r, angle = math.hypot(y[0], y[1]), math.atan2(y[1], y[0])
    head = [(r - rho) * math.cos(angle), (r - rho) * math.sin(angle)]
    return np.concatenate([head, y[2:]])


def severini_pivot_check(model: QuantileModel, y0: np.ndarray) -> SeveriniReport:
    """Solve pivot(y) = pivot(y0) in closed form and classify the solution set.

    Needs the embedded circle family with n >= 3.  The pivot keeps y_3..y_n
    and sets (r - rho)(cos phi, sin phi) = o, so its pre-images are
    r = rho + |o| at phi = arg o and, when |o| < rho, r = rho - |o| at
    arg o + pi.  The two lie 2 rho apart: the one through y0 is the only
    solution within rho of y0, the other is the antipodal candidate.
    """
    if "rho" not in model.meta or model.n < 3:
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

    size = math.hypot(observed[0], observed[1])
    arg = math.atan2(observed[1], observed[0])

    def pre_image(r, phi):
        y = observed.copy()
        y[:2] = r * math.cos(phi), r * math.sin(phi)
        return y

    # y0 is the rho + |o| pre-image when r0 > rho, the rho - |o| one otherwise
    sign = 1.0 if r0 > rho else -1.0
    solution = pre_image(rho + sign * size, arg if sign > 0 else arg + math.pi)
    r_anti = rho - sign * size
    anti = pre_image(r_anti, arg + math.pi if sign > 0 else arg) if r_anti > 0.0 else None
    gap = float(np.linalg.norm(solution - y0))
    return SeveriniReport(
        observed=observed,
        solutions=solution.reshape(1, -1),
        unique_in_neighborhood=True,
        max_gap_to_y0=gap,
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

    The two-observation Cauchy likelihood is flat along a semicircle, but the
    contour half-plane {m 1 + s zhat : s > 0} depends only on span{1, ytilde0},
    so no fit is needed: theta_hat = (mean, half range) of ytilde0 is the
    symmetric ridge point and zhat = (ytilde0 - mean) / half range = +-1.  The
    demo forms that half-plane in the inverted coordinates, rasterizes its
    back image under y = 1/ytilde over the square window, and counts its
    8-connected components.  The back-mapped set never touches the axes, so
    components cannot join across them, and within a sign quadrant it is the
    quadrant cut by the half-plane y_1 > y_2 or y_1 < y_2 (1/y is monotone
    there) and by one interval per coordinate (tilde_bounds): a staircase
    on the square grid, connected whenever it is not empty.  So the count is
    the number of non-empty quadrant pieces.  Also samples the line
    ytilde_2 = ytilde_1 + line_offset on the contour and reports its
    zero-coordinate points, which have no back image.
    """
    ytilde0 = np.asarray(ytilde0, dtype=float)
    if ytilde0.shape != (2,):
        raise InvalidDimensionError("demo is the two-observation case")
    if resolution < 16:
        raise InvalidParameterError("resolution too small to count components")
    if not np.all(np.isfinite(ytilde0)):
        raise InvalidParameterError("ytilde0 has non-finite entries")
    if ytilde0[0] == ytilde0[1]:
        raise SingularInformationError("degenerate configuration, equal coordinates")
    theta_hat = np.array([np.mean(ytilde0), 0.5 * abs(ytilde0[1] - ytilde0[0])])
    zhat = np.sign(ytilde0 - ytilde0[::-1])

    lo, hi = window
    axis = np.linspace(lo, hi, resolution)
    yy1, yy2 = np.meshgrid(axis, axis, indexing="ij")
    safe = (np.abs(yy1) > 1e-300) & (np.abs(yy2) > 1e-300)
    ytilde = np.stack([np.where(safe, 1.0 / yy1, np.inf),
                       np.where(safe, 1.0 / yy2, np.inf)], axis=-1)
    mask = safe & _halfplane_membership(ytilde, zhat, tilde_bounds)

    count = sum(int(np.any(mask & s1 & s2))
                for s1 in (yy1 > 0, yy1 < 0) for s2 in (yy2 > 0, yy2 < 0))

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
    # a segment starts at each kept point after a dropped one or a sign change
    signs = np.sign(line)
    starts = ok & np.r_[True, ~ok[:-1] | np.any(signs[1:] != signs[:-1], axis=1)]
    return InversionReport(
        component_count=count,
        line_segment_count=int(np.count_nonzero(starts)),
        line_excluded_points=np.array(excluded) if excluded else np.empty((0, 2)),
        zhat=zhat,
        theta_hat=theta_hat,
        resolution=resolution,
        window=(float(lo), float(hi)),
    )
