"""Command line interface.

Subcommands: example (canned demonstrations), contour (build a contour cloud
from a model config and one data point), frame (the Taylor frame at the
fit), verify (quadrature and simulation studies).  contour and frame read
the same config (model, data, optional grid).  Configs are JSON files
parsed and validated completely before any output is created; writes are
atomic, so interrupted runs never leave partial files.  Exit codes: 0 on
success, 2 for usage or configuration errors, 1 for runtime failures.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import __version__
from ._jsonio import atomic_write_text, config_int, dumps
from .ancillary import (
    GridSpec,
    build_contour,
    cauchy_inversion_demo,
    compare_exact,
    partition_check,
    severini_pivot_check,
)
from .diffgeo import build_frame, reparameterize
from .errors import (
    AncontourError,
    EmptyStudyError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
)
from .estimation import fit_mle
from .models import (
    eta_curved,
    make_circle,
    make_location_scale,
    make_nonlinear_regression,
    make_synthetic_curved,
    model_from_config,
)
from .montecarlo import (
    order_spec_from_config,
    partition_order_study,
    quadrature_first_derivative,
    run_replicated,
)

_DEFAULT_SEED = 20260816
_EXAMPLES = (
    "circle2d",
    "location-scale",
    "nonlinreg-known",
    "nonlinreg-unknown",
    "severini",
    "cauchy-inversion",
)
_CONFIG_ERRORS = (
    InvalidParameterError,
    InvalidDimensionError,
    UnsupportedFamilyError,
    EmptyStudyError,
    KeyError,
    TypeError,
    ValueError,
)


class _UsageError(Exception):
    """Configuration or argument problem; maps to exit code 2."""


def _int_at_least(minimum: int):
    """argparse type: an integer of at least minimum."""
    def integer(text: str) -> int:  # argparse reports "invalid integer value" itself
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value
    return integer


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ancontour",
        description="Observed contours of second-order approximate ancillaries "
                    "for quantile-defined models.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", default=".", help="output directory (default: current)")
    common.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output file format")
    common.add_argument("--seed", type=_int_at_least(0), default=None,
                        help="seed for simulated data and studies")
    common.add_argument("--reps", type=int, default=None,
                        help="replication count override for studies")
    common.add_argument("--workers", type=_int_at_least(1), default=1,
                        help="deprecated and ignored: every command runs in "
                             "one thread; still accepted, must be at least 1")
    common.add_argument("--grid", default=None, metavar="HW,POINTS",
                        help="offset grid: half width and points per axis")

    sub = parser.add_subparsers(dest="command")
    p_example = sub.add_parser("example", parents=[common],
                               help="run a canned demonstration")
    p_example.add_argument("name", choices=_EXAMPLES)
    p_example.set_defaults(handler=_cmd_example)

    p_contour = sub.add_parser("contour", parents=[common],
                               help="build the contour cloud through a data point")
    p_contour.add_argument("--config", required=True, help="JSON config path")
    p_contour.set_defaults(handler=_cmd_contour)

    p_frame = sub.add_parser("frame", parents=[common],
                             help="Taylor frame at the fitted parameter")
    p_frame.add_argument("--config", required=True, help="JSON config path")
    p_frame.set_defaults(handler=_cmd_frame)

    p_verify = sub.add_parser("verify", parents=[common],
                              help="run a quadrature or simulation study")
    p_verify.add_argument("--config", required=True, help="JSON config path")
    p_verify.set_defaults(handler=_cmd_verify)
    return parser


def _load_json(path: str) -> dict:
    try:
        with open(path) as handle:
            data = json.load(handle)
    except FileNotFoundError as exc:
        raise _UsageError(f"config file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise _UsageError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise _UsageError(f"config root in {path} must be a JSON object")
    return data


def _read_point(path: str) -> np.ndarray:
    try:
        with open(path) as handle:
            text = handle.read()
    except OSError as exc:
        raise _UsageError(f"cannot read data file {path}: {exc}") from exc
    tokens = [t for t in re.split(r"[,\s]+", text.strip()) if t]
    if tokens and not _is_float(tokens[0]) and all(
            _is_float(t) for t in tokens[1:]):
        tokens = tokens[1:]  # single header token, as in one-column CSV
    try:
        return np.array([float(t) for t in tokens])
    except ValueError as exc:
        raise _UsageError(f"non-numeric entry in data file {path}: {exc}") from exc


def _is_float(token: str) -> bool:
    try:
        float(token)
        return True
    except ValueError:
        return False


def _resolve_data(model, data_cfg: dict, seed_flag) -> np.ndarray:
    if not isinstance(data_cfg, dict):
        raise _UsageError("'data' must be an object")
    sources = [k for k in ("y", "file", "simulate") if k in data_cfg]
    unknown = set(data_cfg) - {"y", "file", "simulate"}
    if unknown:
        raise _UsageError(f"unknown data keys: {sorted(unknown)}")
    if len(sources) != 1:
        raise _UsageError(
            "exactly one data source required: inline 'y', 'file', or 'simulate'"
        )
    if sources[0] == "y":
        y = np.asarray(data_cfg["y"], dtype=float)
    elif sources[0] == "file":
        y = _read_point(data_cfg["file"])
    else:
        sim = data_cfg["simulate"]
        if not isinstance(sim, dict):
            raise _UsageError("'simulate' must be an object")
        bad = set(sim) - {"theta", "seed"}
        if bad:
            raise _UsageError(f"unknown simulate keys: {sorted(bad)}")
        if "theta" not in sim:
            raise _UsageError("'simulate' needs key 'theta'")
        theta = model.check_theta(np.asarray(sim["theta"], dtype=float))
        seed = seed_flag if seed_flag is not None else config_int(
            sim.get("seed", _DEFAULT_SEED), "seed", 0)
        x = model.ref_sampler(seed, 1)[0]
        y = model.quantile(x, theta)
    return model.check_point(y)


def _resolve_grid(args, config: dict) -> GridSpec:
    if args.grid is not None:
        return GridSpec.parse(args.grid)
    block = config.get("grid")
    if block is None:
        return GridSpec()
    if isinstance(block, str):
        return GridSpec.parse(block)
    if isinstance(block, dict):
        bad = set(block) - {"half_width", "points_per_axis", "standardized"}
        if bad:
            raise _UsageError(f"unknown grid keys: {sorted(bad)}")
        return GridSpec(**block)
    raise _UsageError("'grid' must be a string 'half_width,points' or an object")


def _write(path: str, text: str) -> None:
    os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
    atomic_write_text(path, text)


def _emit(summary: dict) -> None:
    for key, value in summary.items():
        if isinstance(value, float):
            print(f"{key}={value!r}")
        elif isinstance(value, (list, tuple, np.ndarray)):
            print(f"{key}={','.join(repr(float(v)) for v in value)}")
        else:
            print(f"{key}={value}")


def _kv_csv(summary: dict) -> str:
    lines = ["key,value"]
    for key, value in summary.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            value = ";".join(repr(float(v)) for v in value)
        lines.append(f"{key},{value}")
    return "\n".join(lines) + "\n"


def _load_point_config(args):
    """(model, y0, grid) from a contour/frame config: model, data, optional grid."""
    config = _load_json(args.config)
    bad = set(config) - {"model", "data", "grid"}
    if bad:
        raise _UsageError(f"unknown config keys: {sorted(bad)}")
    if "model" not in config or "data" not in config:
        raise _UsageError("config needs 'model' and 'data'")
    try:
        model = model_from_config(config["model"])
        grid = _resolve_grid(args, config)
        y0 = _resolve_data(model, config["data"], args.seed)
    except _CONFIG_ERRORS as exc:
        raise _UsageError(str(exc)) from exc
    return model, y0, grid


def _cmd_contour(args) -> int:
    model, y0, grid = _load_point_config(args)
    cloud = build_contour(model, y0, grid)
    ext = args.format
    path = os.path.join(args.out, f"contour.{ext}")
    _write(path, cloud.to_csv() if ext == "csv" else cloud.to_json())
    _emit({
        "family": cloud.family,
        "theta_hat": cloud.fit.theta_hat,
        "points": len(cloud.points),
        "dropped_out_of_domain": cloud.dropped_out_of_domain,
        "wrote": path,
    })
    return 0


def _cmd_frame(args) -> int:
    model, y0, _ = _load_point_config(args)
    fit = fit_mle(model, y0)
    frame = build_frame(model, fit.x_hat, fit.theta_hat)
    tilt = reparameterize(frame, np.full(model.p, 0.1))
    doc = {"frame": frame.to_json_dict(), "fit": fit.to_json_dict(),
           "tilt_at_0.1": [float(v) for v in tilt]}
    summary = {
        "family": model.family,
        "theta_hat": fit.theta_hat,
        "normal_norm": float(np.linalg.norm(frame.normal_acceleration)),
        "gram_condition": float(np.linalg.cond(frame.gram)),
    }
    ext = args.format
    path = os.path.join(args.out, f"frame.{ext}")
    _write(path, _kv_csv(summary) if ext == "csv" else dumps(doc))
    summary["wrote"] = path
    _emit(summary)
    return 0


_VERIFY_STUDIES = ("quadrature", "ancillarity-order", "partition-order")
_QUAD_KEYS = {"study", "c_values", "a_points", "eps", "theta_probe"}
_PARTITION_KEYS = {"study", "n_grid", "t1_std", "draws", "seed",
                   "grid_half_width", "grid_points"}


def _cmd_verify(args) -> int:
    config = _load_json(args.config)
    study = config.get("study")
    if study not in _VERIFY_STUDIES:
        raise _UsageError(
            f"config key 'study' must be one of {list(_VERIFY_STUDIES)}, got {study!r}"
        )

    if study == "quadrature":
        bad = set(config) - _QUAD_KEYS
        if bad:
            raise _UsageError(f"unknown study keys: {sorted(bad)}")
        try:
            c_values = tuple(float(c) for c in config.get("c_values", (0.5, 1.0, 2.0)))
            a_points = config_int(config.get("a_points", 61), "a_points", 1)
            eps = float(config.get("eps", 1e-4))
            probe = float(config.get("theta_probe", 0.5))
        except _CONFIG_ERRORS as exc:
            raise _UsageError(str(exc)) from exc
        if not c_values or not all(math.isfinite(c) for c in c_values):
            raise _UsageError("'c_values' must be a nonempty list of finite numbers")
        if not 0.0 < eps < math.inf:
            raise _UsageError("'eps' must be positive and finite")
        if probe == 0.0 or not math.isfinite(probe):
            raise _UsageError("'theta_probe' must be nonzero and finite")
        report = quadrature_first_derivative(
            c_values=c_values, a_grid=np.linspace(-3.0, 3.0, a_points),
            eps=eps, theta_probe=probe)
        summary = {
            "study": study,
            "max_abs_derivative": report.max_abs_derivative,
            "symmetry_gap": max(c.symmetry_gap for c in report.cases),
            "flip_gap": max(c.flip_gap for c in report.cases),
        }
        text = report.to_csv() if args.format == "csv" else dumps(report.to_json_dict())
    elif study == "ancillarity-order":
        merged = dict(config)
        if args.reps is not None:
            merged["reps"] = args.reps
        if args.seed is not None:
            merged["seed"] = args.seed
        try:
            spec = order_spec_from_config(merged)
        except _CONFIG_ERRORS as exc:
            raise _UsageError(str(exc)) from exc
        report = run_replicated(spec)
        summary = {"study": study, "family": spec.family,
                   "inconclusive": report.inconclusive}
        for name, arm in report.arms.items():
            summary[f"slope_{name}"] = arm.slope if arm.slope is not None else "none"
            summary[f"sensitivity_{name}"] = [row.sensitivity for row in arm.per_n]
        text = report.to_csv() if args.format == "csv" else report.to_json()
    else:
        bad = set(config) - _PARTITION_KEYS
        if bad:
            raise _UsageError(f"unknown study keys: {sorted(bad)}")
        try:
            n_grid = tuple(config_int(n, "n_grid", 2)
                           for n in config.get("n_grid", (16, 64, 256, 1024)))
            t1_std = float(config.get("t1_std", 1.0))
            draws = config_int(config.get("draws", 12), "draws", 1)
            seed = args.seed if args.seed is not None else config_int(
                config.get("seed", _DEFAULT_SEED), "seed", 0)
            grid = GridSpec(half_width=float(config.get("grid_half_width", 3.0)),
                            points_per_axis=config.get("grid_points", 21))
        except _CONFIG_ERRORS as exc:
            raise _UsageError(str(exc)) from exc
        if not n_grid:
            raise _UsageError("'n_grid' must be nonempty")
        if not math.isfinite(t1_std):
            raise _UsageError("'t1_std' must be finite")
        report = partition_order_study(n_grid=n_grid, t1_std=t1_std, draws=draws,
                                       seed=seed, grid=grid)
        summary = {"study": study, "slope": report.slope,
                   "mean_discrepancy": report.mean_discrepancy}
        text = report.to_csv() if args.format == "csv" else report.to_json()

    path = os.path.join(args.out, f"{study}.{args.format}")
    _write(path, text)
    summary["wrote"] = path
    _emit(summary)
    return 0


def _cmd_example(args) -> int:
    seed = args.seed if args.seed is not None else _DEFAULT_SEED
    name = args.name
    cloud = None
    if name == "circle2d":
        model = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
        y0 = np.array([1.2, 0.0])
        grid = GridSpec(half_width=3.0, points_per_axis=41)
        cloud = build_contour(model, y0, grid)
        comp = compare_exact(model, cloud)
        part = partition_check(model, y0, np.array([1.0]), grid=grid)
        doc = {"example": name, "contour": cloud.to_json_dict(),
               "exact_comparison": comp.to_json_dict(),
               "partition": part.to_json_dict()}
        summary = {
            "example": name,
            "theta_hat": cloud.fit.theta_hat,
            "radius_contour": comp.radius_contour,
            "radius_exact": comp.radius_exact,
            "label_spread": comp.label_spread,
            "partition_discrepancy": part.discrepancy,
        }
    elif name == "location-scale":
        model = make_location_scale(8)
        theta = np.array([0.3, 1.1])
        y0 = model.quantile(model.ref_sampler(seed, 1)[0], theta)
        grid = GridSpec(half_width=2.5, points_per_axis=21)
        cloud = build_contour(model, y0, grid)
        comp = compare_exact(model, cloud)
        part = partition_check(model, y0, np.array([1.0, 0.5]), grid=grid)
        doc = {"example": name, "contour": cloud.to_json_dict(),
               "exact_comparison": comp.to_json_dict(),
               "partition": part.to_json_dict()}
        summary = {
            "example": name,
            "theta_hat": cloud.fit.theta_hat,
            "label_spread": comp.label_spread,
            "partition_discrepancy": part.discrepancy,
            "dropped_out_of_domain": cloud.dropped_out_of_domain,
        }
    elif name == "nonlinreg-known":
        model = make_synthetic_curved(24)
        theta = np.array([0.4])
        y0 = model.quantile(model.ref_sampler(seed, 1)[0], theta)
        grid = GridSpec(half_width=3.0, points_per_axis=41)
        cloud = build_contour(model, y0, grid)
        part = partition_check(model, y0, np.array([1.0]), grid=grid)
        doc = {"example": name, "contour": cloud.to_json_dict(),
               "partition": part.to_json_dict()}
        summary = {
            "example": name,
            "theta_hat": cloud.fit.theta_hat,
            "partition_discrepancy": part.discrepancy,
            "theta_gap": part.theta_gap,
        }
    elif name == "nonlinreg-unknown":
        model = make_nonlinear_regression(eta_curved(16), sigma_mode="unknown")
        theta = np.array([0.25, 0.9])
        y0 = model.quantile(model.ref_sampler(seed, 1)[0], theta)
        grid = GridSpec(half_width=2.0, points_per_axis=21)
        cloud = build_contour(model, y0, grid)
        part = partition_check(model, y0, np.array([0.8, -0.5]), grid=grid)
        tangent_gap = float(np.max(np.abs(np.einsum(
            "nk,nab->kab", cloud.frame.velocity, cloud.frame.normal_acceleration))))
        doc = {"example": name, "contour": cloud.to_json_dict(),
               "partition": part.to_json_dict()}
        summary = {
            "example": name,
            "theta_hat": cloud.fit.theta_hat,
            "points": len(cloud.points),
            "dropped_out_of_domain": cloud.dropped_out_of_domain,
            "partition_discrepancy": part.discrepancy,
            "tangent_normal_gap": tangent_gap,
        }
    elif name == "severini":
        model = make_circle(1.0, n=3, variance_scale=1.0 / 36.0)
        y0 = np.array([1.25, 0.0, 0.15])
        report = severini_pivot_check(model, y0, seed=seed)
        doc = {"example": name, "pivot_check": report.to_json_dict()}
        summary = {
            "example": name,
            "unique_in_neighborhood": report.unique_in_neighborhood,
            "solution_set_dim": report.solution_set_dim,
            "max_gap_to_y0": report.max_gap_to_y0,
            "antipodal_found": report.antipodal_candidate is not None,
        }
    else:
        report = cauchy_inversion_demo()
        doc = {"example": name, "inversion": report.to_json_dict()}
        summary = {
            "example": name,
            "component_count": report.component_count,
            "line_segment_count": report.line_segment_count,
            "excluded_points": len(report.line_excluded_points),
        }

    ext = args.format
    path = os.path.join(args.out, f"example-{name}.{ext}")
    if ext == "csv" and cloud is not None:
        text = cloud.to_csv()
    elif ext == "csv":
        text = _kv_csv(summary)
    else:
        text = dumps(doc)
    _write(path, text)
    summary["wrote"] = path
    _emit(summary)
    return 0


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    if getattr(args, "handler", None) is None:
        parser.print_help()
        return 2
    try:
        return args.handler(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AncontourError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
