"""Command line interface.

Subcommands: example (canned demonstrations), contour (build a contour cloud
from a model config and one data point), frame (the Taylor frame at the
fit), verify (quadrature and simulation studies).  contour reads a model,
data and an optional grid from its config, frame a model and data only.
Configs are JSON files parsed and validated completely before any output is
created: every block (top level, model, data, simulate, grid, study) is
checked by _jsonio.config_block, so an unknown key, a missing required key
or a value of the wrong type is a config error naming the key.  Writes are
atomic, so interrupted runs never leave partial files, and an unwritable
output path is a usage error found before any work.  Exit codes: 0 on
success, 2 for usage or configuration errors, 1 for runtime failures.  Each
command imports the package modules it runs inside its handler, so a
process loads no model, fit or study code it does not use.
A handler checks its output path, does its work and returns what it built:
(path, doc, table, summary), the JSON document, the object whose to_csv()
is the CSV file (None: the summary as key,value lines) and the stdout
summary.  main alone writes the file and prints the summary.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys

import numpy as np

from . import __version__
from ._jsonio import atomic_write_text, config_block, dumps
from .errors import (
    AncontourError,
    EmptyStudyError,
    InvalidDimensionError,
    InvalidParameterError,
    UnsupportedFamilyError,
)

_DEFAULT_SEED = 20260816
# the contour examples: name -> (model from the models module, true theta
# (None: the fixed point (1.2, 0)), t1, grid (half width, points per axis),
# summary keys after example and theta_hat)
_CONTOUR_EXAMPLES = {
    "circle2d": (lambda m: m.make_circle(1.0, n=2, variance_scale=1.0 / 64.0), None, [1.0],
                 (3.0, 41), ("radius_contour", "radius_exact", "label_spread",
                             "partition_discrepancy")),
    "location-scale": (lambda m: m.make_location_scale(8), [0.3, 1.1], [1.0, 0.5], (2.5, 21),
                       ("label_spread", "partition_discrepancy", "dropped_out_of_domain")),
    "nonlinreg-known": (lambda m: m.make_synthetic_curved(24), [0.4], [1.0], (3.0, 41),
                        ("partition_discrepancy", "theta_gap")),
    "nonlinreg-unknown": (lambda m: m.make_nonlinear_regression(m.eta_curved(16), "unknown"),
                          [0.25, 0.9], [0.8, -0.5], (2.0, 21),
                          ("points", "dropped_out_of_domain", "partition_discrepancy",
                           "tangent_normal_gap")),
}
_CONFIG_ERRORS = (InvalidParameterError, InvalidDimensionError, UnsupportedFamilyError,
                  EmptyStudyError)


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

    sub = parser.add_subparsers(dest="command")
    p_example = sub.add_parser("example", parents=[common],
                               help="run a canned demonstration")
    p_example.add_argument("name",
                           choices=(*_CONTOUR_EXAMPLES, "severini", "cauchy-inversion"))
    p_example.set_defaults(handler=_cmd_example)

    p_config = {}
    for name, handler, text in (
            ("contour", _cmd_contour, "build the contour cloud through a data point"),
            ("frame", _cmd_frame, "Taylor frame at the fitted parameter"),
            ("verify", _cmd_verify, "run a quadrature or simulation study")):
        p_config[name] = sub.add_parser(name, parents=[common], help=text)
        p_config[name].add_argument("--config", required=True, help="JSON config path")
        p_config[name].set_defaults(handler=handler)
    p_config["contour"].add_argument("--grid", default=None, metavar="HW,POINTS",
                                     help="offset grid: half width and points per axis")
    p_config["verify"].add_argument("--reps", type=int, default=None,
                                    help="replication count override for the order study")
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


def _resolve_data(model, data: dict, seed_flag) -> np.ndarray:
    # exactly one source; each default here only gives its source's type
    typed = config_block(data, {"y": (0.0,), "file": "", "simulate": {}}, "data")
    if len(data) != 1:
        raise _UsageError(
            "exactly one data source required: inline 'y', 'file', or 'simulate'"
        )
    if "y" in data:
        y = np.array(typed["y"])
    elif "file" in data:
        y = _read_point(typed["file"])
    else:  # --seed replaces the config's seed before it is checked, as on verify
        sim = data["simulate"] if seed_flag is None else {**data["simulate"], "seed": seed_flag}
        sim = config_block(sim, {"theta": (float,), "seed": _DEFAULT_SEED}, "simulate", seed=0)
        theta = model.check_theta(np.array(sim["theta"]))
        y = model.quantile(model.ref_sampler(sim["seed"], 1)[0], theta)
    return model.check_point(y)


def _resolve_grid(args, block):
    from .ancillary import GridSpec

    if args.grid is not None:
        return GridSpec.parse(args.grid)
    if isinstance(block, str):
        return GridSpec.parse(block)
    return GridSpec(**config_block({} if block is None else block, GridSpec()._asdict(), "grid"))


def _target(args, stem: str) -> str:
    """--out/stem.format, once the nearest existing folder on that path is writable."""
    path = os.path.join(args.out, f"{stem}.{args.format}")
    folder = os.path.dirname(os.path.abspath(path))
    while not os.path.exists(folder):
        folder = os.path.dirname(folder)
    if not (os.path.isdir(folder) and os.access(folder, os.W_OK | os.X_OK)):
        raise _UsageError(f"cannot write {path}: {folder} is not a writable directory")
    return path


def _write(path: str, text: str) -> None:
    try:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        atomic_write_text(path, text)
    except OSError as exc:
        raise _UsageError(f"cannot write {path}: {exc}") from exc


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
    """(model, y0, grid) from a contour config (model, data, optional grid),
    or (model, y0, None) from a frame config (model, data)."""
    from .models import model_from_config

    takes_grid = "grid" in args  # contour's parser has --grid, frame's has not
    declared = {"model": object, "data": dict, **({"grid": None} if takes_grid else {})}
    try:
        config = config_block(_load_json(args.config), declared, "config")
        model = model_from_config(config["model"])
        grid = _resolve_grid(args, config["grid"]) if takes_grid else None
        y0 = _resolve_data(model, config["data"], args.seed)
    except _CONFIG_ERRORS as exc:
        raise _UsageError(str(exc)) from exc
    return model, y0, grid


def _cmd_contour(args):
    from .ancillary import build_contour

    model, y0, grid = _load_point_config(args)
    path = _target(args, "contour")
    cloud = build_contour(model, y0, grid)
    return path, cloud, cloud, {
        "family": cloud.family,
        "theta_hat": cloud.fit.theta_hat,
        "points": len(cloud.points),
        "dropped_out_of_domain": cloud.dropped_out_of_domain,
    }


def _cmd_frame(args):
    from .diffgeo import build_frame, reparameterize
    from .estimation import fit_mle

    model, y0, _ = _load_point_config(args)
    path = _target(args, "frame")
    fit = fit_mle(model, y0)
    frame = build_frame(model, fit.x_hat, fit.theta_hat)
    tilt = reparameterize(frame, np.full(model.p, 0.1))
    return path, {"frame": frame, "fit": fit, "tilt_at_0.1": tilt}, None, {
        "family": model.family,
        "theta_hat": fit.theta_hat,
        "normal_norm": float(np.linalg.norm(frame.normal_acceleration)),
        "gram_condition": float(np.linalg.cond(frame.gram)),
    }


def _cmd_verify(args):
    from .montecarlo import spec_from_config

    config = _load_json(args.config)
    try:
        spec = spec_from_config(config, reps=args.reps, seed=args.seed)
    except _CONFIG_ERRORS as exc:
        raise _UsageError(str(exc)) from exc
    path = _target(args, config["study"])
    report = spec.run()
    return path, report, report, report.summary()


def _cmd_example(args):
    from . import models
    from .ancillary import (GridSpec, build_contour, cauchy_inversion_demo, compare_exact,
                            partition_check, severini_pivot_check)

    name = args.name
    path = _target(args, f"example-{name}")
    if name == "severini":
        report = severini_pivot_check(models.make_circle(1.0, n=3, variance_scale=1.0 / 36.0),
                                      np.array([1.25, 0.0, 0.15]))
        return path, {"example": name, "pivot_check": report}, None, {
            "example": name,
            "unique_in_neighborhood": report.unique_in_neighborhood,
            "solution_set_dim": report.solution_set_dim,
            "max_gap_to_y0": report.max_gap_to_y0,
            "antipodal_found": report.antipodal_candidate is not None,
        }
    if name == "cauchy-inversion":
        report = cauchy_inversion_demo()
        return path, {"example": name, "inversion": report}, None, {
            "example": name,
            "component_count": report.component_count,
            "line_segment_count": report.line_segment_count,
            "excluded_points": len(report.line_excluded_points),
        }

    make, theta, t1, grid, keys = _CONTOUR_EXAMPLES[name]
    model, grid = make(models), GridSpec(*grid)
    seed = args.seed if args.seed is not None else _DEFAULT_SEED
    y0 = (np.array([1.2, 0.0]) if theta is None
          else model.quantile(model.ref_sampler(seed, 1)[0], np.array(theta)))
    cloud = build_contour(model, y0, grid)
    part = partition_check(model, y0, np.array(t1), grid=grid, fit=cloud.fit)
    doc = {"example": name, "contour": cloud, "partition": part}
    values = {
        "points": len(cloud.points),
        "dropped_out_of_domain": cloud.dropped_out_of_domain,
        "partition_discrepancy": part.discrepancy,
        "theta_gap": part.theta_gap,
        "tangent_normal_gap": float(np.max(np.abs(np.einsum(
            "nk,nab->kab", cloud.frame.velocity, cloud.frame.normal_acceleration)))),
    }
    if model.exact_label is not None:
        doc["exact_comparison"] = comp = compare_exact(model, cloud)
        values.update(comp._asdict())
    return path, doc, cloud, {"example": name, "theta_hat": cloud.fit.theta_hat,
                              **{key: values[key] for key in keys}}


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
        path, doc, table, summary = args.handler(args)
        _write(path, dumps(doc) if args.format == "json"
               else _kv_csv(summary) if table is None else table.to_csv())
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except AncontourError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit({**summary, "wrote": path})
    return 0


if __name__ == "__main__":
    sys.exit(main())
