"""Command line behavior: outputs, formats, exit codes, determinism."""

import ast
import hashlib
import importlib
import json
import math
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest

import ancontour
from ancontour._jsonio import config_block, config_float, dumps
from ancontour.cli import main

EXAMPLES = ("circle2d", "location-scale", "nonlinreg-known",
            "nonlinreg-unknown", "severini", "cauchy-inversion")

# sha256 of each output file at the default seed, frozen so that a change of
# encoder or of numerics cannot alter a byte unnoticed
EXAMPLE_DIGESTS = {
    "circle2d": "452673b19335cb788b9f7314dc228c4137799125e691320f80e4fe5367df5ad6",
    "location-scale": "8980c7dc1bf1eb0379fc07e675fe7ea01d8ea9d07067b453e9636263876ac5d8",
    "nonlinreg-known": "223d8de9a7f87415529aec51edce52e8cf47341dc50dbb97df103bf13664da82",
    "nonlinreg-unknown": "e4840a0d0ab71fb23bc88737509c5db7e6c516bded431b678d8298a915911cb4",
    "severini": "72d7539ea7529f2e31b0b2c2c4983cc1f509a34a34ec6ecd32418a6cea104743",
    "cauchy-inversion": "51ceb5e0e0a55d124d15b7d7ef36898cfb033054b410c0e99d3409e53fe45c42",
}
POINT_DIGESTS = {
    "contour": "82ccbd348238a75c262868b1572d515672c290ee57e4372309516cc7ace19d05",
    "frame": "5ab8d72d6d12481ff4f0056f57558901f6599c862a1948ce900b805c29a5aea0",
}
QUADRATURE_DIGEST = "efbaf65a96c0e663658753f8c690b390a4b4514f0fff6d5fed2c50b3ae6d1c86"
DATA_DIR = pathlib.Path(__file__).parent / "data"


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    values = {}
    for line in captured.out.strip().splitlines():
        if "=" in line:
            key, _, value = line.partition("=")
            values[key] = value
    return code, values, captured.err


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


CIRCLE_CONFIG = {
    "model": {"family": "circle2d", "rho": 1.0, "variance_scale": 1.0},
    "data": {"y": [1.2, 0.0]},
    "grid": "3.0,41",
}
# frame reads a model and data only
FRAME_CONFIG = {key: value for key, value in CIRCLE_CONFIG.items() if key != "grid"}

# the contour config shown in README.md, copied verbatim
README_CONFIG = """{
  "model": {"family": "circle2d", "rho": 1.0, "variance_scale": 1.0},
  "data": {"y": [1.2, 0.0]},
  "grid": "3.0,41"
}
"""


def test_version_flag(capsys):
    assert main(["--version"]) == 0
    assert "ancontour" in capsys.readouterr().out


def test_bare_invocation_is_usage_error(capsys):
    assert main([]) == 2
    assert "usage" in capsys.readouterr().out.lower()


@pytest.mark.parametrize("name", EXAMPLES)
def test_examples_run_and_write(name, tmp_path, capsys):
    code, values, _ = run_cli(["example", name, "--out", str(tmp_path)], capsys)
    assert code == 0
    path = tmp_path / f"example-{name}.json"
    assert path.exists()
    payload = json.loads(path.read_text())
    assert payload["example"] == name
    assert values["wrote"] == str(path)
    assert sha256(path) == EXAMPLE_DIGESTS[name]


def test_example_circle2d_summary_values(tmp_path, capsys):
    code, values, _ = run_cli(["example", "circle2d", "--out", str(tmp_path)],
                              capsys)
    assert code == 0
    assert abs(float(values["theta_hat"])) < 1e-10
    assert abs(float(values["radius_contour"]) - 1.0) < 1e-6
    assert abs(float(values["radius_exact"]) - 1.2) < 1e-12
    # off the exact shell: the pointwise label moves and the rebuilt
    # contour genuinely differs
    assert float(values["label_spread"]) > 0.005
    assert float(values["partition_discrepancy"]) > 1e-4


def test_example_location_scale_summary_values(tmp_path, capsys):
    code, values, _ = run_cli(
        ["example", "location-scale", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert float(values["label_spread"]) < 1e-12
    assert float(values["partition_discrepancy"]) < 1e-10
    assert int(values["dropped_out_of_domain"]) == 0


def test_example_severini_summary_values(tmp_path, capsys):
    code, values, _ = run_cli(["example", "severini", "--out", str(tmp_path)],
                              capsys)
    assert code == 0
    assert values["unique_in_neighborhood"] == "True"
    assert values["solution_set_dim"] == "0"
    assert values["antipodal_found"] == "True"
    assert float(values["max_gap_to_y0"]) < 1e-8


def test_example_inversion_summary_values(tmp_path, capsys):
    code, values, _ = run_cli(
        ["example", "cauchy-inversion", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert values["component_count"] == "3"
    assert values["line_segment_count"] == "3"
    assert values["excluded_points"] == "2"


def test_example_nonlinreg_unknown_summary_values(tmp_path, capsys):
    code, values, _ = run_cli(
        ["example", "nonlinreg-unknown", "--out", str(tmp_path)], capsys)
    assert code == 0
    assert float(values["tangent_normal_gap"]) < 1e-8
    assert int(values["dropped_out_of_domain"]) == 0


def test_example_csv_format(tmp_path, capsys):
    code, _, _ = run_cli(["example", "circle2d", "--out", str(tmp_path),
                          "--format", "csv"], capsys)
    assert code == 0
    lines = (tmp_path / "example-circle2d.csv").read_text().splitlines()
    assert lines[0] == "t_1,y_1,y_2"
    code, _, _ = run_cli(["example", "severini", "--out", str(tmp_path),
                          "--format", "csv"], capsys)
    assert code == 0
    lines = (tmp_path / "example-severini.csv").read_text().splitlines()
    assert lines[0] == "key,value"


def test_contour_json_output(tmp_path, capsys):
    config = write_config(tmp_path, CIRCLE_CONFIG)
    code, values, _ = run_cli(["contour", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    assert int(values["points"]) == 41
    payload = json.loads((tmp_path / "contour.json").read_text())
    assert payload["family"] == "circle2d"
    pts = np.array(payload["points"]["data"]).reshape(payload["points"]["dims"])
    radii = np.linalg.norm(pts - np.array([0.2, 0.0]), axis=1)
    np.testing.assert_allclose(radii, 1.0, atol=1e-10)


def test_contour_csv_output_and_rerun_identical(tmp_path, capsys):
    config = write_config(tmp_path, CIRCLE_CONFIG)
    args = ["contour", "--config", config, "--out", str(tmp_path),
            "--format", "csv"]
    assert run_cli(args, capsys)[0] == 0
    first = (tmp_path / "contour.csv").read_bytes()
    assert first.decode().splitlines()[0] == "t_1,y_1,y_2"
    assert run_cli(args, capsys)[0] == 0
    assert (tmp_path / "contour.csv").read_bytes() == first


@pytest.mark.parametrize("command", ["contour", "frame"])
def test_readme_config_runs_for_contour_and_frame(command, tmp_path, capsys):
    """frame runs the README's config less its grid, as the README says."""
    config = tmp_path / "contour.json"
    config.write_text(README_CONFIG if command == "contour" else
                      README_CONFIG.replace(',\n  "grid": "3.0,41"', ""))
    code, values, _ = run_cli([command, "--config", str(config),
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    assert values["wrote"] == str(tmp_path / f"{command}.json")
    assert sha256(tmp_path / f"{command}.json") == POINT_DIGESTS[command]


README = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_readme_python_blocks_run(capsys):
    """README's Python blocks run and print the values their comments state,
    and its contour config is README_CONFIG."""
    quickstart, specs = re.findall(r"```python\n(.*?)```", README, re.S)
    assert f"```json\n{README_CONFIG}```" in README
    ran = {}
    exec(quickstart, ran)
    assert (ran["report"].radius_contour, ran["report"].radius_exact) == pytest.approx((1.0, 1.2))
    assert ran["part"].discrepancy < 1e-12
    exec(specs, ran)
    assert abs(ran["report"].summary()["slope"] - -1.04) < 0.01
    capsys.readouterr()


def test_readme_model_table_is_the_config_table():
    """README's model config table lists every config family, each with the
    required keys (those declared by a type) and optional keys (declared by
    a default; for a regression family, also every eta tag's keys) the
    config parser takes."""
    from ancontour.models import _ETAS, _FAMILIES

    eta_keys = {key for declared, _ in _ETAS.values() for key in declared}
    expected = {}
    for family, (declared, _) in _FAMILIES.items():
        required = {key for key, like in declared.items() if isinstance(like, type)}
        expected[family] = (required, set(declared) - required
                            | (eta_keys if "eta" in declared else set()))
    rows = {}
    for line in README.splitlines():
        cells = line.split("|")[1:-1]
        if len(cells) == 4 and cells[0].strip().strip("`") in _FAMILIES:
            rows[cells[0].strip().strip("`")] = tuple(
                set(re.findall(r"`(\w+)`", cell)) for cell in cells[1:3])
    assert rows == expected


@pytest.mark.parametrize("command", ["contour", "frame"])
def test_malformed_grid_is_usage_error_for_contour_and_frame(command, tmp_path, capsys):
    config = write_config(tmp_path, dict(CIRCLE_CONFIG, grid={"bogus": 1}))
    code, _, err = run_cli([command, "--config", config, "--out", str(tmp_path)],
                           capsys)
    assert code == 2
    assert "grid" in err
    assert not (tmp_path / f"{command}.json").exists()


@pytest.mark.parametrize("grid", ["3.0,x", "3.0,4.5"])
def test_non_integer_grid_points_name_the_field(grid, tmp_path, capsys):
    config = write_config(tmp_path, CIRCLE_CONFIG)
    code, _, err = run_cli(["contour", "--config", config, "--grid", grid,
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "point count must be an integer" in err
    assert "invalid literal" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_malformed_grid_half_width_names_the_field(tmp_path, capsys):
    config = write_config(tmp_path, CIRCLE_CONFIG)
    code, _, err = run_cli(["contour", "--config", config, "--grid", "x,5",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "half width must be a number" in err
    assert "could not convert" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


ORDER_BASE = {"study": "ancillarity-order", "family": "circle", "n_grid": [8, 16],
              "deltas": [1.0], "reps": 200, "batch_size": 100}


@pytest.mark.parametrize("big", [10 ** 400, 2 ** 63], ids=["10**400", "2**63"])
@pytest.mark.parametrize("command,payload,key", [
    ("verify", lambda big: {"study": "quadrature", "a_points": big}, "a_points"),
    ("verify", lambda big: {**ORDER_BASE, "cells": big}, "cells"),
    ("verify", lambda big: {**ORDER_BASE, "batch_size": big}, "batch_size"),
    ("verify", lambda big: {**ORDER_BASE, "reps": big}, "reps"),
    ("verify", lambda big: {**ORDER_BASE, "n_grid": [8, big]}, "n_grid"),
    ("verify", lambda big: {"study": "partition-order", "draws": big}, "draws"),
    ("verify", lambda big: {"study": "partition-order", "grid_points": big}, "grid_points"),
    ("verify", lambda big: {"study": "partition-order", "n_grid": [16, big]}, "n_grid"),
    ("contour", lambda big: {**CIRCLE_CONFIG, "grid": {"points_per_axis": big}},
     "points_per_axis"),
], ids=["a_points", "cells", "batch_size", "reps", "order-n_grid", "draws", "grid_points",
        "partition-n_grid", "points_per_axis"])
def test_array_size_beyond_any_numpy_array_is_usage_error(command, payload, key, big, tmp_path,
                                                          capsys):
    """An integer that sizes an array is at most sys.maxsize // 8, the bound
    models put on n: beyond it the config exits 2 naming the key, before any
    array is made, instead of numpy's 'Maximum allowed size exceeded'."""
    config = write_config(tmp_path, payload(big))
    code, _, err = run_cli([command, "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert f"{key!r} must be at most {sys.maxsize // 8}" in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_seeds_are_not_array_sizes():
    """A seed sizes nothing, so SeedSequence takes it at any size."""
    for study in ("ancillarity-order", "partition-order"):
        assert ancontour.spec_from_config({"study": study, "seed": 10 ** 400}).seed == 10 ** 400


@pytest.mark.parametrize("command,payload,key", [
    ("contour", {**CIRCLE_CONFIG, "grid": {"points_per_axis": 41.0}}, "points_per_axis"),
    ("contour", {"model": {"family": "location-scale", "n": 3.7},
                 "data": {"simulate": {"theta": [0.0, 1.0]}}}, "'n'"),
    ("verify", {"study": "quadrature", "a_points": 0}, "a_points"),
    ("verify", {**ORDER_BASE, "cells": 8.0}, "cells"),
    ("verify", {**ORDER_BASE, "reps": 100.5}, "reps"),
    ("verify", {**ORDER_BASE, "n_grid": [8.5]}, "n_grid"),
    ("verify", {**ORDER_BASE, "lattice_points": 2}, "unknown study keys: ['lattice_points']"),
    ("verify", {"study": "partition-order", "draws": 0}, "draws"),
    ("verify", {"study": "partition-order", "n_grid": [1]}, "n_grid"),
    ("verify", {"study": "partition-order", "n_grid": [16]}, "n_grid"),
    ("verify", {"study": "partition-order", "n_grid": [16, 16]}, "n_grid"),
    ("verify", {**ORDER_BASE, "n_grid": [16, 16]}, "n_grid"),
    ("verify", {**ORDER_BASE, "family": "location-scale", "n_grid": [2, 8]}, "n_grid"),
    ("verify", {"study": "partition-order", "t1_std": True}, "t1_std"),
    ("verify", {"study": "partition-order", "t1_std": "2"}, "t1_std"),
    ("verify", {"study": "partition-order", "t1_std": [1]}, "t1_std"),
    ("verify", {"study": "partition-order", "grid_half_width": "2"}, "grid_half_width"),
    ("verify", {"study": "quadrature", "eps": True}, "eps"),
    ("verify", {"study": "quadrature", "theta_probe": "0.5"}, "theta_probe"),
    ("verify", {"study": "quadrature", "c_values": [1.0, "2"]}, "c_values"),
    ("verify", {**ORDER_BASE, "rho": True}, "rho"),
    ("verify", {**ORDER_BASE, "deltas": ["1"]}, "deltas"),
    ("verify", {**ORDER_BASE, "theta_star": "0"}, "theta_star"),
    ("contour", {**CIRCLE_CONFIG, "model": {"family": "circle2d", "rho": True}}, "rho"),
    ("contour", {**CIRCLE_CONFIG, "model": {"family": "circle2d", "rho": 1.0,
                                            "variance_scale": "1"}}, "variance_scale"),
    ("contour", {"model": {"family": "nonlinreg-known-sigma", "eta": "curved", "n": 8,
                           "sigma0": False},
                 "data": {"simulate": {"theta": [0.2]}}}, "sigma0"),
    ("verify", {"study": "quadrature", "c_values": 5}, "c_values"),
    ("verify", {**ORDER_BASE, "deltas": 5}, "deltas"),
    ("verify", {"study": "partition-order", "n_grid": 5}, "n_grid"),
    ("verify", {**ORDER_BASE, "reps": "5"}, "reps"),
    ("contour", {**CIRCLE_CONFIG, "grid": {"half_width": "3", "points_per_axis": 5}},
     "half_width"),
    ("contour", {**CIRCLE_CONFIG, "grid": {"half_width": True, "points_per_axis": 5}},
     "half_width"),
    ("verify", {"study": "partition-order", "grid_points": "21"}, "grid_points"),
    ("contour", {**CIRCLE_CONFIG, "grid": {"standardized": "false"}}, "'standardized'"),
    ("contour", {**CIRCLE_CONFIG, "grid": {"standardized": 0}}, "'standardized'"),
    ("verify", {"study": "partition-order", "grid_half_width": 0}, "half_width"),
    ("verify", {"study": "partition-order", "grid_half_width": -1.5}, "half_width"),
    ("verify", {**ORDER_BASE, "family": "location-scale", "rho": 5.0}, "'rho'"),
    ("verify", {**ORDER_BASE, "family": "location-scale", "lattice_half_width": 0.1},
     "'lattice_half_width'"),
    ("contour", [CIRCLE_CONFIG], "config root"),
    ("contour", {"model": CIRCLE_CONFIG["model"]}, "missing config keys: ['data']"),
    ("contour", {**CIRCLE_CONFIG, "grid": 5}, "'grid' must be an object"),
    ("contour", {"model": {"family": "inverted-cauchy", "n": 2}, "data": {"y": [0.5, 2.0]}},
     "known: ['cauchy-location-scale', 'circle2d', 'circleN', 'location-scale', "
     "'nonlinreg-known-sigma', 'nonlinreg-unknown-sigma']"),
    ("contour", {"model": {"family": "location-scale", "n": 5, "error_law": "cauchy"},
                 "data": {"y": [0.1, -0.4, 1.3, 0.8, 2.0]}},
     "unknown location-scale model keys: ['error_law']"),
], ids=["grid-points-float", "model-n-float", "quadrature-a_points-0", "order-cells-float",
        "order-reps-float", "order-n_grid-float", "order-lattice_points-2",
        "partition-draws-0", "partition-n_grid-1", "partition-single-n",
        "partition-repeated-n", "order-repeated-n", "order-ls-n-2",
        "partition-t1_std-bool", "partition-t1_std-string", "partition-t1_std-list",
        "partition-grid_half_width-string", "quadrature-eps-bool",
        "quadrature-theta_probe-string", "quadrature-c_values-string", "order-rho-bool",
        "order-deltas-string", "order-theta_star-string", "model-rho-bool",
        "model-variance_scale-string", "model-sigma0-bool", "quadrature-c_values-scalar",
        "order-deltas-scalar", "partition-n_grid-scalar", "order-reps-string",
        "grid-half_width-string", "grid-half_width-bool", "partition-grid_points-string",
        "grid-standardized-string", "grid-standardized-int", "partition-grid_half_width-0",
        "partition-grid_half_width-negative", "order-ls-rho", "order-ls-lattice_half_width",
        "config-root-list", "config-without-data", "grid-number", "model-inverted-cauchy",
        "model-location-scale-error_law"])
def test_bad_config_number_is_usage_error(command, payload, key, tmp_path, capsys):
    """Non-integer or out-of-range integers, and reals that are not finite JSON
    numbers (booleans and strings included), are rejected before any work,
    naming the key; so is a grid's 'standardized' that is not a JSON boolean,
    and a partition-order grid half width that is not positive (its grid is
    built through GridSpec's checks); lattice_points, which no study reads,
    is an unknown key, and rho and lattice_half_width, which the
    location-scale order study does not read, must keep their defaults
    there.  A config root that is not an object, a point config without
    data and a grid that is neither a string nor an object are refused the
    same way, as are a model family or key outside the config table: the
    Cauchy model's one name is cauchy-location-scale, and location-scale,
    the Normal model, takes no error_law."""
    config = write_config(tmp_path, payload)
    code, _, err = run_cli([command, "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert key in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


Y4, Y6 = [0.3, -1.1, 2.0, 0.7], [0.4, 0.1, 0.5, 0.2, 0.6, 0.3]
CURVED_KNOWN = {"family": "nonlinreg-known-sigma", "eta": "curved", "n": 6, "sigma0": 0.7}
# block name -> (command, a config that runs, the path to the block in it, its required keys)
CONFIG_BLOCKS = {
    "config-contour": ("contour", CIRCLE_CONFIG, (), ["model", "data"]),
    "config-frame": ("frame", FRAME_CONFIG, (), ["model", "data"]),
    "model-location-scale": ("contour", {"model": {"family": "location-scale", "n": 4},
                                         "data": {"y": Y4}}, ("model",), ["family", "n"]),
    "model-cauchy-location-scale": ("contour", {
        "model": {"family": "cauchy-location-scale", "n": 4}, "data": {"y": Y4}},
        ("model",), ["family", "n"]),
    "model-circle2d": ("contour", CIRCLE_CONFIG, ("model",), ["family", "rho"]),
    "model-circleN": ("contour", {"model": {"family": "circleN", "n": 3, "rho": 1.0},
                                  "data": {"y": [1.2, 0.1, 0.15]}}, ("model",),
                      ["family", "n", "rho"]),
    "model-nonlinreg-known-sigma": ("contour", {"model": CURVED_KNOWN, "data": {"y": Y6}},
                                    ("model",), ["family", "eta"]),
    "model-nonlinreg-unknown-sigma": ("contour", {
        "model": {"family": "nonlinreg-unknown-sigma", "eta": "curved", "n": 6},
        "data": {"y": Y6}}, ("model",), ["family", "eta"]),
    "eta-curved": ("frame", {"model": CURVED_KNOWN, "data": {"y": Y6}}, ("model",), ["n"]),
    "eta-circle": ("frame", {"model": {"family": "nonlinreg-known-sigma", "eta": "circle",
                                       "rho": 1.0}, "data": {"y": [1.2, 0.0]}},
                   ("model",), ["rho"]),
    "study-quadrature": ("verify", {"study": "quadrature", "a_points": 5}, (), ["study"]),
    "study-ancillarity-order": ("verify", ORDER_BASE, (), ["study"]),
    "study-partition-order": ("verify", {"study": "partition-order", "n_grid": [16, 64],
                                         "draws": 2}, (), ["study"]),
    "grid": ("contour", {**CIRCLE_CONFIG, "grid": {"half_width": 2.0, "points_per_axis": 5}},
             ("grid",), []),
    "data": ("contour", CIRCLE_CONFIG, ("data",), []),
    "simulate": ("contour", {"model": CIRCLE_CONFIG["model"],
                             "data": {"simulate": {"theta": [0.3], "seed": 4}}},
                 ("data", "simulate"), ["theta"]),
}


def _config_block_cases():
    for name, (command, config, path, required) in CONFIG_BLOCKS.items():
        yield pytest.param(command, config, path, None, id=f"{name}-as-written")
        yield pytest.param(command, config, path, "bogus_key", id=f"{name}-unknown-key")
        for key in required:
            yield pytest.param(command, config, path, key, id=f"{name}-without-{key}")


@pytest.mark.parametrize("command,config,path,key", list(_config_block_cases()))
def test_every_config_block_names_an_unknown_or_missing_key(command, config, path, key,
                                                              tmp_path, capsys):
    """One rule for every block, model family, eta tag, study, grid, data and
    simulate object: the config as written runs; with an unknown key added
    to the block, or a required key dropped from it, it exits 2 with a
    message naming the key, no traceback and no output file."""
    config = json.loads(json.dumps(config))
    block = config
    for step in path:
        block = block[step]
    if key in block:
        del block[key]
    elif key is not None:
        block[key] = 1
    out = tmp_path / "out"
    code, _, err = run_cli([command, "--config", write_config(tmp_path, config),
                            "--out", str(out)], capsys)
    if key is None:
        assert (code, err) == (0, "")
        return
    assert code == 2
    assert re.search(rf"\b{key}\b", err) and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("model,named", [
    ('{"family": "circle2d", "rho": 1.0}', "'model' must be an object"),
    ({"family": ["x"]}, "unknown family ['x']"),
    ({"family": "nonlinreg-known-sigma", "eta": ["curved"], "n": 6}, "unknown eta ['curved']"),
    ({"family": "nonlinreg-unknown-sigma", "eta": "curved", "n": 6, "sigma_mode": "unknown"},
     "unknown nonlinreg-unknown-sigma model keys: ['sigma_mode']"),
    ({"family": "nonlinreg-known-sigma", "eta": "curved", "n": 2 ** 62}, "curved mean needs 2 <= n"),
    ({"family": "location-scale", "n": 10 ** 30}, "location-scale needs 2 <= n"),
], ids=["model-text", "family-list", "eta-list", "sigma_mode", "eta-n-too-large",
        "n-too-large"])
def test_model_config_errors_are_named(model, named, tmp_path, capsys):
    """A model given as text, a family or eta tag that is not a string, the
    family-named sigma_mode key and an n too large for a numpy array exit 2
    with a message that says so, not with a bare Python error."""
    config = write_config(tmp_path, {"model": model, "data": {"y": Y6}})
    code, _, err = run_cli(["contour", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert named in err and "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("payload", [
    {"draws": 0}, {"draws": 2.5}, {"n_grid": [16.0, 64]}, {"seed": -1}, {"t1_std": 5},
    {"t1_std": 0},
], ids=["draws-0", "draws-float", "n_grid-float", "seed-negative", "t1_std-over-cap",
        "t1_std-zero"])
def test_partition_order_config_error_carries_the_study_message(payload, tmp_path, capsys):
    """A bad n_grid, draws, seed or t1_std is checked by the study's own rules: exit 2
    with the message partition_order_study raises, before any output."""
    with pytest.raises(ancontour.AncontourError) as expected:
        ancontour.partition_order_study(ancontour.PartitionOrderSpec(**payload))
    config = write_config(tmp_path, {"study": "partition-order", **payload})
    code, _, err = run_cli(["verify", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == f"error: {expected.value}\n"
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("argv,flag,payload", [
    (["example", "circle2d", "--grid", "1,5"], "--grid", CIRCLE_CONFIG),
    (["example", "circle2d", "--reps", "3"], "--reps", CIRCLE_CONFIG),
    (["contour", "--config", "CONFIG", "--reps", "3"], "--reps", CIRCLE_CONFIG),
    (["verify", "--config", "CONFIG", "--grid", "1,5"], "--grid", CIRCLE_CONFIG),
    (["verify", "--config", "CONFIG", "--reps", "3"], "--reps", {"study": "quadrature"}),
    (["verify", "--config", "CONFIG", "--reps", "3"], "--reps",
     {"study": "partition-order", "n_grid": [16, 64], "draws": 2}),
    (["verify", "--config", "CONFIG", "--reps", "200"], "--reps",
     {"study": "ancillarity-order", "family": "circle", "reps": 200}),
    (["frame", "--config", "CONFIG", "--grid", "1,5"], "--grid", FRAME_CONFIG),
], ids=["example-grid", "example-reps", "contour-reps", "verify-grid",
        "verify-quadrature-reps", "verify-partition-reps", "verify-order-reps", "frame-grid"])
def test_flag_on_subcommand_that_ignores_it_is_usage_error(argv, flag, payload, tmp_path,
                                                           capsys):
    """--grid belongs to contour, and no command has --reps (the order
    study's config sets its reps); elsewhere they exit 2."""
    config = write_config(tmp_path, payload)
    argv = [config if a == "CONFIG" else a for a in argv]
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert flag in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_integer_grid_half_width_writes_the_float_grid(tmp_path, capsys):
    """GridSpec stores its half width as a float, so a grid object with an
    integer half width writes the bytes the 'half_width,points' string does."""
    written = []
    for name, grid in (("object", {"half_width": 3, "points_per_axis": 5}), ("string", "3,5")):
        config = write_config(tmp_path, {**CIRCLE_CONFIG, "grid": grid}, f"{name}.json")
        out = tmp_path / name
        assert run_cli(["contour", "--config", config, "--out", str(out)], capsys)[0] == 0
        written.append((out / "contour.json").read_bytes())
    assert written[0] == written[1]
    assert b'"half_width":3.0,' in written[0]


def test_contour_grid_flag_overrides_config(tmp_path, capsys):
    config = write_config(tmp_path, CIRCLE_CONFIG)
    code, values, _ = run_cli(["contour", "--config", config,
                               "--out", str(tmp_path), "--grid", "1.0,5"],
                              capsys)
    assert code == 0
    assert int(values["points"]) == 5


@pytest.mark.parametrize("grid", ["garbage", {"bogus": 1}])
def test_grid_flag_does_not_hide_a_malformed_config_grid(grid, tmp_path, capsys):
    """The config's grid block is checked before --grid replaces it."""
    config = write_config(tmp_path, dict(CIRCLE_CONFIG, grid=grid))
    code, _, err = run_cli(["contour", "--config", config, "--grid", "3.0,5",
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "grid" in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_contour_that_overflows_exits_one_naming_the_half_width(fmt, tmp_path, capsys):
    """Contour points past the float range are refused before any write, in
    either format, not written as inf cells or left to the JSON encoder."""
    config = write_config(tmp_path, {
        "model": {"family": "nonlinreg-known-sigma", "eta": "curved", "n": 6},
        "data": {"y": [0.4, 0.1, 0.5, 0.2, 0.6, 0.3]},
        "grid": {"half_width": 1e300, "points_per_axis": 3},
    })
    code, values, err = run_cli(["contour", "--config", config, "--out", str(tmp_path / "out"),
                                 "--format", fmt], capsys)
    assert (code, values) == (1, {})
    assert err == "error: contour points overflow at grid half_width 1e+300\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("data_block, named", [
    ({}, "exactly one data source"),
    ({"y": [1.0, 0.5], "file": "extra.txt"}, "exactly one data source"),
    ({"y": [1.0, 0.5], "bogus": 1}, "bogus"),
    ({"simulate": {"theta": [0.0], "seed": 1, "extra": 2}}, "extra"),
    # open() would take an int or a bool as a descriptor: stdin, or stdout closed
    ({"file": 0}, "'file'"),
    ({"file": True}, "'file'"),
    ({"file": ["a"]}, "'file'"),
    # inline numbers are a list of finite JSON numbers, checked one by one
    ({"y": "abc"}, "'y'"),
    ({"y": {"a": 1}}, "'y'"),
    ({"y": True}, "'y'"),
    ({"y": [1, True]}, "'y'"),
    ({"y": 1.2}, "'y'"),
    ({"simulate": {"theta": "x"}}, "'theta'"),
    ({"simulate": {"theta": [True]}}, "'theta'"),
    ([1.2, 0.0], "'data' must be an object"),
    ({"simulate": [0.0]}, "'simulate' must be an object"),
    ({"simulate": {"seed": 1}}, "missing simulate keys: ['theta']"),
    ({"file": str(DATA_DIR)}, "cannot read data file"),
    ({"file": str(DATA_DIR / "non_numeric_point.csv")}, "non-numeric entry in data file"),
    # one leading word is a header; with two, the first is the entry named
    ({"file": str(DATA_DIR / "two_word_header_point.csv")}, "float: 'a'"),
], ids=[f"data_block{k}" for k in range(20)])
def test_contour_bad_data_block_is_usage_error(data_block, named, tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"family": "circle2d", "rho": 1.0},
        "data": data_block,
    })
    code, _, err = run_cli(["contour", "--config", config,
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error" in err and named in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]
    os.fstat(0)  # still open
    os.fstat(1)



def test_out_of_domain_theta_error_prints_a_plain_number(tmp_path, capsys):
    """The domain error names the offending value as a Python float, not as a
    numpy scalar's repr."""
    config = write_config(tmp_path, {
        "model": {"family": "location-scale", "n": 4},
        "data": {"simulate": {"theta": [0.0, -1.0]}},
    })
    code, _, err = run_cli(["contour", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "theta value -1.0 outside open domain (0.0, inf)" in err
    assert "np.float64" not in err

def test_contour_config_errors(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert run_cli(["contour", "--config", missing,
                    "--out", str(tmp_path)], capsys)[0] == 2

    bad_json = tmp_path / "bad.json"
    bad_json.write_text("{not json")
    assert run_cli(["contour", "--config", str(bad_json),
                    "--out", str(tmp_path)], capsys)[0] == 2

    unknown_key = write_config(tmp_path, dict(CIRCLE_CONFIG, extra=1))
    assert run_cli(["contour", "--config", unknown_key,
                    "--out", str(tmp_path)], capsys)[0] == 2

    bad_family = write_config(tmp_path, {
        "model": {"family": "gamma", "n": 3}, "data": {"y": [1.0, 2.0, 3.0]}})
    assert run_cli(["contour", "--config", bad_family,
                    "--out", str(tmp_path)], capsys)[0] == 2

    bad_grid = write_config(tmp_path, CIRCLE_CONFIG, name="grid.json")
    assert run_cli(["contour", "--config", bad_grid, "--out", str(tmp_path),
                    "--grid", "3.0"], capsys)[0] == 2
    assert not (tmp_path / "contour.json").exists()


def test_contour_runtime_failure_exits_one(tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"family": "circle2d", "rho": 1.0},
        "data": {"y": [0.0, 0.0]},
    })
    code, _, err = run_cli(["contour", "--config", config,
                            "--out", str(tmp_path)], capsys)
    assert code == 1
    assert "error" in err
    assert not (tmp_path / "contour.json").exists()


def test_contour_reads_data_file(tmp_path, capsys):
    data = tmp_path / "point.csv"
    data.write_text("y\n1.2\n0.0\n")
    config = write_config(tmp_path, {
        "model": {"family": "circle2d", "rho": 1.0, "variance_scale": 1.0},
        "data": {"file": str(data)},
    })
    code, values, _ = run_cli(["contour", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    assert abs(float(values["theta_hat"])) < 1e-10


def test_frame_command(tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"family": "location-scale", "n": 5},
        "data": {"y": [0.4, -0.8, 1.3, 0.1, -0.2]},
    })
    code, values, _ = run_cli(["frame", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "frame.json").read_text())
    assert set(payload) == {"frame", "fit", "tilt_at_0.1"}
    # theta-linear family: no curvature at all
    assert float(values["normal_norm"]) < 1e-12

    code, _, _ = run_cli(["frame", "--config", config, "--out", str(tmp_path),
                          "--format", "csv"], capsys)
    assert code == 0
    lines = (tmp_path / "frame.csv").read_text().splitlines()
    assert lines[0] == "key,value"


def test_verify_quadrature(tmp_path, capsys):
    config = write_config(tmp_path, {
        "study": "quadrature", "c_values": [1.0], "a_points": 21})
    code, values, _ = run_cli(["verify", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    assert float(values["max_abs_derivative"]) < 1e-10
    payload = json.loads((tmp_path / "quadrature.json").read_text())
    assert payload["study"] == "quadrature"
    assert len(payload["cases"]) == 1
    assert sha256(tmp_path / "quadrature.json") == QUADRATURE_DIGEST


def _refuse_rename(src, dst):
    raise OSError("rename refused")


def test_atomic_write_keeps_the_old_file_when_the_rename_fails(tmp_path, monkeypatch):
    """A failed rename leaves the target's old bytes, removes the temporary
    file and raises."""
    from ancontour._jsonio import atomic_write_text

    target = tmp_path / "out.json"
    target.write_text("old")
    monkeypatch.setattr(os, "replace", _refuse_rename)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write_text(str(target), "new")
    assert target.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.json"]


def test_failed_write_is_usage_error(tmp_path, capsys, monkeypatch):
    """A write that raises OSError exits 2 naming the path, prints no
    summary and leaves no file."""
    config = write_config(tmp_path, CIRCLE_CONFIG)
    out = tmp_path / "out"
    monkeypatch.setattr(os, "replace", _refuse_rename)
    code, values, err = run_cli(["contour", "--config", config, "--out", str(out)], capsys)
    assert code == 2
    assert err == f"error: cannot write {out / 'contour.json'}: rename refused\n"
    assert values == {}
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("argv,config,out", [
    (["example", "severini"], None, "FILE/sub"),
    (["example", "circle2d"], None, "FILE"),
    (["verify"], {"study": "quadrature"}, "FILE"),
    (["verify"], {"study": "ancillarity-order", "family": "circle"}, "FILE/sub"),
    (["verify"], {"study": "partition-order"}, "FILE"),
    (["contour"], CIRCLE_CONFIG, "FILE"),
    (["frame"], FRAME_CONFIG, "FILE/sub"),
], ids=["example-under-a-file", "example-with-a-fit-onto-a-file", "verify-quadrature-onto-a-file",
        "verify-order-under-a-file", "verify-partition-onto-a-file", "contour-onto-a-file",
        "frame-under-a-file"])
def test_unwritable_out_is_usage_error(argv, config, out, tmp_path, capsys, monkeypatch):
    """An --out that is a regular file, or lies under one, exits 2 naming
    the path before any study runs or any fit is made, with no traceback and
    no file written."""
    import ancontour.estimation as est
    from ancontour.montecarlo import _STUDIES

    for spec_type in _STUDIES.values():
        monkeypatch.setattr(spec_type, "run", lambda self: pytest.fail("the study ran"))
    monkeypatch.setattr(est, "_newton", lambda *a, **k: pytest.fail("a fit ran"))
    path = write_config(tmp_path, config or {"study": "quadrature"})
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = out.replace("FILE", str(blocker))
    code, _, err = run_cli(argv + (["--config", path] if config else []) + ["--out", out], capsys)
    assert code == 2
    assert f"cannot write {out}{os.sep}" in err
    assert "Traceback" not in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["config.json", "file"]
    assert blocker.read_text() == ""


def test_verify_order_study_with_overrides(tmp_path, capsys):
    """The config's keys override the study's defaults; its reps key is the
    one way to set the replication count."""
    study = {"study": "ancillarity-order", "family": "circle",
             "n_grid": [8, 16], "deltas": [1.0], "reps": 200, "batch_size": 100}
    config = write_config(tmp_path, study)
    code, values, _ = run_cli(["verify", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "ancillarity-order.json").read_text())
    assert payload["reps"] == 200

    config = write_config(tmp_path, {**study, "reps": 300})
    code, _, _ = run_cli(["verify", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "ancillarity-order.json").read_text())
    assert payload["reps"] == 300


def test_verify_partition_order(tmp_path, capsys):
    config = write_config(tmp_path, {
        "study": "partition-order", "n_grid": [16, 64], "draws": 3})
    code, values, _ = run_cli(["verify", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    assert "slope" in values
    payload = json.loads((tmp_path / "partition-order.json").read_text())
    assert payload["n_grid"] == [16, 64]
    means = payload["mean_discrepancy"]
    assert means[0] > means[1] > 0


@pytest.mark.parametrize("payload,key", [
    ({"study": "partition-order", "n_grid": [16, 32], "draws": 1, "t1_std": 1e-300}, "slope"),
    ({"study": "ancillarity-order", "family": "location-scale", "n_grid": [8, 16], "reps": 200},
     "slope_second_order"),
], ids=["partition-order", "ancillarity-order"])
def test_verify_prints_a_null_slope_as_none(payload, key, tmp_path, capsys):
    """A slope with no value (zero discrepancies, zero sensitivities) is
    spelled none on stdout by every study, and is null in the JSON file."""
    config = write_config(tmp_path, payload)
    code, values, _ = run_cli(["verify", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 0
    assert values[key] == "none"
    assert '"slope":null' in (tmp_path / f"{payload['study']}.json").read_text()


@pytest.mark.parametrize("payload,report", [
    ({"study": "quadrature", "c_values": [1.0], "a_points": 21},
     lambda: ancontour.quadrature_first_derivative(
         ancontour.QuadratureSpec(c_values=(1.0,), a_points=21))),
    (ORDER_BASE, lambda: ancontour.run_replicated(ancontour.OrderStudySpec(
        family="circle", n_grid=(8, 16), deltas=(1.0,), reps=200, batch_size=100))),
    ({"study": "partition-order", "n_grid": [16, 64], "draws": 2},
     lambda: ancontour.partition_order_study(
         ancontour.PartitionOrderSpec(n_grid=(16, 64), draws=2))),
], ids=["quadrature", "ancillarity-order", "partition-order"])
def test_verify_is_the_study_at_its_defaults(payload, report, tmp_path, capsys):
    """The config's keys go to the public study function and the study's own
    defaults fill the rest, so the file is the library report's JSON."""
    config = write_config(tmp_path, payload)
    assert run_cli(["verify", "--config", config, "--out", str(tmp_path)], capsys)[0] == 0
    assert (tmp_path / f"{payload['study']}.json").read_text() == dumps(report())


@pytest.mark.parametrize("payload", [
    {**ORDER_BASE, "seed": 3},
    {"study": "partition-order", "n_grid": [16, 64], "draws": 2, "seed": 3},
], ids=["ancillarity-order", "partition-order"])
def test_verify_seed_flag_is_the_config_seed(payload, tmp_path, capsys):
    """--seed S takes the place of the config's seed: the file is the one a
    config with "seed": S writes."""
    name = f"{payload['study']}.json"
    flagged = write_config(tmp_path, payload, "flagged.json")
    keyed = write_config(tmp_path, {**payload, "seed": 7}, "keyed.json")
    assert run_cli(["verify", "--config", flagged, "--seed", "7",
                    "--out", str(tmp_path / "flag")], capsys)[0] == 0
    assert run_cli(["verify", "--config", keyed, "--out", str(tmp_path / "key")], capsys)[0] == 0
    assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "key" / name).read_bytes()


def test_verify_config_errors(tmp_path, capsys):
    unknown_study = write_config(tmp_path, {"study": "bootstrap"})
    assert run_cli(["verify", "--config", unknown_study,
                    "--out", str(tmp_path)], capsys)[0] == 2

    listed = write_config(tmp_path, {"study": ["quadrature"]})
    code, _, err = run_cli(["verify", "--config", listed, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err == ("error: config key 'study' must be one of ['quadrature', "
                   "'ancillarity-order', 'partition-order'], got ['quadrature']\n")

    for study in ("quadrature", "partition-order", "ancillarity-order"):
        bad_key = write_config(tmp_path, {"study": study, "bogus": 1})
        code, _, err = run_cli(["verify", "--config", bad_key, "--out", str(tmp_path)], capsys)
        assert code == 2
        assert err == "error: unknown study keys: ['bogus']\n"

    bad_reps = write_config(tmp_path, {
        "study": "ancillarity-order", "family": "circle", "reps": 0})
    assert run_cli(["verify", "--config", bad_reps,
                    "--out", str(tmp_path)], capsys)[0] == 2
    assert not any(p.name.endswith(".json") and p.name != "config.json"
                   for p in tmp_path.iterdir()
                   if not p.name.startswith(("config", "bootstrap")))


def test_verify_names_a_theta_star_that_rounding_swallows(tmp_path, capsys):
    config = write_config(tmp_path, {"study": "ancillarity-order", "family": "location-scale",
                                     "theta_star": 1e15, "reps": 200})
    code, _, err = run_cli(["verify", "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert err.startswith("error: 'theta_star' = 1000000000000000.0 is too large")


def test_verify_csv_format(tmp_path, capsys):
    config = write_config(tmp_path, {
        "study": "partition-order", "n_grid": [16, 64], "draws": 3})
    code, _, _ = run_cli(["verify", "--config", config, "--out", str(tmp_path),
                          "--format", "csv"], capsys)
    assert code == 0
    lines = (tmp_path / "partition-order.csv").read_text().splitlines()
    assert lines[0] == "n,mean_discrepancy"
    assert len(lines) == 3


def test_simulated_data_seed_precedence(tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"family": "location-scale", "n": 6},
        "data": {"simulate": {"theta": [0.0, 1.0], "seed": 11}},
    })
    base_args = ["contour", "--config", config, "--out", str(tmp_path)]
    code, values_a, _ = run_cli(base_args, capsys)
    assert code == 0
    code, values_b, _ = run_cli(base_args, capsys)
    assert values_a["theta_hat"] == values_b["theta_hat"]
    code, values_c, _ = run_cli(base_args + ["--seed", "12"], capsys)
    assert code == 0
    assert values_c["theta_hat"] != values_a["theta_hat"]


NO_SCIPY_SCRIPT = """
import sys
import numpy as np
from ancontour import cli, estimation, make_circle, make_location_scale
out, contour, frame, *studies = sys.argv[1:]
runs = [["contour", "--config", contour], ["frame", "--config", frame]]
runs += [["example", name] for name in ("circle2d", "location-scale", "nonlinreg-known",
                                        "nonlinreg-unknown", "severini", "cauchy-inversion")]
runs += [["verify", "--config", study] for study in studies]
for argv in runs:
    assert cli.main(argv + ["--out", out]) == 0, argv
# damped Newton steps: fits from starts whose Newton matrix is not positive
# definite (p = 1 and p = 2), and a batch with a row on which undamped Newton stalls
circle = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
y = circle.quantile(circle.ref_sampler(101, 1)[0], np.array([0.3]))
assert estimation.fit_mle(circle, y, init=np.array([2.0])).iterations > 1
cauchy = make_location_scale(4, error_law="cauchy")
y = cauchy.quantile(cauchy.ref_sampler(42, 1)[0], np.array([0.3, 1.1]))
assert estimation.fit_mle(cauchy, y, init=np.array([4.0, 1.0])).iterations > 1
hard = [-0.760033411767359, 2.0551768100006615, -2.0417065446907747, -0.7852925465289906]
ys = np.array([y, hard])
assert estimation._newton(cauchy, ys, cauchy.start(ys))[3].tolist() == [True, True]
estimation._fit_points(cauchy, ys, cauchy.start(ys))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_without_scipy_load_no_scipy(tmp_path):
    """No command needs scipy: every CLI command, the inversion example and the
    order studies included, and fits that take damped Newton steps run
    without importing it."""
    configs = [write_config(tmp_path, CIRCLE_CONFIG, "contour-config.json"),
               write_config(tmp_path, FRAME_CONFIG, "frame-config.json"),
               write_config(tmp_path, {"study": "quadrature"}, "quadrature-config.json"),
               write_config(tmp_path, {"study": "partition-order", "n_grid": [16, 64],
                                       "draws": 2}, "partition-config.json"),
               write_config(tmp_path, ORDER_BASE, "order-circle-config.json"),
               write_config(tmp_path, {**ORDER_BASE, "family": "location-scale"},
                            "order-ls-config.json")]
    src = os.path.dirname(os.path.dirname(ancontour.__file__))
    result = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, str(tmp_path / "out"), *configs],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "[]"


def test_cli_import_loads_no_statistics():
    """statistics (with fractions and decimal, about 4 ms) is imported by the
    location-scale order study only, not by every CLI process."""
    src = os.path.dirname(os.path.dirname(ancontour.__file__))
    result = subprocess.run(
        [sys.executable, "-c", "import sys, ancontour.cli; print('statistics' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


MODULES_SCRIPT = """
import json, sys

def loaded():
    return sorted(name for name in sys.modules if name.startswith("ancontour.") or name == "numpy")

import ancontour
seen = [loaded()]
from ancontour.cli import main
for argv in json.loads(sys.argv[1]):
    assert main(argv) == 0, argv
    seen.append(loaded())
print(json.dumps(seen))
"""
POINT_MODULES = {"ancontour." + name for name in (
    "cli", "_jsonio", "errors", "models", "estimation", "diffgeo", "ancillary")} | {"numpy"}
STUDY_MODULES = {"ancontour." + name for name in (
    "cli", "_jsonio", "errors", "montecarlo")} | {"numpy"}


def loaded_modules(runs):
    """The ancontour submodules (and numpy) in sys.modules after a bare
    `import ancontour`, then after each CLI run in turn, in one fresh interpreter."""
    src = os.path.dirname(os.path.dirname(ancontour.__file__))
    result = subprocess.run([sys.executable, "-c", MODULES_SCRIPT, json.dumps(runs)],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return [set(names) for names in json.loads(result.stdout.splitlines()[-1])]


def test_point_commands_load_no_study_code(tmp_path):
    """`import ancontour` loads no submodule and no numpy; every example,
    contour and frame command loads the model, fit, frame and contour code
    it runs, and never montecarlo."""
    out = ["--out", str(tmp_path / "out")]
    runs = [["example", name, *out] for name in EXAMPLES]
    runs += [[command, "--config", write_config(tmp_path, payload, f"{command}.json"), *out]
             for command, payload in (("contour", CIRCLE_CONFIG), ("frame", FRAME_CONFIG))]
    bare, *after = loaded_modules(runs)
    assert bare == set()
    for argv, names in zip(runs, after):
        assert names == POINT_MODULES, argv


@pytest.mark.parametrize("payload,extra", [
    ({"study": "quadrature"}, set()),
    ({**ORDER_BASE, "family": "location-scale"}, {"ancontour.models"}),
], ids=["quadrature", "order-location-scale"])
def test_verify_studies_load_only_what_they_run(payload, extra, tmp_path):
    """The quadrature study loads no model, fit, frame or contour code; the
    location-scale order study adds the models only."""
    config = write_config(tmp_path, payload)
    bare, after = loaded_modules([["verify", "--config", config, "--out", str(tmp_path)]])
    assert bare == set()
    assert after == STUDY_MODULES | extra


def test_package_namespace_loads_names_on_first_use():
    """Each public name is the object its module defines, each module's
    __all__ is its _EXPORTS entry itself, dir() and `import *` cover them,
    a submodule is reachable from a bare import, and an unknown name is an
    AttributeError naming it."""
    for name in ancontour.__all__[1:]:
        value = getattr(ancontour, name)
        assert value.__module__.startswith("ancontour."), name
        assert getattr(sys.modules[value.__module__], name) is value, name
    for module, names in ancontour._EXPORTS.items():
        mod = importlib.import_module(f"ancontour.{module}")
        # errors has no __all__: it exports every class it defines
        defined = [k for k, v in vars(mod).items()
                   if isinstance(v, type) and v.__module__ == mod.__name__]
        assert tuple(getattr(mod, "__all__", defined)) == names, module
        if module != "errors":
            assert mod.__all__ is names, module
    assert ancontour.__all__[0] == "__version__"
    assert len(set(ancontour.__all__)) == len(ancontour.__all__)
    assert set(ancontour.__all__) <= set(dir(ancontour))
    namespace = {}
    exec("from ancontour import *", namespace)
    assert set(ancontour.__all__) <= set(namespace)
    with pytest.raises(AttributeError, match="no_such_name"):
        ancontour.no_such_name
    src = os.path.dirname(os.path.dirname(ancontour.__file__))
    result = subprocess.run(
        [sys.executable, "-c", "import ancontour; print(ancontour.montecarlo.__name__)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "ancontour.montecarlo"


def test_ancillary_and_estimation_never_compare_a_family_name():
    """Exact ancillaries, circles and fits are found through what each model
    declares: no comparison in ancillary.py or estimation.py has a .family
    attribute as an operand, so none tests a family name."""
    package = pathlib.Path(ancontour.__file__).parent
    for name in ("ancillary.py", "estimation.py"):
        path = package / name
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Compare):
                operands = [node.left, *node.comparators]
                assert not any(isinstance(op, ast.Attribute) and op.attr == "family"
                               for op in operands), f"{name}:{node.lineno}"


def test_one_module_decides_the_json_format():
    """The output format is decided in _jsonio alone: no other module names
    encode_array, and no to_json_dict elsewhere converts values with a
    comprehension over float(...)."""
    package = pathlib.Path(ancontour.__file__).parent
    comprehensions = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
    for path in sorted(package.glob("*.py")):
        if path.name == "_jsonio.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            assert not (isinstance(node, ast.Name) and node.id == "encode_array"
                        or isinstance(node, ast.Attribute) and node.attr == "encode_array"
                        or isinstance(node, ast.alias) and node.name == "encode_array"), (
                f"{path.name}:{getattr(node, 'lineno', '')}")
            if isinstance(node, ast.FunctionDef) and node.name == "to_json_dict":
                for comp in filter(lambda n: isinstance(n, comprehensions), ast.walk(node)):
                    assert not any(isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                                   and call.func.id == "float" for call in ast.walk(comp)), (
                        f"{path.name}:{comp.lineno}")


RECORD_TYPES = [value for module in ("ancillary", "diffgeo", "estimation", "models", "montecarlo")
                for value in vars(importlib.import_module(f"ancontour.{module}")).values()
                if isinstance(value, type) and issubclass(value, tuple)
                and value.__module__ == f"ancontour.{module}"]


@pytest.mark.parametrize("cls", RECORD_TYPES, ids=lambda cls: cls.__name__)
def test_records_refuse_attribute_assignment(cls):
    """Every result and spec type of the package is an immutable NamedTuple:
    neither a field nor a new attribute can be set on an instance."""
    obj = cls._make([None] * len(cls._fields))
    with pytest.raises(AttributeError):
        setattr(obj, cls._fields[0], 1.0)
    with pytest.raises(AttributeError):
        obj.extra = 1.0


def test_nested_records_encode_as_json_objects():
    """A record is a tuple, but inside a list or a dict it is still written
    as a JSON object of its fields, not as a JSON list."""
    from ancontour.ancillary import GridSpec

    grid = {"half_width": 2.0, "points_per_axis": 5, "standardized": False}
    text = dumps({"grids": [GridSpec(**grid)], "by_name": {"g": GridSpec(**grid)}})
    assert json.loads(text) == {"grids": [grid], "by_name": {"g": grid}}


DATACLASSES_SCRIPT = """
import dataclasses, sys
import ancontour.cli, ancontour.ancillary, ancontour.montecarlo
print(sorted(f"{name}.{attr}" for name, module in list(sys.modules.items())
             if name.startswith("ancontour") for attr, value in vars(module).items()
             if isinstance(value, type) and dataclasses.is_dataclass(value)
             and value.__module__ == name))
"""


def test_quantile_model_is_the_only_dataclass():
    """Defining a dataclass costs 0.5-1.3 ms of start-up each, so the 19
    other types the CLI modules load are NamedTuples."""
    src = os.path.dirname(os.path.dirname(ancontour.__file__))
    result = subprocess.run([sys.executable, "-c", DATACLASSES_SCRIPT],
                            env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                            text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "['ancontour.models.QuantileModel']"
    assert len(RECORD_TYPES) == 19


def test_jsonio_exports_the_output_layer_only():
    """A profiler that wraps every name in __all__ times the output layer,
    not each config value check."""
    from ancontour import _jsonio

    assert _jsonio.__all__ == ["encode_array", "record", "dumps", "atomic_write_text",
                               "csv_lines"]


def test_config_float_accepts_finite_numbers_only():
    assert config_float(2, "k") == 2.0 and type(config_float(2, "k")) is float
    assert config_float(np.float64(-0.5), "k") == -0.5
    for bad in (True, "1.0", [1.0], None, math.nan, math.inf, -math.inf, 10 ** 400):
        with pytest.raises(ancontour.InvalidParameterError, match="'k' must be a finite number"):
            config_float(bad, "k")


def test_config_block_types_each_value_by_its_default():
    """A declared default types its key and fills it in when absent; a type
    (a tuple of one, for a list) makes the key required; None and object
    take any value; lists become tuples, with every entry typed."""
    declared = {"n": int, "ys": (float,), "rho": 1.0, "ns": (16,), "on": True, "tag": "",
                "sub": {}, "any": None, "anything": object}
    block = {"n": 3, "ys": [1, 2.5], "ns": range(2, 4), "any": [1], "anything": "x"}
    assert config_block(block, declared, "b", ns=2) == {
        "n": 3, "ys": (1.0, 2.5), "rho": 1.0, "ns": (2, 3), "on": True, "tag": "", "sub": {},
        "any": [1], "anything": "x"}
    for change, message in (
            ({"n": 3.0}, "'n' must be an integer, got 3.0"),
            ({"ns": [1]}, "'ns' must be an integer >= 2, got 1"),
            ({"ys": "12"}, "'ys' must be a list, got '12'"),
            ({"ys": {"a": 1}}, "'ys' must be a list, got {'a': 1}"),
            ({"ys": [1, True]}, "'ys' must be a finite number, got True"),
            ({"on": 1}, "'on' must be true or false, got 1"),
            ({"tag": 0}, "'tag' must be a string, got 0"),
            ({"sub": []}, "'sub' must be an object, got []"),
            ({"extra": 1, "other": 2}, "unknown b keys: ['extra', 'other']")):
        with pytest.raises(ancontour.InvalidParameterError, match=re.escape(message)):
            config_block({**block, **change}, declared, "b", ns=2)
    for bad, message in (({"anything": None}, "missing b keys: ['n', 'ys']"),
                         ([], "'b' must be an object, got []")):
        with pytest.raises(ancontour.InvalidParameterError, match=re.escape(message)):
            config_block(bad, declared, "b")


def test_one_line_search_holds_the_halving_scales():
    """The Newton fit and the contour distance share one line search:
    _SCALES is read (or imported) only inside estimation._line_search, and no
    function defines a nested backtrack of its own."""
    readers, nested = set(), []

    def visit(node, name, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if scope is not None and child.name == "backtrack":
                    nested.append(f"{name}:{child.lineno}")
                visit(child, name, child.name)
                continue
            if ((isinstance(child, ast.Name) and child.id == "_SCALES"
                 and isinstance(child.ctx, ast.Load))
                    or (isinstance(child, ast.Attribute) and child.attr == "_SCALES")
                    or (isinstance(child, ast.alias) and child.name == "_SCALES")):
                readers.add((name, scope))
            visit(child, name, scope)

    for path in sorted(pathlib.Path(ancontour.__file__).parent.glob("*.py")):
        visit(ast.parse(path.read_text(), str(path)), path.name, None)
    assert readers == {("estimation.py", "_line_search")}
    assert nested == []



# module -> the functions of the per-dataset pipeline (fit, frame, contour,
# partition check), each checked with the functions nested in it
HOT_FUNCTIONS = {
    "models.py": {"check_theta", "check_point", "_normal_law", "_cauchy_law", "_affine_model",
                  "_moments", "_moment_fit", "make_location_scale", "eta_circle",
                  "_regression_start"},
    "estimation.py": {"_likelihood", "_values", "_newton", "_newton_system", "_line_search",
                      "_fit_points", "_rank_gate", "standardize"},
    "ancillary.py": {"_sweep", "_check_fit", "contour_min_distance", "_partition_pass",
                     "compare_exact"},
    "diffgeo.py": {"_split"},
}
NUMPY_WRAPPERS = {"all", "any", "mean", "median", "percentile", "swapaxes", "max", "min", "sum",
                  "trace"}
# ndarray methods that run a Python wrapper of numpy's _methods module before the ufunc
# reduction it wraps: x.all(), x.sum(axis=1) and the like
WRAPPED_METHODS = {"all", "any", "sum", "max", "min", "mean"}
# refused in the fit, standardization and refinement (the estimation and ancillary functions
# above) as well: array builders written in Python, and np.linalg, whose gufuncs estimation
# calls directly; diffgeo._split keeps its one svd and one inv
BUILDERS = {"eye", "full", "atleast_2d"}


def test_hot_path_calls_no_numpy_wrapper():
    """The pipeline's functions call the ndarray methods, ufunc reductions and
    LAPACK gufuncs that numpy's module-level wrappers dispatch to, not the
    wrappers, whose Python overhead outweighs the arithmetic on arrays of a
    few numbers; nor the ndarray methods all, any, sum, max, min and mean,
    which go through such a wrapper too (np.logical_and.reduce, np.add.reduce
    and the other ufunc reductions are the same kernels without it)."""
    root, calls = pathlib.Path(ancontour.__file__).parent, []
    for module, names in HOT_FUNCTIONS.items():
        functions = [node for node in ast.walk(ast.parse((root / module).read_text()))
                     if isinstance(node, ast.FunctionDef) and node.name in names]
        assert {f.name for f in functions} == names
        strict = module in ("estimation.py", "ancillary.py")
        refused = {f"np.{w}" for w in NUMPY_WRAPPERS | (BUILDERS if strict else set())}
        for node in (node for f in functions for node in ast.walk(f)):
            name = ast.unparse(node.func) if isinstance(node, ast.Call) else ""
            if (name in refused or strict and name.startswith("np.linalg.")
                    or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr in WRAPPED_METHODS):
                calls.append(f"{module}:{node.lineno} {name}")
    assert calls == []

FAILING_PROPERTY = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_property_fails(x):
    assert x != x


def test_plain():
    pass
"""


def test_failing_property_fails_alone(tmp_path):
    """Under the package's pytest settings (every warning an error) a failing
    hypothesis property fails by itself: its report raises no INTERNALERROR
    that ends the test run, so the plain test after it still runs and passes."""
    (tmp_path / "test_two.py").write_text(FAILING_PROPERTY)
    pyproject = pathlib.Path(ancontour.__file__).parents[2] / "pyproject.toml"
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(pyproject), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", str(tmp_path / "test_two.py")],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "PASSED test_two.py::test_plain" in result.stdout
    assert "1 failed, 1 passed" in result.stdout


def test_package_imports_and_declares_numpy_only():
    """No module of the package imports scipy, and numpy is the only runtime
    dependency in pyproject.toml (scipy is in the test extra)."""
    tomllib = pytest.importorskip("tomllib")
    package = pathlib.Path(ancontour.__file__).parent
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(name.split(".")[0] == "scipy" for name in names), path.name
    pyproject = package.parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [dep.split(">")[0] for dep in project["dependencies"]] == ["numpy"]
    assert any(dep.startswith("scipy") for dep in project["optional-dependencies"]["test"])
