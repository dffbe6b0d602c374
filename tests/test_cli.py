"""Command line behavior: outputs, formats, exit codes, determinism."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import ancontour
from ancontour.cli import main

EXAMPLES = ("circle2d", "location-scale", "nonlinreg-known",
            "nonlinreg-unknown", "severini", "cauchy-inversion")


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

# the contour/frame config shown in README.md, copied verbatim
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
    config = tmp_path / "contour.json"
    config.write_text(README_CONFIG)
    code, values, _ = run_cli([command, "--config", str(config),
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    assert values["wrote"] == str(tmp_path / f"{command}.json")


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


@pytest.mark.parametrize("command,payload,key", [
    ("contour", {**CIRCLE_CONFIG, "grid": {"points_per_axis": 41.0}}, "points_per_axis"),
    ("contour", {"model": {"family": "location-scale", "n": 3.7},
                 "data": {"simulate": {"theta": [0.0, 1.0]}}}, "'n'"),
    ("verify", {"study": "quadrature", "a_points": 0}, "a_points"),
    ("verify", {**ORDER_BASE, "cells": 8.0}, "cells"),
    ("verify", {**ORDER_BASE, "reps": 100.5}, "reps"),
    ("verify", {**ORDER_BASE, "n_grid": [8.5]}, "n_grid"),
    ("verify", {**ORDER_BASE, "lattice_points": 2}, "lattice_points"),
    ("verify", {"study": "partition-order", "draws": 0}, "draws"),
    ("verify", {"study": "partition-order", "n_grid": [1]}, "n_grid"),
    ("verify", {"study": "partition-order", "n_grid": [16]}, "n_grid"),
    ("verify", {"study": "partition-order", "n_grid": [16, 16]}, "n_grid"),
    ("verify", {**ORDER_BASE, "n_grid": [16, 16]}, "n_grid"),
    ("verify", {**ORDER_BASE, "family": "location-scale", "n_grid": [2, 8]}, "n_grid"),
], ids=["grid-points-float", "model-n-float", "quadrature-a_points-0", "order-cells-float",
        "order-reps-float", "order-n_grid-float", "order-lattice_points-2",
        "partition-draws-0", "partition-n_grid-1", "partition-single-n",
        "partition-repeated-n", "order-repeated-n", "order-ls-n-2"])
def test_bad_config_number_is_usage_error(command, payload, key, tmp_path, capsys):
    """Non-integer or out-of-range numbers are rejected before any work, naming the key."""
    config = write_config(tmp_path, payload)
    code, _, err = run_cli([command, "--config", config, "--out", str(tmp_path)], capsys)
    assert code == 2
    assert key in err
    assert "Traceback" not in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


@pytest.mark.parametrize("payload", [
    {"draws": 0}, {"draws": 2.5}, {"n_grid": [16.0, 64]}, {"seed": -1},
], ids=["draws-0", "draws-float", "n_grid-float", "seed-negative"])
def test_partition_order_config_error_carries_the_study_message(payload, tmp_path, capsys):
    """A bad n_grid, draws or seed is checked by the study's own rules: exit 2
    with the message partition_order_study raises, before any output."""
    with pytest.raises(ancontour.AncontourError) as expected:
        ancontour.partition_order_study(**payload)
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
], ids=["example-grid", "example-reps", "contour-reps", "verify-grid",
        "verify-quadrature-reps", "verify-partition-reps"])
def test_flag_on_subcommand_that_ignores_it_is_usage_error(argv, flag, payload, tmp_path,
                                                           capsys):
    """--grid belongs to contour and frame, --reps to the ancillarity-order study;
    elsewhere they exit 2."""
    config = write_config(tmp_path, payload)
    argv = [config if a == "CONFIG" else a for a in argv]
    code, _, err = run_cli(argv + ["--out", str(tmp_path)], capsys)
    assert code == 2
    assert flag in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.json"]


def test_contour_grid_flag_overrides_config(tmp_path, capsys):
    config = write_config(tmp_path, CIRCLE_CONFIG)
    code, values, _ = run_cli(["contour", "--config", config,
                               "--out", str(tmp_path), "--grid", "1.0,5"],
                              capsys)
    assert code == 0
    assert int(values["points"]) == 5


@pytest.mark.parametrize("data_block", [
    {},
    {"y": [1.0, 0.5], "file": "extra.txt"},
    {"y": [1.0, 0.5], "bogus": 1},
    {"simulate": {"theta": [0.0], "seed": 1, "extra": 2}},
])
def test_contour_bad_data_block_is_usage_error(data_block, tmp_path, capsys):
    config = write_config(tmp_path, {
        "model": {"family": "circle2d", "rho": 1.0},
        "data": data_block,
    })
    code, _, err = run_cli(["contour", "--config", config,
                            "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "error" in err
    assert not (tmp_path / "contour.json").exists()


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


def test_verify_order_study_with_overrides(tmp_path, capsys):
    config = write_config(tmp_path, {
        "study": "ancillarity-order", "family": "circle",
        "n_grid": [8, 16], "deltas": [1.0], "reps": 200, "batch_size": 100})
    code, values, _ = run_cli(["verify", "--config", config,
                               "--out", str(tmp_path)], capsys)
    assert code == 0
    payload = json.loads((tmp_path / "ancillarity-order.json").read_text())
    assert payload["reps"] == 200

    code, _, _ = run_cli(["verify", "--config", config, "--out", str(tmp_path),
                          "--reps", "300"], capsys)
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


def test_verify_partition_order_is_the_study_at_its_defaults(tmp_path, capsys):
    """The config's keys go to partition_order_study and the study's own
    defaults fill the rest, so the file is the library report's JSON."""
    config = write_config(tmp_path, {"study": "partition-order", "n_grid": [16, 64], "draws": 2})
    assert run_cli(["verify", "--config", config, "--out", str(tmp_path)], capsys)[0] == 0
    expected = ancontour.partition_order_study(n_grid=(16, 64), draws=2).to_json()
    assert (tmp_path / "partition-order.json").read_text() == expected


def test_verify_config_errors(tmp_path, capsys):
    unknown_study = write_config(tmp_path, {"study": "bootstrap"})
    assert run_cli(["verify", "--config", unknown_study,
                    "--out", str(tmp_path)], capsys)[0] == 2

    bad_key = write_config(tmp_path, {"study": "quadrature", "bogus": 1})
    assert run_cli(["verify", "--config", bad_key,
                    "--out", str(tmp_path)], capsys)[0] == 2

    bad_reps = write_config(tmp_path, {
        "study": "ancillarity-order", "family": "circle", "reps": 0})
    assert run_cli(["verify", "--config", bad_reps,
                    "--out", str(tmp_path)], capsys)[0] == 2
    assert not any(p.name.endswith(".json") and p.name != "config.json"
                   for p in tmp_path.iterdir()
                   if not p.name.startswith(("config", "bootstrap")))


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
out, contour, *studies = sys.argv[1:]
runs = [["contour", "--config", contour], ["frame", "--config", contour]]
runs += [["example", name] for name in ("circle2d", "location-scale", "nonlinreg-known",
                                        "nonlinreg-unknown", "severini", "cauchy-inversion")]
runs += [["verify", "--config", study] for study in studies]
for argv in runs:
    assert cli.main(argv + ["--out", out]) == 0, argv
# the damped rescue: fits cut off after one Newton step (p = 1 and p = 2) and
# a batch with a row whose Newton line search fails
circle = make_circle(1.0, n=2, variance_scale=1.0 / 64.0)
y = circle.quantile(circle.ref_sampler(101, 1)[0], np.array([0.3]))
assert estimation.fit_mle(circle, y, init=np.array([1.0]), max_iterations=1).iterations > 1
cauchy = make_location_scale(4, error_law="cauchy")
y = cauchy.quantile(cauchy.ref_sampler(42, 1)[0], np.array([0.3, 1.1]))
assert estimation.fit_mle(cauchy, y, max_iterations=1).iterations > 1
hard = [-0.760033411767359, 2.0551768100006615, -2.0417065446907747, -0.7852925465289906]
ys = np.array([y, hard])
assert estimation._newton(cauchy, ys, cauchy.start(ys))[3].tolist() == [True, False]
estimation._fit_points(cauchy, ys, cauchy.start(ys))
print(sorted(name for name in sys.modules if name.split(".")[0] == "scipy"))
"""


def test_commands_without_scipy_load_no_scipy(tmp_path):
    """No command needs scipy: every CLI command, the inversion example and the
    order studies included, and every fit that ends in the damped rescue run
    without importing it."""
    configs = [write_config(tmp_path, CIRCLE_CONFIG, "contour-config.json"),
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
