"""Benchmark of ancontour: CLI time-to-result, verify-study times, in-process fit throughput.

Run from the root of a checkout (it builds nothing; it imports ``src/``):

    python3 perfbench/run.py --workload cli-examples --seed 1 --seconds 12 --trace 0

Workloads, each a closed loop with one client (the next operation starts when
the previous one returns) and every package ``workers`` argument at 1:

* ``cli-examples``: the six ``ancontour example`` commands, ``contour`` on a
  circle2d config with grid 3.0,41 and ``frame`` on a circle2d config, each a
  fresh subprocess.  Start-up and result writing dominate.
* ``cli-verify``: four ``ancontour verify`` subprocesses: quadrature,
  partition-order and the circle order study at their defaults, and the
  location-scale order study at n_grid [16, 32, 64], 500 reps.  The Monte
  Carlo studies dominate.
* ``fit-batch``: seeded datasets of five families run in this process
  through fit_mle -> build_contour -> compare_exact -> partition_check.  No
  start-up, no writes, no Monte Carlo.

A run fills the bytecode and file caches with one untimed pass, then runs
whole passes until ``--seconds`` have elapsed.  With ``--trace 0`` it reports
the end-to-end metrics; with ``--trace 1`` it runs the CLI workloads in
process through ``ancontour.cli.main``, times one untraced pass, then traced
passes, and reports per-layer metrics per traced pass (see tracing.py).  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it repeat the
metrics for people, with the unscaled times.  The run exits non-zero,
printing no result, when the checkout holds no ``src/ancontour``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import Counter
from importlib import metadata
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli-examples", "cli-verify", "fit-batch")
SETUP_REPS = 3
SETUP_TIMEOUT_S = 60

# Reference tasks that no change to ancontour can move: a fresh interpreter
# importing numpy (for subprocess timings) and a loop of small numpy and
# Python operations (for in-process timings).  Nominal times are their
# medians on the 2-core virtual machine of perfbench/baseline.json.
REF_PROCESS_CODE = "import numpy"
REF_PROCESS_S = 0.15
REF_KERNEL_S = 0.013

END_TO_END = {
    "setup_s": "s",        # fresh interpreter until `import ancontour` returns (+ models for fit-batch)
    "wall_s": "s",         # one pass, from the median time of each kind of operation
    "op_geomean_s": "s",   # geometric mean over operation kinds of their median times
    "peak_rss_mb": "MB",   # peak resident set of the commands, or of this process
}

PER_LAYER = {
    "cli.import_s": "s",
    "cli.main.calls": "count",
    "cli.main.self_s": "s",
    "jsonio.atomic_write_text.calls": "count",
    "jsonio.atomic_write_text.bytes": "B",
    "jsonio.atomic_write_text.self_s": "s",
    "jsonio.dumps.self_s": "s",
    "models.eval.calls": "count",
    "models.eval.self_s": "s",
    "estimation.fit_mle.calls": "count",
    "estimation.fit_mle.self_s": "s",
    "estimation.fit_mle.fail": "count",
    "estimation.fit_mle.iterations": "count",
    "estimation.fitted_reference.self_s": "s",
    "estimation.score.self_s": "s",
    "estimation.observed_information.self_s": "s",
    "estimation.standardize.self_s": "s",
    "diffgeo.build_frame.calls": "count",
    "diffgeo.build_frame.self_s": "s",
    "ancillary.build_contour.calls": "count",
    "ancillary.build_contour.points": "count",
    "ancillary.build_contour.self_s": "s",
    "ancillary.partition_check.self_s": "s",
    "ancillary.contour_min_distance.calls": "count",
    "ancillary.contour_min_distance.self_s": "s",
    "ancillary.compare_exact.self_s": "s",
    "ancillary.severini_pivot_check.self_s": "s",
    "ancillary.cauchy_inversion_demo.self_s": "s",
    "montecarlo.run_replicated.self_s": "s",
    "montecarlo.run_replicated.labels": "count",
    "montecarlo.quadrature_first_derivative.self_s": "s",
    "montecarlo.partition_order_study.self_s": "s",
    "trace.wall_s": "s",           # one traced pass, in process
    "trace.untraced_wall_s": "s",  # one untraced pass, in process
    "trace.overhead_s": "s",       # trace.wall_s - trace.untraced_wall_s
    "trace.self_share": "ratio",   # sum of all span self times / trace.wall_s
}


class Reference:
    """A fixed task timed before and after each measurement.

    On a shared host the CPU's speed can drift by up to 2x over seconds to
    minutes.  A time t measured between reference samples r0 and r1 is
    therefore reported as t * nominal / ((r0 + r1) / 2): its length at the
    reference's nominal speed.  This removes most of the drift; memory-bound
    work (the KD-tree queries of the order studies) keeps more of it.
    """

    def __init__(self, task, nominal: float):
        self.task = task
        self.nominal = nominal
        self.samples = []

    def sample(self) -> float:
        start = perf_counter()
        self.task()
        seconds = perf_counter() - start
        self.samples.append(seconds)
        return seconds

    def scale(self, seconds: float, before: float, after: float) -> float:
        return seconds * self.nominal / (0.5 * (before + after))


def _kernel():
    import numpy as np

    a = np.array([[2.0, 0.3], [0.3, 1.0]])
    v = np.arange(8.0)
    total = 0.0
    for i in range(1200):
        w = float(np.log1p(v * v).sum())
        total += np.linalg.solve(a, np.array([w, 1.0]))[0] + len(str({"i": i, "w": w}))
    return total


class Ledger:
    """Attempted and failed operations, and the output digest of each label."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.digests = {}

    def record(self, results):
        for label, _, _, problems, digest in results:
            if digest is not None and self.digests.setdefault(label, digest) != digest:
                problems = problems + ["output bytes differ from the first pass"]
            self.attempted += 1
            if problems:
                self.failed += 1
                self.problems.append(f"{label}: {'; '.join(problems)}")


def run_pass(workload, in_process, reference=None, tracer=None, first_op=0):
    """One pass over the workload's operations; returns (wall seconds, results).

    Each result is (label, seconds, scaled seconds or None, problems, digest).
    """
    results = []
    before = reference.sample() if reference else None
    start = perf_counter()
    for i, op in enumerate(workload.ops):
        if tracer is not None:
            tracer.op_id = first_op + i
        seconds, problems, digest = workload.run_op(op, in_process, perf_counter)
        scaled = None
        if reference is not None:
            after = reference.sample()
            scaled = reference.scale(seconds, before, after)
            before = after
        results.append((op[0], seconds, scaled, problems, digest))
    return perf_counter() - start, results


def measure_setup(name, env, reference):
    """Fresh interpreters that import the package: (median scaled, median raw) seconds.

    The first, untimed start fills the bytecode cache of a fresh checkout.
    """
    if name == "fit-batch":
        code = "import fit_batch; fit_batch.build_models()"
        env = dict(env, PYTHONPATH=env["PYTHONPATH"] + os.pathsep + HERE)
    else:
        code = "import ancontour"
    raw, scaled = [], []
    before = reference.sample()
    for rep in range(SETUP_REPS + 1):
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], env=env, check=True,
                       capture_output=True, timeout=SETUP_TIMEOUT_S)
        seconds = perf_counter() - start
        after = reference.sample()
        if rep > 0:
            raw.append(seconds)
            scaled.append(reference.scale(seconds, before, after))
        before = after
    return statistics.median(scaled), statistics.median(raw)


def make_workload(name, seed, workdir, env):
    if name == "fit-batch":
        import fit_batch
        return fit_batch.FitBatch(seed)
    from cli_workloads import CliWorkload
    return CliWorkload(name, seed, workdir, env)


def _summary(ops, column):
    """wall_s and op_geomean_s from each operation kind's median time.

    A kind is one command, or one family of datasets.  Medians make a rare
    slow input harmless: about one Cauchy dataset in 150 takes the fit's
    100-iteration fallback and runs some 50x longer, and the per-kind
    maximum printed with the results shows it.  The geometric mean weighs
    every kind's relative change alike, however short the kind is.
    """
    by_kind, labels = {}, set()
    for r in ops:
        by_kind.setdefault(r[0].split("[")[0], []).append(r[column])
        labels.add(r[0])
    count = Counter(label.split("[")[0] for label in labels)
    medians = {k: statistics.median(v) for k, v in by_kind.items()}
    return {"wall_s": sum(count[k] * m for k, m in medians.items()),
            "op_geomean_s": statistics.geometric_mean(medians.values())}


def end_to_end(name, seed, seconds, workdir, env, ledger):
    """End-to-end metrics, scaled by the reference tasks; also returns the unscaled ones."""
    process_ref = Reference(
        lambda: subprocess.run([sys.executable, "-c", REF_PROCESS_CODE], env=env, check=True,
                               capture_output=True, timeout=SETUP_TIMEOUT_S),
        REF_PROCESS_S)
    setup_s, raw_setup_s = measure_setup(name, env, process_ref)
    workload = make_workload(name, seed, workdir, env)
    in_process = name == "fit-batch"
    reference = Reference(_kernel, REF_KERNEL_S) if in_process else process_ref
    ledger.record(run_pass(workload, in_process, reference)[1])  # warm-up, untimed

    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        results = run_pass(workload, in_process, reference)[1]
        ledger.record(results)
        passes.append(results)
    usage = resource.getrusage(resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN)
    ops = [r for results in passes for r in results]
    print(f"# passes={len(passes)} operations={len(ops)}")
    refs = {"process": process_ref, "kernel": reference} if in_process else {"process": process_ref}
    for kind, ref in refs.items():
        print(f"# reference {kind}: median {statistics.median(ref.samples):.4f} s "
              f"over {len(ref.samples)} samples, nominal {ref.nominal} s")
    for group in dict.fromkeys(r[0].split("[")[0] for r in ops):  # fit-batch: per family
        mine = [r for r in ops if r[0].split("[")[0] == group]
        print(f"# op {group}: median {statistics.median(r[2] for r in mine):.4f} s scaled, "
              f"{statistics.median(r[1] for r in mine):.4f} s unscaled, "
              f"max {max(r[2] for r in mine):.4f} s scaled, n={len(mine)}")
    rss_mb = usage.ru_maxrss / 1024.0
    metrics = {"setup_s": setup_s, "peak_rss_mb": rss_mb, **_summary(ops, 2)}
    unscaled = {"setup_s": raw_setup_s, "peak_rss_mb": rss_mb, **_summary(ops, 1)}
    return metrics, unscaled


def traced(name, seed, seconds, workdir, env, ledger):
    """Per-layer metrics from traced in-process passes; nothing is scaled."""
    from tracing import MODULES, Tracer

    start = perf_counter()
    for module in MODULES:
        importlib.import_module(f"ancontour.{module}")
    import_s = perf_counter() - start

    workload = make_workload(name, seed, workdir, env)
    ledger.record(run_pass(workload, True)[1])  # warm-up, untimed
    start = perf_counter()
    untraced_wall, results = run_pass(workload, True)
    ledger.record(results)

    tracer = Tracer()
    tracer.install()
    try:
        if name == "fit-batch":
            import fit_batch
            workload.models = fit_batch.build_models()  # built through the traced factories
        walls = []
        while not walls or perf_counter() - start < seconds:
            wall, results = run_pass(workload, True, None, tracer, len(walls) * len(workload.ops))
            ledger.record(results)
            walls.append(wall)
    finally:
        tracer.uninstall()

    passes = len(walls)
    totals = tracer.totals()
    wall = sum(walls) / passes
    metrics = {key: totals.get(key, 0) / passes for key in PER_LAYER}
    metrics.update({
        "cli.import_s": import_s,
        "trace.wall_s": wall,
        "trace.untraced_wall_s": untraced_wall,
        "trace.overhead_s": wall - untraced_wall,
        "trace.self_share": totals["self_sum_s"] / sum(walls),
    })
    print(f"# traced passes={passes} spans={len(tracer.start)}")
    _print_op_breakdown(tracer, [op[0] for op in workload.ops], passes)
    tracer.save(os.path.join(os.getcwd(), ".bench_out", f"spans-{name}.npz"))
    return metrics, metrics


def _print_op_breakdown(tracer, labels, passes):
    """Per operation: traced time and the spans with the largest self time."""
    import numpy as np

    name, op, dur, self_t = tracer.self_times()
    top = np.frombuffer(tracer.parent, dtype=np.int32) < 0
    groups = [label.split("[")[0] for label in labels]  # fit-batch: one line per family
    group_of = np.array([groups.index(g) for g in groups])[op % len(labels)]
    for group in dict.fromkeys(groups):
        mine = group_of == groups.index(group)
        total = float(dur[mine & top].sum())
        shares = np.bincount(name[mine], weights=self_t[mine], minlength=len(tracer.names))
        best = np.argsort(shares)[::-1][:3]
        parts = ", ".join(f"{tracer.names[j]} {100 * shares[j] / total:.1f}%" for j in best)
        print(f"# op {group}: {total / passes:.4f} s traced per pass; self: {parts}")


def machine_note():
    versions = " ".join(f"{pkg}={metadata.version(pkg)}" for pkg in ("numpy", "scipy"))
    print(f"# machine: nproc={os.cpu_count()} affinity={len(os.sched_getaffinity(0))} "
          f"python={platform.python_version()} {versions} "
          f"OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "ancontour", "__init__.py")):
        print(f"error: no ancontour sources under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 1
    # One client, single-threaded BLAS: small matrices gain nothing from more
    # threads, and a fixed count keeps runs comparable on shared machines.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = src
    sys.path.insert(0, src)
    machine_note()

    out_dir = os.path.join(root, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=out_dir)
    ledger = Ledger()
    try:
        measure = traced if args.trace else end_to_end
        values, unscaled = measure(args.workload, args.seed, args.seconds, workdir,
                                   dict(os.environ), ledger)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    units = PER_LAYER if args.trace else END_TO_END
    metrics = {key: {"value": values[key], "unit": unit} for key, unit in units.items()}
    for problem in ledger.problems[:20]:
        print(f"# FAILED {problem}")
    for key, metric in metrics.items():
        extra = f" (unscaled {unscaled[key]:.6g})" if unscaled[key] != metric["value"] else ""
        print(f"{key} {metric['value']:.6g} {metric['unit']}{extra}")
    print(f"fail_share {ledger.failed / max(ledger.attempted, 1):.6g} ratio "
          f"({ledger.failed} of {ledger.attempted} operations)")
    print(json.dumps({"correct": ledger.failed == 0, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
