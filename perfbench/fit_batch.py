"""The in-process fit-batch workload: seeded datasets through the library layers.

Each operation is one dataset: ``fit_mle`` -> ``build_contour`` ->
``compare_exact`` (families with an exact ancillary) -> ``partition_check``.
There is no subprocess, no file output and no Monte Carlo study, so start-up
and result writing are absent and the estimation, ancillary and model layers
carry the whole cost.  Library functions are looked up on their modules at
call time, so the tracer's wrappers see every call.
"""

from __future__ import annotations

import hashlib
import math
import traceback

import numpy as np

from ancontour import ancillary, errors, estimation
from ancontour import models as M

DATASETS_PER_FAMILY = 16

# name -> (model factory, true theta, partition probe t1 in standardized units,
#          exact ancillary available).  Two-observation Cauchy fits are left
# out: whether they raise or return an ill-conditioned fit is still open.
FAMILIES = {
    "circle2d": (lambda: M.make_circle(1.0, n=2, variance_scale=1.0 / 64.0),
                 (0.3,), (1.0,), True),
    "location-scale": (lambda: M.make_location_scale(8), (0.3, 1.1), (1.0, 0.5), True),
    "cauchy-location-scale": (lambda: M.make_location_scale(8, error_law="cauchy"),
                              (0.3, 1.1), (1.0, 0.5), True),
    "synthetic-curved": (lambda: M.make_synthetic_curved(24), (0.4,), (1.0,), False),
    "nonlinreg-unknown": (lambda: M.make_nonlinear_regression(M.eta_curved(16), "unknown"),
                          (0.25, 0.9), (0.8, -0.5), False),
}


def build_models() -> dict:
    return {name: spec[0]() for name, spec in FAMILIES.items()}


def _grid(p: int):
    return ancillary.GridSpec(3.0, 21) if p == 1 else ancillary.GridSpec(2.0, 11)


def _check(name, model, fit, cloud, comp, part) -> list:
    """Value checks; tolerances from tests/test_acceptance.py where one exists."""
    p = []
    if not (fit.converged and np.all(np.isfinite(fit.theta_hat))):
        p.append("fit did not converge to a finite estimate")
    size = _grid(model.p).points_per_axis ** model.p
    if len(cloud.points) + cloud.dropped_out_of_domain != size or not np.all(np.isfinite(cloud.points)):
        p.append("contour cloud has missing or non-finite points")
    if not math.isfinite(part.discrepancy):
        p.append(f"partition discrepancy {part.discrepancy!r}")
    if name == "circle2d" and not abs(comp.radius_contour - 1.0) <= 1e-8:
        p.append(f"radius_contour {comp.radius_contour!r} not within 1e-8 of 1")
    if name == "location-scale" and not comp.label_spread <= 1e-12:
        p.append(f"label_spread {comp.label_spread!r} above 1e-12")
    # The Cauchy configuration comes from an iterative fit stopped at a score
    # norm of 1e-8, so its labels agree to that order, not to rounding.
    if name == "cauchy-location-scale" and not comp.label_spread <= 1e-6:
        p.append(f"label_spread {comp.label_spread!r} above 1e-6")
    if name.endswith("location-scale") and not part.discrepancy <= 1e-10:
        p.append(f"partition_discrepancy {part.discrepancy!r} above 1e-10")
    return p


class FitBatch:
    """Seeded datasets for every family, interleaved so each pass mixes them."""

    def __init__(self, seed: int):
        self.models = build_models()
        draws = {name: model.ref_sampler(seed, DATASETS_PER_FAMILY)
                 for name, model in self.models.items()}
        self.ops = []
        for k in range(DATASETS_PER_FAMILY):
            for name, (_, theta, _, _) in FAMILIES.items():
                y = self.models[name].quantile(draws[name][k], np.array(theta))
                self.ops.append((f"{name}[{k}]", name, y))

    def run_op(self, op, in_process: bool, clock):
        """Run one dataset; returns (seconds, problems, digest of the results)."""
        label, name, y = op
        model = self.models[name]
        _, _, t1, exact = FAMILIES[name]
        grid = _grid(model.p)
        start = clock()
        try:
            fit = estimation.fit_mle(model, y)
            cloud = ancillary.build_contour(model, y, grid, fit=fit)
            comp = ancillary.compare_exact(model, cloud) if exact else None
            part = ancillary.partition_check(model, y, np.array(t1), grid=grid)
        except errors.AncontourError as exc:
            return clock() - start, [f"{type(exc).__name__}: {exc}"], None
        except Exception:
            return clock() - start, [traceback.format_exc(limit=3)], None
        seconds = clock() - start
        digest = hashlib.sha256()
        for arr in (fit.theta_hat, cloud.points, part.y1, part.theta_hat1):
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update(repr((part.discrepancy, comp and comp.label_spread)).encode())
        return seconds, _check(name, model, fit, cloud, comp, part), digest.digest()
