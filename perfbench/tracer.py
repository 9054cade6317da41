"""Per-layer call timing for the traced benchmark run.

The tracer wraps named public functions of the orthokleis modules at every
module that binds them by name (``minors_gcd`` is bound in ``intmat``,
``lattice``, ``eisenstein`` and ``siegelops``), so calls the package makes
internally are seen as well as the benchmark's own.  Nothing in the package
changes.  Spans are aggregated in memory per function:

* calls, every activation counted;
* inclusive seconds, outermost activation only, so recursion is not
  counted twice;
* self seconds, a span's duration minus the part covered by wrapped callees.

Counters are taken from return values where they measure work done.
"""

from __future__ import annotations

import functools
import sys
import time

# (layer, function): the public functions each layer metric is taken from.
TRACED = (
    ("lattice", "short_vectors"),
    ("lattice", "vectors_of_norm"),
    ("lattice", "canonical_columns"),
    ("intmat", "minors_gcd"),
    ("intmat", "integer_kernel"),
    ("intmat", "row_hnf_transform"),
    ("eisenstein", "enumerate_isotropic_classes"),
    ("eisenstein", "class_value"),
    ("eisenstein", "ellipsoid_points"),
    ("majorant", "majorant_at"),
    ("theta", "theta_truncated"),
    ("theta", "theta_term_count"),
    ("theta", "theta_diag_factored"),
    ("theta", "tail_bound"),
    ("siegelops", "siegel_coset_reps"),
    ("assembly", "p2_integral_check"),
    ("assembly", "xi"),
)


def _result_counts(name: str, args, result) -> dict:
    if name == "eisenstein.enumerate_isotropic_classes":
        return {"eisenstein.classes": len(result)}
    if name == "eisenstein.ellipsoid_points":
        return {"eisenstein.ellipsoid_points.points": int(result.shape[0])}
    if name == "theta.theta_term_count":
        return {"theta.terms": int(result)}
    if name == "siegelops.siegel_coset_reps":
        # the scan visits every (C, D) with entries in [-B, B]
        return {"siegelops.cosets": len(result),
                "siegelops.candidates": (2 * int(args[0]) + 1) ** 8}
    return {}


class Tracer:
    """Aggregated spans and counters of one process."""

    def __init__(self):
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.counts: dict[str, int] = {}
        self._stack: list[list] = []  # [start, child_s] per open span
        self._depth: dict[str, int] = {}

    def _wrap(self, name: str, fn):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        self._depth[name] = 0

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [time.perf_counter(), 0.0]
            self._stack.append(frame)
            self._depth[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - frame[0]
                self._stack.pop()
                self._depth[name] -= 1
                stats[0] += 1
                stats[2] += dur - frame[1]
                if self._depth[name] == 0:
                    stats[1] += dur
                if self._stack:
                    self._stack[-1][1] += dur
            for key, k in _result_counts(name, args, result).items():
                self.counts[key] = self.counts.get(key, 0) + k
            return result

        return traced

    def install(self) -> None:
        """Wrap every traced function wherever an imported orthokleis
        module binds it; modules imported later are not covered."""
        modules = [m for key, m in sys.modules.items()
                   if key == "orthokleis" or key.startswith("orthokleis.")]
        for layer, func in TRACED:
            home = sys.modules[f"orthokleis.{layer}"]
            original = getattr(home, func)
            wrapper = self._wrap(f"{layer}.{func}", original)
            for mod in modules:
                if getattr(mod, func, None) is original:
                    setattr(mod, func, wrapper)

    def snapshot(self) -> dict:
        return {"stats": {k: list(v) for k, v in self.stats.items()},
                "counts": dict(self.counts)}


def merge(snapshots) -> dict:
    """Sum the snapshots of several processes."""
    stats: dict[str, list] = {}
    counts: dict[str, int] = {}
    for snap in snapshots:
        for key, vals in snap["stats"].items():
            acc = stats.setdefault(key, [0, 0.0, 0.0])
            for i, v in enumerate(vals):
                acc[i] += v
        for key, v in snap["counts"].items():
            counts[key] = counts.get(key, 0) + v
    return {"stats": stats, "counts": counts}
