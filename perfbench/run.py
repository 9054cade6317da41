"""The orthokleis benchmark.

    python3 perfbench/run.py --workload {eisenstein,theta,cli} --seed N \\
        --seconds S --trace {0,1}

Run from the root of a source checkout; the package is imported from
./src, nothing is installed.  Every pass of a workload runs in a fresh
interpreter (perfbench/worker.py), because the package fills module-level
caches that every user process pays for again.

--trace 0 measures set-up time (fresh interpreters up to ``import
orthokleis``, ``load_gram`` and ``space_for``, a few before each pass and
after the last), runs whole passes until their timed sections add up to S
seconds, and reports the end-to-end metrics as medians.

--trace 1 runs one untraced pass, one pass with every layer function
wrapped (perfbench/tracer.py), and the layer probe, and reports the
per-layer metrics with the tracing overhead against the untraced pass.

A table of every metric goes to standard output, then, as the last line,
one JSON object: {"correct", "attempted", "failed", "metrics"}.  The raw
pass records are written to .perfbench_runs/.  Exit code 0 means a result
was printed; any other code means the benchmark could not run.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from tracer import TRACED, merge  # noqa: E402

WORKLOADS = ("eisenstein", "theta", "cli")
# the two stages each workload's stage1_s and stage2_s stand for
STAGES = {
    "eisenstein": (("base_classes_s",), ("moved_classes_s",)),
    "theta": (("theta_sum_s",), ("theta_shells_s",)),
    "cli": (("cli.verify_s",),
            ("cli.report_s", "cli.eisenstein_s", "cli.theta_s",
             "cli.siegel_s", "cli.completed_s")),
}
END_TO_END = (
    ("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
    ("peak_rss_mb", "MB"), ("stage1_s", "s"), ("stage2_s", "s"),
)
# set-up interpreters started before each pass and after the last one,
# so the set-up median samples the whole run, not one quiet or busy moment
SETUP_SPAWNS = 4
IMPORTTIME_SPAWNS = 3
SETUP_CODE = ("import orthokleis\n"
              "from orthokleis import load_gram, space_for\n"
              "space_for(load_gram('E8'))\n")
DEADLINE_S = 170.0  # every run must end within 180 s
# one BLAS/OpenMP thread in every process: passes run one at a time, and a
# second thread per process only adds contention noise on a small machine
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
           "MKL_NUM_THREADS": "1"}


class BenchError(RuntimeError):
    pass


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in report order."""
    out = []
    for layer, func in TRACED:
        out += [(f"{layer}.{func}.calls", "count"), (f"{layer}.{func}.s", "s")]
    out += [
        ("eisenstein.enumerate_isotropic_classes.self_s", "s"),
        ("eisenstein.classes", "count"),
        ("eisenstein.ellipsoid_points.points", "count"),
        ("eisenstein.canon_per_class", "ratio"),
        ("eisenstein.gcd_per_class", "ratio"),
        ("theta.terms", "count"),
        ("siegelops.cosets", "count"),
        ("siegelops.candidates_per_coset", "ratio"),
        ("setup.import_s", "s"),
        ("setup.import_scipy_s", "s"),
        ("trace.overhead_pct", "%"),
    ]
    return out


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), **THREADS)


def _remaining(start: float) -> float:
    left = DEADLINE_S - (time.perf_counter() - start)
    if left <= 0:
        raise BenchError("out of time before the run finished")
    return left


def setup_seconds(start: float) -> list[float]:
    """Wall time of fresh interpreters up to a ready E8 space."""
    times = []
    for _ in range(SETUP_SPAWNS):
        t = time.perf_counter()
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT,
                              env=_env(), capture_output=True, text=True,
                              timeout=_remaining(start))
        times.append(time.perf_counter() - t)
        if proc.returncode != 0:
            raise BenchError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return times


def import_times(start: float) -> tuple[float, float]:
    """(import orthokleis, scipy's share) from python -X importtime:
    the package's cumulative time and the summed self time of every scipy
    module, medians over a few fresh interpreters."""
    total, scipy = [], []
    for _ in range(IMPORTTIME_SPAWNS):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import orthokleis"],
            cwd=ROOT, env=_env(), capture_output=True, text=True,
            timeout=_remaining(start))
        if proc.returncode != 0:
            raise BenchError(f"import failed: {proc.stderr.strip()[-500:]}")
        pkg, sci = None, 0
        for line in proc.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \| (\s*)(\S+)", line)
            if not m:
                continue
            self_us, cum_us, name = int(m[1]), int(m[2]), m[4]
            if name == "orthokleis" and not m[3]:
                pkg = cum_us
            if name == "scipy" or name.startswith("scipy."):
                sci += self_us
        if pkg is None:
            raise BenchError("no orthokleis line in the -X importtime output")
        total.append(pkg / 1e6)
        scipy.append(sci / 1e6)
    return statistics.median(total), statistics.median(scipy)


def run_pass(workload: str, seed: int, start: float,
             traced: bool = False) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed)]
    if traced:
        cmd.append("--trace")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=_env(), capture_output=True,
                              text=True, timeout=_remaining(start))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} pass ran out of time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} pass exited {proc.returncode}: "
                         f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def stage_sums(workload: str, rec: dict) -> tuple[float, float]:
    return tuple(sum(rec["stages"].get(name, 0.0) for name in group)
                 for group in STAGES[workload])


def end_to_end(workload: str, setup: list[float], passes: list[dict]) -> dict:
    med = statistics.median
    stages = [stage_sums(workload, rec) for rec in passes]
    return {
        "setup_s": med(setup),
        "wall_s": med(r["wall_s"] for r in passes),
        "cpu_s": med(r["cpu_s"] for r in passes),
        "peak_rss_mb": med(r["peak_rss_mb"] for r in passes),
        "stage1_s": med(s[0] for s in stages),
        "stage2_s": med(s[1] for s in stages),
    }


def per_layer(trace: dict, imports: tuple[float, float],
              overhead_pct: float) -> dict:
    stats, counts = trace["stats"], trace["counts"]
    out = {}
    for layer, func in TRACED:
        calls, incl, _ = stats.get(f"{layer}.{func}", (0, 0.0, 0.0))
        out[f"{layer}.{func}.calls"] = calls
        out[f"{layer}.{func}.s"] = incl
    classes = counts.get("eisenstein.classes", 0)
    cosets = counts.get("siegelops.cosets", 0)
    out["eisenstein.enumerate_isotropic_classes.self_s"] = \
        stats["eisenstein.enumerate_isotropic_classes"][2]
    out["eisenstein.classes"] = classes
    out["eisenstein.ellipsoid_points.points"] = \
        counts.get("eisenstein.ellipsoid_points.points", 0)
    out["eisenstein.canon_per_class"] = \
        out["lattice.canonical_columns.calls"] / classes
    out["eisenstein.gcd_per_class"] = out["intmat.minors_gcd.calls"] / classes
    out["theta.terms"] = counts.get("theta.terms", 0)
    out["siegelops.cosets"] = cosets
    out["siegelops.candidates_per_coset"] = \
        counts.get("siegelops.candidates", 0) / cosets
    out["setup.import_s"], out["setup.import_scipy_s"] = imports
    out["trace.overhead_pct"] = overhead_pct
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    start = time.perf_counter()
    if not (SRC / "orthokleis" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'orthokleis'}; run from "
              "the root of an orthokleis checkout", file=sys.stderr)
        return 2
    try:
        if args.trace:
            imports = import_times(start)
            passes = [run_pass(args.workload, args.seed, start)]
            traced = run_pass(args.workload, args.seed, start, traced=True)
            probe = run_pass("probe", 0, start, traced=True)
            passes.append(traced)
            overhead = 100.0 * (traced["wall_s"] / passes[0]["wall_s"] - 1.0)
            metrics = per_layer(merge([traced["trace"], probe["trace"]]),
                                imports, overhead)
            units = dict(per_layer_names())
        else:
            setup, passes = [], []
            while not passes or sum(r["wall_s"] for r in passes) < args.seconds:
                setup += setup_seconds(start)
                passes.append(run_pass(args.workload, args.seed, start))
            setup += setup_seconds(start)
            metrics = end_to_end(args.workload, setup, passes)
            units = dict(END_TO_END)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    problems = [p for rec in passes for p in rec["problems"]]
    failures = [f for rec in passes for f in rec["failed"]]
    for line in problems + failures:
        print(f"check: {line}", file=sys.stderr)
    print(f"{args.workload} seed {args.seed}: {len(passes)} passes, "
          f"trace {args.trace}")
    untraced = [rec for rec in passes if not rec["traced"]]
    for name in sorted({k for rec in untraced for k in rec["stages"]}):
        vals = [rec["stages"][name] for rec in untraced if name in rec["stages"]]
        print(f"  {name:48s} {statistics.median(vals):14.4f} s  (stage)")
    for name, value in metrics.items():
        print(f"  {name:48s} {value:14.4f} {units[name]}")

    result = {
        "correct": not problems,
        "attempted": sum(rec["attempted"] for rec in passes),
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    out_dir = ROOT / ".perfbench_runs"
    out_dir.mkdir(exist_ok=True)
    raw = out_dir / (f"{args.workload}-seed{args.seed}-trace{args.trace}"
                     f"-{os.getpid()}.json")
    raw.write_text(json.dumps({"args": vars(args), "passes": passes,
                               "result": result}, indent=1))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
