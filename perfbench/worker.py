"""One pass of a benchmark workload, in a fresh interpreter.

    python3 perfbench/worker.py WORKLOAD SEED [--trace]

WORKLOAD is eisenstein, theta, cli or probe.  The pass imports orthokleis
inside its timed section, since every user process pays to import the
package and to fill its module-level caches.  After the timed section it
checks the outputs (perfbench/checks.py) and prints one JSON object as its
last line of output.  With --trace the package's layer functions are
wrapped (perfbench/tracer.py) and the aggregated spans are included.

Only the standard library is imported before the timer starts.
"""

from __future__ import annotations

import json
import os
import resource
import subprocess
import sys
import time
import traceback
from contextlib import contextmanager
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(1, str(HERE))

import inputs  # noqa: E402  (standard library only)
from tracer import Tracer, merge  # noqa: E402  (standard library only)

# the generic Siegel point the package's theta checks use
GENERIC_Z = ((0.3 + 1.1j, 0.1 + 0.2j), (0.1 + 0.2j, -0.2 + 0.9j))
ALPHA = 1.2
SHELL_T = 14

# the six README commands, in README order
CLI_COMMANDS = (
    ("report", ["--lattice", "E8", "--command", "report"]),
    ("eisenstein", ["--lattice", "A2", "--command", "eisenstein",
                    "--s", "6,0:7,1", "--B", "20"]),
    ("theta", ["--lattice", "E8", "--command", "theta", "--B", "3"]),
    ("siegel", ["--lattice", "A2", "--command", "siegel", "--s", "2,0"]),
    ("completed", ["--lattice", "E8", "--command", "completed",
                   "--s", "12,0"]),
    ("verify", ["--lattice", "E8", "--command", "verify"]),
)
CLI_TIMEOUT_S = 150


class Pass:
    """Stage timings and operation outcomes of one pass."""

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.stages: dict[str, float] = {}
        self.attempted = 0
        self.failed: list[str] = []

    @contextmanager
    def stage(self, name: str):
        t = time.perf_counter()
        try:
            yield
        finally:
            self.stages[name] = (self.stages.get(name, 0.0)
                                 + time.perf_counter() - t)

    def op(self, label: str, fn, *args, **kwargs):
        """One program operation; a failure is recorded, not raised, so
        the pass attempts every operation whatever happens to one."""
        self.attempted += 1
        try:
            return fn(*args, **kwargs)
        except Exception as exc:  # the pass must go on and report it
            self.failed.append(f"{label}: {type(exc).__name__}: {exc}")
            traceback.print_exc(file=sys.stderr)
            return None

    def import_package(self):
        with self.stage("import_s"):
            import orthokleis
        if not Path(orthokleis.__file__).resolve().is_relative_to(SRC):
            raise RuntimeError(f"orthokleis imported from {orthokleis.__file__}"
                               f", not from {SRC}")
        if self.tracer is not None:
            self.tracer.install()


def _build(space, word):
    from orthokleis.orthogroup import builders, identity_element

    g = identity_element(space)
    for kind, params in word:
        g = g @ builders(space, kind, **params)
    return g


def _series(space, R, B, s):
    from orthokleis import class_value, enumerate_isotropic_classes

    classes = enumerate_isotropic_classes(space, R, B)
    return classes, class_value(classes, s)


def _moved_series(space, word, B, s):
    from orthokleis import act, majorant_at

    g = _build(space, word)
    R = majorant_at(space, act(g, space.base_point()))
    classes, value = _series(space, R, B, s)
    return g, R, classes, value


# ---------------------------------------------------------- workloads

def eisenstein_pass(p: Pass, seed: int) -> dict:
    """E8 at the base point to B=16 and A2 there to B=100 (psi-fiber
    path), then E8 at six moved points to B=5 and A2 at two to B=100
    (LLL plus Fincke-Pohst path)."""
    inp = inputs.eisenstein_inputs(seed)
    p.import_package()
    from orthokleis import load_gram, majorant_at, space_for

    spaces = {"E8": space_for(load_gram("E8")), "A2": space_for(load_gram("A2"))}
    out = {"base": {}, "moved": []}
    with p.stage("base_classes_s"):
        for name, B in (("E8", 16.0), ("A2", 100.0)):
            sp = spaces[name]
            s = sp.n + 2.5
            R = majorant_at(sp, sp.base_point())
            res = p.op(f"{name} base B={B:g}", _series, sp, R, B, s)
            out["base"][name] = (B, s, res)
    with p.stage("moved_classes_s"):
        for name, words, B in (("E8", inp["e8_words"], 5.0),
                               ("A2", inp["a2_words"], 100.0)):
            sp = spaces[name]
            s = sp.n + 2.5
            for k, word in enumerate(words):
                res = p.op(f"{name} moved #{k} B={B:g}", _moved_series,
                           sp, word, B, s)
                out["moved"].append((name, k, B, s, res))
    out["spaces"] = spaces
    return out


def eisenstein_checks(out: dict) -> list[str]:
    import numpy as np

    import checks

    problems = []
    frames = {name: checks.bordered(sp.L.S) for name, sp in out["spaces"].items()}
    base_det = {}
    for name, (B, s, res) in out["base"].items():
        if res is None:
            continue
        classes, value = res
        ells, det = checks.class_arrays(classes)
        s1, r0 = frames[name]
        problems += checks.class_problems(f"{name} base", ells, det, s1, r0, B)
        problems += checks.value_problems(f"{name} base", value, det, s)
        base_det[name] = (ells, det)
    transported = set()
    for name, k, B, s, res in out["moved"]:
        if res is None:
            continue
        g, R, classes, value = res
        label = f"{name} moved #{k}"
        ells, det = checks.class_arrays(classes)
        s1, r0 = frames[name]
        gmat = np.array(g.mat.tolist(), dtype=np.int64)
        ginv = checks.exact_inverse(gmat, s1)
        problems += checks.class_problems(label, ells, det, s1, r0, B, ginv)
        problems += checks.value_problems(label, value, det, s)
        if name in base_det:
            base_ells, bdet = base_det[name]
            problems += checks.agreement_problems(label, bdet, det, B, s)
            if name not in transported:
                transported.add(name)
                problems += checks.transport_problems(
                    f"{name} base set through word #{k}", base_ells, bdet,
                    gmat, R)
    return problems


def theta_pass(p: Pass, seed: int) -> dict:
    """theta_report at B=5 on E8 at W = h<base> and at g<W>, then the
    factored diagonal sums at y = 1/alpha and y = alpha to norm 14."""
    inp = inputs.theta_inputs(seed)
    p.import_package()
    import numpy as np
    from orthokleis import ThetaQuery, act, load_gram, space_for, theta_report
    from orthokleis.theta import theta_diag_factored

    e8 = space_for(load_gram("E8"))
    Z = np.array(GENERIC_Z)
    out = {"space": e8}

    def report(word_h, word_g):
        W = act(_build(e8, word_h), e8.base_point())
        if word_g is not None:
            W = act(_build(e8, word_g), W)
        return theta_report(ThetaQuery(e8, Z, W, 5.0))

    with p.stage("theta_sum_s"):
        out["w"] = p.op("theta at W", report, inp["h"], None)
        out["gw"] = p.op("theta at g<W>", report, inp["h"], inp["g"])
    with p.stage("theta_shells_s"):
        out["inv"] = p.op("diagonal theta y=1/alpha", theta_diag_factored,
                          e8, 1 / ALPHA, 1 / ALPHA, SHELL_T)
        out["fwd"] = p.op("diagonal theta y=alpha", theta_diag_factored,
                          e8, ALPHA, ALPHA, SHELL_T)
    return out


def theta_checks(out: dict) -> list[str]:
    from orthokleis.theta import majorant_shell_counts

    import checks

    problems = []
    if out["w"] is not None and out["gw"] is not None:
        problems += checks.theta_pair_problems(out["w"], out["gw"])
    if out["inv"] is not None and out["fwd"] is not None:
        problems += checks.inversion_problems(ALPHA, out["space"].dim + 2,
                                              out["inv"], out["fwd"])
    problems += checks.shell_problems(
        majorant_shell_counts(out["space"], SHELL_T), SHELL_T)
    return problems


def cli_pass(p: Pass, trace_dir: Path | None) -> dict:
    """The six README commands, each in its own process, one after
    another.  Traced, each runs under perfbench/traced_cli.py."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    docs = {}
    for k, (name, args) in enumerate(CLI_COMMANDS):
        if trace_dir is None:
            cmd = [sys.executable, "-m", "orthokleis.cli", *args]
        else:
            cmd = [sys.executable, str(HERE / "traced_cli.py"),
                   str(trace_dir / f"cli-{k}.json"), *args]
        with p.stage(f"cli.{name}_s"):
            proc = p.op(name, subprocess.run, cmd, capture_output=True,
                        text=True, cwd=ROOT, env=env, timeout=CLI_TIMEOUT_S)
        if proc is None:
            continue
        if proc.returncode != 0:
            p.failed.append(f"{name}: exit code {proc.returncode}: "
                            f"{proc.stderr.strip()[-500:]}")
            continue
        docs[name] = proc.stdout
    return docs


def cli_checks(docs: dict) -> list[str]:
    import checks

    problems = []
    for name, text in docs.items():
        try:
            doc = json.loads(text)
        except ValueError:
            doc = None
        problems += checks.cli_problems(name, 0, doc)
    return problems


def probe_pass(p: Pass) -> None:
    """One small call into every traced function (A2 and small bounds),
    so a traced run measures every layer on every workload."""
    p.import_package()
    import numpy as np
    from orthokleis import (ThetaQuery, act, load_gram, majorant_at,
                            p2_integral_check, space_for, theta_report,
                            vectors_of_norm, xi)
    from orthokleis.orthogroup import translation
    from orthokleis.siegelops import siegel_coset_reps
    from orthokleis.theta import theta_diag_factored

    a2 = space_for(load_gram("A2"))
    base = a2.base_point()
    vectors_of_norm(a2.L, 2)
    _series(a2, majorant_at(a2, base), 4.0, 4.5)
    moved = act(translation(a2, [1, 0, 0, 0]), base)
    _series(a2, majorant_at(a2, moved), 4.0, 4.5)
    theta_report(ThetaQuery(a2, 2j * np.eye(2), base, 2.0))
    theta_diag_factored(a2, 1.0, 1.0, 4)
    siegel_coset_reps(1)
    p2_integral_check(2.0, np.eye(2), rel_tol=0.1)
    xi(3.0)


# --------------------------------------------------------------- main

def main(argv) -> int:
    workload, seed = argv[0], int(argv[1])
    traced = "--trace" in argv[2:]
    # the cli commands are traced in their own processes, each writing its
    # spans to trace_dir
    trace_dir = tracer = None
    if traced and workload == "cli":
        trace_dir = ROOT / ".perfbench_runs" / f"cli-trace-{os.getpid()}"
        trace_dir.mkdir(parents=True, exist_ok=True)
    elif traced:
        tracer = Tracer()
    p = Pass(tracer)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    if workload == "eisenstein":
        out = eisenstein_pass(p, seed)
    elif workload == "theta":
        out = theta_pass(p, seed)
    elif workload == "cli":
        out = cli_pass(p, trace_dir)
    elif workload == "probe":
        out = probe_pass(p)
    else:
        raise SystemExit(f"unknown workload {workload!r}")
    wall = time.perf_counter() - t0
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    cpu = sum(b.ru_utime - a.ru_utime + b.ru_stime - a.ru_stime
              for a, b in ((self0, self1), (kids0, kids1)))
    rss_mb = max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0
    trace = None
    if tracer is not None:
        trace = tracer.snapshot()
    elif trace_dir is not None:
        files = sorted(trace_dir.glob("cli-*.json"))
        trace = merge([json.loads(f.read_text()) for f in files])
        for f in files:
            f.unlink()
        trace_dir.rmdir()

    checker = {"eisenstein": eisenstein_checks, "theta": theta_checks,
               "cli": cli_checks}.get(workload)
    problems = checker(out) if checker else []
    print(json.dumps({
        "workload": workload, "seed": seed, "traced": traced,
        "attempted": p.attempted, "failed": p.failed,
        "stages": p.stages, "wall_s": wall, "cpu_s": cpu,
        "peak_rss_mb": rss_mb, "problems": problems, "trace": trace,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
