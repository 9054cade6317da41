"""Each benchmark check passes on real program output and rejects a
corrupted copy of it.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(HERE))

import checks  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
from tracer import TRACED  # noqa: E402

from orthokleis import (  # noqa: E402
    act, class_value, enumerate_isotropic_classes, load_gram, majorant_at,
    space_for)
from orthokleis.orthogroup import translation  # noqa: E402
from orthokleis.theta import majorant_shell_counts  # noqa: E402

B = 20.0
S = 4.5


@pytest.fixture(scope="module")
def a2():
    """A2 classes at the base point and at a moved point, to B=20."""
    sp = space_for(load_gram("A2"))
    base = sp.base_point()
    g = translation(sp, [1, 0, -1, 1])
    R = majorant_at(sp, act(g, base))
    out = {"space": sp, "frames": checks.bordered(sp.L.S), "R": R,
           "g": np.array(g.mat.tolist(), dtype=np.int64)}
    for key, RR in (("base", majorant_at(sp, base)), ("moved", R)):
        cls = enumerate_isotropic_classes(sp, RR, B)
        out[key] = checks.class_arrays(cls) + (class_value(cls, S),)
    return out


def _class_problems(a2, ells, det, key="base"):
    s1, r0 = a2["frames"]
    ginv = None if key == "base" else checks.exact_inverse(a2["g"], s1)
    return checks.class_problems(key, ells, det, s1, r0, B, ginv)


@pytest.mark.parametrize("key", ["base", "moved"])
def test_classes_pass_on_program_output(a2, key):
    ells, det, value = a2[key]
    assert len(ells) > 10
    assert _class_problems(a2, ells, det, key) == []
    assert checks.value_problems(key, value, det, S) == []


def _one_problem(problems, word):
    assert problems and any(word in p for p in problems), problems


def test_duplicated_class_is_rejected(a2):
    ells, det, _ = a2["base"]
    _one_problem(_class_problems(a2, np.concatenate([ells, ells[:1]]),
                                 np.concatenate([det, det[:1]])),
                 "duplicated")


def test_non_isotropic_class_is_rejected(a2):
    ells, det, _ = a2["base"]
    bad = ells.copy()
    bad[3, 2, 0] += 1
    _one_problem(_class_problems(a2, bad, det), "isotropic")


def test_imprimitive_and_degenerate_classes_are_rejected(a2):
    ells, det, _ = a2["base"]
    _one_problem(_class_problems(a2, 2 * ells, 16 * det), "imprimitive")
    flat = ells.copy()
    flat[:, :, 1] = flat[:, :, 0]
    _one_problem(_class_problems(a2, flat, det), "rank below 2")


def test_non_hermite_representative_is_rejected(a2):
    ells, det, _ = a2["base"]
    _one_problem(_class_problems(a2, ells[:, :, ::-1].copy(), det), "Hermite")


@pytest.mark.parametrize("key", ["base", "moved"])
def test_perturbed_determinant_is_rejected(a2, key):
    ells, det, _ = a2[key]
    bad = det.copy()
    bad[5] *= 1 + 1e-7
    _one_problem(_class_problems(a2, ells, bad, key), "differ")


def test_class_beyond_the_bound_is_rejected(a2):
    ells, det, _ = a2["base"]
    s1, r0 = a2["frames"]
    _one_problem(checks.class_problems("base", ells, det, s1, r0, 8.0), "D^2")


def test_perturbed_series_value_is_rejected(a2):
    _, det, value = a2["base"]
    _one_problem(checks.value_problems("base", value * (1 + 1e-8), det, S),
                 "series value")


def test_enumerators_agree_and_a_dropped_class_is_caught(a2):
    _, base_det, _ = a2["base"]
    _, det, _ = a2["moved"]
    assert checks.agreement_problems("moved", base_det, det, B, S) == []
    _one_problem(checks.agreement_problems("moved", base_det, det[1:], B, S),
                 "classes")
    bad = det.copy()
    bad[0] *= 1 + 1e-6
    _one_problem(checks.agreement_problems("moved", base_det, bad, B, S),
                 "value")


def test_transport_check(a2):
    ells, det, _ = a2["base"]
    assert checks.transport_problems("t", ells, det, a2["g"], a2["R"]) == []
    R = a2["R"].copy()
    R[0, 0] *= 1 + 1e-6
    _one_problem(checks.transport_problems("t", ells, det, a2["g"], R),
                 "transported")


def test_shell_counts():
    e8 = space_for(load_gram("E8"))
    counts = majorant_shell_counts(e8, 4)
    assert checks.shell_problems(counts, 4) == []
    assert counts[:3] == [1, 8, 24 + 240]
    wrong = list(counts)
    wrong[4] += 1
    _one_problem(checks.shell_problems(wrong, 4), "norms [4]")


def test_theta_pair():
    rep = {"classes": 17, "value": [2.5, 0.5]}
    assert checks.theta_pair_problems(rep, dict(rep)) == []
    _one_problem(checks.theta_pair_problems(rep, dict(rep, classes=16)),
                 "counts")
    _one_problem(checks.theta_pair_problems(
        rep, dict(rep, value=[2.5 + 1e-9, 0.5])), "differ")


def test_inversion_law():
    alpha, v = 1.2, 1.8254221811287523
    good = ((alpha ** 12 * v, 6e-8), (v, 2e-15))
    assert checks.inversion_problems(alpha, 12, *good) == []
    _one_problem(checks.inversion_problems(
        alpha, 12, (good[0][0] + 1e-5, 6e-8), good[1]), "misses")
    _one_problem(checks.inversion_problems(
        alpha, 12, (good[0][0], 2e-7), good[1]), "not below")


def _cli(*args) -> dict:
    from orthokleis.cli import main

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert main(list(args)) == 0
    return json.loads(buf.getvalue())


@pytest.fixture(scope="module")
def cli_docs():
    return {name: _cli(*args) for name, args in worker.CLI_COMMANDS
            if name != "verify"}


def test_cli_checks_pass_on_program_output(cli_docs):
    for name, doc in cli_docs.items():
        assert checks.cli_problems(name, 0, doc) == [], name


def test_cli_exit_code_and_schema_are_checked(cli_docs):
    doc = cli_docs["report"]
    _one_problem(checks.cli_problems("report", 1, doc), "exit code")
    _one_problem(checks.cli_problems("report", 0, dict(doc, schema="2")),
                 "schema")


def test_cli_report_values(cli_docs):
    doc = json.loads(json.dumps(cli_docs["report"]))
    doc["report"]["roots"] = 238
    _one_problem(checks.cli_problems("report", 0, doc), "roots")


def test_cli_eisenstein_monotone(cli_docs):
    doc = json.loads(json.dumps(cli_docs["eisenstein"]))
    doc["rows"][1]["monotone_classes"] = False
    _one_problem(checks.cli_problems("eisenstein", 0, doc), "monotone")


def test_cli_theta_terms_and_values(cli_docs):
    doc = json.loads(json.dumps(cli_docs["theta"]))
    doc["rows"][0]["terms"] += 1
    _one_problem(checks.cli_problems("theta", 0, doc), "terms")
    doc = json.loads(json.dumps(cli_docs["theta"]))
    doc["rows"][0]["refined_value"][0] *= 1 + 1e-9
    _one_problem(checks.cli_problems("theta", 0, doc), "refined_value")


def test_cli_siegel_order(cli_docs):
    doc = json.loads(json.dumps(cli_docs["siegel"]))
    row = doc["rows"][0]
    row["coarser_value"][0] = row["value"][0] * 1.5
    _one_problem(checks.cli_problems("siegel", 0, doc), "siegel")


def test_cli_completed_xi_factors(cli_docs):
    doc = json.loads(json.dumps(cli_docs["completed"]))
    doc["rows"][0]["factors"][1]["value"][0] *= 1 + 1e-8
    _one_problem(checks.cli_problems("completed", 0, doc), "xi(2s-8)")
    doc = json.loads(json.dumps(cli_docs["completed"]))
    del doc["rows"][0]["factors"][0]
    _one_problem(checks.cli_problems("completed", 0, doc), "xi factors")


def test_cli_verify_ledger():
    props = [{"property": f"p{k}", "pass": True} for k in range(24)]
    doc = {"schema": "1", "properties": props, "pass": True}
    assert checks.cli_problems("verify", 0, doc) == []
    props[7] = dict(props[7], **{"pass": False})
    _one_problem(checks.cli_problems("verify", 0, doc), "p7")
    _one_problem(checks.cli_problems("verify", 0, {
        "schema": "1", "properties": props[:23], "pass": True}), "23")


def test_probe_measures_every_layer():
    """The traced probe calls every traced function, so every per-layer
    time is measured on every workload."""
    proc = subprocess.run([sys.executable, str(HERE / "worker.py"), "probe",
                           "0", "--trace"], capture_output=True, text=True,
                          cwd=ROOT, timeout=120, check=True)
    stats = json.loads(proc.stdout.splitlines()[-1])["trace"]["stats"]
    for layer, func in TRACED:
        calls, incl, _ = stats[f"{layer}.{func}"]
        assert calls > 0 and incl > 0, (layer, func)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "perfbench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == run.per_layer_names()
