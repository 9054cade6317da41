"""End-to-end tests of the command line driver: report shapes, eval
tables, the verification ledger, output formats, and exit codes."""

import json

import numpy as np
import pytest

from orthokleis.cli import main, parse_s_grid


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    return code, json.loads(out), err


# ------------------------------------------------------------------ report

def test_report_e8(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "E8", "--command", "report")
    assert code == 0
    assert doc["schema"] == "1"
    rep = doc["report"]
    assert rep["n"] == 8
    assert rep["det"] == 1
    assert rep["level"] == 1
    assert rep["roots"] == 240
    assert rep["s0_signature"] == [1, 9]
    assert rep["s1_signature"] == [2, 10]


def test_report_a1(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "A1", "--command", "report")
    assert code == 0
    rep = doc["report"]
    assert (rep["n"], rep["det"], rep["level"], rep["roots"]) == (1, 2, 4, 2)
    assert rep["s0_signature"] == [1, 2]
    assert rep["s1_signature"] == [2, 3]


def test_report_csv(capsys):
    code, out, _ = run_cli(capsys, "--lattice", "A1", "--command", "report",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "key,value"
    table = dict(line.split(",", 1) for line in lines[1:])
    assert table["det"] == "2"
    assert table["roots"] == "2"


def test_malformed_gram_odd_diagonal(tmp_path, capsys):
    f = tmp_path / "bad.gram"
    f.write_text("2\n3 1\n1 3\n")
    code, out, err = run_cli(capsys, "--lattice", str(f),
                             "--command", "report")
    assert code == 2
    assert out == ""
    assert "NotEven" in err


def test_malformed_gram_asymmetric(tmp_path, capsys):
    f = tmp_path / "bad.gram"
    f.write_text("2\n2 1\n0 2\n")
    code, _, err = run_cli(capsys, "--lattice", str(f), "--command", "report")
    assert code == 2
    assert "NotSymmetric" in err


def test_missing_gram_file(capsys):
    code, _, err = run_cli(capsys, "--lattice", "/nonexistent.gram",
                           "--command", "report")
    assert code == 2
    assert "error[lattice]" in err


@pytest.mark.parametrize("gram", ["0\n", "-2\n2 1\n1 2\n"])
def test_gram_file_of_no_rows_refused(tmp_path, capsys, gram):
    f = tmp_path / "empty.gram"
    f.write_text(gram)
    for command in ("report", "verify"):
        code, out, err = run_cli(capsys, "--lattice", str(f),
                                 "--command", command)
        assert code == 2 and out == ""
        assert "error[lattice]: Gram dimension must be at least 1" in err


@pytest.mark.parametrize("command, B", [("eisenstein", "inf"),
                                        ("siegel", "inf"),
                                        ("eisenstein", "nan")])
def test_non_finite_bound_refused(capsys, command, B):
    code, out, err = run_cli(capsys, "--lattice", "A2", "--command", command,
                             "--B", B)
    assert code == 2 and out == ""
    assert f"error[input]: --B must be finite, got {B}" in err


def test_siegel_bound_past_the_cap_refused(capsys):
    code, out, err = run_cli(capsys, "--lattice", "A2", "--command",
                             "siegel", "--B", "1e300")
    assert code == 2 and out == ""
    assert "error[BudgetExceeded]: entry bound above 26" in err


def test_bad_precision_env(monkeypatch, capsys):
    monkeypatch.setenv("ORTHOKLEIS_PRECISION", "many")
    code, _, err = run_cli(capsys, "--lattice", "A1", "--command", "report")
    assert code == 2
    assert "error[precision]" in err


# -------------------------------------------------------------------- eval

def test_eisenstein_monotone_diagnostics(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "A2",
                            "--command", "eisenstein", "--B", "20",
                            "--s", "6,0")
    assert code == 0
    row = doc["rows"][0]
    assert row["monotone_classes"] and row["monotone_value"]
    counts = [d["classes"] for d in row["diagnostics"]]
    values = [d["value"][0] for d in row["diagnostics"]]
    assert counts == sorted(counts) and len(counts) >= 2
    assert values == sorted(values)
    assert row["exhaustive"] is True
    assert row["s"] == [6.0, 0.0]


def test_eisenstein_csv_header(capsys):
    code, out, _ = run_cli(capsys, "--lattice", "A2",
                           "--command", "eisenstein", "--s", "6,0:7,1",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "index,value-re,value-im"
    assert len(lines) == 3
    assert lines[1].startswith("1,")
    assert lines[2].startswith("2,")


def test_eisenstein_guard_labeled(capsys):
    code, _, err = run_cli(capsys, "--lattice", "A2",
                           "--command", "eisenstein", "--s", "2,0")
    assert code == 2
    assert "ConvergenceGuard" in err


def test_eisenstein_ladder_stays_below_requested_bound(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "A2",
                            "--command", "eisenstein", "--B", "0.5",
                            "--s", "6,0")
    assert code == 0
    row = doc["rows"][0]
    assert row["B"] == doc["B"] == 0.5
    assert row["classes"] == 0
    assert all(d["B"] <= 0.5 for d in row["diagnostics"])


def _count_calls(monkeypatch, modules, name):
    """Wrap the function `name` in every given module with one shared
    call counter."""
    original = getattr(modules[0], name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in modules:
        monkeypatch.setattr(mod, name, counted)
    return calls


def test_each_rung_enumerated_once_per_command(monkeypatch, capsys):
    from orthokleis import cli, eisenstein, siegelops

    calls = _count_calls(monkeypatch, [eisenstein], "_base_classes")
    code, _, _ = run_cli(capsys, "--lattice", "A2", "--command", "eisenstein",
                         "--s", "6,0:7,1", "--B", "20")
    assert code == 0
    assert len(calls) == 3  # B = 5, 10, 20, shared by both s
    calls.clear()
    code, _, _ = run_cli(capsys, "--lattice", "E8", "--command", "completed",
                         "--s", "12,0:13,0:14,1")
    assert code == 0
    assert len(calls) == 1
    calls.clear()
    # a refused point anywhere in the grid stops the run before enumerating
    code, _, err = run_cli(capsys, "--lattice", "A2", "--command",
                           "eisenstein", "--s", "6,0:3,0", "--B", "20")
    assert code == 2 and "ConvergenceGuard" in err
    assert calls == []

    scans = _count_calls(monkeypatch, [siegelops, cli], "siegel_coset_reps")
    code, _, _ = run_cli(capsys, "--lattice", "A2", "--command", "siegel",
                         "--s", "2,0:3,0")
    assert code == 0
    assert len(scans) == 2  # entry bounds B and B // 2
    scans.clear()
    code, _, err = run_cli(capsys, "--lattice", "A2", "--command", "siegel",
                           "--s", "2,0:1,0")
    assert code == 2 and "ConvergenceGuard" in err
    assert scans == []


def test_eisenstein_ladder_refused_at_its_top_rung(monkeypatch, capsys):
    # the top rung is enumerated first, so a budget refusal comes on the
    # first enumeration and no lower rung is spent before it
    from orthokleis import cli

    calls = _count_calls(monkeypatch, [cli], "enumerate_isotropic_classes")
    code, out, err = run_cli(capsys, "--lattice", "E8", "--command",
                             "eisenstein", "--s", "12,0", "--B", "100")
    assert code == 2 and out == ""
    assert "BudgetExceeded" in err
    assert "2.94e+09" in err and "up to 10 " in err
    assert [args[2] for args in calls] == [100.0]


def test_theta_within_tail_of_doubled_rerun(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "A2", "--command", "theta",
                            "--B", "3")
    assert code == 0
    row = doc["rows"][0]
    assert row["within_tail"] is True
    assert row["refined_B"] == 2 * row["B"]
    assert row["refinement_delta"] <= row["tail_bound"]


def test_siegel_rows(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "A2", "--command", "siegel",
                            "--s", "2,0:3,0", "--B", "2")
    assert code == 0
    assert [r["index"] for r in doc["rows"]] == [1, 2]
    for row in doc["rows"]:
        assert row["monotone_value"] is True
        assert row["value"][0] > 0


def test_completed_factors_listed_per_row(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "E8",
                            "--command", "completed", "--s", "12,0:13,0",
                            "--B", "5")
    assert code == 0
    for row in doc["rows"]:
        labels = [f["label"] for f in row["factors"]]
        assert labels == ["xi(s-3)", "xi(2s-8)", "xi(s)", "xi(s-1)",
                          "gamma_S(s)"]
        product = 1 + 0j
        for f in row["factors"]:
            product *= complex(*f["value"])
        series = complex(*row["series_value"])
        completed = complex(*row["completed_value"])
        assert abs(series * product - completed) <= 1e-9 * abs(completed)


def test_completed_rejects_small_rank(capsys):
    code, _, err = run_cli(capsys, "--lattice", "A2",
                           "--command", "completed", "--s", "12,0")
    assert code == 2
    assert "error[input]" in err


def test_completed_with_coefficients(tmp_path, capsys):
    f = tmp_path / "coeffs.json"
    f.write_text("[1, 0, 2.5]")
    code, doc, _ = run_json(capsys, "--lattice", "E8",
                            "--command", "completed", "--s", "14,0",
                            "--coeffs", str(f), "--so-order", "696729600")
    assert code == 0
    row = doc["rows"][0]
    assert row["integral_prefactor"] is not None
    assert len(row["factors"]) == 6
    series = complex(*row["series_value"])
    assert abs(series - (1 + 2.5 * 3 ** -14)) < 1e-12


def test_coefficients_require_so_order(tmp_path, capsys):
    f = tmp_path / "coeffs.json"
    f.write_text("[1]")
    code, _, err = run_cli(capsys, "--lattice", "E8",
                           "--command", "completed", "--s", "14,0",
                           "--coeffs", str(f))
    assert code == 2
    assert "so-order" in err


def test_completed_refuses_a_pole_of_the_prefactor(tmp_path, capsys):
    # w = s + k - n - 1 = 5 + 3 - 8 - 1 = -1, a pole of Gamma(w)
    f = tmp_path / "coeffs.json"
    f.write_text("[1, 2]")
    code, out, err = run_cli(capsys, "--lattice", "E8",
                             "--command", "completed", "--s", "5,0",
                             "--coeffs", str(f), "--weight", "3",
                             "--so-order", "1")
    assert code == 2
    assert "error[PoleAt]" in err
    assert out == ""


# ------------------------------------------------------------------ verify

@pytest.fixture(scope="module")
def verify_a2(package_env):
    import subprocess
    import sys
    proc = subprocess.run(
        [sys.executable, "-m", "orthokleis.cli", "--lattice", "A2",
         "--command", "verify"],
        capture_output=True, text=True, env=package_env)
    return proc


def test_verify_passes_and_ledger_shape(verify_a2):
    assert verify_a2.returncode == 0
    doc = json.loads(verify_a2.stdout)
    assert doc["pass"] is True
    names = [e["property"] for e in doc["properties"]]
    assert len(names) == len(set(names)) >= 20
    for expected in ("cayley-eigen", "onedim-annihilation-n8", "hnf-sigma1",
                     "gammaS-roots", "cocycle-automorphy",
                     "theta-invariance", "jacobi-embed-homomorphism"):
        assert expected in names
    for entry in doc["properties"]:
        assert entry["pass"] is True
        assert entry["residual"] <= entry["threshold"]


def test_verify_one_ledger_line_per_property(verify_a2):
    doc = json.loads(verify_a2.stdout)
    ledger_lines = [ln for ln in verify_a2.stderr.splitlines()
                    if ln.startswith("[pass]") or ln.startswith("[FAIL]")]
    assert len(ledger_lines) == len(doc["properties"])
    for line in ledger_lines:
        assert "residual" in line and "threshold" in line


def test_verify_seed_changes_samples_not_outcome(capsys):
    code5, doc5, _ = run_json(capsys, "--lattice", "A1", "--command",
                              "verify", "--seed", "5")
    code9, doc9, _ = run_json(capsys, "--lattice", "A1", "--command",
                              "verify", "--seed", "9")
    assert code5 == code9 == 0
    flags5 = [e["pass"] for e in doc5["properties"]]
    flags9 = [e["pass"] for e in doc9["properties"]]
    assert flags5 == flags9
    res5 = [e["residual"] for e in doc5["properties"]]
    res9 = [e["residual"] for e in doc9["properties"]]
    assert res5 != res9  # sampled points moved


def test_verify_deterministic_given_seed(capsys):
    def stripped(doc):
        return [{k: v for k, v in e.items() if k != "seconds"}
                for e in doc["properties"]]

    _, doc_a, _ = run_json(capsys, "--lattice", "A1", "--command", "verify",
                           "--seed", "3")
    _, doc_b, _ = run_json(capsys, "--lattice", "A1", "--command", "verify",
                           "--seed", "3")
    assert stripped(doc_a) == stripped(doc_b)


def test_verify_corrupted_gram_skips_suite(tmp_path, capsys):
    f = tmp_path / "odd.gram"
    f.write_text("2\n3 1\n1 4\n")
    code, out, err = run_cli(capsys, "--lattice", str(f),
                             "--command", "verify")
    assert code == 2
    assert out == ""
    assert "validation failure" in err
    assert "skipped" in err


def test_verify_tol_override_can_fail(capsys):
    code, doc, err = run_json(capsys, "--lattice", "A1", "--command",
                              "verify", "--tol", "1e-30")
    assert code == 1
    assert doc["pass"] is False
    failed = [e for e in doc["properties"] if not e["pass"]]
    assert failed
    assert all(e["threshold"] == 1e-30 for e in failed)
    exact = [e for e in doc["properties"] if e["threshold"] == 0.0]
    assert all(e["pass"] for e in exact)  # exact checks keep threshold 0
    assert "[FAIL]" in err


def test_verify_csv(capsys):
    code, out, _ = run_cli(capsys, "--lattice", "A1", "--command", "verify",
                           "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "property,residual,threshold,pass"
    assert all(line.endswith(",True") for line in lines[1:])


# ------------------------------------------------------------------- misc

def test_parse_s_grid():
    assert parse_s_grid("2,0") == [2 + 0j]
    assert parse_s_grid("2,1:3,-0.5") == [2 + 1j, 3 - 0.5j]
    assert parse_s_grid("4") == [4 + 0j]
    with pytest.raises(ValueError):
        parse_s_grid("1,2,3")
    with pytest.raises(ValueError):
        parse_s_grid("a,b")


def test_unknown_command_rejected(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--command", "frobnicate"])
    assert info.value.code == 2


def test_seed_echoed_in_output(capsys):
    code, doc, _ = run_json(capsys, "--lattice", "A1", "--command", "report",
                            "--seed", "42")
    assert code == 0
    assert doc["seed"] == 42
