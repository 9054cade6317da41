"""The traced benchmark run wraps the package functions named in
perfbench/tracer.py; each must still exist, or every traced run fails.
The package import stays off scipy.integrate: nothing uses it, and it
costs every CLI process more than the scipy.special import it needs."""

import importlib
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


@pytest.mark.parametrize("layer,func", _traced())
def test_traced_function_resolves(layer, func):
    module = importlib.import_module(f"orthokleis.{layer}")
    assert callable(getattr(module, func, None)), f"orthokleis.{layer}.{func}"


def test_import_floor_excludes_scipy_integrate():
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(src), env.get("PYTHONPATH")) if p)
    code = ("import sys, orthokleis; "
            "assert 'scipy.integrate' not in sys.modules, 'import'; "
            "orthokleis.p2_integral_check(2.0, [[1, 0], [0, 1]]); "
            "assert 'scipy.integrate' not in sys.modules, 'first call'")
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr
