"""The traced benchmark run wraps the package functions named in
perfbench/tracer.py; each must still exist, or every traced run fails."""

import importlib
import importlib.util
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
