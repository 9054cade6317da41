"""The traced benchmark run wraps the package functions named in
perfbench/tracer.py; each must still exist, or every traced run fails.
The package stays off scipy altogether: Gamma and log Gamma come from
mpmath, and scipy is a test-only dependency.  Its import would cost
every CLI process more than the work of most commands.  Every memo but
the space_for intern table is a bounded lru_cache, whose own lock makes
it thread-safe, so no module needs a lock of its own."""

import ast
import importlib
import importlib.util
import pkgutil
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


def test_import_floor_excludes_scipy_integrate(package_env):
    code = ("import sys, orthokleis; "
            "assert 'scipy.integrate' not in sys.modules, 'import'; "
            "orthokleis.p2_integral_check(2.0, [[1, 0], [0, 1]]); "
            "assert 'scipy.integrate' not in sys.modules, 'first call'")
    out = subprocess.run([sys.executable, "-c", code], env=package_env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_import_floor_excludes_scipy(package_env):
    code = ("import sys, orthokleis; "
            "from orthokleis.assembly import gamma2; "
            "orthokleis.xi(0.3 + 4j); orthokleis.xi(-2.5); "
            "gamma2(2.5 + 1j); "
            "orthokleis.p2_integral_check(2.0, [[1, 0], [0, 1]]); "
            "orthokleis.completed_dirichlet([1, 2], 14.0, 12, 8, 1); "
            "loaded = [m for m in sys.modules "
            "if m == 'scipy' or m.startswith('scipy.')]; "
            "assert not loaded, loaded")
    out = subprocess.run([sys.executable, "-c", code], env=package_env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def _package_modules():
    import orthokleis

    return [importlib.import_module(f"orthokleis.{info.name}")
            for info in pkgutil.iter_modules(orthokleis.__path__)]


def test_every_memo_is_bounded():
    # space_for interns one Space per lattice: OrthElement compares spaces
    # by identity, so it must never evict
    unbounded = set()
    for module in _package_modules():
        for name, obj in vars(module).items():
            params = getattr(obj, "cache_parameters", None)
            if callable(params) and params()["maxsize"] is None:
                unbounded.add(f"{obj.__module__}.{name}")
    assert unbounded == {"orthokleis.orthogroup.space_for"}


def test_no_module_imports_threading():
    for module in _package_modules():
        tree = ast.parse(Path(module.__file__).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            assert not any(n.split(".")[0] == "threading" for n in names), \
                module.__name__
