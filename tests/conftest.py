"""Fixtures shared by the test modules."""

import os
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"


@pytest.fixture(scope="session")
def package_env():
    """The environment for a spawned interpreter that must import the
    package from this checkout: pyproject's pytest `pythonpath` reaches
    only the pytest process itself, so src/ goes first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return env
