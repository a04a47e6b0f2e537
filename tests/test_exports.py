"""Every name a package module lists in ``__all__`` resolves, so ``import *`` works,
and importing the CLI stays free of heavy optional libraries and of YAML."""

import importlib
import subprocess
import sys
from pathlib import Path

import pytest

MODULES = (
    "spectral_forecaster.numeric",
    "spectral_forecaster.numeric.tensor",
    "spectral_forecaster.model",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def loaded_modules(module: str, package: str) -> str:
    """The ``package`` modules a fresh interpreter holds after importing ``module``."""
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import {module}; "
        f"print(sorted(m for m in sys.modules if m.split('.')[0] == {package!r}))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    return proc.stdout.strip()


def test_cli_import_loads_no_scipy():
    # scipy alone used to cost most of every cold start
    assert loaded_modules("spectral_forecaster.cli", "scipy") == "[]"


def test_experiments_import_loads_no_yaml():
    # only load_experiment_config reads YAML; a run from a built config never does
    assert loaded_modules("spectral_forecaster.experiments", "yaml") == "[]"
