"""Every name a package module lists in ``__all__`` resolves, so ``import *`` works,
and importing the CLI stays free of heavy optional libraries."""

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


def test_cli_import_loads_no_scipy():
    # scipy alone used to cost most of every cold start
    src = Path(__file__).resolve().parent.parent / "src"
    code = (
        f"import sys; sys.path.insert(0, {str(src)!r}); import spectral_forecaster.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"
