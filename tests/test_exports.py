"""Every name a package module lists in ``__all__`` resolves, so ``import *`` works."""

import importlib

import pytest

MODULES = (
    "spectral_forecaster.numeric",
    "spectral_forecaster.numeric.fft",
    "spectral_forecaster.numeric.tensor",
    "spectral_forecaster.model",
)


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []
