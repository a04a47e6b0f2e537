"""What the training benchmark's probes patch and call still exists under the same names.

``perfbench/probes.py`` replaces package callables by name and
``perfbench/run.py`` calls the FFT kernels directly. A rename on either side
would stop ``--trace 1`` with an AttributeError, or leave a wrapper that is
never called, so the FFT metrics would read 0 without any error.
"""

import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import reference as ref
from spectral_forecaster.numeric import Parameter, backward
from spectral_forecaster.numeric import tensor

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def probes(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import probes as module
    return module


@pytest.fixture
def tracer(probes):
    """A layer tracer inside a training step, with every probe installed."""
    clock = probes.StepClock()
    tracer = probes.LayerTracer(clock)
    # installing looks up every patched name, so a missing one fails here
    with clock.installed(), tracer.installed():
        clock.in_step = True
        yield tracer


@pytest.mark.parametrize("n", [1, 16, 17, 96, 336])
def test_fft_kernels_round_trip_as_the_sweep_calls_them(tracer, n):
    x = np.random.default_rng(n).standard_normal((112, n))
    re, im = tensor.rfft_kernel(x)
    np.testing.assert_allclose(tensor.irfft_kernel(re, im, n), x, atol=1e-12)
    assert tracer.fft_calls == Counter({("rfft_kernel", n): 1, ("irfft_kernel", n): 1})


def test_gate_forward_and_backward_go_through_the_patched_kernels(tracer):
    rng = np.random.default_rng(0)
    y = Parameter(rng.standard_normal((3, 16)))
    w = Parameter(rng.standard_normal(16))
    backward(ref.sum(tensor.spectral_gate(y, w)))
    assert y.grad is not None and w.grad is not None
    assert tracer.fft_calls == Counter({("rfft_kernel", 16): 3, ("irfft_kernel", 16): 3})
    assert tracer.fft_s[("rfft_kernel", 16)] > 0.0 and tracer.fft_s[("irfft_kernel", 16)] > 0.0
