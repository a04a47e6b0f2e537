"""Timing probes installed from outside the package.

Every probe replaces a public callable in the namespace where the caller
looks it up (``training.backward`` rather than ``tensor.backward``,
``tensor.rfft_kernel`` rather than ``fft.rfft_kernel``) and puts the
original back when its context exits. Nothing under ``src/`` is edited.

:class:`StepClock` stays installed in every run. It only takes timestamps
at step, epoch and fit boundaries, so it adds a few microseconds per step.
:class:`LayerTracer` is installed only in the traced run: it times module
forwards, every recorded tape node's backward rule and the FFT kernels, and
walks each step's graph for the tape census.
"""

from __future__ import annotations

import contextlib
import math
import os
import time
from collections import Counter, defaultdict

import workloads
from spectral_forecaster import experiments, spectral, training
from spectral_forecaster.model import network, revin
from spectral_forecaster.numeric import tensor

perf = time.perf_counter


@contextlib.contextmanager
def patched(replacements):
    """Apply ``(owner, attribute, wrap)`` triples; ``wrap(original)`` builds the stand-in."""
    saved = []
    try:
        for owner, attr, wrap in replacements:
            original = getattr(owner, attr)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrap(original))
        yield
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


class StepClock:
    """Step, epoch, fit and predict boundary timestamps, plus the finite-loss check.

    A training step runs from the ``stack_windows`` call that assembles its
    batch to the return of its ``adam_step``. An epoch ends when the
    validation ``predict`` inside ``fit`` returns. Every ``predict`` call,
    validation and test alike, counts towards forward-only throughput.
    """

    def __init__(self):
        self.steps: list[float] = []      # seconds per step
        self.step_rows = 0
        self.epochs: list[float] = []     # seconds per epoch
        self.fits: list[float] = []       # seconds per fit call
        self.predict_calls = 0
        self.predict_rows = 0
        self.predict_s = 0.0
        self.nonfinite_losses = 0
        self.in_fit = False
        self.in_step = False
        self._batches_seen = 0
        self._step_start = 0.0
        self._epoch_start = 0.0

    def installed(self):
        return patched([
            (experiments, "fit", self._wrap_fit),
            (workloads, "fit", self._wrap_fit),
            (training, "stack_windows", self._wrap_stack),
            (training, "adam_step", self._wrap_adam),
            (training, "mse_loss", self._wrap_loss),
            (network.FilterFormer, "predict", self._wrap_predict),
        ])

    def _wrap_fit(self, fn):
        def fit(*args, **kwargs):
            self.in_fit = True
            self._batches_seen = 0
            start = self._epoch_start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                self.fits.append(perf() - start)
                self.in_fit = self.in_step = False
        return fit

    def _wrap_stack(self, fn):
        def stack_windows(samples):
            # fit stacks its validation rows once before the first batch
            if self.in_fit:
                self._batches_seen += 1
                if self._batches_seen > 1:
                    self.in_step = True
                    self._step_start = perf()
            out = fn(samples)
            if self.in_step:
                self.step_rows += out[0].shape[0] * out[0].shape[1]
            return out
        return stack_windows

    def _wrap_adam(self, fn):
        def adam_step(*args, **kwargs):
            out = fn(*args, **kwargs)
            if self.in_step:
                self.steps.append(perf() - self._step_start)
                self.in_step = False
            return out
        return adam_step

    def _wrap_loss(self, fn):
        def mse_loss(pred, target):
            loss = fn(pred, target)
            if not math.isfinite(float(loss.data)):
                self.nonfinite_losses += 1
            return loss
        return mse_loss

    def _wrap_predict(self, fn):
        def predict(model, *args, **kwargs):
            start = perf()
            out = fn(model, *args, **kwargs)
            end = perf()
            self.predict_calls += 1
            self.predict_rows += out.size // out.shape[-1]
            self.predict_s += end - start
            if self.in_fit:
                self.epochs.append(end - self._epoch_start)
                self._epoch_start = end
            return out
        return predict


# span name -> (owner, attribute); FilterFormer.forward's self time is patchify
MODULE_SPANS = {
    "model": (network.FilterFormer, "forward"),
    "revin_normalize": (revin.RevIN, "normalize"),
    "revin_denormalize": (revin.RevIN, "denormalize"),
    "filter": (spectral.SpectralFilter, "apply"),
    "embedding": (network.PatchEmbedding, "forward"),
    "spectral_block": (spectral.SpectralBlock, "forward"),
    "attention_block": (network.AttentionBlock, "forward"),
    "head": (network.ForecastHead, "forward"),
}


class LayerTracer:
    """Per-layer time and counts inside training steps, accumulated in memory.

    Only work done inside a training step (as the :class:`StepClock` defines
    it) is charged, except validation, which is charged per epoch, and the
    data and checkpoint calls, which are charged per call.
    """

    def __init__(self, clock: StepClock):
        self.clock = clock
        self.steps = 0
        self.epochs = 0
        self.census: Counter = Counter()          # nodes per op kind, last step
        self.census_steps: set[tuple] = set()     # every distinct census seen
        self.span_total: defaultdict = defaultdict(float)
        self.span_self: defaultdict = defaultdict(float)
        self._stack: list[float] = []
        self.bwd_op: defaultdict = defaultdict(float)
        self.backward_s = 0.0
        self.backward_fn_s = 0.0
        self.fft_s: defaultdict = defaultdict(float)          # (kernel, n) -> seconds
        self.fft_calls: Counter = Counter()                   # (kernel, n) -> calls
        self.training_s: defaultdict = defaultdict(float)     # adam, loss, batch
        self.validate_s = 0.0
        self.calls: defaultdict = defaultdict(list)           # per-call seconds
        self.checkpoint_bytes = 0

    def installed(self):
        reps = [(owner, attr, self._span(name)) for name, (owner, attr) in MODULE_SPANS.items()]
        reps += [
            (training, "backward", self._wrap_backward),
            (training, "adam_step", self._timed_step("adam")),
            (training, "mse_loss", self._timed_step("loss")),
            (training, "stack_windows", self._timed_batch),
            (network.FilterFormer, "predict", self._wrap_validate),
            (tensor, "rfft_kernel", self._wrap_fft("rfft_kernel", lambda a: a[0].shape[-1])),
            (tensor, "irfft_kernel", self._wrap_fft("irfft_kernel", lambda a: a[2])),
            (experiments, "synth_three_sine", self._per_call("data.synth_s")),
            (experiments, "load_csv", self._per_call("data.load_csv_s")),
            (experiments, "make_windows", self._per_call("data.make_windows_s")),
            (workloads, "generate_series", self._per_call("data.synth_s")),
            (workloads, "load_csv", self._per_call("data.load_csv_s")),
            (workloads, "make_windows", self._per_call("data.make_windows_s")),
            (experiments, "export_spectra", self._per_call("experiments.export_spectra_s")),
            (experiments, "save_checkpoint", self._wrap_save),
            (workloads, "save_checkpoint", self._wrap_save),
            (workloads, "load_checkpoint", self._per_call("checkpoint.load_s")),
        ]
        # step charges need the clock's boundaries, so repetitions enter this inside it
        return patched(reps)

    def _span(self, name):
        def wrap(fn):
            def span(*args, **kwargs):
                if not self.clock.in_step:
                    return fn(*args, **kwargs)
                self._stack.append(0.0)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    dt = perf() - start
                    child = self._stack.pop()
                    self.span_total[name] += dt
                    self.span_self[name] += dt - child
                    if self._stack:
                        self._stack[-1] += dt
            return span
        return wrap

    def _timed_node(self, op, fn):
        def backward_fn(g):
            start = perf()
            out = fn(g)
            dt = perf() - start
            self.bwd_op[op] += dt
            self.backward_fn_s += dt
            return out
        return backward_fn

    def _wrap_backward(self, fn):
        def backward(loss):
            if not self.clock.in_step:
                return fn(loss)
            census: Counter = Counter()
            seen: set[int] = set()
            todo = [loss]
            while todo:
                t = todo.pop()
                if id(t) in seen or t.node is None:
                    continue
                seen.add(id(t))
                node = t.node
                census[node.op] += 1
                node.backward_fn = self._timed_node(node.op, node.backward_fn)
                todo.extend(node.parents)
            self.census = census
            self.census_steps.add(tuple(sorted(census.items())))
            start = perf()
            try:
                return fn(loss)
            finally:
                self.backward_s += perf() - start
        return backward

    def _timed_step(self, key):
        def wrap(fn):
            def timed(*args, **kwargs):
                if not self.clock.in_step:
                    return fn(*args, **kwargs)
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.training_s[key] += perf() - start
                    if key == "adam":
                        self.steps += 1
            return timed
        return wrap

    def _timed_batch(self, fn):
        def stack_windows(samples):
            start = perf()
            out = fn(samples)
            if self.clock.in_step:
                self.training_s["batch"] += perf() - start
            return out
        return stack_windows

    def _wrap_validate(self, fn):
        def predict(model, *args, **kwargs):
            start = perf()
            out = fn(model, *args, **kwargs)
            if self.clock.in_fit:
                self.validate_s += perf() - start
                self.epochs += 1
            return out
        return predict

    def _wrap_fft(self, kernel, length_of):
        def wrap(fn):
            def timed(*args):
                if not self.clock.in_step:
                    return fn(*args)
                start = perf()
                out = fn(*args)
                key = (kernel, int(length_of(args)))
                self.fft_s[key] += perf() - start
                self.fft_calls[key] += 1
                return out
            return timed
        return wrap

    def _per_call(self, key):
        def wrap(fn):
            def timed(*args, **kwargs):
                start = perf()
                try:
                    return fn(*args, **kwargs)
                finally:
                    self.calls[key].append(perf() - start)
            return timed
        return wrap

    def _wrap_save(self, fn):
        def save_checkpoint(model, path):
            start = perf()
            fn(model, path)
            self.calls["checkpoint.save_s"].append(perf() - start)
            self.checkpoint_bytes = os.path.getsize(path)
        return save_checkpoint
