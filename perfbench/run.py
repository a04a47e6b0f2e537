"""Training benchmark for spectral-forecaster: end-to-end and per-layer metrics.

Run from the repository root:

    python3 perfbench/run.py --workload pinned --seed 1 --seconds 35 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload in turn

Workloads (see workloads.py and BENCHMARK.json for why each exists):

- ``pinned``: the acceptance configuration through ``experiments.run``;
  tape and Python overhead dominate.
- ``paper``: the paper-scale ETTh1 shape; matmul backward dominates.
- ``prefilter336``: pre-embedding filters of length 336 (Bluestein FFT path);
  the FFT kernels dominate.

Each run repeats its workload's operation (a fresh seeded model, a fixed
training budget, evaluation, checkpoint) at least twice, and starts another
only while it is expected to end within ``--seconds``. Every repetition is
checked: all training losses
finite, the checkpoint reloads to bit-identical ``predict`` output, and the
test MSE is bit-identical to the first repetition's. Any failure is counted
in ``failed``, makes ``correct`` false and the exit code 1.

``--trace 0`` reports the end-to-end metrics. Their timings are means over
the whole run (work done over time taken): on a shared host whose speed
switches between a fast and a slow mode every few seconds, a median step or
repetition time jumps between the modes, while a mean over the run moves
only with the share of time spent in each. Timings taken from a small slice
of the run swing further, so forward-only predict throughput (about a tenth
of the run), the median and tail step times and the epoch time are printed
beside the metrics, not reported as metrics.
``--trace 1`` alternates
untraced repetitions with repetitions under the layer tracer (probes.py),
and reports the per-layer metrics, the tracing overhead and an FFT kernel
sweep.
The last stdout line is one JSON object: correct, attempted, failed,
metrics. The line before it is the environment block.

BLAS runs on one thread (``SPECTRAL_FORECASTER_THREADS=1``): on a 2-core
machine a second thread made both the paper-scale and the pinned step slower.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
THREADS = "1"
WORKLOADS = ("pinned", "paper", "prefilter336")
SETUP_REPEATS = 5
SWEEP_LENGTHS = (16, 64, 96, 128, 336)
SWEEP_ROWS = 112
TAIL_BEYOND = 10  # the tail percentile keeps at least this many steps above it
# tape op kinds with per-kind metrics; every workload records all of them
OPS = ("add", "sub", "mul", "div", "mean", "sqrt", "matmul", "reshape", "transpose",
       "gelu", "softmax", "rfft_re", "rfft_im", "irfft")

perf = time.perf_counter


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")
    return args


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy as np
    import spectral_forecaster

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "package": spectral_forecaster.__version__,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "threads": {var: os.environ.get(var) for var in (
            "SPECTRAL_FORECASTER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
            "MKL_NUM_THREADS")},
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
    }


def cold_setup_seconds(workload: str, seed: int, workdir: str) -> float:
    """One set-up in a fresh interpreter, so imports are paid again."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed), workdir],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def tail(values: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its percentile."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def fft_sweep(seed: int) -> dict:
    """Microseconds per rfft_kernel / irfft_kernel call on (112, n) inputs."""
    import numpy as np
    from spectral_forecaster.numeric import tensor

    rng = np.random.default_rng([seed, 99])
    out = {}
    for n in SWEEP_LENGTHS:
        x = rng.standard_normal((SWEEP_ROWS, n))
        re, im = tensor.rfft_kernel(x)
        for kernel, call in (("rfft", lambda: tensor.rfft_kernel(x)),
                             ("irfft", lambda: tensor.irfft_kernel(re, im, n))):
            call()
            start = perf()
            call()
            calls = max(1, int(0.02 / max(perf() - start, 1e-6)))  # about 20 ms a sample
            samples = []
            for _ in range(7):
                start = perf()
                for _ in range(calls):
                    call()
                samples.append((perf() - start) / calls)
            out[f"fft.sweep.{kernel}_n{n}_us"] = 1e6 * statistics.median(samples)
    return out


class Run:
    """One workload run: set-up, the repeated operation, checks, and metrics."""

    def __init__(self, args, workdir: str):
        import probes
        import workloads

        self.args = args
        self.workdir = workdir
        self.workload = workloads.make_workload(args.workload, args.seed, workdir)
        self.clock = probes.StepClock()
        self.tracer = probes.LayerTracer(self.clock) if args.trace else None
        self.run_s: list[float] = []
        self.test_mse: list[float] = []
        self.untraced_steps: list[float] = []
        self.traced_steps: list[float] = []
        self.errors: list[str] = []
        self.reps = 0
        self.failed_reps = 0
        self.setup_s: list[float] = []
        self.sweep: dict = {}

    def tracing(self, on: bool):
        return self.tracer.installed() if on and self.tracer else nullcontext()

    def execute(self) -> None:
        with self.tracing(True):
            self.workload.generate(self.workdir)
            self.workload.setup()
        for _ in range(SETUP_REPEATS):
            self.setup_s.append(cold_setup_seconds(self.args.workload, self.args.seed,
                                                   self.workdir))
        with self.clock.installed():
            start = perf()
            while self.reps < 2 or (perf() - start + statistics.fmean(self.run_s)
                                    <= self.args.seconds):
                # traced and untraced repetitions alternate, so drift in the
                # machine's speed does not masquerade as tracing overhead
                traced = self.tracer is not None and self.reps % 2 == 1
                first_step = len(self.clock.steps)
                self.reps += 1
                # repetitions are independent: garbage left by one is not
                # collected, and charged, inside the next
                gc.collect()
                try:
                    with self.tracing(traced):
                        self.repetition()
                except Exception:
                    self.failed_reps += 1
                    self.errors.append(traceback.format_exc())
                    break
                (self.traced_steps if traced else self.untraced_steps).extend(
                    self.clock.steps[first_step:])

    def repetition(self) -> None:
        import workloads

        t0 = perf()
        res = self.workload.rep()
        self.run_s.append(perf() - t0)

        direct = res.model.predict(res.test_rows)
        again = workloads.load_checkpoint(res.checkpoint).predict(res.test_rows)

        self.test_mse.append(res.test_mse)
        problems = []
        if direct.tobytes() != again.tobytes():
            problems.append("reloaded checkpoint predicts different output")
        if res.test_mse != self.test_mse[0]:
            problems.append(f"test MSE {res.test_mse!r} differs from first repetition "
                            f"{self.test_mse[0]!r}")
        if problems:
            self.failed_reps += 1
            self.errors.extend(problems)

    @property
    def attempted(self) -> int:
        return len(self.clock.steps) + self.reps

    @property
    def failed(self) -> int:
        return self.clock.nonfinite_losses + self.failed_reps

    def end_to_end(self) -> dict:
        return {
            "setup_s": (statistics.median(self.setup_s), "s",
                        f"median of {len(self.setup_s)} cold set-ups"),
            "run_s": (statistics.fmean(self.run_s), "s",
                      f"mean of {len(self.run_s)} repetitions"),
            "train_rows_per_s": (self.clock.step_rows / sum(self.clock.fits), "rows/s",
                                 f"{self.clock.step_rows} rows"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB", "peak resident set of this process"),
            "test_mse": (self.test_mse[0], "z-scale",
                         f"bit-identical over {len(self.test_mse)} repetitions"),
        }

    def timing_report(self) -> list[str]:
        """Timings that are printed but not reported as metrics."""
        clock = self.clock
        steps = clock.steps
        tail_s, tail_pct = tail(steps)
        epochs = clock.epochs
        return [
            f"  predict_rows_per_s {clock.predict_rows / clock.predict_s:.6g} rows/s "
            f"({clock.predict_rows} rows in {clock.predict_calls} predict calls)",
            f"  step_ms_p50 {1e3 * statistics.median(steps):.6g} ms ({len(steps)} steps)",
            f"  step_ms_tail {1e3 * tail_s:.6g} ms (p{tail_pct:.2f} of {len(steps)} steps)",
            f"  epoch_s {statistics.median(epochs):.6g} s (median of {len(epochs)} epochs)",
        ]

    def per_layer(self) -> dict:
        tr = self.tracer
        n = max(tr.steps, 1)

        def per_step_ms(seconds):
            return 1e3 * seconds / n

        def per_call_ms(key):
            calls = tr.calls.get(key)
            return 1e3 * statistics.median(calls) if calls else 0.0

        def per_call_s(key):
            calls = tr.calls.get(key)
            return statistics.median(calls) if calls else 0.0

        untraced_ms = 1e3 * statistics.median(self.untraced_steps)
        traced_ms = 1e3 * statistics.median(self.traced_steps)
        m = {"tensor.nodes_per_step": (sum(tr.census.values()), "count")}
        for op in OPS:
            m[f"tensor.nodes.{op}"] = (tr.census.get(op, 0), "count")
        m["tensor.backward_ms"] = (per_step_ms(tr.backward_s), "ms")
        m["tensor.backward_overhead_ms"] = (per_step_ms(tr.backward_s - tr.backward_fn_s), "ms")
        for op in OPS:
            m[f"tensor.bwd.{op}_ms"] = (per_step_ms(tr.bwd_op.get(op, 0.0)), "ms")
        for kernel in ("rfft_kernel", "irfft_kernel"):
            keys = [k for k in tr.fft_s if k[0] == kernel]
            m[f"fft.{kernel}_ms"] = (per_step_ms(sum(tr.fft_s[k] for k in keys)), "ms")
            m[f"fft.{kernel}_calls"] = (sum(tr.fft_calls[k] for k in keys) / n, "count")
        for key, value in self.sweep.items():
            m[key] = (value, "us")
        total, own = tr.span_total, tr.span_self
        m["fwd.model_ms"] = (per_step_ms(total["model"]), "ms")
        m["fwd.patchify_ms"] = (per_step_ms(own["model"]), "ms")
        m["fwd.revin_ms"] = (per_step_ms(total["revin_normalize"] + total["revin_denormalize"]),
                             "ms")
        for name in ("embedding", "spectral_block", "filter", "attention_block", "head"):
            m[f"fwd.{name}_ms"] = (per_step_ms(total[name]), "ms")
        for name in ("adam", "loss", "batch"):
            m[f"training.{name}_ms"] = (per_step_ms(tr.training_s[name]), "ms")
        m["training.validate_ms"] = (1e3 * tr.validate_s / max(tr.epochs, 1), "ms")
        for name in ("load_csv", "make_windows", "synth"):
            m[f"data.{name}_s"] = (per_call_s(f"data.{name}_s"), "s")
        m["checkpoint.save_ms"] = (per_call_ms("checkpoint.save_s"), "ms")
        m["checkpoint.load_ms"] = (per_call_ms("checkpoint.load_s"), "ms")
        m["checkpoint.bytes"] = (tr.checkpoint_bytes, "bytes")
        m["experiments.export_spectra_ms"] = (per_call_ms("experiments.export_spectra_s"), "ms")
        m["trace.step_ms_untraced"] = (untraced_ms, "ms")
        m["trace.step_ms_traced"] = (traced_ms, "ms")
        m["trace.overhead_frac"] = (traced_ms / untraced_ms - 1.0, "fraction")
        return m

    def layer_report(self, m: dict) -> list[str]:
        """Human-readable shares of the traced step and the per-length FFT split."""
        tr = self.tracer
        step = m["trace.step_ms_traced"][0]
        n = max(tr.steps, 1)
        layers = {f"tensor.bwd.{op}": m[f"tensor.bwd.{op}_ms"][0] for op in OPS}
        layers["fft kernels"] = m["fft.rfft_kernel_ms"][0] + m["fft.irfft_kernel_ms"][0]
        layers["fwd.model"] = m["fwd.model_ms"][0]
        layers["tensor.backward"] = m["tensor.backward_ms"][0]
        for name in ("adam", "loss", "batch"):
            layers[f"training.{name}"] = m[f"training.{name}_ms"][0]
        ranked = sorted(layers.items(), key=lambda kv: -kv[1])
        lines = ["layer shares of the traced step (%.3f ms; fft overlaps fwd and bwd):" % step]
        lines += [f"  {name:28s} {ms:10.3f} ms {100 * ms / step:6.1f}%" for name, ms in ranked]
        bwd_total = sum(tr.bwd_op.values()) or 1.0
        top_op, top_s = max(tr.bwd_op.items(), key=lambda kv: kv[1])
        nodes = sum(tr.census.values()) or 1
        top_kind, top_count = tr.census.most_common(1)[0]
        lines.append(f"largest op kind: {top_op} {100 * top_s / bwd_total:.1f}% of backward-rule "
                     f"time; most nodes: {top_kind} {top_count}/{nodes}; "
                     f"distinct step graphs {len(tr.census_steps)}")
        lines.append("census: " + ", ".join(f"{k}={v}" for k, v in sorted(tr.census.items())))
        for (kernel, length), secs in sorted(tr.fft_s.items()):
            lines.append(f"fft {kernel} n={length}: {tr.fft_calls[(kernel, length)] / n:.2f} "
                         f"calls/step, {1e3 * secs / n:.3f} ms/step")
        lines.append(f"tracing overhead: {100 * m['trace.overhead_frac'][0]:.1f}% "
                     f"({len(self.untraced_steps)} untraced vs {tr.steps} traced steps)")
        return lines


def run_all(args) -> int:
    worst = 0
    for name in WORKLOADS:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
               str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        worst = max(worst, subprocess.run(cmd).returncode)
    return worst


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "spectral_forecaster").is_dir():
        print(f"perfbench: no package source at {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    os.environ["SPECTRAL_FORECASTER_THREADS"] = THREADS
    sys.path.insert(0, str(SRC))

    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        run = Run(args, workdir)
        started = perf()
        run.execute()
        wall = perf() - started
        if args.trace:
            run.sweep = fft_sweep(args.seed)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for err in run.errors:
        print(err, file=sys.stderr)
    correct = not run.errors and run.failed == 0 and len(run.run_s) >= 2
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(run.run_s)} repetitions, {len(run.clock.steps)} steps, {wall:.1f} s")
    metrics = {}
    if correct:
        table = run.per_layer() if args.trace else run.end_to_end()
        for name, entry in table.items():
            value, unit = entry[0], entry[1]
            note = f"  ({entry[2]})" if len(entry) > 2 else ""
            print(f"  {name:34s} {value:14.6g} {unit}{note}")
            metrics[name] = {"value": value, "unit": unit}
        print("\n".join(run.layer_report(table) if args.trace else run.timing_report()))
    attempted = max(run.attempted, 1)
    print(f"error_rate {run.failed / attempted:.6g} ({run.failed} of {attempted} steps "
          "and repetitions failed)")
    print("env " + json.dumps(environment(), sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": run.failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
