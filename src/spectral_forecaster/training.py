"""MSE training with Adam, patience-based early stopping, and z-scale metrics.

The loop is deterministic end to end: batch shuffling draws from
default_rng([seed, 1]) and dropout from default_rng([seed, 2]), so a (seed,
config, data) triple fixes every reported number. Windows arrive already
z-normalized by the data layer and metrics stay on that scale; the model's
internal per-window renormalization is invisible here.
"""

from __future__ import annotations

import bisect
import ctypes
import math
from dataclasses import dataclass, field

import numpy as np

from .data import WindowSet, stack_windows
from .errors import ConfigError, NumericError
from .nn import first_non_finite, packed_offsets
from .numeric import Tensor, backward
from .numeric import tensor as T

@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings. Loss is fixed to MSE.

    learning_rate 0 is allowed and freezes the model, which is useful for
    exercising the early-stopping mechanism on its own.
    """

    learning_rate: float = 1e-4
    batch_size: int = 16
    max_epochs: int = 50
    patience: int = 15
    seed: int = 0

    def __post_init__(self):
        if not self.learning_rate >= 0:  # also rejects NaN
            raise ConfigError(f"learning_rate must be >= 0, got {self.learning_rate}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.max_epochs < 1:
            raise ConfigError(f"max_epochs must be >= 1, got {self.max_epochs}")
        if not 1 <= self.patience <= self.max_epochs:
            raise ConfigError(
                f"patience must be in [1, max_epochs], got {self.patience} with max_epochs {self.max_epochs}"
            )
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class Metrics:
    mse: float
    mae: float

    def __post_init__(self):
        for name, value in (("mse", self.mse), ("mae", self.mae)):
            if not math.isfinite(value) or value < 0:
                raise ValueError(f"{name} must be finite and nonnegative, got {value}")


def mse_loss(pred, target) -> Tensor:
    """Mean squared error over all elements, differentiable in pred."""
    pt = pred if isinstance(pred, Tensor) else Tensor(np.asarray(pred, dtype=np.float64))
    ta = target.data if isinstance(target, Tensor) else np.asarray(target, dtype=np.float64)
    if pt.shape != ta.shape:
        raise ValueError(f"shape mismatch: pred {pt.shape} vs target {ta.shape}")
    diff = T.sub(pt, ta)
    return T.mean(T.mul(diff, diff))


# Adam's moment decays and denominator floor
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# elements per Adam block: its five block-sized arrays (1.25 MB) stay in cache
# across the update's passes
ADAM_BLOCK = 32768


def block_plan(offsets) -> list[tuple[int, ...]]:
    """Each ``ADAM_BLOCK`` range of the packed parameters, as ``(lo, hi, first, a, last, b)``.

    ``offsets`` is :func:`nn.packed_offsets` of the parameters. Elements
    ``lo:hi`` run from element ``a`` of parameter ``first``'s flattened
    gradient, through every parameter between, to just before element ``b``
    of parameter ``last``'s.
    """
    plan = []
    for lo in range(0, offsets[-1], ADAM_BLOCK):
        hi = min(lo + ADAM_BLOCK, offsets[-1])
        first = bisect.bisect_right(offsets, lo) - 1
        last = bisect.bisect_left(offsets, hi) - 1
        plan.append((lo, hi, first, lo - offsets[first], last, hi - offsets[last]))
    return plan


@dataclass
class AdamState:
    """Flat first/second moment estimates over the model's parameter arena.

    ``arena`` is :meth:`Module.parameter_arena`; ``m`` and ``v`` share its
    layout, so one elementwise update covers every parameter. ``plan`` is
    :func:`block_plan` of that layout. ``block`` gathers the gradient of a
    range that spans parameters, and ``scratch`` is the one block-sized
    temporary the update runs through.
    """

    arena: np.ndarray
    plan: list
    m: np.ndarray
    v: np.ndarray
    block: np.ndarray
    scratch: np.ndarray
    step: int = 0

    @classmethod
    def for_model(cls, model) -> "AdamState":
        arena = model.parameter_arena()
        size = min(arena.size, ADAM_BLOCK)
        return cls(arena=arena, plan=block_plan(packed_offsets(model.parameters())),
                   m=np.zeros_like(arena), v=np.zeros_like(arena), block=np.empty(size),
                   scratch=np.empty(size))


def adam_step(state: AdamState, named_params, lr: float) -> None:
    """One Adam update of the whole parameter arena, in place.

    ``named_params`` is the model's ``named_parameters()`` in order. The
    update walks ``state.plan``: a range inside one parameter reads a slice
    of its gradient, and any other range gathers its pieces into
    ``state.block``. Every range is checked for non-finite values before any
    is updated, so a rejected step leaves every state untouched; the update
    then runs through ``state.scratch`` with ``out=`` ufuncs and allocates
    no parameter-sized array.
    """
    names, grads = [], []
    for name, p in named_params:
        if p.grad is None:
            raise ValueError(f"parameter {name} has no gradient")
        names.append(name)
        grads.append(p.grad)

    held = None  # lo of the range whose gradient state.block holds

    def gather(lo, hi, first, a, last, b):
        nonlocal held
        if first == last:
            return grads[first].reshape(-1)[a:b]
        if held != lo:
            np.concatenate([grads[first].reshape(-1)[a:], *grads[first + 1:last],
                            grads[last].reshape(-1)[:b]], axis=None, out=state.block[:hi - lo])
            held = lo
        return state.block[:hi - lo]

    t = state.step + 1
    for lo, hi, first, a, last, b in state.plan:
        bad = first_non_finite(gather(lo, hi, first, a, last, b),
                               zip(names[first:last + 1], grads[first:last + 1]))
        if bad is not None:
            raise NumericError(f"non-finite gradient for parameter {bad} at step {t}")
    state.step = t
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    # ranges are independent: backwards, the first spanning range met is the
    # one the check gathered last, which state.block still holds
    for lo, hi, *span in reversed(state.plan):
        g = gather(lo, hi, *span)
        m, v = state.m[lo:hi], state.v[lo:hi]
        tmp = state.scratch[:g.size]
        m *= ADAM_BETA1
        np.multiply(g, 1.0 - ADAM_BETA1, out=tmp)
        m += tmp
        v *= ADAM_BETA2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - ADAM_BETA2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += ADAM_EPS
        np.divide(m, tmp, out=tmp)
        tmp *= lr / bc1
        state.arena[lo:hi] -= tmp


@dataclass
class FitResult:
    model: object
    history: list[tuple[int, float, float]]  # (epoch, train_mse, val_mse)
    best_epoch: int
    best_val: float
    stopped_epoch: int


def _rows(samples) -> tuple[np.ndarray, np.ndarray]:
    # channel-independent: every (sample, channel) pair becomes one row
    x, y = stack_windows(samples)
    return x.reshape(-1, x.shape[-1]), y.reshape(-1, y.shape[-1])


def _raw_metrics(model, rows_x: np.ndarray, rows_y: np.ndarray) -> tuple[float, float]:
    # divergence shows up as inf or NaN in the result and is reported upstream;
    # in place in the prediction: |e| * |e| has the bits of e * e
    with np.errstate(over="ignore", invalid="ignore"):
        err = model.predict(rows_x)
        err -= rows_y
        mae = float(np.mean(np.abs(err, out=err)))
        err *= err
        return float(np.mean(err)), mae


def _keep_heap_between_steps() -> None:
    """Keep a training step's freed memory in the heap for the next step to reuse.

    glibc's default thresholds grow only to the largest mmapped array the
    process has freed, and the trim threshold to twice that. A step frees
    far more than that when its tape and gradients go, so its activations
    are mapped or trimmed away and faulted in again on the next step.
    Fixed thresholds stop that. Where libc has no ``mallopt``, nothing is set.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    mallopt(-3, 32 << 20)  # M_MMAP_THRESHOLD
    mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD


def fit(model, windows: WindowSet, cfg: TrainConfig) -> FitResult:
    """Train until max_epochs or until val MSE stops improving for `patience` epochs.

    The epoch with the lowest validation MSE wins (ties keep the earlier
    epoch) and its whole state, parameters and buffers, is restored into the
    model before returning. A non-finite validation loss aborts with the
    failing epoch. The best epoch's state is copied only when a later epoch
    is about to change it, so a run whose final epoch is best copies nothing.
    """
    if not windows.train or not windows.val:
        raise ValueError("fit needs nonempty train and val streams")
    _keep_heap_between_steps()
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    dropout_rng = np.random.default_rng([cfg.seed, 2])
    state = AdamState.for_model(model)
    model_state = model.state_arena()
    params = list(model.named_parameters())
    for _, p in params:
        p.grad = None
    val_x, val_y = _rows(windows.val)

    # with the Adam state and the generators, all an epoch hands the next;
    # the best value, the patience count and the stopped epoch derive from these
    history: list[tuple[int, float, float]] = []  # (epoch, train_mse, val_mse)
    best_epoch = 0
    best_state: np.ndarray | None = None

    for epoch in range(1, cfg.max_epochs + 1):
        if epoch > 1 and best_epoch == epoch - 1:
            # the model holds the best epoch's state, which this epoch changes
            if best_state is None:
                best_state = np.empty_like(model_state)
            best_state[...] = model_state
        model.train()
        order = shuffle_rng.permutation(len(windows.train))
        sq_sum = 0.0
        n_elems = 0
        # an overflow ends in adam_step's non-finite-gradient error, reported alone
        with np.errstate(over="ignore", invalid="ignore"):
            for lo in range(0, len(order), cfg.batch_size):
                batch = [windows.train[i] for i in order[lo:lo + cfg.batch_size]]
                rows_x, rows_y = _rows(batch)
                loss = mse_loss(model(rows_x, rng=dropout_rng), rows_y)
                backward(loss)
                adam_step(state, params, cfg.learning_rate)
                for _, p in params:
                    p.grad = None  # freed here, so the next forward reuses their memory
                sq_sum += loss.item() * rows_y.size
                n_elems += rows_y.size
        train_mse = sq_sum / n_elems

        model.eval()
        val_mse, _ = _raw_metrics(model, val_x, val_y)
        if not math.isfinite(val_mse):
            raise NumericError(f"validation loss diverged at epoch {epoch}")
        history.append((epoch, train_mse, val_mse))

        if best_epoch == 0 or val_mse < history[best_epoch - 1][2]:
            best_epoch = epoch
        elif epoch - best_epoch >= cfg.patience:
            break

    if best_epoch != epoch:
        model_state[...] = best_state
    model.eval()
    return FitResult(
        model=model, history=history, best_epoch=best_epoch,
        best_val=history[best_epoch - 1][2], stopped_epoch=epoch,
    )


def evaluate(model, samples) -> Metrics:
    """MSE and MAE of model.predict over a window stream, on the z-normalized scale."""
    samples = list(samples)
    if not samples:
        raise ValueError("cannot evaluate an empty stream")
    rows_x, rows_y = _rows(samples)
    mse_v, mae_v = _raw_metrics(model, rows_x, rows_y)
    if math.isinf(mse_v) or math.isinf(mae_v):  # a NaN is left to Metrics to reject
        raise NumericError(f"metrics overflowed float64: mse {mse_v}, mae {mae_v}")
    return Metrics(mse=mse_v, mae=mae_v)
