"""Module system and the shared layers every block is assembled from.

A module is a plain Python object. Its parameters, buffers and submodules
are ordinary attributes, told apart by type: a ``Parameter`` is a
parameter, a public ndarray a buffer, a ``Module`` a submodule, and a list
attribute holds indexed submodules (``blocks.0``, ``blocks.1``); there is
no registry and no container class. Walking the attributes in assignment
order, recursively through submodules, names every parameter and buffer in
a stable, deterministic order. Constructors only declare them, by shape and
init, so a freshly built module is its layout alone and holds no state.
:meth:`Module.init_state` then allocates the one flat arena laid out in that
order, which the optimizer, the best-epoch snapshot and the checkpoint format
all share, and draws every random init straight into its view, in layout
order.
Forward passes that involve dropout take an explicit ``rng`` so training
runs are reproducible from a single seed.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from .numeric import tensor as T
from .numeric.tensor import Parameter, Tensor


class Module:
    """Base class: parameters, buffers and submodules are its plain attributes.

    Every ``Parameter`` attribute is a parameter, every ndarray attribute
    whose name has no leading underscore a buffer (non-trainable model
    state), and every ``Module`` attribute a submodule; a list attribute
    holds indexed submodules, its i-th named ``attr.i``. Attributes are
    walked in assignment order.
    """

    training = True

    def named_modules(self, prefix: str = ""):
        """This module, then every submodule depth first, each with its dotted prefix."""
        yield prefix, self
        for name, value in vars(self).items():
            if isinstance(value, Module):
                yield from value.named_modules(prefix + name + ".")
            elif isinstance(value, list):
                for i, m in enumerate(value):
                    if isinstance(m, Module):
                        yield from m.named_modules(f"{prefix}{name}.{i}.")

    def named_parameters(self):
        for prefix, m in self.named_modules():
            for name, p in vars(m).items():
                if isinstance(p, Parameter):
                    yield prefix + name, p

    def parameters(self) -> list[Parameter]:
        return [p for _, p in self.named_parameters()]

    def _buffer_slots(self):
        """``(dotted name, module, attribute)`` for every buffer, in traversal order."""
        for prefix, m in self.named_modules():
            for name, value in vars(m).items():
                if isinstance(value, np.ndarray) and not name.startswith("_"):
                    yield prefix + name, m, name

    def named_buffers(self):
        return ((full, getattr(m, name)) for full, m, name in self._buffer_slots())

    def named_state(self):
        """Every parameter's array, then every buffer, both in deterministic traversal order."""
        for name, p in self.named_parameters():
            yield name, p.data
        yield from self.named_buffers()

    def init_state(self, rng: np.random.Generator | None = None) -> "Module":
        """Allocate the state arena, fill it and bind every view to it; returns ``self``.

        Current values are copied in, and each declared draw ``init(rng,
        view)`` then writes into its view, in ``named_state`` order, so the
        layout fixes what each draw of ``rng`` becomes. Without ``rng``, a
        drawn parameter reads NaN.
        """
        params = self.parameters()
        buffers = [(m, name) for _, m, name in self._buffer_slots()]
        arrays = [p.data for p in params] + [getattr(m, name) for m, name in buffers]
        offsets = packed_offsets(arrays)
        arena = np.empty(offsets[-1])
        views = [arena[lo:lo + a.size].reshape(a.shape) for lo, a in zip(offsets, arrays)]
        for view, a in zip(views, arrays):
            view[...] = a
        for p, view in zip(params, views):
            if rng is not None and callable(p.init):
                p.init(rng, view)
            p.data = view
        for (m, name), view in zip(buffers, views[len(params):]):
            setattr(m, name, view)
        self._state_arena = arena
        return self

    def state_arena(self) -> np.ndarray:
        """One flat float64 array holding the whole model state, in ``named_state`` order.

        Each ``Parameter.data`` and each buffer is a view into it, so one
        copy of the arena snapshots the model and one assignment restores
        it. The first call packs the arena with :meth:`init_state`; later
        calls return the same array until a parameter or buffer is added or
        replaced, which packs afresh.
        """
        arena = self.__dict__.get("_state_arena")
        if arena is None or not all(a.base is arena for _, a in self.named_state()):
            arena = self.init_state()._state_arena
        return arena

    def parameter_arena(self) -> np.ndarray:
        """The parameters' head of :meth:`state_arena`: every parameter, in ``named_parameters`` order."""
        return self.state_arena()[:sum(p.size for p in self.parameters())]

    def train(self, mode: bool = True):
        for _, m in self.named_modules():
            m.training = mode
        return self

    def eval(self):
        return self.train(False)

    def forward(self, *args, **kwargs):
        raise NotImplementedError

    def __call__(self, *args, **kwargs):
        return self.forward(*args, **kwargs)


def packed_offsets(arrays) -> list[int]:
    """Where each array starts when ``arrays`` are packed end to end, then the total size.

    The one layout of model state: the state arena is carved by it, Adam's
    block plan walks it, and a checkpoint's manifest records it.
    """
    return list(itertools.accumulate((a.size for a in arrays), initial=0))


def first_non_finite(flat: np.ndarray, named) -> str | None:
    """The name of the first ``(name, array)`` pair holding a NaN or an infinity.

    ``flat`` packs the values to check: the block the arrays view, or one
    gathered from them. It is scanned once, and only a non-finite sum looks
    for the culprit. None if nothing is found.
    """
    # a sum is finite only if every term is; an overflowing sum of finite
    # values finds no culprit below
    with np.errstate(over="ignore", invalid="ignore"):
        if math.isfinite(flat.sum()):
            return None
    return next((name for name, a in named if not np.isfinite(a).all()), None)


def xavier_uniform(rng: np.random.Generator, view: np.ndarray) -> None:
    """Draw a (fan_in, fan_out) weight into ``view``, in place.

    The same bits as ``rng.uniform(-limit, limit)``: numpy computes
    ``low + (high - low) * u`` from the same uniform draws ``u``.
    """
    limit = np.sqrt(6.0 / sum(view.shape))
    rng.random(out=view)
    view *= 2 * limit
    view += -limit


class Linear(Module):
    """y = x @ W + b, Xavier-uniform weight and zero bias.

    The product and the bias are one tape node: every leading row of ``x``
    shares ``W``, so forward and backward each run one 2-D GEMM.
    """

    def __init__(self, in_features: int, out_features: int):
        self.weight = Parameter((in_features, out_features), xavier_uniform)
        self.bias = Parameter(out_features, 0.0)

    def forward(self, x: Tensor) -> Tensor:
        return T.matmul(x, self.weight, bias=self.bias)


class Dropout(Module):
    """Inverted dropout; identity in eval mode or at rate zero, the rule :meth:`mask` owns."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout rate must be in [0, 1), got {p}")
        self.p = float(p)
        self.scale = 1.0 / (1.0 - self.p)

    def mask(self, shape, rng: np.random.Generator | None) -> np.ndarray | None:
        """The boolean keep mask of one forward over ``shape``, or None where dropout is the identity."""
        if not self.training or self.p == 0.0:
            return None
        if rng is None:
            raise ValueError("dropout requires an rng in training mode")
        return rng.random(shape) >= self.p

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        keep = self.mask(x.shape, rng)
        return x if keep is None else T.dropout(x, keep, self.scale)


class BatchNorm(Module):
    """Per-feature batch normalization pooling every axis but the last.

    Training normalizes with batch statistics (population variance) in one
    tape node with an analytic backward, and updates running averages in
    place; evaluation uses the running averages.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5):
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = Parameter(num_features, 1.0)
        self.beta = Parameter(num_features, 0.0)
        self.running_mean = np.broadcast_to(0.0, num_features)
        self.running_var = np.broadcast_to(1.0, num_features)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features on the last axis, got shape {x.shape}"
            )
        if self.training:
            out, mu, v = T.normalize(x, tuple(range(x.ndim - 1)), self.eps,
                                     self.gamma, self.beta)
            m = self.momentum
            rm, rv = self.running_mean, self.running_var
            rm *= 1.0 - m
            rm += m * mu.reshape(-1)
            rv *= 1.0 - m
            rv += m * v.reshape(-1)
            return out
        denom = np.sqrt(self.running_var + self.eps)
        xhat = T.div(T.sub(x, self.running_mean), denom)
        return T.add(T.mul(xhat, self.gamma), self.beta)


class InstanceNorm(Module):
    """Per-row zero-mean unit-variance over the last axis, learnable feature affine.

    One tape node with an analytic backward.
    """

    def __init__(self, num_features: int, eps: float = 1e-5):
        self.num_features = num_features
        self.eps = eps
        self.gamma = Parameter(num_features, 1.0)
        self.beta = Parameter(num_features, 0.0)

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} features on the last axis, got shape {x.shape}"
            )
        return T.normalize(x, -1, self.eps, self.gamma, self.beta)[0]


_ACTIVATIONS = {"gelu": T.gelu, "relu": T.relu}


class FeedForward(Module):
    """Two-layer MLP: linear, activation, dropout, linear."""

    def __init__(self, d_in: int, hidden: int, d_out: int, activation: str = "gelu",
                 dropout: float = 0.0):
        if activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {activation!r}, expected one of {sorted(_ACTIVATIONS)}")
        self.lin1 = Linear(d_in, hidden)
        self.lin2 = Linear(hidden, d_out)
        self.drop = Dropout(dropout)
        self.activation = activation

    def forward(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
        # nested, so a dropped-out activation is freed before lin2 runs
        return self.lin2(self.drop(_ACTIVATIONS[self.activation](self.lin1(x)), rng))
