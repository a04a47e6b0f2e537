"""Reverse-mode automatic differentiation over float64 numpy storage.

A :class:`Tensor` wraps an ndarray together with an optional :class:`TapeNode`
recording the op that produced it. A node names a recorded parent by that
parent's node, which holds no array, and its backward rule keeps only the
shapes and arrays it reads, so an intermediate no rule reads is freed as
soon as the forward drops it. An output its own node can rebuild carries
that recipe, and a rule that reads it keeps the recipe, so each activation
is held once: a ``normalize`` output is rebuilt from the ``xhat`` that node
keeps, and a ``reshape`` passes its input's recipe on. Multi-head attention
is one node, :func:`attention`, which keeps only its softmax maps and
dropout mask and recomputes the rest in backward.
``backward`` walks the recorded graph once in reverse topological order,
accumulates gradients into ``requires_grad`` leaves, and frees each node as
soon as its rule has run, by unsetting the rule and the parents. A graph
that reaches a freed node, as a second call on the same loss does, is refused
before any rule runs. Ops are module-level functions.
Everything stays in float64; spectra appear only inside
:func:`spectral_gate`, so the whole graph is real-valued.
"""

from __future__ import annotations

import contextlib
import math

import numpy as np

from ..errors import NumericError

__all__ = [
    "Tensor",
    "Parameter",
    "TapeNode",
    "no_grad",
    "backward",
    "add",
    "sub",
    "mul",
    "div",
    "matmul",
    "transpose",
    "reshape",
    "mean",
    "normalize",
    "relu",
    "gelu",
    "attention",
    "dropout",
    "unfold",
    "spectral_gate",
    "even_chunks",
    "rfft_kernel",
    "irfft_kernel",
]

NORM_EPS = 1e-5  # the variance floor of every normalization layer
_grad_enabled = True


@contextlib.contextmanager
def no_grad():
    """Disable tape recording inside the block (evaluation-only forwards)."""
    global _grad_enabled
    prev = _grad_enabled
    _grad_enabled = False
    try:
        yield
    finally:
        _grad_enabled = prev


class TapeNode:
    """One recorded op, and the data-free handle every consumer of its output holds.

    ``parents`` holds each leaf operand itself and, for a recorded operand,
    its node; ``backward_fn`` closes over shapes and the arrays it reads,
    never over a Tensor. ``backward`` frees the node by unsetting both, so
    :attr:`node` reads None from then on, and a later backward whose graph
    reaches the node is refused.
    """

    __slots__ = ("op", "parents", "backward_fn")
    requires_grad = True

    def __init__(self, op, parents, backward_fn):
        self.op = op
        self.parents = parents
        self.backward_fn = backward_fn

    @property
    def node(self) -> "TapeNode | None":
        """This node, until backward frees it."""
        return None if self.backward_fn is None else self


class Tensor:
    """Float64 array with optional gradient tracking."""

    __slots__ = ("data", "grad", "requires_grad", "_ref", "_backward_done", "_rebuild")

    def __init__(self, data, requires_grad: bool = False):
        arr = np.asarray(data, dtype=np.float64)
        if not np.isfinite(arr).all():
            raise NumericError("tensor data must be finite")
        self.data = arr
        self.grad = None
        self.requires_grad = bool(requires_grad)
        self._ref = None
        self._backward_done = False
        self._rebuild = None

    @property
    def node(self) -> TapeNode | None:
        """The op that produced this tensor, until backward frees it."""
        return None if self._ref is None else self._ref.node

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"


class Parameter(Tensor):
    """Trainable leaf tensor; modules collect these by attribute name.

    ``Parameter(array)`` holds ``array``. ``Parameter(shape, init)`` is
    declared by shape and holds no memory: ``init`` is a constant, or a draw
    ``init(rng, view)`` that fills ``view`` in place. Until
    :meth:`Module.init_state` or :meth:`Module.state_arena` gives it its view
    of the state arena, ``data`` is a read-only zero-stride placeholder that
    reads the constant, or NaN for a draw, so an undrawn model computes NaN.
    """

    __slots__ = ("init",)

    def __init__(self, data, init=None):
        super().__init__(data if init is None else 0.0, requires_grad=True)
        if init is not None:
            self.data = np.broadcast_to(np.nan if callable(init) else float(init), data)
        self.init = init


def _make(data: np.ndarray, requires_grad: bool = False) -> Tensor:
    # internal fast path: ops already guarantee float64 contents
    t = Tensor.__new__(Tensor)
    t.data = data
    t.grad = None
    t.requires_grad = requires_grad
    t._ref = None
    t._backward_done = False
    t._rebuild = None
    return t


def _wrap(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _recording(parents) -> bool:
    """Whether an op on ``parents`` records a node; ops skip backward-only work otherwise."""
    if _grad_enabled:
        for p in parents:  # a plain loop: this runs for every op, and any() costs more
            if p.requires_grad:
                return True
    return False


def _from_op(data: np.ndarray, op: str, parents: tuple, backward_fn) -> Tensor:
    if _recording(parents):
        out = _make(data, requires_grad=True)
        handles = tuple([p if p._ref is None else p._ref for p in parents])
        out._ref = TapeNode(op, handles, backward_fn)
        return out
    return _make(data)


def _keep(t: Tensor):
    """What a rule keeps to read ``t.data`` in backward: a call that returns the same bits.

    That is ``t``'s recipe when it has one (a :func:`normalize` output is
    rebuilt from what its own node keeps), else the array itself, which a
    rule must not write into.
    """
    data = t.data
    return t._rebuild or (lambda: data)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Reduce a broadcast gradient back to the operand's shape."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g.reshape(shape)


def backward(loss: Tensor) -> None:
    """Accumulate d(loss)/d(leaf) into every requires_grad leaf, then free the tape.

    A graph that reaches a node an earlier backward freed is refused with a
    ``ValueError`` before any rule runs, so no gradient is written and no
    node is freed. Each leaf's gradient is the fresh array a rule returned or
    the sum of its contributions, taken at the leaf's own turn, and a second
    backward without a reset gives ``old + (g1 + g2)``.
    """
    if loss.shape != ():
        raise ValueError(f"backward requires a scalar loss, got shape {loss.shape}")
    if loss._backward_done:
        raise ValueError("backward was already called on this loss; build a fresh graph")

    root = loss if loss._ref is None else loss._ref
    topo: list = []  # the root, nodes and leaves, parents before children
    seen: set[int] = set()
    stack: list = [(root, False)]
    while stack:
        t, expanded = stack.pop()
        if expanded:
            topo.append(t)
            continue
        if id(t) in seen:
            continue
        seen.add(id(t))
        stack.append((t, True))
        if isinstance(t, TapeNode):
            if t.backward_fn is None:
                raise ValueError(f"backward reached a {t.op!r} node an earlier backward "
                                 "freed; build a fresh graph")
            for p in t.parents:
                if id(p) not in seen and p.requires_grad:
                    stack.append((p, False))
    loss._backward_done = True

    # popping drops each entry, and freeing its node drops the arrays the
    # rule kept, as soon as it has run
    grads: dict[int, np.ndarray] = {id(root): np.ones(())} if root.requires_grad else {}
    while topo:
        t = topo.pop()
        g = grads.pop(id(t), None)
        if g is None:
            continue
        if isinstance(t, Tensor):
            # rules may hand the same array to several parents, so never add in place
            t.grad = g if t.grad is None else t.grad + g
            continue
        parents, rule = t.parents, t.backward_fn
        t.parents = t.backward_fn = None
        for p, pg in zip(parents, rule(g)):
            if pg is not None and p.requires_grad:
                key = id(p)
                grads[key] = grads[key] + pg if key in grads else pg
        parents = rule = p = pg = None  # freed before the next rule or leaf sum runs


def add(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb, ta, tb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return (_unbroadcast(g, sa) if ta else None), (_unbroadcast(g, sb) if tb else None)

    return _from_op(a.data + b.data, "add", (a, b), bwd)


def sub(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb, ta, tb = a.shape, b.shape, a.requires_grad, b.requires_grad

    def bwd(g):
        return ((_unbroadcast(g, sa) if ta else None),
                (_unbroadcast(np.negative(g), sb) if tb else None))

    return _from_op(a.data - b.data, "sub", (a, b), bwd)


def mul(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb, ta, tb = a.shape, b.shape, a.requires_grad, b.requires_grad
    # each operand's data is kept only for the other operand's gradient
    ad = a.data if tb else None
    bd = b.data if ta else None

    def bwd(g):
        return ((_unbroadcast(g * bd, sa) if ta else None),
                (_unbroadcast(g * ad, sb) if tb else None))

    return _from_op(a.data * b.data, "mul", (a, b), bwd)


def div(a, b) -> Tensor:
    a, b = _wrap(a), _wrap(b)
    sa, sb, ta, tb = a.shape, b.shape, a.requires_grad, b.requires_grad
    ad = a.data if tb else None
    bd = b.data

    def bwd(g):
        ga = _unbroadcast(g / bd, sa) if ta else None
        gb = _unbroadcast(-g * ad / (bd * bd), sb) if tb else None
        return ga, gb

    return _from_op(a.data / b.data, "div", (a, b), bwd)


def matmul(a, b, bias=None) -> Tensor:
    """``a @ b``, plus ``bias`` along the last axis when given.

    A 2-D ``b`` is a weight shared by every leading row of ``a``: the product,
    the activation gradient and the weight gradient each run as one 2-D GEMM
    over ``a`` folded to (rows, k), and the bias is added in place on the GEMM
    output. A batched ``b`` broadcasts as numpy does and takes no bias.
    """
    a, b = _wrap(a), _wrap(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError(f"matmul needs at least 2-D operands, got {a.shape} @ {b.shape}")
    sa, sb, ta, tb = a.shape, b.shape, a.requires_grad, b.requires_grad
    # each operand's data is kept only for the other operand's gradient
    bd = b.data if ta else None
    ad = _keep(a) if tb else None
    if b.ndim > 2:
        if bias is not None:
            raise ValueError(f"bias needs a 2-D weight, got weight shape {b.shape}")

        def bwd(g):
            ga = _unbroadcast(g @ np.swapaxes(bd, -1, -2), sa) if ta else None
            gb = _unbroadcast(np.swapaxes(ad(), -1, -2) @ g, sb) if tb else None
            return ga, gb

        return _from_op(a.data @ b.data, "matmul", (a, b), bwd)

    k, n = b.shape
    if a.shape[-1] != k:
        raise ValueError(f"matmul shape mismatch: {a.shape} @ {b.shape}")
    a2 = a.data.reshape(-1, k)
    out = a2 @ b.data
    parents = (a, b)
    if bias is not None:
        bias = _wrap(bias)
        if bias.shape != (n,):
            raise ValueError(f"bias shape {bias.shape} does not match output width {n}")
        out += bias.data
        parents = (a, b, bias)
    with_bias = bias is not None

    def bwd(g):
        g2 = g.reshape(-1, n)
        grads = ((g2 @ bd.T).reshape(sa) if ta else None,
                 ad().reshape(-1, k).T @ g2 if tb else None)
        return grads + (g2.sum(axis=0),) if with_bias else grads

    return _from_op(out.reshape(sa[:-1] + (n,)), "matmul", parents, bwd)


def transpose(a, axes=None) -> Tensor:
    a = _wrap(a)
    perm = tuple(range(a.ndim))[::-1] if axes is None else tuple(axes)
    inv = tuple(np.argsort(perm))

    def bwd(g):
        return (np.transpose(g, inv),)

    return _from_op(np.transpose(a.data, perm), "transpose", (a,), bwd)


def reshape(a, shape) -> Tensor:
    """``a`` in a new shape; a recorded output passes ``a``'s recipe on, reshaped.

    So a consumer of a reshaped :func:`normalize` output (the forecast
    head's flatten) keeps nothing of it either.
    """
    a = _wrap(a)
    orig = a.shape

    def bwd(g):
        return (g.reshape(orig),)

    out = _from_op(a.data.reshape(shape), "reshape", (a,), bwd)
    if a._rebuild is not None and out.node is not None:
        src, new_shape = a._rebuild, out.shape
        out._rebuild = lambda: src().reshape(new_shape)
    return out


def unfold(a, size: int, step: int) -> Tensor:
    """Sliding windows over the last axis: (..., L) -> (..., n, size).

    Window i covers ``[i * step, i * step + size)`` and
    ``n = (L - size) // step + 1``; samples past the last full window are
    dropped. The backward pass adds each window's gradient back onto the
    samples it was read from.
    """
    a = _wrap(a)
    length = a.shape[-1]
    if size > length:
        raise ValueError(f"window size {size} exceeds sequence length {length}")
    if step < 1:
        raise ValueError(f"window step must be >= 1, got {step}")
    n = (length - size) // step + 1
    idx = step * np.arange(n)[:, None] + np.arange(size)
    # fancy indexing with a leading ellipsis lays the result out subspace-first;
    # force C order so the products downstream see row-major patches
    out = np.ascontiguousarray(a.data[..., idx])
    shape = a.shape

    def bwd(g):
        ga = np.zeros(shape)
        for i in range(n):
            ga[..., i * step:i * step + size] += g[..., i, :]
        return (ga,)

    return _from_op(out, "unfold", (a,), bwd)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Mean over ``axis`` (None, an int or a tuple of ints, as in numpy)."""
    a = _wrap(a)
    out = a.data.mean(axis=axis, keepdims=keepdims)
    shape = a.shape
    axes = None if axis is None else tuple(np.atleast_1d(axis).tolist())
    count = a.size if axes is None else math.prod(shape[ax] for ax in axes)

    def bwd(g):
        if axes is not None and not keepdims:
            g = np.expand_dims(g, axes)
        return (np.broadcast_to(g / count, shape).copy(),)

    return _from_op(out, "mean", (a,), bwd)


def normalize(a, axis, gamma, beta) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``gamma * (a - mean) / sqrt(var + NORM_EPS) + beta`` as one node.

    Mean and population variance are taken over ``axis`` (an int or a tuple,
    as in numpy); ``gamma`` and ``beta`` live on the last axis. Returns the
    output with the mean and variance arrays (kept dims), which are plain
    numpy and carry no gradient.

    The node keeps ``xhat`` for its own rule, so a recorded output carries a
    recipe that reruns the forward's last two ufuncs on it: a consumer that
    reads the output in backward keeps the recipe (:func:`_keep`), not a
    second array of the same size. The backward allocates one array of the
    input's size, its result, and forms ``g * gamma`` a second time in
    blocks of rows for the last step rather than keep it beside a second one.
    """
    a, gamma, beta = _wrap(a), _wrap(gamma), _wrap(beta)
    width = a.shape[-1:]
    if gamma.shape != width or beta.shape != width:
        raise ValueError(
            f"gamma {gamma.shape} and beta {beta.shape} must match the last axis of {a.shape}"
        )
    count = math.prod(a.shape[ax] for ax in np.atleast_1d(axis).tolist())

    def mean(x):
        # the two ops ndarray.mean runs, without its dispatch
        m = np.add.reduce(x, axis=axis, keepdims=True)
        m /= count
        return m

    mu = mean(a.data)
    xhat = a.data - mu
    out = np.multiply(xhat, xhat)  # the squares, until the output overwrites them
    v = mean(out)
    std = np.sqrt(v + NORM_EPS)
    xhat /= std
    gd, bd = gamma.data, beta.data
    np.multiply(xhat, gd, out=out)
    out += bd
    rows = tuple(range(a.ndim - 1))

    def bwd(g):
        # the one full-size array: g * xhat, g * gamma * xhat, xhat * proj, then the input gradient
        gx = np.multiply(g, xhat)
        ggamma = gx.sum(axis=rows)
        gbeta = g.sum(axis=rows)
        np.multiply(g, gd, out=gx)
        centre = mean(gx)
        gx *= xhat
        proj = mean(gx)
        np.multiply(xhat, proj, out=gx)
        # (g * gamma - centre) - xhat * proj, with g * gamma formed again in blocks of rows
        step = len(gx) if gx.ndim == 1 else max(1, _GELU_CHUNK * len(gx) // max(1, gx.size))
        for lo in range(0, len(gx), step):
            block = slice(lo, lo + step)
            part = np.multiply(g[block], gd)
            part -= centre if len(centre) == 1 else centre[block]
            np.subtract(part, gx[block], out=gx[block])
            del part  # one block at a time
        gx /= std
        return gx, ggamma, gbeta

    def rebuild():
        y = np.multiply(xhat, gd)
        y += bd
        return y

    out = _from_op(out, "normalize", (a, gamma, beta), bwd)
    if out.node is not None:
        out._rebuild = rebuild
    return out, mu, v


def relu(a) -> Tensor:
    a = _wrap(a)
    mask = a.data > 0

    def bwd(g):
        return (g * mask,)

    return _from_op(np.where(mask, a.data, 0.0), "relu", (a,), bwd)


_INV_SQRT2 = 1.0 / np.sqrt(2.0)
_INV_SQRT_2PI = 1.0 / np.sqrt(2.0 * np.pi)

# Cephes ndtr.c: erf(z) = z T(z^2) / U(z^2) for |z| <= 1, and
# 1 - exp(-z^2) P(|z|) / Q(|z|) above, highest power first. Row 0 is the
# numerator, row 1 the monic denominator written with its leading 1; T gets a
# leading 0. The padding terms are exact, so one Horner loop evaluates both
# rows with the Cephes rounding.
_ERF_TU = [c.reshape(2, 1) for c in np.array([
    [0.0, 9.60497373987051638749e0, 9.00260197203842689217e1,
     2.23200534594684319226e3, 7.00332514112805075473e3, 5.55923013010394962768e4],
    [1.0, 3.35617141647503099647e1, 5.21357949780152679795e2,
     4.59432382970980127987e3, 2.26290000613890934246e4, 4.92673942608635921086e4],
]).T]
_ERF_PQ = [c.reshape(2, 1) for c in np.array([
    [2.46196981473530512524e-10, 5.64189564831068821977e-1, 7.46321056442269912687e0,
     4.86371970985681366614e1, 1.96520832956077098242e2, 5.26445194995477358631e2,
     9.34528527171957607540e2, 1.02755188689515710272e3, 5.57535335369399327526e2],
    [1.0, 1.32281951154744992508e1, 8.67072140885989742329e1,
     3.54937778887819891062e2, 9.75708501743205489753e2, 1.82390916687909736289e3,
     2.24633760818710981792e3, 1.65666309194161350182e3, 5.57535340817727675546e2],
]).T]
# elements per GELU pass, and per block of normalize's last backward step:
# the temporaries of one chunk stay in cache
_GELU_CHUNK = 16384


def _horner(coeffs, v: np.ndarray) -> np.ndarray:
    """Both rows' polynomials at ``v``, (2, len(v)); coefficients highest power first."""
    acc = coeffs[0] * v
    acc += coeffs[1]
    for c in coeffs[2:]:
        acc *= v
        acc += c
    return acc


def _erf(z: np.ndarray, out: np.ndarray, e: np.ndarray) -> None:
    """Write erf(z) into ``out`` and exp(-z * z) into ``e`` (1-D float64 arrays).

    The rational approximations of the Cephes library's ``ndtr.c``. Only the
    elements with |z| > 1 take the exp(-z^2) branch; there |z| is clipped at
    8 inside P/Q, since 1 - erfc(z) rounds to 1 from |z| of about 5.9 on.
    Within 4 ulp of ``math.erf`` and exactly odd.
    """
    z2 = z * z
    np.negative(z2, out=e)
    np.exp(e, out=e)
    tail = np.flatnonzero(z2 > 1.0)  # z * z rounds above 1 exactly when |z| > 1
    np.minimum(z2, 1.0, out=z2)  # T/U of the tail is overwritten; keep it finite
    tu = _horner(_ERF_TU, z2)
    np.multiply(z, tu[0], out=out)
    out /= tu[1]
    if tail.size:
        zt = z[tail]
        a = np.abs(zt)
        np.minimum(a, 8.0, out=a)
        pq = _horner(_ERF_PQ, a)
        y = e[tail]
        y *= pq[0]
        y /= pq[1]
        np.subtract(1.0, y, out=y)
        out[tail] = np.copysign(y, zt, out=y)


def gelu(a) -> Tensor:
    """Exact gaussian-error-linear unit, 0.5 * x * (1 + erf(x / sqrt(2))).

    erf is :func:`_erf`, a numpy port of the Cephes library's ``ndtr.c``
    rational approximations, within 4 ulp of ``math.erf``. When the node is
    recorded, each chunk also forms the derivative cdf + x * exp(-x^2 / 2) /
    sqrt(2 pi) from the erf's own exp, and the node keeps only that array.
    """
    a = _wrap(a)
    x = np.ascontiguousarray(a.data).reshape(-1)
    out = np.empty_like(x)
    deriv = np.empty_like(x) if _recording((a,)) else None
    chunk = min(x.size, _GELU_CHUNK)
    cdf, e = np.empty(chunk), np.empty(chunk)  # per-chunk scratch
    for lo in range(0, x.size, _GELU_CHUNK):
        part = slice(lo, lo + _GELU_CHUNK)
        xc = x[part]
        c, ec = cdf[:xc.size], e[:xc.size]
        _erf(xc * _INV_SQRT2, c, ec)
        c += 1.0
        c *= 0.5
        np.multiply(xc, c, out=out[part])
        if deriv is not None:
            d = deriv[part]
            np.multiply(ec, _INV_SQRT_2PI, out=d)
            d *= xc
            d += c
    shape = a.shape

    def bwd(g):
        return (np.multiply(deriv.reshape(shape), g),)

    return _from_op(out.reshape(shape), "gelu", (a,), bwd)


def even_chunks(n: int, most: int) -> list[tuple[int, int]]:
    """``range(n)`` as ceil(n / most) ``(lo, hi)`` ranges whose sizes differ by at most one.

    Row blocks of a GEMM are split this way because a remainder block of
    one or two rows can round differently from the same rows inside a
    larger block.
    """
    chunks = -(-n // most)
    return [(i * n // chunks, (i + 1) * n // chunks) for i in range(chunks)]


# bytes of mixed values one row block of the value path forms: its products stay in cache
_HEAD_MIX_BLOCK = 512 * 1024
# bytes of mixed values one group of heads forms for the value-weight
# gradient: the pinned shape's four 16-column heads stay one group up to 341 rows
_HEAD_MIX_GROUP = 2 * 1024 * 1024


def attention(y, wq, wk, wv, wo, bias, n_heads: int, keep=None, drop_scale: float = 1.0) -> Tensor:
    """Multi-head self-attention, ``sum_h A_h @ (y @ wv_h) @ wo_h + bias``, as one node.

    ``y`` is (rows, n, d); ``wq`` and ``wk`` are (d, h * d_k), ``wv`` (d, h *
    dv) and ``wo`` (h * dv, d_out); head h owns its slice of each weight's
    heads axis. ``A_h`` is the softmax over keys of ``q_h @ k_h^T`` times
    ``1 / sqrt(d_k)``, with ``q = y @ wq``, ``k = y @ wk`` and d_k read off
    ``wq``'s width, shifted by the exact row max, times ``keep * drop_scale``
    when a boolean mask ``keep`` (rows, h, n, n) is given: inverted dropout.
    The value path is reassociated as ``[A_1 @ y | ... | A_h @ y] @ [wv_h @
    wo_h]_h``, fewer multiply-adds whenever rows * n exceeds d_out (with dv
    = d). Its mixed values are h times wider than ``y``, so they are formed
    one block of rows at a time, at most ``_HEAD_MIX_BLOCK`` bytes.

    As in FlashAttention, the node keeps only the softmax maps and the mask,
    in the value path's permuted layout (rows, n * h, n), where row i * h + j
    holds query i's weights under head j, besides ``y`` (through
    :func:`_keep`) and the weights. Its backward rebuilds ``y`` once and
    recomputes the rest: the value-weight gradient one group of whole heads
    at a time, at most ``_HEAD_MIX_GROUP`` bytes of mixed values, so neither
    the full mixed values nor their full gradient product exists; the
    activation gradients in the row blocks, the map gradient written over
    the dropped maps each block has just read; then the dropout, softmax and
    score gradients in place, with q and k rebuilt. ``y`` is listed twice
    among the parents, value path first, so ``backward`` sums its gradient
    as (other uses + value path) + scores.

    A group's columns come from a GEMM that is narrower than the full one,
    and the bits of a GEMM can depend on its width. On scipy-openblas
    0.3.31 with one thread, column groups of 64 and 128 matched the full
    product at 1-305 rows, while groups of 16 and 32 columns differed from
    about 83 rows on. The budget keeps the benchmark shapes' groups at whole
    heads of 64 columns or more, or a single group; a narrower split, or
    another BLAS, may change the weight gradient's last bits.
    """
    y, wq, wk, wv, wo, bias = (_wrap(t) for t in (y, wq, wk, wv, wo, bias))
    h = n_heads
    if not (y.ndim == 3 and wq.ndim == wv.ndim == wo.ndim == 2 and h >= 1
            and wk.shape == wq.shape and wq.shape[0] == wv.shape[0] == y.shape[-1]
            and wq.shape[1] % h == 0 and wv.shape[1] % h == 0 and wo.shape[0] == wv.shape[1]
            and bias.shape == wo.shape[1:]
            and (keep is None or keep.shape == (y.shape[0], h, y.shape[1], y.shape[1]))):
        raise ValueError(f"attention shapes do not fit: y {y.shape}, wq {wq.shape}, wk {wk.shape}, "
                         f"wv {wv.shape}, wo {wo.shape}, bias {bias.shape}, n_heads {n_heads}, "
                         f"keep {None if keep is None else keep.shape}")
    rows, n, d = y.shape
    dk, dv, d_out = wq.shape[1] // h, wv.shape[1] // h, wo.shape[1]
    scale = 1.0 / math.sqrt(dk)
    wqd, wkd, y_data = wq.data, wk.data, _keep(y)
    wv3 = wv.data.reshape(d, h, dv).transpose(1, 0, 2)    # (h, d, dv)
    wo3 = wo.data.reshape(h, dv, d_out)
    blocks = even_chunks(rows, max(1, _HEAD_MIX_BLOCK // (n * h * d * 8)))

    def heads(y2, w):
        # (rows, h, n, d_k) view of one projection, laid out as its 2-D product
        return (y2 @ w).reshape(rows, n, h, dk).transpose(0, 2, 1, 3)

    def per_head(maps):
        # (rows, h, n, n) view of permuted maps
        return maps.reshape(rows, n, h, n).transpose(0, 2, 1, 3)

    y2 = y.data.reshape(-1, d)
    p = np.empty((rows, n * h, n))
    np.matmul(heads(y2, wqd), heads(y2, wkd).transpose(0, 1, 3, 2), out=per_head(p))
    p *= scale
    top = p[..., 0].copy()
    for j in range(1, n):
        np.maximum(top, p[..., j], out=top)
    p -= top[..., None]
    np.exp(p, out=p)
    p /= p.sum(axis=-1, keepdims=True)
    if keep is not None:
        keep = keep.transpose(0, 2, 1, 3).reshape(rows, n * h, n)

    def dropped():
        if keep is None:
            return p
        at = p * keep
        at *= drop_scale
        return at

    at, yd = dropped(), y.data
    mix = (wv3 @ wo3).reshape(h * d, d_out)
    out = np.empty((rows * n, d_out))
    for lo, hi in blocks:
        np.matmul((at[lo:hi] @ yd[lo:hi]).reshape(-1, h * d), mix, out=out[lo * n:hi * n])
    out += bias.data

    def bwd(g):
        g2 = g.reshape(rows * n, d_out)
        yd, at = y_data(), dropped()
        gwv, gwo = np.empty((d, h * dv)), np.empty((h * dv, d_out))
        gwv3, gwo3 = gwv.reshape(d, h, dv).transpose(1, 0, 2), gwo.reshape(h, dv, d_out)
        groups = even_chunks(h, max(1, _HEAD_MIX_GROUP // max(1, rows * n * d * 8)))
        for lo, hi in groups:
            # group k's maps: a view for one head or all, else a copy out of the permuted layout
            z = at.reshape(rows, n, h, n)[:, :, lo:hi].reshape(rows, -1, n) @ yd
            # (d_out, heads * d); each head's (d, d_out) weight gradient is a transposed view
            gmix = (g2.T @ z.reshape(rows * n, -1)).reshape(d_out, hi - lo, d).transpose(1, 2, 0)
            del z  # the widest array here: gone before the next products allocate
            np.matmul(gmix, np.swapaxes(wo3[lo:hi], 1, 2), out=gwv3[lo:hi])
            np.matmul(np.swapaxes(wv3[lo:hi], 1, 2), gmix, out=gwo3[lo:hi])
            del gmix
        mix_t = np.ascontiguousarray((wv3 @ wo3).reshape(h * d, d_out).T)
        # the map gradient overwrites dropped maps each block has just read, never p
        ga = np.empty_like(p) if at is p else at
        gy = np.empty((rows, n, d))
        most = max((hi - lo for lo, hi in blocks), default=0)
        gz_rows = np.empty((most * n, h * d))  # every block's gz, in turn
        for lo, hi in blocks:
            gz = gz_rows[:(hi - lo) * n]
            np.matmul(g2[lo * n:hi * n], mix_t, out=gz)
            gz = gz.reshape(hi - lo, n * h, d)
            np.matmul(np.swapaxes(at[lo:hi], 1, 2), gz, out=gy[lo:hi])
            np.matmul(gz, np.swapaxes(yd[lo:hi], 1, 2), out=ga[lo:hi])
        del at, gz_rows, gz, mix_t
        if keep is not None:
            ga *= keep
            ga *= drop_scale
        ga -= np.multiply(ga, p).sum(axis=-1, keepdims=True)
        ga *= p
        ga *= scale
        # each projection's gradient in the (rows * n, h * d_k) layout of its product
        y2, gs = yd.reshape(-1, d), per_head(ga)
        gk = (np.swapaxes(heads(y2, wqd), -1, -2) @ gs).transpose(0, 3, 1, 2).reshape(-1, h * dk)
        gq = (gs @ heads(y2, wkd)).transpose(0, 2, 1, 3).reshape(-1, h * dk)
        del ga, gs
        gwq, gwk = y2.T @ gq, y2.T @ gk
        del y2, yd  # a rebuilt y is freed before its score gradient allocates
        gys = gq @ wqd.T
        gys += gk @ wkd.T
        return gy, gys.reshape(rows, n, d), gwq, gwk, gwv, gwo, g2.sum(axis=0)

    return _from_op(out.reshape(rows, n, d_out), "attention", (y, y, wq, wk, wv, wo, bias), bwd)


def dropout(a, keep: np.ndarray, scale: float) -> Tensor:
    """Inverted dropout, ``a * keep * scale`` for a boolean mask ``keep``, one node.

    The node keeps the one-byte mask and the scalar, not a float mask.
    Multiplying by ``keep`` and then by ``scale`` gives the same bits as
    multiplying by the float mask ``keep * scale``: each element is either
    multiplied by exactly 1 and then by ``scale``, or zeroed. Dropout on
    attention maps runs inside :func:`attention`, in the same two ufuncs.
    """
    a = _wrap(a)
    if keep.shape != a.shape:
        raise ValueError(f"dropout mask of shape {keep.shape} does not match {a.shape}")
    out = a.data * keep
    out *= scale

    def bwd(g):
        gx = g * keep
        gx *= scale
        return (gx,)

    return _from_op(out, "dropout", (a,), bwd)


def rfft_kernel(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Real and imaginary parts of ``np.fft.rfft`` along the last axis, ``n // 2 + 1`` bins.

    numpy returns exact zeros for the imaginary parts of the first bin and,
    at even lengths, of the last bin.
    """
    spec = np.fft.rfft(x, axis=-1)
    return spec.real, spec.imag


def irfft_kernel(re: np.ndarray, im: np.ndarray, n: int) -> np.ndarray:
    """Inverse of :func:`rfft_kernel`: ``n`` real samples along the last axis."""
    return np.fft.irfft(re + 1j * im, n=n, axis=-1)


def spectral_gate(y, w) -> Tensor:
    """Circular convolution of ``y`` with the filter ``w`` along the last axis, one node.

    The forward multiplies the spectra, ``irfft(rfft(y) * rfft(w))`` (GFNet's
    global filter), in real arithmetic on their real and imaginary parts. The
    backward is circular correlation done the same way: ``gy = irfft(G *
    conj(W))`` and ``gw = irfft(sum_rows G * conj(Y))`` with ``G = rfft(g)``,
    the row sum taken on the spectra before the single inverse transform. A
    gradient no parent needs is not computed. Both kernels are looked up as
    module globals on every call, so a probe that replaces them sees each one.
    """
    y, w = _wrap(y), _wrap(w)
    n = y.shape[-1]
    if w.shape != (n,):
        raise ValueError(f"filter of shape {w.shape} cannot gate axis of length {n}")
    yr, yi = rfft_kernel(y.data)
    wr, wi = rfft_kernel(w.data)
    out = irfft_kernel(yr * wr - yi * wi, yr * wi + yi * wr, n)
    ty, tw = y.requires_grad, w.requires_grad
    if not tw:
        yr = yi = None  # read only for the filter's gradient

    def bwd(g):
        gr, gi = rfft_kernel(g)
        gy = gw = None
        if ty:
            gy = irfft_kernel(gr * wr + gi * wi, gi * wr - gr * wi, n)
        if tw:
            rows = tuple(range(g.ndim - 1))
            re = (gr * yr + gi * yi).sum(axis=rows)
            im = (gi * yr - gr * yi).sum(axis=rows)
            gw = irfft_kernel(re, im, n)
        return gy, gw

    return _from_op(out, "spectral_gate", (y, w), bwd)
