"""Reference routines that only the tests use.

``swapaxes`` and ``flatten`` are shorthands that record one ``transpose`` or
``reshape`` node. The tape ops ``sum``, ``var`` and ``sqrt`` serve as loss
reducers and as the unfused mean/var/sub/div chain that ``tensor.normalize``
is checked against.
``rfft`` and ``irfft`` are tape ops over ``(re, im)`` tensor pairs; chained
with four muls, a sub and an add they form the unfused gating that
``tensor.spectral_gate`` is checked against. ``unfused_attention`` is
attention as the 17-node chain (18 with a dropout mask) that
``tensor.attention`` is checked against to rounding: the 9-node scores
chain ``unfused_attention_scores``, a softmax, the dropout as a ``mul`` and
the 7-node value chain ``unfused_head_mix``.
``split_attention`` is the four-node chain ``tensor.attention`` replaced,
which it must match bit for bit: ``attention_scores`` (every head's scaled
q k^T as one node that rebuilds q and k in backward), ``three_array_softmax``
(numpy's row max, then a shifted, an exponentiated and a normalized array),
the dropout as a ``mul`` by a float mask and ``z_keeping_head_mix`` (the
value path reassociated as one node that keeps the mixed values, all heads
at once, and the weight product). Both chains take their scores' scale as
a keyword, which ``scaled`` binds to ``1 / sqrt(d_k)``: then they take
``tensor.attention``'s arguments. ``split_attend`` is
``AttentionBlock._attend`` over that chain, with ``float_mask_dropout``
drawing the mask.
``two_array_gelu``, ``float_mask_dropout``, ``recipe_free_normalize`` and
``recipe_free_reshape`` are the earlier forms of the GELU node (keeping the
cdf and exp arrays), of dropout (a ``mul`` by a float mask) and of
``normalize`` and ``reshape`` (outputs without a recipe, whose consumers
keep their arrays), which the leaner nodes must match bit for bit.
``adam_step_per_parameter`` is the per-parameter Adam loop and
``adam_step_gathered`` the earlier flat update over a concatenated gradient;
the blocked arena update must match both bit for bit.
``save_checkpoint_per_entry`` is the earlier checkpoint writer, one bytes copy
per entry, whose files ``save_checkpoint`` must reproduce byte for byte.
``tape_census`` counts a graph's nodes per op kind.
``load_csv_per_cell`` is the earlier CSV reader, one ``float`` per cell,
whose values and error texts ``load_csv`` must reproduce.
``apply_filter``, ``patchify``, ``revin_denormalize``,
``attention_block_forward``, ``spectral_block_forward`` and ``embed_patches``
are array-in conveniences over the package's own entry points.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import json
import math
import struct
from collections import Counter

import numpy as np

from spectral_forecaster.data import RawSeries
from spectral_forecaster.errors import DataError
from spectral_forecaster.model.checkpoint import MAGIC

from spectral_forecaster.model.network import AttentionBlock, PatchEmbedding
from spectral_forecaster.numeric import tensor as T
from spectral_forecaster.numeric.tensor import (
    _GELU_CHUNK, _INV_SQRT2, _INV_SQRT_2PI, Tensor, _erf, _from_op, _keep, _wrap, irfft_kernel,
    rfft_kernel,
)
from spectral_forecaster.spectral import SpectralBlock, SpectralFilter
from spectral_forecaster.training import ADAM_BETA1, ADAM_BETA2, ADAM_EPS

# bound before any test replaces T.normalize or T.reshape with the forms below
_normalize, _reshape = T.normalize, T.reshape


def swapaxes(a, ax1: int, ax2: int) -> Tensor:
    a = _wrap(a)
    perm = list(range(a.ndim))
    perm[ax1], perm[ax2] = perm[ax2], perm[ax1]
    return T.transpose(a, perm)


def flatten(a, start_axis: int = 0) -> Tensor:
    """Collapse all axes from ``start_axis`` on into one."""
    a = _wrap(a)
    return T.reshape(a, a.shape[:start_axis] + (-1,))


def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _wrap(a)
    out = a.data.sum(axis=axis, keepdims=keepdims)

    def bwd(g):
        if axis is not None and not keepdims:
            g = np.expand_dims(g, axis)
        return (np.broadcast_to(g, a.shape).copy(),)

    return _from_op(out, "sum", (a,), bwd)


def var(a, axis=None, keepdims: bool = False) -> Tensor:
    """Population variance (divides by the count, not count - 1)."""
    a = _wrap(a)
    centered = T.sub(a, T.mean(a, axis=axis, keepdims=True))
    return T.mean(T.mul(centered, centered), axis=axis, keepdims=keepdims)


def sqrt(a) -> Tensor:
    a = _wrap(a)
    out = np.sqrt(a.data)

    def bwd(g):
        return (g * 0.5 / out,)

    return _from_op(out, "sqrt", (a,), bwd)


def _rfft_grad_scale(n: int) -> np.ndarray:
    # interior bins appear twice in the implied full spectrum, endpoints once
    w = np.full(n // 2 + 1, 0.5 * n)
    w[0] = n
    if n % 2 == 0:
        w[-1] = n
    return w


def rfft(a) -> tuple[Tensor, Tensor]:
    """Half-complex transform along the last axis, as a (re, im) tensor pair.

    The adjoint of each output is an inverse transform of the upstream
    gradient with endpoint bins weighted once and interior bins twice.
    """
    a = _wrap(a)
    n = a.shape[-1]
    re, im = rfft_kernel(a.data)
    scale = _rfft_grad_scale(n)
    zeros = np.zeros_like(re)

    def bwd_re(g):
        return (irfft_kernel(g * scale, zeros, n),)

    def bwd_im(g):
        return (irfft_kernel(zeros, g * scale, n),)

    return _from_op(re, "rfft_re", (a,), bwd_re), _from_op(im, "rfft_im", (a,), bwd_im)


def irfft(re, im, n: int) -> Tensor:
    """Inverse half-complex transform back to ``n`` real samples.

    The adjoint is a forward transform of the upstream gradient, scaled by
    1/n at the endpoint bins and 2/n in the interior (imaginary endpoint
    slots are structurally zero and receive no gradient).
    """
    re, im = _wrap(re), _wrap(im)
    if re.shape != im.shape:
        raise ValueError(f"re/im shape mismatch: {re.shape} vs {im.shape}")
    out = irfft_kernel(re.data, im.data, n)
    scale = _rfft_grad_scale(n)

    def bwd(g):
        gre, gim = rfft_kernel(g)
        return gre / scale, gim / scale

    return _from_op(out, "irfft", (re, im), bwd)


def unfused_gate(y, w) -> Tensor:
    """Spectral gating as the 11-node chain: two rfft pairs, four muls, sub, add, irfft."""
    y, w = _wrap(y), _wrap(w)
    wr, wi = rfft(w)
    yr, yi = rfft(y)
    re = T.sub(T.mul(yr, wr), T.mul(yi, wi))
    im = T.add(T.mul(yr, wi), T.mul(yi, wr))
    return irfft(re, im, y.shape[-1])


def unfused_head_mix(attn, y, wv, wo, bias) -> Tensor:
    """Attention's value path as the 7-node chain: values, split heads, mix, merge, project."""
    attn, y = _wrap(attn), _wrap(y)
    rows, h, n = attn.shape[:3]
    dv = wv.shape[1] // h
    v = T.matmul(y, wv)
    v = swapaxes(T.reshape(v, (rows, n, h, dv)), 1, 2)
    o = T.matmul(attn, v)
    o = T.reshape(swapaxes(o, 1, 2), (rows, n, h * dv))
    return T.matmul(o, wo, bias=bias)


def unfused_attention_scores(y, wq, wk, n_heads: int, scale: float) -> Tensor:
    """Attention scores as the 9-node chain: two projections, two head splits, product, scale."""
    y = _wrap(y)
    rows, n = y.shape[:2]
    d_k = wq.shape[1] // n_heads

    def split_heads(x):
        return T.transpose(T.reshape(x, (rows, n, n_heads, d_k)), (0, 2, 1, 3))

    q = split_heads(T.matmul(y, wq))
    k = split_heads(T.matmul(y, wk))
    return T.mul(T.matmul(q, T.transpose(k, (0, 1, 3, 2))), scale)


def unfused_attention(y, wq, wk, wv, wo, bias, n_heads: int, keep=None, drop_scale: float = 1.0,
                      *, scale: float) -> Tensor:
    """``tensor.attention`` as the 17-node chain: scores, softmax, a float-mask ``mul``, value path.

    The scores' ``scale`` is given, not derived from ``wq``; :func:`scaled` binds it.
    """
    attn = three_array_softmax(unfused_attention_scores(y, wq, wk, n_heads, scale), axis=-1)
    if keep is not None:
        attn = T.mul(attn, keep * drop_scale)
    return unfused_head_mix(attn, y, wv, wo, bias)


def attention_scores(y, wq, wk, n_heads: int, scale: float) -> Tensor:
    """Every head's attention scores, ``scale * q_h @ k_h^T`` of ``q = y @ wq``, ``k = y @ wk``, one node.

    ``y`` is (rows, n, d) and ``wq``, ``wk`` are (d, n_heads * d_k); the
    output is (rows, n_heads, n, n). The node keeps ``y`` and the two
    weights, and its backward rebuilds q and k from ``y``.
    """
    y, wq, wk = _wrap(y), _wrap(wq), _wrap(wk)
    h = n_heads
    rows, n, d = y.shape
    dk = wq.shape[1] // h
    wqd, wkd, y_data = wq.data, wk.data, _keep(y)

    def heads(y2, w):
        # (rows, h, n, d_k) view of one projection, laid out as its 2-D product
        return (y2 @ w).reshape(rows, n, h, dk).transpose(0, 2, 1, 3)

    y2 = y.data.reshape(-1, d)
    out = heads(y2, wqd) @ heads(y2, wkd).transpose(0, 1, 3, 2)
    out *= scale

    def bwd(g):
        y2 = y_data().reshape(-1, d)
        gs = g * scale
        gk = (np.swapaxes(heads(y2, wqd), -1, -2) @ gs).transpose(0, 3, 1, 2).reshape(-1, h * dk)
        gq = (gs @ heads(y2, wkd)).transpose(0, 2, 1, 3).reshape(-1, h * dk)
        gwq, gwk = y2.T @ gq, y2.T @ gk
        gy = gq @ wqd.T
        gy += gk @ wkd.T
        return gy.reshape(rows, n, d), gwq, gwk

    return _from_op(out, "attention_scores", (y, wq, wk), bwd)


def scaled(chain, d_k: int):
    """``chain`` with its scores scaled by ``1 / sqrt(d_k)``, taking ``tensor.attention``'s arguments."""
    return functools.partial(chain, scale=1.0 / np.sqrt(d_k))


def split_attention(y, wq, wk, wv, wo, bias, n_heads: int, keep=None, drop_scale: float = 1.0,
                    *, scale: float) -> Tensor:
    """``tensor.attention`` as the four-node chain it replaced, with the same bits at the given ``scale``."""
    attn = three_array_softmax(attention_scores(y, wq, wk, n_heads, scale), axis=-1)
    if keep is not None:
        attn = T.mul(attn, keep * drop_scale)
    return z_keeping_head_mix(attn, y, wv, wo, bias)


def split_attend(self, y: Tensor, rng: np.random.Generator | None) -> Tensor:
    """``AttentionBlock._attend`` over the split chain, its mask drawn by ``float_mask_dropout``."""
    d_k = self.wq.shape[1] // self.n_heads
    scores = attention_scores(y, self.wq, self.wk, self.n_heads, 1.0 / np.sqrt(d_k))
    attn = float_mask_dropout(self.attn_drop, three_array_softmax(scores, axis=-1), rng)
    return z_keeping_head_mix(attn, y, self.wv, self.out_proj.weight, self.out_proj.bias)


def two_array_gelu(a) -> Tensor:
    """GELU whose node keeps the cdf and exp(-x^2 / 2) arrays and forms the derivative in backward."""
    a = _wrap(a)
    x = np.ascontiguousarray(a.data).reshape(-1)
    cdf = np.empty_like(x)
    e = np.empty_like(x)
    out = np.empty_like(x)
    for lo in range(0, x.size, _GELU_CHUNK):
        part = slice(lo, lo + _GELU_CHUNK)
        c = cdf[part]
        _erf(x[part] * _INV_SQRT2, c, e[part])
        c += 1.0
        c *= 0.5
        np.multiply(x[part], c, out=out[part])

    def bwd(g):
        d = np.multiply(e, _INV_SQRT_2PI)
        d *= x
        d += cdf
        d = d.reshape(a.shape)
        d *= g
        return (d,)

    return _from_op(out.reshape(a.shape), "gelu", (a,), bwd)


def three_array_softmax(a, axis: int = -1) -> Tensor:
    """Softmax through ``max(axis)``, holding the shifted, exp and output arrays at once."""
    a = _wrap(a)
    shifted = a.data - a.data.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    out = e / e.sum(axis=axis, keepdims=True)

    def bwd(g):
        inner = (g * out).sum(axis=axis, keepdims=True)
        return (out * (g - inner),)

    return _from_op(out, "softmax", (a,), bwd)


def float_mask_dropout(self, x: Tensor, rng: np.random.Generator | None = None) -> Tensor:
    """``Dropout.forward`` as a ``mul`` by the float64 mask ``keep / (1 - p)``."""
    if not self.training or self.p == 0.0:
        return x
    if rng is None:
        raise ValueError("dropout requires an rng in training mode")
    mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
    return T.mul(x, mask)


def recipe_free_normalize(a, axis, gamma, beta):
    """``normalize`` whose output carries no recipe: each consumer keeps the output array."""
    out, mu, v = _normalize(a, axis, gamma, beta)
    out._rebuild = None
    return out, mu, v


def recipe_free_reshape(a, shape) -> Tensor:
    """``reshape`` whose output carries no recipe: its consumer keeps the reshaped array."""
    out = _reshape(a, shape)
    out._rebuild = None
    return out


def z_keeping_head_mix(attn, y, wv, wo, bias) -> Tensor:
    """``head_mix`` whose node keeps the (rows * n, h * d) mixed values ``z`` and ``mix`` for backward."""
    attn, y, wv, wo, bias = (_wrap(t) for t in (attn, y, wv, wo, bias))
    rows, h, n = attn.shape[:3]
    d = y.shape[-1]
    dv = wv.shape[1] // h
    d_out = wo.shape[1]
    wv3 = wv.data.reshape(d, h, dv).transpose(1, 0, 2)
    wo3 = wo.data.reshape(h, dv, d_out)
    mix = (wv3 @ wo3).reshape(h * d, d_out)
    at = attn.data.transpose(0, 2, 1, 3).reshape(rows, n * h, n)
    z = (at @ y.data).reshape(rows * n, h * d)
    out = z @ mix
    out += bias.data

    def bwd(g):
        g2 = g.reshape(rows * n, d_out)
        gmix = (z.T @ g2).reshape(h, d, d_out)
        gz = (g2 @ mix.T).reshape(rows, n * h, d)
        g_attn = (gz @ np.swapaxes(y.data, 1, 2)).reshape(rows, n, h, n).transpose(0, 2, 1, 3)
        gy = np.swapaxes(at, 1, 2) @ gz
        gwv = (gmix @ np.swapaxes(wo3, 1, 2)).transpose(1, 0, 2).reshape(d, h * dv)
        gwo = (np.swapaxes(wv3, 1, 2) @ gmix).reshape(h * dv, d_out)
        return g_attn, gy, gwv, gwo, g2.sum(axis=0)

    return _from_op(out.reshape(rows, n, d_out), "head_mix", (attn, y, wv, wo, bias), bwd)


def adam_step_per_parameter(state: dict, named_params, lr: float,
                            beta1: float = 0.9, beta2: float = 0.999,
                            eps: float = 1e-8) -> None:
    """Adam one parameter at a time, with the same ufunc sequence as the flat update.

    ``state`` holds ``step`` and per-name ``m``/``v`` arrays, created on first use.
    """
    state["step"] = t = state.get("step", 0) + 1
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in named_params:
        g = p.grad
        m = state.setdefault(("m", name), np.zeros_like(p.data))
        v = state.setdefault(("v", name), np.zeros_like(p.data))
        tmp = np.empty_like(g)
        m *= beta1
        np.multiply(g, 1.0 - beta1, out=tmp)
        m += tmp
        v *= beta2
        np.multiply(g, g, out=tmp)
        tmp *= 1.0 - beta2
        v += tmp
        np.divide(v, bc2, out=tmp)
        np.sqrt(tmp, out=tmp)
        tmp += eps
        np.divide(m, tmp, out=tmp)
        tmp *= lr / bc1
        p.data[...] -= tmp


def adam_step_gathered(state, named_params, lr: float) -> None:
    """Adam over a gradient gathered by ``np.concatenate``, with one arena-sized scratch."""
    grads = [p.grad.reshape(-1) for _, p in named_params]
    state.step += 1
    t = state.step
    g = np.concatenate(grads)
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    m, v = state.m, state.v
    tmp = np.empty_like(g)
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
    state.arena -= tmp


def save_checkpoint_per_entry(model, path) -> None:
    """The checkpoint format written one ``tobytes`` copy per named array."""
    entries = []
    chunks = []
    offset = 0
    for name, value in model.named_state():
        arr = value.data if isinstance(value, Tensor) else value
        raw = np.ascontiguousarray(arr, dtype="<f8").tobytes()
        entries.append({"name": name, "shape": list(arr.shape), "offset": offset})
        chunks.append(raw)
        offset += len(raw)
    header = json.dumps(
        {"config": dataclasses.asdict(model.config), "entries": entries},
        sort_keys=True,
    ).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(">I", len(header)))
        fh.write(header)
        for raw in chunks:
            fh.write(raw)


def load_csv_per_cell(path) -> RawSeries:
    """The timestamp-plus-channels CSV read with ``csv`` and one ``float`` per cell."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataError(f"{path}: empty file") from None
        if len(header) < 2:
            raise DataError(f"{path}: need a timestamp column plus at least one channel")
        names = tuple(name.strip() for name in header[1:])
        rows = []
        for row_idx, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(
                    f"{path}: row {row_idx} has {len(row)} fields, expected {len(header)}"
                )
            parsed = []
            for col_idx, cell in enumerate(row[1:], start=2):
                try:
                    value = float(cell)
                except ValueError:
                    raise DataError(
                        f"{path}: row {row_idx}, column {col_idx}: not a number: {cell!r}"
                    ) from None
                if not math.isfinite(value):
                    raise DataError(
                        f"{path}: row {row_idx}, column {col_idx}: missing or non-finite value"
                    )
                parsed.append(value)
            rows.append(parsed)
    if not rows:
        raise DataError(f"{path}: no data rows")
    return RawSeries(names, np.array(rows))


def tape_census(out: Tensor) -> Counter:
    """Recorded nodes per op kind in the graph behind ``out``, each node counted once."""
    census, seen, todo = Counter(), set(), [out]
    while todo:
        t = todo.pop()
        if id(t) in seen or t.node is None:
            continue
        seen.add(id(t))
        census[t.node.op] += 1
        todo.extend(t.node.parents)
    return census


def apply_filter(f: SpectralFilter, y):
    """Spectral gating of ``y`` by filter ``f`` (circular convolution in time).

    A Tensor comes back as a Tensor; a plain array or sequence as an ndarray.
    """
    as_tensor = isinstance(y, Tensor)
    yt = y if as_tensor else Tensor(np.asarray(y, dtype=np.float64))
    if yt.shape[-1] != f.n_f:
        raise ValueError(f"filter of length {f.n_f} cannot gate axis of length {yt.shape[-1]}")
    out = f.apply(yt)
    return out if as_tensor else out.data


def patchify(x: np.ndarray, patch_len: int, stride: int) -> np.ndarray:
    """Slice the last axis into windows: patch i covers [i*stride, i*stride + patch_len)."""
    return T.unfold(np.asarray(x, dtype=np.float64), patch_len, stride).data


def revin_denormalize(y: np.ndarray, stats: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
    """Invert ``RevIN().normalize`` on a forecast of the same rows, from its (mean, std)."""
    mean, std = stats
    return np.asarray(y, dtype=np.float64) * std + mean


def attention_block_forward(block: AttentionBlock, y: Tensor,
                            rng: np.random.Generator | None = None) -> Tensor:
    """Run one attention block; accepts (patches, d_model) or batched rows."""
    if y.ndim == 2:
        return T.reshape(block(T.reshape(y, (1,) + y.shape), rng), y.shape)
    return block(y, rng)


def spectral_block_forward(block: SpectralBlock, y: Tensor,
                           rng: np.random.Generator | None = None) -> Tensor:
    """Run one spectral block; ``y`` is (patches, d_model) or batched (..., patches, d_model)."""
    if y.ndim == 2:
        return T.reshape(block(T.reshape(y, (1,) + y.shape), rng), y.shape)
    return block(y, rng)


def embed_patches(embedding: PatchEmbedding, patches) -> Tensor:
    """Embed (..., n_patches, patch_len) patches into (..., n_patches, d_model)."""
    if not isinstance(patches, Tensor):
        patches = Tensor(np.asarray(patches, dtype=np.float64))
    return embedding(patches)
