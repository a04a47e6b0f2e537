"""Tape mechanics and per-op gradient rules against finite differences."""

import inspect
import math
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from conftest import gradcheck
import reference as ref
from spectral_forecaster.errors import NumericError
from spectral_forecaster.numeric import Parameter, Tensor, backward, no_grad
from spectral_forecaster.numeric import tensor as T


class TestConstruction:
    def test_wraps_as_float64(self):
        t = Tensor([[1, 2], [3, 4]])
        assert t.data.dtype == np.float64
        assert t.shape == (2, 2)
        assert t.grad is None
        assert not t.requires_grad

    def test_nan_rejected(self):
        with pytest.raises(NumericError):
            Tensor([1.0, np.nan])

    def test_inf_rejected(self):
        with pytest.raises(NumericError):
            Tensor(np.inf)

    def test_parameter_requires_grad(self):
        p = Parameter(np.zeros(3))
        assert p.requires_grad


class TestForward:
    def test_arithmetic_matches_numpy(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4))
        np.testing.assert_array_equal(T.add(Tensor(a), Tensor(b)).data, a + b)
        np.testing.assert_array_equal(T.sub(Tensor(a), 2.0).data, a - 2.0)
        np.testing.assert_array_equal(T.sub(2.0, Tensor(a)).data, 2.0 - a)
        np.testing.assert_array_equal(T.mul(Tensor(a), Tensor(b)).data, a * b)
        np.testing.assert_array_equal(T.div(Tensor(a), 4.0).data, a / 4.0)

    def test_matmul_matches_numpy(self):
        rng = np.random.default_rng(1)
        a = rng.standard_normal((2, 3, 4))
        b = rng.standard_normal((4, 5))
        np.testing.assert_allclose(T.matmul(Tensor(a), Tensor(b)).data, a @ b)

    def test_matmul_rejects_vectors(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones(3)), Tensor(np.ones((3, 2))))

    def test_softmax_rows_sum_to_one(self):
        # the attention node's kept maps, under scores of about +-30: the query
        # weights are 6 times larger, as the node scales by 1 / sqrt(4)
        rng = np.random.default_rng(2)
        y, wq, wk = (rng.standard_normal(s) for s in [(5, 7, 4), (4, 8), (4, 8)])
        out = T.attention(Parameter(y), 6.0 * wq, wk, np.eye(4, 8), np.ones((8, 4)), np.zeros(4), 2)
        maps = [a for a in TestAttention.kept(out.node.backward_fn).values()
                if a.shape == (5, 14, 7)]
        assert len(maps) == 1 and np.ptp(maps[0]) > 0.99  # some rows are one-hot
        np.testing.assert_allclose(maps[0].sum(axis=-1), np.ones((5, 14)), atol=1e-12)

    def test_var_is_population(self):
        x = np.random.default_rng(3).standard_normal((4, 6))
        v = ref.var(Tensor(x), axis=0)
        np.testing.assert_allclose(v.data, x.var(axis=0), atol=1e-12)


class TestBackwardMechanics:
    def test_hand_checked_chain(self):
        x = Parameter(2.0)
        y = Parameter(3.0)
        loss = T.add(T.mul(x, y), x)
        backward(loss)
        assert x.grad == pytest.approx(4.0)
        assert y.grad == pytest.approx(2.0)

    def test_scalar_loss_required(self):
        x = Parameter(np.ones(3))
        with pytest.raises(ValueError):
            backward(T.add(x, 1.0))

    def test_repeated_backward_rejected(self):
        x = Parameter(1.5)
        loss = T.mul(x, x)
        backward(loss)
        with pytest.raises(ValueError):
            backward(loss)

    def test_constant_loss_backward_is_trivial(self):
        loss = Tensor(3.0)
        backward(loss)
        with pytest.raises(ValueError):
            backward(loss)

    def test_grads_accumulate_across_graphs(self):
        x = Parameter(2.0)
        backward(T.mul(x, 3.0))
        backward(T.mul(x, 4.0))
        assert x.grad == pytest.approx(7.0)

    def test_shared_subexpression_accumulates(self):
        x = Parameter(3.0)
        y = T.mul(x, x)
        loss = T.add(y, y)
        backward(loss)
        assert x.grad == pytest.approx(12.0)

    def test_detach_blocks_gradient(self):
        # a Tensor over a parameter's data is a constant on the tape
        x = Parameter(2.0)
        loss = T.mul(Tensor(x.data), x)
        backward(loss)
        assert x.grad == pytest.approx(2.0)

    def test_no_grad_builds_no_tape(self):
        x = Parameter(2.0)
        with no_grad():
            y = T.mul(x, x)
        assert y.node is None
        backward(y)
        assert x.grad is None

    def test_broadcast_gradients_have_operand_shape(self):
        a = Parameter(np.ones((3, 1)))
        b = Parameter(np.ones(4))
        loss = ref.sum(T.add(a, b))
        backward(loss)
        assert a.grad.shape == (3, 1)
        assert b.grad.shape == (4,)
        np.testing.assert_array_equal(a.grad, np.full((3, 1), 4.0))
        np.testing.assert_array_equal(b.grad, np.full(4, 3.0))


class TestGradientsAgainstFiniteDifferences:
    def test_elementwise(self):
        rng = np.random.default_rng(10)
        a = rng.standard_normal((3, 4))
        b = rng.standard_normal((3, 4)) + 2.0
        gradcheck(lambda x, y: T.mean(T.sub(T.add(T.mul(x, y), T.div(x, y)), y)), a, b)

    def test_broadcasting(self):
        rng = np.random.default_rng(11)
        gradcheck(
            lambda x, y: ref.sum(T.mul(x, y)),
            rng.standard_normal((2, 3, 1)),
            rng.standard_normal((3, 4)),
        )

    def test_matmul_batched_against_weight(self):
        rng = np.random.default_rng(12)
        gradcheck(
            lambda a, w: T.mean(T.mul(T.matmul(a, w), T.matmul(a, w))),
            rng.standard_normal((2, 3, 4)),
            rng.standard_normal((4, 5)),
        )

    def test_matmul_equal_batch(self):
        rng = np.random.default_rng(13)
        gradcheck(
            lambda a, b: ref.sum(T.matmul(a, b)),
            rng.standard_normal((2, 3, 4)),
            rng.standard_normal((2, 4, 3)),
        )

    def test_reshaping_ops(self):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((2, 3, 4))
        w = rng.standard_normal(24)
        gradcheck(lambda a, p: ref.sum(T.mul(ref.flatten(a), p)), x, w)
        gradcheck(lambda a: ref.sum(T.mul(ref.swapaxes(a, 0, 2), 1.5)), x)
        gradcheck(lambda a: T.mean(T.mul(T.transpose(a), T.transpose(a))), x)
        gradcheck(lambda a: ref.sum(T.mul(T.reshape(a, (4, 6)), 0.3)), x)

    def test_reductions(self):
        rng = np.random.default_rng(15)
        x = rng.standard_normal((3, 5))
        gradcheck(lambda a: ref.sum(T.mul(T.mean(a, axis=0), T.mean(a, axis=0))), x)
        gradcheck(lambda a: ref.sum(T.mul(ref.var(a, axis=1), 2.0)), x)
        gradcheck(lambda a: T.mul(T.mean(a), 3.0), x)
        gradcheck(lambda a: ref.sum(ref.var(a, axis=0, keepdims=True)), x)

    def test_nonlinearities(self):
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 4)) * 2.0
        gradcheck(lambda a: T.mean(T.gelu(a)), x)
        gradcheck(lambda a: T.mean(T.relu(a)), x + 0.05)
        gradcheck(lambda a: ref.sum(ref.sqrt(a)), np.abs(x) + 1.0)

    def test_softmax(self):
        # through the attention node, whose value weights pass the maps on unmixed
        rng = np.random.default_rng(17)
        y, wq, wk = (rng.standard_normal(s) for s in [(3, 6, 4), (4, 4), (4, 4)])
        w = rng.standard_normal((3, 6, 4))
        gradcheck(lambda a, q, k: ref.sum(T.mul(T.attention(a, q, k, np.eye(4), np.eye(4), np.zeros(4),
                                                            1), w)), y, wq, wk)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16, 21])
    def test_rfft(self, n):
        rng = np.random.default_rng(20 + n)
        x = rng.standard_normal((2, n))
        pr = rng.standard_normal((2, n // 2 + 1))
        pi = rng.standard_normal((2, n // 2 + 1))

        def fn(a, wr, wi):
            re, im = ref.rfft(a)
            return T.add(ref.sum(T.mul(re, wr)), ref.sum(T.mul(im, wi)))

        gradcheck(fn, x, pr, pi)

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 12, 16, 21])
    def test_irfft(self, n):
        rng = np.random.default_rng(40 + n)
        base = rng.standard_normal((2, n))
        re0, im0 = ref.rfft(Tensor(base))
        proj = rng.standard_normal((2, n))

        def fn(r, i, p):
            return ref.sum(T.mul(ref.irfft(r, i, n), p))

        gradcheck(fn, re0.data, im0.data, proj)

    @pytest.mark.parametrize("n", [4, 6, 9, 16])
    def test_spectral_round_trip_chain(self, n):
        rng = np.random.default_rng(60 + n)
        x = rng.standard_normal((3, n))
        w = rng.standard_normal(n) * 0.5

        def fn(a, f):
            out = ref.unfused_gate(a, f)
            return T.mean(T.mul(out, out))

        gradcheck(fn, x, w)


class TestSpectralGate:
    """``T.spectral_gate`` against finite differences and the unfused 11-node chain."""

    LAYOUTS = ("1d", "2d", "3d", "swapped")

    @staticmethod
    def signal(rng, n, layout):
        """A gate input and the view that reaches the gate (a swapaxes view for "swapped")."""
        shape = {"1d": (n,), "2d": (3, n), "3d": (2, 2, n), "swapped": (2, n, 3)}[layout]
        y = rng.standard_normal(shape)
        view = (lambda a: ref.swapaxes(a, -1, -2)) if layout == "swapped" else (lambda a: a)
        return y, view

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 336])
    def test_gradcheck(self, n, layout):
        rng = np.random.default_rng(80 + n)
        y, view = self.signal(rng, n, layout)
        w = rng.standard_normal(n)
        gated = view(Tensor(y)).data
        assert gated.flags.c_contiguous == (layout != "swapped" or n == 1)
        proj = rng.standard_normal(gated.shape)
        gradcheck(lambda a, f: ref.sum(T.mul(T.spectral_gate(view(a), f), proj)), y, w)

    @pytest.mark.parametrize("layout", LAYOUTS)
    @pytest.mark.parametrize("n", [1, 2, 3, 16, 17, 336])
    def test_matches_unfused_chain(self, n, layout):
        rng = np.random.default_rng(90 + n)
        y, view = self.signal(rng, n, layout)
        w = rng.standard_normal(n)
        proj = rng.standard_normal(view(Tensor(y)).shape)
        results = []
        for gate in (T.spectral_gate, ref.unfused_gate):
            a, f = Parameter(y.copy()), Parameter(w.copy())
            out = gate(view(a), f)
            backward(ref.sum(T.mul(out, proj)))
            results.append((out.data, a.grad, f.grad))
        (fused, gy, gw), (chain, gy_ref, gw_ref) = results
        np.testing.assert_array_equal(fused, chain)
        np.testing.assert_allclose(gy, gy_ref, rtol=1e-12, atol=1e-12)
        np.testing.assert_allclose(gw, gw_ref, rtol=1e-12, atol=1e-12)

    def test_one_node_replaces_eleven(self):
        y, w = Parameter(np.ones((2, 8))), Parameter(np.ones(8))
        assert ref.tape_census(T.spectral_gate(y, w)) == {"spectral_gate": 1}
        assert sum(ref.tape_census(ref.unfused_gate(y, w)).values()) == 11

    def test_untracked_signal_gets_no_gradient_work(self):
        rng = np.random.default_rng(5)
        y = Tensor(rng.standard_normal((2, 6)))
        w = Parameter(rng.standard_normal(6))
        out = T.spectral_gate(y, w)
        assert out.node.backward_fn(np.ones((2, 6)))[0] is None
        backward(ref.sum(out))
        assert y.grad is None and w.grad is not None

    def test_filter_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="cannot gate"):
            T.spectral_gate(Tensor(np.ones((2, 8))), Tensor(np.ones(7)))
        with pytest.raises(ValueError, match="cannot gate"):
            T.spectral_gate(Tensor(np.ones((2, 8))), Tensor(np.ones((1, 8))))


class TestAttention:
    """``T.attention``: the scores, softmax, dropout and value path of multi-head attention as one node."""

    @staticmethod
    def operands(rng, rows, n, d, h, dk, dv, d_out):
        """y, wq, wk, wv, wo and bias; the query and key weights scaled so no map is flat or one-hot."""
        return [rng.standard_normal((rows, n, d)), rng.standard_normal((d, h * dk)) / np.sqrt(d),
                rng.standard_normal((d, h * dk)) / np.sqrt(d), rng.standard_normal((d, h * dv)),
                rng.standard_normal((h * dv, d_out)), rng.standard_normal(d_out)]

    @staticmethod
    def mask(rng, rows, n, h, p=0.3):
        return rng.random((rows, h, n, n)) >= p

    @staticmethod
    def run(op, arrays, h, keep, proj, view=lambda y: y):
        """``op``'s output and every operand's gradient under ``proj``, on fresh Parameters.

        ``op`` takes ``T.attention``'s arguments, so a reference chain comes
        with its scale bound (``ref.scaled``).
        """
        params = [Parameter(a.copy()) for a in arrays]
        out = op(view(params[0]), *params[1:], h, keep, 1.0 / 0.7)
        backward(ref.sum(T.mul(out, proj)))
        return [out.data] + [p.grad for p in params]

    @staticmethod
    def kept(fn, found=None):
        """Every array a rule's closure holds, through the functions it calls, each once, by id."""
        found = {} if found is None else found
        for cell in fn.__closure__ or ():
            v = cell.cell_contents
            if isinstance(v, np.ndarray):
                found[id(v)] = v
            elif callable(v) and getattr(v, "__closure__", None):
                TestAttention.kept(v, found)
        return found

    @pytest.mark.parametrize("masked", [False, True])
    def test_unrecorded_forward_gives_the_recorded_bits(self, masked):
        rng = np.random.default_rng(204)
        arrays = self.operands(rng, 3, 5, 8, 2, 4, 8, 8)
        keep = self.mask(rng, 3, 5, 2) if masked else None
        recorded = T.attention(*(Parameter(a) for a in arrays), 2, keep, 1.0 / 0.7)
        with no_grad():
            out = T.attention(*(Parameter(a) for a in arrays), 2, keep, 1.0 / 0.7)
        assert out.node is None and recorded.node is not None
        assert out.data.tobytes() == recorded.data.tobytes()

    def test_a_full_mask_at_scale_one_is_no_mask(self):
        rng = np.random.default_rng(205)
        arrays = self.operands(rng, 3, 5, 8, 2, 4, 8, 8)
        proj = rng.standard_normal((3, 5, 8))
        full = np.ones((3, 2, 5, 5), dtype=bool)
        with_mask = [np.asarray(a) for a in self.run(
            lambda *args: T.attention(*args[:-1], 1.0), arrays, 2, full, proj)]
        without = self.run(T.attention, arrays, 2, None, proj)
        for a, b in zip(with_mask, without):
            assert a.tobytes() == b.tobytes()


class TestHeadMix:
    """``T.attention``'s value path against finite differences and chains, at the value shapes.

    The shapes the ``head_mix`` node was checked at before ``T.attention``
    took it over: one head, one patch, one row and values narrower than the
    model width, with and without a dropout mask.
    """

    # rows, heads, patches, model width, value width, output width
    SHAPES = {
        "base": (3, 2, 4, 5, 5, 5),
        "one-head": (2, 1, 3, 4, 4, 4),
        "one-patch": (2, 3, 1, 4, 4, 4),
        "one-row": (1, 2, 3, 4, 4, 4),
        "narrow-values": (2, 2, 3, 4, 3, 6),
    }

    @staticmethod
    def operands(rng, shape, masked):
        """y, wq, wk, wv, wo and bias with query and key width 2, and the mask (None if not masked)."""
        rows, h, n, d, dv, d_out = shape
        arrays = TestAttention.operands(rng, rows, n, d, h, 2, dv, d_out)
        return arrays, TestAttention.mask(rng, rows, n, h) if masked else None

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("name", SHAPES)
    def test_matches_unfused_chain(self, name, masked):
        rng = np.random.default_rng(140 + len(name))
        arrays, keep = self.operands(rng, self.SHAPES[name], masked)
        rows, h, n, _, _, d_out = self.SHAPES[name]
        proj = rng.standard_normal((rows, n, d_out))
        new = TestAttention.run(T.attention, arrays, h, keep, proj)
        old = TestAttention.run(ref.scaled(ref.unfused_attention, 2), arrays, h, keep, proj)
        for a, b in zip(new, old):
            assert a.shape == b.shape
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-12 * np.abs(b).max())

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("name", SHAPES)
    def test_gradcheck(self, name, masked):
        rng = np.random.default_rng(150 + len(name))
        arrays, keep = self.operands(rng, self.SHAPES[name], masked)
        rows, h, n, _, _, d_out = self.SHAPES[name]
        proj = rng.standard_normal((rows, n, d_out))
        gradcheck(lambda *ops: ref.sum(T.mul(T.attention(*ops, h, keep, 1.0 / 0.7), proj)),
                  *arrays)

    def test_one_node_replaces_seven(self):
        """One node for the 7-node value chain, the 9-node scores chain and the softmax."""
        arrays, _ = self.operands(np.random.default_rng(160), self.SHAPES["base"], False)
        params = [Parameter(a) for a in arrays]
        assert ref.tape_census(T.attention(*params, 2)) == {"attention": 1}
        assert sum(ref.tape_census(ref.scaled(ref.unfused_attention, 2)(*params, 2)).values()) == 17

    def test_shape_mismatch_rejected(self):
        arrays, _ = self.operands(np.random.default_rng(161), self.SHAPES["base"], False)
        for i, bad in [(3, np.ones((4, 10))), (3, np.ones((5, 9))), (4, np.ones((11, 5))),
                       (4, np.ones(10)), (5, np.ones(4)), (5, np.ones((1, 5)))]:
            args = list(arrays)
            args[i] = bad
            with pytest.raises(ValueError, match="attention shapes"):
                T.attention(*args, 2)


class TestAttentionScores:
    """``T.attention``'s scores against chains and finite differences, at the score shapes.

    The shapes the ``attention_scores`` node was checked at before
    ``T.attention`` took it over, the three workloads' blocks among them,
    with ``y`` contiguous or a transposed view.
    """

    # rows, patches, model width, heads, query/key width per head
    SHAPES = {
        "explicit-d_k": (3, 4, 6, 2, 4),
        "one-head": (2, 3, 4, 1, 4),
        "one-patch": (2, 1, 4, 2, 2),
        "pinned": (16, 12, 16, 4, 4),
        "paper": (112, 6, 128, 8, 16),
        "prefilter336": (8, 21, 64, 4, 16),
    }

    @staticmethod
    def operands(rng, shape, swapped):
        """y, wq, wk, wv, wo, bias, and the view that reaches the op (a transposed, non-contiguous y if swapped)."""
        rows, n, d, h, dk = shape
        arrays = TestAttention.operands(rng, rows, n, d, h, dk, d, d)
        if swapped:
            arrays[0] = np.ascontiguousarray(np.swapaxes(arrays[0], 0, 1))
            return arrays, lambda a: ref.swapaxes(a, 0, 1)
        return arrays, lambda a: a

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("name", SHAPES)
    def test_matches_unfused_chain(self, name, swapped):
        """To rounding against the unfused chain, and bit for bit against the split one, under a mask."""
        rows, n, d, h, dk = self.SHAPES[name]
        rng = np.random.default_rng(180 + len(name))
        arrays, view = self.operands(rng, self.SHAPES[name], swapped)
        keep = TestAttention.mask(rng, rows, n, h)
        proj = rng.standard_normal((rows, n, d))
        new, split, old = (TestAttention.run(op, arrays, h, keep, proj, view) for op in (
            T.attention, ref.scaled(ref.split_attention, dk), ref.scaled(ref.unfused_attention, dk)))
        for a, b, c in zip(new, split, old):
            assert a.tobytes() == b.tobytes()
            np.testing.assert_allclose(a, c, rtol=1e-12, atol=1e-12 * np.abs(c).max())

    @pytest.mark.parametrize("swapped", [False, True])
    @pytest.mark.parametrize("name", ["explicit-d_k", "one-head", "one-patch"])
    def test_gradcheck(self, name, swapped):
        rows, n, d, h, dk = self.SHAPES[name]
        rng = np.random.default_rng(190 + len(name))
        arrays, view = self.operands(rng, self.SHAPES[name], swapped)
        keep = TestAttention.mask(rng, rows, n, h) if swapped else None
        proj = rng.standard_normal((rows, n, d))
        gradcheck(lambda y, *ws: ref.sum(T.mul(T.attention(view(y), *ws, h, keep, 1.0 / 0.7),
                                               proj)), *arrays)

    def test_one_node_replaces_nine(self):
        """Under a mask: one node for the split chain's four, and the unfused chain's eighteen."""
        rows, n, d, h, dk = self.SHAPES["explicit-d_k"]
        rng = np.random.default_rng(200)
        arrays, _ = self.operands(rng, self.SHAPES["explicit-d_k"], False)
        params, keep = [Parameter(a) for a in arrays], TestAttention.mask(rng, rows, n, h)
        assert ref.tape_census(T.attention(*params, h, keep, 2.0)) == {"attention": 1}
        assert ref.tape_census(ref.scaled(ref.split_attention, dk)(*params, h, keep, 2.0)) == {
            "attention_scores": 1, "softmax": 1, "mul": 1, "head_mix": 1}
        unfused = ref.tape_census(ref.scaled(ref.unfused_attention, dk)(*params, h, keep, 2.0))
        assert sum(unfused.values()) == 18

    def test_shape_mismatch_rejected(self):
        rows, n, d, h, dk = self.SHAPES["explicit-d_k"]
        y, wq, wk, *rest = self.operands(np.random.default_rng(202), self.SHAPES["explicit-d_k"],
                                         False)[0]
        keep = np.ones((rows, h, n, n), dtype=bool)
        for args in [(y[0], wq, wk, *rest, 2), (y, wq[1:], wk[1:], *rest, 2),
                     (y, wq, wk[:, 1:], *rest, 2), (y, wq[:, 1:], wk[:, 1:], *rest, 2),
                     (y, wq, wk, *rest, 0), (y, wq[None], wk[None], *rest, 2)]:
            with pytest.raises(ValueError, match="attention shapes"):
                T.attention(*args)
        for bad in (keep[:, :1], keep[..., :1], keep[0]):
            with pytest.raises(ValueError, match="attention shapes"):
                T.attention(y, wq, wk, *rest, h, bad)
        T.attention(y, wq, wk, *rest, h, keep)  # the mask's own shape passes


class TestSharedWeightMatmul:
    """A stacked activation times one 2-D weight: the weight gradient sums over every row."""

    @staticmethod
    def batched_weight_grad(a: np.ndarray, g: np.ndarray) -> np.ndarray:
        return np.sum(np.swapaxes(a, -1, -2) @ g, axis=tuple(range(a.ndim - 2)))

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
    @pytest.mark.parametrize("swapped", [False, True])
    def test_weight_grad_matches_batched_formula(self, shape, swapped):
        rng = np.random.default_rng(70 + len(shape))
        x = rng.standard_normal(shape)
        if swapped:
            # a transposed view: the activation reaching matmul is not contiguous
            x = np.ascontiguousarray(np.swapaxes(x, 0, -2))
        w = rng.standard_normal((4, 6))
        proj = rng.standard_normal(shape[:-1] + (6,))
        a, b = Parameter(x), Parameter(w)
        act = ref.swapaxes(a, 0, -2) if swapped else a
        assert act.data.flags.c_contiguous is not swapped
        backward(ref.sum(T.mul(T.matmul(act, b), proj)))
        np.testing.assert_allclose(b.grad, self.batched_weight_grad(act.data, proj), atol=1e-12)
        np.testing.assert_allclose(
            a.grad, np.swapaxes(proj @ w.T, 0, -2) if swapped else proj @ w.T, atol=1e-12
        )

    @pytest.mark.parametrize("shape", [(3, 5, 4), (2, 3, 5, 4)])
    def test_against_finite_differences(self, shape):
        rng = np.random.default_rng(80 + len(shape))
        x = rng.standard_normal(shape)
        gradcheck(lambda a, w: T.mean(T.mul(T.matmul(a, w), T.matmul(a, w))), x,
                  rng.standard_normal((4, 3)))
        swapped = np.ascontiguousarray(np.swapaxes(x, 0, -2))
        gradcheck(
            lambda a, w: T.mean(T.gelu(T.matmul(ref.swapaxes(a, 0, -2), w))),
            swapped,
            rng.standard_normal((4, 3)),
        )


def _old_normalize(x, per_row, eps, gamma, beta):
    # the node chains normalize replaced (InstanceNorm, training-mode BatchNorm)
    if per_row:
        mu, v = T.mean(x, axis=-1, keepdims=True), ref.var(x, axis=-1, keepdims=True)
    else:
        flat = T.reshape(x, (-1, x.shape[-1]))
        mu, v = T.mean(flat, axis=0), ref.var(flat, axis=0)
    xhat = T.div(T.sub(x, mu), ref.sqrt(T.add(v, eps)))
    return T.add(T.mul(xhat, gamma), beta)


class TestNormalize:
    """One-node normalization against finite differences and the old node chain."""

    CASES = [
        ((6, 4), False),
        ((3, 5, 4), False),
        ((3, 4, 5), True),   # swapped to (3, 5, 4): the filter_axis="patch" layout
    ]

    @staticmethod
    def operand(x, swapped):
        return ref.swapaxes(x, -1, -2) if swapped else x

    @pytest.mark.parametrize("shape,swapped", CASES)
    @pytest.mark.parametrize("per_row", [True, False])
    def test_against_finite_differences(self, shape, swapped, per_row):
        rng = np.random.default_rng(90 + len(shape))
        x = rng.standard_normal(shape)
        width = shape[-2] if swapped else shape[-1]
        proj = rng.standard_normal(shape[:-2] + (shape[-1], shape[-2]) if swapped else shape)

        def fn(a, gamma, beta):
            act = self.operand(a, swapped)
            axis = -1 if per_row else tuple(range(act.ndim - 1))
            out, _, _ = T.normalize(act, axis, gamma, beta)
            return T.add(ref.sum(T.mul(out, proj)), T.mul(ref.sum(T.mul(out, out)), 0.1))

        gradcheck(fn, x, 1.0 + 0.3 * rng.standard_normal(width), rng.standard_normal(width))

    @pytest.mark.parametrize("shape,swapped", CASES)
    @pytest.mark.parametrize("per_row", [True, False])
    def test_matches_old_node_chain(self, shape, swapped, per_row):
        rng = np.random.default_rng(100 + len(shape))
        x = rng.standard_normal(shape) * 3.0 + 1.0
        width = shape[-2] if swapped else shape[-1]
        gamma = 1.0 + 0.3 * rng.standard_normal(width)
        beta = rng.standard_normal(width)
        proj = rng.standard_normal(shape[:-2] + (shape[-1], shape[-2]) if swapped else shape)
        results = []
        for fused in (True, False):
            a, g, b = Parameter(x), Parameter(gamma), Parameter(beta)
            act = self.operand(a, swapped)
            axis = -1 if per_row else tuple(range(act.ndim - 1))
            if fused:
                out = T.normalize(act, axis, g, b)[0]
            else:
                out = _old_normalize(act, per_row, 1e-5, g, b)
            backward(ref.sum(T.mul(out, proj)))
            results.append((out.data, a.grad, g.grad, b.grad))
        for new, old in zip(*results):
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    def test_returns_statistics_with_kept_dims(self):
        x = np.random.default_rng(110).standard_normal((3, 5, 4))
        _, mu, v = T.normalize(Tensor(x), (0, 1), np.ones(4), np.zeros(4))
        assert mu.shape == v.shape == (1, 1, 4)
        np.testing.assert_allclose(mu.reshape(-1), x.reshape(-1, 4).mean(axis=0), atol=1e-15)
        np.testing.assert_allclose(v.reshape(-1), x.reshape(-1, 4).var(axis=0), atol=1e-15)

    def test_affine_must_match_last_axis(self):
        with pytest.raises(ValueError):
            T.normalize(Tensor(np.ones((2, 3))), -1, np.ones(2), np.zeros(3))

    def test_one_node(self):
        x = Parameter(np.random.default_rng(111).standard_normal((4, 3)))
        out = T.normalize(x, -1, Parameter(np.ones(3)), Parameter(np.zeros(3)))[0]
        assert out.node.op == "normalize"
        assert all(p.node is None for p in out.node.parents)


class TestMatmulBias:
    """The bias rides in the matmul node; it must equal matmul followed by add."""

    @pytest.mark.parametrize("shape,swapped", [
        ((5, 4), False), ((3, 5, 4), False), ((3, 5, 4), True),
        ((2, 3, 5, 4), False), ((2, 3, 5, 4), True),
    ])
    def test_matches_matmul_plus_add(self, shape, swapped):
        rng = np.random.default_rng(120 + len(shape))
        x = rng.standard_normal(shape)
        if swapped:
            x = np.ascontiguousarray(np.swapaxes(x, 0, -2))
        w = rng.standard_normal((4, 6))
        bias = rng.standard_normal(6)
        proj = rng.standard_normal(shape[:-1] + (6,))
        results = []
        for fused in (True, False):
            a, b, c = Parameter(x), Parameter(w), Parameter(bias)
            act = ref.swapaxes(a, 0, -2) if swapped else a
            assert act.data.flags.c_contiguous is not swapped
            out = T.matmul(act, b, bias=c) if fused else T.add(T.matmul(act, b), c)
            backward(ref.sum(T.mul(out, proj)))
            results.append((out.data, a.grad, b.grad, c.grad))
        for new, old in zip(*results):
            np.testing.assert_allclose(new, old, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("shape", [(5, 4), (3, 5, 4), (2, 3, 5, 4)])
    def test_against_finite_differences(self, shape):
        rng = np.random.default_rng(130 + len(shape))
        x = rng.standard_normal(shape)
        gradcheck(
            lambda a, w, c: T.mean(T.gelu(T.matmul(a, w, bias=c))),
            x, rng.standard_normal((4, 3)), rng.standard_normal(3),
        )
        swapped = np.ascontiguousarray(np.swapaxes(x, 0, -2))
        gradcheck(
            lambda a, w, c: T.mean(T.gelu(T.matmul(ref.swapaxes(a, 0, -2), w, bias=c))),
            swapped, rng.standard_normal((4, 3)), rng.standard_normal(3),
        )

    def test_bias_with_batched_weight_rejected(self):
        with pytest.raises(ValueError, match="2-D weight"):
            T.matmul(Tensor(np.ones((2, 3, 4))), Tensor(np.ones((2, 4, 5))), bias=np.zeros(5))

    def test_bias_width_checked(self):
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((4, 5))), bias=np.zeros(4))

    def test_inner_dimension_checked(self):
        # a folded product must not reshape a mismatched activation into fit
        with pytest.raises(ValueError):
            T.matmul(Tensor(np.ones((3, 4))), Tensor(np.ones((6, 5))))


class TestUnfold:
    """Sliding windows with the dense 0/1 gather matrix as the oracle."""

    @staticmethod
    def gather_matrix(length, size, step):
        n = (length - size) // step + 1
        mat = np.zeros((length, n * size))
        for i in range(n):
            for j in range(size):
                mat[i * step + j, i * size + j] = 1.0
        return mat

    # overlap, gaps, and a length that is not a multiple of the step
    @pytest.mark.parametrize("length,size,step", [(12, 4, 2), (13, 3, 5), (17, 4, 4), (5, 5, 1)])
    def test_matches_gather_matrix(self, length, size, step):
        rng = np.random.default_rng(140 + length)
        x = rng.standard_normal((2, 3, length))
        n = (length - size) // step + 1
        mat = self.gather_matrix(length, size, step)
        proj = rng.standard_normal((2, 3, n, size))
        a = Parameter(x)
        out = T.unfold(a, size, step)
        assert out.shape == (2, 3, n, size)
        np.testing.assert_array_equal(out.data, (x @ mat).reshape(2, 3, n, size))
        backward(ref.sum(T.mul(out, proj)))
        np.testing.assert_allclose(a.grad, proj.reshape(2, 3, -1) @ mat.T, rtol=0, atol=1e-14)

    @pytest.mark.parametrize("length,size,step", [(12, 4, 2), (13, 3, 5), (17, 4, 4)])
    def test_against_finite_differences(self, length, size, step):
        rng = np.random.default_rng(150 + length)
        n = (length - size) // step + 1
        gradcheck(
            lambda a, p: ref.sum(T.mul(T.gelu(T.unfold(a, size, step)), p)),
            rng.standard_normal((3, length)), rng.standard_normal((3, n, size)),
        )

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            T.unfold(Tensor(np.zeros(4)), 5, 1)
        with pytest.raises(ValueError):
            T.unfold(Tensor(np.zeros(4)), 2, 0)


def erf(z) -> np.ndarray:
    z = np.array(z, dtype=np.float64).reshape(-1)
    out, e = np.empty_like(z), np.empty_like(z)
    T._erf(z, out, e)
    np.testing.assert_array_equal(e, np.exp(-(z * z)))
    return out


class TestErfAndGelu:
    """The numpy erf against ``math.erf``, and GELU around the erf branch switch."""

    @staticmethod
    def probe_points() -> np.ndarray:
        tiny = np.finfo(np.float64).smallest_subnormal
        edges = [np.nextafter(1.0, 0.0), 1.0, np.nextafter(1.0, 2.0)]
        special = [0.0, tiny, 7 * tiny, 1e-310, np.finfo(np.float64).tiny, 1e-300,
                   6.0, 8.0, 27.0, 40.0]
        pos = np.concatenate([np.linspace(0.0, 9.0, 90_001), edges, special])
        return np.concatenate([pos, -pos])

    def test_within_4_ulp_of_math_erf(self):
        z = self.probe_points()
        got = erf(z)
        want = np.array([math.erf(v) for v in z])
        ulps = np.abs(got - want) / np.spacing(np.abs(want))
        assert ulps.max() <= 4.0, f"{ulps.max()} ulp at z={z[ulps.argmax()]!r}"
        np.testing.assert_array_equal(np.signbit(got), np.signbit(want))

    def test_exactly_odd(self):
        z = self.probe_points()
        got, mirrored = erf(z), erf(-z)
        np.testing.assert_array_equal(mirrored, -got)
        np.testing.assert_array_equal(np.signbit(mirrored), ~np.signbit(got))

    def test_saturates_at_one(self):
        np.testing.assert_array_equal(erf([6.0, 8.0, 27.0, 40.0, 1e150]), 1.0)

    def test_gelu_matches_math_erf_across_chunks(self):
        # more elements than one GELU chunk, and a transposed (non-contiguous) input
        rng = np.random.default_rng(160)
        x = (rng.standard_normal((210, 101)) * 3.0).T
        want = np.array([0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0))) for v in x.ravel()])
        got = T.gelu(Tensor(x)).data
        assert got.shape == x.shape
        # 1 + erf cancels for x < 0, so the error scales with |x|, not with the output
        err = np.abs(got.ravel() - want)
        assert (err <= 4 * np.finfo(np.float64).eps * np.abs(x.ravel())).all()

    @pytest.mark.parametrize("center", [-math.sqrt(2.0), math.sqrt(2.0)])
    def test_gelu_gradient_across_the_branch_switch(self, center):
        # x / sqrt(2) crosses 1 in magnitude here, where erf changes approximation
        x = center + np.linspace(-1e-3, 1e-3, 12).reshape(3, 4)
        w = np.random.default_rng(161).standard_normal((3, 4))
        gradcheck(lambda a, p: ref.sum(T.mul(T.gelu(a), p)), x, w, eps=1e-7, rtol=1e-6, atol=1e-9)

    def test_gelu_gradient_beyond_the_clip(self):
        # |x / sqrt(2)| > 8, where P/Q see a clipped argument
        r = 8.0 * math.sqrt(2.0)
        x = np.array([[-r - 5.0, -r - 0.5, -r - 1e-3], [r + 1e-3, r + 0.5, r + 5.0]])
        a = Parameter(x)
        backward(ref.sum(T.gelu(a)))
        np.testing.assert_array_equal(T.gelu(Tensor(x)).data, np.where(x > 0, x, -0.0))
        pdf = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
        np.testing.assert_allclose(a.grad, (x > 0) + x * pdf, rtol=1e-13, atol=0)
        gradcheck(lambda a: ref.sum(T.mul(T.gelu(a), 0.7)), x)


def _grads_of(op, arrays, proj):
    """The output of ``op`` on Parameters made from ``arrays`` and their gradients under ``proj``."""
    params = [Parameter(a.copy()) for a in arrays]
    out = op(*params)
    backward(ref.sum(T.mul(out, proj)))
    return [out.data] + [p.grad for p in params]


class TestRetainedState:
    """Nodes keep only what their rule reads, and still give the same bits as before."""

    @pytest.mark.parametrize("shape", [(0,), (3, 4), (T._GELU_CHUNK,), (T._GELU_CHUNK + 5,),
                                       (101, 210)])
    def test_gelu_matches_two_array_form(self, shape):
        rng = np.random.default_rng(170)
        x = rng.standard_normal(shape) * 3.0
        if len(shape) == 2:
            x = x.T  # a non-contiguous input
        proj = rng.standard_normal(x.shape)
        new = _grads_of(T.gelu, [x], proj)
        old = _grads_of(ref.two_array_gelu, [x], proj)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(a, b)
        with no_grad():
            out = T.gelu(Tensor(x))
        assert out.node is None
        np.testing.assert_array_equal(out.data, new[0])

    @pytest.mark.parametrize("p", [0.1, 0.3, 0.5])
    def test_dropout_matches_float_mask(self, p):
        rng = np.random.default_rng(171)
        x = rng.standard_normal((4, 5, 6))
        keep = rng.random(x.shape) >= p
        proj = rng.standard_normal(x.shape)
        new = _grads_of(lambda a: T.dropout(a, keep, 1.0 / (1.0 - p)), [x], proj)
        old = _grads_of(lambda a: T.mul(a, keep / (1.0 - p)), [x], proj)
        for a, b in zip(new, old):
            np.testing.assert_array_equal(a, b)
            np.testing.assert_array_equal(np.signbit(a), np.signbit(b))

    def test_dropout_is_one_node_over_a_bool_mask(self):
        from spectral_forecaster.nn import Dropout

        x = Parameter(np.ones((3, 4)))
        out = Dropout(0.5)(x, np.random.default_rng(172))
        assert ref.tape_census(out) == {"dropout": 1}
        masks = [c.cell_contents for c in out.node.backward_fn.__closure__
                 if isinstance(c.cell_contents, np.ndarray)]
        assert [m.dtype for m in masks] == [np.bool_]
        with pytest.raises(ValueError, match="dropout mask"):
            T.dropout(x, np.ones((4, 3), dtype=bool), 2.0)

    @pytest.mark.parametrize("name", TestHeadMix.SHAPES)
    def test_head_mix_matches_z_keeping_form(self, name):
        """The node gives the split chain's bits, whose value path keeps the mixed values."""
        shape = TestHeadMix.SHAPES[name]
        rng = np.random.default_rng(173 + len(name))
        arrays, keep = TestHeadMix.operands(rng, shape, True)
        rows, h, n, _, _, d_out = shape
        proj = rng.standard_normal((rows, n, d_out))
        new = TestAttention.run(T.attention, arrays, h, keep, proj)
        old = TestAttention.run(ref.scaled(ref.split_attention, 2), arrays, h, keep, proj)
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("norm", ["BatchNorm", "InstanceNorm"])
    def test_normalize_recipe_rebuilds_the_output_bit_for_bit(self, norm):
        from spectral_forecaster import nn

        rng = np.random.default_rng(180)
        module = getattr(nn, norm)(6).init_state()
        module.gamma.data[...] = 1.0 + 0.3 * rng.standard_normal(6)
        module.beta.data[...] = rng.standard_normal(6)
        x = rng.standard_normal((5, 7, 6)) * 3.0 + 1.0
        out = module(Parameter(x))
        rebuilt = out._rebuild()
        assert rebuilt is not out.data
        assert rebuilt.tobytes() == out.data.tobytes()
        with no_grad():
            assert module(Parameter(x))._rebuild is None  # an unrecorded output keeps nothing

    def test_softmax_recipe_returns_the_kept_output(self):
        """The maps' recipe returns the softmax maps the node keeps, in the permuted layout.

        Row i * h + j of the kept (rows, n * h, n) maps is query i's softmax
        under head j, with the split chain's bits; the mask is kept in the
        same layout, and without one the recipe is the kept array itself.
        """
        rows, n, d, h, dk = 3, 5, 8, 2, 4
        rng = np.random.default_rng(206)
        arrays = TestAttention.operands(rng, rows, n, d, h, dk, d, d)
        keep = TestAttention.mask(rng, rows, n, h)
        softmax = ref.three_array_softmax(ref.attention_scores(*arrays[:3], h, 0.5)).data
        for mask in (keep, None):
            out = T.attention(*(Parameter(a) for a in arrays), h, mask, 1.0 / 0.7)
            bwd = out.node.backward_fn
            cells = dict(zip(bwd.__code__.co_freevars, (c.cell_contents for c in bwd.__closure__)))
            assert cells["p"].tobytes() == softmax.transpose(0, 2, 1, 3).tobytes()
            if mask is None:
                assert cells["dropped"]() is cells["p"]
            else:
                assert cells["keep"].tobytes() == keep.transpose(0, 2, 1, 3).tobytes()
                dropped = cells["dropped"]()
                assert dropped is not cells["p"]
                assert dropped.tobytes() == (cells["p"] * cells["keep"] * (1.0 / 0.7)).tobytes()

    @pytest.mark.parametrize("p", [0.1, 0.5])
    def test_dropout_over_softmax_recipe_rebuilds_bit_for_bit(self, p):
        """The node rebuilds the dropped maps in backward, with the bits of a dropout node over the softmax."""
        rows, n, d, h = 3, 5, 6, 2
        rng = np.random.default_rng(183)
        arrays = TestAttention.operands(rng, rows, n, d, h, 3, d, d)
        keep = TestAttention.mask(rng, rows, n, h, p)
        proj = rng.standard_normal((rows, n, d))

        def dropout_node_chain(y, wq, wk, wv, wo, bias, h, keep, drop_scale):
            attn = ref.three_array_softmax(ref.attention_scores(y, wq, wk, h, 1.0 / np.sqrt(3)))
            return ref.z_keeping_head_mix(T.dropout(attn, keep, drop_scale), y, wv, wo, bias)

        new = TestAttention.run(T.attention, arrays, h, keep, proj)
        old = TestAttention.run(dropout_node_chain, arrays, h, keep, proj)
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()
        out = T.attention(*(Parameter(a) for a in arrays), h, keep, 1.0 / (1.0 - p))
        maps = [a for a in TestAttention.kept(out.node.backward_fn).values()
                if a.shape == (rows, n * h, n)]
        assert sorted(a.dtype.name for a in maps) == ["bool", "float64"]  # no dropped maps

    def test_reshape_over_normalize_recipe_rebuilds_bit_for_bit(self):
        from spectral_forecaster.nn import BatchNorm

        rng = np.random.default_rng(184)
        norm = BatchNorm(6).init_state()
        norm.gamma.data[...] = 1.0 + 0.3 * rng.standard_normal(6)
        norm.beta.data[...] = rng.standard_normal(6)
        x = Parameter(rng.standard_normal((5, 7, 6)) * 3.0 + 1.0)
        out = T.reshape(norm(x), (5, -1))
        rebuilt = out._rebuild()
        assert rebuilt.shape == out.shape == (5, 42)
        assert rebuilt.tobytes() == out.data.tobytes()
        assert T.reshape(x, (5, -1))._rebuild is None
        with no_grad():
            assert T.reshape(norm(x), (5, -1))._rebuild is None

    def test_normalize_output_freed_when_the_forward_returns(self, monkeypatch):
        """A Linear reading a BatchNorm output rebuilds it in backward, with the kept array's bits."""
        from spectral_forecaster.nn import BatchNorm, Linear

        rng = np.random.default_rng(181)
        norm, lin = BatchNorm(6).init_state(), Linear(6, 4).init_state(rng)
        x = Parameter(rng.standard_normal((5, 7, 6)))
        proj = rng.standard_normal((5, 7, 4))
        params = (x, norm.gamma, norm.beta, lin.weight, lin.bias)

        def step():
            refs = []

            def forward():
                y = norm(x)
                refs.append(weakref.ref(y.data))
                return ref.sum(T.mul(lin(y), proj))

            loss = forward()
            alive = refs[0]() is not None
            backward(loss)
            grads = [p.grad for p in params]
            for p in params:
                p.grad = None
            return alive, grads

        lean = step()
        monkeypatch.setattr(T, "normalize", ref.recipe_free_normalize)
        kept = step()
        assert not lean[0] and kept[0]  # the control: without a recipe, lin keeps the array
        for a, b in zip(lean[1], kept[1]):
            assert a.tobytes() == b.tobytes()

    def test_attention_scores_keeps_its_input_not_q_or_k(self):
        """The node keeps y, the weights, the softmax maps and the mask: no q, k, scores or values."""
        # q and k are (rows, n, h * d_k), a size no kept array has here
        rows, n, d, h, dk = 3, 5, 6, 2, 4
        rng = np.random.default_rng(203)
        params = [Parameter(a) for a in TestAttention.operands(rng, rows, n, d, h, dk, d, d)]
        out = T.attention(*params, h, TestAttention.mask(rng, rows, n, h), 2.0)
        kept = TestAttention.kept(out.node.backward_fn).values()
        held = {id(a): a for a in (a if a.base is None else a.base for a in kept)}
        assert all(a.size != rows * n * h * dk for a in held.values())
        for p in params[:5]:
            del held[id(p.data)]
        assert sorted((a.size, a.dtype.name) for a in held.values()) == [
            (rows * h * n * n, "bool"), (rows * h * n * n, "float64")]

    # heads, patches and model width of each benchmark workload's attention blocks
    HEAD_MIX_WORKLOADS = {"paper": (8, 6, 128), "prefilter336": (4, 21, 64), "pinned": (4, 12, 16)}

    @staticmethod
    def head_mix_operands(rng, rows, h, n, d):
        return TestAttention.operands(rng, rows, n, d, h, d // h, d, d)

    @pytest.mark.parametrize("rows", ["1", "b-1", "b", "b+1", "305"])
    @pytest.mark.parametrize("name", HEAD_MIX_WORKLOADS)
    def test_head_mix_in_row_blocks_matches_z_keeping_form(self, name, rows):
        """Row blocks of the mixed values give the split chain's full-width bits, remainders included."""
        h, n, d = self.HEAD_MIX_WORKLOADS[name]
        b = T._HEAD_MIX_BLOCK // (n * h * d * 8)  # the most rows one block holds
        rows = {"1": 1, "b-1": b - 1, "b": b, "b+1": b + 1, "305": 305}[rows]
        rng = np.random.default_rng(176)
        arrays = self.head_mix_operands(rng, rows, h, n, d)
        proj = rng.standard_normal((rows, n, d))
        new = TestAttention.run(T.attention, arrays, h, None, proj)
        old = TestAttention.run(ref.scaled(ref.split_attention, d // h), arrays, h, None, proj)
        for a, b in zip(new, old):
            assert a.tobytes() == b.tobytes()

    # rows per training step of each benchmark workload
    WORKLOAD_ROWS = {"paper": 112, "prefilter336": 112, "pinned": 16}

    @pytest.mark.parametrize("name", HEAD_MIX_WORKLOADS)
    def test_head_mix_at_the_workload_batch_matches_z_keeping_form(self, name):
        """The head groups a training step uses give the split chain's bits (paper's take 3 groups)."""
        h, n, d = self.HEAD_MIX_WORKLOADS[name]
        rows = self.WORKLOAD_ROWS[name]
        heads = max(1, T._HEAD_MIX_GROUP // (rows * n * d * 8))
        assert len(T.even_chunks(h, heads)) == {"paper": 3, "prefilter336": 4, "pinned": 1}[name]
        rng = np.random.default_rng(178)
        arrays = self.head_mix_operands(rng, rows, h, n, d)
        proj = rng.standard_normal((rows, n, d))
        for keep in (None, TestAttention.mask(rng, rows, n, h, 0.1)):
            new = TestAttention.run(T.attention, arrays, h, keep, proj)
            old = TestAttention.run(ref.scaled(ref.split_attention, d // h), arrays, h, keep, proj)
            for a, b in zip(new, old):
                assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("name", TestHeadMix.SHAPES)
    def test_head_mix_backward_leaves_attn_intact(self, name):
        """The map gradient is written over the dropped maps or an array of its own, never the kept softmax maps."""
        rows, h, n, _, _, d_out = TestHeadMix.SHAPES[name]
        rng = np.random.default_rng(179)
        for masked in (False, True):
            arrays, keep = TestHeadMix.operands(rng, TestHeadMix.SHAPES[name], masked)
            params = [Parameter(a) for a in arrays]
            out = T.attention(*params, h, keep, 2.0)
            maps = [a for a in TestAttention.kept(out.node.backward_fn).values()
                    if a.dtype == np.float64 and a.shape == (rows, n * h, n)]
            before = maps[0].copy()
            backward(ref.sum(T.mul(out, rng.standard_normal((rows, n, d_out)))))
            assert len(maps) == 1 and maps[0].tobytes() == before.tobytes()
            assert np.isfinite(params[1].grad).all()

    @staticmethod
    def phase_peaks(rule, g, markers):
        """Traced peaks of a rule between the first lines that contain each of ``markers``, in order.

        The lines are found in the rule's source; reading the frame's locals
        instead would keep them alive. Returns one peak per phase, one more
        than there are markers, and the rule's result.
        """
        lines, start = inspect.getsourcelines(rule)
        bounds = [start + next(i for i, line in enumerate(lines) if m in line) for m in markers]
        peaks = []

        def local(frame, event, arg):
            if (event == "line" and len(peaks) < len(bounds)
                    and frame.f_lineno == bounds[len(peaks)]):
                peaks.append(tracemalloc.get_traced_memory()[1] - base)
                tracemalloc.reset_peak()
            return local

        def tracer(frame, event, arg):
            return local if frame.f_code is rule.__code__ else None

        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        sys.settrace(tracer)
        try:
            grads = rule(g)
        finally:
            sys.settrace(None)
        assert len(peaks) == len(bounds), "the rule skipped a phase"
        return peaks + [tracemalloc.get_traced_memory()[1] - base], grads

    def test_head_mix_working_set_is_one_block(self):
        """No pass forms the mixed values, or products of their width, for all rows or heads at once.

        At 1,024 rows of the pinned heads the mixed values take 6.3 MB: 13
        row blocks, or 4 one-head groups of 1.6 MB. The forward holds the
        maps and, while the scores form, q and k, or the output plus one
        block. The backward's value-weight gradient holds one group's
        copy of the maps and its mixed values. The activation gradients
        then hold the map gradient and gy, plus one block of theirs. The
        softmax gradient holds the map gradient with one product of the
        maps' size; the score gradients, which follow, hold fewer bytes.
        """
        rows, h, n, d = 1024, 4, 12, 16
        params = [Parameter(a) for a in
                  self.head_mix_operands(np.random.default_rng(177), rows, h, n, d)]
        block, wide, proj = T._HEAD_MIX_BLOCK, rows * n * h * d * 8, rows * n * d * 8
        attn = rows * h * n * n * 8
        heads = max(1, T._HEAD_MIX_GROUP // (wide // h))
        assert heads < h
        g = np.ones((rows, n, d))
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            out = T.attention(*params, h)
            forward_peak = tracemalloc.get_traced_memory()[1] - base - out.data.nbytes
            markers = ["mix_t = ", "if keep is not None:"]
            peaks, grads = self.phase_peaks(out.node.backward_fn, g, markers)
        finally:
            tracemalloc.stop()
        assert forward_peak <= attn + 2 * proj + 2 * block, f"{forward_peak / block:.1f} blocks"
        weight_peak, activation_peak, score_peak = peaks
        group = (attn + wide) * heads // h
        assert weight_peak <= group + 2 * block, f"{(weight_peak - group) / block:.1f} blocks over"
        gy = grads[0].nbytes
        bound = attn + gy + 2 * block
        assert activation_peak <= bound, f"{(activation_peak - bound) / block:.1f} blocks over"
        bound = 2 * attn + gy + 2 * block
        assert score_peak <= bound, f"{(score_peak - bound) / block:.1f} blocks over"

    def test_normalize_backward_allocates_one_full_size_array(self):
        """The input gradient is the one array of the input's size; the rest is a block of rows."""
        rng = np.random.default_rng(185)
        x = Parameter(rng.standard_normal((64, 32, 32)))
        gamma, beta = Parameter(rng.standard_normal(32)), Parameter(rng.standard_normal(32))
        out, _, _ = T.normalize(x, (0, 1), gamma, beta)
        g = rng.standard_normal(x.shape)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            gx = out.node.backward_fn(g)[0]
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        # one block of rows, and the buffer numpy's ufuncs use to broadcast an operand
        bound = gx.nbytes + 8 * T._GELU_CHUNK + 8 * np.getbufsize() + 32 * 1024
        assert peak <= bound, f"{peak / gx.nbytes:.2f} input sizes"

    @pytest.mark.parametrize("n, most", [(0, 4), (1, 4), (4, 4), (5, 4), (305, 85), (305, 10)])
    def test_even_chunks_cover_the_range_in_even_sizes(self, n, most):
        chunks = T.even_chunks(n, most)
        assert len(chunks) == -(-n // most)
        assert [i for lo, hi in chunks for i in range(lo, hi)] == list(range(n))
        sizes = [hi - lo for lo, hi in chunks] or [0]
        assert max(sizes) <= most and max(sizes) - min(sizes) <= 1

    @pytest.mark.parametrize("keepdims", [False, True])
    @pytest.mark.parametrize("axis", [(0, 1), (0, 2), (-1, 0), (1,), 2])
    def test_mean_over_several_axes(self, axis, keepdims):
        rng = np.random.default_rng(174)
        x = rng.standard_normal((3, 4, 5))
        out = T.mean(Tensor(x), axis=axis, keepdims=keepdims)
        np.testing.assert_array_equal(out.data, x.mean(axis=axis, keepdims=keepdims))
        proj = rng.standard_normal(out.shape)
        gradcheck(lambda a: ref.sum(T.mul(T.mean(a, axis=axis, keepdims=keepdims), proj)), x)

    def test_untracked_operand_gets_no_gradient_work(self):
        rng = np.random.default_rng(175)
        w, c = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
        g = np.ones((3, 4))
        for op in (T.add, T.sub, T.mul, T.div):
            assert op(Parameter(w), c).node.backward_fn(g)[1] is None
            assert op(c, Parameter(w)).node.backward_fn(g)[0] is None
        a = rng.standard_normal((2, 5, 3))
        assert T.matmul(a, Parameter(w)).node.backward_fn(np.ones((2, 5, 4)))[0] is None
        assert T.matmul(Parameter(a), w).node.backward_fn(np.ones((2, 5, 4)))[1] is None
        batched = rng.standard_normal((2, 3, 4))
        assert T.matmul(a, Parameter(batched)).node.backward_fn(np.ones((2, 5, 4)))[0] is None
        # and the tracked operand's gradient is unchanged
        p = Parameter(a)
        backward(ref.sum(T.mul(T.matmul(p, w), 0.5)))
        np.testing.assert_allclose(p.grad, np.broadcast_to(0.5 * w.sum(axis=1), a.shape))

    def test_parents_are_data_free_handles(self):
        x = Parameter(np.arange(6.0).reshape(2, 3))
        y = T.mul(x, x)
        a, b = T.mul(y, 2.0), T.add(y, 1.0)
        assert a.node.parents[0] is b.node.parents[0]
        handle = a.node.parents[0]
        assert not isinstance(handle, Tensor) and not hasattr(handle, "data")
        assert handle.node is y.node and handle.requires_grad
        assert y.node.parents == (x, x)  # a leaf stays itself
        # nothing on a's tape holds y's data, so dropping y frees it
        alive = weakref.ref(y.data)
        del y
        assert alive() is None
        backward(ref.sum(T.add(a, b)))
        np.testing.assert_array_equal(x.grad, 6.0 * x.data)
        assert handle.node is None and a.node is None

    def test_backward_frees_every_node_it_walks(self):
        """Each node loses its rule and its parents, so a constant the tape wrapped is freed while the loss is held."""
        from spectral_forecaster.training import mse_loss

        rng = np.random.default_rng(31)
        x, w = Parameter(rng.standard_normal((4, 3))), Parameter(rng.standard_normal((3, 2)))
        h = T.gelu(T.matmul(x, w, bias=Parameter(np.zeros(2))))
        # the list target is wrapped in a Tensor that only the sub node holds
        loss = mse_loss(T.add(T.mul(h, h), T.mean(h)), [[0.5, -1.0]] * 4)
        nodes, todo = [], [loss.node]
        while todo:
            n = todo.pop()
            if n is not None and n not in nodes:
                nodes.append(n)
                todo.extend(p.node for p in n.parents)
        assert len(nodes) == 8
        wrapped = [p.data for n in nodes for p in n.parents
                   if isinstance(p, Tensor) and not p.requires_grad]
        assert [a.tolist() for a in wrapped] == [[[0.5, -1.0]] * 4]
        target = weakref.ref(wrapped.pop())
        backward(loss)
        assert all(n.backward_fn is None and n.parents is None for n in nodes)
        assert loss.node is None and target() is None

    def test_second_graph_over_a_freed_intermediate(self):
        x = Parameter(np.array([1.0, 2.0]))
        y = T.mul(x, 3.0)
        backward(ref.sum(y))
        loss = ref.sum(T.mul(y, x))  # y's node is gone, so its gradient cannot reach x
        with pytest.raises(ValueError, match="'mul' node an earlier backward freed"):
            backward(loss)
        np.testing.assert_array_equal(x.grad, [3.0, 3.0])

    def test_shared_trunk_is_refused_before_any_rule_runs(self):
        w = Parameter([2.0])
        h = T.mul(w, 3.0)
        backward(T.mean(h))
        w.grad = None
        h2 = T.mul(h, h)
        loss = T.mean(h2)
        with pytest.raises(ValueError, match="'mul' node"):
            backward(loss)  # would owe w.grad == 36 had h's node survived
        assert w.grad is None
        assert loss.node.backward_fn is not None and h2.node.backward_fn is not None
        assert loss.node.parents[0] is h2.node and h2.node.parents == (h._ref, h._ref)
        with pytest.raises(ValueError, match="'mul' node"):
            backward(loss)  # a refused loss stays refused for the same reason
