"""Loss functions, Adam against a reference implementation, fit mechanics, metrics."""

import math
import tracemalloc

import numpy as np
import pytest

import reference as ref
from spectral_forecaster import experiments
from spectral_forecaster.data import WindowSample, WindowSet
from spectral_forecaster.errors import ConfigError, NumericError
from spectral_forecaster.model import FilterFormer, ModelConfig
from spectral_forecaster.nn import Linear, Module
from spectral_forecaster.numeric import Parameter, Tensor, backward, no_grad
from spectral_forecaster.training import (
    ADAM_BLOCK,
    AdamState,
    Metrics,
    TrainConfig,
    adam_step,
    evaluate,
    fit,
    mse_loss,
)


class LinearStub(Module):
    """Bare lookback-to-horizon linear map with the training-loop interface."""

    def __init__(self, lookback, horizon, rng):
        super().__init__()
        self.lin = Linear(lookback, horizon).init_state(rng)

    def forward(self, x, rng=None):
        return self.lin(x if isinstance(x, Tensor) else Tensor(np.asarray(x, float)))

    def predict(self, x):
        was_training = self.training
        self.eval()
        with no_grad():
            out = self.forward(x).data
        if was_training:
            self.train()
        return out


def window_set(x, y, n_val=8, n_test=8):
    """Wrap row arrays (n, L) and (n, H) into a WindowSet of 1-channel samples."""
    samples = [
        WindowSample(input=xi[None, :], target=yi[None, :], origin=i)
        for i, (xi, yi) in enumerate(zip(x, y))
    ]
    n = len(samples)
    return WindowSet(
        train=samples[: n - n_val - n_test],
        val=samples[n - n_val - n_test: n - n_test],
        test=samples[n - n_test:],
        mean=np.zeros(1),
        std=np.ones(1),
    )


class TestLosses:
    def test_equal_inputs_give_zero(self):
        x = np.random.default_rng(0).standard_normal((3, 4))
        assert mse_loss(x, x).item() == 0.0

    def test_cited_values(self):
        assert mse_loss(np.array([0.0, 0.0]), np.array([1.0, 1.0])).item() == 1.0
        assert mse_loss(np.array([0.0, 2.0]), np.array([1.0, 1.0])).item() == 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            mse_loss(np.zeros((2, 3)), np.zeros((3, 2)))

    def test_mse_gradient(self):
        rng = np.random.default_rng(1)
        pred = rng.standard_normal((4, 5))
        target = rng.standard_normal((4, 5))
        pt = Tensor(pred.copy(), requires_grad=True)
        backward(mse_loss(pt, target))
        np.testing.assert_allclose(pt.grad, 2.0 * (pred - target) / pred.size, rtol=1e-12)


class TestAdam:
    def test_zero_gradient_is_identity(self):
        rng = np.random.default_rng(0)
        model = LinearStub(4, 2, rng)
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        state = AdamState.for_model(model)
        for _, p in model.named_parameters():
            p.grad = np.zeros_like(p.data)
        adam_step(state, list(model.named_parameters()), lr=0.1)
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])

    def test_hand_computed_single_step(self):
        # theta=0, g=1, defaults, lr=0.1: first-step bias correction makes
        # m_hat = v_hat = 1, so theta becomes -0.1 / (1 + eps)
        model = Module()
        from spectral_forecaster.numeric.tensor import Parameter

        model.theta = Parameter(np.zeros(()))
        model.theta.grad = np.ones(())
        state = AdamState.for_model(model)
        adam_step(state, list(model.named_parameters()), lr=0.1)
        expected = -0.1 / (1.0 + 1e-8)
        assert model.theta.data == pytest.approx(expected, rel=1e-12)
        assert model.theta.data == pytest.approx(-0.0999999990, abs=1e-9)

    def test_matches_reference_implementation(self):
        # independent straight-from-the-formulas reference, no in-place tricks
        rng = np.random.default_rng(7)
        theta = rng.standard_normal((3, 4))
        model = Module()
        from spectral_forecaster.numeric.tensor import Parameter

        model.w = Parameter(theta.copy())
        state = AdamState.for_model(model)

        ref_theta = theta.copy()
        ref_m = np.zeros_like(theta)
        ref_v = np.zeros_like(theta)
        b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
        for t in range(1, 6):
            g = rng.standard_normal((3, 4))
            model.w.grad = g.copy()
            adam_step(state, list(model.named_parameters()), lr=lr)
            ref_m = b1 * ref_m + (1 - b1) * g
            ref_v = b2 * ref_v + (1 - b2) * g**2
            m_hat = ref_m / (1 - b1**t)
            v_hat = ref_v / (1 - b2**t)
            ref_theta = ref_theta - lr * m_hat / (np.sqrt(v_hat) + eps)
            np.testing.assert_allclose(model.w.data, ref_theta, rtol=1e-12, atol=1e-15)
        assert state.step == 5

    @staticmethod
    def mixed_model(seed):
        """Matrix, vector and 0-d parameters across two nesting levels."""
        rng = np.random.default_rng(seed)
        model = Module()
        model.lin = Linear(5, 3).init_state(rng)
        model.scale = Parameter(np.array(0.7))
        model.gain = Parameter(rng.standard_normal(4))
        return model

    def test_parameters_are_views_of_one_arena(self):
        model = FilterFormer(
            ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8, n_heads=2,
                        total_layers=2, alpha=1, revin_affine=True),
            np.random.default_rng(0))
        params = model.parameters()
        values = np.concatenate([p.data.reshape(-1) for p in params])
        arena = model.state_arena()
        assert model.state_arena() is arena
        assert all(p.data.base is arena for p in params)
        head = model.parameter_arena()
        assert head.base is arena and head.size == values.size
        np.testing.assert_array_equal(head, values)
        head[0] = 42.0
        assert params[0].data.reshape(-1)[0] == 42.0

    def test_bare_module_packs_late_parameters(self):
        model = self.mixed_model(1)
        arena = model.state_arena()
        model.extra = Parameter(np.arange(3.0))
        repacked = model.state_arena()
        assert repacked is not arena and repacked.size == arena.size + 3
        assert all(p.data.base is repacked for p in model.parameters())
        np.testing.assert_array_equal(model.parameter_arena(), np.concatenate(
            [p.data.reshape(-1) for p in model.parameters()]))
        np.testing.assert_array_equal(model.extra.data, np.arange(3.0))

    @staticmethod
    def multi_block_model(seed):
        """Parameters spanning 2.5 Adam blocks: block edges and a short last block."""
        rng = np.random.default_rng(seed)
        model = Module()
        model.a = Parameter(rng.standard_normal(ADAM_BLOCK + 7))
        model.b = Parameter(rng.standard_normal((3, ADAM_BLOCK // 2 - 1)))
        return model

    def test_flat_update_bit_identical_to_per_parameter_loop(self):
        for build in (self.mixed_model, self.multi_block_model):
            flat, loop = build(2), build(2)
            state = AdamState.for_model(flat)
            ref_state = {}
            rng = np.random.default_rng(3)
            for _ in range(5):
                for (_, p), (_, q) in zip(flat.named_parameters(), loop.named_parameters()):
                    p.grad = rng.standard_normal(p.shape)
                    q.grad = p.grad.copy()
                adam_step(state, list(flat.named_parameters()), lr=0.01)
                ref.adam_step_per_parameter(ref_state, list(loop.named_parameters()), lr=0.01)
                for (name, p), (_, q) in zip(flat.named_parameters(), loop.named_parameters()):
                    assert p.data.tobytes() == q.data.tobytes(), name
            assert state.step == ref_state["step"] == 5

    def test_nan_gradient_names_parameter(self):
        model = LinearStub(4, 2, np.random.default_rng(0))
        state = AdamState.for_model(model)
        for _, p in model.named_parameters():
            p.grad = np.zeros_like(p.data)
        model.lin.weight.grad[0, 0] = np.nan
        with pytest.raises(NumericError, match="lin.weight"):
            adam_step(state, list(model.named_parameters()), lr=0.1)

    def test_non_finite_gradient_names_the_parameter_holding_it(self):
        # the flat check fails first; the name comes from a lookup afterwards
        model = self.mixed_model(4)
        state = AdamState.for_model(model)
        for _, p in model.named_parameters():
            p.grad = np.ones(p.shape)
        adam_step(state, list(model.named_parameters()), lr=0.1)
        model.lin.bias.grad[1] = np.inf
        before = [a.copy() for a in (state.arena, state.m, state.v)]
        with pytest.raises(NumericError, match="parameter lin.bias at step 2"):
            adam_step(state, list(model.named_parameters()), lr=0.1)
        # a rejected step advances nothing: not the bias-correction counter either
        assert state.step == 1
        for after, kept in zip((state.arena, state.m, state.v), before):
            assert after.tobytes() == kept.tobytes()

    def test_missing_gradient_rejected(self):
        model = LinearStub(4, 2, np.random.default_rng(0))
        state = AdamState.for_model(model)
        with pytest.raises(ValueError, match="no gradient"):
            adam_step(state, list(model.named_parameters()), lr=0.1)


B = ADAM_BLOCK
# parameter shapes, laid out end to end in the parameter arena
PLAN_LAYOUTS = {
    "block edges": [1, B - 1, B, B + 1, 2 * B + 3],
    "0-d parameter": [(), (3, 4), (), 7],
    "many tiny": [B - 50] + [1 + i % 4 for i in range(60)],
    "exact multiple": [B // 2, B // 2 + 5, B - 5],
    "single block": [5, (3, 4), 1],
}


class TestAdamBlockPlan:
    """Adam walks the arena in ADAM_BLOCK ranges, gathering a range that spans parameters."""

    @staticmethod
    def model(layout, seed=2):
        rng = np.random.default_rng(seed)
        model = Module()
        for i, shape in enumerate(layout):
            setattr(model, f"p{i}", Parameter(rng.standard_normal(shape)))
        return model

    @staticmethod
    def assert_matches_reference(state, ref_state, flat, loop):
        """Parameters, m and v bit for bit against the per-parameter loop's."""
        assert state.step == ref_state["step"]
        assert flat.parameter_arena().tobytes() == loop.parameter_arena().tobytes()
        for key, ours in (("m", state.m), ("v", state.v)):
            theirs = np.concatenate([ref_state[key, name].reshape(-1)
                                     for name, _ in loop.named_parameters()])
            assert ours.tobytes() == theirs.tobytes(), key

    @pytest.mark.parametrize("layout", PLAN_LAYOUTS)
    def test_bit_identical_to_per_parameter_loop(self, layout):
        flat, loop = self.model(PLAN_LAYOUTS[layout]), self.model(PLAN_LAYOUTS[layout])
        state, ref_state, rng = AdamState.for_model(flat), {}, np.random.default_rng(3)
        for _ in range(3):
            for (_, p), (_, q) in zip(flat.named_parameters(), loop.named_parameters()):
                p.grad = rng.standard_normal(p.shape)
                q.grad = p.grad.copy()
            adam_step(state, flat.named_parameters(), lr=0.01)
            ref.adam_step_per_parameter(ref_state, list(loop.named_parameters()), lr=0.01)
        self.assert_matches_reference(state, ref_state, flat, loop)
        assert len(state.plan) == -(-flat.parameter_arena().size // ADAM_BLOCK)

    def test_nan_only_the_last_range_covers_rejects_the_whole_step(self):
        model = self.model(PLAN_LAYOUTS["block edges"])
        state, rng = AdamState.for_model(model), np.random.default_rng(4)
        for _, p in model.named_parameters():
            p.grad = rng.standard_normal(p.shape)
        adam_step(state, model.named_parameters(), lr=0.01)
        model.p4.grad[-1] = np.nan
        before = [a.tobytes() for a in (state.arena, state.m, state.v)]
        with pytest.raises(NumericError, match="parameter p4 at step 2"):
            adam_step(state, model.named_parameters(), lr=0.01)
        assert state.step == 1
        assert [a.tobytes() for a in (state.arena, state.m, state.v)] == before

    def test_finite_gradient_whose_range_sum_overflows_still_steps(self):
        layout = PLAN_LAYOUTS["block edges"]
        flat, loop = self.model(layout), self.model(layout)
        state, ref_state, rng = AdamState.for_model(flat), {}, np.random.default_rng(5)
        for (name, p), (_, q) in zip(flat.named_parameters(), loop.named_parameters()):
            # p3's ranges sum past the largest float64; every element is finite
            p.grad = np.full(p.shape, 1e305) if name == "p3" else rng.standard_normal(p.shape)
            q.grad = p.grad.copy()
        with np.errstate(over="ignore"):
            adam_step(state, flat.named_parameters(), lr=0.01)
            ref.adam_step_per_parameter(ref_state, list(loop.named_parameters()), lr=0.01)
        self.assert_matches_reference(state, ref_state, flat, loop)


def arena_model(seed=0, dropout=0.0):
    return FilterFormer(
        ModelConfig(lookback=16, horizon=4, patch_len=4, d_model=8, n_heads=2,
                    total_layers=2, alpha=1, revin_affine=True, dropout=dropout),
        np.random.default_rng(seed))


def forward_backward(model, seed=5):
    x = np.random.default_rng(seed).standard_normal((3, 16))
    y = np.random.default_rng(seed + 1).standard_normal((3, 4))
    backward(mse_loss(model.train()(x), y))


class TestGradientArena:
    """Gradients without a gradient arena: the fresh arrays backward returns, unset by fit after each step."""

    def test_optimizer_leaves_backward_gradients_alone(self):
        model, loose = arena_model(), arena_model()
        state = AdamState.for_model(model)
        forward_backward(model)
        forward_backward(loose)
        for (name, p), (_, q) in zip(model.named_parameters(), loose.named_parameters()):
            assert p.grad.tobytes() == q.grad.tobytes(), name
            for a in (state.arena, state.m, state.v, state.block):
                assert not np.shares_memory(p.grad, a), name

    def test_second_backward_adds_this_calls_sum(self):
        model, once, twice = arena_model(), arena_model(), arena_model()
        forward_backward(model, seed=5)
        forward_backward(model, seed=7)
        forward_backward(once, seed=5)
        forward_backward(twice, seed=7)
        for p, g1, g2 in zip(model.parameters(), once.parameters(), twice.parameters()):
            assert p.grad.tobytes() == (g1.grad + g2.grad).tobytes()

    def test_fit_drops_each_steps_gradients_before_the_next_forward(self, monkeypatch):
        import weakref

        import spectral_forecaster.training as training

        rng = np.random.default_rng(6)
        ws = window_set(rng.standard_normal((40, 16)), rng.standard_normal((40, 4)))
        model = arena_model(dropout=0.1)
        step_grads, alive_at_forward = [], []
        forward, step = model.forward, training.adam_step

        def watched_forward(*args, **kwargs):
            alive_at_forward.append(sum(r() is not None for r in step_grads))
            return forward(*args, **kwargs)

        def watched_step(state, named_params, lr):
            step(state, named_params, lr)
            # a 0-d parameter's gradient may be a numpy scalar, which has no weakref
            step_grads[:] = [weakref.ref(p.grad if p.grad.base is None else p.grad.base)
                             for _, p in named_params if isinstance(p.grad, np.ndarray)]

        monkeypatch.setattr(model, "forward", watched_forward)
        monkeypatch.setattr(training, "adam_step", watched_step)
        fit(model, ws, TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=2, patience=2))
        assert len(step_grads) >= len(model.parameters()) - 2  # all but RevIN's 0-d two
        assert len(alive_at_forward) >= 6 and not any(alive_at_forward)
        assert all(r() is None for r in step_grads)
        assert all(p.grad is None for p in model.parameters())

    def test_fit_trains_alike_with_gradients_left_set(self):
        rng = np.random.default_rng(6)
        ws = window_set(rng.standard_normal((40, 16)), rng.standard_normal((40, 4)))

        def train(stale):
            model = arena_model(dropout=0.1)
            for p in model.parameters():
                p.grad = np.full(p.shape, np.nan) if stale else None
            fit(model, ws, TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=1,
                                       patience=1))
            return model.parameter_arena().tobytes()

        assert train(stale=True) == train(stale=False)

    def test_adam_step_allocates_at_most_one_block(self):
        import tracemalloc

        model = Module()
        model.big = Parameter(np.zeros((1200, 1000)))
        model.lin = Linear(5, 3).init_state(np.random.default_rng(0))
        state = AdamState.for_model(model)
        rng = np.random.default_rng(1)
        for p in model.parameters():
            p.grad = rng.standard_normal(p.shape)
        tracemalloc.start()
        try:
            adam_step(state, model.named_parameters(), 1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert state.arena.size > 1_200_000
        assert peak <= 8 * ADAM_BLOCK, peak

    def test_undrawn_model_fails_fit_and_evaluate(self):
        # built without an rng, every drawn parameter reads NaN: no plausible numbers
        model = FilterFormer(arena_model().config)
        rng = np.random.default_rng(6)
        ws = window_set(rng.standard_normal((40, 16)), rng.standard_normal((40, 4)))
        with pytest.raises(ValueError, match="mse must be finite"):
            evaluate(model, ws.test)
        with pytest.raises(NumericError, match="non-finite gradient"):
            fit(model, ws, TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=1,
                                       patience=1))

    def test_three_fit_steps_match_the_gathered_update(self, monkeypatch):
        import spectral_forecaster.training as training

        rng = np.random.default_rng(6)
        ws = window_set(rng.standard_normal((40, 16)), rng.standard_normal((40, 4)))
        cfg = TrainConfig(learning_rate=1e-2, batch_size=8, max_epochs=1, patience=1, seed=3)

        def train():
            model = arena_model(dropout=0.1)
            result = fit(model, ws, cfg)
            return model.parameter_arena().tobytes(), result.history

        blocked = train()
        monkeypatch.setattr(training, "adam_step", ref.adam_step_gathered)
        gathered = train()
        assert len(ws.train) == 3 * cfg.batch_size
        assert blocked == gathered


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert cfg.max_epochs == 50
        assert cfg.patience == 15
        assert cfg.batch_size == 16

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            TrainConfig(learning_rate=-1e-4)
        with pytest.raises(ConfigError):
            TrainConfig(patience=51, max_epochs=50)
        with pytest.raises(ConfigError):
            TrainConfig(batch_size=0)

    def test_nan_learning_rate_rejected(self):
        # the YAML reader rejects NaN; the API must too, not end in a non-finite gradient
        with pytest.raises(ConfigError, match="learning_rate"):
            TrainConfig(learning_rate=float("nan"))


def learnable_windows(seed=0, n=80, lookback=8, horizon=4):
    """Targets are an exact linear map of inputs, so a Linear model can reach ~0."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, lookback))
    a = rng.standard_normal((lookback, horizon)) / np.sqrt(lookback)
    return window_set(x, x @ a)


class TestFit:
    def test_trivially_learnable_reaches_near_zero(self):
        ws = window_set(
            np.random.default_rng(0).standard_normal((80, 8)), np.zeros((80, 4))
        )
        model = LinearStub(8, 4, np.random.default_rng(1))
        result = fit(model, ws, TrainConfig(learning_rate=0.05, max_epochs=20, patience=20))
        assert result.history[-1][1] < 1e-3
        assert result.history[-1][1] < result.history[0][1] / 100

    def test_quadratic_problem_train_loss_drops(self):
        ws = learnable_windows()
        model = LinearStub(8, 4, np.random.default_rng(1))
        result = fit(model, ws, TrainConfig(learning_rate=0.02, max_epochs=30, patience=30))
        first = result.history[0][1]
        best_by_epoch = np.minimum.accumulate([h[1] for h in result.history])
        assert (np.diff(best_by_epoch) <= 0).all()
        assert best_by_epoch[-1] < first / 10

    def test_frozen_model_stops_at_patience_plus_one(self):
        ws = learnable_windows()
        model = LinearStub(8, 4, np.random.default_rng(1))
        result = fit(model, ws, TrainConfig(learning_rate=0.0, max_epochs=50, patience=3))
        assert result.stopped_epoch == 4
        assert len(result.history) == 4
        assert result.best_epoch == 1

    def test_frozen_model_with_full_patience_never_moves(self):
        ws = learnable_windows()
        model = LinearStub(8, 4, np.random.default_rng(1))
        before = {n: p.data.copy() for n, p in model.named_parameters()}
        result = fit(model, ws, TrainConfig(learning_rate=0.0, max_epochs=10, patience=10))
        assert result.stopped_epoch == 10
        for n, p in model.named_parameters():
            np.testing.assert_array_equal(p.data, before[n])

    def test_best_checkpoint_restored(self):
        ws = learnable_windows()
        model = LinearStub(8, 4, np.random.default_rng(1))
        # lr high enough to oscillate so the last epoch is usually not the best
        result = fit(model, ws, TrainConfig(learning_rate=0.3, max_epochs=25, patience=25))
        assert result.best_val == min(h[2] for h in result.history)
        assert result.best_epoch == min(
            e for e, _, v in result.history if v == result.best_val
        )
        recomputed = evaluate(model, ws.val).mse
        assert recomputed == result.best_val

    def test_best_epoch_buffers_restored_with_its_parameters(self):
        # batch norm predicts from its running statistics, so the best
        # validation score comes back only if those buffers come back too
        ws = learnable_windows(lookback=16)
        model = arena_model(seed=2)
        result = fit(model, ws, TrainConfig(learning_rate=0.05, max_epochs=8, patience=8))
        assert result.best_epoch < result.stopped_epoch
        assert evaluate(model, ws.val).mse == result.best_val

    @staticmethod
    def record_validation_states(model):
        """A copy of the model's whole state at each predict: fit's validation, once per epoch."""
        states, predict = [], model.predict

        def recording(x):
            states.append(model.state_arena().copy())
            return predict(x)

        model.predict = recording
        return states

    def test_patience_stopped_run_restores_its_middle_best_epoch_bit_for_bit(self):
        # val MSE falls to the best epoch, then rises above it but stays under
        # the epoch before it, until patience runs out
        ws = learnable_windows(lookback=16)
        model = arena_model(seed=2)
        states = self.record_validation_states(model)
        cfg = TrainConfig(learning_rate=0.05, max_epochs=12, patience=2)
        result = fit(model, ws, cfg)
        assert 1 < result.best_epoch < result.stopped_epoch < cfg.max_epochs
        assert result.stopped_epoch == result.best_epoch + cfg.patience
        assert len(states) == len(result.history) == result.stopped_epoch
        history = [v for _, _, v in result.history]
        assert history[result.best_epoch - 2] > history[result.best_epoch] > result.best_val
        assert result.best_val == min(history)
        np.testing.assert_array_equal(model.state_arena(), states[result.best_epoch - 1])

    def test_last_epoch_best_keeps_the_trained_state(self):
        # fit snapshots the best epoch before each later one; none of them
        # may come back when the last epoch is best
        ws = learnable_windows(lookback=16)
        model = arena_model(seed=2)
        states = self.record_validation_states(model)
        result = fit(model, ws, TrainConfig(learning_rate=0.1, max_epochs=4, patience=4))
        assert result.best_epoch == result.stopped_epoch == len(states) == 4
        np.testing.assert_array_equal(model.state_arena(), states[-1])

    def test_best_snapshot_taken_only_before_weights_change(self):
        # one epoch is the best and the last: fit copies no arena for a restore.
        # Its peak is Adam's m and v plus a step's gradients (about 3.38
        # arenas), one more with a best-state copy.
        rng = np.random.default_rng(0)
        ws = window_set(rng.standard_normal((40, 512)), rng.standard_normal((40, 512)))
        model = LinearStub(512, 512, np.random.default_rng(1))
        arena_bytes = model.parameter_arena().nbytes
        tracemalloc.start()
        try:
            result = fit(model, ws, TrainConfig(learning_rate=1e-3, max_epochs=1, patience=1))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.best_epoch == result.stopped_epoch == 1
        assert peak < 3.75 * arena_bytes

    def test_divergent_validation_aborts_with_epoch(self):
        class Exploding(LinearStub):
            def predict(self, x):
                return np.full((x.shape[0], 4), 1e200)

        ws = learnable_windows()
        model = Exploding(8, 4, np.random.default_rng(1))
        with pytest.raises(NumericError, match="epoch 1"):
            fit(model, ws, TrainConfig(learning_rate=1e-4, max_epochs=5, patience=5))

    def test_deterministic_given_seed(self):
        ws = learnable_windows()
        runs = []
        for _ in range(2):
            model = LinearStub(8, 4, np.random.default_rng(1))
            result = fit(model, ws, TrainConfig(learning_rate=0.02, max_epochs=6, patience=6, seed=9))
            runs.append((result.history, {n: p.data.copy() for n, p in model.named_parameters()}))
        assert runs[0][0] == runs[1][0]
        for n in runs[0][1]:
            np.testing.assert_array_equal(runs[0][1][n], runs[1][1][n])

    def test_libc_without_mallopt_leaves_the_allocator_alone(self, monkeypatch):
        import spectral_forecaster.training as training

        monkeypatch.setattr(training.ctypes, "CDLL", lambda name: object())
        ws = learnable_windows()
        result = fit(LinearStub(8, 4, np.random.default_rng(1)), ws,
                     TrainConfig(learning_rate=0.02, max_epochs=2, patience=2))
        assert result.stopped_epoch == 2

    def test_empty_streams_rejected(self):
        ws = learnable_windows()
        empty = WindowSet(train=[], val=ws.val, test=ws.test, mean=ws.mean, std=ws.std)
        model = LinearStub(8, 4, np.random.default_rng(1))
        with pytest.raises(ValueError):
            fit(model, empty, TrainConfig())


class TestEvaluate:
    def test_oracle_predictor_scores_zero(self):
        class LastValue(Module):
            def predict(self, x):
                return np.repeat(x[:, -1:], 4, axis=1)

        rng = np.random.default_rng(0)
        x = rng.standard_normal((20, 8))
        y = np.repeat(x[:, -1:], 4, axis=1)
        ws = window_set(x, y, n_val=5, n_test=10)
        metrics = evaluate(LastValue(), ws.test)
        assert metrics == Metrics(0.0, 0.0)

    def test_mean_predictor_on_unit_variance_data(self):
        class MeanPredictor(Module):
            def predict(self, x):
                return np.repeat(x.mean(axis=1, keepdims=True), 8, axis=1)

        rng = np.random.default_rng(3)
        x = rng.standard_normal((4000, 32))
        y = rng.standard_normal((4000, 8))
        ws = window_set(x, y, n_val=10, n_test=3000)
        metrics = evaluate(MeanPredictor(), ws.test)
        assert abs(metrics.mse - 1.0) < 0.05

    def test_cited_errors(self):
        class Zero(Module):
            def predict(self, x):
                return np.zeros((x.shape[0], 2))

        y = np.array([[1.0, 1.0], [1.0, 1.0], [0.0, 2.0], [2.0, 0.0]])
        ws = window_set(np.zeros((4, 3)), y, n_val=1, n_test=2)
        assert evaluate(Zero(), ws.test) == Metrics(mse=2.0, mae=1.0)

    def test_overflowing_metrics_are_a_numeric_error(self):
        # errors of 1e200 square to inf: a numeric failure (exit 4), not an invalid value
        class Huge(Module):
            def predict(self, x):
                return np.full((x.shape[0], 2), 1e200)

        ws = window_set(np.zeros((4, 3)), np.zeros((4, 2)), n_val=1, n_test=2)
        with pytest.raises(NumericError, match="metrics overflowed"):
            evaluate(Huge(), ws.test)

    def test_empty_stream_rejected(self):
        with pytest.raises(ValueError):
            evaluate(LinearStub(4, 2, np.random.default_rng(0)), [])

    def test_repeatable(self):
        ws = learnable_windows()
        model = LinearStub(8, 4, np.random.default_rng(1))
        assert evaluate(model, ws.test) == evaluate(model, ws.test)

    def test_metrics_add_nothing_to_the_prediction(self):
        from spectral_forecaster.training import _raw_metrics

        cfg = ModelConfig(lookback=16, horizon=512, patch_len=4, d_model=8, n_heads=2,
                          total_layers=2, alpha=1, dropout=0.0)
        model = FilterFormer(cfg, np.random.default_rng(0))
        data = np.random.default_rng(1)
        x = data.standard_normal((2048, 16))
        y = data.standard_normal((2048, 512))
        model.predict(x[:8])  # caches the first forward fills stay out of the peaks

        def traced(fn):
            tracemalloc.start()
            try:
                out = fn()
                return out, tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        chunk, chunk_peak = traced(lambda: model.predict(x[:128]))
        working_set = chunk_peak - chunk.nbytes  # one full chunk's
        (mse, mae), peak = traced(lambda: _raw_metrics(model, x, y))
        pred = model.predict(x)
        assert pred.nbytes > working_set  # so a copy of the prediction would show
        # the error, its magnitude and its square all live in the prediction
        assert peak <= 1.1 * pred.nbytes + working_set, (peak, pred.nbytes, working_set)
        err = pred - y
        assert (mse, mae) == (float(np.mean(err * err)), float(np.mean(np.abs(err))))

    def test_metrics_validation(self):
        with pytest.raises(ValueError):
            Metrics(-1.0, 0.0)
        with pytest.raises(ValueError):
            Metrics(math.inf, 0.0)


class TestCsvOutputs:
    """The loss curve and metrics table that ``experiments.run`` writes."""

    @staticmethod
    def run_tiny(out_dir, monkeypatch):
        histories = []

        def recording_fit(*args, **kwargs):
            result = fit(*args, **kwargs)
            histories.append(result.history)
            return result

        monkeypatch.setattr(experiments, "fit", recording_fit)
        report = experiments.run(experiments.tiny_experiment_config(out_dir=str(out_dir)))
        return report, histories

    def test_loss_curve_schema(self, tmp_path, monkeypatch):
        report, (history,) = self.run_tiny(tmp_path, monkeypatch)
        lines = (tmp_path / "tiny_h8_loss.csv").read_text().splitlines()
        assert lines[0] == "epoch,train_mse,val_mse"
        assert lines[1:] == [f"{e},{float(t)!r},{float(v)!r}" for e, t, v in history]
        assert len(history) == report.epochs_run[8]

    def test_metrics_schema(self, tmp_path, monkeypatch):
        report, _ = self.run_tiny(tmp_path, monkeypatch)
        lines = (tmp_path / "tiny_metrics.csv").read_text().splitlines()
        assert lines == ["horizon,mse,mae",
                         *(f"{h},{float(m.mse)!r},{float(m.mae)!r}" for h, m in report.metrics)]

    def test_rewrite_is_byte_identical(self, tmp_path, monkeypatch):
        self.run_tiny(tmp_path / "a", monkeypatch)
        self.run_tiny(tmp_path / "b", monkeypatch)
        for name in ("tiny_h8_loss.csv", "tiny_metrics.csv"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
