"""Network core: shapes, hand-checked values, gradient oracles, Adam trace."""
from __future__ import annotations

import json

import numpy as np
import pytest

from ptg.checks import central_difference, max_relative_error
from ptg.nets import (
    AdamState,
    NetworkSpec,
    TrainingDiverged,
    WeightSet,
    adam_step,
    backward,
    cross_entropy,
    forward,
    init_weights,
    softmax,
)
from ptg.variational import load_model, save_model


def small_net(seed=0, dims=(3, 4, 2)):
    spec = NetworkSpec(dims)
    return spec, init_weights(spec, np.random.default_rng(seed))


class TestSpecAndWeights:
    def test_param_count(self):
        # 3*4 + 4 + 4*2 + 2 = 26
        assert NetworkSpec((3, 4, 2)).param_count == 26

    def test_rejects_short_spec(self):
        with pytest.raises(ValueError):
            NetworkSpec((5,))

    def test_rejects_zero_width(self):
        with pytest.raises(ValueError):
            NetworkSpec((3, 0, 2))

    @pytest.mark.parametrize("bad", [2.5, True, 2.0])
    def test_rejects_a_dim_that_is_not_an_integer(self, bad):
        with pytest.raises(TypeError, match=f"layer dim {bad!r} must be an integer"):
            NetworkSpec((2, bad))

    def test_numpy_integer_dims_are_plain_ints(self):
        spec = NetworkSpec((np.int64(3), np.int32(2)))
        assert spec.layer_dims == (3, 2) and all(type(d) is int for d in spec.layer_dims)
        assert spec == NetworkSpec((3, 2))

    def test_checkpoint_with_a_fractional_dim_is_refused(self, tmp_path):
        spec, ws = small_net(dims=(3, 2))
        path = tmp_path / "w.json"
        save_model(path, ws)
        payload = json.loads(path.read_text())
        payload["dims"] = [3, 2.7]  # used to load as a 3 -> 2 net
        path.write_text(json.dumps(payload))
        with pytest.raises(ValueError, match="w.json: layer dim 2.7 must be an integer"):
            load_model(path)

    def test_flatten_roundtrip(self):
        spec, ws = small_net()
        again = WeightSet.from_flat(spec, ws.flatten())
        for a, b in zip(again.weights, ws.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(again.biases, ws.biases):
            np.testing.assert_array_equal(a, b)

    def test_flatten_order_is_layerwise(self):
        spec = NetworkSpec((2, 2))
        ws = WeightSet(spec, [np.array([[1.0, 2.0], [3.0, 4.0]])], [np.array([5.0, 6.0])])
        np.testing.assert_array_equal(ws.flatten(), [1, 2, 3, 4, 5, 6])

    def test_from_flat_rejects_bad_length(self):
        spec = NetworkSpec((2, 2))
        with pytest.raises(ValueError):
            WeightSet.from_flat(spec, np.zeros(spec.param_count + 1))

    def test_rejects_nonfinite(self):
        spec = NetworkSpec((2, 2))
        with pytest.raises(ValueError):
            WeightSet(spec, [np.full((2, 2), np.nan)], [np.zeros(2)])

    @pytest.mark.parametrize("weights, biases", [
        ([np.zeros((2, 3))], [np.zeros(3)]),                   # W of the wrong shape
        ([np.zeros((2, 2))], [np.zeros(3)]),                   # b of the wrong shape
        ([np.zeros((2, 2))], []),                              # a layer without b
        ([np.zeros((2, 2)), np.zeros((2, 2))], [np.zeros(2)]),  # one W too many
    ])
    def test_rejects_layers_that_do_not_match_the_spec(self, weights, biases):
        with pytest.raises(ValueError, match="do not match the spec's"):
            WeightSet(NetworkSpec((2, 2)), weights, biases)

    def test_glorot_bounds_and_determinism(self):
        spec = NetworkSpec((30, 20))
        ws1 = init_weights(spec, np.random.default_rng(7))
        ws2 = init_weights(spec, np.random.default_rng(7))
        np.testing.assert_array_equal(ws1.weights[0], ws2.weights[0])
        limit = np.sqrt(6.0 / 50.0)
        assert np.abs(ws1.weights[0]).max() <= limit
        np.testing.assert_array_equal(ws1.biases[0], np.zeros(20))

    def test_checkpoint_roundtrip_bitwise(self, tmp_path):
        _, ws = small_net(3)
        path = tmp_path / "weights.json"
        save_model(path, ws)
        back = load_model(path)
        assert type(back) is WeightSet and back.spec == ws.spec
        np.testing.assert_array_equal(back.flat.view(np.uint64), ws.flat.view(np.uint64))


class TestForward:
    def test_single_linear_layer_by_hand(self):
        spec = NetworkSpec((2, 2))
        ws = WeightSet(spec, [np.array([[1.0, 0.0], [0.0, 1.0]])], [np.array([1.0, -1.0])])
        out, _ = forward(ws, np.array([[2.0, 3.0]]))
        np.testing.assert_array_equal(out, [[3.0, 2.0]])

    def test_hidden_relu_clamps(self):
        spec = NetworkSpec((1, 1, 1))
        ws = WeightSet(
            spec,
            [np.array([[1.0]]), np.array([[1.0]])],
            [np.array([0.0]), np.array([0.0])],
        )
        out_neg, _ = forward(ws, np.array([[-5.0]]))
        out_pos, _ = forward(ws, np.array([[5.0]]))
        assert out_neg[0, 0] == 0.0
        assert out_pos[0, 0] == 5.0

    def test_deterministic(self):
        spec, ws = small_net(1)
        x = np.random.default_rng(2).standard_normal((8, 3))
        a, _ = forward(ws, x)
        b, _ = forward(ws, x)
        np.testing.assert_array_equal(a, b)

    def test_rejects_wrong_width(self):
        spec, ws = small_net()
        with pytest.raises(ValueError):
            forward(ws, np.zeros((4, 5)))


class TestCrossEntropy:
    def test_uniform_logits_binary(self):
        loss, _ = cross_entropy(np.array([[0.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(np.log(2.0), rel=1e-12)

    def test_three_way_hand_value(self):
        # -log softmax([1,2,3])[2] = log(1 + e^-1 + e^-2)
        loss, _ = cross_entropy(np.array([[1.0, 2.0, 3.0]]), np.array([2]))
        assert loss == pytest.approx(0.40760596444438079, abs=1e-12)

    def test_extreme_logits_finite(self):
        loss, grad = cross_entropy(np.array([[1000.0, -1000.0]]), np.array([1]))
        assert np.isfinite(loss) and loss == pytest.approx(2000.0)
        assert np.isfinite(grad).all()

    def test_gradient_matches_probs_minus_onehot(self):
        logits = np.array([[0.3, -1.2, 0.5], [2.0, 0.1, -0.4]])
        labels = np.array([2, 0])
        _, grad = cross_entropy(logits, labels)
        probs = softmax(logits)
        onehot = np.zeros_like(probs)
        onehot[np.arange(2), labels] = 1.0
        np.testing.assert_allclose(grad, (probs - onehot) / 2.0, atol=1e-15)

    def test_rejects_out_of_range_label(self):
        with pytest.raises(ValueError):
            cross_entropy(np.zeros((1, 2)), np.array([2]))

    @pytest.mark.parametrize("labels", [np.array([0]), np.array([0, 1, 0]), np.array([[0], [1]])])
    def test_rejects_a_label_count_that_is_not_one_per_row(self, labels):
        with pytest.raises(ValueError, match="expected 2 labels"):
            cross_entropy(np.zeros((2, 2)), labels)

    def test_softmax_rows_normalized(self):
        logits = np.random.default_rng(0).standard_normal((50, 4)) * 30
        np.testing.assert_allclose(softmax(logits).sum(axis=1), 1.0, atol=1e-12)


class TestBackward:
    def test_matches_finite_differences(self):
        # independent oracle: central differences through the full loss;
        # instances on a ReLU kink (where the loss is not differentiable)
        # are redrawn
        rng = np.random.default_rng(11)
        done = 0
        while done < 5:
            spec = NetworkSpec((3, 5, 4, 2))
            ws = init_weights(spec, rng)
            x = rng.standard_normal((6, 3))
            y = rng.integers(0, 2, size=6)
            _, tape_probe = forward(ws, x)
            if min(np.abs(z).min() for z in tape_probe.preacts[:-1]) < 1e-3:
                continue
            done += 1

            def loss_of(flats):  # one loss per row, from one stacked forward pass
                out, _ = forward(WeightSet.wrap(spec, flats), x)
                return cross_entropy(out, y)[0]

            out, tape = forward(ws, x)
            _, d_logits = cross_entropy(out, y)
            grad, _ = backward(tape, d_logits)
            assert isinstance(grad, np.ndarray) and grad.shape == (spec.param_count,)
            fd = central_difference(loss_of, ws.flatten())
            assert max_relative_error(fd, grad) < 1e-6

    def test_input_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        spec = NetworkSpec((3, 4, 2))
        ws = init_weights(spec, rng)
        x = rng.standard_normal((4, 3))
        y = rng.integers(0, 2, size=4)

        def loss_of(flat_xs):  # one loss per row, from one stacked input batch
            out, _ = forward(ws, flat_xs.reshape(-1, 4, 3))
            return cross_entropy(out, y)[0]

        out, tape = forward(ws, x)
        _, d_logits = cross_entropy(out, y)
        _, dz0 = backward(tape, d_logits)
        d_x = dz0 @ ws.weights[0].T
        fd = central_difference(loss_of, x.ravel())
        assert max_relative_error(fd, d_x.ravel()) < 1e-6

    def test_rejects_mismatched_tape(self):
        spec, ws = small_net()
        x = np.zeros((2, 3))
        _, tape = forward(ws, x)
        with pytest.raises(ValueError):
            backward(tape, np.zeros((3, 2)))  # wrong batch size


class TestAdam:
    def test_scripted_scalar_trace(self):
        # independent scalar implementation, two steps with g=1 then g=-2
        lr, b1, b2, eps = 0.1, 0.9, 0.999, 1e-8
        w, m, v = 1.0, 0.0, 0.0
        trace = []
        for t, g in [(1, 1.0), (2, -2.0)]:
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            w = w - lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            trace.append(w)

        state = AdamState.zeros(1)
        flat = np.array([1.0])
        flat, state = adam_step(flat, np.array([1.0]), state, lr)
        assert flat[0] == pytest.approx(trace[0], abs=1e-15)
        flat, state = adam_step(flat, np.array([-2.0]), state, lr)
        assert flat[0] == pytest.approx(trace[1], abs=1e-15)
        assert state.t == 2

    def test_zero_lr_is_bitwise_identity(self):
        rng = np.random.default_rng(5)
        flat = rng.standard_normal(40)
        before = flat.copy()  # adam_step updates flat in place
        state = AdamState.zeros(40)
        out, new_state = adam_step(flat, rng.standard_normal(40), state, 0.0)
        assert out.tobytes() == before.tobytes()
        assert new_state.t == 1  # the accumulators still advance

    def test_descends_quadratic(self):
        flat = np.array([3.0])
        state = AdamState.zeros(1)
        for _ in range(2000):
            flat, state = adam_step(flat, 2.0 * flat, state, 1e-2)
        assert abs(flat[0]) < 1e-3

    def test_nonfinite_gradient_raises(self):
        state = AdamState.zeros(2)
        with pytest.raises(TrainingDiverged):
            adam_step(np.zeros(2), np.array([np.nan, 0.0]), state, 1e-3)
