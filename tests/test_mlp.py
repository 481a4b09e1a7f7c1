"""Training-core tests: forward/backward oracles, pruning, checkpoints."""

import numpy as np
import pytest

from xbarnet.connectivity import Mask, ShapeError
from xbarnet.datasets import BlobSpec, gen_blobs
from xbarnet.mlp import (
    Layer,
    MlpModel,
    TrainConfig,
    backward_step,
    cross_entropy,
    evaluate,
    forward,
    init_model,
    load_checkpoint,
    magnitude_prune,
    save_checkpoint,
    train_epoch,
)


def hand_rolled_forward(model, x):
    """Straight-line reimplementation: explicit loops, no shared code paths."""
    outputs = []
    for sample in x:
        h = list(sample)
        for depth, layer in enumerate(model.layers):
            w, b = layer.weights, layer.bias
            z = [sum(h[i] * w[i, j] for i in range(w.shape[0])) + b[j] for j in range(w.shape[1])]
            if depth < len(model.layers) - 1:
                h = [max(v, 0.0) for v in z]
            else:
                mx = max(z)
                e = [np.exp(v - mx) for v in z]
                s = sum(e)
                h = [v / s for v in e]
        outputs.append(h)
    return np.array(outputs)


def finite_difference_grads(model, x, y, h=1e-5):
    """Central differences of the mean cross-entropy w.r.t. every parameter."""

    def loss_now():
        _, probs = forward(model, x)
        return cross_entropy(probs, y)

    grads = []
    for layer in model.layers:
        gw = np.zeros_like(layer.weights)
        for i in range(layer.weights.shape[0]):
            for j in range(layer.weights.shape[1]):
                orig = layer.weights[i, j]
                layer.weights[i, j] = orig + h
                up = loss_now()
                layer.weights[i, j] = orig - h
                down = loss_now()
                layer.weights[i, j] = orig
                gw[i, j] = (up - down) / (2 * h)
        gb = np.zeros_like(layer.bias)
        for j in range(layer.bias.shape[0]):
            orig = layer.bias[j]
            layer.bias[j] = orig + h
            up = loss_now()
            layer.bias[j] = orig - h
            down = loss_now()
            layer.bias[j] = orig
            gb[j] = (up - down) / (2 * h)
        grads.append((gw, gb))
    return grads


def analytic_grads(model, x, y):
    """Read gradients off one lr=1 step against a deep copy."""
    import copy

    before = copy.deepcopy(model)
    backward_step(model, x, y, lr=1.0)
    grads = []
    for b, a in zip(before.layers, model.layers):
        grads.append((b.weights - a.weights, b.bias - a.bias))
        a.weights[:] = b.weights
        a.bias[:] = b.bias
    return grads


class TestForward:
    def test_zero_weights_uniform_probs(self):
        model = init_model([4, 3], seed=0)
        model.layers[0].weights[:] = 0
        _, probs = forward(model, np.ones((2, 4)))
        assert np.allclose(probs, 1 / 3)

    def test_identity_layer_argmax_tracks_input(self):
        model = init_model([5, 5], seed=0)
        model.layers[0].weights[:] = np.eye(5)
        model.layers[0].bias[:] = 0
        x = np.abs(np.random.default_rng(0).normal(size=(10, 5))) * 50
        _, probs = forward(model, x)
        assert np.array_equal(probs.argmax(axis=1), x.argmax(axis=1))

    def test_rows_sum_to_one(self):
        model = init_model([6, 4, 3], seed=1)
        _, probs = forward(model, np.random.default_rng(1).normal(size=(8, 6)))
        assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-6)

    def test_matches_hand_rolled_oracle(self):
        model = init_model([4, 2, 3], seed=2)
        x = np.random.default_rng(2).normal(size=(5, 4))
        _, probs = forward(model, x)
        oracle = hand_rolled_forward(model, x)
        assert np.abs(probs - oracle).max() < 1e-10

    def test_shape_mismatch(self):
        model = init_model([4, 3], seed=0)
        with pytest.raises(ShapeError):
            forward(model, np.zeros((2, 5)))


class TestBackward:
    def test_zero_lr_leaves_model_unchanged(self):
        model = init_model([4, 3], seed=3)
        w0 = model.layers[0].weights.copy()
        backward_step(model, np.ones((2, 4)), np.array([0, 1]), lr=0.0)
        assert np.array_equal(model.layers[0].weights, w0)

    def test_masked_entries_stay_zero(self):
        rng = np.random.default_rng(4)
        model = init_model([6, 5, 3], seed=4)
        for layer in model.layers:
            bits = (rng.random(layer.weights.shape) < 0.6).astype(np.uint8)
            layer.mask = Mask(bits)
            layer.weights *= bits
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, size=40)
        for _ in range(100):
            backward_step(model, x, y, lr=0.1)
        for layer in model.layers:
            assert not layer.weights[layer.mask.bits == 0].any()
            # mask conservation: live weights survive masking untouched
            assert np.array_equal(layer.weights * layer.mask.bits, layer.weights)

    def test_gradcheck_6_4_3(self):
        # finite-difference oracle, h=1e-5, rel err <= 1e-4 where |g| > 1e-8
        for seed in range(2):
            rng = np.random.default_rng(100 + seed)
            model = init_model([6, 4, 3], seed=seed)
            x = rng.normal(size=(7, 6))
            y = rng.integers(0, 3, size=7)
            numeric = finite_difference_grads(model, x, y)
            analytic = analytic_grads(model, x, y)
            for (nw, nb), (aw, ab) in zip(numeric, analytic):
                for n, a in ((nw, aw), (nb, ab)):
                    sig = np.abs(a) > 1e-8
                    rel = np.abs(a - n)[sig] / np.abs(a)[sig]
                    assert rel.max() <= 1e-4


class TestEvaluate:
    def test_uniform_model_tiebreak_oracle(self):
        # argmax of uniform rows is class 0; accuracy = fraction of 0-labels
        model = init_model([4, 10], seed=0)
        model.layers[0].weights[:] = 0
        model.layers[0].bias[:] = 0
        y = np.repeat(np.arange(10), 10)
        x = np.ones((100, 4))
        expected = float((y == 0).mean())
        acc, _ = evaluate(model, x, y)
        assert acc == pytest.approx(expected)

    def test_single_correct_sample(self):
        model = init_model([3, 2], seed=5)
        x = np.ones((1, 3))
        _, probs = forward(model, x)
        y = probs.argmax(axis=1)
        acc, _ = evaluate(model, x, y)
        assert acc == 1.0

    def test_empty_dataset_rejected(self):
        model = init_model([3, 2], seed=5)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 3)), np.zeros(0, dtype=int))


class TestTraining:
    def test_loss_decreases_on_blobs(self):
        data = gen_blobs(BlobSpec(n_classes=3, dim=8, n_train=600, n_test=100), seed=1)
        model = init_model([8, 16, 3], seed=1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32, seed=1)
        losses = [train_epoch(model, data.x_train, data.y_train, cfg, epoch=e) for e in range(1, 5)]
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]
        assert losses[3] < losses[2]

    def test_deterministic_training(self):
        data = gen_blobs(BlobSpec(n_classes=3, dim=8, n_train=300, n_test=50), seed=2)
        outs = []
        for _ in range(2):
            model = init_model([8, 8, 3], seed=9)
            cfg = TrainConfig(learning_rate=0.1, batch_size=16, seed=9)
            for e in range(1, 4):
                train_epoch(model, data.x_train, data.y_train, cfg, epoch=e)
            outs.append([layer.weights.copy() for layer in model.layers])
        for a, b in zip(*outs):
            assert np.array_equal(a, b)


class TestMagnitudePrune:
    def test_zero_quality_prunes_nothing(self):
        model = init_model([5, 4], seed=0)
        maps = magnitude_prune(model, 0.0)
        assert maps[0].bits.all()

    def test_threshold_marks_small_weights(self):
        model = init_model([2, 4], seed=0)
        model.layers[0].weights[:] = np.array([[1.0, -1.0, 0.01, -0.02], [1.0, -1.0, 0.03, 0.01]])
        live = model.layers[0].weights[model.layers[0].weights != 0]
        quality = 0.5 / live.std()  # forces threshold exactly 0.5
        maps = magnitude_prune(model, quality)
        expected = (np.abs(model.layers[0].weights) >= 0.5).astype(np.uint8)
        assert np.array_equal(maps[0].bits, expected)

    def test_gaussian_fraction_monte_carlo(self):
        # quality 1.0 on a centered Gaussian layer marks ~P(|Z|<1) = 0.6827
        rng = np.random.default_rng(42)
        model = init_model([100, 100], seed=0)
        model.layers[0].weights[:] = rng.normal(size=(100, 100))
        maps = magnitude_prune(model, 1.0)
        marked = 1.0 - maps[0].bits.mean()
        assert abs(marked - 0.6827) < 0.02


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model([6, 5, 4], seed=11)
        model.layers[0].mask = Mask((model.layers[0].weights > 0).astype(np.uint8))
        model.layers[0].weights *= model.layers[0].mask.bits
        save_checkpoint(tmp_path / "ck", model, seed=11, config={"note": "test"})
        back, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest["topology"] == [6, 5, 4]
        assert manifest["seed"] == 11
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)
            assert np.array_equal(a.mask.bits, b.mask.bits)

    def test_truncated_rejected(self, tmp_path):
        model = init_model([3, 2], seed=0)
        save_checkpoint(tmp_path / "ck", model, seed=0)
        blob = (tmp_path / "ck.bin").read_bytes()
        (tmp_path / "ck.bin").write_bytes(blob[:-4])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(tmp_path / "ck")
