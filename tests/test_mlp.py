"""Training-core tests: forward/backward oracles, pruning, checkpoints."""

import json
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from xbarnet.connectivity import InputFormatError
from xbarnet.datasets import PlantedSpec, gen_planted
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


def as_float64(model):
    """A float64 copy of a model, holding the same values, for checks whose tolerance float32 cannot meet."""
    return MlpModel([Layer(l.weights.astype(np.float64), l.bias.astype(np.float64)) for l in model.layers])


def oracle_forward(model, batch):
    """The step as first written, with a temporary per operation; the lean step must match it bit for bit.

    Like the lean step, it computes in the dtype of the model's weights.
    """
    x = np.asarray(batch, dtype=model.layers[0].weights.dtype)
    activations = [x]
    for depth, layer in enumerate(model.layers):
        z = activations[-1] @ layer.weights + layer.bias
        if depth < len(model.layers) - 1:
            activations.append(np.maximum(z, 0.0))
        else:
            shifted = z - z.max(axis=1, keepdims=True)
            e = np.exp(shifted)
            activations.append(e / e.sum(axis=1, keepdims=True))
    return activations, activations[-1]


def oracle_cross_entropy(probs, labels):
    p = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.clip(p, np.finfo(p.dtype).tiny, None)).mean())


def oracle_backward_step(model, batch, labels, lr):
    labels = np.asarray(labels, dtype=np.int64)
    activations, probs = oracle_forward(model, batch)
    loss = oracle_cross_entropy(probs, labels)
    n = len(labels)
    delta = probs.copy()
    delta[np.arange(n), labels] -= 1.0
    delta /= n
    for depth in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[depth]
        grad_w = activations[depth].T @ delta
        grad_b = delta.sum(axis=0)
        if depth > 0:
            delta = (delta @ layer.weights.T) * (activations[depth] > 0)
        layer.weights -= lr * grad_w * (layer.weights != 0)
        layer.bias -= lr * grad_b
    return loss


def oracle_evaluate(model, x, y, batch):
    correct = 0
    total_loss = 0.0
    for start in range(0, len(x), batch):
        _, probs = oracle_forward(model, x[start : start + batch])
        labels = np.asarray(y[start : start + batch], dtype=np.int64)
        correct += int((probs.argmax(axis=1) == labels).sum())
        total_loss += oracle_cross_entropy(probs, labels) * len(labels)
    return correct / len(x), total_loss / len(x)


def model_bytes(model):
    return [(layer.weights.tobytes(), layer.bias.tobytes()) for layer in model.layers]


def signed_zero_model(topology, seed):
    """A model with a dead hidden unit and a share of its weights at +0.0 and at -0.0."""
    import copy

    rng = np.random.default_rng(seed)
    model = init_model(topology, seed)
    for layer in model.layers:
        cut = rng.random(layer.weights.shape)
        layer.weights[cut < 0.2] = 0.0
        layer.weights[(cut >= 0.2) & (cut < 0.4)] = -0.0
    model.layers[0].weights[:, 0] = 0.0  # hidden unit 0 gets no input ...
    model.layers[0].bias[0] = -1.0  # ... and a negative bias, so the rectifier never lets it through
    return model, copy.deepcopy(model)


def pixel_batch(rng, shape):
    """uint8 intensities with both extremes present, and the float32 array they stand for in a float32 model."""
    x = rng.integers(0, 256, size=shape, dtype=np.uint8)
    x.flat[:2] = 0, 255
    return x, x.astype(np.float32) / np.float32(255)


class TestLeanStepOracle:
    @pytest.mark.parametrize("topology", [[6, 5, 3], [6, 7, 5, 3]], ids=["two_layers", "three_layers"])
    @pytest.mark.parametrize("batch", [1, 9])
    @pytest.mark.parametrize("pixels", [False, True], ids=["float64", "uint8"])
    def test_steps_match_bit_for_bit(self, topology, batch, pixels):
        # a uint8 batch must step exactly as its float32 intensities / 255 do in the oracle
        model, oracle = signed_zero_model(topology, seed=len(topology) + batch)
        rng = np.random.default_rng(batch)
        if pixels:
            x, x_oracle = pixel_batch(rng, (60, topology[0]))
        else:
            x = x_oracle = rng.normal(size=(60, topology[0]))
        y = rng.integers(0, topology[-1], size=60)
        neg_zero_before = sum(int(np.signbit(l.weights[l.weights == 0]).sum()) for l in model.layers)
        for step in range(150):
            idx = rng.choice(60, size=batch, replace=False)
            loss = backward_step(model, x[idx], y[idx], lr=0.3)
            oracle_loss = oracle_backward_step(oracle, x_oracle[idx], y[idx], lr=0.3)
            assert np.float64(loss).tobytes() == np.float64(oracle_loss).tobytes(), step
            assert model_bytes(model) == model_bytes(oracle), step
        # the sign of a zero weight did move, so byte equality covered it
        neg_zero_after = sum(int(np.signbit(l.weights[l.weights == 0]).sum()) for l in model.layers)
        assert neg_zero_after < neg_zero_before
        assert not model.layers[0].weights[:, 0].any()

    @pytest.mark.parametrize("pixels", [False, True], ids=["float64", "uint8"])
    def test_evaluate_matches(self, pixels):
        model, _ = signed_zero_model([6, 7, 4], seed=5)
        rng = np.random.default_rng(5)
        if pixels:
            x, x_oracle = pixel_batch(rng, (50, 6))
        else:
            x = x_oracle = rng.normal(size=(50, 6))
        y = rng.integers(0, 4, size=50)
        for batch in (1, 16, 2048):
            assert evaluate(model, x, y, batch=batch) == oracle_evaluate(model, x_oracle, y, batch)

    @pytest.mark.parametrize("pixels", [False, True], ids=["float64", "uint8"])
    def test_input_batch_is_not_written(self, pixels):
        model, _ = signed_zero_model([6, 5, 3], seed=6)
        rng = np.random.default_rng(6)
        if pixels:
            x, _ = pixel_batch(rng, (8, 6))
        else:
            x = rng.normal(size=(8, 6))
            x[0, :] = -0.0
        y = rng.integers(0, 3, size=8)
        before = x.dtype, x.tobytes()
        forward(model, x)
        backward_step(model, x, y, lr=0.5)
        train_epoch(model, x, y, TrainConfig(batch_size=3), epoch=1, seed=0)
        evaluate(model, x, y, batch=4)
        assert (x.dtype, x.tobytes()) == before


class TestPixelInput:
    """A uint8 pixel set gives the same bytes as its float32 intensities ``x / 255``."""

    def data(self, seed):
        rng = np.random.default_rng(seed)
        x, x_float = pixel_batch(rng, (70, 12))
        return x, x_float, rng.integers(0, 4, size=70)

    def test_forward_reads_intensities(self):
        x, x_float, _ = self.data(0)
        model, _ = signed_zero_model([12, 9, 4], seed=1)
        acts, probs = forward(model, x)
        want_acts, want_probs = forward(model, x_float)
        assert acts[0].dtype == np.float32 and acts[0].min() == 0.0 and acts[0].max() == 1.0
        assert [a.tobytes() for a in acts] == [a.tobytes() for a in want_acts]
        assert probs.tobytes() == want_probs.tobytes()

    def test_training_matches_over_epochs(self):
        x, x_float, y = self.data(2)
        cfg = TrainConfig(learning_rate=0.2, batch_size=8)
        model, reference = signed_zero_model([12, 9, 4], seed=3)
        for epoch in range(1, 5):
            loss = train_epoch(model, x, y, cfg, epoch=epoch, seed=4)
            want = train_epoch(reference, x_float, y, cfg, epoch=epoch, seed=4)
            assert np.float64(loss).tobytes() == np.float64(want).tobytes(), epoch
            assert model_bytes(model) == model_bytes(reference), epoch
        assert evaluate(model, x, y) == evaluate(reference, x_float, y)


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
        model = as_float64(init_model([4, 2, 3], seed=2))
        x = np.random.default_rng(2).normal(size=(5, 4))
        _, probs = forward(model, x)
        oracle = hand_rolled_forward(model, x)
        assert np.abs(probs - oracle).max() < 1e-10

    @pytest.mark.parametrize("batch_dtype", [np.uint8, np.float64, np.float32])
    def test_float32_model_gives_float32_activations(self, batch_dtype):
        model = init_model([6, 5, 3], seed=0)
        x = np.random.default_rng(0).integers(0, 256, size=(4, 6)).astype(batch_dtype)
        acts, probs = forward(model, x)
        assert [a.dtype for a in acts] == [np.float32] * 3 and probs.dtype == np.float32

    def test_shape_mismatch(self):
        model = init_model([4, 3], seed=0)
        with pytest.raises(ValueError, match=re.escape("batch width (2, 5) does not match first-layer fan-in 4")):
            forward(model, np.zeros((2, 5)))

    @pytest.mark.parametrize(
        "shape, fan_out, message",
        [((6,), 2, "degenerate weights shape"), ((0, 2), 2, "degenerate weights shape"),
         ((3, 2), 3, "bias length must equal the layer fan-out")],
        ids=["one_d", "empty", "bias_length"],
    )
    def test_degenerate_layer_rejected(self, shape, fan_out, message):
        with pytest.raises(ValueError, match=message):
            Layer(np.zeros(shape), np.zeros(fan_out))

    @pytest.mark.parametrize("topology", [[5], [4, 0]], ids=["one_width", "zero_width"])
    def test_degenerate_topology_rejected(self, topology):
        with pytest.raises(ValueError, match="topology needs >=2 positive widths"):
            init_model(topology, seed=0)


class TestBackward:
    def test_zero_lr_leaves_model_unchanged(self):
        model = init_model([4, 3], seed=3)
        w0 = model.layers[0].weights.copy()
        backward_step(model, np.ones((2, 4)), np.array([0, 1]), lr=0.0)
        assert np.array_equal(model.layers[0].weights, w0)

    def test_zeroed_weights_stay_zero(self):
        rng = np.random.default_rng(4)
        model = init_model([6, 5, 3], seed=4)
        kept = []
        for layer in model.layers:
            kept.append(rng.random(layer.weights.shape) < 0.6)
            layer.weights *= kept[-1]
        x = rng.normal(size=(40, 6))
        y = rng.integers(0, 3, size=40)
        for _ in range(100):
            backward_step(model, x, y, lr=0.1)
        for layer, keep in zip(model.layers, kept):
            assert not layer.weights[~keep].any()
            # the kept weights still train and none lands on exactly zero
            assert np.array_equal(layer.weights != 0, keep)

    def test_gradcheck_6_4_3(self):
        # finite-difference oracle, h=1e-5, rel err <= 1e-4 where |g| > 1e-8
        for seed in range(2):
            rng = np.random.default_rng(100 + seed)
            model = as_float64(init_model([6, 4, 3], seed=seed))
            x = rng.normal(size=(7, 6))
            y = rng.integers(0, 3, size=7)
            numeric = finite_difference_grads(model, x, y)
            analytic = analytic_grads(model, x, y)
            for (nw, nb), (aw, ab) in zip(numeric, analytic):
                for n, a in ((nw, aw), (nb, ab)):
                    sig = np.abs(a) > 1e-8
                    rel = np.abs(a - n)[sig] / np.abs(a)[sig]
                    assert rel.max() <= 1e-4


class TestCrossEntropy:
    def test_a_zero_true_class_probability_gives_a_finite_loss(self):
        # 1e-300 underflows to 0 in float32, so the clamp is the dtype's smallest normal number
        probs = np.array([[0.0, 1.0], [0.5, 0.5]], dtype=np.float32)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            loss = cross_entropy(probs, np.array([0, 1]))
        tiny = np.finfo(np.float32).tiny
        assert loss == pytest.approx(-(np.log(tiny) + np.log(0.5)) / 2, rel=1e-6)


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
    def test_loss_decreases_on_planted_data(self):
        data, _, _ = gen_planted(PlantedSpec(in_dim=8, hidden=8, n_classes=3, block=4, n_train=600, n_test=100), 1)
        model = init_model([8, 16, 3], seed=1)
        cfg = TrainConfig(learning_rate=0.1, batch_size=32)
        losses = [train_epoch(model, data.x_train, data.y_train, cfg, epoch=e, seed=1) for e in range(1, 5)]
        assert losses[1] < losses[0]
        assert losses[2] < losses[1]
        assert losses[3] < losses[2]

    def test_empty_dataset_rejected(self):
        model = init_model([3, 2], seed=0)
        with pytest.raises(ValueError, match="dataset must be non-empty"):
            train_epoch(model, np.zeros((0, 3)), np.zeros(0, dtype=int), TrainConfig(), epoch=1, seed=0)

    @pytest.mark.parametrize("n_labels", [9, 11], ids=["fewer_labels", "more_labels"])
    @pytest.mark.parametrize("fn", ["train_epoch", "evaluate"])
    def test_length_mismatch_rejected(self, n_labels, fn):
        model = init_model([3, 2], seed=0)
        x, y = np.ones((10, 3)), np.zeros(n_labels, dtype=int)
        with pytest.raises(ValueError, match="10 samples but"):
            if fn == "train_epoch":
                train_epoch(model, x, y, TrainConfig(batch_size=4), epoch=1, seed=0)
            else:
                evaluate(model, x, y)

    def test_deterministic_training(self):
        data, _, _ = gen_planted(PlantedSpec(in_dim=8, hidden=8, n_classes=3, block=4, n_train=300, n_test=50), 2)
        outs = []
        for _ in range(2):
            model = init_model([8, 8, 3], seed=9)
            cfg = TrainConfig(learning_rate=0.1, batch_size=16)
            for e in range(1, 4):
                train_epoch(model, data.x_train, data.y_train, cfg, epoch=e, seed=9)
            outs.append([layer.weights.copy() for layer in model.layers])
        for a, b in zip(*outs):
            assert np.array_equal(a, b)


class TestMagnitudePrune:
    def test_zero_quality_prunes_nothing(self):
        model = init_model([5, 4], seed=0)
        before = model.layers[0].weights.tobytes()
        assert magnitude_prune(model, 0.0) == 0
        assert model.layers[0].weights.tobytes() == before

    @pytest.mark.parametrize("quality, spread", [(0.0, True), (0.7, False)], ids=["quality_0", "zero_spread"])
    def test_dead_synapses_are_never_revived(self, quality, spread):
        # either way the threshold is 0, so no live weight lies below it and no dead cell changes
        model = init_model([4, 3], seed=0)
        w = model.layers[0].weights
        if not spread:
            w[:] = 0.5
        w[1, :] = 0.0
        w[2, 0] = -0.0
        before = w.tobytes()
        assert magnitude_prune(model, quality) == 0
        assert w.tobytes() == before

    def test_threshold_zeroes_small_weights(self):
        model = init_model([2, 4], seed=0)
        model.layers[0].weights[:] = np.array([[1.0, -1.0, 0.01, -0.02], [1.0, -1.0, 0.03, 0.01]])
        live = model.layers[0].weights[model.layers[0].weights != 0]
        quality = 0.5 / live.std()  # forces threshold exactly 0.5
        expected = np.where(np.abs(model.layers[0].weights) >= 0.5, model.layers[0].weights, 0.0)
        assert magnitude_prune(model, quality) == 4
        assert np.array_equal(model.layers[0].weights, expected)

    def test_gaussian_fraction_monte_carlo(self):
        # quality 1.0 on a centered Gaussian layer zeroes ~P(|Z|<1) = 0.6827
        rng = np.random.default_rng(42)
        model = init_model([100, 100], seed=0)
        model.layers[0].weights[:] = rng.normal(size=(100, 100))
        zeroed = magnitude_prune(model, 1.0)
        assert abs(zeroed / 10_000 - 0.6827) < 0.02
        assert zeroed == int((model.layers[0].weights == 0).sum())

    def test_protected_cells_survive_and_cut_negatives_keep_their_sign(self):
        model = init_model([6, 5, 3], seed=1)
        w0, w1 = (layer.weights for layer in model.layers)
        w0[0, :] = [-0.001, 0.001, -0.002, 0.002, 0.9]  # the first four lie below any threshold here
        w1[:] = 0.7
        w1[0, 0] = -1e-4
        protect = [np.zeros(w0.shape, dtype=bool), np.zeros(w1.shape, dtype=bool)]
        protect[0][0, 0] = protect[0][0, 3] = True
        before = [w0.copy(), w1.copy()]
        live_before = model.n_live()
        zeroed = magnitude_prune(model, 0.5, protect)
        assert zeroed == live_before - model.n_live() > 2
        # protected cells keep their exact value, below the threshold or not
        assert w0[0, 0] == np.float32(-0.001) and w0[0, 3] == np.float32(0.002)
        # cut negatives become -0.0, cut positives +0.0
        assert w0[0, 2] == 0 and np.signbit(w0[0, 2])
        assert w0[0, 1] == 0 and not np.signbit(w0[0, 1])
        assert w1[0, 0] == 0 and np.signbit(w1[0, 0])
        for w, b in zip((w0, w1), before):
            # every cell either kept its bytes or was multiplied by zero
            kept = w.view(np.uint32) == b.view(np.uint32)
            assert np.array_equal(w[~kept], (b * 0)[~kept]) and (np.signbit(w) == np.signbit(b)).all()

    @pytest.mark.parametrize(
        "huge", [[1e20] * 8, [3e38] * 4 + [-3e38] * 4], ids=["squares_overflow", "sum_is_inf_minus_inf"]
    )
    def test_huge_float32_weights_keep_a_finite_threshold(self, huge):
        # a float32 sum of squares overflows past about 1.8e19, and a sum of huge weights of both
        # signs can reach inf - inf; an inf or NaN threshold cut every synapse or none, with a warning
        model = init_model([3, 4], seed=0)
        w = model.layers[0].weights
        w[:] = np.array(huge + [1e-3] * 4, dtype=np.float32).reshape(3, 4)
        assert magnitude_prune(model, 0.5) == 4
        assert np.array_equal(w.ravel()[:8], np.array(huge, dtype=np.float32)) and not w.ravel()[8:].any()

    def test_negative_quality_rejected(self):
        with pytest.raises(ValueError, match="prune_quality must be non-negative"):
            magnitude_prune(init_model([4, 3], seed=0), -1.0)

    @pytest.mark.parametrize("quality", [3.5e38, 1e308], ids=["3.5e38", "1e308"])
    def test_quality_past_float32_cuts_every_unprotected_weight_without_a_warning(self, quality):
        model = init_model([6, 5, 3], seed=1)
        protect = [np.zeros(layer.weights.shape, dtype=bool) for layer in model.layers]
        protect[0][0, 0] = True
        kept = model.layers[0].weights[0, 0]
        live_before = model.n_live()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert magnitude_prune(model, quality, protect) == live_before - 1
        assert model.n_live() == 1 and model.layers[0].weights[0, 0] == kept

    def test_diverged_weights_are_not_counted(self):
        # NaN is never below the threshold: nothing is zeroed and nothing is counted
        model = init_model([4, 3], seed=0)
        model.layers[0].weights[:] = np.nan
        assert magnitude_prune(model, 0.7) == 0
        assert np.isnan(model.layers[0].weights).all()


def write_manifest(path, **changes):
    """Overwrite keys of the checkpoint manifest at ``path``.json."""
    manifest = json.loads(path.with_suffix(".json").read_text())
    path.with_suffix(".json").write_text(json.dumps({**manifest, **changes}))


@st.composite
def float32_models(draw):
    """Small models whose every float32 value, signed zeros, subnormals, infinities and NaNs included, is drawn."""
    topology = draw(st.lists(st.integers(1, 5), min_size=2, max_size=4))
    values = st.floats(width=32, allow_subnormal=True)
    return MlpModel([
        Layer(weights=draw(arrays(np.float32, (fan_in, fan_out), elements=values)),
              bias=draw(arrays(np.float32, fan_out, elements=values)))
        for fan_in, fan_out in zip(topology[:-1], topology[1:])
    ])


class TestCheckpoint:
    def test_round_trip(self, tmp_path):
        model = init_model([6, 5, 4], seed=11)
        model.layers[0].weights *= model.layers[0].weights > 0
        save_checkpoint(tmp_path / "ck", model, seed=11, config={"note": "test"})
        back, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest == {"format": "xbarnet-checkpoint-v3", "topology": [6, 5, 4], "seed": 11,
                            "config": {"note": "test"}}
        assert (tmp_path / "ck.bin").stat().st_size == 4 * (6 * 5 + 5 + 5 * 4 + 4)
        for a, b in zip(model.layers, back.layers):
            assert np.array_equal(a.weights, b.weights)
            assert np.array_equal(a.bias, b.bias)

    def test_a_trained_float32_model_reads_back_bit_for_bit(self, tmp_path):
        model, _ = signed_zero_model([6, 5, 4], seed=12)
        rng = np.random.default_rng(12)
        train_epoch(model, rng.normal(size=(20, 6)), rng.integers(0, 4, size=20), TrainConfig(batch_size=5), 1, 12)
        zeros = np.concatenate([l.weights[l.weights == 0] for l in model.layers])
        assert np.signbit(zeros).any() and not np.signbit(zeros).all()  # +0.0 and -0.0 cells both survive
        save_checkpoint(tmp_path / "ck", model, seed=12)
        back, _ = load_checkpoint(tmp_path / "ck")
        for a, b in zip(model.layers, back.layers):
            assert a.weights.dtype == a.bias.dtype == b.weights.dtype == b.bias.dtype == np.float32
            assert b.weights.tobytes() == a.weights.tobytes()
            assert b.bias.tobytes() == a.bias.tobytes()

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(model=float32_models())
    def test_any_float32_model_reads_back_bit_for_bit(self, tmp_path, model):
        save_checkpoint(tmp_path / "ck", model, seed=0)
        back, manifest = load_checkpoint(tmp_path / "ck")
        assert manifest["topology"] == model.topology
        assert model_bytes(back) == model_bytes(model)
        assert all(block.dtype == np.float32 for layer in back.layers for block in (layer.weights, layer.bias))

    def test_float64_model_refused(self, tmp_path):
        model = init_model([3, 2], seed=0)
        model.layers[0].bias = model.layers[0].bias.astype(np.float64)
        with pytest.raises(TypeError, match="float32"):
            save_checkpoint(tmp_path / "ck", model, seed=0)
        assert list(tmp_path.iterdir()) == []

    def test_truncated_rejected(self, tmp_path):
        model = init_model([3, 2], seed=0)
        save_checkpoint(tmp_path / "ck", model, seed=0)
        blob = (tmp_path / "ck.bin").read_bytes()
        (tmp_path / "ck.bin").write_bytes(blob[:-4])
        with pytest.raises(InputFormatError, match=".bin holds 28 bytes where the topology needs 32"):
            load_checkpoint(tmp_path / "ck")

    def test_appended_bytes_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck", init_model([3, 2], seed=0), seed=0)
        with open(tmp_path / "ck.bin", "ab") as fh:
            fh.write(b"\0")
        with pytest.raises(InputFormatError, match=".bin holds 33 bytes where the topology needs 32"):
            load_checkpoint(tmp_path / "ck")

    @pytest.mark.parametrize(
        "topology",
        [[3, True], [3, 0], [3, -1], [3, 1.5], [3, "4"], [3, [4]], [3], {"0": 3, "1": 2}, True],
        ids=["bool", "zero", "negative", "float", "string", "nested_list", "single_width", "object", "bare_bool"],
    )
    def test_malformed_topology_rejected(self, tmp_path, topology):
        save_checkpoint(tmp_path / "ck", init_model([3, 2], seed=0), seed=0)
        write_manifest(tmp_path / "ck", topology=topology)
        with pytest.raises(InputFormatError, match="topology must be a list of at least two positive integers"):
            load_checkpoint(tmp_path / "ck")

    def test_manifest_not_utf8_rejected(self, tmp_path):
        save_checkpoint(tmp_path / "ck", init_model([3, 2], seed=0), seed=0)
        manifest = (tmp_path / "ck.json").read_bytes()
        (tmp_path / "ck.json").write_bytes(manifest.replace(b'"config": {}', b'"config": {"note": "\xe9"}'))
        with pytest.raises(InputFormatError, match="codec can't decode byte 0xe9"):
            load_checkpoint(tmp_path / "ck")

    def test_huge_topology_rejected_without_allocating_it(self, tmp_path):
        # [2**31, 2**29] claims 2**60 weights, about 2**62 bytes, over a 4-byte .bin: the size check
        # must reject it from the file's size alone, allocating nothing of what it claims
        save_checkpoint(tmp_path / "ck", init_model([1, 1], seed=0), seed=0)
        (tmp_path / "ck.bin").write_bytes(b"\0" * 4)
        write_manifest(tmp_path / "ck", topology=[2**31, 2**29])
        tracemalloc.start()
        try:
            need = 4 * (2**60 + 2**29)
            with pytest.raises(InputFormatError, match=f".bin holds 4 bytes where the topology needs {need}"):
                load_checkpoint(tmp_path / "ck")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
