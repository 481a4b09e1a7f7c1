"""Minimal MLP training core: forward, backward, SGD on live weights, in-place pruning.

Layers are dense (fan_in x fan_out) matrices; hidden layers use the
rectifier, the output layer a softmax over classes. A trained network is
float32 throughout: the crossbars it maps onto hold a few bits per synapse,
so float64 would buy nothing the mapped network can use, and float32 halves
the bytes each SGD step moves. ``forward`` and ``backward_step`` compute in
the weights' dtype, so a float64 model (the planted teacher) still
computes in float64. A synapse exists exactly when its weight is non-zero:
the live weights are the only prune record, and ``magnitude_prune`` writes it
by zeroing weights in place.
Updates apply only to non-zero weights, so a zeroed synapse stays at exactly
zero, and weight support never grows during training: pruning and cluster
removal are the only operations that change which synapses exist.

Inputs are float features (float32 from ``gen_planted``), which ``forward``
reads in the weights' dtype, or uint8 pixel intensities that it scales to
[0, 1] one batch at a time, so a pixel set is never held as floats.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .connectivity import InputFormatError
from .util import STREAM_INIT, STREAM_SHUFFLE, rng_for


@dataclass
class Layer:
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise ValueError(f"degenerate weights shape {self.weights.shape}; need a non-empty 2-d matrix")
        if self.bias.shape != (self.weights.shape[1],):
            raise ValueError("bias length must equal the layer fan-out")


@dataclass
class MlpModel:
    """Stack of dense layers; rectifier hidden units, softmax output."""

    layers: list[Layer]

    @property
    def topology(self) -> list[int]:
        dims = [self.layers[0].weights.shape[0]]
        dims.extend(layer.weights.shape[1] for layer in self.layers)
        return dims

    def n_weights(self) -> int:
        return sum(layer.weights.size for layer in self.layers)

    def n_live(self) -> int:
        return sum(int(np.count_nonzero(layer.weights)) for layer in self.layers)

    def sparsity(self) -> float:
        return 1.0 - self.n_live() / self.n_weights()


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.1
    batch_size: int = 64
    prune_quality: float = 0.7

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.prune_quality < 0:
            raise ValueError("prune_quality must be non-negative")


def init_model(topology: list[int], seed: int) -> MlpModel:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)), zero biases, all float32.

    The weights are drawn in float64 and rounded to float32, so a seed draws
    the same stream of values that a float64 model would hold.
    """
    if len(topology) < 2 or min(topology) < 1:
        raise ValueError(f"topology needs >=2 positive widths, got {topology}")
    rng = rng_for(seed, STREAM_INIT)
    layers = []
    for fan_in, fan_out in zip(topology[:-1], topology[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out)).astype(np.float32)
        layers.append(Layer(weights=w, bias=np.zeros(fan_out, dtype=np.float32)))
    return MlpModel(layers)


def forward(model: MlpModel, batch: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-layer activations plus output probabilities (rows sum to 1).

    Every activation has the dtype of the model's weights. A uint8 batch
    holds pixel intensities and is read as ``batch / 255``, a division in
    that dtype, so each value lies in [0, 1]; any other batch is cast to it,
    without a copy when it has that dtype already, as the float32 features
    of ``gen_planted`` have for a float32 student. Each layer's
    pre-activation is a fresh array that the rectifier or the softmax then
    overwrites in place; the input batch is never written.
    """
    dtype = model.layers[0].weights.dtype
    x = np.asarray(batch)
    x = np.divide(x, 255, dtype=dtype) if x.dtype == np.uint8 else np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != model.layers[0].weights.shape[0]:
        raise ValueError(
            f"batch width {x.shape} does not match first-layer fan-in "
            f"{model.layers[0].weights.shape[0]}"
        )
    activations = [x]
    last = len(model.layers) - 1
    for depth, layer in enumerate(model.layers):
        z = activations[-1] @ layer.weights
        z += layer.bias
        if depth < last:
            np.maximum(z, 0.0, out=z)
        else:
            z -= z.max(axis=1, keepdims=True)
            np.exp(z, out=z)
            z /= z.sum(axis=1, keepdims=True)
        activations.append(z)
    return activations, activations[-1]


def _mean_nll(p: np.ndarray) -> float:
    """Mean of -log(p) over the true-class probabilities ``p``; overwrites ``p``.

    ``p`` is clamped to the smallest normal number of its dtype, so a
    probability that underflowed to 0 gives a finite loss.
    """
    np.maximum(p, np.finfo(p.dtype).tiny, out=p)
    np.log(p, out=p)
    return float(-np.add.reduce(p) / len(p))


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    return _mean_nll(probs[np.arange(len(labels)), labels])


def backward_step(model: MlpModel, batch: np.ndarray, labels: np.ndarray, lr: float) -> float:
    """One SGD step on the cross-entropy loss, in place; returns the mean loss.

    The step computes in the weights' dtype (float32 for a model from
    ``init_model``), like ``forward``; the loss is returned as a Python float.
    Gradients flow everywhere but the update touches only non-zero weights,
    so zeroed synapses remain exactly zero. The update multiplies by the
    live mask rather than skipping dead cells, so a -0.0 weight may come out
    as +0.0; the checkpoint stores that sign bit.
    """
    labels = np.asarray(labels, dtype=np.int64)
    activations, probs = forward(model, batch)
    n = len(labels)
    rows = np.arange(n)
    loss = _mean_nll(probs[rows, labels])
    delta = probs  # forward's own output; the backward pass reads only the earlier activations
    delta[rows, labels] -= 1.0
    delta /= n
    for depth in range(len(model.layers) - 1, -1, -1):
        layer = model.layers[depth]
        grad_w = activations[depth].T @ delta
        grad_b = np.add.reduce(delta, axis=0)
        if depth > 0:
            delta = delta @ layer.weights.T
            delta *= activations[depth] > 0
        grad_w *= lr
        grad_w *= layer.weights != 0
        layer.weights -= grad_w
        grad_b *= lr
        layer.bias -= grad_b
    return loss


def _check_dataset(x: np.ndarray, y: np.ndarray) -> None:
    if len(x) == 0:
        raise ValueError("dataset must be non-empty")
    if len(x) != len(y):
        raise ValueError(f"dataset has {len(x)} samples but {len(y)} labels")


def train_epoch(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    epoch: int,
    seed: int,
) -> float:
    """One pass over the data in shuffled minibatches; mean epoch loss.

    The order is drawn from the run's ``seed`` and the 1-based ``epoch``, so
    each epoch of a run shuffles differently and a rerun shuffles the same.
    """
    _check_dataset(x, y)
    rng = rng_for(seed, STREAM_SHUFFLE, epoch)
    order = rng.permutation(len(x))
    total, count = 0.0, 0
    for start in range(0, len(x), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        loss = backward_step(model, x[idx], y[idx], cfg.learning_rate)
        total += loss * len(idx)
        count += len(idx)
    return total / count


def evaluate(model: MlpModel, x: np.ndarray, y: np.ndarray, batch: int = 2048) -> tuple[float, float]:
    """(accuracy, mean loss); argmax ties break toward the lowest class index."""
    _check_dataset(x, y)
    correct = 0
    total_loss = 0.0
    for start in range(0, len(x), batch):
        _, probs = forward(model, x[start : start + batch])
        labels = np.asarray(y[start : start + batch], dtype=np.int64)
        correct += int((probs.argmax(axis=1) == labels).sum())
        total_loss += cross_entropy(probs, labels) * len(labels)
    return correct / len(x), total_loss / len(x)


def magnitude_prune(model: MlpModel, prune_quality: float, protect: list[np.ndarray] | None = None) -> int:
    """Zero, in place, every unprotected live weight below prune_quality * std(live w); returns how many.

    ``protect`` holds one boolean matrix per layer; its True cells are never
    cut but count toward the std. The std is taken in the weights' dtype, and
    again in float64 when a float32 one is not finite (its sum of squares
    overflows past about 1.8e19), so finite float32 weights give a finite
    threshold. A ``prune_quality`` past float32's range makes it inf, without
    a warning, and every unprotected live weight is cut. A cut weight is
    multiplied by 0, so a negative one becomes -0.0. A NaN weight is never
    below the threshold, so the count is the drop in ``model.n_live()``.
    """
    if prune_quality < 0:
        raise ValueError("prune_quality must be non-negative")
    zeroed = 0
    for i, layer in enumerate(model.layers):
        live = layer.weights != 0
        with np.errstate(over="ignore", invalid="ignore"):
            std = layer.weights[live].std() if live.any() else 0.0
            if not np.isfinite(std):
                std = layer.weights[live].std(dtype=np.float64)
            t = prune_quality * std
        cut = live & (np.abs(layer.weights) < t)
        if protect is not None:
            cut &= ~protect[i]
        layer.weights *= ~cut
        zeroed += int(np.count_nonzero(cut))
    return zeroed


_CHECKPOINT_FORMAT = "xbarnet-checkpoint-v3"


def save_checkpoint(path, model: MlpModel, seed: int, config: dict | None = None) -> None:
    """Write a <path>.json manifest and the <path>.bin blocks of a float32 model.

    The manifest holds the format, the topology, the seed and the config. The
    ``.bin`` holds each layer's weights (fan_in x fan_out, row-major), then its
    bias, as little-endian float32 with no header: the topology fixes every
    block's shape. A zero weight is a pruned synapse, and each zero keeps its
    sign bit. A model that is not float32 throughout raises TypeError, and
    nothing is written.
    """
    blocks = [block for layer in model.layers for block in (layer.weights, layer.bias)]
    if any(block.dtype != np.float32 for block in blocks):
        raise TypeError(f"a checkpoint holds float32 blocks, got {sorted({str(b.dtype) for b in blocks})}")
    path = Path(path)
    manifest = {"format": _CHECKPOINT_FORMAT, "topology": model.topology, "seed": seed, "config": config or {}}
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=1))
    with open(path.with_suffix(".bin"), "wb") as fh:
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f4").data)


def load_checkpoint(path) -> tuple[MlpModel, dict]:
    """Read a checkpoint pair; returns (model, manifest).

    The model is the float32 model that was saved, bit for bit, -0.0
    included. Only the current format is read: v1 and v2 files are rejected.
    The manifest is read as UTF-8, and its ``topology`` must be a list of at
    least two positive integers. The ``.bin`` must hold exactly 4 bytes per
    weight and bias of that topology; its size is checked before it is read,
    so no size that a topology claims is allocated. A pair that does not read
    back as a model raises :class:`~xbarnet.connectivity.InputFormatError`
    naming the checkpoint.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.with_suffix(".json").read_text(encoding="utf-8"))
        if manifest.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
        dims = manifest["topology"]
        if not isinstance(dims, list) or len(dims) < 2 or any(type(d) is not int or d < 1 for d in dims):
            raise ValueError(f"topology must be a list of at least two positive integers, got {dims!r:.40}")
        shapes = list(zip(dims[:-1], dims[1:]))
        need = 4 * sum(fan_in * fan_out + fan_out for fan_in, fan_out in shapes)
        with open(path.with_suffix(".bin"), "rb") as fh:
            if (size := os.fstat(fh.fileno()).st_size) != need:
                raise ValueError(f".bin holds {size} bytes where the topology needs {need}")
            layers = [
                Layer(
                    weights=np.fromfile(fh, dtype="<f4", count=fan_in * fan_out).reshape(fan_in, fan_out),
                    bias=np.fromfile(fh, dtype="<f4", count=fan_out),
                )
                for fan_in, fan_out in shapes
            ]
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise InputFormatError(f"checkpoint {path}: {exc}") from None
    return MlpModel(layers), manifest
