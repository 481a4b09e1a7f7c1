"""Minimal MLP training core: forward, backward, SGD on live weights, in-place pruning.

Layers are dense (fan_in x fan_out) matrices; hidden layers use the
rectifier, the output layer a softmax over classes. A trained network is
float32 throughout: the crossbars it maps onto hold a few bits per synapse,
so float64 would buy nothing the mapped network can use, and float32 halves
the bytes each SGD step moves. ``forward`` and ``backward_step`` compute in
the weights' dtype, so a float64 model (a planted teacher, a loaded
checkpoint) still computes in float64. A synapse exists exactly
when its weight is non-zero: the live weights are the only prune record, and
``magnitude_prune`` writes it by zeroing weights in place.
Updates apply only to non-zero weights, so a zeroed synapse stays at exactly
zero, and weight support never grows during training: pruning and cluster
removal are the only operations that change which synapses exist.

Inputs are float features, which ``forward`` reads in the weights' dtype, or
uint8 pixel intensities that it scales to [0, 1] one batch at a time, so a
pixel set is never held as floats.
"""

from __future__ import annotations

import json
import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .connectivity import InputFormatError, ShapeError
from .util import STREAM_INIT, STREAM_SHUFFLE, rng_for


@dataclass
class Layer:
    weights: np.ndarray
    bias: np.ndarray

    def __post_init__(self):
        if self.weights.ndim != 2 or self.weights.size == 0:
            raise ShapeError(f"degenerate weights shape {self.weights.shape}; need a non-empty 2-d matrix")
        if self.bias.shape != (self.weights.shape[1],):
            raise ShapeError("bias length must equal the layer fan-out")


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
    without a copy when it has that dtype already. Each layer's
    pre-activation is a fresh array that the rectifier or the softmax then
    overwrites in place; the input batch is never written.
    """
    dtype = model.layers[0].weights.dtype
    x = np.asarray(batch)
    x = np.divide(x, 255, dtype=dtype) if x.dtype == np.uint8 else np.asarray(x, dtype=dtype)
    if x.ndim != 2 or x.shape[1] != model.layers[0].weights.shape[0]:
        raise ShapeError(
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
    cut but count toward the std. A cut weight is multiplied by 0, so a
    negative one becomes -0.0. A NaN weight is never below the threshold, so
    the count is the drop in ``model.n_live()``.
    """
    if prune_quality < 0:
        raise ValueError("prune_quality must be non-negative")
    zeroed = 0
    for i, layer in enumerate(model.layers):
        live = layer.weights != 0
        t = prune_quality * layer.weights[live].std() if live.any() else 0.0
        cut = live & (np.abs(layer.weights) < t)
        if protect is not None:
            cut &= ~protect[i]
        layer.weights *= ~cut
        zeroed += int(np.count_nonzero(cut))
    return zeroed


_CHECKPOINT_FORMAT = "xbarnet-checkpoint-v2"


class CheckpointFormatError(InputFormatError):
    """Raised on a checkpoint pair that does not read back as a model."""


def save_checkpoint(path, model: MlpModel, seed: int, config: dict | None = None) -> None:
    """Write <path>.json manifest + <path>.bin length-prefixed little-endian float64 blocks.

    Each layer has two blocks, weights then bias; a zero weight is a pruned
    synapse. A float32 model is upcast, which is exact: each block holds its
    float32 values, sign bits of zeros included.
    """
    path = Path(path)
    blocks = []
    names = []
    for i, layer in enumerate(model.layers):
        blocks += [layer.weights, layer.bias]
        names += [
            {"name": f"layer{i}.weights", "shape": list(layer.weights.shape)},
            {"name": f"layer{i}.bias", "shape": list(layer.bias.shape)},
        ]
    manifest = {
        "format": _CHECKPOINT_FORMAT,
        "topology": model.topology,
        "seed": seed,
        "config": config or {},
        "blocks": names,
    }
    path.with_suffix(".json").write_text(json.dumps(manifest, indent=1))
    with open(path.with_suffix(".bin"), "wb") as fh:
        for block in blocks:
            data = np.ascontiguousarray(block, dtype="<f8").tobytes()
            fh.write(struct.pack("<Q", len(data)))
            fh.write(data)


def load_checkpoint(path) -> tuple[MlpModel, dict]:
    """Read a checkpoint pair; returns (model, manifest).

    The model comes back float64. A checkpoint of a float32 model reads back
    as its float32 weights and biases upcast, bit for bit, -0.0 included.
    Only the current format is read: a file of any other format, the v1
    layout with its third per-layer mask block included, is rejected. So is a
    ``.bin`` that does not match its manifest: one with bytes after the last
    listed block, or whose weight blocks do not chain into the manifest's
    ``topology``. A block whose header claims more bytes than the file has
    left is rejected before it is read, so no claimed length is allocated.
    """
    path = Path(path)
    try:
        manifest = json.loads(path.with_suffix(".json").read_text())
        if manifest.get("format") != _CHECKPOINT_FORMAT:
            raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
        blocks = []
        with open(path.with_suffix(".bin"), "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            for spec in manifest["blocks"]:
                header = fh.read(8)
                if len(header) != 8:
                    raise ValueError(f"truncated checkpoint: missing block {spec['name']}")
                (length,) = struct.unpack("<Q", header)
                if length > (left := size - fh.tell()):
                    raise ValueError(f"truncated block {spec['name']}: expected {length} bytes, {left} left")
                blocks.append(np.frombuffer(fh.read(length), dtype="<f8").reshape(spec["shape"]).copy())
            if fh.read(1):
                raise ValueError("bytes left after the last listed block")
        layers = [Layer(weights=w, bias=b) for w, b in zip(blocks[0::2], blocks[1::2], strict=True)]
        shapes, topology = [layer.weights.shape for layer in layers], manifest["topology"]
        if not layers or shapes != list(zip(topology[:-1], topology[1:])):
            raise ValueError(f"layer shapes {shapes} do not chain into topology {topology!r:.40}")
    except (AttributeError, KeyError, RecursionError, TypeError, ValueError) as exc:
        raise CheckpointFormatError(f"checkpoint {path}: {exc}") from None
    return MlpModel(layers), manifest
