"""Minimal MLP training core: forward, backward, masked SGD, pruning.

Layers are dense (fan_in x fan_out) float64 matrices with a per-layer (0,1)
mask; hidden layers use the rectifier, the output layer a softmax over
classes. Updates apply only where the mask is 1, so masked synapses stay at
exactly zero, and weight support never grows during training: pruning and
cluster removal are the only operations that change which synapses exist.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .connectivity import Mask, ShapeError
from .util import STREAM_INIT, STREAM_SHUFFLE, rng_for


@dataclass
class Layer:
    weights: np.ndarray
    bias: np.ndarray
    mask: Mask

    def __post_init__(self):
        if self.weights.shape != self.mask.shape:
            raise ShapeError(
                f"mask {self.mask.shape} does not match weights {self.weights.shape}"
            )
        if self.bias.shape != (self.weights.shape[1],):
            raise ShapeError("bias length must equal the layer fan-out")


@dataclass
class MlpModel:
    """Stack of masked dense layers; rectifier hidden units, softmax output."""

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
    seed: int = 0
    prune_quality: float = 0.7

    def __post_init__(self):
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if self.prune_quality < 0:
            raise ValueError("prune_quality must be non-negative")


def init_model(topology: list[int], seed: int) -> MlpModel:
    """Seeded uniform init in +-sqrt(6 / (fan_in + fan_out)), all-ones masks."""
    if len(topology) < 2 or min(topology) < 1:
        raise ValueError(f"topology needs >=2 positive widths, got {topology}")
    rng = rng_for(seed, STREAM_INIT)
    layers = []
    for fan_in, fan_out in zip(topology[:-1], topology[1:]):
        bound = np.sqrt(6.0 / (fan_in + fan_out))
        w = rng.uniform(-bound, bound, size=(fan_in, fan_out))
        layers.append(
            Layer(
                weights=w,
                bias=np.zeros(fan_out),
                mask=Mask(np.ones((fan_in, fan_out), dtype=np.uint8)),
            )
        )
    return MlpModel(layers)


def _softmax(z: np.ndarray) -> np.ndarray:
    shifted = z - z.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def forward(model: MlpModel, batch: np.ndarray) -> tuple[list[np.ndarray], np.ndarray]:
    """Per-layer activations plus output probabilities (rows sum to 1)."""
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != model.layers[0].weights.shape[0]:
        raise ShapeError(
            f"batch width {x.shape} does not match first-layer fan-in "
            f"{model.layers[0].weights.shape[0]}"
        )
    activations = [x]
    for depth, layer in enumerate(model.layers):
        z = activations[-1] @ layer.weights + layer.bias
        if depth < len(model.layers) - 1:
            activations.append(np.maximum(z, 0.0))
        else:
            activations.append(_softmax(z))
    return activations, activations[-1]


def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    p = probs[np.arange(len(labels)), labels]
    return float(-np.log(np.clip(p, 1e-300, None)).mean())


def backward_step(
    model: MlpModel, batch: np.ndarray, labels: np.ndarray, lr: float
) -> tuple[MlpModel, float]:
    """One masked SGD step on the cross-entropy loss; returns (model, mean loss).

    Gradients flow everywhere but the update touches only mask=1 entries, so
    masked weights remain exactly zero. The model is updated in place and
    returned.
    """
    labels = np.asarray(labels, dtype=np.int64)
    activations, probs = forward(model, batch)
    loss = cross_entropy(probs, labels)
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
        layer.weights -= lr * grad_w * layer.mask.bits
        layer.bias -= lr * grad_b
    return model, loss


def train_epoch(
    model: MlpModel,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    epoch: int,
) -> float:
    """One pass over the data in seeded-shuffled minibatches; mean epoch loss."""
    rng = rng_for(cfg.seed, STREAM_SHUFFLE, epoch)
    order = rng.permutation(len(x))
    total, count = 0.0, 0
    for start in range(0, len(x), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        _, loss = backward_step(model, x[idx], y[idx], cfg.learning_rate)
        total += loss * len(idx)
        count += len(idx)
    return total / count


def evaluate(model: MlpModel, x: np.ndarray, y: np.ndarray, batch: int = 2048) -> tuple[float, float]:
    """(accuracy, mean loss); argmax ties break toward the lowest class index."""
    if len(x) == 0:
        raise ValueError("dataset must be non-empty")
    correct = 0
    total_loss = 0.0
    for start in range(0, len(x), batch):
        _, probs = forward(model, x[start : start + batch])
        labels = np.asarray(y[start : start + batch], dtype=np.int64)
        correct += int((probs.argmax(axis=1) == labels).sum())
        total_loss += cross_entropy(probs, labels) * len(labels)
    return correct / len(x), total_loss / len(x)


def magnitude_prune(model: MlpModel, prune_quality: float) -> list[Mask]:
    """Per-layer prune maps: entry 0 iff |w| < prune_quality * std(nonzero w).

    Maps are advisory; the caller decides when to apply them. A layer with no
    nonzero weights takes threshold 0 (nothing marked).
    """
    if prune_quality < 0:
        raise ValueError("prune_quality must be non-negative")
    maps = []
    for layer in model.layers:
        live = layer.weights[layer.weights != 0]
        t = prune_quality * live.std() if live.size else 0.0
        maps.append(Mask((np.abs(layer.weights) >= t).astype(np.uint8)))
    return maps


_CHECKPOINT_FORMAT = "xbarnet-checkpoint-v1"


def save_checkpoint(path, model: MlpModel, seed: int, config: dict | None = None) -> None:
    """Write <path>.json manifest + <path>.bin length-prefixed float64 blocks."""
    path = Path(path)
    blocks = []
    names = []
    for i, layer in enumerate(model.layers):
        blocks += [layer.weights, layer.bias, layer.mask.bits.astype(np.float64)]
        names += [
            {"name": f"layer{i}.weights", "shape": list(layer.weights.shape)},
            {"name": f"layer{i}.bias", "shape": list(layer.bias.shape)},
            {"name": f"layer{i}.mask", "shape": list(layer.mask.shape)},
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
    """Read a checkpoint pair; returns (model, manifest)."""
    path = Path(path)
    manifest = json.loads(path.with_suffix(".json").read_text())
    if manifest.get("format") != _CHECKPOINT_FORMAT:
        raise ValueError(f"unrecognized checkpoint format {manifest.get('format')!r}")
    blocks = []
    with open(path.with_suffix(".bin"), "rb") as fh:
        for spec in manifest["blocks"]:
            header = fh.read(8)
            if len(header) != 8:
                raise ValueError(f"truncated checkpoint: missing block {spec['name']}")
            (length,) = struct.unpack("<Q", header)
            data = fh.read(length)
            if len(data) != length:
                raise ValueError(
                    f"truncated block {spec['name']}: expected {length} bytes, got {len(data)}"
                )
            arr = np.frombuffer(data, dtype="<f8").reshape(spec["shape"]).copy()
            blocks.append(arr)
    layers = []
    for i in range(0, len(blocks), 3):
        w, b, m = blocks[i : i + 3]
        layers.append(Layer(weights=w, bias=b, mask=Mask(m.astype(np.uint8))))
    return MlpModel(layers), manifest
