"""Dataset ingestion: IDX image/label files plus synthetic generators.

The IDX reader handles the standard big-endian digit-recognition files
(optionally gzipped) and validates magic numbers and byte counts. Two
synthetic generators cover testing needs: "blobs" makes well-separated
Gaussian clusters for fast learnability checks, and "planted" builds a
teacher network whose first-layer weight support is block-diagonal, labels
data with it, and hands back the ground truth so cluster recovery is
checkable. A deterministic digit surrogate can stand in for the real files:
it renders noisy stroke-like class prototypes into genuine IDX files so the
full ingestion path is exercised even where the originals are unavailable.
"""

from __future__ import annotations

import gzip
import math
import struct
import zlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import mlp
from .connectivity import InputFormatError
from .util import STREAM_DATA, rng_for

IDX_IMAGES_MAGIC = 2051
IDX_LABELS_MAGIC = 2049


@dataclass
class Dataset:
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def n_features(self) -> int:
        return self.x_train.shape[1]

    @property
    def n_classes(self) -> int:
        return int(max(self.y_train.max(), self.y_test.max())) + 1


class IdxFormatError(InputFormatError):
    pass


def _open_maybe_gzip(path: Path):
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb")


def _read_idx(path, magic: int, n_dims: int) -> tuple[list[int], bytes]:
    """(dimensions, payload) of an IDX file; its magic, its byte count and any gzip stream are checked."""
    path = Path(path)
    try:
        with _open_maybe_gzip(path) as fh:
            header = fh.read(4 * (n_dims + 1))
            if len(header) != 4 * (n_dims + 1):
                raise IdxFormatError(f"{path.name}: truncated header, got {len(header)} bytes")
            got, *dims = struct.unpack(f">{n_dims + 1}I", header)
            if got != magic:
                raise IdxFormatError(f"{path.name}: magic {got}, expected {magic}")
            data = fh.read()
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise IdxFormatError(f"{path.name}: damaged gzip stream ({type(exc).__name__}: {exc})") from None
    if len(data) != math.prod(dims):
        raise IdxFormatError(
            f"{path.name}: truncated data, expected {math.prod(dims)} bytes, got {len(data)}"
        )
    return dims, data


def read_idx_images(path) -> np.ndarray:
    (count, rows, cols), data = _read_idx(path, IDX_IMAGES_MAGIC, 3)
    if not count:
        raise IdxFormatError(f"{Path(path).name}: no images")
    return np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    _, data = _read_idx(path, IDX_LABELS_MAGIC, 1)
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def _write_idx(path, magic: int, values: np.ndarray) -> None:
    """uint8 ``values`` under a header of ``magic`` and their dimensions, big-endian per the IDX standard."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{values.ndim + 1}I", magic, *values.shape))
        fh.write(np.ascontiguousarray(values, dtype=np.uint8).tobytes())


_IDX_NAMES = {
    "train_images": ("train-images-idx3-ubyte", "train-images.idx3-ubyte"),
    "train_labels": ("train-labels-idx1-ubyte", "train-labels.idx1-ubyte"),
    "test_images": ("t10k-images-idx3-ubyte", "t10k-images.idx3-ubyte"),
    "test_labels": ("t10k-labels-idx1-ubyte", "t10k-labels.idx1-ubyte"),
}


def _find_idx_file(directory: Path, names: tuple[str, ...]) -> Path:
    for name in names:
        for candidate in (directory / name, directory / (name + ".gz")):
            if candidate.exists():
                return candidate
    raise FileNotFoundError(f"none of {names} (or .gz) found under {directory}")


def load_mnist(directory) -> Dataset:
    """Load the standard IDX digit files from a directory; pixels scale to [0,1]."""
    directory = Path(directory)
    x_train = read_idx_images(_find_idx_file(directory, _IDX_NAMES["train_images"]))
    y_train = read_idx_labels(_find_idx_file(directory, _IDX_NAMES["train_labels"]))
    x_test = read_idx_images(_find_idx_file(directory, _IDX_NAMES["test_images"]))
    y_test = read_idx_labels(_find_idx_file(directory, _IDX_NAMES["test_labels"]))
    if len(x_train) != len(y_train) or len(x_test) != len(y_test):
        raise IdxFormatError("image/label counts disagree")
    if x_train.shape[1:] != x_test.shape[1:]:
        sizes = (*x_train.shape[1:], *x_test.shape[1:])
        raise IdxFormatError("train images are %dx%d but test images are %dx%d" % sizes)
    n_pixels = x_train.shape[1] * x_train.shape[2]
    return Dataset(
        x_train=x_train.reshape(len(x_train), n_pixels).astype(np.float64) / 255.0,
        y_train=y_train,
        x_test=x_test.reshape(len(x_test), n_pixels).astype(np.float64) / 255.0,
        y_test=y_test,
    )


def _render_prototypes(rng: np.random.Generator, n_classes: int, side: int) -> np.ndarray:
    """Stroke-like class prototypes: smoothed noise thresholded at its high tail."""
    protos = np.zeros((n_classes, side, side))
    kernel = np.array([0.25, 0.5, 0.25])
    for c in range(n_classes):
        img = rng.normal(size=(side, side))
        for _ in range(3):
            img = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 0, img)
            img = np.apply_along_axis(lambda r: np.convolve(r, kernel, mode="same"), 1, img)
        cut = np.quantile(img, 0.80)
        proto = np.where(img > cut, 1.0, 0.0)
        proto[:2, :] = proto[-2:, :] = 0.0
        proto[:, :2] = proto[:, -2:] = 0.0
        protos[c] = proto
    return protos


@dataclass(frozen=True)
class MnistSpec:
    """The standard IDX digit files, read from ``dir``."""

    dir: str = ""


@dataclass(frozen=True)
class DigitsSpec(MnistSpec):
    """Surrogate digits in ``dir``, written if absent; a config's ``gen_seed`` defaults to the run seed."""

    n_train: int = 20000
    n_test: int = 10000
    gen_seed: int = 0

    def __post_init__(self):
        if min(self.n_train, self.n_test) < 1 or self.gen_seed < 0:
            raise ValueError("n_train and n_test must be positive and gen_seed non-negative")


def write_surrogate_digits(directory, seed: int, n_train: int, n_test: int, side: int = 28) -> Path:
    """Write a deterministic IDX-format digit surrogate into ``directory``.

    Samples are shifted, dropout-thinned, noisy renderings of per-class
    prototypes; pixel statistics roughly follow handwritten digits (dead
    border, ~20% ink). Returns the directory.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, STREAM_DATA)
    protos = _render_prototypes(rng, 10, side)

    def batch(n: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, 10, size=n)
        images = np.zeros((n, side, side), dtype=np.uint8)
        shifts = rng.integers(-2, 3, size=(n, 2))
        for i in range(n):
            img = np.roll(protos[labels[i]], tuple(shifts[i]), axis=(0, 1))
            keep = rng.random((side, side)) > 0.15
            img = img * keep * rng.uniform(0.6, 1.0)
            img = img + rng.normal(0, 0.08, size=(side, side))
            images[i] = (np.clip(img, 0, 1) * 255).astype(np.uint8)
        return images, labels.astype(np.uint8)

    train_x, train_y = batch(n_train)
    test_x, test_y = batch(n_test)
    _write_idx(directory / _IDX_NAMES["train_images"][0], IDX_IMAGES_MAGIC, train_x)
    _write_idx(directory / _IDX_NAMES["train_labels"][0], IDX_LABELS_MAGIC, train_y)
    _write_idx(directory / _IDX_NAMES["test_images"][0], IDX_IMAGES_MAGIC, test_x)
    _write_idx(directory / _IDX_NAMES["test_labels"][0], IDX_LABELS_MAGIC, test_y)
    return directory


@dataclass(frozen=True)
class BlobSpec:
    n_classes: int = 4
    dim: int = 16
    n_train: int = 2000
    n_test: int = 500
    separation: float = 10.0
    sigma: float = 1.0

    def __post_init__(self):
        if min(self.n_classes, self.dim, self.n_train, self.n_test) < 1:
            raise ValueError("n_classes, dim, n_train and n_test must be positive")
        if self.sigma < 0:
            raise ValueError("sigma must be non-negative")


def gen_blobs(spec: BlobSpec, seed: int) -> Dataset:
    """Gaussian clusters with centers ``separation * sigma`` apart (expected)."""
    rng = rng_for(seed, STREAM_DATA)
    centers = rng.normal(size=(spec.n_classes, spec.dim))
    centers *= spec.separation * spec.sigma / np.sqrt(2 * spec.dim)

    def batch(n: int):
        labels = rng.integers(0, spec.n_classes, size=n)
        x = centers[labels] + rng.normal(0, spec.sigma, size=(n, spec.dim))
        return x, labels.astype(np.int64)

    x_train, y_train = batch(spec.n_train)
    x_test, y_test = batch(spec.n_test)
    return Dataset(x_train, y_train, x_test, y_test)


@dataclass(frozen=True)
class PlantedSpec:
    """Teacher network with block-diagonal first-layer support.

    ``block`` divides both first-layer dimensions; ``noise_density`` adds
    off-block synapses at ``noise_scale`` of the in-block magnitude.
    """

    in_dim: int = 64
    hidden: int = 64
    n_classes: int = 2
    block: int = 16
    noise_density: float = 0.05
    noise_scale: float = 0.15
    n_train: int = 4000
    n_test: int = 1000

    def __post_init__(self):
        if min(self.in_dim, self.hidden, self.n_classes, self.n_train, self.n_test) < 1:
            raise ValueError("in_dim, hidden, n_classes, n_train and n_test must be positive")
        if self.block < 1 or self.in_dim % self.block or self.hidden % self.block:
            raise ValueError("block must be positive and divide both first-layer dimensions")
        if not 0 <= self.noise_density < 1:
            raise ValueError("noise_density must lie in [0, 1)")


def gen_planted(spec: PlantedSpec, seed: int) -> tuple[Dataset, mlp.MlpModel, dict]:
    """Dataset labeled by a planted teacher; returns (data, teacher, ground truth).

    In-block teacher weights are bounded away from zero so a student that
    matches the teacher keeps the whole block above any sane pruning
    threshold.
    """
    rng = rng_for(seed, STREAM_DATA)
    n_blocks = spec.in_dim // spec.block

    support = np.zeros((spec.in_dim, spec.hidden), dtype=np.uint8)
    hidden_per_block = spec.hidden // n_blocks
    for b in range(n_blocks):
        support[
            b * spec.block : (b + 1) * spec.block,
            b * hidden_per_block : (b + 1) * hidden_per_block,
        ] = 1
    noise_mask = (rng.random(support.shape) < spec.noise_density) & (support == 0)

    magnitude = rng.uniform(0.5, 1.5, size=support.shape) * np.where(
        rng.random(support.shape) < 0.5, -1.0, 1.0
    )
    scale = 1.0 / np.sqrt(spec.block)
    w1 = magnitude * scale * (support + spec.noise_scale * noise_mask)
    w2 = rng.normal(0, 1.0 / np.sqrt(spec.hidden), size=(spec.hidden, spec.n_classes))

    teacher = mlp.MlpModel(
        [mlp.Layer(w1, np.zeros(spec.hidden)), mlp.Layer(w2, rng.normal(0, 0.01, size=spec.n_classes))]
    )

    def batch(n: int):
        x = rng.normal(size=(n, spec.in_dim))
        _, probs = mlp.forward(teacher, x)
        return x, probs.argmax(axis=1).astype(np.int64)

    x_train, y_train = batch(spec.n_train)
    x_test, y_test = batch(spec.n_test)
    info = {
        "kind": "planted",
        "support": support,
        "noise_mask": noise_mask,
        "block": spec.block,
        "n_blocks": n_blocks,
    }
    return Dataset(x_train, y_train, x_test, y_test), teacher, info
