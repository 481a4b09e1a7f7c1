"""Dataset ingestion: IDX image/label files plus synthetic generators.

The IDX reader handles the standard big-endian digit-recognition files
(optionally gzipped) and validates magic numbers and byte counts. Their
pixels stay the uint8 values stored on disk, one byte each; ``mlp.forward``
scales each batch to [0, 1] as the network reads it. Besides the digit
surrogate, "planted" is the only synthetic generator: it builds a teacher
network whose first-layer weight support is block-diagonal, labels data
with it, and hands back the ground truth so cluster recovery is checkable.
The deterministic digit surrogate can stand in for the real files: it
renders noisy stroke-like class prototypes into genuine IDX files so the
full ingestion path is exercised even where the originals are unavailable.
"""

from __future__ import annotations

import gzip
import json
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
    """Train and test splits: ``x`` is (samples, features), ``y`` int64 class labels.

    ``x`` holds either float32 features (``gen_planted``), which a float32
    student reads as stored and ``mlp.forward`` casts to the dtype of any
    other model's weights, or uint8 pixel intensities (``load_mnist``), which
    it reads as ``x / 255`` in that dtype.
    """

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


def _open_maybe_gzip(path: Path):
    """A gzip reader for a gzipped file, else the plain file unbuffered, whose ``read()`` is one allocation."""
    with open(path, "rb") as fh:
        head = fh.read(2)
    if head == b"\x1f\x8b":
        return gzip.open(path, "rb")
    return open(path, "rb", buffering=0)


def _read_idx(path, magic: int, n_dims: int) -> tuple[list[int], bytes]:
    """(dimensions, payload) of an IDX file; its magic, its byte count and any gzip stream are checked.

    A plain file's payload is read with one allocation, sized by the file
    itself; the size its header claims is only compared with what was read,
    never allocated.
    """
    path = Path(path)
    try:
        with _open_maybe_gzip(path) as fh:
            header = fh.read(4 * (n_dims + 1))
            if len(header) != 4 * (n_dims + 1):
                raise InputFormatError(f"{path.name}: truncated header, got {len(header)} bytes")
            got, *dims = struct.unpack(f">{n_dims + 1}I", header)
            if got != magic:
                raise InputFormatError(f"{path.name}: magic {got}, expected {magic}")
            data = fh.read()
    except (EOFError, gzip.BadGzipFile, zlib.error) as exc:
        raise InputFormatError(f"{path.name}: damaged gzip stream ({type(exc).__name__}: {exc})") from None
    if len(data) != math.prod(dims):
        raise InputFormatError(
            f"{path.name}: truncated data, expected {math.prod(dims)} bytes, got {len(data)}"
        )
    return dims, data


def read_idx_images(path) -> np.ndarray:
    (count, rows, cols), data = _read_idx(path, IDX_IMAGES_MAGIC, 3)
    if not count:
        raise InputFormatError(f"{Path(path).name}: no images")
    return np.frombuffer(data, dtype=np.uint8).reshape(count, rows, cols)


def read_idx_labels(path) -> np.ndarray:
    _, data = _read_idx(path, IDX_LABELS_MAGIC, 1)
    return np.frombuffer(data, dtype=np.uint8).astype(np.int64)


def _write_idx(path, magic: int, values: np.ndarray) -> None:
    """uint8 ``values`` under a header of ``magic`` and their dimensions, big-endian per the IDX standard."""
    with open(path, "wb") as fh:
        fh.write(struct.pack(f">{values.ndim + 1}I", magic, *values.shape))
        fh.write(np.ascontiguousarray(values, dtype=np.uint8).data)


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
    """Load the standard IDX digit files from a directory.

    Each image becomes one row of its uint8 pixels, as stored, with no float
    copy; ``mlp.forward`` scales a batch of them to [0, 1] in the dtype of the
    model's weights, float32 for a trained network. Each plain file's pixels
    are read with one allocation and viewed in place, so the peak is the
    bytes returned plus one label file's bytes.
    """
    directory = Path(directory)
    x_train = read_idx_images(_find_idx_file(directory, _IDX_NAMES["train_images"]))
    y_train = read_idx_labels(_find_idx_file(directory, _IDX_NAMES["train_labels"]))
    x_test = read_idx_images(_find_idx_file(directory, _IDX_NAMES["test_images"]))
    y_test = read_idx_labels(_find_idx_file(directory, _IDX_NAMES["test_labels"]))
    for split, x, y in (("train", x_train, y_train), ("t10k", x_test, y_test)):
        if len(x) != len(y):
            raise InputFormatError(
                f"{directory}: {split} image/label counts disagree, {len(x)} images but {len(y)} labels"
            )
    if x_train.shape[1:] != x_test.shape[1:]:
        sizes = (*x_train.shape[1:], *x_test.shape[1:])
        raise InputFormatError("train images are %dx%d but test images are %dx%d" % sizes)
    n_pixels = x_train.shape[1] * x_train.shape[2]
    return Dataset(
        x_train=x_train.reshape(len(x_train), n_pixels),
        y_train=y_train,
        x_test=x_test.reshape(len(x_test), n_pixels),
        y_test=y_test,
    )


def _smooth(x: np.ndarray, axis: int) -> np.ndarray:
    """One pass of the [1/4, 1/2, 1/4] filter along ``axis`` of ``x``, over every line at once.

    Each line is zero-padded by one value at either end, and output ``i`` is
    ``(k0 * x[i - 1] + k1 * x[i]) + k2 * x[i + 1]``, summed in that order.
    The taps are powers of two, so the products are exact, and this order
    equals ``np.convolve(line, kernel, "same")`` bit for bit, edges
    included.
    """
    k0, k1, k2 = 0.25, 0.5, 0.25
    lines = np.moveaxis(x, axis, -1)
    padded = np.zeros((*lines.shape[:-1], lines.shape[-1] + 2))
    padded[..., 1:-1] = lines
    return np.moveaxis((k0 * padded[..., :-2] + k1 * lines) + k2 * padded[..., 2:], -1, axis)


def _render_prototypes(rng: np.random.Generator, n_classes: int, side: int) -> np.ndarray:
    """Stroke-like class prototypes: smoothed noise thresholded at its high tail.

    One call draws the classes' ``(side, side)`` noise fields in class
    order, the same values as one call per class. All of them are then
    smoothed three times along columns and then rows with :func:`_smooth`.
    A prototype is 1.0 where its smoothed noise exceeds its own 0.8
    quantile, with a dead two-pixel border.
    """
    img = rng.normal(size=(n_classes, side, side))
    for _ in range(3):
        img = _smooth(_smooth(img, 1), 2)
    cut = np.quantile(img.reshape(n_classes, -1), 0.80, axis=1)
    protos = (img > cut[:, None, None]).astype(np.float64)
    protos[:, :2, :] = protos[:, -2:, :] = 0.0
    protos[:, :, :2] = protos[:, :, -2:] = 0.0
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


# samples rendered and written per pass of write_surrogate_digits; it bounds both its float buffers and its bytes
_SURROGATE_CHUNK = 256
_MAX_SHIFT = 2  # surrogate samples roll their prototype by -2..2 pixels along each axis
SURROGATE_RECORD = "surrogate_digits.json"  # the inputs write_surrogate_digits wrote a directory from


def write_surrogate_digits(directory, seed: int, n_train: int, n_test: int, side: int = 28) -> Path:
    """Write a deterministic IDX-format digit surrogate into ``directory``.

    Samples are shifted, dropout-thinned, noisy renderings of per-class
    prototypes; pixel statistics roughly follow handwritten digits (dead
    border, ~20% ink). Writes the IDX files, then :data:`SURROGATE_RECORD`
    of ``gen_seed`` (``seed``), ``n_train`` and ``n_test``. Returns the directory.

    The bytes are fixed by the order of the draws from the seed's data
    stream: the prototypes, then per split (train, then test) all labels,
    then all (row, col) shifts, then per sample its dropout field
    ``random((side, side))``, its gain ``uniform(0.6, 1.0)`` and its noise
    ``normal(0, 0.08, (side, side))``. Each sample takes two calls:
    ``random`` fills side² + 1 values, the dropout field and then the gain's
    draw, and ``standard_normal`` fills the noise. That is the same stream:
    numpy's ``uniform(low, high)`` is ``low + (high - low) * u`` of one
    ``random()`` draw ``u``, which the chunk computes with the same bounds,
    and ``normal(0, s)`` is ``0 + s * z``, which differs from the chunk's
    ``s * z`` only in the sign of an exact zero. Adding that noise to a
    pixel, which is at least +0, cannot show the sign. Samples are drawn
    one at a time but rendered a chunk at a time, and each chunk's pixels go
    straight into the open image file, after its header; a split's labels
    are written after its images. So besides one split's labels and shifts
    it holds the table of every shifted prototype and one chunk's float and
    uint8 buffers, whatever the sample counts.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, STREAM_DATA)
    protos = _render_prototypes(rng, 10, side)
    # every (class, row shift, col shift) rendering; np.roll by d reads pixel (i - d) % side
    moved = (np.arange(side) - np.arange(-_MAX_SHIFT, _MAX_SHIFT + 1)[:, None]) % side
    n_shifts = len(moved)
    rolled = protos[:, moved[:, None, :, None], moved[None, :, None, :]].reshape(-1, side, side)
    chunk = min(_SURROGATE_CHUNK, max(n_train, n_test))
    uniforms = np.empty((chunk, side * side + 1))  # per sample its dropout field, then its gain's draw
    noise = np.empty((chunk, side, side))
    pixels = np.empty((chunk, side, side), dtype=np.uint8)

    def write_split(split: str, n: int) -> None:
        labels = rng.integers(0, 10, size=n)
        shifts = rng.integers(-_MAX_SHIFT, _MAX_SHIFT + 1, size=(n, 2))
        renderings = (labels * n_shifts + shifts[:, 0] + _MAX_SHIFT) * n_shifts + shifts[:, 1] + _MAX_SHIFT
        with open(directory / _IDX_NAMES[f"{split}_images"][0], "wb") as fh:
            fh.write(struct.pack(">4I", IDX_IMAGES_MAGIC, n, side, side))
            for start in range(0, n, chunk):
                m = min(chunk, n - start)
                for j in range(m):
                    rng.random(out=uniforms[j])
                    rng.standard_normal(out=noise[j])
                img = rolled[renderings[start : start + m]]
                # compare, then reshape: a reshape of the strided slice itself would copy it
                img *= (uniforms[:m, :-1] > 0.15).reshape(m, side, side)
                img *= (0.6 + (1.0 - 0.6) * uniforms[:m, -1])[:, None, None]  # uniform(0.6, 1.0)
                noise[:m] *= 0.08  # normal(0, 0.08)
                img += noise[:m]
                np.clip(img, 0, 1, out=img)
                img *= 255
                pixels[:m] = img  # the unsafe float -> uint8 cast of astype
                fh.write(pixels[:m].data)
        _write_idx(directory / _IDX_NAMES[f"{split}_labels"][0], IDX_LABELS_MAGIC, labels.astype(np.uint8))

    write_split("train", n_train)
    write_split("test", n_test)
    (directory / SURROGATE_RECORD).write_text(json.dumps({"gen_seed": seed, "n_train": n_train, "n_test": n_test}))
    return directory


def surrogate_record(directory) -> dict | None:
    """The inputs :func:`write_surrogate_digits` recorded in ``directory``; None without a readable record."""
    try:
        record = json.loads((Path(directory) / SURROGATE_RECORD).read_text(encoding="utf-8"))
    except (OSError, RecursionError, ValueError):
        return None
    return record if type(record) is dict and record.keys() == {"gen_seed", "n_train", "n_test"} else None


@dataclass(frozen=True)
class PlantedSpec:
    """Teacher network with block-diagonal first-layer support.

    The ``in_dim // block`` input blocks each feed their own, equal share of
    the hidden units, so ``block`` divides ``in_dim`` and ``hidden`` is a
    multiple of the block count: otherwise some block would plant no cell, or
    some hidden unit would belong to no block.
    ``noise_density`` adds off-block synapses at ``noise_scale`` of the
    in-block magnitude.
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
        if self.block < 1 or self.in_dim % self.block:
            raise ValueError("block must be positive and divide in_dim")
        if self.hidden % (self.in_dim // self.block):
            raise ValueError(f"hidden must be a multiple of the {self.in_dim // self.block} input blocks")
        if not 0 <= self.noise_density < 1:
            raise ValueError("noise_density must lie in [0, 1)")


# rows gen_planted draws, labels and casts per pass; it bounds the float64 features and the activations it holds
_PLANTED_LABEL_CHUNK = 512


def gen_planted(spec: PlantedSpec, seed: int) -> tuple[Dataset, mlp.MlpModel, dict]:
    """Dataset labeled by a planted teacher; returns (data, teacher, ground truth).

    In-block teacher weights are bounded away from zero so a student that
    matches the teacher keeps the whole block above any sane pruning
    threshold. The teacher's layers are float64, so it labels the data in
    float64 whatever dtype the students train in.

    Each split's features are drawn :data:`_PLANTED_LABEL_CHUNK` rows at a
    time from one float64 ``normal`` stream, so the draws are those of one
    whole-split draw. The teacher labels each chunk, which is then cast into
    the split's preallocated C-contiguous float32 array, the dtype a student
    trains in. So the features are the float32 rounding of the values the
    teacher labelled, and besides the returned arrays only one chunk's
    float64 features and activations are held.
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

    def batch(n: int) -> tuple[np.ndarray, np.ndarray]:
        x = np.empty((n, spec.in_dim), dtype=np.float32)
        labels = np.empty(n, dtype=np.int64)
        for start in range(0, n, _PLANTED_LABEL_CHUNK):
            rows = rng.normal(size=(min(_PLANTED_LABEL_CHUNK, n - start), spec.in_dim))
            labels[start : start + len(rows)] = mlp.forward(teacher, rows)[1].argmax(axis=1)
            x[start : start + len(rows)] = rows
        return x, labels

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
