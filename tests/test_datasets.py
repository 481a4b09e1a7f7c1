"""IDX ingestion, gzipped and damaged files, surrogate and planted bytes, and the data producers' memory bounds."""

import gzip
import hashlib
import json
import os
import struct
import subprocess
import sys
import tracemalloc
import zlib
from pathlib import Path

import numpy as np
import pytest

from xbarnet import cli, datasets, mlp
from xbarnet.connectivity import InputFormatError
from xbarnet.datasets import PlantedSpec, gen_planted, load_mnist, write_surrogate_digits
from xbarnet.util import STREAM_DATA, rng_for

# the undotted names the surrogate writes, and the dotted names some distributions use
NAMES = {
    "train-images-idx3-ubyte": "train-images.idx3-ubyte",
    "train-labels-idx1-ubyte": "train-labels.idx1-ubyte",
    "t10k-images-idx3-ubyte": "t10k-images.idx3-ubyte",
    "t10k-labels-idx1-ubyte": "t10k-labels.idx1-ubyte",
}
SRC = Path(datasets.__file__).resolve().parents[1]


@pytest.fixture(scope="module")
def plain_dir(tmp_path_factory):
    return write_surrogate_digits(tmp_path_factory.mktemp("plain"), seed=0, n_train=24, n_test=8)


def gzipped_copy(plain_dir, target):
    """The files of ``plain_dir`` gzipped under the dotted names into ``target``."""
    target.mkdir()
    for plain, dotted in NAMES.items():
        (target / (dotted + ".gz")).write_bytes(gzip.compress((plain_dir / plain).read_bytes(), mtime=0))
    return target


def test_gzipped_dotted_files_load_like_the_plain_files(tmp_path, plain_dir):
    plain = load_mnist(plain_dir)
    zipped = load_mnist(gzipped_copy(plain_dir, tmp_path / "gz"))
    for name in ("x_train", "y_train", "x_test", "y_test"):
        a, b = getattr(plain, name), getattr(zipped, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name


def test_pixels_stay_uint8_and_scale_to_the_float_intensities(plain_dir):
    # load_mnist keeps one byte per pixel; x / 255.0 is what it once returned as float64, bit for bit
    data = load_mnist(plain_dir)
    for x, name, n in ((data.x_train, "train-images-idx3-ubyte", 24), (data.x_test, "t10k-images-idx3-ubyte", 8)):
        stored = (plain_dir / name).read_bytes()[16:]
        assert x.dtype == np.uint8 and x.shape == (n, 784) and x.nbytes == n * 784
        assert x.tobytes() == stored
        old = np.frombuffer(stored, dtype=np.uint8).reshape(n, 784).astype(np.float64) / 255.0
        assert (x / 255.0).tobytes() == old.tobytes()
    assert data.n_features == 784


def halve(data: bytes) -> bytes:
    return data[: len(data) // 2]


def bad_gzip_header(data: bytes) -> bytes:
    return b"\x1f\x8b" + b"garbage" * 8


def bad_deflate_block(data: bytes) -> bytes:
    # the gzip header is 10 bytes; the next byte's low three bits head the first deflate block,
    # and setting its two type bits gives the reserved type 3, which every inflater rejects
    damaged = bytearray(data)
    damaged[10] |= 0b110
    return bytes(damaged)


@pytest.mark.parametrize(
    "damage, cause",
    [(halve, EOFError), (bad_gzip_header, gzip.BadGzipFile), (bad_deflate_block, zlib.error)],
    ids=["halved", "bad_header", "bad_deflate"],
)
def test_damaged_gzip_file_exits_2(tmp_path, capsys, plain_dir, damage, cause):
    digits = gzipped_copy(plain_dir, tmp_path / "gz")
    images = digits / "train-images.idx3-ubyte.gz"
    images.write_bytes(damage(images.read_bytes()))
    with pytest.raises(cause):  # what the gzip reader raises on its own
        gzip.decompress(images.read_bytes())
    raw = {"dataset": {"kind": "mnist", "dir": str(digits)}, "topology": [784, 4, 10],
           "mode": "original", "transform": {"max_epochs": 1}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 2
    assert f"train-images.idx3-ubyte.gz: damaged gzip stream ({cause.__name__}" in capsys.readouterr().err


# -- reference: the surrogate generator as it was, rendering one sample at a time --------

KERNEL = np.array([0.25, 0.5, 0.25])


def reference_smooth(img, axis):
    return np.apply_along_axis(lambda r: np.convolve(r, KERNEL, mode="same"), axis, img)


def reference_prototypes(rng, n_classes, side):
    """The class prototypes as first written: each class drawn and smoothed line by line with np.convolve."""
    protos = np.zeros((n_classes, side, side))
    for c in range(n_classes):
        img = rng.normal(size=(side, side))
        for _ in range(3):
            img = reference_smooth(reference_smooth(img, 0), 1)
        cut = np.quantile(img, 0.80)
        proto = np.where(img > cut, 1.0, 0.0)
        proto[:2, :] = proto[-2:, :] = 0.0
        proto[:, :2] = proto[:, -2:] = 0.0
        protos[c] = proto
    return protos


@pytest.mark.parametrize("side", [5, 9, 28])
def test_prototypes_equal_the_line_by_line_reference(side):
    for seed in range(10):
        got = datasets._render_prototypes(rng_for(seed, STREAM_DATA), 10, side)
        want = reference_prototypes(rng_for(seed, STREAM_DATA), 10, side)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), (seed, side)


def test_one_smoothing_pass_equals_np_convolve_on_every_line():
    # whole arrays, their edge lines included, at magnitudes from 1e-6 to 1e6 and line lengths from 3
    rng = np.random.default_rng(0)
    for _ in range(50):
        shape = tuple(int(n) for n in rng.integers(3, 40, size=3))
        x = rng.normal(size=shape) * 10.0 ** rng.integers(-6, 7)
        for axis in (1, 2):
            want = np.stack([reference_smooth(plane, axis - 1) for plane in x])
            assert datasets._smooth(x, axis).tobytes() == want.tobytes(), (shape, axis)


def reference_surrogate_digits(directory, seed, n_train, n_test, side=28):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, STREAM_DATA)
    protos = reference_prototypes(rng, 10, side)

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
    datasets._write_idx(directory / "train-images-idx3-ubyte", datasets.IDX_IMAGES_MAGIC, train_x)
    datasets._write_idx(directory / "train-labels-idx1-ubyte", datasets.IDX_LABELS_MAGIC, train_y)
    datasets._write_idx(directory / "t10k-images-idx3-ubyte", datasets.IDX_IMAGES_MAGIC, test_x)
    datasets._write_idx(directory / "t10k-labels-idx1-ubyte", datasets.IDX_LABELS_MAGIC, test_y)
    return directory


CHUNK = datasets._SURROGATE_CHUNK
# (n_train, n_test): both splits on each side of a chunk boundary, and splits of unequal chunk counts
SIZES = [(n, n) for n in (1, CHUNK - 1, CHUNK, CHUNK + 1, 2 * CHUNK + 3)] + [(1, 2 * CHUNK + 3), (CHUNK + 1, 1)]


@pytest.mark.parametrize("seed", range(4))
def test_surrogate_bytes_equal_the_per_sample_reference(tmp_path, seed):
    for n_train, n_test in SIZES:
        got = write_surrogate_digits(tmp_path / f"got{n_train}_{n_test}", seed, n_train, n_test)
        want = reference_surrogate_digits(tmp_path / f"want{n_train}_{n_test}", seed, n_train, n_test)
        for name in NAMES:
            assert (got / name).read_bytes() == (want / name).read_bytes(), (seed, n_train, n_test, name)


def test_surrogate_side_other_than_28_equals_the_reference(tmp_path):
    got = write_surrogate_digits(tmp_path / "got", 1, 7, 3, side=9)
    want = reference_surrogate_digits(tmp_path / "want", 1, 7, 3, side=9)
    for name in NAMES:
        assert (got / name).read_bytes() == (want / name).read_bytes(), name


def test_surrogate_bytes_are_pinned(tmp_path):
    # recorded before the chunked rewrite; a change to the digits must change these on purpose
    pinned = {
        "train-images-idx3-ubyte": "a9c999b6736626fecb467734169590830a9bcbbc9aae26acab8c0aefc9b87147",
        "train-labels-idx1-ubyte": "55613d180bc73c8609e8a360afc9899773b62e86e8d6b1dbad83c16e6c3bc7a7",
        "t10k-images-idx3-ubyte": "8682db152e5942ab51bbab35fcf6e53a09a48324ba98bd9ad0969d9c4bc33b69",
        "t10k-labels-idx1-ubyte": "6bad1952bd796a31af9bdf16fadc1510abc28b9282d9bfee5b7bb886e1fec0fc",
    }
    digits = write_surrogate_digits(tmp_path / "digits", seed=5, n_train=300, n_test=40)
    assert {name: hashlib.sha256((digits / name).read_bytes()).hexdigest() for name in pinned} == pinned


THREADS_CODE = """
import hashlib, sys
from xbarnet.datasets import PlantedSpec, gen_planted, write_surrogate_digits
digits = write_surrogate_digits(sys.argv[1], seed=5, n_train=300, n_test=40)
for name in sorted(p.name for p in digits.iterdir()):
    print(name, hashlib.sha256((digits / name).read_bytes()).hexdigest())
data, _, _ = gen_planted(PlantedSpec(in_dim=128, hidden=128, n_classes=2, block=16, n_train=300, n_test=50), 5)
for name in ("x_train", "y_train", "x_test", "y_test"):
    print(name, hashlib.sha256(getattr(data, name).tobytes()).hexdigest())
"""


def test_data_producers_write_the_same_bytes_at_two_blas_threads(tmp_path):
    """Surrogate digits and a 128-128-2 planted set in a process with two BLAS threads equal the bytes
    produced with one thread."""
    def digests(threads, directory):
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join([str(SRC), *filter(None, [os.environ.get("PYTHONPATH")])])}
        run = subprocess.run([sys.executable, "-c", THREADS_CODE, str(directory)], env=env,
                             capture_output=True, text=True, check=True)
        return run.stdout

    one, two = digests("1", tmp_path / "one"), digests("2", tmp_path / "two")
    assert len(one.splitlines()) == 9  # the four IDX files, the surrogate record and the four planted arrays
    assert one == two


def test_planted_data_are_pinned():
    # recorded from the whole-split float64 generator, its features cast to float32; the teacher labels in
    # float64, so neither the dtype the students train in nor the labelling chunk may move these bytes
    data, _, _ = gen_planted(PlantedSpec(in_dim=8, hidden=8, n_classes=3, block=4, n_train=300, n_test=50), 2)
    assert data.x_train.dtype == np.float32
    assert hashlib.sha256(data.x_train.tobytes()).hexdigest() == (
        "ad9f9403e7aba222e25f22b49b04c586781307889b648dda3f11434a256f94de"
    )
    assert hashlib.sha256(data.y_train.tobytes()).hexdigest() == (
        "1a30a7b4ee751e0eb24f04264e9c2f6d76de312330bde89b0da6a9ff6c05dcc2"
    )


def test_planted_block_need_not_divide_hidden():
    # 8 // 4 = 2 input blocks share 2 hidden units, one each, though block 4 does not divide hidden 2
    _, _, info = gen_planted(PlantedSpec(in_dim=8, hidden=2, block=4, n_train=20, n_test=10), 0)
    want = np.zeros((8, 2), dtype=np.uint8)
    want[:4, 0] = want[4:, 1] = 1
    assert info["n_blocks"] == 2 and np.array_equal(info["support"], want)


def test_planted_teacher_narrower_than_its_block_trains(tmp_path):
    config = {"dataset": {"kind": "planted", "in_dim": 8, "hidden": 2, "block": 4, "n_train": 40, "n_test": 20},
              "topology": [8, 2, 2], "transform": {"max_epochs": 1}, "tech": {"crossbar_rows": 4, "crossbar_cols": 4}}
    (tmp_path / "config.json").write_text(json.dumps(config))
    assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 0
    assert (tmp_path / "out" / "summary.csv").is_file()


# -- reference: the planted generator as it was, holding and labelling each split whole in float64 --------


def reference_planted(spec, seed):
    """(x_train, y_train, x_test, y_test) with float64 features, and the teacher."""
    rng = rng_for(seed, STREAM_DATA)
    n_blocks = spec.in_dim // spec.block
    support = np.zeros((spec.in_dim, spec.hidden), dtype=np.uint8)
    hidden_per_block = spec.hidden // n_blocks
    for b in range(n_blocks):
        support[b * spec.block : (b + 1) * spec.block, b * hidden_per_block : (b + 1) * hidden_per_block] = 1
    noise_mask = (rng.random(support.shape) < spec.noise_density) & (support == 0)
    magnitude = rng.uniform(0.5, 1.5, size=support.shape) * np.where(rng.random(support.shape) < 0.5, -1.0, 1.0)
    w1 = magnitude * (1.0 / np.sqrt(spec.block)) * (support + spec.noise_scale * noise_mask)
    w2 = rng.normal(0, 1.0 / np.sqrt(spec.hidden), size=(spec.hidden, spec.n_classes))
    teacher = mlp.MlpModel(
        [mlp.Layer(w1, np.zeros(spec.hidden)), mlp.Layer(w2, rng.normal(0, 0.01, size=spec.n_classes))]
    )

    def batch(n):
        x = rng.normal(size=(n, spec.in_dim))
        _, probs = mlp.forward(teacher, x)
        return x, probs.argmax(axis=1).astype(np.int64)

    return (*batch(spec.n_train), *batch(spec.n_test)), teacher


LABEL_CHUNK = datasets._PLANTED_LABEL_CHUNK
PLANTED_SIZES = [(n, n) for n in (1, LABEL_CHUNK - 1, LABEL_CHUNK, LABEL_CHUNK + 1, 2 * LABEL_CHUNK + 3)]
PLANTED_SIZES += [(1, 2 * LABEL_CHUNK + 3), (LABEL_CHUNK + 1, 1)]


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n_train, n_test", PLANTED_SIZES)
def test_planted_data_equal_the_whole_split_reference(seed, n_train, n_test):
    spec = PlantedSpec(in_dim=16, hidden=16, n_classes=3, block=4, n_train=n_train, n_test=n_test)
    data, teacher, _ = gen_planted(spec, seed)
    (x_train, y_train, x_test, y_test), want_teacher = reference_planted(spec, seed)
    for x, want in ((data.x_train, x_train), (data.x_test, x_test)):
        assert x.dtype == np.float32 and x.flags.c_contiguous
        assert x.tobytes() == want.astype(np.float32).tobytes()
    assert data.y_train.dtype == data.y_test.dtype == np.int64
    assert data.y_train.tobytes() == y_train.tobytes() and data.y_test.tobytes() == y_test.tobytes()
    for got, want in zip(teacher.layers, want_teacher.layers):
        assert got.weights.tobytes() == want.weights.tobytes() and got.bias.tobytes() == want.bias.tobytes()


def test_a_student_trains_alike_on_float64_features_and_their_float32_cast():
    spec = PlantedSpec(in_dim=16, hidden=16, n_classes=3, block=4, n_train=600, n_test=200)
    (x_train, y_train, x_test, y_test), _ = reference_planted(spec, 4)
    cfg = mlp.TrainConfig(learning_rate=0.2, batch_size=32)
    students = []
    for x, xt in ((x_train, x_test), (x_train.astype(np.float32), x_test.astype(np.float32))):
        model = mlp.init_model([16, 16, 3], seed=4)
        losses = [mlp.train_epoch(model, x, y_train, cfg, epoch=e, seed=4) for e in (1, 2)]
        students.append((model, losses, mlp.evaluate(model, xt, y_test)))
    (a, losses_a, eval_a), (b, losses_b, eval_b) = students
    for la, lb in zip(a.layers, b.layers):
        assert la.weights.tobytes() == lb.weights.tobytes() and la.bias.tobytes() == lb.bias.tobytes()
    assert losses_a == losses_b and eval_a == eval_b


def traced_peak(fn, *args):
    """(result, tracemalloc's peak in bytes) of ``fn(*args)``.

    Call ``fn`` once on a tiny input first: the first call of a producer
    imports and caches what later calls reuse, and that bookkeeping would
    make a peak depend on which tests ran before it.
    """
    tracemalloc.start()
    try:
        result = fn(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak


def test_planted_generation_peak_memory_is_bounded():
    # the returned 4000x128 and 1000x128 float32 features are 2.56 MB and the teacher with its support and
    # noise mask about 0.35 MB; one 512-row chunk adds its float64 features and the teacher's hidden
    # activations, 0.52 MB each, for 4.0 MB in all
    gen_planted(PlantedSpec(in_dim=8, hidden=8, block=4, n_train=3, n_test=2), 0)
    spec = PlantedSpec(in_dim=128, hidden=128, n_classes=2, block=16, n_train=4000, n_test=1000)
    _, peak = traced_peak(gen_planted, spec, 0)
    assert peak < 4.5e6


def test_surrogate_write_peak_memory_does_not_grow_with_sample_count(tmp_path):
    # the shifted-prototype table and one chunk's float and uint8 buffers come to about 8 MB whatever the
    # sample counts; only a split's labels and shifts grow, by 40 bytes a sample
    write_surrogate_digits(tmp_path / "warm", 0, 3, 2)
    _, small = traced_peak(write_surrogate_digits, tmp_path / "small", 0, 2000, 500)
    _, large = traced_peak(write_surrogate_digits, tmp_path / "large", 0, 12000, 3000)
    assert max(small, large) < 10e6
    assert abs(large - small) < 1e6


def test_load_mnist_peak_memory_is_the_bytes_it_returns(tmp_path, plain_dir):
    # each plain file is read with one allocation that the pixels are a view of; the labels' uint8 bytes
    # are the only other buffer
    digits = write_surrogate_digits(tmp_path / "digits", 0, 6000, 2000)
    load_mnist(plain_dir)
    data, peak = traced_peak(load_mnist, digits)
    returned = sum(a.nbytes for a in (data.x_train, data.y_train, data.x_test, data.y_test))
    assert peak <= returned + 0.5e6


def test_an_idx_header_claiming_2_31_images_is_rejected_in_bounded_peak_memory(tmp_path, plain_dir):
    # the header claims 2**31 * 28 * 28 bytes, about 1.7 TB, over one image's worth: the length check must
    # reject it from the bytes the file holds, allocating nothing of what the header claims
    path = tmp_path / "train-images-idx3-ubyte"
    path.write_bytes(struct.pack(">4I", datasets.IDX_IMAGES_MAGIC, 2**31, 28, 28) + bytes(28 * 28))
    datasets.read_idx_images(plain_dir / "train-images-idx3-ubyte")
    tracemalloc.start()
    try:
        with pytest.raises(InputFormatError, match=f"truncated data, expected {2**31 * 28 * 28} bytes, got 784"):
            datasets.read_idx_images(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
