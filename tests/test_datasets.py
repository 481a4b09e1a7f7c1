"""IDX ingestion: gzipped files under the dotted names, damaged gzip streams exit 2, surrogate bytes."""

import gzip
import hashlib
import json
import zlib
from pathlib import Path

import numpy as np
import pytest

from xbarnet import cli, datasets
from xbarnet.datasets import PlantedSpec, gen_planted, load_mnist, write_surrogate_digits
from xbarnet.util import STREAM_DATA, rng_for

# the undotted names the surrogate writes, and the dotted names some distributions use
NAMES = {
    "train-images-idx3-ubyte": "train-images.idx3-ubyte",
    "train-labels-idx1-ubyte": "train-labels.idx1-ubyte",
    "t10k-images-idx3-ubyte": "t10k-images.idx3-ubyte",
    "t10k-labels-idx1-ubyte": "t10k-labels.idx1-ubyte",
}


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


def reference_surrogate_digits(directory, seed, n_train, n_test, side=28):
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = rng_for(seed, STREAM_DATA)
    protos = datasets._render_prototypes(rng, 10, side)

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


def test_planted_data_are_pinned():
    # the teacher labels in float64, so the dtype the students train in must not move these bytes
    data, _, _ = gen_planted(PlantedSpec(in_dim=8, hidden=8, n_classes=3, block=4, n_train=300, n_test=50), 2)
    digest = hashlib.sha256(data.x_train.tobytes() + data.y_train.tobytes()).hexdigest()
    assert digest == "51e0302c9d3ada0b94cea85a55cb79b31394dd90d72ce1038c4fb68045fa11fe"
