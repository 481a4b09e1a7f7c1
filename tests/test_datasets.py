"""IDX ingestion: gzipped files under the dotted names, and damaged gzip streams exit 2."""

import gzip
import json
import zlib

import numpy as np
import pytest

from xbarnet import cli
from xbarnet.datasets import load_mnist, write_surrogate_digits

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
