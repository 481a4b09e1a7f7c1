"""End-to-end CLI runs on a tiny planted config: artifact round trips and reruns."""

import json
import struct

import numpy as np
import pytest

from xbarnet import cli
from xbarnet.datasets import write_surrogate_digits
from xbarnet.mlp import load_checkpoint

CONFIG = {
    "dataset": {"kind": "planted", "in_dim": 32, "hidden": 32, "n_classes": 2, "block": 8,
                "n_train": 400, "n_test": 100},
    "topology": [32, 32, 2],
    "seed": 3,
    "train": {"learning_rate": 0.2, "batch_size": 32},
    "transform": {"max_epochs": 4},
    "scic": {"max_rounds": 8},
    "tech": {"crossbar_rows": 8, "crossbar_cols": 8},
}


@pytest.fixture()
def config(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(CONFIG))
    return str(path)


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def test_map_and_report_rebuild_the_saved_artifacts(tmp_path, config):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--mode", "transform", "--out", str(run)]) == 0
    assert json.loads((run / "clusters.json").read_text())  # the round trip carries clusters

    rebuilt = tmp_path / "rebuilt"
    assert cli.main(["map", "--config", config, "--checkpoint", str(run / "checkpoint"),
                     "--clusters", str(run / "clusters.json"), "--out", str(rebuilt / "mapping.json")]) == 0
    assert (rebuilt / "mapping.json").read_bytes() == (run / "mapping.json").read_bytes()

    assert cli.main(["report", "--config", config, "--mapping", str(rebuilt / "mapping.json"),
                     "--storage", "clustered", "--out", str(rebuilt / "energy.json")]) == 0
    saved = json.loads((run / "energy.json").read_text())
    assert saved["storage_model"] == "clustered"
    assert json.loads((rebuilt / "energy.json").read_text()) == saved

    records = json.loads((run / "clusters.json").read_text())
    records[1]["covered"].append(records[0]["covered"][0])  # cluster 1 also claims a cell of cluster 0
    (tmp_path / "bad.json").write_text(json.dumps(records))
    assert cli.main(["map", "--config", config, "--checkpoint", str(run / "checkpoint"),
                     "--clusters", str(tmp_path / "bad.json"), "--out", str(tmp_path / "m.json")]) == 2


def test_train_runs_the_offline_cluster_mode(tmp_path, config, capsys):
    run = tmp_path / "run"
    assert cli.main(["train", "--config", config, "--mode", "offline_cluster", "--out", str(run)]) == 0
    assert json.loads((run / "clusters.json").read_text())
    assert (run / "summary.csv").read_text().splitlines()[1].startswith("offline_cluster,")
    assert cli.main(["train", "--config", config, "--mode", "tile", "--out", str(tmp_path / "x")]) == 2
    assert "mode: 'tile' not one of" in capsys.readouterr().err


def test_compare_reruns_are_byte_identical(tmp_path, config):
    for name in ("a", "b"):
        assert cli.main(["compare", "--config", config, "--out", str(tmp_path / name)]) == 0
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert "summary.csv" in a and "transform/clusters.json" in a
    assert a == b


@pytest.fixture(scope="module")
def pruned_run(tmp_path_factory):
    """A prune-only run on an 8x8 crossbar, and its config file."""
    root = tmp_path_factory.mktemp("pruned")
    (root / "config.json").write_text(json.dumps(CONFIG))
    config = str(root / "config.json")
    assert cli.main(["train", "--config", config, "--mode", "prune", "--out", str(root / "run")]) == 0
    return root


def damage_clusters(run, bad):
    """A 9-row cluster on the 8x8 crossbar; its one covered cell is a live synapse."""
    w = load_checkpoint(run / "checkpoint")[0].layers[0].weights
    i, j = (int(v) for v in np.argwhere(w[:9] != 0)[0])
    record = {"layer": 0, "rows": list(range(9)), "cols": [j], "covered": [[i, j]]}
    (bad / "clusters.json").write_text(json.dumps([record]))
    return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def clusters_float_cell(run, bad):
    """A one-cell cluster on a live synapse whose covered cell is written as floats."""
    w = load_checkpoint(run / "checkpoint")[0].layers[0].weights
    i, j = (int(v) for v in np.argwhere(w != 0)[0])
    record = {"layer": 0, "rows": [i], "cols": [j], "covered": [[i + 0.25, float(j)]]}
    (bad / "clusters.json").write_text(json.dumps([record]))
    return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def clusters_object(run, bad):
    """A top-level object instead of a list of records; it once read as "no clusters" and mapped everything."""
    (bad / "clusters.json").write_text("{}")
    return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def clusters_not_utf8(run, bad):
    (bad / "clusters.json").write_bytes(b"\xff\xfe" + (run / "clusters.json").read_bytes())
    return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def damage_mapping(run, bad):
    mapping = json.loads((run / "mapping.json").read_text())
    del mapping["layers"][0]["cluster_areas"]
    (bad / "mapping.json").write_text(json.dumps(mapping))
    return ["report", "--mapping", str(bad / "mapping.json")]


def mapping_not_json(run, bad):
    (bad / "mapping.json").write_text((run / "mapping.json").read_text()[:-2])
    return ["report", "--mapping", str(bad / "mapping.json")]


def mapping_not_utf8(run, bad):
    (bad / "mapping.json").write_bytes(b"\xff\xfe" + (run / "mapping.json").read_bytes())
    return ["report", "--mapping", str(bad / "mapping.json")]


def edited_mapping(top=(), **layer0):
    """A damage that overwrites ``top`` keys of mapping.json and ``layer0`` keys of its first layer."""
    def damage(run, bad):
        mapping = json.loads((run / "mapping.json").read_text())
        mapping.update(top)
        mapping["layers"][0].update(layer0)
        (bad / "mapping.json").write_text(json.dumps(mapping))
        return ["report", "--mapping", str(bad / "mapping.json")]
    return damage


def damage_checkpoint(run, bad):
    for suffix in (".json", ".bin"):
        (bad / f"checkpoint{suffix}").write_bytes((run / f"checkpoint{suffix}").read_bytes())
    (bad / "checkpoint.bin").write_bytes((run / "checkpoint.bin").read_bytes()[:-4])
    return ["map", "--checkpoint", str(bad / "checkpoint"), "--clusters", str(run / "clusters.json")]


def checkpoint_copy(edit):
    """A damage that copies the run's checkpoint pair and applies ``edit(manifest, blob)`` to the copy."""
    def damage(run, bad):
        manifest, blob = edit(json.loads((run / "checkpoint.json").read_text()), (run / "checkpoint.bin").read_bytes())
        (bad / "checkpoint.json").write_text(json.dumps(manifest))
        (bad / "checkpoint.bin").write_bytes(blob)
        return ["map", "--checkpoint", str(bad / "checkpoint"), "--clusters", str(run / "clusters.json")]
    return damage


def huge_first_block(manifest, blob):
    """The first block's header claims 2**63 + 5 bytes, far more than the file holds."""
    return manifest, struct.pack("<Q", 2**63 + 5) + blob[8:]


def layer0_only(manifest, blob):
    """The manifest cut down to layer 0's two blocks, and the bytes of those blocks."""
    (n_weights,) = struct.unpack("<Q", blob[:8])
    (n_bias,) = struct.unpack("<Q", blob[8 + n_weights : 16 + n_weights])
    return {**manifest, "blocks": manifest["blocks"][:2]}, blob[: 16 + n_weights + n_bias]


def v1_checkpoint(run, bad):
    """The same model in the v1 layout, which stored a float64 mask block after each layer's bias."""
    model, manifest = load_checkpoint(run / "checkpoint")
    blocks, names = [], []
    for i, layer in enumerate(model.layers):
        live = (layer.weights != 0).astype(np.float64)
        blocks += [layer.weights, layer.bias, live]
        names += [{"name": f"layer{i}.{part}", "shape": list(block.shape)}
                  for part, block in (("weights", layer.weights), ("bias", layer.bias), ("mask", live))]
    (bad / "checkpoint.json").write_text(json.dumps({**manifest, "format": "xbarnet-checkpoint-v1", "blocks": names}))
    (bad / "checkpoint.bin").write_bytes(
        b"".join(struct.pack("<Q", block.nbytes) + block.astype("<f8").tobytes() for block in blocks)
    )
    return ["map", "--checkpoint", str(bad / "checkpoint"), "--clusters", str(run / "clusters.json")]


@pytest.mark.parametrize(
    "damage, message",
    [(damage_clusters, "cluster 9x1 exceeds crossbar 8x8"),
     (clusters_float_cell, "record 0: TypeError: covered must be a list of [row, col] integer pairs"),
     (clusters_not_utf8, "clusters.json: not UTF-8 text"),
     (clusters_object, "the top level must be a JSON list of cluster records, got {}"),
     (damage_mapping, "KeyError: 'cluster_areas'"),
     (mapping_not_json, "JSONDecodeError"),
     (edited_mapping(cluster_active="x"), "cluster_active must be a list of non-negative integers below 2**63, got 'x'"),
     (mapping_not_utf8, "mapping document: UnicodeDecodeError: 'utf-8' codec can't decode byte 0xff"),
     (edited_mapping(cluster_active=[3, 4], cluster_areas=[4]), "layer 0: 1 cluster_areas for 2 cluster_active"),
     (edited_mapping(cluster_active=[65], cluster_areas=[64]), "layer 0: a cluster_active lies outside 1..its cluster area"),
     (edited_mapping(cluster_active=[0], cluster_areas=[4]), "layer 0: a cluster_active lies outside 1..its cluster area"),
     (edited_mapping(cluster_active=[1], cluster_areas=[65]), "layer 0: cluster area 65 exceeds crossbar 8x8"),
     (edited_mapping(residual_active=[999999]), "layer 0: a residual_active lies outside 1..64"),
     (edited_mapping(top={"crossbar_rows": 0}), "crossbar 0x8 is empty"),
     (edited_mapping(matrix_shape=[1, 1]), "live synapses exceed matrix_shape 1x1"),
     (edited_mapping(top={"crossbar_rows": 10**400}, cluster_active=[10**400], cluster_areas=[10**400],
                     matrix_shape=[10**400, 10**400]),
      "crossbar_rows and crossbar_cols must be a list of non-negative integers below 2**63"),
     (damage_checkpoint, "truncated block layer1.bias"),
     (v1_checkpoint, "unrecognized checkpoint format 'xbarnet-checkpoint-v1'"),
     (checkpoint_copy(lambda manifest, blob: (manifest, blob + b"garbage")), "bytes left after the last listed block"),
     (checkpoint_copy(lambda manifest, blob: ({**manifest, "blocks": manifest["blocks"][:2]}, blob)),
      "bytes left after the last listed block"),
     (checkpoint_copy(layer0_only), "layer shapes [(32, 32)] do not chain into topology [32, 32, 2]"),
     (checkpoint_copy(huge_first_block), "truncated block layer0.weights: expected 9223372036854775813 bytes")],
    ids=["oversized_cluster", "clusters_float_cell", "clusters_not_utf8", "clusters_object", "mapping_missing_key",
         "mapping_not_json", "mapping_wrong_type", "mapping_not_utf8", "mapping_areas_count", "mapping_active_above_area",
         "mapping_active_zero", "mapping_area_above_crossbar", "mapping_residual_above_crossbar",
         "mapping_zero_crossbar", "mapping_shape_below_live", "mapping_counts_beyond_int64", "truncated_checkpoint",
         "v1_checkpoint", "checkpoint_appended_bytes", "manifest_without_layer1", "checkpoint_layer0_only",
         "checkpoint_block_longer_than_file"],
)
def test_damaged_input_files_exit_2(tmp_path, pruned_run, capsys, damage, message):
    args = damage(pruned_run / "run", tmp_path)
    assert cli.main(args + ["--config", str(pruned_run / "config.json"), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


def test_report_with_evals_per_inference_exits_2(tmp_path, pruned_run, capsys):
    # the per-layer energy multiplier is gone; a config that still sets it is a mistake
    (tmp_path / "config.json").write_text(json.dumps({**CONFIG, "evals_per_inference": [1, 1]}))
    assert cli.main(["report", "--config", str(tmp_path / "config.json"), "--mapping",
                     str(pruned_run / "run" / "mapping.json"), "--out", str(tmp_path / "energy.json")]) == 2
    assert "evals_per_inference: unknown top-level key" in capsys.readouterr().err
    assert not (tmp_path / "energy.json").exists()


@pytest.mark.parametrize(
    "argv, message",
    [(["map", "--checkpoint", "{run}/checkpoint", "--clusters", "{dir}", "--out", "{out}"], "{dir}: is a directory"),
     (["report", "--mapping", "{dir}", "--out", "{out}"], "{dir}: is a directory"),
     (["cluster", "--checkpoint", "{run}/checkpoint", "--out", "{dir}"], "{dir}: is a directory"),
     (["map", "--checkpoint", "{run}/checkpoint", "--clusters", "{run}/clusters.json", "--out", "{dir}"],
      "{dir}: is a directory"),
     (["report", "--mapping", "{run}/mapping.json", "--out", "{dir}"], "{dir}: is a directory"),
     (["map", "--checkpoint", "{run}/checkpoint", "--clusters", "{dir}/none.json", "--out", "{out}"],
      "missing input: [Errno 2] No such file or directory: '{dir}/none.json'"),
     (["map", "--checkpoint", "{run}/checkpoint", "--clusters", "{file}/x", "--out", "{out}"],
      "{file}/x: a file stands where the path needs a directory"),
     (["cluster", "--checkpoint", "{run}/checkpoint", "--out", "{file}/c.json"],
      "{file}: a file stands where the path needs a directory"),
     (["compare", "--out", "{file}/x"], "{file}/x: a file stands where the path needs a directory")],
    ids=["map_clusters_dir", "report_mapping_dir", "cluster_out_dir", "map_out_dir", "report_out_dir",
         "map_clusters_missing", "map_clusters_under_file", "cluster_out_under_file", "compare_out_under_file"],
)
def test_unusable_paths_exit_2(tmp_path, pruned_run, capsys, argv, message):
    """A directory where a file is read or written, a file where a directory is needed,
    or a missing input file, exits 2 naming the path."""
    (tmp_path / "dir").mkdir()
    (tmp_path / "file").write_text("")
    names = {"run": pruned_run / "run", "dir": tmp_path / "dir", "file": tmp_path / "file",
             "out": tmp_path / "out.json"}
    args = [arg.format(**names) for arg in argv]
    assert cli.main(args + ["--config", str(pruned_run / "config.json")]) == 2
    assert message.format(**names) in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, message",
    [(["train", "--config", "{deep}.json"], "{deep}.json: not valid JSON (maximum recursion depth exceeded"),
     (["report", "--config", "{config}", "--mapping", "{deep}.json"],
      "mapping document: RecursionError: maximum recursion depth exceeded"),
     (["map", "--config", "{config}", "--checkpoint", "{deep}", "--clusters", "{run}/clusters.json"],
      "checkpoint {deep}: maximum recursion depth exceeded")],
    ids=["config", "mapping", "checkpoint_manifest"],
)
def test_deeply_nested_json_exits_2(tmp_path, pruned_run, capsys, argv, message):
    """JSON nested deeper than the parser can recurse is a bad input file, not a crash."""
    (tmp_path / "deep.json").write_text("[" * 200_000 + "]" * 200_000)
    names = {"deep": tmp_path / "deep", "config": pruned_run / "config.json", "run": pruned_run / "run"}
    args = [arg.format(**names) for arg in argv]
    assert cli.main(args + ["--out", str(tmp_path / "out")]) == 2
    assert message.format(**names) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "argv",
    [["cluster", "--checkpoint", "c"], ["map", "--checkpoint", "c", "--clusters", "c.json"],
     ["report", "--mapping", "m.json"], ["compare"]],
    ids=["cluster", "map", "report", "compare"],
)
def test_mode_flag_is_only_on_train(config, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv + ["--config", config, "--mode", "prune"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --mode prune" in capsys.readouterr().err


class TestClusterCommand:
    def test_checkpoint(self, tmp_path, config):
        run = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--mode", "prune", "--out", str(run)]) == 0
        out = tmp_path / "clusters.json"
        assert cli.main(["cluster", "--config", config, "--checkpoint", str(run / "checkpoint"),
                         "--out", str(out)]) == 0
        assert cli.main(["map", "--config", config, "--checkpoint", str(run / "checkpoint"),
                         "--clusters", str(out), "--out", str(tmp_path / "mapping.json")]) == 0
        mapping = json.loads((tmp_path / "mapping.json").read_text())
        assert mapping["n_clusters"] == len(json.loads(out.read_text())) > 0

    @pytest.mark.parametrize("inputs", [[]], ids=["neither"])
    def test_not_exactly_one_input_exits_2(self, tmp_path, config, capsys, inputs):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cluster", "--config", config, "--out", str(tmp_path / "c.json"), *inputs])
        assert exc.value.code == 2
        assert "--checkpoint" in capsys.readouterr().err

    def test_matrix_input_is_gone_exits_2(self, tmp_path, config, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["cluster", "--config", config, "--checkpoint", "c", "--matrix", "m.txt",
                      "--out", str(tmp_path / "c.json")])
        assert exc.value.code == 2
        assert "unrecognized arguments: --matrix m.txt" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv, name",
    [(["cluster", "--checkpoint", "{run}/checkpoint"], "clusters.json"),
     (["map", "--checkpoint", "{run}/checkpoint", "--clusters", "{run}/clusters.json"], "mapping.json"),
     (["report", "--mapping", "{run}/mapping.json"], "energy.json")],
    ids=["cluster", "map", "report"],
)
def test_config_out_dir_is_the_output_directory(tmp_path, pruned_run, argv, name):
    """Without --out, the file goes into the config's out_dir, a directory as `compare` leaves it."""
    out_dir = tmp_path / "runs"
    out_dir.mkdir()
    (tmp_path / "config.json").write_text(json.dumps({**CONFIG, "out_dir": str(out_dir)}))
    args = [arg.format(run=pruned_run / "run") for arg in argv]
    assert cli.main(args + ["--config", str(tmp_path / "config.json")]) == 0
    assert json.loads((out_dir / name).read_text()) is not None


def truncate_test_images(digits):
    images = digits / "t10k-images-idx3-ubyte"
    images.write_bytes(images.read_bytes()[:-5])


def empty_idx_files(prefix):
    def damage(digits):
        write_idx_images(digits / f"{prefix}-images-idx3-ubyte", np.zeros((0, 28, 28)))
        write_idx_labels(digits / f"{prefix}-labels-idx1-ubyte", np.zeros(0))
    return damage


@pytest.mark.parametrize(
    "damage, message",
    [(truncate_test_images, "truncated data"),
     (empty_idx_files("train"), "train-images-idx3-ubyte: no images"),
     (empty_idx_files("t10k"), "t10k-images-idx3-ubyte: no images")],
    ids=["truncated", "empty_train", "empty_test"],
)
def test_truncated_idx_file_exits_2(tmp_path, capsys, damage, message):
    write_surrogate_digits(tmp_path / "digits", seed=0, n_train=20, n_test=10)
    damage(tmp_path / "digits")
    raw = {"dataset": {"kind": "mnist", "dir": str(tmp_path / "digits")}, "topology": [784, 4, 10],
           "mode": "original", "transform": {"max_epochs": 1}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "compare"])
def test_unreadable_dataset_leaves_no_output_directory(tmp_path, capsys, command):
    write_surrogate_digits(tmp_path / "digits", seed=0, n_train=20, n_test=10)
    (tmp_path / "digits" / "train-images-idx3-ubyte").write_bytes(b"\x00")
    raw = {"dataset": {"kind": "mnist", "dir": str(tmp_path / "digits")}, "topology": [784, 4, 10],
           "transform": {"max_epochs": 1}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main([command, "--config", str(tmp_path / "config.json"), "--out", str(tmp_path / "out")]) == 2
    assert "train-images-idx3-ubyte: truncated header, got 1 bytes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def write_idx_images(path, images):
    """IDX image file: magic 2051, count, rows, cols (big-endian), then the uint8 pixels."""
    path.write_bytes(struct.pack(">4I", 2051, *images.shape) + images.astype(np.uint8).tobytes())


def write_idx_labels(path, labels):
    path.write_bytes(struct.pack(">2I", 2049, len(labels)) + labels.astype(np.uint8).tobytes())


def test_test_images_of_another_size_exit_2(tmp_path, capsys):
    digits = tmp_path / "digits"
    digits.mkdir()
    write_idx_images(digits / "train-images-idx3-ubyte", np.zeros((8, 4, 4)))
    write_idx_labels(digits / "train-labels-idx1-ubyte", np.arange(8) % 2)
    write_idx_images(digits / "t10k-images-idx3-ubyte", np.zeros((4, 3, 3)))
    write_idx_labels(digits / "t10k-labels-idx1-ubyte", np.arange(4) % 2)
    raw = {"dataset": {"kind": "mnist", "dir": str(digits)}, "topology": [16, 4, 2], "transform": {"max_epochs": 1}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert cli.main(["train", "--config", str(tmp_path / "config.json"), "--mode", "transform",
                     "--out", str(tmp_path / "out")]) == 2
    assert "train images are 4x4 but test images are 3x3" in capsys.readouterr().err
