"""End-to-end CLI runs on a tiny planted config: artifact round trips and reruns."""

import contextlib
import io
import json
import shutil
import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarnet import cli, connectivity, hardware
from xbarnet.config import load_config
from xbarnet.datasets import write_surrogate_digits
from xbarnet.mlp import load_checkpoint, save_checkpoint

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


@pytest.fixture(scope="module")
def transform_run(tmp_path_factory):
    """A transform run on an 8x8 crossbar that holds clusters, and its config file."""
    root = tmp_path_factory.mktemp("transform")
    (root / "config.json").write_text(json.dumps(CONFIG))
    assert cli.main(["train", "--config", str(root / "config.json"), "--mode", "transform",
                     "--out", str(root / "run")]) == 0
    return root


def without_rows_and_cols(record):
    return {"layer": record["layer"], "covered": record["covered"]}


def shuffled_rows_and_cols(record):
    return {**record, "rows": record["rows"][::-1], "cols": record["cols"][1:] + record["cols"][:1]}


def wrong_rows_and_cols(record):
    return {**record, "rows": [0], "cols": list(range(40))}


@pytest.mark.parametrize("edit", [without_rows_and_cols, shuffled_rows_and_cols, wrong_rows_and_cols],
                         ids=["removed", "shuffled", "wrong"])
def test_map_reads_clusters_by_their_covered_cells(tmp_path, transform_run, edit):
    """rows and cols are derived from the covered cells: removed, shuffled or wrong, the file maps to the
    saved mapping.json byte for byte."""
    run = transform_run / "run"
    records = json.loads((run / "clusters.json").read_text())
    assert records and any(len(r["rows"]) > 1 for r in records)
    (tmp_path / "clusters.json").write_text(json.dumps([edit(r) for r in records]))
    assert cli.main(["map", "--config", str(transform_run / "config.json"), "--checkpoint", str(run / "checkpoint"),
                     "--clusters", str(tmp_path / "clusters.json"), "--out", str(tmp_path / "mapping.json")]) == 0
    assert (tmp_path / "mapping.json").read_bytes() == (run / "mapping.json").read_bytes()


def test_map_checks_each_owner_matrix_once(tmp_path, transform_run, monkeypatch):
    """One ``xbarnet map`` of a two-layer arm runs check_owner once per layer. The binding in connectivity is
    counted too, so a second check of the same matrices by the clusters.json reader would show."""
    calls, check_owner = [], connectivity.check_owner

    def counted(owner, weights, crossbar):
        calls.append(owner.shape)
        return check_owner(owner, weights, crossbar)

    monkeypatch.setattr(hardware, "check_owner", counted)
    monkeypatch.setattr(connectivity, "check_owner", counted)
    run = transform_run / "run"
    assert cli.main(["map", "--config", str(transform_run / "config.json"), "--checkpoint", str(run / "checkpoint"),
                     "--clusters", str(run / "clusters.json"), "--out", str(tmp_path / "mapping.json")]) == 0
    assert calls == [(32, 32), (32, 2)]
    assert (tmp_path / "mapping.json").read_bytes() == (run / "mapping.json").read_bytes()


def dead_cell(w):
    return [int(v) for v in np.argwhere(w == 0)[0]]


def nine_of_a_column(w):
    """Nine live cells of the first column of ``w`` that holds nine: a 9x1 footprint, over an 8x8 crossbar."""
    j = int(np.flatnonzero(np.count_nonzero(w, axis=0) >= 9)[0])
    return [[int(i), j] for i in np.flatnonzero(w[:, j])[:9]]


@pytest.mark.parametrize(
    "make, message",
    [(lambda ws: [{"layer": 1, "covered": [dead_cell(ws[1])]}], "layer 1: a covered cell is not a synapse"),
     (lambda ws: [{"layer": 1, "covered": nine_of_a_column(ws[1])}], "layer 1: cluster 9x1 exceeds crossbar 8x8"),
     (lambda ws: [{"layer": 0, "covered": [dead_cell(ws[0])]}, {"layer": 1, "covered": [[0, 2]]}],
      "layer 1: a covered cell lies outside the 32x2 matrix")],
    ids=["dead_cell", "over_the_crossbar", "decoding_fault_after_a_checking_fault"],
)
def test_map_names_the_layer_the_owner_check_or_the_reader_rejects(tmp_path, pruned_run, capsys, make, message):
    """The reader decodes a covered dead cell or a footprint over the crossbar, and the mapper's owner check
    rejects it; ``xbarnet map`` exits 2 with that one line. Every layer is decoded before any is checked, so a
    decoding fault in layer 1 is reported over a checking fault in layer 0."""
    run = pruned_run / "run"
    weights = [layer.weights for layer in load_checkpoint(run / "checkpoint")[0].layers]
    (tmp_path / "clusters.json").write_text(json.dumps(make(weights)))
    assert cli.main(["map", "--config", str(pruned_run / "config.json"), "--checkpoint", str(run / "checkpoint"),
                     "--clusters", str(tmp_path / "clusters.json"), "--out", str(tmp_path / "out.json")]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "out.json").exists()


def damage_clusters(run, bad):
    """A cluster of nine live synapses of one column on the 8x8 crossbar; its rows and cols name one cell."""
    w = load_checkpoint(run / "checkpoint")[0].layers[0].weights
    j = int(np.flatnonzero(np.count_nonzero(w, axis=0) >= 9)[0])
    rows = np.flatnonzero(w[:, j])[:9].tolist()
    record = {"layer": 0, "rows": rows[:1], "cols": [j], "covered": [[i, j] for i in rows]}
    (bad / "clusters.json").write_text(json.dumps([record]))
    return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def clusters_float_cell(run, bad):
    """A one-cell cluster on a live synapse whose covered cell is written as floats."""
    w = load_checkpoint(run / "checkpoint")[0].layers[0].weights
    i, j = (int(v) for v in np.argwhere(w != 0)[0])
    record = {"layer": 0, "rows": [i], "cols": [j], "covered": [[i + 0.25, float(j)]]}
    (bad / "clusters.json").write_text(json.dumps([record]))
    return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def clusters_on_a_zeroed_weight(run, bad):
    """A one-cell cluster on a synapse of layer 0, mapped against a checkpoint copy where that weight is zero."""
    model, manifest = load_checkpoint(run / "checkpoint")
    w = model.layers[0].weights
    i, j = (int(v) for v in np.argwhere(w != 0)[0])
    (bad / "clusters.json").write_text(json.dumps([{"layer": 0, "rows": [i], "cols": [j], "covered": [[i, j]]}]))
    w[i, j] = 0.0
    save_checkpoint(bad / "checkpoint", model, manifest["seed"], manifest["config"])
    return ["map", "--checkpoint", str(bad / "checkpoint"), "--clusters", str(bad / "clusters.json")]


def clusters_of(make):
    """A clusters.json whose records (or text, if ``make`` returns a str) ``make`` builds from layer 0's weights."""
    def damage(run, bad):
        made = make(load_checkpoint(run / "checkpoint")[0].layers[0].weights)
        (bad / "clusters.json").write_text(made if isinstance(made, str) else json.dumps(made))
        return ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / "clusters.json")]
    return damage


def live_cell(w):
    return [int(v) for v in np.argwhere(w != 0)[0]]


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


def huge_topology(manifest, blob):
    """The topology claims 2**31 x 2**31 weights, far more than the file holds."""
    return {**manifest, "topology": [2**31, 2**31]}, blob


def layer0_only(manifest, blob):
    """The bytes of layer 0's weights and bias alone, under the full topology."""
    return manifest, blob[: 4 * (32 * 32 + 32)]


def earlier_checkpoint(version, parts):
    """A damage that writes the run's model in an earlier layout: ``parts`` of each layer as
    length-prefixed float64 blocks, named in the manifest's ``blocks`` list."""
    def damage(run, bad):
        model, manifest = load_checkpoint(run / "checkpoint")
        blocks, names = [], []
        for i, layer in enumerate(model.layers):
            for part in parts:
                block = (layer.weights != 0) if part == "mask" else getattr(layer, part)
                blocks.append(block.astype("<f8"))
                names.append({"name": f"layer{i}.{part}", "shape": list(block.shape)})
        (bad / "checkpoint.json").write_text(json.dumps({**manifest, "format": f"xbarnet-checkpoint-{version}",
                                                         "blocks": names}))
        (bad / "checkpoint.bin").write_bytes(b"".join(struct.pack("<Q", b.nbytes) + b.tobytes() for b in blocks))
        return ["map", "--checkpoint", str(bad / "checkpoint"), "--clusters", str(run / "clusters.json")]
    return damage


@pytest.mark.parametrize(
    "damage, message",
    [(damage_clusters, "layer 0: cluster 9x1 exceeds crossbar 8x8"),
     (clusters_float_cell, "record 0: TypeError: covered must be a list of [row, col] integer pairs"),
     (clusters_not_utf8, "clusters.json: not UTF-8 text"),
     (clusters_object, "the top level must be a JSON list of cluster records, got {}"),
     (clusters_on_a_zeroed_weight, "layer 0: a covered cell is not a synapse"),
     (clusters_of(lambda w: '[{"layer": 0, "covered": [['), "not JSON (JSONDecodeError"),
     (clusters_of(lambda w: [[0, [live_cell(w)]]]), "record 0: TypeError: a record must be an object"),
     (clusters_of(lambda w: [{"layer": 2, "covered": [live_cell(w)]}]), "record 0: ValueError: unknown layer 2"),
     (clusters_of(lambda w: [{"layer": 0, "rows": [0], "cols": [0]}]), "record 0: KeyError: 'covered'"),
     (clusters_of(lambda w: [{"layer": 0, "covered": [[0, 32]]}]), "layer 0: a covered cell lies outside the 32x32"),
     (clusters_of(lambda w: [{"layer": 0, "covered": [live_cell(w)]}] * 2), "layer 0: a cell is covered twice"),
     (clusters_of(lambda w: [{"layer": 0, "covered": [live_cell(w)]}, {"layer": 0, "covered": []}]),
      "layer 0: cluster 1 owns no cell"),
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
     (damage_checkpoint, ".bin holds 4484 bytes where the topology needs 4488"),
     (earlier_checkpoint("v1", ("weights", "bias", "mask")),
      "unrecognized checkpoint format 'xbarnet-checkpoint-v1'"),
     (earlier_checkpoint("v2", ("weights", "bias")), "unrecognized checkpoint format 'xbarnet-checkpoint-v2'"),
     (checkpoint_copy(lambda manifest, blob: (manifest, blob + b"garbage")),
      ".bin holds 4495 bytes where the topology needs 4488"),
     (checkpoint_copy(lambda manifest, blob: ({**manifest, "topology": [32, 32]}, blob)),
      ".bin holds 4488 bytes where the topology needs 4224"),
     (checkpoint_copy(layer0_only), ".bin holds 4224 bytes where the topology needs 4488"),
     (checkpoint_copy(huge_topology), f".bin holds 4488 bytes where the topology needs {4 * (2**62 + 2**31)}")],
    ids=["oversized_cluster", "clusters_float_cell", "clusters_not_utf8", "clusters_object",
         "clusters_on_a_zeroed_weight", "clusters_not_json", "clusters_record_not_object",
         "clusters_unknown_layer", "clusters_without_covered", "clusters_cell_outside_the_matrix",
         "clusters_cell_covered_twice", "clusters_empty_cluster", "mapping_missing_key",
         "mapping_not_json", "mapping_wrong_type", "mapping_not_utf8", "mapping_areas_count", "mapping_active_above_area",
         "mapping_active_zero", "mapping_area_above_crossbar", "mapping_residual_above_crossbar",
         "mapping_zero_crossbar", "mapping_shape_below_live", "mapping_counts_beyond_int64", "truncated_checkpoint",
         "v1_checkpoint", "v2_checkpoint", "checkpoint_appended_bytes", "manifest_without_layer1",
         "checkpoint_layer0_only", "checkpoint_block_longer_than_file"],
)
def test_damaged_input_files_exit_2(tmp_path, pruned_run, capsys, damage, message):
    args = damage(pruned_run / "run", tmp_path)
    assert cli.main(args + ["--config", str(pruned_run / "config.json"), "--out", str(tmp_path / "out.json")]) == 2
    assert message in capsys.readouterr().err
    assert not (tmp_path / "out.json").exists()


# what a damaged artifact holds in place of a value: every JSON type, NaN, and ints past int64 at both ends
DAMAGE_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), -1),
    st.integers(2**63, 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.just(float("nan")),
    st.text(max_size=4),
    st.lists(st.integers(-1, 40), max_size=3),
    st.dictionaries(st.sampled_from(["layer", "covered", "topology", "x"]), st.integers(-1, 40), max_size=2),
)


def damaged(data, doc):
    """``doc`` with one value changed, dropped or replaced, or replaced whole.

    Half the time one of its numbers, drawn from all of them alike, becomes an int in a tiny arm's range: that
    mostly moves a covered cell or a count deep in the document. Else a value found by descending from the top,
    one drawn key or index at a time, which mostly stops at a shallow one, is dropped or replaced by one of
    :data:`DAMAGE_VALUES`.
    """
    if data.draw(st.booleans()):
        numbers, stack = [], [doc]  # numbers: (container, key) of every number in the document
        while stack:
            node = stack.pop()
            items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
            for key, value in items:
                stack.append(value)
                if type(value) in (int, float):
                    numbers.append((node, key))
        parent, key = data.draw(st.sampled_from(numbers))
        parent[key] = data.draw(st.integers(-1, 40))
        return doc
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node and data.draw(st.booleans()):
        parent, key = node, data.draw(st.sampled_from(sorted(node) if isinstance(node, dict) else range(len(node))))
        node = node[key]
    if parent is None:
        return data.draw(DAMAGE_VALUES)
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(DAMAGE_VALUES)
    return doc


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_damaged_artifacts_exit_0_or_2_with_one_line(transform_run, data):
    """``map`` reads a transform arm's clusters.json or checkpoint, ``report`` its mapping.json, with one value
    damaged: each exits 0, or exits 2 with one stderr line, no traceback and no output file."""
    name = data.draw(st.sampled_from(["clusters.json", "mapping.json", "checkpoint.json"]))
    run = transform_run / "run"
    with tempfile.TemporaryDirectory() as tmp:
        bad = Path(tmp)
        (bad / name).write_text(json.dumps(damaged(data, json.loads((run / name).read_text()))))
        if name == "mapping.json":
            args = ["report", "--mapping", str(bad / name)]
        elif name == "clusters.json":
            args = ["map", "--checkpoint", str(run / "checkpoint"), "--clusters", str(bad / name)]
        else:
            shutil.copy(run / "checkpoint.bin", bad)
            args = ["map", "--checkpoint", str(bad / "checkpoint"), "--clusters", str(run / "clusters.json")]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            status = cli.main(args + ["--config", str(transform_run / "config.json"), "--out", str(bad / "out.json")])
        assert status in (0, 2)
        if status == 2:
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), err.getvalue()
            assert "Traceback" not in err.getvalue()
            assert not (bad / "out.json").exists()


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
     # train and compare name the nearest existing path above --out before they build any data
     (["compare", "--out", "{file}/x"], "{file}: a file stands where the path needs a directory"),
     (["train", "--out", "{file}/x/y"], "{file}: a file stands where the path needs a directory")],
    ids=["map_clusters_dir", "report_mapping_dir", "cluster_out_dir", "map_out_dir", "report_out_dir",
         "map_clusters_missing", "map_clusters_under_file", "cluster_out_under_file", "compare_out_under_file",
         "train_out_under_file"],
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


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize("out", ["{file}", "{file}/x/y"], ids=["file", "under_file"])
def test_an_out_that_cannot_be_a_directory_exits_2_before_training(tmp_path, config, capsys, monkeypatch,
                                                                   command, out):
    """train and compare reject an --out at or under a file before any data is built or network trained,
    and create nothing."""
    from xbarnet import experiment

    def no_training(*args, **kwargs):
        raise AssertionError("trained a network")

    monkeypatch.setattr(experiment, "_train", no_training)
    monkeypatch.setattr(experiment, "build_dataset", no_training)
    (tmp_path / "file").write_text("")
    before = tree(tmp_path)
    assert cli.main([command, "--config", config, "--out", out.format(file=tmp_path / "file")]) == 2
    assert f"{tmp_path / 'file'}: a file stands where the path needs a directory" in capsys.readouterr().err
    assert tree(tmp_path) == before and sorted(tmp_path.rglob("*")) == [tmp_path / "config.json", tmp_path / "file"]


def test_a_crossbar_side_of_2_63_minus_1_runs_every_command(tmp_path, capsys):
    """The largest crossbar the config accepts maps, reports and clusters without overflow."""
    side = 2**63 - 1
    raw = {"dataset": {"kind": "planted", "in_dim": 8, "hidden": 8, "block": 4, "n_train": 40, "n_test": 20},
           "topology": [8, 8, 2], "transform": {"max_epochs": 2},
           "tech": {"crossbar_rows": side, "crossbar_cols": side}}
    config = tmp_path / "config.json"
    config.write_text(json.dumps(raw))
    run, out = tmp_path / "run", tmp_path / "out"
    common = ["--config", str(config), "--out"]
    assert cli.main(["compare", *common, str(run)]) == 0
    assert cli.main(["map", *common, str(out / "mapping.json"), "--checkpoint", str(run / "transform" / "checkpoint"),
                     "--clusters", str(run / "transform" / "clusters.json")]) == 0
    assert (out / "mapping.json").read_bytes() == (run / "transform" / "mapping.json").read_bytes()
    assert cli.main(["report", *common, str(out / "energy.json"), "--mapping", str(out / "mapping.json")]) == 0
    assert cli.main(["cluster", *common, str(out / "clusters.json"),
                     "--checkpoint", str(run / "prune" / "checkpoint")]) == 0
    assert (out / "clusters.json").read_bytes() == (run / "offline_cluster" / "clusters.json").read_bytes()
    raw["tech"]["crossbar_rows"] = side + 1
    config.write_text(json.dumps(raw))
    assert cli.main(["compare", *common, str(tmp_path / "too_big")]) == 2
    assert "tech: crossbar dimensions must be below 2**63" in capsys.readouterr().err
    assert not (tmp_path / "too_big").exists()


def deny(monkeypatch, method, path):
    """Make ``Path.<method>`` raise PermissionError on ``path``, as the OS does on a path the user may not use."""
    real = getattr(Path, method)

    def guarded(self, *args, **kwargs):
        if self == path:
            raise PermissionError(13, "Permission denied", str(self))
        return real(self, *args, **kwargs)

    monkeypatch.setattr(Path, method, guarded)


def test_unwritable_out_exits_2(tmp_path, config, capsys, monkeypatch):
    deny(monkeypatch, "mkdir", tmp_path / "out")
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{tmp_path / 'out'}: permission denied" in capsys.readouterr().err


def test_unreadable_config_exits_2(tmp_path, config, capsys, monkeypatch):
    deny(monkeypatch, "read_text", Path(config))
    assert cli.main(["train", "--config", config, "--out", str(tmp_path / "out")]) == 2
    assert f"{config}: permission denied" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


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


def test_the_parser_is_built_once_and_each_parse_starts_fresh():
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    mapped = parser.parse_args(["map", "--config", "c.json", "--checkpoint", "ck", "--clusters", "cl.json"])
    reported = parser.parse_args(["report", "--config", "c.json", "--mapping", "m.json"])
    assert mapped is not reported
    assert (mapped.command, mapped.func, mapped.checkpoint, mapped.clusters) == ("map", cli.cmd_map, "ck", "cl.json")
    assert (reported.command, reported.func, reported.mapping, reported.storage) == (
        "report", cli.cmd_report, "m.json", "auto")
    assert not {"checkpoint", "clusters"} & vars(reported).keys()
    assert not {"mapping", "storage"} & vars(mapped).keys()


def test_a_seed_given_to_one_main_call_does_not_reach_the_next(tmp_path, pruned_run, monkeypatch):
    seeds = []

    def recording_load_config(path, overrides):
        seeds.append(overrides["seed"])
        return load_config(path, overrides)

    monkeypatch.setattr(cli, "load_config", recording_load_config)
    config, mapping = str(pruned_run / "config.json"), str(pruned_run / "run" / "mapping.json")
    for extra in (["--seed", "11"], []):
        assert cli.main(["report", "--config", config, "--mapping", mapping, "--out", str(tmp_path / "e.json"),
                         *extra]) == 0
    assert seeds == [11, None]


class TestClusterCommand:
    def test_checkpoint(self, tmp_path, config, capsys):
        run = tmp_path / "run"
        assert cli.main(["train", "--config", config, "--mode", "prune", "--out", str(run)]) == 0
        out = tmp_path / "clusters.json"
        assert cli.main(["cluster", "--config", config, "--checkpoint", str(run / "checkpoint"),
                         "--out", str(out)]) == 0
        assert cli.main(["map", "--config", config, "--checkpoint", str(run / "checkpoint"),
                         "--clusters", str(out), "--out", str(tmp_path / "mapping.json")]) == 0
        mapping = json.loads((tmp_path / "mapping.json").read_text())
        assert mapping["n_clusters"] == len(json.loads(out.read_text())) > 0
        # the residual it reports is every live synapse that no cluster owns, as the mapping tiles them
        residual = sum(sum(layer["residual_active"]) for layer in mapping["layers"])
        assert f"{mapping['n_clusters']} clusters, {residual} residual synapses" in capsys.readouterr().out

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


def label_magic_on_train_images(digits):
    images = digits / "train-images-idx3-ubyte"
    images.write_bytes(struct.pack(">I", 2049) + images.read_bytes()[4:])


def remove_train_images(digits):
    (digits / "train-images-idx3-ubyte").unlink()


def drop_a_train_label(digits):
    write_idx_labels(digits / "train-labels-idx1-ubyte", np.zeros(19))


@pytest.mark.parametrize(
    "damage, message",
    [(truncate_test_images, "truncated data"),
     (empty_idx_files("train"), "train-images-idx3-ubyte: no images"),
     (empty_idx_files("t10k"), "t10k-images-idx3-ubyte: no images"),
     (label_magic_on_train_images, "train-images-idx3-ubyte: magic 2049, expected 2051"),
     (remove_train_images, "missing input: none of ('train-images-idx3-ubyte', 'train-images.idx3-ubyte')"),
     (drop_a_train_label, "digits: train image/label counts disagree, 20 images but 19 labels")],
    ids=["truncated", "empty_train", "empty_test", "labels_magic", "missing_train_images", "label_count"],
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


@pytest.mark.parametrize("command", ["train", "compare"])
@pytest.mark.parametrize(
    "changes",
    [{"topology": [32, 2**45, 2]}, {"dataset": {"kind": "planted", "in_dim": 8, "hidden": 4, "block": 2,
                                               "n_classes": 2**45}, "topology": [8, 4, 2**45]}],
    ids=["hidden_width", "planted_classes"],
)
def test_a_network_or_dataset_too_large_to_allocate_exits_2(tmp_path, capsys, command, changes):
    # 2**45 columns of 8-byte floats are 2 PiB, past any address space, so numpy refuses them at once
    (tmp_path / "config.json").write_text(json.dumps({**CONFIG, **changes}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert "out of memory: Unable to allocate" in capsys.readouterr().err
    assert not any(out.rglob("summary.csv"))


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


# a learning rate that overflows the weights at epoch 3, after epoch 1 pruned 217 of the 288 synapses
DIVERGING = {
    "dataset": {"kind": "planted", "in_dim": 16, "hidden": 16, "block": 4, "n_train": 100, "n_test": 20},
    "topology": [16, 16, 2], "train": {"learning_rate": 1e6}, "transform": {"max_epochs": 3},
}


@pytest.mark.parametrize(
    "argv, mode, n_train, epoch",
    [
        (["train", "--mode", "prune"], "prune", 100, 3),
        (["compare"], "original", 100, 3),
        # epoch 1 leaves weights whose float32 std overflows; that std used to cut every synapse,
        # so the run never diverged and exited 0 with sparsity 1.0
        (["train", "--mode", "prune"], "prune", 200, 2),
    ],
    ids=["train", "compare", "train_past_float32_std"],
)
def test_a_diverging_training_exits_2_and_writes_no_arm(tmp_path, capsys, argv, mode, n_train, epoch):
    raw = {**DIVERGING, "dataset": {**DIVERGING["dataset"], "n_train": n_train}}
    (tmp_path / "config.json").write_text(json.dumps(raw))
    out = tmp_path / "out"
    with np.errstate(over="ignore", invalid="ignore"):
        assert cli.main([*argv, "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert f"train.learning_rate: 1e+06 diverged the {mode} training at epoch {epoch}" in capsys.readouterr().err
    assert not out.exists()  # no arm, no summary and no empty directory
