"""End-to-end CLI runs on a tiny planted config: artifact round trips and reruns."""

import json

import pytest

from xbarnet import cli

CONFIG = {
    "dataset": {"kind": "planted", "in_dim": 32, "hidden": 32, "n_classes": 2, "block": 8,
                "n_train": 400, "n_test": 100},
    "topology": [32, 32, 2],
    "seed": 3,
    "train": {"learning_rate": 0.2, "batch_size": 32},
    "transform": {"max_epochs": 4},
    "scic": {"crossbar_rows": 8, "crossbar_cols": 8, "max_rounds": 8},
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
    assert cli.main(["transform", "--config", config, "--out", str(run)]) == 0
    assert json.loads((run / "clusters.json").read_text())  # the round trip carries clusters

    rebuilt = tmp_path / "rebuilt"
    assert cli.main(["map", "--config", config, "--checkpoint", str(run / "checkpoint"),
                     "--clusters", str(run / "clusters.json"), "--out", str(rebuilt / "mapping.json")]) == 0
    assert (rebuilt / "mapping.json").read_bytes() == (run / "mapping.json").read_bytes()

    assert cli.main(["report", "--config", config, "--mapping", str(rebuilt / "mapping.json"),
                     "--storage", "clustered", "--out", str(rebuilt / "energy.json")]) == 0
    saved = json.loads((run / "energy.json").read_text())
    again = json.loads((rebuilt / "energy.json").read_text())
    assert again.pop("storage_model") == "clustered"
    assert again == saved


def test_compare_reruns_are_byte_identical(tmp_path, config):
    for name in ("a", "b"):
        assert cli.main(["compare", "--config", config, "--out", str(tmp_path / name)]) == 0
    a, b = tree(tmp_path / "a"), tree(tmp_path / "b")
    assert "summary.csv" in a and "transform/clusters.json" in a
    assert a == b
