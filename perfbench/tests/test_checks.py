import contextlib
import io
import json

import pytest

import checks


@pytest.fixture
def arm(tmp_path):
    """A small transform run with clusters, plus its config file."""
    from xbarnet.config import build_config
    from xbarnet.experiment import run_experiment

    raw = {
        "dataset": {"kind": "planted", "in_dim": 32, "hidden": 32, "n_classes": 2, "block": 16,
                    "n_train": 400, "n_test": 100},
        "topology": [32, 32, 2],
        "mode": "transform",
        "seed": 0,
        "transform": {"max_epochs": 3},
    }
    run_experiment(build_config(raw), tmp_path / "arm")
    (tmp_path / "config.json").write_text(json.dumps(raw))
    assert json.loads((tmp_path / "arm" / "clusters.json").read_text())
    return tmp_path / "arm"


def weights(arm):
    from xbarnet.mlp import load_checkpoint

    model, _ = load_checkpoint(arm / "checkpoint")
    return [layer.weights for layer in model.layers]


def reload(arm):
    from xbarnet import cli

    cfg = str(arm.parent / "config.json")
    rebuilt = arm.parent / "reload"
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(["map", "--config", cfg, "--checkpoint", str(arm / "checkpoint"),
                         "--clusters", str(arm / "clusters.json"), "--out", str(rebuilt / "mapping.json")]) == 0
        assert cli.main(["report", "--config", cfg, "--mapping", str(rebuilt / "mapping.json"),
                         "--storage", "clustered", "--out", str(rebuilt / "energy.json")]) == 0
    return checks.check_reload(arm, rebuilt / "mapping.json", rebuilt / "energy.json")


def test_clean_run_passes_every_check(arm):
    assert checks.check_arm(arm, weights(arm), 16, 16) == []
    assert reload(arm) == []


def test_corrupted_mapping_fails(arm):
    path = arm / "mapping.json"
    mapping = json.loads(path.read_text())
    mapping["layers"][0]["residual_active"].append(1)
    path.write_text(json.dumps(mapping, indent=1))
    problems = checks.check_arm(arm, weights(arm), 16, 16)
    assert any("actives" in p for p in problems)
    assert any("mapping.json differs" in p for p in reload(arm))


def test_overlapping_clusters_fail(arm):
    path = arm / "clusters.json"
    records = json.loads(path.read_text())
    path.write_text(json.dumps(records + records[:1], indent=1))
    problems = checks.check_arm(arm, weights(arm), 16, 16)
    assert any("more than one cluster" in p for p in problems)


def test_oversized_and_dead_clusters_fail(arm):
    w = weights(arm)
    records = json.loads((arm / "clusters.json").read_text())
    first = records[0]
    i, j = first["covered"][0]
    w[0][i, j] = 0.0
    problems = checks.check_clusters(w, records, 8, 8)
    assert any("exceeds crossbar 8x8" in p for p in problems)
    assert any("not live" in p for p in problems)


def test_energy_differences_other_than_storage_model_fail(arm):
    assert reload(arm) == []
    path = arm / "energy.json"
    energy = json.loads(path.read_text())
    energy["cmos"]["total_j"] *= 2
    energy["extra_j"] = 1.0
    path.write_text(json.dumps(energy, indent=1))
    problems = reload(arm)
    assert any("cmos.total_j" in p for p in problems)
    assert any("extra_j only in energy.json" in p for p in problems)


def test_dataset_size_mismatch_fails():
    from xbarnet.datasets import PlantedSpec, gen_planted

    data, _, _ = gen_planted(PlantedSpec(n_train=100, n_test=50), 0)
    assert checks.check_counts(data, 100, 50, 64) == []
    assert checks.check_counts(data, 200, 50, 64)
