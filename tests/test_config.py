"""Config mistakes end as a ConfigError with exit code 2, never a traceback."""

import json

import pytest

from xbarnet import cli
from xbarnet.config import ConfigError, build_config
from xbarnet.datasets import write_surrogate_digits
from xbarnet.experiment import build_dataset

BLOBS = {"kind": "blobs", "n_classes": 2, "dim": 4, "n_train": 40, "n_test": 20}


def run_train(tmp_path, raw: dict) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])


def base_config(**overrides) -> dict:
    raw = {"dataset": dict(BLOBS), "topology": [4, 3, 2], "mode": "original", "transform": {"max_epochs": 1}}
    raw.update(overrides)
    return raw


class TestConfigErrors:
    def test_valid_config_runs(self, tmp_path):
        assert run_train(tmp_path, base_config()) == 0

    def test_non_numeric_learning_rate(self, tmp_path, capsys):
        assert run_train(tmp_path, base_config(train={"learning_rate": "x"})) == 2
        assert "train:" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["blobs", "planted"])
    def test_unknown_dataset_field(self, tmp_path, capsys, kind):
        dataset = dict(BLOBS) if kind == "blobs" else {"kind": "planted", "in_dim": 4, "hidden": 4, "block": 2}
        dataset["bogus"] = 1
        raw = base_config(dataset=dataset)
        assert run_train(tmp_path, raw) == 2
        assert "dataset.bogus: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "section, key, value",
        [("tech", "weight_levels", 16), ("tech", "r_min_ohm", 2e4), ("tech", "r_max_ohm", 2e5),
         ("train", "epochs", 3)],
        ids=["weight_levels", "r_min_ohm", "r_max_ohm", "epochs"],
    )
    def test_removed_fields_are_unknown(self, section, key, value):
        with pytest.raises(ConfigError, match=f"{section}.{key}: unknown field"):
            build_config(base_config(**{section: {key: value}}))

    @pytest.mark.parametrize(
        "overrides, message",
        [
            ({"dataset": {"kind": "planted", "in_dim": 4, "hidden": 4, "block": 3}, "topology": [4, 4, 2]},
             "dataset: block must be positive and divide"),
            ({"dataset": {**BLOBS, "dim": "x"}}, "dataset.dim: must be int"),
            ({"dataset": {**BLOBS, "n_classes": 0}}, "dataset: n_classes, dim, n_train and n_test must be positive"),
            ({"topology": [5, 3, 2]}, "topology: input width 5 != dataset width 4"),
            ({"dataset": {**BLOBS, "n_classes": 4, "dim": 8}, "topology": [8, 4, 2]},
             "topology: output width 2 cannot hold label 3"),
            ({"scic": {"k_per_round": 3}}, "scic.k_per_round: unknown field"),
            ({"transform": {"max_epochs": 1, "threshold_anneal": 0.9}}, "transform.threshold_anneal: unknown field"),
        ],
        ids=["planted_block", "blobs_dim_type", "blobs_no_classes", "input_width", "label_range", "k_per_round", "threshold_anneal"],
    )
    def test_dataset_and_topology_mistakes_exit_2(self, tmp_path, capsys, overrides, message):
        assert run_train(tmp_path, base_config(**overrides)) == 2
        assert message in capsys.readouterr().err


class TestSurrogateDigitCounts:
    def test_reused_directory_with_other_counts_rejected(self, tmp_path):
        write_surrogate_digits(tmp_path / "digits", seed=0, n_train=30, n_test=10)
        dataset = {"kind": "surrogate_digits", "dir": str(tmp_path / "digits"), "n_train": 40, "n_test": 10}
        cfg = build_config(base_config(dataset=dataset, topology=[784, 4, 10]))
        with pytest.raises(ConfigError, match="holds 30 train and 10 test samples"):
            build_dataset(cfg)

    def test_matching_counts_reuse_the_directory(self, tmp_path):
        write_surrogate_digits(tmp_path / "digits", seed=0, n_train=30, n_test=10)
        dataset = {"kind": "surrogate_digits", "dir": str(tmp_path / "digits"), "n_train": 30, "n_test": 10}
        data = build_dataset(build_config(base_config(dataset=dataset, topology=[784, 4, 10])))
        assert (len(data.x_train), len(data.x_test)) == (30, 10)

    def test_cli_exit_code(self, tmp_path):
        write_surrogate_digits(tmp_path / "digits", seed=0, n_train=30, n_test=10)
        dataset = {"kind": "surrogate_digits", "dir": str(tmp_path / "digits"), "n_train": 30, "n_test": 20}
        assert run_train(tmp_path, base_config(dataset=dataset, topology=[784, 4, 10])) == 2
