"""Config mistakes end as a ConfigError with exit code 2, never a traceback."""

import contextlib
import copy
import io
import json
import pickle
import tempfile
from dataclasses import fields
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarnet import cli
from xbarnet.config import ConfigError, build_config
from xbarnet.datasets import PlantedSpec, write_surrogate_digits
from xbarnet.experiment import build_dataset
from xbarnet.hardware import TechConfig
from xbarnet.mlp import TrainConfig
from xbarnet.sizecluster import SizeClusterConfig
from xbarnet.transform import TransformConfig

PLANTED = {"kind": "planted", "in_dim": 4, "hidden": 4, "n_classes": 2, "block": 2, "n_train": 40, "n_test": 20}
DIGITS = {"kind": "surrogate_digits", "dir": "digits"}  # each mistake is caught before the directory is read


def run_train(tmp_path, raw: dict) -> int:
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")])


def base_config(**overrides) -> dict:
    raw = {"dataset": dict(PLANTED), "topology": [4, 3, 2], "mode": "original", "transform": {"max_epochs": 1}}
    raw.update(overrides)
    return raw


class TestConfigErrors:
    def test_valid_config_runs(self, tmp_path):
        assert run_train(tmp_path, base_config()) == 0

    def test_error_round_trips_through_pickle(self):
        """A compare worker's error reaches the parent pickled; its problems and message come back whole."""
        error = ConfigError(["a", "b"])
        back = pickle.loads(pickle.dumps(error))
        assert type(back) is ConfigError
        assert back.problems == ["a", "b"]
        assert str(back) == str(error) == "invalid configuration:\n  - a\n  - b"

    def test_non_numeric_learning_rate(self, tmp_path, capsys):
        assert run_train(tmp_path, base_config(train={"learning_rate": "x"})) == 2
        assert "train.learning_rate: must be float, got 'x'" in capsys.readouterr().err

    @pytest.mark.parametrize("kind", ["planted", "surrogate_digits"])
    def test_unknown_dataset_field(self, tmp_path, capsys, kind):
        dataset = dict(PLANTED) if kind == "planted" else dict(DIGITS)
        dataset["bogus"] = 1
        raw = base_config(dataset=dataset)
        assert run_train(tmp_path, raw) == 2
        assert "dataset.bogus: unknown field" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "dataset",
        ["absent", None, [PLANTED], "planted", {k: v for k, v in PLANTED.items() if k != "kind"}, {}],
        ids=["absent", "null", "list", "string", "no_kind", "empty"],
    )
    def test_a_dataset_without_a_kind_is_its_only_problem(self, dataset):
        raw = base_config(dataset=dataset)
        if dataset == "absent":
            del raw["dataset"]
        with pytest.raises(ConfigError) as excinfo:
            build_config(raw)
        assert excinfo.value.problems == ["dataset: required object with a 'kind' field"]

    def test_a_retired_kind_reports_no_field_of_its_own(self):
        """Fields of a kind no longer known are not checked against any spec."""
        dataset = {"kind": "blobs", "n_classes": 2, "dim": 4, "n_train": 40, "n_test": 20, "sigma": -1}
        with pytest.raises(ConfigError) as excinfo:
            build_config(base_config(dataset=dataset))
        assert excinfo.value.problems == [
            "dataset.kind: 'blobs' not one of ('mnist', 'surrogate_digits', 'planted')"
        ]

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
            ({"dataset": {**PLANTED, "in_dim": "x"}}, "dataset.in_dim: must be int"),
            ({"dataset": {**PLANTED, "n_classes": 0}},
             "dataset: in_dim, hidden, n_classes, n_train and n_test must be positive"),
            ({"topology": [5, 3, 2]}, "topology: input width 5 != dataset width 4"),
            ({"dataset": {**PLANTED, "n_classes": 4, "in_dim": 8, "hidden": 8, "block": 4}, "topology": [8, 4, 2]},
             "topology: output width 2 cannot hold label 3"),
            ({"scic": {"k_per_round": 3}}, "scic.k_per_round: unknown field"),
            ({"transform": {"max_epochs": 1, "threshold_anneal": 0.9}}, "transform.threshold_anneal: unknown field"),
            ({"scic": {"max_rounds": 2.5}}, "scic.max_rounds: must be int, got 2.5"),
            ({"train": {"batch_size": 2.5}}, "train.batch_size: must be int, got 2.5"),
            ({"transform": {"max_epochs": 1.5}}, "transform.max_epochs: must be int, got 1.5"),
            ({"tech": {"crossbar_rows": 16.0}}, "tech.crossbar_rows: must be int, got 16.0"),
            ({"topology": [4, True, 2]}, "topology: need a list of >=2 integer widths"),
            ({"dataset": {**PLANTED, "n_train": True}}, "dataset.n_train: must be int, got True"),
            ({"train": {"seed": 7}, "seed": 1}, "train.seed: unknown field"),
            ({"transform": {"max_epochs": 1, "seed": 7}}, "transform.seed: unknown field"),
            ({"transform": {"max_epochs": 1, "scic": {}}}, "transform.scic: unknown field"),
            ({"seed": -1}, "seed: must be a non-negative integer"),
            ({"dataset": {**PLANTED, "noise_density": -0.1}}, "dataset: noise_density must lie in [0, 1)"),
            ({"dataset": {"kind": "planted", "in_dim": 4, "hidden": 0, "block": 2}}, "dataset: in_dim, hidden"),
            ({"dataset": {"kind": ["planted"]}}, "dataset.kind: ['planted'] not one of"),
            # a retired dataset kind
            ({"dataset": {"kind": "blobs", "n_classes": 2, "dim": 4}}, "dataset.kind: 'blobs' not one of"),
            ({"scic": {"crossbar_rows": 8}}, "scic.crossbar_rows: unknown field"),
            ({"dataset": {**DIGITS, "n_train": "x"}, "topology": [784, 4, 10]}, "dataset.n_train: must be int, got 'x'"),
            ({"dataset": {**DIGITS, "bogus": 1}, "topology": [784, 4, 10]}, "dataset.bogus: unknown field"),
            ({"dataset": {**DIGITS, "n_test": 0}, "topology": [784, 4, 10]}, "dataset: n_train and n_test must be"),
            ({"dataset": {"kind": "mnist", "dir": "digits", "n_train": 5}, "topology": [784, 4, 10]},
             "dataset.n_train: unknown field"),
            ({"evals_per_inference": [1, 1]}, "evals_per_inference: unknown top-level key"),
            # json reads NaN, Infinity and -Infinity as floats
            ({"dataset": {**PLANTED, "noise_scale": float("nan")}}, "dataset.noise_scale: must be finite, got nan"),
            ({"train": {"prune_quality": float("nan")}}, "train.prune_quality: must be finite, got nan"),
            ({"train": {"learning_rate": float("inf")}}, "train.learning_rate: must be finite, got inf"),
            ({"scic": {"decay_rate": float("inf")}}, "scic.decay_rate: must be finite, got inf"),
            ({"transform": {"max_epochs": 1, "cluster_prune_alpha": float("-inf")}},
             "transform.cluster_prune_alpha: must be finite, got -inf"),
            ({"tech": {"mca_energy_per_active_crosspoint_j": float("nan")}},
             "tech.mca_energy_per_active_crosspoint_j: must be finite, got nan"),
            ({"tech": {"peripheral_energy_per_mca_eval_j": float("inf")}},
             "tech.peripheral_energy_per_mca_eval_j: must be finite, got inf"),
            # the CMOS baseline runs on fixed constants, and cluster_prune cuts one cluster per event
            ({"cmos": {}}, "cmos: unknown top-level key"),
            ({"transform": {"max_epochs": 1, "clusters_pruned_per_event": 1}},
             "transform.clusters_pruned_per_event: unknown field"),
            # no score reads a core count, so the technology has no cores
            ({"tech": {"cores_k": 4}}, "tech.cores_k: unknown field"),
        ],
        ids=["planted_block", "in_dim_type", "no_classes", "input_width", "label_range", "k_per_round",
             "threshold_anneal", "max_rounds_float", "batch_size_float", "max_epochs_float", "crossbar_rows_float",
             "topology_bool", "n_train_bool", "train_seed", "transform_seed", "transform_scic", "negative_seed",
             "negative_noise_density", "planted_no_hidden", "kind_list", "retired_kind", "scic_crossbar",
             "digits_n_train_str", "digits_unknown", "digits_no_test", "mnist_n_train", "evals_per_inference",
             "nan_dataset", "nan_train", "inf_train", "inf_scic", "inf_transform", "nan_tech", "inf_tech",
             "cmos_section", "clusters_pruned_per_event", "cores_k"],
    )
    def test_dataset_and_topology_mistakes_exit_2(self, tmp_path, capsys, overrides, message):
        assert run_train(tmp_path, base_config(**overrides)) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("kind", ["directory", "not_utf8"])
def test_unreadable_config_file_exits_2(tmp_path, capsys, kind):
    path = tmp_path / "config.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(json.dumps(base_config()).encode().replace(b"planted", b"plant\xff"))
    assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert f"{path}: unreadable config file" in capsys.readouterr().err


def test_crossbar_size_comes_from_tech():
    cfg = build_config(base_config(tech={"crossbar_rows": 8, "crossbar_cols": 4}))
    assert (cfg.scic.crossbar_rows, cfg.scic.crossbar_cols) == (8, 4)


@pytest.mark.parametrize("sections", [{}, {"tech": {}}], ids=["absent", "empty"])
def test_tech_defaults(sections):
    cfg = build_config(base_config(**sections))
    # repr tells 16 from 16.0, so the field types are pinned along with the values
    assert repr(cfg.tech) == repr(TechConfig(16, 16, 1e-12, 5e-10))


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


FUZZ_BASES = [
    {
        "dataset": {"kind": "planted", "in_dim": 4, "hidden": 4, "n_classes": 2, "block": 2, "n_train": 32,
                    "n_test": 16},
        "topology": [4, 3, 2], "mode": "prune", "seed": 0,
        "train": {"learning_rate": 0.1, "batch_size": 8, "prune_quality": 0.7},
        "transform": {"max_epochs": 2, "unclustered_threshold": 0.1, "cluster_prune_alpha": 0.5},
        "scic": {"base_util_factor": 0.8, "min_util_factor": 0.4, "decay_rate": 0.9, "max_rounds": 2},
    },
    {
        "dataset": {"kind": "planted", "in_dim": 8, "hidden": 8, "n_classes": 2, "block": 4,
                    "noise_density": 0.05, "noise_scale": 0.15, "n_train": 32, "n_test": 16},
        "topology": [8, 8, 2], "mode": "original", "seed": 1,
        "train": {"batch_size": 16}, "transform": {"max_epochs": 2},
        "tech": {"crossbar_rows": 4, "crossbar_cols": 4, "mca_energy_per_active_crosspoint_j": 1e-12,
                 "peripheral_energy_per_mca_eval_j": 5e-10},
    },
    {  # written into the run's temporary directory, next to the config
        "dataset": {"kind": "surrogate_digits", "dir": "digits", "n_train": 24, "n_test": 8, "gen_seed": 1},
        "topology": [784, 4, 10], "mode": "prune", "seed": 2,
        "transform": {"max_epochs": 1}, "scic": {"max_rounds": 2},
    },
    {  # the files of the ``mnist_dir`` fixture, linked next to the config
        "dataset": {"kind": "mnist", "dir": "mnist"},
        "topology": [784, 4, 10], "mode": "original", "seed": 0,
        "train": {"batch_size": 8}, "transform": {"max_epochs": 1}, "scic": {"max_rounds": 2},
    },
]
# small values only: every count, width, epoch and round count stays <= 64
FUZZ_VALUES = st.one_of(
    st.integers(-2, 64),
    st.floats(-2.0, 64.0),
    st.sampled_from(["", "x", "mnist", "planted", "original", "prune"]),
    st.booleans(),
    st.none(),
    st.lists(st.integers(-1, 64), max_size=4),
)
FUZZ_SECTIONS = (PlantedSpec, TrainConfig, TransformConfig, SizeClusterConfig, TechConfig)
FUZZ_NEW_KEYS = sorted({f.name for cls in FUZZ_SECTIONS for f in fields(cls)} | {"bogus", "kind", "mode", "epochs"})


@st.composite
def mutated_configs(draw):
    """A valid train config with one to three keys dropped, added or given a new value."""
    raw = copy.deepcopy(draw(st.sampled_from(FUZZ_BASES)))
    for _ in range(draw(st.integers(1, 3))):
        target = draw(st.sampled_from([raw] + [v for v in raw.values() if isinstance(v, dict)]))
        op = draw(st.sampled_from(["drop", "add", "replace"]))
        if op == "add" or not target:
            target[draw(st.sampled_from(FUZZ_NEW_KEYS))] = draw(FUZZ_VALUES)
        elif op == "drop":
            del target[draw(st.sampled_from(sorted(target)))]
        else:
            target[draw(st.sampled_from(sorted(target)))] = draw(FUZZ_VALUES)
    return raw


@pytest.fixture(scope="module")
def mnist_dir(tmp_path_factory):
    """IDX digit files for the ``mnist`` fuzz base, written once."""
    return write_surrogate_digits(tmp_path_factory.mktemp("mnist"), seed=0, n_train=24, n_test=8)


def run_mutated(command: list[str], raw: dict, mnist_dir: Path) -> int:
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "mnist").symlink_to(mnist_dir, target_is_directory=True)
        path = Path(tmp) / "config.json"
        path.write_text(json.dumps(raw))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            return cli.main([*command, "--config", str(path), "--out", str(Path(tmp) / "out")])


@settings(max_examples=40, deadline=None)
@given(raw=mutated_configs())
def test_mutated_configs_exit_0_or_2(raw, mnist_dir):
    assert run_mutated(["train"], raw, mnist_dir) in (0, 2)


# fewer examples: transform clusters, and compare runs all four arms
@pytest.mark.parametrize("command", [["train", "--mode", "transform"], ["compare"]], ids=["transform", "compare"])
@settings(max_examples=30, deadline=None)
@given(raw=mutated_configs())
def test_mutated_configs_exit_0_or_2_on_clustering_runs(command, raw, mnist_dir):
    assert run_mutated(command, raw, mnist_dir) in (0, 2)
