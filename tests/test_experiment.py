"""Experiment orchestration: `compare` trains each distinct network once, and arms share it read-only."""

import json
import multiprocessing
import os
from dataclasses import replace

import numpy as np
import pytest

from xbarnet import cli, experiment
from xbarnet.config import MODES, ConfigError, build_config
from xbarnet.connectivity import ClusterFormatError

RAW = {
    "dataset": {"kind": "planted", "in_dim": 32, "hidden": 32, "n_classes": 2, "block": 8,
                "n_train": 400, "n_test": 100},
    "topology": [32, 32, 2],
    "seed": 3,
    "train": {"learning_rate": 0.2, "batch_size": 32},
    "transform": {"max_epochs": 3},
    "scic": {"max_rounds": 8},
    "tech": {"crossbar_rows": 8, "crossbar_cols": 8},
}


def tree(root):
    return {str(p.relative_to(root)): p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


@pytest.fixture(scope="module")
def cfg():
    return build_config(RAW)


@pytest.fixture(scope="module")
def data(cfg):
    return experiment.build_dataset(cfg)


def record_calls(monkeypatch, path, line):
    """Make ``experiment.run`` append ``line(kwargs)`` to ``path``; a file, since compare's workers are processes."""
    original_run = experiment.run

    def recording_run(*args, **kwargs):
        with open(path, "a") as fh:
            fh.write(line(kwargs) + "\n")
        return original_run(*args, **kwargs)

    monkeypatch.setattr(experiment, "run", recording_run)


@pytest.fixture(scope="module")
def compared(cfg, data, tmp_path_factory):
    """One `compare` tree, and the training switches of each run of the training loop, sorted."""
    out = tmp_path_factory.mktemp("compare")
    calls = tmp_path_factory.mktemp("calls") / "calls.txt"
    with pytest.MonkeyPatch.context() as mp:
        record_calls(mp, calls, lambda kwargs: f"{kwargs['enable_prune']} {kwargs['enable_cluster']}")
        experiment.compare(cfg, out, dataset=data)
    return out, sorted(tuple(word == "True" for word in line.split()) for line in calls.read_text().splitlines())


def test_compare_trains_three_networks(compared):
    _, calls = compared
    assert calls == sorted([(False, False), (True, False), (True, True)])


@pytest.mark.parametrize("cpus", [1, 2])
def test_compare_writes_the_serial_tree_on_any_cpu_count(compared, cfg, data, tmp_path, monkeypatch, cpus):
    """Byte-equal to one standalone `run_experiment` per mode, whatever the worker count."""
    reference = tmp_path / "serial"
    for mode in MODES:
        experiment.run_experiment(replace(cfg, mode=mode), reference / mode, dataset=data)

    pids = tmp_path / "pids.txt"
    record_calls(monkeypatch, pids, lambda kwargs: str(os.getpid()))
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)
    experiment.compare(cfg, tmp_path / "parallel", dataset=data)
    written = tree(tmp_path / "parallel")
    summary = written.pop("summary.csv")
    assert written == tree(reference)
    assert summary == (compared[0] / "summary.csv").read_bytes()
    # the combined rows are the arms' own rows followed by the three normalized columns
    assert [line.rsplit(",", 3)[0] for line in summary.decode().splitlines()[1:]] == [
        written[f"{mode}/summary.csv"].decode().splitlines()[1] for mode in MODES
    ]
    workers = set(pids.read_text().split())
    assert 1 <= len(workers) <= cpus and str(os.getpid()) not in workers
    assert not multiprocessing.active_children()


@pytest.mark.parametrize(
    "error",
    [ClusterFormatError("clusters.json: layer 0 does not fit"), ConfigError(["scic: one", "tech: two"])],
    ids=["input_format", "config"],
)
def test_an_error_in_one_worker_exits_2_with_its_message(tmp_path, monkeypatch, capsys, error):
    def failing_offline_cluster(*args, **kwargs):
        raise error

    monkeypatch.setattr(experiment, "offline_cluster", failing_offline_cluster)
    (tmp_path / "config.json").write_text(json.dumps(RAW))
    out = tmp_path / "out"
    assert cli.main(["compare", "--config", str(tmp_path / "config.json"), "--out", str(out)]) == 2
    assert str(error) in capsys.readouterr().err
    assert not multiprocessing.active_children()
    # the other groups ran to the end; no combined summary was written
    assert (out / "original" / "summary.csv").exists() and (out / "transform" / "summary.csv").exists()
    assert not (out / "summary.csv").exists()


def test_prune_and_offline_arms_share_checkpoint_and_log(compared):
    out, _ = compared
    for name in ("checkpoint.bin", "log.jsonl"):
        assert (out / "prune" / name).read_bytes() == (out / "offline_cluster" / name).read_bytes()


def test_only_the_transform_log_carries_the_clustering_trace(compared):
    out, _ = compared
    for mode in ("original", "prune", "offline_cluster", "transform"):
        records = [json.loads(line) for line in (out / mode / "log.jsonl").read_text().splitlines()]
        assert records
        assert all(("scic_accepted" in r) == (mode == "transform") for r in records), mode
    first = json.loads((out / "transform" / "log.jsonl").read_text().splitlines()[0])
    assert sum(first["scic_accepted"]) == first["n_clusters"] > 0


def test_standalone_offline_run_matches_compare_subtree(compared, cfg, data, tmp_path):
    out, _ = compared
    experiment.run_experiment(replace(cfg, mode="offline_cluster"), tmp_path / "alone", dataset=data)
    alone = tree(tmp_path / "alone")
    assert set(alone) >= {"checkpoint.bin", "checkpoint.json", "log.jsonl", "clusters.json", "summary.csv"}
    assert alone == tree(out / "offline_cluster")


def test_arms_leave_a_shared_training_result_unchanged(cfg, data, tmp_path):
    state = experiment._train(replace(cfg, mode="prune"), data)
    assert state.log

    def snapshot():
        layers = [(l.weights.tobytes(), l.bias.tobytes()) for l in state.model.layers]
        return layers, [o.tobytes() for o in state.owner], state.seed, repr(state.log)

    before = snapshot()
    for i, mode in enumerate(("prune", "offline_cluster", "prune")):
        experiment._write_arm(replace(cfg, mode=mode), state, data, tmp_path / f"{i}_{mode}")
        assert snapshot() == before, mode
    assert tree(tmp_path / "0_prune") == tree(tmp_path / "2_prune")
    assert np.count_nonzero(state.model.layers[0].weights) < state.model.layers[0].weights.size  # really pruned


def test_cluster_command_rebuilds_the_offline_arms_clusters(compared, tmp_path):
    out, _ = compared
    (tmp_path / "config.json").write_text(json.dumps(RAW))
    rebuilt = tmp_path / "clusters.json"
    assert cli.main(["cluster", "--config", str(tmp_path / "config.json"), "--checkpoint",
                     str(out / "prune" / "checkpoint"), "--out", str(rebuilt)]) == 0
    assert json.loads(rebuilt.read_text())  # the 8x8 crossbar yields clusters
    assert rebuilt.read_bytes() == (out / "offline_cluster" / "clusters.json").read_bytes()
