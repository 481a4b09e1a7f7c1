"""Experiment orchestration: run one training mode or the four-arm comparison.

Every run writes the same artifact set into its output directory: a model
checkpoint, a per-epoch JSON-lines log, the cluster sets, the crossbar
mapping report, the energy reports, and a one-row summary CSV. ``compare``
runs all four modes into per-mode subdirectories and emits a combined CSV
with columns normalized against the plain-training arm. Reruns with the same
config and seed reproduce every artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from pathlib import Path

from .config import ConfigError, ExperimentConfig
from .connectivity import ClusterSet, cluster_sets_to_json, from_weights
from .datasets import Dataset, BlobSpec, PlantedSpec, gen_blobs, gen_planted, load_mnist, write_surrogate_digits
from .hardware import cmos_energy, map_to_mcas, mca_energy
from .mlp import evaluate, save_checkpoint
from .transform import final_cluster_sets, offline_cluster, run

SUMMARY_COLUMNS = [
    "mode", "accuracy", "sparsity", "num_mca", "num_core",
    "mca_E", "periph_E", "total_E", "cmos_E",
]
COMPARE_MODES = ["original", "prune", "offline_cluster", "transform"]
NORMALIZED = ["num_mca", "total_E", "cmos_E"]


def build_dataset(cfg: ExperimentConfig) -> Dataset:
    """Load or generate the configured dataset and check it against the topology."""
    data = _load_dataset(cfg)
    problems = []
    if data.n_features != cfg.topology[0]:
        problems.append(f"topology: input width {cfg.topology[0]} != dataset width {data.n_features}")
    if data.n_classes > cfg.topology[-1]:
        problems.append(
            f"topology: output width {cfg.topology[-1]} cannot hold label {data.n_classes - 1}"
        )
    if problems:
        raise ConfigError(problems)
    return data


def _load_dataset(cfg: ExperimentConfig) -> Dataset:
    spec = cfg.dataset
    kind = spec["kind"]
    if kind == "mnist":
        return load_mnist(spec["dir"])
    if kind == "surrogate_digits":
        directory = Path(spec["dir"])
        n_train, n_test = spec.get("n_train", 20000), spec.get("n_test", 10000)
        if not (directory / "train-images-idx3-ubyte").exists():
            write_surrogate_digits(
                directory, seed=spec.get("gen_seed", cfg.seed), n_train=n_train, n_test=n_test
            )
        data = load_mnist(directory)
        if (len(data.x_train), len(data.x_test)) != (n_train, n_test):
            raise ConfigError([
                f"dataset.dir: {directory} holds {len(data.x_train)} train and {len(data.x_test)} test "
                f"samples, the config asks for {n_train} and {n_test}"
            ])
        return data
    fields = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "blobs":
        return gen_blobs(BlobSpec(**fields), cfg.seed)
    if kind == "planted":
        return gen_planted(PlantedSpec(**fields), cfg.seed)[0]
    raise ValueError(f"unknown dataset kind {kind!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def dense_cluster_sets(model) -> list[ClusterSet]:
    """No clusters at all: every live synapse is residual."""
    return [ClusterSet((), from_weights(layer.weights)) for layer in model.layers]


def run_experiment(cfg: ExperimentConfig, out_dir, dataset: Dataset | None = None) -> dict:
    """Run one mode end to end; writes artifacts and returns the summary row."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = dataset if dataset is not None else build_dataset(cfg)

    enable_prune = cfg.mode in ("prune", "offline_cluster", "transform")
    enable_cluster = cfg.mode == "transform"
    result = run(
        cfg.transform,
        cfg.topology,
        data.x_train,
        data.y_train,
        data.x_test,
        data.y_test,
        enable_prune=enable_prune,
        enable_cluster=enable_cluster,
    )
    model = result.model

    if cfg.mode == "transform":
        cluster_sets = final_cluster_sets(result.state)
    elif cfg.mode == "offline_cluster":
        cluster_sets = offline_cluster(model, cfg.scic, cfg.seed)
    else:
        cluster_sets = dense_cluster_sets(model)

    mapping = map_to_mcas(cluster_sets, cfg.tech)
    xbar_energy = mca_energy(mapping, cfg.tech, cfg.evals_per_inference)
    if cfg.mode in ("offline_cluster", "transform"):
        stored = mapping.clustered_storage()
    else:
        stored = mapping.dense_storage()
    cmos = cmos_energy(
        n_live_synapses=model.n_live(),
        n_stored_weights=stored,
        cmos=cfg.cmos,
        n_clusters=mapping.n_clusters(),
    )

    accuracy = result.log[-1]["val_acc"] if result.log else evaluate(model, data.x_test, data.y_test)[0]
    summary = {
        "mode": cfg.mode,
        "accuracy": accuracy,
        "sparsity": model.sparsity(),
        "num_mca": mapping.num_mca,
        "num_core": mapping.num_core,
        "mca_E": xbar_energy.mca_component,
        "periph_E": xbar_energy.peripheral_component,
        "total_E": xbar_energy.total,
        "cmos_E": cmos.total,
    }

    save_checkpoint(out / "checkpoint", model, cfg.seed, config={"mode": cfg.mode})
    with open(out / "log.jsonl", "w") as fh:
        for record in result.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (out / "clusters.json").write_text(cluster_sets_to_json(cluster_sets))
    (out / "mapping.json").write_text(json.dumps(mapping.to_dict(), indent=1))
    energy_doc = {
        "mca_component_j": xbar_energy.mca_component,
        "peripheral_component_j": xbar_energy.peripheral_component,
        "total_j": xbar_energy.total,
        "cmos": {
            "compute_j": cmos.compute,
            "memory_access_j": cmos.memory_access,
            "leakage_j": cmos.leakage,
            "sync_j": cmos.sync,
            "total_j": cmos.total,
        },
    }
    (out / "energy.json").write_text(json.dumps(energy_doc, indent=1))
    _write_csv(out / "summary.csv", [summary], SUMMARY_COLUMNS)
    return summary


def _write_csv(path, rows: list[dict], columns: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    Path(path).write_text(buf.getvalue())


def compare(cfg: ExperimentConfig, out_dir, dataset: Dataset | None = None) -> list[dict]:
    """Run all four modes on one dataset; emit a normalized combined summary."""
    from dataclasses import replace

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    data = dataset if dataset is not None else build_dataset(cfg)
    rows = []
    for mode in COMPARE_MODES:
        mode_cfg = replace(cfg, mode=mode)
        rows.append(run_experiment(mode_cfg, out / mode, dataset=data))
    base = rows[0]
    for row in rows:
        for col in NORMALIZED:
            denom = base[col]
            row[f"norm_{col}"] = row[col] / denom if denom else 0.0
    columns = SUMMARY_COLUMNS + [f"norm_{c}" for c in NORMALIZED]
    _write_csv(out / "summary.csv", rows, columns)
    return rows
