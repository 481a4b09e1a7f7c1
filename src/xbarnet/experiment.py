"""Experiment orchestration: run one training mode or the four-arm comparison.

Every run writes the same artifact set into its output directory: a model
checkpoint, a per-epoch JSON-lines log, the cluster sets, the crossbar
mapping report, the energy reports, and a one-row summary CSV. ``compare``
runs all four modes into per-mode subdirectories and emits a combined CSV
with columns normalized against the plain-training arm. It trains each
distinct network once: the ``prune`` and ``offline_cluster`` arms run the
same prune-only training, so the offline arm clusters the network that the
prune arm trained, and writes the same checkpoint and log. Reruns with the
same config and seed reproduce every artifact byte for byte.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import replace
from pathlib import Path

from .config import MODES, ConfigError, ExperimentConfig
from .connectivity import cluster_sets_to_json
from .datasets import (
    BlobSpec, Dataset, DigitsSpec, PlantedSpec, gen_blobs, gen_planted, load_mnist, write_surrogate_digits,
)
from .hardware import energy_document, map_to_mcas
from .mlp import evaluate, save_checkpoint
from .transform import TransformState, final_cluster_sets, offline_cluster, run

SUMMARY_COLUMNS = [
    "mode", "accuracy", "sparsity", "num_mca", "num_core",
    "mca_E", "periph_E", "total_E", "cmos_E",
]
NORMALIZED = ["num_mca", "total_E", "cmos_E"]
# (enable_prune, enable_cluster) of each mode's training loop; modes with equal switches train the same network
_TRAINING_SWITCHES = {
    "original": (False, False),
    "prune": (True, False),
    "offline_cluster": (True, False),
    "transform": (True, True),
}


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
    kind = cfg.dataset["kind"]
    fields = {k: v for k, v in cfg.dataset.items() if k != "kind"}
    if kind == "mnist":
        return load_mnist(fields["dir"])
    if kind == "surrogate_digits":
        spec = DigitsSpec(**{"gen_seed": cfg.seed, **fields})
        directory = Path(spec.dir)
        if not (directory / "train-images-idx3-ubyte").exists():
            write_surrogate_digits(directory, seed=spec.gen_seed, n_train=spec.n_train, n_test=spec.n_test)
        data = load_mnist(directory)
        if (len(data.x_train), len(data.x_test)) != (spec.n_train, spec.n_test):
            raise ConfigError([
                f"dataset.dir: {directory} holds {len(data.x_train)} train and {len(data.x_test)} test "
                f"samples, the config asks for {spec.n_train} and {spec.n_test}"
            ])
        return data
    if kind == "blobs":
        return gen_blobs(BlobSpec(**fields), cfg.seed)
    if kind == "planted":
        return gen_planted(PlantedSpec(**fields), cfg.seed)[0]
    raise ValueError(f"unknown dataset kind {kind!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def run_experiment(
    cfg: ExperimentConfig,
    out_dir,
    dataset: Dataset | None = None,
    trained: dict[tuple[bool, bool], TransformState] | None = None,
) -> dict:
    """Run one mode end to end; writes artifacts and returns the summary row.

    ``trained`` caches the trained states by the mode's training switches
    (see ``_TRAINING_SWITCHES``): a cached state is reused, a new one is added.
    One cache must serve only runs of one config and dataset that differ in
    mode alone. Nothing here writes to a cached state, so arms can share it.
    """
    data = dataset if dataset is not None else build_dataset(cfg)  # a bad dataset leaves no output directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    trained = {} if trained is None else trained
    switches = _TRAINING_SWITCHES[cfg.mode]
    if switches not in trained:
        enable_prune, enable_cluster = switches
        trained[switches] = run(
            cfg.transform, cfg.topology, data.x_train, data.y_train, data.x_test, data.y_test, cfg.seed,
            enable_prune=enable_prune, enable_cluster=enable_cluster,
        )
    state = trained[switches]
    model = state.model

    if cfg.mode == "offline_cluster":
        cluster_sets = offline_cluster(model, cfg.scic, cfg.seed)
    else:
        cluster_sets = final_cluster_sets(state)  # no clusters unless the loop made them

    mapping = map_to_mcas(cluster_sets, cfg.tech)
    storage = "clustered" if cfg.mode in ("offline_cluster", "transform") else "dense"
    energy = energy_document(mapping, cfg.tech, storage)

    accuracy = state.log[-1]["val_acc"] if state.log else evaluate(model, data.x_test, data.y_test)[0]
    summary = {
        "mode": cfg.mode,
        "accuracy": accuracy,
        "sparsity": model.sparsity(),
        "num_mca": mapping["num_mca"],
        "num_core": mapping["num_core"],
        "mca_E": energy["mca_component_j"],
        "periph_E": energy["peripheral_component_j"],
        "total_E": energy["total_j"],
        "cmos_E": energy["cmos"]["total_j"],
    }

    save_checkpoint(out / "checkpoint", model, cfg.seed, config={"mode": cfg.mode})
    with open(out / "log.jsonl", "w") as fh:
        for record in state.log:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
    (out / "clusters.json").write_text(cluster_sets_to_json(cluster_sets))
    write_json(out / "mapping.json", mapping)
    write_json(out / "energy.json", energy)
    _write_csv(out / "summary.csv", [summary], SUMMARY_COLUMNS)
    return summary


def write_json(path: Path, doc: dict) -> None:
    """Write ``mapping.json`` or ``energy.json``; runs and the CLI share this format."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1))


def _write_csv(path, rows: list[dict], columns: list[str]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    Path(path).write_text(buf.getvalue())


def compare(cfg: ExperimentConfig, out_dir, dataset: Dataset | None = None) -> list[dict]:
    """Run all four modes on one dataset; emit a normalized combined summary.

    The arms share one training cache, so the prune-only training runs once:
    the ``offline_cluster`` arm clusters the network the ``prune`` arm
    trained. Three networks are trained, not four.
    """
    data = dataset if dataset is not None else build_dataset(cfg)  # a bad dataset leaves no output directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    trained: dict[tuple[bool, bool], TransformState] = {}
    rows = []
    for mode in MODES:
        mode_cfg = replace(cfg, mode=mode)
        rows.append(run_experiment(mode_cfg, out / mode, dataset=data, trained=trained))
    base = rows[0]
    for row in rows:
        for col in NORMALIZED:
            denom = base[col]
            row[f"norm_{col}"] = row[col] / denom if denom else 0.0
    columns = SUMMARY_COLUMNS + [f"norm_{c}" for c in NORMALIZED]
    _write_csv(out / "summary.csv", rows, columns)
    return rows
