"""Experiment orchestration: run one training mode or the four-arm comparison.

Every run writes the same artifact set into its output directory: a model
checkpoint, a per-epoch JSON-lines log, the cluster sets, the crossbar
mapping report, the energy reports, and a one-row summary CSV. ``compare``
runs all four modes into per-mode subdirectories and emits a combined CSV
with columns normalized against the plain-training arm. ``_train`` is the
only caller of the training loop; ``_write_arm`` writes one mode's arm of a
trained state and only reads it. ``compare`` trains each distinct network
once: the ``prune`` and ``offline_cluster`` arms share the prune-only
training, so the offline arm clusters the network the prune arm trained, and
writes the same checkpoint and log.

``compare`` groups the modes by their training switches (``original``;
``prune`` with ``offline_cluster``; ``transform``) and runs each group in a
worker process forked from the caller, as many workers at once as there are
groups and usable CPUs. Reruns with the same config and seed reproduce every
artifact byte for byte, whatever the number of workers.
"""

from __future__ import annotations

import csv
import io
import json
import os
from dataclasses import replace
from pathlib import Path

from .config import MODES, ConfigError, ExperimentConfig
from .connectivity import cluster_sets_to_json
from .datasets import Dataset, DigitsSpec, PlantedSpec, gen_planted, load_mnist, write_surrogate_digits
from .hardware import energy_document, map_to_mcas
from .mlp import evaluate, save_checkpoint
from .transform import TransformState, final_cluster_sets, offline_cluster, run

SUMMARY_COLUMNS = [
    "mode", "accuracy", "sparsity", "num_mca",
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
    if kind == "planted":
        return gen_planted(PlantedSpec(**fields), cfg.seed)[0]
    raise ValueError(f"unknown dataset kind {kind!r}")


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def run_experiment(cfg: ExperimentConfig, out_dir, dataset: Dataset | None = None) -> dict:
    """Run one mode end to end; writes artifacts and returns the summary row."""
    data = dataset if dataset is not None else build_dataset(cfg)  # a bad dataset leaves no output directory
    return _write_arm(cfg, _train(cfg, data), data, out_dir)


def _train(cfg: ExperimentConfig, data: Dataset) -> TransformState:
    """Run the training loop with the switches of ``cfg.mode`` (see ``_TRAINING_SWITCHES``)."""
    enable_prune, enable_cluster = _TRAINING_SWITCHES[cfg.mode]
    return run(
        cfg.transform, cfg.topology, data.x_train, data.y_train, data.x_test, data.y_test, cfg.seed,
        enable_prune=enable_prune, enable_cluster=enable_cluster,
    )


def _write_arm(cfg: ExperimentConfig, state: TransformState, data: Dataset, out_dir) -> dict:
    """Cluster, map and score ``cfg.mode``'s arm of ``state``, read only; writes artifacts, returns the summary row."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
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


def _usable_cpus() -> int:
    """CPUs this process may run on: its affinity set where the platform has one, else all of them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


# (config, output directory, dataset) of the compare call a worker was forked
# from; set in the worker only, by the pool's initializer
_compare_job: tuple[ExperimentConfig, Path, Dataset] | None = None


def _init_compare_worker(cfg: ExperimentConfig, out: Path, data: Dataset) -> None:
    global _compare_job
    _compare_job = (cfg, out, data)


def _run_group(modes: list[str]) -> list[dict]:
    """Run modes that share one training, one after another; their summary rows."""
    cfg, out, data = _compare_job
    state = _train(replace(cfg, mode=modes[0]), data)
    return [_write_arm(replace(cfg, mode=mode), state, data, out / mode) for mode in modes]


def compare(cfg: ExperimentConfig, out_dir, dataset: Dataset | None = None) -> list[dict]:
    """Run all four modes on one dataset; emit a normalized combined summary.

    Modes with equal training switches form one group, which trains once
    with ``_train`` and writes each of its arms with ``_write_arm``: the
    ``offline_cluster`` arm clusters the network the ``prune`` arm trained.
    Three networks are trained, not four.

    Each group runs in a worker of a process pool that uses the ``fork``
    context, with ``min(groups, _usable_cpus())`` workers; on one CPU one
    worker runs the groups one after another. Forked workers inherit the
    config, output directory and dataset through the pool's initializer, so
    the dataset is never pickled; a worker sends back only its summary rows.
    The groups share nothing but those read-only inputs, and each training
    draws from its own generators seeded by ``cfg.seed``, so every artifact
    is the same bytes whatever the number of workers or the order in which
    the groups finish. An exception in a worker is raised here once the
    other groups are done, and no worker outlives the call. The pool forks
    every worker before it starts its own threads; OpenBLAS stops its
    thread pool around a fork, but Python 3.12+ still warns when BLAS runs
    more than one thread (``OPENBLAS_NUM_THREADS=1`` silences it).
    """
    # imported here: the pool's modules add about 2 MB to every process, and only compare needs them
    from concurrent.futures import ProcessPoolExecutor
    from multiprocessing import get_context

    data = dataset if dataset is not None else build_dataset(cfg)  # a bad dataset leaves no output directory
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    groups: dict[tuple[bool, bool], list[str]] = {}
    for mode in MODES:
        groups.setdefault(_TRAINING_SWITCHES[mode], []).append(mode)
    with ProcessPoolExecutor(
        min(len(groups), _usable_cpus()), mp_context=get_context("fork"),
        initializer=_init_compare_worker, initargs=(cfg, out, data),
    ) as pool:
        by_mode = {row["mode"]: row for rows in pool.map(_run_group, groups.values()) for row in rows}
    rows = [by_mode[mode] for mode in MODES]
    base = rows[0]
    for row in rows:
        for col in NORMALIZED:
            denom = base[col]
            row[f"norm_{col}"] = row[col] / denom if denom else 0.0
    columns = SUMMARY_COLUMNS + [f"norm_{c}" for c in NORMALIZED]
    _write_csv(out / "summary.csv", rows, columns)
    return rows
