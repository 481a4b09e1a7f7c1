"""Output checks on one run's artifacts. Each returns a list of problems; empty is a pass.

A clustered arm (offline_cluster, transform) is checked from its saved files:
every cluster fits the crossbar, covered sets are disjoint and lie on live
synapses inside their cluster's footprint, and the mapping's cluster plus
residual actives add up to the checkpoint's live synapses, layer by layer.
The reload step rebuilds ``mapping.json`` and ``energy.json`` through the CLI;
the rebuilt mapping must match byte for byte, the rebuilt energy document on
every key both carry. ``report`` adds ``storage_model``, which
``run_experiment`` does not write; that is the only key allowed on one side.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

ONLY_IN_REPORT = {"storage_model"}


def check_counts(data, n_train: int, n_test: int, n_features: int) -> list[str]:
    """The loaded dataset must have the sizes the workload asked for."""
    got = (len(data.x_train), len(data.y_train), len(data.x_test), len(data.y_test), data.x_train.shape[1])
    want = (n_train, n_train, n_test, n_test, n_features)
    return [] if got == want else [f"dataset (train, labels, test, labels, features) {got} != {want}"]


def check_clusters(weights: list[np.ndarray], records: list[dict], rows: int, cols: int) -> list[str]:
    """Fit, footprint, disjointness and liveness of the clusters in ``clusters.json``."""
    problems = []
    claimed = [np.zeros(w.shape, dtype=np.int64) for w in weights]
    for n, rec in enumerate(records):
        layer = rec["layer"]
        if not 0 <= layer < len(weights):
            problems.append(f"cluster {n}: unknown layer {layer}")
            continue
        if len(rec["rows"]) > rows or len(rec["cols"]) > cols:
            problems.append(f"cluster {n}: {len(rec['rows'])}x{len(rec['cols'])} exceeds crossbar {rows}x{cols}")
        cov = np.asarray(rec["covered"], dtype=np.int64).reshape(-1, 2)
        if not (np.isin(cov[:, 0], rec["rows"]).all() and np.isin(cov[:, 1], rec["cols"]).all()):
            problems.append(f"cluster {n}: covered synapse outside its footprint")
        np.add.at(claimed[layer], (cov[:, 0], cov[:, 1]), 1)
    for layer, (w, count) in enumerate(zip(weights, claimed)):
        if (count > 1).any():
            problems.append(f"layer {layer}: {int((count > 1).sum())} synapses covered by more than one cluster")
        if ((count > 0) & (w == 0)).any():
            problems.append(f"layer {layer}: {int(((count > 0) & (w == 0)).sum())} covered synapses are not live")
    return problems


def check_mapping_counts(weights: list[np.ndarray], mapping: dict) -> list[str]:
    """Cluster plus residual actives per layer equal the live synapses of that layer."""
    problems = []
    if len(mapping["layers"]) != len(weights):
        return [f"mapping has {len(mapping['layers'])} layers, checkpoint {len(weights)}"]
    for layer, (w, doc) in enumerate(zip(weights, mapping["layers"])):
        mapped = sum(doc["cluster_active"]) + sum(doc["residual_active"])
        live = int(np.count_nonzero(w))
        if mapped != live:
            problems.append(f"layer {layer}: mapping holds {mapped} actives, checkpoint {live} live synapses")
    return problems


def _flatten(doc: dict, prefix: str = "") -> dict:
    flat = {}
    for key, value in doc.items():
        if isinstance(value, dict):
            flat.update(_flatten(value, f"{prefix}{key}."))
        else:
            flat[f"{prefix}{key}"] = value
    return flat


def check_reload(arm: Path, rebuilt_mapping: Path, rebuilt_energy: Path) -> list[str]:
    """``map`` reproduces mapping.json byte for byte; ``report`` reproduces energy.json."""
    problems = []
    if rebuilt_mapping.read_bytes() != (arm / "mapping.json").read_bytes():
        problems.append(f"{arm.name}: rebuilt mapping.json differs")
    saved = _flatten(json.loads((arm / "energy.json").read_text()))
    rebuilt = _flatten(json.loads(rebuilt_energy.read_text()))
    for key in sorted(saved.keys() & rebuilt.keys()):
        if saved[key] != rebuilt[key]:
            problems.append(f"{arm.name}: energy {key} {saved[key]!r} != rebuilt {rebuilt[key]!r}")
    for key in sorted(saved.keys() ^ rebuilt.keys()):
        if key not in rebuilt or key not in ONLY_IN_REPORT:
            problems.append(f"{arm.name}: energy key {key} only in {'energy.json' if key in saved else 'report'}")
    return problems


def check_arm(arm: Path, weights: list[np.ndarray], rows: int, cols: int) -> list[str]:
    """All saved-artifact checks of one clustered arm, reload excluded."""
    records = json.loads((arm / "clusters.json").read_text())
    mapping = json.loads((arm / "mapping.json").read_text())
    return check_clusters(weights, records, rows, cols) + check_mapping_counts(weights, mapping)
