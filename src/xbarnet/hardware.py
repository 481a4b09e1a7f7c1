"""Crossbar mapping and cost models.

Accepted clusters occupy one crossbar array each. A cluster's footprint, the
rows and columns its array spans, is derived from the cells it owns
(:meth:`ClusterSet.footprints`). Whatever stays unclustered is tiled onto
the fixed ceil(m/rows) x ceil(n/cols) grid of the layer matrix, and only
non-empty tiles count. That tiler is deliberately pessimistic:
irregular sparsity should map poorly, which is the effect the cost models are
meant to expose. Energy per inference splits into an array component that
scales with active cross-points and a peripheral component that scales with
the number of arrays (buffers, communication, control). The CMOS baseline
charges compute and memory access per live synapse, leakage per stored bit,
and a synchronization surcharge per cluster, at fixed placeholder constants:
no score of this project reads it, and it stays only until the benchmark
stops pinning its outputs.

A mapping is held as its ``mapping.json`` document. Per layer it measures
``cluster_active``, ``residual_active``, ``cluster_areas`` and
``matrix_shape``; one builder, which :func:`map_to_mcas` and
:func:`mapping_from_json` share, derives every other key from those and the
crossbar, so derived keys in a file are ignored: per
layer ``clustered_mca_count``, ``residual_mca_count``, ``histogram``,
``unclustered_fraction``, ``cluster_utils`` and ``residual_utils``; at the top
``num_mca``, ``n_live``, ``n_clusters``, ``clustered_storage`` and
``dense_storage``. :func:`energy_document` reads the document.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .connectivity import ClusterSet, InputFormatError


@dataclass(frozen=True)
class TechConfig:
    """Memristive technology and architecture constants (units in field names).

    The energy defaults are representative placeholders, not measurements; override them where absolute numbers matter.
    """

    crossbar_rows: int = 16
    crossbar_cols: int = 16
    mca_energy_per_active_crosspoint_j: float = 1e-12
    peripheral_energy_per_mca_eval_j: float = 5e-10

    def __post_init__(self):
        if self.mca_energy_per_active_crosspoint_j < 0 or self.peripheral_energy_per_mca_eval_j < 0:
            raise ValueError("energies must be non-negative")
        if self.crossbar_rows < 1 or self.crossbar_cols < 1:
            raise ValueError("crossbar dimensions must be positive")


# CMOS baseline per-operation energies: fixed placeholders, not measurements, kept until the baseline goes
CMOS_E_COMPUTE_J = 4.6e-12
CMOS_E_MEM_ACCESS_J = 2.6e-11
CMOS_LEAK_PER_BIT_J = 1.0e-15
CMOS_BITS_PER_WEIGHT = 4
CMOS_SYNC_PER_CLUSTER_J = 1.0e-11


class MappingFormatError(InputFormatError):
    """Raised on a ``mapping.json`` document that is not UTF-8 JSON, lacks a
    well-typed measured field, or holds measured fields that contradict each
    other or the crossbar."""


def _mapping_document(layers: list[tuple], crossbar_rows: int, crossbar_cols: int) -> dict:
    """``mapping.json`` of ``layers``, each (cluster_active, residual_active, cluster_areas, matrix_shape)."""
    area = crossbar_rows * crossbar_cols
    docs = []
    for active, residual, areas, shape in layers:
        cluster_utils = [a / area for a in active]
        live = sum(active) + sum(residual)
        docs.append(
            {
                "clustered_mca_count": len(active),
                "residual_mca_count": len(residual),
                "histogram": _histogram(cluster_utils),
                "unclustered_fraction": (sum(residual) / live) if live else 0.0,
                "cluster_utils": cluster_utils,
                "residual_utils": [a / area for a in residual],
                "cluster_active": active,
                "residual_active": residual,
                "cluster_areas": areas,
                "matrix_shape": list(shape),
            }
        )
    return {
        "num_mca": sum(len(active) + len(residual) for active, residual, _, _ in layers),
        "crossbar_rows": crossbar_rows,
        "crossbar_cols": crossbar_cols,
        "n_live": sum(sum(active) + sum(residual) for active, residual, _, _ in layers),
        "n_clusters": sum(len(active) for active, _, _, _ in layers),
        "clustered_storage": sum(sum(areas) + sum(residual) for _, residual, areas, _ in layers),
        "dense_storage": sum(shape[0] * shape[1] for _, _, _, shape in layers),
        "layers": docs,
    }


def mapping_from_json(text: str | bytes) -> dict:
    """The ``mapping.json`` document of ``text``, rebuilt from its measured fields; derived keys are ignored.

    Raises :class:`MappingFormatError` on text that is not UTF-8 JSON, a
    measured field that is not a list of non-negative integers below 2**63,
    an empty crossbar, or a layer whose counts no mapping of a
    ``matrix_shape`` matrix onto that crossbar yields.
    """
    try:
        data = json.loads(text.decode("utf-8") if isinstance(text, bytes) else text)
        rows, cols = _counts([data["crossbar_rows"], data["crossbar_cols"]], "crossbar_rows and crossbar_cols")
        if not rows * cols:
            raise ValueError(f"crossbar {rows}x{cols} is empty")
        layers = []
        for i, d in enumerate(data["layers"]):
            active, residual, areas = (
                _counts(d[key], key) for key in ("cluster_active", "residual_active", "cluster_areas")
            )
            (m, n), live = _counts(d["matrix_shape"], "matrix_shape", length=2), sum(active) + sum(residual)
            layers.append((active, residual, areas, [m, n]))
            if len(areas) != len(active):
                raise ValueError(f"layer {i}: {len(areas)} cluster_areas for {len(active)} cluster_active")
            if max(areas, default=0) > rows * cols:
                raise ValueError(f"layer {i}: cluster area {max(areas)} exceeds crossbar {rows}x{cols}")
            if not all(1 <= a <= area for a, area in zip(active, areas)):
                raise ValueError(f"layer {i}: a cluster_active lies outside 1..its cluster area")
            if not all(1 <= a <= rows * cols for a in residual):
                raise ValueError(f"layer {i}: a residual_active lies outside 1..{rows * cols}")
            if live > m * n:
                raise ValueError(f"layer {i}: {live} live synapses exceed matrix_shape {m}x{n}")
        return _mapping_document(layers, rows, cols)
    except (KeyError, RecursionError, TypeError, ValueError) as exc:
        raise MappingFormatError(f"mapping document: {type(exc).__name__}: {exc}") from None


def _counts(value, name: str, length: int | None = None) -> list[int]:
    """``value`` if it is a list of ints in [0, 2**63) (``length`` of them, if given), else TypeError."""
    valid = type(value) is list and all(type(x) is int and 0 <= x < 2**63 for x in value)
    if not valid or length not in (None, len(value)):
        raise TypeError(f"{name} must be {length or 'a list of'} non-negative integers below 2**63, got {value!r:.40}")
    return value


def _histogram(utils: list[float]) -> list[int]:
    """Counts of utilizations in the ten bins [0, 0.1), ..., [0.9, 1]."""
    return np.bincount(np.minimum((np.asarray(utils) * 10).astype(int), 9), minlength=10).tolist()


def grid_tiles(bits: np.ndarray, rows: int, cols: int) -> list[int]:
    """Active-synapse counts of non-empty tiles in the fixed grid tiling, in row-major order; no tile is padded."""
    by_rows = np.add.reduceat(bits, np.arange(0, bits.shape[0], rows), axis=0, dtype=np.int64)
    counts = np.add.reduceat(by_rows, np.arange(0, bits.shape[1], cols), axis=1).ravel()
    return counts[counts > 0].tolist()


def map_to_mcas(cluster_sets: list[ClusterSet], tech: TechConfig) -> dict:
    """The ``mapping.json`` document: each cluster on one crossbar, the residual synapses grid-tiled.

    Raises if a cluster's footprint exceeds the crossbar (a violated
    clustering contract). Every live synapse lands in exactly one crossbar: its
    cluster's, or the grid tile holding it.
    """
    layers = []
    for cs in cluster_sets:
        shapes = [(len(rows), len(cols)) for rows, cols in cs.footprints()]
        for rows, cols in shapes:
            if rows > tech.crossbar_rows or cols > tech.crossbar_cols:
                raise ValueError(
                    f"cluster {rows}x{cols} exceeds crossbar {tech.crossbar_rows}x{tech.crossbar_cols}"
                )
        layers.append((
            cs.cell_counts().tolist(),
            grid_tiles(cs.residual.bits, tech.crossbar_rows, tech.crossbar_cols),
            [rows * cols for rows, cols in shapes],
            cs.source.bits.shape,
        ))
    return _mapping_document(layers, tech.crossbar_rows, tech.crossbar_cols)


def mca_energy(mapping: dict, tech: TechConfig) -> dict:
    """Per-inference energy: active cross-points plus a peripheral charge per array."""
    array_e = 0.0
    periph_e = 0.0
    for layer in mapping["layers"]:
        actives = layer["cluster_active"] + layer["residual_active"]
        array_e += sum(actives) * tech.mca_energy_per_active_crosspoint_j
        periph_e += len(actives) * tech.peripheral_energy_per_mca_eval_j
    return {"mca_component_j": array_e, "peripheral_component_j": periph_e, "total_j": array_e + periph_e}


def cmos_energy(n_live_synapses: int, n_stored_weights: int, n_clusters: int = 0) -> dict:
    """General-purpose baseline energy per inference.

    Unclustered nets store the full dense weight matrix (zeros are part of the
    topology); clustered nets store only the cluster submatrix areas plus the
    leftover live synapses, paying a synchronization overhead per cluster.
    """
    if min(n_live_synapses, n_stored_weights, n_clusters) < 0:
        raise ValueError("counts must be non-negative")
    compute = n_live_synapses * CMOS_E_COMPUTE_J
    memory_access = n_live_synapses * CMOS_E_MEM_ACCESS_J
    leakage = n_stored_weights * CMOS_BITS_PER_WEIGHT * CMOS_LEAK_PER_BIT_J
    sync = n_clusters * CMOS_SYNC_PER_CLUSTER_J
    return {"compute_j": compute, "memory_access_j": memory_access, "leakage_j": leakage, "sync_j": sync,
            "total_j": compute + memory_access + leakage + sync}


def energy_document(mapping: dict, tech: TechConfig, storage: str = "auto") -> dict:
    """The ``energy.json`` document of a ``mapping.json`` document: crossbar energy and the CMOS baseline.

    ``storage`` is how the baseline stores weights: "dense" (the full
    matrices), "clustered" (footprints plus residual synapses), or "auto",
    which is clustered exactly when the mapping holds a cluster.
    """
    if storage == "auto":
        storage = "clustered" if mapping["n_clusters"] else "dense"
    stored = {"clustered": mapping["clustered_storage"], "dense": mapping["dense_storage"]}[storage]
    xbar = mca_energy(mapping, tech)
    base = cmos_energy(mapping["n_live"], stored, mapping["n_clusters"])
    return {**xbar, "storage_model": storage, "cmos": base}
