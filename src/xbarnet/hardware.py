"""Crossbar mapping and cost models.

Accepted clusters occupy one crossbar array each. A cluster's footprint, the
rows and columns its array spans, is derived from the cells it owns
(:meth:`ClusterSet.footprints`). Whatever stays unclustered is tiled onto
the fixed ceil(m/rows) x ceil(n/cols) grid of the layer matrix, and only
non-empty tiles count. That tiler is deliberately pessimistic:
irregular sparsity should map poorly, which is the effect the cost models are
meant to expose. Energy per inference splits into an array component that
scales with active cross-points and a peripheral component that scales with
the number of arrays (buffers, communication, control); the CMOS model
charges compute and memory access per live synapse, leakage per stored bit,
and a synchronization surcharge per cluster.

A mapping stores only what it measured per layer: ``cluster_active``,
``residual_active``, ``cluster_areas`` and ``matrix_shape``. The other keys
of ``mapping.json`` are derived when the document is built
(:meth:`MappingReport.to_dict`) and ignored when it is read back: per layer
``clustered_mca_count``, ``residual_mca_count``, ``histogram``,
``unclustered_fraction``, ``cluster_utils`` and ``residual_utils``; at the top
``num_mca``, ``n_live``, ``n_clusters``, ``clustered_storage`` and
``dense_storage``. :func:`energy_document` builds ``energy.json`` for both a
run and the ``report`` command.
"""

from __future__ import annotations

import math
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
    cores_k: int = 4

    def __post_init__(self):
        if self.mca_energy_per_active_crosspoint_j < 0 or self.peripheral_energy_per_mca_eval_j < 0:
            raise ValueError("energies must be non-negative")
        if self.cores_k < 1:
            raise ValueError("cores_k must be positive")
        if self.crossbar_rows < 1 or self.crossbar_cols < 1:
            raise ValueError("crossbar dimensions must be positive")


@dataclass(frozen=True)
class CmosConfig:
    """Per-operation energy constants for the general-purpose baseline.

    The defaults are representative placeholders, not measurements; override them where absolute numbers matter.
    """

    e_compute_j: float = 4.6e-12
    e_mem_access_j: float = 2.6e-11
    p_leak_per_bit_j: float = 1.0e-15
    bits_per_weight: int = 4
    sync_overhead_per_cluster_j: float = 1.0e-11

    def __post_init__(self):
        for name in ("e_compute_j", "e_mem_access_j", "p_leak_per_bit_j", "sync_overhead_per_cluster_j"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.bits_per_weight < 1:
            raise ValueError("bits_per_weight must be positive")


class MappingFormatError(InputFormatError):
    """Raised on a ``mapping.json`` document that is not JSON, lacks a well-typed
    measured field, or has another layer count than ``evals_per_inference``."""


@dataclass
class LayerMapping:
    """What one layer's mapping measured; every other per-layer figure derives from it."""

    cluster_active: list[int]
    residual_active: list[int]
    cluster_areas: list[int]
    matrix_shape: tuple[int, int]

    @property
    def mca_count(self) -> int:
        return len(self.cluster_active) + len(self.residual_active)


@dataclass
class MappingReport:
    layers: list[LayerMapping]
    num_core: int
    crossbar_rows: int
    crossbar_cols: int

    @property
    def num_mca(self) -> int:
        return sum(l.mca_count for l in self.layers)

    def n_live(self) -> int:
        return sum(sum(l.cluster_active) + sum(l.residual_active) for l in self.layers)

    def n_clusters(self) -> int:
        return sum(len(l.cluster_active) for l in self.layers)

    def clustered_storage(self) -> int:
        """Cluster footprint areas plus individually stored residual synapses."""
        return sum(sum(l.cluster_areas) + sum(l.residual_active) for l in self.layers)

    def dense_storage(self) -> int:
        return sum(l.matrix_shape[0] * l.matrix_shape[1] for l in self.layers)

    def to_dict(self) -> dict:
        """The ``mapping.json`` document, derived figures included."""
        area = self.crossbar_rows * self.crossbar_cols
        layers = []
        for l in self.layers:
            cluster_utils = [a / area for a in l.cluster_active]
            live = sum(l.cluster_active) + sum(l.residual_active)
            layers.append(
                {
                    "clustered_mca_count": len(l.cluster_active),
                    "residual_mca_count": len(l.residual_active),
                    "histogram": _histogram(cluster_utils),
                    "unclustered_fraction": (sum(l.residual_active) / live) if live else 0.0,
                    "cluster_utils": cluster_utils,
                    "residual_utils": [a / area for a in l.residual_active],
                    "cluster_active": l.cluster_active,
                    "residual_active": l.residual_active,
                    "cluster_areas": l.cluster_areas,
                    "matrix_shape": list(l.matrix_shape),
                }
            )
        return {
            "num_mca": self.num_mca,
            "num_core": self.num_core,
            "crossbar_rows": self.crossbar_rows,
            "crossbar_cols": self.crossbar_cols,
            "n_live": self.n_live(),
            "n_clusters": self.n_clusters(),
            "clustered_storage": self.clustered_storage(),
            "dense_storage": self.dense_storage(),
            "layers": layers,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MappingReport":
        """Parse the measured fields of a ``mapping.json`` document; derived ones are ignored.

        Each measured field must hold non-negative integers.
        """
        try:
            layers = [
                LayerMapping(
                    *(_counts(d[key], key) for key in ("cluster_active", "residual_active", "cluster_areas")),
                    tuple(_counts(d["matrix_shape"], "matrix_shape", length=2)),
                )
                for d in data["layers"]
            ]
            scalars = [data["num_core"], data["crossbar_rows"], data["crossbar_cols"]]
            return cls(layers, *_counts(scalars, "num_core, crossbar_rows and crossbar_cols"))
        except (KeyError, TypeError) as exc:
            raise MappingFormatError(f"mapping document: {type(exc).__name__}: {exc}") from None


def _counts(value, name: str, length: int | None = None) -> list[int]:
    """``value`` if it is a list of non-negative ints (``length`` of them, if given), else TypeError."""
    valid = type(value) is list and all(type(x) is int and x >= 0 for x in value)
    if not valid or length not in (None, len(value)):
        raise TypeError(f"{name} must be {length or 'a list of'} non-negative integers, got {value!r:.40}")
    return value


def _histogram(utils: list[float]) -> list[int]:
    """Counts of utilizations in the ten bins [0, 0.1), ..., [0.9, 1]."""
    return np.bincount(np.minimum((np.asarray(utils) * 10).astype(int), 9), minlength=10).tolist()


def grid_tiles(bits: np.ndarray, rows: int, cols: int) -> list[int]:
    """Active-synapse counts of non-empty tiles in the fixed grid tiling, in row-major tile order."""
    m, n = bits.shape
    bm, bn = math.ceil(m / rows), math.ceil(n / cols)
    padded = np.pad(bits, ((0, bm * rows - m), (0, bn * cols - n)))
    counts = padded.reshape(bm, rows, bn, cols).sum(axis=(1, 3)).ravel()
    return counts[counts > 0].tolist()


def core_count(num_mca: int, k: int) -> int:
    """ceil(num_mca / k); a fractional core is still a physical core."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if num_mca < 0:
        raise ValueError("num_mca must be non-negative")
    return math.ceil(num_mca / k)


def map_to_mcas(cluster_sets: list[ClusterSet], tech: TechConfig) -> MappingReport:
    """Assign each cluster one crossbar and grid-tile the residual synapses.

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
        layers.append(
            LayerMapping(
                cluster_active=cs.cell_counts().tolist(),
                residual_active=grid_tiles(cs.residual.bits, tech.crossbar_rows, tech.crossbar_cols),
                cluster_areas=[rows * cols for rows, cols in shapes],
                matrix_shape=cs.source.bits.shape,
            )
        )
    num_mca = sum(l.mca_count for l in layers)
    return MappingReport(
        layers=layers,
        num_core=core_count(num_mca, tech.cores_k),
        crossbar_rows=tech.crossbar_rows,
        crossbar_cols=tech.crossbar_cols,
    )


def mca_energy(
    report: MappingReport, tech: TechConfig, evals_per_inference: list[int] | None = None
) -> dict:
    """Per-inference energy: active cross-points plus a peripheral charge per array."""
    if evals_per_inference is None:
        evals_per_inference = [1] * len(report.layers)
    if len(evals_per_inference) != len(report.layers):
        counts = (len(report.layers), len(evals_per_inference))
        raise MappingFormatError("mapping has %d layers, evals_per_inference %d" % counts)
    array_e = 0.0
    periph_e = 0.0
    for layer, evals in zip(report.layers, evals_per_inference):
        actives = layer.cluster_active + layer.residual_active
        array_e += evals * sum(actives) * tech.mca_energy_per_active_crosspoint_j
        periph_e += evals * len(actives) * tech.peripheral_energy_per_mca_eval_j
    return {"mca_component_j": array_e, "peripheral_component_j": periph_e, "total_j": array_e + periph_e}


def cmos_energy(
    n_live_synapses: int, n_stored_weights: int, cmos: CmosConfig, n_clusters: int = 0
) -> dict:
    """General-purpose baseline energy per inference.

    Unclustered nets store the full dense weight matrix (zeros are part of the
    topology); clustered nets store only the cluster submatrix areas plus the
    leftover live synapses, paying a synchronization overhead per cluster.
    """
    if min(n_live_synapses, n_stored_weights, n_clusters) < 0:
        raise ValueError("counts must be non-negative")
    compute = n_live_synapses * cmos.e_compute_j
    memory_access = n_live_synapses * cmos.e_mem_access_j
    leakage = n_stored_weights * cmos.bits_per_weight * cmos.p_leak_per_bit_j
    sync = n_clusters * cmos.sync_overhead_per_cluster_j
    return {"compute_j": compute, "memory_access_j": memory_access, "leakage_j": leakage, "sync_j": sync,
            "total_j": compute + memory_access + leakage + sync}


def energy_document(
    report: MappingReport,
    tech: TechConfig,
    cmos: CmosConfig,
    evals_per_inference: list[int] | None = None,
    storage: str = "auto",
) -> dict:
    """The ``energy.json`` document: crossbar energy and the CMOS baseline.

    ``storage`` is how the baseline stores weights: "dense" (the full
    matrices), "clustered" (footprints plus residual synapses), or "auto",
    which is clustered exactly when the mapping holds a cluster.
    """
    if storage == "auto":
        storage = "clustered" if report.n_clusters() else "dense"
    stored = {"clustered": report.clustered_storage, "dense": report.dense_storage}[storage]()
    xbar = mca_energy(report, tech, evals_per_inference)
    base = cmos_energy(report.n_live(), stored, cmos, report.n_clusters())
    return {**xbar, "storage_model": storage, "cmos": base}
