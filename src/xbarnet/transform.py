"""Integrated training loop: train, prune, cluster, and prune whole clusters.

Each epoch trains the network once, then (while enough synapses remain
unclustered and the epoch improved the training loss) refreshes the prune
maps, runs size-constrained clustering on the still-unclustered synapses, and
zeroes every synapse that is marked prunable and sits outside all clusters.
Cluster membership lives in one int32 owner matrix per layer: -1 for an
unclustered cell, otherwise the index of its cluster in that layer's record
list. A cluster's utilization is its owned-cell count over the crossbar
area; the cells it owns never change between acceptance and removal. The
model mask is always the prune map OR the owned cells, so clustered
synapses are shielded from magnitude pruning. Once the unclustered fraction
falls below the threshold the loop switches to cluster pruning: per improving
epoch it removes the lowest-scoring clusters outright and lets subsequent
epochs recover the accuracy.

Two switches (``enable_prune``, ``enable_cluster``) turn the same loop into
the baselines: both off is plain training, prune-only is the magnitude
pruning control, and a prune-only run followed by :func:`offline_cluster` is
the cluster-after-training arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connectivity import (
    Cluster,
    ClusterSet,
    ConnectivityMatrix,
    Mask,
    audit_cluster_set,
    from_weights,
    owner_cells,
)
from .mlp import MlpModel, TrainConfig, evaluate, init_model, magnitude_prune, train_epoch
from .sizecluster import SizeClusterConfig, size_constrained_cluster
from .util import STREAM_CLUSTER, seed_for

PHASE_CLUSTERING = "clustering"
PHASE_CLUSTER_PRUNING = "cluster_pruning"


@dataclass(frozen=True)
class TransformConfig:
    scic: SizeClusterConfig = field(default_factory=SizeClusterConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    unclustered_threshold: float = 0.10
    cluster_prune_alpha: float = 0.5
    clusters_pruned_per_event: int = 1
    max_epochs: int = 20
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.unclustered_threshold < 1:
            raise ValueError("unclustered_threshold must lie in (0, 1)")
        if not 0 <= self.cluster_prune_alpha <= 1:
            raise ValueError("cluster_prune_alpha must lie in [0, 1]")
        if self.clusters_pruned_per_event < 1:
            raise ValueError("clusters_pruned_per_event must be positive")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")


@dataclass
class TransformState:
    """Model, prune maps, and per layer the accepted clusters and owner matrix.

    ``owner[layer][i, j]`` is -1 or the index into ``records[layer]`` of the
    cluster covering synapse (i, j).
    """

    model: MlpModel
    prune_maps: list[np.ndarray]
    owner: list[np.ndarray]
    records: list[list[Cluster]]
    epoch: int = 0
    training_error_previous: float = float("inf")
    phase: str = PHASE_CLUSTERING

    @classmethod
    def fresh(cls, topology: list[int], seed: int) -> "TransformState":
        model = init_model(topology, seed)
        return cls(
            model=model,
            prune_maps=[np.ones(l.weights.shape, dtype=np.uint8) for l in model.layers],
            owner=[np.full(l.weights.shape, -1, dtype=np.int32) for l in model.layers],
            records=[[] for _ in model.layers],
        )

    def n_clusters(self) -> int:
        return sum(len(r) for r in self.records)

    def mean_util(self, crossbar_area: int) -> float:
        """Mean cluster utilization: owned cells over the crossbar area."""
        utils = [
            n / crossbar_area
            for recs, owner in zip(self.records, self.owner)
            for n in np.bincount(owner[owner >= 0], minlength=len(recs)).tolist()
        ]
        return float(np.mean(utils)) if utils else 0.0


def unclustered_fraction(state: TransformState) -> float:
    """Unclustered live synapses over all live synapses (0 when nothing lives)."""
    live = 0
    unclustered = 0
    for layer, owner in zip(state.model.layers, state.owner):
        nz = layer.weights != 0
        live += int(nz.sum())
        unclustered += int((nz & (owner < 0)).sum())
    return unclustered / live if live else 0.0


def _layer_scores(state: TransformState, cfg: TransformConfig, layer_id: int) -> list[float]:
    """Scores of every cluster of one layer, in record order (see cluster_score)."""
    weights = state.model.layers[layer_id].weights
    utils, means = [], []
    for index, cells in enumerate(owner_cells(state.owner[layer_id], len(state.records[layer_id]))):
        if len(cells[0]) == 0:
            raise ValueError(f"cluster {index} of layer {layer_id} covers no synapses")
        utils.append(len(cells[0]) / cfg.scic.crossbar_area)
        means.append(np.abs(weights[cells]).mean())
    top = max(means, default=0.0)
    alpha = cfg.cluster_prune_alpha
    return [
        alpha * util + (1 - alpha) * (mean / top if top > 0 else 0.0)
        for util, mean in zip(utils, means)
    ]


def cluster_score(state: TransformState, cfg: TransformConfig, layer_id: int, index: int) -> float:
    """alpha * utilization + (1 - alpha) * normalized mean |w| of the cluster.

    Utilization is the cluster's owned-cell count over the crossbar area. The
    magnitude term divides the cluster's mean |w| over its covered
    synapses by the largest such mean among the clusters of the same layer,
    so each layer's strongest cluster scores 1.0 on that term.
    """
    if not 0 <= index < len(state.records[layer_id]):
        raise ValueError(f"no cluster with index {index} in layer {layer_id}")
    return _layer_scores(state, cfg, layer_id)[index]


def cluster_prune(state: TransformState, cfg: TransformConfig) -> int:
    """Remove the lowest-scoring clusters globally; returns how many were cut.

    Every layer is scored once per event. The removed clusters' synapses are
    zeroed and dropped from the prune map and the owner matrix, so the
    following epochs can neither train nor re-prune them; ties break by
    (layer, index). No-op on an empty cluster set.
    """
    scored = [
        (score, layer_id, index)
        for layer_id in range(len(state.records))
        for index, score in enumerate(_layer_scores(state, cfg, layer_id))
    ]
    chosen = sorted(scored)[: cfg.clusters_pruned_per_event]
    # highest index first, so a removal never shifts a cluster still to be removed
    for _, layer_id, index in sorted(chosen, key=lambda t: t[2], reverse=True):
        owner = state.owner[layer_id]
        cells = owner == index
        state.model.layers[layer_id].weights[cells] = 0.0
        state.prune_maps[layer_id][cells] = 0
        owner[cells] = -1
        owner[owner > index] -= 1
        del state.records[layer_id][index]
    return len(chosen)


def _refresh_masks(state: TransformState) -> int:
    """mask <- prune map OR owned cells; zero weights outside; count casualties."""
    zeroed = 0
    for layer, pmap, owner in zip(state.model.layers, state.prune_maps, state.owner):
        union = pmap | (owner >= 0)
        zeroed += int(((layer.weights != 0) & (union == 0)).sum())
        layer.mask = Mask(union)
        layer.weights *= union
    return zeroed


def transform_epoch(
    state: TransformState,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TransformConfig,
    enable_prune: bool = True,
    enable_cluster: bool = True,
) -> dict:
    """One epoch of the integrated loop; mutates state, returns the log record."""
    epoch = state.epoch + 1
    loss = train_epoch(state.model, x, y, cfg.train, epoch)
    improved = loss < state.training_error_previous
    frac_before = unclustered_fraction(state)
    n_zeroed = 0
    pruned_clusters = 0

    if frac_before < cfg.unclustered_threshold:
        state.phase = PHASE_CLUSTER_PRUNING
        if improved and enable_cluster:
            pruned_clusters = cluster_prune(state, cfg)
    else:
        state.phase = PHASE_CLUSTERING
        if improved:
            if enable_prune:
                maps = magnitude_prune(state.model, cfg.train.prune_quality)
                state.prune_maps = [np.array(m.bits) for m in maps]
            if enable_cluster:
                for layer_id, layer in enumerate(state.model.layers):
                    owner = state.owner[layer_id]
                    residual_bits = ((layer.weights != 0) & (owner < 0)).astype(np.uint8)
                    if not residual_bits.any():
                        continue
                    cs = size_constrained_cluster(
                        ConnectivityMatrix(residual_bits),
                        cfg.scic,
                        seed_for(cfg.seed, STREAM_CLUSTER, epoch, layer_id),
                        layer_id=layer_id,
                    )
                    owned = cs.owner >= 0
                    owner[owned] = cs.owner[owned] + len(state.records[layer_id])
                    state.records[layer_id].extend(cs.clusters)

    n_zeroed = _refresh_masks(state)
    state.training_error_previous = loss
    state.epoch = epoch
    return {
        "epoch": epoch,
        "train_loss": loss,
        "sparsity": state.model.sparsity(),
        "unclustered_frac": unclustered_fraction(state),
        "n_clusters": state.n_clusters(),
        "mean_util": state.mean_util(cfg.scic.crossbar_area),
        "phase": state.phase,
        "improved": improved,
        "n_zeroed_unprotected": n_zeroed,
        "n_clusters_pruned": pruned_clusters,
    }


@dataclass
class TransformResult:
    model: MlpModel
    state: TransformState
    log: list[dict]


def _converged(log: list[dict]) -> bool:
    # validation accuracy drift < 0.1% absolute and unclustered fraction drift
    # < 1% over the last five consecutive epochs
    if len(log) < 6:
        return False
    recent = log[-6:]
    acc = [r["val_acc"] for r in recent]
    frac = [r["unclustered_frac"] for r in recent]
    acc_stable = all(abs(a - b) < 0.001 for a, b in zip(acc[1:], acc[:-1]))
    frac_stable = all(abs(a - b) < 0.01 for a, b in zip(frac[1:], frac[:-1]))
    return acc_stable and frac_stable


def run(
    cfg: TransformConfig,
    topology: list[int],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    enable_prune: bool = True,
    enable_cluster: bool = True,
) -> TransformResult:
    """Run the loop until max_epochs or convergence; returns model, state, log.

    Convergence: validation accuracy moved by < 0.1% absolute and the
    unclustered fraction by < 1% over five consecutive epochs.
    """
    state = TransformState.fresh(topology, cfg.seed)
    log: list[dict] = []
    for _ in range(cfg.max_epochs):
        record = transform_epoch(
            state, x_train, y_train, cfg, enable_prune=enable_prune, enable_cluster=enable_cluster
        )
        val_acc, val_loss = evaluate(state.model, x_val, y_val)
        record["val_acc"] = val_acc
        record["val_loss"] = val_loss
        log.append(record)
        if _converged(log):
            break
    return TransformResult(model=state.model, state=state, log=log)


def offline_cluster(model: MlpModel, scic_cfg: SizeClusterConfig, seed: int) -> list[ClusterSet]:
    """One post-hoc clustering pass per layer on the final connectivity."""
    sets = []
    for layer_id, layer in enumerate(model.layers):
        sets.append(
            size_constrained_cluster(
                from_weights(layer.weights),
                scic_cfg,
                seed_for(seed, STREAM_CLUSTER, 0, layer_id),
                layer_id=layer_id,
            )
        )
    return sets


def audit_state(state: TransformState) -> None:
    """Exact consistency checks between model, maps, and cluster records.

    The model mask must equal prune map OR owned cells, weights outside the
    mask must be zero, and each layer's cluster set must pass
    :func:`audit_cluster_set` against the live synapses: owned cells are live
    and inside their cluster's footprint, and no cluster is empty.
    """
    for layer_id, (layer, cs) in enumerate(zip(state.model.layers, final_cluster_sets(state))):
        union = state.prune_maps[layer_id] | (cs.owner >= 0)
        assert np.array_equal(layer.mask.bits, union), f"layer {layer_id}: mask is not the map union"
        assert not layer.weights[union == 0].any(), f"layer {layer_id}: live weight outside mask"
        audit_cluster_set(cs, cs.source)


def final_cluster_sets(state: TransformState) -> list[ClusterSet]:
    """Per-layer ClusterSets of the current state for mapping and reports."""
    return [
        ClusterSet(
            clusters=tuple(records),
            source=from_weights(layer.weights),
            owner=owner,
        )
        for layer, records, owner in zip(state.model.layers, state.records, state.owner)
    ]
