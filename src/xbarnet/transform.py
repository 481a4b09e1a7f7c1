"""Integrated training loop: train, cluster, prune, and prune whole clusters.

Each epoch trains the network once. Then, while enough synapses remain
unclustered and the epoch improved the training loss, one clustering step
(:func:`cluster_step`) clusters each layer's live unclustered synapses, and
one magnitude prune (:func:`~xbarnet.mlp.magnitude_prune`) zeroes in place
every live weight below its threshold that no cluster owns, so a synapse
clustered this epoch is already shielded. A synapse lives exactly when its
weight is non-zero, and the live weights are the only record of which
synapses may live: training never revives a zero weight, an epoch without a
prune zeroes nothing, and cluster pruning zeroes the cells it cuts. Cluster
membership lives in one int32 owner matrix per layer, the only record of its
clusters: -1 for an unclustered cell, otherwise the index of its cluster,
numbered from 0 without gaps. A cluster's utilization is its owned-cell
count over the crossbar area; the cells it owns never change between
acceptance and removal. Once the unclustered fraction falls below the
threshold the loop switches to cluster pruning: per improving epoch it
removes the one lowest-scoring cluster outright and lets subsequent epochs
recover the accuracy.

The state also holds the run's one seed (it draws the initial weights, each
epoch's minibatch order and the clustering seeds) and the log of its epochs,
the loop's only history: the next epoch number and the last loss come from it.

Two switches (``enable_prune``, ``enable_cluster``) turn the same loop into
the baselines: both off is plain training, prune-only is the magnitude
pruning control, and a prune-only run followed by :func:`offline_cluster`,
the same clustering step at epoch 0, is the cluster-after-training arm.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .connectivity import ClusterSet, ConnectivityMatrix, from_weights, owner_cells
from .mlp import MlpModel, TrainConfig, evaluate, init_model, magnitude_prune, train_epoch
from .sizecluster import SizeClusterConfig, size_constrained_cluster
from .util import STREAM_CLUSTER, seed_for


@dataclass(frozen=True)
class TransformConfig:
    scic: SizeClusterConfig = field(default_factory=SizeClusterConfig)
    train: TrainConfig = field(default_factory=TrainConfig)
    unclustered_threshold: float = 0.10
    cluster_prune_alpha: float = 0.5
    max_epochs: int = 20

    def __post_init__(self):
        if not 0 < self.unclustered_threshold < 1:
            raise ValueError("unclustered_threshold must lie in (0, 1)")
        if not 0 <= self.cluster_prune_alpha <= 1:
            raise ValueError("cluster_prune_alpha must lie in [0, 1]")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be non-negative")


@dataclass
class TransformState:
    """Model (its non-zero weights are the live synapses), per layer the owner matrix, seed and log.

    ``owner[layer][i, j]`` is -1 or the index of the cluster covering synapse
    (i, j); a layer's clusters are numbered 0..owner.max() without gaps.
    ``seed`` drives initialization, shuffling and clustering. ``log`` holds
    one record per epoch run so far, so the next epoch is ``len(log) + 1``.
    """

    model: MlpModel
    owner: list[np.ndarray]
    seed: int
    log: list[dict] = field(default_factory=list)

    @classmethod
    def fresh(cls, topology: list[int], seed: int) -> "TransformState":
        model = init_model(topology, seed)
        return cls(
            model=model,
            owner=[np.full(l.weights.shape, -1, dtype=np.int32) for l in model.layers],
            seed=seed,
        )

    def n_clusters(self) -> int:
        return sum(int(owner.max()) + 1 for owner in self.owner)

    def mean_util(self, crossbar_area: int) -> float:
        """Mean cluster utilization: owned cells over the crossbar area."""
        utils = [
            n / crossbar_area
            for owner in self.owner
            for n in np.bincount(owner[owner >= 0]).tolist()
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
    """Scores of every cluster of one layer, in index order (see cluster_score)."""
    weights = state.model.layers[layer_id].weights
    utils, means = [], []
    for index, cells in enumerate(owner_cells(state.owner[layer_id])):
        if len(cells[0]) == 0:
            raise ValueError(f"cluster {index} of layer {layer_id} covers no synapses")
        utils.append(len(cells[0]) / cfg.scic.crossbar_area)
        means.append(float(np.abs(weights[cells]).mean(dtype=np.float64)))
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
    if not 0 <= index <= state.owner[layer_id].max():
        raise ValueError(f"no cluster with index {index} in layer {layer_id}")
    return _layer_scores(state, cfg, layer_id)[index]


def cluster_prune(state: TransformState, cfg: TransformConfig) -> int:
    """Remove the one lowest-scoring cluster of all layers; returns how many were cut (1, or 0 if none exist).

    Every layer is scored once per event; ties break by (layer, index). The
    cut cluster's synapses are zeroed and cleared from the owner matrix, so
    the following epochs can neither train nor revive them, and the clusters
    above it in its layer move down one index.
    """
    scored = [
        (score, layer_id, index)
        for layer_id in range(len(state.owner))
        for index, score in enumerate(_layer_scores(state, cfg, layer_id))
    ]
    if not scored:
        return 0
    _, layer_id, index = min(scored)
    owner, layer = state.owner[layer_id], state.model.layers[layer_id]
    cells = owner == index
    layer.weights[cells] = 0.0
    owner[cells] = -1
    owner[owner > index] -= 1
    return 1


def cluster_step(state: TransformState, scic: SizeClusterConfig, epoch: int) -> list[list[dict]]:
    """Cluster each layer's live unowned synapses into ``state.owner``, weights read only; per layer, the rounds run.

    Layer ``i`` is clustered under ``seed_for(state.seed, STREAM_CLUSTER,
    epoch, i)`` and numbers its new clusters after its existing ones; a layer
    with no live unowned synapse runs no round.
    """
    traces = []
    for layer_id, (layer, owner) in enumerate(zip(state.model.layers, state.owner)):
        trace: list[dict] = []
        traces.append(trace)
        residual = (layer.weights != 0) & (owner < 0)
        if not residual.any():
            continue
        cs = size_constrained_cluster(
            ConnectivityMatrix(residual),
            scic,
            seed_for(state.seed, STREAM_CLUSTER, epoch, layer_id),
            trace=trace,
        )
        owned = cs.owner >= 0
        owner[owned] = cs.owner[owned] + owner.max() + 1
    return traces


def transform_epoch(
    state: TransformState,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TransformConfig,
    enable_prune: bool = True,
    enable_cluster: bool = True,
) -> dict:
    """One epoch of the integrated loop; mutates state, appends its log record and returns it.

    The epoch improved when its training loss is below the last record's; a
    first epoch improves unless its loss is NaN. With clustering enabled, the
    record also lists per layer the rounds that ``size_constrained_cluster``
    ran and the clusters it accepted (``scic_rounds``, ``scic_accepted``);
    both are 0 for a layer this epoch did not cluster. A round that starts with no crossbar fillable to
    ``scic.min_util_factor`` does not run, so such a layer logs 0 rounds.
    """
    epoch = len(state.log) + 1
    loss = train_epoch(state.model, x, y, cfg.train, epoch, state.seed)
    improved = loss < (state.log[-1]["train_loss"] if state.log else float("inf"))
    cluster_pruning = unclustered_fraction(state) < cfg.unclustered_threshold
    n_zeroed = pruned_clusters = 0
    traces: list[list[dict]] = [[] for _ in state.owner]  # per layer: the clustering rounds run

    if cluster_pruning:
        if improved and enable_cluster:
            pruned_clusters = cluster_prune(state, cfg)
    elif improved:
        if enable_cluster:
            traces = cluster_step(state, cfg.scic, epoch)
        if enable_prune:
            protect = [owner >= 0 for owner in state.owner]
            n_zeroed = magnitude_prune(state.model, cfg.train.prune_quality, protect)

    record = {
        "epoch": epoch,
        "train_loss": loss,
        "sparsity": state.model.sparsity(),
        "unclustered_frac": unclustered_fraction(state),
        "n_clusters": state.n_clusters(),
        "mean_util": state.mean_util(cfg.scic.crossbar_area),
        "phase": "cluster_pruning" if cluster_pruning else "clustering",
        "improved": improved,
        "n_zeroed_unprotected": n_zeroed,
        "n_clusters_pruned": pruned_clusters,
    }
    if enable_cluster:
        record["scic_rounds"] = [len(trace) for trace in traces]
        record["scic_accepted"] = [sum(r["accepted"] for r in trace) for trace in traces]
    state.log.append(record)
    return record


def run(
    cfg: TransformConfig,
    topology: list[int],
    x_train: np.ndarray,
    y_train: np.ndarray,
    x_val: np.ndarray,
    y_val: np.ndarray,
    seed: int,
    enable_prune: bool = True,
    enable_cluster: bool = True,
) -> TransformState:
    """Run the loop from a fresh state for exactly ``max_epochs`` epochs; returns the state.

    There is no convergence stop: every run logs ``max_epochs`` records. Each
    also carries the validation accuracy and loss after its epoch.
    """
    state = TransformState.fresh(topology, seed)
    for _ in range(cfg.max_epochs):
        record = transform_epoch(
            state, x_train, y_train, cfg, enable_prune=enable_prune, enable_cluster=enable_cluster
        )
        record["val_acc"], record["val_loss"] = evaluate(state.model, x_val, y_val)
    return state


def offline_cluster(model: MlpModel, scic_cfg: SizeClusterConfig, seed: int) -> list[ClusterSet]:
    """Per-layer ClusterSets of one :func:`cluster_step` at epoch 0 from no clusters; ``model`` is only read.

    The step is the loop's own, so it clusters every live synapse of the final connectivity.
    """
    state = TransformState(model, [np.full(l.weights.shape, -1, dtype=np.int32) for l in model.layers], seed)
    cluster_step(state, scic_cfg, epoch=0)
    return final_cluster_sets(state)


def final_cluster_sets(state: TransformState) -> list[ClusterSet]:
    """Per-layer ClusterSets of the current state; building them checks that every owned cell is live."""
    return [
        ClusterSet(from_weights(layer.weights), owner)
        for layer, owner in zip(state.model.layers, state.owner)
    ]
