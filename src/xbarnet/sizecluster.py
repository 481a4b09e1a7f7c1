"""Size-constrained iterative clustering of a connectivity matrix.

Repeatedly spectral-clusters the remaining (unclustered) connectivity,
greedily accepts groups that fit the crossbar and clear a decaying
utilization threshold, and splits oversized groups until everything fits.
Accepted clusters spend their full induced-submatrix footprint: the 0-entries
inside an accepted block become unusable cross-points and never return to the
pool. Acceptance writes the cluster's index into the owner matrix at every
still-unowned synapse of its footprint. Synapses of rejected groups stay
unowned and get another chance in later rounds.

Finding groups and ordering a group for splitting use one graph path:
the active block goes through ``build_similarity``, ``normalized_laplacian``
and ``eig_smallest`` (see ``spectral``). Splitting orders each side by the
second Laplacian eigenvector of the candidate's bipartite graph; consecutive
chunks of crossbar size pair up in a grid, so child footprints partition the
parent's footprint even when the graph has no cut structure at all (a
complete block splits into full crossbars). When a round's spectral groups
yield nothing, the same ordered split runs once on the whole residual as a
fallback before the threshold decays.

Utilization is counted against the full crossbar the cluster will occupy
(crossbar_rows x crossbar_cols), not against the submatrix size, so a small
cluster on a big crossbar scores low by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import Cluster, ClusterSet, ConnectivityMatrix
from .spectral import build_similarity, eig_smallest, normalized_laplacian, spectral_cluster
from .util import seed_for


@dataclass(frozen=True)
class SizeClusterConfig:
    """Knobs for the iterative clustering loop.

    The spectral group count per round is derived, not set: the smaller of
    nnz / (crossbar area * base threshold) and node count /
    (crossbar_rows + crossbar_cols), clamped to [2, active nodes]. The first
    term aims each cluster at one well-filled crossbar; the second keeps
    groups large enough to span a full block on matrices with many more
    synapses than nodes.
    """

    crossbar_rows: int = 16
    crossbar_cols: int = 16
    base_util_factor: float = 0.8
    min_util_factor: float = 0.4
    decay_rate: float = 0.9
    max_rounds: int = 50

    def __post_init__(self):
        if self.crossbar_rows < 1 or self.crossbar_cols < 1:
            raise ValueError("crossbar dimensions must be positive")
        if not 0 < self.base_util_factor <= 1:
            raise ValueError("base_util_factor must lie in (0, 1]")
        if not 0 < self.min_util_factor <= self.base_util_factor:
            raise ValueError("min_util_factor must lie in (0, base_util_factor]")
        if not 0 < self.decay_rate < 1:
            raise ValueError("decay_rate must lie in (0, 1)")
        if self.max_rounds < 1:
            raise ValueError("max_rounds must be positive")

    @property
    def crossbar_area(self) -> int:
        return self.crossbar_rows * self.crossbar_cols


def _derived_k(nnz: int, n_active: int, cfg: SizeClusterConfig) -> int:
    k_nnz = math.ceil(nnz / (cfg.crossbar_area * cfg.base_util_factor))
    k_nodes = math.ceil(n_active / (cfg.crossbar_rows + cfg.crossbar_cols))
    return max(2, min(k_nnz, k_nodes, n_active))


def _spectral_order(bits: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Order rows and cols by the second Laplacian eigenvector of the subgraph.

    Ties (and degenerate graphs) fall back to index order; the eigenvector
    sign is canonicalized so the ordering is reproducible.
    """
    m = len(rows)
    lap = normalized_laplacian(build_similarity(ConnectivityMatrix(bits[np.ix_(rows, cols)])))
    _, vectors = eig_smallest(lap, min(2, m + len(cols)))
    v = vectors[:, -1]
    anchor = int(np.abs(v).argmax())
    if v[anchor] < 0:
        v = -v
    row_order = np.lexsort((rows, v[:m]))
    col_order = np.lexsort((cols, v[m:]))
    return rows[row_order], cols[col_order]


def _ordered_grid_children(
    bits: np.ndarray, rows: np.ndarray, cols: np.ndarray, cfg: SizeClusterConfig, layer_id: int
) -> list[Cluster]:
    """Pair crossbar-sized chunks of spectrally ordered rows/cols into children."""
    sub = bits[np.ix_(rows, cols)]
    live_rows = rows[sub.any(axis=1)]
    live_cols = cols[sub.any(axis=0)]
    if len(live_rows) == 0 or len(live_cols) == 0:
        return []
    ordered_rows, ordered_cols = _spectral_order(bits, live_rows, live_cols)
    row_chunks = [
        ordered_rows[i : i + cfg.crossbar_rows]
        for i in range(0, len(ordered_rows), cfg.crossbar_rows)
    ]
    col_chunks = [
        ordered_cols[j : j + cfg.crossbar_cols]
        for j in range(0, len(ordered_cols), cfg.crossbar_cols)
    ]
    children = []
    for rc in row_chunks:
        for cc in col_chunks:
            if bits[np.ix_(rc, cc)].any():
                children.append(Cluster(tuple(rc.tolist()), tuple(cc.tolist()), layer_id))
    return children


def split_oversized(
    cluster: Cluster,
    c: ConnectivityMatrix,
    cfg: SizeClusterConfig,
) -> list[Cluster]:
    """Split a too-large cluster into crossbar-sized children.

    Rows and columns are ordered by the subgraph's second Laplacian
    eigenvector and cut into consecutive crossbar-sized chunks whose pairings
    become the children, so the ceil(rows/crossbar_rows) *
    ceil(cols/crossbar_cols) pieces partition the parent's footprint and each
    fits the crossbar. Synapse-free rows/cols and empty pairings are dropped.
    The split is deterministic.
    """
    if cluster.fits(cfg.crossbar_rows, cfg.crossbar_cols):
        raise ValueError("cluster already fits the crossbar; nothing to split")
    rows = np.fromiter(cluster.row_ids, dtype=np.int64)
    cols = np.fromiter(cluster.col_ids, dtype=np.int64)
    return _ordered_grid_children(c.bits, rows, cols, cfg, cluster.layer_id)


def size_constrained_cluster(
    c: ConnectivityMatrix,
    cfg: SizeClusterConfig,
    seed: int,
    layer_id: int = 0,
    trace: list | None = None,
) -> ClusterSet:
    """Iteratively cluster ``c`` into crossbar-sized, well-utilized blocks.

    Each round re-clusters the whole residual; a round that accepts nothing
    decays the utilization threshold, and the loop stops once the threshold
    would fall below ``min_util_factor``, the residual empties, or
    ``max_rounds`` is hit. Every accepted cluster fits the crossbar and has
    utilization >= min_util_factor. The returned set's owner matrix holds,
    per synapse of ``c``, the index of the cluster that took it or -1.
    ``trace``, when given, receives one dict per round for auditing.
    """
    residual = np.array(c.bits, dtype=np.uint8)
    owner = np.full(c.bits.shape, -1, dtype=np.int32)
    accepted: list[Cluster] = []
    util_factor = cfg.base_util_factor

    def try_accept(rows: np.ndarray, cols: np.ndarray) -> bool:
        sub = residual[np.ix_(rows, cols)]
        sub_nnz = int(sub.sum())
        if sub_nnz == 0:
            return False
        live_rows = rows[sub.any(axis=1)]
        live_cols = cols[sub.any(axis=0)]
        if len(live_rows) > cfg.crossbar_rows or len(live_cols) > cfg.crossbar_cols:
            return False
        if sub_nnz / cfg.crossbar_area < util_factor:
            return False
        block = np.ix_(live_rows, live_cols)
        owner[block] = np.where(residual[block] == 1, len(accepted), owner[block])
        accepted.append(Cluster(tuple(live_rows.tolist()), tuple(live_cols.tolist()), layer_id))
        residual[block] = 0
        return True

    def handle(rows: np.ndarray, cols: np.ndarray) -> int:
        """Fit-test a candidate, splitting it first when oversized."""
        sub = residual[np.ix_(rows, cols)]
        if not sub.any():
            return 0
        live_rows = rows[sub.any(axis=1)]
        live_cols = cols[sub.any(axis=0)]
        if len(live_rows) <= cfg.crossbar_rows and len(live_cols) <= cfg.crossbar_cols:
            return int(try_accept(live_rows, live_cols))
        count = 0
        for child in _ordered_grid_children(residual, live_rows, live_cols, cfg, layer_id):
            count += int(
                try_accept(
                    np.fromiter(child.row_ids, dtype=np.int64),
                    np.fromiter(child.col_ids, dtype=np.int64),
                )
            )
        return count

    for round_no in range(1, cfg.max_rounds + 1):
        nnz_before = int(residual.sum())
        if nnz_before == 0:
            break
        active_rows = np.flatnonzero(residual.any(axis=1))
        active_cols = np.flatnonzero(residual.any(axis=0))
        accepted_this_round = 0

        if len(active_rows) <= cfg.crossbar_rows and len(active_cols) <= cfg.crossbar_cols:
            accepted_this_round += int(try_accept(active_rows, active_cols))
        else:
            # structure stage: spectral groups over the residual graph
            k = _derived_k(nnz_before, len(active_rows) + len(active_cols), cfg)
            groups = spectral_cluster(ConnectivityMatrix(residual), k, seed_for(seed, round_no))
            for g_rows, g_cols in groups:
                if len(g_rows) == 0 or len(g_cols) == 0:
                    continue  # one-sided group: synapses stay residual
                accepted_this_round += handle(g_rows, g_cols)
            if accepted_this_round == 0:
                # fallback: ordered grid split of the whole residual
                accepted_this_round += handle(active_rows, active_cols)

        if trace is not None:
            trace.append(
                {
                    "round": round_no,
                    "util_factor": util_factor,
                    "accepted": accepted_this_round,
                    "residual_before": nnz_before,
                    "residual_after": int(residual.sum()),
                }
            )
        if accepted_this_round == 0:
            util_factor *= cfg.decay_rate
            if util_factor < cfg.min_util_factor:
                break

    return ClusterSet(tuple(accepted), c, owner)
