"""Size-constrained iterative clustering of a connectivity matrix.

Repeatedly spectral-clusters the remaining (unclustered) connectivity,
greedily accepts groups that fit the crossbar and clear a decaying
utilization threshold, and splits oversized groups until everything fits.
Accepted clusters spend their full induced-submatrix footprint: the 0-entries
inside an accepted block become unusable cross-points and never return to the
pool. Acceptance writes the cluster's index into the owner matrix at each
still-unowned synapse of the candidate, so the owner matrix alone records
the cluster. Synapses of rejected groups stay unowned and get another
chance in later rounds.

One bound, ``_best_fill``, caps the utilization of any crossbar-sized piece
of a block from its row and col synapse counts. The loop stops once the
residual's bound is below ``min_util_factor`` (an empty residual's is 0):
the residual only shrinks and every acceptance clears that floor, so no
later round could accept. A round whose residual's bound is below the
round's threshold seeks no groups and splits nothing; it only decays the
threshold. A candidate whose bound is below it is dropped before it is
ordered, so it costs no eigensolve.

Every candidate takes one path: ``split_oversized`` drops its synapse-free
rows and cols and, unless the rest fits the crossbar, splits it; each piece
then faces only the utilization test, inside the split, on its synapse count
from one gather of the ordered block. The split returns only the pieces that
pass, and the loop accepts each of them, so only an accepted piece is
gathered again.
Finding groups and ordering a group for splitting use one graph path,
``_eigenvectors``: the active block, sliced from the 0/1 residual, goes as
a plain array through ``build_similarity`` and ``eig_smallest``, which
solves the bipartite Laplacian from one ``eigh`` of the degree-scaled
biadjacency's smaller Gram matrix (see ``spectral``). The input
``ConnectivityMatrix`` is checked once, by its constructor, before the
residual is copied from it. Splitting orders
each side by the second Laplacian eigenvector of the candidate's bipartite
graph; consecutive chunks of crossbar size pair up in a grid, so child
footprints partition the parent's footprint even when the graph has no cut
structure at all (a complete block splits into full crossbars in index order, with no
eigensolve: every order fills every piece, so an eigenvector has nothing to
choose). Spectral groups are sought only when the residual neither fits one
crossbar nor is one complete block, as every layer is before its first
prune: such a graph has no cut structure for them to find. When there are
no groups to seek, or they yield nothing, the whole residual is the round's
one candidate before the threshold decays.

Each residual state is solved once per call. The loop gathers the
residual's active block and solves it for its eigenvector matrix: a round
that accepts nothing leaves the residual unchanged, and the next round runs
k-means on the same vectors under its own seed. Only an acceptance changes
the residual and drops them. The whole residual needs an order only in a
round whose structure stage ran on it and accepted nothing, so its order is
column 1 of those vectors, whose columns do not depend on their count; a
group's split solves the group's own block.

Utilization is counted against the full crossbar the cluster will occupy
(crossbar_rows x crossbar_cols), not against the submatrix size, so a small
cluster on a big crossbar scores low by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import ClusterSet, ConnectivityMatrix
from .hardware import tile_counts
from .spectral import build_similarity, eig_smallest, spectral_cluster
from .util import seed_for


@dataclass(frozen=True)
class SizeClusterConfig:
    """Knobs for the iterative clustering loop.

    The spectral group count per round is derived, not set: the smaller of
    nnz / (crossbar area * base threshold) and node count /
    (crossbar_rows + crossbar_cols), clamped to [2, the active block's
    smaller side], as the block has no more eigenpairs to embed. The first
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


def _derived_k(nnz: int, m: int, n: int, cfg: SizeClusterConfig) -> int:
    k_nnz = math.ceil(nnz / (cfg.crossbar_area * cfg.base_util_factor))
    k_nodes = math.ceil((m + n) / (cfg.crossbar_rows + cfg.crossbar_cols))
    # only a block that is not complete is solved, and a block one line wide is complete, so 2 <= min(m, n)
    return max(2, min(k_nnz, k_nodes, m, n))


def _eigenvectors(block: np.ndarray, k: int) -> np.ndarray:
    """The k smallest Laplacian eigenvectors of the bipartite graph of a 0/1 block: rows, then cols.

    The block goes to ``build_similarity`` as it is, unwrapped and uncopied:
    its non-zero entries are the edges.
    """
    return eig_smallest(build_similarity(block).values, k)[1]


def _second_vector(block: np.ndarray) -> np.ndarray:
    """Second Laplacian eigenvector of the bipartite graph of a 0/1 block: rows, then cols."""
    return _eigenvectors(block, 2)[:, 1]


def _best_fill(row_counts: np.ndarray, col_counts: np.ndarray, cfg: SizeClusterConfig) -> float:
    """A bound on the utilization of any crossbar-sized piece of a block with these row and col synapse counts.

    A piece takes at most crossbar_rows of the block's rows and crossbar_cols
    of its cols, so it holds at most the sum of the crossbar_rows largest row
    counts, the sum of the crossbar_cols largest col counts and
    crossbar_area synapses. The bound faces the test ``split_oversized``
    applies to a piece's own count, so a block whose bound is below a
    threshold has no piece to accept at it.
    """
    bound = min(
        int(np.sort(row_counts)[::-1][: cfg.crossbar_rows].sum()),
        int(np.sort(col_counts)[::-1][: cfg.crossbar_cols].sum()),
        cfg.crossbar_area,
    )
    return bound / cfg.crossbar_area


def split_oversized(
    bits: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    cfg: SizeClusterConfig,
    second_vector,
    util_factor: float = 0.0,
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """The crossbar-sized (rows, cols, n_synapses) children of the block ``bits[rows][:, cols]`` that reach ``util_factor``.

    Each child faces only the utilization test n_synapses / crossbar_area >=
    ``util_factor``, and a child that fails it is not returned, so a caller
    may accept every child it gets; at ``util_factor`` 0 every non-empty
    piece is returned. Synapse-free rows and cols are dropped; a block whose
    remaining rows and cols fit the crossbar is its own only candidate, and
    one without a synapse has none, and so has a block no piece of which can
    reach ``util_factor`` (see ``_best_fill``): it is neither ordered nor cut.
    Otherwise rows and columns are ordered by the subgraph's second
    Laplacian eigenvector and cut into consecutive crossbar-sized chunks
    whose pairings become the children, so the ceil(rows/crossbar_rows) *
    ceil(cols/crossbar_cols) pieces partition the block and each fits the
    crossbar. Empty pairings are dropped, and the rest keep row-major grid
    order. The split is deterministic.
    ``second_vector`` maps the live block to that eigenvector; a caller may
    answer it from what it has solved already. A complete live block is
    ordered by index and ``second_vector`` is not called: every piece of it
    is full under any order, so the grid is its row-major run of consecutive
    index chunks, the same on every LAPACK build. Each child carries the
    number of synapses ``bits`` holds in it: the live block is gathered once
    in split order, and ``hardware.tile_counts`` counts every piece of the
    grid at once.
    """
    sub = bits[np.ix_(rows, cols)]
    row_counts, col_counts = sub.sum(axis=1, dtype=np.int64), sub.sum(axis=0, dtype=np.int64)
    live_row, live_col = row_counts > 0, col_counts > 0
    live_rows, live_cols = rows[live_row], cols[live_col]
    if len(live_rows) == 0 or len(live_cols) == 0 or _best_fill(row_counts, col_counts, cfg) < util_factor:
        return []
    if len(live_rows) <= cfg.crossbar_rows and len(live_cols) <= cfg.crossbar_cols:
        n_synapses = int(row_counts.sum())
        return [(live_rows, live_cols, n_synapses)] if n_synapses / cfg.crossbar_area >= util_factor else []
    live = sub[np.ix_(live_row, live_col)]
    # a complete block has no cut to find, so all its entries tie
    v = np.zeros(len(live_rows) + len(live_cols)) if live.all() else second_vector(live)
    # rows by v[:m], cols by the rest; equal entries keep index order
    row_order = np.lexsort((live_rows, v[: len(live_rows)]))
    col_order = np.lexsort((live_cols, v[len(live_rows) :]))
    ordered_rows, ordered_cols = live_rows[row_order], live_cols[col_order]
    r, c = cfg.crossbar_rows, cfg.crossbar_cols
    counts = tile_counts(live[np.ix_(row_order, col_order)], r, c)
    kept = (counts > 0) & (counts / cfg.crossbar_area >= util_factor)
    return [
        (ordered_rows[i * r : (i + 1) * r], ordered_cols[j * c : (j + 1) * c], int(counts[i, j]))
        for i, j in zip(*np.nonzero(kept))
    ]


def size_constrained_cluster(
    c: ConnectivityMatrix,
    cfg: SizeClusterConfig,
    seed: int,
    *,
    trace: list | None = None,
) -> ClusterSet:
    """Iteratively cluster ``c`` into crossbar-sized, well-utilized blocks.

    Each round re-clusters the whole residual; a round that accepts nothing
    decays the utilization threshold, and the loop stops once the threshold
    would fall below ``min_util_factor``, no crossbar-sized piece of the
    residual can reach ``min_util_factor`` (by ``_best_fill``; an empty
    residual cannot), or ``max_rounds`` is hit. Every accepted cluster
    fits the crossbar and has utilization >= min_util_factor. The returned
    set's owner matrix holds, per synapse of ``c``, the index of the cluster
    that took it or -1.
    ``trace``, when given, receives one dict per round for auditing.
    """
    residual = np.array(c.bits, dtype=np.uint8)
    owner = np.full(c.bits.shape, -1, dtype=np.int32)
    n_accepted = 0
    util_factor = cfg.base_util_factor
    vectors = None  # eigenvectors of the residual's active block; dropped when an acceptance changes the residual

    def accept(rows: np.ndarray, cols: np.ndarray) -> None:
        nonlocal n_accepted, vectors
        block = np.ix_(rows, cols)
        owner[block] = np.where(residual[block] == 1, n_accepted, owner[block])
        n_accepted += 1
        residual[block] = 0
        vectors = None

    def residual_vector(live: np.ndarray) -> np.ndarray:
        # live is the residual's active block, which vectors solve at k >= 2; column 1 is
        # _second_vector's bit for bit, as no column of eig_smallest depends on k
        return vectors[:, 1]

    def handle(rows: np.ndarray, cols: np.ndarray, second_vector) -> int:
        # every piece clears util_factor by its count from the split; the pieces of one split are
        # disjoint, so accepting one leaves the others' cells, and counts, as they were
        pieces = split_oversized(residual, rows, cols, cfg, second_vector, util_factor)
        for piece_rows, piece_cols, _ in pieces:
            accept(piece_rows, piece_cols)
        return len(pieces)

    for round_no in range(1, cfg.max_rounds + 1):
        row_counts, col_counts = residual.sum(axis=1, dtype=np.int64), residual.sum(axis=0, dtype=np.int64)
        best_fill = _best_fill(row_counts, col_counts, cfg)
        if best_fill < cfg.min_util_factor:
            break
        nnz_before = int(row_counts.sum())
        active_rows, active_cols = np.flatnonzero(row_counts), np.flatnonzero(col_counts)
        accepted_this_round = 0
        # when no piece of the residual, and so none of any group, can pass this
        # round's threshold, the round seeks nothing and only decays it
        hopeful = best_fill >= util_factor

        fits = len(active_rows) <= cfg.crossbar_rows and len(active_cols) <= cfg.crossbar_cols
        if hopeful and not fits and nnz_before < len(active_rows) * len(active_cols):
            # structure stage: spectral groups over the residual graph; k is
            # fixed by the residual, so an unchanged residual reuses its vectors
            if vectors is None:
                k = _derived_k(nnz_before, len(active_rows), len(active_cols), cfg)
                vectors = _eigenvectors(residual[np.ix_(active_rows, active_cols)], k)
            groups = spectral_cluster(active_rows, active_cols, vectors, seed_for(seed, round_no))
            accepted_this_round = sum(handle(g_rows, g_cols, _second_vector) for g_rows, g_cols in groups)
        if hopeful and accepted_this_round == 0:
            # the whole residual as one candidate, split in order when oversized; it needs an
            # order only when it is neither complete nor fits, so the structure stage ran
            accepted_this_round = handle(active_rows, active_cols, residual_vector)

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

    return ClusterSet(owner)
