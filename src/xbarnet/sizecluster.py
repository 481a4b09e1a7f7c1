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

Every candidate takes one path: ``split_oversized`` drops its synapse-free
rows and cols and, unless the rest fits the crossbar, splits it; each piece
then faces only the utilization test. The split returns every piece with
its synapse count, counted from one gather of the ordered block, so only an
accepted piece is gathered again. The row and col counts of the first
gather bound every piece (``_hopeless``): a candidate none of whose pieces
could clear the round's threshold is dropped before it is ordered, so it
costs no eigensolve. A round whose whole residual fails that bound seeks no
groups and splits nothing; it only decays the threshold.
Finding groups and ordering a group for splitting use one graph path:
the active block goes through ``build_similarity`` and ``eig_smallest``,
which solves the bipartite Laplacian by one SVD of the degree-scaled
biadjacency (see ``spectral``). Splitting orders each side by the second
Laplacian eigenvector of the candidate's bipartite graph; consecutive
chunks of crossbar size pair up in a grid, so child footprints partition the
parent's footprint even when the graph has no cut structure at all (a
complete block splits into full crossbars in index order, with no
eigensolve: every order fills every piece, so an eigenvector has nothing to
choose). Spectral groups are sought only
when the residual neither fits one crossbar nor is one complete block, as
every layer is before its first prune: such a graph has no cut structure for
them to find. When there are no groups to seek, or they yield nothing, the
whole residual is the round's one candidate before the threshold decays.
The loop stops once no crossbar-sized block of the residual can reach
``min_util_factor``: the residual only shrinks and every acceptance clears
at least that floor, so the rounds left could only decay the threshold.

Each graph is solved once per call. The residual's spectral basis (its
active rows and cols and their eigenvectors) is solved once per residual
state: a round that accepts nothing leaves the residual unchanged, and the
next round runs k-means on the same basis under its own seed. Only an
acceptance changes the residual and drops the basis. A block's second
eigenvector is kept by the block's bits, so no block is solved twice either;
the whole residual's comes from column 1 of its basis, which is the same
vector bit for bit.

Utilization is counted against the full crossbar the cluster will occupy
(crossbar_rows x crossbar_cols), not against the submatrix size, so a small
cluster on a big crossbar scores low by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .connectivity import ClusterSet, ConnectivityMatrix
from .spectral import build_similarity, eig_smallest, spectral_basis, spectral_cluster
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


def _second_vector(block: np.ndarray) -> np.ndarray:
    """Second Laplacian eigenvector of the bipartite graph of a 0/1 block: rows, then cols.

    ``eig_smallest`` fixes the vector's sign.
    """
    return eig_smallest(build_similarity(ConnectivityMatrix(block)).values, 2)[1][:, -1]


def _hopeless(row_counts: np.ndarray, col_counts: np.ndarray, cfg: SizeClusterConfig, util_factor: float) -> bool:
    """Whether no crossbar-sized piece of a block with these row and col synapse counts can reach ``util_factor``.

    A piece takes at most crossbar_rows of the block's rows and crossbar_cols
    of its cols, so it holds at most the sum of the crossbar_rows largest row
    counts, the sum of the crossbar_cols largest col counts and
    crossbar_area synapses. The bound faces the test ``try_accept`` applies
    to a piece's own count, so a hopeless block has no piece to accept.
    """
    bound = min(
        int(np.sort(row_counts)[::-1][: cfg.crossbar_rows].sum()),
        int(np.sort(col_counts)[::-1][: cfg.crossbar_cols].sum()),
        cfg.crossbar_area,
    )
    return bound / cfg.crossbar_area < util_factor


def split_oversized(
    bits: np.ndarray,
    rows: np.ndarray,
    cols: np.ndarray,
    cfg: SizeClusterConfig,
    second_vector,
    util_factor: float = 0.0,
) -> list[tuple[np.ndarray, np.ndarray, int]]:
    """Split the block ``bits[rows][:, cols]`` into crossbar-sized (rows, cols, n_synapses) children.

    Synapse-free rows and cols are dropped; a block whose remaining rows and
    cols fit the crossbar is its own only child, and one without a synapse
    has none, and so has a block no piece of which can reach
    ``util_factor`` (see ``_hopeless``): it is neither ordered nor cut.
    Otherwise rows and columns are ordered by the subgraph's second
    Laplacian eigenvector and cut into consecutive crossbar-sized chunks
    whose pairings become the children, so the ceil(rows/crossbar_rows) *
    ceil(cols/crossbar_cols) pieces partition the block and each fits the
    crossbar. Empty pairings are dropped. The split is deterministic.
    ``second_vector`` maps the live block to that eigenvector; a caller may
    answer it from what it has solved already. A complete live block is
    ordered by index and ``second_vector`` is not called: every piece of it
    is full under any order, so the grid is its row-major run of consecutive
    index chunks, the same on every LAPACK build. Each child carries the
    number of synapses ``bits`` holds in it: the live block is gathered once
    in split order, and two ``np.add.reduceat`` passes count every piece of
    the grid at once.
    """
    sub = bits[np.ix_(rows, cols)]
    row_counts, col_counts = sub.sum(axis=1, dtype=np.int64), sub.sum(axis=0, dtype=np.int64)
    live_row, live_col = row_counts > 0, col_counts > 0
    live_rows, live_cols = rows[live_row], cols[live_col]
    if len(live_rows) == 0 or len(live_cols) == 0 or _hopeless(row_counts, col_counts, cfg, util_factor):
        return []
    if len(live_rows) <= cfg.crossbar_rows and len(live_cols) <= cfg.crossbar_cols:
        return [(live_rows, live_cols, int(row_counts.sum()))]
    live = sub[np.ix_(live_row, live_col)]
    # a complete block has no cut to find, so all its entries tie
    v = np.zeros(len(live_rows) + len(live_cols)) if live.all() else second_vector(live)
    # rows by v[:m], cols by the rest; equal entries keep index order
    row_order = np.lexsort((live_rows, v[: len(live_rows)]))
    col_order = np.lexsort((live_cols, v[len(live_rows) :]))
    ordered_rows, ordered_cols = live_rows[row_order], live_cols[col_order]
    row_starts = np.arange(0, len(ordered_rows), cfg.crossbar_rows)
    col_starts = np.arange(0, len(ordered_cols), cfg.crossbar_cols)
    ordered = live[np.ix_(row_order, col_order)]
    counts = np.add.reduceat(np.add.reduceat(ordered, row_starts, axis=0, dtype=np.int64), col_starts, axis=1)
    return [
        (ordered_rows[r : r + cfg.crossbar_rows], ordered_cols[c : c + cfg.crossbar_cols], int(counts[i, j]))
        for i, r in enumerate(row_starts)
        for j, c in enumerate(col_starts)
        if counts[i, j]
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
    would fall below ``min_util_factor``, the residual empties, no
    crossbar-sized block of it holds enough synapses to reach
    ``min_util_factor``, or ``max_rounds`` is hit. Every accepted cluster
    fits the crossbar and has utilization >= min_util_factor. The returned
    set's owner matrix holds, per synapse of ``c``, the index of the cluster
    that took it or -1.
    ``trace``, when given, receives one dict per round for auditing.
    """
    residual = np.array(c.bits, dtype=np.uint8)
    owner = np.full(c.bits.shape, -1, dtype=np.int32)
    n_accepted = 0
    util_factor = cfg.base_util_factor
    basis = None  # the residual's spectral basis; dropped when an acceptance changes the residual
    solved: dict[tuple, np.ndarray] = {}  # (shape, bits) of a block -> its second vector

    def try_accept(rows: np.ndarray, cols: np.ndarray, n_synapses: int) -> bool:
        # n_synapses was counted when the candidate was split; it is still residual[block].sum(),
        # because only accepted pieces change the residual and the pieces of one split are disjoint
        nonlocal n_accepted, basis
        if n_synapses / cfg.crossbar_area < util_factor:
            return False
        block = np.ix_(rows, cols)
        owner[block] = np.where(residual[block] == 1, n_accepted, owner[block])
        n_accepted += 1
        residual[block] = 0
        basis = None
        return True

    def second_vector(block: np.ndarray) -> np.ndarray:
        key = (block.shape, block.tobytes())
        if key not in solved:
            solved[key] = _second_vector(block)
        return solved[key]

    def handle(rows: np.ndarray, cols: np.ndarray) -> int:
        pieces = split_oversized(residual, rows, cols, cfg, second_vector, util_factor)
        return sum(try_accept(*piece) for piece in pieces)

    for round_no in range(1, cfg.max_rounds + 1):
        row_counts, col_counts = residual.sum(axis=1, dtype=np.int64), residual.sum(axis=0, dtype=np.int64)
        nnz_before = int(row_counts.sum())
        if nnz_before == 0:
            break
        active_rows, active_cols = np.flatnonzero(row_counts), np.flatnonzero(col_counts)
        # the most synapses a crossbar-sized candidate can hold; below the floor no round can accept
        best = min(nnz_before, min(len(active_rows), cfg.crossbar_rows) * min(len(active_cols), cfg.crossbar_cols))
        if best / cfg.crossbar_area < cfg.min_util_factor:
            break
        accepted_this_round = 0
        # when no piece of the residual, and so none of any group, can pass this
        # round's threshold, the round seeks nothing and only decays it
        hopeful = not _hopeless(row_counts, col_counts, cfg, util_factor)

        fits = len(active_rows) <= cfg.crossbar_rows and len(active_cols) <= cfg.crossbar_cols
        if hopeful and not fits and nnz_before < len(active_rows) * len(active_cols):
            # structure stage: spectral groups over the residual graph; k is
            # fixed by the residual, so an unchanged residual reuses its basis
            if basis is None:
                k = _derived_k(nnz_before, len(active_rows) + len(active_cols), cfg)
                basis = spectral_basis(ConnectivityMatrix(residual), k)
                if k <= min(len(active_rows), len(active_cols)):
                    # then column 1 is _second_vector's bit for bit: both take
                    # the same thin SVD of the same block, and the sign rule
                    # and the eigenvalue sort act per column
                    block = residual[np.ix_(active_rows, active_cols)]
                    solved[block.shape, block.tobytes()] = basis.vectors[:, 1]
            groups = spectral_cluster(basis, seed_for(seed, round_no))
            accepted_this_round = sum(handle(g_rows, g_cols) for g_rows, g_cols in groups)
        if hopeful and accepted_this_round == 0:
            # the whole residual as one candidate, split in order when oversized
            accepted_this_round = handle(active_rows, active_cols)

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

    return ClusterSet(c, owner)
