"""Spectral clustering of a connectivity matrix seen as a bipartite graph.

The m input neurons and n output neurons are the nodes and each synapse is
an edge, so one cluster yields a row group and a column group jointly. There
is one path from connectivity to eigenvectors, used both to find clusters
and to order a cluster for splitting: the block of active (non-empty) rows
and columns -> :func:`build_similarity` -> :func:`normalized_laplacian`
L = I - D^{-1/2} S D^{-1/2} -> :func:`eig_smallest`. Clustering then
row-normalizes the K smallest eigenvectors and runs seeded k-means on them.

Determinism: all randomness flows from the seed argument; a fixed seed gives
bit-stable assignments, and k-means is invariant to the ordering of its input
points (up to label renaming) via an internal canonical sort.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .connectivity import ConnectivityMatrix

SYMMETRY_TOL = 1e-8
KMEANS_TOL = 1e-8
KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class SimilarityMatrix:
    """Symmetric non-negative affinity matrix with a zero diagonal."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 2 or v.shape[0] != v.shape[1] or v.size == 0:
            raise ValueError(f"similarity matrix must be square and non-empty, got {v.shape}")
        if np.abs(v - v.T).max() > 1e-12:
            raise ValueError("similarity matrix must be symmetric within 1e-12")
        if v.min() < 0:
            raise ValueError("similarity entries must be non-negative")
        if np.abs(np.diag(v)).max() != 0:
            raise ValueError("similarity diagonal must be exactly zero")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)

    @property
    def size(self) -> int:
        return self.values.shape[0]


def build_similarity(c: ConnectivityMatrix) -> SimilarityMatrix:
    """Bipartite adjacency of size (m+n): S(i, m+j) = S(m+j, i) = C(i, j)."""
    m, n = c.rows, c.cols
    s = np.zeros((m + n, m + n), dtype=np.float64)
    s[:m, m:] = c.bits
    s[m:, :m] = c.bits.T
    return SimilarityMatrix(s)


def normalized_laplacian(s: SimilarityMatrix) -> np.ndarray:
    """L = I - D^{-1/2} S D^{-1/2}; isolated nodes take D^{-1/2}(i,i) = 0.

    With the zero convention an isolated node contributes an identity row, so
    an empty graph maps to L = I. L is exactly symmetric: entry (i, j) is the
    product d_i * s_ij * d_j, and IEEE multiplication commutes.
    """
    degrees = s.values.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    live = degrees > 0
    inv_sqrt[live] = 1.0 / np.sqrt(degrees[live])
    return np.eye(s.size) - (inv_sqrt[:, None] * s.values) * inv_sqrt[None, :]


def eig_smallest(l: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the k algebraically smallest eigenpairs.

    Eigenvalues come ascending, one eigenvector column per eigenvalue, as
    from ``np.linalg.eigh``. The input must be symmetric within tolerance.
    Backed by the dense symmetric solver (LAPACK); residuals
    ||Lv - lambda v|| land near machine precision, well inside the
    1e-8 * ||L|| contract.
    """
    l = np.asarray(l, dtype=np.float64)
    if l.ndim != 2 or l.shape[0] != l.shape[1]:
        raise ValueError(f"expected a square matrix, got {l.shape}")
    if not 1 <= k <= l.shape[0]:
        raise ValueError(f"k={k} out of range for size {l.shape[0]}")
    asym = np.abs(l - l.T).max()
    scale = max(1.0, np.abs(l).max())
    if asym > SYMMETRY_TOL * scale:
        raise ValueError(f"matrix asymmetry {asym:.3e} beyond tolerance")
    vals, vecs = np.linalg.eigh(l)
    return vals[:k], vecs[:, :k]


def row_normalize(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize each row; all-zero rows are left as zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms == 0, 1.0, norms)
    return vectors / safe


def kmeans(points: np.ndarray, k: int, seed: int, objective_trace: list | None = None) -> np.ndarray:
    """Seeded k-means++ with Lloyd iterations; returns a label per point.

    Deterministic for a fixed seed and invariant (up to label renaming) to the
    ordering of the points: initialization runs over a canonical lexicographic
    ordering and assignment ties break toward the lowest centroid index.
    Empty clusters are reseeded to the point farthest from its centroid.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be 2-d")
    n = pts.shape[0]
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    if k < 1:
        raise ValueError("k must be positive")

    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))

    centers = np.empty((k, pts.shape[1]))
    centers[0] = sorted_pts[int(rng.integers(n))]
    d2 = ((sorted_pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a chosen center
            centers[c] = sorted_pts[int(rng.integers(n))]
        else:
            centers[c] = sorted_pts[int(rng.choice(n, p=d2 / total))]
        d2 = np.minimum(d2, ((sorted_pts - centers[c]) ** 2).sum(axis=1))

    labels_sorted = np.zeros(n, dtype=np.int64)
    for _ in range(KMEANS_MAX_ITER):
        dists = ((sorted_pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        labels_sorted = dists.argmin(axis=1)
        if objective_trace is not None:
            objective_trace.append(float(dists[np.arange(n), labels_sorted].sum()))
        for c in range(k):
            if not (labels_sorted == c).any():
                farthest = int(dists[np.arange(n), labels_sorted].argmax())
                centers[c] = sorted_pts[farthest]
                labels_sorted[farthest] = c
        new_centers = np.stack(
            [sorted_pts[labels_sorted == c].mean(axis=0) for c in range(k)]
        )
        shift = ((new_centers - centers) ** 2).sum(axis=1).max()
        centers = new_centers
        if shift <= KMEANS_TOL:
            break

    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_sorted
    return labels


def spectral_cluster(c: ConnectivityMatrix, k: int, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group the bipartite graph of ``c`` into k (row ids, col ids) pairs.

    Empty rows and columns are isolated nodes: they are left out of the graph
    and of every group, and k counts only the active nodes. Ids are ascending
    indices into ``c``; a group may hold rows only or columns only.
    """
    rows = np.flatnonzero(c.bits.any(axis=1))
    cols = np.flatnonzero(c.bits.any(axis=0))
    if k > len(rows) + len(cols):
        raise ValueError(f"k={k} exceeds the {len(rows) + len(cols)} non-isolated nodes")
    block = ConnectivityMatrix(c.bits[np.ix_(rows, cols)])
    _, vectors = eig_smallest(normalized_laplacian(build_similarity(block)), k)
    labels = kmeans(row_normalize(vectors), k, seed)
    row_labels, col_labels = labels[: len(rows)], labels[len(rows) :]
    return [(rows[row_labels == g], cols[col_labels == g]) for g in range(k)]
