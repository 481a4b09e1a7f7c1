"""Spectral clustering of a connectivity matrix seen as a bipartite graph.

The m input neurons and n output neurons are the nodes and each synapse is
an edge, so one cluster yields a row group and a column group jointly. There
is one path from connectivity to eigenvectors, used both to find clusters
and to order a cluster for splitting: the block of active (non-empty) rows
and columns -> :func:`build_similarity`, the degree-scaled biadjacency
B = D_r^{-1/2} C D_c^{-1/2} -> :func:`eig_smallest`. The graph's normalized
Laplacian is L = I - [[0, B], [B^T, 0]], and its eigenpairs come from one SVD
of the m x n matrix B (Dhillon, KDD 2001); the (m+n) x (m+n) graph is never
built. :func:`spectral_basis` solves a graph for its K smallest eigenvectors,
and :func:`spectral_cluster` row-normalizes them and runs seeded k-means on
them; so one basis serves every seed, and a caller solves a graph that does
not change once (``sizecluster`` keeps one basis per residual state). Each
Lloyd step ranks the centroids by the Gram form of the squared distance, one
matrix product, and recomputes near ties directly, so the labels are
bit-equal to those of the direct (points x k x dims) form. That array is built only for the near-tie rows, for
a reseed of an empty cluster, or for an objective trace.

Determinism: all randomness flows from the seed argument; a fixed seed gives
bit-stable assignments, and k-means is invariant to the ordering of its input
points (up to label renaming) via an internal canonical sort.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .connectivity import ConnectivityMatrix

KMEANS_TOL = 1e-8
KMEANS_MAX_ITER = 300


@dataclass(frozen=True)
class SimilarityMatrix:
    """Degree-scaled m x n biadjacency of a bipartite graph; finite and non-negative."""

    values: np.ndarray

    def __post_init__(self):
        v = np.array(self.values, dtype=np.float64)
        if v.ndim != 2 or v.size == 0:
            raise ValueError(f"similarity matrix must be 2-d and non-empty, got {v.shape}")
        if not (np.isfinite(v) & (v >= 0)).all():
            raise ValueError("similarity entries must be finite and non-negative")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)


def build_similarity(c: ConnectivityMatrix) -> SimilarityMatrix:
    """B = D_r^{-1/2} C D_c^{-1/2}: C scaled by its row and column degrees.

    An empty row or column is an isolated node and takes D^{-1/2} = 0, so an
    empty graph maps to B = 0 and L = I.
    """
    bits = c.bits.astype(np.float64)
    d_r, d_c = bits.sum(axis=1), bits.sum(axis=0)
    inv_r = np.divide(1.0, np.sqrt(d_r), out=np.zeros_like(d_r), where=d_r > 0)
    inv_c = np.divide(1.0, np.sqrt(d_c), out=np.zeros_like(d_c), where=d_c > 0)
    return SimilarityMatrix((inv_r[:, None] * bits) * inv_c[None, :])


def eig_smallest(b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the k smallest eigenpairs of L = I - [[0, B], [B^T, 0]].

    ``b`` is the m x n matrix B; eigenvalues come ascending with one
    (m+n)-vector column each, as from ``np.linalg.eigh`` of L. One SVD
    B = U S V^T gives them all: (1 - s_i, [u_i; v_i]/sqrt2), then eigenvalue 1
    on [u_j; 0] and [0; v_j] for j >= min(m, n), then (1 + s_i, [u_i; -v_i]/sqrt2),
    sorted stably. The thin SVD suffices for k <= min(m, n). Each column's
    largest-magnitude entry (the first on ties) is made positive.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or not 1 <= k <= sum(b.shape):
        raise ValueError(f"need a 2-d matrix and 1 <= k <= m+n, got shape {b.shape} and k={k}")
    (m, n), p = b.shape, min(b.shape)
    u, s, vt = np.linalg.svd(b, full_matrices=k > p)
    if k <= p:  # the k smallest are the first k (1 - s_i) pairs; build no other columns
        u, s, vt, p = u[:, :k], s[:k], vt[:k], k
    left = np.vstack([u, np.zeros((n, u.shape[1]))])
    right = np.vstack([np.zeros((m, vt.shape[0])), vt.T])
    paired = (left[:, :p] + right[:, :p]) / np.sqrt(2.0)
    flipped = (left[:, :p] - right[:, :p]) / np.sqrt(2.0)
    vals = np.concatenate([1.0 - s, np.ones(left.shape[1] + right.shape[1] - 2 * p), 1.0 + s])
    order = np.argsort(vals, kind="stable")[:k]
    vecs = np.hstack([paired, left[:, p:], right[:, p:], flipped])[:, order]
    anchors = np.abs(vecs).argmax(axis=0)
    return vals[order], vecs * np.where(vecs[anchors, np.arange(k)] < 0, -1.0, 1.0)


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
    Assignment takes squared distances in the Gram form
    ||x||^2 + ||c||^2 - 2 x.c, one matrix product per iteration, and
    recomputes them directly as sum((x - c)^2) for every point whose two
    nearest centroids lie within the Gram form's rounding error; so the labels
    are bit-equal to the argmin of the direct form. An empty cluster is
    reseeded to the point farthest from its centroid among clusters of two or
    more points, so a reseed never empties another cluster.
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

    norms = np.sqrt((sorted_pts**2).sum(axis=1))
    for _ in range(KMEANS_MAX_ITER):
        labels_sorted = _nearest(sorted_pts, norms, centers)
        counts = np.bincount(labels_sorted, minlength=k)
        if objective_trace is not None or not counts.all():
            dists = _sq_dists(sorted_pts, centers)
            own = dists[np.arange(n), labels_sorted]
            if objective_trace is not None:
                objective_trace.append(float(own.sum()))
            for c in np.flatnonzero(counts == 0):
                farthest = int(np.where(counts[labels_sorted] > 1, own, -np.inf).argmax())
                counts[labels_sorted[farthest]] -= 1
                counts[c] = 1
                centers[c] = sorted_pts[farthest]
                labels_sorted[farthest] = c
                own[farthest] = dists[farthest, c]
        # each cluster's points in index order form one slice, laid out as the
        # mask selection sorted_pts[labels_sorted == c] is; add.reduce over it
        # divided by the count is what .mean(axis=0) computes, bit for bit
        grouped = sorted_pts[np.argsort(labels_sorted, kind="stable")]
        ends = np.cumsum(counts)
        sums = [np.add.reduce(grouped[end - size : end], axis=0) for end, size in zip(ends, counts)]
        new_centers = np.stack(sums) / counts[:, None]
        shift = ((new_centers - centers) ** 2).sum(axis=1).max()
        centers = new_centers
        if shift <= KMEANS_TOL:
            break

    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_sorted
    return labels


def _sq_dists(pts: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances sum((x - c)^2), one independent reduction per (point, centroid) pair."""
    return ((pts[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)


def _nearest(pts: np.ndarray, norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Index of each point's nearest centroid by :func:`_sq_dists`, lowest index on ties.

    ``norms`` holds the points' Euclidean norms. The centroids are ranked by
    G = ||c||^2 - 2 x.c, one matrix product; ||x||^2 is the same for every
    centroid of a point, so it changes neither the ranking nor the gaps.
    Bound, with unit roundoff u = eps/2 and s = ||x|| + ||c||: ||c||^2 and
    x.c are length-d dot products, off by at most d u ||c||^2 and d u ||x|| ||c||,
    and the final sum adds u s^2, so G + ||x||^2 is within (d + 1) u s^2 of the
    exact squared distance D (first order). The direct form takes d
    differences, d squares and d - 1 sums of terms totalling at most s^2, so
    it is within (d + 2) u s^2 of D. Each entry of G + ||x||^2 is therefore
    within (d + 2) eps s^2 of the direct form's, and a runner-up more than
    twice that above the best in G is above it in the direct form too. The
    slack below is four times that margin, covering the higher-order terms
    and the rounding of the norms; only the rows within it are recomputed
    directly. Each direct reduction runs on one (point, centroid) pair alone,
    so the recomputed rows have the bits of the full (n x k) direct array.
    """
    c2 = (centers**2).sum(axis=1)
    gram = pts @ (-2.0 * centers.T)
    gram += c2
    labels = gram.argmin(axis=1)
    every = np.arange(len(pts))
    best = gram[every, labels]
    gram[every, labels] = np.inf
    slack = 8.0 * (pts.shape[1] + 2) * np.finfo(np.float64).eps * (norms + np.sqrt(c2.max())) ** 2
    near = np.flatnonzero(gram.min(axis=1) - best <= slack)
    labels[near] = _sq_dists(pts[near], centers).argmin(axis=1)
    return labels


class SpectralBasis(NamedTuple):
    """Active rows and cols of a connectivity matrix and the k smallest eigenvectors of their graph.

    ``vectors`` is the (rows + cols) x k output of :func:`eig_smallest` for
    the :func:`build_similarity` block of the active rows and cols; row i of
    it embeds ``rows[i]`` for i < len(rows), and ``cols[i - len(rows)]``
    after that.
    """

    rows: np.ndarray
    cols: np.ndarray
    vectors: np.ndarray


def spectral_basis(c: ConnectivityMatrix, k: int) -> SpectralBasis:
    """Solve the bipartite graph of ``c`` for its k smallest Laplacian eigenvectors.

    Empty rows and columns are isolated nodes: they are left out of the
    graph, and k counts only the active nodes.
    """
    rows = np.flatnonzero(c.bits.any(axis=1))
    cols = np.flatnonzero(c.bits.any(axis=0))
    if k > len(rows) + len(cols):
        raise ValueError(f"k={k} exceeds the {len(rows) + len(cols)} non-isolated nodes")
    block = ConnectivityMatrix(c.bits[np.ix_(rows, cols)])
    _, vectors = eig_smallest(build_similarity(block).values, k)
    return SpectralBasis(rows, cols, vectors)


def spectral_cluster(basis: SpectralBasis, seed: int) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group a solved bipartite graph into k (row ids, col ids) pairs, k the basis's width.

    Runs k-means only: the eigensolve is :func:`spectral_basis`'s, so one
    basis serves any number of seeds, and ``size_constrained_cluster``
    solves one basis per residual state for all the rounds that leave the
    residual unchanged. Ids are ascending indices into the matrix the basis
    was solved from; a group may hold rows only or columns only.
    """
    rows, cols, vectors = basis
    k = vectors.shape[1]
    labels = kmeans(row_normalize(vectors), k, seed)
    row_labels, col_labels = labels[: len(rows)], labels[len(rows) :]
    return [(rows[row_labels == g], cols[col_labels == g]) for g in range(k)]
