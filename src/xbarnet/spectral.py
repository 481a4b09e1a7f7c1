"""Spectral clustering of a connectivity matrix seen as a bipartite graph.

The m input neurons and n output neurons are the nodes and each synapse is
an edge, so one cluster yields a row group and a column group jointly. There
is one path from connectivity to eigenvectors, used both to find clusters
and to order a cluster for splitting: the block of active (non-empty) rows
and columns, a plain array whose non-zero entries are the edges ->
:func:`build_similarity`, the degree-scaled biadjacency
B = D_r^{-1/2} C D_c^{-1/2} -> :func:`eig_smallest`. The graph's normalized
Laplacian is L = I - [[0, B], [B^T, 0]], and its eigenpairs come from the
singular triplets of the m x n matrix B (Dhillon, KDD 2001), from one
``eigh`` of B's smaller Gram matrix; the (m+n) x (m+n) graph is never built.
K is at most min(m, n), the number of B's singular triplets: the eigenvalue-1
space past them has no cut structure. A caller solves a graph for its K
smallest eigenvectors and keeps the (rows + cols) x K array with the rows
and cols it embeds (``sizecluster`` solves one per residual state, from the
block it gathers); :func:`spectral_cluster` row-normalizes the array and
runs seeded k-means on it, so one solve serves every seed. Each Lloyd step ranks the centroids
by the Gram form of the squared distance, one matrix product, and
recomputes near ties directly, so the labels are bit-equal to those of the
direct (points x k x dims) form. That array is built only for the near-tie
rows, for a reseed of an empty cluster, or for an objective trace. All
centroids are summed in point order by one weighted ``bincount``.

Determinism: all randomness flows from the seed argument; a fixed seed gives
bit-stable assignments, and k-means is invariant to the ordering of its input
points (up to label renaming) via a canonical sort: the order of
``np.lexsort`` over all columns, from one stable sort of column 0 and a
lexsort of only the points that tie there. Its k-means++ draws take the
steps of ``Generator.choice(n, p=...)`` without re-checking ``p``, so they
pick the same points and leave the generator as ``choice`` leaves it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

KMEANS_TOL = 1e-8
KMEANS_MAX_ITER = 300
NULL_PAIR_TOL = 64.0  # a Gram eigenvalue below this many max(m, n) * eps * w_max is rounding (eig_smallest)


@dataclass(frozen=True)
class SimilarityMatrix:
    """The degree-scaled m x n biadjacency that :func:`build_similarity` returns, held as built."""

    values: np.ndarray


def build_similarity(c: np.ndarray) -> SimilarityMatrix:
    """B = D_r^{-1/2} C D_c^{-1/2}: the 2-d block C as 0/1, scaled by its row and column degrees.

    Every non-zero entry of ``c`` is an edge, so a bool block and its 0/1
    copy in any dtype give the same B bit for bit. An empty row or column is
    an isolated node and takes D^{-1/2} = 0, so an empty graph maps to B = 0
    and L = I. The 0/1 copy is scaled in place, one side at a time, which
    gives the bits of the two-sided product without an m x n temporary.
    """
    b = (np.asarray(c) != 0).astype(np.float64)
    d_r, d_c = b.sum(axis=1), b.sum(axis=0)
    b *= np.divide(1.0, np.sqrt(d_r), out=np.zeros_like(d_r), where=d_r > 0)[:, None]
    b *= np.divide(1.0, np.sqrt(d_c), out=np.zeros_like(d_c), where=d_c > 0)[None, :]
    return SimilarityMatrix(b)


def eig_smallest(b: np.ndarray, k: int) -> tuple[np.ndarray, np.ndarray]:
    """(eigenvalues, eigenvectors) of the k smallest eigenpairs of L = I - [[0, B], [B^T, 0]].

    ``b`` is the m x n matrix B; eigenvalues come ascending with one
    (m+n)-vector column each, as from ``np.linalg.eigh`` of L. Each singular
    triplet (s, u, v) of B gives the pairs (1 - s, [u; v]/sqrt2) and
    (1 + s, [u; -v]/sqrt2); the rest of L's spectrum is eigenvalue 1.

    k is at most p = min(m, n), and the k smallest are the pairs of the k
    largest s, in order. B has only p singular triplets: past them, L's next
    eigenvalues are 1 on the taller side's null space, a degenerate space
    with no cut structure whose basis is whatever LAPACK returns, so no
    caller asks for it. One ``eigh`` of the p x p Gram matrix of B's smaller
    side (B^T B when m >= n, else B B^T) gives w_i = s_i^2, descending, with
    unit z_i on that side; the other side is B z_i / s_i (or B^T z_i / s_i).
    It is formed for all p columns by one product before the cut to k, so
    column j has the same bits for every k > j. A pair with w_i <= tau =
    NULL_PAIR_TOL * max(m, n) * eps * w_max is a null pair: the Gram entries
    sum max(m, n) products, so such a w_i is rounding, and the column is the
    exact eigenvalue-1 vector [0; z_i] (or [z_i; 0]). For B >= 0, as every
    :func:`build_similarity` output is, a column x with eigenvalue lam has
    ||L x - lam x|| <= tau / s_i on a pair, and <= sqrt(2 tau) on a null pair;
    paired columns are orthogonal to about tau / (s_i s_j). Each column's
    largest-magnitude entry (the first on ties) is made positive.
    """
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 2 or not 1 <= k <= min(b.shape):
        raise ValueError(f"need a 2-d matrix and 1 <= k <= min(m, n), got shape {b.shape} and k={k}")
    (m, n), p = b.shape, min(b.shape)
    tall = m >= n
    w, z = np.linalg.eigh(b.T @ b if tall else b @ b.T)
    w, z = w[::-1], z[:, ::-1]  # s_i^2 descending, z_i on the smaller side
    null = w <= NULL_PAIR_TOL * max(m, n) * np.finfo(np.float64).eps * w[0]
    s = np.sqrt(np.where(null, 0.0, w))
    # the other side of every pair, cut to k only after the product; a null pair's stays 0
    other = np.divide(b @ z if tall else b.T @ z, s, out=np.zeros((max(m, n), p)), where=~null)
    halves = (other[:, :k], z[:, :k]) if tall else (z[:, :k], other[:, :k])
    vals, vecs = 1.0 - s[:k], np.vstack(halves) / np.where(null[:k], 1.0, np.sqrt(2.0))
    anchors = np.abs(vecs).argmax(axis=0)
    return vals, vecs * np.where(vecs[anchors, np.arange(k)] < 0, -1.0, 1.0)


def row_normalize(vectors: np.ndarray) -> np.ndarray:
    """Unit-normalize each row; all-zero rows are left as zero."""
    norms = np.linalg.norm(vectors, axis=1, keepdims=True)
    safe = np.where(norms == 0, 1.0, norms)
    return vectors / safe


def kmeans(points: np.ndarray, k: int, seed: int, objective_trace: list | None = None) -> np.ndarray:
    """Seeded k-means++ with Lloyd iterations; returns a label per point. Points must be finite.

    Deterministic for a fixed seed and invariant (up to label renaming) to the
    ordering of the points: initialization runs over the canonical
    lexicographic order of :func:`_canonical_order`, and assignment ties break
    toward the lowest centroid index. Each k-means++ centre after the first is
    drawn by :func:`_draw`, which picks the point ``Generator.choice`` would.
    Assignment is :func:`_nearest`, bit-equal to the argmin of the direct form
    sum((x - c)^2). An empty cluster is reseeded to the point farthest from
    its centroid among clusters of two or more points, so a reseed never
    empties another cluster. Each Lloyd step moves every centroid to the
    mean of its members, by :func:`_centroids`.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2:
        raise ValueError("points must be 2-d")
    n, d = pts.shape
    if k > n:
        raise ValueError(f"k={k} exceeds the {n} available points")
    if k < 1:
        raise ValueError("k must be positive")
    if not np.isfinite(pts).all():
        raise ValueError("points must be finite")

    order = _canonical_order(pts)
    sorted_pts = pts[order]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))

    centers = np.empty((k, d))
    centers[0] = sorted_pts[int(rng.integers(n))]
    diff, d2, new_d2, cdf = np.empty((n, d)), np.empty(n), np.empty(n), np.empty(n)  # reused by every centre
    np.square(np.subtract(sorted_pts, centers[0], out=diff), out=diff).sum(axis=1, out=d2)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
            # all remaining points coincide with a chosen center
            centers[c] = sorted_pts[int(rng.integers(n))]
        else:
            centers[c] = sorted_pts[_draw(rng, d2, total, cdf)]
        np.square(np.subtract(sorted_pts, centers[c], out=diff), out=diff).sum(axis=1, out=new_d2)
        np.minimum(d2, new_d2, out=d2)

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
        new_centers = _centroids(sorted_pts, labels_sorted, counts)
        shift = ((new_centers - centers) ** 2).sum(axis=1).max()
        centers = new_centers
        if shift <= KMEANS_TOL:
            break

    labels = np.empty(n, dtype=np.int64)
    labels[order] = labels_sorted
    return labels


def _centroids(pts: np.ndarray, labels: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Each cluster's mean, with the bits of ``pts[labels == c].mean(axis=0)``; every ``counts[c]`` is positive.

    A mean is its members' sum in point order over their count. One weighted
    ``bincount`` adds every cluster's columns at once, each point after the
    one before, as ``add.reduce(axis=0)`` adds the rows of a block of two or
    more columns; only a cluster whose members all hold -0.0 in a column gets
    0.0 there, which moves no distance. numpy sums a single column pairwise,
    so for one-column points each cluster's slice is reduced on its own.
    """
    d, k = pts.shape[1], len(counts)
    if d > 1:
        bins = (labels * d)[:, None] + np.arange(d)
        sums = np.bincount(bins.ravel(), weights=pts.ravel(), minlength=k * d).reshape(k, d)
    else:
        grouped = pts[np.argsort(labels, kind="stable")]
        ends = np.cumsum(counts)
        sums = np.stack([np.add.reduce(grouped[end - size : end], axis=0) for end, size in zip(ends, counts)])
    return sums / counts[:, None]


def _draw(rng: np.random.Generator, d2: np.ndarray, total: float, cdf: np.ndarray) -> int:
    """The index ``rng.choice(len(d2), p=d2 / total)`` picks, with the generator left as it leaves it.

    These are the steps ``Generator.choice`` takes once it has checked ``p``:
    the cumulative sum of ``p`` rescaled to end at 1, and one ``random()``
    placed on it. ``total`` is ``d2.sum()`` and positive; ``cdf`` is a
    buffer of ``d2``'s length that the draw overwrites.
    """
    np.cumsum(np.divide(d2, total, out=cdf), out=cdf)
    cdf /= cdf[-1]
    return int(cdf.searchsorted(rng.random(), side="right"))


def _canonical_order(pts: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort(pts.T[::-1])``: by column 0, ties by the later columns in turn, then by index.

    One stable sort of column 0 orders every point whose column-0 value is
    unique; only the points that share theirs with another are lexsorted
    again, by all their columns, and put back into the places that column 0
    gave their runs. -0.0 and 0.0 compare equal, as they do in ``lexsort``.
    """
    order = np.argsort(pts[:, 0], kind="stable")
    if pts.shape[1] > 1:
        first = pts[order, 0]
        repeats = first[1:] == first[:-1]
        tied = np.zeros(len(order), dtype=bool)
        tied[1:] |= repeats
        tied[:-1] |= repeats
        if tied.any():
            run_points = order[tied]
            order[tied] = run_points[np.lexsort(pts[run_points].T[::-1])]
    return order


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
    runner_up = gram[every, gram.argmin(axis=1)]
    slack = 8.0 * (pts.shape[1] + 2) * np.finfo(np.float64).eps * (norms + np.sqrt(c2.max())) ** 2
    near = np.flatnonzero(runner_up - best <= slack)
    if len(near):
        labels[near] = _sq_dists(pts[near], centers).argmin(axis=1)
    return labels


def spectral_cluster(
    rows: np.ndarray, cols: np.ndarray, vectors: np.ndarray, seed: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Group a solved bipartite graph into k (row ids, col ids) pairs, k the width of ``vectors``.

    ``vectors`` is the (rows + cols) x k output of :func:`eig_smallest` for
    the :func:`build_similarity` block of ``rows`` and ``cols``, the active
    rows and cols of a connectivity matrix: row i of it embeds ``rows[i]``
    for i < len(rows), and ``cols[i - len(rows)]`` after that. Runs k-means
    only: the caller solved the block, so one solve serves any number of
    seeds, and ``size_constrained_cluster`` solves once per residual state
    for all the rounds that leave the residual unchanged. Ids are ascending
    indices into the matrix; a group may hold rows only or columns only.
    """
    k = vectors.shape[1]
    labels = kmeans(row_normalize(vectors), k, seed)
    row_labels, col_labels = labels[: len(rows)], labels[len(rows) :]
    return [(rows[row_labels == g], cols[col_labels == g]) for g in range(k)]
