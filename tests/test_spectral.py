"""Spectral pipeline tests: similarity, eigensolve, k-means, end-to-end groups.

The oracle throughout is the explicit (m+n) x (m+n) bipartite graph and its
normalized Laplacian solved by ``np.linalg.eigh``; the code under test never
builds either.
"""

import numpy as np
import pytest

from xbarnet.connectivity import ConnectivityMatrix
from xbarnet.spectral import (
    KMEANS_MAX_ITER,
    KMEANS_TOL,
    SimilarityMatrix,
    _nearest,
    build_similarity,
    eig_smallest,
    kmeans,
    row_normalize,
    spectral_basis,
    spectral_cluster,
)


def union_find_components(adj: np.ndarray) -> list[set]:
    """Independent oracle: connected components by union-find."""
    n = adj.shape[0]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for i in range(n):
        for j in range(i + 1, n):
            if adj[i, j] > 0:
                ra, rb = find(i), find(j)
                if ra != rb:
                    parent[ra] = rb
    groups = {}
    for i in range(n):
        groups.setdefault(find(i), set()).add(i)
    return list(groups.values())


def bipartite_adjacency(bits: np.ndarray) -> np.ndarray:
    """The (m+n) x (m+n) graph: S(i, m+j) = S(m+j, i) = C(i, j)."""
    m, n = bits.shape
    s = np.zeros((m + n, m + n))
    s[:m, m:] = bits
    s[m:, :m] = bits.T
    return s


def explicit_laplacian(bits: np.ndarray) -> np.ndarray:
    """Oracle L = I - D^{-1/2} S D^{-1/2} over the full graph; isolated nodes take D^{-1/2} = 0."""
    s = bipartite_adjacency(bits)
    degrees = s.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    inv_sqrt[degrees > 0] = 1.0 / np.sqrt(degrees[degrees > 0])
    return np.eye(len(s)) - (inv_sqrt[:, None] * s) * inv_sqrt[None, :]


def signed(vecs: np.ndarray) -> np.ndarray:
    """The sign rule: each column's largest-magnitude entry (first on ties) is positive."""
    anchors = np.abs(vecs).argmax(axis=0)
    return vecs * np.where(vecs[anchors, np.arange(vecs.shape[1])] < 0, -1.0, 1.0)


def solve(bits, k):
    return eig_smallest(build_similarity(ConnectivityMatrix(bits)).values, k)


def random_block_bits(rng, shapes):
    """Block-diagonal connectivity; each (rows, cols) block is one connected component.

    Every block holds its first row and first column in full (a spanning
    double star) plus random extra synapses.
    """
    bits = np.zeros((sum(r for r, _ in shapes), sum(c for _, c in shapes)), dtype=np.uint8)
    r0 = c0 = 0
    for rows, cols in shapes:
        block = (rng.random((rows, cols)) < 0.3).astype(np.uint8)
        block[0, :] = 1
        block[:, 0] = 1
        bits[r0 : r0 + rows, c0 : c0 + cols] = block
        r0, c0 = r0 + rows, c0 + cols
    return bits


class TestSimilarity:
    def test_single_edge(self):
        s = build_similarity(ConnectivityMatrix([[1]]))
        assert s.values.tolist() == [[1.0]]

    def test_empty_graph(self):
        s = build_similarity(ConnectivityMatrix(np.zeros((2, 2), dtype=np.uint8)))
        assert s.values.shape == (2, 2) and not s.values.any()

    def test_symmetry_count(self):
        # one entry of B per synapse; the full graph held each edge twice
        bits = np.zeros((2, 3), dtype=np.uint8)
        bits[[0, 0, 1, 1], [0, 2, 1, 2]] = 1
        s = build_similarity(ConnectivityMatrix(bits))
        assert s.values.shape == (2, 3)
        assert np.array_equal(s.values != 0, bits == 1)
        assert int((bipartite_adjacency(bits) != 0).sum()) == 2 * int((s.values != 0).sum())

    def test_degree_scaling_matches_full_graph(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((7, 5)) < 0.5).astype(np.uint8)
        bits[1] = 0
        b = build_similarity(ConnectivityMatrix(bits)).values
        assert np.array_equal(np.eye(12) - explicit_laplacian(bits), bipartite_adjacency(b))

    @pytest.mark.parametrize(
        "values, message",
        [([[0.5, -0.1]], "non-negative"), ([[np.nan]], "finite"), ([[np.inf, 0.0]], "finite"),
         (np.zeros((0, 3)), "non-empty"), (np.ones(3), "2-d")],
        ids=["negative", "nan", "inf", "empty", "one_d"],
    )
    def test_rejects_negative_non_finite_and_bad_shapes(self, values, message):
        with pytest.raises(ValueError, match=message):
            SimilarityMatrix(values)


class TestDegreeAndLaplacian:
    def test_two_node_path(self):
        vals, _ = solve(np.ones((1, 1), dtype=np.uint8), 2)
        assert np.allclose(vals, [0.0, 2.0])
        assert np.allclose(np.linalg.eigvalsh(explicit_laplacian(np.ones((1, 1)))), [0.0, 2.0])

    def test_zero_graph_gives_identity(self):
        # L = I: every eigenvalue is exactly 1 and any orthonormal basis is an eigenbasis
        vals, vecs = solve(np.zeros((1, 3), dtype=np.uint8), 4)
        assert np.array_equal(vals, np.ones(4))
        assert np.allclose(vecs.T @ vecs, np.eye(4))

    def test_complete_bipartite_eigenvalues(self):
        # oracle: K(p, q) has B = J / sqrt(pq) of rank 1 with singular value 1,
        # so L has eigenvalues 0, 1 (p + q - 2 times) and 2
        for p, q in [(2, 3), (4, 4), (1, 6), (5, 2)]:
            vals, _ = solve(np.ones((p, q), dtype=np.uint8), p + q)
            assert np.allclose(vals, [0.0] + [1.0] * (p + q - 2) + [2.0], atol=1e-12)

    def test_psd_and_upper_bound_on_random_graphs(self):
        # bipartite graphs reach the upper bound 2 exactly, once per component
        rng = np.random.default_rng(5)
        for _ in range(20):
            bits = random_block_bits(rng, rng.integers(2, 6, size=(rng.integers(1, 4), 2)))
            vals, _ = solve(bits, sum(bits.shape))
            assert vals.min() >= -1e-9
            assert vals.max() <= 2 + 1e-9
            assert int((vals > 2 - 1e-9).sum()) == len(union_find_components(bipartite_adjacency(bits)))

    def test_zero_eigenvalue_multiplicity_counts_components(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            bits = random_block_bits(rng, rng.integers(2, 7, size=(rng.integers(2, 5), 2)))
            vals, _ = solve(bits, sum(bits.shape))
            assert int((vals < 1e-10).sum()) == len(union_find_components(bipartite_adjacency(bits)))

    def test_exactly_symmetric(self):
        # swapping the two sides of the graph transposes B bit for bit
        rng = np.random.default_rng(13)
        bits = (rng.random((9, 14)) < 0.4).astype(np.uint8)
        bits[2] = 0
        b = build_similarity(ConnectivityMatrix(bits)).values
        assert np.array_equal(build_similarity(ConnectivityMatrix(bits.T)).values, b.T)


class TestEigSmallest:
    def test_identity_eigenvalues(self):
        # B = I: five disjoint edges, each with eigenvalues 0 and 2
        vals, _ = eig_smallest(np.eye(5), 7)
        assert np.allclose(vals, [0.0] * 5 + [2.0] * 2)

    def test_two_node_path_ground_vector(self):
        vals, vecs = eig_smallest(np.ones((1, 1)), 1)
        assert abs(vals[0]) < 1e-12
        assert np.allclose(vecs[:, 0], [np.sqrt(0.5), np.sqrt(0.5)])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(9)
        b = rng.random((5, 3))
        vals, vecs = eig_smallest(b, 8)
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        assert np.abs(rebuilt - (np.eye(8) - bipartite_adjacency(b))).max() < 1e-12

    def test_orthonormal_and_residuals(self):
        rng = np.random.default_rng(10)
        b = rng.random((7, 5))
        lap = np.eye(12) - bipartite_adjacency(b)
        vals, vecs = eig_smallest(b, 6)
        assert np.all(np.diff(vals) >= 0)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(6)).max() <= 1e-8
        norm = np.linalg.norm(lap)
        for i in range(6):
            r = lap @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(r) <= 1e-8 * norm

    @pytest.mark.parametrize(
        "shape, k", [((300, 3), 5), ((3, 300), 5), ((6, 6), 12), ((9, 4), 13), ((4, 9), 9)],
        ids=["300x3", "3x300", "square_all", "tall_all", "wide"],
    )
    def test_k_beyond_min_side(self, shape, k):
        # the full SVD path: null-space pairs and the 1 + s pairs join the sort
        rng = np.random.default_rng(sum(shape) + k)
        bits = (rng.random(shape) < 0.5).astype(np.uint8)
        lap = explicit_laplacian(bits)
        vals, vecs = solve(bits, k)
        assert np.allclose(vals, np.linalg.eigvalsh(lap)[:k], atol=1e-10)
        assert np.abs(lap @ vecs - vecs * vals).max() < 1e-12
        assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-12

    def test_matches_full_graph_eigh(self):
        # seeded blocks, rank-deficient ones included (repeated and empty
        # rows or columns), against eigh of the explicit (m+n)^2 Laplacian
        rng = np.random.default_rng(19)
        for trial in range(60):
            m, n = (int(v) for v in rng.integers(1, 30, size=2))
            bits = (rng.random((m, n)) < rng.uniform(0.05, 0.9)).astype(np.uint8)
            if trial % 3 == 0:
                bits = bits[rng.integers(min(2, m), size=m)]  # every row copies row 0 or 1: rank <= 2
                bits[rng.random(m) < 0.3] = 0
            lap = explicit_laplacian(bits)
            k = int(rng.integers(1, m + n + 1))
            vals, vecs = solve(bits, k)
            assert np.allclose(vals, np.linalg.eigvalsh(lap)[:k], atol=1e-10)
            assert np.abs(lap @ vecs - vecs * vals).max() < 1e-12
            assert np.abs(vecs.T @ vecs - np.eye(k)).max() < 1e-12

    def test_sign_rule(self):
        rng = np.random.default_rng(21)
        for shape, k in [((8, 5), 4), ((5, 8), 13), ((1, 1), 2)]:
            _, vecs = eig_smallest(rng.random(shape), k)
            assert np.array_equal(vecs, signed(vecs))
            anchors = np.abs(vecs).argmax(axis=0)
            assert (vecs[anchors, np.arange(k)] > 0).all()

    @pytest.mark.parametrize(
        "b, k", [(np.ones((2, 3)), 0), (np.ones((2, 3)), 6), (np.ones(3), 1)], ids=["k_0", "k_above_m_n", "one_d"]
    )
    def test_rejects_k_out_of_range_and_bad_shape(self, b, k):
        with pytest.raises(ValueError, match="need a 2-d matrix and 1 <= k <= m"):
            eig_smallest(b, k)


def reference_kmeans(points, k: int, seed: int, objective_trace: list | None = None) -> np.ndarray:
    """The former k-means, kept as an oracle: direct (n x k x d) distances and per-cluster masks.

    It produces NaN centres when a reseed empties a singleton cluster, so the
    oracle tests use inputs where that never happens.
    """
    pts = np.asarray(points, dtype=np.float64)
    n = pts.shape[0]
    order = np.lexsort(pts.T[::-1])
    sorted_pts = pts[order]
    rng = np.random.default_rng(np.random.SeedSequence(entropy=int(seed)))

    centers = np.empty((k, pts.shape[1]))
    centers[0] = sorted_pts[int(rng.integers(n))]
    d2 = ((sorted_pts - centers[0]) ** 2).sum(axis=1)
    for c in range(1, k):
        total = d2.sum()
        if total <= 0:
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


def assert_matches_reference(pts, k: int, seed: int):
    """Equal labels and an equal objective trace, value for value, against :func:`reference_kmeans`."""
    want_trace: list = []
    got_trace: list = []
    want = reference_kmeans(pts, k, seed, want_trace)
    assert np.isfinite(want_trace).all()
    assert np.array_equal(kmeans(pts, k, seed), want)
    assert np.array_equal(kmeans(pts, k, seed, got_trace), want)
    assert got_trace == want_trace


class TestKmeans:
    def test_well_separated_pairs(self):
        pts = np.array([[0.0, 0.0], [0.1, 0.0], [10.0, 10.0], [10.1, 10.0]])
        labels = kmeans(pts, 2, seed=0)
        assert labels[0] == labels[1]
        assert labels[2] == labels[3]
        assert labels[0] != labels[2]

    def test_k_equals_n(self):
        pts = np.array([[0.0], [1.0], [2.0]])
        labels = kmeans(pts, 3, seed=1)
        assert sorted(labels.tolist()) == [0, 1, 2]

    def test_k_too_large(self):
        with pytest.raises(ValueError, match="exceeds"):
            kmeans(np.zeros((2, 2)), 3, seed=0)

    def test_permutation_invariance_oracle(self):
        # oracle: run on two orderings, compare partitions as sets of point ids
        rng = np.random.default_rng(17)
        pts = rng.normal(size=(30, 3)) + np.repeat(np.eye(3) * 8, 10, axis=0)
        labels_a = kmeans(pts, 3, seed=4)
        perm = rng.permutation(30)
        labels_b_perm = kmeans(pts[perm], 3, seed=4)
        labels_b = np.empty(30, dtype=int)
        labels_b[perm] = labels_b_perm
        parts_a = {frozenset(np.flatnonzero(labels_a == c).tolist()) for c in range(3)}
        parts_b = {frozenset(np.flatnonzero(labels_b == c).tolist()) for c in range(3)}
        assert parts_a == parts_b

    def test_objective_non_increasing(self):
        rng = np.random.default_rng(23)
        pts = rng.normal(size=(60, 4))
        trace: list = []
        kmeans(pts, 5, seed=2, objective_trace=trace)
        assert all(b <= a + 1e-9 for a, b in zip(trace[:-1], trace[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(29)
        pts = rng.normal(size=(40, 2))
        assert np.array_equal(kmeans(pts, 4, seed=7), kmeans(pts, 4, seed=7))

    def test_matches_reference_on_spectral_embedding(self):
        # the shape of a 784x256 layer's clustering: 1040 points, 33 dimensions, k = 33
        rng = np.random.default_rng(31)
        bits = (rng.random((784, 256)) < 0.05).astype(np.uint8)
        _, vectors = eig_smallest(build_similarity(ConnectivityMatrix(bits)).values, 33)
        assert_matches_reference(row_normalize(vectors), 33, seed=0)

    @pytest.mark.parametrize(
        "kind, seed", [("gaussian", 0), ("row_normalized", 1), ("small_integers", 2), ("signs", 3)]
    )
    def test_matches_reference_on_random_points(self, kind, seed):
        # small integers and normalized {-1, 0, 1} rows put many points at
        # exactly equal distances from two centroids
        rng = np.random.default_rng(seed)
        draw = {
            "gaussian": lambda n, d: rng.normal(size=(n, d)),
            "row_normalized": lambda n, d: row_normalize(rng.normal(size=(n, d))),
            "small_integers": lambda n, d: rng.integers(0, 4, size=(n, d)).astype(np.float64),
            "signs": lambda n, d: row_normalize(rng.integers(-1, 2, size=(n, d)).astype(np.float64)),
        }[kind]
        for trial in range(40):
            n, d = int(rng.integers(8, 120)), int(rng.integers(1, 12))
            k = int(rng.integers(1, max(2, n // 8) + 1))
            pts = draw(n, d)
            # the oracle turns NaN when k nears the count of distinct points
            k = min(k, len(np.unique(pts, axis=0)) // 2 or 1)
            assert_matches_reference(pts, k, seed=trial)

    def test_equidistant_point_goes_to_lowest_index(self):
        # the point is 24 from both centroids; at this magnitude the Gram
        # form's rounding ranks centroid 1 first, so only the direct
        # recomputation of the near tie gives the lowest index
        a, h = 3004121786.0, 24.0
        pts, centers = np.array([[a]]), np.array([[a - h], [a + h]])
        assert (pts @ (-2.0 * centers.T) + (centers**2).sum(axis=1)).argmin() == 1
        assert ((pts[:, None, :] - centers[None]) ** 2).sum(axis=2).tolist() == [[h * h, h * h]]
        assert _nearest(pts, np.abs(pts[:, 0]), centers).tolist() == [0]
        assert_matches_reference(np.array([[a - h], [a], [a + h], [a + 2 * h]]), 2, seed=0)

    @pytest.mark.parametrize(
        "pts, k, seed",
        [([[0, 0], [1, 0], [0, 0], [1, 0], [1, 0], [0, 1], [1, 1], [1, 0]], 8, 1),
         ([[0, 0], [1, 0], [0, 1], [0, 1], [0, 0], [1, 0], [0, 0]], 6, 14)],
        ids=["k_8_of_4_distinct", "k_6_of_3_distinct"],
    )
    def test_k_above_distinct_points_uses_every_label(self, pts, k, seed):
        # a reseed takes its point from a cluster of two or more, so it never
        # empties a singleton cluster and leaves a NaN centre behind
        trace: list = []
        labels = kmeans(np.array(pts, dtype=np.float64), k, seed=seed, objective_trace=trace)
        assert np.isfinite(trace).all()
        assert sorted(set(labels.tolist())) == list(range(k))


def as_sets(groups):
    """(row ids, col ids) pairs as a set of frozensets of bipartite node ids."""
    return {frozenset(r.tolist()) | frozenset(("c", j) for j in c.tolist()) for r, c in groups}


def component_sets(bits: np.ndarray):
    """Oracle groups: union-find components of the bipartite graph, isolated nodes dropped."""
    m = bits.shape[0]
    return {
        frozenset(i for i in comp if i < m) | frozenset(("c", i - m) for i in comp if i >= m)
        for comp in union_find_components(bipartite_adjacency(bits))
        if len(comp) > 1
    }


def reference_spectral_groups(bits: np.ndarray, k: int, seed: int):
    """The former full-graph path, kept as an oracle.

    The explicit Laplacian over all m+n nodes, its active submatrix, the full
    ``eigh`` with the sign rule applied, then the same k-means; groups are
    split back into row and column ids. Also returns the eigenvalues.
    """
    m = bits.shape[0]
    active = np.flatnonzero(bipartite_adjacency(bits).any(axis=1))
    lap = explicit_laplacian(bits)[np.ix_(active, active)]
    vals, vecs = np.linalg.eigh(lap)
    labels = kmeans(row_normalize(signed(vecs[:, :k])), k, seed)
    groups = [active[labels == g] for g in range(k)]
    return [(g[g < m], g[g >= m] - m) for g in groups], vals


class TestSpectralCluster:
    def test_two_disconnected_cliques(self):
        # two complete bipartite blocks, K(4,3) and K(2,5)
        bits = np.zeros((6, 8), dtype=np.uint8)
        bits[:4, :3] = 1
        bits[4:, 3:] = 1
        groups = spectral_cluster(spectral_basis(ConnectivityMatrix(bits), 2), seed=0)
        assert as_sets(groups) == component_sets(bits)

    def test_planted_bipartite_blocks(self):
        rng = np.random.default_rng(3)
        bits = np.zeros((12, 9), dtype=np.uint8)
        for b in range(3):
            block = (rng.random((4, 3)) < 0.9).astype(np.uint8)
            block[0, 0] = 1
            bits[b * 4 : (b + 1) * 4, b * 3 : (b + 1) * 3] = block
        groups = spectral_cluster(spectral_basis(ConnectivityMatrix(bits), 3), seed=1)
        assert as_sets(groups) == component_sets(bits)

    def test_single_edge_single_cluster(self):
        (rows, cols), = spectral_cluster(spectral_basis(ConnectivityMatrix([[1]]), 1), seed=0)
        assert rows.tolist() == [0] and cols.tolist() == [0]

    def test_isolated_nodes_separated(self):
        # row 1 and column 2 have no synapse: they join no group
        bits = np.zeros((3, 3), dtype=np.uint8)
        bits[0, 0] = 1
        bits[2, 1] = 1
        groups = spectral_cluster(spectral_basis(ConnectivityMatrix(bits), 2), seed=0)
        assert as_sets(groups) == {frozenset({0, ("c", 0)}), frozenset({2, ("c", 1)})}

    def test_k_exceeding_active_nodes(self):
        bits = np.zeros((2, 2), dtype=np.uint8)
        bits[0, 1] = 1
        with pytest.raises(ValueError, match="non-isolated"):
            spectral_basis(ConnectivityMatrix(bits), 3)

    def test_basis_is_the_active_blocks_eigenvectors(self):
        rng = np.random.default_rng(8)
        bits = (rng.random((9, 7)) < 0.4).astype(np.uint8)
        bits[2] = 0
        bits[:, 5] = 0
        bits[0, 0] = 1
        rows, cols, vectors = spectral_basis(ConnectivityMatrix(bits), 4)
        assert rows.tolist() == np.flatnonzero(bits.any(axis=1)).tolist()
        assert cols.tolist() == np.flatnonzero(bits.any(axis=0)).tolist()
        assert np.array_equal(vectors, solve(bits[np.ix_(rows, cols)], 4)[1])

    def test_matches_full_graph_reference(self):
        # seeded residuals with empty rows and columns. Where the k+1 smallest
        # eigenvalues are pairwise separated, the embedding is unique up to the
        # sign rule and the groups must equal the full-graph path's exactly;
        # elsewhere the basis of a repeated eigenvalue is arbitrary, and only
        # the eigenvalues must agree.
        rng = np.random.default_rng(41)
        exact = 0
        for trial in range(30):
            m, n = (int(v) for v in rng.integers(6, 40, size=2))
            bits = (rng.random((m, n)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            bits[rng.random(m) < 0.25] = 0
            bits[:, rng.random(n) < 0.25] = 0
            bits[0, 0] = bits[-1, -1] = 1
            n_active = int(bits.any(axis=1).sum() + bits.any(axis=0).sum())
            k = int(rng.integers(2, min(8, n_active) + 1))
            got = spectral_cluster(spectral_basis(ConnectivityMatrix(bits), k), seed=trial)
            want, ref_vals = reference_spectral_groups(bits, k, seed=trial)
            block = bits[np.ix_(bits.any(axis=1), bits.any(axis=0))]
            vals, _ = solve(block, min(k + 1, n_active))
            assert np.allclose(vals, ref_vals[: len(vals)], atol=1e-10)
            assert len(got) == len(want) == k
            if len(vals) == k + 1 and np.diff(ref_vals[: k + 1]).min() > 1e-8:
                exact += 1
                for (gr, gc), (wr, wc) in zip(got, want):
                    assert np.array_equal(gr, wr) and np.array_equal(gc, wc)
        assert exact >= 15  # 17 of the 30 seeded trials qualify

    def test_row_normalize_keeps_zero_rows(self):
        v = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = row_normalize(v)
        assert np.allclose(out[0], [0.6, 0.8])
        assert not out[1].any()
