"""Spectral pipeline tests: Laplacian, eigensolve, k-means, end-to-end groups."""

import numpy as np
import pytest

from xbarnet.connectivity import ConnectivityMatrix
from xbarnet.spectral import (
    SimilarityMatrix,
    build_similarity,
    eig_smallest,
    kmeans,
    normalized_laplacian,
    row_normalize,
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
        assert s.values.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_empty_graph(self):
        s = build_similarity(ConnectivityMatrix(np.zeros((2, 2), dtype=np.uint8)))
        assert s.size == 4 and not s.values.any()

    def test_symmetry_count(self):
        rng = np.random.default_rng(0)
        bits = np.zeros((2, 3), dtype=np.uint8)
        bits[[0, 0, 1, 1], [0, 2, 1, 2]] = 1
        s = build_similarity(ConnectivityMatrix(bits))
        assert s.size == 5
        assert int((s.values != 0).sum()) == 8

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            SimilarityMatrix(np.eye(3))


class TestDegreeAndLaplacian:
    def test_two_node_path(self):
        lap = normalized_laplacian(build_similarity(ConnectivityMatrix([[1]])))
        assert np.allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])
        assert np.allclose(np.sort(np.linalg.eigvalsh(lap)), [0.0, 2.0])

    def test_zero_graph_gives_identity(self):
        s = build_similarity(ConnectivityMatrix(np.zeros((1, 3), dtype=np.uint8)))
        assert np.array_equal(normalized_laplacian(s), np.eye(4))

    def test_triangle_eigenvalues(self):
        # oracle: for K3, det(L - t I) = (1-t)^3 - 3(1-t)/4 - 1/4, roots {0, 1.5, 1.5}
        s = SimilarityMatrix(np.ones((3, 3)) - np.eye(3))
        lap = normalized_laplacian(s)
        t = np.polynomial.Polynomial([1, -1])  # (1 - t)
        char = t**3 - 0.75 * t - 0.25
        roots = np.sort_complex(char.roots()).real
        assert np.allclose(np.sort(roots), [0.0, 1.5, 1.5], atol=1e-9)
        assert np.allclose(np.sort(np.linalg.eigvalsh(lap)), np.sort(roots), atol=1e-9)

    def test_psd_and_upper_bound_on_random_graphs(self):
        # bipartite graphs reach the upper bound 2 exactly, once per component
        rng = np.random.default_rng(5)
        for _ in range(20):
            c = ConnectivityMatrix(random_block_bits(rng, rng.integers(2, 6, size=(rng.integers(1, 4), 2))))
            s = build_similarity(c)
            vals = np.linalg.eigvalsh(normalized_laplacian(s))
            assert vals.min() >= -1e-9
            assert vals.max() <= 2 + 1e-9
            assert int((vals > 2 - 1e-9).sum()) == len(union_find_components(s.values))

    def test_zero_eigenvalue_multiplicity_counts_components(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            c = ConnectivityMatrix(random_block_bits(rng, rng.integers(2, 7, size=(rng.integers(2, 5), 2))))
            s = build_similarity(c)
            vals = np.linalg.eigvalsh(normalized_laplacian(s))
            assert int((vals < 1e-10).sum()) == len(union_find_components(s.values))

    def test_exactly_symmetric(self):
        rng = np.random.default_rng(13)
        bits = (rng.random((9, 14)) < 0.4).astype(np.uint8)
        bits[2] = 0
        lap = normalized_laplacian(build_similarity(ConnectivityMatrix(bits)))
        assert np.array_equal(lap, lap.T)


class TestEigSmallest:
    def test_identity_eigenvalues(self):
        vals, _ = eig_smallest(np.eye(5), 2)
        assert np.allclose(vals, [1.0, 1.0])

    def test_two_node_path_ground_vector(self):
        lap = np.array([[1.0, -1.0], [-1.0, 1.0]])
        vals, vecs = eig_smallest(lap, 1)
        assert abs(vals[0]) < 1e-12
        assert np.allclose(np.abs(vecs[:, 0]), [np.sqrt(0.5), np.sqrt(0.5)])

    def test_reconstruction_oracle(self):
        rng = np.random.default_rng(9)
        a = rng.normal(size=(8, 8))
        sym = (a + a.T) / 2
        vals, vecs = eig_smallest(sym, 8)
        rebuilt = vecs @ np.diag(vals) @ vecs.T
        assert np.abs(rebuilt - sym).max() < 1e-8

    def test_orthonormal_and_residuals(self):
        rng = np.random.default_rng(10)
        a = rng.normal(size=(12, 12))
        sym = (a + a.T) / 2
        vals, vecs = eig_smallest(sym, 6)
        assert np.all(np.diff(vals) >= 0)
        gram = vecs.T @ vecs
        assert np.abs(gram - np.eye(6)).max() <= 1e-8
        norm = np.linalg.norm(sym)
        for i in range(6):
            r = sym @ vecs[:, i] - vals[i] * vecs[:, i]
            assert np.linalg.norm(r) <= 1e-8 * norm

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="asymmetry"):
            eig_smallest(m, 1)


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


def as_sets(groups):
    """(row ids, col ids) pairs as a set of frozensets of bipartite node ids."""
    return {frozenset(r.tolist()) | frozenset(("c", j) for j in c.tolist()) for r, c in groups}


def component_sets(bits: np.ndarray):
    """Oracle groups: union-find components of the bipartite graph, isolated nodes dropped."""
    m = bits.shape[0]
    s = build_similarity(ConnectivityMatrix(bits))
    return {
        frozenset(i for i in comp if i < m) | frozenset(("c", i - m) for i in comp if i >= m)
        for comp in union_find_components(s.values)
        if len(comp) > 1
    }


def reference_spectral_groups(bits: np.ndarray, k: int, seed: int):
    """The former full-graph path, kept as an oracle.

    Similarity over all m+n nodes, the active submatrix of it, a symmetrized
    Laplacian, the full eigendecomposition, then the same k-means; groups are
    split back into row and column ids.
    """
    m, n = bits.shape
    s = np.zeros((m + n, m + n))
    s[:m, m:] = bits
    s[m:, :m] = bits.T
    active = np.flatnonzero(s.sum(axis=1) > 0)
    sub = s[np.ix_(active, active)]
    sub = (sub + sub.T) / 2.0
    degrees = sub.sum(axis=1)
    inv_sqrt = np.zeros_like(degrees)
    inv_sqrt[degrees > 0] = 1.0 / np.sqrt(degrees[degrees > 0])
    lap = np.eye(len(active)) - (inv_sqrt[:, None] * sub) * inv_sqrt[None, :]
    lap = (lap + lap.T) / 2.0
    _, vecs = np.linalg.eigh((lap + lap.T) / 2.0)
    labels = kmeans(row_normalize(vecs[:, :k]), k, seed)
    groups = [active[labels == g] for g in range(k)]
    return [(g[g < m], g[g >= m] - m) for g in groups]


class TestSpectralCluster:
    def test_two_disconnected_cliques(self):
        # two complete bipartite blocks, K(4,3) and K(2,5)
        bits = np.zeros((6, 8), dtype=np.uint8)
        bits[:4, :3] = 1
        bits[4:, 3:] = 1
        groups = spectral_cluster(ConnectivityMatrix(bits), 2, seed=0)
        assert as_sets(groups) == component_sets(bits)

    def test_planted_bipartite_blocks(self):
        rng = np.random.default_rng(3)
        bits = np.zeros((12, 9), dtype=np.uint8)
        for b in range(3):
            block = (rng.random((4, 3)) < 0.9).astype(np.uint8)
            block[0, 0] = 1
            bits[b * 4 : (b + 1) * 4, b * 3 : (b + 1) * 3] = block
        groups = spectral_cluster(ConnectivityMatrix(bits), 3, seed=1)
        assert as_sets(groups) == component_sets(bits)

    def test_single_edge_single_cluster(self):
        (rows, cols), = spectral_cluster(ConnectivityMatrix([[1]]), 1, seed=0)
        assert rows.tolist() == [0] and cols.tolist() == [0]

    def test_isolated_nodes_separated(self):
        # row 1 and column 2 have no synapse: they join no group
        bits = np.zeros((3, 3), dtype=np.uint8)
        bits[0, 0] = 1
        bits[2, 1] = 1
        groups = spectral_cluster(ConnectivityMatrix(bits), 2, seed=0)
        assert as_sets(groups) == {frozenset({0, ("c", 0)}), frozenset({2, ("c", 1)})}

    def test_k_exceeding_active_nodes(self):
        bits = np.zeros((2, 2), dtype=np.uint8)
        bits[0, 1] = 1
        with pytest.raises(ValueError, match="non-isolated"):
            spectral_cluster(ConnectivityMatrix(bits), 3, seed=0)

    def test_matches_full_graph_reference(self):
        # seeded residuals with empty rows and columns; the active-block path
        # must return exactly the groups of the former full-graph path
        rng = np.random.default_rng(41)
        for trial in range(30):
            m, n = (int(v) for v in rng.integers(6, 40, size=2))
            bits = (rng.random((m, n)) < rng.uniform(0.05, 0.6)).astype(np.uint8)
            bits[rng.random(m) < 0.25] = 0
            bits[:, rng.random(n) < 0.25] = 0
            bits[0, 0] = bits[-1, -1] = 1
            n_active = int(bits.any(axis=1).sum() + bits.any(axis=0).sum())
            k = int(rng.integers(2, min(8, n_active) + 1))
            got = spectral_cluster(ConnectivityMatrix(bits), k, seed=trial)
            want = reference_spectral_groups(bits, k, seed=trial)
            assert len(got) == len(want) == k
            for (gr, gc), (wr, wc) in zip(got, want):
                assert np.array_equal(gr, wr) and np.array_equal(gc, wc)

    def test_row_normalize_keeps_zero_rows(self):
        v = np.array([[3.0, 4.0], [0.0, 0.0]])
        out = row_normalize(v)
        assert np.allclose(out[0], [0.6, 0.8])
        assert not out[1].any()
