"""Connectivity matrix, cluster set, and sparse-format tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarnet.connectivity import (
    Cluster,
    ClusterSet,
    ConnectivityMatrix,
    ShapeError,
    SparseFormatError,
    audit_cluster_set,
    cluster_sets_from_json,
    cluster_sets_to_json,
    from_weights,
    load_sparse,
    save_sparse,
)


class TestFromWeights:
    def test_threshold_definition(self):
        w = [[0.5, 0.0], [-0.2, -0.0]]
        c = from_weights(w)
        assert c.bits.tolist() == [[1, 0], [1, 0]]

    def test_zero_matrix_identity_case(self):
        c = from_weights(np.zeros((3, 4)))
        assert c.nnz == 0

    def test_empty_matrix_rejected(self):
        with pytest.raises(ShapeError, match="degenerate"):
            from_weights(np.zeros((0, 3)))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_binarization_idempotent(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.normal(size=(6, 6)) * (rng.random((6, 6)) < 0.7)
        c = from_weights(w)
        again = from_weights(w * c.bits)
        assert np.array_equal(again.bits, c.bits)


class TestSparseFormat:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(3)
        c = ConnectivityMatrix((rng.random((50, 30)) < 0.2).astype(np.uint8))
        path = tmp_path / "m.txt"
        save_sparse(path, c)
        assert np.array_equal(load_sparse(path).bits, c.bits)

    def test_single_entry_by_definition(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 3 1\n1 1\n")
        c = load_sparse(path)
        assert c.bits[1, 1] == 1 and c.nnz == 1 and c.rows == 3 and c.cols == 3

    def test_out_of_bounds(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 3 1\n5 1\n")
        with pytest.raises(SparseFormatError, match="out of bounds"):
            load_sparse(path)

    def test_malformed_reports_line_number(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("3 3 2\n0 0\nnope nope\n")
        with pytest.raises(SparseFormatError, match="line 3"):
            load_sparse(path)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 3\n0 0\n")
        with pytest.raises(SparseFormatError, match="promises 3"):
            load_sparse(path)


class TestClusterTypes:
    def test_cluster_canonical_order(self):
        c = Cluster((3, 1, 2), (9, 4), layer_id=1)
        assert c.row_ids == (1, 2, 3)
        assert c.col_ids == (4, 9)

    def test_cluster_rejects_duplicates_and_empty(self):
        with pytest.raises(ValueError):
            Cluster((1, 1), (0,))
        with pytest.raises(ValueError):
            Cluster((), (0,))

    def test_audit_catches_cell_outside_footprint(self):
        bits = np.ones((4, 4), dtype=np.uint8)
        original = ConnectivityMatrix(bits)
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        owner[2, 2] = 0  # on the source, but outside cluster 0's rows and cols
        cs = ClusterSet((Cluster((0, 1), (0, 1)),), original, owner)
        with pytest.raises(AssertionError, match="outside its footprint"):
            audit_cluster_set(cs, original)

    def test_audit_catches_empty_cluster(self):
        original = ConnectivityMatrix(np.ones((4, 4), dtype=np.uint8))
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        cs = ClusterSet((Cluster((0, 1), (0, 1)), Cluster((2, 3), (2, 3))), original, owner)
        with pytest.raises(AssertionError, match="cluster 1 covers no synapses"):
            audit_cluster_set(cs, original)

    def test_audit_accepts_consistent_set(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[:2, :2] = 1
        bits[3, 3] = 1
        original = ConnectivityMatrix(bits)
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        cs = ClusterSet((Cluster((0, 1), (0, 1)),), original, owner)
        audit_cluster_set(cs, original)
        assert cs.residual.nnz == 1 and cs.residual.bits[3, 3] == 1

    def test_cells_match_nonzero_of_owner(self):
        rng = np.random.default_rng(4)
        owner = rng.integers(-1, 3, size=(5, 7))
        owner[0, 0], owner[0, 1], owner[0, 2] = 0, 1, 2
        cs = ClusterSet(
            tuple(Cluster(tuple(range(5)), tuple(range(7))) for _ in range(3)),
            ConnectivityMatrix(np.ones((5, 7), dtype=np.uint8)),
            owner,
        )
        for k, (ii, jj) in enumerate(cs.cells()):
            ok_i, ok_j = np.nonzero(owner == k)
            assert np.array_equal(ii, ok_i) and np.array_equal(jj, ok_j)
        assert cs.cell_counts().tolist() == [int((owner == k).sum()) for k in range(3)]

    def test_owner_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="owner entries"):
            ClusterSet((), ConnectivityMatrix(np.ones((2, 2), dtype=np.uint8)), np.zeros((2, 2)))

    def test_json_round_trip(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = bits[1, 1] = bits[3, 3] = 1
        owner = np.full((4, 4), -1)
        owner[0, 0] = owner[1, 1] = 0
        cs = ClusterSet((Cluster((0, 1), (0, 1)),), ConnectivityMatrix(bits), owner)
        text = cluster_sets_to_json([cs])
        assert json.loads(text)[0]["covered"] == [[0, 0], [1, 1]]
        back = cluster_sets_from_json(text, [cs.source])[0]
        assert back.clusters == cs.clusters
        assert np.array_equal(back.owner, cs.owner)
        assert np.array_equal(back.residual.bits, cs.residual.bits)
