"""Connectivity matrix, cluster set, and sparse-format tests."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarnet.connectivity import (
    ClusterFormatError,
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
from xbarnet.hardware import TechConfig, map_to_mcas
from xbarnet.sizecluster import SizeClusterConfig, size_constrained_cluster


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


class TestBits:
    @pytest.mark.parametrize("bad", [2, -1, 0.5, np.nan], ids=["two", "minus_one", "half", "nan"])
    def test_entries_other_than_0_or_1_rejected(self, bad):
        values = np.zeros((3, 4))
        values[1, 2] = bad
        with pytest.raises(ValueError, match="exactly 0 or 1"):
            ConnectivityMatrix(values)

    @pytest.mark.parametrize(
        "values",
        [[[0, 1], [1, 0]], [[0.0, 1.0], [1.0, 0.0]], [[False, True], [True, False]]],
        ids=["ints", "floats", "bools"],
    )
    def test_0_1_values_accepted(self, values):
        c = ConnectivityMatrix(values)
        assert c.bits.dtype == np.uint8 and c.bits.tolist() == [[0, 1], [1, 0]]


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

    def test_repeated_coordinate_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 2\n0 0\n0 0\n")
        with pytest.raises(SparseFormatError, match="line 3: repeated coordinate \\(0, 0\\)"):
            load_sparse(path)

    def test_wrong_count_rejected(self, tmp_path):
        path = tmp_path / "m.txt"
        path.write_text("2 2 3\n0 0\n")
        with pytest.raises(SparseFormatError, match="promises 3"):
            load_sparse(path)


class TestClusterTypes:
    def test_gap_in_cluster_indices_rejected(self):
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 1  # cluster 0 owns no cell
        with pytest.raises(ValueError, match="cluster 0 owns no cell"):
            ClusterSet(ConnectivityMatrix(np.ones((4, 4), dtype=np.uint8)), owner)

    def test_audit_catches_cell_not_a_synapse(self):
        bits = np.ones((4, 4), dtype=np.uint8)
        bits[1, 1] = 0
        original = ConnectivityMatrix(bits)
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        with pytest.raises(AssertionError, match="a covered cell is not a synapse"):
            audit_cluster_set(ClusterSet(original, owner), original)

    def test_audit_accepts_consistent_set(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[:2, :2] = 1
        bits[3, 3] = 1
        original = ConnectivityMatrix(bits)
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        cs = ClusterSet(original, owner)
        audit_cluster_set(cs, original)
        assert cs.n_clusters == 1
        assert cs.residual.nnz == 1 and cs.residual.bits[3, 3] == 1

    def test_cells_match_nonzero_of_owner(self):
        rng = np.random.default_rng(4)
        owner = rng.integers(-1, 3, size=(5, 7))
        owner[0, 0], owner[0, 1], owner[0, 2] = 0, 1, 2
        cs = ClusterSet(ConnectivityMatrix(np.ones((5, 7), dtype=np.uint8)), owner)
        for k, (ii, jj) in enumerate(cs.cells()):
            ok_i, ok_j = np.nonzero(owner == k)
            assert np.array_equal(ii, ok_i) and np.array_equal(jj, ok_j)
        assert cs.cell_counts().tolist() == [int((owner == k).sum()) for k in range(3)]

    @pytest.mark.parametrize("seed", range(5))
    def test_footprints_are_the_distinct_rows_and_cols_of_owned_cells(self, seed):
        rng = np.random.default_rng(seed)
        owner = rng.integers(-1, 6, size=(9, 13))
        owner[0, :6] = np.arange(6)
        cs = ClusterSet(ConnectivityMatrix(np.ones((9, 13), dtype=np.uint8)), owner)
        footprints = cs.footprints()
        assert len(footprints) == cs.n_clusters == 6
        for k, (rows, cols) in enumerate(footprints):
            ii, jj = np.nonzero(owner == k)
            assert rows.tolist() == sorted(set(ii.tolist()))
            assert cols.tolist() == sorted(set(jj.tolist()))

    def test_no_owned_cell_means_no_clusters(self):
        cs = ClusterSet(ConnectivityMatrix(np.ones((3, 2), dtype=np.uint8)))
        assert cs.n_clusters == 0
        assert cs.footprints() == [] and cs.cells() == []

    def test_owner_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="owner entries"):
            ClusterSet(ConnectivityMatrix(np.ones((2, 2), dtype=np.uint8)), np.full((2, 2), -2))

    def test_json_round_trip(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = bits[1, 1] = bits[3, 3] = 1
        owner = np.full((4, 4), -1)
        owner[0, 0] = owner[1, 1] = 0
        cs = ClusterSet(ConnectivityMatrix(bits), owner)
        text = cluster_sets_to_json([cs])
        record = json.loads(text)[0]
        assert (record["rows"], record["cols"], record["covered"]) == ([0, 1], [0, 1], [[0, 0], [1, 1]])
        back = cluster_sets_from_json(text, [cs.source], (2, 2))[0]
        assert np.array_equal(back.owner, cs.owner)
        assert np.array_equal(back.residual.bits, cs.residual.bits)

    def test_json_rows_and_cols_in_any_order(self):
        record = {"layer": 0, "rows": [2, 0], "cols": [2, 0], "covered": [[2, 2], [0, 0]]}
        cs = cluster_sets_from_json(json.dumps([record]), [ConnectivityMatrix(np.eye(4, dtype=np.uint8))], (2, 2))[0]
        assert [(r.tolist(), c.tolist()) for r, c in cs.footprints()] == [([0, 2], [0, 2])]

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"rows": [0, 3], "cols": [0, 3], "covered": [[0, 0], [-1, -1]]}, "a covered cell lies outside"),
            ({"rows": [0, 1], "cols": [0, 1], "covered": [[0, 0], [0, 1]]}, "a covered cell is not a synapse"),
            ({"rows": [0, 1], "cols": [0, 1], "covered": [[0, 0], [1, 1]]}, "a cell is covered twice"),
            ({"rows": [2], "cols": [2], "covered": [[3, 3]]}, "cluster 1: rows and cols must name each row"),
            ({"rows": [9], "cols": [0], "covered": [[9, 0]]}, "a covered cell lies outside the 4x4 matrix"),
            ({"rows": [2], "cols": [2, 9], "covered": [[2, 2]]}, "cluster 1: rows and cols must name each row"),
            ({"rows": [2], "cols": [2], "covered": []}, "cluster 1 covers no synapses"),
            ({"rows": [2], "cols": [2], "covered": [[2, 2], [2, 2]]}, "a cell is covered twice"),
            ({"layer": 1, "rows": [2], "cols": [2], "covered": [[2, 2]]}, "record 1: ValueError: unknown layer 1"),
            ({"rows": [2], "cols": [2]}, "record 1: KeyError: 'covered'"),
            ({"rows": [0, 2, 3], "cols": [2], "covered": [[2, 2]]},
             "record 1: ValueError: cluster 3x1 exceeds crossbar 2x2"),
            ({"rows": [0], "cols": [0], "covered": [[0.7, 0.2]]},
             "record 1: TypeError: covered must be a list of \\[row, col\\] integer pairs"),
            ({"rows": [0], "cols": [0], "covered": [[False, False]]}, "record 1: TypeError: covered must be"),
            ({"rows": [0], "cols": [1], "covered": [[0, True]]}, "record 1: TypeError: covered must be"),
            ({"rows": [0], "cols": [0], "covered": [[2**70, 0]]}, "record 1: OverflowError"),
            ({"rows": [0], "cols": [0], "covered": [["0", "0"]]}, "record 1: TypeError: covered must be"),
            ({"rows": [0], "cols": [0], "covered": [[0, 0, 0]]}, "record 1: TypeError: covered must be"),
            ({"rows": ["0"], "cols": [0], "covered": [[0, 0]]},
             "record 1: TypeError: rows must be a list of integers, got \\['0'\\]"),
            ({"rows": [0], "cols": [0.9], "covered": [[0, 0]]}, "record 1: TypeError: cols must be a list of integers"),
            ({"rows": [False], "cols": [0], "covered": [[0, 0]]}, "record 1: TypeError: rows must be a list of integers"),
            ({"rows": 0, "cols": [0], "covered": [[0, 0]]}, "record 1: TypeError: rows must be a list of integers"),
            ({"rows": [0, 0], "cols": [0], "covered": [[0, 0]]}, "cluster 1: rows and cols must name each row"),
            ({"rows": [0, 2], "cols": [0], "covered": [[0, 0]]}, "cluster 1: rows and cols must name each row"),
        ],
        ids=["negative_cell", "dead_synapse", "claimed_twice", "outside_footprint", "beyond_matrix",
             "cols_beyond_matrix", "empty", "repeated_cell", "unknown_layer", "no_covered",
             "beyond_crossbar", "covered_float", "covered_bool", "covered_int_bool", "covered_huge_int",
             "covered_string", "covered_triple", "rows_string", "cols_float", "rows_bool", "rows_not_list",
             "rows_repeated", "row_without_cell"],
    )
    def test_json_malformed_record_rejected(self, record, message):
        """A second record is checked on a 2x2 crossbar against a 4x4 identity whose (1, 1) the first owns."""
        first = {"layer": 0, "rows": [1], "cols": [1], "covered": [[1, 1]]}
        text = json.dumps([first, {"layer": 0, **record}])
        with pytest.raises(ClusterFormatError, match=message):
            cluster_sets_from_json(text, [ConnectivityMatrix(np.eye(4, dtype=np.uint8))], (2, 2))


@pytest.mark.parametrize("seed", range(10))
def test_clustering_round_trips_through_json_and_mapping(seed):
    """size_constrained_cluster -> clusters.json -> reload -> map_to_mcas rebuilds the same owners and mapping."""
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(v) for v in rng.integers(6, 48, size=2)) for _ in range(2)]
    sources = [ConnectivityMatrix((rng.random(shape) < rng.uniform(0.1, 0.8)).astype(np.uint8)) for shape in shapes]
    cfg = SizeClusterConfig(
        crossbar_rows=int(rng.choice([2, 4, 8])), crossbar_cols=int(rng.choice([2, 4, 8])),
        min_util_factor=0.2, max_rounds=10,
    )
    tech = TechConfig(crossbar_rows=cfg.crossbar_rows, crossbar_cols=cfg.crossbar_cols)
    sets = [size_constrained_cluster(c, cfg, seed=seed) for c in sources]
    text = cluster_sets_to_json(sets)
    back = cluster_sets_from_json(text, sources, (cfg.crossbar_rows, cfg.crossbar_cols))
    for cs, again in zip(sets, back):
        assert np.array_equal(again.owner, cs.owner)
        for k, (rows, cols) in enumerate(again.footprints()):
            owned = again.owner == k
            assert owned[rows].any(axis=1).all() and owned[:, cols].any(axis=0).all()
    assert map_to_mcas(back, tech).to_dict() == map_to_mcas(sets, tech).to_dict()
    assert cluster_sets_to_json(back) == text


def reference_cluster_json(cluster_sets):
    """The records ``json.dumps(indent=1)`` wrote before ``cluster_sets_to_json`` formatted its text directly."""
    records = []
    for layer_id, cs in enumerate(cluster_sets):
        for (rows, cols), (ii, jj) in zip(cs.footprints(), cs.cells()):
            records.append(
                {
                    "layer": layer_id,
                    "rows": rows.tolist(),
                    "cols": cols.tolist(),
                    "covered": [[i, j] for i, j in zip(ii.tolist(), jj.tolist())],
                }
            )
    return json.dumps(records, indent=1)


@pytest.mark.parametrize("crossbar", [(1, 1), (1, 5), (3, 2), (8, 8), None], ids=["1x1", "1x5", "3x2", "8x8", "random"])
@pytest.mark.parametrize("seed", range(4))
def test_cluster_json_matches_json_dumps_byte_for_byte(seed, crossbar):
    """Three clustered layers around one without clusters write exactly the ``json.dumps(indent=1)`` text."""
    rng = np.random.default_rng(seed)
    rows, cols = crossbar or (int(v) for v in rng.integers(1, 9, size=2))
    cfg = SizeClusterConfig(crossbar_rows=rows, crossbar_cols=cols, min_util_factor=0.2, max_rounds=10)
    sources = [ConnectivityMatrix((rng.random(tuple(rng.integers(1, 40, size=2))) < rng.uniform(0.1, 0.8))
                                  .astype(np.uint8)) for _ in range(4)]
    sources[2] = ConnectivityMatrix(np.ones((5, 7), dtype=np.uint8))
    sets = [size_constrained_cluster(c, cfg, seed=seed) for c in sources]
    sets[2] = ClusterSet(sources[2])
    assert sum(cs.n_clusters for cs in sets) > 0
    text = cluster_sets_to_json(sets)
    assert text == reference_cluster_json(sets)
    if crossbar == (1, 1):
        assert all(len(r["covered"]) == 1 for r in json.loads(text))


def test_cluster_json_without_clusters_is_an_empty_list():
    sets = [ClusterSet(ConnectivityMatrix(np.ones((3, 4), dtype=np.uint8))) for _ in range(2)]
    assert cluster_sets_to_json(sets) == reference_cluster_json(sets) == "[]"
    assert cluster_sets_to_json([]) == "[]"
