"""Iterative clustering: acceptance thresholds, splitting, the candidate path, determinism."""

import numpy as np
import pytest

from xbarnet.connectivity import ClusterSet, ConnectivityMatrix
from xbarnet.sizecluster import SizeClusterConfig, size_constrained_cluster, split_oversized


def block_diagonal(blocks, block_shape):
    rows, cols = block_shape
    bits = np.zeros((blocks * rows, blocks * cols), dtype=np.uint8)
    for b in range(blocks):
        bits[b * rows : (b + 1) * rows, b * cols : (b + 1) * cols] = 1
    return ConnectivityMatrix(bits)


def check_contract(cs, original, cfg):
    """Threshold soundness, crossbar fit, and exact disjointness/coverage."""
    assert np.array_equal(cs.source.bits, original.bits)
    ClusterSet(original, cs.owner)  # every owned cell is a synapse, indices have no gaps
    for (rows, cols), n_cells in zip(cs.footprints(), cs.cell_counts()):
        assert len(rows) <= cfg.crossbar_rows and len(cols) <= cfg.crossbar_cols
        util = n_cells / cfg.crossbar_area
        assert util >= cfg.min_util_factor


class TestSplitOversized:
    def test_complete_block_splits_into_full_crossbars(self):
        # oracle: audit the children; a balanced partition of an all-ones
        # block yields full-utilization crossbar-sized pieces
        c = ConnectivityMatrix(np.ones((8, 8), dtype=np.uint8))
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4)
        children = split_oversized(c.bits, np.arange(8), np.arange(8), cfg)
        assert len(children) == 4
        claimed = np.zeros((8, 8), dtype=int)
        for rows, cols in children:
            assert len(rows) <= 4 and len(cols) <= 4
            assert c.bits[np.ix_(rows, cols)].sum() == 16  # a full 4x4 crossbar
            claimed[np.ix_(rows, cols)] += 1
        assert (claimed == 1).all()  # footprints partition the parent

    def test_tall_cluster_children_dimensions(self):
        rng = np.random.default_rng(2)
        bits = (rng.random((5, 3)) < 0.9).astype(np.uint8)
        bits[0, 0] = 1
        c = ConnectivityMatrix(bits)
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4)
        children = split_oversized(c.bits, np.arange(5), np.arange(3), cfg)
        for rows, cols in children:
            assert len(rows) <= 4 and len(cols) <= 3
        union_rows = set(i for rows, _ in children for i in rows.tolist())
        assert union_rows <= set(range(5))

    @pytest.mark.parametrize("rows, cols", [([], [0, 1]), ([0, 1], []), ([0, 1], [2, 3])])
    def test_one_sided_or_synapse_free_block_yields_nothing(self, rows, cols):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[2:, :2] = 1
        cfg = SizeClusterConfig(crossbar_rows=2, crossbar_cols=2)
        assert split_oversized(bits, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), cfg) == []

    def test_fitting_block_is_its_synapse_bearing_lines(self):
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[1, 4] = bits[3, 0] = bits[5, 4] = 1
        bits[2, 2] = 1  # outside the block
        cfg = SizeClusterConfig(crossbar_rows=3, crossbar_cols=2)
        children = split_oversized(bits, np.array([0, 1, 3, 4, 5]), np.array([0, 1, 3, 4, 5]), cfg)
        assert len(children) == 1
        rows, cols = children[0]
        assert rows.tolist() == [1, 3, 5] and cols.tolist() == [0, 4]


class TestSizeConstrainedCluster:
    def test_fitting_residual_accepted_whole_in_round_one(self):
        bits = np.zeros((20, 20), dtype=np.uint8)
        bits[np.ix_([1, 5, 9, 13], [2, 3, 7, 11])] = 1
        bits[5, 3] = 0  # not one complete block
        c = ConnectivityMatrix(bits)
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4)
        trace: list = []
        cs = size_constrained_cluster(c, cfg, seed=0, trace=trace)
        assert trace[0]["round"] == 1 and trace[0]["accepted"] == 1
        assert cs.n_clusters == 1
        assert np.array_equal(cs.owner == 0, bits == 1)

    def test_two_planted_blocks(self):
        c = block_diagonal(2, (4, 4))
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, base_util_factor=0.8)
        cs = size_constrained_cluster(c, cfg, seed=0)
        assert cs.n_clusters == 2
        assert cs.cell_counts().tolist() == [16, 16]
        assert cs.residual.nnz == 0
        check_contract(cs, c, cfg)
        groups = {(tuple(rows.tolist()), tuple(cols.tolist())) for rows, cols in cs.footprints()}
        assert groups == {
            ((0, 1, 2, 3), (0, 1, 2, 3)),
            ((4, 5, 6, 7), (4, 5, 6, 7)),
        }

    @pytest.mark.parametrize("seed", range(8))
    def test_complete_block_fills_crossbars_in_one_round(self, seed):
        # every layer is one complete block before its first prune
        c = ConnectivityMatrix(np.ones((128, 128), dtype=np.uint8))
        cfg = SizeClusterConfig()
        trace: list = []
        cs = size_constrained_cluster(c, cfg, seed=seed, trace=trace)
        assert cs.residual.nnz == 0
        assert cs.cell_counts().tolist() == [cfg.crossbar_area] * 64
        assert len(trace) == 1
        check_contract(cs, c, cfg)

    def test_all_zero_matrix(self):
        c = ConnectivityMatrix(np.zeros((6, 6), dtype=np.uint8))
        cs = size_constrained_cluster(c, SizeClusterConfig(), seed=0)
        assert cs.n_clusters == 0
        assert cs.residual.nnz == 0

    def test_sparse_random_mostly_residual(self):
        rng = np.random.default_rng(31)
        bits = (rng.random((32, 32)) < 0.3).astype(np.uint8)
        c = ConnectivityMatrix(bits)
        cfg = SizeClusterConfig(
            crossbar_rows=8, crossbar_cols=8, base_util_factor=0.95, min_util_factor=0.9
        )
        cs = size_constrained_cluster(c, cfg, seed=0)
        check_contract(cs, c, cfg)
        assert cs.residual.nnz > c.nnz / 2

    def test_residual_monotone_per_round(self):
        rng = np.random.default_rng(5)
        bits = (rng.random((24, 24)) < 0.5).astype(np.uint8)
        c = ConnectivityMatrix(bits)
        trace: list = []
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, min_util_factor=0.3)
        size_constrained_cluster(c, cfg, seed=3, trace=trace)
        assert trace
        for rec in trace:
            assert rec["residual_after"] <= rec["residual_before"]
        befores = [r["residual_before"] for r in trace]
        assert all(b <= a for a, b in zip(befores[:-1], befores[1:]))

    def test_deterministic(self):
        rng = np.random.default_rng(12)
        bits = (rng.random((20, 20)) < 0.4).astype(np.uint8)
        c = ConnectivityMatrix(bits)
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, min_util_factor=0.3)
        a = size_constrained_cluster(c, cfg, seed=9)
        b = size_constrained_cluster(c, cfg, seed=9)
        assert np.array_equal(a.residual.bits, b.residual.bits)
        assert np.array_equal(a.owner, b.owner)

    def test_random_configs_contract(self):
        # 20 random configs: crossbars in {4,8,16}^2, densities 0.1-0.9
        rng = np.random.default_rng(77)
        for trial in range(20):
            rows = int(rng.integers(8, 65))
            cols = int(rng.integers(8, 65))
            density = rng.uniform(0.1, 0.9)
            bits = (rng.random((rows, cols)) < density).astype(np.uint8)
            if not bits.any():
                bits[0, 0] = 1
            c = ConnectivityMatrix(bits)
            cfg = SizeClusterConfig(
                crossbar_rows=int(rng.choice([4, 8, 16])),
                crossbar_cols=int(rng.choice([4, 8, 16])),
                base_util_factor=float(rng.uniform(0.5, 0.9)),
                min_util_factor=float(rng.uniform(0.2, 0.5)),
                max_rounds=12,
            )
            trace: list = []
            cs = size_constrained_cluster(c, cfg, seed=trial, trace=trace)
            check_contract(cs, c, cfg)
            for rec in trace:
                assert rec["residual_after"] <= rec["residual_before"]

    @pytest.mark.parametrize("cb_rows", [2, 4, 8, 16, 32])
    @pytest.mark.parametrize("cb_cols", [2, 4, 8, 16, 32])
    def test_any_crossbar_size_yields_valid_set(self, cb_rows, cb_cols):
        rng = np.random.default_rng(cb_rows * 100 + cb_cols)
        bits = (rng.random((24, 18)) < 0.4).astype(np.uint8)
        c = ConnectivityMatrix(bits)
        cfg = SizeClusterConfig(
            crossbar_rows=cb_rows, crossbar_cols=cb_cols, max_rounds=8, min_util_factor=0.2
        )
        cs = size_constrained_cluster(c, cfg, seed=1)
        check_contract(cs, c, cfg)
