"""Integrated-loop tests: branch guards, scoring, cluster pruning, invariants."""

import numpy as np
import pytest

from xbarnet.connectivity import Cluster
from xbarnet.datasets import PlantedSpec, gen_planted
from xbarnet.mlp import TrainConfig, evaluate
from xbarnet.sizecluster import SizeClusterConfig
from xbarnet.transform import (
    TransformConfig,
    TransformState,
    audit_state,
    cluster_prune,
    cluster_score,
    final_cluster_sets,
    offline_cluster,
    run,
    transform_epoch,
    unclustered_fraction,
)


def small_config(**kwargs):
    defaults = dict(
        scic=SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, min_util_factor=0.3, max_rounds=6),
        train=TrainConfig(learning_rate=0.05, batch_size=16, seed=0),
        max_epochs=4,
        seed=0,
    )
    defaults.update(kwargs)
    return TransformConfig(**defaults)


def tiny_data(seed=0, n=200, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n)
    return x, y


def add_record(state, layer_id, rows, cols):
    """Install a cluster over the currently-live synapses of the block."""
    block = np.ix_(rows, cols)
    live = state.model.layers[layer_id].weights[block] != 0
    owner = state.owner[layer_id]
    owner[block] = np.where(live, len(state.records[layer_id]), owner[block])
    cluster = Cluster(tuple(rows), tuple(cols), layer_id)
    state.records[layer_id].append(cluster)
    return cluster


class TestBranchLogic:
    def test_fully_clustered_triggers_one_prune_and_no_clustering(self):
        x, y = tiny_data()
        cfg = small_config()
        state = TransformState.fresh([6, 8, 3], seed=0)
        # cover every live synapse of every layer with synthetic records
        for layer_id, layer in enumerate(state.model.layers):
            m, n = layer.weights.shape
            for r0 in range(0, m, 4):
                for c0 in range(0, n, 4):
                    rows = list(range(r0, min(r0 + 4, m)))
                    cols = list(range(c0, min(c0 + 4, n)))
                    add_record(state, layer_id, rows, cols)
        assert unclustered_fraction(state) == 0.0
        n_before = state.n_clusters()
        record = transform_epoch(state, x, y, cfg)
        assert record["phase"] == "cluster_pruning"
        assert record["n_clusters_pruned"] == 1
        assert state.n_clusters() == n_before - 1
        audit_state(state)

    def test_worse_error_freezes_maps(self):
        x, y = tiny_data()
        cfg = small_config()
        state = TransformState.fresh([6, 8, 3], seed=0)
        state.training_error_previous = -1.0  # any loss counts as worse
        prune_before = [p.copy() for p in state.prune_maps]
        owner_before = [o.copy() for o in state.owner]
        record = transform_epoch(state, x, y, cfg)
        assert not record["improved"]
        for a, b in zip(state.prune_maps, prune_before):
            assert np.array_equal(a, b)
        for a, b in zip(state.owner, owner_before):
            assert np.array_equal(a, b)
        assert state.n_clusters() == 0

    def test_no_cluster_prune_before_threshold(self):
        x, y = tiny_data()
        cfg = small_config(max_epochs=3)
        state = TransformState.fresh([6, 8, 3], seed=0)
        for _ in range(3):
            record = transform_epoch(state, x, y, cfg)
            if record["phase"] == "cluster_pruning":
                break
            assert record["n_clusters_pruned"] == 0
        audit_state(state)


class TestClusterScore:
    def build_state(self, b_live_rows=4):
        """Cluster a owns a full 4x4 block; cluster b owns ``b_live_rows`` rows of one."""
        state = TransformState.fresh([8, 8, 3], seed=1)
        w = state.model.layers[0].weights
        w[:4, :4] = 0.5
        w[4:8, 4:8] = 0.5
        w[4 + b_live_rows : 8, 4:8] = 0.0
        rec_a = add_record(state, 0, range(4), range(4))
        rec_b = add_record(state, 0, range(4, 8), range(4, 8))
        return state, rec_a, rec_b

    def test_alpha_one_is_utilization(self):
        state, _, _ = self.build_state(b_live_rows=3)
        cfg = small_config(cluster_prune_alpha=1.0)
        assert cluster_score(state, cfg, 0, 0) == 1.0
        assert cluster_score(state, cfg, 0, 1) == 12 / 16  # owned cells over the 4x4 crossbar

    def test_alpha_zero_best_cluster_scores_one(self):
        state, rec_a, rec_b = self.build_state()
        w = state.model.layers[0].weights
        w[state.owner[0] == 0] = 2.0  # cluster a holds the layer's largest weights
        cfg = small_config(cluster_prune_alpha=0.0)
        assert cluster_score(state, cfg, 0, 0) == pytest.approx(1.0)
        assert cluster_score(state, cfg, 0, 1) < 1.0

    def test_equal_magnitude_difference_is_alpha_scaled(self):
        state, _, _ = self.build_state(b_live_rows=2)
        cfg = small_config(cluster_prune_alpha=0.5)
        sa = cluster_score(state, cfg, 0, 0)
        sb = cluster_score(state, cfg, 0, 1)
        assert sa - sb == pytest.approx(0.5 * (1.0 - 0.5))

    def test_matches_per_cluster_reference(self):
        # reference: each cluster's mean |w| over np.nonzero(owner == k), scored
        # one cluster at a time; the grouped computation must agree exactly
        x, y = tiny_data(n=200)
        state = run(small_config(max_epochs=3), [6, 8, 3], x, y, x, y).state
        assert state.n_clusters() > 1
        cfg = small_config(cluster_prune_alpha=0.3)
        for layer_id, records in enumerate(state.records):
            absw = np.abs(state.model.layers[layer_id].weights)
            cells = [np.nonzero(state.owner[layer_id] == k) for k in range(len(records))]
            means = [absw[c].mean() for c in cells]
            for k, c in enumerate(cells):
                want = 0.3 * (len(c[0]) / cfg.scic.crossbar_area) + 0.7 * (means[k] / max(means))
                assert cluster_score(state, cfg, layer_id, k) == want

    def test_empty_cluster_errors(self):
        state, _, _ = self.build_state()
        state.owner[0][state.owner[0] == 0] = -1
        cfg = small_config()
        with pytest.raises(ValueError, match="covers no synapses"):
            cluster_score(state, cfg, 0, 0)


class TestClusterPrune:
    def test_single_cluster_removed_and_zeroed(self):
        state = TransformState.fresh([8, 8, 3], seed=2)
        state.model.layers[0].weights[:4, :4] = 0.7
        add_record(state, 0, range(4), range(4))
        cfg = small_config()
        removed = cluster_prune(state, cfg)
        assert removed == 1
        assert state.n_clusters() == 0
        assert not state.model.layers[0].weights[:4, :4].any()
        assert (state.owner[0] == -1).all()

    def test_lowest_score_pruned_first(self):
        state = TransformState.fresh([8, 8, 3], seed=3)
        w = state.model.layers[0].weights
        w[:4, :4] = 0.5
        w[1:4, :4] = 0.0  # the first cluster owns 4 cells, the second 16
        w[4:8, 4:8] = 0.5
        add_record(state, 0, range(4), range(4))
        rec_high = add_record(state, 0, range(4, 8), range(4, 8))
        cfg = small_config(cluster_prune_alpha=1.0)
        cluster_prune(state, cfg)
        assert state.records[0] == [rec_high]
        assert (state.owner[0][4:8, 4:8] == 0).all()  # the survivor moved down to index 0
        assert (state.owner[0][:4, :4] == -1).all()

    def test_empty_set_noop(self):
        state = TransformState.fresh([6, 4, 3], seed=4)
        assert cluster_prune(state, small_config()) == 0


class TestRunLoop:
    def test_zero_epochs_returns_initial(self):
        x, y = tiny_data()
        cfg = small_config(max_epochs=0)
        result = run(cfg, [6, 8, 3], x, y, x, y)
        assert result.log == []
        assert result.state.epoch == 0

    def test_mask_union_and_support_monotone(self):
        data, _, _ = gen_planted(PlantedSpec(in_dim=16, hidden=16, block=4, n_train=400, n_test=100), seed=5)
        cfg = TransformConfig(
            scic=SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, min_util_factor=0.3, max_rounds=5),
            train=TrainConfig(learning_rate=0.1, batch_size=32, seed=5),
            max_epochs=6,
            seed=5,
        )
        state = TransformState.fresh([16, 16, 2], seed=5)
        live_counts = [state.model.n_live()]
        for _ in range(cfg.max_epochs):
            transform_epoch(state, data.x_train, data.y_train, cfg)
            audit_state(state)
            live_counts.append(state.model.n_live())
        assert all(b <= a for a, b in zip(live_counts[:-1], live_counts[1:]))

    def test_prune_only_control_is_subset(self):
        x, y = tiny_data(n=300)
        cfg = small_config(max_epochs=3)
        result = run(cfg, [6, 8, 3], x, y, x, y, enable_prune=True, enable_cluster=False)
        assert result.state.n_clusters() == 0
        assert all(r["n_clusters"] == 0 for r in result.log)
        assert result.model.sparsity() > 0

    def test_original_mode_keeps_dense(self):
        x, y = tiny_data(n=300)
        cfg = small_config(max_epochs=3)
        result = run(cfg, [6, 8, 3], x, y, x, y, enable_prune=False, enable_cluster=False)
        assert result.model.sparsity() == 0.0
        assert all(r["sparsity"] == 0.0 for r in result.log)

    def test_log_schema(self):
        x, y = tiny_data(n=200)
        cfg = small_config(max_epochs=2)
        result = run(cfg, [6, 8, 3], x, y, x, y)
        wanted = {
            "epoch", "train_loss", "val_acc", "sparsity",
            "unclustered_frac", "n_clusters", "mean_util", "phase",
        }
        for record in result.log:
            assert wanted <= set(record)

    def test_mean_util_is_mean_cell_count_over_area(self):
        x, y = tiny_data(n=200)
        cfg = small_config(max_epochs=3)
        result = run(cfg, [6, 8, 3], x, y, x, y)
        counts = np.concatenate([cs.cell_counts() for cs in final_cluster_sets(result.state)])
        assert len(counts) > 1
        assert result.log[-1]["mean_util"] == float(np.mean(counts / cfg.scic.crossbar_area))


class TestPlantedRecovery:
    def test_blocks_recovered_quickly(self):
        spec = PlantedSpec(in_dim=32, hidden=32, block=8, noise_density=0.03, n_train=1500, n_test=300)
        data, _, info = gen_planted(spec, seed=7)
        cfg = TransformConfig(
            scic=SizeClusterConfig(
                crossbar_rows=8, crossbar_cols=8, base_util_factor=0.85,
                min_util_factor=0.7, decay_rate=0.95, max_rounds=8,
            ),
            train=TrainConfig(learning_rate=0.25, batch_size=32, seed=7, prune_quality=0.6),
            max_epochs=10,
            seed=7,
        )
        result = run(cfg, [32, 32, 2], x_train := data.x_train, data.y_train, data.x_test, data.y_test)
        final = result.log[-1]
        assert final["unclustered_frac"] < 0.35
        assert result.state.n_clusters() >= 3
        audit_state(result.state)


class TestOfflineCluster:
    def test_zero_model_gives_empty_sets(self):
        state = TransformState.fresh([8, 8, 2], seed=0)
        for layer in state.model.layers:
            layer.weights[:] = 0
        sets = offline_cluster(state.model, SizeClusterConfig(crossbar_rows=4, crossbar_cols=4), seed=0)
        assert all(cs.n_clusters == 0 for cs in sets)
        assert all(cs.residual.nnz == 0 for cs in sets)

    def test_planted_blocks_found_posthoc(self):
        state = TransformState.fresh([16, 16, 2], seed=1)
        w = state.model.layers[0].weights
        w[:] = 0
        for b in range(4):
            w[b * 4 : (b + 1) * 4, b * 4 : (b + 1) * 4] = 1.0
        sets = offline_cluster(
            state.model, SizeClusterConfig(crossbar_rows=4, crossbar_cols=4), seed=1
        )
        assert sets[0].n_clusters == 4
        assert sets[0].residual.nnz == 0

    def test_final_cluster_sets_consistent(self):
        x, y = tiny_data(n=200)
        cfg = small_config(max_epochs=3)
        result = run(cfg, [6, 8, 3], x, y, x, y)
        sets = final_cluster_sets(result.state)
        live = result.model.n_live()
        covered = sum(int((cs.owner >= 0).sum()) for cs in sets)
        residual = sum(cs.residual.nnz for cs in sets)
        assert covered + residual == live
