"""Integrated-loop tests: branch guards, scoring, cluster pruning, invariants."""

import numpy as np
import pytest

from xbarnet import transform
from xbarnet.datasets import BlobSpec, PlantedSpec, gen_blobs, gen_planted
from xbarnet.mlp import TrainConfig, init_model, train_epoch
from xbarnet.sizecluster import SizeClusterConfig, size_constrained_cluster
from xbarnet.transform import (
    TransformConfig,
    TransformState,
    cluster_prune,
    cluster_score,
    final_cluster_sets,
    offline_cluster,
    run,
    transform_epoch,
    unclustered_fraction,
)
from xbarnet.util import STREAM_CLUSTER, seed_for


def small_config(**kwargs):
    defaults = dict(
        scic=SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, min_util_factor=0.3, max_rounds=6),
        train=TrainConfig(learning_rate=0.05, batch_size=16),
        max_epochs=4,
    )
    defaults.update(kwargs)
    return TransformConfig(**defaults)


def tiny_data(seed=0, n=200, dim=6, classes=3):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, dim))
    y = rng.integers(0, classes, size=n)
    return x, y


def add_cluster(state, layer_id, rows, cols):
    """Give a new cluster the currently-live synapses of the block; returns its index."""
    block = np.ix_(rows, cols)
    live = state.model.layers[layer_id].weights[block] != 0
    owner = state.owner[layer_id]
    index = int(owner.max()) + 1
    owner[block] = np.where(live, index, owner[block])
    return index


class TestBranchLogic:
    def test_fully_clustered_triggers_one_prune_and_no_clustering(self):
        x, y = tiny_data()
        cfg = small_config()
        state = TransformState.fresh([6, 8, 3], seed=0)
        # cover every live synapse of every layer with synthetic clusters
        for layer_id, layer in enumerate(state.model.layers):
            m, n = layer.weights.shape
            for r0 in range(0, m, 4):
                for c0 in range(0, n, 4):
                    rows = list(range(r0, min(r0 + 4, m)))
                    cols = list(range(c0, min(c0 + 4, n)))
                    add_cluster(state, layer_id, rows, cols)
        assert unclustered_fraction(state) == 0.0
        n_before = state.n_clusters()
        record = transform_epoch(state, x, y, cfg)
        assert record["phase"] == "cluster_pruning"
        assert record["n_clusters_pruned"] == 1
        assert state.n_clusters() == n_before - 1
        final_cluster_sets(state)

    def test_worse_error_freezes_maps(self):
        x, y = tiny_data()
        cfg = small_config()
        state = TransformState.fresh([6, 8, 3], seed=0)
        state.log.append({"train_loss": -1.0})  # any loss counts as worse
        live_before = [layer.weights != 0 for layer in state.model.layers]
        owner_before = [o.copy() for o in state.owner]
        record = transform_epoch(state, x, y, cfg)
        assert not record["improved"]
        assert record["epoch"] == 2  # the epoch counts the log's records
        assert state.log[-1] is record
        assert record["n_zeroed_unprotected"] == 0
        for layer, before in zip(state.model.layers, live_before):
            assert np.array_equal(layer.weights != 0, before)
        for a, b in zip(state.owner, owner_before):
            assert np.array_equal(a, b)
        assert state.n_clusters() == 0

    @pytest.mark.parametrize("loss, improved", [(0.5, True), (float("nan"), False)], ids=["finite", "nan"])
    def test_first_epoch_improves_unless_its_loss_is_nan(self, monkeypatch, loss, improved):
        x, y = tiny_data()
        monkeypatch.setattr(transform, "train_epoch", lambda *args: loss)
        state = TransformState.fresh([6, 8, 3], seed=0)
        record = transform_epoch(state, x, y, small_config())
        assert record["improved"] is improved
        assert (state.n_clusters() > 0) is improved  # only an improving epoch clusters
        assert state.log == [record]

    def test_no_cluster_prune_before_threshold(self):
        x, y = tiny_data()
        cfg = small_config(max_epochs=3)
        state = TransformState.fresh([6, 8, 3], seed=0)
        for _ in range(3):
            record = transform_epoch(state, x, y, cfg)
            if record["phase"] == "cluster_pruning":
                break
            assert record["n_clusters_pruned"] == 0
        final_cluster_sets(state)


class TestSeed:
    def test_one_seed_drives_init_shuffle_and_clustering(self, monkeypatch):
        x, y = tiny_data()
        cfg = small_config(max_epochs=1)
        cluster_seeds = []

        def recording_cluster(bits, scic, seed, **kwargs):
            cluster_seeds.append(seed)
            return size_constrained_cluster(bits, scic, seed, **kwargs)

        # a dense layer clusters alike under any seed, so the clustering seeds are read off the calls
        monkeypatch.setattr(transform, "size_constrained_cluster", recording_cluster)
        losses = []
        for seed in (0, 1):
            cluster_seeds.clear()
            state = TransformState.fresh([6, 8, 3], seed)
            record = transform_epoch(state, x, y, cfg)
            ran = run(cfg, [6, 8, 3], x, y, x, y, seed)
            assert ran.seed == state.seed == seed
            assert ran.n_clusters() > 0
            first = {k: v for k, v in ran.log[0].items() if k not in ("val_acc", "val_loss")}
            assert repr(record) == repr(first)
            for a, b in zip(state.model.layers, ran.model.layers):
                assert (a.weights.tobytes(), a.bias.tobytes()) == (b.weights.tobytes(), b.bias.tobytes())
            assert [o.tobytes() for o in state.owner] == [o.tobytes() for o in ran.owner]
            # reference: one plain epoch from the same init and shuffle, and every clustering seed
            assert record["train_loss"] == train_epoch(init_model([6, 8, 3], seed), x, y, cfg.train, 1, seed)
            assert cluster_seeds == 2 * [seed_for(seed, STREAM_CLUSTER, 1, layer_id) for layer_id in (0, 1)]
            losses.append(record["train_loss"])
        assert losses[0] != losses[1]


class TestClusterScore:
    def build_state(self, b_live_rows=4):
        """Cluster a owns a full 4x4 block; cluster b owns ``b_live_rows`` rows of one."""
        state = TransformState.fresh([8, 8, 3], seed=1)
        w = state.model.layers[0].weights
        w[:4, :4] = 0.5
        w[4:8, 4:8] = 0.5
        w[4 + b_live_rows : 8, 4:8] = 0.0
        add_cluster(state, 0, range(4), range(4))
        add_cluster(state, 0, range(4, 8), range(4, 8))
        return state

    def test_alpha_one_is_utilization(self):
        state = self.build_state(b_live_rows=3)
        cfg = small_config(cluster_prune_alpha=1.0)
        assert cluster_score(state, cfg, 0, 0) == 1.0
        assert cluster_score(state, cfg, 0, 1) == 12 / 16  # owned cells over the 4x4 crossbar

    def test_alpha_zero_best_cluster_scores_one(self):
        state = self.build_state()
        w = state.model.layers[0].weights
        w[state.owner[0] == 0] = 2.0  # cluster a holds the layer's largest weights
        cfg = small_config(cluster_prune_alpha=0.0)
        assert cluster_score(state, cfg, 0, 0) == pytest.approx(1.0)
        assert cluster_score(state, cfg, 0, 1) < 1.0

    def test_equal_magnitude_difference_is_alpha_scaled(self):
        state = self.build_state(b_live_rows=2)
        cfg = small_config(cluster_prune_alpha=0.5)
        sa = cluster_score(state, cfg, 0, 0)
        sb = cluster_score(state, cfg, 0, 1)
        assert sa - sb == pytest.approx(0.5 * (1.0 - 0.5))

    def test_matches_per_cluster_reference(self):
        # reference: each cluster's mean |w| over np.nonzero(owner == k), scored
        # one cluster at a time; the grouped computation must agree exactly
        x, y = tiny_data(n=200)
        state = run(small_config(max_epochs=3), [6, 8, 3], x, y, x, y, 0)
        assert state.n_clusters() > 1
        cfg = small_config(cluster_prune_alpha=0.3)
        for layer_id, owner in enumerate(state.owner):
            absw = np.abs(state.model.layers[layer_id].weights)
            cells = [np.nonzero(owner == k) for k in range(owner.max() + 1)]
            means = [absw[c].mean() for c in cells]
            for k, c in enumerate(cells):
                want = 0.3 * (len(c[0]) / cfg.scic.crossbar_area) + 0.7 * (means[k] / max(means))
                assert cluster_score(state, cfg, layer_id, k) == want

    def test_empty_cluster_errors(self):
        state = self.build_state()
        state.owner[0][state.owner[0] == 0] = -1
        cfg = small_config()
        with pytest.raises(ValueError, match="covers no synapses"):
            cluster_score(state, cfg, 0, 0)


class TestClusterPrune:
    def test_single_cluster_removed_and_zeroed(self):
        state = TransformState.fresh([8, 8, 3], seed=2)
        state.model.layers[0].weights[:4, :4] = 0.7
        add_cluster(state, 0, range(4), range(4))
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
        add_cluster(state, 0, range(4), range(4))
        add_cluster(state, 0, range(4, 8), range(4, 8))
        cfg = small_config(cluster_prune_alpha=1.0)
        cluster_prune(state, cfg)
        assert state.n_clusters() == 1
        assert (state.owner[0][4:8, 4:8] == 0).all()  # the survivor moved down to index 0
        assert (state.owner[0][:4, :4] == -1).all()

    def test_cut_cluster_stays_dead_at_prune_quality_zero(self):
        x, y = tiny_data()
        cfg = small_config(train=TrainConfig(learning_rate=0.05, batch_size=16, prune_quality=0.0))
        state = TransformState.fresh([6, 8, 3], seed=0)
        add_cluster(state, 0, range(4), range(4))
        assert state.model.n_live() == 72
        cluster_prune(state, cfg)
        assert state.model.n_live() == 56
        for _ in range(2):
            transform_epoch(state, x, y, cfg)
            final_cluster_sets(state)
            assert not state.model.layers[0].weights[:4, :4].any()
        assert state.model.n_live() <= 56

    def test_empty_set_noop(self):
        state = TransformState.fresh([6, 4, 3], seed=4)
        assert cluster_prune(state, small_config()) == 0

    def test_ties_cut_the_lowest_layer_then_index(self):
        state = TransformState.fresh([8, 8, 8], seed=5)
        for layer_id in (0, 1):
            state.model.layers[layer_id].weights[:] = 0.5
            add_cluster(state, layer_id, range(4), range(4))
            add_cluster(state, layer_id, range(4, 8), range(4, 8))
        cfg = small_config()
        assert cluster_score(state, cfg, 0, 0) == cluster_score(state, cfg, 1, 1)  # four equal scores
        assert cluster_prune(state, cfg) == 1
        assert state.n_clusters() == 3
        assert (state.owner[0][:4, :4] == -1).all() and (state.owner[0][4:, 4:] == 0).all()
        assert not state.model.layers[0].weights[:4, :4].any()
        assert (state.owner[1][:4, :4] == 0).all() and (state.owner[1][4:, 4:] == 1).all()
        assert cluster_prune(state, cfg) == 1  # layer 0's last cluster, now at index 0
        assert (state.owner[0] == -1).all() and state.owner[1].max() == 1


class TestRunLoop:
    def test_zero_epochs_returns_initial(self):
        x, y = tiny_data()
        cfg = small_config(max_epochs=0)
        state = run(cfg, [6, 8, 3], x, y, x, y, 0)
        assert state.log == []
        initial = TransformState.fresh([6, 8, 3], seed=0)
        for layer, fresh in zip(state.model.layers, initial.model.layers):
            assert layer.weights.tobytes() == fresh.weights.tobytes()

    def test_mask_union_and_support_monotone(self):
        data, _, _ = gen_planted(PlantedSpec(in_dim=16, hidden=16, block=4, n_train=400, n_test=100), seed=5)
        cfg = TransformConfig(
            scic=SizeClusterConfig(crossbar_rows=4, crossbar_cols=4, min_util_factor=0.3, max_rounds=5),
            train=TrainConfig(learning_rate=0.1, batch_size=32),
            max_epochs=6,
        )
        state = TransformState.fresh([16, 16, 2], seed=5)
        live_counts = [state.model.n_live()]
        for _ in range(cfg.max_epochs):
            transform_epoch(state, data.x_train, data.y_train, cfg)
            final_cluster_sets(state)
            live_counts.append(state.model.n_live())
        assert all(b <= a for a, b in zip(live_counts[:-1], live_counts[1:]))

    def test_prune_only_control_is_subset(self):
        x, y = tiny_data(n=300)
        cfg = small_config(max_epochs=3)
        state = run(cfg, [6, 8, 3], x, y, x, y, 0, enable_prune=True, enable_cluster=False)
        assert state.n_clusters() == 0
        assert all(r["n_clusters"] == 0 for r in state.log)
        assert state.model.sparsity() > 0

    def test_original_mode_keeps_dense(self):
        x, y = tiny_data(n=300)
        cfg = small_config(max_epochs=3)
        state = run(cfg, [6, 8, 3], x, y, x, y, 0, enable_prune=False, enable_cluster=False)
        assert state.model.sparsity() == 0.0
        assert all(r["sparsity"] == 0.0 for r in state.log)

    def test_log_schema(self):
        x, y = tiny_data(n=200)
        cfg = small_config(max_epochs=2)
        log = run(cfg, [6, 8, 3], x, y, x, y, 0).log
        wanted = {
            "epoch", "train_loss", "val_acc", "sparsity",
            "unclustered_frac", "n_clusters", "mean_util", "phase",
        }
        for record in log:
            assert wanted <= set(record)

    def test_log_counts_clustering_rounds_per_layer(self):
        x, y = tiny_data(n=200)
        cfg = small_config(max_epochs=3)
        log = run(cfg, [6, 8, 3], x, y, x, y, 0).log
        first = log[0]
        assert len(first["scic_rounds"]) == len(first["scic_accepted"]) == 2
        assert min(first["scic_rounds"]) > 0  # every layer is clustered in epoch 1
        assert sum(first["scic_accepted"]) == first["n_clusters"]
        for record in log:
            if record["phase"] == "cluster_pruning" or not record["improved"]:
                assert record["scic_rounds"] == record["scic_accepted"] == [0, 0]
        # only a loop that clusters logs the trace
        prune_only = run(cfg, [6, 8, 3], x, y, x, y, 0, enable_cluster=False).log
        assert not any("scic_rounds" in r or "scic_accepted" in r for r in prune_only)

    def test_mean_util_is_mean_cell_count_over_area(self):
        x, y = tiny_data(n=200)
        cfg = small_config(max_epochs=3)
        state = run(cfg, [6, 8, 3], x, y, x, y, 0)
        counts = np.concatenate([cs.cell_counts() for cs in final_cluster_sets(state)])
        assert len(counts) > 1
        assert state.log[-1]["mean_util"] == float(np.mean(counts / cfg.scic.crossbar_area))


class TestConvergence:
    @staticmethod
    def log(acc, frac):
        return [{"val_acc": a, "unclustered_frac": f} for a, f in zip(acc, frac)]

    @pytest.mark.parametrize("switches", [(False, False), (True, False), (True, True)],
                             ids=["original", "prune", "transform"])
    def test_run_stops_after_five_stable_epochs(self, switches):
        data = gen_blobs(BlobSpec(n_classes=2, dim=4, n_train=64, n_test=32), 0)
        state = run(TransformConfig(max_epochs=20), [4, 4, 2], data.x_train, data.y_train,
                    data.x_test, data.y_test, 0, *switches)
        assert len(state.log) == 11
        assert transform._converged(state.log)
        assert not any(transform._converged(state.log[:k]) for k in range(len(state.log)))

    @pytest.mark.parametrize("n", range(6))
    def test_fewer_than_six_records_never_stop(self, n):
        assert not transform._converged(self.log([0.5] * n, [0.2] * n))

    def test_six_equal_records_stop(self):
        assert transform._converged(self.log([0.5] * 6, [0.2] * 6))
        assert transform._converged(self.log([0.0] + [0.5] * 6, [1.0] + [0.2] * 6))  # only the last six count

    @pytest.mark.parametrize("at", range(6))
    def test_an_accuracy_step_of_one_thousandth_keeps_going(self, at):
        acc = [0.0] * 6
        acc[at:] = [0.001] * (6 - at)
        assert transform._converged(self.log(acc, [0.2] * 6)) is (at == 0)
        assert transform._converged(self.log([0.0009 * (i >= at) for i in range(6)], [0.2] * 6))

    @pytest.mark.parametrize("at", range(6))
    def test_an_unclustered_fraction_step_of_one_hundredth_keeps_going(self, at):
        frac = [0.0] * 6
        frac[at:] = [0.01] * (6 - at)
        assert transform._converged(self.log([0.5] * 6, frac)) is (at == 0)
        assert transform._converged(self.log([0.5] * 6, [0.009 * (i >= at) for i in range(6)]))


class TestPlantedRecovery:
    def test_blocks_recovered_quickly(self):
        spec = PlantedSpec(in_dim=32, hidden=32, block=8, noise_density=0.03, n_train=1500, n_test=300)
        data, _, info = gen_planted(spec, seed=7)
        cfg = TransformConfig(
            scic=SizeClusterConfig(
                crossbar_rows=8, crossbar_cols=8, base_util_factor=0.85,
                min_util_factor=0.7, decay_rate=0.95, max_rounds=8,
            ),
            train=TrainConfig(learning_rate=0.25, batch_size=32, prune_quality=0.6),
            max_epochs=10,
        )
        state = run(cfg, [32, 32, 2], data.x_train, data.y_train, data.x_test, data.y_test, 7)
        final = state.log[-1]
        assert final["unclustered_frac"] < 0.35
        assert state.n_clusters() >= 3
        final_cluster_sets(state)


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
        state = run(cfg, [6, 8, 3], x, y, x, y, 0)
        sets = final_cluster_sets(state)
        live = state.model.n_live()
        covered = sum(int((cs.owner >= 0).sum()) for cs in sets)
        residual = sum(cs.residual.nnz for cs in sets)
        assert covered + residual == live

    def test_final_cluster_sets_reject_an_owned_dead_weight(self):
        state = TransformState.fresh([6, 8, 3], seed=0)
        add_cluster(state, 0, range(4), range(4))
        state.model.layers[0].weights[1, 1] = 0.0  # owned by cluster 0, no longer a synapse
        with pytest.raises(ValueError, match="a covered cell is not a synapse"):
            final_cluster_sets(state)
