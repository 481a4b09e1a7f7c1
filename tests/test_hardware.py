"""Mapping and cost-model tests: tiling, energy decomposition, artifact documents."""

import json
import tracemalloc

import numpy as np
import pytest

from xbarnet.connectivity import InputFormatError
from xbarnet.hardware import (
    CMOS_BITS_PER_WEIGHT,
    CMOS_LEAK_PER_BIT_J,
    CMOS_SYNC_PER_CLUSTER_J,
    TechConfig,
    cmos_energy,
    energy_document,
    grid_tiles,
    map_to_mcas,
    mapping_from_json,
    mca_energy,
    tile_counts,
)


def full_cluster_set(shape, blocks, residual_bits=None):
    """Helper: clusters over all-ones blocks plus an explicit residual; (owner matrix, weights)."""
    weights = residual_bits.astype(float) if residual_bits is not None else np.zeros(shape)
    owner = np.full(shape, -1)
    for k, (rows, cols) in enumerate(blocks):
        weights[np.ix_(rows, cols)] = 1.0
        owner[np.ix_(rows, cols)] = k
    return owner, weights


def no_clusters(weights):
    """Helper: an owner matrix shaped like ``weights`` that owns no cell."""
    return np.full(np.shape(weights), -1, dtype=np.int32)


def map_unclustered(weights, tech):
    """Helper: the mapping of one layer of ``weights`` without clusters."""
    return map_to_mcas([no_clusters(weights)], [weights], tech)


class TestMapToMcas:
    def test_two_full_clusters(self):
        tech = TechConfig(crossbar_rows=4, crossbar_cols=4)
        cs, w = full_cluster_set(
            (8, 8), [(range(4), range(4)), (range(4, 8), range(4, 8))]
        )
        mapping = map_to_mcas([cs], [w], tech)
        assert mapping["num_mca"] == 2
        layer = mapping["layers"][0]
        assert layer["histogram"][9] == 2
        assert sum(layer["histogram"]) == 2
        assert layer["unclustered_fraction"] == 0.0

    def test_grid_tiling_of_dense_residual(self):
        tech = TechConfig(crossbar_rows=4, crossbar_cols=4)
        layer = map_unclustered(np.ones((8, 8)), tech)["layers"][0]
        assert layer["residual_mca_count"] == 4
        assert layer["cluster_utils"] == []
        assert layer["residual_utils"] == [1.0] * 4

    def test_sparse_residual_utilization_near_density(self):
        # 70% sparsity on 32x32 tiled by 8x8 -> 16 tiles at ~0.3 mean utilization
        rng = np.random.default_rng(0)
        bits = (rng.random((32, 32)) < 0.3).astype(np.uint8)
        tech = TechConfig(crossbar_rows=8, crossbar_cols=8)
        layer = map_unclustered(bits, tech)["layers"][0]
        assert layer["residual_mca_count"] == 16
        assert abs(np.mean(layer["residual_utils"]) - 0.3) < 0.05

    def test_oversized_cluster_rejected(self):
        tech = TechConfig(crossbar_rows=2, crossbar_cols=2)
        cs, w = full_cluster_set((4, 4), [(range(4), range(4))])
        with pytest.raises(ValueError, match="exceeds crossbar"):
            map_to_mcas([cs], [w], tech)

    @pytest.mark.parametrize("shape", [(8, 7), (7, 8), (64, 1)], ids=["fewer_cols", "fewer_rows", "same_size"])
    def test_owner_shaped_unlike_the_weights_rejected(self, shape):
        cs, _ = full_cluster_set((8, 8), [(range(4), range(4))])
        message = rf"^layer 0: owner \(8, 8\) does not match weights \({shape[0]}, {shape[1]}\)$"
        with pytest.raises(ValueError, match=message):
            map_to_mcas([cs], [np.ones(shape)], TechConfig(crossbar_rows=4, crossbar_cols=4))

    def test_a_layer_without_weights_rejected(self):
        cs, w = full_cluster_set((8, 8), [(range(4), range(4))])
        with pytest.raises(ValueError, match="zip"):
            map_to_mcas([cs, cs], [w], TechConfig(crossbar_rows=4, crossbar_cols=4))

    def test_every_live_synapse_counted_once(self):
        rng = np.random.default_rng(3)
        bits = (rng.random((12, 12)) < 0.5).astype(np.uint8)
        bits[:4, :4] = 1
        owner = np.full(bits.shape, -1)
        owner[:4, :4] = 0
        tech = TechConfig(crossbar_rows=4, crossbar_cols=4)
        layer = map_to_mcas([owner], [bits * 0.5], tech)["layers"][0]
        mapped = sum(layer["cluster_active"]) + sum(layer["residual_active"])
        assert mapped == int(bits.sum())

    def test_grid_tiles_respects_partial_edges(self):
        bits = np.ones((5, 3), dtype=np.uint8)
        counts = grid_tiles(bits, 4, 4)
        assert sorted(counts) == [3, 12]

    @pytest.mark.parametrize("rows, cols", [(3, 5), (1, 13), (4, 4), (7, 13), (9, 20), (64, 64)],
                             ids=["smaller", "one_row", "partial_edges", "equal", "larger", "much_larger"])
    def test_grid_tiles_match_a_per_tile_count(self, rows, cols):
        bits = (np.random.default_rng(rows * cols).random((7, 13)) < 0.3).astype(np.uint8)
        bits[:3, :] = 0  # whole empty tiles, which do not count
        expected = [
            int(bits[r : r + rows, c : c + cols].sum())
            for r in range(0, 7, rows)
            for c in range(0, 13, cols)
        ]
        assert grid_tiles(bits, rows, cols) == [n for n in expected if n]
        # the table holds every tile, empty ones too, one row of it per band of rows
        table = tile_counts(bits, rows, cols)
        assert table.shape == (-(-7 // rows), -(-13 // cols)) and table.dtype == np.int64
        assert table.ravel().tolist() == expected

    def test_grid_tiles_allocate_no_crossbar_larger_than_the_matrix(self):
        bits = np.ones((8, 8), dtype=np.uint8)
        tracemalloc.start()
        try:
            counts = grid_tiles(bits, 4096, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert counts == [64]
        assert peak < 2**20


@pytest.mark.parametrize("side", ["crossbar_rows", "crossbar_cols"])
def test_crossbar_sides_below_2_63_accepted_and_from_2_63_rejected(side):
    """2**63 is the bound mapping_from_json puts on every count; below it the grid tiler still counts in int64."""
    tech = TechConfig(**{side: 2**63 - 1})
    assert map_unclustered(np.ones((3, 5)), tech)["layers"][0]["residual_active"] == [15]
    with pytest.raises(ValueError, match="^crossbar dimensions must be below 2\\*\\*63$"):
        TechConfig(**{side: 2**63})


class TestMcaEnergy:
    def test_zero_mcas(self):
        tech = TechConfig()
        mapping = map_unclustered(np.zeros((4, 4)), tech)
        energy = mca_energy(mapping, tech)
        assert energy["total_j"] == 0.0

    def test_arithmetic_example(self):
        # 2 crossbars with 10 active cross-points each, e_xpt=1, e_periph=5,
        # one eval: total 30 = 20 + 10
        tech = TechConfig(
            crossbar_rows=4,
            crossbar_cols=4,
            mca_energy_per_active_crosspoint_j=1.0,
            peripheral_energy_per_mca_eval_j=5.0,
        )
        ten = np.zeros(16, dtype=np.uint8)
        ten[:10] = 1
        bits = np.zeros((8, 8), dtype=np.uint8)
        bits[:4, :4] = ten.reshape(4, 4)
        bits[4:8, 4:8] = ten.reshape(4, 4)
        mapping = map_unclustered(bits, tech)
        assert mapping["num_mca"] == 2
        assert mapping["layers"][0]["residual_active"] == [10, 10]
        energy = mca_energy(mapping, tech)
        assert energy["mca_component_j"] == 20.0
        assert energy["peripheral_component_j"] == 10.0
        assert energy["total_j"] == 30.0

    def test_decomposition_exact_and_peripheral_linear(self):
        rng = np.random.default_rng(1)
        tech = TechConfig(crossbar_rows=4, crossbar_cols=4)
        bits_small = (rng.random((8, 8)) < 0.6).astype(np.uint8)
        bits_big = (rng.random((16, 16)) < 0.6).astype(np.uint8)
        mappings = [map_unclustered(b, tech) for b in (bits_small, bits_big)]
        energies = [mca_energy(m, tech) for m in mappings]
        for e in energies:
            assert e["mca_component_j"] + e["peripheral_component_j"] == e["total_j"]
        ratio = energies[1]["peripheral_component_j"] / energies[0]["peripheral_component_j"]
        assert ratio == pytest.approx(mappings[1]["num_mca"] / mappings[0]["num_mca"])

    def test_layers_add(self):
        # each layer is evaluated once per inference, so a network's energy is the sum over its layers
        rng = np.random.default_rng(2)
        tech = TechConfig(crossbar_rows=4, crossbar_cols=4)
        weights = [(rng.random(shape) < 0.5).astype(np.uint8) for shape in [(8, 12), (12, 4)]]
        whole = mca_energy(map_to_mcas([no_clusters(w) for w in weights], weights, tech), tech)
        parts = [mca_energy(map_unclustered(w, tech), tech) for w in weights]
        for key in ("mca_component_j", "peripheral_component_j", "total_j"):
            assert whole[key] == pytest.approx(parts[0][key] + parts[1][key])


class TestCmosEnergy:
    def test_all_zero(self):
        assert cmos_energy(0, 0, 0)["total_j"] == 0.0

    def test_arithmetic(self):
        # the fixed constants, written out, so each part is pinned bit for bit
        assert cmos_energy(100, 200, 3) == {
            "compute_j": 100 * 4.6e-12, "memory_access_j": 100 * 2.6e-11, "leakage_j": 200 * 4 * 1e-15,
            "sync_j": 3 * 1e-11, "total_j": 100 * 4.6e-12 + 100 * 2.6e-11 + 200 * 4 * 1e-15 + 3 * 1e-11,
        }

    def test_clustered_storage_wins_when_sync_below_leak_savings(self):
        dense = cmos_energy(100, 100_000, 0)
        clustered = cmos_energy(100, 500, 10)
        saved = (100_000 - 500) * CMOS_BITS_PER_WEIGHT * CMOS_LEAK_PER_BIT_J
        assert clustered["total_j"] < dense["total_j"]
        assert dense["total_j"] - clustered["total_j"] == pytest.approx(saved - 10 * CMOS_SYNC_PER_CLUSTER_J)

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            cmos_energy(-1, 0)


class TestDocuments:
    def mixed_mapping(self):
        residual = np.zeros((8, 8), dtype=np.uint8)
        residual[6, 1] = residual[7, 7] = 1
        cs, w = full_cluster_set((8, 8), [(range(3), range(4))], residual)
        return map_to_mcas([cs], [w], TechConfig(crossbar_rows=4, crossbar_cols=4))

    def test_mapping_document_round_trip(self):
        doc = self.mixed_mapping()
        assert doc["layers"][0]["cluster_utils"] == [12 / 16]
        assert doc["layers"][0]["unclustered_fraction"] == 2 / 14
        assert mapping_from_json(json.dumps(doc)) == doc
        assert mapping_from_json(json.dumps(doc).encode()) == doc

    def test_derived_keys_are_ignored_on_read(self):
        doc = self.mixed_mapping()
        tampered = json.loads(json.dumps(doc))
        tampered.update(num_mca=99, n_live=99, n_clusters=0, clustered_storage=99, dense_storage=99)
        tampered["layers"][0].update(
            histogram=[9] * 10, cluster_utils=[0.5], residual_utils=[], unclustered_fraction=0.5,
            clustered_mca_count=9, residual_mca_count=9,
        )
        assert mapping_from_json(json.dumps(tampered)) == doc
        for storage in ("auto", "dense", "clustered"):
            assert energy_document(mapping_from_json(json.dumps(tampered)), TechConfig(),
                                   storage=storage) == energy_document(doc, TechConfig(), storage=storage)

    def test_core_count_of_an_older_document_is_ignored(self):
        # mapping.json once carried a core count; a file written then still reads, to the same document
        doc = self.mixed_mapping()
        assert "num_core" not in doc
        assert mapping_from_json(json.dumps({**doc, "num_core": 1})) == doc

    @pytest.mark.parametrize(
        "edit, message",
        [(lambda d: d["layers"][0].update(residual_active=[1, "2"]), "residual_active must be a list of non-negative"),
         (lambda d: d["layers"][0].update(cluster_areas=[-12]), "cluster_areas must be a list of non-negative"),
         (lambda d: d["layers"][0].update(cluster_active=[True]), "cluster_active must be a list of non-negative"),
         (lambda d: d["layers"][0].update(matrix_shape=[8]), "matrix_shape must be 2 non-negative"),
         (lambda d: d.update(crossbar_rows=1.5), "crossbar_rows and crossbar_cols must"),
         (lambda d: d.update(layers=[7]), "TypeError")],
        ids=["element", "negative", "bool", "shape", "crossbar_rows", "layer"],
    )
    def test_reader_rejects_mistyped_fields(self, edit, message):
        doc = self.mixed_mapping()
        edit(doc)
        with pytest.raises(InputFormatError, match=message):
            mapping_from_json(json.dumps(doc))

    @pytest.mark.parametrize(
        "storage, stored", [("auto", 12 + 2), ("clustered", 12 + 2), ("dense", 64)]
    )
    def test_energy_document(self, storage, stored):
        mapping, tech = self.mixed_mapping(), TechConfig()
        doc = energy_document(mapping, tech, storage=storage)
        xbar, base = mca_energy(mapping, tech), cmos_energy(14, stored, 1)
        assert doc["storage_model"] == ("clustered" if storage == "auto" else storage)
        assert (doc["mca_component_j"], doc["peripheral_component_j"], doc["total_j"]) == (
            xbar["mca_component_j"], xbar["peripheral_component_j"], xbar["total_j"])
        assert doc["cmos"] == base

    @pytest.mark.parametrize("storage", ["dense", "clustered"])
    def test_energy_document_key_order_and_exact_totals(self, storage):
        doc = energy_document(self.mixed_mapping(), TechConfig(), storage=storage)
        assert list(doc) == ["mca_component_j", "peripheral_component_j", "total_j", "storage_model", "cmos"]
        base = doc["cmos"]
        assert list(base) == ["compute_j", "memory_access_j", "leakage_j", "sync_j", "total_j"]
        # each total is the left-to-right sum of its parts, bit for bit
        assert doc["total_j"] == doc["mca_component_j"] + doc["peripheral_component_j"]
        assert base["total_j"] == base["compute_j"] + base["memory_access_j"] + base["leakage_j"] + base["sync_j"]

    def test_auto_storage_without_clusters_is_dense(self):
        mapping = map_unclustered(np.ones((4, 4)), TechConfig())
        assert energy_document(mapping, TechConfig())["storage_model"] == "dense"
