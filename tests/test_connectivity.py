"""Connectivity matrix, cluster set, and clusters.json tests."""

import gc
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xbarnet import connectivity
from xbarnet.connectivity import (
    ClusterFormatError,
    ClusterSet,
    ConnectivityMatrix,
    ShapeError,
    cluster_sets_from_json,
    cluster_sets_to_json,
    from_weights,
)
from xbarnet.hardware import TechConfig, map_to_mcas, mapping_from_json
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


class TestClusterTypes:
    def test_gap_in_cluster_indices_rejected(self):
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 1  # cluster 0 owns no cell
        with pytest.raises(ValueError, match="cluster 0 owns no cell"):
            ClusterSet(ConnectivityMatrix(np.ones((4, 4), dtype=np.uint8)), owner)

    def test_owned_cell_not_a_synapse_rejected(self):
        bits = np.ones((4, 4), dtype=np.uint8)
        bits[1, 1] = 0
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        with pytest.raises(ValueError, match="a covered cell is not a synapse"):
            ClusterSet(ConnectivityMatrix(bits), owner)

    def test_consistent_set_accepted(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[:2, :2] = 1
        bits[3, 3] = 1
        owner = np.full((4, 4), -1)
        owner[:2, :2] = 0
        cs = ClusterSet(ConnectivityMatrix(bits), owner)
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

    @pytest.mark.parametrize(
        "text, message",
        [("{}", "the top level must be a JSON list of cluster records, got {}"),
         ('""', "the top level must be a JSON list of cluster records, got ''"),
         ("null", "the top level must be a JSON list of cluster records, got None"),
         ('{"layer": 0}', "the top level must be a JSON list of cluster records, got {'layer': 0}"),
         ("7", "the top level must be a JSON list of cluster records, got 7"),
         ("[1]", "record 0: TypeError: a record must be an object, got 1"),
         ("[null]", "record 0: TypeError: a record must be an object, got None"),
         ('[{"layer": 0, "rows": [1], "cols": [1], "covered": [[1, 1]]}, [0, [1], [1]]]',
          "record 1: TypeError: a record must be an object, got [0, [1], [1]]"),
         ("", "not JSON (JSONDecodeError: Expecting value: line 1 column 1 (char 0))"),
         ("[{]", "not JSON (JSONDecodeError: Expecting property name"),
         ('[{"layer": 0}', "not JSON (JSONDecodeError: Expecting ',' delimiter"),
         ("[" * 100_000 + "]" * 100_000, "not JSON (RecursionError: maximum recursion depth exceeded")],
        ids=["object", "string", "null", "record_alone", "number", "number_record", "null_record",
             "second_record_list", "empty_text", "bad_object", "unclosed_list", "too_deep"],
    )
    def test_json_not_a_list_of_records_rejected(self, text, message):
        """Only a JSON list of objects reads as records: any other top level, record or unparseable text is
        rejected, and a parse failure names no record."""
        with pytest.raises(ClusterFormatError) as info:
            cluster_sets_from_json(text, [ConnectivityMatrix(np.eye(4, dtype=np.uint8))], (2, 2))
        assert str(info.value).startswith(message)
        assert message.startswith("record") or "record 0" not in str(info.value)

    def test_json_empty_list_means_no_clusters(self):
        cs = cluster_sets_from_json("[]", [ConnectivityMatrix(np.eye(4, dtype=np.uint8))], (2, 2))[0]
        assert cs.n_clusters == 0


TEXT_OK = json.dumps([{"layer": 0, "rows": [1], "cols": [1], "covered": [[1, 1]]}])


@pytest.mark.parametrize("text", [TEXT_OK, TEXT_OK[:-3], "[1]"], ids=["loads", "does_not_parse", "bad_record"])
@pytest.mark.parametrize("enabled", [True, False], ids=["gc_on", "gc_off"])
def test_json_reload_leaves_the_gc_as_the_caller_had_it(monkeypatch, text, enabled):
    """The cyclic GC is off while the text is parsed, and afterwards as it was before the call, whether the
    text loads, does not parse, or holds a rejected record."""
    seen, real_loads = [], json.loads

    def loads(s):
        seen.append(gc.isenabled())
        return real_loads(s)

    monkeypatch.setattr(connectivity.json, "loads", loads)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        try:
            cluster_sets_from_json(text, [ConnectivityMatrix(np.eye(4, dtype=np.uint8))], (2, 2))
        except ClusterFormatError:
            assert text != TEXT_OK
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after is enabled


def reference_footprint_error(text, sets):
    """(layer, cluster) of the first record whose sorted rows and cols differ from its cluster's footprint,
    or None: the per-record rule the vectorized check replaced."""
    named = [[] for _ in sets]
    for rec in json.loads(text):
        named[rec["layer"]].append((sorted(rec["rows"]), sorted(rec["cols"])))
    for layer, cs in enumerate(sets):
        for k, ((rows, cols), (fp_rows, fp_cols)) in enumerate(zip(named[layer], cs.footprints())):
            if rows != fp_rows.tolist() or cols != fp_cols.tolist():
                return layer, k
    return None


def perturb_lines(lines, size, rng):
    """``lines`` after one of: drop a line, repeat one, add an unused in-range line, add a negative or
    out-of-range line, replace a line by an unused in-range one, or shuffle."""
    lines = list(lines)
    kind = rng.integers(6)
    unused = sorted(set(range(size)) - set(lines))
    if kind == 0:
        del lines[rng.integers(len(lines))]
    elif kind == 1:
        lines.insert(int(rng.integers(len(lines) + 1)), lines[rng.integers(len(lines))])
    elif kind == 2 and unused:
        lines.insert(int(rng.integers(len(lines) + 1)), int(rng.choice(unused)))
    elif kind == 3:
        bad = [-1, -size, -(2**70), size, size + 7, 2**63, 2**70][rng.integers(7)]
        lines.insert(int(rng.integers(len(lines) + 1)), bad)
    elif kind == 4 and unused:
        lines[rng.integers(len(lines))] = int(rng.choice(unused))
    else:
        rng.shuffle(lines)
    return lines


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_footprint_check_matches_the_per_record_rule(seed):
    """One record's rows or cols, perturbed, is accepted exactly when the old per-record rule accepts it,
    and a reject names the same layer and cluster."""
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(v) for v in rng.integers(4, 30, size=2)) for _ in range(2)]
    sources = [ConnectivityMatrix((rng.random(shape) < rng.uniform(0.2, 0.9)).astype(np.uint8)) for shape in shapes]
    cfg = SizeClusterConfig(crossbar_rows=int(rng.choice([2, 4, 8])), crossbar_cols=int(rng.choice([2, 4, 8])),
                            min_util_factor=0.2, max_rounds=6)
    sets = [size_constrained_cluster(c, cfg, seed=seed) for c in sources]
    records = json.loads(cluster_sets_to_json(sets))
    assume(records)
    rec = records[rng.integers(len(records))]
    key = ["rows", "cols"][rng.integers(2)]
    rec[key] = perturb_lines(rec[key], sources[rec["layer"]].bits.shape[key == "cols"], rng)
    text = json.dumps(records)
    expected = reference_footprint_error(text, sets)
    crossbar = (cfg.crossbar_rows + 2, cfg.crossbar_cols + 2)  # room for an added line: only footprints decide
    if expected is None:
        back = cluster_sets_from_json(text, sources, crossbar)
        assert all(np.array_equal(a.owner, cs.owner) for a, cs in zip(back, sets))
    else:
        layer, k = expected
        with pytest.raises(ClusterFormatError, match=f"^layer {layer}: cluster {k}: rows and cols must name each"):
            cluster_sets_from_json(text, sources, crossbar)


@pytest.mark.parametrize("seed", range(10))
def test_clustering_round_trips_through_json_and_mapping(seed):
    """size_constrained_cluster -> clusters.json -> reload -> map_to_mcas rebuilds the same owners and mapping,
    and the mapping reader accepts that mapping unchanged."""
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
    mapping = map_to_mcas(back, tech)
    assert mapping == map_to_mcas(sets, tech)
    assert mapping_from_json(json.dumps(mapping)) == mapping
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


def test_cluster_json_beyond_three_digit_indices():
    """A tall, narrow layer with clusters in rows past 999, after a layer without clusters, writes the
    ``json.dumps(indent=1)`` text and reads back to the same owners."""
    rng = np.random.default_rng(5)
    bits = (rng.random((1203, 37)) < 0.3).astype(np.uint8)
    owner = np.full(bits.shape, -1, dtype=np.int32)
    row_chunks = np.split(rng.permutation(np.arange(990, 1203))[:48], 6)
    for k, rows in enumerate([np.arange(8), *row_chunks]):
        cols = rng.choice(37, 8, replace=False)
        owner[np.ix_(rows, cols)] = np.where(bits[np.ix_(rows, cols)] == 1, k, -1)
    sources = [ConnectivityMatrix(np.ones((3, 4), dtype=np.uint8)), ConnectivityMatrix(bits)]
    sets = [ClusterSet(sources[0]), ClusterSet(sources[1], owner)]
    assert sets[1].n_clusters == 7 and max(r.max() for r, _ in sets[1].footprints()) >= 1000
    text = cluster_sets_to_json(sets)
    assert text == reference_cluster_json(sets)
    back = cluster_sets_from_json(text, sources, (8, 8))
    assert back[0].n_clusters == 0
    assert np.array_equal(back[1].owner, owner)
    assert cluster_sets_to_json(back) == text


def test_cluster_json_without_clusters_is_an_empty_list():
    sets = [ClusterSet(ConnectivityMatrix(np.ones((3, 4), dtype=np.uint8))) for _ in range(2)]
    assert cluster_sets_to_json(sets) == reference_cluster_json(sets) == "[]"
    assert cluster_sets_to_json([]) == "[]"
