"""Connectivity matrix, owner matrix, and clusters.json tests."""

import gc
import json
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from xbarnet import connectivity
from xbarnet.connectivity import (
    ConnectivityMatrix,
    InputFormatError,
    check_owner,
    cluster_sets_from_json,
    cluster_sets_to_json,
    footprints,
    owner_cells,
)
from xbarnet.hardware import TechConfig, map_to_mcas, mapping_from_json
from xbarnet.sizecluster import SizeClusterConfig, size_constrained_cluster


def unowned(shape):
    """An owner matrix of a ``shape`` layer that owns no cell."""
    return np.full(shape, -1, dtype=np.int32)


def owner_of(shape, *clusters):
    """An int32 ``shape`` owner matrix in which cluster ``k`` owns the cells ``clusters[k]``."""
    owner = unowned(shape)
    for k, cells in enumerate(clusters):
        for i, j in cells:
            owner[i, j] = k
    return owner


def records_of(owner):
    """``clusters.json`` records of ``owner``'s clusters 0..owner.max() on layer 0: covered cells only."""
    return [{"layer": 0, "covered": np.argwhere(owner == k).tolist()} for k in range(int(owner.max()) + 1)]


GAP = unowned((2, 2))
GAP[1, 1] = 1  # cluster 0 owns no cell
MINUS_TWO = unowned((2, 2))
MINUS_TWO[0, 1] = -2
ZERO_WEIGHT = np.ones((4, 4))
ZERO_WEIGHT[2, 3] = 0.0


@pytest.mark.parametrize(
    "owner, weights, message, in_a_file",
    [
        (unowned((3, 2)), np.ones((2, 2)), "owner (3, 2) does not match weights (2, 2)", False),
        (MINUS_TWO, np.ones((2, 2)), "owner entries must be -1 or a cluster index", False),
        (GAP, np.ones((2, 2)), "cluster 0 owns no cell", True),
        (owner_of((4, 4), [(0, 0)], [(2, 2), (2, 3)]), ZERO_WEIGHT, "a covered cell is not a synapse", True),
        (owner_of((4, 4), [(0, 1), (1, 1), (3, 1)]), np.ones((4, 4)), "cluster 3x1 exceeds crossbar 2x2", True),
        (unowned((4, 4)), np.ones((4, 4)), None, True),
    ],
    ids=["wrong_shape", "minus_two", "index_gap", "owned_zero_weight", "footprint_3x1", "all_unowned"],
)
def test_every_owner_matrix_goes_through_one_check(owner, weights, message, in_a_file):
    """check_owner and map_to_mcas, its one caller, accept and reject the same owner matrices with the same
    message, both as a plain ValueError, and map_to_mcas names the layer. A matrix a file can hold, decoded by
    the clusters.json reader and then mapped, gives that same line. A file cannot hold an owner matrix of another
    shape or an entry below -1: the reader builds each matrix in its layer's shape, and a record's index is its
    place; so a shape mismatch reaches map_to_mcas only from a caller's own matrices."""
    tech = TechConfig(crossbar_rows=2, crossbar_cols=2)
    text = json.dumps(records_of(owner))
    if message is None:
        assert [c.tolist() for c in check_owner(owner, weights, (2, 2))] == [[], [], []]
        assert map_to_mcas([owner], [weights], tech)["n_clusters"] == 0
        assert np.array_equal(cluster_sets_from_json(text, [weights.shape])[0], owner)
        return
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as checked:
        check_owner(owner, weights, (2, 2))
    layer_0 = f"^layer 0: {re.escape(message)}$"
    with pytest.raises(ValueError, match=layer_0) as mapped:
        map_to_mcas([owner], [weights], tech)
    assert type(mapped.value) is type(checked.value) is ValueError
    if in_a_file:
        with pytest.raises(ValueError, match=layer_0):
            map_to_mcas(cluster_sets_from_json(text, [weights.shape]), [weights], tech)


def test_check_owner_counts_each_footprint():
    """Per cluster, the distinct rows and cols its cells span and the cells it owns; the fit is checked on the
    line counts."""
    owner = owner_of((5, 6), [(0, 0), (0, 5), (4, 0)], [(2, 2), (3, 2)], [(1, 4)])
    rows, cols, cells = check_owner(owner, np.ones((5, 6)), (2, 2))
    assert rows.tolist() == [2, 2, 1] and cols.tolist() == [2, 1, 1] and cells.tolist() == [3, 2, 1]
    with pytest.raises(ValueError, match="^cluster 2x2 exceeds crossbar 1x2$"):
        check_owner(owner, np.ones((5, 6)), (1, 2))


class TestSynapsesFromWeights:
    def test_threshold_definition(self):
        """A synapse is a non-zero weight: -0.0 is none."""
        w = np.array([[0.5, 0.0], [-0.2, -0.0]])
        mapping = map_to_mcas([unowned((2, 2))], [w], TechConfig(crossbar_rows=1, crossbar_cols=1))
        assert mapping["layers"][0]["residual_active"] == [1, 1] and mapping["n_live"] == 2

    def test_mapper_names_the_layer_of_a_covered_dead_cell(self):
        """The reader decodes a cell on a -0.0 weight; mapping the decoded owners names its layer."""
        weights = [np.ones((4, 4)), np.ones((3, 5))]
        weights[1][2, 4] = -0.0
        records = [{"layer": 0, "rows": [0], "cols": [0], "covered": [[0, 0]]},
                   {"layer": 1, "rows": [1, 2], "cols": [4], "covered": [[1, 4], [2, 4]]}]
        owners = cluster_sets_from_json(json.dumps(records), [w.shape for w in weights])
        assert [owner.max() + 1 for owner in owners] == [1, 1]
        tech = TechConfig(crossbar_rows=2, crossbar_cols=2)
        with pytest.raises(ValueError, match="^layer 1: a covered cell is not a synapse$"):
            map_to_mcas(owners, weights, tech)
        weights[1][2, 4] = 1.0
        assert map_to_mcas(owners, weights, tech)["n_clusters"] == 2


class TestBits:
    def test_empty_matrix_rejected(self):
        with pytest.raises(ValueError, match=re.escape("degenerate shape (0, 3); need a non-empty 2-d matrix")):
            ConnectivityMatrix(np.zeros((0, 3)))

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


class TestOwnerMatrices:
    def test_consistent_owner_accepted(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[:2, :2] = 1
        bits[3, 3] = 1
        owner = unowned((4, 4))
        owner[:2, :2] = 0
        layer = map_to_mcas([owner], [bits], TechConfig(crossbar_rows=2, crossbar_cols=2))["layers"][0]
        assert layer["cluster_active"] == [4] and layer["residual_active"] == [1]  # (3, 3), in the last tile

    def test_cells_match_nonzero_of_owner(self):
        rng = np.random.default_rng(4)
        owner = rng.integers(-1, 3, size=(5, 7))
        owner[0, 0], owner[0, 1], owner[0, 2] = 0, 1, 2
        cells = owner_cells(owner)
        assert len(cells) == 3
        for k, (ii, jj) in enumerate(cells):
            ok_i, ok_j = np.nonzero(owner == k)
            assert np.array_equal(ii, ok_i) and np.array_equal(jj, ok_j)

    @pytest.mark.parametrize("seed", range(5))
    def test_footprints_are_the_distinct_rows_and_cols_of_owned_cells(self, seed):
        rng = np.random.default_rng(seed)
        owner = rng.integers(-1, 6, size=(9, 13))
        owner[0, :6] = np.arange(6)
        spans = footprints(owner)
        assert len(spans) == 6
        for k, (rows, cols) in enumerate(spans):
            ii, jj = np.nonzero(owner == k)
            assert rows.tolist() == sorted(set(ii.tolist()))
            assert cols.tolist() == sorted(set(jj.tolist()))
        rows, cols, cells = check_owner(owner, np.ones(owner.shape), owner.shape)
        assert rows.tolist() == [len(r) for r, _ in spans] and cols.tolist() == [len(c) for _, c in spans]
        assert cells.tolist() == [int((owner == k).sum()) for k in range(6)]

    def test_no_owned_cell_means_no_clusters(self):
        owner = unowned((3, 2))
        assert footprints(owner) == [] and owner_cells(owner) == []

    def test_json_round_trip(self):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[0, 0] = bits[1, 1] = bits[3, 3] = 1
        owner = owner_of((4, 4), [(0, 0), (1, 1)])
        text = cluster_sets_to_json([owner])
        record = json.loads(text)[0]
        assert (record["rows"], record["cols"], record["covered"]) == ([0, 1], [0, 1], [[0, 0], [1, 1]])
        back = cluster_sets_from_json(text, [bits.shape])[0]
        assert back.dtype == np.int32 and np.array_equal(back, owner)

    @pytest.mark.parametrize(
        "edit",
        [{}, {"rows": [2, 0], "cols": [2, 0]}, {"rows": [3], "cols": [0, 1, 2, 9]}, {"rows": "x", "cols": None}],
        ids=["removed", "shuffled", "wrong", "ill_typed"],
    )
    def test_json_rows_and_cols_are_not_read(self, edit):
        """rows and cols are derived from the covered cells, so the reader ignores them."""
        record = {"layer": 0, "covered": [[2, 2], [0, 0]], **edit}
        owner = cluster_sets_from_json(json.dumps([record]), [(4, 4)])[0]
        assert np.array_equal(owner, owner_of((4, 4), [(2, 2), (0, 0)]))

    @pytest.mark.parametrize(
        "record, message",
        [
            ({"covered": [[0, 0], [-1, -1]]}, "layer 0: a covered cell lies outside the 4x4 matrix"),
            ({"covered": [[0, 0], [0, 1]]}, "layer 0: a covered cell is not a synapse"),
            ({"covered": [[0, 0], [1, 1]]}, "layer 0: a cell is covered twice"),
            ({"covered": [[9, 0]]}, "layer 0: a covered cell lies outside the 4x4 matrix"),
            ({"covered": []}, "layer 0: cluster 1 owns no cell"),
            ({"covered": [[2, 2], [2, 2]]}, "layer 0: a cell is covered twice"),
            ({"layer": 1, "covered": [[2, 2]]}, "record 1: ValueError: unknown layer 1"),
            ({"rows": [2], "cols": [2]}, "record 1: KeyError: 'covered'"),
            ({"covered": [[0, 0], [2, 2], [3, 3]]}, "layer 0: cluster 3x3 exceeds crossbar 2x2"),
            ({"covered": [[0.7, 0.2]]}, "record 1: TypeError: covered must be a list of \\[row, col\\] integer pairs"),
            ({"covered": [[False, False]]}, "record 1: TypeError: covered must be"),
            ({"covered": [[0, True]]}, "record 1: TypeError: covered must be"),
            ({"covered": [[2**70, 0]]}, "record 1: OverflowError"),
            ({"covered": [["0", "0"]]}, "record 1: TypeError: covered must be"),
            ({"covered": [[0, 0, 0]]}, "record 1: TypeError: covered must be"),
            ({"covered": 0}, "record 1: TypeError: covered must be"),
        ],
        ids=["negative_cell", "dead_synapse", "claimed_twice", "beyond_matrix", "empty", "repeated_cell",
             "unknown_layer", "no_covered", "beyond_crossbar", "covered_float", "covered_bool", "covered_int_bool",
             "covered_huge_int", "covered_string", "covered_triple", "covered_not_list"],
    )
    def test_json_malformed_record_rejected(self, record, message):
        """A second record is decoded into a 4x4 owner matrix whose (1, 1) the first owns, then mapped on a 2x2
        crossbar against a 4x4 identity; the reader or the mapper rejects it with one line."""
        first = {"layer": 0, "covered": [[1, 1]]}
        text = json.dumps([first, {"layer": 0, **record}])
        tech = TechConfig(crossbar_rows=2, crossbar_cols=2)
        with pytest.raises(ValueError, match=message):
            map_to_mcas(cluster_sets_from_json(text, [(4, 4)]), [np.eye(4)], tech)

    @pytest.mark.parametrize(
        "covered, message",
        [([[0, 0], [0, 1]], "a covered cell is not a synapse"),
         ([[0, 0], [2, 2], [3, 3]], "cluster 3x3 exceeds crossbar 2x2")],
        ids=["dead_synapse", "beyond_crossbar"],
    )
    def test_json_reader_leaves_synapses_and_fit_to_the_mapper(self, covered, message):
        """The reader only decodes: a covered dead cell or a footprint over the crossbar reads back as the owner
        matrix the file lists, and map_to_mcas rejects it naming the layer."""
        owner = cluster_sets_from_json(json.dumps([{"layer": 0, "covered": covered}]), [(4, 4)])[0]
        assert np.array_equal(owner, owner_of((4, 4), covered))
        with pytest.raises(ValueError, match=f"^layer 0: {message}$") as info:
            map_to_mcas([owner], [np.eye(4)], TechConfig(crossbar_rows=2, crossbar_cols=2))
        assert type(info.value) is ValueError

    def test_json_reader_reports_a_decoding_fault_before_any_checking_fault(self):
        """Every layer is decoded before any is checked: layer 0 covers a dead cell, which only the mapper
        rejects, and layer 1 a cell outside its matrix, which the reader rejects first."""
        records = [{"layer": 0, "covered": [[0, 1]]}, {"layer": 1, "covered": [[0, 9]]}]
        with pytest.raises(InputFormatError, match="^layer 1: a covered cell lies outside the 4x4 matrix$"):
            cluster_sets_from_json(json.dumps(records), [(4, 4), (4, 4)])
        owners = cluster_sets_from_json(json.dumps(records[:1]), [(4, 4), (4, 4)])
        with pytest.raises(ValueError, match="^layer 0: a covered cell is not a synapse$"):
            map_to_mcas(owners, [np.eye(4), np.eye(4)], TechConfig(crossbar_rows=2, crossbar_cols=2))

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
        with pytest.raises(InputFormatError, match=f"^{re.escape(message)}") as info:
            cluster_sets_from_json(text, [(4, 4)])
        assert message.startswith("record") or "record 0" not in str(info.value)

    def test_json_empty_list_means_no_clusters(self):
        owner = cluster_sets_from_json("[]", [(4, 4)])[0]
        assert np.array_equal(owner, unowned((4, 4)))


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
            cluster_sets_from_json(text, [(4, 4)])
        except InputFormatError as exc:
            assert text != TEXT_OK
            assert str(exc).startswith("not JSON" if text == TEXT_OK[:-3] else "record 0: TypeError: a record")
        after = gc.isenabled()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after is enabled


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
@settings(max_examples=30, deadline=None)
def test_perturbed_rows_and_cols_read_back_the_same_owners(seed):
    """Any record's rows or cols, perturbed or removed, reads back the owners the clusterer returned: the
    reader derives each footprint from the covered cells alone."""
    rng = np.random.default_rng(seed)
    shapes = [tuple(int(v) for v in rng.integers(4, 30, size=2)) for _ in range(2)]
    sources = [ConnectivityMatrix((rng.random(shape) < rng.uniform(0.2, 0.9)).astype(np.uint8)) for shape in shapes]
    cfg = SizeClusterConfig(crossbar_rows=int(rng.choice([2, 4, 8])), crossbar_cols=int(rng.choice([2, 4, 8])),
                            min_util_factor=0.2, max_rounds=6)
    owners = [size_constrained_cluster(c, cfg, seed=seed).owner for c in sources]
    records = json.loads(cluster_sets_to_json(owners))
    assume(records)
    for rec in records:
        for key in ("rows", "cols"):
            if rng.random() < 0.2:
                del rec[key]
            elif rng.random() < 0.5:
                rec[key] = perturb_lines(rec[key], sources[rec["layer"]].bits.shape[key == "cols"], rng)
    back = cluster_sets_from_json(json.dumps(records), shapes)
    assert all(np.array_equal(a, owner) for a, owner in zip(back, owners))


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
    owners = [size_constrained_cluster(c, cfg, seed=seed).owner for c in sources]
    text = cluster_sets_to_json(owners)
    weights = [c.bits for c in sources]
    back = cluster_sets_from_json(text, shapes)
    for owner, again in zip(owners, back):
        assert np.array_equal(again, owner)
        for k, (rows, cols) in enumerate(footprints(again)):
            owned = again == k
            assert owned[rows].any(axis=1).all() and owned[:, cols].any(axis=0).all()
    mapping = map_to_mcas(back, weights, tech)
    assert mapping == map_to_mcas(owners, weights, tech)
    assert mapping_from_json(json.dumps(mapping)) == mapping
    assert cluster_sets_to_json(back) == text


def reference_cluster_json(owners):
    """The records ``json.dumps(indent=1)`` wrote before ``cluster_sets_to_json`` formatted its text directly."""
    records = []
    for layer_id, owner in enumerate(owners):
        for k in range(int(owner.max()) + 1):
            ii, jj = np.nonzero(owner == k)
            records.append(
                {
                    "layer": layer_id,
                    "rows": sorted(set(ii.tolist())),
                    "cols": sorted(set(jj.tolist())),
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
    owners = [size_constrained_cluster(c, cfg, seed=seed).owner for c in sources]
    owners[2] = unowned((5, 7))
    assert any((owner >= 0).any() for owner in owners)
    text = cluster_sets_to_json(owners)
    assert text == reference_cluster_json(owners)
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
    weights = [np.ones((3, 4)), bits]
    owners = [unowned((3, 4)), owner]
    assert owner.max() + 1 == 7 and max(r.max() for r, _ in footprints(owner)) >= 1000
    text = cluster_sets_to_json(owners)
    assert text == reference_cluster_json(owners)
    back = cluster_sets_from_json(text, [w.shape for w in weights])
    assert (back[0] == -1).all()
    assert np.array_equal(back[1], owner)
    assert cluster_sets_to_json(back) == text


def test_cluster_json_without_clusters_is_an_empty_list():
    owners = [unowned((3, 4)) for _ in range(2)]
    assert cluster_sets_to_json(owners) == reference_cluster_json(owners) == "[]"
    assert cluster_sets_to_json([]) == "[]"
