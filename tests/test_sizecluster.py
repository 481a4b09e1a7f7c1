"""Iterative clustering: acceptance thresholds, splitting, the candidate path, determinism."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xbarnet import sizecluster
from xbarnet.connectivity import ConnectivityMatrix, check_owner, footprints
from xbarnet.sizecluster import SizeClusterConfig, _derived_k, _second_vector, size_constrained_cluster, split_oversized
from xbarnet.spectral import build_similarity, eig_smallest, kmeans, row_normalize, spectral_cluster
from xbarnet.util import seed_for


def block_diagonal(blocks, block_shape):
    rows, cols = block_shape
    bits = np.zeros((blocks * rows, blocks * cols), dtype=np.uint8)
    for b in range(blocks):
        bits[b * rows : (b + 1) * rows, b * cols : (b + 1) * cols] = 1
    return ConnectivityMatrix(bits)


def unowned(cs, c):
    """Synapses of ``c`` that no cluster of ``cs`` owns."""
    return int((c.bits[cs.owner < 0]).sum())


def check_contract(cs, original, cfg):
    """Threshold soundness, crossbar fit, and exact disjointness/coverage."""
    # shape, no gaps, every owned cell a synapse, every footprint within the crossbar
    check_owner(cs.owner, original.bits, (cfg.crossbar_rows, cfg.crossbar_cols))
    for n_cells in cell_counts(cs):
        assert n_cells / cfg.crossbar_area >= cfg.min_util_factor


def cell_counts(cs):
    """Number of cells each cluster of ``cs`` owns."""
    return np.bincount(cs.owner[cs.owner >= 0], minlength=cs.n_clusters)


@pytest.mark.parametrize("side", [{"crossbar_rows": 0}, {"crossbar_cols": 0}], ids=["rows", "cols"])
def test_config_rejects_a_crossbar_side_below_one(side):
    # a config file sets the crossbar in ``tech``, whose own check fires first, so only a direct caller gets here
    with pytest.raises(ValueError, match="crossbar dimensions must be positive"):
        SizeClusterConfig(**side)


class TestSplitOversized:
    def test_complete_block_splits_into_full_crossbars(self):
        # oracle: audit the children; a balanced partition of an all-ones
        # block yields full-utilization crossbar-sized pieces
        c = ConnectivityMatrix(np.ones((8, 8), dtype=np.uint8))
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=4)
        children = split_oversized(c.bits, np.arange(8), np.arange(8), cfg, _second_vector)
        assert len(children) == 4
        claimed = np.zeros((8, 8), dtype=int)
        for rows, cols, _ in children:
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
        children = split_oversized(c.bits, np.arange(5), np.arange(3), cfg, _second_vector)
        for rows, cols, _ in children:
            assert len(rows) <= 4 and len(cols) <= 3
        union_rows = set(i for rows, _, _ in children for i in rows.tolist())
        assert union_rows <= set(range(5))

    @pytest.mark.parametrize("padded", [False, True], ids=["bare", "padded"])
    def test_complete_block_splits_in_index_order_without_a_solve(self, padded):
        # the grid is the row-major run of consecutive index chunks, whatever order rows and cols come in
        bits = np.ones((10, 7), dtype=np.uint8)
        if padded:  # empty lines around and between the block's lines
            bits = np.insert(np.pad(bits, 2), [4, 9], 0, axis=0)
            bits = np.insert(bits, [3, 6, 8], 0, axis=1)
        live_rows, live_cols = np.flatnonzero(bits.any(axis=1)), np.flatnonzero(bits.any(axis=0))
        rng = np.random.default_rng(0)
        rows, cols = rng.permutation(bits.shape[0]), rng.permutation(bits.shape[1])
        cfg = SizeClusterConfig(crossbar_rows=4, crossbar_cols=3)

        def unsolvable(block):
            raise AssertionError("a complete block was solved")

        got = split_oversized(bits, rows, cols, cfg, unsolvable)
        row_chunks = [live_rows[r : r + 4] for r in range(0, 10, 4)]
        col_chunks = [live_cols[c : c + 3] for c in range(0, 7, 3)]
        want = [(rc.tolist(), cc.tolist(), len(rc) * len(cc)) for rc in row_chunks for cc in col_chunks]
        assert [(r.tolist(), c.tolist(), n) for r, c, n in got] == want

    def test_block_missing_one_cell_is_solved_once(self):
        bits = np.ones((10, 7), dtype=np.uint8)
        bits[3, 5] = 0
        calls = []

        def recording(block):
            calls.append(block.shape)
            return _second_vector(block)

        children = split_oversized(bits, np.arange(10), np.arange(7), SizeClusterConfig(4, 3), recording)
        assert calls == [(10, 7)]
        assert sum(n for _, _, n in children) == 69

    @pytest.mark.parametrize("rows, cols", [([], [0, 1]), ([0, 1], []), ([0, 1], [2, 3])])
    def test_one_sided_or_synapse_free_block_yields_nothing(self, rows, cols):
        bits = np.zeros((4, 4), dtype=np.uint8)
        bits[2:, :2] = 1
        cfg = SizeClusterConfig(crossbar_rows=2, crossbar_cols=2)
        pieces = split_oversized(bits, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp), cfg, _second_vector)
        assert pieces == []

    def test_fitting_block_is_its_synapse_bearing_lines(self):
        bits = np.zeros((6, 6), dtype=np.uint8)
        bits[1, 4] = bits[3, 0] = bits[5, 4] = 1
        bits[2, 2] = 1  # outside the block
        cfg = SizeClusterConfig(crossbar_rows=3, crossbar_cols=2)
        children = split_oversized(bits, np.array([0, 1, 3, 4, 5]), np.array([0, 1, 3, 4, 5]), cfg, _second_vector)
        assert len(children) == 1
        rows, cols, n_synapses = children[0]
        assert rows.tolist() == [1, 3, 5] and cols.tolist() == [0, 4] and n_synapses == 3


    def test_counted_pieces_carry_their_synapse_counts(self):
        # the counts come from one ordered gather and two reduceat passes; each must be its piece's sum
        rng = np.random.default_rng(11)
        for _ in range(60):
            shape = tuple(int(v) for v in rng.integers(1, 40, size=2))
            bits = (rng.random(shape) < rng.uniform(0.05, 1.0)).astype(np.uint8)
            rows = np.flatnonzero(rng.random(shape[0]) < 0.8)
            cols = np.flatnonzero(rng.random(shape[1]) < 0.8)
            cfg = SizeClusterConfig(*(int(v) for v in rng.integers(1, 8, size=2)))
            for r, c, n in split_oversized(bits, rows, cols, cfg, _second_vector):
                assert type(n) is int and n == int(bits[np.ix_(r, c)].sum()) > 0

    def test_counts_do_not_wrap_at_256_synapses(self):
        bits = np.ones((40, 40), dtype=np.uint8)
        cfg = SizeClusterConfig(crossbar_rows=20, crossbar_cols=20)
        pieces = split_oversized(bits, np.arange(40), np.arange(40), cfg, _second_vector)
        assert [n for _, _, n in pieces] == [400] * 4

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
        assert cell_counts(cs).tolist() == [16, 16]
        assert unowned(cs, c) == 0
        check_contract(cs, c, cfg)
        groups = {(tuple(rows.tolist()), tuple(cols.tolist())) for rows, cols in footprints(cs.owner)}
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
        assert unowned(cs, c) == 0
        assert cell_counts(cs).tolist() == [cfg.crossbar_area] * 64
        assert len(trace) == 1
        check_contract(cs, c, cfg)

    def test_all_zero_matrix(self):
        c = ConnectivityMatrix(np.zeros((6, 6), dtype=np.uint8))
        cs = size_constrained_cluster(c, SizeClusterConfig(), seed=0)
        assert cs.n_clusters == 0
        assert (cs.owner == -1).all() and cs.owner.shape == (6, 6)

    def test_no_round_when_no_crossbar_can_be_filled(self):
        # an output layer of 2 neurons fills at most 16x2 = 32 of 256 cells, below min_util_factor 0.4
        c = ConnectivityMatrix(np.ones((128, 2), dtype=np.uint8))
        trace: list = []
        cs = size_constrained_cluster(c, SizeClusterConfig(), seed=0, trace=trace)
        assert cs.n_clusters == 0
        assert trace == []

    def test_sparse_random_mostly_residual(self):
        rng = np.random.default_rng(31)
        bits = (rng.random((32, 32)) < 0.3).astype(np.uint8)
        c = ConnectivityMatrix(bits)
        cfg = SizeClusterConfig(
            crossbar_rows=8, crossbar_cols=8, base_util_factor=0.95, min_util_factor=0.9
        )
        cs = size_constrained_cluster(c, cfg, seed=0)
        check_contract(cs, c, cfg)
        assert unowned(cs, c) > c.bits.sum() / 2

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


# -- reference: the loop as it was before it kept what it had solved --------
#
# Every round solved the residual afresh, and every split ordering solved its
# block afresh. The current loop must give the same owner matrix and trace.
# A complete block is ordered by index: it has no cut for an eigenvector to
# find, and every order fills every piece.


def reference_spectral_cluster(bits, k, seed):
    rows = np.flatnonzero(bits.any(axis=1))
    cols = np.flatnonzero(bits.any(axis=0))
    if k > len(rows) + len(cols):
        raise ValueError(f"k={k} exceeds the {len(rows) + len(cols)} non-isolated nodes")
    _, vectors = eig_smallest(build_similarity(bits[np.ix_(rows, cols)]).values, k)
    labels = kmeans(row_normalize(vectors), k, seed)
    row_labels, col_labels = labels[: len(rows)], labels[len(rows) :]
    return [(rows[row_labels == g], cols[col_labels == g]) for g in range(k)]


def reference_spectral_order(bits, rows, cols):
    if bits[np.ix_(rows, cols)].all():
        return np.sort(rows), np.sort(cols)
    m = len(rows)
    b = build_similarity(bits[np.ix_(rows, cols)]).values
    v = eig_smallest(b, 2)[1][:, -1]
    row_order = np.lexsort((rows, v[:m]))
    col_order = np.lexsort((cols, v[m:]))
    return rows[row_order], cols[col_order]


def reference_split_oversized(bits, rows, cols, cfg):
    sub = bits[np.ix_(rows, cols)]
    live_rows = rows[sub.any(axis=1)]
    live_cols = cols[sub.any(axis=0)]
    if len(live_rows) == 0 or len(live_cols) == 0:
        return []
    if len(live_rows) <= cfg.crossbar_rows and len(live_cols) <= cfg.crossbar_cols:
        return [(live_rows, live_cols)]
    ordered_rows, ordered_cols = reference_spectral_order(bits, live_rows, live_cols)
    row_chunks = np.split(ordered_rows, range(cfg.crossbar_rows, len(ordered_rows), cfg.crossbar_rows))
    col_chunks = np.split(ordered_cols, range(cfg.crossbar_cols, len(ordered_cols), cfg.crossbar_cols))
    return [(rc, cc) for rc in row_chunks for cc in col_chunks if bits[np.ix_(rc, cc)].any()]


def reference_size_constrained_cluster(c, cfg, seed, trace):
    residual = np.array(c.bits, dtype=np.uint8)
    owner = np.full(c.bits.shape, -1, dtype=np.int32)
    n_accepted = 0
    util_factor = cfg.base_util_factor

    def try_accept(rows, cols):
        nonlocal n_accepted
        block = np.ix_(rows, cols)
        if int(residual[block].sum()) / cfg.crossbar_area < util_factor:
            return False
        owner[block] = np.where(residual[block] == 1, n_accepted, owner[block])
        n_accepted += 1
        residual[block] = 0
        return True

    def handle(rows, cols):
        return sum(try_accept(rc, cc) for rc, cc in reference_split_oversized(residual, rows, cols, cfg))

    for round_no in range(1, cfg.max_rounds + 1):
        nnz_before = int(residual.sum())
        if nnz_before == 0:
            break
        active_rows = np.flatnonzero(residual.any(axis=1))
        active_cols = np.flatnonzero(residual.any(axis=0))
        accepted_this_round = 0
        fits = len(active_rows) <= cfg.crossbar_rows and len(active_cols) <= cfg.crossbar_cols
        if not fits and nnz_before < len(active_rows) * len(active_cols):
            k = _derived_k(nnz_before, len(active_rows), len(active_cols), cfg)
            groups = reference_spectral_cluster(residual, k, seed_for(seed, round_no))
            accepted_this_round = sum(handle(g_rows, g_cols) for g_rows, g_cols in groups)
        if accepted_this_round == 0:
            accepted_this_round = handle(active_rows, active_cols)
        trace.append(
            {
                "round": round_no,
                "util_factor": util_factor,
                "accepted": accepted_this_round,
                "residual_before": nnz_before,
                "residual_after": int(residual.sum()),
            }
        )
        if accepted_this_round == 0:
            util_factor *= cfg.decay_rate
            if util_factor < cfg.min_util_factor:
                break
    return owner


def random_config(rng, crossbar):
    base = float(rng.uniform(0.4, 1.0))
    return SizeClusterConfig(
        crossbar_rows=crossbar[0],
        crossbar_cols=crossbar[1],
        base_util_factor=base,
        min_util_factor=float(rng.uniform(0.1, base)),
        decay_rate=float(rng.uniform(0.5, 0.95)),
        max_rounds=int(rng.integers(1, 13)),
    )


def oracle_cases():
    """(bits, cfg, seed) triples: 100 small crossbars, 40 at 16x16, 40 narrow, 40 complete or fitting."""
    rng = np.random.default_rng(2024)
    cases = []
    for _ in range(100):  # crossbars 1x1 to 9x9, densities 0.05-1.0
        shape = tuple(int(v) for v in rng.integers(1, 25, size=2))
        bits = (rng.random(shape) < rng.uniform(0.05, 1.0)).astype(np.uint8)
        cases.append((bits, random_config(rng, tuple(int(v) for v in rng.integers(1, 10, size=2)))))
    for _ in range(40):  # 16x16 crossbars on residuals that overflow them
        shape = tuple(int(v) for v in rng.integers(17, 56, size=2))
        bits = (rng.random(shape) < rng.uniform(0.05, 1.0)).astype(np.uint8)
        cases.append((bits, random_config(rng, (16, 16))))
    for _ in range(40):  # two or three rows or cols on small crossbars: the cap at min(m, n) sets k
        shape = (int(rng.integers(2, 4)), int(rng.integers(20, 60)))
        bits = (rng.random(shape) < rng.uniform(0.3, 0.9)).astype(np.uint8)
        crossbar = (1, int(rng.integers(1, 4)))
        if rng.random() < 0.5:
            bits, crossbar = bits.T.copy(), crossbar[::-1]
        cases.append((bits, random_config(rng, crossbar)))
    for i in range(40):  # complete blocks, and residuals that fit one crossbar
        crossbar = tuple(int(v) for v in rng.integers(1, 10, size=2))
        if i % 2:
            shape = (int(rng.integers(1, crossbar[0] + 1)), int(rng.integers(1, crossbar[1] + 1)))
            bits = (rng.random(shape) < rng.uniform(0.05, 1.0)).astype(np.uint8)
        else:
            bits = np.ones(tuple(int(v) for v in rng.integers(1, 30, size=2)), dtype=np.uint8)
            if i % 4:  # a complete block inside stray synapses
                bits = np.pad(bits, 4)
                bits[rng.random(bits.shape) < 0.02] = 1
        cases.append((bits, random_config(rng, crossbar)))
    return [(bits, cfg, seed) for seed, (bits, cfg) in enumerate(cases)]


class TestMatchesReference:
    def test_owner_and_trace_equal_on_seeded_cases(self):
        cases = oracle_cases()
        assert len(cases) == 220
        for bits, cfg, seed in cases:
            want_trace: list = []
            want = reference_size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed, want_trace)
            trace: list = []
            got = size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed, trace=trace)
            assert got.owner.tobytes() == want.tobytes(), (seed, bits.shape, cfg)
            # the loop may stop before the reference once no round can accept
            assert trace == want_trace[: len(trace)], (seed, bits.shape, cfg)
            assert all(r["accepted"] == 0 for r in want_trace[len(trace):]), (seed, bits.shape, cfg)

    def test_narrow_cases_never_ask_beyond_the_smaller_side(self, monkeypatch):
        # k is capped at the block's smaller side, so no solve asks for more pairs than B has
        widths = []

        def recording(b, k):
            widths.append(k > min(b.shape))
            return eig_smallest(b, k)

        monkeypatch.setattr(sizecluster, "eig_smallest", recording)
        for bits, cfg, seed in oracle_cases()[140:180]:
            size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed)
        assert widths and not any(widths)

    def test_loop_basis_seeds_the_second_vector_bit_for_bit(self, monkeypatch):
        # each basis is the eigenvectors of the block the loop gathered, and its
        # column 1 is what _second_vector would solve the same block for
        gathered, bases = [], []

        def recording_similarity(c):
            gathered.append(c)
            return build_similarity(c)

        def recording_cluster(rows, cols, vectors, seed):
            if not bases or bases[-1][0][2] is not vectors:  # a new basis, solved from the last gather
                bases.append(((rows, cols, vectors), gathered[-1], seed))
            return spectral_cluster(rows, cols, vectors, seed)

        monkeypatch.setattr(sizecluster, "build_similarity", recording_similarity)
        monkeypatch.setattr(sizecluster, "spectral_cluster", recording_cluster)
        seeded = 0
        for bits, cfg, seed in oracle_cases()[100:140]:
            bases.clear()
            size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed)
            for (rows, cols, vectors), block, round_seed in bases:
                if round_seed == seed_for(seed, 1):  # round 1 solves the whole matrix's active block
                    assert np.array_equal(rows, np.flatnonzero(bits.any(axis=1)))
                    assert np.array_equal(cols, np.flatnonzero(bits.any(axis=0)))
                    assert np.array_equal(block, bits[np.ix_(rows, cols)])
                assert block.shape == (len(rows), len(cols)) and block.any(axis=0).all() and block.any(axis=1).all()
                k = vectors.shape[1]
                assert 2 <= k <= min(block.shape)
                assert vectors.tobytes() == eig_smallest(build_similarity(block).values, k)[1].tobytes()
                seeded += 1
                assert vectors[:, 1].tobytes() == _second_vector(block).tobytes(), (seed, block.shape)
        assert seeded >= 20

    def test_split_oversized_matches_reference(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
            bits = (rng.random(shape) < rng.uniform(0.05, 1.0)).astype(np.uint8)
            rows = np.flatnonzero(rng.random(shape[0]) < 0.8)
            cols = np.flatnonzero(rng.random(shape[1]) < 0.8)
            cfg = SizeClusterConfig(*(int(v) for v in rng.integers(1, 8, size=2)))
            got = split_oversized(bits, rows, cols, cfg, _second_vector)
            want = reference_split_oversized(bits, rows, cols, cfg)
            assert [(r.tolist(), c.tolist()) for r, c, _ in got] == [(r.tolist(), c.tolist()) for r, c in want]


def random_split_case(rng):
    """(bits, rows, cols, cfg) of a random block of a random matrix, as the split tests draw them."""
    shape = tuple(int(v) for v in rng.integers(1, 30, size=2))
    bits = (rng.random(shape) < rng.uniform(0.05, 1.0)).astype(np.uint8)
    rows = np.flatnonzero(rng.random(shape[0]) < 0.8)
    cols = np.flatnonzero(rng.random(shape[1]) < 0.8)
    return bits, rows, cols, SizeClusterConfig(*(int(v) for v in rng.integers(1, 8, size=2)))


def as_lists(pieces):
    return [(r.tolist(), c.tolist(), n) for r, c, n in pieces]


def test_pieces_at_util_factor_zero_are_every_non_empty_tile_with_its_count():
    rng = np.random.default_rng(16)
    for _ in range(50):
        bits, rows, cols, cfg = random_split_case(rng)
        want = [(rc, cc, int(bits[np.ix_(rc, cc)].sum())) for rc, cc in reference_split_oversized(bits, rows, cols, cfg)]
        assert as_lists(split_oversized(bits, rows, cols, cfg, _second_vector, 0.0)) == as_lists(want)


def test_every_returned_piece_clears_util_factor():
    # the split keeps exactly the pieces whose n / crossbar_area reaches the threshold, in grid order;
    # a threshold equal to one piece's own utilization keeps that piece
    rng = np.random.default_rng(17)
    for _ in range(50):
        bits, rows, cols, cfg = random_split_case(rng)
        every = split_oversized(bits, rows, cols, cfg, _second_vector)
        fills = [n / cfg.crossbar_area for _, _, n in every]
        for util_factor in [float(rng.uniform(0.0, 1.0)), *fills[:3]]:
            got = split_oversized(bits, rows, cols, cfg, _second_vector, util_factor)
            assert all(n / cfg.crossbar_area >= util_factor for _, _, n in got)
            kept = [piece for piece, fill in zip(every, fills) if fill >= util_factor]
            assert as_lists(got) == as_lists(kept)


def block_key(block):
    return block.shape, np.ascontiguousarray(block).tobytes()


def record_solves(monkeypatch):
    """Patch the loop to record its solves: (residual block, its vectors) per residual state, and split blocks."""
    gathered, residuals, splits, counts = [], [], [], {"solves": 0, "kmeans": 0}

    def recording_similarity(c):
        gathered.append(c)
        return build_similarity(c)

    def recording_eig(b, k):
        counts["solves"] += 1
        return eig_smallest(b, k)

    def recording_cluster(rows, cols, vectors, seed):
        counts["kmeans"] += 1
        if not residuals or residuals[-1][1] is not vectors:  # a new residual state, solved from the last gather
            residuals.append((gathered[-1], vectors))
        return spectral_cluster(rows, cols, vectors, seed)

    def recording_second(block):
        splits.append(block_key(block))
        return _second_vector(block)

    monkeypatch.setattr(sizecluster, "build_similarity", recording_similarity)
    monkeypatch.setattr(sizecluster, "eig_smallest", recording_eig)
    monkeypatch.setattr(sizecluster, "spectral_cluster", recording_cluster)
    monkeypatch.setattr(sizecluster, "_second_vector", recording_second)
    return residuals, splits, counts


@pytest.mark.parametrize("case", range(6))
def test_each_residual_state_is_solved_once_within_one_call(monkeypatch, case):
    # residuals where rounds accept nothing: the next round runs k-means on the vectors already solved,
    # and the fallback orders the whole residual by their column 1. Only a group's split ordering may be
    # solved again, when k-means forms the same group in a later round
    rng = np.random.default_rng(100 + case)
    bits = (rng.random((48, 40)) < 0.3).astype(np.uint8)
    cfg = SizeClusterConfig(crossbar_rows=4 + case, crossbar_cols=4, min_util_factor=0.2)
    residuals, splits, counts = record_solves(monkeypatch)
    trace: list = []
    size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed=case, trace=trace)
    assert any(r["accepted"] == 0 for r in trace[:-1])  # some round left the residual to the next one
    solved = [block_key(block) for block, _ in residuals]
    assert len(set(solved)) == len(solved)
    assert counts["kmeans"] > len(residuals)  # so some round reused the vectors of an earlier one
    assert counts["solves"] == len(residuals) + len(splits)
    assert not set(solved) & set(splits)


@settings(max_examples=200, deadline=None)
@given(
    line=st.lists(st.booleans(), min_size=1, max_size=40).filter(any),
    at=st.integers(0, 5),
    n_lines=st.integers(1, 6),
    transpose=st.booleans(),
    crossbar=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    seed=st.integers(0, 3),
)
def test_a_one_line_active_block_is_complete_and_never_solved(line, at, n_lines, transpose, crossbar, seed):
    # the premise that keeps _derived_k's floor of 2 within the smaller side: a block with one active row
    # (or col) holds a synapse in every active col (or row) it has, so it is complete, and neither the
    # structure stage nor a split ordering solves it
    bits = np.zeros((max(n_lines, at + 1), len(line)), dtype=np.uint8)
    bits[at] = line
    bits = bits.T.copy() if transpose else bits
    active = bits[np.ix_(bits.any(axis=1), bits.any(axis=0))]
    assert 1 in active.shape and active.all()

    def refuse(*args):
        raise AssertionError("a one-line block was solved")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sizecluster, "eig_smallest", refuse)
        cfg = SizeClusterConfig(*crossbar, min_util_factor=0.1)
        cs = size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed)
        pieces = split_oversized(bits, np.arange(bits.shape[0]), np.arange(bits.shape[1]), cfg, refuse)
    check_contract(cs, ConnectivityMatrix(bits), cfg)
    assert sum(n for _, _, n in pieces) == int(bits.sum())


@given(nnz=st.integers(0, 10**6), m=st.integers(2, 2000), n=st.integers(2, 2000),
       crossbar=st.tuples(st.integers(1, 64), st.integers(1, 64)))
def test_derived_k_stays_within_the_smaller_side(nnz, m, n, crossbar):
    # the structure stage solves only blocks that are not complete, whose sides are both at least 2
    assert 2 <= _derived_k(nnz, m, n, SizeClusterConfig(*crossbar)) <= min(m, n)


def test_complete_matrix_clusters_into_index_tiles_without_a_solve(monkeypatch):
    calls = []

    def recording(b, k):
        calls.append(b.shape)
        return eig_smallest(b, k)

    monkeypatch.setattr(sizecluster, "eig_smallest", recording)
    cs = size_constrained_cluster(ConnectivityMatrix(np.ones((128, 128), dtype=np.uint8)), SizeClusterConfig(), seed=0)
    assert calls == []
    # cluster k owns tile k of the 8x8 grid of 16x16 index tiles, in row-major order
    tiles = np.arange(64, dtype=np.int32).reshape(8, 8)
    assert np.array_equal(cs.owner, np.repeat(np.repeat(tiles, 16, axis=0), 16, axis=1))


# -- candidates that no piece of can be accepted ------------------------------


def best_piece(bits, cfg):
    """The most synapses any crossbar-sized choice of rows and cols of ``bits`` holds, by brute force."""
    m, n = bits.shape
    return max(
        int(bits[np.ix_(rows, cols)].sum())
        for rows in itertools.combinations(range(m), min(m, cfg.crossbar_rows))
        for cols in itertools.combinations(range(n), min(n, cfg.crossbar_cols))
    )


def test_hopeless_bound_never_falls_below_the_best_piece():
    rng = np.random.default_rng(11)
    tight = 0
    for _ in range(40):
        bits = (rng.random(tuple(int(v) for v in rng.integers(1, 7, size=2))) < rng.uniform(0.1, 1.0)).astype(np.uint8)
        cfg = SizeClusterConfig(*(int(v) for v in rng.integers(1, 4, size=2)))
        best = best_piece(bits, cfg) / cfg.crossbar_area
        bound = sizecluster._best_fill(bits.sum(axis=1), bits.sum(axis=0), cfg)
        # the best piece clears a threshold of its own utilization, so the bound must not fall below it
        assert bound >= best, (bits, cfg)
        tight += bound == best
    assert tight > 0  # and the bound is often exactly the best piece


def skip_cases():
    """(bits, cfg, seed): random sparse matrices on several crossbars, and dense blocks with and without strays."""
    rng = np.random.default_rng(77)
    cases = []
    for i in range(24):
        shape = tuple(int(v) for v in rng.integers(20, 70, size=2))
        bits = (rng.random(shape) < rng.uniform(0.03, 0.35)).astype(np.uint8)
        crossbar = [(4, 4), (8, 8), (16, 16), (8, 4)][i % 4]
        cases.append((bits, random_config(rng, crossbar), i))
    dense = np.ones((64, 48), dtype=np.uint8)
    strays = np.pad(dense, 6)
    strays[rng.random(strays.shape) < 0.03] = 1
    for i, bits in enumerate((dense, strays)):
        cases.append((bits, SizeClusterConfig(crossbar_rows=16, crossbar_cols=8, min_util_factor=0.2), 100 + i))
    return cases


def test_skipping_hopeless_candidates_changes_nothing(monkeypatch):
    # lifting the bound to 1 turns off the stop, the round skip and the candidate skip at once;
    # the rounds the bound cuts off accept nothing, and the ones it keeps log the same
    solves = []

    def counting(b, k):
        solves[-1] += 1
        return eig_smallest(b, k)

    monkeypatch.setattr(sizecluster, "eig_smallest", counting)
    runs = []
    for lift in (False, True):
        if lift:
            monkeypatch.setattr(sizecluster, "_best_fill", lambda *args: 1.0)
        results = []
        for bits, cfg, seed in skip_cases():
            solves.append(0)
            trace: list = []
            cs = size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed, trace=trace)
            results.append((cs.owner.tobytes(), trace))
        runs.append(results)
    for i, ((owner, trace), (want_owner, want_trace)) in enumerate(zip(*runs)):
        assert owner == want_owner, skip_cases()[i][1:]
        assert trace == want_trace[: len(trace)], skip_cases()[i][1:]
        assert all(r["accepted"] == 0 for r in want_trace[len(trace):]), skip_cases()[i][1:]
    n = len(skip_cases())
    assert sum(solves[:n]) < sum(solves[n:])  # the bound skipped candidates that would have been ordered
    assert any(len(got[1]) < len(want[1]) for got, want in zip(*runs))  # and stopped loops early


def test_hopeless_candidate_is_never_ordered():
    rng = np.random.default_rng(3)
    bits = (rng.random((48, 40)) < 0.1).astype(np.uint8)
    rows, cols = np.arange(48), np.arange(40)
    cfg = SizeClusterConfig()
    calls = []

    def recording(block):
        calls.append(block.shape)
        return _second_vector(block)

    assert split_oversized(bits, rows, cols, cfg, recording, util_factor=0.8) == []
    assert calls == []
    assert split_oversized(bits, rows, cols, cfg, recording)  # the same block is oversized
    assert len(calls) == 1


def test_hopeless_rounds_seek_nothing_and_decay(monkeypatch):
    # no 16x16 piece of this residual can hold 0.4 * 256 synapses, so no round runs:
    # nothing is solved, no k-means runs and the threshold is never decayed
    rng = np.random.default_rng(3)
    bits = (rng.random((48, 40)) < 0.1).astype(np.uint8)
    calls = []
    monkeypatch.setattr(sizecluster, "eig_smallest", lambda b, k: calls.append("solve"))
    monkeypatch.setattr(sizecluster, "spectral_cluster", lambda rows, cols, vectors, seed: calls.append("kmeans"))
    trace: list = []
    cs = size_constrained_cluster(ConnectivityMatrix(bits), SizeClusterConfig(), seed=0, trace=trace)
    assert calls == [] and cs.n_clusters == 0 and trace == []
