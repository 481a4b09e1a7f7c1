"""Iterative clustering: acceptance thresholds, splitting, the candidate path, determinism."""

import itertools

import numpy as np
import pytest

from xbarnet import sizecluster, spectral
from xbarnet.connectivity import ClusterSet, ConnectivityMatrix
from xbarnet.sizecluster import SizeClusterConfig, _derived_k, _second_vector, size_constrained_cluster, split_oversized
from xbarnet.spectral import build_similarity, eig_smallest, kmeans, row_normalize
from xbarnet.util import seed_for


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


# -- reference: the loop as it was before it kept what it had solved --------
#
# Every round solved the residual afresh, and every split ordering solved its
# block afresh. The current loop must give the same owner matrix and trace.
# A complete block is ordered by index: it has no cut for an eigenvector to
# find, and every order fills every piece.


def reference_spectral_cluster(c, k, seed):
    rows = np.flatnonzero(c.bits.any(axis=1))
    cols = np.flatnonzero(c.bits.any(axis=0))
    if k > len(rows) + len(cols):
        raise ValueError(f"k={k} exceeds the {len(rows) + len(cols)} non-isolated nodes")
    block = ConnectivityMatrix(c.bits[np.ix_(rows, cols)])
    _, vectors = eig_smallest(build_similarity(block).values, k)
    labels = kmeans(row_normalize(vectors), k, seed)
    row_labels, col_labels = labels[: len(rows)], labels[len(rows) :]
    return [(rows[row_labels == g], cols[col_labels == g]) for g in range(k)]


def reference_spectral_order(bits, rows, cols):
    if bits[np.ix_(rows, cols)].all():
        return np.sort(rows), np.sort(cols)
    m = len(rows)
    b = build_similarity(ConnectivityMatrix(bits[np.ix_(rows, cols)])).values
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
            k = _derived_k(nnz_before, len(active_rows) + len(active_cols), cfg)
            groups = reference_spectral_cluster(ConnectivityMatrix(residual), k, seed_for(seed, round_no))
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
    for _ in range(40):  # two or three rows or cols: k exceeds min(m, n) on small crossbars
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

    def test_narrow_cases_take_the_full_svd_path(self, monkeypatch):
        # the oracle cases above must reach k > min(m, n) in the structure stage
        widths = []

        def recording(b, k):
            widths.append(k > min(b.shape))
            return eig_smallest(b, k)

        monkeypatch.setattr(spectral, "eig_smallest", recording)
        for bits, cfg, seed in oracle_cases()[140:180]:
            size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed)
        assert any(widths)

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


@pytest.mark.parametrize("case", range(6))
def test_no_eigensolve_repeats_within_one_call(monkeypatch, case):
    # residuals where rounds accept nothing: the loop used to solve them again
    rng = np.random.default_rng(100 + case)
    bits = (rng.random((48, 40)) < 0.3).astype(np.uint8)
    cfg = SizeClusterConfig(crossbar_rows=4 + case, crossbar_cols=4, min_util_factor=0.2)
    seen = []

    def recording(b, k):
        seen.append((b.shape, np.ascontiguousarray(b).tobytes(), k))
        return eig_smallest(b, k)

    monkeypatch.setattr(spectral, "eig_smallest", recording)
    monkeypatch.setattr(sizecluster, "eig_smallest", recording)
    trace: list = []
    size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed=case, trace=trace)
    assert any(r["accepted"] == 0 for r in trace[:-1])  # some round left the residual to the next one
    assert len(seen) - len(set(seen)) == 0


def test_complete_matrix_clusters_into_index_tiles_without_a_solve(monkeypatch):
    calls = []

    def recording(b, k):
        calls.append(b.shape)
        return eig_smallest(b, k)

    monkeypatch.setattr(spectral, "eig_smallest", recording)
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
        best = best_piece(bits, cfg)
        rc, cc = bits.sum(axis=1), bits.sum(axis=0)
        # the best piece itself clears a threshold of its own utilization, so that threshold is not hopeless
        assert not sizecluster._hopeless(rc, cc, cfg, best / cfg.crossbar_area), (bits, cfg)
        tight += sizecluster._hopeless(rc, cc, cfg, np.nextafter(best / cfg.crossbar_area, 2))
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
    fired = []
    hopeless = sizecluster._hopeless

    def counting(*args):
        fired.append(hopeless(*args))
        return fired[-1]

    runs = []
    for patch in (counting, lambda *args: False):
        monkeypatch.setattr(sizecluster, "_hopeless", patch)
        results = []
        for bits, cfg, seed in skip_cases():
            trace: list = []
            cs = size_constrained_cluster(ConnectivityMatrix(bits), cfg, seed, trace=trace)
            results.append((cs.owner.tobytes(), trace))
        runs.append(results)
    assert any(fired) and not all(fired)
    for i, (got, want) in enumerate(zip(*runs)):
        assert got == want, skip_cases()[i][1:]


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
    # no 16x16 piece of this residual can hold 0.4 * 256 synapses, but the loop's exit bound
    # (min(nnz, 16 * 16)) lets it run, so every round must decay without a solve or k-means
    rng = np.random.default_rng(3)
    bits = (rng.random((48, 40)) < 0.1).astype(np.uint8)
    calls = []
    monkeypatch.setattr(sizecluster, "_second_vector", lambda block: calls.append("split"))
    monkeypatch.setattr(sizecluster, "spectral_basis", lambda c, k: calls.append("basis"))
    monkeypatch.setattr(sizecluster, "spectral_cluster", lambda basis, seed: calls.append("kmeans"))
    trace: list = []
    cs = size_constrained_cluster(ConnectivityMatrix(bits), SizeClusterConfig(), seed=0, trace=trace)
    assert calls == [] and cs.n_clusters == 0
    assert len(trace) == 7 and all(r["accepted"] == 0 and r["residual_after"] == bits.sum() for r in trace)
    assert [r["util_factor"] for r in trace] == pytest.approx([0.8 * 0.9**i for i in range(7)])
