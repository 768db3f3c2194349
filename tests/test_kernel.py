"""Kernel equivalence against dense-masked oracles, locality at the bit level,
the score-buffer contract, refusal of overflowing scores on both sides of
the per-call overflow bound, huge values summed without overflow, property
tests of the band geometry and of the plan, and bands run on several
threads changing no bit."""

import os
import sys
import threading
import time
import tracemalloc
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefix_global import cost, kernel
from prefix_global.kernel import (
    KernelStats,
    block_average,
    sparse_attention,
    tglobal_attention,
)
from prefix_global.numcore import ShapeError, dense_attention
from prefix_global.patterns import (
    PatternError,
    build_mask,
    full,
    local,
    prefix_global,
    tglobal,
)


def rng(seed):
    return np.random.default_rng(seed)


def make_qkv(g, l, d, d_v=None, side=0):
    """q of l rows; k and v of l + side rows, the side keys last, as the mask orders them."""
    return (
        g.normal(size=(l, d)),
        g.normal(size=(l + side, d)),
        g.normal(size=(l + side, d_v or d)),
    )


def make_pattern(kind, l, r, k_len, block):
    return {
        "full": lambda: full(l),
        "local": lambda: local(l, r=r),
        "tglobal": lambda: tglobal(l, r=r, block=block),
        "prefix-global": lambda: prefix_global(l, k=k_len, r=r),
    }[kind]()


def dense_oracle(q, k, v, pattern, scale=True):
    mask = build_mask(pattern).to_additive()
    return dense_attention(q, k, v, mask, scale_by_sqrt_d=scale)


def loop_block_average(emb, block):
    out = []
    for start in range(0, len(emb), block):
        rows = emb[start : start + block]
        out.append(sum(rows) / len(rows))
    return np.array(out)


class TestSparseMatchesDense:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize(
        "make",
        [
            lambda l: full(l),
            lambda l: local(l, r=0),
            lambda l: local(l, r=3),
            lambda l: local(l, r=500),
            lambda l: prefix_global(l, k=0, r=2),
            lambda l: prefix_global(l, k=8, r=3),
            lambda l: prefix_global(l, k=l, r=1),
        ],
        ids=["full", "local-r0", "local-r3", "local-wide", "pg-k0", "pg-k8", "pg-kl"],
    )
    @pytest.mark.parametrize("l", [16, 130, 256])
    def test_equivalence(self, seed, make, l):
        g = rng((seed, l))
        q, k, v = make_qkv(g, l, 8, d_v=5)
        pattern = make(l)
        got = sparse_attention(q, k, v, pattern)
        want = dense_oracle(q, k, v, pattern)
        assert np.abs(got - want).max() < 1e-9

    def test_pinned_case_pg_64_8_3(self):
        g = rng(64)
        q, k, v = make_qkv(g, 64, 8)
        pattern = prefix_global(64, k=8, r=3)
        got = sparse_attention(q, k, v, pattern)
        want = dense_oracle(q, k, v, pattern)
        assert np.abs(got - want).max() < 1e-9

    def test_prefix_equals_length_means_unmasked_dense(self):
        g = rng(1)
        q, k, v = make_qkv(g, 32, 8)
        got = sparse_attention(q, k, v, prefix_global(32, k=32, r=1))
        want = dense_attention(q, k, v, np.zeros((32, 32)))
        assert np.abs(got - want).max() < 1e-9

    def test_local_radius_zero_is_copy(self):
        g = rng(2)
        q, k, v = make_qkv(g, 40, 6)
        out = sparse_attention(q, k, v, local(40, r=0))
        np.testing.assert_array_equal(out, v)

    def test_unscaled_matches_unscaled_oracle(self):
        g = rng(3)
        q, k, v = make_qkv(g, 48, 4)
        pattern = prefix_global(48, k=5, r=2)
        got = sparse_attention(q, k, v, pattern, scale_by_sqrt_d=False)
        want = dense_oracle(q, k, v, pattern, scale=False)
        assert np.abs(got - want).max() < 1e-9
        scaled = sparse_attention(q, k, v, pattern)
        assert np.abs(got - scaled).max() > 1e-6

    def test_band_boundaries_exercised(self):
        # l spans multiple 128-row bands with a ragged tail
        g = rng(4)
        l = 2 * kernel.ROW_BLOCK + 37
        q, k, v = make_qkv(g, l, 4)
        pattern = prefix_global(l, k=130, r=9)
        got = sparse_attention(q, k, v, pattern)
        want = dense_oracle(q, k, v, pattern)
        assert np.abs(got - want).max() < 1e-9


class TestTGlobal:
    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("l,r,block", [(32, 1, 16), (16, 2, 4), (100, 5, 16), (130, 0, 7)])
    def test_matches_append_rows_oracle(self, seed, l, r, block):
        g = rng((seed, l, block))
        d_model = 6
        q, k, v = make_qkv(g, l, 4, d_v=3)
        emb = g.normal(size=(l, d_model))
        kp = g.normal(size=(d_model, 4))
        vp = g.normal(size=(d_model, 3))
        pattern = tglobal(l, r=r, block=block)
        got = tglobal_attention(q, k, v, pattern, emb, kp, vp)
        averaged = loop_block_average(emb, block)
        want = dense_oracle(q, np.vstack([k, averaged @ kp]), np.vstack([v, averaged @ vp]), pattern)
        assert np.abs(got - want).max() < 1e-9

    def test_single_block_wide_radius_sees_mean_token(self):
        # one transient slot equal to the mean embedding; window covers all
        g = rng(10)
        l = 16
        q, k, v = make_qkv(g, l, 4)
        emb = g.normal(size=(l, 5))
        kp = g.normal(size=(5, 4))
        vp = g.normal(size=(5, 4))
        pattern = tglobal(l, r=l, block=l)
        got = tglobal_attention(q, k, v, pattern, emb, kp, vp)
        k_ext = np.vstack([k, emb.mean(axis=0) @ kp])
        v_ext = np.vstack([v, emb.mean(axis=0) @ vp])
        want = dense_attention(q, k_ext, v_ext, np.zeros((l, l + 1)))
        assert np.abs(got - want).max() < 1e-9

    def test_constant_embeddings_renormalize_uniformly(self):
        # constant embeddings make every key (real or transient) identical,
        # so weights are uniform over window size + side count
        l, r, block = 12, 2, 4
        c = np.full(5, 0.7)
        emb = np.tile(c, (l, 1))
        g = rng(11)
        kp = g.normal(size=(5, 4))
        vp = g.normal(size=(5, 3))
        q = g.normal(size=(l, 4))
        k = emb @ kp
        v = g.normal(size=(l, 3))
        side_v = c @ vp
        pattern = tglobal(l, r=r, block=block)
        got = tglobal_attention(np.asarray(q), k, v, pattern, emb, kp, vp)
        side = pattern.side_keys
        for i in range(l):
            lo, hi = max(0, i - r), min(l - 1, i + r)
            n = (hi - lo + 1) + side
            want = (v[lo : hi + 1].sum(axis=0) + side * side_v) / n
            np.testing.assert_allclose(got[i], want, atol=1e-9)

    def test_side_slots_are_not_queries(self):
        g = rng(12)
        q, k, v = make_qkv(g, 20, 4)
        emb = g.normal(size=(20, 4))
        out = tglobal_attention(q, k, v, tglobal(20, r=1, block=8), emb, np.eye(4), np.eye(4))
        assert out.shape == (20, 4)


class TestBlockAverage:
    def test_ragged_tail(self):
        emb = np.arange(10.0).reshape(5, 2)
        got = block_average(emb, 2)
        np.testing.assert_allclose(got, [[1.0, 2.0], [5.0, 6.0], [8.0, 9.0]])

    def test_block_larger_than_input(self):
        emb = np.arange(6.0).reshape(3, 2)
        np.testing.assert_allclose(block_average(emb, 16), [[2.0, 3.0]])

    @pytest.mark.parametrize("l,block", [(1, 1), (7, 3), (16, 16), (33, 16)])
    def test_matches_loop(self, l, block):
        g = rng((l, block))
        emb = g.normal(size=(l, 3))
        np.testing.assert_allclose(block_average(emb, block), loop_block_average(emb, block), atol=1e-12)


class TestLocality:
    def test_permuting_out_of_set_keys_is_invisible_bitwise(self):
        g = rng(20)
        l, k_len, r = 40, 6, 3
        q, k, v = make_qkv(g, l, 5)
        pattern = prefix_global(l, k=k_len, r=r)
        base = sparse_attention(q, k, v, pattern)
        # query 30 sees {0..5} and {27..33}; shuffle rows 10..20 of k and v
        perm = np.arange(l)
        perm[10:21] = perm[10:21][::-1]
        moved = sparse_attention(q, k[perm], v[perm], pattern)
        assert base[30].tobytes() == moved[30].tobytes()
        assert not np.array_equal(base[15], moved[15])  # permutation was real

    def test_out_of_window_value_perturbation_is_exactly_zero(self):
        g = rng(21)
        l = 48
        q, k, v = make_qkv(g, l, 4)
        pattern = prefix_global(l, k=4, r=2)
        base = sparse_attention(q, k, v, pattern)
        v2 = v.copy()
        v2[40] += 100.0
        k2 = k.copy()
        k2[40] -= 17.0
        moved = sparse_attention(q, k2, v2, pattern)
        assert base[10].tobytes() == moved[10].tobytes()
        assert not np.array_equal(base[40], moved[40])

    @pytest.mark.parametrize("pattern", [local(300, r=2), prefix_global(300, k=10, r=2),
                                         tglobal(300, r=2, block=16)], ids=lambda p: p.kind.value)
    def test_out_of_window_key_whose_exp_overflows_is_invisible_bitwise(self, pattern):
        # d = 1 and q = 1, so a score is k_j. Key 150 scores 1000 and every other
        # token key at most 1: in rows 128..255, whose tile spans key 150, a row
        # outside its window has s - max > 709, so exp overflows before the weight
        # is zeroed. The call is not refused, and those rows do not move a bit
        g = rng(23)
        q = np.ones((pattern.l, 1))
        k = g.uniform(-1.0, 1.0, size=(pattern.n_keys, 1))
        v = g.normal(size=(pattern.n_keys, 3))
        hot = k.copy()
        hot[150] = 1000.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = sparse_attention(q, k, v, pattern)
            got = sparse_attention(q, hot, v, pattern)
        sees = np.array([150 in row for row in build_mask(pattern).rows])
        assert sees[148:153].all() and not sees[128:148].any() and not sees[153:256].any()
        assert got[~sees].tobytes() == base[~sees].tobytes()
        assert np.abs(got[sees] - dense_oracle(q, hot, v, pattern)[sees]).max() < 1e-9
        np.testing.assert_array_equal(got[148:153], np.tile(v[150], (5, 1)))

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 299), st.integers(0, 5), st.integers(1014, 1023))
    @example(200, 2, 1014)  # the guard once scaled all of v: 287 of the 295 rows that do not see key 200 moved
    @example(200, 2, 1020)  # a band that spans key 200 scales, and no other band may
    def test_a_huge_value_moves_no_bit_of_a_band_that_does_not_hold_it(self, j, r, e):
        # every value is 3 x the smallest subnormal but v[j] = 1.5 x 2^e, so the
        # call's v guard fires: 300 keys x 2^(e + 1) could pass DBL_MAX. A band's
        # keys are its own ROW_BLOCK rows' windows, at most 138 here, so each
        # band bounds its own sum: at e = 1014 none scales and no row that does
        # not see key j moves a bit; at any e, no row of a band whose keys do not
        # hold key j does
        l = 300
        pattern = local(l, r=r)
        q, k, _ = make_qkv(rng(44), l, 4)
        tiny = np.full((l, 2), 3 * 2.0**-1074)
        huge = tiny.copy()
        huge[j] = 1.5 * 2.0**e
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = sparse_attention(q, k, tiny, pattern)
            got = sparse_attention(q, k, huge, pattern)
        rows = np.arange(l)
        b0 = rows // kernel.ROW_BLOCK * kernel.ROW_BLOCK
        holds = (b0 - r <= j) & (j < np.minimum(b0 + kernel.ROW_BLOCK, l) + r)
        sees = np.abs(rows - j) <= r
        assert (base != 0.0).all()
        assert got[~holds].tobytes() == base[~holds].tobytes()
        if e == 1014:
            assert got[~sees].tobytes() == base[~sees].tobytes()
        want = dense_oracle(q, k, huge, pattern)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    def test_prefix_key_perturbation_reaches_every_row(self):
        g = rng(22)
        l = 48
        q, k, v = make_qkv(g, l, 4)
        pattern = prefix_global(l, k=4, r=2)
        base = sparse_attention(q, k, v, pattern)
        k2 = k.copy()
        k2[2] += 1.0
        moved = sparse_attention(q, k2, v, pattern)
        assert (base != moved).any(axis=1).all()


class TestBufferContract:
    def test_full_materializes_one_grid(self):
        # at l <= ROW_BLOCK full's one band scores its l x l grid in one block
        g = rng(30)
        q, k, v = make_qkv(g, 64, 4)
        stats = KernelStats()
        sparse_attention(q, k, v, full(64), stats=stats)
        assert stats.peak_score_elements == 64 * 64
        assert stats.score_blocks == 1

    def test_full_workers_hold_no_l_by_l_grid(self):
        # full runs in ROW_BLOCK-row bands, each worker scoring into its own
        # ROW_BLOCK x l buffer: three workers hold far less than one l x l grid
        l = 2048
        q, k, v = make_qkv(rng(34), l, 4)
        stats = KernelStats()
        with with_workers(3):
            tracemalloc.start()
            try:
                sparse_attention(q, k, v, full(l), stats=stats)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert stats.peak_score_elements == kernel.ROW_BLOCK * l and stats.score_blocks == l // kernel.ROW_BLOCK
        assert peak < 8 * l * l / 4

    def test_prefix_global_peak_below_full_baseline(self):
        g = rng(31)
        q4, k4, v4 = make_qkv(g, 4096, 4)
        pg_stats = KernelStats()
        sparse_attention(q4, k4, v4, prefix_global(4096, k=512, r=127), stats=pg_stats)
        q2, k2, v2 = make_qkv(g, 2048, 4)
        full_stats = KernelStats()
        sparse_attention(q2, k2, v2, full(2048), stats=full_stats)
        assert full_stats.peak_score_elements == kernel.ROW_BLOCK * 2048
        assert pg_stats.peak_score_elements < full_stats.peak_score_elements
        # prefix rows are tiled over keys, so the widest buffer is one window
        # band, ROW_BLOCK * (ROW_BLOCK + 2r + k), whatever l is
        assert pg_stats.peak_score_elements == kernel.ROW_BLOCK * (kernel.ROW_BLOCK + 2 * 127 + 512)

    def test_local_buffers_bounded_by_band_and_window(self):
        g = rng(32)
        l, r = 1024, 9
        q, k, v = make_qkv(g, l, 4)
        stats = KernelStats()
        sparse_attention(q, k, v, local(l, r=r), stats=stats)
        assert stats.peak_score_elements <= kernel.ROW_BLOCK * (2 * r + kernel.ROW_BLOCK)
        assert stats.score_blocks == l // kernel.ROW_BLOCK

    def test_tglobal_buffers_never_square(self):
        g = rng(33)
        l = 512
        pattern = tglobal(l, r=8, block=16)
        q, k, v = make_qkv(g, l, 4, side=pattern.side_keys)
        stats = KernelStats()
        sparse_attention(q, k, v, pattern, stats=stats)
        assert stats.peak_score_elements < l * l


class TestOnlineSoftmax:
    """Prefix rows are scored in key tiles of width ROW_BLOCK + 2r + k and
    folded into a running max, sum and output. With l=600, k=8, r=2 the
    tiles are [0, 140), [140, 280), [280, 420), [420, 560), [560, 600)."""

    L, K_LEN, R = 600, 8, 2

    def qkv_with_hot_key(self, hot, gap):
        # d = 1, so a score is q_i * k_j unscaled; every prefix row has q = 1
        # and its maximum at key `hot`, about `gap` above every other key
        g = rng((hot, int(gap)))
        q = np.where(g.random((self.L, 1)) < 0.5, 1.0, -1.0)
        q[: self.K_LEN] = 1.0
        k = g.uniform(-1.0, 1.0, size=(self.L, 1))
        k[hot] = gap
        return q, k, g.normal(size=(self.L, 3))

    @pytest.mark.parametrize("gap", [20.0, 800.0])
    @pytest.mark.parametrize("hot", [590, 3], ids=["max-in-last-tile", "max-in-first-tile"])
    def test_distant_maximum_matches_dense(self, hot, gap):
        # gap 800: the other tiles' weights underflow to 0, whether they come
        # before the maximum's tile (rescaled away) or after it
        q, k, v = self.qkv_with_hot_key(hot, gap)
        pattern = prefix_global(self.L, k=self.K_LEN, r=self.R)
        stats = KernelStats()
        got = sparse_attention(q, k, v, pattern, stats=stats)
        want = dense_oracle(q, k, v, pattern)
        assert np.abs(got - want).max() < 1e-9
        # the 8 prefix rows are one band of 5 tiles; the other 592 rows, 5 window bands
        assert stats.score_blocks == 5 + 5
        if gap == 800.0:
            np.testing.assert_array_equal(got[: self.K_LEN], np.tile(v[hot], (self.K_LEN, 1)))

    def test_overflow_only_in_last_tile_refused_without_warning(self):
        g = rng(41)
        q = np.ones((self.L, 1))
        q[: self.K_LEN] = 1e10
        k = g.normal(size=(self.L, 1))
        k[590] = 1e300  # only a prefix row's q . k overflows, and only in its last tile
        v = g.normal(size=(self.L, 3))
        pattern = prefix_global(self.L, k=self.K_LEN, r=self.R)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                sparse_attention(q, k, v, pattern)
            with pytest.raises(ValueError):
                dense_oracle(q, k, v, pattern)

    @pytest.mark.parametrize("pattern", [full(4), local(4, r=3), prefix_global(300, k=20, r=5),
                                         tglobal(300, r=5, block=7)], ids=lambda p: p.kind.value)
    def test_huge_values_do_not_overflow_the_weighted_sum(self, pattern):
        # every weight is 1 before the division by the row sum, so summing
        # (keys) x 1e308 would overflow; the output is an average of values
        n_keys = pattern.l + pattern.side_keys
        q, k = np.zeros((pattern.l, 3)), np.zeros((n_keys, 3))
        mixed = rng(42).uniform(-1.0, 1.0, size=(n_keys, 2)) * 1.7e308
        for v in (np.full((n_keys, 2), 1e308), mixed):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = sparse_attention(q, k, v, pattern)
            want = dense_oracle(q, k, v, pattern)
            assert np.isfinite(got).all()
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("pattern", [local(300, r=2), tglobal(300, r=2, block=16)], ids=lambda p: p.kind.value)
    def test_values_below_the_guard_are_not_scaled(self, pattern):
        # the weighted sum of n_keys values below 2^e cannot pass DBL_MAX while
        # e + n_keys.bit_length() <= 1023, so v is not scaled; a scaled v would
        # round these subnormal values, and the rows that never see v[200] would
        # move. 300 keys have a 9-bit count, so 1.5 x 2^1013 < 2^1014 is the
        # largest binade left unscaled
        n_keys = pattern.l + pattern.side_keys
        assert n_keys.bit_length() == 9
        q, k, _ = make_qkv(rng(43), pattern.l, 4, side=pattern.side_keys)
        tiny = np.full((n_keys, 2), 3 * 2.0**-1074)  # 3 times the smallest subnormal
        huge = tiny.copy()
        huge[200] = 1.5 * 2.0**1013
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = sparse_attention(q, k, tiny, pattern)
            got = sparse_attention(q, k, huge, pattern)
        sees = np.array([200 in row for row in build_mask(pattern).rows])
        assert not sees.all() and (base[~sees] != 0.0).any()
        assert got[~sees].tobytes() == base[~sees].tobytes()
        want = dense_oracle(q, k, huge, pattern)
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


class TestMaskCache:
    @pytest.mark.parametrize("l", [100, 300])
    def test_calls_share_no_state(self, l):
        # window masks are views of one mask built per call; a mask that
        # outlived a call, or was built without r, would mask these
        # wrongly (at l=100 every pattern is one band of l rows and l keys)
        q, k, v = make_qkv(rng((50, l)), l, 4)
        for pattern in (local(l, r=3), local(l, r=5), prefix_global(l, k=20, r=3), prefix_global(l, k=l // 2, r=3)):
            got = sparse_attention(q, k, v, pattern)
            assert np.abs(got - dense_oracle(q, k, v, pattern)).max() < 1e-9
        pattern = prefix_global(l, k=20, r=3)
        assert sparse_attention(q, k, v, pattern).tobytes() == sparse_attention(q, k, v, pattern).tobytes()

    @pytest.mark.parametrize("pattern", [local(4096, r=4096), prefix_global(4096, k=512, r=4096)],
                             ids=["local", "prefix-global"])
    def test_window_masks_take_less_than_a_score_block(self, pattern):
        # every window tile's mask is a view of one mask per call; one mask per
        # band geometry gave each band its own once r >= l, 16 MB at l = 4096
        q, k, v = make_qkv(rng(0), pattern.l, 4)
        stats = KernelStats()
        with with_workers(1):
            tracemalloc.start()
            try:
                sparse_attention(q, k, v, pattern, stats=stats)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak <= 2 * 8 * stats.peak_score_elements  # twice the one float64 score buffer


class TestValidation:
    def test_tglobal_pattern_rejected_by_sparse(self):
        # a tglobal k and v without their side rows: the kernel names both row
        # counts, and the oracle refuses them through the mask's shape
        q, k, v = np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2))
        pattern = tglobal(4, r=1, block=2)
        with pytest.raises(ShapeError, match="4 query rows and 6 key rows, got 4 and 4"):
            sparse_attention(q, k, v, pattern)
        with pytest.raises(ShapeError):
            dense_oracle(q, k, v, pattern)

    @pytest.mark.parametrize("pattern", [full(4), local(4, r=1), prefix_global(4, k=1, r=1), tglobal(4, r=1, block=2)],
                             ids=["full", "local", "prefix-global", "tglobal"])
    def test_extra_key_rows_refused(self, pattern):
        n_keys = 4 + pattern.side_keys
        q, k, v = np.ones((4, 2)), np.ones((n_keys + 1, 2)), np.ones((n_keys + 1, 2))
        with pytest.raises(ShapeError, match=f"{n_keys} key rows, got 4 and {n_keys + 1}"):
            sparse_attention(q, k, v, pattern)
        with pytest.raises(ShapeError):
            dense_oracle(q, k, v, pattern)

    def test_non_tglobal_rejected_by_tglobal(self):
        with pytest.raises(PatternError):
            tglobal_attention(
                np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2)), full(4),
                np.ones((4, 2)), np.eye(2), np.eye(2),
            )

    def test_row_count_mismatch(self):
        with pytest.raises(ShapeError):
            sparse_attention(np.ones((5, 2)), np.ones((4, 2)), np.ones((4, 2)), full(4))

    def test_q_k_width_mismatch(self):
        with pytest.raises(ShapeError):
            sparse_attention(np.ones((4, 3)), np.ones((4, 2)), np.ones((4, 2)), full(4))

    @pytest.mark.parametrize("n_keys", [3, 5, 6], ids=["short", "long", "with-side-rows"])
    def test_tglobal_attention_takes_token_rows_only(self, n_keys):
        with pytest.raises(ShapeError, match=f"l=4 rows, without side rows, got {n_keys}"):
            tglobal_attention(
                np.ones((4, 2)), np.ones((n_keys, 2)), np.ones((n_keys, 2)), tglobal(4, r=1, block=2),
                np.ones((4, 2)), np.eye(2), np.eye(2),
            )

    def test_embedding_rows_mismatch(self):
        with pytest.raises(ShapeError):
            tglobal_attention(
                np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2)), tglobal(4, r=1, block=2),
                np.ones((5, 2)), np.eye(2), np.eye(2),
            )

    def test_projection_shape_mismatch(self):
        with pytest.raises(ShapeError):
            tglobal_attention(
                np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2)), tglobal(4, r=1, block=2),
                np.ones((4, 3)), np.eye(2), np.eye(3),
            )

    def test_value_projection_shape_mismatch(self):
        # key_proj fits (d_model=3, d=2); value_proj must be (3, d_v=2), not (3, 3)
        with pytest.raises(ShapeError, match="value_proj"):
            tglobal_attention(
                np.ones((4, 2)), np.ones((4, 2)), np.ones((4, 2)), tglobal(4, r=1, block=2),
                np.ones((4, 3)), np.ones((3, 2)), np.eye(3),
            )

    @pytest.mark.parametrize("scale", [True, False], ids=["scaled", "unscaled"])
    def test_zero_width_queries_and_keys_rejected(self, scale):
        # the kernel and the oracle check operands in one place, so both refuse d = 0
        q, k, v = np.ones((4, 0)), np.ones((4, 0)), np.ones((4, 2))
        with pytest.raises(ShapeError, match="d must be >= 1"):
            sparse_attention(q, k, v, full(4), scale_by_sqrt_d=scale)
        with pytest.raises(ShapeError, match="d must be >= 1"):
            dense_oracle(q, k, v, full(4), scale=scale)

    @pytest.mark.parametrize("side", ["keys", "values"])
    def test_non_finite_side_bank_refused(self, side):
        # finite embeddings and projections whose side keys or side values
        # overflow; the dense oracle refuses such a bank as a non-finite k or v
        g = rng(42)
        l, d = 64, 4
        q, k, v = make_qkv(g, l, d)
        emb = g.normal(size=(l, d)) * 1e200
        huge, tiny = 1e200 * np.eye(d), 1e-300 * np.eye(d)
        kp, vp = (huge, tiny) if side == "keys" else (tiny, huge)
        pattern = tglobal(l, r=3, block=8)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=f"side {side}"):
                tglobal_attention(q, k, v, pattern, emb, kp, vp)
            with np.errstate(over="ignore"), pytest.raises(ValueError):
                averaged = loop_block_average(emb, pattern.block)
                dense_oracle(q, np.vstack([k, averaged @ kp]), np.vstack([v, averaged @ vp]), pattern)

    def test_nan_inputs_rejected(self):
        q = np.ones((4, 2))
        q[0, 0] = np.nan
        with pytest.raises(ValueError):
            sparse_attention(q, np.ones((4, 2)), np.ones((4, 2)), full(4))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "+inf", "-inf"])
    @pytest.mark.parametrize("operand", [0, 1, 2], ids=["q", "k", "v"])
    @pytest.mark.parametrize("call", ["sparse", "tglobal"])
    def test_non_finite_operand_refused(self, call, operand, bad):
        # each operand is checked from one max and one min: NaN shows in both,
        # +inf in the max and -inf in the min (test_numcore checks the dense path)
        l = 300
        pattern = tglobal(l, r=3, block=16) if call == "tglobal" else prefix_global(l, k=20, r=3)
        operands = list(make_qkv(rng(44), l, 4, side=pattern.side_keys if call == "sparse" else 0))
        operands[operand][l // 2, 1] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="contains NaN or Inf"):
                if call == "sparse":
                    sparse_attention(*operands, pattern)
                else:
                    emb = rng(45).normal(size=(l, 4))
                    tglobal_attention(*operands, pattern, emb, np.eye(4), np.eye(4))

    @pytest.mark.parametrize("kind", ["full", "local", "tglobal", "prefix-global"])
    def test_overflowing_scores_refused_like_dense(self, kind):
        # finite inputs whose products overflow: q.k is about 1e320 > float64 max;
        # both paths refuse with ValueError and neither warns first
        l = 300
        pattern = make_pattern(kind, l, r=5, k_len=20, block=16)
        q, k, v = make_qkv(rng(40), l, 8, side=pattern.side_keys)
        q, k = q * 1e160, k * 1e160
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="non-finite"):
                sparse_attention(q, k, v, pattern)
            with pytest.raises(ValueError):
                dense_oracle(q, k, v, pattern)


@st.composite
def overflow_cases(draw):
    kind = draw(st.sampled_from(["full", "local", "tglobal", "prefix-global"]))
    l = draw(st.integers(1, 300))
    r = draw(st.one_of(st.integers(0, 16), st.integers(0, 2 * l)))
    k = draw(st.one_of(st.just(0), st.just(l), st.integers(0, l)))
    block = draw(st.integers(1, 2 * l))
    d = draw(st.integers(2, 8))
    n_keys = l + (-(-l // block) if kind == "tglobal" else 0)  # tglobal's side keys follow the l tokens
    i, j = draw(st.integers(0, l - 1)), draw(st.integers(0, n_keys - 1))
    return kind, l, r, k, block, d, i, j


@settings(max_examples=150, deadline=None)
@given(overflow_cases(), st.integers(0, 2**32 - 1))
@example(("local", 300, 2, 0, 1, 4, 0, 299), 0)  # outside the window and outside band 0's keys
@example(("local", 300, 2, 0, 1, 4, 0, 129), 0)  # outside the window, inside band 0's keys
@example(("prefix-global", 300, 2, 10, 1, 4, 200, 150), 0)  # a window row, a key in its band's tile
@example(("prefix-global", 300, 2, 10, 1, 4, 200, 5), 0)  # a window row and a prefix key
@example(("tglobal", 300, 2, 0, 16, 4, 0, 129), 0)
@example(("tglobal", 300, 2, 0, 16, 4, 200, 310), 0)  # a side key, which every query sees
def test_overflow_refused_exactly_on_allowed_pairs(case, seed):
    # q[i] . k[j] is about 1e320: the kernel and the dense oracle refuse it
    # when the pattern lets query i see key j, and otherwise agree
    kind, l, r, k_len, block, d, i, j = case
    pattern = make_pattern(kind, l, r, k_len, block)
    q, k, v = make_qkv(rng(seed), l, d, side=pattern.side_keys)
    q[i] = k[j] = 0.0
    q[i, 0] = k[j, 0] = 1e160
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        if j in build_mask(pattern).rows[i]:
            with pytest.raises(ValueError, match="non-finite"):
                sparse_attention(q, k, v, pattern)
            with pytest.raises(ValueError, match="non-finite"):
                dense_oracle(q, k, v, pattern)
        else:
            assert np.abs(sparse_attention(q, k, v, pattern) - dense_oracle(q, k, v, pattern)).max() < 1e-9


@st.composite
def bound_cases(draw):
    # q[i, 0] = 2^a and k[j, 0] = 2^b, every other entry of q and k standard normal:
    # d max|q| max|k| is about d 2^(a + b), so a + b in [960, 1040] puts the call's
    # bound on both sides of 2^1000, and q_i . k_j = 2^(a + b) overflows at a + b >= 1024
    return draw(overflow_cases()) + (draw(st.integers(480, 520)), draw(st.integers(480, 520)))


@settings(max_examples=150, deadline=None)
@given(bound_cases(), st.integers(0, 2**32 - 1))
@example(("local", 300, 2, 0, 1, 4, 0, 1, 496, 496), 0)  # bound 2^994: the scan is skipped
@example(("local", 300, 2, 0, 1, 4, 0, 1, 512, 511), 0)  # an allowed pair at 2^1023: checked, accepted
@example(("local", 300, 2, 0, 1, 4, 140, 200, 512, 512), 0)  # a masked pair in the band's tile overflows
@example(("prefix-global", 300, 2, 10, 1, 4, 200, 5, 512, 512), 0)  # a window row and a prefix key overflow
@example(("tglobal", 300, 2, 0, 16, 4, 200, 310, 520, 510), 0)  # a side key overflows
def test_refusal_is_exact_on_both_sides_of_the_bound(case, seed):
    kind, l, r, k_len, block, d, i, j, a, b = case
    pattern = make_pattern(kind, l, r, k_len, block)
    q, k, v = make_qkv(rng(seed), l, d, side=pattern.side_keys)
    q[i] = k[j] = 0.0
    q[i, 0], k[j, 0] = 2.0**a, 2.0**b
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            got = sparse_attention(q, k, v, pattern)
        except ValueError:
            got = None
        try:
            want = dense_oracle(q, k, v, pattern)
        except ValueError:
            want = None
    assert (got is None) == (want is None) == (a + b >= 1024 and j in build_mask(pattern).rows[i])
    if got is not None:
        assert np.abs(got - want).max() < 1e-9


class TestOverflowBound:
    """A call whose d max|q| max|k| is below 2^1000 cannot overflow a score,
    so its tiles skip the finiteness scan; any other call scans every tile
    and refuses only an allowed pair. Which path a call takes changes no bit."""

    @pytest.mark.parametrize("pattern", [local(300, r=2), prefix_global(300, k=10, r=2),
                                         tglobal(300, r=2, block=16)], ids=lambda p: p.kind.value)
    def test_huge_key_outside_the_window_of_a_huge_query(self, pattern, monkeypatch):
        # d = 1. Every q is 1 but q[140] = 1e10, every k is in (-1, 1) but k[200] = 1e300:
        # the bound is 1e310, inf, so every tile is scanned. Row 140's score with key 200
        # overflows in its band's tile, but row 140 does not see key 200, and the rows that
        # do score 1e300 with it, so the call is accepted. Every row that does not see key
        # 200 keeps every bit of the call with an ordinary k[200], which skips the scan
        g = rng(24)
        q = np.ones((pattern.l, 1))
        q[140] = 1e10
        k = g.uniform(-1.0, 1.0, size=(pattern.n_keys, 1))
        v = g.normal(size=(pattern.n_keys, 3))
        hot = k.copy()
        hot[200] = 1e300
        run_band, flags = kernel._run_band, []  # whether each band scanned its tiles

        def logged(q, k, v, band, inv_scale, checked, *rest):
            flags.append(checked)
            return run_band(q, k, v, band, inv_scale, checked, *rest)

        monkeypatch.setattr(kernel, "_run_band", logged)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            base = sparse_attention(q, k, v, pattern)
            n_bands = len(flags)
            got = sparse_attention(q, hot, v, pattern)
        assert flags == [False] * n_bands + [True] * n_bands
        sees = np.array([200 in row for row in build_mask(pattern).rows])
        assert not sees[140] and sees[198:203].all()
        assert any(b0 <= 140 < b1 and tiles[0][0] <= 200 < tiles[0][1] for b0, b1, tiles in kernel._bands(pattern))
        assert got[~sees].tobytes() == base[~sees].tobytes()
        assert np.abs(got - dense_oracle(q, hot, v, pattern)).max() < 1e-9


class SummingStats(KernelStats):
    """KernelStats that also sums the elements of every score block."""

    def __init__(self):
        super().__init__()
        self.elements = 0

    def record(self, n_elements):
        super().record(n_elements)
        self.elements += n_elements


def geometry_pairs(pattern):
    """Query-key pairs the band geometry scores: 128-row bands; a window band
    over rows [b0, b1) scores columns [b0 - r, b1 + r) clipped to the rows'
    own region, plus every bank column (k prefix keys or the side keys)."""
    l, B = pattern.l, kernel.ROW_BLOCK

    def window_bands(start, bank):
        return sum(
            (min(b0 + B, l) - b0) * (min(l, b0 + B + pattern.r) - max(start, b0 - pattern.r) + bank)
            for b0 in range(start, l, B)
        )

    if pattern.kind.value == "full":
        return l * l
    if pattern.kind.value == "local":
        return window_bands(0, 0)
    if pattern.kind.value == "tglobal":
        return window_bands(0, pattern.side_keys)
    return pattern.k * l + window_bands(pattern.k, pattern.k)


@st.composite
def geometries(draw):
    kind = draw(st.sampled_from(["full", "local", "tglobal", "prefix-global"]))
    l = draw(st.integers(1, 400))
    r = draw(st.one_of(st.integers(0, 16), st.integers(0, 2 * l)))
    k = draw(st.one_of(st.just(0), st.just(l), st.integers(0, l)))
    block = draw(st.integers(1, 48))
    d, d_v = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    return kind, l, r, k, block, d, d_v


class TestBandGeometry:
    """Random (kind, l, r, k, block, d, d_v), with the edges pinned as
    explicit examples: k in {0, l}, k > 128, r >= l, l = 1, d_v != d,
    l not a multiple of the 128-row band, and prefix bands of three or more
    key tiles with a ragged last tile."""

    @settings(max_examples=120, deadline=None)
    @given(geometries(), st.integers(0, 2**32 - 1))
    @example(("prefix-global", 300, 7, 0, 1, 4, 4), 0)
    @example(("prefix-global", 300, 7, 300, 1, 4, 4), 1)
    @example(("prefix-global", 389, 11, 200, 1, 5, 3), 2)
    @example(("prefix-global", 257, 300, 130, 1, 3, 6), 3)
    @example(("local", 383, 400, 0, 1, 2, 7), 4)
    @example(("tglobal", 301, 520, 0, 13, 4, 2), 5)
    @example(("tglobal", 1, 0, 0, 1, 1, 3), 6)
    @example(("local", 1, 0, 0, 1, 3, 1), 7)
    @example(("prefix-global", 1, 0, 1, 1, 2, 2), 8)
    @example(("full", 129, 0, 0, 1, 3, 5), 9)
    @example(("prefix-global", 400, 0, 1, 1, 3, 5), 10)
    @example(("prefix-global", 700, 1, 129, 1, 4, 2), 11)
    def test_kernel_matches_dense_and_geometry(self, geometry, seed):
        kind, l, r, k_len, block, d, d_v = geometry
        pattern = make_pattern(kind, l, r, k_len, block)
        q, k, v = make_qkv(rng(seed), l, d, d_v=d_v, side=pattern.side_keys)
        stats = SummingStats()
        got = sparse_attention(q, k, v, pattern, stats=stats)
        want = dense_oracle(q, k, v, pattern)
        assert got.shape == (l, d_v)
        assert np.abs(got - want).max() < 1e-9
        assert stats.elements == geometry_pairs(pattern)
        if kind in ("full", "prefix-global"):  # full is prefix-global at k = l, with no window
            g, radius = pattern.global_rows, pattern.r or 0
            assert stats.peak_score_elements <= kernel.ROW_BLOCK * (kernel.ROW_BLOCK + 2 * radius + g)
        assert cost.mask_nnz(pattern) == build_mask(pattern).nnz()

    @settings(max_examples=200, deadline=None)
    @given(geometries())
    @example(("prefix-global", 300, 7, 0, 1, 4, 4))
    @example(("prefix-global", 300, 7, 300, 1, 4, 4))
    @example(("prefix-global", 257, 300, 130, 1, 3, 6))
    @example(("prefix-global", 700, 1, 129, 1, 4, 2))
    @example(("local", 383, 400, 0, 1, 2, 7))
    @example(("tglobal", 301, 520, 0, 13, 4, 2))
    @example(("tglobal", 1, 0, 0, 1, 1, 3))
    @example(("full", 129, 0, 0, 1, 3, 5))
    def test_plan_covers_rows_once_and_counts_allowed_pairs(self, geometry):
        # the plan alone, with no attention run: every query row is in one
        # band, and its tiles, masks and banks admit exactly the pattern's pairs
        kind, l, r, k_len, block, _, _ = geometry
        pattern = make_pattern(kind, l, r, k_len, block)
        bands = kernel._bands(pattern)
        assert sorted(i for band in bands for i in range(band.b0, band.b1)) == list(range(l))
        allowed = 0
        for b0, b1, tiles in bands:
            for lo, hi, outside, inside, (bank_lo, bank_hi) in tiles:
                allowed += (b1 - b0) * (hi - lo + bank_hi - bank_lo)
                assert (outside is None) == (inside is None)
                if outside is not None:
                    assert outside.shape == (b1 - b0, hi - lo)
                    assert np.array_equal(inside, ~outside)
                    allowed -= int(outside.sum())
        assert allowed == cost.mask_nnz(pattern)


def with_workers(n):
    """Run the kernel as if the process had n usable cores."""
    return mock.patch.object(kernel, "_usable_cores", lambda: n)


class CallLog(KernelStats):
    """KernelStats that also logs each record call and the thread making it."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def record(self, n_elements):
        super().record(n_elements)
        self.calls.append((n_elements, threading.get_ident()))


class TestWorkers:
    """Bands run on min(usable cores, bands) workers; the count changes no
    output bit, no counter and no refusal, and no thread outlives a call."""

    @settings(max_examples=100, deadline=None)
    @given(geometries(), st.integers(0, 2**32 - 1))
    @example(("prefix-global", 300, 7, 0, 1, 4, 4), 0)
    @example(("prefix-global", 300, 7, 300, 1, 4, 4), 1)
    @example(("prefix-global", 389, 11, 200, 1, 5, 3), 2)
    @example(("local", 383, 400, 0, 1, 2, 7), 3)
    @example(("tglobal", 301, 520, 0, 13, 4, 2), 4)
    @example(("tglobal", 1, 0, 0, 1, 1, 3), 5)
    @example(("local", 1, 0, 0, 1, 3, 1), 6)
    @example(("prefix-global", 1, 0, 1, 1, 2, 2), 7)
    @example(("full", 129, 0, 0, 1, 3, 5), 8)
    @example(("prefix-global", 400, 0, 129, 1, 3, 5), 9)
    @example(("full", 300, 0, 0, 1, 4, 3), 10)  # three bands, the last one ragged
    # every kind at l = 300 and 2049 with k = 40 and the other parameters at their defaults, d = 16
    @example(("full", 300, 127, 40, 16, 16, 16), 11)
    @example(("local", 300, 127, 40, 16, 16, 16), 12)
    @example(("tglobal", 300, 127, 40, 16, 16, 16), 13)
    @example(("prefix-global", 300, 127, 40, 16, 16, 16), 14)
    @example(("full", 2049, 127, 40, 16, 16, 16), 15)
    @example(("local", 2049, 127, 40, 16, 16, 16), 16)
    @example(("tglobal", 2049, 127, 40, 16, 16, 16), 17)
    @example(("prefix-global", 2049, 127, 40, 16, 16, 16), 18)
    def test_worker_count_changes_no_bit(self, geometry, seed):
        kind, l, r, k_len, block, d, d_v = geometry
        pattern = make_pattern(kind, l, r, k_len, block)
        q, k, v = make_qkv(rng(seed), l, d, d_v=d_v, side=pattern.side_keys)
        runs = []
        for n in (1, 2, 3):
            log = CallLog()
            with with_workers(n):
                out = sparse_attention(q, k, v, pattern, stats=log)
            runs.append((out.tobytes(), log.peak_score_elements, log.score_blocks, log.calls))
        assert runs[1] == runs[0] and runs[2] == runs[0]
        # every block is recorded by the calling thread, so a subclass never races
        assert {ident for _, ident in runs[0][3]} <= {threading.get_ident()}

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_refusal_names_the_lowest_failing_band(self, n):
        # overflow in a prefix tile of band 1 (rows 128..199, key 590 in its
        # last tile) and in window bands 3 and 4; band 0 is clean
        l, d = 600, 4
        q, k, v = make_qkv(rng(60), l, d)
        for i, j in ((150, 590), (400, 401), (500, 499)):
            q[i] = k[j] = 0.0
            q[i, 0] = k[j, 0] = 1e160
        pattern = prefix_global(l, k=200, r=2)
        before = threading.active_count()
        with warnings.catch_warnings(), with_workers(n):
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^attention scores of rows 128\.\.199 overflowed"):
                sparse_attention(q, k, v, pattern)
        assert threading.active_count() == before

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_any_error_of_the_lowest_failing_band_is_raised(self, n, monkeypatch):
        # band 2 fails late and band 5 fails at once; the call raises band 2's
        # error, whichever finished first, and stops handing out bands
        run_band = kernel._run_band
        ran = []

        def failing(q, k, v, band, *rest):
            ran.append(band.b0)
            if band.b0 == 256:
                time.sleep(0.05)
                raise LookupError("band 2")
            if band.b0 == 640:
                raise RuntimeError("band 5")
            return run_band(q, k, v, band, *rest)

        monkeypatch.setattr(kernel, "_run_band", failing)
        q, k, v = make_qkv(rng(61), 1280, 4)
        before = threading.active_count()
        with with_workers(n), pytest.raises(LookupError, match="band 2"):
            sparse_attention(q, k, v, local(1280, r=3))
        assert threading.active_count() == before
        assert set(range(0, 384, 128)) <= set(ran) and len(ran) < 10

    @pytest.mark.parametrize("pattern", [local(4096, r=3), full(1024)], ids=lambda p: p.kind.value)
    def test_every_band_runs_once_under_thread_switching(self, pattern, monkeypatch):
        # more workers than cores and a switch every microsecond: a band handed
        # out twice or never shows in the log, or as unwritten rows
        q, k, v = make_qkv(rng(64), pattern.l, 4)
        with with_workers(1):
            want = sparse_attention(q, k, v, pattern).tobytes()
        run_band, ran = kernel._run_band, []

        def logged(q, k, v, band, *rest):
            ran.append(band.b0)
            return run_band(q, k, v, band, *rest)

        monkeypatch.setattr(kernel, "_run_band", logged)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with with_workers(5):
                for _ in range(3):
                    assert sparse_attention(q, k, v, pattern).tobytes() == want
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == sorted(list(range(0, pattern.l, 128)) * 3)

    def test_threads_per_call(self, monkeypatch):
        started = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)
        q, k, v = make_qkv(rng(62), 300, 4)
        with with_workers(4):
            sparse_attention(q[:100], k[:100], v[:100], prefix_global(100, k=0, r=3))  # one band: run inline
            assert started == []
            # three bands each, local's and full's: the caller and two threads each
            for pattern in (local(300, r=3), full(300)):
                sparse_attention(q, k, v, pattern)
        assert len(started) == 4 and not any(t.is_alive() for t in started)

    def test_no_thread_to_be_had_runs_on_the_caller(self, monkeypatch):
        q, k, v = make_qkv(rng(63), 700, 4)
        pattern = prefix_global(700, k=200, r=5)
        want = sparse_attention(q, k, v, pattern).tobytes()

        def refuse(thread):
            raise RuntimeError("can't start new thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        with with_workers(3):
            assert sparse_attention(q, k, v, pattern).tobytes() == want

    def test_usable_cores_without_an_affinity_call(self, monkeypatch):
        # platforms without sched_getaffinity fall back to the core count
        monkeypatch.delattr(os, "sched_getaffinity")
        assert kernel._usable_cores() == (os.cpu_count() or 1)
        q, k, v = make_qkv(rng(64), 300, 4)
        pattern = local(300, r=3)
        assert np.abs(sparse_attention(q, k, v, pattern) - dense_oracle(q, k, v, pattern)).max() < 1e-9


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 400).flatmap(lambda l: st.tuples(
    st.just(l), st.one_of(st.integers(0, 16), st.integers(0, 2 * l)), st.integers(1, 8), st.integers(1, 8))),
    st.integers(0, 2**32 - 1))
@example((1, 0, 2, 3), 0)
@example((1, 5, 3, 1), 1)
@example((300, 7, 4, 3), 2)  # three bands, the last one ragged
@example((257, 300, 3, 6), 3)
@example((129, 129, 5, 2), 4)
def test_prefix_global_at_k_l_is_full_and_at_k_0_is_local(geometry, seed):
    # the plan, not only the mask: equal output bytes and equal KernelStats
    # at every worker count, for any l and r, with r >= l and d_v != d among them
    l, r, d, d_v = geometry
    q, k, v = make_qkv(rng(seed), l, d, d_v=d_v)
    for n in (1, 2, 3):
        with with_workers(n):
            for pg, same in ((prefix_global(l, k=l, r=r), full(l)), (prefix_global(l, k=0, r=r), local(l, r=r))):
                runs = []
                for pattern in (pg, same):
                    stats = KernelStats()
                    runs.append((sparse_attention(q, k, v, pattern, stats=stats).tobytes(), stats))
                assert runs[0] == runs[1], (pg, same, n)


class TestRowOracleAtPaperGeometry:
    """Every row at the default geometry (k=512, r=127, block=16) and at
    lengths past one 894-key prefix tile and past l = 4096, where bands
    spread over workers, against a softmax over that row's mask columns."""

    @staticmethod
    def row_oracle(q, k, v, pattern):
        out = np.empty((len(q), v.shape[1]))
        for i, cols in enumerate(build_mask(pattern).rows):
            scores = k[cols] @ q[i] / np.sqrt(q.shape[1])
            weights = np.exp(scores - scores.max())
            out[i] = weights @ v[cols] / weights.sum()
        return out

    @pytest.mark.parametrize("l", [16384, 20000])  # 20000 is not a multiple of the 128-row band
    @pytest.mark.parametrize("make", [prefix_global, tglobal, local], ids=["prefix-global", "tglobal", "local"])
    def test_every_row_matches(self, make, l):
        pattern = make(l)
        q, k, v = make_qkv(rng(l), l, 8)
        if pattern.side_keys:
            k = np.vstack([k, loop_block_average(k, pattern.block)])
            v = np.vstack([v, loop_block_average(v, pattern.block)])
        want = self.row_oracle(q, k, v, pattern)
        for n in (1, 2):
            with with_workers(n):
                got = sparse_attention(q, k, v, pattern)
            assert np.abs(got - want).max() < 1e-9, n
