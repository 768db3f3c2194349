"""Scalar-loop oracles for the float64 core.

The oracles here deliberately avoid numpy reductions: matmul is a triple loop,
softmax is per-row math.exp. If numcore and these agree, vectorization bugs
and masking bugs cannot hide in shared code.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from prefix_global import numcore
from prefix_global.numcore import (
    MASKED,
    DegenerateRowError,
    ShapeError,
    dense_attention,
)


def loop_matmul(a, b):
    n, inner = len(a), len(a[0])
    m = len(b[0])
    out = [[0.0] * m for _ in range(n)]
    for i in range(n):
        for j in range(m):
            acc = 0.0
            for t in range(inner):
                acc += a[i][t] * b[t][j]
            out[i][j] = acc
    return np.array(out)


def loop_softmax_row(row, mask_row):
    logits = []
    for x, b in zip(row, mask_row):
        logits.append(None if b == MASKED else x + b)
    finite = [x for x in logits if x is not None]
    top = max(finite)
    weights = [0.0 if x is None else math.exp(x - top) for x in logits]
    total = sum(weights)
    return [w / total for w in weights]


def rng(seed):
    return np.random.default_rng(seed)


def identity_attention(scores, mask):
    """The softmax of scores + mask, through dense_attention alone.

    With identity keys and values, q @ I and weights @ I are exact, so this is
    the masked row softmax of `scores` bit for bit.
    """
    m = np.shape(scores)[1]
    return dense_attention(scores, np.eye(m), np.eye(m), mask, scale_by_sqrt_d=False)


def accepted_operands():
    """Fresh q, k, v and mask that dense_attention accepts."""
    return [np.ones((2, 3)), np.ones((4, 3)), np.ones((4, 2)), np.zeros((2, 4))]


class TestOperandRefusals:
    def test_shape_mismatch(self):
        # the operands are refused before the mask's shape is read
        with pytest.raises(ShapeError, match="q has d=3 but k has d=2"):
            dense_attention(np.ones((2, 3)), np.ones((4, 2)), np.ones((4, 2)), np.zeros((3, 3)))

    @pytest.mark.parametrize("which", range(4))
    def test_rank_mismatch(self, which):
        args = accepted_operands()
        args[which] = args[which][0]
        with pytest.raises(ShapeError, match="expected 2-D"):
            dense_attention(*args)

    @pytest.mark.parametrize("which", range(4))
    def test_nan_rejected(self, which):
        args = accepted_operands()
        args[which][0, 0] = np.nan
        with pytest.raises(ValueError, match="contains NaN or Inf"):
            dense_attention(*args)

    @pytest.mark.parametrize("which", range(4))
    def test_inf_rejected(self, which):
        # -inf too: a disallowed position is MASKED, which is finite
        args = accepted_operands()
        args[which][1, 1] = -np.inf
        with pytest.raises(ValueError, match="contains NaN or Inf"):
            dense_attention(*args)

    def test_ragged_operand_rejected(self):
        with pytest.raises(ShapeError, match="not coercible"):
            dense_attention([[1.0, 2.0], [3.0]], np.ones((2, 2)), np.ones((2, 2)), np.zeros((2, 2)))

    def test_overflow_rejected(self):
        # eleven weights of 1/11 over DBL_MAX: the rounded weighted sum overflows
        dbl_max = np.finfo(np.float64).max
        with pytest.raises(ValueError, match="overflowed"):
            dense_attention(np.zeros((1, 1)), np.zeros((11, 1)), np.full((11, 1), dbl_max), np.zeros((1, 11)))


class TestSoftmax:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_scalar_loop(self, seed):
        g = rng(seed)
        n, m = g.integers(1, 8, size=2)
        scores = g.normal(size=(n, m)) * 3
        mask = np.where(g.random(size=(n, m)) < 0.4, MASKED, 0.0)
        # keep at least one live slot per row
        mask[np.arange(n), g.integers(0, m, size=n)] = 0.0
        got = identity_attention(scores, mask)
        for i in range(n):
            np.testing.assert_allclose(
                got[i], loop_softmax_row(scores[i], mask[i]), atol=1e-12
            )

    def test_masked_positions_are_bitwise_zero(self):
        scores = np.array([[5.0, -2.0, 1.0]])
        mask = np.array([[0.0, MASKED, 0.0]])
        out = identity_attention(scores, mask)
        assert out[0, 1] == 0.0
        assert math.copysign(1.0, out[0, 1]) == 1.0

    def test_extreme_logits_do_not_overflow(self):
        out = identity_attention(np.array([[1000.0, 0.0]]), np.zeros((1, 2)))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] == pytest.approx(0.0, abs=1e-300)
        assert np.isfinite(out).all()

    def test_finite_bias_passes_through(self):
        scores = np.array([[0.5, 0.5]])
        bias = np.array([[math.log(3.0), 0.0]])
        out = identity_attention(scores, bias)
        np.testing.assert_allclose(out, [[0.75, 0.25]], atol=1e-12)

    def test_all_masked_row_raises(self):
        with pytest.raises(DegenerateRowError):
            identity_attention(np.zeros((2, 2)), np.full((2, 2), MASKED))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError):
            identity_attention(np.zeros((2, 2)), np.zeros((2, 3)))

    def test_overflowing_bias_refused_without_a_warning(self):
        # a finite score plus a finite bias can overflow; that is a ValueError
        # and numpy's overflow warning does not escape first
        with pytest.raises(ValueError, match="non-finite"):
            identity_attention([[1e308, 0.0]], [[1e308, 0.0]])

    def test_rows_sum_to_one(self):
        g = rng(99)
        scores = g.normal(size=(5, 7)) * 50
        out = identity_attention(scores, np.zeros((5, 7)))
        np.testing.assert_allclose(out.sum(axis=1), np.ones(5), atol=1e-12)


@st.composite
def attention_cases(draw):
    n_q, n_k = draw(st.integers(1, 6)), draw(st.integers(1, 8))
    d, d_v = draw(st.integers(1, 4)), draw(st.integers(1, 3))
    g = rng(draw(st.integers(0, 2**32 - 1)))
    q, k, v = g.normal(size=(n_q, d)), g.normal(size=(n_k, d)), g.normal(size=(n_k, d_v))
    bias = g.normal(size=(n_q, n_k)) * draw(st.sampled_from([0.0, 1.0, 30.0]))
    mask = np.where(g.random(size=(n_q, n_k)) < draw(st.floats(0.0, 1.0)), MASKED, bias)
    for row in draw(st.lists(st.integers(0, n_q - 1), max_size=2)):
        mask[row] = MASKED
    return q, k, v, mask, draw(st.booleans())


class TestDenseAttention:
    @settings(max_examples=200, deadline=None)
    @given(attention_cases())
    def test_matches_composed_oracle(self, case):
        # refused exactly when some row has no allowed key, else the scalar loops' answer
        q, k, v, mask, scale = case
        if any(all(b == MASKED for b in row) for row in mask.tolist()):
            with pytest.raises(DegenerateRowError):
                dense_attention(q, k, v, mask, scale_by_sqrt_d=scale)
            return
        scores = loop_matmul(q, k.T) / (math.sqrt(q.shape[1]) if scale else 1.0)
        weights = np.array([loop_softmax_row(s, m) for s, m in zip(scores, mask)])
        expected = loop_matmul(weights, v)
        got = dense_attention(q, k, v, mask, scale_by_sqrt_d=scale)
        np.testing.assert_allclose(got, expected, atol=1e-12, rtol=0)

    def test_no_scaling_flag(self):
        g = rng(7)
        q = g.normal(size=(3, 4))
        k = g.normal(size=(5, 4))
        v = g.normal(size=(5, 4))
        mask = np.zeros((3, 5))
        scaled = dense_attention(q, k, v, mask, scale_by_sqrt_d=True)
        unscaled = dense_attention(q, k, v, mask, scale_by_sqrt_d=False)
        assert not np.allclose(scaled, unscaled)
        expected = loop_matmul(
            np.array([loop_softmax_row(s, m) for s, m in zip(loop_matmul(q, k.T), mask)]),
            v,
        )
        np.testing.assert_allclose(unscaled, expected, atol=1e-12)

    def test_masked_key_cannot_influence_output(self):
        g = rng(11)
        q = g.normal(size=(2, 3))
        k = g.normal(size=(4, 3))
        v = g.normal(size=(4, 3))
        mask = np.zeros((2, 4))
        mask[:, 2] = MASKED
        base = dense_attention(q, k, v, mask)
        k2, v2 = k.copy(), v.copy()
        k2[2] = g.normal(size=3) * 100
        v2[2] = g.normal(size=3) * 100
        moved = dense_attention(q, k2, v2, mask)
        assert base.tobytes() == moved.tobytes()

    def test_d_mismatch(self):
        with pytest.raises(ShapeError):
            dense_attention(np.ones((2, 3)), np.ones((4, 2)), np.ones((4, 2)), np.zeros((2, 4)))

    def test_kv_row_mismatch(self):
        with pytest.raises(ShapeError):
            dense_attention(np.ones((2, 3)), np.ones((4, 3)), np.ones((5, 3)), np.zeros((2, 4)))

    def test_mask_shape_mismatch(self):
        with pytest.raises(ShapeError, match="mask shape"):
            dense_attention(np.ones((2, 3)), np.ones((4, 3)), np.ones((4, 3)), np.zeros((4, 2)))


def test_masked_sentinel_is_most_negative_finite():
    assert MASKED == np.finfo(np.float64).min
    assert np.isfinite(MASKED)
    assert numcore.MASKED < -1e308
