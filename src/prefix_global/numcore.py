"""Float64 numerical core: the dense attention reference and its operand checks.

Everything here is the reference ("materialize the full score matrix") path.
The block-sparse implementations in `kernel` are checked against this module;
this module is in turn checked against scalar loops in the tests. Both paths
check q, k and v with `attention_operands`, so they refuse the same operands.

Masking is additive. A disallowed position carries the `MASKED` sentinel, the
most negative finite float64. `dense_attention` replaces sentinel entries with
-inf *before* the row max is taken, so masked positions come out exactly 0.0
and no overflow or NaN can leak out of it. Finite bias values (relative
position terms and the like) pass through the same argument unchanged.
"""

from __future__ import annotations

import math

import numpy as np

# Most negative finite float64. Additive masks use this as "disallowed";
# any other finite value in the mask argument is an ordinary bias term.
MASKED = float(np.finfo(np.float64).min)


class ShapeError(ValueError):
    """Operands do not conform (wrong rank, dtype-incompatible, mismatched dims)."""


class DegenerateRowError(ValueError):
    """A softmax row has every position masked, so no distribution exists."""


def as_matrix(a, name: str = "operand") -> np.ndarray:
    """Coerce to a 2-D float64 array, rejecting non-finite entries."""
    return _checked_matrix(a, name)[0]


def max_abs(m: np.ndarray) -> float:
    """max|m| as a Python float, 0.0 for an empty m, from one max and one min:
    NaN propagates through both, and an infinity shows in one of them, so the
    result is finite exactly when every entry is."""
    return float(max(m.max(initial=0.0), -m.min(initial=0.0)))


def _checked_matrix(a, name: str = "operand") -> tuple[np.ndarray, float]:
    """`a` as a 2-D float64 array and its max|a|, refusing non-finite entries."""
    try:
        m = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name}: not coercible to a float64 matrix: {exc}") from None
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D, got shape {m.shape}")
    peak = max_abs(m)
    if not math.isfinite(peak):
        raise ValueError(f"{name}: contains NaN or Inf")
    return m, peak


def attention_operands(q, k, v):
    """q, k and v as float64 matrices, checked as every attention call needs
    them: q and k share a width d >= 1, and k and v have one row per key.
    Returns them with their peaks (max|q|, max|k|, max|v|), which the kernel's
    overflow bound and v guard read. The kernel and dense_attention both check
    here, so they refuse alike."""
    q, q_peak = _checked_matrix(q, "q")
    k, k_peak = _checked_matrix(k, "k")
    v, v_peak = _checked_matrix(v, "v")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q has d={q.shape[1]} but k has d={k.shape[1]}")
    if q.shape[1] < 1:
        raise ShapeError("d must be >= 1")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k has {k.shape[0]} rows but v has {v.shape[0]}")
    return q, k, v, (q_peak, k_peak, v_peak)


def dense_attention(q, k, v, additive_mask, scale_by_sqrt_d: bool = True) -> np.ndarray:
    """Full scaled dot-product attention with an additive mask.

    q: (n_q, d), k: (n_k, d), v: (n_k, d_v), additive_mask: (n_q, n_k).
    Scores are q @ k.T, scaled by 1/sqrt(d) unless disabled. A mask entry
    equal to MASKED disallows its position, which then contributes exactly
    nothing to the output (its weight is bitwise 0.0); any other finite entry
    is a bias added to its score before a row-wise stable softmax.

    Refusals, in the order they are checked: operands that `attention_operands`
    refuses (ShapeError or ValueError); a mask whose shape is not
    (n_q, n_k) (ShapeError); a scaled score that is not finite where the mask
    allows its position (ValueError; a masked position is never refused,
    whatever its score); a row with every position masked
    (DegenerateRowError); weights that are not finite, as when a score plus
    its bias overflows (ValueError); and an output that is not finite, as when
    the weighted sum of v overflows (ValueError). No queries give a (0, d_v)
    output, with keys or without.
    """
    q, k, v, _ = attention_operands(q, k, v)
    mask = as_matrix(additive_mask, "additive_mask")
    if mask.shape != (q.shape[0], k.shape[0]):
        raise ShapeError(f"mask shape {mask.shape} != score shape {(q.shape[0], k.shape[0])}")
    allowed = mask != MASKED
    # overflow is refused with ValueError, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        scale = math.sqrt(q.shape[1]) if scale_by_sqrt_d else 1.0
        scores = (q @ k.T) / scale  # x / 1.0 is x, bit for bit
        if not np.isfinite(scores[allowed]).all():
            raise ValueError("attention scores overflowed to non-finite values")
        dead = ~allowed.any(axis=1)
        if dead.any():
            raise DegenerateRowError(f"rows with every position masked: {np.flatnonzero(dead)[:8].tolist()}")
        # -inf, not score + MASKED, so a masked weight is exactly 0.0 whatever its score
        logits = np.where(allowed, scores + mask, -np.inf)
        # initial: a max over no rows and no keys; every row left has an allowed key
        weights = np.exp(logits - logits.max(axis=1, keepdims=True, initial=-np.inf))
        weights = weights / weights.sum(axis=1, keepdims=True)
        if not np.isfinite(weights).all():
            raise ValueError("attention weights overflowed to non-finite values")
        out = weights @ v
        if not np.isfinite(out).all():
            raise ValueError("attention output overflowed to non-finite values")
    return out
