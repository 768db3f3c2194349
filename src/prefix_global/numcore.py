"""Float64 numerical core: validated matmul, masked row softmax, dense attention.

Everything here is the reference ("materialize the full score matrix") path.
The block-sparse implementations in `kernel` are checked against this module;
this module is in turn checked against scalar loops in the tests. Both paths
check q, k and v with `attention_operands`, so they refuse the same operands.

Masking is additive. A disallowed position carries the `MASKED` sentinel, the
most negative finite float64. The softmax replaces sentinel entries with -inf
*before* the row max is taken, so masked positions come out exactly 0.0 and no
overflow or NaN can leak out of an exposed call. Finite bias values (relative
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
    try:
        m = np.asarray(a, dtype=np.float64)
    except (TypeError, ValueError) as exc:
        raise ShapeError(f"{name}: not coercible to a float64 matrix: {exc}") from None
    if m.ndim != 2:
        raise ShapeError(f"{name}: expected 2-D, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise ValueError(f"{name}: contains NaN or Inf")
    return m


def matmul(a, b) -> np.ndarray:
    """Matrix product with shape validation and a finite-output check."""
    a = as_matrix(a, "a")
    b = as_matrix(b, "b")
    if a.shape[1] != b.shape[0]:
        raise ShapeError(f"inner dimensions differ: {a.shape} @ {b.shape}")
    # overflow is refused with ValueError, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        out = a @ b
        if not np.isfinite(out).all():
            raise ValueError("matmul overflowed to non-finite values")
    return out


def row_softmax(m, additive_mask) -> np.ndarray:
    """Row-wise stable softmax of `m + additive_mask`.

    `additive_mask` must have the same shape as `m`. Entries equal to MASKED
    mark disallowed positions (exact 0.0 in the result); all other entries are
    finite additive biases. A row with every position masked raises
    DegenerateRowError rather than returning NaNs.
    """
    m = as_matrix(m, "m")
    # The mask holds MASKED, so validate shape/rank but not finiteness range:
    # MASKED itself is finite, and as_matrix enforces exactly that.
    mask = as_matrix(additive_mask, "additive_mask")
    if mask.shape != m.shape:
        raise ShapeError(f"mask shape {mask.shape} != input shape {m.shape}")

    disallowed = mask == MASKED
    dead = disallowed.all(axis=1)
    if dead.any():
        rows = np.flatnonzero(dead)[:8].tolist()
        raise DegenerateRowError(f"rows with every position masked: {rows}")

    # overflow is refused with ValueError, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        logits = m + np.where(disallowed, 0.0, mask)
        # Assignment, not addition: adding anything to MASKED would overflow.
        logits[disallowed] = -np.inf
        shifted = logits - logits.max(axis=1, keepdims=True)
        weights = np.exp(shifted)
        out = weights / weights.sum(axis=1, keepdims=True)
        if not np.isfinite(out).all():
            raise ValueError("softmax produced non-finite values")
    return out


def attention_operands(q, k, v):
    """q, k and v as float64 matrices, checked as every attention call needs
    them: q and k share a width d >= 1, and k and v have one row per key.
    The kernel and dense_attention both check here, so they refuse alike."""
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    v = as_matrix(v, "v")
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q has d={q.shape[1]} but k has d={k.shape[1]}")
    if q.shape[1] < 1:
        raise ShapeError("d must be >= 1")
    if k.shape[0] != v.shape[0]:
        raise ShapeError(f"k has {k.shape[0]} rows but v has {v.shape[0]}")
    return q, k, v


def dense_attention(q, k, v, additive_mask, scale_by_sqrt_d: bool = True) -> np.ndarray:
    """Full scaled dot-product attention with an additive mask.

    q: (n_q, d), k: (n_k, d), v: (n_k, d_v), additive_mask: (n_q, n_k).
    Scores are q @ k.T, scaled by 1/sqrt(d) unless disabled. Masked positions
    contribute exactly nothing to the output (their weight is bitwise 0.0).
    A scaled score that is not finite raises ValueError where the mask allows
    its position; a masked position is never refused, whatever its score.
    """
    q, k, v = attention_operands(q, k, v)
    mask = as_matrix(additive_mask, "additive_mask")
    if mask.shape != (q.shape[0], k.shape[0]):
        raise ShapeError(f"mask shape {mask.shape} != score shape {(q.shape[0], k.shape[0])}")
    # overflow is refused with ValueError, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        scores = q @ k.T
        if scale_by_sqrt_d:
            scores = scores / math.sqrt(q.shape[1])
    allowed = mask != MASKED
    if not np.isfinite(scores[allowed]).all():
        raise ValueError("attention scores overflowed to non-finite values")
    # row_softmax zeroes a masked position whatever it holds, but it needs a finite one
    weights = row_softmax(np.where(allowed, scores, 0.0), mask)
    return matmul(weights, v)
