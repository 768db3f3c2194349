"""Block-sparse forward attention for the structured patterns.

Every pattern compiles to a list of bands, and one executor runs them all. A
band is a run of query rows [b0, b1) that scores one contiguous key span
[lo, hi), optionally masked to the radius-r window |i - j| <= r, plus an
optional global bank of (keys, values) that every row of the band sees
unmasked. The patterns reduce to:

- full: one band, every row against every key. It has no sparsity to exploit,
  so it allocates the whole l x l grid in one block, and its instrumented
  buffer size is the baseline the sparse patterns are measured against.
- local: ROW_BLOCK-row bands, each spanning its clipped window.
- prefix-global: ROW_BLOCK-row bands over the k prefix rows, each spanning
  every key; then window bands over the remaining rows, clipped below at k,
  with the first k keys and values as their bank.
- tglobal: the local bands, with the block-averaged side keys as their bank.

Within a band, out-of-window positions are assigned -inf before the row max,
so their weights are exactly 0.0 and a key outside a query's allowed set
cannot change that query's output even at the bit level. Scores that are not
finite after scaling are refused with ValueError, without a RuntimeWarning,
as the dense oracle does.

Bands run sequentially with a fixed reduction order per row, so outputs are
deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numcore import ShapeError, as_matrix
from .page import _is_int
from .patterns import AttentionPattern, PatternError, PatternKind

ROW_BLOCK = 128  # band height; bounds every sparse score buffer at 128 rows


@dataclass
class KernelStats:
    """Score-buffer instrumentation. peak_score_elements is the element count
    of the widest score block materialized at any one time."""

    peak_score_elements: int = 0
    score_blocks: int = 0

    def record(self, n_elements: int) -> None:
        self.score_blocks += 1
        if n_elements > self.peak_score_elements:
            self.peak_score_elements = n_elements


class _Band(NamedTuple):
    """Rows [b0, b1) against keys [lo, hi), masked to |i - j| <= r unless r is
    None, plus every row of `bank`, a (keys, values) pair seen unmasked."""

    b0: int
    b1: int
    lo: int
    hi: int
    r: int | None = None
    bank: tuple | None = None


def _validate_qkv(q, k, v, l: int):
    q = as_matrix(q, "q")
    k = as_matrix(k, "k")
    v = as_matrix(v, "v")
    if not (q.shape[0] == k.shape[0] == v.shape[0] == l):
        raise ShapeError(
            f"q/k/v must each have l={l} rows, got {q.shape[0]}/{k.shape[0]}/{v.shape[0]}"
        )
    if q.shape[1] != k.shape[1]:
        raise ShapeError(f"q has d={q.shape[1]} but k has d={k.shape[1]}")
    if q.shape[1] < 1:
        raise ShapeError("d must be >= 1")
    return q, k, v


def _row_blocks(start: int, stop: int):
    for b0 in range(start, stop, ROW_BLOCK):
        yield b0, min(b0 + ROW_BLOCK, stop)


def _window_bands(start: int, l: int, r: int, bank=None) -> list:
    """Bands over rows [start, l), each spanning its window clipped to [start, l)."""
    return [_Band(b0, b1, max(start, b0 - r), min(l, b1 + r), r, bank) for b0, b1 in _row_blocks(start, l)]


def _attend(q, k, v, bands, scale_by_sqrt_d: bool, stats: KernelStats | None) -> np.ndarray:
    """Run every band: score its span then its bank in one block, mask the
    span to its window, softmax each row, and accumulate the span's part of
    the output before the bank's."""
    scale = math.sqrt(q.shape[1]) if scale_by_sqrt_d else 1.0
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.float64)
    # overflow is refused with ValueError below, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for b0, b1, lo, hi, r, bank in bands:
            width = hi - lo
            n_bank = 0 if bank is None else bank[0].shape[0]
            scores = np.empty((b1 - b0, width + n_bank), dtype=np.float64)
            if stats is not None:
                stats.record(scores.size)
            scores[:, :width] = q[b0:b1] @ k[lo:hi].T
            if n_bank:
                scores[:, width:] = q[b0:b1] @ bank[0].T
            scores /= scale
            if not np.isfinite(scores).all():
                raise ValueError(f"attention scores of rows {b0}..{b1 - 1} overflowed to non-finite values")
            if r is not None:
                offsets = np.arange(b0, b1)[:, None] - np.arange(lo, hi)[None, :]
                scores[:, :width][np.abs(offsets) > r] = -np.inf
            # every row keeps at least itself or one bank key, so its max is finite
            scores -= scores.max(axis=1, keepdims=True)
            np.exp(scores, out=scores)
            scores /= scores.sum(axis=1, keepdims=True)
            out[b0:b1] = scores[:, :width] @ v[lo:hi]
            if n_bank:
                out[b0:b1] += scores[:, width:] @ bank[1]
    return out


def sparse_attention(
    q,
    k,
    v,
    pattern: AttentionPattern,
    scale_by_sqrt_d: bool = True,
    stats: KernelStats | None = None,
) -> np.ndarray:
    """Forward attention under a full, local, or prefix-global pattern.

    q, k, v: (l, d) / (l, d) / (l, d_v) float64. Returns (l, d_v). Equal to
    dense attention over the pattern's rendered mask, but score buffers cover
    only reachable columns. Pass a KernelStats to observe buffer sizes.
    """
    if pattern.kind is PatternKind.TGLOBAL:
        raise PatternError("tglobal patterns need tglobal_attention (side keys required)")
    l = pattern.l
    q, k, v = _validate_qkv(q, k, v, l)
    if pattern.kind is PatternKind.FULL:
        bands = [_Band(0, l, 0, l)]
    elif pattern.kind is PatternKind.LOCAL:
        bands = _window_bands(0, l, pattern.r)
    else:
        n_prefix = pattern.k
        bands = [_Band(b0, b1, 0, l) for b0, b1 in _row_blocks(0, n_prefix)]
        bands += _window_bands(n_prefix, l, pattern.r, (k[:n_prefix], v[:n_prefix]))
    return _attend(q, k, v, bands, scale_by_sqrt_d, stats)


def block_average(token_embeddings, block: int) -> np.ndarray:
    """Mean of each consecutive `block` rows; the final group may be shorter.
    Returns ceil(l / block) rows."""
    emb = as_matrix(token_embeddings, "token_embeddings")
    if not _is_int(block) or block < 1:
        raise PatternError(f"block must be an int >= 1, got {block!r}")
    l = emb.shape[0]
    starts = np.arange(0, l, block)
    sums = np.add.reduceat(emb, starts, axis=0)
    counts = np.minimum(block, l - starts).astype(np.float64)
    return sums / counts[:, None]


def tglobal_attention(
    q,
    k,
    v,
    pattern: AttentionPattern,
    token_embeddings,
    key_proj,
    value_proj,
    scale_by_sqrt_d: bool = True,
    stats: KernelStats | None = None,
) -> np.ndarray:
    """Forward attention under a tglobal pattern.

    Side key/value slots are built on the fly: token_embeddings (l x d_model)
    are block-averaged, then pushed through key_proj (d_model x d) and
    value_proj (d_model x d_v), the same projections that produced k and v
    from the real tokens. Every query attends to its local window plus every
    side slot; side slots are never queries, so the output still has l rows.
    """
    if pattern.kind is not PatternKind.TGLOBAL:
        raise PatternError(f"expected a tglobal pattern, got {pattern.kind.value}")
    l = pattern.l
    q, k, v = _validate_qkv(q, k, v, l)
    emb = as_matrix(token_embeddings, "token_embeddings")
    if emb.shape[0] != l:
        raise ShapeError(f"token_embeddings must have l={l} rows, got {emb.shape[0]}")
    kp = as_matrix(key_proj, "key_proj")
    vp = as_matrix(value_proj, "value_proj")
    if kp.shape != (emb.shape[1], k.shape[1]):
        raise ShapeError(f"key_proj must be {(emb.shape[1], k.shape[1])}, got {kp.shape}")
    if vp.shape != (emb.shape[1], v.shape[1]):
        raise ShapeError(f"value_proj must be {(emb.shape[1], v.shape[1])}, got {vp.shape}")

    averaged = block_average(emb, pattern.block)
    bank = (averaged @ kp, averaged @ vp)
    return _attend(q, k, v, _window_bands(0, l, pattern.r, bank), scale_by_sqrt_d, stats)
