"""Block-sparse forward attention for the structured patterns.

Every pattern compiles to a list of bands, and one executor runs them all. A
band is a run of query rows [b0, b1) that scores its keys in one or more
contiguous key tiles [lo, hi), optionally masked to the radius-r window
|i - j| <= r. Its first tile also scores an optional global bank of
(keys, values) that every row of the band sees unmasked. The patterns reduce
to:

- full: one band with one tile, every row against every key. It has no
  sparsity to exploit, so it allocates the whole l x l grid in one block, and
  its instrumented buffer size is the baseline the sparse patterns are
  measured against.
- local: ROW_BLOCK-row window bands, each one tile spanning its clipped window.
- prefix-global: ROW_BLOCK-row bands over the k prefix rows, each tiling every
  key in tiles of ROW_BLOCK + 2r + k keys; then window bands over the
  remaining rows, clipped below at k, with the first k keys and values as
  their bank. No score block is wider than a window band, whatever l is.
- tglobal: the local bands, with the block-averaged side keys as their bank.

A band is an online softmax over its tiles (Milakov & Gimelshein 2018;
FlashAttention, Dao et al. 2022): each tile is scored, scaled in place by
1/sqrt(d), masked, and exponentiated against the running row max; the
running row sum and output are rescaled by exp(old max - new max) when a tile
raises the max. The output is divided by the row sums once, at the end of the
band, which costs rows x d_v divisions instead of rows x width.

A window's outside-mask depends only on the band geometry, so it is built
once per (rows, b0 - lo, width, r) within a call: interior bands share one
and only the edge bands differ. Masked positions are assigned -inf before the
row max, so their weights are exactly 0.0 and a key outside a query's
allowed set cannot change that query's output even at the bit level.

A call is refused with ValueError, without a RuntimeWarning, exactly when a
scaled score that is not finite falls on a query-key pair the pattern allows,
as the dense oracle refuses it: a window tile's masked entries are left out
of the check, and prefix tiles and the bank, which every row of the band
sees, are checked in full. Where the pattern forbids the pair, the score is
masked like any other, so whether a call is refused does not depend on which
keys a band's tiles happen to span. The scale multiplies the scores, not q:
(q / sqrt(d)) . k can be finite where q . k overflowed, and the kernel would
then accept what the dense oracle refuses. tglobal's side keys and values
that are not finite are refused the same way.

Bands and tiles run sequentially with a fixed reduction order per row, so
outputs are deterministic.
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
    """Rows [b0, b1) against each key tile [lo, hi) of `tiles` in turn, masked
    to |i - j| <= r unless r is None. The first tile also scores every row of
    `bank`, a (keys, values) pair seen unmasked."""

    b0: int
    b1: int
    tiles: tuple
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


def _blocks(start: int, stop: int, size: int = ROW_BLOCK):
    for b0 in range(start, stop, size):
        yield b0, min(b0 + size, stop)


def _window_bands(start: int, l: int, r: int, bank=None) -> list:
    """Bands over rows [start, l), each one tile spanning its window clipped to [start, l)."""
    return [_Band(b0, b1, ((max(start, b0 - r), min(l, b1 + r)),), r, bank) for b0, b1 in _blocks(start, l)]


def _attend(q, k, v, bands, scale_by_sqrt_d: bool, stats: KernelStats | None) -> np.ndarray:
    """Run every band as an online softmax over its key tiles: score the tile
    (and the bank, on the first tile) in one block, mask it to the window, and
    fold its unnormalized weights into a running row max, row sum and output.
    Each band's output is divided by its row sums once, at the end."""
    inv_scale = 1.0 / math.sqrt(q.shape[1]) if scale_by_sqrt_d else 1.0
    out = np.empty((q.shape[0], v.shape[1]), dtype=np.float64)
    masks = {}  # window outside-masks by (rows, b0 - lo, width, r); interior bands share one
    # overflow is refused with ValueError below, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        for b0, b1, tiles, r, bank in bands:
            rows = b1 - b0
            row_sum = acc = 0.0
            for t, (lo, hi) in enumerate(tiles):
                width = hi - lo
                n_bank = 0 if t or bank is None else bank[0].shape[0]
                scores = np.empty((rows, width + n_bank), dtype=np.float64)
                if stats is not None:
                    stats.record(scores.size)
                np.matmul(q[b0:b1], k[lo:hi].T, out=scores[:, :width])
                if n_bank:
                    np.matmul(q[b0:b1], bank[0].T, out=scores[:, width:])
                scores *= inv_scale
                if r is not None:
                    geometry = (rows, b0 - lo, width, r)
                    if geometry not in masks:
                        offsets = np.subtract.outer(np.arange(b0 - lo, b1 - lo), np.arange(width))
                        masks[geometry] = np.abs(offsets) > r
                    outside = masks[geometry]
                if not np.isfinite(scores).all():
                    refused = ~np.isfinite(scores)
                    if r is not None:  # a pair outside the window is masked below, not refused
                        refused[:, :width] &= ~outside
                    if refused.any():
                        raise ValueError(f"attention scores of rows {b0}..{b1 - 1} overflowed to non-finite values")
                if r is not None:
                    np.copyto(scores[:, :width], -np.inf, where=outside)
                # a window row keeps at least itself and a prefix tile is unmasked, so the max is finite
                new_max = scores.max(axis=1, keepdims=True)
                if t:
                    np.maximum(new_max, row_max, out=new_max)
                    rescale = np.exp(row_max - new_max)  # <= 1: the weights so far, moved to the new max
                    row_sum *= rescale
                    acc *= rescale
                row_max = new_max
                scores -= row_max
                np.exp(scores, out=scores)
                row_sum += (scores @ np.ones(scores.shape[1]))[:, None]  # faster than .sum(axis=1)
                acc += scores[:, :width] @ v[lo:hi]
                if n_bank:
                    acc += scores[:, width:] @ bank[1]
            np.divide(acc, row_sum, out=out[b0:b1])
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
        bands = [_Band(0, l, ((0, l),))]
    elif pattern.kind is PatternKind.LOCAL:
        bands = _window_bands(0, l, pattern.r)
    else:
        n_prefix = pattern.k
        # prefix rows see every key, in tiles as wide as the widest window band
        tiles = tuple(_blocks(0, l, ROW_BLOCK + 2 * pattern.r + n_prefix))
        bands = [_Band(b0, b1, tiles) for b0, b1 in _blocks(0, n_prefix)]
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

    # a non-finite side key or value is refused with ValueError, so numpy need not warn first
    with np.errstate(over="ignore", invalid="ignore"):
        averaged = block_average(emb, pattern.block)
        bank = (averaged @ kp, averaged @ vp)
    for name, side in zip(("keys", "values"), bank):
        if not np.isfinite(side).all():
            raise ValueError(f"side {name} overflowed to non-finite values")
    return _attend(q, k, v, _window_bands(0, l, pattern.r, bank), scale_by_sqrt_d, stats)
