"""Block-sparse forward attention for the structured patterns.

Every pattern compiles to a list of bands, and one executor runs them all.
The plan is built from the pattern alone, so it can be counted without
running attention; only the executor reads k and v. A band is a run of query
rows [b0, b1) that scores its keys in one or more key tiles, each the
contiguous key rows [lo, hi) with the tile's radius-r window outside-mask,
or with none where the band sees every key of the tile, and with the tile's
bank, a key range that every row of the band sees unmasked: a window band's
one tile holds the band's bank, and a prefix tile an empty one. Every
pattern follows the one key-set rule that AttentionPattern.global_rows
states, with g global rows. So the plan is ROW_BLOCK-row bands over rows
[0, g), each tiling every key in tiles of ROW_BLOCK + 2r + g keys, then
ROW_BLOCK-row window bands over rows [g, l), each one tile spanning its
clipped window and banked on the key range [0, g), which is empty for local,
or on tglobal's block-averaged side keys [l, n_keys). k and v carry the side
keys and values as their last side_keys rows, the column order of the
pattern's mask and of the dense oracle, and one operand check,
numcore.attention_operands, serves both. It scans each operand once, with
one max and one min, and hands the kernel their peaks max|q|, max|k| and
max|v|, which the overflow bound and the v guard read. tglobal_attention
checks its token rows there and its side rows itself, folds the side rows'
peaks into the token rows' and runs the plan, so no operand is scanned
twice. Full is prefix-global at k = l: every row is global, so its plan is
l / ROW_BLOCK bands (rounded up), each one tile over all l keys. No score
block has more than ROW_BLOCK rows, whatever the pattern and l are.

A band is an online softmax over its tiles (Milakov & Gimelshein 2018;
FlashAttention, Dao et al. 2022). It starts from the empty softmax, row max
-inf, row sum 0 and output 0, and every tile takes the same step: the tile
and its bank are scored, scaled in place by 1/sqrt(d), masked, and
exponentiated against the running row max, after the running row sum and
output are rescaled by exp(old max - new max). The running output is the
band's own rows of the call's output, which every tile adds to, so no tile
allocates a temporary the size of its scores. The output is divided by the
row sums once, at the end of the band, which costs rows x d_v divisions
instead of rows x width. Before that division a row holds up to (keys) x
max|v|, since no weight exceeds 1. Where that bound, over the call's keys
and its max|v|, could pass the largest float64 (the v guard), each band
takes its own bound from its own key ranges, its tiles and its bank: their
count and their max|v|. A band whose own bound could pass it runs on a copy
of those rows of v scaled down by a power of two and scales its output rows
back up, both exact; every other band runs on v as it is. No ordinary input
is scaled, so no ordinary output changes by a bit.

Every window tile's outside-mask is a view of one mask per call, of
ROW_BLOCK rows and ROW_BLOCK + 2 min(r, l) keys, taken at column offset
min(r, l) - (b0 - lo); the mask is itself a reversed sliding view of one 1-D
row pattern, and the tile's allowed entries are the same view of the
pattern's complement. So a plan holds two masks whatever r is, though once
r >= l every band's tile has a geometry of its own. A window tile's row max is
taken over its allowed entries only, every entry is exponentiated against
it, and then the masked entries' weights are set to exactly 0.0. No -inf
reaches the scores' exp, which is slow on it in float64; it reaches exp once
per band, in the first tile's per-row rescale. An allowed entry sees the
same max, subtraction and exp as it would with the masked entries at -inf,
so a key outside a query's allowed set cannot change that query's output
even at the bit level, even where its exp overflowed before it was zeroed.
A huge value in v shifts only the bands whose own key ranges hold it, and
only where their own bound needs it, so it moves no bit of any other band;
in a band that does scale, subnormal outputs can round, in its rows that do
not see the value as in those that do.

A call is refused with ValueError, without a RuntimeWarning, exactly when a
scaled score that is not finite falls on a query-key pair the pattern allows,
as the dense oracle refuses it: a window tile's masked entries are left out
of the check, and prefix tiles and the bank, which every row of the band
sees, are checked in full. Where the pattern forbids the pair, the score is
masked like any other, so whether a call is refused does not depend on which
keys a band's tiles happen to span. The scale multiplies the scores, not q:
(q / sqrt(d)) . k can be finite where q . k overflowed, and the kernel would
then accept what the dense oracle refuses. Once per call, in Python floats
(so an overflowing bound is inf, unwarned), the kernel bounds every score by
d max|q| max|k|, tglobal's side keys included. A call whose bound is below
2^1000 cannot produce a non-finite score, rounding included, so its tiles
skip the finiteness scan; any other call scans every tile as above. The scan
only decides refusal, so neither path changes an output bit.

A call plans in the calling thread, then runs its bands on up to the usable
cores. min(cores, bands) workers, the calling thread one of them, pull bands
from one shared iterator, and the extra threads are started and joined inside
the call, so calls share no state and no thread outlives one. Numpy releases
the GIL in the matmuls and ufunc loops that are nearly all of a band's time.
Each band writes only its own output rows, with a fixed reduction order per
row, and band boundaries are fixed every ROW_BLOCK rows, so outputs are
deterministic and do not depend on the worker count. A refused call raises
the error of its lowest-index failing band, the one a serial run would have
stopped at.
Worker threads multiply with BLAS threads, so pin BLAS to one thread where
cores are few.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .numcore import ShapeError, as_matrix, attention_operands, max_abs
from .patterns import AttentionPattern, PatternError, PatternKind

ROW_BLOCK = 128  # band height; bounds every score buffer at 128 rows


@dataclass
class KernelStats:
    """Score-buffer instrumentation, recorded from a call's plan in band order
    before any band runs, so a refused call counts every block of its plan.
    peak_score_elements is the element count of the widest score block. Each
    worker holds one buffer that size, so up to `workers` such blocks are live
    at once."""

    peak_score_elements: int = 0
    score_blocks: int = 0

    def record(self, n_elements: int) -> None:
        self.score_blocks += 1
        if n_elements > self.peak_score_elements:
            self.peak_score_elements = n_elements


class _Band(NamedTuple):
    """Rows [b0, b1) against each key tile (lo, hi, outside, inside, bank)
    of `tiles` in turn: rows [lo, hi) of k and v, with the scores where the
    boolean (rows, hi - lo) array `outside` is True masked out, or none
    masked where it is None; `inside` is its complement, or None with it.
    The tile also scores its bank, rows [bank[0], bank[1]) of k and v, which
    every row of the band sees unmasked; a prefix tile's bank is (0, 0)."""

    b0: int
    b1: int
    tiles: tuple


def _blocks(start: int, stop: int, size: int = ROW_BLOCK):
    for b0 in range(start, stop, size):
        yield b0, min(b0 + size, stop)


def _bands(pattern: AttentionPattern) -> list:
    """The plan, from the pattern alone: prefix bands over the pattern's
    global rows (AttentionPattern.global_rows), then window bands banked on
    the side keys' range [l, n_keys), or else on [0, g). Each window tile
    carries its outside-mask and its complement, views of the call's one
    window mask and one complement. Full's rows are all global, so its
    radius is never read."""
    l, g, r = pattern.l, pattern.global_rows, pattern.r or 0
    # global rows see every key, in tiles as wide as the widest window band
    tiles = tuple((lo, hi, None, None, (0, 0)) for lo, hi in _blocks(0, l, ROW_BLOCK + 2 * r + g))
    bands = [_Band(b0, b1, tiles) for b0, b1 in _blocks(0, g)]
    bank = (l, pattern.n_keys) if pattern.side_keys else (0, g)
    # row i, column c of the window mask is outside when |i + w - c| > r, so key
    # lo + j of a band's tile is its column w + lo - b0 + j; a tile reaches at most w keys past its rows.
    # Outside depends on c - i alone: entry x of `offsets` is c - i = x + 1 - ROW_BLOCK, and row i is the
    # row ROW_BLOCK - 1 - i of its sliding view, so the read-only reversed view is the whole mask,
    # and the same view of the complement pattern is its allowed entries
    w = min(r, l)
    offsets = np.arange(1 - ROW_BLOCK, ROW_BLOCK + 2 * w)
    near = np.abs(offsets - w) <= r
    outside, inside = (np.lib.stride_tricks.sliding_window_view(row, ROW_BLOCK + 2 * w)[::-1] for row in (~near, near))
    for b0, b1 in _blocks(g, l):
        lo, hi = max(g, b0 - r), min(l, b1 + r)
        cols = slice(w + lo - b0, w + hi - b0)
        bands.append(_Band(b0, b1, ((lo, hi, outside[: b1 - b0, cols], inside[: b1 - b0, cols], bank),)))
    return bands


def _usable_cores() -> int:
    """Cores this process may run on. Tests monkeypatch it to set the worker count."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _attend(q, k, v, peaks, pattern, scale_by_sqrt_d: bool, stats: KernelStats | None) -> np.ndarray:
    """The kernel's one entry, for checked operands: check their row counts
    against the pattern, plan, record the plan in the calling thread, then
    run its bands on up to the usable cores. The plan's walk records every
    score block in band order and sizes each worker's scratch to the widest
    block; the call's score bound, from the operand peaks (max|q|, max|k|,
    max|v|), decides whether its tiles scan for non-finite scores, and
    where the call's weighted sum of v could overflow, each band scales by
    its own shift (_band_values). Workers pull bands from one shared
    iterator, and each band writes only its own rows of the output, so the
    worker count changes no output bit."""
    l, n_keys = pattern.l, pattern.n_keys
    if (q.shape[0], k.shape[0]) != (l, n_keys):
        raise ShapeError(f"{pattern.kind.value} attention needs {l} query rows and {n_keys} key rows, "
                         f"got {q.shape[0]} and {k.shape[0]}")
    bands = _bands(pattern)
    q_peak, k_peak, v_peak = peaks
    inv_scale = 1.0 / math.sqrt(q.shape[1]) if scale_by_sqrt_d else 1.0
    widest = cols = 0
    for b0, b1, tiles in bands:
        for lo, hi, _, _, (bank_lo, bank_hi) in tiles:
            n_cols = hi - lo + bank_hi - bank_lo
            if stats is not None:
                stats.record((b1 - b0) * n_cols)
            widest, cols = max(widest, (b1 - b0) * n_cols), max(cols, n_cols)
    # |q_i . k_j| <= d max|q| max|k|: below 2^1000 no score, rounded or scaled, can be non-finite;
    # in Python floats an overflowing bound is inf, with no numpy warning
    checked = q.shape[1] * q_peak * k_peak >= 2.0**1000
    # the v guard: only where the call's keys could sum past DBL_MAX does each band take its own
    # shift. A band's shift is 0 whenever the call's is, so this gate changes no bit; it saves the
    # per-band scans, which cost page-attend's 103 seed-13 calls 1.15x their time on a 2-vCPU Xeon
    # with numpy 2.4 (slower in 12 of 12 alternated passes), and attend-sweep's 10 within noise
    guarded = _v_shift(v_peak, k.shape[0]) > 0
    out = np.zeros((q.shape[0], v.shape[1]))  # every band's output rows start at the empty softmax's 0
    jobs = iter(enumerate(bands))  # next() on a list iterator is atomic under the GIL
    errors = {}  # band index -> the exception that band raised

    def work(scratch, ones):  # every tile's scores are a view of scratch
        # overflow is refused with ValueError in _run_band, so numpy need not warn first;
        # errstate is per thread, so each worker sets its own
        with np.errstate(over="ignore", invalid="ignore"):
            for i, band in jobs:
                if errors:
                    return
                try:
                    shift, v_band = _band_values(v, band) if guarded else (0, v)
                    _run_band(q, k, v_band, band, inv_scale, checked, scratch, ones, out)
                    if shift:  # exact: the band's output rows back to v's own scale
                        np.ldexp(out[band.b0 : band.b1], shift, out=out[band.b0 : band.b1])
                except BaseException as exc:  # re-raised by the calling thread
                    errors[i] = exc
                    return

    # the caller allocates every worker's buffers, so they return to the malloc
    # arena its own next allocations come from (measured: lower page-attend peak RSS)
    buffers = [(np.empty(widest), np.ones(cols)) for _ in range(min(_usable_cores(), len(bands)))]
    threads = []
    try:
        for scratch_and_ones in buffers[1:]:
            thread = threading.Thread(target=work, args=scratch_and_ones)
            try:
                thread.start()
            except RuntimeError:  # no thread to be had: run on the workers already started
                break
            threads.append(thread)
        work(*buffers[0])  # the calling thread is a worker too
    finally:
        for thread in threads:
            thread.join()
    # every band before the lowest failing one was handed out first and ran to
    # its end, so this is the band a serial run would have refused on
    if errors:
        raise errors[min(errors)]
    return out


def _v_shift(peak: float, n_keys: int) -> int:
    """The power of two to scale values down by so that a sum of n_keys
    weighted values, |v| <= peak and weights <= 1, stays below DBL_MAX: 0
    unless peak * n_keys could reach 2^1023."""
    return max(0, math.frexp(peak)[1] + n_keys.bit_length() - 1023)


def _band_values(v, band) -> tuple:
    """The shift a band takes once its call's v guard has fired, from the
    count and max|v| of its own key ranges, its tiles and their banks, and
    the v it runs on: v itself where the shift is 0, else a copy whose rows
    in those ranges, the only ones the band reads, are scaled down by it."""
    ranges = [key_range for lo, hi, _, _, bank in band.tiles for key_range in ((lo, hi), bank)]
    shift = _v_shift(max(max_abs(v[lo:hi]) for lo, hi in ranges), sum(hi - lo for lo, hi in ranges))
    if not shift:
        return 0, v
    scaled = np.empty_like(v)
    for lo, hi in ranges:
        np.ldexp(v[lo:hi], -shift, out=scaled[lo:hi])
    return shift, scaled


def _run_band(q, k, v, band, inv_scale, checked, scratch, ones, out) -> None:
    """One band as an online softmax over its key tiles, from the empty
    softmax: for each tile, score it and its bank in one block, check it for
    non-finite scores if the call's bound is `checked`, take its row max over
    the allowed entries, rescale the running row sum and the band's output
    rows to the new running max, exponentiate the block whole, zero the
    weights outside the window, and add them in. The output rows are divided
    by their row sums once, at the end."""
    b0, b1, tiles = band
    rows = b1 - b0
    row_max, row_sum = np.full(rows, -np.inf), np.zeros(rows)
    acc = out[b0:b1]
    for lo, hi, outside, inside, (bank_lo, bank_hi) in tiles:
        width = hi - lo
        n_cols = width + bank_hi - bank_lo
        scores = scratch[: rows * n_cols].reshape(rows, n_cols)
        np.matmul(q[b0:b1], k[lo:hi].T, out=scores[:, :width])
        if n_cols > width:
            np.matmul(q[b0:b1], k[bank_lo:bank_hi].T, out=scores[:, width:])
        scores *= inv_scale
        if checked and not np.isfinite(scores).all():
            refused = ~np.isfinite(scores)
            if inside is not None:  # a pair outside the window is masked below, not refused
                refused[:, :width] &= inside
            if refused.any():
                raise ValueError(f"attention scores of rows {b0}..{b1 - 1} overflowed to non-finite values")
        # a window row keeps at least itself and a prefix tile is unmasked, so the max is finite
        if inside is None:
            new_max = scores.max(axis=1)
        else:  # over the allowed entries alone, so no masked entry moves it
            new_max = scores[:, :width].max(axis=1, where=inside, initial=-np.inf)
            if n_cols > width:
                np.maximum(new_max, scores[:, width:].max(axis=1), out=new_max)
        np.maximum(new_max, row_max, out=new_max)
        rescale = np.exp(row_max - new_max)  # <= 1: the weights so far, moved to the new max; 0 on the first tile
        row_sum *= rescale
        acc *= rescale[:, None]
        row_max = new_max
        scores -= row_max[:, None]
        np.exp(scores, out=scores)
        if outside is not None:  # a masked entry's weight is exactly 0.0, whatever its score was
            np.copyto(scores[:, :width], 0.0, where=outside)
        row_sum += scores @ ones[:n_cols]  # faster than .sum(axis=1)
        acc += scores[:, :width] @ v[lo:hi]
        if n_cols > width:
            acc += scores[:, width:] @ v[bank_lo:bank_hi]
    acc /= row_sum[:, None]


def sparse_attention(
    q,
    k,
    v,
    pattern: AttentionPattern,
    scale_by_sqrt_d: bool = True,
    stats: KernelStats | None = None,
) -> np.ndarray:
    """Forward attention under any pattern.

    q: (l, d); k: (l + side_keys, d); v: (l + side_keys, d_v), float64, with
    tglobal's side keys and values as the last side_keys rows, in the mask's
    column order, as dense_attention takes them. Returns (l, d_v), equal to
    dense attention over the pattern's rendered mask. Pass a KernelStats to
    observe buffer sizes.
    """
    q, k, v, peaks = attention_operands(q, k, v)
    return _attend(q, k, v, peaks, pattern, scale_by_sqrt_d, stats)


def block_average(token_embeddings, block: int) -> np.ndarray:
    """Mean of each consecutive `block` rows; the final group may be shorter.
    Returns ceil(l / block) rows."""
    emb = as_matrix(token_embeddings, "token_embeddings")
    if type(block) is not int or block < 1:
        raise PatternError(f"block must be an int >= 1, got {block!r}")
    l, d = emb.shape
    whole = l - l % block
    # a reshape-reduce over the whole blocks: reduceat along axis 0 is numpy's slow path
    means = emb[:whole].reshape(whole // block, block, d).sum(axis=1) / block
    if whole == l:
        return means
    return np.vstack([means, emb[whole:].sum(axis=0) / (l - whole)])


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
    """tglobal attention from the token rows alone: q, k, v have l rows each.

    token_embeddings (l x d_model) are block-averaged and pushed through
    key_proj (d_model x d) and value_proj (d_model x d_v), the projections
    that made k and v; the side keys and values this gives are stacked under
    k and v, as sparse_attention takes them, and the plan runs on them without
    checking the stacked rows again. Kept because the benchmark harness calls
    it.
    """
    if pattern.kind is not PatternKind.TGLOBAL:
        raise PatternError(f"expected a tglobal pattern, got {pattern.kind.value}")
    l = pattern.l
    q, k, v, (q_peak, k_peak, v_peak) = attention_operands(q, k, v)
    if k.shape[0] != l:
        raise ShapeError(f"k and v must have l={l} rows, without side rows, got {k.shape[0]}")
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
        side_k, side_v = averaged @ kp, averaged @ vp
    # the token rows are checked above, so the side rows' peaks fold into theirs and the
    # plan runs without a second check of the stacked operands
    peaks = [q_peak]
    for name, side, peak in (("keys", side_k, k_peak), ("values", side_v, v_peak)):
        side_peak = max_abs(side)
        if not math.isfinite(side_peak):
            raise ValueError(f"side {name} overflowed to non-finite values")
        peaks.append(max(peak, side_peak))
    return _attend(q, np.vstack([k, side_k]), np.vstack([v, side_v]), peaks, pattern, scale_by_sqrt_d, stats)
