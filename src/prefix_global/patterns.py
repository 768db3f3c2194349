"""Attention pattern definitions and mask construction.

Four patterns over a length-l token sequence:

- full: every query attends to every key.
- local: query i attends to keys within a radius-r window, |i - j| <= r.
- tglobal: local window plus a bank of side keys. Side key t is the average of
  token block [t*block, (t+1)*block) (final block may be short); every query
  attends to every side key, but side keys are never queries themselves.
- prefix-global: the first k tokens attend to and are attended by everything;
  the remaining tokens attend to the prefix plus their local window.

Masks are kept as per-query sorted index arrays. Columns 0..l-1 are token
keys; side key t sits at column l + t. Every query always attends to itself
(r >= 0 keeps i in its own window), so no row is ever empty.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .numcore import MASKED
from .page import _is_int

DEFAULT_RADIUS = 127
DEFAULT_PREFIX = 512
DEFAULT_BLOCK = 16


class PatternError(ValueError):
    """Pattern parameters are invalid (l < 1, r < 0, k out of range, block < 1)."""


class PatternKind(str, Enum):
    FULL = "full"
    LOCAL = "local"
    TGLOBAL = "tglobal"
    PREFIX_GLOBAL = "prefix-global"


@dataclass(frozen=True)
class AttentionPattern:
    """A fully specified pattern. Parameters that a kind does not use are None.

    l: sequence length. r: local radius (keys each side). k: prefix length
    (prefix-global only). block: side-key block size (tglobal only).
    """

    kind: PatternKind
    l: int
    r: int | None = None
    k: int | None = None
    block: int | None = None

    def __post_init__(self):
        if not _is_int(self.l) or self.l < 1:
            raise PatternError(f"l must be a positive int, got {self.l!r}")
        kind = PatternKind(self.kind)
        object.__setattr__(self, "kind", kind)
        if kind is PatternKind.FULL:
            object.__setattr__(self, "r", None)
            object.__setattr__(self, "k", None)
            object.__setattr__(self, "block", None)
            return
        r = DEFAULT_RADIUS if self.r is None else self.r
        if not _is_int(r) or r < 0:
            raise PatternError(f"r must be an int >= 0, got {self.r!r}")
        object.__setattr__(self, "r", r)
        if kind is PatternKind.LOCAL:
            object.__setattr__(self, "k", None)
            object.__setattr__(self, "block", None)
        elif kind is PatternKind.TGLOBAL:
            block = DEFAULT_BLOCK if self.block is None else self.block
            if not _is_int(block) or block < 1:
                raise PatternError(f"block must be an int >= 1, got {self.block!r}")
            object.__setattr__(self, "k", None)
            object.__setattr__(self, "block", block)
        else:
            k = DEFAULT_PREFIX if self.k is None else self.k
            if not _is_int(k) or not 0 <= k <= self.l:
                raise PatternError(f"k must satisfy 0 <= k <= l={self.l}, got {self.k!r}")
            object.__setattr__(self, "k", k)
            object.__setattr__(self, "block", None)

    @property
    def side_keys(self) -> int:
        """Number of averaged side keys (0 for every kind but tglobal)."""
        if self.kind is PatternKind.TGLOBAL:
            return -(-self.l // self.block)
        return 0

    def describe(self) -> dict:
        out = {"kind": self.kind.value, "l": self.l}
        for name in ("r", "k", "block"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def full(l: int) -> AttentionPattern:
    return AttentionPattern(PatternKind.FULL, l)


def local(l: int, r: int = DEFAULT_RADIUS) -> AttentionPattern:
    return AttentionPattern(PatternKind.LOCAL, l, r=r)


def tglobal(l: int, r: int = DEFAULT_RADIUS, block: int = DEFAULT_BLOCK) -> AttentionPattern:
    return AttentionPattern(PatternKind.TGLOBAL, l, r=r, block=block)


def prefix_global(l: int, k: int = DEFAULT_PREFIX, r: int = DEFAULT_RADIUS) -> AttentionPattern:
    return AttentionPattern(PatternKind.PREFIX_GLOBAL, l, r=r, k=k)


@dataclass(frozen=True)
class AttentionMask:
    """Explicit mask: rows[i] is the sorted array of key columns query i sees.

    Columns 0..l-1 are token keys; columns l..l+side_keys-1 are side keys.
    Row arrays may be shared between queries; treat them as read-only.
    """

    pattern: AttentionPattern
    rows: tuple

    @property
    def side_keys(self) -> int:
        return self.pattern.side_keys

    @property
    def n_queries(self) -> int:
        return self.pattern.l

    @property
    def n_keys(self) -> int:
        return self.pattern.l + self.side_keys

    def nnz(self) -> int:
        return sum(row.size for row in self.rows)

    def to_grid(self) -> np.ndarray:
        """Dense 0/1 uint8 grid, one row per query, one column per key."""
        grid = np.zeros((self.n_queries, self.n_keys), dtype=np.uint8)
        for i, row in enumerate(self.rows):
            grid[i, row] = 1
        return grid

    def to_additive(self) -> np.ndarray:
        """Float64 additive mask: 0.0 where allowed, MASKED elsewhere."""
        grid = self.to_grid()
        return np.where(grid == 1, 0.0, MASKED)


def _window(i: int, r: int, l: int) -> np.ndarray:
    return np.arange(max(0, i - r), min(l - 1, i + r) + 1, dtype=np.int64)


def build_mask(pattern: AttentionPattern) -> AttentionMask:
    """Enumerate the key set of every query under `pattern`."""
    l = pattern.l
    kind = pattern.kind
    if kind is PatternKind.FULL:
        everything = np.arange(l, dtype=np.int64)
        rows = tuple(everything for _ in range(l))
        return AttentionMask(pattern, rows)

    r = pattern.r
    if kind is PatternKind.LOCAL:
        rows = tuple(_window(i, r, l) for i in range(l))
        return AttentionMask(pattern, rows)

    if kind is PatternKind.TGLOBAL:
        bank = np.arange(l, l + pattern.side_keys, dtype=np.int64)
        rows = tuple(np.concatenate([_window(i, r, l), bank]) for i in range(l))
        return AttentionMask(pattern, rows)

    k = pattern.k
    everything = np.arange(l, dtype=np.int64)
    prefix_cols = np.arange(k, dtype=np.int64)
    rows = []
    for i in range(l):
        if i < k:
            rows.append(everything)
            continue
        lo, hi = max(0, i - r), min(l - 1, i + r)
        if lo <= k:
            # window touches or overlaps the prefix: one contiguous run
            rows.append(np.arange(0, hi + 1, dtype=np.int64))
        else:
            rows.append(np.concatenate([prefix_cols, np.arange(lo, hi + 1, dtype=np.int64)]))
    return AttentionMask(pattern, tuple(rows))


def render_csv(mask: AttentionMask) -> str:
    """Grid as CSV text: one line per query, cells 0 or 1."""
    grid = mask.to_grid()
    return "\n".join(",".join(str(int(c)) for c in row) for row in grid) + "\n"


def render_pgm(mask: AttentionMask) -> str:
    """Grid as a plain-text PGM (P2) image, maxval 1, allowed cells white."""
    grid = mask.to_grid()
    h, w = grid.shape
    lines = ["P2", f"{w} {h}", "1"]
    lines.extend(" ".join(str(int(c)) for c in row) for row in grid)
    return "\n".join(lines) + "\n"
