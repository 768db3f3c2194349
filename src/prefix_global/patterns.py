"""Attention pattern definitions and mask construction.

Four patterns over a length-l token sequence:

- full: every query attends to every key.
- local: query i attends to keys within a radius-r window, |i - j| <= r.
- tglobal: local window plus a bank of side keys. Side key t is the average of
  token block [t*block, (t+1)*block) (final block may be short); every query
  attends to every side key, but side keys are never queries themselves.
- prefix-global: the first k tokens attend to and are attended by everything;
  the remaining tokens attend to the prefix plus their local window.

All four follow one key-set rule, stated once, in
AttentionPattern.global_rows: with g global rows, the first g queries see
every token key, and every other query sees the first g keys, its radius-r
window clipped below at g, and every side key. g is l for full, k for
prefix-global and 0 for local and tglobal; only tglobal has side keys.

A mask gives each query its keys as one sorted index array. Columns 0..l-1
are token keys; side key t sits at column l + t. The mask stores each row as
its 1-3 parts, read-only int64 views of one shared arange, so the first g
keys and the side keys are stored once per mask, not once per row. A row
that sees its whole window takes it as a row of one sliding view of the
arange, so build_mask takes a Python step only for the up to 2r + 1 rows
whose window is clipped at g or at l. Every query always attends to
itself (r >= 0 keeps i in its own window), so no row is ever empty.

AttentionPattern is the one place that fills a parameter left unset (None),
from _PARAMS: r = DEFAULT_RADIUS (127) and block = DEFAULT_BLOCK (16), the
window and block of LongT5's TGlobal (Guo et al. 2022), and prefix-global's
k = min(DEFAULT_PREFIX, l): the paper's prefix of at most 512 slots, and at
most the whole sequence. The factories (local, tglobal, prefix_global) and
the CLI pass on only the values they are given. A k given larger than l is
refused, not capped.

Every integer parameter (l, r, k, block) must be an exact int, type(x) is
int: True and False, numpy integers and int subclasses such as an IntEnum
member are refused with PatternError, as kernel.block_average refuses them
for its block.

grid_lines is the one CSV and PGM renderer. It makes one line per query,
painted from that row's parts, so a grid can be written out a line at a time
without joining a row or holding the whole text.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

import numpy as np

from .numcore import MASKED

DEFAULT_RADIUS = 127
DEFAULT_PREFIX = 512
DEFAULT_BLOCK = 16


class PatternError(ValueError):
    """Pattern parameters are invalid (an unknown kind, l < 1, r < 0, k out of
    range, block < 1)."""


class PatternKind(str, Enum):
    FULL = "full"
    LOCAL = "local"
    TGLOBAL = "tglobal"
    PREFIX_GLOBAL = "prefix-global"


# the parameters each kind uses, with their defaults; a kind's other parameters are None.
# An unset k is capped at l: min(DEFAULT_PREFIX, l)
_PARAMS = {
    PatternKind.FULL: {},
    PatternKind.LOCAL: {"r": DEFAULT_RADIUS},
    PatternKind.TGLOBAL: {"r": DEFAULT_RADIUS, "block": DEFAULT_BLOCK},
    PatternKind.PREFIX_GLOBAL: {"r": DEFAULT_RADIUS, "k": DEFAULT_PREFIX},
}


@dataclass(frozen=True)
class AttentionPattern:
    """A fully specified pattern. Parameters that a kind does not use are None;
    one it uses but is not given takes its default from _PARAMS, and k's is
    min(DEFAULT_PREFIX, l).

    l: sequence length. r: local radius (keys each side). k: prefix length
    (prefix-global only). block: side-key block size (tglobal only).
    """

    kind: PatternKind
    l: int
    r: int | None = None
    k: int | None = None
    block: int | None = None

    def __post_init__(self):
        if type(self.l) is not int or self.l < 1:
            raise PatternError(f"l must be a positive int, got {self.l!r}")
        try:
            kind = PatternKind(self.kind)
        except ValueError:
            raise PatternError(f"kind must be one of {[k.value for k in PatternKind]}, got {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        for name in ("r", "k", "block"):
            default = _PARAMS[kind].get(name)  # None for a parameter the kind does not use
            if getattr(self, name) is None or default is None:  # a given value the kind uses stays
                object.__setattr__(self, name, min(default, self.l) if name == "k" and default is not None else default)
        # a default always passes, so a refused value is the one given
        if self.r is not None and (type(self.r) is not int or self.r < 0):
            raise PatternError(f"r must be an int >= 0, got {self.r!r}")
        if self.k is not None and (type(self.k) is not int or not 0 <= self.k <= self.l):
            raise PatternError(f"k must satisfy 0 <= k <= l={self.l}, got {self.k!r}")
        if self.block is not None and (type(self.block) is not int or self.block < 1):
            raise PatternError(f"block must be an int >= 1, got {self.block!r}")

    @property
    def side_keys(self) -> int:
        """Number of averaged side keys (0 for every kind but tglobal)."""
        return -(-self.l // self.block) if self.kind is PatternKind.TGLOBAL else 0

    @property
    def global_rows(self) -> int:
        """g, the number of global rows, which decides every pattern's key
        sets: the first g queries see every token key, and every other query
        sees the first g keys, its radius-r window clipped below at g, and
        every side key. g is l for full, k for prefix-global and 0 for local
        and tglobal."""
        return self.l if self.kind is PatternKind.FULL else self.k or 0

    @property
    def n_keys(self) -> int:
        """Key columns: the l token keys, then the side keys."""
        return self.l + self.side_keys

    def describe(self) -> dict:
        out = {"kind": self.kind.value, "l": self.l}
        for name in ("r", "k", "block"):
            value = getattr(self, name)
            if value is not None:
                out[name] = value
        return out


def full(l: int) -> AttentionPattern:
    return AttentionPattern(PatternKind.FULL, l)


def local(l: int, r: int | None = None) -> AttentionPattern:
    return AttentionPattern(PatternKind.LOCAL, l, r=r)


def tglobal(l: int, r: int | None = None, block: int | None = None) -> AttentionPattern:
    return AttentionPattern(PatternKind.TGLOBAL, l, r=r, block=block)


def prefix_global(l: int, k: int | None = None, r: int | None = None) -> AttentionPattern:
    return AttentionPattern(PatternKind.PREFIX_GLOBAL, l, r=r, k=k)


class MaskRows(Sequence):
    """The rows of a mask. Each row is kept as its parts, read-only slices of
    one shared arange: the first g keys and the side keys are one slice each,
    shared by every row that uses them, and only the clipped window is a slice
    of its own. Indexing and iteration give each row as one sorted, read-only
    int64 array, joined from its parts when it is read; a slice of rows is
    another MaskRows. `parts` gives every row's parts unjoined, for readers
    that need no joined row."""

    def __init__(self, parts: tuple):
        self._parts = parts

    @property
    def parts(self) -> tuple:
        """Per query, a tuple of its 1-3 read-only key slices in column order."""
        return self._parts

    def __len__(self) -> int:
        return len(self._parts)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return MaskRows(self._parts[i])
        return _join(self._parts[i])

    def __iter__(self):
        return map(_join, self._parts)


def _join(parts: tuple) -> np.ndarray:
    if len(parts) == 1:
        return parts[0]
    row = np.concatenate(parts)
    row.flags.writeable = False
    return row


@dataclass(frozen=True, eq=False)
class AttentionMask:
    """Explicit mask: rows[i] is the sorted array of key columns query i sees.

    Columns 0..l-1 are token keys; columns l..l+side_keys-1 are side keys.
    Every row is read-only: writing into one raises ValueError. Keys that many
    rows share (the first g keys, the side keys) are stored once per mask, not
    once per row; see MaskRows. Two masks are equal when their patterns and
    every row's key columns are.
    """

    pattern: AttentionPattern
    rows: MaskRows

    def __eq__(self, other):
        if not isinstance(other, AttentionMask):
            return NotImplemented
        return (self.pattern == other.pattern and len(self.rows) == len(other.rows)
                and all(np.array_equal(a, b) for a, b in zip(self.rows, other.rows)))

    def __hash__(self):
        return hash(self.pattern)

    def nnz(self) -> int:
        return sum(part.size for parts in self.rows.parts for part in parts)

    def to_grid(self) -> np.ndarray:
        """Dense 0/1 uint8 grid, one row per query, one column per key."""
        grid = np.zeros((self.pattern.l, self.pattern.n_keys), dtype=np.uint8)
        for i, parts in enumerate(self.rows.parts):
            for part in parts:
                grid[i, part] = 1
        return grid

    def to_additive(self) -> np.ndarray:
        """Float64 additive mask: 0.0 where allowed, MASKED elsewhere."""
        grid = self.to_grid()
        return np.where(grid == 1, 0.0, MASKED)


def build_mask(pattern: AttentionPattern) -> AttentionMask:
    """Enumerate the key set of every query under `pattern`, by the rule
    that AttentionPattern.global_rows states. Rows g + r + 1 .. l - r - 1
    see their whole window, so their windows are the rows of one sliding
    view of the keys, paired with the shared parts without a Python step per
    row; only the up to 2r + 1 rows whose window is clipped, at g or at l,
    are built one at a time."""
    l, g = pattern.l, pattern.global_rows
    r = pattern.r or 0  # full's rows are all global, so its radius is never read
    keys = np.arange(pattern.n_keys, dtype=np.int64)
    keys.flags.writeable = False
    head = (keys[:g],) if g else ()
    side = (keys[l:],) if pattern.side_keys else ()

    def clipped(i):
        # a window that reaches g continues the first g keys: one run from 0
        lo, hi = (i - r if i - r > g else 0), min(l, i + r + 1)
        return (head if lo else ()) + (keys[lo:hi],) + side

    # rows [g, a) are clipped at g, rows [a, b) see their whole window, rows [b, l) are clipped at l
    a = min(g + r + 1, l)
    b = max(a, l - r)
    rows = [(keys[:l],)] * g
    rows += map(clipped, range(g, a))
    if b > a:  # row i's window is keys[i - r : i + r + 1], row i - r of the sliding view
        windows = np.lib.stride_tricks.sliding_window_view(keys[:l], 2 * r + 1)[a - r : b - r]
        rows += zip(*map(repeat, head), windows, *map(repeat, side))
    rows += map(clipped, range(b, l))
    return AttentionMask(pattern, MaskRows(tuple(rows)))


def grid_lines(mask: AttentionMask, fmt: str):
    """The "csv" or "pgm" text of `mask`, one line at a time; join them for
    the whole text. A pgm is a plain-text P2 image, maxval 1, allowed cells
    white, and starts with its header; then each query gives one line of 0/1
    cells joined by a comma (csv) or a space (pgm). Each line is painted from
    the row's parts, so no row is joined: cell j is character 2j of its line,
    followed by the separator or, after the last cell, a newline."""
    if fmt not in ("csv", "pgm"):
        raise ValueError(f"fmt must be 'csv' or 'pgm', got {fmt!r}")
    if fmt == "pgm":
        yield f"P2\n{mask.pattern.n_keys} {mask.pattern.l}\n1\n"
    line = np.full(2 * mask.pattern.n_keys, ord("," if fmt == "csv" else " "), dtype=np.uint8)
    line[-1] = ord("\n")
    for parts in mask.rows.parts:
        line[::2] = ord("0")
        for part in parts:
            line[2 * part] = ord("1")
        yield line.tobytes().decode("ascii")
