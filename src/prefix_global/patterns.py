"""Attention pattern definitions and mask construction.

Four patterns over a length-l token sequence:

- full: every query attends to every key.
- local: query i attends to keys within a radius-r window, |i - j| <= r.
- tglobal: local window plus a bank of side keys. Side key t is the average of
  token block [t*block, (t+1)*block) (final block may be short); every query
  attends to every side key, but side keys are never queries themselves.
- prefix-global: the first k tokens attend to and are attended by everything;
  the remaining tokens attend to the prefix plus their local window.

All four follow one rule with g global rows: the first g queries see every
token key, and every other query sees the first g keys, its radius-r window
clipped below at g, and every side key. g is l for full, k for prefix-global
and 0 for local and tglobal; only tglobal has side keys.

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
    """Pattern parameters are invalid (an unknown kind, l < 1, r < 0, k out of
    range, block < 1)."""


class PatternKind(str, Enum):
    FULL = "full"
    LOCAL = "local"
    TGLOBAL = "tglobal"
    PREFIX_GLOBAL = "prefix-global"


# the parameters each kind uses, with their defaults; a kind's other parameters are None
_PARAMS = {
    PatternKind.FULL: {},
    PatternKind.LOCAL: {"r": DEFAULT_RADIUS},
    PatternKind.TGLOBAL: {"r": DEFAULT_RADIUS, "block": DEFAULT_BLOCK},
    PatternKind.PREFIX_GLOBAL: {"r": DEFAULT_RADIUS, "k": DEFAULT_PREFIX},
}


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
        try:
            kind = PatternKind(self.kind)
        except ValueError:
            raise PatternError(f"kind must be one of {[k.value for k in PatternKind]}, got {self.kind!r}") from None
        object.__setattr__(self, "kind", kind)
        given = {name: getattr(self, name) for name in ("r", "k", "block")}
        for name, value in given.items():
            default = _PARAMS[kind].get(name)  # None for a parameter the kind does not use
            object.__setattr__(self, name, default if default is None or value is None else value)
        if self.r is not None and (not _is_int(self.r) or self.r < 0):
            raise PatternError(f"r must be an int >= 0, got {given['r']!r}")
        if self.k is not None and (not _is_int(self.k) or not 0 <= self.k <= self.l):
            raise PatternError(f"k must satisfy 0 <= k <= l={self.l}, got {given['k']!r}")
        if self.block is not None and (not _is_int(self.block) or self.block < 1):
            raise PatternError(f"block must be an int >= 1, got {given['block']!r}")

    @property
    def side_keys(self) -> int:
        """Number of averaged side keys (0 for every kind but tglobal)."""
        return -(-self.l // self.block) if self.kind is PatternKind.TGLOBAL else 0

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
    Every row is read-only: writing into one raises ValueError. A row that
    is one contiguous run of columns is a slice of one shared array.
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


def build_mask(pattern: AttentionPattern) -> AttentionMask:
    """Enumerate the key set of every query under `pattern`: the first g rows
    see every token key, and every other row sees the first g keys, its
    radius-r window clipped below at g, and every side key."""
    l = pattern.l
    g = l if pattern.kind is PatternKind.FULL else pattern.k or 0
    r = pattern.r or 0  # full's rows are all global, so its radius is never read
    keys = np.arange(l + pattern.side_keys, dtype=np.int64)
    keys.flags.writeable = False
    rows = [keys[:l]] * g
    for i in range(g, l):
        # a window that reaches g continues the first g keys: one run from 0
        lo, hi = (i - r if i - r > g else 0), min(l, i + r + 1)
        parts = [keys[:g], keys[lo:hi]] if g and lo else [keys[lo:hi]]
        if pattern.side_keys:
            parts.append(keys[l:])
        row = parts[0]
        if len(parts) > 1:
            row = np.concatenate(parts)
            row.setflags(write=False)  # a slice of `keys` is read-only already
        rows.append(row)
    return AttentionMask(pattern, tuple(rows))


def _grid_text(mask: AttentionMask, sep: str) -> str:
    """One line per query, its 0/1 cells joined by `sep`."""
    return "".join(sep.join(map(str, row)) + "\n" for row in mask.to_grid().tolist())


def render_csv(mask: AttentionMask) -> str:
    """Grid as CSV text: one line per query, cells 0 or 1."""
    return _grid_text(mask, ",")


def render_pgm(mask: AttentionMask) -> str:
    """Grid as a plain-text PGM (P2) image, maxval 1, allowed cells white."""
    return f"P2\n{mask.n_keys} {mask.n_queries}\n1\n" + _grid_text(mask, " ")
