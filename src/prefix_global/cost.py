"""Attention cost accounting: query-key pairs per layer, closed form.

Every pattern follows the one key-set rule that
patterns.AttentionPattern.global_rows states, with g global rows and
pattern.side_keys side keys. Two counts per pattern, both first-class:

- accounted_pairs: the budgeting convention used when patterns are compared
  by hand. Each non-global query is charged a fixed 2r-wide window with no
  clipping at the sequence edges and no deduplication against global keys;
  global keys (side bank, prefix) are charged in full.

    every kind but local:  (l - g) * (2r + g)  +  g * l  +  l * side_keys
    local:                 true pair count (the convention adds nothing here)

  So full is l * l, tglobal is l * (2r + ceil(l / block)), and
  prefix-global is (l - k) * (2r + k) + k * l.

- mask_nnz: the exact number of allowed pairs in the realized mask (windows
  clipped at the edges, prefix/window overlap deduplicated, self included).
  W(n, r) = n*(2m+1) - m*(m+1), m = min(r, n-1), counts the clipped radius-r
  windows of n rows (0 for n = 0). Every kind allows g*l + (l-g)*g +
  W(l-g, r) + l * side_keys pairs: the g global rows see every key, and each
  later row sees the g global keys, its window over the l-g tokens after
  them, and every side key.

The convention over-charges edge clipping and prefix/window overlap but omits
the self key, so the two counts can land on either side of each other in
degenerate corners (tiny r with a long tail of windowed rows). For
prefix-global, accounted_pairs - mask_nnz = 2r(l - k) - W(l - k, r), which is
r*(r+1) - (l - k) once l - k > r and never negative below that: mask_nnz <=
accounted_pairs exactly when l <= k + r*(r+1). At the reference configuration
(k=512, r=127) that covers every l up to 16,768, far past anything the
comparison tables use.
"""

from __future__ import annotations

from dataclasses import dataclass

from .patterns import AttentionPattern, PatternKind


def _window_total(n: int, r: int) -> int:
    """Sum over n queries of the clipped window size |{j : |i-j| <= r}|; 0 for n = 0."""
    m = min(r, n - 1)
    return n * (2 * m + 1) - m * (m + 1)


def accounted_pairs(pattern: AttentionPattern) -> int:
    if pattern.kind is PatternKind.LOCAL:
        return mask_nnz(pattern)  # the convention is the exact count
    l, g, r = pattern.l, pattern.global_rows, pattern.r or 0  # full has no windowed rows
    return (l - g) * (2 * r + g) + g * l + l * pattern.side_keys


def mask_nnz(pattern: AttentionPattern) -> int:
    """Exact allowed-pair count, computed without materializing the mask."""
    l, g, r = pattern.l, pattern.global_rows, pattern.r or 0  # full has no windowed rows
    return g * l + (l - g) * g + _window_total(l - g, r) + l * pattern.side_keys


@dataclass(frozen=True)
class CostReport:
    pattern: AttentionPattern
    accounted_pairs: int
    mask_nnz: int
    ratio_vs_full: float

    def to_dict(self) -> dict:
        return {
            "pattern": self.pattern.describe(),
            "accounted_pairs": self.accounted_pairs,
            "mask_nnz": self.mask_nnz,
            "ratio_vs_full": self.ratio_vs_full,
        }


def report(pattern: AttentionPattern) -> CostReport:
    pairs = accounted_pairs(pattern)
    return CostReport(
        pattern=pattern,
        accounted_pairs=pairs,
        mask_nnz=mask_nnz(pattern),
        ratio_vs_full=pairs / (pattern.l * pattern.l),
    )


def compare(patterns: list[AttentionPattern]) -> list[CostReport]:
    """Cost reports sorted by (l, accounted_pairs). Mixed lengths stay
    explicit per row; ratios are always against full attention at the
    pattern's own l, never a silently shared denominator."""
    reports = [report(p) for p in patterns]
    reports.sort(key=lambda c: (c.pattern.l, c.accounted_pairs))
    return reports


_COLUMN_LABELS = {
    PatternKind.TGLOBAL: "TGlobal",
    PatternKind.PREFIX_GLOBAL: "Prefix Global",
    PatternKind.FULL: "Full",
    PatternKind.LOCAL: "Local",
}


def render_table(reports: list[CostReport]) -> str:
    """Accounted pairs as text: one row per sequence length, one column per
    pattern kind, cells thousands-separated."""
    kinds = [k for k in _COLUMN_LABELS if any(c.pattern.kind is k for c in reports)]
    lengths = sorted({c.pattern.l for c in reports})
    cells = {(c.pattern.l, c.pattern.kind): c.accounted_pairs for c in reports}
    header = ["Input Length"] + [_COLUMN_LABELS[k] for k in kinds]
    body = []
    for l in lengths:
        row = [f"{l:,}"]
        for k in kinds:
            value = cells.get((l, k))
            row.append("-" if value is None else f"{value:,}")
        body.append(row)
    widths = [max(len(line[j]) for line in [header] + body) for j in range(len(header))]
    lines = ["  ".join(cell.rjust(w) for cell, w in zip(line, widths)) for line in [header] + body]
    return "\n".join(lines) + "\n"
