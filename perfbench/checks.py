"""Output checks, run outside the timed windows.

The oracles are independent of the code they check: build reports are
compared with the generator's own tallies, split files are re-read and
re-counted, and attention rows are recomputed one query at a time from the
key sets that patterns.build_mask enumerates, with tglobal side keys averaged
here rather than by the kernel module.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib

import numpy as np

SPLITS = ("train", "val", "test")
ATOL = 1e-9


def file_digests(out_dir) -> dict:
    out = pathlib.Path(out_dir)
    return {s: hashlib.sha256((out / f"{s}.jsonl").read_bytes()).hexdigest() for s in SPLITS}


def check_build(out_dir, report: dict, expected: dict, task: str, prefix_capped: int | None):
    """Failures of one `build` call's outputs, and the slot counts of its examples.

    `report` is the accounting the call printed; `expected` is the
    generator's tally for `task`; `prefix_capped` is the tallied number of
    examples whose prefix fills the 512-slot budget, or None to skip it.
    """
    failures = []
    acc = report["accounting"]
    if acc["examples_out"] + sum(acc["rejections"].values()) != acc["candidates"]:
        failures.append(f"{task}: report accounting does not close")
    for field, want in (("pages_in", expected["pages_in"]), ("candidates", expected["candidates"]),
                        ("examples_out", expected["examples"])):
        if acc[field] != want:
            failures.append(f"{task}: {field} {acc[field]} != tallied {want}")
    if acc["rejections"] != dict(sorted(expected["rejections"].items())):
        failures.append(f"{task}: rejections {acc['rejections']} != tallied {expected['rejections']}")
    if acc["rejections"].get("parse_error", 0) != expected["rejections"].get("parse_error", 0):
        failures.append(f"{task}: parse_error differs from the injected count")

    slots, capped = [], 0
    for split in SPLITS:
        n = 0
        with open(pathlib.Path(out_dir) / f"{split}.jsonl", encoding="utf-8") as fh:
            for n, line in enumerate(fh, start=1):
                try:
                    ex = json.loads(line)
                    prefix, context = ex["prefix"], ex["context"]
                except (ValueError, KeyError, TypeError):
                    failures.append(f"{task}/{split} line {n}: not an example record")
                    continue
                if ex.get("task") != task or not 1 <= len(prefix) <= 512:
                    failures.append(f"{task}/{split} line {n}: task or prefix length out of range")
                capped += len(prefix) == 512
                slots.append(len(prefix) + len(context))
        if n != acc["splits"][split]:
            failures.append(f"{task}/{split}: {n} lines but report says {acc['splits'][split]}")
    if len(slots) != expected["examples"]:
        failures.append(f"{task}: {len(slots)} example lines, tallied {expected['examples']}")
    if prefix_capped is not None and capped != prefix_capped:
        failures.append(f"{task}: {capped} prefixes at 512 slots, tallied {prefix_capped}")
    return failures, slots


def block_means(emb: np.ndarray, block: int) -> np.ndarray:
    """Mean of each run of `block` rows, the last run possibly shorter."""
    return np.array([emb[t : t + block].mean(axis=0) for t in range(0, emb.shape[0], block)])


def oracle_row(q_row, keys, values, cols, scale: float) -> np.ndarray:
    """Softmax attention of one query over the listed key columns only."""
    s = (keys[cols] @ q_row) / scale
    w = np.exp(s - s.max())
    return (w / w.sum()) @ values[cols]


def check_rows(label: str, out_rows: dict, q, keys, values, mask_rows: dict) -> list:
    """Compare sampled output rows {i: row} with the per-row oracle over the
    key columns {i: cols} from build_mask."""
    scale = math.sqrt(q.shape[1])
    worst = 0.0
    for i, row in out_rows.items():
        worst = max(worst, float(np.max(np.abs(row - oracle_row(q[i], keys, values, mask_rows[i], scale)))))
    return [] if worst <= ATOL else [f"{label}: sampled row differs from the oracle by {worst:.3g}"]


def sample_rows(rng, l: int, k: int, n: int) -> list:
    """`n` seeded query rows plus the band and prefix edges."""
    edges = {0, l - 1, k - 1, k, k + 1, 127, 128, l - 128}
    picked = set(rng.choice(l, size=min(n, l), replace=False).tolist())
    return sorted(i for i in picked | edges if 0 <= i < l)


def count_failed(digests: list, checked: str | None, check_ok: bool) -> int:
    """Failed repetitions of one op. `digests` holds each repetition's output
    digest (None when the call raised); `checked` is the digest whose output
    went through the oracle check. A repetition fails if it raised, if its
    output differs from the checked one, or if the checked output failed."""
    return sum(1 for d in digests if d is None or d != checked or not check_ok)
