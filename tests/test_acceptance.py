"""Acceptance suite.

Nine end-to-end criteria, one test each. Every test prints a single
ACCEPTANCE line through the capture so the verdict is visible in plain
pytest output, then enforces the same claim with asserts. Tolerances are
stated inline next to each check.
"""

import hashlib
import json
import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from click.testing import CliRunner

from prefix_global.cli import main as cli_main
from prefix_global.cost import accounted_pairs, mask_nnz
from prefix_global.demo import demo_corpus_path
from prefix_global.kernel import KernelStats, sparse_attention, tglobal_attention
from prefix_global.page import assign_split, iter_corpus
from prefix_global.patterns import build_mask, full, local, prefix_global, tglobal
from prefix_global.pipeline import build_dataset
from prefix_global.sequence import Task, leaks_target


@contextmanager
def criterion(capfd, n, label):
    try:
        yield
    except BaseException:
        with capfd.disabled():
            print(f"ACCEPTANCE C{n} ({label}): FAIL")
        raise
    with capfd.disabled():
        print(f"ACCEPTANCE C{n} ({label}): PASS")


# ------------------------------------------------------------------- C1


def test_c1_cost_table_via_cli(capfd):
    """The CLI cost table reproduces every published reference cell in
    under a second."""
    with criterion(capfd, 1, "cost table"):
        t0 = time.monotonic()
        res = CliRunner().invoke(cli_main, ["flops", "--json"])
        assert res.exit_code == 0
        cells = {(c["pattern"]["kind"], c["pattern"]["l"]): c["accounted_pairs"]
                 for c in json.loads(res.output)["cells"]}
        assert cells == {
            ("tglobal", 1024): 325_632,
            ("tglobal", 2048): 782_336,
            ("tglobal", 4096): 2_088_960,
            ("prefix-global", 1024): 916_480,
            ("prefix-global", 2048): 2_225_152,
            ("prefix-global", 4096): 4_842_496,
            ("full", 1024): 1_048_576,
            ("full", 2048): 4_194_304,
            ("full", 4096): 16_777_216,
        }
        assert time.monotonic() - t0 < 1.0


# ------------------------------------------------------------------- C2


def test_c2_cost_ratios(capfd):
    """Headline cost relationships at the reference geometry
    (k=512, r=127)."""
    with criterion(capfd, 2, "cost ratios"):
        pg = {l: accounted_pairs(prefix_global(l)) for l in (1024, 2048, 4096)}
        fl = {l: accounted_pairs(full(l)) for l in (1024, 2048, 4096)}
        ratio = pg[2048] / fl[2048]
        assert 0.52 <= ratio <= 0.54
        spend = pg[4096] - fl[2048]
        assert 0 < spend < 700_000
        gaps = [fl[l] - pg[l] for l in (1024, 2048, 4096)]
        assert gaps == sorted(gaps) and len(set(gaps)) == 3


# ------------------------------------------------------------------- C3


def _reference_attention(q, k, v, grid, scale):
    scores = (q @ k.T) / scale
    scores = np.where(grid, scores, -np.inf)
    m = scores.max(axis=1, keepdims=True)
    e = np.exp(scores - m)
    w = e / e.sum(axis=1, keepdims=True)
    return w @ v


def test_c3_kernel_matches_dense_reference(capfd):
    """200 seeded random instances across all four patterns: the banded
    kernel agrees with a plain dense masked softmax to 1e-9, within a
    2-minute budget."""
    with criterion(capfd, 3, "kernel equivalence"):
        t0 = time.monotonic()
        rng = np.random.default_rng(20260817)
        kinds = ["full", "local", "prefix-global", "tglobal"]
        for i in range(200):
            kind = kinds[i % 4]
            l = int(rng.integers(16, 257))
            d = int(rng.integers(4, 33))
            scale = math.sqrt(d)
            q = rng.standard_normal((l, d))
            if kind == "tglobal":
                r = int(rng.integers(0, l))
                block = int(rng.integers(1, l + 1))
                dm = int(rng.integers(4, 17))
                dv = int(rng.integers(2, 9))
                p = tglobal(l, r=r, block=block)
                emb = rng.standard_normal((l, dm))
                kp = rng.standard_normal((dm, d))
                vp = rng.standard_normal((dm, dv))
                k_mat, v_mat = emb @ kp, emb @ vp
                out = tglobal_attention(q, k_mat, v_mat, p, emb, kp, vp)
                avg = np.stack([emb[s : s + block].mean(axis=0)
                                for s in range(0, l, block)])
                k_ref = np.vstack([k_mat, avg @ kp])
                v_ref = np.vstack([v_mat, avg @ vp])
            else:
                if kind == "full":
                    p = full(l)
                elif kind == "local":
                    p = local(l, r=int(rng.integers(0, l)))
                else:
                    p = prefix_global(l, k=int(rng.integers(0, l + 1)),
                                      r=int(rng.integers(0, l)))
                k_mat = rng.standard_normal((l, d))
                v_mat = rng.standard_normal((l, int(rng.integers(2, 9))))
                k_ref, v_ref = k_mat, v_mat
                out = sparse_attention(q, k_mat, v_mat, p)
            grid = build_mask(p).to_grid().astype(bool)
            ref = _reference_attention(q, k_ref, v_ref, grid, scale)
            assert np.max(np.abs(out - ref)) <= 1e-9, f"instance {i} ({kind}, l={l})"
        assert time.monotonic() - t0 < 120.0


# ------------------------------------------------------------------- C4


def test_c4_closed_form_matches_enumeration(capfd):
    """100 random pattern configurations: the closed-form key-set size
    equals brute enumeration of the materialized mask."""
    with criterion(capfd, 4, "closed-form nnz"):
        rng = np.random.default_rng(41)
        kinds = ["full", "local", "prefix-global", "tglobal"]
        for i in range(100):
            kind = kinds[i % 4]
            l = int(rng.integers(1, 600))
            if kind == "full":
                p = full(l)
            elif kind == "local":
                p = local(l, r=int(rng.integers(0, l)))
            elif kind == "prefix-global":
                p = prefix_global(l, k=int(rng.integers(0, l + 1)),
                                  r=int(rng.integers(0, l)))
            else:
                p = tglobal(l, r=int(rng.integers(0, l)),
                            block=int(rng.integers(1, l + 1)))
            assert mask_nnz(p) == build_mask(p).nnz(), p.describe()
            if kind in ("full", "local"):
                assert accounted_pairs(p) >= 0


# ------------------------------------------------------------------- C5


def test_c5_locality_and_sensitivity(capfd):
    """Keys outside a query's set cannot move its output even at the bit
    level; keys inside the set must move it."""
    with criterion(capfd, 5, "bitwise locality"):
        rng = np.random.default_rng(5)
        l, k, r = 96, 10, 6
        p = prefix_global(l, k=k, r=r)
        q = rng.standard_normal((l, 8))
        keys = rng.standard_normal((l, 8))
        vals = rng.standard_normal((l, 8))
        base = sparse_attention(q, keys, vals, p)

        j = 80  # window-only key: seen by prefix rows and rows |i-j| <= r
        keys2 = keys.copy()
        keys2[j] += 1.0
        out = sparse_attention(q, keys2, vals, p)
        affected = [i for i in range(l) if i < k or abs(i - j) <= r]
        unaffected = [i for i in range(l) if i not in set(affected)]
        assert out[unaffected].tobytes() == base[unaffected].tobytes()
        assert any(not np.array_equal(out[i], base[i]) for i in affected)

        vals2 = vals.copy()  # prefix value: inside every query's set
        vals2[0] += 1.0
        out = sparse_attention(q, keys, vals2, p)
        assert all(not np.array_equal(out[i], base[i]) for i in range(l))


# ------------------------------------------------------------------- C6


def test_c6_score_buffer_ceiling(capfd):
    """The banded long-sequence forward pass never materializes a score
    buffer as large as dense attention needs at half the length."""
    with criterion(capfd, 6, "score buffer ceiling"):
        rng = np.random.default_rng(6)
        d = 8
        stats_full = KernelStats()
        q = rng.standard_normal((2048, d))
        sparse_attention(q, rng.standard_normal((2048, d)), rng.standard_normal((2048, d)),
                         full(2048), stats=stats_full)
        assert stats_full.peak_score_elements == 4_194_304

        stats_pg = KernelStats()
        q = rng.standard_normal((4096, d))
        sparse_attention(q, rng.standard_normal((4096, d)), rng.standard_normal((4096, d)),
                         prefix_global(4096, k=512, r=127), stats=stats_pg)
        assert stats_pg.peak_score_elements < stats_full.peak_score_elements
        assert stats_pg.score_blocks > 1


# ------------------------------------------------------------------- C7

GOLDEN_COUNTS = {
    Task.PAGE_DESCRIPTION: (20, 14, {"list_heavy": 1, "missing_description": 2,
                                     "too_few_content_sections": 3}),
    Task.SECTION_SUMMARIZATION: (61, 19, {"root": 20, "table_or_list": 2,
                                          "too_short": 20}),
    Task.IMAGE_CAPTIONING: (27, 23, {"mime": 1, "not_in_quality_set": 2,
                                     "short_reference": 1}),
}

ALL_REASONS = {
    "list_heavy", "missing_description", "too_few_content_sections",
    "root", "table_or_list", "too_short",
    "not_in_quality_set", "mime", "short_reference", "parse_error",
}


def _dataset_digest(task):
    routed, report = build_dataset(iter_corpus(demo_corpus_path()), task)
    blob = "\n".join(r.split + "\t" + r.example.to_json_line() for r in routed)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest(), report


def test_c7_pipeline_accounting_and_determinism(capfd, tmp_path):
    """Bundled-corpus counts match the hand tally, every documented
    rejection reason is exercised, and output bytes are identical across
    reruns."""
    with criterion(capfd, 7, "pipeline determinism"):
        seen_reasons = set()
        for task, (candidates, out_n, rejections) in GOLDEN_COUNTS.items():
            digest, report = _dataset_digest(task)
            assert report.candidates == candidates
            assert report.examples_out == out_n
            assert report.rejections == rejections
            assert report.accounted()
            seen_reasons |= set(rejections)
            redo, _ = _dataset_digest(task)
            assert redo == digest, f"{task.value} differs on rerun"
        bad = tmp_path / "bad.jsonl"
        bad.write_text(demo_corpus_path().read_text(encoding="utf-8") + "{broken\n", encoding="utf-8")
        _, report = build_dataset(iter_corpus(bad, strict=False), Task.PAGE_DESCRIPTION)
        assert report.rejections.get("parse_error") == 1
        seen_reasons.add("parse_error")
        assert seen_reasons == ALL_REASONS


# ------------------------------------------------------------------- C8


def test_c8_builder_invariants(capfd):
    """Every example built from the bundled corpus: the target never
    appears contiguously in the input, the global prefix respects the
    512-slot budget and the image caps, and section markers stay in page
    order."""
    with criterion(capfd, 8, "builder invariants"):
        overflow_seen = False
        for task in Task:
            routed, _ = build_dataset(iter_corpus(demo_corpus_path()), task)
            assert routed
            for r in routed:
                ex = r.example
                assert not leaks_target(ex)
                assert ex.prefix_len <= 512
                line = json.loads(ex.to_json_line())
                prefix, context = line["prefix"], line["context"]
                assert len(prefix) == ex.prefix_len
                slots = prefix + context
                image_slots = [s for s in slots if s["kind"] == "image"]
                prefix_images = [s for s in prefix if s["kind"] == "image"]
                assert len(image_slots) == len(prefix_images)  # images are prefix-only
                if task is Task.PAGE_DESCRIPTION:
                    assert len(prefix_images) <= 6
                elif task is Task.SECTION_SUMMARIZATION:
                    assert len(prefix_images) <= 1
                else:
                    assert len(prefix_images) == 1
                    assert slots[0]["kind"] == "image"
                    assert slots[0]["origin"] == "target_image"
                markers = [int(s["token"][2:-1]) for s in context
                           if s["kind"] == "text" and s["origin"] == "section_index"]
                assert markers == sorted(markers)
                if ex.prefix_len == 512:
                    overflow_seen = True
                    assert len(slots) > 512  # overflow demoted, never dropped
        assert overflow_seen  # the corpus contains a page that overflows


# ------------------------------------------------------------------- C9


def test_c9_split_statistics(capfd):
    """Hash-based routing over 10,000 fresh URLs lands within 2 points of
    90/5/5 and is order-independent."""
    with criterion(capfd, 9, "split statistics"):
        counts = {"train": 0, "val": 0, "test": 0}
        urls = [f"https://pages.example/entry/{i}" for i in range(10_000)]
        for u in urls:
            counts[assign_split(u)] += 1
        assert abs(counts["train"] / 10_000 - 0.90) < 0.02
        assert abs(counts["val"] / 10_000 - 0.05) < 0.01
        assert abs(counts["test"] / 10_000 - 0.05) < 0.01
        assert [assign_split(u) for u in reversed(urls)] == \
               [assign_split(u) for u in urls][::-1]
