"""Pipeline tests: split assignment, filter accounting on the bundled
corpus, rerun determinism, and corpus statistics.

The expected counts below were tallied by hand from the 20 bundled pages
before being asserted here; they are golden values, not snapshots of
program output.
"""

import hashlib
import importlib.util
import json
import os
import pathlib

import pytest

from prefix_global import pipeline, sequence
from prefix_global.demo import demo_corpus_path
from prefix_global.page import assign_split, iter_corpus
from prefix_global.pipeline import (
    DEFAULT_CONTENT_SECTION_THRESHOLD,
    build_dataset,
    corpus_stats,
    nearest_rank,
)
from prefix_global.sequence import PageDescPrefix, Task


def corpus_items():
    return list(iter_corpus(demo_corpus_path()))


# ---------------------------------------------------------------- splits


def test_assign_split_deterministic():
    urls = [f"https://site.example/wiki/Page_{i}" for i in range(50)]
    first = [assign_split(u) for u in urls]
    second = [assign_split(u) for u in urls]
    assert first == second
    assert set(first) <= {"train", "val", "test"}


def test_assign_split_rejects_empty():
    with pytest.raises(ValueError):
        assign_split("")


def test_assign_split_statistics():
    # 10,000 distinct URLs: frequencies should sit near 90/5/5.
    counts = {"train": 0, "val": 0, "test": 0}
    for i in range(10_000):
        counts[assign_split(f"https://site.example/wiki/Article_{i}")] += 1
    assert abs(counts["train"] / 10_000 - 0.90) < 0.02
    assert abs(counts["val"] / 10_000 - 0.05) < 0.01
    assert abs(counts["test"] / 10_000 - 0.05) < 0.01


def test_assign_split_independent_of_call_order():
    a = assign_split("https://site.example/wiki/Aster_Lighthouse")
    for i in range(100):
        assign_split(f"https://site.example/wiki/Noise_{i}")
    assert assign_split("https://site.example/wiki/Aster_Lighthouse") == a


# ------------------------------------------------- bundled corpus goldens

# Hand tally over the 20 bundled pages. Candidates per task: 20 pages,
# 61 sections, 27 images.
EXPECTED = {
    Task.PAGE_DESCRIPTION: {
        "candidates": 20,
        "examples_out": 14,
        "rejections": {
            "list_heavy": 1,
            "missing_description": 2,
            "too_few_content_sections": 3,
        },
        "splits": {"train": 12, "val": 1, "test": 1},
    },
    Task.SECTION_SUMMARIZATION: {
        "candidates": 61,
        "examples_out": 19,
        "rejections": {"root": 20, "table_or_list": 2, "too_short": 20},
        "splits": {"train": 16, "val": 1, "test": 2},
    },
    Task.IMAGE_CAPTIONING: {
        "candidates": 27,
        "examples_out": 23,
        "rejections": {"mime": 1, "not_in_quality_set": 2, "short_reference": 1},
        "splits": {"train": 21, "val": 1, "test": 1},
    },
}


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_bundled_counts(task):
    routed, report = build_dataset(corpus_items(), task)
    want = EXPECTED[task]
    assert report.pages_in == 20
    assert report.candidates == want["candidates"]
    assert report.examples_out == want["examples_out"] == len(routed)
    assert report.rejections == want["rejections"]
    assert report.splits == want["splits"]
    assert report.accounted()


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_every_split_populated(task):
    _, report = build_dataset(corpus_items(), task)
    assert all(report.splits[s] > 0 for s in ("train", "val", "test"))


def test_examples_keep_page_order():
    routed, _ = build_dataset(corpus_items(), Task.IMAGE_CAPTIONING)
    page_order = [p.url for p in corpus_items()]
    rank = {url: i for i, url in enumerate(page_order)}
    ranks = [rank[r.example.source_page_url] for r in routed]
    assert ranks == sorted(ranks)


def test_routed_split_matches_url_hash():
    routed, _ = build_dataset(corpus_items(), Task.PAGE_DESCRIPTION)
    for r in routed:
        assert r.split == assign_split(r.example.source_page_url)


def test_caption_count_equals_recount():
    # Independent recount straight off the raw JSON lines.
    n = 0
    for line in demo_corpus_path().read_text(encoding="utf-8").splitlines():
        rec = json.loads(line)
        for sec in rec["sections"]:
            for img in sec["images"]:
                ok = (
                    img["section_image_in_WIT"]
                    and img["section_image_mime_type"] in ("image/jpeg", "image/png")
                    and len(img["section_image_raw_ref_desc"].split()) >= 3
                )
                n += 1 if ok else 0
    _, report = build_dataset(corpus_items(), Task.IMAGE_CAPTIONING)
    assert report.examples_out == n == 23


def test_threshold_monotonicity():
    outs = []
    for threshold in (1, 2, 3, 4):
        _, report = build_dataset(corpus_items(), Task.PAGE_DESCRIPTION, threshold=threshold)
        outs.append(report.examples_out)
        assert report.accounted()
    assert outs == sorted(outs, reverse=True)
    assert outs[1] == 14  # default threshold


@pytest.mark.parametrize("kwargs", [
    {"threshold": True}, {"threshold": False}, {"threshold": 2.5}, {"threshold": "2"},
    {"threshold": None}, {"threshold": -1}, {"variant": "titles"},
], ids=repr)
@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_bad_argument_refused_before_the_source_is_read(task, kwargs):
    # True once read as 1, 2.5 as 3, and "2" or None raised TypeError only
    # at the first page that reached the threshold check
    def source():
        raise AssertionError("the source was read")
        yield

    with pytest.raises(ValueError):
        build_dataset(source(), task, **kwargs)


def corpus_with_a_bad_line(tmp_path):
    """The demo corpus with one unparseable line, read leniently."""
    path = tmp_path / "corpus.jsonl"
    lines = demo_corpus_path().read_text(encoding="utf-8").splitlines()
    lines.insert(3, "{not json")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return iter_corpus(path, strict=False)


def test_parse_error_accounting(tmp_path):
    routed, report = build_dataset(corpus_with_a_bad_line(tmp_path), Task.PAGE_DESCRIPTION)
    assert report.candidates == 21
    assert report.rejections["parse_error"] == 1
    assert report.examples_out == 14
    assert report.accounted()


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_one_check_per_candidate_one_build_per_example(monkeypatch, tmp_path, task):
    # counting wrappers on the pipeline globals, where the benchmark's tracer
    # wraps them too, and on the check in sequence, where a builder that
    # checked again would call it
    check, build = {
        Task.PAGE_DESCRIPTION: ("check_page_description", "build_page_description_input"),
        Task.SECTION_SUMMARIZATION: ("check_section_summarization", "build_section_summarization_input"),
        Task.IMAGE_CAPTIONING: ("check_image_caption", "build_image_caption_input"),
    }[task]
    calls = {check: 0, build: 0}

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for owner, name in ((pipeline, check), (pipeline, build), (sequence, check)):
        monkeypatch.setattr(owner, name, counting(name, getattr(owner, name)))
    routed, report = build_dataset(corpus_with_a_bad_line(tmp_path), task)
    assert report.rejections["parse_error"] == 1
    assert report.examples_out == len(routed) > 0
    assert report.accounted()
    assert calls[check] == report.candidates - report.rejections["parse_error"]
    assert calls[build] == report.examples_out


# ------------------------------------------------------------ determinism


def serialize(routed):
    return "\n".join(r.split + "\t" + r.example.to_json_line() for r in routed)


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_rerun_identical(task):
    a = serialize(build_dataset(corpus_items(), task)[0])
    b = serialize(build_dataset(corpus_items(), task)[0])
    assert a == b


# sha256 of serialize(build_dataset(demo corpus)) for every task and
# page-description variant. A rerun check cannot see a builder rewrite that
# changes the bytes; these pins can. Recompute them only for a deliberate
# change of the output format.
PINNED_DIGESTS = {
    (Task.PAGE_DESCRIPTION, PageDescPrefix.TITLES_AND_FIRST_SENTENCES):
        "2093531e847fb90e351fdc4e367774324571929743f8d377a67b678c23159bfa",
    (Task.PAGE_DESCRIPTION, PageDescPrefix.TITLES_ONLY):
        "6f7fcb7120101782ebcf454f32878fe03ceb4e708fbab48d8d4d3edea03a51b5",
    (Task.PAGE_DESCRIPTION, PageDescPrefix.IN_ORDER):
        "6be3b8582f8c3de359acfd7cff5cc47b254e5f35c06773492af1c39d1b99e09a",
    (Task.SECTION_SUMMARIZATION, PageDescPrefix.TITLES_AND_FIRST_SENTENCES):
        "9941eb291e7461137e277f5b9e08f5ca30ee961fc25179bd0a70acb9b4644a4e",
    (Task.IMAGE_CAPTIONING, PageDescPrefix.TITLES_AND_FIRST_SENTENCES):
        "f51ede6cc744b694a9adc223659b7b352fe43cd72a5ecb1b773d4f74b13b99ab",
}


@pytest.mark.parametrize("task, variant", list(PINNED_DIGESTS),
                         ids=lambda x: x.value)
def test_output_bytes_pinned(task, variant):
    routed, _ = build_dataset(iter_corpus(demo_corpus_path()), task, variant=variant)
    blob = serialize(routed).encode("utf-8")
    assert hashlib.sha256(blob).hexdigest() == PINNED_DIGESTS[task, variant]


# The bundled file is the one copy of the demo corpus, and every golden
# count and digest here was tallied from these bytes.
DEMO_CORPUS_SHA256 = "b69d2a477a9636ef1ec8bfa0ee34ad18ccf42994371d24b648ab3e55588d5362"


def test_bundled_file_pinned():
    assert os.path.basename(str(demo_corpus_path())) == "demo_corpus.jsonl"
    assert hashlib.sha256(demo_corpus_path().read_bytes()).hexdigest() == DEMO_CORPUS_SHA256


def test_written_corpus_is_the_bundled_file(tmp_path):
    # a copy of the bundled bytes reads as the same pages, from a plain path
    path = tmp_path / "corpus.jsonl"
    path.write_bytes(demo_corpus_path().read_bytes())
    assert list(iter_corpus(path)) == corpus_items()


def test_bundled_records_parse_strictly():
    pages = corpus_items()
    assert len(pages) == 20
    assert len({p.url for p in pages}) == 20


# ---------------------------------------------------------------- stats


def test_nearest_rank():
    assert nearest_rank(range(1, 11), 90) == 9
    assert nearest_rank([5], 90) == 5
    assert nearest_rank([1, 2, 3], 100) == 3
    assert nearest_rank([], 90) == 0
    assert nearest_rank([3, 1, 2], 50) == 2
    # a percentile outside (0, 100] has no rank: 0 and -5 once gave the
    # maximum, and 150 an IndexError
    for pct in (0, -5, 150):
        with pytest.raises(ValueError):
            nearest_rank([1, 2, 3], pct)


@pytest.mark.parametrize("pct", [True, False])
def test_nearest_rank_refuses_bool(pct):
    # True once gave the first rank
    with pytest.raises(ValueError):
        nearest_rank([1, 2, 3], pct)


def test_corpus_stats_golden():
    stats = corpus_stats(corpus_items())
    assert (stats["pages"], stats["malformed_records"]) == (20, 0)
    assert stats["sections"] == {
        "structural": 1,
        "heading": 4,
        "text_only": 39,
        "image_only": 2,
        "both": 15,
        "total": 61,
    }
    assert stats["images"] == {"total": 27, "unique": 27}
    per_page = stats["per_page"]
    assert per_page["sections"]["max"] == 12
    assert per_page["sections"]["p90"] == 5
    assert per_page["sections"]["mean"] == pytest.approx(61 / 20)
    assert per_page["content_sections"]["median"] == 2.0
    assert per_page["images"]["max"] == 9
    assert stats["per_section"]["images"]["max"] == 5
    assert stats["per_section"]["images"]["mean"] == pytest.approx(27 / 61)


def test_corpus_stats_empty():
    stats = corpus_stats([])
    assert stats["pages"] == 0
    assert stats["sections"]["total"] == 0
    assert stats["per_page"]["sections"] == {"median": 0, "mean": 0.0, "max": 0, "p90": 0}


def load_bench_corpus():
    """perfbench/corpus.py, the benchmark's corpus generator, which uses the
    standard library only."""
    path = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "corpus.py"
    spec = importlib.util.spec_from_file_location("perfbench_corpus", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_stats_agrees_with_build_dataset_on_a_lenient_stream(tmp_path):
    # the benchmark's seed-3 corpus holds a duplicate page_url and a truncated
    # line: two malformed records, which build_dataset counts as parse_error
    bench = load_bench_corpus()
    path = tmp_path / "seed3.jsonl"
    tally = bench.generate(path, 3, 1, bench.vocabulary(demo_corpus_path()))
    assert tally["malformed"] == 2
    stats = corpus_stats(iter_corpus(path, strict=False))
    assert (stats["pages"], stats["malformed_records"]) == (tally["pages"], tally["malformed"])
    for task in Task:
        _, report = build_dataset(iter_corpus(path, strict=False), task)
        assert stats["malformed_records"] == report.rejections["parse_error"]
        assert stats["pages"] == report.pages_in


def test_report_serializes():
    _, report = build_dataset(corpus_items(), Task.PAGE_DESCRIPTION)
    blob = json.loads(json.dumps(report.to_dict()))
    assert blob["task"] == "page_description"
    assert blob["rejections"] == EXPECTED[Task.PAGE_DESCRIPTION]["rejections"]


@pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
def test_task_given_as_its_string(task):
    # a plain string once matched none of the task branches: it built
    # image-captioning examples and then broke report.to_dict()
    routed, report = build_dataset(corpus_items(), task)
    by_str, str_report = build_dataset(corpus_items(), task.value)
    assert by_str == routed
    assert str_report.to_dict() == report.to_dict()


def test_unknown_task_or_variant_refused():
    with pytest.raises(ValueError):
        build_dataset(corpus_items(), "page-description")
    with pytest.raises(ValueError):
        build_dataset(corpus_items(), Task.PAGE_DESCRIPTION, variant="titles")


def test_default_threshold_value():
    assert DEFAULT_CONTENT_SECTION_THRESHOLD == 2
