"""Corpus-to-dataset pipeline: eligibility accounting, split routing,
example construction, and corpus statistics.

Every candidate examined is accounted for exactly once per task run: it
either becomes an example or lands in the rejection map under one primary
reason code. Candidates are pages (page description), sections (section
summarization), or images (image captioning); a record that cannot be parsed
at all is one candidate rejected as parse_error.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass, field
from typing import NamedTuple

from .page import SPLITS, MalformedRecord, SectionClass, classify_section
from .sequence import (
    REASON_PARSE_ERROR,
    PageDescPrefix,
    PageRuns,
    Task,
    TaskExample,
    build_image_caption_input,
    build_page_description_input,
    build_section_summarization_input,
    check_image_caption,
    check_page_description,
    check_section_summarization,
)

DEFAULT_CONTENT_SECTION_THRESHOLD = 2


@dataclass
class FilterReport:
    task: Task
    pages_in: int = 0
    candidates: int = 0
    rejections: dict = field(default_factory=dict)
    splits: dict = field(default_factory=lambda: dict.fromkeys(SPLITS, 0))

    @property
    def examples_out(self) -> int:
        """The examples routed: each one is counted in exactly one split."""
        return sum(self.splits.values())

    def reject(self, reason: str) -> None:
        self.rejections[reason] = self.rejections.get(reason, 0) + 1

    def accounted(self) -> bool:
        return self.examples_out + sum(self.rejections.values()) == self.candidates

    def to_dict(self) -> dict:
        return {
            "task": self.task.value,
            "pages_in": self.pages_in,
            "candidates": self.candidates,
            "examples_out": self.examples_out,
            "rejections": {k: self.rejections[k] for k in sorted(self.rejections)},
            "splits": dict(self.splits),
        }


class RoutedExample(NamedTuple):
    split: str
    example: TaskExample


def _outcomes(item, task: Task, threshold: int, variant: PageDescPrefix) -> list:
    """One corpus item's candidates for `task` in canonical order (the page,
    its sections, or its images in section then image order), each as the
    reason it is refused or its example, built only when its check gives
    None. The page's runs are built once here and every example of the item
    shares them; a refused page-description candidate builds none. A
    MalformedRecord is one candidate, refused as parse_error. The checks and
    builders are called as this module's globals, so a wrapper installed on
    this module (the benchmark's tracer) sees every call."""
    if isinstance(item, MalformedRecord):
        return [REASON_PARSE_ERROR]
    if task is Task.PAGE_DESCRIPTION:
        return [check_page_description(item, threshold) or build_page_description_input(PageRuns(item), variant=variant)]
    runs = PageRuns(item)
    if task is Task.SECTION_SUMMARIZATION:
        return [check_section_summarization(item, idx) or build_section_summarization_input(runs, idx)
                for idx in range(len(item.sections))]
    return [check_image_caption(img) or build_image_caption_input(runs, sec.index, pos)
            for sec in item.sections for pos, img in enumerate(sec.images)]


def build_dataset(
    source,
    task: Task,
    threshold: int = DEFAULT_CONTENT_SECTION_THRESHOLD,
    variant: PageDescPrefix = PageDescPrefix.TITLES_AND_FIRST_SENTENCES,
) -> tuple[list[RoutedExample], FilterReport]:
    """Run one task over a stream of Page | MalformedRecord items.

    Returns routed examples in canonical order (page order, then section or
    image order within a page) and an accounting report. The source is
    iterated once, and each item goes through one per-item step that gives
    its candidates as reasons or examples: a reason is counted as a
    rejection, and an example is routed to its page's split. A bad task,
    variant or threshold (anything but an int >= 0) raises ValueError before
    the source is read.
    """
    task = Task(task)
    variant = PageDescPrefix(variant)
    if type(threshold) is not int or threshold < 0:
        raise ValueError(f"threshold must be an int >= 0, got {threshold!r}")
    report = FilterReport(task=task)
    routed = []
    for item in source:
        if not isinstance(item, MalformedRecord):
            report.pages_in += 1
        for outcome in _outcomes(item, task, threshold, variant):
            report.candidates += 1
            if isinstance(outcome, str):
                report.reject(outcome)
            else:
                routed.append(RoutedExample(item.split, outcome))
                report.splits[item.split] += 1
    return routed, report


def nearest_rank(values, pct: float):
    """Nearest-rank percentile: the value at rank ceil(pct/100 * n), for
    0 < pct <= 100."""
    if isinstance(pct, bool) or not 0 < pct <= 100:
        raise ValueError(f"percentile {pct} outside (0, 100]")
    data = sorted(values)
    if not data:
        return 0
    rank = -(-(pct * len(data)) // 100)  # ceil without floats
    return data[int(rank) - 1]


def _distribution(values) -> dict:
    data = list(values)
    if not data:
        return {"median": 0, "mean": 0.0, "max": 0, "p90": 0}
    return {
        "median": statistics.median(data),
        "mean": sum(data) / len(data),
        "max": max(data),
        "p90": nearest_rank(data, 90),
    }


def corpus_stats(source) -> dict:
    """Taxonomy counts, image counts, and per-page distributions over a
    stream of Page | MalformedRecord items, as iter_corpus yields them; each
    MalformedRecord is counted in malformed_records. A section's class
    depends on whether it has children, which is worked out here from the
    parent indices of its page's sections."""
    class_counts = {c.value: 0 for c in SectionClass}
    sections_per_page, content_per_page, images_per_page = [], [], []
    images_per_section = []
    unique_images = set()
    malformed = 0
    for page in source:
        if isinstance(page, MalformedRecord):
            malformed += 1
            continue
        sections_per_page.append(len(page.sections))
        content_per_page.append(len(page.content_sections()))
        parents = {s.parent_index for s in page.sections}
        for sec in page.sections:
            class_counts[classify_section(sec, sec.index in parents).value] += 1
            images_per_section.append(len(sec.images))
            unique_images.update(img.url for img in sec.images)
        images_per_page.append(sum(len(sec.images) for sec in page.sections))
    return {
        "pages": len(sections_per_page),
        "malformed_records": malformed,
        "sections": {**class_counts, "total": sum(class_counts.values())},
        "images": {"total": sum(images_per_page), "unique": len(unique_images)},
        "per_page": {
            "sections": _distribution(sections_per_page),
            "content_sections": _distribution(content_per_page),
            "images": _distribution(images_per_page),
        },
        "per_section": {"images": _distribution(images_per_section)},
    }
