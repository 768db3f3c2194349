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

from .page import SPLITS, MalformedRecord, SectionClass, _is_int, classify_section
from .sequence import (
    REASON_PARSE_ERROR,
    PageDescPrefix,
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
    examples_out: int = 0
    rejections: dict = field(default_factory=dict)
    splits: dict = field(default_factory=lambda: dict.fromkeys(SPLITS, 0))

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


def build_dataset(
    source,
    task: Task,
    threshold: int = DEFAULT_CONTENT_SECTION_THRESHOLD,
    variant: PageDescPrefix = PageDescPrefix.TITLES_AND_FIRST_SENTENCES,
) -> tuple[list[RoutedExample], FilterReport]:
    """Run one task over a stream of Page | MalformedRecord items.

    Returns routed examples in canonical order (page order, then section or
    image order within a page) and an accounting report. The source is
    iterated once. Each candidate's check runs first; its example is built
    only when the check finds no reason. A bad task, variant or threshold
    (anything but an int >= 0) raises ValueError before the source is read.
    """
    task = Task(task)
    variant = PageDescPrefix(variant)
    if not _is_int(threshold) or threshold < 0:
        raise ValueError(f"threshold must be an int >= 0, got {threshold!r}")
    report = FilterReport(task=task)
    routed = []

    def consider(page, reason, build, *args, **kwargs):
        report.candidates += 1
        if reason is None:
            routed.append(RoutedExample(page.split, build(page, *args, **kwargs)))
            report.examples_out += 1
            report.splits[page.split] += 1
        else:
            report.reject(reason)

    for page in source:
        if isinstance(page, MalformedRecord):
            consider(page, REASON_PARSE_ERROR, None)
            continue
        report.pages_in += 1
        if task is Task.PAGE_DESCRIPTION:
            consider(page, check_page_description(page, threshold), build_page_description_input, variant=variant)
        elif task is Task.SECTION_SUMMARIZATION:
            for idx in range(len(page.sections)):
                consider(page, check_section_summarization(page, idx), build_section_summarization_input, idx)
        else:
            for sec in page.sections:
                for pos, img in enumerate(sec.images):
                    consider(page, check_image_caption(img), build_image_caption_input, sec.index, pos)
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


def corpus_stats(pages) -> dict:
    """Taxonomy counts, image counts, and per-page distributions. A
    section's class depends on whether it has children, which is worked out
    here from the parent indices of its page's sections."""
    class_counts = {c.value: 0 for c in SectionClass}
    sections_per_page, content_per_page, images_per_page = [], [], []
    images_per_section = []
    unique_images = set()
    total_images = 0
    n_pages = 0
    for page in pages:
        n_pages += 1
        sections_per_page.append(len(page.sections))
        content_per_page.append(len(page.content_sections()))
        page_images = 0
        parents = {s.parent_index for s in page.sections}
        for sec in page.sections:
            class_counts[classify_section(sec, sec.index in parents).value] += 1
            images_per_section.append(len(sec.images))
            page_images += len(sec.images)
            for img in sec.images:
                unique_images.add(img.url)
        total_images += page_images
        images_per_page.append(page_images)
    return {
        "pages": n_pages,
        "sections": {**class_counts, "total": sum(class_counts.values())},
        "images": {"total": total_images, "unique": len(unique_images)},
        "per_page": {
            "sections": _distribution(sections_per_page),
            "content_sections": _distribution(content_per_page),
            "images": _distribution(images_per_page),
        },
        "per_section": {"images": _distribution(images_per_section)},
    }
