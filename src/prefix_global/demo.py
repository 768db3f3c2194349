"""Bundled 20-page synthetic corpus.

Deterministic, hand-audited fixture for the pipeline golden tests and CLI
demos. Every filter outcome appears at least once: a list_of URL, missing
descriptions, pages below the content-section threshold, root and 4-sentence
and table/list sections, a 2-word reference caption, a non-quality-set image,
a non-jpeg/png image, a 9-image page (6-image prefix cap), and a page whose
prefix material overflows the 512-slot budget. Page names were chosen so the
URL hash routes pages into all three splits.

The JSONL shipped under data/ is the one copy of the corpus; a test pins its
sha256, so its bytes cannot change unnoticed.
"""

from __future__ import annotations

from importlib import resources

CORPUS_RESOURCE = "demo_corpus.jsonl"


def demo_corpus_path():
    """Path to the installed copy of the bundled corpus."""
    return resources.files("prefix_global").joinpath("data").joinpath(CORPUS_RESOURCE)
