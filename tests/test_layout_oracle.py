"""Every task's examples and filter report, checked slot by slot against an
independent reference (layout_reference.py) over generated corpus pages."""

import ast
import json
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

import layout_reference as reference
from prefix_global.page import iter_corpus
from prefix_global.pipeline import build_dataset
from prefix_global.sequence import PageDescPrefix, Task
from test_sequence import eligible_image, raw_record

REFERENCE = pathlib.Path(reference.__file__)


# a record at the edges of the rules: prefix material past 512 slots, sections
# of exactly five and four sentences, a section with several captioned images,
# one of them with an embedding_id, and a table section with an eligible image
EDGES = {
    "page_url": "https://e.org/wiki/Edges", "page_title": "Edge cases", "raw_page_description": "A page.",
    "sections": [
        {"section_index": 0, "section_title": "Lead",
         "section_text": " ".join(f"w{i}" for i in range(600)) + ". Then more.",
         "images": [eligible_image(0)]},
        {"section_index": 1, "section_parent_index": 0, "section_title": "Five sentences",
         "section_text": "One a. Two b! Three c? Four d. Five e.",
         "images": [eligible_image(1), {**eligible_image(2), "embedding_id": "vec-2"}, eligible_image(3)]},
        {"section_index": 2, "section_parent_index": 0, "section_title": "Four sentences",
         "section_text": "One a. Two b. Three c. Four d.", "images": [eligible_image(4)]},
        {"section_index": 3, "section_title": "Table", "section_contains_table_or_list": True,
         "section_text": "A. B. C. D. E. F.", "images": [eligible_image(5)]},
        {"section_index": 4, "section_title": "", "section_text": ""},
    ],
}


def test_reference_imports_nothing_from_the_package():
    tree = ast.parse(REFERENCE.read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names}
    names |= {node.module or "." for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
    assert names <= {"__future__", "hashlib", "json"}


# every task, and page description under each of its prefix variants
RUNS = [(Task.PAGE_DESCRIPTION, variant) for variant in PageDescPrefix] + [
    (task, PageDescPrefix.TITLES_AND_FIRST_SENTENCES) for task in (Task.SECTION_SUMMARIZATION, Task.IMAGE_CAPTIONING)]


def corpus_lines(records):
    """The records as JSONL lines, with a line that does not decode between
    the first and the rest; a repeated page URL is another malformed line."""
    lines = [json.dumps(record) for record in records]
    return lines[:1] + ['{"page_url": "https://e.org/wiki/Broken", "sect'] + lines[1:]


@given(st.lists(raw_record(), min_size=1, max_size=3), st.integers(0, 3))
@example([EDGES], 2)
@example([EDGES, {**EDGES, "page_url": "https://e.org/wiki/Edges_2", "raw_page_description": ""}], 0)
@settings(max_examples=120, deadline=None)
def test_examples_and_report_match_the_reference(records, threshold):
    lines = corpus_lines(records)
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        for task, variant in RUNS:
            routed, report = build_dataset(iter_corpus(path, strict=False), task,
                                           threshold=threshold, variant=variant)
            want, want_report = reference.build(lines, task.value, threshold, variant.value)
            assert report.to_dict() == want_report, (task, variant)
            # each example's JSON line, slot by slot, with its split
            assert [(split, json.loads(ex.to_json_line())) for split, ex in routed] == want, (task, variant)
