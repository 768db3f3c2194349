"""Task input builders: webpage structure to one ordered slot sequence.

Each builder lays out a page as prefix material then local context, in token
slots (single text tokens or single image slots). The global prefix is capped
at DEFAULT_PREFIX (512) slots, the paper's prefix, which patterns owns as
prefix-global's default k. The cap is applied once, when the example is
assembled; an image costs exactly 1 slot and the cap is slot-granular.
Prefix material over the cap is not dropped: it starts the local context.

Section material always renders in a fixed order: index marker, title, body
text, captions. The marker is a single dedicated token "[S<i>]". Captions are
the reference descriptions of a section's images. Only content sections
(text or images, no table/list) contribute input material.

Targets are never rendered into slots: the page description field, a target
section's first sentence, and a target image's reference and attribution
descriptions are all withheld from the input side of their own example.

Examples are assembled from token runs. A run is one piece of text (the page
URL or title; a section's marker, title, body, first sentence or rest; one
image's caption) or a list of images: one origin, which decides its kind (the
two image origins make image runs, the rest text runs), and its values. It is
a plain value, built only here from page fields that the corpus reader and
the page model have checked. A page's runs are one PageRuns, which the
caller builds once and passes to each builder in place of the page, so every
example built from it shares them; nothing is stored on the Page. Only
content sections' runs are in it: each one's are built together, once, with
the page's, and any other section's are built by the builder that reads
them. The page model stores a section's text only: SectionRuns splits it
with page.split_first_sentence, and the summarization builder takes its
target from the same split. A section's body run is its first sentence's
tokens then the rest's: the split cuts just after a .!? that whitespace or
the end follows, and no token spans whitespace, so that is exactly the
tokens of the whole body. An example is its prefix runs and its context
runs: the run the cap falls in is split into two runs of its origin, and
every other run stays the PageRuns' shared object. Each run's JSON is encoded
once and an example's JSON line joins them; a slot exists only as one JSON
object in it.

Each task's one eligibility rule is a check_* function that takes the Page and
returns the reason a candidate is refused, or None; the builders lay out and
check only indices.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from json.encoder import encode_basestring as _json_str  # a str as a JSON string, as json.dumps writes it

from .page import Mime, Page, Section, count_sentences, split_first_sentence, tokenize
from .patterns import DEFAULT_PREFIX

PAGE_DESC_MAX_IMAGES = 6
SECTION_SUMM_MAX_IMAGES = 1

# reason codes returned by the check_* functions, plus the pipeline's parse_error
REASON_LIST_HEAVY = "list_heavy"
REASON_MISSING_DESCRIPTION = "missing_description"
REASON_TOO_FEW_CONTENT_SECTIONS = "too_few_content_sections"
REASON_ROOT = "root"
REASON_TABLE_OR_LIST = "table_or_list"
REASON_TOO_SHORT = "too_short"
REASON_NOT_IN_QUALITY_SET = "not_in_quality_set"
REASON_MIME = "mime"
REASON_SHORT_REFERENCE = "short_reference"
REASON_PARSE_ERROR = "parse_error"

MIN_SECTION_SENTENCES = 5
MIN_REFERENCE_WORDS = 3


class Task(str, Enum):
    PAGE_DESCRIPTION = "page_description"
    SECTION_SUMMARIZATION = "section_summarization"
    IMAGE_CAPTIONING = "image_captioning"


class Origin(str, Enum):
    PAGE_URL = "page_url"
    PAGE_TITLE = "page_title"
    SECTION_INDEX = "section_index"
    SECTION_TITLE = "section_title"
    SECTION_FIRST_SENTENCE = "section_first_sentence"
    SECTION_BODY = "section_body"
    CAPTION = "caption"
    TARGET_IMAGE = "target_image"
    CONTEXT_IMAGE = "context_image"


_IMAGE_ORIGINS = frozenset({Origin.TARGET_IMAGE, Origin.CONTEXT_IMAGE})


class PageDescPrefix(str, Enum):
    """Alternative page-description prefix layouts, ablation variants."""

    TITLES_AND_FIRST_SENTENCES = "titles-first-sentences"  # default
    TITLES_ONLY = "titles-only"
    IN_ORDER = "in-order"  # one flattened stream, prefix = first 512 slots


@dataclass(frozen=True)
class TokenRun:
    """The text tokens or image embedding ids of one piece of a page, such as
    a section's title or one image's caption, all of one origin. A PageRuns
    makes each run once, and the examples built from it share it; only a run
    that the prefix cap cuts is replaced, in its example, by its two parts.
    Runs are built only in this module, from checked page fields (tokenize
    output, a marker, image embedding ids, or parts of other runs), so a run
    checks nothing itself."""

    origin: Origin
    values: tuple = ()

    def __len__(self) -> int:
        return len(self.values)

    @property
    def kind(self) -> str:
        """The slot kind: "image" for the two image origins, "text" for every other."""
        return "image" if self.origin in _IMAGE_ORIGINS else "text"

    @cached_property
    def json(self) -> str:
        """The run's slots, comma-separated as in a compact JSON array, each
        {"kind", "token" or "image", "origin"} byte for byte as json.dumps
        writes it with ensure_ascii=False."""
        field = "token" if self.kind == "text" else "image"
        head = f'{{"kind":"{self.kind}","{field}":'
        tail = f',"origin":{_json_str(self.origin.value)}}}'
        if not self.values:
            return ""
        return head + (tail + "," + head).join(map(_json_str, self.values)) + tail


def _text_run(text: str, origin: Origin) -> TokenRun:
    return TokenRun(origin, tuple(tokenize(text)))


def _image_run(images, origin: Origin) -> TokenRun:
    return TokenRun(origin, tuple(img.embedding_id for img in images))


class SectionRuns:
    """One section's runs: a content section's are built once, with the
    page's runs; any other section's only when a builder asks. The body text
    is split here, with split_first_sentence, and each part tokenized once;
    the body run is the first sentence's tokens then the rest's. See the
    module docstring for why that equals tokenizing the body whole."""

    def __init__(self, section: Section):
        self.section = section
        self.marker = TokenRun(Origin.SECTION_INDEX, (f"[S{section.index}]",))
        self.title = _text_run(section.title, Origin.SECTION_TITLE)
        first, rest = split_first_sentence(section.body_text)
        self.first_sentence = _text_run(first, Origin.SECTION_FIRST_SENTENCE)
        self.rest = _text_run(rest, Origin.SECTION_BODY)
        self.body = TokenRun(Origin.SECTION_BODY, self.first_sentence.values + self.rest.values)
        # one caption run per image, in image order; empty without a reference description
        self.captions = tuple(_text_run(img.reference_desc, Origin.CAPTION) for img in section.images)
        # marker -> title -> body -> captions, the canonical section layout
        self.layout = (self.marker, self.title, self.body) + self.captions


class PageRuns:
    """A page, its URL and title runs, and `content`: its content sections'
    SectionRuns keyed by section index, in page order. Every task reads the
    content sections, so only their runs are built with the page; a builder
    that needs another section's runs builds them itself. Build one per page
    and pass it to each builder of that page's examples, which then share
    its runs."""

    def __init__(self, page: Page):
        self.page = page
        self.url = _text_run(page.url, Origin.PAGE_URL)
        self.title = _text_run(page.title, Origin.PAGE_TITLE)
        self.content = {sec.index: SectionRuns(sec) for sec in page.content_sections()}

    def local_context(self, skip: int) -> list:
        """Page URL, page title, then every content section but `skip`."""
        out = [self.url, self.title]
        for index, sec in self.content.items():
            if index != skip:
                out.extend(sec.layout)
        return out


@dataclass(frozen=True)
class TaskExample:
    """One example, stored as its prefix runs and its context runs: the
    `prefix` and `context` arrays of its JSON line. Equality compares the
    prefix and context runs, boundaries included. `to_dict()` is the parsed
    JSON line and `slots` its prefix then its context: a slot is the JSON
    object on disk."""

    task: Task
    prefix: tuple
    context: tuple
    target_text: str
    source_page_url: str

    def __post_init__(self):
        if not (isinstance(self.task, Task)
                and all(isinstance(runs, tuple) and all(isinstance(run, TokenRun) for run in runs)
                        for runs in (self.prefix, self.context))
                and isinstance(self.target_text, str) and isinstance(self.source_page_url, str)):
            raise TypeError("an example needs a Task, two tuples of TokenRuns, and a str target_text and source_page_url")
        if self.prefix_len > DEFAULT_PREFIX:
            raise ValueError(f"prefix of {self.prefix_len} slots is over the {DEFAULT_PREFIX}-slot budget")

    @property
    def prefix_len(self) -> int:
        return sum(map(len, self.prefix))

    @property
    def slots(self) -> list:
        line = self.to_dict()
        return line["prefix"] + line["context"]

    def to_dict(self) -> dict:
        return json.loads(self.to_json_line())

    def to_json_line(self) -> str:
        """The example as one compact JSON object: one join of the header,
        each non-empty run's cached encoding with its separators, and the tail."""
        parts = ['{"task":', _json_str(self.task.value), ',"page_url":', _json_str(self.source_page_url)]
        for opener, runs in ((',"prefix":[', self.prefix), ('],"context":[', self.context)):
            parts.append(opener)
            sep = ""
            for run in runs:
                if run:
                    parts += (sep, run.json)
                    sep = ","
        parts += ('],"target":', _json_str(self.target_text), "}")
        return "".join(parts)


def _assemble(task: Task, page: Page, prefix_runs: list, context_runs: list, target: str) -> TaskExample:
    """The one place the prefix cap is applied. Whole prefix runs are kept
    while they fit in DEFAULT_PREFIX slots; the run the cap falls in is split
    into two runs of its origin, and its second part and every later
    prefix run start the context. Empty runs are dropped."""
    room, n = DEFAULT_PREFIX, 0
    while n < len(prefix_runs) and len(prefix_runs[n]) <= room:
        room -= len(prefix_runs[n])
        n += 1
    prefix, overflow = prefix_runs[:n], prefix_runs[n:]
    if overflow and room:
        run = overflow[0]
        prefix.append(TokenRun(run.origin, run.values[:room]))
        overflow[0] = TokenRun(run.origin, run.values[room:])
    return TaskExample(task, tuple(run for run in prefix if run),
                       tuple(run for run in overflow + context_runs if run), target, page.url)


def _item(items: tuple, index: int, name: str):
    """items[index], but IndexError for anything but an exact int (so for a
    bool) and for any index outside, negatives too."""
    if type(index) is not int or not 0 <= index < len(items):
        raise IndexError(f"{name} {index} out of range")
    return items[index]


def check_page_description(page: Page, threshold: int) -> str | None:
    """Reason the page cannot be a description example, or None. Checks run
    in a fixed order and the first failure is the reason: list_of URL,
    missing description, then fewer than `threshold` content sections."""
    if "list_of" in page.url.lower():
        return REASON_LIST_HEAVY
    if not page.raw_description:
        return REASON_MISSING_DESCRIPTION
    if len(page.content_sections()) < threshold:
        return REASON_TOO_FEW_CONTENT_SECTIONS
    return None


def build_page_description_input(
    runs: PageRuns, variant: PageDescPrefix = PageDescPrefix.TITLES_AND_FIRST_SENTENCES
) -> TaskExample:
    """Global prefix: up to PAGE_DESC_MAX_IMAGES page images, URL, title,
    then each content section's title and first sentence. Local context: each
    content section's index marker, remaining body text, and captions. That
    is the default variant; titles-only keeps each whole body in the context,
    and in-order puts each section's whole layout in the prefix, so its
    context is only what the cap leaves over. The raw page description is
    the target and never enters the slots.
    Precondition: check_page_description(runs.page, threshold) returned None."""
    variant = PageDescPrefix(variant)
    images = [img for sec in runs.content.values() for img in sec.section.images][:PAGE_DESC_MAX_IMAGES]
    prefix, context = [_image_run(images, Origin.CONTEXT_IMAGE), runs.url, runs.title], []
    for sec in runs.content.values():
        if variant is PageDescPrefix.IN_ORDER:  # one stream: the cap leaves its tail to the context
            prefix += sec.layout
        elif variant is PageDescPrefix.TITLES_AND_FIRST_SENTENCES:
            prefix += (sec.title, sec.first_sentence)
            context += (sec.marker, sec.rest) + sec.captions
        else:  # TITLES_ONLY: whole body stays local
            prefix.append(sec.title)
            context += (sec.marker, sec.body) + sec.captions
    return _assemble(Task.PAGE_DESCRIPTION, runs.page, prefix, context, runs.page.raw_description)


def check_section_summarization(page: Page, target_index: int) -> str | None:
    """Reason the section cannot be a summarization target, or None. An index
    outside the page's sections raises IndexError."""
    section = _item(page.sections, target_index, "section index")
    if target_index == 0:
        return REASON_ROOT
    if section.has_table_or_list:
        return REASON_TABLE_OR_LIST
    if count_sentences(section.body_text) < MIN_SECTION_SENTENCES:
        return REASON_TOO_SHORT
    return None


def build_section_summarization_input(runs: PageRuns, target_index: int) -> TaskExample:
    """Global prefix: up to SECTION_SUMM_MAX_IMAGES of the target section's
    images, its index marker, title, body text with the first sentence
    removed, and its captions. Local context: page URL, page title, then
    every other content section in page order. Target: the removed first
    sentence. Precondition: check_section_summarization returned None."""
    target = _item(runs.page.sections, target_index, "section index")
    own = runs.content.get(target_index) or SectionRuns(target)
    images = _image_run(target.images[:SECTION_SUMM_MAX_IMAGES], Origin.CONTEXT_IMAGE)
    prefix = [images, own.marker, own.title, own.rest, *own.captions]
    return _assemble(Task.SECTION_SUMMARIZATION, runs.page, prefix, runs.local_context(target_index),
                     split_first_sentence(target.body_text)[0])


def check_image_caption(img) -> str | None:
    """Reason the image cannot be a captioning target, or None."""
    if not img.in_quality_set:
        return REASON_NOT_IN_QUALITY_SET
    if img.mime is Mime.OTHER:
        return REASON_MIME
    if len(img.reference_desc.split()) < MIN_REFERENCE_WORDS:
        return REASON_SHORT_REFERENCE
    return None


def build_image_caption_input(runs: PageRuns, section_index: int, image_pos: int) -> TaskExample:
    """Global prefix: the target image slot, then its section's index marker,
    title, full body text, and the captions of the section's OTHER images.
    The target's reference and attribution descriptions are both withheld.
    Local context: page URL, page title, then the other content sections.
    Precondition: check_image_caption returned None for the image."""
    section = _item(runs.page.sections, section_index, "section index")
    img = _item(section.images, image_pos, "image_pos")
    own = runs.content.get(section_index) or SectionRuns(section)  # a table/list section's images
    prefix = [_image_run([img], Origin.TARGET_IMAGE), own.marker, own.title, own.body]
    prefix += (run for pos, run in enumerate(own.captions) if pos != image_pos)
    return _assemble(Task.IMAGE_CAPTIONING, runs.page, prefix, runs.local_context(section_index),
                     img.reference_desc)
