"""Task input builders: webpage structure to one ordered slot sequence.

Each builder lays out a page as token slots (single text tokens or single
image slots) and designates the first prefix_len of them as the global
prefix; everything after is local context. The prefix budget is 512 slots,
an image costs exactly 1 slot, and truncation is slot-granular. Material
that overflows the budget is not dropped: it stays in the sequence as local
context, only the global designation is capped.

Section material always renders in a fixed order: index marker, title, body
text, captions. The marker is a single dedicated token "[S<i>]". Captions are
the reference descriptions of a section's images. Only content sections
(text or images, no table/list) contribute input material.

Targets are never rendered into slots: the page description field, a target
section's first sentence, and a target image's reference and attribution
descriptions are all withheld from the input side of their own example.

Examples are assembled from token runs, not from fresh slots. A run is the
slots of one piece of text (a section's marker, title, body, first sentence,
rest, or one image's caption; the page URL or title), tokenized, built and
validated once per page and kept on the page, so every example of that page
shares them. An example stores only its runs; its slots are derived from them
when read. Each run's JSON is encoded once too, and an example's JSON
line is those encodings joined.

Each task's eligibility rule is a check_* function that returns the reason a
candidate is refused, or None; an example is built only when it returns None.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import chain
from json.encoder import encode_basestring as _json_str  # a str as a JSON string, as json.dumps writes it

from .page import Page, Section, count_sentences, tokenize

PREFIX_BUDGET = 512
PAGE_DESC_MAX_IMAGES = 6
SECTION_SUMM_MAX_IMAGES = 1

# reason codes shared by builder errors and the check_* functions
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


class IneligibleExampleError(ValueError):
    """The requested example fails its task's eligibility rule."""

    def __init__(self, reason: str):
        super().__init__(reason)
        self.reason = reason


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


class PageDescPrefix(str, Enum):
    """Alternative page-description prefix layouts, ablation variants."""

    TITLES_AND_FIRST_SENTENCES = "titles-first-sentences"  # default
    TITLES_ONLY = "titles-only"
    IN_ORDER = "in-order"  # one flattened stream, prefix = first 512 slots


@dataclass(frozen=True)
class TokenSlot:
    kind: str  # "text" | "image"
    origin: Origin
    text_token: str | None = None
    image: str | None = None

    def __post_init__(self):
        if not isinstance(self.origin, Origin):
            raise ValueError(f"slot origin must be an Origin, got {self.origin!r}")
        if self.kind == "text":
            if not isinstance(self.text_token, str) or self.image is not None:
                raise ValueError("text slot must carry text_token only")
        elif self.kind == "image":
            if not isinstance(self.image, str) or self.text_token is not None:
                raise ValueError("image slot must carry image only")
        else:
            raise ValueError(f"unknown slot kind {self.kind!r}")

    def to_dict(self) -> dict:
        if self.kind == "text":
            return {"kind": "text", "token": self.text_token, "origin": self.origin.value}
        return {"kind": "image", "image": self.image, "origin": self.origin.value}

    def to_json(self) -> str:
        """to_dict() as compact JSON, byte for byte what json.dumps gives with
        ensure_ascii=False, at a fraction of the cost of a json.dumps call."""
        origin = _json_str(self.origin.value)
        if self.kind == "text":
            return f'{{"kind":"text","token":{_json_str(self.text_token)},"origin":{origin}}}'
        return f'{{"kind":"image","image":{_json_str(self.image)},"origin":{origin}}}'


def text_slots(text: str, origin: Origin) -> list:
    # positional text_token: a keyword argument costs a quarter more per slot
    return [TokenSlot("text", origin, t) for t in tokenize(text)]


def image_slot(embedding_id: str, origin: Origin) -> TokenSlot:
    return TokenSlot("image", origin, image=embedding_id)


def marker_slot(index: int) -> TokenSlot:
    return TokenSlot("text", Origin.SECTION_INDEX, text_token=f"[S{index}]")


def _json_members(slots) -> str:
    """The slots as the members of a compact JSON array, without brackets."""
    return ",".join([s.to_json() for s in slots])


class TokenRun(tuple):
    """A tuple of slots that always appear together and in this order, such
    as one section's title or one image's caption. The builders make each run
    once per page and share it between that page's examples, so its slots are
    built and validated once and `json` encodes them once."""

    @cached_property
    def json(self) -> str:
        return _json_members(self)


def _text_run(text: str, origin: Origin) -> TokenRun:
    return TokenRun(text_slots(text, origin))


def _image_run(images, origin: Origin) -> TokenRun:
    return TokenRun(image_slot(img.embedding_id, origin) for img in images)


class SectionRuns:
    """One section's runs, each tokenized on first use."""

    def __init__(self, section: Section):
        self.section = section

    @cached_property
    def marker(self) -> TokenRun:
        return TokenRun((marker_slot(self.section.index),))

    @cached_property
    def title(self) -> TokenRun:
        return _text_run(self.section.title, Origin.SECTION_TITLE)

    @cached_property
    def body(self) -> TokenRun:
        return _text_run(self.section.body_text, Origin.SECTION_BODY)

    @cached_property
    def first_sentence(self) -> TokenRun:
        return _text_run(self.section.first_sentence, Origin.SECTION_FIRST_SENTENCE)

    @cached_property
    def rest(self) -> TokenRun:
        return _text_run(self.section.rest_sentences, Origin.SECTION_BODY)

    @cached_property
    def captions(self) -> tuple:
        """One run per image, in image order; an image without a reference
        description has an empty run."""
        return tuple(_text_run(img.reference_desc, Origin.CAPTION) for img in self.section.images)

    @cached_property
    def layout(self) -> tuple:
        """marker -> title -> body -> captions, the canonical section layout."""
        return (self.marker, self.title, self.body) + self.captions


class PageRuns:
    """A page's URL and title runs and a SectionRuns per section."""

    def __init__(self, page: Page):
        self.url = _text_run(page.url, Origin.PAGE_URL)
        self.title = _text_run(page.title, Origin.PAGE_TITLE)
        self.sections = tuple(SectionRuns(sec) for sec in page.sections)
        self.content = [self.sections[sec.index] for sec in page.content_sections()]

    def local_context(self, skip: int) -> list:
        """Page URL, page title, then every content section but `skip`."""
        out = [self.url, self.title]
        for sec in self.content:
            if sec.section.index != skip:
                out.extend(sec.layout)
        return out


def page_runs(page: Page) -> PageRuns:
    """The page's runs, made on the first call and kept on the page, so they
    live exactly as long as the page does."""
    runs = page.derived.get("runs")
    if runs is None:
        runs = page.derived["runs"] = PageRuns(page)
    return runs


@dataclass(frozen=True)
class TaskExample:
    """One example, stored as the token runs it was assembled from. `slots`
    is those runs joined, computed each time it is read and never stored
    (kept on the example, it measured 3 MB more peak RSS on the page-attend
    benchmark). Equality compares runs, so it also compares where one run
    ends and the next begins: the same slots cut into different runs are a
    different example."""

    task: Task
    runs: tuple
    prefix_len: int
    target_text: str
    source_page_url: str

    def __post_init__(self):
        for run in self.runs:
            if not isinstance(run, TokenRun):
                raise TypeError(f"each run must be a TokenRun, got {type(run).__name__}")
        n_slots = sum(map(len, self.runs))
        if not 0 <= self.prefix_len <= min(PREFIX_BUDGET, n_slots):
            raise ValueError(f"prefix_len {self.prefix_len} outside [0, min(512, {n_slots})]")

    @property
    def slots(self) -> tuple:
        return tuple(chain.from_iterable(self.runs))

    @property
    def prefix(self) -> tuple:
        return self.slots[: self.prefix_len]

    @property
    def context(self) -> tuple:
        return self.slots[self.prefix_len :]

    def to_dict(self) -> dict:
        return {
            "task": self.task.value,
            "page_url": self.source_page_url,
            "prefix": [s.to_dict() for s in self.prefix],
            "context": [s.to_dict() for s in self.context],
            "target": self.target_text,
        }

    def to_json_line(self) -> str:
        """The compact JSON of to_dict(), byte for byte, joined from each
        run's encoding. Only the run that the prefix cap cuts is encoded
        here, as two parts."""
        prefix, context, start = [], [], 0
        for run in self.runs:
            if not run:
                continue
            end = start + len(run)
            if end <= self.prefix_len:
                prefix.append(run.json)
            elif start >= self.prefix_len:
                context.append(run.json)
            else:
                cut = self.prefix_len - start
                prefix.append(_json_members(run[:cut]))
                context.append(_json_members(run[cut:]))
            start = end
        return (
            f'{{"task":{_json_str(self.task.value)},"page_url":{_json_str(self.source_page_url)},'
            f'"prefix":[{",".join(prefix)}],"context":[{",".join(context)}],'
            f'"target":{_json_str(self.target_text)}}}'
        )


def _assemble(task: Task, page: Page, prefix_runs: list, context_runs: list, target: str) -> TaskExample:
    return TaskExample(
        task=task,
        runs=tuple(run for run in prefix_runs + context_runs if run),
        prefix_len=min(PREFIX_BUDGET, sum(map(len, prefix_runs))),
        target_text=target,
        source_page_url=page.url,
    )


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
    page: Page, variant: PageDescPrefix = PageDescPrefix.TITLES_AND_FIRST_SENTENCES
) -> TaskExample:
    """Global prefix: up to PAGE_DESC_MAX_IMAGES page images, URL, title,
    then each content section's title and first sentence. Local context: each
    content section's index marker, remaining body text, and captions. The
    raw page description is the target and never enters the slots."""
    if not page.raw_description:
        raise IneligibleExampleError(REASON_MISSING_DESCRIPTION)
    runs = page_runs(page)
    images = [img for sec in runs.content for img in sec.section.images][:PAGE_DESC_MAX_IMAGES]
    head = [_image_run(images, Origin.CONTEXT_IMAGE), runs.url, runs.title]

    if variant is PageDescPrefix.IN_ORDER:
        stream = head + [run for sec in runs.content for run in sec.layout]
        return _assemble(Task.PAGE_DESCRIPTION, page, stream, [], page.raw_description)

    prefix = head
    context = []
    for sec in runs.content:
        prefix.append(sec.title)
        if variant is PageDescPrefix.TITLES_AND_FIRST_SENTENCES:
            prefix.append(sec.first_sentence)
            context += (sec.marker, sec.rest) + sec.captions
        else:  # TITLES_ONLY: whole body stays local
            context += (sec.marker, sec.body) + sec.captions
    return _assemble(Task.PAGE_DESCRIPTION, page, prefix, context, page.raw_description)


def check_section_summarization(page: Page, target_index: int) -> str | None:
    """Reason the section cannot be a summarization target, or None."""
    section = page.sections[target_index]
    if target_index == 0:
        return REASON_ROOT
    if section.has_table_or_list:
        return REASON_TABLE_OR_LIST
    if count_sentences(section.body_text) < MIN_SECTION_SENTENCES:
        return REASON_TOO_SHORT
    return None


def build_section_summarization_input(page: Page, target_index: int) -> TaskExample:
    """Global prefix: up to SECTION_SUMM_MAX_IMAGES of the target section's
    images, its index marker, title, body text with the first sentence
    removed, and its captions. Local context: page URL, page title, then
    every other content section in page order. Target: the removed first
    sentence."""
    if not 0 <= target_index < len(page.sections):
        raise IndexError(f"target_index {target_index} out of range")
    reason = check_section_summarization(page, target_index)
    if reason is not None:
        raise IneligibleExampleError(reason)
    target = page.sections[target_index]
    runs = page_runs(page)
    own = runs.sections[target_index]
    images = _image_run(target.images[:SECTION_SUMM_MAX_IMAGES], Origin.CONTEXT_IMAGE)
    prefix = [images, own.marker, own.title, own.rest]
    prefix += own.captions
    return _assemble(Task.SECTION_SUMMARIZATION, page, prefix, runs.local_context(target_index),
                     target.first_sentence)


def check_image_caption(img) -> str | None:
    """Reason the image cannot be a captioning target, or None."""
    if not img.in_quality_set:
        return REASON_NOT_IN_QUALITY_SET
    if img.mime.value not in ("jpeg", "png"):
        return REASON_MIME
    if len(img.reference_desc.split()) < MIN_REFERENCE_WORDS:
        return REASON_SHORT_REFERENCE
    return None


def build_image_caption_input(page: Page, section_index: int, image_pos: int) -> TaskExample:
    """Global prefix: the target image slot, then its section's index marker,
    title, full body text, and the captions of the section's OTHER images.
    The target's reference and attribution descriptions are both withheld.
    Local context: page URL, page title, then the other content sections."""
    if not 0 <= section_index < len(page.sections):
        raise IndexError(f"section_index {section_index} out of range")
    section = page.sections[section_index]
    if not 0 <= image_pos < len(section.images):
        raise IndexError(f"image_pos {image_pos} out of range")
    img = section.images[image_pos]
    reason = check_image_caption(img)
    if reason is not None:
        raise IneligibleExampleError(reason)
    runs = page_runs(page)
    own = runs.sections[section_index]
    prefix = [_image_run([img], Origin.TARGET_IMAGE), own.marker, own.title, own.body]
    prefix += (run for pos, run in enumerate(own.captions) if pos != image_pos)
    return _assemble(Task.IMAGE_CAPTIONING, page, prefix, runs.local_context(section_index),
                     img.reference_desc)


def leaks_target(example: TaskExample) -> bool:
    """True if the target's token sequence occurs contiguously in the input
    slots. Image slots break contiguity; empty targets cannot leak."""
    needle = tokenize(example.target_text)
    if not needle:
        return False
    stream = [s.text_token if s.kind == "text" else None for s in example.slots]
    n = len(needle)
    for start in range(len(stream) - n + 1):
        if stream[start : start + n] == needle:
            return True
    return False
