"""Webpage data model: pages, sections, images, taxonomy, corpus JSONL.

Corpus format is one JSON object per line, one page per object, UTF-8.
Page-level keys: page_url, page_title, raw_page_description, split (optional;
assigned from the URL hash when absent), sections. Each section object uses
the same snake_case names: section_index, section_title, section_text,
section_parent_index, section_depth, section_contains_table_or_list, and an
images list whose entries carry section_image_url, section_image_mime_type,
section_image_alt_text_desc, section_image_raw_ref_desc,
section_image_raw_attr_desc, section_image_in_WIT, embedding_id. The two
flags, section_contains_table_or_list and section_image_in_WIT, are JSON
booleans; absent or null is false. Unknown keys are ignored everywhere.
first/rest sentence fields, if present in a record, are ignored too: both
are always re-derived with the splitter below so the stored pair can never
disagree with the stored text.

The sentence splitter is deliberately naive: the first ., ! or ? followed by
whitespace (or end of text) ends the first sentence. No abbreviation guard.
It is a documented, replaceable seam, not a linguistic claim.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass, field
from enum import Enum

SPLITS = ("train", "val", "test")
TRAIN_CUT = 0.90
VAL_CUT = 0.95

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")


class CorpusError(ValueError):
    """A record violates the corpus schema or a page-level invariant."""


class SectionClass(Enum):
    STRUCTURAL = "structural"  # no immediate content, has subsections
    HEADING = "heading"  # no immediate content, no subsections
    TEXT_ONLY = "text_only"
    IMAGE_ONLY = "image_only"
    BOTH = "both"


class Mime(str, Enum):
    JPEG = "jpeg"
    PNG = "png"
    OTHER = "other"


def parse_mime(raw: str) -> Mime:
    tail = raw.strip().lower().rsplit("/", 1)[-1]
    if tail in ("jpeg", "jpg"):
        return Mime.JPEG
    if tail == "png":
        return Mime.PNG
    return Mime.OTHER


@dataclass(frozen=True)
class ImageRef:
    url: str
    mime: Mime = Mime.OTHER
    alt_text: str = ""
    reference_desc: str = ""
    attribution_desc: str = ""
    in_quality_set: bool = False
    embedding_id: str = ""  # opaque handle to a precomputed vector

    def __post_init__(self):
        if not self.url:
            raise CorpusError("image url must be nonempty")
        if not self.embedding_id:
            object.__setattr__(self, "embedding_id", self.url)


@dataclass(frozen=True)
class Section:
    index: int
    title: str = ""
    body_text: str = ""
    parent_index: int | None = None
    depth: int = 0
    images: tuple = ()
    has_table_or_list: bool = False
    first_sentence: str = field(init=False, default="")
    rest_sentences: str = field(init=False, default="")

    def __post_init__(self):
        object.__setattr__(self, "body_text", self.body_text.strip())
        first, rest = split_first_sentence(self.body_text)
        object.__setattr__(self, "first_sentence", first)
        object.__setattr__(self, "rest_sentences", rest)
        object.__setattr__(self, "images", tuple(self.images))


@dataclass(frozen=True)
class Page:
    url: str
    title: str = ""
    raw_description: str = ""
    sections: tuple = ()
    split: str = "train"
    # what later stages derive from this page and keep for as long as the
    # page lives (the sequence builders keep its token runs here); it takes
    # no part in construction, repr or comparison
    derived: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        if not self.url:
            raise CorpusError("page_url must be nonempty")
        if self.split not in SPLITS:
            raise CorpusError(f"split must be one of {SPLITS}, got {self.split!r}")
        sections = tuple(self.sections)
        object.__setattr__(self, "sections", sections)
        parents = set()
        for pos, sec in enumerate(sections):
            if sec.index != pos:
                raise CorpusError(f"section indices must be 0..n-1 in order; slot {pos} has index {sec.index}")
            if sec.parent_index is not None:
                if not 0 <= sec.parent_index < sec.index:
                    raise CorpusError(f"section {sec.index}: parent_index {sec.parent_index} must precede it")
                parents.add(sec.parent_index)
            expected_depth = 0 if sec.parent_index is None else sections[sec.parent_index].depth + 1
            if sec.depth != expected_depth:
                raise CorpusError(f"section {sec.index}: depth {sec.depth} != parent-chain length {expected_depth}")
        object.__setattr__(self, "_parents", frozenset(parents))

    def has_children(self, index: int) -> bool:
        return index in self._parents

    def section_class(self, index: int) -> SectionClass:
        return classify_section(self.sections[index], self.has_children(index))

    def content_sections(self) -> list:
        return [s for s in self.sections if is_content_section(s)]


def assign_split(url: str) -> str:
    """Deterministic page-level split from a stable 64-bit hash of the URL:
    [0, 0.90) train, [0.90, 0.95) val, rest test."""
    if not url:
        raise ValueError("url must be nonempty")
    digest = hashlib.sha256(url.encode("utf-8")).digest()
    x = int.from_bytes(digest[:8], "big") / 2**64
    if x < TRAIN_CUT:
        return "train"
    if x < VAL_CUT:
        return "val"
    return "test"


def classify_section(section: Section, has_children: bool) -> SectionClass:
    has_text = bool(section.body_text)
    has_images = bool(section.images)
    if has_text and has_images:
        return SectionClass.BOTH
    if has_text:
        return SectionClass.TEXT_ONLY
    if has_images:
        return SectionClass.IMAGE_ONLY
    return SectionClass.STRUCTURAL if has_children else SectionClass.HEADING


def is_content_section(section: Section) -> bool:
    """Text or images present, and no table/list contamination."""
    return (bool(section.body_text) or bool(section.images)) and not section.has_table_or_list


def split_first_sentence(text: str) -> tuple[str, str]:
    """(first sentence, remainder). The boundary whitespace is dropped, so
    first + " " + rest reconstructs a normalized body; empty in, empty out."""
    if not text.strip():
        return "", ""
    match = _SENTENCE_END_RE.search(text)
    if match is None:
        return text, ""
    cut = match.end()
    return text[:cut], text[cut:].strip()


def iter_sentences(text: str):
    while text:
        first, text = split_first_sentence(text)
        if first:
            yield first


def count_sentences(text: str) -> int:
    return sum(1 for _ in iter_sentences(text))


def tokenize(text: str) -> list[str]:
    """Whitespace-plus-punctuation split; the token unit for every budget."""
    return _TOKEN_RE.findall(text)


def _is_int(value) -> bool:
    """A JSON integer; bool is an int subclass, but true/false are not indices."""
    return isinstance(value, int) and not isinstance(value, bool)


def _require(obj: dict, key: str, kind, where: str):
    value = obj.get(key)
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        raise CorpusError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    return value


def _optional_str(obj: dict, key: str, where: str) -> str:
    value = obj.get(key, "")
    if value is None:
        return ""
    if not isinstance(value, str):
        raise CorpusError(f"{where}: field {key!r} must be a string")
    return value


def _optional_bool(obj: dict, key: str, where: str) -> bool:
    """A JSON true/false; absent or null is false. Strings such as "false"
    and numbers such as 1 are refused rather than read by truthiness."""
    value = obj.get(key)
    if value is None:
        return False
    if not isinstance(value, bool):
        raise CorpusError(f"{where}: field {key!r} must be true, false or null, got {type(value).__name__}")
    return value


def parse_image(obj: dict, where: str) -> ImageRef:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: image entry must be an object")
    return ImageRef(
        url=_require(obj, "section_image_url", str, where),
        mime=parse_mime(_optional_str(obj, "section_image_mime_type", where)),
        alt_text=_optional_str(obj, "section_image_alt_text_desc", where),
        reference_desc=_optional_str(obj, "section_image_raw_ref_desc", where),
        attribution_desc=_optional_str(obj, "section_image_raw_attr_desc", where),
        in_quality_set=_optional_bool(obj, "section_image_in_WIT", where),
        embedding_id=_optional_str(obj, "embedding_id", where),
    )


def parse_section(obj: dict, where: str, earlier: list) -> Section:
    """`earlier` holds the page's already-parsed sections, so a record that
    omits section_depth gets it computed from its parent chain; a stated
    depth is kept as-is and validated by Page."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: section entry must be an object")
    index = _require(obj, "section_index", int, where)
    parent = obj.get("section_parent_index")
    if parent is not None and not _is_int(parent):
        raise CorpusError(f"{where}: section_parent_index must be an int or null")
    images_raw = obj.get("images", [])
    if not isinstance(images_raw, list):
        raise CorpusError(f"{where}: images must be a list")
    depth = obj.get("section_depth")
    if depth is None:
        if parent is None:
            depth = 0
        elif 0 <= parent < len(earlier):
            depth = earlier[parent].depth + 1
        else:
            depth = 0  # bad parent reference; Page reports it properly
    elif not _is_int(depth):
        raise CorpusError(f"{where}: section_depth must be an int")
    return Section(
        index=index,
        title=_optional_str(obj, "section_title", where),
        body_text=_optional_str(obj, "section_text", where),
        parent_index=parent,
        depth=depth,
        images=tuple(parse_image(i, f"{where} image {n}") for n, i in enumerate(images_raw)),
        has_table_or_list=_optional_bool(obj, "section_contains_table_or_list", where),
    )


def parse_page(obj: dict) -> Page:
    """Build a Page from one decoded JSONL object, validating invariants."""
    if not isinstance(obj, dict):
        raise CorpusError("page record must be a JSON object")
    url = _require(obj, "page_url", str, "page")
    if not url:
        raise CorpusError("page_url must be nonempty")
    where = f"page {url}"
    sections_raw = obj.get("sections", [])
    if not isinstance(sections_raw, list):
        raise CorpusError(f"{where}: sections must be a list")
    sections = []
    for n, raw in enumerate(sections_raw):
        sections.append(parse_section(raw, f"{where} section {n}", sections))
    split = obj.get("split")
    if split is None:
        split = assign_split(url)
    return Page(
        url=url,
        title=_optional_str(obj, "page_title", where),
        raw_description=_optional_str(obj, "raw_page_description", where),
        sections=tuple(sections),
        split=split,
    )


@dataclass(frozen=True)
class MalformedRecord:
    """A corpus line that could not become a Page; kept for reporting."""

    line_number: int
    error: str


def iter_corpus(path, strict: bool = True):
    """Stream a JSONL corpus. Yields Page objects; with strict=False,
    undecodable or invalid lines come through as MalformedRecord instead of
    raising, and duplicate page URLs are treated as invalid. Lines end at
    b"\n" and are decoded one at a time, so a line that is not UTF-8, nests
    too deeply for the decoder, or otherwise fails to decode is one bad line;
    the lines after it still parse."""
    seen = set()
    with open(path, "rb") as fh:
        for n, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                # UnicodeDecodeError and JSONDecodeError are ValueErrors too
                page = parse_page(json.loads(raw.decode("utf-8")))
                if page.url in seen:
                    raise CorpusError(f"duplicate page_url {page.url!r}")
                seen.add(page.url)
            except (ValueError, RecursionError) as exc:
                if strict:
                    raise CorpusError(f"line {n}: {exc}") from exc
                yield MalformedRecord(n, str(exc))
                continue
            yield page


def read_corpus(path) -> list:
    """Load a JSONL corpus strictly into memory."""
    return list(iter_corpus(path, strict=True))
