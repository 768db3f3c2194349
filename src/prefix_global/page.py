"""Webpage data model: pages, sections, images, taxonomy, corpus JSONL.

Corpus format is one JSON object per line, one page per object, UTF-8.
Page-level keys: page_url, page_title, raw_page_description, split, sections.
Each section object uses the same snake_case names: section_index,
section_title, section_text, section_parent_index, section_depth,
section_contains_table_or_list, and an images list whose entries carry
section_image_url, section_image_mime_type, section_image_alt_text_desc,
section_image_raw_ref_desc, section_image_raw_attr_desc, section_image_in_WIT,
embedding_id. One rule reads every field: absent or null gives the field's
default, and any other value must have exactly the field's JSON type,
type(value) is kind: a str, an int, a bool for the two flags
section_contains_table_or_list and section_image_in_WIT, a list for sections
and images. So true and false are not ints; JSON decoding makes no other
subclass. The integer arguments of the sequence builders (a section index,
an image_pos) and build_dataset's threshold follow the same exact-type rule.
page_url, section_index and section_image_url are required and have no
default. The defaults are "" for the other strings, false for the
flags, [] for the lists, no parent, the parent-chain length for
section_depth, and for split the split of the URL's hash, which a Page built
without one gets too. A string UTF-8 cannot encode (a lone surrogate, which
JSON can escape) is refused. Unknown keys are ignored everywhere.
first/rest sentence fields, if present in a record, are ignored too: both are
always re-derived with the splitter below so the stored pair can never
disagree with the stored text.

Page input is checked here and nowhere downstream: the corpus reader checks
each field's JSON type, and the model checks its invariants (a nonempty page
URL, section order and parent chains, an image's embedding_id being a str).
The sequence builders copy checked fields into token runs and check nothing
again. A Page is its five constructor fields and nothing more: the token runs
that the builders share live in a sequence.PageRuns, not on the page.

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
        if self.embedding_id == "":
            object.__setattr__(self, "embedding_id", self.url)
        # the one outside value a token run copies unchanged
        if not isinstance(self.embedding_id, str):
            raise CorpusError(f"image embedding_id must be a str, got {type(self.embedding_id).__name__}")


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
    split: str | None = None  # None: the split of the URL's hash

    def __post_init__(self):
        if not self.url:
            raise CorpusError("page_url must be nonempty")
        if self.split is None:
            object.__setattr__(self, "split", assign_split(self.url))
        if self.split not in SPLITS:
            raise CorpusError(f"split must be one of {SPLITS}, got {self.split!r}")
        sections = tuple(self.sections)
        object.__setattr__(self, "sections", sections)
        for pos, sec in enumerate(sections):
            # exact ints: True == 1, and the marker run copies the index into a token
            for name, value in (("index", sec.index), ("parent_index", sec.parent_index), ("depth", sec.depth)):
                if type(value) is not int and not (name == "parent_index" and value is None):
                    raise CorpusError(f"section in slot {pos}: {name} must be an int, got {type(value).__name__}")
            if sec.index != pos:
                raise CorpusError(f"section indices must be 0..n-1 in order; slot {pos} has index {sec.index}")
            if sec.parent_index is not None and not 0 <= sec.parent_index < sec.index:
                raise CorpusError(f"section {sec.index}: parent_index {sec.parent_index} must precede it")
            expected_depth = 0 if sec.parent_index is None else sections[sec.parent_index].depth + 1
            if sec.depth != expected_depth:
                raise CorpusError(f"section {sec.index}: depth {sec.depth} != parent-chain length {expected_depth}")

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


def count_sentences(text: str) -> int:
    """Sentences split_first_sentence would take off `text` one at a time:
    one per sentence end, plus one if non-whitespace follows the last."""
    n = end = 0
    for n, match in enumerate(_SENTENCE_END_RE.finditer(text), start=1):
        end = match.end()
    return n + bool(text[end:].strip())


def tokenize(text: str) -> list[str]:
    """Whitespace-plus-punctuation split; the token unit for every budget."""
    return _TOKEN_RE.findall(text)


_REQUIRED = object()  # the default of a field a record must carry


def _field(obj: dict, key: str, kind, where: str, default=_REQUIRED):
    """The one rule for every corpus field: absent or null is `default` (a
    required field has none and is refused); any other value must be exactly
    a `kind`, and a str must encode as UTF-8."""
    value = obj.get(key)
    if value is None and default is not _REQUIRED:
        return default
    if type(value) is not kind:
        raise CorpusError(f"{where}: field {key!r} must be {kind.__name__}, got {type(value).__name__}")
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"{where}: field {key!r} holds a lone surrogate, which UTF-8 cannot encode") from None
    return value


def parse_image(obj: dict, where: str) -> ImageRef:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: image entry must be an object")
    return ImageRef(
        url=_field(obj, "section_image_url", str, where),
        mime=parse_mime(_field(obj, "section_image_mime_type", str, where, "")),
        alt_text=_field(obj, "section_image_alt_text_desc", str, where, ""),
        reference_desc=_field(obj, "section_image_raw_ref_desc", str, where, ""),
        attribution_desc=_field(obj, "section_image_raw_attr_desc", str, where, ""),
        in_quality_set=_field(obj, "section_image_in_WIT", bool, where, False),
        embedding_id=_field(obj, "embedding_id", str, where, ""),
    )


def parse_section(obj: dict, where: str, earlier: list) -> Section:
    """`earlier` holds the page's already-parsed sections, so a record that
    omits section_depth gets it computed from its parent chain (0 for a
    parent out of range, which Page refuses); a stated depth is kept as-is
    and validated by Page."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: section entry must be an object")
    index = _field(obj, "section_index", int, where)
    parent = _field(obj, "section_parent_index", int, where, None)
    images = _field(obj, "images", list, where, [])
    chained = earlier[parent].depth + 1 if parent is not None and 0 <= parent < len(earlier) else 0
    # fields are read in argument order, so of several bad fields the first read is the one named
    return Section(
        index=index,
        depth=_field(obj, "section_depth", int, where, chained),
        title=_field(obj, "section_title", str, where, ""),
        body_text=_field(obj, "section_text", str, where, ""),
        parent_index=parent,
        images=tuple(parse_image(i, f"{where} image {n}") for n, i in enumerate(images)),
        has_table_or_list=_field(obj, "section_contains_table_or_list", bool, where, False),
    )


def parse_page(obj: dict) -> Page:
    """Build a Page from one decoded JSONL object, validating invariants."""
    if not isinstance(obj, dict):
        raise CorpusError("page record must be a JSON object")
    url = _field(obj, "page_url", str, "page")
    where = f"page {url}"
    sections = []
    for n, raw in enumerate(_field(obj, "sections", list, where, [])):
        sections.append(parse_section(raw, f"{where} section {n}", sections))
    return Page(
        url=url,
        title=_field(obj, "page_title", str, where, ""),
        raw_description=_field(obj, "raw_page_description", str, where, ""),
        sections=tuple(sections),
        split=_field(obj, "split", str, where, None),
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
