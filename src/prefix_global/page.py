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
first/rest sentence fields, if present in a record, are ignored too: the
sequence layer splits the section text with the splitter below, so no stored
pair can disagree with the text. A Section keeps only its seven constructor
fields.

Page input is checked here and nowhere downstream, by one field rule,
_exact: a value must be exactly its field's type, and a str must encode as
UTF-8. The model is the checker: each class applies the rule to its own
fields when it is built, whether by the reader or directly: an ImageRef to
its url, mime (a Mime member), three text fields, flag and embedding_id; a
Section to its index, depth, flag, title, body, images (a tuple) and parent,
and to each image, which must be an ImageRef; a Page to its url, title,
description and sections (a tuple), and to each entry, which must be a
Section. Beyond its fields, a Section checks that its parent comes before
it, and a Page the rules that span sections: each index equals its slot and
each depth the parent-chain length. So every Page that builds can be
written. The sequence builders copy checked fields into token runs and
check nothing again. A Page is its five constructor fields and nothing
more: the token runs that the builders share live in a sequence.PageRuns,
not on the page.

The corpus reader is a key map. Each parse_* function passes every present,
non-null JSON value to its class unchecked, as the attribute that the
class's key map (_IMAGE_ATTRS, _SECTION_ATTRS, _PAGE_ATTRS) names; _build
makes the object and re-raises the model's CorpusError with the reader's
location in front ("page U section S image I: ..."), so every refusal names
where it happened. The reader applies _exact itself only to the five values
it uses before the model sees them, and names each by its JSON key: page_url,
which names the page in messages; sections and images, which it iterates;
section_parent_index, which indexes the earlier sections; and
section_image_mime_type, which parse_mime reads.

The sentence splitter is deliberately naive: the first ., ! or ? followed by
whitespace (or end of text) ends the first sentence. No abbreviation guard.
It is a documented, replaceable seam, not a linguistic claim.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from enum import Enum

SPLITS = ("train", "val", "test")
TRAIN_CUT = 0.90
VAL_CUT = 0.95

_TOKEN_RE = re.compile(r"\w+|[^\w\s]")
_SENTENCE_END_RE = re.compile(r"[.!?](?=\s|$)")


class CorpusError(ValueError):
    """A record violates the corpus schema or a page-level invariant."""


def _exact(value, kind, owner: str, name):
    """The one field rule of the page model: `value` must be exactly a
    `kind`, so True is not an int and a str subclass is not a str, and a str
    must encode as UTF-8. Returns `value`. "<owner> <name>" names the field
    in the CorpusError, which is formatted only when it is raised."""
    if type(value) is not kind:
        article = "an" if kind.__name__[0] in "aeiouAEIOU" else "a"
        raise CorpusError(f"{owner} {name} must be {article} {kind.__name__}, got {type(value).__name__}")
    if kind is str:
        try:
            value.encode("utf-8")
        except UnicodeEncodeError:
            raise CorpusError(f"{owner} {name} holds a lone surrogate, which UTF-8 cannot encode") from None
    return value


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
        # a token run copies embedding_id unchanged, the text fields are
        # tokenized, and "no" or a mime that is not a Mime member would pass the
        # captioning check
        for name, kind in (("url", str), ("mime", Mime), ("alt_text", str), ("reference_desc", str),
                           ("attribution_desc", str), ("in_quality_set", bool), ("embedding_id", str)):
            _exact(getattr(self, name), kind, "image", name)
        if not self.url:
            raise CorpusError("image url must be nonempty")
        if not self.embedding_id:
            object.__setattr__(self, "embedding_id", self.url)


@dataclass(frozen=True)
class Section:
    """One section of a page. It checks its own fields with _exact, each
    image's type, and that its parent comes before it; the page checks that
    its index matches its slot and its depth the parent chain."""

    index: int
    title: str = ""
    body_text: str = ""
    parent_index: int | None = None
    depth: int = 0
    images: tuple = ()
    has_table_or_list: bool = False

    def __post_init__(self):
        # True == 1 and the marker run copies the index into a token, a flag of
        # "false" is truthy, the title and body are tokenized, and the images
        # are iterated
        for name, kind in (("index", int), ("depth", int), ("has_table_or_list", bool), ("title", str),
                           ("body_text", str), ("images", tuple)):
            _exact(getattr(self, name), kind, "section", name)
        parent = self.parent_index
        if parent is not None and not 0 <= _exact(parent, int, "section", "parent_index") < self.index:
            raise CorpusError(f"section parent_index {parent} must precede its index {self.index}")
        for image in self.images:
            _exact(image, ImageRef, "section", "image")
        object.__setattr__(self, "body_text", self.body_text.strip())


@dataclass(frozen=True)
class Page:
    """One page. It checks its own fields with _exact and that each entry of
    sections is a Section; of a section's fields it reads only the values
    that span sections: index against slot, depth against the parent chain."""

    url: str
    title: str = ""
    raw_description: str = ""
    sections: tuple = ()
    split: str | None = None  # None: the split of the URL's hash

    def __post_init__(self):
        # the url is hashed for the split, the title and description are
        # tokenized, and the sections are iterated
        for name, kind in (("url", str), ("title", str), ("raw_description", str), ("sections", tuple)):
            _exact(getattr(self, name), kind, "page", name)
        if not self.url:
            raise CorpusError("page url must be nonempty")
        if self.split is None:
            object.__setattr__(self, "split", assign_split(self.url))
        if self.split not in SPLITS:
            raise CorpusError(f"page split must be one of {SPLITS}, got {self.split!r}")
        for pos, sec in enumerate(self.sections):
            if _exact(sec, Section, "section in slot", pos).index != pos:
                raise CorpusError(f"section indices must be 0..n-1 in order; slot {pos} has index {sec.index}")
            expected_depth = 0 if sec.parent_index is None else self.sections[sec.parent_index].depth + 1
            if sec.depth != expected_depth:
                raise CorpusError(f"section {sec.index} has depth {sec.depth}, not its parent-chain length {expected_depth}")

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
    r"""Whitespace-plus-punctuation split; the token unit for every budget.

    The tokens are re.findall(r"\w+|[^\w\s]", text), found whitespace
    first: text.split() cuts the text into chunks, a chunk for which
    isalnum() holds is one token, and any other chunk goes through the
    regex. That equals the regex on the whole text: no token spans
    whitespace, re's \s is str.isspace() and its \w is isalnum() or "_" on
    every code point, so an alphanumeric chunk is exactly one \w+ match."""
    out = []
    for chunk in text.split():
        if chunk.isalnum():
            out.append(chunk)
        else:
            out += _TOKEN_RE.findall(chunk)
    return out


# the model attribute each JSON key becomes; the reader passes the value
# unchecked, and the model checks it
_IMAGE_ATTRS = {"section_image_url": "url", "section_image_alt_text_desc": "alt_text",
                "section_image_raw_ref_desc": "reference_desc", "section_image_raw_attr_desc": "attribution_desc",
                "section_image_in_WIT": "in_quality_set", "embedding_id": "embedding_id"}
_SECTION_ATTRS = {"section_index": "index", "section_depth": "depth", "section_title": "title",
                  "section_text": "body_text", "section_contains_table_or_list": "has_table_or_list"}
_PAGE_ATTRS = {"page_title": "title", "raw_page_description": "raw_description", "split": "split"}


def _read(obj: dict, key: str, kind, where: str, default):
    """A value the reader uses itself, before the model sees it: absent or
    null is `default`, and any other value must pass _exact."""
    value = obj.get(key)
    if value is None:
        return default
    try:
        return _exact(value, kind, "field", repr(key))
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def _build(cls, attrs: dict, obj: dict, where: str, **fields):
    """A `cls` built from `fields`, where each key of `attrs` that `obj`
    holds with a value other than null sets the attribute attrs names to
    that value, unchecked: the model checks its own fields. Its CorpusError
    is re-raised with `where` in front."""
    for key, attr in attrs.items():
        value = obj.get(key)
        if value is not None:
            fields[attr] = value
    try:
        return cls(**fields)
    except CorpusError as exc:
        raise CorpusError(f"{where}: {exc}") from None


def parse_image(obj: dict, where: str) -> ImageRef:
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: image entry must be an object")
    # url=None: a required key that is absent or null reaches the model, which refuses it
    mime = parse_mime(_read(obj, "section_image_mime_type", str, where, ""))
    return _build(ImageRef, _IMAGE_ATTRS, obj, where, url=None, mime=mime)


def parse_section(obj: dict, where: str, earlier: list) -> Section:
    """`earlier` holds the page's already-parsed sections, so a record that
    omits section_depth gets it computed from its parent chain (0 for a
    parent out of range, which Section or Page refuses); a stated depth is kept as-is
    and validated by Page."""
    if not isinstance(obj, dict):
        raise CorpusError(f"{where}: section entry must be an object")
    parent = _read(obj, "section_parent_index", int, where, None)
    images = tuple(parse_image(i, f"{where} image {n}") for n, i in enumerate(_read(obj, "images", list, where, ())))
    chained = earlier[parent].depth + 1 if parent is not None and 0 <= parent < len(earlier) else 0
    return _build(Section, _SECTION_ATTRS, obj, where, index=None, depth=chained, parent_index=parent, images=images)


def parse_page(obj: dict) -> Page:
    """Build a Page from one decoded JSONL object, validating invariants."""
    if not isinstance(obj, dict):
        raise CorpusError("page record must be a JSON object")
    url = _exact(obj.get("page_url"), str, "page: field", "'page_url'")
    where = f"page {url}"
    sections = []
    for n, raw in enumerate(_read(obj, "sections", list, where, ())):
        sections.append(parse_section(raw, f"{where} section {n}", sections))
    return _build(Page, _PAGE_ATTRS, obj, where, url=url, sections=tuple(sections))


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
