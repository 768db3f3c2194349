"""A reference for the three tasks' example layouts, restated from the task
definitions over raw corpus lines.

It reads JSONL lines as the corpus reader's callers see them and gives, per
task, the JSON object of every example (task, page URL, prefix and context
slots, target) with its split, and the filter report. It imports nothing
from the package: the tokenizer, the sentence splitter, the content-section
and mime rules, the split hash, the 512-slot cap and every eligibility rule
are written out here again, so a layout fault in the package cannot carry
over into the reference. It takes only records that are well formed but for
two faults, which it counts as parse_error: a line that does not decode, and
a page URL that an earlier line already used.
"""

from __future__ import annotations

import hashlib
import json

CAP = 512  # prefix slots per example
PAGE_IMAGES = 6  # page description: context images in the prefix
SECTION_IMAGES = 1  # section summarization: the target section's images in the prefix
MIN_SENTENCES = 5
MIN_REFERENCE_WORDS = 3


def tokens(text: str) -> list:
    """Each run of word characters (letters, digits, other numerals and "_")
    is one token; every other character that is not whitespace is one token
    on its own."""
    out, word = [], ""
    for ch in text:
        if ch.isalnum() or ch == "_":
            word += ch
            continue
        if word:
            out.append(word)
            word = ""
        if not ch.isspace():
            out.append(ch)
    return out + [word] if word else out


def first_sentence(body: str) -> tuple:
    """(the first sentence, the rest) of a stripped body: the first sentence
    ends at the first ".", "!" or "?" that whitespace or the end of the text
    follows, and the rest is what comes after it, stripped."""
    for i, ch in enumerate(body):
        if ch in ".!?" and (i + 1 == len(body) or body[i + 1].isspace()):
            return body[: i + 1], body[i + 1 :].strip()
    return body, ""


def sentences(body: str) -> int:
    """How many first sentences can be taken off the body, one at a time."""
    n = 0
    while body:
        _, body = first_sentence(body)
        n += 1
    return n


def split_of(url: str) -> str:
    """The page's split: the first 8 bytes of the URL's sha256, read as a
    fraction of 2**64, below 0.90 train, below 0.95 val, else test."""
    x = int.from_bytes(hashlib.sha256(url.encode("utf-8")).digest()[:8], "big") / 2**64
    return "train" if x < 0.90 else "val" if x < 0.95 else "test"


def _image(raw: dict) -> dict:
    url = raw["section_image_url"]
    return {
        "id": raw.get("embedding_id") or url,  # absent, null or "" is the url
        "jpeg_or_png": (raw.get("section_image_mime_type") or "").strip().lower().split("/")[-1]
        in ("jpeg", "jpg", "png"),
        "in_wit": raw.get("section_image_in_WIT") is True,
        "reference": raw.get("section_image_raw_ref_desc") or "",
    }


def _section(raw: dict) -> dict:
    body = (raw.get("section_text") or "").strip()
    first, rest = first_sentence(body)
    images = [_image(img) for img in raw.get("images") or []]
    table = raw.get("section_contains_table_or_list") is True
    return {"index": raw["section_index"], "title": raw.get("section_title") or "", "body": body,
            "first": first, "rest": rest, "images": images, "table": table,
            "content": bool(body or images) and not table}


def text(value: str, origin: str) -> list:
    return [{"kind": "text", "token": t, "origin": origin} for t in tokens(value)]


def pictures(images: list, origin: str) -> list:
    return [{"kind": "image", "image": img["id"], "origin": origin} for img in images]


def marker(sec: dict) -> list:
    return [{"kind": "text", "token": f"[S{sec['index']}]", "origin": "section_index"}]


def captions(images: list) -> list:
    return [slot for img in images for slot in text(img["reference"], "caption")]


def layout(sec: dict) -> list:
    """A section as local material: marker, title, whole body, then every image's caption."""
    return marker(sec) + text(sec["title"], "section_title") + text(sec["body"], "section_body") + captions(
        sec["images"])


def _example(task: str, page: dict, prefix: list, context: list, target: str) -> dict:
    """The example's JSON object; prefix slots past the cap start the context."""
    return {"task": task, "page_url": page["url"], "prefix": prefix[:CAP],
            "context": prefix[CAP:] + context, "target": target}


def _page_description(page: dict, threshold: int, variant: str):
    if "list_of" in page["url"].lower():
        return "list_heavy"
    if not page["description"]:
        return "missing_description"
    content = [sec for sec in page["sections"] if sec["content"]]
    if len(content) < threshold:
        return "too_few_content_sections"
    images = [img for sec in content for img in sec["images"]][:PAGE_IMAGES]
    prefix = pictures(images, "context_image") + text(page["url"], "page_url") + text(page["title"], "page_title")
    context = []
    for sec in content:
        if variant == "in-order":
            prefix += layout(sec)
        elif variant == "titles-only":
            prefix += text(sec["title"], "section_title")
            context += marker(sec) + text(sec["body"], "section_body") + captions(sec["images"])
        else:  # titles-first-sentences
            prefix += text(sec["title"], "section_title") + text(sec["first"], "section_first_sentence")
            context += marker(sec) + text(sec["rest"], "section_body") + captions(sec["images"])
    return _example("page_description", page, prefix, context, page["description"])


def _others(page: dict, skip: int) -> list:
    """Local context: page URL, page title, then every content section but `skip`."""
    out = text(page["url"], "page_url") + text(page["title"], "page_title")
    for sec in page["sections"]:
        if sec["content"] and sec["index"] != skip:
            out += layout(sec)
    return out


def _section_summaries(page: dict) -> list:
    out = []
    for sec in page["sections"]:
        if sec["index"] == 0:
            out.append("root")
        elif sec["table"]:
            out.append("table_or_list")
        elif sentences(sec["body"]) < MIN_SENTENCES:
            out.append("too_short")
        else:
            prefix = (pictures(sec["images"][:SECTION_IMAGES], "context_image") + marker(sec)
                      + text(sec["title"], "section_title") + text(sec["rest"], "section_body")
                      + captions(sec["images"]))
            out.append(_example("section_summarization", page, prefix, _others(page, sec["index"]), sec["first"]))
    return out


def _image_captions(page: dict) -> list:
    out = []
    for sec in page["sections"]:
        for pos, img in enumerate(sec["images"]):
            if not img["in_wit"]:
                out.append("not_in_quality_set")
            elif not img["jpeg_or_png"]:
                out.append("mime")
            elif len(img["reference"].split()) < MIN_REFERENCE_WORDS:
                out.append("short_reference")
            else:
                others = [other for n, other in enumerate(sec["images"]) if n != pos]
                prefix = (pictures([img], "target_image") + marker(sec) + text(sec["title"], "section_title")
                          + text(sec["body"], "section_body") + captions(others))
                out.append(_example("image_captioning", page, prefix, _others(page, sec["index"]),
                                    img["reference"]))
    return out


def build(lines: list, task: str, threshold: int, variant: str) -> tuple:
    """[(split, example object)] in corpus order, and the filter report as a
    dict, for one task over the given JSONL lines."""
    report = {"task": task, "pages_in": 0, "candidates": 0, "examples_out": 0, "rejections": {},
              "splits": {"train": 0, "val": 0, "test": 0}}
    routed, seen = [], set()
    for line in lines:
        try:
            record = json.loads(line)
        except ValueError:
            record = None
        if record is None or record["page_url"] in seen:
            outcomes = ["parse_error"]
        else:
            seen.add(record["page_url"])
            report["pages_in"] += 1
            page = {"url": record["page_url"], "title": record.get("page_title") or "",
                    "description": record.get("raw_page_description") or "",
                    "sections": [_section(sec) for sec in record.get("sections") or []]}
            split = record.get("split") or split_of(page["url"])
            if task == "page_description":
                outcomes = [_page_description(page, threshold, variant)]
            elif task == "section_summarization":
                outcomes = _section_summaries(page)
            else:
                outcomes = _image_captions(page)
        for outcome in outcomes:
            report["candidates"] += 1
            if isinstance(outcome, str):
                report["rejections"][outcome] = report["rejections"].get(outcome, 0) + 1
            else:
                routed.append((split, outcome))
                report["examples_out"] += 1
                report["splits"][split] += 1
    report["rejections"] = dict(sorted(report["rejections"].items()))
    return routed, report
