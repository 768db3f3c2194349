"""Seeded synthetic webpage corpus with hand-tallied expected outcomes.

Pages are built in blocks of BLOCK_PAGES. Every block holds one page of each
archetype below, in a seed-shuffled order. A page's structure (section,
sentence, word and image counts) is drawn from a generator seeded by its
block and archetype alone, so every seed gives the same shape and the same
slot counts; the seed picks the words, from the vocabulary of the bundled
demo corpus, so no page text repeats.

The generator decides every eligibility outcome while it writes the page and
tallies it itself. These tallies are the oracle for the build reports; they
are never derived from the package under test. This module uses the standard
library only and never imports the package.

Each block also carries two malformed lines of kinds the corpus reader
already rejects: one undecodable JSON line and one duplicate page_url.
"""

from __future__ import annotations

import json
import random
import re

BLOCK_PAGES = 10
URL_BASE = "https://bench.example/wiki"
TASKS = ("page_description", "section_summarization", "image_captioning")

# Archetypes. Sections are (count, sentences lo-hi, words per sentence lo-hi).
# "text" sections have >= 5 sentences (summarization targets), "short" ones
# 2-4 (too_short), "table" ones carry the table/list flag. Images name their
# designed outcome. Page-description prefix material stays below 480 slots
# on every archetype but "overflow", where it exceeds 600 slots.
ARCHETYPES = {
    "list": dict(list_url=True, text=(4, 5, 7, 8, 14), short=(0,), table=(2, 5, 6, 8, 14),
                 images=("eligible", "eligible", "mime")),
    "nodesc": dict(description=False, text=(7, 5, 8, 8, 14), short=(1, 2, 4, 8, 14),
                   images=("eligible", "eligible", "eligible", "not_in_quality_set")),
    "stub": dict(text=(0,), short=(0,), table=(1, 5, 6, 8, 14), heading=True,
                 images=("short_reference",)),
    "overflow": dict(text=(26, 5, 6, 22, 26), short=(0,),
                     images=("eligible", "eligible", "eligible", "eligible", "mime", "short_reference")),
    "small-a": dict(text=(4, 5, 6, 10, 16), short=(1, 2, 3, 8, 14), images=("eligible",)),
    "small-b": dict(text=(4, 5, 7, 10, 16), short=(0,), gallery=True,
                    images=("eligible", "not_in_quality_set")),
    "medium-a": dict(text=(10, 6, 9, 10, 16), short=(1, 2, 4, 8, 14), heading=True,
                     images=("eligible", "eligible", "mime", "not_in_quality_set")),
    "medium-b": dict(text=(9, 6, 9, 10, 16), short=(1, 3, 4, 8, 14), table=(1, 5, 6, 8, 14),
                     images=("eligible", "eligible", "eligible", "short_reference")),
    "large": dict(text=(14, 9, 12, 12, 18), short=(1, 2, 4, 8, 14), heading=True, gallery=True,
                  images=("eligible", "eligible", "eligible", "eligible", "mime", "not_in_quality_set")),
    "xl": dict(text=(18, 11, 14, 12, 18), short=(2, 2, 4, 8, 14), table=(1, 5, 6, 8, 14),
               images=("eligible",) * 6 + ("short_reference", "mime")),
}
assert len(ARCHETYPES) == BLOCK_PAGES

_IMAGE_FIELDS = {  # outcome -> (mime, in quality set, reference words)
    "eligible": ("image/jpeg", True, (3, 7)),
    "not_in_quality_set": ("image/png", False, (3, 7)),
    "mime": ("image/webp", True, (3, 7)),
    "short_reference": ("image/jpeg", True, (2, 2)),
}


def vocabulary(demo_corpus_path) -> list[str]:
    """Sorted lowercase alphabetic words of every text field in the demo corpus."""
    words = set()
    with open(demo_corpus_path, encoding="utf-8") as fh:
        for line in fh:
            page = json.loads(line)
            texts = [page.get("page_title") or "", page.get("raw_page_description") or ""]
            for sec in page.get("sections", []):
                texts += [sec.get("section_title") or "", sec.get("section_text") or ""]
                for img in sec.get("images", []):
                    texts += [img.get(k) or "" for k in (
                        "section_image_raw_ref_desc", "section_image_alt_text_desc",
                        "section_image_raw_attr_desc")]
            for text in texts:
                words.update(w.lower() for w in re.findall(r"[A-Za-z]+", text))
    return sorted(words)


class _Writer:
    """Draws a page's structure from `shape` and its words from `wording`."""

    def __init__(self, shape, wording, vocab):
        self.shape = shape
        self.wording = wording
        self.vocab = vocab

    def words(self, n: int) -> list[str]:
        return [self.wording.choice(self.vocab) for _ in range(n)]

    def sentence(self, lo: int, hi: int) -> str:
        words = self.words(self.shape.randint(lo, hi))
        words[0] = words[0].capitalize()
        return " ".join(words) + "."

    def text(self, n_sentences: int, lo: int, hi: int) -> str:
        return " ".join(self.sentence(lo, hi) for _ in range(n_sentences))

    def title(self) -> str:
        return " ".join(w.capitalize() for w in self.words(self.shape.randint(1, 3)))


def _section(index, title, text, parent=None, table=False, images=()):
    return {
        "section_index": index,
        "section_title": title,
        "section_text": text,
        "section_parent_index": parent,
        "section_contains_table_or_list": table,
        "images": list(images),
    }


def _page(w: _Writer, name: str, spec: dict, tally: dict) -> dict:
    """One page of archetype `spec`; adds its designed outcomes to `tally`."""
    rng = w.shape
    slug = "_".join(x.capitalize() for x in w.words(3)) + "_" + name
    if spec.get("list_url"):
        slug = "List_of_" + slug
    sections = [_section(0, "", w.text(rng.randint(1, 2), 8, 14))]
    summ = tally["section_summarization"]
    _reject(summ, "root")
    content = 1  # the root has text, so it is a content section

    def add(kind, count, s_lo=0, s_hi=0, w_lo=0, w_hi=0, parent=None):
        nonlocal content
        for _ in range(count):
            sections.append(_section(len(sections), w.title(), w.text(rng.randint(s_lo, s_hi), w_lo, w_hi),
                                     parent=parent, table=kind == "table"))
            if kind == "table":
                _reject(summ, "table_or_list")
                continue
            content += 1
            if kind == "text":
                summ["examples"] += 1
            else:
                _reject(summ, "too_short")

    parent = None
    if spec.get("heading"):
        # an empty heading whose later sections are its children (depth 1)
        sections.append(_section(len(sections), w.title(), ""))
        parent = len(sections) - 1
        _reject(summ, "too_short")
    add("text", *spec["text"], parent=parent)
    add("short", *spec["short"])
    if "table" in spec:
        add("table", *spec["table"])
    if spec.get("gallery"):
        sections.append(_section(len(sections), w.title(), ""))
        content += 1  # image-only sections are content; images are added below
        _reject(summ, "too_short")
    summ["candidates"] += len(sections)

    # The gallery takes the first image; the rest go to seeded sections with text.
    holders = [s for s in sections[1:] if s["section_text"]]
    caps = tally["image_captioning"]
    for n, outcome in enumerate(spec["images"]):
        holder = sections[-1] if n == 0 and spec.get("gallery") else rng.choice(holders)
        mime, in_set, (r_lo, r_hi) = _IMAGE_FIELDS[outcome]
        ext = mime.rsplit("/", 1)[1]
        ref = " ".join(w.words(rng.randint(r_lo, r_hi)))
        holder["images"].append({
            "section_image_url": f"https://img.bench.example/{slug}/{n:02d}.{ext}",
            "section_image_mime_type": mime,
            "section_image_raw_ref_desc": ref,
            "section_image_alt_text_desc": " ".join(w.words(2)),
            "section_image_raw_attr_desc": " ".join(w.words(3)),
            "section_image_in_WIT": in_set,
            "embedding_id": f"img-{slug}-{n:02d}",
        })
        caps["candidates"] += 1
        if outcome == "eligible":
            caps["examples"] += 1
        else:
            _reject(caps, outcome)

    desc = tally["page_description"]
    desc["candidates"] += 1
    if spec.get("list_url"):
        _reject(desc, "list_heavy")
    elif spec.get("description", True) is False:
        _reject(desc, "missing_description")
    elif content < 2:
        _reject(desc, "too_few_content_sections")
    else:
        desc["examples"] += 1
        if name == "overflow":
            tally["prefix_capped"] += 1
    for task in TASKS:
        tally[task]["pages_in"] += 1
    return {
        "page_url": f"{URL_BASE}/{slug}",
        "page_title": slug.replace("_", " "),
        "raw_page_description": w.text(2, 8, 14) if spec.get("description", True) else "",
        "sections": sections,
    }


def _reject(counts: dict, reason: str) -> None:
    counts["rejections"][reason] = counts["rejections"].get(reason, 0) + 1


def empty_tally() -> dict:
    tally = {t: {"pages_in": 0, "candidates": 0, "examples": 0, "rejections": {}} for t in TASKS}
    tally.update(prefix_capped=0, malformed=0, pages=0, lines=0, bytes=0)
    return tally


def generate(path, seed: int, blocks: int, vocab: list[str]) -> dict:
    """Write `blocks` blocks of pages to `path` as JSONL; return the tally.

    Page text depends only on (seed, block), so the first b blocks of a
    longer corpus are byte-identical to a b-block corpus with the same seed.
    """
    tally = empty_tally()
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for b in range(blocks):
            rng = random.Random(f"perfbench:{seed}:{b}")
            names = list(ARCHETYPES)
            rng.shuffle(names)
            lines = []
            for name in names:
                w = _Writer(random.Random(f"perfbench-shape:{b}:{name}"), rng, vocab)
                page = _page(w, name, ARCHETYPES[name], tally)
                lines.append(json.dumps(page, ensure_ascii=False))
            # malformed lines: a later page reusing an earlier page's URL, and
            # a truncated copy of a record that no longer decodes
            first = rng.randrange(len(lines))
            dup = json.loads(lines[first])
            dup["sections"] = [_section(0, "", w.text(1, 8, 14))]
            lines.insert(rng.randint(first + 1, len(lines)), json.dumps(dup, ensure_ascii=False))
            lines.insert(rng.randint(0, len(lines)), lines[rng.randrange(len(lines))][:-7])
            text = "\n".join(lines) + "\n"
            fh.write(text)
            tally["bytes"] += len(text.encode("utf-8"))
    tally["malformed"] = 2 * blocks
    tally["pages"] = BLOCK_PAGES * blocks
    tally["lines"] = tally["pages"] + tally["malformed"]
    for task in TASKS:
        tally[task]["candidates"] += tally["malformed"]
        tally[task]["rejections"]["parse_error"] = tally["malformed"]
    return tally
