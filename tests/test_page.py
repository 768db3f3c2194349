"""Page model: taxonomy, splitter, tokenizer, JSONL ingest."""

import copy
import dataclasses
import enum
import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefix_global.demo import demo_corpus_path
from prefix_global.page import (
    CorpusError,
    ImageRef,
    MalformedRecord,
    Mime,
    Page,
    Section,
    SectionClass,
    assign_split,
    classify_section,
    count_sentences,
    is_content_section,
    iter_corpus,
    parse_mime,
    parse_page,
    split_first_sentence,
    tokenize,
)
from prefix_global.pipeline import build_dataset, corpus_stats
from prefix_global.sequence import REASON_PARSE_ERROR, PageRuns, Task, build_section_summarization_input


def sec(index, **kw):
    return Section(index=index, **kw)


def img(url="https://img.example/x.jpg", **kw):
    return ImageRef(url=url, **kw)


class TestSplitFirstSentence:
    def test_two_sentences(self):
        assert split_first_sentence("A b. C d.") == ("A b.", "C d.")

    def test_empty(self):
        assert split_first_sentence("") == ("", "")

    def test_no_terminator(self):
        assert split_first_sentence("No terminator here") == ("No terminator here", "")

    def test_question_and_bang(self):
        assert split_first_sentence("Really? Yes!") == ("Really?", "Yes!")

    def test_abbreviation_guard_is_absent_by_design(self):
        first, rest = split_first_sentence("Dr. Smith arrived. Late.")
        assert first == "Dr."
        assert rest == "Smith arrived. Late."

    def test_terminator_at_end(self):
        assert split_first_sentence("Only one.") == ("Only one.", "")

    def test_decimal_point_is_not_a_boundary(self):
        assert split_first_sentence("Pi is 3.14 roughly. Yes.") == ("Pi is 3.14 roughly.", "Yes.")

    def test_idempotent_on_first(self):
        for text in ("A b. C d.", "One only", "Really? Yes!", "x."):
            first, _ = split_first_sentence(text)
            assert split_first_sentence(first)[0] == first

    def test_reconstructs_body(self):
        for text in ("A b. C d.", "One. Two. Three.", "No break", "Hm? Ok. Fine!"):
            first, rest = split_first_sentence(text)
            rebuilt = first if not rest else f"{first} {rest}"
            assert rebuilt == text


class TestSentenceCount:
    @pytest.mark.parametrize(
        "text,n",
        [
            ("", 0),
            ("   ", 0),
            ("One.", 1),
            ("One. Two. Three.", 3),
            ("No terminator", 1),
            ("A! B? C. D", 4),
            ("One. Two. Three. Four. Five.", 5),
        ],
    )
    def test_counts(self, text, n):
        assert count_sentences(text) == n

    @staticmethod
    def peeled_count(text):
        """The count of the loop that took one sentence at a time off the
        text with split_first_sentence."""
        n = 0
        while text:
            first, text = split_first_sentence(text)
            if first:
                n += 1
        return n

    # sentence marks, whitespace that str.strip and re's \s both know, letters
    @given(st.text(alphabet="aZ9 .!?,\t\n\x1c\u2003", max_size=40))
    @example("   ")
    @example("...")
    @example("  a. b")
    @example("a.b. c")
    @settings(max_examples=300, deadline=None)
    def test_one_pass_count_matches_peeling(self, text):
        assert count_sentences(text) == self.peeled_count(text)


class TestTokenize:
    def test_plain(self):
        assert tokenize("a b c") == ["a", "b", "c"]

    def test_empty(self):
        assert tokenize("") == []

    def test_punctuation_separates(self):
        assert tokenize("x, y.") == ["x", ",", "y", "."]

    def test_concat_property(self):
        for a, b in [("x y", "z"), ("Hello, world.", "Bye!"), ("a", "b c d")]:
            assert tokenize(a) + tokenize(b) == tokenize(a + " " + b)

    def test_url_tokens(self):
        assert tokenize("https://e.org/wiki/Tidal_Mill") == [
            "https", ":", "/", "/", "e", ".", "org", "/", "wiki", "/", "Tidal_Mill",
        ]

    # every code point, lone surrogates too, with whitespace and "_" drawn often
    # enough that most texts hold several chunks and some hold only whitespace
    @given(st.text(st.one_of(st.characters(exclude_categories=()), st.sampled_from(" \t\n_.\x1c\x85\xa0\u3000"))))
    @example("_")
    @example("a_b")
    @example("\u00b7")  # middle dot: not alphanumeric, so not \w
    @example("e\u0301")  # a combining acute accent is not alphanumeric either
    @example("a\x1cb")  # the file separator is whitespace to str.split and to \s
    @example("a\x85b")
    @example("a\xa0b")
    @example("a\u3000b")
    @example("\U0001d400\U0001f600")  # astral: a mathematical letter, then an emoji
    @example("")
    @example(" \t\n\x1c\u3000")
    @settings(max_examples=500, deadline=None)
    def test_whitespace_first_equals_the_regex(self, text):
        # the regex written out again, not imported, and run on the whole text
        assert tokenize(text) == re.findall(r"\w+|[^\w\s]", text)


class TestClassification:
    def test_text_only(self):
        assert classify_section(sec(0, body_text="x"), False) is SectionClass.TEXT_ONLY

    def test_image_only(self):
        assert classify_section(sec(0, images=(img(),)), False) is SectionClass.IMAGE_ONLY

    def test_structural(self):
        assert classify_section(sec(0), True) is SectionClass.STRUCTURAL

    def test_heading(self):
        assert classify_section(sec(0), False) is SectionClass.HEADING

    def test_both(self):
        assert classify_section(sec(0, body_text="x", images=(img(),)), False) is SectionClass.BOTH

    def test_table_flag_does_not_change_class(self):
        assert classify_section(sec(0, body_text="x", has_table_or_list=True), False) is SectionClass.TEXT_ONLY


class TestContentSection:
    def test_text_counts(self):
        assert is_content_section(sec(0, body_text="x"))

    def test_images_count(self):
        assert is_content_section(sec(0, images=(img(),)))

    def test_table_disqualifies(self):
        assert not is_content_section(sec(0, body_text="x", has_table_or_list=True))

    def test_empty_heading_is_not_content(self):
        assert not is_content_section(sec(0))


class TestSectionDerivation:
    # a Section keeps only its text; the sequence layer splits it, into the
    # runs of SectionRuns and the summarization target
    @staticmethod
    def split(body_text):
        runs = PageRuns(Page(url="u", sections=(sec(0), sec(1, body_text=body_text))))
        own = runs.content[1]
        return own.first_sentence.values, own.rest.values, build_section_summarization_input(runs, 1).target_text

    def test_first_and_rest_derived(self):
        assert self.split("First one. Second one. Third.") == (
            tuple(tokenize("First one.")), tuple(tokenize("Second one. Third.")), "First one.")

    def test_body_stripped(self):
        assert sec(0, body_text="  padded.  ").body_text == "padded."
        assert self.split("  padded.  ") == (("padded", "."), (), "padded.")


class TestPageInvariants:
    def test_indices_must_run_in_order(self):
        with pytest.raises(CorpusError):
            Page(url="u", sections=(sec(0), sec(2)))

    def test_parent_must_precede(self):
        with pytest.raises(CorpusError):
            Page(url="u", sections=(sec(0, parent_index=0, depth=1),))
        with pytest.raises(CorpusError):
            Page(url="u", sections=(sec(0), sec(1, parent_index=5, depth=1)))

    def test_depth_must_match_chain(self):
        with pytest.raises(CorpusError):
            Page(url="u", sections=(sec(0), sec(1, parent_index=0, depth=2)))
        page = Page(
            url="u",
            sections=(sec(0), sec(1, parent_index=0, depth=1), sec(2, parent_index=1, depth=2)),
        )
        assert page.sections[2].depth == 2

    class One(enum.IntEnum):
        ONE = 1

    @pytest.mark.parametrize("field, kw", [
        ("index", {"index": True}),
        ("index", {"index": np.int64(1)}),
        ("index", {"index": One.ONE}),
        ("parent_index", {"index": 1, "parent_index": True, "depth": 1}),
        ("parent_index", {"index": 1, "parent_index": 0.0, "depth": 1}),
        ("depth", {"index": 1, "parent_index": 0, "depth": True}),
        ("depth", {"index": 1, "depth": 0.0}),
    ])
    def test_non_int_section_index_parent_or_depth_refused(self, field, kw):
        # each equals the int it stands for, so only the exact-type rule
        # keeps "[STrue]" out of a marker token
        with pytest.raises(CorpusError, match=f"^section {field} must be an int, got "):
            Section(**kw)

    @pytest.mark.parametrize("flag", ["false", 0, 1, None, np.bool_(False)], ids=repr)
    def test_non_bool_section_flag_refused(self, flag):
        # "false" is truthy: build_dataset would refuse the section as table_or_list
        with pytest.raises(CorpusError, match="^section has_table_or_list must be a bool, got "):
            sec(1, body_text="x.", has_table_or_list=flag)

    # a page checks that each entry is a Section and a section that each
    # image is an ImageRef: an entry 7 would fail with AttributeError, and an
    # image "x" would pass until build_dataset read its reference_desc
    @pytest.mark.parametrize("entry", [7, "x", None, img()], ids=lambda entry: type(entry).__name__)
    def test_non_section_entry_refused(self, entry):
        with pytest.raises(CorpusError, match=f"^section in slot 1 must be a Section, got {type(entry).__name__}$"):
            Page(url="u", sections=(sec(0), entry))

    @pytest.mark.parametrize("entry", [7, "x", None, sec(0)], ids=lambda entry: type(entry).__name__)
    def test_non_image_entry_refused(self, entry):
        with pytest.raises(CorpusError, match=f"^section image must be an ImageRef, got {type(entry).__name__}$"):
            sec(0, body_text="a.", images=(img(), entry))

    # a section's images and a page's sections are exactly tuples, as their
    # annotations say: 7 once raised TypeError, and a list or a generator was
    # converted
    NOT_TUPLES = {"int": lambda item: 7, "list": lambda item: [item], "generator": lambda item: (x for x in (item,))}

    @pytest.mark.parametrize("make", NOT_TUPLES.values(), ids=NOT_TUPLES.keys())
    def test_images_must_be_a_tuple(self, make):
        with pytest.raises(CorpusError, match="^section images must be a tuple, got "):
            sec(0, body_text="a.", images=make(img()))

    @pytest.mark.parametrize("make", NOT_TUPLES.values(), ids=NOT_TUPLES.keys())
    def test_sections_must_be_a_tuple(self, make):
        with pytest.raises(CorpusError, match="^page sections must be a tuple, got "):
            Page(url="u", sections=make(sec(0)))

    # JSON can escape a lone surrogate, and UTF-8 cannot encode one, so a
    # model built with one would make an example build could not write
    @pytest.mark.parametrize("build, field", [
        (Page, "url"), (Page, "title"), (Page, "raw_description"), (Section, "title"), (Section, "body_text"),
        (ImageRef, "url"), (ImageRef, "alt_text"), (ImageRef, "reference_desc"), (ImageRef, "attribution_desc"),
        (ImageRef, "embedding_id"),
    ], ids=lambda x: getattr(x, "__name__", x))
    def test_lone_surrogate_in_a_model_built_directly_refused(self, build, field):
        # an explicit embedding_id, so that a bad url is not also the embedding_id, which is checked first
        kind, kw = {Page: ("page", {"url": "u"}), Section: ("section", {"index": 0}),
                    ImageRef: ("image", {"url": "u", "embedding_id": "v"})}[build]
        with pytest.raises(CorpusError, match=f"^{kind} {field} holds a lone surrogate"):
            build(**{**kw, field: "a \ud800 b"})

    class Text(str):
        pass

    # a title or body is tokenized: None failed when the section was built,
    # with AttributeError, and 7 was accepted until build_dataset tokenized it
    @pytest.mark.parametrize("value", [None, 7, b"x.", Text("x.")], ids=repr)
    @pytest.mark.parametrize("field", ["title", "body_text"])
    def test_non_str_section_text_refused(self, field, value):
        with pytest.raises(CorpusError, match=f"^section {field} must be a str, got {type(value).__name__}$"):
            sec(1, **{field: value})

    @pytest.mark.parametrize("value", [7, b"u", Text("u")], ids=repr)
    @pytest.mark.parametrize("field", ["url", "title", "raw_description"])
    def test_non_str_page_text_refused(self, field, value):
        with pytest.raises(CorpusError, match=f"^page {field} must be a str, got {type(value).__name__}$"):
            Page(**{"url": "u", field: value})

    def test_empty_url_rejected(self):
        with pytest.raises(CorpusError):
            Page(url="")

    def test_bad_split_rejected(self):
        with pytest.raises(CorpusError):
            Page(url="u", split="dev")

    def test_split_defaults_to_the_url_hash(self):
        url = "https://e.org/wiki/P0"
        assert assign_split(url) != "train"
        assert Page(url=url).split == parse_page({"page_url": url}).split == assign_split(url)
        assert Page(url=url, split="train").split == "train"

    def test_has_children(self):
        # corpus_stats works out which sections have children: the empty
        # parent is structural, the empty leaf a heading
        page = Page(url="u", sections=(sec(0), sec(1, parent_index=0, depth=1)))
        assert corpus_stats([page])["sections"] == {
            "structural": 1, "heading": 1, "text_only": 0, "image_only": 0, "both": 0, "total": 2}

    def test_class_counts_partition(self):
        page = Page(
            url="u",
            sections=(
                sec(0, body_text="t."),
                sec(1),
                sec(2, parent_index=1, depth=1, images=(img(),)),
                sec(3, body_text="b.", images=(img("https://img.example/y.png"),)),
            ),
        )
        counts = corpus_stats([page])["sections"]
        assert counts["total"] == len(page.sections)
        assert counts[SectionClass.TEXT_ONLY.value] == 1
        assert counts[SectionClass.HEADING.value] == 0
        assert counts[SectionClass.STRUCTURAL.value] == 1
        assert counts[SectionClass.IMAGE_ONLY.value] == 1
        assert counts[SectionClass.BOTH.value] == 1


class TestMime:
    @pytest.mark.parametrize(
        "raw,expect",
        [
            ("image/jpeg", Mime.JPEG),
            ("image/jpg", Mime.JPEG),
            ("JPEG", Mime.JPEG),
            ("image/png", Mime.PNG),
            ("png", Mime.PNG),
            ("image/gif", Mime.OTHER),
            ("", Mime.OTHER),
        ],
    )
    def test_parse(self, raw, expect):
        assert parse_mime(raw) is expect

    def test_embedding_id_defaults_to_url(self):
        assert img().embedding_id == "https://img.example/x.jpg"
        assert img(embedding_id="vec-7").embedding_id == "vec-7"

    def test_image_url_required(self):
        with pytest.raises(CorpusError):
            ImageRef(url="")

    class Id(str):
        pass

    # an embedding_id is copied into a token run unchanged, so the model
    # refuses one that is not exactly a str; a url with no embedding_id
    # becomes one, and is checked first
    @pytest.mark.parametrize("kw", [{"embedding_id": 7}, {"embedding_id": b"v"}, {"embedding_id": 0},
                                    {"embedding_id": []}, {"embedding_id": None}, {"url": 7}, {"url": b"x.jpg"},
                                    {"embedding_id": Id("vec-7")}, {"url": Id("https://img.example/x.jpg")}],
                             ids=["int-id", "bytes-id", "zero-id", "list-id", "none-id", "int-url", "bytes-url",
                                  "str-subclass-id", "str-subclass-url"])
    def test_non_str_embedding_id_refused(self, kw):
        with pytest.raises(CorpusError, match=f"^image {next(iter(kw))} must be a str"):
            img(**kw)

    @pytest.mark.parametrize("value", [None, 7, b"a", Id("a")], ids=repr)
    @pytest.mark.parametrize("field", ["alt_text", "reference_desc", "attribution_desc"])
    def test_non_str_image_text_refused(self, field, value):
        with pytest.raises(CorpusError, match=f"^image {field} must be a str, got {type(value).__name__}$"):
            img(**{field: value})

    def test_non_str_url_with_an_embedding_id_refused(self):
        with pytest.raises(CorpusError, match="^image url must be a str, got bytes$"):
            img(url=b"x.jpg", embedding_id="vec-7")

    # "no" is truthy and "other" is not Mime.OTHER, so either would let
    # build_dataset keep the image for captioning
    @pytest.mark.parametrize("kw", [{"in_quality_set": "no"}, {"in_quality_set": 1}, {"in_quality_set": None},
                                    {"mime": "other"}, {"mime": "jpeg"}, {"mime": None}], ids=repr)
    def test_non_bool_quality_flag_or_non_mime_refused(self, kw):
        with pytest.raises(CorpusError, match=f"image {next(iter(kw))} must be a "):
            img(**kw)


def page_record(url="https://e.org/wiki/Mill", **over):
    record = {
        "page_url": url,
        "page_title": "Mill",
        "raw_page_description": "A mill by the sea.",
        "split": "train",
        "sections": [
            {
                "section_index": 0,
                "section_title": "",
                "section_text": "Intro line. More intro.",
                "section_parent_index": None,
                "section_contains_table_or_list": False,
                "images": [],
            },
            {
                "section_index": 1,
                "section_title": "Works",
                "section_text": "One. Two. Three.",
                "section_parent_index": 0,
                "images": [
                    {
                        "section_image_url": "https://img.example/m.jpg",
                        "section_image_mime_type": "image/jpeg",
                        "section_image_raw_ref_desc": "mill at dusk wide",
                        "section_image_raw_attr_desc": "photo by nobody",
                        "section_image_alt_text_desc": "a mill",
                        "section_image_in_WIT": True,
                    }
                ],
            },
        ],
    }
    record.update(over)
    return record


_ABSENT = object()  # a flag left out of the record


class TestParsePage:
    def test_round_trip(self):
        page = parse_page(page_record())
        assert page.url == "https://e.org/wiki/Mill"
        assert page.title == "Mill"
        assert len(page.sections) == 2
        assert page.sections[1].depth == 1  # computed from parent chain
        assert page.sections[1].images[0].mime is Mime.JPEG
        assert page.sections[1].images[0].in_quality_set
        assert PageRuns(page).content[0].first_sentence.values == ("Intro", "line", ".")

    def test_supplied_first_sentence_fields_are_ignored(self):
        record = page_record()
        record["sections"][0]["section_raw_1st_sentence"] = "WRONG"
        record["sections"][0]["section_rest_sentence"] = "ALSO WRONG"
        own = PageRuns(parse_page(record)).content[0]
        assert own.first_sentence.values == ("Intro", "line", ".")
        assert own.rest.values == ("More", "intro", ".")

    def test_unknown_fields_ignored(self):
        record = page_record(page_contains_images=True, section_heading_level=2)
        record["sections"][1]["section_subsection_index"] = 4
        parse_page(record)

    def test_declared_depth_validated(self):
        record = page_record()
        record["sections"][1]["section_depth"] = 3
        with pytest.raises(CorpusError):
            parse_page(record)

    def test_missing_url(self):
        with pytest.raises(CorpusError):
            parse_page({"sections": []})

    def test_split_assigned_when_absent(self):
        record = page_record()
        del record["split"]
        assert parse_page(record).split in ("train", "val", "test")

    def test_non_dict_record(self):
        with pytest.raises(CorpusError):
            parse_page([1, 2])

    def test_non_object_section_entry(self):
        with pytest.raises(CorpusError, match="section entry must be an object"):
            parse_page(page_record(sections=[5]))

    # bool subclasses int, so JSON true/false once passed as indices 1/0
    @pytest.mark.parametrize("field, value", [
        ("section_index", True),
        ("section_parent_index", False),
        ("section_depth", True),
    ])
    def test_bool_rejected_where_int_required(self, field, value):
        record = page_record()
        record["sections"][1][field] = value
        with pytest.raises(CorpusError, match=named(field)):
            parse_page(record)


    # flags are read as JSON booleans, never by truthiness: "false" is a
    # nonempty string and 1 a nonzero number, so bool() made both true
    FLAG_FIELDS = ["section_contains_table_or_list", "section_image_in_WIT"]

    @staticmethod
    def set_flag(record, field, value):
        target = record["sections"][1]
        if field == "section_image_in_WIT":
            target = target["images"][0]
        if value is _ABSENT:
            target.pop(field, None)
        else:
            target[field] = value

    @pytest.mark.parametrize("field", FLAG_FIELDS)
    @pytest.mark.parametrize("value, expect", [(True, True), (False, False), (None, False)])
    def test_flag_accepts_json_booleans_and_null(self, field, value, expect):
        record = page_record()
        self.set_flag(record, field, value)
        page = parse_page(record)
        got = (page.sections[1].has_table_or_list if field == "section_contains_table_or_list"
               else page.sections[1].images[0].in_quality_set)
        assert got is expect

    @pytest.mark.parametrize("field", FLAG_FIELDS)
    def test_absent_flag_is_false(self, field):
        record = page_record()
        self.set_flag(record, field, _ABSENT)
        page = parse_page(record)
        assert not page.sections[1].has_table_or_list
        assert page.sections[1].images[0].in_quality_set is (field != "section_image_in_WIT")

    @pytest.mark.parametrize("field", FLAG_FIELDS)
    @pytest.mark.parametrize("value", ["false", 1], ids=["string-false", "int-1"])
    def test_non_boolean_flag_rejected(self, field, value):
        record = page_record()
        self.set_flag(record, field, value)
        with pytest.raises(CorpusError, match=named(field)):
            parse_page(record)

    # a rule of the model that no single field breaks still names the record
    # it was read from: the page, and for an image its section and image
    @pytest.mark.parametrize("field, value, where", [
        ("section_image_url", "", " section 1 image 0"),
        ("section_index", 2, ""),
        ("section_depth", 3, ""),
    ], ids=["empty-image-url", "index-not-its-slot", "depth-not-its-parent-chain"])
    def test_a_model_rule_names_where_it_broke(self, field, value, where):
        record = page_record()
        target = record["sections"][1]
        (target["images"][0] if field == "section_image_url" else target)[field] = value
        with pytest.raises(CorpusError, match=f"^{re.escape('page https://e.org/wiki/Mill' + where)}: "):
            parse_page(record)


class TestCorpusIO:
    def write(self, tmp_path, lines):
        path = tmp_path / "corpus.jsonl"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    def test_strict_read(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps(page_record()), json.dumps(page_record(url="https://e.org/wiki/Other"))],
        )
        pages = list(iter_corpus(path))
        assert [p.url for p in pages] == ["https://e.org/wiki/Mill", "https://e.org/wiki/Other"]

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(page_record()), "", "   "])
        assert len(list(iter_corpus(path))) == 1

    def test_strict_raises_on_bad_json(self, tmp_path):
        path = self.write(tmp_path, ["{not json"])
        with pytest.raises(CorpusError):
            list(iter_corpus(path))

    def test_lenient_yields_malformed_records(self, tmp_path):
        path = self.write(
            tmp_path,
            [json.dumps(page_record()), "{broken", json.dumps({"page_url": ""})],
        )
        items = list(iter_corpus(path, strict=False))
        assert isinstance(items[0], Page)
        assert isinstance(items[1], MalformedRecord)
        assert items[1].line_number == 2
        assert isinstance(items[2], MalformedRecord)

    # each line decodes to something json.loads or UTF-8 cannot handle: bytes
    # that are not UTF-8, nesting past the recursion limit, an integer past
    # Python's digit limit for int(), and a lone surrogate, which JSON can
    # escape but UTF-8 cannot encode
    BAD_LINES = {
        "not-utf8": b'{"page_url": "https://e.org/wiki/\xff\xfe"}',
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
        "huge-int": b'{"page_url": "https://e.org/x", "page_title": ' + b"9" * 5000 + b"}",
        "lone-surrogate": b'{"page_url": "https://e.org/x", "page_title": "T \\ud800 x"}',
    }

    def write_around(self, tmp_path, bad: bytes):
        path = tmp_path / "corpus.jsonl"
        good = [json.dumps(page_record(url=f"https://e.org/wiki/P{i}")).encode() for i in (1, 3)]
        path.write_bytes(b"\n".join([good[0], bad, good[1]]) + b"\n")
        return path

    @pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_undecodable_line_is_one_malformed_record(self, tmp_path, bad):
        items = list(iter_corpus(self.write_around(tmp_path, bad), strict=False))
        assert [type(i) for i in items] == [Page, MalformedRecord, Page]
        assert items[1].line_number == 2
        assert items[2].url == "https://e.org/wiki/P3"

    @pytest.mark.parametrize("bad", BAD_LINES.values(), ids=BAD_LINES.keys())
    def test_undecodable_line_strict_raises_corpus_error(self, tmp_path, bad):
        with pytest.raises(CorpusError, match="^line 2: "):
            list(iter_corpus(self.write_around(tmp_path, bad)))

    @pytest.mark.parametrize("field", TestParsePage.FLAG_FIELDS)
    @pytest.mark.parametrize("value", ["false", 1], ids=["string-false", "int-1"])
    def test_non_boolean_flag_strict_and_lenient(self, tmp_path, field, value):
        record = page_record(url="https://e.org/wiki/P2")
        TestParsePage.set_flag(record, field, value)
        path = self.write_around(tmp_path, json.dumps(record).encode())
        with pytest.raises(CorpusError, match=f"^line 2: .*{named(field)}"):
            list(iter_corpus(path))
        items = list(iter_corpus(path, strict=False))
        assert [type(i) for i in items] == [Page, MalformedRecord, Page]
        assert items[1].line_number == 2 and named(field) in items[1].error

    def test_non_str_embedding_id_strict_and_lenient(self, tmp_path):
        record = page_record(url="https://e.org/wiki/P2")
        record["sections"][1]["images"][0]["embedding_id"] = 7
        path = self.write_around(tmp_path, json.dumps(record).encode())
        with pytest.raises(CorpusError, match="^line 2: .*image embedding_id must be a str, got int"):
            list(iter_corpus(path))
        items = list(iter_corpus(path, strict=False))
        assert [type(i) for i in items] == [Page, MalformedRecord, Page]
        assert items[1].line_number == 2 and "embedding_id" in items[1].error
        _, report = build_dataset(items, Task.IMAGE_CAPTIONING)
        assert report.rejections[REASON_PARSE_ERROR] == 1

    def test_image_entry_not_an_object_strict_and_lenient(self, tmp_path):
        record = page_record()
        record["sections"][0]["images"] = [7]
        path = self.write(tmp_path, [json.dumps(record)])
        message = "page https://e.org/wiki/Mill section 0 image 0: image entry must be an object"
        with pytest.raises(CorpusError) as raised:
            list(iter_corpus(path))
        assert str(raised.value) == f"line 1: {message}"
        assert list(iter_corpus(path, strict=False)) == [MalformedRecord(line_number=1, error=message)]

    def test_duplicate_urls_rejected(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(page_record()), json.dumps(page_record())])
        with pytest.raises(CorpusError):
            list(iter_corpus(path))
        items = list(iter_corpus(path, strict=False))
        assert isinstance(items[0], Page)
        assert isinstance(items[1], MalformedRecord)
        assert "duplicate" in items[1].error


# ---------------------------------------------------------------- parser fuzz

PAGE_FIELDS = ("page_url", "page_title", "raw_page_description", "split", "sections")
SECTION_FIELDS = ("section_index", "section_title", "section_text", "section_parent_index", "section_depth",
                  "section_contains_table_or_list", "images")
IMAGE_FIELDS = ("section_image_url", "section_image_mime_type", "section_image_alt_text_desc",
                "section_image_raw_ref_desc", "section_image_raw_attr_desc", "section_image_in_WIT", "embedding_id")
FUZZ_VALUES = (None, True, False, 0, -1, 2**70, 1.5, "", "x", "false", [], {}, [1], {"a": 1})
_DELETE = object()  # the field is removed from the record
DEMO_RECORDS = [json.loads(line) for line in demo_corpus_path().read_text(encoding="utf-8").splitlines()]


@st.composite
def mutated_record(draw):
    """A demo record with one page-, section- or image-level field set to a
    value from FUZZ_VALUES or deleted."""
    record = copy.deepcopy(draw(st.sampled_from(DEMO_RECORDS)))
    targets = [(record, f) for f in PAGE_FIELDS]
    for sec in record["sections"]:
        targets += [(sec, f) for f in SECTION_FIELDS]
        targets += [(image, f) for image in sec["images"] for f in IMAGE_FIELDS]
    obj, field = draw(st.sampled_from(targets))
    value = draw(st.sampled_from((_DELETE,) + FUZZ_VALUES))
    if value is _DELETE:
        obj.pop(field, None)
    else:
        obj[field] = value
    return record


class TestParserFuzz:
    # a mutated line between two good ones is a Page or one bad line 2, in
    # both modes; no other exception escapes and the neighbours still parse
    @settings(max_examples=300, deadline=None)
    @given(record=mutated_record())
    def test_mutated_line_is_a_page_or_one_bad_line(self, tmp_path_factory, record):
        path = tmp_path_factory.mktemp("fuzz") / "corpus.jsonl"
        good = [json.dumps(page_record(url=f"https://e.org/wiki/P{i}")) for i in (1, 3)]
        path.write_text("\n".join([good[0], json.dumps(record), good[1]]) + "\n", encoding="utf-8")
        try:
            assert len(list(iter_corpus(path))) == 3
            parsed = True
        except CorpusError as exc:
            assert str(exc).startswith("line 2:")
            parsed = False
        items = list(iter_corpus(path, strict=False))
        assert [type(i) for i in items] == [Page, Page if parsed else MalformedRecord, Page]
        if not parsed:
            assert items[1].line_number == 2


# ------------------------------------------------------------ one field rule

# every field the reader reads, as README's "Corpus format" states it: its
# level, its JSON type, and whether it is required (no default)
CORPUS_FIELDS = {
    "page_url": ("page", "string", True),
    "page_title": ("page", "string", False),
    "raw_page_description": ("page", "string", False),
    "split": ("page", "string", False),
    "sections": ("page", "list", False),
    "section_index": ("section", "integer", True),
    "section_title": ("section", "string", False),
    "section_text": ("section", "string", False),
    "section_parent_index": ("section", "integer", False),
    "section_depth": ("section", "integer", False),
    "section_contains_table_or_list": ("section", "boolean", False),
    "images": ("section", "list", False),
    "section_image_url": ("image", "string", True),
    "section_image_mime_type": ("image", "string", False),
    "section_image_alt_text_desc": ("image", "string", False),
    "section_image_raw_ref_desc": ("image", "string", False),
    "section_image_raw_attr_desc": ("image", "string", False),
    "section_image_in_WIT": ("image", "boolean", False),
    "embedding_id": ("image", "string", False),
}


def json_type(value):
    """The JSON type a decoded value has; bool is tested before int, its
    superclass."""
    for kind, name in ((bool, "boolean"), (int, "integer"), (float, "number"), (str, "string"),
                       (list, "list"), (dict, "object")):
        if isinstance(value, kind):
            return name
    assert value is None
    return "null"


def field_slots(field):
    """(demo record index, path to the object holding `field`) for every
    place `field` can appear in the demo records."""
    level = CORPUS_FIELDS[field][0]
    for r, record in enumerate(DEMO_RECORDS):
        if level == "page":
            yield r, ()
        for s, section in enumerate(record["sections"]):
            if level == "section":
                yield r, ("sections", s)
            elif level == "image":
                yield from ((r, ("sections", s, "images", i)) for i in range(len(section["images"])))


def parsed_with(r, path, field, value):
    """parse_page of demo record `r` with `field` set to `value` (or removed
    for _DELETE): the Page, or the CorpusError message."""
    record = copy.deepcopy(DEMO_RECORDS[r])
    obj = record
    for step in path:
        obj = obj[step]
    if value is _DELETE:
        obj.pop(field, None)
    else:
        obj[field] = value
    try:
        return parse_page(record)
    except CorpusError as exc:
        return str(exc)


# the model attribute each corpus field other than sections and images becomes
MODEL_ATTRS = {
    "page_url": "url",
    "page_title": "title",
    "raw_page_description": "raw_description",
    "split": "split",
    "section_index": "index",
    "section_title": "title",
    "section_text": "body_text",
    "section_parent_index": "parent_index",
    "section_depth": "depth",
    "section_contains_table_or_list": "has_table_or_list",
    "section_image_url": "url",
    "section_image_mime_type": "mime",
    "section_image_alt_text_desc": "alt_text",
    "section_image_raw_ref_desc": "reference_desc",
    "section_image_raw_attr_desc": "attribution_desc",
    "section_image_in_WIT": "in_quality_set",
    "embedding_id": "embedding_id",
}


# the fields the reader checks itself, because it uses their values before
# the model sees them; the model checks every other field
READER_CHECKED = ("page_url", "sections", "images", "section_parent_index", "section_image_mime_type")


def named(field):
    """How a refusal names `field`: by its JSON key if the reader checks it,
    else by the model's owner and attribute."""
    if field in READER_CHECKED:
        return f"field {field!r}"
    return f"{CORPUS_FIELDS[field][0]} {MODEL_ATTRS[field]}"


def location(r, path):
    """How the reader names the object at `path` in demo record `r`."""
    where = f"page {DEMO_RECORDS[r]['page_url']}"
    if path:
        where += f" section {path[1]}"
    if len(path) == 4:
        where += f" image {path[3]}"
    return where


def built_with(r, path, field, value, located=False):
    """Demo record `r` parsed, then the model object that holds `field`
    rebuilt with its attribute set to `value`, and the page rebuilt around
    it, so no reader sees the value: the Page, or the CorpusError message,
    with the location of the object that raised it in front if `located`."""
    page = parse_page(DEMO_RECORDS[r])
    attr = {MODEL_ATTRS[field]: value}
    at = path  # the object being built
    try:
        if path:
            s = path[1]
            section = page.sections[s]
            if len(path) == 2:
                section = dataclasses.replace(section, **attr)
            else:
                images = list(section.images)
                images[path[3]] = dataclasses.replace(images[path[3]], **attr)
                at = path[:2]
                section = dataclasses.replace(section, images=tuple(images))
            at = ()
            attr = {"sections": page.sections[:s] + (section,) + page.sections[s + 1:]}
        return dataclasses.replace(page, **attr)
    except CorpusError as exc:
        return f"{location(r, at)}: {exc}" if located else str(exc)


class TestOneFieldRule:
    def test_the_table_matches_the_fuzzed_fields(self):
        assert set(CORPUS_FIELDS) == set(PAGE_FIELDS + SECTION_FIELDS + IMAGE_FIELDS)
        assert len(CORPUS_FIELDS) == 19
        assert all(next(field_slots(f), None) for f in CORPUS_FIELDS)
        assert set(MODEL_ATTRS) == set(CORPUS_FIELDS) - {"sections", "images"}

    @pytest.mark.parametrize("field", CORPUS_FIELDS)
    def test_null_reads_as_absent(self, field):
        for r, path in field_slots(field):
            absent = parsed_with(r, path, field, _DELETE)
            assert parsed_with(r, path, field, None) == absent
            if CORPUS_FIELDS[field][2]:  # required: refused, null or absent
                assert isinstance(absent, str) and f"{named(field)} must be " in absent, absent

    @pytest.mark.parametrize("field", CORPUS_FIELDS)
    def test_every_other_json_type_is_refused_naming_the_field(self, field):
        kind = CORPUS_FIELDS[field][1]
        wrong = [v for v in FUZZ_VALUES if json_type(v) not in (kind, "null")]
        assert wrong
        for r, path in field_slots(field):
            for value in wrong:
                got = parsed_with(r, path, field, value)
                assert isinstance(got, str), (field, value)
                assert f"{named(field)} must be " in got, got

    # the model refuses what the reader refuses: each scalar field's
    # attribute set directly to every value the reader refuses, a lone
    # surrogate among them for every string field
    @pytest.mark.parametrize("field", MODEL_ATTRS)
    def test_the_model_refuses_what_the_reader_refuses(self, field):
        surrogate = ["a \ud800 b"] if CORPUS_FIELDS[field][1] == "string" else []
        for r, path in field_slots(field):
            refused = [v for v in FUZZ_VALUES if isinstance(parsed_with(r, path, field, v), str)]
            assert refused and all(isinstance(parsed_with(r, path, field, v), str) for v in surrogate)
            for value in refused + surrogate:
                got = built_with(r, path, field, value)
                assert isinstance(got, str), (field, path, value, got)

    # the model is the one checker of a field the reader does not use
    # itself: the reader's message is the model's, with the location of the
    # object that refused the value in front
    @pytest.mark.parametrize("field", [f for f in MODEL_ATTRS if f not in READER_CHECKED])
    def test_the_reader_gives_the_model_message_where_it_was_refused(self, field):
        surrogate = ("a \ud800 b",) if CORPUS_FIELDS[field][1] == "string" else ()
        for r, path in field_slots(field):
            refused = [v for v in FUZZ_VALUES + surrogate if isinstance(parsed_with(r, path, field, v), str)]
            assert refused
            for value in refused:
                assert parsed_with(r, path, field, value) == built_with(r, path, field, value, located=True)
