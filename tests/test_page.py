"""Page model: taxonomy, splitter, tokenizer, JSONL ingest."""

import json

import pytest

from prefix_global.page import (
    CorpusError,
    ImageRef,
    MalformedRecord,
    Mime,
    Page,
    Section,
    SectionClass,
    classify_section,
    count_sentences,
    is_content_section,
    iter_corpus,
    parse_mime,
    parse_page,
    read_corpus,
    split_first_sentence,
    tokenize,
)


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
    def test_first_and_rest_derived(self):
        s = sec(0, body_text="First one. Second one. Third.")
        assert s.first_sentence == "First one."
        assert s.rest_sentences == "Second one. Third."

    def test_body_stripped(self):
        s = sec(0, body_text="  padded.  ")
        assert s.body_text == "padded."
        assert s.first_sentence == "padded."
        assert s.rest_sentences == ""


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

    def test_empty_url_rejected(self):
        with pytest.raises(CorpusError):
            Page(url="")

    def test_bad_split_rejected(self):
        with pytest.raises(CorpusError):
            Page(url="u", split="dev")

    def test_has_children(self):
        page = Page(url="u", sections=(sec(0), sec(1, parent_index=0, depth=1)))
        assert page.has_children(0)
        assert not page.has_children(1)
        assert page.section_class(0) is SectionClass.STRUCTURAL

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
        classes = [page.section_class(i) for i in range(4)]
        assert len(classes) == len(page.sections)
        assert classes.count(SectionClass.TEXT_ONLY) == 1
        assert classes.count(SectionClass.HEADING) == 0
        assert classes.count(SectionClass.STRUCTURAL) == 1
        assert classes.count(SectionClass.IMAGE_ONLY) == 1
        assert classes.count(SectionClass.BOTH) == 1


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


class TestParsePage:
    def test_round_trip(self):
        page = parse_page(page_record())
        assert page.url == "https://e.org/wiki/Mill"
        assert page.title == "Mill"
        assert len(page.sections) == 2
        assert page.sections[1].depth == 1  # computed from parent chain
        assert page.sections[1].images[0].mime is Mime.JPEG
        assert page.sections[1].images[0].in_quality_set
        assert page.sections[0].first_sentence == "Intro line."

    def test_supplied_first_sentence_fields_are_ignored(self):
        record = page_record()
        record["sections"][0]["section_raw_1st_sentence"] = "WRONG"
        record["sections"][0]["section_rest_sentence"] = "ALSO WRONG"
        page = parse_page(record)
        assert page.sections[0].first_sentence == "Intro line."
        assert page.sections[0].rest_sentences == "More intro."

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

    # bool subclasses int, so JSON true/false once passed as indices 1/0
    @pytest.mark.parametrize("field, value", [
        ("section_index", True),
        ("section_parent_index", False),
        ("section_depth", True),
    ])
    def test_bool_rejected_where_int_required(self, field, value):
        record = page_record()
        record["sections"][1][field] = value
        with pytest.raises(CorpusError, match=field):
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
        pages = read_corpus(path)
        assert [p.url for p in pages] == ["https://e.org/wiki/Mill", "https://e.org/wiki/Other"]

    def test_blank_lines_skipped(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(page_record()), "", "   "])
        assert len(read_corpus(path)) == 1

    def test_strict_raises_on_bad_json(self, tmp_path):
        path = self.write(tmp_path, ["{not json"])
        with pytest.raises(CorpusError):
            read_corpus(path)

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
    # that are not UTF-8, nesting past the recursion limit, and an integer
    # past Python's digit limit for int()
    BAD_LINES = {
        "not-utf8": b'{"page_url": "https://e.org/wiki/\xff\xfe"}',
        "deep-nesting": b"[" * 100_000 + b"]" * 100_000,
        "huge-int": b'{"page_url": "https://e.org/x", "page_title": ' + b"9" * 5000 + b"}",
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
            read_corpus(self.write_around(tmp_path, bad))

    def test_duplicate_urls_rejected(self, tmp_path):
        path = self.write(tmp_path, [json.dumps(page_record()), json.dumps(page_record())])
        with pytest.raises(CorpusError):
            read_corpus(path)
        items = list(iter_corpus(path, strict=False))
        assert isinstance(items[0], Page)
        assert isinstance(items[1], MalformedRecord)
        assert "duplicate" in items[1].error
