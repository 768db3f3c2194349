"""Builders: slot layout, budgets, exclusions, no-leakage, shared runs."""

import json

import pytest

from prefix_global.demo import demo_corpus_path
from prefix_global.page import ImageRef, Mime, Page, Section, iter_corpus, tokenize
from prefix_global.pipeline import build_dataset
from prefix_global.sequence import (
    PREFIX_BUDGET,
    Origin,
    PageDescPrefix,
    SectionRuns,
    Task,
    TaskExample,
    TokenRun,
    build_image_caption_input,
    build_page_description_input,
    build_section_summarization_input,
    check_image_caption,
    check_page_description,
    check_section_summarization,
    leaks_target,
)


def img(n, mime=Mime.JPEG, ref="a distant stone tower", wit=True, attr="credit line here"):
    return ImageRef(
        url=f"https://img.example/{n}.jpg",
        mime=mime,
        reference_desc=ref,
        attribution_desc=attr,
        in_quality_set=wit,
        embedding_id=f"vec-{n}",
    )


def text_run(text, origin=Origin.SECTION_BODY):
    return TokenRun("text", origin, tuple(tokenize(text)))


def toks(slots, *origins):
    origins = {o.value for o in origins}
    return [s["token"] for s in slots if s["kind"] == "text" and (not origins or s["origin"] in origins)]


def prefix_of(example):
    return example.to_dict()["prefix"]


def context_of(example):
    return example.to_dict()["context"]


def reference_slots(run):
    """The run's slots as dicts, from its kind, origin and values alone."""
    field = "token" if run.kind == "text" else "image"
    return [{"kind": run.kind, field: v, "origin": run.origin.value} for v in run.values]


def reference_line(example):
    """The example's JSON line from its runs and prefix_len alone: the
    independent reference for to_json_line (it never calls to_dict,
    to_json_line or members)."""
    slots = [s for run in example.runs for s in reference_slots(run)]
    k = example.prefix_len
    line = {"task": example.task.value, "page_url": example.source_page_url,
            "prefix": slots[:k], "context": slots[k:], "target": example.target_text}
    return json.dumps(line, ensure_ascii=False, separators=(",", ":"))


def two_section_page():
    return Page(
        url="https://e.org/wiki/Model_Page",
        title="Model Page",
        raw_description="An overview held out of the inputs.",
        sections=(
            Section(index=0, title="A", body_text="a. rest a."),
            Section(index=1, title="B", body_text="b. rest b."),
        ),
    )


class TestPageDescription:
    def test_canonical_layout_two_sections(self):
        ex = build_page_description_input(two_section_page())
        assert ex.task is Task.PAGE_DESCRIPTION
        url_t = ["https", ":", "/", "/", "e", ".", "org", "/", "wiki", "/", "Model_Page"]
        assert [s["token"] for s in prefix_of(ex)] == url_t + ["Model", "Page", "A", "a", ".", "B", "b", "."]
        assert [s["token"] for s in context_of(ex)] == ["[S0]", "rest", "a", ".", "[S1]", "rest", "b", "."]
        assert ex.target_text == "An overview held out of the inputs."

    def test_missing_description_rejected(self):
        page = Page(url="https://e.org/wiki/X", sections=(Section(index=0, body_text="t."),))
        assert check_page_description(page, 1) == "missing_description"
        described = Page(url=page.url, raw_description="Described.", sections=page.sections)
        assert check_page_description(described, 1) is None
        # a described one-section List_of page is still refused, as list_heavy
        listing = Page(url="https://e.org/wiki/List_of_X", raw_description="Described.", sections=page.sections)
        assert check_page_description(listing, 1) == "list_heavy"

    def test_check_order(self):
        page = two_section_page()
        assert check_page_description(page, 2) is None
        assert check_page_description(page, 3) == "too_few_content_sections"
        listing = Page(url="https://e.org/wiki/List_of_things", sections=page.sections)
        assert check_page_description(listing, 3) == "list_heavy"
        undescribed = Page(url="https://e.org/wiki/Y", sections=page.sections)
        assert check_page_description(undescribed, 3) == "missing_description"

    def test_image_cap_six(self):
        sections = [Section(index=0, body_text="intro here.")]
        sections.append(Section(index=1, title="Pics", images=tuple(img(n) for n in range(9))))
        page = Page(url="https://e.org/wiki/Pics", title="Pics", raw_description="Nine image page.", sections=tuple(sections))
        ex = build_page_description_input(page)
        image_slots = [s for s in prefix_of(ex) if s["kind"] == "image"]
        assert len(image_slots) == 6
        assert [s["image"] for s in image_slots] == [f"vec-{n}" for n in range(6)]
        assert all(s["origin"] == "context_image" for s in image_slots)
        assert not [s for s in context_of(ex) if s["kind"] == "image"]

    def test_long_stream_caps_prefix_and_demotes_overflow(self):
        sections = [
            Section(index=i, title=f"T{i}", body_text=("w" + str(i) + " ") * 60 + "end.")
            for i in range(12)
        ]
        page = Page(url="https://e.org/wiki/Long", title="Long", raw_description="Long page.", sections=tuple(sections))
        ex = build_page_description_input(page)
        assert ex.prefix_len == PREFIX_BUDGET
        # nothing dropped: every prefix-material token either global or context
        first_sent_tokens = sum(len(s.first_sentence.split()) + 1 for s in sections)
        assert len(ex.slots) > first_sent_tokens

    def test_non_content_sections_excluded(self):
        page = Page(
            url="https://e.org/wiki/Mixed",
            title="Mixed",
            raw_description="Filter check.",
            sections=(
                Section(index=0, body_text="kept text."),
                Section(index=1, title="Heading only"),
                Section(index=2, title="Tabled", body_text="x. y.", has_table_or_list=True),
                Section(index=3, title="Kept", body_text="more kept."),
            ),
        )
        ex = build_page_description_input(page)
        stream = toks(ex.slots)
        assert "Tabled" not in stream
        assert "Heading" not in stream
        assert "[S1]" not in stream and "[S2]" not in stream
        assert "Kept" in stream

    def test_captions_live_in_context(self):
        page = Page(
            url="https://e.org/wiki/Cap",
            title="Cap",
            raw_description="Caption placement.",
            sections=(
                Section(index=0, body_text="alpha one."),
                Section(index=1, title="Shots", body_text="beta two.", images=(img(1, ref="gray cat asleep"),)),
            ),
        )
        ex = build_page_description_input(page)
        assert "gray" not in toks(prefix_of(ex))
        assert ["gray", "cat", "asleep"] == toks(context_of(ex), Origin.CAPTION)

    def test_titles_only_variant(self):
        ex = build_page_description_input(two_section_page(), variant=PageDescPrefix.TITLES_ONLY)
        assert [s["token"] for s in prefix_of(ex)][-2:] == ["A", "B"]
        assert [s["token"] for s in context_of(ex)] == ["[S0]", "a", ".", "rest", "a", ".", "[S1]", "b", ".", "rest", "b", "."]

    def test_in_order_variant_is_one_stream(self):
        ex = build_page_description_input(two_section_page(), variant=PageDescPrefix.IN_ORDER)
        assert ex.prefix_len == len(ex.slots)  # under budget: everything global
        stream = [s["token"] for s in ex.slots]
        assert stream.index("[S0]") < stream.index("A") < stream.index("a")
        assert stream.index("a") < stream.index("[S1]") < stream.index("B")


class TestSectionSummarization:
    def make_page(self, body="s1 one. s2 two. s3 three. s4 four. s5 five.", images=()):
        return Page(
            url="https://e.org/wiki/Summ",
            title="Summ",
            sections=(
                Section(index=0, body_text="root text."),
                Section(index=1, title="Target", body_text=body, images=tuple(images)),
                Section(index=2, title="Other", body_text="other text.", images=(img(9, ref="steel bridge span view"),)),
            ),
        )

    def test_first_sentence_removed_and_targeted(self):
        ex = build_section_summarization_input(self.make_page(), 1)
        assert ex.target_text == "s1 one."
        body = toks(prefix_of(ex), Origin.SECTION_BODY)
        assert body[:3] == ["s2", "two", "."]
        assert "s1" not in body
        assert not leaks_target(ex)

    def test_prefix_order_and_image_cap(self):
        page = self.make_page(images=(img(1), img(2), img(3)))
        ex = build_section_summarization_input(page, 1)
        prefix = prefix_of(ex)
        assert prefix[0]["kind"] == "image"
        assert prefix[0]["image"] == "vec-1"
        assert len([s for s in prefix if s["kind"] == "image"]) == 1
        assert prefix[1]["token"] == "[S1]"
        assert prefix[2]["token"] == "Target"
        origins = [s["origin"] for s in prefix]
        assert origins.index("section_body") < origins.index("caption")

    def test_context_is_url_title_then_other_sections(self):
        ex = build_section_summarization_input(self.make_page(), 1)
        ctx = [s["origin"] for s in context_of(ex)]
        assert ctx[0] == "page_url"
        assert "page_title" in ctx
        ctx_tokens = [s["token"] for s in context_of(ex) if s["kind"] == "text"]
        assert "[S0]" in ctx_tokens and "[S2]" in ctx_tokens
        assert "[S1]" not in ctx_tokens  # target section never repeats in context
        assert ctx_tokens.index("[S0]") < ctx_tokens.index("[S2]")

    def test_only_target_eligible_gives_bare_context(self):
        page = Page(
            url="https://e.org/wiki/Lone",
            title="Lone",
            sections=(
                Section(index=0),
                Section(index=1, title="T", body_text="a one. b two. c three. d four. e five."),
            ),
        )
        ex = build_section_summarization_input(page, 1)
        assert {s["origin"] for s in context_of(ex)} == {"page_url", "page_title"}

    def test_rejections(self):
        page = self.make_page()
        assert check_section_summarization(page, 0) == "root"
        assert check_section_summarization(page, 1) is None
        short = Page(
            url="https://e.org/wiki/S",
            sections=(Section(index=0), Section(index=1, body_text="one. two. three. four.")),
        )
        assert check_section_summarization(short, 1) == "too_short"
        tabled = Page(
            url="https://e.org/wiki/T",
            sections=(Section(index=0), Section(index=1, body_text="a. b. c. d. e.", has_table_or_list=True)),
        )
        assert check_section_summarization(tabled, 1) == "table_or_list"
        # a short tabled section is refused for its table first
        short_tabled = Page(
            url="https://e.org/wiki/ST",
            sections=(Section(index=0), Section(index=1, body_text="a. b.", has_table_or_list=True)),
        )
        assert check_section_summarization(short_tabled, 1) == "table_or_list"
        with pytest.raises(IndexError):
            build_section_summarization_input(page, 9)

    @pytest.mark.parametrize("index", [-1, 3, True], ids=["negative", "past_end", "bool"])
    def test_index_out_of_range(self, index):
        # a negative index must not wrap around to the last section, nor True read as 1
        page = self.make_page()
        assert len(page.sections) == 3
        with pytest.raises(IndexError):
            check_section_summarization(page, index)
        with pytest.raises(IndexError):
            build_section_summarization_input(page, index)


class TestImageCaptioning:
    def make_page(self):
        return Page(
            url="https://e.org/wiki/Capt",
            title="Capt",
            sections=(
                Section(index=0, body_text="lead in."),
                Section(
                    index=1,
                    title="Shots",
                    body_text="scene. setting.",
                    images=(
                        img(1, ref="lighthouse across the bay"),
                        img(2, ref="keeper at the door"),
                    ),
                ),
                Section(index=2, title="Else", body_text="else text."),
            ),
        )

    def test_target_caption_excluded_nontarget_kept(self):
        ex = build_image_caption_input(self.make_page(), 1, 0)
        assert ex.target_text == "lighthouse across the bay"
        prefix = prefix_of(ex)
        captions = toks(prefix, Origin.CAPTION)
        assert captions == ["keeper", "at", "the", "door"]
        assert not leaks_target(ex)
        assert prefix[0]["kind"] == "image"
        assert prefix[0]["origin"] == "target_image"
        assert prefix[0]["image"] == "vec-1"

    def test_attribution_never_in_inputs(self):
        ex = build_image_caption_input(self.make_page(), 1, 1)
        assert "credit" not in toks(ex.slots)

    def test_full_body_in_prefix(self):
        ex = build_image_caption_input(self.make_page(), 1, 0)
        assert toks(prefix_of(ex), Origin.SECTION_BODY) == ["scene", ".", "setting", "."]

    def test_single_image_page_bare_context(self):
        page = Page(
            url="https://e.org/wiki/One",
            title="One",
            sections=(Section(index=0, title="S", body_text="text here.", images=(img(5),)),),
        )
        ex = build_image_caption_input(page, 0, 0)
        assert {s["origin"] for s in context_of(ex)} == {"page_url", "page_title"}

    def test_rejections(self):
        base = self.make_page()
        assert check_image_caption(img(1)) is None
        assert check_image_caption(img(1, mime=Mime.PNG)) is None
        assert check_image_caption(img(1, wit=False)) == "not_in_quality_set"
        assert check_image_caption(img(1, mime=Mime.OTHER)) == "mime"
        assert check_image_caption(img(1, ref="red car")) == "short_reference"
        assert check_image_caption(img(1, ref="")) == "short_reference"
        # the checks run in a fixed order and the first failure is the reason
        assert check_image_caption(img(1, mime=Mime.OTHER, ref="red car", wit=False)) == "not_in_quality_set"
        assert check_image_caption(img(1, mime=Mime.OTHER, ref="red car")) == "mime"
        with pytest.raises(IndexError):
            build_image_caption_input(base, 1, 5)
        with pytest.raises(IndexError):
            build_image_caption_input(base, 1, True)
        with pytest.raises(IndexError):
            build_image_caption_input(base, 7, 0)


class TestTaskExample:
    def test_serialization_shape(self):
        ex = build_page_description_input(two_section_page())
        d = ex.to_dict()
        assert sorted(d) == ["context", "page_url", "prefix", "target", "task"]
        assert d["task"] == "page_description"
        assert d["prefix"][0] == {"kind": "text", "token": "https", "origin": "page_url"}
        assert d["target"] == ex.target_text
        assert d == json.loads(ex.to_json_line())
        assert ex.slots == d["prefix"] + d["context"]

    def test_json_line_deterministic(self):
        a = build_page_description_input(two_section_page()).to_json_line()
        b = build_page_description_input(two_section_page()).to_json_line()
        assert a == b

    def test_slot_validation(self):
        # a run is validated once, as a whole
        with pytest.raises(ValueError):
            TokenRun("audio", Origin.CAPTION, ("x",))
        with pytest.raises(ValueError):
            TokenRun("text", "caption", ("x",))
        with pytest.raises(ValueError):
            TokenRun("text", Origin.CAPTION, ["x"])
        with pytest.raises(ValueError):
            TokenRun("image", Origin.CONTEXT_IMAGE, ("v", 7))
        # prefix_len is an int, and a bool is not read as 0 or 1
        runs = (text_run("a b"),)
        for bad in (1.0, 2.5, True):
            with pytest.raises(ValueError):
                TaskExample(Task.PAGE_DESCRIPTION, runs, bad, "", "https://e.org/wiki/X")
        # every other field is refused when constructed, not when serialized
        url = "https://e.org/wiki/X"
        for task, bad_runs, target, page_url in (
            ("page_description", runs, "", url),
            (Task.PAGE_DESCRIPTION, list(runs), "", url),
            (Task.PAGE_DESCRIPTION, runs, 3, url),
            (Task.PAGE_DESCRIPTION, runs, "", None),
        ):
            with pytest.raises(TypeError):
                TaskExample(task, bad_runs, 0, target, page_url)

    def test_runs_must_be_token_runs(self):
        slots = _example([text_run("a b")], "").slots
        with pytest.raises(TypeError):
            TaskExample(Task.PAGE_DESCRIPTION, (slots,), 0, "", "https://e.org/wiki/X")

    def test_equality_compares_run_boundaries(self):
        one = TaskExample(Task.PAGE_DESCRIPTION, (text_run("a b"),), 0, "", "https://e.org/wiki/X")
        two = TaskExample(Task.PAGE_DESCRIPTION, (text_run("a"), text_run("b")), 0, "", "https://e.org/wiki/X")
        assert one.slots == two.slots
        assert one != two


class TestTokenRuns:
    def make_page(self, long_target=False):
        body = "s1 one. s2 two. s3 three. s4 four. s5 five."
        if long_target:  # over 512 slots of prefix material
            body += " " + " ".join(f'w{n} "é" \\ x.' for n in range(120))
        return Page(
            url="https://e.org/wiki/Runs",
            title='Runs "quoted" ünïcode',
            raw_description="Shared runs.",
            sections=(
                Section(index=0, body_text="root text."),
                Section(index=1, title="One", body_text=body, images=(img(1), img(2, ref=""), img(3))),
                Section(index=2, title="Two", body_text=body, images=(img(4),)),
                Section(index=3, title="Three", body_text="a. b. c. d. e. f."),
            ),
        )

    def test_examples_of_one_page_share_runs(self):
        page = self.make_page()
        a = build_section_summarization_input(page, 1)
        b = build_section_summarization_input(page, 2)
        c = build_image_caption_input(page, 1, 0)
        section3 = [[run for run in ex.runs if run.origin is Origin.SECTION_BODY][-1] for ex in (a, b, c)]
        assert section3[0].values == tuple(tokenize("a. b. c. d. e. f."))
        assert section3[0] is section3[1] is section3[2]

    def test_runs_belong_to_their_page(self):
        # two equal pages parsed apart share no run objects: the runs live on
        # the page, not in a process-wide cache
        a = build_section_summarization_input(self.make_page(), 1)
        b = build_section_summarization_input(self.make_page(), 1)
        assert a == b
        assert not any(x is y for x, y in zip(a.runs, b.runs))

    def test_runs_hold_the_slots(self):
        page = self.make_page()
        for ex in (build_page_description_input(page), build_section_summarization_input(page, 2),
                   build_image_caption_input(page, 1, 2)):
            assert all(ex.runs)
            slots = iter(ex.slots)
            for run in ex.runs:
                for value in run.values:
                    s = next(slots)
                    assert s["kind"] == run.kind and s["origin"] == run.origin.value
                    assert s["token" if run.kind == "text" else "image"] == value
            assert next(slots, None) is None

    def test_json_line_when_the_cap_cuts_a_run(self):
        page = self.make_page(long_target=True)
        for ex in (build_section_summarization_input(page, 1), build_image_caption_input(page, 1, 0)):
            assert ex.prefix_len == PREFIX_BUDGET
            ends, total = set(), 0
            for run in ex.runs:
                total += len(run)
                ends.add(total)
            assert PREFIX_BUDGET not in ends  # the cap falls inside a run
            assert ex.to_json_line() == reference_line(ex)

    @pytest.mark.parametrize("variant", list(PageDescPrefix), ids=lambda v: v.value)
    def test_json_line_matches_reference(self, variant):
        page = self.make_page(long_target=True)
        examples = [build_page_description_input(page, variant=variant),
                    build_section_summarization_input(page, 3), build_image_caption_input(page, 2, 0)]
        for ex in examples:
            assert ex.to_json_line() == reference_line(ex)

    def test_directly_built_example_at_every_prefix_len(self):
        runs = (
            text_run('a "b" \\ é'),
            SectionRuns(Section(index=2)).marker,
            TokenRun("text", Origin.CAPTION, ("\x01\u2028\ud800/", "x")),
            TokenRun("image", Origin.TARGET_IMAGE, ('vec "7"\n', "v")),
        )
        for k in range(sum(map(len, runs)) + 1):
            ex = TaskExample(Task.IMAGE_CAPTIONING, runs, k, "t\n", "https://e.org/wiki/Ü")
            assert ex.to_json_line() == reference_line(ex)
        empty = TaskExample(Task.PAGE_DESCRIPTION, (), 0, "", "https://e.org/wiki/E")
        assert empty.to_json_line() == reference_line(empty)

    def test_empty_runs_serialize_as_nothing(self):
        ab, c = text_run("a b"), text_run("c")
        empty = TokenRun("text", Origin.SECTION_BODY)
        runs = (empty, ab, TokenRun("image", Origin.CONTEXT_IMAGE), c, empty)
        for k in range(4):
            ex = TaskExample(Task.PAGE_DESCRIPTION, runs, k, "t", "https://e.org/wiki/E")
            assert ex.slots == reference_slots(ab) + reference_slots(c)
            assert ex.to_json_line() == reference_line(ex)

    def test_slots_are_derived_not_stored(self):
        page = self.make_page(long_target=True)
        for ex in (build_page_description_input(page), build_section_summarization_input(page, 1),
                   build_image_caption_input(page, 1, 0)):
            ex.to_json_line()
            assert "slots" not in vars(ex)
            line = json.loads(reference_line(ex))
            assert ex.slots == line["prefix"] + line["context"]
            ex.to_dict()
            assert "slots" not in vars(ex)

    @pytest.mark.parametrize("run", [
        TokenRun("text", Origin.CAPTION, ("a", '"b"', "\\", "é", "\x01\u2028\ud800/")),
        TokenRun("image", Origin.TARGET_IMAGE, ('vec "7"\n', "v", "ü")),
    ], ids=["text", "image"])
    def test_members_is_the_json_of_a_slice(self, run):
        for a in range(len(run) + 1):
            for b in range(a, len(run) + 1):
                expect = json.dumps(reference_slots(run)[a:b], ensure_ascii=False, separators=(",", ":"))
                assert f"[{run.members(a, b)}]" == expect
        assert run.json == run.members() == run.members(0, len(run))

    @pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
    def test_demo_examples_match_reference(self, task):
        routed, _ = build_dataset(iter_corpus(demo_corpus_path()), task)
        assert routed
        for _, ex in routed:
            assert ex.to_json_line() == reference_line(ex)
            assert not leaks_target(ex)


class TestLeakScan:
    def test_detects_contiguous_leak(self):
        assert leaks_target(_example([text_run("the gray tower stands tall.")], "gray tower stands"))

    def test_order_matters(self):
        assert not leaks_target(_example([text_run("tower gray the")], "the gray tower"))

    def test_image_slot_breaks_contiguity(self):
        image = TokenRun("image", Origin.CONTEXT_IMAGE, ("v",))
        assert not leaks_target(_example([text_run("the gray"), image, text_run("tower")], "the gray tower"))
        # without the image the same text leaks, across a run boundary
        assert leaks_target(_example([text_run("the gray"), text_run("tower", Origin.CAPTION)], "the gray tower"))

    def test_empty_target_never_leaks(self):
        assert not leaks_target(_example([text_run("x")], ""))

    def test_marker_collision_impossible(self):
        marker = SectionRuns(Section(index=3)).marker
        assert marker.values == ("[S3]",)
        assert not leaks_target(_example([marker], "S3"))


def _example(runs, target):
    return TaskExample(
        task=Task.PAGE_DESCRIPTION,
        runs=tuple(runs),
        prefix_len=min(sum(map(len, runs)), PREFIX_BUDGET),
        target_text=target,
        source_page_url="https://e.org/wiki/X",
    )
