"""Builders: slot layout, budgets, exclusions, no-leakage, shared runs."""

import copy
import dataclasses
import json
from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefix_global.demo import demo_corpus_path
from prefix_global.page import ImageRef, MalformedRecord, Mime, Page, Section, iter_corpus, parse_page, tokenize
from prefix_global.patterns import DEFAULT_PREFIX
from prefix_global.pipeline import build_dataset
from prefix_global.sequence import (
    REASON_PARSE_ERROR,
    Origin,
    PageDescPrefix,
    PageRuns,
    SectionRuns,
    Task,
    TaskExample,
    TokenRun,
    _assemble,
    build_image_caption_input,
    build_page_description_input,
    build_section_summarization_input,
    check_image_caption,
    check_page_description,
    check_section_summarization,
)


def leaks_target(example: TaskExample) -> bool:
    """The leak scan of C8 and of the tests below: true if the target's token
    sequence occurs contiguously in the input slots. Image slots break
    contiguity; empty targets cannot leak."""
    needle = tokenize(example.target_text)
    if not needle:
        return False
    stream = [v if run.kind == "text" else None for run in example.prefix + example.context for v in run.values]
    n = len(needle)
    for start in range(len(stream) - n + 1):
        if stream[start : start + n] == needle:
            return True
    return False


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
    return TokenRun(origin, tuple(tokenize(text)))


def toks(slots, *origins):
    origins = {o.value for o in origins}
    return [s["token"] for s in slots if s["kind"] == "text" and (not origins or s["origin"] in origins)]


def prefix_of(example):
    return example.to_dict()["prefix"]


def context_of(example):
    return example.to_dict()["context"]


# each origin's slot kind and value field, assigned here, not read off a run
ORIGIN_SLOT = {
    Origin.PAGE_URL: ("text", "token"),
    Origin.PAGE_TITLE: ("text", "token"),
    Origin.SECTION_INDEX: ("text", "token"),
    Origin.SECTION_TITLE: ("text", "token"),
    Origin.SECTION_FIRST_SENTENCE: ("text", "token"),
    Origin.SECTION_BODY: ("text", "token"),
    Origin.CAPTION: ("text", "token"),
    Origin.TARGET_IMAGE: ("image", "image"),
    Origin.CONTEXT_IMAGE: ("image", "image"),
}


def reference_slots(run):
    """The run's slots as dicts, from its origin and values alone."""
    kind, field = ORIGIN_SLOT[run.origin]
    return [{"kind": kind, field: v, "origin": run.origin.value} for v in run.values]


def slots_of(runs):
    return [s for run in runs for s in reference_slots(run)]


def reference_json(task, page_url, prefix, context, target):
    line = {"task": task.value, "page_url": page_url, "prefix": prefix, "context": context, "target": target}
    return json.dumps(line, ensure_ascii=False, separators=(",", ":"))


def reference_line(example):
    """The example's JSON line from its prefix and context runs alone: the
    independent reference for to_json_line (it never calls to_dict,
    to_json_line or json)."""
    return reference_json(example.task, example.source_page_url, slots_of(example.prefix),
                          slots_of(example.context), example.target_text)


def reference_cut_line(task, page_url, prefix_runs, context_runs, target):
    """The JSON line of unsplit prefix material and context, the material cut
    at DEFAULT_PREFIX slots and its overflow put before the context."""
    material = slots_of(prefix_runs)
    return reference_json(task, page_url, material[:DEFAULT_PREFIX],
                          material[DEFAULT_PREFIX:] + slots_of(context_runs), target)


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
        ex = build_page_description_input(PageRuns(two_section_page()))
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
        ex = build_page_description_input(PageRuns(page))
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
        runs = PageRuns(page)
        ex = build_page_description_input(runs)
        assert ex.prefix_len == DEFAULT_PREFIX
        # nothing dropped: every prefix-material token either global or context
        first_sent_tokens = sum(len(sec.first_sentence.values) for sec in runs.content.values())
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
        ex = build_page_description_input(PageRuns(page))
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
        ex = build_page_description_input(PageRuns(page))
        assert "gray" not in toks(prefix_of(ex))
        assert ["gray", "cat", "asleep"] == toks(context_of(ex), Origin.CAPTION)

    def test_titles_only_variant(self):
        ex = build_page_description_input(PageRuns(two_section_page()), variant=PageDescPrefix.TITLES_ONLY)
        assert [s["token"] for s in prefix_of(ex)][-2:] == ["A", "B"]
        assert [s["token"] for s in context_of(ex)] == ["[S0]", "a", ".", "rest", "a", ".", "[S1]", "b", ".", "rest", "b", "."]

    @pytest.mark.parametrize("variant", list(PageDescPrefix), ids=lambda v: v.value)
    def test_variant_given_as_its_string(self, variant):
        # "in-order" as a string once built the titles-only layout
        by_str = build_page_description_input(PageRuns(two_section_page()), variant.value)
        assert by_str == build_page_description_input(PageRuns(two_section_page()), variant)

    def test_in_order_variant_is_one_stream(self):
        ex = build_page_description_input(PageRuns(two_section_page()), variant=PageDescPrefix.IN_ORDER)
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
        ex = build_section_summarization_input(PageRuns(self.make_page()), 1)
        assert ex.target_text == "s1 one."
        body = toks(prefix_of(ex), Origin.SECTION_BODY)
        assert body[:3] == ["s2", "two", "."]
        assert "s1" not in body
        assert not leaks_target(ex)

    def test_prefix_order_and_image_cap(self):
        page = self.make_page(images=(img(1), img(2), img(3)))
        ex = build_section_summarization_input(PageRuns(page), 1)
        prefix = prefix_of(ex)
        assert prefix[0]["kind"] == "image"
        assert prefix[0]["image"] == "vec-1"
        assert len([s for s in prefix if s["kind"] == "image"]) == 1
        assert prefix[1]["token"] == "[S1]"
        assert prefix[2]["token"] == "Target"
        origins = [s["origin"] for s in prefix]
        assert origins.index("section_body") < origins.index("caption")

    def test_context_is_url_title_then_other_sections(self):
        ex = build_section_summarization_input(PageRuns(self.make_page()), 1)
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
        ex = build_section_summarization_input(PageRuns(page), 1)
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
            build_section_summarization_input(PageRuns(page), 9)

    @pytest.mark.parametrize("index", [-1, 3, True], ids=["negative", "past_end", "bool"])
    def test_index_out_of_range(self, index):
        # a negative index must not wrap around to the last section, nor True read as 1
        page = self.make_page()
        assert len(page.sections) == 3
        with pytest.raises(IndexError):
            check_section_summarization(page, index)
        with pytest.raises(IndexError):
            build_section_summarization_input(PageRuns(page), index)


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
        ex = build_image_caption_input(PageRuns(self.make_page()), 1, 0)
        assert ex.target_text == "lighthouse across the bay"
        prefix = prefix_of(ex)
        captions = toks(prefix, Origin.CAPTION)
        assert captions == ["keeper", "at", "the", "door"]
        assert not leaks_target(ex)
        assert prefix[0]["kind"] == "image"
        assert prefix[0]["origin"] == "target_image"
        assert prefix[0]["image"] == "vec-1"

    def test_attribution_never_in_inputs(self):
        ex = build_image_caption_input(PageRuns(self.make_page()), 1, 1)
        assert "credit" not in toks(ex.slots)

    def test_full_body_in_prefix(self):
        ex = build_image_caption_input(PageRuns(self.make_page()), 1, 0)
        assert toks(prefix_of(ex), Origin.SECTION_BODY) == ["scene", ".", "setting", "."]

    def test_single_image_page_bare_context(self):
        page = Page(
            url="https://e.org/wiki/One",
            title="One",
            sections=(Section(index=0, title="S", body_text="text here.", images=(img(5),)),),
        )
        ex = build_image_caption_input(PageRuns(page), 0, 0)
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
            build_image_caption_input(PageRuns(base), 1, 5)
        with pytest.raises(IndexError):
            build_image_caption_input(PageRuns(base), 1, True)
        with pytest.raises(IndexError):
            build_image_caption_input(PageRuns(base), 7, 0)


class TestTaskExample:
    def test_serialization_shape(self):
        ex = build_page_description_input(PageRuns(two_section_page()))
        d = ex.to_dict()
        assert sorted(d) == ["context", "page_url", "prefix", "target", "task"]
        assert d["task"] == "page_description"
        assert d["prefix"][0] == {"kind": "text", "token": "https", "origin": "page_url"}
        assert d["target"] == ex.target_text
        assert d == json.loads(ex.to_json_line())
        assert ex.slots == d["prefix"] + d["context"]

    def test_json_line_deterministic(self):
        a = build_page_description_input(PageRuns(two_section_page())).to_json_line()
        b = build_page_description_input(PageRuns(two_section_page())).to_json_line()
        assert a == b

    def test_slot_validation(self):
        # every field is refused when constructed, not when serialized; a
        # run's values are checked earlier, as page fields (test_page.py)
        runs = (text_run("a b"),)
        url = "https://e.org/wiki/X"
        for task, prefix, context, target, page_url in (
            ("page_description", runs, runs, "", url),
            (Task.PAGE_DESCRIPTION, list(runs), runs, "", url),
            (Task.PAGE_DESCRIPTION, runs, list(runs), "", url),
            (Task.PAGE_DESCRIPTION, runs, runs, 3, url),
            (Task.PAGE_DESCRIPTION, runs, runs, "", None),
        ):
            with pytest.raises(TypeError):
                TaskExample(task, prefix, context, target, page_url)

    def test_prefix_over_budget_refused(self):
        def example(n_prefix):
            run = TokenRun(Origin.SECTION_BODY, ("x",) * n_prefix)
            return TaskExample(Task.PAGE_DESCRIPTION, (run,), (text_run("y"),), "", "https://e.org/wiki/X")

        assert example(DEFAULT_PREFIX).prefix_len == DEFAULT_PREFIX
        with pytest.raises(ValueError):
            example(DEFAULT_PREFIX + 1)
        # the budget bounds the prefix, not the runs: two runs over it are refused too
        half = TokenRun(Origin.SECTION_BODY, ("x",) * (DEFAULT_PREFIX // 2 + 1))
        with pytest.raises(ValueError):
            TaskExample(Task.PAGE_DESCRIPTION, (half, half), (), "", "https://e.org/wiki/X")

    def test_runs_must_be_token_runs(self):
        slots = _example([text_run("a b")], "").slots
        with pytest.raises(TypeError):
            TaskExample(Task.PAGE_DESCRIPTION, (slots,), (), "", "https://e.org/wiki/X")
        with pytest.raises(TypeError):
            TaskExample(Task.PAGE_DESCRIPTION, (), (slots,), "", "https://e.org/wiki/X")

    def test_equality_compares_run_boundaries(self):
        url = "https://e.org/wiki/X"
        one = TaskExample(Task.PAGE_DESCRIPTION, (), (text_run("a b"),), "", url)
        two = TaskExample(Task.PAGE_DESCRIPTION, (), (text_run("a"), text_run("b")), "", url)
        assert one.slots == two.slots
        assert one != two
        # the boundary between prefix and context counts as well
        three = TaskExample(Task.PAGE_DESCRIPTION, (text_run("a"),), (text_run("b"),), "", url)
        assert three.slots == two.slots
        assert three != two


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
        runs = PageRuns(self.make_page())
        a = build_section_summarization_input(runs, 1)
        b = build_section_summarization_input(runs, 2)
        c = build_image_caption_input(runs, 1, 0)
        section3 = [[run for run in ex.prefix + ex.context if run.origin is Origin.SECTION_BODY][-1] for ex in (a, b, c)]
        assert section3[0].values == tuple(tokenize("a. b. c. d. e. f."))
        assert section3[0] is section3[1] is section3[2]

    def test_runs_belong_to_their_page(self):
        # the runs of two equal pages share no run objects: they live in each
        # page's PageRuns, not in a process-wide cache
        a = build_section_summarization_input(PageRuns(self.make_page()), 1)
        b = build_section_summarization_input(PageRuns(self.make_page()), 1)
        assert a == b
        assert not any(x is y for x, y in zip(a.prefix + a.context, b.prefix + b.context))

    def test_building_leaves_the_page_unchanged(self):
        # a page's runs are passed to the builders, not stored: a Page is its
        # five constructor fields, a Section and an ImageRef hold only theirs
        # (the sequence layer splits a section's first sentence), and
        # building every task's examples of a page under every
        # page-description variant writes nothing on it
        assert [(f.name, f.init) for f in dataclasses.fields(Page)] == [
            (name, True) for name in ("url", "title", "raw_description", "sections", "split")]
        for model in (Section, ImageRef):
            assert [f.name for f in dataclasses.fields(model) if not f.init] == [], model
        page = self.make_page(long_target=True)
        before = copy.deepcopy(vars(page))
        for task in Task:
            for variant in PageDescPrefix:
                routed, _ = build_dataset([page], task, threshold=0, variant=variant)
                assert routed
        assert vars(page) == before

    def test_runs_hold_the_slots(self):
        runs = PageRuns(self.make_page())
        for ex in (build_page_description_input(runs), build_section_summarization_input(runs, 2),
                   build_image_caption_input(runs, 1, 2)):
            assert all(ex.prefix) and all(ex.context)
            for runs, slots in ((ex.prefix, prefix_of(ex)), (ex.context, context_of(ex))):
                slots = iter(slots)
                for run in runs:
                    kind, field = ORIGIN_SLOT[run.origin]
                    for value in run.values:
                        s = next(slots)
                        assert s["kind"] == kind and s["origin"] == run.origin.value
                        assert s[field] == value
                assert next(slots, None) is None

    def test_json_line_when_the_cap_cuts_a_run(self):
        page = self.make_page(long_target=True)
        runs = PageRuns(page)
        own = runs.content[1]
        for ex, cut in ((build_section_summarization_input(runs, 1), own.rest),
                        (build_image_caption_input(runs, 1, 0), own.body)):
            assert ex.prefix_len == DEFAULT_PREFIX
            # the cap falls inside a run: its two parts end the prefix and start the context
            head, tail = ex.prefix[-1], ex.context[0]
            assert head and tail and head is not cut and tail is not cut
            assert head.origin == tail.origin == cut.origin
            assert head.values + tail.values == cut.values
            expect = reference_cut_line(ex.task, page.url, ex.prefix[:-1] + (cut,), ex.context[1:], ex.target_text)
            assert ex.to_json_line() == expect == reference_line(ex)

    @pytest.mark.parametrize("variant", list(PageDescPrefix), ids=lambda v: v.value)
    def test_json_line_matches_reference(self, variant):
        runs = PageRuns(self.make_page(long_target=True))
        examples = [build_page_description_input(runs, variant=variant),
                    build_section_summarization_input(runs, 3), build_image_caption_input(runs, 2, 0)]
        for ex in examples:
            assert ex.to_json_line() == reference_line(ex)

    def test_assembly_cuts_at_every_position(self):
        runs = [
            text_run('a "b" \\ é'),
            SectionRuns(Section(index=2)).marker,
            TokenRun(Origin.CAPTION, ("\x01\u2028\ud800/", "x")),
            TokenRun(Origin.TARGET_IMAGE, ('vec "7"\n', "v")),
        ]
        context = [text_run("after it")]
        page = Page(url="https://e.org/wiki/Ü")
        n_slots = sum(map(len, runs))
        for cut in range(n_slots + 1):
            # a pad run puts the cap at slot `cut` of the four runs
            pad = TokenRun(Origin.PAGE_TITLE, ("p",) * (DEFAULT_PREFIX - cut))
            ex = _assemble(Task.IMAGE_CAPTIONING, page, [pad, *runs], context, "t\n")
            assert ex.prefix_len == DEFAULT_PREFIX
            assert ex.to_json_line() == reference_cut_line(ex.task, page.url, [pad, *runs], context, "t\n")
            assert ex.to_json_line() == reference_line(ex)
            # only the run the cap falls inside is replaced by its parts
            starts = [sum(map(len, runs[:i])) for i in range(len(runs))]
            untouched = [run for run, start in zip(runs, starts) if not start < cut < start + len(run)]
            assert [run for run in runs if any(run is r for r in ex.prefix + ex.context)] == untouched
            assert ex.prefix[0] is pad and ex.context[-1] is context[0]
        empty = TaskExample(Task.PAGE_DESCRIPTION, (), (), "", "https://e.org/wiki/E")
        assert empty.to_json_line() == reference_line(empty)
        assert _assemble(Task.PAGE_DESCRIPTION, Page(url="https://e.org/wiki/E"), [], [], "") == empty

    def test_empty_runs_serialize_as_nothing(self):
        ab, c = text_run("a b"), text_run("c")
        empty = TokenRun(Origin.SECTION_BODY)
        runs = (empty, ab, TokenRun(Origin.CONTEXT_IMAGE), c, empty)
        for n in range(len(runs) + 1):
            ex = TaskExample(Task.PAGE_DESCRIPTION, runs[:n], runs[n:], "t", "https://e.org/wiki/E")
            assert ex.slots == reference_slots(ab) + reference_slots(c)
            assert ex.to_json_line() == reference_line(ex)
        # assembly drops them
        ex = _assemble(Task.PAGE_DESCRIPTION, Page(url="https://e.org/wiki/E"), list(runs[:3]), list(runs[3:]), "t")
        assert ex.prefix == (ab,) and ex.context == (c,)

    def test_slots_are_derived_not_stored(self):
        runs = PageRuns(self.make_page(long_target=True))
        for ex in (build_page_description_input(runs), build_section_summarization_input(runs, 1),
                   build_image_caption_input(runs, 1, 0)):
            ex.to_json_line()
            assert "slots" not in vars(ex)
            line = json.loads(reference_line(ex))
            assert ex.slots == line["prefix"] + line["context"]
            ex.to_dict()
            assert "slots" not in vars(ex)

    @pytest.mark.parametrize("run", [
        TokenRun(Origin.CAPTION, ("a", '"b"', "\\", "é", "\x01\u2028\ud800/")),
        TokenRun(Origin.TARGET_IMAGE, ('vec "7"\n', "v", "ü")),
        TokenRun(Origin.SECTION_BODY),
    ], ids=["text", "image", "empty"])
    def test_json_is_the_reference_slots(self, run):
        expect = json.dumps(reference_slots(run), ensure_ascii=False, separators=(",", ":"))
        assert f"[{run.json}]" == expect

    @pytest.mark.parametrize("origin", list(Origin), ids=lambda o: o.value)
    def test_origin_decides_kind(self, origin):
        kind, field = ORIGIN_SLOT[origin]
        run = TokenRun(origin, ("v",))
        assert run.kind == kind
        assert json.loads(f"[{run.json}]") == [{"kind": kind, field: "v", "origin": origin.value}]

    @pytest.mark.parametrize("task", list(Task), ids=lambda t: t.value)
    def test_demo_examples_match_reference(self, task):
        routed, _ = build_dataset(iter_corpus(demo_corpus_path()), task)
        assert routed
        for _, ex in routed:
            assert ex.to_json_line() == reference_line(ex)
            assert not leaks_target(ex)


# sentence marks, unusual whitespace (\x1c and U+2003 are str.isspace and re's
# \s alike), other punctuation, digits and accented letters
BODY_ALPHABET = "aZé9 .!?,;'\"-\t\n\x1c\u2003"


@given(st.text(alphabet=BODY_ALPHABET, max_size=40))
@example("")
@example("no sentence end here")
@example("a.b")
@example("Hi?! there")
@example("It ends on a mark.")
@settings(max_examples=300, deadline=None)
def test_body_run_is_the_whole_body_tokenized(text):
    # the body run joins the first sentence's tokens and the rest's; the
    # reference tokenizes the whole body at once
    section = Section(index=1, body_text=text)
    body = SectionRuns(section).body
    assert body.values == tuple(tokenize(section.body_text))
    assert body.origin is Origin.SECTION_BODY


# quotes and a backslash, which JSON escapes; U+2028, which it may leave
# raw; non-ASCII letters; and every sentence mark
RECORD_ALPHABET = "aZ9é中 .!?,'\"\\\u2028\t\n"
record_text = st.text(alphabet=RECORD_ALPHABET, max_size=30)
# now and then a sentence long enough that a page's prefix material passes
# the 512-slot cap
long_words = st.integers(60, 300).map(lambda n: " ".join(f"w{i}" for i in range(n)))
# words then a sentence mark, or none: bodies of zero to eight sentences
record_body = st.lists(st.tuples(st.one_of(record_text, long_words),
                                 st.sampled_from([".", "!", "?", "", "?!", '."'])), max_size=8).map(
    lambda parts: " ".join(words + mark for words, mark in parts))
# zero to five plain words, around the three a captioning target needs
short_reference = st.lists(st.text(alphabet="aZé9", min_size=1, max_size=6), max_size=5).map(" ".join)


@st.composite
def raw_image(draw, n):
    image = {
        "section_image_url": f"https://img.example/{n}/" + draw(record_text),
        "section_image_mime_type": draw(st.sampled_from(
            ["image/jpeg", "image/jpg", "IMAGE/PNG", "image/png", "image/gif", "image/svg+xml", "", None])),
        "section_image_raw_ref_desc": draw(st.one_of(short_reference, record_body)),
        "section_image_in_WIT": draw(st.sampled_from([True, True, False, None])),
    }
    if draw(st.booleans()):
        image["embedding_id"] = draw(record_text)  # "" falls back to the url
    return image


@st.composite
def raw_record(draw):
    """One corpus record as the reader sees it: zero to eight sections, each
    with a parent among the earlier ones or none and a body of zero to eight
    sentences; zero to nine images on the page, of varied mime, quality flag
    and reference length, with and without an embedding_id; table/list
    flags; list_of URLs; and now and then prefix material past 512 slots."""
    n_sections = draw(st.integers(0, 8))
    # the section of each of the page's images
    owners = draw(st.lists(st.integers(0, n_sections - 1), max_size=9)) if n_sections else []
    sections = []
    for i in range(n_sections):
        sections.append({
            "section_index": i,
            "section_title": draw(record_text),
            "section_text": draw(record_body),
            "section_parent_index": draw(st.one_of(st.none(), st.integers(0, i - 1))) if i else None,
            "section_contains_table_or_list": draw(st.booleans()),
            "images": [draw(raw_image(f"{i}.{n}")) for n in range(owners.count(i))],
        })
    return {
        "page_url": "https://e.org/wiki/" + draw(st.sampled_from(["", "", "", "List_of_", "list_of_"]))
                    + draw(record_text),
        "page_title": draw(record_text),
        "raw_page_description": draw(record_body),
        "sections": sections,
    }


@given(raw_record())
@example({"page_url": "https://e.org/wiki/Q", "raw_page_description": "D.", "sections": [
    {"section_index": 0, "section_text": "A. B. C. D. E.", "images": [
        {"section_image_url": "https://img.example/a.jpg", "section_image_mime_type": "image/jpeg",
         "section_image_raw_ref_desc": "a stone tower", "section_image_in_WIT": True},
        {"section_image_url": "https://img.example/b.png", "section_image_mime_type": "image/png",
         "section_image_raw_ref_desc": "a tower at dusk", "section_image_in_WIT": True, "embedding_id": "vec-b"},
    ]},
    {"section_index": 1, "section_parent_index": 0, "section_text": "F. G. H. I. J. K.", "images": [
        {"section_image_url": "https://img.example/c.jpg", "embedding_id": "vec-c"}]},
]})
@settings(max_examples=150, deadline=None)
def test_parsed_record_runs_hold_str_values(record):
    # runs check nothing themselves: every value comes from a checked page
    # field, so every value is a str and the JSON line gives each one back
    page = parse_page(record)
    for task in Task:
        for variant in PageDescPrefix:
            routed, _ = build_dataset([page], task, threshold=0, variant=variant)
            for _, ex in routed:
                runs = ex.prefix + ex.context
                assert all(type(v) is str for run in runs for v in run.values)
                line = json.loads(ex.to_json_line())
                assert line["prefix"] == slots_of(ex.prefix) and line["context"] == slots_of(ex.context)


def checked_then_built(page, task, threshold, variant):
    """The page's candidates for `task` in canonical order (the page, its
    sections, or its images in section then image order), each its check's
    reason or, when the check gives None, its example, built from one PageRuns
    of the page."""
    runs = PageRuns(page)
    if task is Task.PAGE_DESCRIPTION:
        reason = check_page_description(page, threshold)
        return [reason if reason is not None else build_page_description_input(runs, variant=variant)]
    out = []
    for sec in page.sections:
        if task is Task.SECTION_SUMMARIZATION:
            reason = check_section_summarization(page, sec.index)
            out.append(reason if reason is not None else build_section_summarization_input(runs, sec.index))
            continue
        for pos, image in enumerate(sec.images):
            reason = check_image_caption(image)
            out.append(reason if reason is not None else build_image_caption_input(runs, sec.index, pos))
    return out


def eligible_image(n):
    return {"section_image_url": f"https://img.example/{n}.jpg", "section_image_mime_type": "image/jpeg",
            "section_image_raw_ref_desc": f"a stone tower {n}", "section_image_in_WIT": True}


@given(raw_record())
@example({"page_url": "https://e.org/wiki/Many", "raw_page_description": "D.", "sections": [
    {"section_index": 0, "section_text": "Root. Text.", "images": [eligible_image(0)]},
    {"section_index": 1, "section_parent_index": 0, "section_text": "A. B. C. D. E. F.",
     "images": [eligible_image(1), {"section_image_url": "https://img.example/x.gif"}, eligible_image(2)]},
    {"section_index": 2, "section_contains_table_or_list": True, "section_text": "G. H. I. J. K.",
     "images": [eligible_image(3), eligible_image(4)]},
    {"section_index": 3, "section_text": "L. M. N. O. P. Q.", "images": [eligible_image(5)]},
]})
@settings(max_examples=100, deadline=None)
def test_each_item_gives_its_candidates_in_order(record):
    # build_dataset's per-item step: one candidate per page, section or image,
    # counted from the raw record, plus one for the parse error; each checked,
    # then built only if the check passes, in canonical order
    page = parse_page(record)
    counts = {Task.PAGE_DESCRIPTION: 1, Task.SECTION_SUMMARIZATION: len(record["sections"]),
              Task.IMAGE_CAPTIONING: sum(len(sec["images"]) for sec in record["sections"])}
    for task in Task:
        for variant in PageDescPrefix:
            routed, report = build_dataset([page, MalformedRecord(2, "x")], task, threshold=0, variant=variant)
            assert report.pages_in == 1
            assert report.candidates == counts[task] + 1
            assert report.examples_out + sum(report.rejections.values()) == report.candidates
            outcomes = checked_then_built(page, task, 0, variant)
            assert [ex for _, ex in routed] == [out for out in outcomes if not isinstance(out, str)]
            assert {split for split, _ in routed} <= {page.split}
            reasons = Counter(out for out in outcomes if isinstance(out, str)) + Counter({REASON_PARSE_ERROR: 1})
            assert report.rejections == dict(reasons)


class TestLeakScan:
    def test_detects_contiguous_leak(self):
        assert leaks_target(_example([text_run("the gray tower stands tall.")], "gray tower stands"))

    def test_order_matters(self):
        assert not leaks_target(_example([text_run("tower gray the")], "the gray tower"))

    def test_image_slot_breaks_contiguity(self):
        image = TokenRun(Origin.CONTEXT_IMAGE, ("v",))
        assert not leaks_target(_example([text_run("the gray"), image, text_run("tower")], "the gray tower"))
        # without the image the same text leaks, across a run boundary
        assert leaks_target(_example([text_run("the gray"), text_run("tower", Origin.CAPTION)], "the gray tower"))
        # and across the boundary between prefix and context
        split = TaskExample(Task.PAGE_DESCRIPTION, (text_run("the gray"),), (text_run("tower"),),
                            "the gray tower", "https://e.org/wiki/X")
        assert leaks_target(split)

    def test_empty_target_never_leaks(self):
        assert not leaks_target(_example([text_run("x")], ""))

    def test_marker_collision_impossible(self):
        marker = SectionRuns(Section(index=3)).marker
        assert marker.values == ("[S3]",)
        assert not leaks_target(_example([marker], "S3"))


class TestTargetFieldIsWithheld:
    """The builders keep each example's target field out of its slots, but
    the same words can reach the input through another field of the page,
    and leaks_target then finds them. Changing the target field changes no
    slot: the words come from the other field, not from the target."""

    BODY = "Gulls nest on the rocks. They rest. They feed. They fly. They sleep."

    @staticmethod
    def page(description="Gulls nest on the rocks.", first="The keeper lit the lamp.", ref="a gull on a rock"):
        return Page(url="https://e.org/wiki/Echo", raw_description=description, sections=(
            Section(0, title="Echo", body_text=TestTargetFieldIsWithheld.BODY),
            Section(1, title="Keeper", body_text=first + " He slept. He woke. He ate. He left.",
                    images=(img(1, ref=ref, attr=ref), img(2))),
            Section(2, title="Lamp", body_text="The keeper lit the lamp. It burned all night."),
        ))

    @pytest.mark.parametrize("variant", list(PageDescPrefix), ids=lambda v: v.value)
    def test_page_description_repeated_by_the_first_section(self, variant):
        # the first section's text starts with the page description
        page = self.page()
        assert check_page_description(page, 2) is None
        ex = build_page_description_input(PageRuns(page), variant=variant)
        assert leaks_target(ex)
        other = build_page_description_input(PageRuns(self.page(description="A storm came in.")), variant=variant)
        assert not leaks_target(other)
        assert (other.prefix, other.context) == (ex.prefix, ex.context)

    def test_section_summary_repeated_by_another_section(self):
        # section 2 repeats the target section's first sentence
        page = self.page()
        assert check_section_summarization(page, 1) is None
        ex = build_section_summarization_input(PageRuns(page), 1)
        assert ex.target_text == "The keeper lit the lamp."
        assert leaks_target(ex)
        other = build_section_summarization_input(PageRuns(self.page(first="A storm came in.")), 1)
        assert not leaks_target(other)
        assert (other.prefix, other.context) == (ex.prefix, ex.context)

    def test_image_descriptions_never_enter_the_slots(self):
        page = self.page()
        ex = build_image_caption_input(PageRuns(page), 1, 0)
        other = build_image_caption_input(PageRuns(self.page(ref="waves under a grey sky")), 1, 0)
        assert (ex.target_text, other.target_text) == ("a gull on a rock", "waves under a grey sky")
        assert (other.prefix, other.context) == (ex.prefix, ex.context)
        assert not leaks_target(ex) and not leaks_target(other)


def _example(runs, target):
    return _assemble(Task.PAGE_DESCRIPTION, Page(url="https://e.org/wiki/X"), list(runs), [], target)
