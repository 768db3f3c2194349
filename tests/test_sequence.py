"""Builders: slot layout, budgets, exclusions, no-leakage, shared runs."""

import json

import pytest

from prefix_global.page import ImageRef, Mime, Page, Section
from prefix_global.sequence import (
    PREFIX_BUDGET,
    IneligibleExampleError,
    Origin,
    PageDescPrefix,
    Task,
    TaskExample,
    TokenRun,
    TokenSlot,
    build_image_caption_input,
    build_page_description_input,
    build_section_summarization_input,
    check_page_description,
    leaks_target,
    marker_slot,
    text_slots,
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


def toks(example, *origins):
    return [s.text_token for s in example.slots if s.kind == "text" and (not origins or s.origin in origins)]


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
        assert [s.text_token for s in ex.prefix] == url_t + ["Model", "Page", "A", "a", ".", "B", "b", "."]
        assert [s.text_token for s in ex.context] == ["[S0]", "rest", "a", ".", "[S1]", "rest", "b", "."]
        assert ex.target_text == "An overview held out of the inputs."

    def test_missing_description_rejected(self):
        page = Page(url="https://e.org/wiki/X", sections=(Section(index=0, body_text="t."),))
        with pytest.raises(IneligibleExampleError) as exc:
            build_page_description_input(page)
        assert exc.value.reason == "missing_description"

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
        image_slots = [s for s in ex.prefix if s.kind == "image"]
        assert len(image_slots) == 6
        assert [s.image for s in image_slots] == [f"vec-{n}" for n in range(6)]
        assert all(s.origin is Origin.CONTEXT_IMAGE for s in image_slots)
        assert not [s for s in ex.context if s.kind == "image"]

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
        stream = toks(ex)
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
        assert "gray" not in toks(TaskExampleView(ex.prefix))
        assert ["gray", "cat", "asleep"] == toks(TaskExampleView(ex.context), Origin.CAPTION)

    def test_titles_only_variant(self):
        ex = build_page_description_input(two_section_page(), variant=PageDescPrefix.TITLES_ONLY)
        assert [s.text_token for s in ex.prefix][-2:] == ["A", "B"]
        assert [s.text_token for s in ex.context] == ["[S0]", "a", ".", "rest", "a", ".", "[S1]", "b", ".", "rest", "b", "."]

    def test_in_order_variant_is_one_stream(self):
        ex = build_page_description_input(two_section_page(), variant=PageDescPrefix.IN_ORDER)
        assert ex.prefix_len == len(ex.slots)  # under budget: everything global
        stream = [s.text_token for s in ex.slots]
        assert stream.index("[S0]") < stream.index("A") < stream.index("a")
        assert stream.index("a") < stream.index("[S1]") < stream.index("B")


class TaskExampleView:
    """Tiny shim so toks() can run over a prefix or context tuple."""

    def __init__(self, slots):
        self.slots = slots


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
        body = toks(TaskExampleView(ex.prefix), Origin.SECTION_BODY)
        assert body[:3] == ["s2", "two", "."]
        assert "s1" not in body
        assert not leaks_target(ex)

    def test_prefix_order_and_image_cap(self):
        page = self.make_page(images=(img(1), img(2), img(3)))
        ex = build_section_summarization_input(page, 1)
        assert ex.prefix[0].kind == "image"
        assert ex.prefix[0].image == "vec-1"
        assert len([s for s in ex.prefix if s.kind == "image"]) == 1
        assert ex.prefix[1].text_token == "[S1]"
        assert ex.prefix[2].text_token == "Target"
        origins = [s.origin for s in ex.prefix]
        assert origins.index(Origin.SECTION_BODY) < origins.index(Origin.CAPTION)

    def test_context_is_url_title_then_other_sections(self):
        ex = build_section_summarization_input(self.make_page(), 1)
        ctx = [s.origin for s in ex.context]
        assert ctx[0] is Origin.PAGE_URL
        assert Origin.PAGE_TITLE in ctx
        ctx_tokens = [s.text_token for s in ex.context if s.kind == "text"]
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
        assert {s.origin for s in ex.context} == {Origin.PAGE_URL, Origin.PAGE_TITLE}

    def test_rejections(self):
        page = self.make_page()
        with pytest.raises(IneligibleExampleError) as root:
            build_section_summarization_input(page, 0)
        assert root.value.reason == "root"
        short = Page(
            url="https://e.org/wiki/S",
            sections=(Section(index=0), Section(index=1, body_text="one. two. three. four.")),
        )
        with pytest.raises(IneligibleExampleError) as exc:
            build_section_summarization_input(short, 1)
        assert exc.value.reason == "too_short"
        tabled = Page(
            url="https://e.org/wiki/T",
            sections=(Section(index=0), Section(index=1, body_text="a. b. c. d. e.", has_table_or_list=True)),
        )
        with pytest.raises(IneligibleExampleError) as exc2:
            build_section_summarization_input(tabled, 1)
        assert exc2.value.reason == "table_or_list"
        with pytest.raises(IndexError):
            build_section_summarization_input(page, 9)


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
        captions = toks(TaskExampleView(ex.prefix), Origin.CAPTION)
        assert captions == ["keeper", "at", "the", "door"]
        assert not leaks_target(ex)
        assert ex.prefix[0].kind == "image"
        assert ex.prefix[0].origin is Origin.TARGET_IMAGE
        assert ex.prefix[0].image == "vec-1"

    def test_attribution_never_in_inputs(self):
        ex = build_image_caption_input(self.make_page(), 1, 1)
        assert "credit" not in toks(ex)

    def test_full_body_in_prefix(self):
        ex = build_image_caption_input(self.make_page(), 1, 0)
        assert toks(TaskExampleView(ex.prefix), Origin.SECTION_BODY) == ["scene", ".", "setting", "."]

    def test_single_image_page_bare_context(self):
        page = Page(
            url="https://e.org/wiki/One",
            title="One",
            sections=(Section(index=0, title="S", body_text="text here.", images=(img(5),)),),
        )
        ex = build_image_caption_input(page, 0, 0)
        assert {s.origin for s in ex.context} == {Origin.PAGE_URL, Origin.PAGE_TITLE}

    def test_rejections(self):
        base = self.make_page()
        not_wit = Page(
            url="https://e.org/wiki/NW",
            sections=(Section(index=0, images=(img(1, wit=False),)),),
        )
        with pytest.raises(IneligibleExampleError) as exc:
            build_image_caption_input(not_wit, 0, 0)
        assert exc.value.reason == "not_in_quality_set"
        gif = Page(
            url="https://e.org/wiki/G",
            sections=(Section(index=0, images=(img(1, mime=Mime.OTHER),)),),
        )
        with pytest.raises(IneligibleExampleError) as exc2:
            build_image_caption_input(gif, 0, 0)
        assert exc2.value.reason == "mime"
        short_ref = Page(
            url="https://e.org/wiki/SR",
            sections=(Section(index=0, images=(img(1, ref="red car"),)),),
        )
        with pytest.raises(IneligibleExampleError) as exc3:
            build_image_caption_input(short_ref, 0, 0)
        assert exc3.value.reason == "short_reference"
        with pytest.raises(IndexError):
            build_image_caption_input(base, 1, 5)
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

    def test_json_line_deterministic(self):
        a = build_page_description_input(two_section_page()).to_json_line()
        b = build_page_description_input(two_section_page()).to_json_line()
        assert a == b

    def test_slot_validation(self):
        with pytest.raises(ValueError):
            TokenSlot("text", Origin.CAPTION, text_token=None)
        with pytest.raises(ValueError):
            TokenSlot("image", Origin.CONTEXT_IMAGE, text_token="x", image="v")
        with pytest.raises(ValueError):
            TokenSlot("audio", Origin.CAPTION, text_token="x")
        with pytest.raises(ValueError):
            TokenSlot("text", "caption", text_token="x")

    def test_runs_must_be_token_runs(self):
        slots = tuple(text_slots("a b", Origin.SECTION_BODY))
        with pytest.raises(TypeError):
            TaskExample(Task.PAGE_DESCRIPTION, (slots,), 0, "", "https://e.org/wiki/X")

    def test_equality_compares_run_boundaries(self):
        a, b = text_slots("a b", Origin.SECTION_BODY)
        one = TaskExample(Task.PAGE_DESCRIPTION, (TokenRun((a, b)),), 0, "", "https://e.org/wiki/X")
        two = TaskExample(Task.PAGE_DESCRIPTION, (TokenRun((a,)), TokenRun((b,))), 0, "", "https://e.org/wiki/X")
        assert one.slots == two.slots
        assert one != two


def compact_json(example):
    return json.dumps(example.to_dict(), ensure_ascii=False, separators=(",", ":"))


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

    def test_examples_of_one_page_share_slots(self):
        page = self.make_page()
        a = build_section_summarization_input(page, 1)
        b = build_section_summarization_input(page, 2)
        c = build_image_caption_input(page, 1, 0)
        section3 = [[s for s in ex.context if s.origin is Origin.SECTION_BODY][-6:] for ex in (a, b, c)]
        assert section3[0] == section3[1] == section3[2]
        assert all(x is y is z for x, y, z in zip(*section3))

    def test_runs_belong_to_their_page(self):
        # two equal pages parsed apart share no slot objects: the runs live on
        # the page, not in a process-wide cache
        a = build_section_summarization_input(self.make_page(), 1)
        b = build_section_summarization_input(self.make_page(), 1)
        assert a == b
        assert not any(x is y for x, y in zip(a.slots, b.slots))

    def test_runs_hold_the_slots(self):
        page = self.make_page()
        for ex in (build_page_description_input(page), build_section_summarization_input(page, 2),
                   build_image_caption_input(page, 1, 2)):
            assert all(ex.runs)
            assert tuple(s for run in ex.runs for s in run) == ex.slots

    def test_json_line_when_the_cap_cuts_a_run(self):
        page = self.make_page(long_target=True)
        for ex in (build_section_summarization_input(page, 1), build_image_caption_input(page, 1, 0)):
            assert ex.prefix_len == PREFIX_BUDGET
            ends, total = set(), 0
            for run in ex.runs:
                total += len(run)
                ends.add(total)
            assert PREFIX_BUDGET not in ends  # the cap falls inside a run
            assert ex.to_json_line() == compact_json(ex)

    @pytest.mark.parametrize("variant", list(PageDescPrefix), ids=lambda v: v.value)
    def test_json_line_matches_to_dict(self, variant):
        page = self.make_page(long_target=True)
        examples = [build_page_description_input(page, variant=variant),
                    build_section_summarization_input(page, 3), build_image_caption_input(page, 2, 0)]
        for ex in examples:
            assert ex.to_json_line() == compact_json(ex)

    def test_directly_built_example_at_every_prefix_len(self):
        slots = tuple(text_slots('a "b" \\ é', Origin.SECTION_BODY)) + (
            marker_slot(2),
            TokenSlot("text", Origin.CAPTION, text_token="\x01\u2028\ud800/"),
            TokenSlot("image", Origin.TARGET_IMAGE, image='vec "7"\n'),
        )
        for k in range(len(slots) + 1):
            ex = TaskExample(Task.IMAGE_CAPTIONING, (TokenRun(slots),), k, "t\n", "https://e.org/wiki/Ü")
            assert ex.to_json_line() == compact_json(ex)
        empty = TaskExample(Task.PAGE_DESCRIPTION, (), 0, "", "https://e.org/wiki/E")
        assert empty.to_json_line() == compact_json(empty)

    def test_empty_runs_serialize_as_nothing(self):
        a, b, c = text_slots("a b c", Origin.SECTION_BODY)
        runs = (TokenRun(), TokenRun((a, b)), TokenRun(), TokenRun((c,)), TokenRun())
        for k in range(4):
            ex = TaskExample(Task.PAGE_DESCRIPTION, runs, k, "t", "https://e.org/wiki/E")
            assert ex.slots == (a, b, c)
            assert ex.to_json_line() == compact_json(ex)

    def test_slots_are_derived_not_stored(self):
        page = self.make_page(long_target=True)
        for ex in (build_page_description_input(page), build_section_summarization_input(page, 1),
                   build_image_caption_input(page, 1, 0)):
            ex.to_json_line()
            assert "slots" not in vars(ex)
            assert ex.slots == tuple(s for run in ex.runs for s in run)
            ex.to_dict()
            assert "slots" not in vars(ex)


class TestLeakScan:
    def test_detects_contiguous_leak(self):
        slots = tuple(text_slots("the gray tower stands tall.", Origin.SECTION_BODY))
        ex_like = _example(slots, "gray tower stands")
        assert leaks_target(ex_like)

    def test_order_matters(self):
        slots = tuple(text_slots("tower gray the", Origin.SECTION_BODY))
        assert not leaks_target(_example(slots, "the gray tower"))

    def test_image_slot_breaks_contiguity(self):
        parts = text_slots("the gray", Origin.SECTION_BODY)
        parts.append(TokenSlot("image", Origin.CONTEXT_IMAGE, image="v"))
        parts += text_slots("tower", Origin.SECTION_BODY)
        assert not leaks_target(_example(tuple(parts), "the gray tower"))

    def test_empty_target_never_leaks(self):
        assert not leaks_target(_example(tuple(text_slots("x", Origin.SECTION_BODY)), ""))

    def test_marker_collision_impossible(self):
        assert marker_slot(3).text_token == "[S3]"
        assert not leaks_target(_example((marker_slot(3),), "S3"))


def _example(slots, target):
    from prefix_global.sequence import TaskExample

    return TaskExample(
        task=Task.PAGE_DESCRIPTION,
        runs=(TokenRun(slots),),
        prefix_len=min(len(slots), PREFIX_BUDGET),
        target_text=target,
        source_page_url="https://e.org/wiki/X",
    )
