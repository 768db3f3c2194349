"""Every integer argument takes an exact int: `type(x) is int`. True and
False, and int subclasses such as an IntEnum member, are refused with the
error each argument raises for any other bad value; a plain int is accepted.
A pattern's own refusals of these are in test_patterns.py's
test_bool_is_not_an_int."""

import enum

import numpy as np
import pytest

from prefix_global.kernel import block_average
from prefix_global.page import ImageRef, Page, Section
from prefix_global.patterns import PatternError, full, local, prefix_global, tglobal
from prefix_global.pipeline import build_dataset
from prefix_global.sequence import (
    Task,
    build_image_caption_input,
    build_section_summarization_input,
    check_section_summarization,
)


class _One(enum.IntEnum):
    ONE = 1


def two_section_page() -> Page:
    # section 1 has two images, so 1 is in range for every index below
    images = (ImageRef("https://e.org/a.png"), ImageRef("https://e.org/b.png"))
    return Page(url="https://e.org/wiki/P", sections=(
        Section(index=0, body_text="Root text."),
        Section(index=1, body_text="One. Two.", parent_index=0, depth=1, images=images),
    ))


# each integer argument outside the pattern, called with the value 1 in some
# form, and the error it raises for a value that is not an int
SITES = {
    "block_average.block": (lambda v: block_average(np.ones((4, 2)), v), PatternError),
    "build_dataset.threshold": (lambda v: build_dataset([], Task.PAGE_DESCRIPTION, threshold=v), ValueError),
    "check_section_summarization.target_index":
        (lambda v: check_section_summarization(two_section_page(), v), IndexError),
    "build_section_summarization_input.target_index":
        (lambda v: build_section_summarization_input(two_section_page(), v), IndexError),
    "build_image_caption_input.section_index":
        (lambda v: build_image_caption_input(two_section_page(), v, 0), IndexError),
    "build_image_caption_input.image_pos":
        (lambda v: build_image_caption_input(two_section_page(), 1, v), IndexError),
}

PATTERN_SITES = {
    "full.l": lambda v: full(v),
    "local.l": lambda v: local(v, r=0),
    "local.r": lambda v: local(8, r=v),
    "tglobal.l": lambda v: tglobal(v, r=0),
    "tglobal.r": lambda v: tglobal(8, r=v),
    "tglobal.block": lambda v: tglobal(8, r=1, block=v),
    "prefix_global.l": lambda v: prefix_global(v, k=0, r=0),
    "prefix_global.r": lambda v: prefix_global(8, k=2, r=v),
    "prefix_global.k": lambda v: prefix_global(8, k=v, r=1),
}


@pytest.mark.parametrize("value", [True, _One.ONE], ids=["bool", "intenum"])
@pytest.mark.parametrize("site", SITES)
def test_an_int_subclass_is_refused(site, value):
    call, error = SITES[site]
    with pytest.raises(error):
        call(value)


@pytest.mark.parametrize("site", [*SITES, *PATTERN_SITES])
def test_a_plain_int_is_accepted(site):
    call = SITES[site][0] if site in SITES else PATTERN_SITES[site]
    call(1)
