"""Cost model: frozen reference cells, closed form vs mask enumeration."""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefix_global import cost
from prefix_global.cost import accounted_pairs, compare, mask_nnz, render_table, report
from prefix_global.patterns import AttentionPattern, PatternKind, build_mask, full, local, prefix_global, tglobal

# Accounted pair counts at the reference configuration (k=512, r=127,
# block=16), re-derived by hand from the closed forms before freezing:
#   tglobal       l * (254 + l/16)
#   prefix-global (l-512)*766 + 512*l
#   full          l*l
REFERENCE_CELLS = {
    (1024, "tglobal"): 325_632,
    (1024, "prefix-global"): 916_480,
    (1024, "full"): 1_048_576,
    (2048, "tglobal"): 782_336,
    (2048, "prefix-global"): 2_225_152,
    (2048, "full"): 4_194_304,
    (4096, "tglobal"): 2_088_960,
    (4096, "prefix-global"): 4_842_496,
    (4096, "full"): 16_777_216,
}


def reference_patterns(l):
    return {
        "tglobal": tglobal(l, r=127, block=16),
        "prefix-global": prefix_global(l, k=512, r=127),
        "full": full(l),
    }


class TestReferenceCells:
    @pytest.mark.parametrize("l", [1024, 2048, 4096])
    def test_accounted_pairs_exact(self, l):
        for name, pattern in reference_patterns(l).items():
            assert accounted_pairs(pattern) == REFERENCE_CELLS[(l, name)], name

    def test_mid_length_ratio(self):
        # prefix-global at 2048 costs roughly half of full attention there
        ratio = REFERENCE_CELLS[(2048, "prefix-global")] / REFERENCE_CELLS[(2048, "full")]
        assert 0.52 <= ratio <= 0.54
        assert report(prefix_global(2048)).ratio_vs_full == pytest.approx(ratio)

    def test_doubled_length_costs_barely_more_than_full(self):
        # 4096 prefix-global vs 2048 full: more tokens for a ~15% pair surcharge
        gap = REFERENCE_CELLS[(4096, "prefix-global")] - REFERENCE_CELLS[(2048, "full")]
        assert 0 < gap < 700_000

    def test_savings_grow_with_length(self):
        gaps = [
            REFERENCE_CELLS[(l, "full")] - REFERENCE_CELLS[(l, "prefix-global")]
            for l in (1024, 2048, 4096)
        ]
        assert gaps == sorted(gaps)
        assert gaps[0] < gaps[1] < gaps[2]


class TestClosedFormAgainstEnumeration:
    """mask_nnz (arithmetic) must equal build_mask(...).nnz() (enumeration)."""

    @pytest.mark.parametrize("l", [1, 2, 7, 16, 64, 129])
    @pytest.mark.parametrize("r", [0, 1, 5])
    def test_local(self, l, r):
        p = local(l, r=r)
        assert mask_nnz(p) == build_mask(p).nnz()

    @pytest.mark.parametrize("l", [1, 7, 16, 64, 129])
    @pytest.mark.parametrize("r", [0, 2])
    @pytest.mark.parametrize("block", [1, 4, 16])
    def test_tglobal(self, l, r, block):
        p = tglobal(l, r=r, block=block)
        assert mask_nnz(p) == build_mask(p).nnz()

    @pytest.mark.parametrize("l", [1, 7, 16, 64, 129])
    @pytest.mark.parametrize("r", [0, 2, 9])
    def test_prefix_global(self, l, r):
        for k in {0, 1, l // 3, l // 2, l}:
            p = prefix_global(l, k=k, r=r)
            assert mask_nnz(p) == build_mask(p).nnz(), f"k={k}"

    @pytest.mark.parametrize("l", [1, 5, 32])
    def test_full(self, l):
        p = full(l)
        assert mask_nnz(p) == build_mask(p).nnz() == l * l


@st.composite
def any_pattern(draw):
    """A pattern of any kind with l <= 300, r up to 2l, k anywhere in [0, l]
    and block in [1, l + 1]."""
    l = draw(st.integers(1, 300))
    return AttentionPattern(draw(st.sampled_from(PatternKind)), l, r=draw(st.integers(0, 2 * l)),
                            k=draw(st.integers(0, l)), block=draw(st.integers(1, l + 1)))


@settings(max_examples=200, deadline=None)
@given(any_pattern())
@example(prefix_global(1, k=0, r=0))
@example(prefix_global(300, k=300, r=600))
@example(tglobal(300, r=0, block=301))
def test_closed_form_matches_enumeration_property(pattern):
    assert mask_nnz(pattern) == build_mask(pattern).nnz()


def convention_pairs(pattern):
    """The budgeting convention, one formula per kind as the cost docstring
    states it; local's is the true count, tallied window by window."""
    l, r, k = pattern.l, pattern.r, pattern.k
    if pattern.kind is PatternKind.FULL:
        return l * l
    if pattern.kind is PatternKind.LOCAL:
        return sum(min(l - 1, i + r) - max(0, i - r) + 1 for i in range(l))
    if pattern.kind is PatternKind.TGLOBAL:
        return l * (2 * r + -(-l // pattern.block))
    return (l - k) * (2 * r + k) + k * l


@settings(max_examples=300, deadline=None)
@given(any_pattern())
@example(prefix_global(1, k=0, r=0))
@example(prefix_global(300, k=300, r=600))
@example(local(300, r=600))
@example(tglobal(300, r=0, block=301))
def test_accounted_pairs_matches_convention_property(pattern):
    assert accounted_pairs(pattern) == convention_pairs(pattern)


@st.composite
def geometry(draw):
    """(l, k, r) of a prefix-global pattern, l up to a little past
    k + r*(r+1)."""
    r = draw(st.integers(0, 16))
    k = draw(st.integers(0, r + 64))
    l = draw(st.integers(max(k, 1), k + r * (r + 1) + 2 * r + 16))
    return l, k, r


class TestConventionVsExact:
    def test_exact_below_convention_at_reference_config(self):
        for l in (1024, 2048, 4096, 8192):
            p = prefix_global(l, k=512, r=127)
            assert mask_nnz(p) < accounted_pairs(p)
        for l in (1024, 4096):
            t = tglobal(l, r=127, block=16)
            assert mask_nnz(t) <= accounted_pairs(t)

    def test_self_term_boundary(self):
        # the convention omits the self key, so past l = k + r*(r+1) the
        # exact count overtakes it; both sides of the boundary pinned here
        k, r = 12, 9
        boundary = k + r * (r + 1)
        below = prefix_global(boundary, k=k, r=r)
        assert mask_nnz(below) <= accounted_pairs(below)
        above = prefix_global(boundary + 1, k=k, r=r)
        assert mask_nnz(above) > accounted_pairs(above)

    # the bound documented in cost.py, over random prefix-global geometries
    # with l drawn on both sides of the boundary k + r*(r+1)
    @settings(max_examples=300, deadline=None)
    @given(geometry())
    @example((16768, 512, 127))  # the reference configuration's boundary
    @example((16769, 512, 127))
    @example((1, 0, 0))
    @example((3, 1, 1))
    @example((4, 1, 1))
    def test_convention_bound_property(self, geometry):
        l, k, r = geometry
        p = prefix_global(l, k=k, r=r)
        assert (mask_nnz(p) <= accounted_pairs(p)) == (l <= k + r * (r + 1))

    def test_local_convention_is_exact(self):
        for l in (1, 9, 64, 300):
            p = local(l, r=7)
            assert accounted_pairs(p) == mask_nnz(p)

    def test_hand_audited_prefix_global_nnz(self):
        # same instance audited row by row in the pattern tests
        assert mask_nnz(prefix_global(16, k=4, r=2)) == 166


class TestReports:
    def test_compare_sorts_by_length_then_pairs(self):
        reports = compare(
            [full(2048), tglobal(1024), prefix_global(2048), full(1024), prefix_global(1024)]
        )
        keys = [(c.pattern.l, c.accounted_pairs) for c in reports]
        assert keys == sorted(keys)
        assert reports[0].pattern.kind.value == "tglobal"

    def test_to_dict_shape(self):
        d = report(prefix_global(1024)).to_dict()
        assert d["accounted_pairs"] == 916_480
        assert d["pattern"] == {"kind": "prefix-global", "l": 1024, "r": 127, "k": 512}
        assert d["mask_nnz"] <= d["accounted_pairs"]
        assert 0 < d["ratio_vs_full"] < 1

    def test_table_layout(self):
        reports = compare(
            [p for l in (1024, 2048, 4096) for p in reference_patterns(l).values()]
        )
        text = render_table(reports)
        lines = text.strip().split("\n")
        assert lines[0].split() == ["Input", "Length", "TGlobal", "Prefix", "Global", "Full"]
        assert len(lines) == 4
        assert "325,632" in lines[1] and "916,480" in lines[1] and "1,048,576" in lines[1]
        assert "782,336" in lines[2] and "2,225,152" in lines[2] and "4,194,304" in lines[2]
        assert "2,088,960" in lines[3] and "4,842,496" in lines[3] and "16,777,216" in lines[3]

    def test_table_marks_missing_cells(self):
        text = render_table(compare([full(8), local(16, r=1)]))
        assert "-" in text


def test_window_total_closed_form_small():
    # l=5, r=1: window sizes 2,3,3,3,2
    assert cost._window_total(5, 1) == 13
    assert cost._window_total(1, 4) == 1


def loop_window_total(n, r):
    return sum(min(n - 1, i + r) - max(0, i - r) + 1 for i in range(n))


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 40])
def test_window_total_matches_loop(n):
    for r in range(0, 2 * n + 3):
        assert cost._window_total(n, r) == loop_window_total(n, r), r


def test_mask_nnz_needs_no_memory_per_token():
    # k*l + (l-k)*k + W(l-k, r) at k=512, r=127; a per-row array would need
    # hundreds of GiB at this length
    assert mask_nnz(prefix_global(10**11)) == 127_899_999_591_040
