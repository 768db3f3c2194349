"""Mask construction checked against a set-union oracle and hand-audited rows."""

import enum
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefix_global import cost, patterns
from prefix_global.kernel import block_average
from prefix_global.numcore import MASKED
from prefix_global.patterns import (
    AttentionMask,
    AttentionPattern,
    PatternError,
    PatternKind,
    build_mask,
    full,
    grid_lines,
    local,
    prefix_global,
    tglobal,
)


class _Four(enum.IntEnum):
    FOUR = 4


def oracle_key_set(pattern, i):
    """Definition-level enumeration of the keys query i may attend to."""
    l, r, k = pattern.l, pattern.r, pattern.k
    if pattern.kind is PatternKind.FULL:
        return set(range(l))
    keys = {j for j in range(l) if abs(i - j) <= r}
    if pattern.kind is PatternKind.TGLOBAL:
        keys |= {l + t for t in range(pattern.side_keys)}
    elif pattern.kind is PatternKind.PREFIX_GLOBAL:
        if i < k:
            keys = set(range(l))
        else:
            keys |= set(range(k))
    return keys


def sample_patterns():
    out = []
    for l in (1, 2, 5, 16, 33):
        out.append(full(l))
        for r in (0, 1, 3):
            out.append(local(l, r=r))
            out.append(tglobal(l, r=r, block=4))
            for k in (0, 1, min(4, l), l):
                out.append(prefix_global(l, k=k, r=r))
    out.append(tglobal(32, r=1, block=16))
    out.append(prefix_global(16, k=4, r=2))
    return out


@pytest.mark.parametrize("pattern", sample_patterns(), ids=lambda p: str(p.describe()))
def test_rows_match_set_oracle(pattern):
    mask = build_mask(pattern)
    assert len(mask.rows) == pattern.l
    for i, row in enumerate(mask.rows):
        got = row.tolist()
        assert got == sorted(got), f"row {i} not sorted"
        assert len(set(got)) == len(got), f"row {i} has duplicates"
        assert set(got) == oracle_key_set(pattern, i), f"row {i} wrong"


@st.composite
def any_pattern(draw):
    """A pattern of any kind with l in [1, 80], r in [0, 2l], k in [0, l] and
    block in [1, l + 1]."""
    l = draw(st.integers(1, 80))
    return AttentionPattern(draw(st.sampled_from(PatternKind)), l, r=draw(st.integers(0, 2 * l)),
                            k=draw(st.integers(0, l)), block=draw(st.integers(1, l + 1)))


@settings(max_examples=300, deadline=None)
@given(any_pattern())
@example(prefix_global(40, k=0, r=3))
@example(prefix_global(40, k=40, r=3))
@example(prefix_global(9, k=3, r=9))
@example(local(9, r=20))
@example(tglobal(9, r=9, block=2))
@example(full(1))
@example(local(1, r=0))
@example(tglobal(1, r=0, block=1))
@example(prefix_global(1, k=0, r=0))
@example(prefix_global(1, k=1, r=2))
@example(tglobal(7, r=1, block=8))
def test_rows_match_set_oracle_property(pattern):
    mask = build_mask(pattern)
    assert len(mask.rows) == pattern.l
    for i, row in enumerate(mask.rows):
        got = row.tolist()
        assert got == sorted(got), f"row {i} not sorted"
        assert len(set(got)) == len(got), f"row {i} has duplicates"
        assert i in got, f"row {i} lacks its own key"
        assert set(got) == oracle_key_set(pattern, i), f"row {i} wrong"


def oracle_part_bounds(pattern, i):
    """Row i's parts by the key-set rule: the maximal runs of consecutive
    token keys, then the side keys as one part."""
    l = pattern.l
    runs = []
    for j in sorted(j for j in oracle_key_set(pattern, i) if j < l):
        if runs and runs[-1][1] == j:
            runs[-1][1] = j + 1
        else:
            runs.append([j, j + 1])
    return [tuple(run) for run in runs] + ([(l, pattern.n_keys)] if pattern.side_keys else [])


@settings(max_examples=300, deadline=None)
@given(any_pattern())
@example(full(1))
@example(local(1, r=0))
@example(tglobal(1, r=3, block=1))
@example(prefix_global(1, k=0, r=1))
@example(prefix_global(1, k=1, r=0))
@example(local(5, r=9))
@example(prefix_global(40, k=0, r=3))
@example(prefix_global(40, k=40, r=3))
@example(prefix_global(257, k=3, r=2))
@example(prefix_global(300, k=40, r=400))  # no row sees its whole window
@example(tglobal(300, r=9, block=7))
@example(local(128, r=0))
def test_row_parts_match_the_key_set_rule(pattern):
    # whole-window rows come from a sliding view and clipped rows one at a
    # time; either way a row is its 1-3 runs, each a read-only int64 slice
    # of the one arange, found at 8 bytes per key from key 0
    parts = build_mask(pattern).rows.parts
    assert len(parts) == pattern.l
    assert parts[0][0][0] == 0
    key0 = parts[0][0].__array_interface__["data"][0]
    for i, row in enumerate(parts):
        assert [(int(p[0]), int(p[-1]) + 1) for p in row] == oracle_part_bounds(pattern, i), f"row {i}"
        for part in row:
            assert type(part) is np.ndarray and part.dtype == np.int64 and part.ndim == 1
            assert not part.flags.writeable
            assert part.strides == (8,) and part.__array_interface__["data"][0] == key0 + 8 * int(part[0])


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 60).flatmap(lambda l: st.tuples(st.just(l), st.integers(0, 2 * l))))
@example((1, 0))
@example((40, 3))
def test_prefix_global_at_k_l_is_full_and_at_k_0_is_local(l_and_r):
    # the key-set rule's two identities, checked against the definitions
    # of full and local attention, not against the rule itself
    l, r = l_and_r
    for pg, other in ((prefix_global(l, k=l, r=r), full(l)), (prefix_global(l, k=0, r=r), local(l, r=r))):
        want = [sorted(oracle_key_set(other, i)) for i in range(l)]
        assert [row.tolist() for row in build_mask(pg).rows] == want
        assert [row.tolist() for row in build_mask(other).rows] == want
        assert cost.mask_nnz(pg) == cost.mask_nnz(other) == sum(map(len, want))


@pytest.mark.parametrize("pattern", sample_patterns(), ids=lambda p: str(p.describe()))
def test_no_degenerate_rows_and_self_always_present(pattern):
    mask = build_mask(pattern)
    for i, row in enumerate(mask.rows):
        assert row.size >= 1
        assert i in row  # r >= 0 keeps every query in its own window


class TestHandAuditedRows:
    def test_prefix_global_16_4_2(self):
        # worked by hand: prefix rows see all 16 keys; row 10 sees the prefix
        # plus its radius-2 window; total nonzeros 166
        mask = build_mask(prefix_global(16, k=4, r=2))
        for i in range(4):
            assert mask.rows[i].tolist() == list(range(16))
        assert mask.rows[10].tolist() == [0, 1, 2, 3, 8, 9, 10, 11, 12]
        assert mask.rows[4].tolist() == [0, 1, 2, 3, 4, 5, 6]
        assert mask.rows[15].tolist() == [0, 1, 2, 3, 13, 14, 15]
        assert mask.nnz() == 166

    def test_tglobal_32_1_16(self):
        mask = build_mask(tglobal(32, r=1, block=16))
        assert mask.pattern.side_keys == 2
        assert mask.pattern.n_keys == 34
        assert mask.rows[0].tolist() == [0, 1, 32, 33]
        assert mask.rows[31].tolist() == [30, 31, 32, 33]
        assert mask.nnz() == 94 + 64

    def test_tglobal_ragged_final_block(self):
        # l=33, block=16 -> 3 side keys, the last covering a single token
        mask = build_mask(tglobal(33, r=0, block=16))
        assert mask.pattern.side_keys == 3
        assert mask.rows[5].tolist() == [5, 33, 34, 35]

    def test_full_is_all_ones(self):
        mask = build_mask(full(5))
        assert mask.nnz() == 25
        assert mask.to_grid().all()

    def test_prefix_global_k_equals_l_is_full(self):
        a = build_mask(prefix_global(7, k=7, r=1)).to_grid()
        b = build_mask(full(7)).to_grid()
        assert np.array_equal(a, b)

    def test_prefix_global_k_zero_is_local(self):
        a = build_mask(prefix_global(9, k=0, r=2)).to_grid()
        b = build_mask(local(9, r=2)).to_grid()
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pattern, rows", [
    (full(6), (0, 5)),
    (local(6, r=1), (0, 3, 5)),
    (prefix_global(12, k=3, r=2), (0, 4)),  # a global row, and a window that touches the prefix
    (tglobal(6, r=1, block=4), (0, 3, 5)),  # every row joins its window and the side keys
    # a window past the prefix joins the prefix keys and the window
    pytest.param(prefix_global(8, k=2, r=1), (4, 5, 7), id="prefix-global-past-window"),
], ids=lambda p: getattr(p, "kind", "rows"))
def test_shared_rows_are_read_only(pattern, rows):
    mask = build_mask(pattern)
    for i in rows:
        with pytest.raises(ValueError):
            mask.rows[i][-1] = 99
    assert [row.tolist() for row in mask.rows] == [row.tolist() for row in build_mask(pattern).rows]


@settings(max_examples=200, deadline=None)
@given(any_pattern())
def test_nnz_grid_and_indexing_agree_with_rows(pattern):
    # nnz and to_grid read each row's stored parts; readers see the joined rows
    mask = build_mask(pattern)
    rows = [row.tolist() for row in mask.rows]
    assert mask.nnz() == sum(row.size for row in mask.rows)
    grid = mask.to_grid()
    assert grid.shape == (pattern.l, pattern.n_keys)
    for i, row in enumerate(rows):
        assert np.flatnonzero(grid[i]).tolist() == row
        assert mask.rows[i - pattern.l].tolist() == row
    assert mask.rows[-1].tolist() == mask.rows[pattern.l - 1].tolist()
    assert [row.tolist() for row in mask.rows[1:-1]] == rows[1:-1]


def test_masks_compare_by_pattern_and_rows():
    a, b = build_mask(local(300, r=2)), build_mask(local(300, r=2))
    assert a == b
    assert hash(a) == hash(b)
    assert len({a, b}) == 1
    assert a != build_mask(local(300, r=3))
    # the same rows under another pattern
    assert a != build_mask(prefix_global(300, k=0, r=2))


def test_a_mask_is_not_equal_to_another_type():
    assert build_mask(local(4, r=1)) != "mask"


def _traced_peak(pattern):
    tracemalloc.start()
    try:
        build_mask(pattern)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_shared_keys_are_stored_once_per_mask():
    # local's rows are all slices of one arange; tglobal's side keys and
    # prefix-global's first k keys are one slice per mask, so neither mask
    # should take much more than local's. A copy of them in every row takes
    # over 20 times as much at l=4096.
    base = _traced_peak(local(4096))
    assert _traced_peak(tglobal(4096)) <= 2 * base
    assert _traced_peak(prefix_global(4096)) <= 2 * base


class TestValidation:
    def test_l_must_be_positive(self):
        for bad in (0, -3, 1.5, "8"):
            with pytest.raises(PatternError):
                AttentionPattern(PatternKind.FULL, bad)

    def test_negative_radius(self):
        with pytest.raises(PatternError):
            local(8, r=-1)

    def test_prefix_out_of_range(self):
        with pytest.raises(PatternError):
            prefix_global(8, k=9, r=1)
        with pytest.raises(PatternError):
            prefix_global(8, k=-1, r=1)

    def test_block_must_be_positive(self):
        with pytest.raises(PatternError):
            tglobal(8, r=1, block=0)

    def test_unknown_kind(self):
        # the enum's own ValueError is not the PatternError callers catch
        with pytest.raises(PatternError, match="prefix-global"):
            AttentionPattern("diagonal", 8)

    @pytest.mark.parametrize("make", [
        lambda: full(True),
        lambda: local(True, r=0),
        lambda: local(8, r=True),
        lambda: local(8, r=False),
        lambda: tglobal(8, r=1, block=True),
        lambda: prefix_global(8, k=False, r=1),
        lambda: prefix_global(8, k=True, r=1),
        lambda: prefix_global(True, k=False, r=True),
        # an int subclass other than bool is refused too: every int parameter is an exact int
        lambda: full(_Four.FOUR),
        lambda: local(_Four.FOUR, r=0),
        lambda: local(8, r=_Four.FOUR),
        lambda: tglobal(_Four.FOUR, r=1),
        lambda: tglobal(8, r=_Four.FOUR),
        lambda: tglobal(8, r=1, block=_Four.FOUR),
        lambda: prefix_global(_Four.FOUR, k=0, r=1),
        lambda: prefix_global(8, k=1, r=_Four.FOUR),
        lambda: prefix_global(8, k=_Four.FOUR, r=1),
    ], ids=["full_l", "local_l", "local_r_true", "local_r_false", "tglobal_block",
            "prefix_k_false", "prefix_k_true", "prefix_all",
            "full_l_intenum", "local_l_intenum", "local_r_intenum", "tglobal_l_intenum",
            "tglobal_r_intenum", "tglobal_block_intenum", "prefix_l_intenum", "prefix_r_intenum",
            "prefix_k_intenum"])
    def test_bool_is_not_an_int(self, make):
        with pytest.raises(PatternError):
            make()

    @pytest.mark.parametrize("block", [True, False, 2.5, 2.0, "2"])
    def test_block_average_refuses_a_non_int_block(self, block):
        # at block=True it averaged with a block of 1; at 2.5 numpy raised a TypeError
        with pytest.raises(PatternError):
            block_average(np.ones((4, 2)), block)

    def test_irrelevant_params_are_cleared(self):
        p = AttentionPattern(PatternKind.FULL, 8, r=3, k=2, block=4)
        assert (p.r, p.k, p.block) == (None, None, None)
        q = local(8, r=2)
        assert (q.k, q.block) == (None, None)

    def test_defaults(self):
        p = prefix_global(1024)
        assert (p.k, p.r) == (512, 127)
        t = tglobal(1024)
        assert (t.r, t.block) == (127, 16)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 2048), st.sampled_from(list(PatternKind)))
    @example(300, PatternKind.PREFIX_GLOBAL)
    def test_unset_parameters_have_one_default(self, l, kind):
        # an unset k is the paper's prefix of at most 512 slots, and at most the
        # sequence; a factory given no parameters fills nothing itself
        assert prefix_global(l).k == min(512, l)
        factory = {PatternKind.FULL: full, PatternKind.LOCAL: local, PatternKind.TGLOBAL: tglobal,
                   PatternKind.PREFIX_GLOBAL: prefix_global}[kind]
        assert factory(l) == AttentionPattern(kind, l)

    def test_a_given_k_above_l_is_refused_not_capped(self):
        with pytest.raises(PatternError, match="got 512"):
            prefix_global(300, k=512)

    def test_describe_omits_unused(self):
        assert full(4).describe() == {"kind": "full", "l": 4}
        assert prefix_global(16, k=4, r=2).describe() == {
            "kind": "prefix-global",
            "l": 16,
            "r": 2,
            "k": 4,
        }


class TestRendering:
    @pytest.mark.parametrize(
        "pattern", [full(6), local(6, r=1), tglobal(10, r=2, block=4), prefix_global(12, k=3, r=2)],
        ids=lambda p: p.kind.value,
    )
    def test_grid_round_trips_rows(self, pattern):
        mask = build_mask(pattern)
        grid = mask.to_grid()
        assert grid.shape == (pattern.l, pattern.n_keys)
        for i, row in enumerate(mask.rows):
            assert np.flatnonzero(grid[i]).tolist() == row.tolist()
        assert int(grid.sum()) == mask.nnz()

    def test_csv_round_trip(self):
        mask = build_mask(prefix_global(16, k=4, r=2))
        text = "".join(grid_lines(mask, "csv"))
        parsed = np.array(
            [[int(c) for c in line.split(",")] for line in text.strip().split("\n")]
        )
        assert np.array_equal(parsed, mask.to_grid())

    def test_pgm_round_trip(self):
        mask = build_mask(tglobal(32, r=1, block=16))
        text = "".join(grid_lines(mask, "pgm"))
        lines = text.strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "34 32"
        assert lines[2] == "1"
        parsed = np.array([[int(c) for c in line.split()] for line in lines[3:]])
        assert np.array_equal(parsed, mask.to_grid())

    def test_grid_lines_refuses_an_unknown_format(self):
        with pytest.raises(ValueError, match="csv"):
            next(grid_lines(build_mask(full(2)), "summary"))

    def test_additive_mask_values(self):
        mask = build_mask(local(4, r=0))
        add = mask.to_additive()
        assert add[0, 0] == 0.0
        assert add[0, 1] == MASKED
        assert add.shape == (4, 4)
        assert np.isfinite(add).all()


def test_side_keys_property():
    assert tglobal(1024, block=16).side_keys == 64
    assert tglobal(17, block=16).side_keys == 2
    assert tglobal(16, block=16).side_keys == 1
    assert full(64).side_keys == 0
    assert patterns.local(64, r=2).side_keys == 0


def test_mask_side_keys_are_its_patterns():
    for pattern in (tglobal(33, r=1, block=16), patterns.local(4, r=1), prefix_global(8, k=2, r=1)):
        mask = build_mask(pattern)
        assert mask.pattern.n_keys == pattern.l + pattern.side_keys
        assert mask.to_grid().shape == (pattern.l, pattern.l + pattern.side_keys)
    # the count cannot be given apart from the pattern
    local4 = patterns.local(4, r=1)
    with pytest.raises(TypeError):
        AttentionMask(local4, build_mask(local4).rows, 3)
