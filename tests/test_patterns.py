"""Mask construction checked against a set-union oracle and hand-audited rows."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from prefix_global import patterns
from prefix_global.kernel import block_average
from prefix_global.numcore import MASKED
from prefix_global.patterns import (
    AttentionMask,
    AttentionPattern,
    PatternError,
    PatternKind,
    build_mask,
    full,
    local,
    prefix_global,
    render_csv,
    render_pgm,
    tglobal,
)


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
        assert mask.side_keys == 2
        assert mask.n_keys == 34
        assert mask.rows[0].tolist() == [0, 1, 32, 33]
        assert mask.rows[31].tolist() == [30, 31, 32, 33]
        assert mask.nnz() == 94 + 64

    def test_tglobal_ragged_final_block(self):
        # l=33, block=16 -> 3 side keys, the last covering a single token
        mask = build_mask(tglobal(33, r=0, block=16))
        assert mask.side_keys == 3
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
    ], ids=["full_l", "local_l", "local_r_true", "local_r_false", "tglobal_block",
            "prefix_k_false", "prefix_k_true", "prefix_all"])
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
        assert grid.shape == (mask.n_queries, mask.n_keys)
        for i, row in enumerate(mask.rows):
            assert np.flatnonzero(grid[i]).tolist() == row.tolist()
        assert int(grid.sum()) == mask.nnz()

    def test_csv_round_trip(self):
        mask = build_mask(prefix_global(16, k=4, r=2))
        text = render_csv(mask)
        parsed = np.array(
            [[int(c) for c in line.split(",")] for line in text.strip().split("\n")]
        )
        assert np.array_equal(parsed, mask.to_grid())

    def test_pgm_round_trip(self):
        mask = build_mask(tglobal(32, r=1, block=16))
        text = render_pgm(mask)
        lines = text.strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "34 32"
        assert lines[2] == "1"
        parsed = np.array([[int(c) for c in line.split()] for line in lines[3:]])
        assert np.array_equal(parsed, mask.to_grid())

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
        assert mask.side_keys == pattern.side_keys
        assert mask.n_keys == pattern.l + pattern.side_keys
    # the count cannot be given apart from the pattern
    local4 = patterns.local(4, r=1)
    with pytest.raises(TypeError):
        AttentionMask(local4, build_mask(local4).rows, 3)
