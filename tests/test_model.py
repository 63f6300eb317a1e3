"""Core firing rule, configurations, conversions."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from kspm.errors import CapacityError, NotFireable
from kspm.model import (
    SlopeConfig,
    check_grains,
    check_p,
    fire,
    fireable,
    grain_count,
    heights_from_slopes,
    is_stable,
)

slope_lists = st.lists(st.integers(min_value=0, max_value=12), max_size=8)
small_p = st.integers(min_value=1, max_value=5)


def test_canonical_trailing_zeros():
    assert SlopeConfig((2, 1, 0, 0)) == SlopeConfig((2, 1))
    assert SlopeConfig(()).support == 0
    assert SlopeConfig((0, 0)).slopes == ()


def test_rejects_bad_values():
    with pytest.raises(ValueError):
        SlopeConfig((1, -1))
    with pytest.raises(ValueError):
        SlopeConfig((1.5,))
    with pytest.raises(ValueError):
        SlopeConfig((True,))


def test_indexing():
    c = SlopeConfig((3, 0, 1))
    assert c[0] == 3
    assert c[2] == 1
    assert c[99] == 0
    with pytest.raises(ValueError):
        c[-1]
    assert list(c) == [3, 0, 1]
    assert len(c) == 3


def test_check_p():
    with pytest.raises(ValueError):
        check_p(0)
    with pytest.raises(ValueError):
        check_p(-2)
    with pytest.raises(ValueError):
        check_p(2.0)
    assert check_p(7) == 7


def test_fireable_threshold():
    assert fireable(2, SlopeConfig((24,)), 0)
    assert not fireable(2, SlopeConfig((2,)), 0)
    assert fireable(4, SlopeConfig((5,)), 0)
    assert not fireable(4, SlopeConfig((5,)), 1)
    assert not fireable(4, SlopeConfig((5,)), 40)


def test_stable_examples():
    assert is_stable(2, SlopeConfig((2, 1, 2, 1, 2)))
    assert is_stable(3, SlopeConfig(()))
    assert not is_stable(2, SlopeConfig((0, 3)))


def test_fire_column_zero_chain():
    c = fire(2, SlopeConfig((24,)), 0)
    assert c.slopes == (21, 0, 1)
    c = fire(2, c, 0)
    assert c.slopes == (18, 0, 2)


def test_fire_reaches_p_columns_right():
    assert fire(4, SlopeConfig((5,)), 0).slopes == (0, 0, 0, 0, 1)


def test_fire_interior_kicks_left_neighbour():
    out = fire(2, SlopeConfig((0, 7, 0)), 1)
    assert out.slopes == (2, 4, 0, 1)


def test_fire_requires_excess():
    with pytest.raises(NotFireable):
        fire(2, SlopeConfig((2,)), 0)
    with pytest.raises(NotFireable):
        fire(3, SlopeConfig((9,)), 1)


def test_grain_count_values():
    assert grain_count(SlopeConfig(())) == 0
    assert grain_count(SlopeConfig((2, 1, 2, 1, 2))) == 24
    assert grain_count(SlopeConfig((0, 0, 7))) == 21


def test_grain_count_overflow():
    with pytest.raises(OverflowError):
        grain_count(SlopeConfig((2**63,)))


def test_check_grains_limits():
    assert check_grains(0) == 0
    assert check_grains(2**62) == 2**62
    with pytest.raises(CapacityError):
        check_grains(2**62 + 1)
    with pytest.raises(ValueError):
        check_grains(-1)


@given(slope_lists, small_p)
def test_fire_conserves_grains(vals, p):
    c = SlopeConfig(vals)
    for i in range(len(vals)):
        if fireable(p, c, i):
            assert grain_count(fire(p, c, i)) == grain_count(c)


@given(slope_lists, small_p)
def test_fire_locality(vals, p):
    """A firing only touches the column itself, its left neighbour and i+p."""
    c = SlopeConfig(vals)
    for i in range(len(vals)):
        if fireable(p, c, i):
            out = fire(p, c, i)
            for j in range(len(vals) + p + 2):
                if j not in (i - 1, i, i + p):
                    assert out[j] == c[j]
            assert out[i] == c[i] - p - 1
            assert out[i + p] == c[i + p] + 1
            if i > 0:
                assert out[i - 1] == c[i - 1] + p


@given(slope_lists, st.integers(min_value=1, max_value=4))
def test_diamond_property(vals, p):
    """Two distinct fireable columns commute: either order, same result."""
    c = SlopeConfig(vals)
    cols = [i for i in range(len(vals)) if fireable(p, c, i)]
    for a in cols:
        for b in cols:
            if a != b:
                assert fire(p, fire(p, c, a), b) == fire(p, fire(p, c, b), a)


def test_heights_are_suffix_sums():
    assert heights_from_slopes(SlopeConfig((2, 1, 2, 1, 2))) == (8, 6, 5, 3, 2)
    assert heights_from_slopes(SlopeConfig(())) == ()


def test_heights_with_zero_slope_inside():
    # slope 0 between nonzero slopes keeps the height flat, not zero
    assert heights_from_slopes(SlopeConfig((1, 0, 1))) == (2, 1, 1)


@given(slope_lists)
def test_heights_round_trip(vals):
    c = SlopeConfig(vals)
    h = heights_from_slopes(c)
    assert tuple(a - b for a, b in zip(h, h[1:] + (0,))) == c.slopes
