import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtjbist.bits import random_patterns, unpack
from oracles import pattern_bits


@st.composite
def patterns_of_width(draw):
    width = draw(st.integers(1, 130))
    return width, draw(st.lists(st.integers(0, (1 << width) - 1), max_size=8))


@settings(max_examples=150, deadline=None)
@given(patterns_of_width())
def test_unpack_equals_the_shift_oracle(case):
    width, values = case
    bits = unpack(values, width)
    assert bits.dtype == np.uint8
    assert bits.shape == (len(values), width)
    assert bits.tolist() == pattern_bits(values, width)
    if width <= 63:
        assert unpack(np.array(values, dtype=np.int64), width).tolist() == pattern_bits(values, width)


@pytest.mark.parametrize("width", [1, 8, 63, 64, 130])
def test_unpack_of_no_patterns_is_empty(width):
    assert unpack([], width).shape == (0, width)
    assert unpack(np.array([], dtype=np.int64), width).shape == (0, width)


@settings(max_examples=100, deadline=None)
@given(patterns_of_width(), st.data())
def test_unpack_rejects_negative_and_too_wide_patterns_naming_the_width(case, data):
    width, values = case
    bad = data.draw(st.one_of(st.integers(-(1 << 70), -1), st.integers(1 << width, 1 << (width + 70))))
    values.insert(data.draw(st.integers(0, len(values))), bad)
    message = f"^value {re.escape(f'{bad:#x}')} does not fit in {width} bits$"
    with pytest.raises(ValueError, match=message):
        unpack(values, width)
    if width <= 63 and -(1 << 63) <= bad < 1 << 63:
        with pytest.raises(ValueError, match=message):
            unpack(np.array(values, dtype=np.int64), width)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 63), st.sampled_from([None, 0, 1, 7, (2, 3)]), st.integers(0, 2**32))
def test_random_patterns_are_the_generators_integers(width, size, seed):
    drawn = random_patterns(np.random.default_rng(seed), width, size)
    expected = np.random.default_rng(seed).integers(0, 1 << width, size=size)
    assert type(drawn) is type(expected)
    assert np.array_equal(drawn, expected)


@settings(max_examples=30, deadline=None)
@given(st.integers(64, 300), st.integers(0, 2**32))
def test_random_patterns_wider_than_63_bits_raise_before_drawing(width, seed):
    rng = np.random.default_rng(seed)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match=f"^width = {width}: random patterns take at most 63 bits$"):
        random_patterns(rng, width, 4)
    with pytest.raises(ValueError, match=f"^crc.data_width = {width}: "):
        random_patterns(rng, width, name="crc.data_width")
    assert rng.bit_generator.state == state
