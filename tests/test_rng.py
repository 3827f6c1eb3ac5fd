"""Stream derivation: keys passed as uint32 words give the streams of the list form, on SFC64."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from addmeta._rng import derive_seed, substream

KEYS = st.lists(st.integers(0, 2**80), min_size=1, max_size=6)


@settings(max_examples=300, deadline=None)
@example(keys=[0])
@example(keys=[2**32 - 1, 2**32, 0])
@example(keys=[2**64, 0, 7])
@given(keys=KEYS)
def test_substream_draws_equal_the_list_entropy_stream(keys):
    expected = np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=keys)))
    np.testing.assert_array_equal(substream(*keys).integers(0, 2**63, 8), expected.integers(0, 2**63, 8))


@settings(max_examples=300, deadline=None)
@example(keys=[0, 0, 0])
@example(keys=[2**32 - 1, 2**32])
@example(keys=[2**80, 1])
@given(keys=KEYS)
def test_derive_seed_equals_the_list_entropy_seed(keys):
    high, low = np.random.SeedSequence(entropy=keys).generate_state(2, dtype=np.uint32)
    assert derive_seed(*keys) == int(high) << 32 | int(low)


def test_negative_and_non_integer_keys_are_refused():
    with pytest.raises(ValueError):
        substream(1, -1)
    with pytest.raises(TypeError):
        derive_seed(1, 2.0)
