"""Stream derivation: the keys fix each stream, pinned as SeedSequence and SFC64 make it."""

import pytest

from addmeta._rng import derive_seed, substream


def test_substream_draws_are_pinned():
    # the stream of a bias-study replicate's inner fits (tag MC_INNER, replicate 5)
    assert substream(20270405, 203, 5, 0).integers(0, 2**63, 4).tolist() == [
        4235348277345125969, 76782857238875739, 8529254572816753333, 6650341419126809496,
    ]


def test_derive_seed_is_pinned():
    # a key wider than 64 bits, as the effect command's study keys are
    assert derive_seed(7, 401, 2**80 + 3) == 8413544841944818495


def test_negative_and_non_integer_keys_are_refused():
    with pytest.raises(ValueError):
        substream(1, -1)
    with pytest.raises(TypeError):
        derive_seed(1, 2.0)
