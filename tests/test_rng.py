"""Stream derivation: the keys fix each stream, pinned as SeedSequence and SFC64 make it."""

import pytest

from addmeta._rng import derive_seed, substream


def test_substream_draws_are_pinned():
    # the stream of a bias-study replicate's inner fits (tag MC_INNER, replicate 5)
    assert substream(20270405, 203, 5, 0).integers(0, 2**63, 4).tolist() == [
        4235348277345125969, 76782857238875739, 8529254572816753333, 6650341419126809496,
    ]


def test_substream_distributions_are_pinned():
    # every stream-bound file in tests/data was written with numpy 2.4.6: a numpy
    # whose normals, gammas or uniforms differ from its fails here first.  The
    # gamma is an inner fit's SSE draw for a group of n = 15 with SD 2, in
    # draw_fits' form: shape (n - 1)/2, scale 2*sd**2
    key = (20270405, 203, 5, 0)
    assert substream(*key).standard_normal(3).tolist() == [
        1.2016876847655735, 0.1295418695404151, -0.5549042227937082,
    ]
    assert substream(*key).gamma((15 - 1) / 2, 2 * 2.0**2, 3).tolist() == [
        82.20523077414316, 42.672789850094595, 78.52480254737875,
    ]
    assert substream(*key).random(3).tolist() == [
        0.45919738035303237, 0.008324814062803276, 0.9247436337529846,
    ]


def test_derive_seed_is_pinned():
    # a key wider than 64 bits, as the effect command's study keys are
    assert derive_seed(7, 401, 2**80 + 3) == 8413544841944818495


def test_negative_and_non_integer_keys_are_refused():
    with pytest.raises(ValueError):
        substream(1, -1)
    with pytest.raises(TypeError):
        derive_seed(1, 2.0)
