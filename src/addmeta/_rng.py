"""Deterministic random-stream derivation.

Every stochastic routine in this package draws from a generator obtained
through :func:`substream`, keyed by the user seed plus a fixed stream tag
and structural indices (replicate, study id).  A stream is therefore a
pure function of its keys: results do not depend on execution order or on
how work is split across workers.  Generators run numpy's SFC64 bit
generator, which draws normals and gammas faster than its default PCG64.
"""

from __future__ import annotations

import numpy as np

# Stream tags.  Values are arbitrary but frozen: changing them changes
# every seeded result in the package.
SIM_DRAWS = 101
MC_PARAMS = 201
MC_DATA = 202
MC_INNER = 203
EFFECT_STUDY = 401


def _entropy(keys) -> np.ndarray:
    """``keys`` as the uint32 words SeedSequence makes of ``list(keys)``.

    Each key becomes its little-endian 32-bit words (0 is one word), and
    the words are concatenated; SeedSequence builds the same pool from them
    in about half the time it takes from the list.
    """
    words = []
    for key in keys:
        if key < 0:
            raise ValueError("expected non-negative integer")
        words.append(key & 0xFFFFFFFF)
        while key > 0xFFFFFFFF:
            key >>= 32
            words.append(key & 0xFFFFFFFF)
    return np.array(words, dtype=np.uint32)


def substream(*keys: int) -> np.random.Generator:
    """Return a generator whose state is a pure function of ``keys``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(entropy=_entropy(keys))))


def derive_seed(*keys: int) -> int:
    """Collapse ``keys`` into a single 64-bit seed (for nested configs)."""
    high, low = np.random.SeedSequence(entropy=_entropy(keys)).generate_state(2, dtype=np.uint32).tolist()
    return high << 32 | low
