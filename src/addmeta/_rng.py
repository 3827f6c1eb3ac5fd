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


def substream(*keys: int) -> np.random.Generator:
    """Return a generator whose state is a pure function of ``keys``."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence(list(keys))))


def derive_seed(*keys: int) -> int:
    """Collapse ``keys`` into a single 64-bit seed (for nested configs)."""
    high, low = np.random.SeedSequence(list(keys)).generate_state(2, dtype=np.uint32).tolist()
    return high << 32 | low
