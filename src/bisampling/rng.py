"""Seedable deterministic random streams with stable substreams.

Substreams are derived from an integer key tuple via ``SeedSequence``, so
each trial or realisation draws from its own stream that depends only on
(seed, index), and seeded outputs do not depend on the order in which the
trials run.
"""

from __future__ import annotations

import numbers

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF


def _normalize(value: int) -> int:
    # SeedSequence needs unsigned 64-bit entropy; int(1.5) would change the seed
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"a seed must be an integer, got {value!r}")
    return int(value) & _MASK64


def stream(seed: int) -> np.random.Generator:
    """Root generator for ``seed``: the substream with no key."""
    return substream(seed)


def substream(seed: int, *key: int) -> np.random.Generator:
    """Generator for the substream identified by ``(seed, *key)``."""
    entropy = (_normalize(seed),) + tuple(_normalize(k) for k in key)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def derive_seed(seed: int, *key: int) -> int:
    """Stable 64-bit integer seed derived from ``(seed, *key)``."""
    entropy = (_normalize(seed),) + tuple(_normalize(k) for k in key)
    return int(np.random.SeedSequence(entropy).generate_state(1, np.uint64)[0])
