"""Deterministic, labelled random streams.

Every stochastic component draws from its own named stream so that
changing how often one consumer draws (say, metric snapshots) cannot
shift the values seen by another (say, the training batches).
"""
from __future__ import annotations

import zlib

import numpy as np

from .errors import ConfigError


def _sequence(seed: int, labels) -> np.random.SeedSequence:
    """``SeedSequence((seed,) + label CRCs)``, handed its entropy as the uint32 words it uses.

    ``SeedSequence`` splits an integer into 32-bit words, low word first
    (``0`` is one word); each CRC-32 is one word.  Passing those words as
    one uint32 array skips its per-integer conversion and gives the same
    pool, so the same streams.
    """
    seed = int(seed)
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")
    words = [seed & 0xFFFFFFFF]
    while seed > 0xFFFFFFFF:
        seed >>= 32
        words.append(seed & 0xFFFFFFFF)
    words.extend(zlib.crc32(str(label).encode("utf8")) for label in labels)
    return np.random.SeedSequence(np.array(words, dtype=np.uint32))


def stream_rng(seed: int, *labels) -> np.random.Generator:
    """Generator for the stream identified by ``(seed, labels)``."""
    return np.random.default_rng(_sequence(seed, labels))


def derive_seed(seed: int, *labels) -> int:
    """Stable integer seed derived from ``(seed, labels)``."""
    return int(_sequence(seed, labels).generate_state(1, np.uint64)[0])
