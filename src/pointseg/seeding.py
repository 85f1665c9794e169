"""Deterministic RNG streams keyed by mixed integer/string labels.

Every random draw in the package goes through :func:`keyed_rng`, so a stream
is pinned down by *what it is for* (seed, purpose label, sample id, iteration)
rather than by call order. Strings are folded to seed words via SHA-256, which
is stable across platforms and Python hash randomization.
"""

from __future__ import annotations

import hashlib

import numpy as np

from .errors import InvalidConfigError


def seed_words(*parts) -> list:
    """Flatten ints and strings into a list of nonnegative seed integers."""
    words = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            if part < 0:
                raise InvalidConfigError(f"seed must be nonnegative, got {int(part)}")
            words.append(int(part))
        else:
            digest = hashlib.sha256(str(part).encode("utf-8")).digest()
            words.extend(
                int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4)
            )
    return words


def keyed_rng(*parts) -> np.random.Generator:
    """Generator seeded by the given key parts; same key, same stream."""
    return np.random.default_rng(seed_words(*parts))
