"""Deterministic RNG streams keyed by mixed integer/string labels.

Every random draw in the package goes through :func:`keyed_rng`, so a stream
is pinned down by *what it is for* (seed, purpose label, sample id, iteration)
rather than by call order. Strings are folded to seed words via SHA-256, which
is stable across platforms and Python hash randomization; each distinct label
is hashed once, its words kept in a cache of fixed size. A key whose words all
lie below 2**32 seeds numpy's SeedSequence as one uint32 array, which numpy
reads at once rather than word by word from a list; a larger word keeps the
list, which SeedSequence splits into 32-bit words itself. Either way the
stream is the one ``np.random.default_rng(seed_words(*parts))`` gives.
"""

from __future__ import annotations

import functools
import hashlib

import numpy as np

from .errors import InvalidConfigError


@functools.lru_cache(maxsize=4096)  # the 4096 labels used last; an older one is hashed again
def _label_words(label: str) -> tuple:
    """The four little-endian 32-bit words of the SHA-256 digest of `label`."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return tuple(int.from_bytes(digest[i : i + 4], "little") for i in range(0, 16, 4))


def seed_words(*parts) -> list:
    """Flatten ints and strings into a new list of nonnegative seed integers."""
    words = []
    for part in parts:
        if isinstance(part, (int, np.integer)):
            if part < 0:
                raise InvalidConfigError(f"seed must be nonnegative, got {int(part)}")
            words.append(int(part))
        else:
            words.extend(_label_words(str(part)))
    return words


def keyed_rng(*parts) -> np.random.Generator:
    """Generator seeded by the given key parts; same key, same stream.

    The stream is that of ``np.random.default_rng(seed_words(*parts))``: a
    PCG64 seeded from a SeedSequence over the key's words, passed as one
    uint32 array when every word fits 32 bits and as the list otherwise.
    """
    words = seed_words(*parts)
    key = np.array(words, dtype=np.uint32) if max(words, default=0) < 1 << 32 else words
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(key)))
