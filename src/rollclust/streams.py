"""Named reproducible random streams.

Every piece of randomness in the package flows from a root integer seed
through a named sub-stream, so results never depend on evaluation order.
Seeds are derived with blake2b over the root and the stream name parts;
a loop over many streams that share a name prefix hashes it once and
extends a copy per stream (seed_prefix, prefixed_seed).
"""

from __future__ import annotations

import hashlib
import random

_MASK64 = (1 << 64) - 1


def _update(h, parts):
    """Feed name parts to a blake2b state. Each part is tagged and of fixed
    or prefixed length, so distinct part tuples feed distinct bytes."""
    for part in parts:
        if isinstance(part, int):
            h.update(b"i" + part.to_bytes(16, "little", signed=True))
        else:
            data = str(part).encode("utf-8")
            h.update(b"s" + len(data).to_bytes(4, "little") + data)
    return h


def seed_prefix(root: int, *parts):
    """The blake2b state of the stream named by parts; prefixed_seed
    extends a copy of it, so a loop hashes a shared prefix only once."""
    return _update(hashlib.blake2b((root & _MASK64).to_bytes(8, "little"), digest_size=8), parts)


def prefixed_seed(prefix, *parts) -> int:
    """derive_seed(root, *prefix_parts, *parts) for prefix = seed_prefix(root, *prefix_parts)."""
    return int.from_bytes(_update(prefix.copy(), parts).digest(), "little")


def derive_seed(root: int, *parts) -> int:
    """Derive a 64-bit sub-stream seed from a root seed and name parts.

    Parts may be ints or strings; distinct part tuples give independent
    streams for all practical purposes.
    """
    return int.from_bytes(seed_prefix(root, *parts).digest(), "little")


def make_rng(root: int, *parts) -> random.Random:
    """A fresh random.Random on the sub-stream named by parts."""
    return random.Random(derive_seed(root, *parts))
