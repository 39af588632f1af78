"""Named reproducible random streams.

Every piece of randomness in the package flows from a root integer seed
through a named sub-stream, so results never depend on evaluation order.
Seeds are derived with blake2b over the root and the stream name parts;
a loop over many streams that share a name prefix hashes it once and
extends a copy per stream with the pre-encoded rest of each name
(seed_prefix, encode_part, extended_seed).
"""

from __future__ import annotations

import hashlib
import random

_MASK64 = (1 << 64) - 1


def encode_part(part) -> bytes:
    """The bytes a name part feeds the stream hash. Each part is tagged and
    of fixed or prefixed length, so distinct part tuples feed distinct bytes."""
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    data = str(part).encode("utf-8")
    return b"s" + len(data).to_bytes(4, "little") + data


def seed_prefix(root: int, *parts):
    """The blake2b state of the stream named by parts; extended_seed
    extends a copy of it, so a loop hashes a shared prefix only once."""
    data = (root & _MASK64).to_bytes(8, "little") + b"".join(map(encode_part, parts))
    return hashlib.blake2b(data, digest_size=8)


def extended_seed(prefix, data: bytes) -> int:
    """derive_seed(root, *prefix_parts, *parts) for prefix =
    seed_prefix(root, *prefix_parts) and data the encode_part bytes of
    parts, joined; a loop can encode each recurring part once."""
    h = prefix.copy()
    h.update(data)
    return int.from_bytes(h.digest(), "little")


def derive_seed(root: int, *parts) -> int:
    """Derive a 64-bit sub-stream seed from a root seed and name parts.

    Parts may be ints or strings; distinct part tuples give independent
    streams for all practical purposes.
    """
    return int.from_bytes(seed_prefix(root, *parts).digest(), "little")


def make_rng(root: int, *parts) -> random.Random:
    """A fresh random.Random on the sub-stream named by parts."""
    return random.Random(derive_seed(root, *parts))
