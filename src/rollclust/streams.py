"""Named reproducible random streams.

Every piece of randomness in the package flows from a root integer seed
through a named sub-stream, so results never depend on evaluation order.
A stream's name is the root and its name parts, encoded to bytes; a
64-bit sub-stream seed is the blake2b digest of those bytes
(derive_seed), and a run of uniform 64-bit words is their shake_128
digest, read little-endian (uniform_words).
"""

from __future__ import annotations

import hashlib
import random
import sys
from array import array

_MASK64 = (1 << 64) - 1


def encode_part(part) -> bytes:
    """The bytes a name part feeds the stream hash. Each part is tagged and
    of fixed or prefixed length, so distinct part tuples feed distinct bytes."""
    if isinstance(part, int):
        return b"i" + part.to_bytes(16, "little", signed=True)
    data = str(part).encode("utf-8")
    return b"s" + len(data).to_bytes(4, "little") + data


def stream_name(root: int, *parts) -> bytes:
    """The bytes that name the stream (root, *parts) to its hash."""
    return (root & _MASK64).to_bytes(8, "little") + b"".join(map(encode_part, parts))


def derive_seed(root: int, *parts) -> int:
    """Derive a 64-bit sub-stream seed from a root seed and name parts.

    Parts may be ints or strings; distinct part tuples give independent
    streams for all practical purposes.
    """
    return int.from_bytes(hashlib.blake2b(stream_name(root, *parts), digest_size=8).digest(), "little")


def uniform_words(count: int, root: int, *parts) -> array:
    """count uniform 64-bit words on the stream named by (root, *parts):
    word k is bytes 8k .. 8k + 7 of the name's shake_128 digest, read
    little-endian on any host."""
    words = array("Q", hashlib.shake_128(stream_name(root, *parts)).digest(8 * count))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def make_rng(root: int, *parts) -> random.Random:
    """A fresh random.Random on the sub-stream named by parts."""
    return random.Random(derive_seed(root, *parts))
