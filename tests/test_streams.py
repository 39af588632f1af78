import itertools

from rollclust.streams import derive_seed, encode_part, extended_seed, seed_prefix

ROOTS = (0, 1, -1, -3, 2**63, 2**64 - 1, 2**64, 2**80 + 7, -(2**70))
NODES = (0, 1, 7, -5, 2**63, 2**70, -(2**100))


def test_derive_seed_values_are_pinned():
    # the encoding decides every rounding outcome and trial seed
    assert derive_seed(0, "edge", 0, 1) == 14989679420660834436
    assert derive_seed(-3, "edge", 2**70, -5) == 5074265794450907827
    assert derive_seed(2**80 + 7, "trial", 4, "round") == 11218244192301556587


def encoded(*parts) -> bytes:
    return b"".join(encode_part(part) for part in parts)


def test_prefixed_seed_equals_derive_seed():
    for root in ROOTS:
        edge = seed_prefix(root, "edge")
        for u, v in itertools.product(NODES, repeat=2):
            assert extended_seed(edge, encode_part(u) + encode_part(v)) == derive_seed(root, "edge", u, v)
        # copies leave the prefix untouched, whatever was derived from it
        assert extended_seed(edge, b"") == derive_seed(root, "edge")
        assert extended_seed(seed_prefix(root), encoded("trial", 3, "round")) == derive_seed(root, "trial", 3, "round")
        assert extended_seed(seed_prefix(root, "trial", 3), encoded("round")) == derive_seed(root, "trial", 3, "round")
