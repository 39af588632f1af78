import hashlib

from rollclust.streams import derive_seed, encode_part, stream_name, uniform_words

ROOTS = (0, 1, -1, -3, 2**63, 2**64 - 1, 2**64, 2**80 + 7, -(2**70))


def test_derive_seed_values_are_pinned():
    # the encoding decides every tie stream and trial seed
    assert derive_seed(0, "edge", 0, 1) == 14989679420660834436
    assert derive_seed(-3, "edge", 2**70, -5) == 5074265794450907827
    assert derive_seed(2**80 + 7, "trial", 4, "round") == 11218244192301556587


def test_stream_names_encode_the_root_mod_2_64_and_each_part():
    for root in ROOTS:
        name = stream_name(root, "round", 3)
        assert name == (root % 2**64).to_bytes(8, "little") + encode_part("round") + encode_part(3)
        assert derive_seed(root, "round", 3) == int.from_bytes(
            hashlib.blake2b(name, digest_size=8).digest(), "little")


def test_uniform_words_read_the_digest_little_endian():
    # word k is int.from_bytes of digest bytes 8k .. 8k + 7, little-endian,
    # whatever the host's own byte order
    for root in ROOTS:
        for count in (0, 1, 2, 7, 100):
            words = uniform_words(count, root, "round")
            digest = hashlib.shake_128(stream_name(root, "round")).digest(8 * count)
            assert words.itemsize == 8 and len(words) == count
            assert list(words) == [int.from_bytes(digest[i : i + 8], "little") for i in range(0, 8 * count, 8)]
    # a shake digest's first bytes do not depend on its length
    assert uniform_words(100, 5, "round")[:7] == uniform_words(7, 5, "round")
    # the stream is keyed by the root and the name
    assert uniform_words(4, 5, "round") != uniform_words(4, 6, "round")
    assert uniform_words(4, 5, "round") != uniform_words(4, 5, "edge")


def test_uniform_words_are_pinned():
    # the words decide every rounding outcome
    assert list(uniform_words(2, 0, "round")) == [12967834258595006398, 3864777680031416671]
    assert list(uniform_words(1, 2**80 + 7, "round")) == [7713767991586702381]
