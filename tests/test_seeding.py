import numpy as np
import pytest

from pointseg import InvalidConfigError, keyed_rng, seed_words


def test_same_key_same_stream():
    a = keyed_rng(7, "augment", "img003", 12).normal(size=8)
    b = keyed_rng(7, "augment", "img003", 12).normal(size=8)
    assert np.array_equal(a, b)


def test_distinct_keys_distinct_streams():
    draws = {
        tuple(keyed_rng(*key).integers(0, 1_000_000, size=4))
        for key in [(0, "a"), (0, "b"), (1, "a"), (0, "a", 0), (0, "a", 1)]
    }
    assert len(draws) == 5


def test_integers_pass_through_verbatim():
    assert seed_words(3, 17) == [3, 17]


def test_strings_hash_to_four_words():
    words = seed_words("annotate")
    assert len(words) == 4
    assert all(0 <= w < 2**32 for w in words)
    assert seed_words("annotate") == words


def test_mixed_parts_concatenate_in_order():
    assert seed_words(5, "x", 9) == [5] + seed_words("x") + [9]


@pytest.mark.parametrize("parts", [(-1,), (0, "augment", np.int64(-7)), ("x", -2, 3)])
def test_negative_integer_part_is_a_config_error(parts):
    with pytest.raises(InvalidConfigError, match="seed must be nonnegative"):
        seed_words(*parts)


# Keys whose words all fit 32 bits, then keys with a word of 2**32 or more.
NARROW_KEYS = [(0,), (1,), (2**31,), (2**32 - 1,), (np.int64(7), "augment"), (np.uint32(2**32 - 1),),
               (True, 3), ("",), ("é", 0), (0, "gradcheck", "softmax", 12, "probe")]
WIDE_KEYS = [(2**32,), (5, 2**64 + 5, "x")]


@pytest.mark.parametrize("key", NARROW_KEYS + WIDE_KEYS, ids=repr)
def test_stream_equals_default_rng_over_the_seed_words(key):
    got, want = keyed_rng(*key), np.random.default_rng(seed_words(*key))
    assert np.array_equal(got.integers(0, 2**62, size=6), want.integers(0, 2**62, size=6))
    assert np.array_equal(got.normal(size=6), want.normal(size=6))
    assert np.array_equal(got.permutation(11), want.permutation(11))


@pytest.mark.parametrize("key", NARROW_KEYS, ids=repr)
def test_a_key_of_32_bit_words_seeds_from_one_uint32_array(key):
    entropy = keyed_rng(*key).bit_generator.seed_seq.entropy
    assert isinstance(entropy, np.ndarray) and entropy.dtype == np.uint32
    assert entropy.tolist() == seed_words(*key)


@pytest.mark.parametrize("key", WIDE_KEYS, ids=repr)
def test_a_key_with_a_wider_word_seeds_from_the_list(key):
    assert keyed_rng(*key).bit_generator.seed_seq.entropy == seed_words(*key)


def test_seed_words_returns_a_new_list_each_call():
    first = seed_words(4, "annotate")
    first[1] = -1
    first.append(9)
    assert seed_words(4, "annotate") == [4, *seed_words("annotate")]
    assert -1 not in seed_words("annotate")
