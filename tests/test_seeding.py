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
