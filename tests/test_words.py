import random

import pytest

from mubar.errors import ParseError, PreconditionError
from mubar.words import (
    Word,
    commutator,
    format_word,
    generator,
    identity,
    left_normed,
    parse_word,
    substitute,
)


def w(text):
    return parse_word(text)


def random_word(rng, max_len=12, gens=3):
    return Word(
        tuple(
            (rng.randint(1, gens), rng.choice((1, -1)))
            for _ in range(rng.randint(0, max_len))
        )
    )


class TestReduce:
    def test_simple_cancellation(self):
        assert Word(((1, 1), (1, -1))) == identity()

    def test_inner_cancellation_cascade(self):
        assert Word(((1, 1), (2, 1), (2, -1), (1, 1))) == w("x1 x1")

    def test_fixed_point(self):
        conj = [(1, 1), (2, 1), (1, -1)]
        assert Word(tuple(conj)).letters == tuple(conj)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(50):
            word = random_word(rng)
            assert Word(word.letters) == word


class TestMultiply:
    def test_inverse_pair(self):
        assert w("x1") * w("x1^-1") == identity()

    def test_junction_cancellation(self):
        assert w("x1 x2") * w("x2^-1 x3") == w("x1 x3")

    def test_identity_law(self):
        rng = random.Random(11)
        for _ in range(20):
            word = random_word(rng)
            assert identity() * word == word
            assert word * identity() == word

    def test_associativity(self):
        rng = random.Random(13)
        for _ in range(100):
            a, b, c = (random_word(rng) for _ in range(3))
            assert (a * b) * c == a * (b * c)


class TestPower:
    def test_long_power_matches_exponent_token(self):
        assert generator(2) ** 20000 == parse_word("x2^20000")

    def test_matches_repeated_product(self):
        rng = random.Random(31)
        for _ in range(50):
            word = random_word(rng, 6)
            for n in range(-4, 5):
                expected = identity()
                for _ in range(abs(n)):
                    expected = expected * (word if n > 0 else word.inverse())
                assert word ** n == expected


class TestInvert:
    def test_examples(self):
        assert w("x1 x2").inverse() == w("x2^-1 x1^-1")
        assert identity().inverse() == identity()
        assert w("x1^-1").inverse() == w("x1")

    def test_involution_and_length(self):
        rng = random.Random(17)
        for _ in range(50):
            word = random_word(rng)
            assert word.inverse().inverse() == word
            assert len(word.inverse()) == len(word)
            assert word * word.inverse() == identity()


class TestCommutator:
    def test_definition(self):
        assert commutator(w("x1"), w("x2")) == w("x1^-1 x2^-1 x1 x2")

    def test_self_commutator(self):
        u = w("x1 x2")
        assert commutator(u, u) == identity()

    def test_with_identity(self):
        assert commutator(w("x1"), identity()) == identity()

    def test_antisymmetry(self):
        rng = random.Random(19)
        for _ in range(50):
            u, v = random_word(rng), random_word(rng)
            assert commutator(u, v) == commutator(v, u).inverse()

    def test_left_normed(self):
        c = left_normed(1, 2)
        assert c == commutator(generator(1), generator(2))
        assert left_normed(1, 2, 1) == commutator(c, generator(1))
        assert left_normed() == identity()


class TestSubstitute:
    def test_collapse(self):
        images = {1: w("x3"), 2: w("x3^-1")}
        assert substitute(w("x1 x2"), images) == identity()

    def test_inverse_letter(self):
        assert substitute(w("x1^-1"), {1: w("x1 x2")}) == w("x2^-1 x1^-1")

    def test_identity_map(self):
        word = commutator(w("x1"), w("x2"))
        images = {1: w("x1"), 2: w("x2")}
        assert substitute(word, images) == word

    def test_missing_image_names_generator(self):
        with pytest.raises(PreconditionError, match="x2"):
            substitute(w("x1 x2"), {1: w("x1")})

    def test_homomorphic(self):
        rng = random.Random(23)
        images = {i: random_word(rng, 6, 2) for i in (1, 2, 3)}
        for _ in range(50):
            u, v = random_word(rng), random_word(rng)
            assert substitute(u * v, images) == substitute(u, images) * substitute(v, images)
            assert substitute(u.inverse(), images) == substitute(u, images).inverse()


class TestText:
    def test_roundtrip(self):
        rng = random.Random(29)
        for _ in range(50):
            word = random_word(rng)
            assert parse_word(format_word(word)) == word

    def test_empty(self):
        assert parse_word("e") == identity()
        assert parse_word("x1 e x2^-1") == w("x1 x2^-1")
        assert format_word(identity()) == "e"

    def test_power_token(self):
        assert parse_word("x2^-3") == w("x2^-1 x2^-1 x2^-1")
        assert parse_word("x1^0") == identity()

    def test_bad_token_position(self):
        with pytest.raises(ParseError, match="position 1"):
            parse_word("x1 y2")
        with pytest.raises(ParseError):
            parse_word("x0")
