import random

import pytest

from mubar.errors import PreconditionError
from mubar.magnus import NCSeries, lcs_depth, magnus_expand, one, series_mul
from mubar.words import Word, commutator, generator, left_normed


def random_word(rng, max_len=12, gens=3):
    return Word(
        tuple(
            (rng.randint(1, gens), rng.choice((1, -1)))
            for _ in range(rng.randint(0, max_len))
        )
    )


def random_commutator(rng, depth, gens=3):
    # Iterated commutator of nesting depth `depth`, random shape.
    if depth == 1:
        return generator(rng.randint(1, gens))
    split = rng.randint(1, depth - 1)
    return commutator(
        random_commutator(rng, split, gens),
        random_commutator(rng, depth - split, gens),
    )


class TestSeriesMul:
    def test_geometric_inverse(self):
        a = NCSeries(3, {(): 1, (1,): 1})
        b = NCSeries(3, {(): 1, (1,): -1, (1, 1): 1})
        assert series_mul(a, b) == one(3)

    def test_two_variables(self):
        a = NCSeries(3, {(): 1, (1,): 1})
        b = NCSeries(3, {(): 1, (2,): 1})
        assert series_mul(a, b) == NCSeries(
            3, {(): 1, (1,): 1, (2,): 1, (1, 2): 1}
        )

    def test_unit_law(self):
        rng = random.Random(3)
        for _ in range(20):
            s = magnus_expand(random_word(rng), 4)
            assert series_mul(s, one(4)) == s
            assert series_mul(one(4), s) == s

    def test_mismatched_bound(self):
        with pytest.raises(PreconditionError, match="degree bound"):
            series_mul(one(3), one(4))

    def test_associative_within_truncation(self):
        rng = random.Random(5)
        for _ in range(30):
            a, b, c = (magnus_expand(random_word(rng, 6), 5) for _ in range(3))
            assert series_mul(series_mul(a, b), c) == series_mul(a, series_mul(b, c))

    def test_no_zero_coefficients_stored(self):
        a = NCSeries(4, {(1,): 1})
        b = NCSeries(4, {(): 1, (1,): -1})
        prod = series_mul(a, b)  # X1 - X1^2
        assert all(c != 0 for c in prod.terms.values())
        assert NCSeries(4, {(1,): 0}).terms == {}


class TestMagnusExpand:
    def test_generator(self):
        assert magnus_expand(generator(1), 4) == NCSeries(4, {(): 1, (1,): 1})

    def test_inverse_generator(self):
        expected = NCSeries(
            4, {(): 1, (1,): -1, (1, 1): 1, (1, 1, 1): -1}
        )
        assert magnus_expand(generator(1, -1), 4) == expected

    def test_commutator_oracle(self):
        # Oracle: multiply the four letter series by hand at q=3.
        q = 3
        x1 = NCSeries(q, {(): 1, (1,): 1})
        x2 = NCSeries(q, {(): 1, (2,): 1})
        x1i = NCSeries(q, {(): 1, (1,): -1, (1, 1): 1})
        x2i = NCSeries(q, {(): 1, (2,): -1, (2, 2): 1})
        expected = series_mul(series_mul(x1i, x2i), series_mul(x1, x2))
        got = magnus_expand(commutator(generator(1), generator(2)), q)
        assert got == expected
        assert expected == NCSeries(q, {(): 1, (1, 2): 1, (2, 1): -1})

    def test_constant_term_is_one(self):
        rng = random.Random(7)
        for _ in range(30):
            s = magnus_expand(random_word(rng), 4)
            assert s.coefficient(()) == 1

    def test_multiplicative(self):
        rng = random.Random(11)
        for _ in range(100):
            q = rng.randint(2, 6)
            u, v = random_word(rng), random_word(rng)
            assert magnus_expand(u * v, q) == series_mul(
                magnus_expand(u, q), magnus_expand(v, q)
            )

    def test_inverse_is_series_inverse(self):
        rng = random.Random(13)
        for _ in range(50):
            q = rng.randint(2, 6)
            u = random_word(rng)
            s = magnus_expand(u, q)
            t = magnus_expand(u.inverse(), q)
            assert series_mul(s, t) == one(q)
            assert series_mul(t, s) == one(q)

    def test_min_degree_bound(self):
        with pytest.raises(PreconditionError):
            magnus_expand(generator(1), 1)


class TestCoefficient:
    def test_commutator_coefficient(self):
        s = magnus_expand(commutator(generator(1), generator(2)), 3)
        assert s.coefficient((1, 2)) == 1
        assert s.coefficient((2, 1)) == -1

    def test_missing_monomial(self):
        assert NCSeries(3, {(): 1, (1,): 1}).coefficient((2,)) == 0

    def test_monomial_too_long(self):
        with pytest.raises(PreconditionError, match="truncation"):
            one(3).coefficient((1, 2, 1))


class TestLcsDepth:
    def test_generator_depth_one(self):
        assert lcs_depth(generator(1), 5) == 1

    def test_commutator_depth_two(self):
        assert lcs_depth(commutator(generator(1), generator(2)), 5) == 2

    def test_nested_depth_three(self):
        c = commutator(commutator(generator(1), generator(2)), generator(1))
        assert lcs_depth(c, 5) == 3

    def test_identity_saturates(self):
        assert lcs_depth(Word(), 5) == 5

    def test_random_commutators_lower_bound(self):
        rng = random.Random(17)
        for _ in range(100):
            q = rng.randint(3, 6)
            d = rng.randint(1, q - 1)
            c = random_commutator(rng, d)
            assert lcs_depth(c, q) >= min(d, q)

    def test_left_normed_exact(self):
        for q in (4, 5, 6):
            for d in range(2, q):
                c = left_normed(1, *([2] * (d - 1)))
                assert lcs_depth(c, q) == d
