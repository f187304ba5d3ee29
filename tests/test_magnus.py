import random
from collections import Counter
from functools import lru_cache
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubar.errors import PreconditionError
from mubar.magnus import (
    TERM_BUDGET,
    WORK_BUDGET,
    NCSeries,
    _position,
    check_system_terms,
    check_term_budget,
    check_work_budget,
    lcs_depth,
    magnus_expand,
    one,
    series_mul,
)
from mubar.words import Word, commutator, generator, left_normed, parse_word

# ---------------------------------------------------------------------------
# Oracle: the sparse dict series that the dense store replaced, verbatim
# apart from the names DictSeries and dict_magnus_expand.

Monomial = tuple[int, ...]


def monomial_key(m: Monomial) -> tuple[int, Monomial]:
    """Canonical total order on monomials: length, then lexicographic."""
    return (len(m), m)


class DictSeries:
    """Sparse series: map from monomial to nonzero integer coefficient."""

    __slots__ = ("degree_bound", "terms")

    def __init__(self, degree_bound: int, terms: dict[Monomial, int] | None = None):
        if degree_bound < 1:
            raise ValueError("degree bound must be positive")
        self.degree_bound = degree_bound
        clean: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) >= degree_bound:
                raise ValueError(
                    f"monomial {mono} too long for degree bound {degree_bound}"
                )
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, DictSeries)
            and self.degree_bound == other.degree_bound
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        items = ", ".join(
            f"{mono}: {coeff}"
            for mono, coeff in sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))
        )
        return f"NCSeries(q={self.degree_bound}, {{{items}}})"

    def coefficient(self, mono: Monomial) -> int:
        mono = tuple(mono)
        if len(mono) >= self.degree_bound:
            raise PreconditionError(
                f"monomial of length {len(mono)} exceeds truncation "
                f"(degree bound {self.degree_bound})"
            )
        return self.terms.get(mono, 0)

    def min_nonconstant_degree(self) -> int | None:
        degrees = [len(m) for m in self.terms if m]
        return min(degrees) if degrees else None


def _mul_letter(terms: dict[Monomial, int], gen: int, sign: int, q: int) -> dict[Monomial, int]:
    # Right-multiply by 1 + X_g, or by 1 - X_g + X_g^2 - ... for sign -1.
    out: dict[Monomial, int] = {}

    def put(mono: Monomial, c: int):
        acc = out.get(mono, 0) + c
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)

    for mono, coeff in terms.items():
        put(mono, coeff)
        if sign == 1:
            if len(mono) + 1 < q:
                put(mono + (gen,), coeff)
        else:
            c = coeff
            tail = mono
            while len(tail) + 1 < q:
                tail = tail + (gen,)
                c = -c
                put(tail, c)
    return out


def dict_magnus_expand(w: Word, q: int) -> DictSeries:
    """Magnus expansion of a reduced word, truncated at degree bound q."""
    if q < 2:
        raise PreconditionError("degree bound must be at least 2")
    terms: dict[Monomial, int] = {(): 1}
    for gen, sign in w.letters:
        terms = _mul_letter(terms, gen, sign, q)
    return DictSeries(q, terms)


# ---------------------------------------------------------------------------


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

    def test_letters_outside_width_read_zero(self):
        # Position arithmetic alone would alias (0,) to X2 by negative
        # indexing, and X3 over width 2 into the next block.
        s = NCSeries(3, {(1,): 5, (2,): 7})
        for mono in [(0,), (3,), (-1,), (1, 0), (0, 2), (2, 3)]:
            assert s.coefficient(mono) == 0, mono
        t = magnus_expand(commutator(generator(1), generator(3)), 4)
        assert t.coefficient((1, 3)) == 1
        for mono in [(0,), (4,), (1, 4), (0, 3), (4, 1, 3), (3, 0, 1)]:
            assert t.coefficient(mono) == 0, mono


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


def _words_with_oracle(gens: int, max_len: int, q: int):
    """Every reduced word over x1..x_gens of length <= max_len, with its
    dict-oracle expansion at degree bound q, built letter by letter."""
    letters = [(g, sign) for g in range(1, gens + 1) for sign in (1, -1)]
    stack = [((), {(): 1})]
    while stack:
        word, terms = stack.pop()
        yield Word(word), terms
        if len(word) < max_len:
            for gen, sign in letters:
                if not word or word[-1] != (gen, -sign):
                    stack.append((word + ((gen, sign),), _mul_letter(terms, gen, sign, q)))


words = st.lists(
    st.tuples(st.integers(1, 4), st.sampled_from((1, -1))), max_size=14
).map(Word)
bounds = st.integers(2, 6)


class TestDictOracle:
    def test_every_short_word(self):
        # Every reduced word of length <= 6 over m <= 3 (23,437 words):
        # dense and dict agree at q = 5, and the dense expansion at each
        # q < 5 is the truncation of the one at q = 5.
        count = 0
        for w, terms in _words_with_oracle(3, 6, 5):
            top = magnus_expand(w, 5)
            assert all(top.coefficient(mono) == c for mono, c in terms.items()), w
            assert sum(len(lv) - lv.count(0) for lv in top.levels) == len(terms), w
            for q in range(2, 5):
                assert magnus_expand(w, q).levels == top.levels[:q], (w, q)
            count += 1
        assert count == 23437

    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(words, bounds)
    def test_random_words(self, w, q):
        assert magnus_expand(w, q).terms == dict_magnus_expand(w, q).terms

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(words, words, bounds)
    def test_homomorphism(self, u, v, q):
        assert magnus_expand(u * v, q) == series_mul(magnus_expand(u, q), magnus_expand(v, q))

    @settings(derandomize=True, deadline=None, max_examples=200)
    @given(words, bounds)
    def test_inverse(self, w, q):
        assert series_mul(magnus_expand(w, q), magnus_expand(w.inverse(), q)) == one(q)


# ---------------------------------------------------------------------------
# The quasi-shuffle identity, an oracle that needs no older implementation.
# x_i -> 1 + X_i sends every word to a series that is group-like for the
# coproduct X_i -> X_i (x) 1 + 1 (x) X_i + X_i (x) X_i, so its coefficients c
# satisfy c(u) c(v) = sum of c(w) over the quasi-shuffles w of u and v, the
# product formula for Magnus coefficients (Chen, Fox and Lyndon, "Free
# differential calculus IV", Annals of Mathematics 1958).  Products and
# inverses of group-like series are group-like.


@lru_cache(maxsize=None)
def quasi_shuffle(u: Monomial, v: Monomial) -> tuple[tuple[Monomial, int], ...]:
    """Quasi-shuffles of u and v as (word, multiplicity) pairs: the
    letters of u and v interleave, and a letter of u may merge with an
    equal letter of v."""
    if not u or not v:
        return ((u + v, 1),)
    out: Counter = Counter()
    for w, k in quasi_shuffle(u[1:], v):
        out[u[:1] + w] += k
    for w, k in quasi_shuffle(u, v[1:]):
        out[v[:1] + w] += k
    if u[0] == v[0]:
        for w, k in quasi_shuffle(u[1:], v[1:]):
            out[u[:1] + w] += k
    return tuple(out.items())


def assert_grouplike(series: NCSeries) -> None:
    """Constant term 1, and c(u) c(v) = sum of c(w) over the quasi-shuffles
    of u and v for every pair of nonempty monomials with |u| + |v| < q."""
    coeff, letters = series.coefficient, range(1, series.width + 1)
    assert coeff(()) == 1
    for size in range(2, series.degree_bound):
        for k in range(1, size):
            for u in product(letters, repeat=k):
                cu = coeff(u)
                for v in product(letters, repeat=size - k):
                    got = sum(mult * coeff(w) for w, mult in quasi_shuffle(u, v))
                    assert cu * coeff(v) == got, (u, v)


class TestGrouplike:
    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(words, bounds)
    def test_expansions(self, w, q):
        assert_grouplike(magnus_expand(w, q))

    @settings(derandomize=True, deadline=None, max_examples=100)
    @given(words, words, bounds)
    def test_products(self, u, v, q):
        assert_grouplike(series_mul(magnus_expand(u, q), magnus_expand(v.inverse(), q)))

    def test_merge_term_is_needed(self):
        # without merges, M(x3) = 1 + X3 would fail at u = v = (3)
        assert dict(quasi_shuffle((3,), (3,))) == {(3, 3): 2, (3,): 1}
        assert_grouplike(magnus_expand(generator(3), 4))

    def test_perturbed_coefficient_rejected(self):
        good = magnus_expand(commutator(generator(1), generator(2)), 5)
        assert_grouplike(good)
        terms = good.terms
        terms[(1, 2)] += 1
        with pytest.raises(AssertionError):
            assert_grouplike(NCSeries(5, terms, width=2))


class TestWidth:
    def test_equal_terms_across_widths(self):
        s = magnus_expand(commutator(generator(1), generator(2)), 4)
        assert s.width == 2
        wide = NCSeries(4, s.terms, width=4)
        assert wide == s and s == wide
        assert NCSeries(4, {(): 1, (1, 2): 1}, width=3) != s
        assert s != NCSeries(5, s.terms) and s != s.terms
        assert magnus_expand(Word(), 4) == one(4) == NCSeries(4, {(): 1}, width=3)

    def test_product_across_widths(self):
        a = magnus_expand(generator(1), 4)
        b = magnus_expand(generator(3, -1), 4)
        assert series_mul(a, b) == magnus_expand(generator(1) * generator(3, -1), 4)
        assert series_mul(a, b).width == 3

    def test_terms_in_shortlex_order(self):
        s = magnus_expand(commutator(generator(2), generator(1)), 4)
        assert list(s.terms) == sorted(s.terms, key=lambda mono: (len(mono), mono))

    def test_width_too_small(self):
        with pytest.raises(ValueError, match="width"):
            NCSeries(3, {(3,): 1}, width=2)
        with pytest.raises(ValueError, match="below X1"):
            NCSeries(3, {(0,): 1})

    @pytest.mark.parametrize(
        "args, kwargs, message",
        [
            ((0,), {}, "degree bound must be positive"),
            ((3, {(3,): 1}), {"width": 2}, "monomial letter X3 beyond width 2"),
        ],
        ids=["degree-bound-0", "letter-beyond-width"],
    )
    def test_constructor_checks(self, args, kwargs, message):
        with pytest.raises(ValueError) as got:
            NCSeries(*args, **kwargs)
        assert (type(got.value), str(got.value)) == (ValueError, message)


def product_terms(s: NCSeries) -> dict[Monomial, int]:
    """NCSeries.terms before it decoded positions, verbatim apart from
    the name: every monomial of each degree, in shortlex order."""
    out: dict[Monomial, int] = {}
    for d, level in enumerate(s.levels):
        for mono in product(range(1, s.width + 1), repeat=d):
            coeff = level[_position(mono, s.width)]
            if coeff:
                out[mono] = coeff
    return out


def least_term(s: NCSeries, d: int) -> Monomial | None:
    """Least degree-d monomial with a nonzero coefficient, as
    first_nonvanishing reads it through NCSeries.nonzero."""
    return min((mono for mono, _ in s.nonzero(d)), default=None)


class TestDecode:
    @settings(derandomize=True, deadline=None, max_examples=300)
    @given(words, bounds, st.integers(0, 2))
    def test_terms_and_least_term(self, w, q, extra):
        s = magnus_expand(w, q)
        s = NCSeries(q, s.terms, width=s.width + extra)
        assert list(s.terms.items()) == list(product_terms(s).items())
        for d in range(q):
            nonzero = [mono for mono in product_terms(s) if len(mono) == d]
            assert least_term(s, d) == min(nonzero, default=None)

    def test_position_order_is_not_shortlex(self):
        # (2, 1) sits at position 1 and (1, 3) at position 6
        s = NCSeries(4, {(2, 1): 3, (1, 3): -1, (3,): 2}, width=3)
        assert list(s.nonzero(2)) == [((2, 1), 3), ((1, 3), -1)]
        assert least_term(s, 2) == (1, 3)
        assert least_term(s, 1) == (3,)
        assert least_term(s, 0) is None
        assert least_term(s, 3) is None
        assert list(s.terms) == [(3,), (1, 3), (2, 1)]
        assert repr(s) == "NCSeries(q=4, {(3,): 2, (1, 3): -1, (2, 1): 3})"


def term_budget_refuses_oracle(m: int, q: int) -> bool:
    """Whether check_term_budget refused before it read magnus._terms: its
    loop, verbatim apart from returning instead of raising."""
    total, size = 0, 1
    for _ in range(q):
        total += size
        size *= m
        # width <= 1 keeps one term per degree, so q itself is the size
        if total > TERM_BUDGET or (size <= 1 and q > TERM_BUDGET):
            return True
    return False


def term_budget_refuses(m: int, q: int) -> bool:
    try:
        check_term_budget(m, q)
    except PreconditionError:
        return True
    return False


class TestTermBudget:
    def test_matches_oracle(self):
        grid = [(m, q) for m in range(40) for q in range(45)]
        grid += [(m, q) for m in (1000, 10**6, 1 << 20, (1 << 20) + 1) for q in range(6)]
        grid += [(m, q) for m in range(4) for q in (TERM_BUDGET - 1, TERM_BUDGET + 1)]
        for m, q in grid:
            assert term_budget_refuses(m, q) == term_budget_refuses_oracle(m, q), (m, q)

    def test_system_check_refuses_a_deep_bound_at_once(self):
        # the closed form at q = 10^9 would build a billion-bit power
        with pytest.raises(PreconditionError, match="TERM_BUDGET = 1048576"):
            check_system_terms(2, (generator(2),), 10**9)

    def test_largest_pipeline_use_fits(self):
        check_term_budget(3, 8)
        check_term_budget(4, 4)
        check_term_budget(2, 20)

    @pytest.mark.parametrize(
        "m, q", [(2, 21), (3, 30), (1, 100_000_000), (0, 100_000_000), (12, 7)]
    )
    def test_over_budget(self, m, q):
        with pytest.raises(PreconditionError, match="TERM_BUDGET = 1048576"):
            check_term_budget(m, q)

    def test_expand_and_constructor_check(self):
        with pytest.raises(PreconditionError, match="TERM_BUDGET"):
            magnus_expand(generator(2), 25)
        with pytest.raises(PreconditionError, match="TERM_BUDGET"):
            NCSeries(25, {(2,): 1})


class TestWorkBudget:
    def test_reads_the_old_term_count(self):
        # the term count check_work_budget summed before it read _terms
        for m in range(1, 7):
            for q in range(1, 12):
                letters = WORK_BUDGET // sum(m**d for d in range(q))
                check_work_budget(letters, m, q)
                with pytest.raises(PreconditionError, match="WORK_BUDGET"):
                    check_work_budget(letters + 1, m, q)

    def test_borromean_depth_9_fits(self):
        # the arc letters of nine rewriting rounds on the Borromean PD
        check_work_budget(185_262, 3, 9)

    def test_borromean_depth_10_over_budget(self):
        # ten rounds
        with pytest.raises(PreconditionError, match="WORK_BUDGET = 10000000000"):
            check_work_budget(599_358, 3, 10)

    def test_borromean_q_minus_2_rounds(self):
        # eight rounds at depth 10 fit; nine at depth 11 do not
        check_work_budget(57_216, 3, 10)
        with pytest.raises(PreconditionError, match="WORK_BUDGET = 10000000000"):
            check_work_budget(185_262, 3, 11)

    def test_expand_check(self):
        w = parse_word("x2^20000 x3^20000 x2^-20000 x3^-20000")
        assert len(w) == 80_000
        with pytest.raises(PreconditionError, match="WORK_BUDGET"):
            magnus_expand(w, 13)
