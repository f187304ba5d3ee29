import math
import random
import time
from itertools import combinations, product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubar.corpus import borromean_pd, milnor_l6_system
from mubar.errors import ParseError, PreconditionError
from mubar.links import artin_longitudes, braid_closure_pd, longitudes_mod_q
from mubar.corpus import borromean_braid, hopf_braid, hopf_pd
from mubar.magnus import lcs_depth
import mubar.milnor
from mubar.milnor import (
    SUBINDEX_BUDGET,
    Index,
    LongitudeSystem,
    all_vanish_up_to,
    delta,
    first_nonvanishing,
    format_index,
    mu,
    mu_bar,
    parse_index,
    proper_cyclic_subindices,
    raw_mu,
    residue_of,
)
from mubar.words import Word, commutator, generator, left_normed, parse_word

from link_generators import borromean_system, random_pure_braid, random_realized_system

# Oracle: the residue scan that first_nonvanishing replaced, verbatim
# apart from its name; it computes Delta for every index it visits.


def _delta_raw(system: LongitudeSystem, index) -> int:
    g = 0
    for sub in proper_cyclic_subindices(index):
        g = math.gcd(g, raw_mu(system, sub))
    return g


def residue_scan(system: LongitudeSystem, q: int):
    """Shortlex-least index of weight 2..q with nonzero residue, or None.

    Reads coefficients without the validity check, so q may equal the
    system depth; None for q < 2.
    """
    for weight in range(2, q + 1):
        for entries in product(range(1, system.m + 1), repeat=weight):
            m_val = raw_mu(system, entries)
            if residue_of(m_val, _delta_raw(system, entries)) != 0:
                return entries
    return None


# Oracle: the position-subset walk proper_cyclic_subindices replaced,
# verbatim apart from its name, and the loop delta ran over it.


def proper_cyclic_subindices_oracle(index: Index) -> set[Index]:
    """All rotations of order-preserving subsequences of length 2..|I|-1."""
    k = len(index)
    out: set[Index] = set()
    for size in range(2, k):
        for positions in combinations(range(k), size):
            sub = tuple(index[p] for p in positions)
            for r in range(size):
                out.add(sub[r:] + sub[:r])
    return out


def delta_oracle(system: LongitudeSystem, index) -> int:
    g = 0
    for sub in proper_cyclic_subindices_oracle(index):
        g = math.gcd(g, raw_mu(system, sub))
    return g


def hopf_type(depth=4):
    return LongitudeSystem(2, depth, (parse_word("x2"), parse_word("x1")))


def lk3_system(depth=5):
    # lk = 3 with mu(1122) = 5: x1^3 times [x1,[x1,x2]]^5.
    bump = commutator(generator(1), commutator(generator(1), generator(2)))
    w2 = generator(1) ** 3 * bump**5
    return LongitudeSystem(2, depth, (generator(2) ** 3, w2))


class TestLongitudeSystem:
    def test_zero_framing_enforced(self):
        with pytest.raises(ValueError, match="0-framed"):
            LongitudeSystem(2, 4, (parse_word("x1"), parse_word("e")))

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError, match="asymmetric"):
            LongitudeSystem(2, 4, (parse_word("x2"), parse_word("e")))

    def test_symmetry_reports_least_pair(self):
        # asymmetric at (2, 3) and (1, 4); (1, 4) comes first
        words = tuple(map(parse_word, ("x4", "x3", "e", "e")))
        with pytest.raises(ValueError, match=r"^asymmetric linking numbers: x4 in "
                           r"longitude 1 gives 1 but x1 in longitude 4 gives 0$"):
            LongitudeSystem(4, 3, words)

    def test_many_components_check_in_linear_time(self):
        # each longitude is read once, not once per pair of components
        start = time.process_time()
        system = LongitudeSystem(20_000, 2, (Word(),) * 20_000)
        assert time.process_time() - start < 10
        assert system.m == 20_000

    def test_generator_range(self):
        with pytest.raises(ValueError, match="x3"):
            LongitudeSystem(2, 4, (parse_word("x3 x2 x3^-1"), parse_word("x1")))
        # reduction happens first, so a cancelling x3 pair is fine
        LongitudeSystem(2, 4, (Word(((3, 1), (3, -1), (2, 1))), parse_word("x1")))

    def test_truncate(self):
        system = lk3_system(depth=5)
        shallow = system.truncate(4)
        assert shallow.depth == 4
        assert mu(shallow, (1, 2)) == mu(system, (1, 2))
        with pytest.raises(PreconditionError):
            shallow.truncate(6)


class TestMu:
    def test_hopf_type(self):
        assert mu(hopf_type(), (1, 2)) == 1
        assert mu(hopf_type(), (2, 1)) == 1

    def test_borromean_abstract(self):
        system = borromean_system(depth=4)
        assert mu(system, (1, 2, 3)) == 1
        assert mu(system, (2, 1, 3)) == -1

    def test_pure_indices_vanish(self):
        rng = random.Random(31)
        for _ in range(20):
            system = random_realized_system(rng, depth=5)
            for i in (1, 2):
                for weight in range(2, 5):
                    assert mu(system, (i,) * weight) == 0

    def test_weight_exceeds_depth(self):
        # weight = depth is read; one more is refused
        assert mu(hopf_type(depth=4), (1, 2, 1, 2)) == 0
        with pytest.raises(PreconditionError, match=r"weight 5 exceeds .*up to 4\)"):
            mu(hopf_type(depth=4), (1, 2, 1, 2, 1))

    def test_weight_one_rejected(self):
        with pytest.raises(PreconditionError):
            mu(hopf_type(), (1,))

    def test_component_out_of_range(self):
        with pytest.raises(PreconditionError, match="out of range"):
            mu(hopf_type(), (1, 3))

    def test_coset_representative_independence(self):
        system = lk3_system(depth=4)
        deep = left_normed(1, 2, 2, 2)  # depth-4 commutator
        assert lcs_depth(deep, 5) >= 4
        modified = LongitudeSystem(
            2, 4, (system.longitudes[0], system.longitudes[1] * deep)
        )
        for entries in product((1, 2), repeat=3):
            assert mu(modified, entries) == mu(system.truncate(4), entries)


class TestDelta:
    def test_weight_two_empty_gcd(self):
        assert delta(hopf_type(), (1, 2)) == 0

    def test_lk3_sato_level(self):
        system = lk3_system()
        assert delta(system, (1, 1, 2, 2)) == 3
        assert mu(system, (1, 1, 2, 2)) == 5

    def test_borromean_weight3(self):
        assert delta(borromean_system(), (1, 2, 3)) == 0

    def test_divides_every_subindex_value(self):
        rng = random.Random(37)
        for _ in range(15):
            system = random_realized_system(rng, depth=5)
            for entries in [(1, 1, 2, 2), (1, 2, 1, 2), (2, 1, 1, 2)]:
                d = delta(system, entries)
                if d == 0:
                    continue
                for sub in proper_cyclic_subindices(entries):
                    assert mu(system, sub) % d == 0


class TestSubindicesAgainstOracle:
    def test_exhaustive(self):
        for letters, top in (((1, 2), 9), ((1, 2, 3), 7)):
            for k in range(2, top + 1):
                for index in product(letters, repeat=k):
                    assert proper_cyclic_subindices(index) == (
                        proper_cyclic_subindices_oracle(index)
                    ), index

    @settings(derandomize=True, deadline=None, max_examples=60)
    @example([1, 2] * 7)
    @example([1, 1, 2, 3, 4, 4, 3, 2, 1, 2, 3, 4, 1, 1])
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(st.integers(1, n), min_size=2, max_size=14)
        )
    )
    def test_matches_oracle(self, entries):
        index = tuple(entries)
        assert proper_cyclic_subindices(index) == proper_cyclic_subindices_oracle(index)

    def test_delta_on_l6(self):
        system = milnor_l6_system()
        for index in product((1, 2), repeat=6):
            assert delta(system, index) == delta_oracle(system, index)

    def test_delta_on_borromean_pd(self):
        system = longitudes_mod_q(borromean_pd(), 6)
        for k in (3, 4, 5):
            for index in product((1, 2, 3), repeat=k):
                assert delta(system, index) == delta_oracle(system, index)

    def test_delta_on_random_systems(self):
        rng = random.Random(53)
        seen = set()
        for _ in range(30):
            system = random_realized_system(rng, depth=5)
            for k in (2, 3, 4):
                for index in product((1, 2), repeat=k):
                    want = delta_oracle(system, index)
                    seen.add(want)
                    assert delta(system, index) == want
        assert {2, 3, 6} <= seen


class TestMuBar:
    def test_hopf(self):
        value = mu_bar(hopf_type(), (1, 2))
        assert (value.mu, value.delta, value.residue) == (1, 0, 1)

    def test_normalization(self):
        value = mu_bar(lk3_system(), (1, 1, 2, 2))
        assert (value.mu, value.delta, value.residue) == (5, 3, 2)

    def test_borromean(self):
        value = mu_bar(borromean_system(), (1, 2, 3))
        assert (value.mu, value.delta, value.residue) == (1, 0, 1)


class TestAllVanish:
    def test_trivial_system(self):
        trivial = LongitudeSystem(2, 5, (Word(), Word()))
        for q in range(2, 5):
            assert all_vanish_up_to(trivial, q)

    def test_hopf_fails_at_two(self):
        assert not all_vanish_up_to(hopf_type(), 2)

    def test_borromean(self):
        system = borromean_system(depth=4)
        assert all_vanish_up_to(system, 2)
        assert not all_vanish_up_to(system, 3)

    def test_depth_precondition(self):
        assert not all_vanish_up_to(hopf_type(depth=4), 4)
        with pytest.raises(PreconditionError, match="weight 5 exceeds"):
            all_vanish_up_to(hopf_type(depth=4), 5)

    def test_equivalent_to_relator_depth(self):
        rng = random.Random(41)
        systems = [
            borromean_system(depth=5),
            lk3_system(depth=5),
            random_realized_system(rng, depth=5),
            random_realized_system(rng, depth=5),
        ]
        for system in systems:
            for q in range(2, system.depth):
                vanish = all_vanish_up_to(system, q)
                relators = all(
                    lcs_depth(w, q + 1) >= q for w in system.longitudes
                )
                assert vanish == relators


def _reduced_words(gens: int, max_len: int) -> list[Word]:
    letters = [(g, sign) for g in range(1, gens + 1) for sign in (1, -1)]
    level, out = [()], [Word()]
    for _ in range(max_len):
        level = [w + (a,) for w in level for a in letters if not w or w[-1] != (a[0], -a[1])]
        out += [Word(w) for w in level]
    return out


def _assert_scans_agree(system: LongitudeSystem):
    for q in range(2, system.depth + 1):
        assert first_nonvanishing(system, q) == residue_scan(system, q), (system, q)


@st.composite
def commutator_systems(draw):
    # Products of left-normed commutators of weight c: every mu of
    # weight <= c vanishes, so the first witness sits at weight c + 1.
    m = draw(st.integers(2, 3))
    c = draw(st.integers(2, 4))
    entries = st.lists(st.integers(1, m), min_size=c, max_size=c)
    longs = []
    for _ in range(m):
        w = Word()
        for gens in draw(st.lists(entries, max_size=2)):
            w = w * left_normed(*gens)
        longs.append(w)
    return LongitudeSystem(m, 6, tuple(longs))


@st.composite
def narrow_systems(draw):
    # Longitude i uses only x1..x_{k_i} for a drawn k_i <= m, so its
    # expansion is narrower than the system; products of commutators
    # keep every exponent sum 0.
    m = draw(st.integers(2, 4))
    longs = []
    for _ in range(m):
        k = draw(st.integers(1, m))
        gens = st.tuples(st.integers(1, k), st.sampled_from((1, -1)))
        w = Word()
        for a, b in draw(st.lists(st.tuples(gens, gens), max_size=3)):
            w = w * commutator(generator(*a), generator(*b))
        longs.append(w)
    return LongitudeSystem(m, 4, tuple(longs))


seeds = st.integers(0, 2**32 - 1)
scan_systems = st.one_of(
    seeds.map(lambda n: random_realized_system(random.Random(n), depth=5)),
    seeds.map(lambda n: random_realized_system(random.Random(n), depth=5, linking=0)),
    st.integers(2, 6).map(borromean_system),
    st.integers(6, 7).map(milnor_l6_system),
    commutator_systems(),
)


class TestScanAgainstResidueOracle:
    def test_short_two_component_systems(self):
        # Every 2-component system at depth 5 whose longitudes are
        # reduced words of length <= 5 (1,243 systems).
        words = _reduced_words(2, 5)
        count = 0
        for w1 in (w for w in words if w.exponent_sum(1) == 0):
            for w2 in (w for w in words if w.exponent_sum(2) == 0):
                try:
                    system = LongitudeSystem(2, 5, (w1, w2))
                except ValueError:
                    continue
                _assert_scans_agree(system)
                count += 1
        assert count == 1243

    def test_zero_sum_two_component_systems(self):
        # Longitudes of length <= 6 with every exponent sum 0, so that all
        # linking numbers vanish and the scan passes weight 2.
        words = [
            w for w in _reduced_words(2, 6) if w.exponent_sum(1) == w.exponent_sum(2) == 0
        ]
        assert len(words) == 49
        for w1 in words:
            for w2 in words:
                _assert_scans_agree(LongitudeSystem(2, 5, (w1, w2)))

    def test_commutator_three_component_systems(self):
        # Longitude i is trivial or a commutator [x_a^e, x_b^f] of the
        # other two meridians, in either order (729 systems).
        def choices(j, k):
            return [Word()] + [
                commutator(generator(a, e), generator(b, f))
                for a, b in ((j, k), (k, j))
                for e in (1, -1)
                for f in (1, -1)
            ]

        for longs in product(choices(2, 3), choices(3, 1), choices(1, 2)):
            _assert_scans_agree(LongitudeSystem(3, 4, longs))

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(scan_systems)
    def test_random_systems(self, system):
        _assert_scans_agree(system)

    @settings(derandomize=True, deadline=None, max_examples=150)
    @given(narrow_systems())
    def test_narrow_longitudes(self, system):
        _assert_scans_agree(system)

    def test_braid_closures(self):
        # every strand of random pure braids on 2-4 strands, at depth 5
        rng = random.Random(47)
        for _ in range(60):
            braid = random_pure_braid(rng, rng.randint(2, 4), rng.randint(0, 8))
            _assert_scans_agree(artin_longitudes(braid, 5))

    def test_weight_beyond_depth_refused(self):
        with pytest.raises(PreconditionError, match=r"depth 4 allows weights up to 4\)"):
            first_nonvanishing(hopf_type(depth=4), 5)


class TestMilnorDepthBound:
    def test_depth_w_and_w_plus_1_agree(self):
        # pi/pi_q fixes every mu-bar of length <= q (Milnor 1957): mu and
        # Delta of every weight-w index read the same at depth w and w + 1,
        # on random pure braid closures through both routes
        rng = random.Random(59)
        cases = 0
        for k in range(80):
            braid = random_pure_braid(rng, 3 if k % 5 < 2 else 2, rng.randint(0, 6))
            routes = (
                lambda q: longitudes_mod_q(braid_closure_pd(braid), q),
                lambda q: artin_longitudes(braid, q),
            )
            for build in routes:
                for w in range(2, 7 if braid.strands == 2 else 6):
                    at_w, above = build(w), build(w + 1)
                    for index in product(range(1, braid.strands + 1), repeat=w):
                        assert (mu(at_w, index), delta(at_w, index)) == (
                            mu(above, index), delta(above, index)
                        ), (braid, w, index)
                    cases += 1
        assert cases == 736


class TestCyclicSymmetry:
    def test_realized_corpus(self):
        # Residues are constant along cyclic rotations for systems that
        # come from links; checked for weights <= 5 at depth 6.
        rng = random.Random(43)
        systems = [
            longitudes_mod_q(hopf_pd(), 6),
            longitudes_mod_q(borromean_pd(), 6),
            artin_longitudes(hopf_braid(), 6),
            artin_longitudes(borromean_braid(), 6),
            random_realized_system(rng, depth=6),
            random_realized_system(rng, depth=6),
        ]
        for system in systems:
            for weight_ in range(2, 6):
                for entries in product(range(1, system.m + 1), repeat=weight_):
                    base = mu_bar(system, entries)
                    rotated = entries[1:] + entries[:1]
                    rot = mu_bar(system, rotated)
                    assert rot.delta == base.delta, (entries, system.m)
                    assert rot.residue == base.residue, (entries, system.m)


class TestIndexText:
    def test_digits(self):
        assert parse_index("1122") == (1, 1, 2, 2)
        assert format_index((1, 1, 2, 2)) == "1122"

    def test_commas(self):
        assert parse_index("1,2,12") == (1, 2, 12)
        assert format_index((1, 2, 12)) == "1,2,12"

    def test_bad(self):
        with pytest.raises(ParseError):
            parse_index("")
        with pytest.raises(ParseError):
            parse_index("1a2")
        with pytest.raises(ParseError):
            parse_index("0,1")


def _rotation_letters(index) -> int:
    # what proper_cyclic_subindices builds before duplicates go: len(s)
    # rotations of len(s) letters per distinct subsequence s of length
    # 2..k-1.  count[L] is the number of distinct length-L subsequences;
    # appending c extends each of them, less those extended at the
    # previous c already.
    k = len(index)
    count = [1] + [0] * k
    last: dict[int, list[int]] = {}
    for c in index:
        prev = count[:]
        before = last.get(c, [0] * (k + 1))
        for size in range(1, k + 1):
            count[size] += prev[size - 1] - before[size - 1]
        last[c] = prev
    return sum(size * size * count[size] for size in range(2, k))


class TestSubindexBudget:
    def test_count_formula(self, monkeypatch):
        # a budget of exactly the count admits the index, one less does not
        for index in [*product((1, 2), repeat=8), *product((1, 2, 3), repeat=5)]:
            k = len(index)
            subs = {
                tuple(index[p] for p in positions)
                for size in range(2, k) for positions in combinations(range(k), size)
            }
            count = _rotation_letters(index)
            assert count == sum(len(s) ** 2 for s in subs)
            monkeypatch.setattr(mubar.milnor, "SUBINDEX_BUDGET", count)
            assert proper_cyclic_subindices(index) == proper_cyclic_subindices_oracle(index)
            monkeypatch.setattr(mubar.milnor, "SUBINDEX_BUDGET", count - 1)
            with pytest.raises(PreconditionError, match=f"SUBINDEX_BUDGET = {count - 1} "):
                proper_cyclic_subindices(index)

    def test_every_two_component_weight_answers(self):
        # weight 20 is the most TERM_BUDGET admits on two components; the
        # alternating index builds the most letters at every weight
        # through 12 here (and through 20, checked once in about 45 s)
        for k in range(4, 13):
            alternating = _rotation_letters(((1, 2) * k)[:k])
            assert max(map(_rotation_letters, product((1, 2), repeat=k))) == alternating
        assert _rotation_letters((1, 2) * 10) == 5_275_350 <= SUBINDEX_BUDGET

    def test_boundary(self, monkeypatch):
        # a budget of exactly the weight-6 count admits weight 6, not 7
        monkeypatch.setattr(mubar.milnor, "SUBINDEX_BUDGET", _rotation_letters((1,) * 6))
        system = LongitudeSystem(1, 9, (Word(),))
        assert delta(system, (1,) * 6) == 0
        with pytest.raises(PreconditionError, match="SUBINDEX_BUDGET = 54 letters"):
            delta(system, (1,) * 7)

    def test_weight_19_reaches_enumeration(self):
        # weights 19 and 20 on two components answer; one component is
        # refused above weight 311, and at weight 1,000 before the closure
        # has built more than the budget
        for index in ((1, 2) * 9 + (1,), (1, 2) * 10):
            assert delta(LongitudeSystem(2, 20, (Word(), Word())), index) == 0
        one = LongitudeSystem(1, 1000, (Word(),))
        assert _rotation_letters((1,) * 311) <= SUBINDEX_BUDGET < _rotation_letters((1,) * 312)
        assert delta(one, (1,) * 311) == 0
        start = time.process_time()
        with pytest.raises(PreconditionError, match="weight 1000 have more than SUBINDEX_BUDGET"):
            delta(one, (1,) * 1000)
        assert time.process_time() - start < 0.5
