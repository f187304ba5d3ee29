import math
import random
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubar.corpus import borromean_pd, hopf_pd, milnor_l6_system
from mubar.errors import PreconditionError
from mubar.links import connected_sum, inverse_mirror, longitudes_mod_q, reorder
from mubar.milnor import (
    LongitudeSystem,
    delta,
    first_nonvanishing,
    format_index,
    mu,
    residue_of,
    validate_index,
)
from mubar.mutation import (
    MUTATION_TYPES,
    MutantReport,
    _require_two_components,
    apply_mutation,
    find_detector,
    mutant_mu,
    mutative_pair_report,
    normalize_linking,
    transform_index,
    weight_lt6_invariance_check,
)
from mubar.words import Word, generator, left_normed, parse_word

from link_generators import commutator_systems, random_realized_system


# ---------------------------------------------------------------------------
# Oracle: normalize_linking before it summed twist systems; the body is
# verbatim.


def normalize_linking_oracle(
    alpha: LongitudeSystem, beta: LongitudeSystem
) -> tuple[LongitudeSystem, LongitudeSystem]:
    _require_two_components(alpha, beta)
    k = beta.linking(1, 2)
    if k == 0:
        return alpha, beta
    a1, a2 = alpha.longitudes
    b1, b2 = beta.longitudes
    alpha2 = LongitudeSystem(
        2, alpha.depth, (a1 * generator(2) ** k, a2 * generator(1) ** k)
    )
    beta2 = LongitudeSystem(
        2, beta.depth, (generator(2) ** (-k) * b1, generator(1) ** (-k) * b2)
    )
    return alpha2, beta2


# ---------------------------------------------------------------------------
# Oracle: the connected-sum congruence that mutant_mu(..., tau=None)
# replaced, verbatim.


def csum_mu(alpha: LongitudeSystem, beta: LongitudeSystem, index) -> MutantReport:
    """Connected-sum congruence: mu_L(I) = mu_a(I) + mu_b(I) mod D(I)."""
    _require_two_components(alpha, beta)
    entries = validate_index(alpha, index)
    mu_a = mu(alpha, entries)
    mu_b = mu(beta, entries)
    modulus = math.gcd(delta(alpha, entries), delta(beta, entries))
    composite = mu(connected_sum(alpha, beta), entries)
    residue = residue_of(mu_a + mu_b, modulus)
    return MutantReport(
        index=entries,
        mutation=None,
        mu_alpha=mu_a,
        mu_beta_transformed=mu_b,
        modulus=modulus,
        residue=residue,
        mu_composite=composite,
        congruent=residue_of(composite, modulus) == residue,
    )


def hopf_type(depth=5):
    return LongitudeSystem(2, depth, (parse_word("x2"), parse_word("x1")))


def trivial(depth=5):
    return LongitudeSystem(2, depth, (Word(), Word()))


class TestTransformIndex:
    def test_paper_example(self):
        entries = (1, 1, 2, 2, 2, 2)
        assert format_index(transform_index(entries, "F")) == "221111"
        assert format_index(transform_index(entries, "R")) == "222211"
        assert format_index(transform_index(entries, "FR")) == "111122"

    def test_involutions(self):
        rng = random.Random(61)
        for _ in range(50):
            entries = tuple(rng.choice((1, 2)) for _ in range(rng.randint(2, 8)))
            for tau in MUTATION_TYPES:
                assert transform_index(transform_index(entries, tau), tau) == entries
            fr = transform_index(entries, "FR")
            assert fr == transform_index(transform_index(entries, "F"), "R")
            assert fr == transform_index(transform_index(entries, "R"), "F")

    def test_rejects_other_components(self):
        with pytest.raises(PreconditionError, match="components"):
            transform_index((1, 3), "F")
        with pytest.raises(PreconditionError, match="mutation type"):
            transform_index((1, 2), "Q")


class TestCsumMu:
    def test_hopf_plus_trivial(self):
        report = mutant_mu(hopf_type(), trivial(), (1, 2))
        assert (report.residue, report.modulus) == (1, 0)
        assert report.congruent

    def test_hopf_plus_hopf(self):
        report = mutant_mu(hopf_type(), hopf_type(), (1, 2))
        assert report.residue == 2
        assert report.congruent

    def test_random_realized_weight4(self):
        rng = random.Random(67)
        for _ in range(20):
            alpha = random_realized_system(rng, depth=5)
            beta = random_realized_system(rng, depth=5)
            report = mutant_mu(alpha, beta, (1, 1, 2, 2))
            assert report.congruent

    def test_arity_mismatch(self):
        three = LongitudeSystem(3, 5, (Word(), Word(), Word()))
        with pytest.raises(PreconditionError):
            mutant_mu(three, three, (1, 2))
        # depths pair at the shallower one
        assert mutant_mu(hopf_type(5), hopf_type(4), (1, 2)) == (
            mutant_mu(hopf_type(4), hopf_type(4), (1, 2))
        )


def _declared_pair():
    shallow = LongitudeSystem(
        2, 4, (parse_word("x2 x1 x2 x1^-1"), parse_word("x1 x1"))
    )
    deep = LongitudeSystem(
        2,
        8,
        (
            generator(2) ** -1 * left_normed(2, 1, 1),
            generator(1) ** -1 * left_normed(1, 2, 2, 1),
        ),
    )
    return shallow, deep


class TestSharedDepth:
    """Two depths pair at the shallower one, as mutate-report reads them."""

    @pytest.mark.parametrize("swap", [False, True])
    @pytest.mark.parametrize(
        "pair",
        [
            lambda: (milnor_l6_system(7), longitudes_mod_q(hopf_pd(), 5)),
            _declared_pair,
        ],
        ids=["l6-7-hopf-5", "words-4-8"],
    )
    def test_reports_equal_the_truncated_pair(self, pair, swap, monkeypatch):
        import mubar.milnor

        alpha, beta = pair()
        if swap:
            alpha, beta = beta, alpha
        bounds = []
        expand = mubar.milnor.magnus_expand
        monkeypatch.setattr(
            mubar.milnor, "magnus_expand", lambda w, q: bounds.append(q) or expand(w, q)
        )
        shared = min(alpha.depth, beta.depth)
        assert connected_sum(alpha, beta).depth == shared
        alpha_t, beta_t = alpha.truncate(shared), beta.truncate(shared)
        for weight in range(2, shared + 1):
            for entries in product((1, 2), repeat=weight):
                for tau in (None, *MUTATION_TYPES):
                    assert mutant_mu(alpha, beta, entries, tau) == mutant_mu(
                        alpha_t, beta_t, entries, tau
                    )
        assert weight_lt6_invariance_check(alpha, beta) == (
            weight_lt6_invariance_check(alpha_t, beta_t)
        )
        with pytest.raises(
            PreconditionError, match=f"depth {shared} allows weights up to {shared}"
        ):
            mutant_mu(alpha, beta, (1,) * shared + (2,))
        # no half is expanded deeper than the reports read it
        assert set(bounds) == {shared}

    @pytest.mark.parametrize("swap", [False, True])
    def test_invariance_check_reads_each_half_once(self, swap, monkeypatch):
        import mubar.milnor

        calls = []
        expand = mubar.milnor.magnus_expand
        monkeypatch.setattr(
            mubar.milnor, "magnus_expand", lambda w, q: calls.append(q) or expand(w, q)
        )

        def expansions(depth):
            # fresh systems, so that no expansion is cached from a call before
            alpha, beta = milnor_l6_system(7).truncate(depth), longitudes_mod_q(hopf_pd(), 5)
            if swap:
                alpha, beta = beta, alpha
            calls.clear()
            assert weight_lt6_invariance_check(alpha, beta)
            return len(calls)

        # both longitudes of the sum and of each half, and each mutant's second
        assert expansions(7) == expansions(5) == 9


class TestConnectedSumAgainstOracle:
    def test_every_index_up_to_weight_4(self):
        rng = random.Random(97)
        for _ in range(12):
            alpha = random_realized_system(rng, depth=5)
            beta = random_realized_system(rng, depth=5)
            for weight in range(2, 5):
                for entries in product((1, 2), repeat=weight):
                    assert (
                        mutant_mu(alpha, beta, entries).to_json()
                        == csum_mu(alpha, beta, entries).to_json()
                    )

    @settings(derandomize=True, deadline=None, max_examples=60)
    @given(
        st.integers(0, 2**32 - 1),
        st.lists(st.sampled_from((1, 2)), min_size=2, max_size=5),
    )
    def test_random_pairs(self, seed, entries):
        rng = random.Random(seed)
        alpha = random_realized_system(rng, depth=6)
        beta = random_realized_system(rng, depth=6)
        assert mutant_mu(alpha, beta, entries) == csum_mu(alpha, beta, entries)


class TestMutantMu:
    def test_trivial_beta_reduces_to_alpha(self):
        alpha = hopf_type()
        for tau in MUTATION_TYPES:
            report = mutant_mu(alpha, trivial(), (1, 2), tau)
            assert report.residue == mu(alpha, (1, 2))
            assert report.congruent

    def test_inverse_mirror_difference(self):
        alpha = milnor_l6_system()
        beta = inverse_mirror(alpha)
        for tau in MUTATION_TYPES:
            for entries in [(1, 1, 2, 2, 2, 2), (1, 2, 1, 2, 2, 2)]:
                report = mutant_mu(alpha, beta, entries, tau)
                expected = mu(alpha, entries) - mu(
                    alpha, transform_index(entries, tau)
                )
                assert report.modulus == 0
                assert report.residue == expected

    def test_inverse_mirror_reports_difference_mod_d(self):
        rng = random.Random(74)
        for _ in range(8):
            alpha = random_realized_system(rng, depth=5)
            beta = inverse_mirror(alpha)
            for tau in MUTATION_TYPES:
                for weight in range(2, 5):
                    for entries in product((1, 2), repeat=weight):
                        report = mutant_mu(alpha, beta, entries, tau)
                        diff = mu(alpha, entries) - mu(
                            alpha, transform_index(entries, tau)
                        )
                        assert report.residue == (
                            diff % report.modulus if report.modulus else diff
                        )

    def test_weight4_matches_csum_after_normalization(self):
        rng = random.Random(71)
        for _ in range(10):
            alpha = random_realized_system(rng, depth=5)
            beta = random_realized_system(rng, depth=5)
            alpha2, beta2 = normalize_linking(alpha, beta)
            base = mutant_mu(alpha2, beta2, (1, 1, 2, 2))
            for tau in MUTATION_TYPES:
                report = mutant_mu(alpha2, beta2, (1, 1, 2, 2), tau)
                assert report.modulus == base.modulus
                assert report.residue == base.residue

    def test_congruence_against_mutant_system(self):
        rng = random.Random(73)
        for _ in range(10):
            alpha = random_realized_system(rng, depth=5)
            beta = random_realized_system(rng, depth=5)
            for tau in MUTATION_TYPES:
                for weight in range(2, 5):
                    for entries in product((1, 2), repeat=weight):
                        assert mutant_mu(alpha, beta, entries, tau).congruent


class TestNormalizeLinking:
    def test_zero_linking_unchanged(self):
        alpha, beta = hopf_type(), trivial()
        assert normalize_linking(alpha, beta) == (alpha, beta)

    def test_shifts_linking(self):
        alpha, beta = trivial(), hopf_type()
        alpha2, beta2 = normalize_linking(alpha, beta)
        assert alpha2.linking(1, 2) == 1
        assert beta2.linking(1, 2) == 0

    def test_sum_words_unchanged(self):
        rng = random.Random(79)
        for _ in range(10):
            alpha = random_realized_system(rng, depth=5)
            beta = random_realized_system(rng, depth=5)
            alpha2, beta2 = normalize_linking(alpha, beta)
            assert connected_sum(alpha2, beta2) == connected_sum(alpha, beta)

    def test_matches_oracle_words(self):
        rng = random.Random(83)
        for k in (-3, -2, -1, 1, 2, 3):
            for _ in range(5):
                depth = rng.randint(3, 6)
                alpha = random_realized_system(rng, depth=depth)
                beta = random_realized_system(rng, depth=depth, linking=k)
                assert beta.linking(1, 2) == k
                assert normalize_linking(alpha, beta) == normalize_linking_oracle(
                    alpha, beta
                )


class TestWeightLt6:
    def test_trivial_pair(self):
        assert weight_lt6_invariance_check(trivial(), trivial())

    @pytest.mark.parametrize("weight", [2, 4])
    def test_check_can_fail(self, monkeypatch, weight):
        # the reports read mubar.mutation.mu, the pair's own mu-bar does
        # not, so one more at a weight breaks that weight's comparison
        monkeypatch.setattr(
            "mubar.mutation.mu",
            lambda system, index: mu(system, index) + (len(index) == weight),
        )
        assert not weight_lt6_invariance_check(trivial(5), trivial(5))
        monkeypatch.undo()
        assert weight_lt6_invariance_check(trivial(5), trivial(5))

    def test_corpus_pair(self):
        hopf = longitudes_mod_q(hopf_pd(), 5)
        borr2 = sub_borromean()
        assert weight_lt6_invariance_check(hopf, borr2)

    def test_random_realized_pairs(self):
        rng = random.Random(83)
        for _ in range(15):
            alpha = random_realized_system(rng, depth=5)
            beta = random_realized_system(rng, depth=5)
            assert weight_lt6_invariance_check(alpha, beta)

    def test_depth_guard(self):
        # mu_bar of 1122 needs depth 4, and checks it
        assert weight_lt6_invariance_check(hopf_type(4), hopf_type(4))
        with pytest.raises(PreconditionError, match="weight 4 exceeds"):
            weight_lt6_invariance_check(hopf_type(3), hopf_type(3))


def sub_borromean():
    return reorder(longitudes_mod_q(borromean_pd(), 5), (1, 2))


class TestFindDetector:
    def test_trivial_alpha_empty(self):
        assert find_detector(trivial(7), 6, "F") == []

    def test_zero_level_reads_no_coefficient(self, monkeypatch):
        # only nonzero terms are read, so 2^18 indices cost no read
        def refuse(self, mono):
            raise AssertionError(f"coefficient read at {mono}")

        monkeypatch.setattr("mubar.magnus.NCSeries.coefficient", refuse)
        for tau in MUTATION_TYPES:
            assert find_detector(trivial(20), 18, tau) == []

    def test_l6_contains_112222(self):
        alpha = milnor_l6_system()
        for tau in ("F", "FR"):
            detectors = find_detector(alpha, 6, tau)
            assert (1, 1, 2, 2, 2, 2) in detectors

    def test_l6_f_and_fr_detect_alike(self):
        # weight-6 values of the bundled link are constant on cyclic
        # classes, and reversal preserves those classes, so F and FR
        # find the same detectors
        alpha = milnor_l6_system()
        assert find_detector(alpha, 6, "F") == find_detector(alpha, 6, "FR")

    def test_l6_blind_to_orientation_reversal(self):
        # reversal fixes every weight-6 cyclic class of the bundled
        # link, so type R needs a different (weight >= 10) example
        alpha = milnor_l6_system()
        assert find_detector(alpha, 6, "R") == []

    def test_precondition_names_failing_index(self):
        with pytest.raises(PreconditionError, match="12"):
            find_detector(hopf_type(), 4, "F")

    def test_weight2_detector_empty_by_symmetry(self):
        # linking number is symmetric, so weight 2 never detects
        rng = random.Random(89)
        for _ in range(5):
            alpha = random_realized_system(rng, depth=5, linking=0)
            assert find_detector(alpha, 2, "F") == []


class TestFindDetectorAgainstDefinition:
    @pytest.mark.parametrize("q", range(2, 11))
    def test_commutator_systems(self, q):
        systems = commutator_systems(q)
        if q == 6:
            systems += [milnor_l6_system(6), milnor_l6_system()]
        for alpha in systems:
            assert first_nonvanishing(alpha, q - 1) is None
            for tau in MUTATION_TYPES:
                assert find_detector(alpha, q, tau) == [
                    entries
                    for entries in product((1, 2), repeat=q)
                    if mu(alpha, entries) != mu(alpha, transform_index(entries, tau))
                ]

    def test_l6_refused_past_its_first_weight(self):
        # the definition compares values free of indeterminacy only when
        # every lower weight vanishes, and l6 has weight-6 values
        for tau in MUTATION_TYPES:
            with pytest.raises(PreconditionError, match="at index 112222"):
                find_detector(milnor_l6_system(), 7, tau)


class TestTheoremMainWitness:
    def test_l6_witnesses(self):
        alpha = milnor_l6_system()
        reports = mutative_pair_report(alpha, 6, "F").witnesses
        assert reports
        for report in reports:
            assert report.modulus == 0
            assert report.residue != 0
            assert report.congruent
        by_index = {r.index: r for r in reports}
        assert by_index[(1, 1, 2, 2, 2, 2)].residue == -1

    def test_commutator_style_alpha(self):
        # generic depth-5 commutator longitudes: everything below 6 vanishes
        alpha = LongitudeSystem(
            2, 7, (left_normed(2, 1, 1, 2, 1), left_normed(1, 2, 2, 1, 2))
        )
        reports = mutative_pair_report(alpha, 6, "F").witnesses
        for report in reports:
            expected = mu(alpha, report.index) - mu(
                alpha, transform_index(report.index, "F")
            )
            assert report.residue == expected
            assert report.congruent

    def test_trivial_alpha_vacuous(self):
        assert mutative_pair_report(trivial(7), 6, "F").witnesses == ()

    def test_mutant_lower_weight_refused(self, monkeypatch):
        # a beta that links alpha gives the mutant a weight-2 value
        monkeypatch.setattr("mubar.mutation.inverse_mirror", lambda alpha: hopf_type(7))
        with pytest.raises(PreconditionError) as info:
            mutative_pair_report(milnor_l6_system(), 6, "F")
        assert str(info.value) == "mutant has nonvanishing lower-weight invariant at 12"


class TestApplyMutation:
    def test_f_swaps_roles(self):
        hopf = longitudes_mod_q(hopf_pd(), 5)
        swapped = apply_mutation(hopf, "F")
        for weight in range(2, 5):
            for entries in product((1, 2), repeat=weight):
                assert mu(swapped, entries) == mu(
                    hopf, transform_index(entries, "F")
                )

    def test_r_is_word_reversal(self):
        system = sub_borromean()
        reversed_system = apply_mutation(system, "R")
        for old, new in zip(system.longitudes, reversed_system.longitudes):
            assert new == Word(tuple(reversed(old.letters)))
