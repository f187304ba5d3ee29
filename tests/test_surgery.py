import os
import random
import subprocess
import sys
from contextlib import redirect_stdout
from io import StringIO
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import mubar.magnus
import mubar.milnor
import mubar.mutation
import mubar.surgery
from mubar.cli import main
from mubar.corpus import (
    borromean_braid,
    borromean_pd,
    corpus_files,
    hopf_braid,
    hopf_pd,
    milnor_l6_system,
    unlink_pd,
)
from mubar.errors import PreconditionError
from mubar.links import (
    PureBraidWord,
    artin_longitudes,
    connected_sum,
    inverse_mirror,
    longitudes_mod_q,
)
from mubar.milnor import LongitudeSystem
from mubar.mutation import (
    MUTATION_TYPES,
    MutativePairReport,
    apply_mutation,
    find_detector,
    mutant_mu,
    mutative_pair_report,
)
from mubar.surgery import lcq_is_free
from mubar.magnus import lcs_depth
from mubar.words import Word, commutator, left_normed

from link_generators import commutator_systems, random_realized_system


def route_b_oracle(system: LongitudeSystem, q: int) -> int | None:
    """Route B of lcq_is_free before it read the cached expansions: the
    first relator with lcs_depth < q, each word expanded again at q."""
    for i, w in enumerate(system.longitudes, start=1):
        if lcs_depth(w, q) < q:
            return i
    return None


def mutative_pair_report_oracle(
    alpha: LongitudeSystem, q: int, tau: str
) -> MutativePairReport:
    """The pair report before it took its witnesses from
    witnessed_mutant; its body is verbatim."""
    detectors = find_detector(alpha, q, tau)
    if not detectors:
        return MutativePairReport(q=q, mutation=tau, found=False)
    beta = inverse_mirror(alpha)
    ribbon = connected_sum(alpha, beta)
    mutant_sys = connected_sum(alpha, apply_mutation(beta, tau))
    reports = tuple(mutant_mu(alpha, beta, d, tau) for d in detectors)
    return MutativePairReport(
        q=q,
        mutation=tau,
        found=lcq_is_free(ribbon, q).free and not lcq_is_free(mutant_sys, q).free,
        detectors=tuple(detectors),
        ribbon_sum=lcq_is_free(ribbon, q),
        mutant=lcq_is_free(mutant_sys, q),
        witnesses=reports,
    )


class TestLcqIsFree:
    def test_unlink_free_at_all_depths(self):
        system = longitudes_mod_q(unlink_pd(2), 5)
        for q in range(2, system.depth + 1):
            report = lcq_is_free(system, q)
            assert report.free
            assert report.witness_index is None
            assert report.witness_relator is None

    def test_hopf_not_free_at_two(self):
        system = longitudes_mod_q(hopf_pd(), 4)
        report = lcq_is_free(system, 2)
        assert not report.free
        assert report.witness_index == (1, 2)
        assert report.witness_relator == 1

    def test_borromean(self):
        system = longitudes_mod_q(borromean_pd(), 4)
        assert lcq_is_free(system, 2).free
        report = lcq_is_free(system, 3)
        assert not report.free
        assert report.witness_index == (1, 2, 3)

    def test_witness_is_shortlex_least(self):
        system = longitudes_mod_q(hopf_pd(), 5)
        report = lcq_is_free(system, 4)
        assert report.witness_index == (1, 2)

    def test_depth_guard(self):
        system = longitudes_mod_q(hopf_pd(), 3)
        with pytest.raises(PreconditionError, match=r"weight 4 exceeds .*up to 3\)"):
            lcq_is_free(system, 4)
        with pytest.raises(PreconditionError):
            lcq_is_free(system, 1)

    def test_boundary_depth_allowed(self):
        system = longitudes_mod_q(borromean_pd(), 3)
        report = lcq_is_free(system, 3)
        assert not report.free

    def test_shallow_relator_against_free_scan_raises(self, monkeypatch):
        # route A's scan reads NCSeries.nonzero, so only route B sees this
        system = longitudes_mod_q(unlink_pd(2), 4)
        monkeypatch.setattr(
            mubar.magnus.NCSeries, "min_nonconstant_degree", lambda self: 1
        )
        with pytest.raises(RuntimeError) as info:
            lcq_is_free(system, 3)
        assert str(info.value) == (
            "free-nilpotence routes disagree at q=3: "
            "mu-bar witness None, relator 1"
        )

    def test_scan_witness_against_deep_relators_raises(self, monkeypatch):
        system = longitudes_mod_q(unlink_pd(2), 4)
        monkeypatch.setattr(mubar.surgery, "first_nonvanishing", lambda s, q: (1, 2))
        with pytest.raises(RuntimeError) as info:
            lcq_is_free(system, 3)
        assert str(info.value) == (
            "free-nilpotence routes disagree at q=3: "
            "mu-bar witness (1, 2), relator None"
        )


def _corpus_systems():
    l6 = milnor_l6_system(7)
    return {
        "unlink2": longitudes_mod_q(unlink_pd(2), 6),
        "unlink3": longitudes_mod_q(unlink_pd(3), 5),
        "hopf": longitudes_mod_q(hopf_pd(), 6),
        "borromean": longitudes_mod_q(borromean_pd(), 6),
        "hopf-braid": artin_longitudes(hopf_braid(), 6),
        "borromean-braid": artin_longitudes(borromean_braid(), 6),
        "l6": l6,
        "l6-ribbon": connected_sum(l6, inverse_mirror(l6)),
        "l6-mutant": connected_sum(l6, apply_mutation(inverse_mirror(l6), "F")),
    }


def _assert_routes_agree(system: LongitudeSystem):
    for q in range(2, system.depth + 1):
        report = lcq_is_free(system, q)
        assert report.witness_relator == route_b_oracle(system, q), q


class TestRouteBAgainstOracle:
    @pytest.mark.parametrize("name", sorted(_corpus_systems()))
    def test_corpus(self, name):
        _assert_routes_agree(_corpus_systems()[name])

    def test_random_realized_past_q(self):
        # the system's expansion runs to depth q..q+2, the oracle's to q
        rng = random.Random(89)
        for q in range(2, 7):
            for depth in range(q, q + 3):
                for _ in range(8):
                    system = random_realized_system(rng, depth=depth)
                    assert lcq_is_free(system, q).witness_relator == (
                        route_b_oracle(system, q)
                    )

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(st.data(), st.integers(2, 4), st.integers(2, 6))
    def test_braid_closures(self, data, strands, depth):
        pairs = [(i, j) for i in range(1, strands) for j in range(i + 1, strands + 1)]
        letters = data.draw(
            st.lists(
                st.tuples(st.sampled_from(pairs), st.sampled_from((1, -1))),
                max_size=6,
            )
        )
        braid = PureBraidWord(strands, tuple((i, j, e) for (i, j), e in letters))
        _assert_routes_agree(artin_longitudes(braid, depth))


class TestExpansionCount:
    def test_lcq_expands_each_longitude_once(self, tmp_path, monkeypatch):
        # l6 is free at q = 5, so route B reads both relators; it used to
        # expand each word a second time, four calls in all
        path = tmp_path / "l6.json"
        path.write_text(corpus_files()["l6.json"])
        calls = []
        expand = mubar.magnus.magnus_expand

        def counting(w, q):
            calls.append(q)
            return expand(w, q)

        monkeypatch.setattr(mubar.milnor, "magnus_expand", counting)
        monkeypatch.setattr(mubar.magnus, "magnus_expand", counting)
        with redirect_stdout(StringIO()) as out:
            assert main(["lcq", "--link", str(path), "--q", "5"]) == 0
        assert '"free": true' in out.getvalue()
        assert calls == [5, 5]


_letters = st.tuples(st.integers(1, 3), st.sampled_from((1, -1)))
_words = st.lists(_letters, max_size=6).map(lambda ls: Word(tuple(ls)))


class TestRouteBDepth:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(st.lists(_words, min_size=1, max_size=4), st.integers(2, 7))
    def test_expanding_at_q_decides_like_q_plus_one(self, factors, q):
        # route B asks whether some nonconstant term of degree < q
        # exists; the extra degree of a q + 1 expansion cannot matter
        w = factors[0]
        for v in factors[1:]:
            w = commutator(w, v)
        assert (lcs_depth(w, q) < q) == (lcs_depth(w, q + 1) < q)


class TestLayering:
    def test_import_loads_neither_links_nor_mutation(self):
        # the mutative pair is built in mutation, which imports surgery;
        # -S skips site, as TestStartup in test_cli does
        probe = (
            "import sys, mubar.surgery; "
            "print(sorted({'mubar.links', 'mubar.mutation'} & set(sys.modules)))"
        )
        src = Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        done = subprocess.run(
            [sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True
        )
        assert (done.returncode, done.stdout, done.stderr) == (0, "[]\n", "")


class TestMutativePair:
    def test_trivial_alpha_negative_report(self):
        trivial = LongitudeSystem(2, 7, (Word(), Word()))
        report = mutative_pair_report(trivial, 6, "F")
        assert not report.found
        assert report.detectors == ()
        assert report.ribbon_sum is None

    def test_l6_distinct_quotients(self):
        alpha = milnor_l6_system()
        report = mutative_pair_report(alpha, 6, "F")
        assert report.found
        assert (1, 1, 2, 2, 2, 2) in report.detectors
        assert report.ribbon_sum.free
        assert not report.mutant.free
        assert report.mutant.witness_index is not None
        assert all(r.residue != 0 for r in report.witnesses)

    def test_each_system_expanded_once(self, monkeypatch):
        # two longitudes each of alpha, beta, the mutant and the ribbon
        # sum, read through the LongitudeSystem cache by the detector
        # scan, the reports and both routes of lcq_is_free.  Building the
        # mutant for every detector made this 43, and route B's second
        # expansion of each relator 11.
        calls = []
        expand = mubar.magnus.magnus_expand

        def counting(w, q):
            calls.append(q)
            return expand(w, q)

        monkeypatch.setattr(mubar.milnor, "magnus_expand", counting)
        monkeypatch.setattr(mubar.magnus, "magnus_expand", counting)
        report = mutative_pair_report(milnor_l6_system(7), 6, "F")
        assert len(report.detectors) == 30
        assert len(calls) == 8

    def test_witnesses_compute_no_delta(self, monkeypatch):
        # both halves of the pair vanish below q, so every witness modulus
        # is 0 without a Delta; computing them made 60 delta calls here
        calls = []
        delta = mubar.mutation.delta
        monkeypatch.setattr(
            mubar.mutation, "delta", lambda s, index: calls.append(index) or delta(s, index)
        )
        report = mutative_pair_report(milnor_l6_system(7), 6, "F")
        assert len(report.witnesses) == 30
        assert calls == []

    def test_found_is_read_off_the_two_quotients(self):
        # 78 reports: the commutator systems at q = 3-10 and l6 at q = 5-6,
        # each with F, R and FR.  The commutator systems are no link's, and
        # where their R congruence fails the mutant quotient is free too.
        cases = [
            (f"comm{q}[{k}]", alpha, q)
            for q in range(3, 11)
            for k, alpha in enumerate(commutator_systems(q))
        ]
        cases += [(f"l6-q{q}", milnor_l6_system(), q) for q in (5, 6)]
        free_mutants, found = set(), set()
        for name, alpha, q in cases:
            for tau in MUTATION_TYPES:
                report = mutative_pair_report(alpha, q, tau)
                if not report.detectors:
                    assert not report.found and report.mutant is None
                    continue
                assert report.ribbon_sum.free
                assert report.found == (not report.mutant.free)
                if report.found:
                    found.add((name, tau))
                else:
                    free_mutants.add((name, tau))
                    assert not any(r.congruent for r in report.witnesses)
        assert len(cases) * len(MUTATION_TYPES) == 78
        assert free_mutants == {
            *((f"comm{q}[{k}]", "R") for q in (4, 6, 8, 10) for k in range(3)),
            ("comm6[0]", "FR"),
        }
        assert {("l6-q6", "F"), ("l6-q6", "FR")} <= found

    def test_json_shape(self):
        alpha = milnor_l6_system()
        data = mutative_pair_report(alpha, 6, "F").to_json()
        assert data["found"] is True
        assert data["ribbon_sum"]["free"] is True
        assert data["mutant"]["free"] is False
        assert "112222" in data["detectors"]


class TestMutativePairAgainstOracle:
    @pytest.mark.parametrize("tau", MUTATION_TYPES)
    @pytest.mark.parametrize(
        "alpha, q",
        [
            (milnor_l6_system(), 6),
            (milnor_l6_system(), 5),
            (LongitudeSystem(2, 7, (Word(), Word())), 6),
            (LongitudeSystem(
                2, 7, (left_normed(2, 1, 1, 2, 1), left_normed(1, 2, 2, 1, 2))
            ), 6),
        ],
        ids=["l6", "l6-q5", "trivial", "commutator"],
    )
    def test_matches_oracle(self, alpha, q, tau):
        assert mutative_pair_report(alpha, q, tau) == mutative_pair_report_oracle(
            alpha, q, tau
        )

    @pytest.mark.parametrize("tau", MUTATION_TYPES)
    @pytest.mark.parametrize("which", range(3), ids=["w1-w2", "e-w2", "w1-e"])
    def test_commutator_systems_q8(self, which, tau):
        # the oracle computes both Deltas of every witness; all are 0
        alpha = commutator_systems(8)[which]
        report = mutative_pair_report_oracle(alpha, 8, tau)
        assert mutative_pair_report(alpha, 8, tau) == report
        assert report.found == (not report.mutant.free)
        assert all(r.modulus == 0 for r in report.witnesses)
