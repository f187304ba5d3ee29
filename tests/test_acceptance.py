"""Acceptance suite: one test per criterion, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
All expected values are exact; the two runtime budgets are asserted
with wall-clock measurements on cold caches.
"""

import json
import math
import random
import time
from itertools import product

import pytest

import mubar.brackets as brackets
from mubar.cli import main
from mubar.corpus import (
    borromean_braid,
    borromean_pd,
    hopf_braid,
    hopf_pd,
    milnor_l6_system,
    unlink_pd,
)
from mubar.links import (
    PureBraidWord,
    artin_longitudes,
    connected_sum,
    inverse_mirror,
    longitudes_mod_q,
)
from mubar.magnus import lcs_depth, magnus_expand, series_mul
from mubar.milnor import (
    all_vanish_up_to,
    delta,
    mu,
    mu_bar,
    residue_of,
)
from mubar.mutation import (
    MUTATION_TYPES,
    apply_mutation,
    find_detector,
    mutant_mu,
    mutative_pair_report,
    transform_index,
    weight_lt6_invariance_check,
)
from mubar.surgery import lcq_is_free
from mubar.words import Word, commutator, generator, left_normed

from link_generators import random_realized_system

PAIR_SEED = 20011220
PAIR_COUNT = 100
PAIR_DEPTH = 5

PAPER_TERMS = {
    "lk(yyxy,(yxy,xy))": -20,
    "lk(yyxy,yxyxy)": -20,
    "lk(yyxy,yyxxy)": -20,
}


def two_component_indices(max_weight):
    for weight in range(2, max_weight + 1):
        yield from product((1, 2), repeat=weight)


@pytest.fixture(scope="module")
def realized_pairs():
    rng = random.Random(PAIR_SEED)
    return [
        (
            random_realized_system(rng, depth=PAIR_DEPTH),
            random_realized_system(rng, depth=PAIR_DEPTH),
        )
        for _ in range(PAIR_COUNT)
    ]


def test_criterion_01_massey_formula_reproduction(capsys):
    start = time.monotonic()
    expr = brackets.massey_sum((1, 2, 2, 1, 2, 1, 2, 2, 2))
    elapsed = time.monotonic() - start
    terms = {t["linking"]: t["coeff"] for t in expr.to_json()}
    assert terms == PAPER_TERMS
    assert elapsed < 5.0, f"expansion took {elapsed:.2f}s"
    code = main(["massey-sum", "--index", "122121222"])
    out = capsys.readouterr().out
    assert code == 0
    cli_terms = {t["linking"]: t["coeff"] for t in json.loads(out)["terms"]}
    assert cli_terms == PAPER_TERMS
    print(
        f"\ncriterion 1 PASS: massey-sum(122121222) = three canonical "
        f"9-linkings at -20 each in {elapsed:.2f}s"
    )


def test_criterion_02_evaluation_minus_twenty():
    expr = brackets.massey_sum((1, 2, 2, 1, 2, 1, 2, 2, 2))
    value, _ = brackets.evaluate_detailed(expr, {"lk(yyxy,(yxy,xy))": 1})
    assert value == -20
    print("\ncriterion 2 PASS: evaluation with lk(yyxy,(yxy,xy))=1 gives -20")


def test_criterion_03_delta_1122_is_linking_number():
    # Criterion: Delta(1122) is the value the linking number determines,
    # |lk| for odd lk and |lk|/2 for even lk.  Proof: only x1 letters
    # reach pure-X1 monomials, so mu(112) = C(lk, 2) exactly, cyclic
    # symmetry makes the other weight-3 rotations agree with it mod lk,
    # and Milnor's gcd is gcd(|lk|, C(lk, 2)).  Stated here in closed
    # form; the companion test checks the gcd form.  See the README
    # section "Delta(1122) and the linking number".
    rng = random.Random(PAIR_SEED + 1)
    linkings = [(-3 + k % 7) for k in range(25)]
    seen: dict[int, set[int]] = {}
    for lk in linkings:
        system = random_realized_system(rng, depth=5, linking=lk)
        assert system.linking(1, 2) == lk
        got = delta(system, (1, 1, 2, 2))
        assert got == (abs(lk) if lk % 2 else abs(lk) // 2), f"lk={lk}: {got}"
        seen.setdefault(lk, set()).add(got)
    # |lk| itself is wrong at lk = +-2, right at the other values
    assert seen[-2] == seen[2] == {1}
    for lk in (-3, -1, 0, 1, 3):
        assert seen[lk] == {abs(lk)}, f"lk={lk}"
    # named links: the closures of the 2-strand pure braids A12^k
    for k, expected in zip(range(-3, 5), (3, 1, 1, 0, 1, 1, 3, 2)):
        braid = PureBraidWord(2, ((1, 2, 1 if k > 0 else -1),) * abs(k))
        system = artin_longitudes(braid, 5)
        assert system.linking(1, 2) == k
        assert delta(system, (1, 1, 2, 2)) == expected, f"A12^{k}"
    print(
        "\ncriterion 3 PASS: Delta(1122) = |lk| (odd lk), |lk|/2 (even lk) "
        "on 25 realized systems, lk in -3..3, and on A12^k, k in -3..4"
    )


def test_criterion_03_companion_sharp_delta_identity():
    # The provable form of the criterion: on realized systems,
    # delta(1122) = gcd(|lk|, C(lk, 2)); this equals |lk| for odd lk
    # and for |lk| <= 1, covering every case of criterion 3 except
    # lk = +-2, where the value is 1.
    rng = random.Random(PAIR_SEED + 1)
    linkings = [(-3 + k % 7) for k in range(25)]
    for lk in linkings:
        system = random_realized_system(rng, depth=5, linking=lk)
        assert mu(system, (1, 1, 2)) == lk * (lk - 1) // 2
        expected = math.gcd(abs(lk), abs(lk * (lk - 1) // 2))
        assert delta(system, (1, 1, 2, 2)) == expected, f"lk={lk}"
        if lk % 2 != 0 or abs(lk) <= 1:
            assert expected == abs(lk)
    print(
        "\ncriterion 3 companion PASS: Delta(1122) = gcd(|lk|, C(lk,2)) "
        "on 25 realized systems; equals |lk| away from even lk"
    )


def test_criterion_04_index_transforms():
    entries = (1, 1, 2, 2, 2, 2)
    got = {
        tau: "".join(str(i) for i in transform_index(entries, tau))
        for tau in MUTATION_TYPES
    }
    assert got == {"F": "221111", "R": "222211", "FR": "111122"}
    print("\ncriterion 4 PASS: 112222 -> F:221111 R:222211 FR:111122")


def test_criterion_05_lemma_congruences(realized_pairs):
    start = time.monotonic()
    indices = list(two_component_indices(4))
    for alpha, beta in realized_pairs:
        total = connected_sum(alpha, beta)
        mutants = {
            tau: connected_sum(alpha, apply_mutation(beta, tau))
            for tau in MUTATION_TYPES
        }
        for entries in indices:
            modulus = math.gcd(delta(alpha, entries), delta(beta, entries))
            lhs = mu(total, entries)
            rhs = mu(alpha, entries) + mu(beta, entries)
            assert residue_of(lhs, modulus) == residue_of(rhs, modulus)
            for tau, mutant in mutants.items():
                transformed = transform_index(entries, tau)
                mod_t = math.gcd(delta(alpha, entries), delta(beta, transformed))
                lhs_t = mu(mutant, entries)
                rhs_t = mu(alpha, entries) + mu(beta, transformed)
                assert residue_of(lhs_t, mod_t) == residue_of(rhs_t, mod_t)
    # the report objects assert the same congruences internally
    alpha, beta = realized_pairs[0]
    assert mutant_mu(alpha, beta, (1, 1, 2, 2)).congruent
    assert all(
        mutant_mu(alpha, beta, (1, 1, 2, 2), tau).congruent
        for tau in MUTATION_TYPES
    )
    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"congruence sweep took {elapsed:.1f}s"
    print(
        f"\ncriterion 5 PASS: sum and mutant congruences on {PAIR_COUNT} "
        f"realized pairs, all |I| <= 4, in {elapsed:.1f}s"
    )


def test_criterion_06_weight_lt6_invariance(realized_pairs):
    for alpha, beta in realized_pairs:
        assert weight_lt6_invariance_check(alpha, beta)
    print(
        f"\ncriterion 6 PASS: weight<6 residues preserved by all bi-mutation "
        f"types on {PAIR_COUNT} realized pairs"
    )


def test_criterion_07_magnus_lcs_duality():
    rng = random.Random(PAIR_SEED + 2)

    def random_commutator(depth):
        if depth == 1:
            return generator(rng.randint(1, 3))
        split = rng.randint(1, depth - 1)
        return commutator(random_commutator(split), random_commutator(depth - split))

    for _ in range(200):
        depth = rng.randint(1, 5)
        word = random_commutator(depth)
        assert lcs_depth(word, 6) >= depth
    for q in (4, 5, 6):
        for depth in range(2, q):
            basic = left_normed(1, *([2] * (depth - 1)))
            assert lcs_depth(basic, q) == depth
    for _ in range(500):
        q = rng.randint(2, 6)
        u = Word(
            tuple(
                (rng.randint(1, 3), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 12))
            )
        )
        v = Word(
            tuple(
                (rng.randint(1, 3), rng.choice((1, -1)))
                for _ in range(rng.randint(0, 12))
            )
        )
        assert magnus_expand(u * v, q) == series_mul(
            magnus_expand(u, q), magnus_expand(v, q)
        )
    print(
        "\ncriterion 7 PASS: lcs_depth bounds on 200 commutators, exact "
        "left-normed depths, multiplicativity on 500 word pairs"
    )


def test_criterion_08_two_route_agreement():
    rng = random.Random(PAIR_SEED + 3)
    cases = [
        (longitudes_mod_q(hopf_pd(), 5), {2: False, 3: False, 4: False, 5: False}),
        (longitudes_mod_q(borromean_pd(), 5), {2: True, 3: False, 4: False}),
        (longitudes_mod_q(unlink_pd(2), 5), {q: True for q in range(2, 6)}),
        (artin_longitudes(hopf_braid(), 5), {2: False}),
        (artin_longitudes(borromean_braid(), 5), {2: True, 3: False}),
    ]
    for _ in range(10):
        cases.append((random_realized_system(rng, depth=5), {}))
    for system, expected in cases:
        for q in range(2, system.depth + 1):
            report = lcq_is_free(system, q)  # raises if the routes disagree
            route_b = all(
                lcs_depth(w, q + 1) >= q for w in system.longitudes
            )
            assert report.free == route_b
            if q in expected:
                assert report.free == expected[q], (q, report)
    print(
        "\ncriterion 8 PASS: mu-bar vanishing and relator lcs_depth agree "
        "on Hopf/Borromean/unlink and 10 random realized systems"
    )


def test_criterion_09_mirror_negation_and_ribbon_vanishing():
    depth = 5
    systems = [
        longitudes_mod_q(unlink_pd(2), depth),
        longitudes_mod_q(hopf_pd(), depth),
        longitudes_mod_q(borromean_pd(), depth),
    ]
    for system in systems:
        mirrored = inverse_mirror(system)
        for weight in range(2, depth):
            for entries in product(range(1, system.m + 1), repeat=weight):
                base = mu_bar(system, entries)
                neg = mu_bar(mirrored, entries)
                assert neg.delta == base.delta
                if base.delta == 0:
                    assert neg.mu == -base.mu
                else:
                    assert neg.residue == (-base.mu) % base.delta
        ribbon = connected_sum(system, mirrored)
        assert all_vanish_up_to(ribbon, depth - 1)
    print(
        "\ncriterion 9 PASS: inverse_mirror negates mu (exactly where "
        "Delta=0) and ribbon sums have vanishing residues on the PD corpus"
    )


def test_criterion_10_weight6_detector():
    alpha = milnor_l6_system()
    # correctness gate for the transcription
    assert all_vanish_up_to(alpha, 5)
    assert mu_bar(alpha, (1, 1, 2, 2, 2, 2)).residue == -1
    assert mu_bar(alpha, (2, 2, 1, 1, 1, 1)).residue == 0
    detectors = find_detector(alpha, 6, "F")
    assert (1, 1, 2, 2, 2, 2) in detectors
    reports = mutative_pair_report(alpha, 6, "F").witnesses
    assert reports, "expected nonvanishing weight-6 mutant invariants"
    for report in reports:
        assert report.modulus == 0
        assert report.residue != 0
    # the mutant itself vanishes below weight 6
    mutant = connected_sum(alpha, apply_mutation(inverse_mirror(alpha), "F"))
    assert all_vanish_up_to(mutant, 5)
    assert not lcq_is_free(mutant, 6).free
    assert lcq_is_free(connected_sum(alpha, inverse_mirror(alpha)), 6).free
    print(
        "\ncriterion 10 PASS: bundled weight-6 link detects exchange "
        "mutation at 112222 with vanishing lower weights"
    )
