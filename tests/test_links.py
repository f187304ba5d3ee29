import json
import random
from itertools import combinations, permutations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mubar.cli import main
from mubar.corpus import (
    borromean_braid,
    borromean_pd,
    corpus_files,
    hopf_braid,
    hopf_pd,
    unlink_pd,
)
from mubar.errors import ParseError, PreconditionError
from mubar.links import (
    Crossing,
    PDCode,
    PureBraidWord,
    _artin_conjugators,
    _sigmas,
    _trace,
    artin_longitudes,
    braid_closure_pd,
    connected_sum,
    format_braid,
    inverse_mirror,
    load_pd,
    longitudes_mod_q,
    mirror_pd,
    parse_braid,
    reorder,
)
from mubar.magnus import check_term_budget, check_work_budget, magnus_expand
from mubar.milnor import LongitudeSystem, all_vanish_up_to, delta, mu, mu_bar
from mubar.mutation import (
    MUTATION_TYPES,
    _require_two_components,
    apply_mutation,
)
from mubar.surgery import lcq_is_free
from mubar.words import (
    Word,
    check_letter_budget,
    commutator,
    generator,
    identity,
    substitute,
)

from link_generators import borromean_system, random_pure_braid, random_realized_system


# ---------------------------------------------------------------------------
# Oracles: the relabelling maps that reorder(a, comps, flip) replaced,
# verbatim apart from their names.


def reorder_oracle(a: LongitudeSystem, perm) -> LongitudeSystem:
    """Relabel components: new component k is old component perm[k-1]."""
    perm = tuple(int(p) for p in perm)
    if sorted(perm) != list(range(1, a.m + 1)):
        raise PreconditionError(f"{perm} is not a permutation of 1..{a.m}")
    images = {perm[t]: generator(t + 1) for t in range(a.m)}
    longs = tuple(substitute(a.longitudes[p - 1], images) for p in perm)
    return LongitudeSystem(a.m, a.depth, longs)


def reorient_oracle(a: LongitudeSystem, comps) -> LongitudeSystem:
    """Reverse the orientation of the given components.

    Meridians of reversed components invert in every word; the
    longitude of a reversed component is additionally read backwards
    (word reversal with inverted letters).  0-framing is preserved.
    """
    flip = set(int(c) for c in comps)
    for c in flip:
        if not 1 <= c <= a.m:
            raise PreconditionError(f"component {c} out of range 1..{a.m}")
    images = {
        i: generator(i, -1 if i in flip else 1) for i in range(1, a.m + 1)
    }
    longs = []
    for i, w in enumerate(a.longitudes, start=1):
        if i in flip:
            w = w.inverse()
        longs.append(substitute(w, images))
    return LongitudeSystem(a.m, a.depth, tuple(longs))


def sublink_oracle(system: LongitudeSystem, keep) -> LongitudeSystem:
    """Delete all components except ``keep`` (1-based, ascending order).

    Meridians of deleted components are killed and survivors renumbered;
    for realized systems this is the longitude system of the sublink.
    """
    kept = tuple(int(k) for k in keep)
    if sorted(set(kept)) != sorted(kept) or not kept:
        raise ValueError(f"bad component selection {kept}")
    for k in kept:
        if not 1 <= k <= system.m:
            raise ValueError(f"component {k} out of range 1..{system.m}")
    images = {i: Word() for i in range(1, system.m + 1)}
    for new_pos, old in enumerate(sorted(kept), start=1):
        images[old] = generator(new_pos)
    longs = tuple(
        substitute(system.longitudes[old - 1], images) for old in sorted(kept)
    )
    return LongitudeSystem(len(kept), system.depth, longs)


def apply_mutation_oracle(system: LongitudeSystem, tau: str) -> LongitudeSystem:
    """The beta half of a mutant: F reorders, R reorients, FR does both."""
    if tau not in MUTATION_TYPES:
        raise PreconditionError(f"unknown mutation type {tau!r}")
    _require_two_components(system)
    out = system
    if "F" in tau:
        out = reorder_oracle(out, (2, 1))
    if "R" in tau:
        out = reorient_oracle(out, (1, 2))
    return out


def relabel_oracle(a: LongitudeSystem, comps, flip) -> LongitudeSystem:
    """reorder(a, comps, flip) as reorient, then sublink, then reorder."""
    kept = sorted(comps)
    sub = sublink_oracle(reorient_oracle(a, flip), kept)
    return reorder_oracle(sub, [kept.index(c) + 1 for c in comps])


# Oracles: the word pipelines that the q - 2 round rewriting and the
# closed-form pure braid step replaced, verbatim apart from their names,
# and the crossing scan and image split that framed them before the
# exponent-sum rule, verbatim.


def _writhes(pd: PDCode) -> list[int]:
    component = {arc: i for i, comp in enumerate(pd.components) for arc in comp}
    w = [0] * pd.m
    for x in pd.crossings:
        cu = component[x.under_in]
        co = component[next(iter(x.over_pair))]
        if cu == co:
            w[cu] += x.sign
    return w


def _conjugator(image: Word, i: int) -> Word:
    letters = image.letters
    t = len(letters) // 2
    w = Word(letters[:t])
    if (
        len(letters) % 2 != 1
        or letters[t] != (i, 1)
        or w * generator(i) * w.inverse() != image
    ):
        raise PreconditionError(
            f"braid is not pure: x{i} maps to {image}, not a conjugate of x{i}"
        )
    return w


def longitudes_mod_q_oracle(pd: PDCode, q: int) -> LongitudeSystem:
    """Longitude words valid mod F_q by iterated meridian rewriting.

    Every arc expression starts as the base meridian of its component;
    each of the q rewriting rounds re-derives all arc expressions along
    the component from the base arc, conjugating by the previous
    round's expression of the over-strand at every under-passage.
    """
    if q < 2:
        raise PreconditionError("depth must be at least 2")
    check_term_budget(pd.m, q)
    walks = _trace(pd)

    exprs: dict[int, Word] = {}
    for i, comp in enumerate(pd.components, start=1):
        for arc in comp:
            exprs[arc] = generator(i)

    for _ in range(q):
        new: dict[int, Word] = {}
        for i, (comp, walk) in enumerate(zip(pd.components, walks), start=1):
            xi = generator(i)
            conj = identity()
            new[comp[0]] = xi
            for t, (kind, k) in enumerate(walk[:-1] if walk else []):
                if kind == "under":
                    x = pd.crossings[k]
                    u = exprs[x.arcs[1]]
                    conj = conj * (u if x.sign == 1 else u.inverse())
                new[comp[(t + 1) % len(comp)]] = conj.inverse() * xi * conj
        exprs = new
        check_work_budget(sum(map(len, exprs.values())), pd.m, q)

    longs: list[Word] = []
    writhes = _writhes(pd)
    for i, (comp, walk) in enumerate(zip(pd.components, walks), start=1):
        lw = identity()
        for kind, k in walk:
            if kind == "under":
                x = pd.crossings[k]
                u = exprs[x.arcs[1]]
                lw = lw * (u if x.sign == 1 else u.inverse())
        lw = lw * generator(i) ** (-writhes[i - 1])
        longs.append(lw)
    try:
        return LongitudeSystem(pd.m, q, tuple(longs))
    except ValueError as exc:
        # e.g. asymmetric linking numbers from an inconsistent PD code
        raise ParseError(f"malformed PD code: {exc}") from exc


def _sigma_images_oracle(k: int, n: int, eps: int) -> dict[int, Word]:
    # Artin generator of the braid group: x_k -> x_k x_{k+1} x_k^-1,
    # x_{k+1} -> x_k; all other generators fixed.
    images = {i: generator(i) for i in range(1, n + 1)}
    if eps == 1:
        images[k] = generator(k) * generator(k + 1) * generator(k, -1)
        images[k + 1] = generator(k)
    else:
        images[k] = generator(k + 1)
        images[k + 1] = generator(k + 1, -1) * generator(k) * generator(k + 1)
    return images


def _compose_oracle(outer: dict[int, Word], inner: dict[int, Word]) -> dict[int, Word]:
    return {i: substitute(w, outer) for i, w in inner.items()}


def artin_automorphism_oracle(b: PureBraidWord) -> dict[int, Word]:
    # Each letter's short step is composed first and then substituted
    # into the long images once.  The exact images can grow
    # exponentially in braid length, so their total length is held to
    # LETTER_BUDGET after every letter.
    n = b.strands
    images = {i: generator(i) for i in range(1, n + 1)}
    for i, j, e in b.letters:
        step = {t: generator(t) for t in range(1, n + 1)}
        for k, eps in _sigmas(i, j, e):
            step = _compose_oracle(_sigma_images_oracle(k, n, eps), step)
        images = _compose_oracle(step, images)
        check_letter_budget(sum(map(len, images.values())))
    return images


def artin_longitudes_oracle(b: PureBraidWord, q: int) -> LongitudeSystem:
    """Longitudes of the closure of a pure braid via the Artin action.

    For a pure braid each x_i maps to w_i x_i w_i^-1; the i-th 0-framed
    longitude is w_i x_i^-e with e the x_i exponent sum of w_i.
    """
    if q < 2:
        raise PreconditionError("depth must be at least 2")
    check_term_budget(b.strands, q)
    images = artin_automorphism_oracle(b)
    longs = []
    for i in range(1, b.strands + 1):
        w = _conjugator(images[i], i)
        longs.append(w * generator(i) ** (-w.exponent_sum(i)))
    return LongitudeSystem(b.strands, q, tuple(longs))


@st.composite
def pure_braids(draw, max_strands: int = 5, max_letters: int = 6):
    n = draw(st.integers(2, max_strands))
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    letters = draw(
        st.lists(
            st.tuples(st.sampled_from(pairs), st.sampled_from((1, -1))),
            max_size=max_letters,
        )
    )
    return PureBraidWord(n, tuple((i, j, e) for (i, j), e in letters))


def same_expansions(a: LongitudeSystem, b: LongitudeSystem) -> bool:
    q = a.depth
    return all(
        magnus_expand(u, q) == magnus_expand(v, q)
        for u, v in zip(a.longitudes, b.longitudes, strict=True)
    )


class TestPDValidation:
    def test_roundtrip_json(self):
        pd = borromean_pd()
        assert load_pd(pd.to_json()) == pd

    def test_duplicate_arc(self):
        with pytest.raises(ParseError, match="twice"):
            PDCode(2, ((1, 2), (2, 3)), ())

    def test_unknown_arc_in_crossing(self):
        with pytest.raises(ParseError, match="unknown arc"):
            PDCode(1, ((1, 2),), (Crossing((1, 9, 2, 9), 1),))

    def test_unmatched_transition(self):
        # second crossing never consumed
        bad = {
            "m": 2,
            "components": [[1, 2], [3, 4]],
            "crossings": [
                {"arcs": [1, 3, 2, 4], "sign": 1},
                {"arcs": [1, 3, 2, 4], "sign": 1},
            ],
        }
        with pytest.raises(ParseError):
            longitudes_mod_q(load_pd(bad), 3)

    def test_budget_refusal_is_not_a_parse_error(self, monkeypatch):
        # the PD route refuses past SYSTEM_TERM_BUDGET as the other routes do
        monkeypatch.setattr("mubar.magnus.SYSTEM_TERM_BUDGET", 4)
        with pytest.raises(PreconditionError, match="SYSTEM_TERM_BUDGET = 4"):
            longitudes_mod_q(hopf_pd(), 2)

    def test_single_arc_component_must_be_crossing_free(self):
        with pytest.raises(ParseError, match="single-arc"):
            longitudes_mod_q(
                PDCode(2, ((1,), (2, 3)), (Crossing((2, 1, 3, 1), 1),)), 3
            )

    def test_single_arc_refusal_names_the_first_crossing_using_it(self):
        crossings = (
            Crossing((2, 3, 3, 2), 1),
            Crossing((3, 1, 2, 1), 1),
            Crossing((2, 1, 3, 1), -1),
        )
        with pytest.raises(ParseError) as got:
            _trace(PDCode(2, ((1,), (2, 3)), crossings))
        assert str(got.value) == (
            "single-arc component uses arc 1 at a crossing (3, 1, 2, 1)"
        )


def linking_numbers(pd: PDCode) -> list[list[int]]:
    """Pairwise linking numbers of a PD code, 0 on the diagonal."""
    system = longitudes_mod_q(pd, 2)
    return [
        [0 if i == j else system.linking(i, j) for j in range(1, pd.m + 1)]
        for i in range(1, pd.m + 1)
    ]


class TestLinkingMatrix:
    def test_hopf(self):
        assert linking_numbers(hopf_pd()) == [[0, 1], [1, 0]]

    def test_borromean(self):
        assert linking_numbers(borromean_pd()) == [[0] * 3 for _ in range(3)]

    def test_split_union_zero_row(self):
        pd = hopf_pd()
        split = PDCode(3, pd.components + ((5,),), pd.crossings)
        mat = linking_numbers(split)
        assert mat[2] == [0, 0, 0]
        assert [row[2] for row in mat] == [0, 0, 0]


class TestLongitudes:
    def test_unlink(self):
        system = longitudes_mod_q(unlink_pd(2), 4)
        assert all(w == identity() for w in system.longitudes)

    def test_hopf(self):
        system = longitudes_mod_q(hopf_pd(), 3)
        assert mu(system, (1, 2)) == 1
        assert mu(system, (2, 1)) == 1

    def test_borromean(self):
        system = longitudes_mod_q(borromean_pd(), 4)
        assert all_vanish_up_to(system, 2)
        assert mu_bar(system, (1, 2, 3)).residue in (1, -1)
        assert delta(system, (1, 2, 3)) == 0

    def test_stability_under_deeper_expansion(self):
        for pd, depth in ((hopf_pd(), 4), (borromean_pd(), 4)):
            shallow = longitudes_mod_q(pd, depth)
            deep = longitudes_mod_q(pd, depth + 2).truncate(depth)
            for weight in range(2, depth):
                for entries in product(range(1, pd.m + 1), repeat=weight):
                    assert mu(shallow, entries) == mu(deep, entries)

    def test_writhe_correction(self):
        # positive kink on an unknot: all invariants trivial
        kink = PDCode(1, ((1, 2),), (Crossing((1, 2, 2, 1), 1),))
        system = longitudes_mod_q(kink, 4)
        assert system.longitudes[0] == identity()


def r1_kink(pd: PDCode, comp: int, t: int, sign: int) -> PDCode:
    """A Reidemeister-I kink of sign ``sign`` after arc t of component comp.

    Arc a = components[comp][t] becomes a, n1, n2: a passes under n1 at
    the new crossing (a, n1, n1, n2), and n2 takes a's place in the
    crossing of the step a -> next.  That crossing is read from
    _trace's walk, not by matching arcs: on a two-arc component {a,
    next} is the over-pair of both steps.
    """
    arcs = pd.components[comp]
    a = arcs[t]
    n1 = 1 + max(arc for c in pd.components for arc in c)
    n2 = n1 + 1
    kind, k = _trace(pd)[comp][t]
    step = list(pd.crossings[k].arcs)
    slot = 0 if kind == "under" else next(i for i in (1, 3) if step[i] == a)
    step[slot] = n2
    crossings = list(pd.crossings)
    crossings[k] = Crossing(tuple(step), pd.crossings[k].sign)
    crossings.append(Crossing((a, n1, n1, n2), sign))
    components = list(pd.components)
    components[comp] = arcs[: t + 1] + (n1, n2) + arcs[t + 1 :]
    return PDCode(pd.m, tuple(components), tuple(crossings))


class TestR1Kink:
    """A kink changes a component's self-writhe, which the 0-framing
    absorbs: braid closures and the corpus diagrams have self-writhe 0,
    so only this test exercises the framing term on the PD route."""

    @pytest.mark.parametrize("pd", [hopf_pd(), borromean_pd()], ids=["hopf", "borromean"])
    def test_residues_survive_every_kink(self, pd):
        q = 5
        plain = longitudes_mod_q(pd, q)
        indices = [
            entries
            for weight in range(2, q + 1)
            for entries in product(range(1, pd.m + 1), repeat=weight)
        ]

        def residues(system):
            return [(v.delta, v.residue) for v in (mu_bar(system, e) for e in indices)]

        expected = residues(plain)
        for comp, arcs in enumerate(pd.components):
            for t in range(len(arcs)):
                for sign in (1, -1):
                    kinked = longitudes_mod_q(r1_kink(pd, comp, t, sign), q)
                    assert residues(kinked) == expected, (comp, t, sign)
                    # the words do change, so the comparison is not vacuous
                    assert any(mu(kinked, e) != mu(plain, e) for e in indices)

    def test_round_counts_the_conjugators(self, monkeypatch):
        # 30 kinks in a row keep component 1's arc expressions one letter
        # long (66 arc letters in all) while its conjugators grow to x1^30
        # (961 letters); the round's work is in those, so both count
        pd = hopf_pd()
        for _ in range(30):
            pd = r1_kink(pd, 0, 0, 1)
        monkeypatch.setattr("mubar.links.ARC_LETTER_BUDGET", 1027)
        longitudes_mod_q(pd, 3)
        monkeypatch.setattr("mubar.links.ARC_LETTER_BUDGET", 1026)
        with pytest.raises(PreconditionError) as got:
            longitudes_mod_q(pd, 3)
        assert str(got.value) == (
            "rewriting round 1 builds more than ARC_LETTER_BUDGET = 1026 letters"
        )


def _commute(a, b) -> bool:
    # Artin's presentation of P_n: A_rs and A_ij commute when their
    # intervals are disjoint or nested, and so do two powers of one A_ij
    (r, s, _), (i, j, _) = a, b
    return (r, s) == (i, j) or s < i or j < r or i < r < s < j or r < i < j < s


def pure_braid_moves(rng: random.Random, braid: PureBraidWord, moves: int):
    """The braid after ``moves`` moves that keep its closure's link.

    Each move inserts A_ij^e A_ij^-e, rotates the word (conjugation by a
    pure braid, so no strand is relabelled), or swaps two neighbours that
    commute in P_n.  Neither route is consulted, so residues compared
    across the moves test both without a second implementation.
    """
    n = braid.strands
    pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
    letters = list(braid.letters)
    for _ in range(moves):
        swaps = [k for k in range(len(letters) - 1) if _commute(letters[k], letters[k + 1])]
        kind = rng.choice(("insert", "rotate", "swap") if swaps else ("insert", "rotate"))
        if kind == "insert":
            (i, j), e = rng.choice(pairs), rng.choice((1, -1))
            k = rng.randint(0, len(letters))
            letters[k:k] = [(i, j, e), (i, j, -e)]
        elif kind == "rotate":
            k = rng.randint(0, len(letters))
            letters = letters[k:] + letters[:k]
        else:
            k = rng.choice(swaps)
            letters[k], letters[k + 1] = letters[k + 1], letters[k]
    return PureBraidWord(n, tuple(letters))


class TestBraidMoves:
    """An implementation-free oracle for both braid routes: every
    (Delta, residue) is a link invariant, so no move may change one."""

    @settings(max_examples=50, deadline=None, derandomize=True)
    @given(pure_braids(max_strands=4, max_letters=6), st.randoms(use_true_random=False))
    def test_residues_survive_moves(self, braid, rng):
        q = 4
        moved = pure_braid_moves(rng, braid, 6)
        indices = [
            entries
            for weight in range(2, q + 1)
            for entries in product(range(1, braid.strands + 1), repeat=weight)
        ]

        def residues(system):
            return [(v.delta, v.residue) for v in (mu_bar(system, e) for e in indices)]

        def via_pd(b, q):
            return longitudes_mod_q(braid_closure_pd(b), q)

        for route in (artin_longitudes, via_pd):
            assert residues(route(moved, q)) == residues(route(braid, q))


class TestArtin:
    def test_empty_braid(self):
        system = artin_longitudes(PureBraidWord(3, ()), 4)
        assert all(w == identity() for w in system.longitudes)

    def test_hopf_generator(self):
        system = artin_longitudes(hopf_braid(), 3)
        assert mu(system, (1, 2)) == 1

    def test_commutator_braid_is_borromean_type(self):
        system = artin_longitudes(borromean_braid(), 4)
        assert all_vanish_up_to(system, 2)
        assert mu_bar(system, (1, 2, 3)).residue in (1, -1)

    def test_agreement_with_pd_route(self):
        hopf_a = artin_longitudes(hopf_braid(), 4)
        hopf_p = longitudes_mod_q(hopf_pd(), 4)
        borr_a = artin_longitudes(borromean_braid(), 4)
        borr_p = longitudes_mod_q(borromean_pd(), 4)
        for a, b in ((hopf_a, hopf_p), (borr_a, borr_p)):
            for weight in range(2, 4):
                for entries in product(range(1, a.m + 1), repeat=weight):
                    assert mu_bar(a, entries).residue == mu_bar(b, entries).residue

    def test_bad_generator(self):
        with pytest.raises(ValueError):
            PureBraidWord(3, ((2, 2, 1),))
        with pytest.raises(ValueError):
            PureBraidWord(3, ((1, 4, 1),))

    def test_closure_pd_of_hopf_braid(self):
        pd = braid_closure_pd(hopf_braid())
        assert linking_numbers(pd) == [[0, 1], [1, 0]]
        assert mu(longitudes_mod_q(pd, 3), (1, 2)) == 1

    def test_closure_pd_with_idle_strand(self):
        braid = PureBraidWord(3, ((1, 2, 1),))
        pd = braid_closure_pd(braid)
        assert len(pd.components[2]) == 1  # third strand never crosses
        mat = linking_numbers(pd)
        assert mat[0][1] == 1 and mat[2] == [0, 0, 0]

    def test_closure_pd_agrees_with_artin_everywhere(self):
        # The two pipelines are independent implementations; residues and
        # indeterminacies must coincide on random braid closures.
        rng = random.Random(97)
        for _ in range(8):
            strands = rng.randint(2, 3)
            braid = random_pure_braid(rng, strands, rng.randint(0, 6))
            via_pd = longitudes_mod_q(braid_closure_pd(braid), 5)
            via_artin = artin_longitudes(braid, 5)
            for weight in range(2, 5):
                for entries in product(range(1, strands + 1), repeat=weight):
                    a = mu_bar(via_artin, entries)
                    b = mu_bar(via_pd, entries)
                    assert (a.residue, a.delta) == (b.residue, b.delta)

    def test_braid_text_roundtrip(self):
        braid = borromean_braid()
        assert parse_braid(format_braid(braid)) == braid
        assert parse_braid("3;") == PureBraidWord(3, ())
        assert parse_braid("2; A12^2") == PureBraidWord(2, ((1, 2, 1),) * 2)
        with pytest.raises(ParseError, match="position"):
            parse_braid("3; A12 B13")
        with pytest.raises(ParseError):
            parse_braid("A12 A13")

    def test_braid_text_roundtrip_ten_or_more_strands(self):
        braid = PureBraidWord(11, ((10, 11, 1), (3, 10, -1), (1, 2, 1)))
        assert format_braid(braid) == "11; A10,11 A3,10^-1 A12"
        assert parse_braid(format_braid(braid)) == braid
        assert parse_braid("12; A11,12^-2") == PureBraidWord(12, ((11, 12, -1),) * 2)


KINK = PDCode(1, ((1, 2),), (Crossing((1, 2, 2, 1), 1),))
TREFOIL = PDCode(
    1,
    ((1, 2, 3, 4, 5, 6),),
    (Crossing((1, 5, 2, 4), 1), Crossing((3, 1, 4, 6), 1), Crossing((5, 3, 6, 2), 1)),
)


def _short_braid_closures():
    params = []
    for n in (1, 2, 3):
        pairs = [(i, j) for i in range(1, n) for j in range(i + 1, n + 1)]
        letters = [(i, j, e) for i, j in pairs for e in (1, -1)]
        for length in (0, 1, 2):
            for word in product(letters, repeat=length):
                braid = PureBraidWord(n, word)
                params.append(
                    pytest.param(braid_closure_pd(braid), id=format_braid(braid))
                )
    return params


class TestLongitudesAgainstOracle:
    @pytest.mark.parametrize(
        "pd",
        [
            pytest.param(unlink_pd(2), id="unlink2"),
            pytest.param(unlink_pd(3), id="unlink3"),
            pytest.param(hopf_pd(), id="hopf"),
            pytest.param(borromean_pd(), id="borromean"),
            pytest.param(mirror_pd(borromean_pd()), id="borromean_mirror"),
            pytest.param(KINK, id="kink"),
            pytest.param(TREFOIL, id="trefoil"),
            pytest.param(mirror_pd(TREFOIL), id="trefoil_mirror"),
        ]
        + _short_braid_closures(),
    )
    def test_exhaustive(self, pd):
        for q in range(2, 8):
            assert same_expansions(
                longitudes_mod_q(pd, q), longitudes_mod_q_oracle(pd, q)
            )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(pure_braids(max_strands=4, max_letters=4), st.integers(2, 7))
    def test_random_braid_closures(self, braid, q):
        pd = braid_closure_pd(braid)
        assert same_expansions(
            longitudes_mod_q(pd, q), longitudes_mod_q_oracle(pd, q)
        )

    def test_borromean_longitude_letters(self):
        for q, letters in ((6, 372), (7, 1224)):
            system = longitudes_mod_q(borromean_pd(), q)
            assert sum(map(len, system.longitudes)) == letters

    def test_borromean_depth_10_within_work_budget(self):
        system = longitudes_mod_q(borromean_pd(), 10)
        assert sum(map(len, system.longitudes)) == 41_412


def assert_conjugators_match_oracle(braid: PureBraidWord) -> None:
    conj = _artin_conjugators(braid)
    images = {t: w * generator(t) * w.inverse() for t, w in conj.items()}
    assert images == artin_automorphism_oracle(braid)
    for t, w in conj.items():
        assert len(images[t]) == 2 * len(w) + 1


class TestArtinAgainstOracle:
    def test_every_generator_step(self):
        for n in range(2, 8):
            for i, j in combinations(range(1, n + 1), 2):
                for e in (1, -1):
                    assert_conjugators_match_oracle(PureBraidWord(n, ((i, j, e),)))

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(pure_braids(max_strands=5, max_letters=6))
    def test_random_braids(self, braid):
        assert_conjugators_match_oracle(braid)

    def test_longitudes_and_refusals_on_random_braids(self):
        # 200 random 8-letter P_4 braids; one of them exceeds LETTER_BUDGET
        # midway, and the refusal must name the same letter count.
        rng = random.Random(3)
        refusals = {}
        for _ in range(200):
            braid = random_pure_braid(rng, 4, 8)
            try:
                expected = artin_longitudes_oracle(braid, 4)
            except PreconditionError as exc:
                with pytest.raises(PreconditionError) as got:
                    artin_longitudes(braid, 4)
                assert str(got.value) == str(exc)
                refusals[format_braid(braid)] = str(exc)
                continue
            assert artin_longitudes(braid, 4) == expected
        found = "4; A14 A13^-1 A24^-1 A13 A24^-1 A34^-1 A13^-1 A14"
        assert "expands to 104694 letters" in refusals[found]


class TestPDAgainstArtin:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(pure_braids(max_strands=4, max_letters=6), st.integers(2, 6))
    def test_closure_and_artin_routes_agree(self, braid, q):
        q = min(q, 5) if braid.strands == 4 else q
        via_pd = longitudes_mod_q(braid_closure_pd(braid), q)
        via_artin = artin_longitudes(braid, q)
        a, b = lcq_is_free(via_pd, q), lcq_is_free(via_artin, q)
        # past the first non-vanishing weight raw mu is not an invariant,
        # so the shallow relator of route B is not compared
        assert (a.free, a.witness_index) == (b.free, b.witness_index)
        for weight in range(2, q):
            for entries in product(range(1, braid.strands + 1), repeat=weight):
                x, y = mu_bar(via_pd, entries), mu_bar(via_artin, entries)
                assert (x.residue, x.delta) == (y.residue, y.delta)

    @pytest.mark.parametrize("name", ["hopf.braid", "borromean.braid"])
    def test_cli_braid_input_agrees(self, tmp_path, capsys, name):
        # braid text reaches the CLI through its closure; every index of
        # weight <= 5 must show the Artin route's Delta and residue
        path = tmp_path / name
        path.write_text(corpus_files()[name])
        braid = parse_braid(path.read_text())
        for weight in range(2, 6):
            via_artin = artin_longitudes(braid, weight)
            for entries in product(range(1, braid.strands + 1), repeat=weight):
                index = "".join(map(str, entries))
                assert main(["mu-bar", "--link", str(path), "--index", index]) == 0
                got = json.loads(capsys.readouterr().out)
                want = mu_bar(via_artin, entries)
                assert (got["delta"], got["residue"]) == (want.delta, want.residue)


class TestConnectedSum:
    def test_unit_law(self):
        trivial = LongitudeSystem(3, 4, (Word(), Word(), Word()))
        system = borromean_system(4)
        assert connected_sum(trivial, system) == system
        assert connected_sum(system, trivial) == system

    def test_two_hopf_types(self):
        hopf = longitudes_mod_q(hopf_pd(), 4)
        assert mu(connected_sum(hopf, hopf), (1, 2)) == 2

    def test_additivity_with_vanishing_linking(self):
        rng = random.Random(53)
        gens = [generator(i) for i in range(1, 4)]
        for _ in range(25):
            def rand_sys():
                longs = []
                for i in range(3):
                    w = identity()
                    for _ in range(rng.randint(0, 3)):
                        a, b = rng.sample(range(3), 2)
                        w = w * commutator(gens[a], gens[b]) ** rng.choice((1, -1))
                    longs.append(w)
                # commutator longitudes have zero exponent sums
                return LongitudeSystem(3, 4, tuple(longs))

            a, b = rand_sys(), rand_sys()
            total = connected_sum(a, b)
            for entries in product((1, 2, 3), repeat=3):
                assert mu(total, entries) == mu(a, entries) + mu(b, entries)

    def test_mismatch_errors(self):
        with pytest.raises(PreconditionError):
            connected_sum(borromean_system(4), longitudes_mod_q(hopf_pd(), 4))

    def test_depths_pair_at_the_shallower_one(self):
        for a, b in ((4, 5), (5, 4)):
            total = connected_sum(borromean_system(a), borromean_system(b))
            assert total.depth == 4
            assert total == connected_sum(
                borromean_system(a).truncate(4), borromean_system(b).truncate(4)
            )


class TestInverseMirror:
    def test_trivial(self):
        trivial = LongitudeSystem(2, 4, (Word(), Word()))
        assert inverse_mirror(trivial) == trivial

    def test_hopf_linking_negates(self):
        hopf = longitudes_mod_q(hopf_pd(), 4)
        assert mu(inverse_mirror(hopf), (1, 2)) == -1

    def test_borromean_negates_exactly(self):
        system = longitudes_mod_q(borromean_pd(), 4)
        mirrored = inverse_mirror(system)
        for entries in product((1, 2, 3), repeat=3):
            assert mu(mirrored, entries) == -mu(system, entries)

    def test_negation_mod_delta_on_corpus(self):
        rng = random.Random(59)
        systems = [
            longitudes_mod_q(hopf_pd(), 5),
            longitudes_mod_q(borromean_pd(), 5),
            random_realized_system(rng, depth=5),
        ]
        for system in systems:
            mirrored = inverse_mirror(system)
            for weight in range(2, 5):
                for entries in product(range(1, system.m + 1), repeat=weight):
                    base = mu_bar(system, entries)
                    neg = mu_bar(mirrored, entries)
                    assert neg.delta == base.delta
                    if base.delta == 0:
                        assert neg.mu == -base.mu
                    else:
                        assert neg.residue == (-base.mu) % base.delta

    def test_ribbon_sum_vanishes(self):
        for depth in (4, 5):
            system = longitudes_mod_q(borromean_pd(), depth)
            ribbon = connected_sum(system, inverse_mirror(system))
            assert all_vanish_up_to(ribbon, depth - 1)


class TestMirrorPD:
    def test_linking_negates(self):
        assert linking_numbers(mirror_pd(hopf_pd())) == [[0, -1], [-1, 0]]

    def test_involution(self):
        assert mirror_pd(mirror_pd(borromean_pd())) == borromean_pd()


class TestReorderReorient:
    def test_identity_permutation(self):
        system = borromean_system(4)
        assert reorder(system, (1, 2, 3)) == system

    def test_hopf_swap(self):
        hopf = longitudes_mod_q(hopf_pd(), 4)
        swapped = reorder(hopf, (2, 1))
        assert mu(swapped, (1, 2)) == 1

    def test_relabeling_formula(self):
        system = borromean_system(4)
        perm = (2, 3, 1)  # new component k is old perm[k-1]
        relabeled = reorder(system, perm)
        for entries in product((1, 2, 3), repeat=3):
            old = tuple(perm[i - 1] for i in entries)
            assert mu(relabeled, entries) == mu(system, old)

    def test_bad_permutation(self):
        with pytest.raises(PreconditionError):
            reorder(borromean_system(4), (1, 1, 2))

    def test_reorient_both_components_of_hopf(self):
        hopf = longitudes_mod_q(hopf_pd(), 4)
        assert mu(reorder(hopf, (1, 2), flip=(1, 2)), (1, 2)) == 1

    def test_reorient_one_component_negates_linking(self):
        hopf = longitudes_mod_q(hopf_pd(), 4)
        assert mu(reorder(hopf, (1, 2), flip=(1,)), (1, 2)) == -1

    def test_reorient_involution(self):
        system = longitudes_mod_q(borromean_pd(), 4)
        once = reorder(system, (1, 2, 3), flip=(1, 3))
        assert reorder(once, (1, 2, 3), flip=(1, 3)) == system

    def test_reorient_out_of_range(self):
        with pytest.raises(PreconditionError):
            reorder(borromean_system(4), (1, 2, 3), flip=(4,))

    def test_bad_selections(self):
        system = borromean_system(4)
        for comps in ((), (1, 1), (0, 2), (1, 4)):
            with pytest.raises(PreconditionError):
                reorder(system, comps)


def _oracle_systems():
    rng = random.Random(401)
    return [
        pytest.param(longitudes_mod_q(borromean_pd(), 4), id="borromean_pd"),
        pytest.param(borromean_system(4), id="borromean_system"),
    ] + [
        pytest.param(random_realized_system(rng, depth=5), id=f"realized{k}")
        for k in range(12)
    ]


class TestReorderAgainstOracles:
    @pytest.mark.parametrize("system", _oracle_systems())
    def test_exhaustive(self, system):
        comps = range(1, system.m + 1)
        flips = [
            f for size in range(system.m + 1) for f in combinations(comps, size)
        ]
        for perm in permutations(comps):
            assert reorder(system, perm) == reorder_oracle(system, perm)
        for keep in flips[1:]:
            assert reorder(system, keep) == sublink_oracle(system, keep)
        for flip in flips:
            assert reorder(system, comps, flip) == reorient_oracle(system, flip)
            for keep in flips[1:]:
                for order in permutations(keep):
                    assert reorder(system, order, flip) == relabel_oracle(
                        system, order, flip
                    )

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(MUTATION_TYPES))
    def test_apply_mutation_matches_oracle(self, seed, tau):
        system = random_realized_system(random.Random(seed), depth=5)
        assert apply_mutation(system, tau) == apply_mutation_oracle(system, tau)
