import math
import random
from functools import lru_cache
from itertools import product
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mubar.brackets import (
    Bracket,
    Canonicalizer,
    LinkingExpr,
    canonicalize,
    evaluate,
    evaluate_detailed,
    massey_sum,
    parenthesizations,
    parse_bracket,
    parse_linking,
    render,
    render_linking,
    weight,
)
from mubar.errors import ParseError, PreconditionError


# ---------------------------------------------------------------------------
# Oracle: the orbit search canonicalize used before it re-rooted the
# linking tree.  It lists the whole equivalence orbit by breadth-first
# search and picks the least member under _selection_key.


def _node_swaps(tree: Bracket):
    """Trees obtained by swapping exactly one node of tree (any depth)."""
    if isinstance(tree, int):
        return
    left, right = tree
    yield (right, left)
    for swapped in _node_swaps(left):
        yield (swapped, right)
    for swapped in _node_swaps(right):
        yield (left, swapped)


def _moves(tree: Bracket):
    """Neighbouring linkings with the sign multiplier of the relation."""
    left, right = tree
    if not isinstance(left, int):
        yield (left[0], (left[1], right)), 1
    if not isinstance(right, int):
        yield ((left, right[0]), right[1]), 1
    for swapped in _node_swaps(left):
        yield (swapped, right), -1
    for swapped in _node_swaps(right):
        yield (left, swapped), -1


def _imbalance(tree: Bracket) -> int:
    return abs(weight(tree[0]) - weight(tree[1]))


@lru_cache(maxsize=None)
def _side_stats(tree: Bracket) -> tuple[int, int, int]:
    # (parenthesis pairs in render, inverted leaf pairs, compound pairs
    # with the smaller side first) -- the costs of the tie-break order.
    if isinstance(tree, int):
        return (0, 0, 0)
    left, right = tree
    pl, il, ul = _side_stats(left)
    pr, ir, ur = _side_stats(right)
    parens = pl + pr + (0 if isinstance(left, int) else 1)
    inverted = il + ir
    if isinstance(left, int) and isinstance(right, int) and left > right:
        inverted += 1
    unbalanced = ul + ur
    if not isinstance(left, int) and not isinstance(right, int):
        if weight(left) < weight(right):
            unbalanced += 1
    return (parens, inverted, unbalanced)


@lru_cache(maxsize=None)
def _shape_key(tree: Bracket):
    # Leaf sequence (later components first), then shape.
    if isinstance(tree, int):
        return ((-tree,), (0,))
    lseq, ls = _shape_key(tree[0])
    rseq, rs = _shape_key(tree[1])
    return (lseq + rseq, (1,) + ls + rs)


def _selection_key(tree: Bracket):
    # Among equally balanced splits: smaller side on the left, then the
    # most string-like rendering (fewest parentheses), no (y,x)-style
    # inverted leaf pairs, inner pairs with their bigger side first, and
    # a fixed leaf-sequence/shape order as the final tie-break.  This
    # normal form writes e.g. lk(yyxy,(yxy,xy)) the way the literature
    # does.
    left, right = tree
    pl, il, ul = _side_stats(left)
    pr, ir, ur = _side_stats(right)
    return (
        _imbalance(tree),
        weight(left),
        pl + pr,
        il + ir,
        ul + ur,
        _shape_key(left),
        _shape_key(right),
    )


def orbit_with_signs(tree):
    rel = {tree: 1}
    frontier = [tree]
    degenerate = False
    while frontier:
        nxt = []
        for t in frontier:
            for t2, mult in _moves(t):
                f2 = rel[t] * mult
                if t2 not in rel:
                    rel[t2] = f2
                    nxt.append(t2)
                elif rel[t2] != f2:
                    degenerate = True
        frontier = nxt
    return rel, degenerate


def oracle_classes(trees):
    """Map every member of the trees' orbits to the oracle (rep, sign).

    Each orbit is searched once; the expected sign of member m is
    rel[m] * rel[rep], since lk(start) = rel[t] * lk(t) for every t.
    """
    expected = {}
    for tree in trees:
        if tree in expected:
            continue
        rel, degenerate = orbit_with_signs(tree)
        rep = min(rel, key=_selection_key)
        for member, f in rel.items():
            expected[member] = (rep, 0 if degenerate else f * rel[rep])
    return expected


# ---------------------------------------------------------------------------
# Oracle: the re-rooting canonicalizer as it was before branches were
# shared across trees.  It rebuilds every directed branch of each tree
# from scratch and builds the full key of every root edge.


class _Side(NamedTuple):
    """Best orientation of one branch of the linking tree."""

    # (parenthesis pairs, inverted leaf pairs, inner pairs with the
    # smaller side first, leaf sequence with later components first,
    # shape in preorder) -- the per-side parts of the selection order.
    key: tuple
    tree: Bracket
    weight: int
    flips: int  # parity of vertices whose cyclic order was reversed
    form: int  # id of the branch as an unordered labelled tree


def _trivalent(tree: Bracket) -> tuple[list[int], list[list[int]]]:
    """Read lk(tree) as an unrooted tree: leaf labels and neighbours.

    Vertex v is a leaf with ``labels[v]`` its component, or an internal
    vertex (label 0) whose neighbours ``[parent, left, right]`` record
    the input's cyclic order.  The top split is the edge joining the
    two top children, so it is no vertex.
    """
    labels: list[int] = []
    nbrs: list[list[int]] = []

    def add(t: Bracket, parent: int) -> int:
        v = len(labels)
        labels.append(t if isinstance(t, int) else 0)
        nbrs.append([parent])
        if not isinstance(t, int):
            nbrs[v].append(add(t[0], v))
            nbrs[v].append(add(t[1], v))
        return v

    left = add(tree[0], -1)
    nbrs[left][0] = add(tree[1], left)
    return labels, nbrs


def _join(a: _Side, b: _Side, flip: int, form: int) -> _Side:
    pa, ia, ua, seqa, shapea = a.key
    pb, ib, ub, seqb, shapeb = b.key
    a_leaf, b_leaf = isinstance(a.tree, int), isinstance(b.tree, int)
    key = (
        pa + pb + (not a_leaf),
        ia + ib + (a_leaf and b_leaf and a.tree > b.tree),
        ua + ub + (not a_leaf and not b_leaf and a.weight < b.weight),
        seqa + seqb,
        (1,) + shapea + shapeb,
    )
    flips = (a.flips + b.flips + flip) % 2
    return _Side(key, (a.tree, b.tree), a.weight + b.weight, flips, form)


def rerooting_canonicalize(tree: Bracket, sign: int = 1) -> tuple[Bracket, int]:
    """Canonical minimal linking of lk(tree) and the accumulated sign.

    lk(tree) is read as an unrooted trivalent tree whose internal
    vertices carry the cyclic order (parent, left, right).  A
    re-association moves the root edge and keeps every cyclic order; a
    sub-bracket swap reverses one vertex's order at sign -1.  The class
    is therefore every choice of root edge, root direction and child
    order per vertex, and a member's sign is -1 to the number of
    vertices whose order differs from the input.  Weight 2 has no
    vertex: lk(x,y) and lk(y,x) are different classes.

    The representative minimizes the top imbalance ||u|-|v||, then the
    tie-break order of the module docstring.  Its parts decompose over
    subtrees, so each directed edge keeps the better of its two child
    orders, and the root is the best of the 2(2n-3) directed edges.
    The returned sign s satisfies lk(tree) = s * lk(representative).
    A sign of 0 marks a degenerate class (equivalent to its own
    negative, hence forced to vanish); this happens exactly when some
    vertex has two branches that are isomorphic as unordered labelled
    rooted trees, e.g. the pair (u,u) below the top.
    """
    if isinstance(tree, int):
        raise PreconditionError("a formal linking needs weight > 1")
    if isinstance(tree[0], int) and isinstance(tree[1], int):
        return tree, sign
    labels, nbrs = _trivalent(tree)
    forms: dict = {}
    sides: dict[tuple[int, int], _Side] = {}

    def side(p: int, c: int) -> _Side:
        # the branch at c that hangs away from its neighbour p
        got = sides.get((p, c))
        if got is not None:
            return got
        if labels[c]:
            leaf = labels[c]
            form = forms.setdefault(leaf, len(forms))
            got = _Side((0, 0, 0, (-leaf,), (0,)), leaf, 1, 0, form)
        else:
            # children in the input's cyclic order after p, at flip 0
            at = nbrs[c].index(p)
            a = side(c, nbrs[c][(at + 1) % 3])
            b = side(c, nbrs[c][(at + 2) % 3])
            pair = (min(a.form, b.form), max(a.form, b.form))
            form = forms.setdefault(pair, len(forms))
            got = min(_join(a, b, 0, form), _join(b, a, 1, form), key=lambda o: o.key)
        sides[(p, c)] = got
        return got

    best = None
    for u, around in enumerate(nbrs):
        for v in around:
            left, right = side(v, u), side(u, v)
            key = (
                abs(left.weight - right.weight),
                left.weight,
                left.key[0] + right.key[0],
                left.key[1] + right.key[1],
                left.key[2] + right.key[2],
                left.key[3:],
                right.key[3:],
            )
            if best is None or key < best[0]:
                best = (key, left, right)
    _, left, right = best
    for v, around in enumerate(nbrs):
        if not labels[v] and len({side(v, n).form for n in around}) < 3:
            return (left.tree, right.tree), 0
    return (left.tree, right.tree), sign * (-1) ** (left.flips + right.flips)


def all_trees(leaves, symbols):
    if leaves == 1:
        yield from symbols
        return
    for split in range(1, leaves):
        for left in all_trees(split, symbols):
            for right in all_trees(leaves - split, symbols):
                yield (left, right)


def random_tree(rng, leaves, symbols=(1, 2)):
    if leaves == 1:
        return rng.choice(symbols)
    split = rng.randint(1, leaves - 1)
    return (random_tree(rng, split, symbols), random_tree(rng, leaves - split, symbols))


class TestParse:
    def test_string_shorthand(self):
        assert parse_bracket("yyxy") == (2, (2, (1, 2)))
        assert weight(parse_bracket("yyxy")) == 4

    def test_mixed_form(self):
        assert parse_bracket("(yxy,xy)") == ((2, (1, 2)), (1, 2))
        assert weight(parse_bracket("(yxy,xy)")) == 5

    def test_leaf(self):
        assert parse_bracket("x") == 1
        assert weight(parse_bracket("x")) == 1

    def test_nested_mixture(self):
        tree = parse_bracket("y(x,y)y")
        assert tree == (2, ((1, 2), 2))

    def test_roundtrip(self):
        rng = random.Random(5)
        for _ in range(100):
            tree = random_tree(rng, rng.randint(1, 7), (1, 2, 3))
            assert parse_bracket(render(tree)) == tree

    def test_errors_carry_position(self):
        with pytest.raises(ParseError, match="position"):
            parse_bracket("y?x")
        with pytest.raises(ParseError):
            parse_bracket("(xy")
        with pytest.raises(ParseError):
            parse_bracket("(x,y,z)")
        with pytest.raises(ParseError):
            parse_bracket("")
        with pytest.raises(ParseError, match="at most n - 1 pairs"):
            parse_bracket("(" * 1200 + "x,y)")

    def test_parse_linking(self):
        assert parse_linking("lk(yyxy,(yxy,xy))") == (
            parse_bracket("yyxy"),
            parse_bracket("(yxy,xy)"),
        )
        assert parse_linking("lk(xy)") == (1, 2)
        assert parse_linking("xy") == (1, 2)
        with pytest.raises(ParseError):
            parse_linking("lk(x)")


class TestCanonicalize:
    def test_reassociation_toward_balance(self):
        # ((u,v),w) with weights 1,1,2 balances to a 2|2 split
        tree = ((1, 2), (1, 2))
        skewed = (((1, 2), 1), 2)
        rep, sign = canonicalize(skewed)
        assert abs(weight(rep[0]) - weight(rep[1])) == 0

    def test_swap_flips_sign(self):
        base = (parse_bracket("yyxy"), parse_bracket("yxyxy"))
        swapped = ((2, (2, (2, 1))), parse_bracket("yxyxy"))  # inner (x,y) -> (y,x)
        rep1, sign1 = canonicalize(base)
        rep2, sign2 = canonicalize(swapped)
        assert rep1 == rep2
        assert sign1 == -sign2

    def test_already_minimal(self):
        tree = parse_linking("lk(yyxy,yxyxy)")
        rep, sign = canonicalize(tree)
        assert rep == tree
        assert sign == 1

    def test_paper_forms_are_fixed_points(self):
        for text in ("lk(yyxy,yxyxy)", "lk(yyxy,yyxxy)", "lk(yyxy,(yxy,xy))"):
            tree = parse_linking(text)
            rep, sign = canonicalize(tree)
            assert render_linking(rep) == text
            assert sign == 1

    def test_weight9_balanced_split(self):
        tree = parse_linking("lk(yyxy,yxyxy)")
        rep, _ = canonicalize(tree)
        assert abs(weight(rep[0]) - weight(rep[1])) == 1

    def test_degenerate_identical_pair(self):
        # ((x,x),y) contains the identical pair (x,x): value forced to 0
        rep, sign = canonicalize(((1, 1), 2))
        assert sign == 0

    def test_class_function_small_weights(self):
        rng = random.Random(7)
        seen = 0
        while seen < 40:
            tree = random_tree(rng, rng.randint(2, 6))
            rel, degenerate = orbit_with_signs(tree)
            rep, sign = canonicalize(tree)
            for member, f in rel.items():
                rep2, sign2 = canonicalize(member)
                assert rep2 == rep
                if degenerate:
                    assert sign2 == 0
                else:
                    # lk(tree) = sign lk(rep), lk(member) = f^-1 lk(tree)
                    assert sign2 == f * sign
            seen += 1

    def test_randomized_application_order_weight9(self):
        rng = random.Random(11)
        for _ in range(20):
            tree = random_tree(rng, 9)
            rep, sign = canonicalize(tree)
            current, factor = tree, 1
            for _ in range(rng.randint(1, 60)):
                moves = list(_moves(current))
                current, mult = rng.choice(moves)
                factor *= mult
            rep2, sign2 = canonicalize(current)
            assert rep2 == rep
            if sign != 0:
                # lk(tree) = factor * lk(current)
                assert sign == factor * sign2
            else:
                assert sign2 == 0


class TestCanonicalizeAgainstOrbitSearch:
    def test_every_small_tree(self):
        trees = [
            tree
            for symbols, top in (((1, 2), 6), ((1, 2, 3), 5))
            for leaves in range(2, top + 1)
            for tree in all_trees(leaves, symbols)
        ]
        expected = oracle_classes(trees)
        assert len(trees) == 3236 + 3870
        for tree in trees:
            assert canonicalize(tree) == expected[tree], tree

    def test_every_parenthesization_through_weight_7(self):
        trees = [
            linking
            for q in range(2, 8)
            for index in product((1, 2), repeat=q)
            for linking in parenthesizations(index[:-1], index[-1])
        ]
        expected = oracle_classes(trees)
        for tree in trees:
            assert canonicalize(tree) == expected[tree], tree

    def test_weight_two_is_its_own_class(self):
        assert canonicalize((2, 1)) == ((2, 1), 1)
        assert canonicalize((1, 2)) == ((1, 2), 1)


class TestCanonicalizeAgainstRerooting:
    def test_massey_sum_every_small_index(self):
        # every index of weight <= 8 on two letters and <= 6 on three
        indices = dict.fromkeys(
            index
            for symbols, top in (((1, 2), 8), ((1, 2, 3), 6))
            for q in range(2, top + 1)
            for index in product(symbols, repeat=q)
            if index[0] != index[-1]
        )
        assert len(indices) == 254 + 726 - 62  # 62 three-letter ones use two
        for index in indices:
            sign = -1 if len(index) % 2 else 1
            acc = {}
            for linking in parenthesizations(index[:-1], index[-1]):
                rep, s = rerooting_canonicalize(linking)
                if s:
                    acc[rep] = acc.get(rep, 0) + sign * s
            assert massey_sum(index) == LinkingExpr.from_dict(acc), index

    def test_shared_table_across_trees(self):
        # one instance fed trees of mixed weights and alphabets in turn
        rng = random.Random(17)
        canon = Canonicalizer()
        for _ in range(2000):
            symbols = (1, 2, 3, 4)[: rng.randint(1, 4)]
            tree = random_tree(rng, rng.randint(2, 10), symbols)
            assert canon.canonicalize(tree) == rerooting_canonicalize(tree), tree


def _draw_bracket(draw, leaves, symbols):
    letters = draw(st.lists(st.sampled_from(symbols), min_size=leaves, max_size=leaves))

    def bracket(lo, hi):
        if hi - lo == 1:
            return letters[lo]
        split = draw(st.integers(lo + 1, hi - 1))
        return (bracket(lo, split), bracket(split, hi))

    return bracket(0, leaves)


def _replace_leaf(tree, k, new):
    """tree with its k-th leaf from the left (0-based) replaced by new."""
    if isinstance(tree, int):
        return new
    w = weight(tree[0])
    if k < w:
        return (_replace_leaf(tree[0], k, new), tree[1])
    return (tree[0], _replace_leaf(tree[1], k - w, new))


@st.composite
def oracle_cases(draw):
    """A linking of weight 2-12 over up to four letters, and whether an
    identical pair (s,s) was grafted below its top (a degenerate class)."""
    symbols = list(range(1, draw(st.integers(1, 4)) + 1))
    if draw(st.booleans()):
        return _draw_bracket(draw, draw(st.integers(2, 12)), symbols), False
    base_leaves = draw(st.integers(2, 10))
    s = _draw_bracket(draw, draw(st.integers(1, (13 - base_leaves) // 2)), symbols)
    base = _draw_bracket(draw, base_leaves, symbols)
    return _replace_leaf(base, draw(st.integers(0, base_leaves - 1)), (s, s)), True


@settings(derandomize=True, deadline=None, max_examples=500)
@given(oracle_cases())
@example((((1, 2), (3, 4)), False))
@example((((3, 1), ((2, 4), (1, 2))), False))
@example(((((1, 1), 2), (3, 4)), True))
@example(((((1, 2), (1, 2)), ((2, 3), 4)), True))
def test_canonicalize_matches_rerooting_oracle(case):
    tree, grafted = case
    got = canonicalize(tree)
    assert got == rerooting_canonicalize(tree)
    if grafted:
        assert got[1] == 0


@st.composite
def trees_and_moves(draw):
    leaves = draw(st.integers(2, 12))
    symbols = list(range(1, draw(st.integers(1, 4)) + 1))
    tree = _draw_bracket(draw, leaves, symbols)
    return tree, draw(st.lists(st.integers(0, 10**6), max_size=40))


@settings(derandomize=True, deadline=None, max_examples=300)
@given(trees_and_moves())
def test_canonicalize_is_a_class_function(case):
    tree, choices = case
    rep, sign = canonicalize(tree)
    current, factor = tree, 1
    for choice in choices:
        moves = list(_moves(current))
        if not moves:  # weight 2
            break
        current, mult = moves[choice % len(moves)]
        factor *= mult
    # lk(tree) = factor * lk(current)
    assert canonicalize(current) == (rep, sign * factor)


class TestParenthesizations:
    @pytest.mark.parametrize(
        "letters,count", [((1,), 1), ((1, 2), 1), ((1, 2, 1), 2), ((1,) * 8, 429)]
    )
    def test_catalan_counts(self, letters, count):
        terms = parenthesizations(letters, 2)
        assert len(terms) == count
        for tree in terms:
            assert tree[1] == 2
            assert weight(tree[0]) == len(letters)

    def test_catalan_8_is_429(self):
        assert math.comb(14, 7) // 8 == 429


# ---------------------------------------------------------------------------
# Oracle: massey_sum before the interval DP over forms.  It canonicalizes
# every parenthesization one at a time through one shared Canonicalizer.


def massey_sum_oracle(index) -> LinkingExpr:
    entries = tuple(int(i) for i in index)
    sign = -1 if len(entries) % 2 else 1
    canon = Canonicalizer()
    acc: dict[Bracket, int] = {}
    for linking in parenthesizations(entries[:-1], entries[-1]):
        rep, s = canon.canonicalize(linking)
        if s == 0:
            continue
        acc[rep] = acc.get(rep, 0) + sign * s
    return LinkingExpr.from_dict(acc)


class TestMasseySumAgainstOracle:
    def test_every_small_index(self):
        # every index of weight <= 9 on two letters and <= 7 on three
        indices = dict.fromkeys(
            index
            for symbols, top in (((1, 2), 9), ((1, 2, 3), 7))
            for q in range(2, top + 1)
            for index in product(symbols, repeat=q)
            if index[0] != index[-1]
        )
        assert len(indices) == 510 + 2184 - 126  # 126 three-letter ones use two
        for index in indices:
            assert massey_sum(index) == massey_sum_oracle(index), index

    @pytest.mark.parametrize("index", ["121212121212", "112233112233"])
    def test_weight_twelve(self, index):
        index = tuple(int(c) for c in index)
        expr = massey_sum(index)
        assert expr.terms
        assert expr == massey_sum_oracle(index)

    def test_equal_forms_are_pruned(self, monkeypatch):
        # a vertex whose two branches share a form is skipped in the
        # interval DP; left in, it would give the same sum, since
        # canonicalize finds the class degenerate, but at the cost of a
        # canonicalization per such form
        seen = []
        plain = Canonicalizer.canonicalize

        def canonicalize(self, tree):
            seen.append(tree)
            return plain(self, tree)

        def identical_pair(t):
            return not isinstance(t, int) and (t[0] == t[1] or any(map(identical_pair, t)))

        monkeypatch.setattr(Canonicalizer, "canonicalize", canonicalize)
        assert massey_sum((1,) * 9 + (2,)).terms == ()
        assert seen == []  # every bracketing of x^9 has a pair (x,x)
        for index in [(1, 1, 2, 2), (1, 2, 1, 2, 1, 2, 1, 2, 3), (1, 1, 2, 1, 1, 2, 1, 1, 3)]:
            massey_sum(index)
        assert seen and not any(identical_pair(t[0]) for t in seen)


@st.composite
def massey_indices(draw):
    """An index of weight 2-11 over 1-4 letters.  Half of them repeat one
    block of letters, where many bracketings share a form."""
    q = draw(st.integers(2, 11))
    symbols = list(range(1, draw(st.integers(1, 4)) + 1))
    if draw(st.booleans()):
        block = draw(st.lists(st.sampled_from(symbols), min_size=1, max_size=q - 1))
        body = (block * q)[: q - 1]
    else:
        body = draw(st.lists(st.sampled_from(symbols), min_size=q - 1, max_size=q - 1))
    last = draw(st.sampled_from([c for c in (1, 2, 3, 4) if c != body[0]]))
    return (*body, last)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(massey_indices())
@example((1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 2))
@example((1, 2, 1, 2, 1, 2, 1, 2, 1, 2, 3))
@example((1, 2, 2, 1, 2, 1, 2, 2, 2))
def test_massey_sum_matches_oracle(index):
    assert massey_sum(index) == massey_sum_oracle(index)


class TestMasseySum:
    def test_weight_two(self):
        expr = massey_sum((1, 2))
        assert expr.to_json() == [{"coeff": 1, "linking": "lk(x,y)"}]

    def test_sato_levine_expansion(self):
        expr = massey_sum((1, 1, 2, 2))
        assert expr.to_json() == [{"coeff": -1, "linking": "lk(xy,xy)"}]

    def test_equal_ends_rejected(self):
        with pytest.raises(PreconditionError, match="differ"):
            massey_sum((1, 2, 1))

    def test_weight_cap(self):
        with pytest.raises(PreconditionError, match="cap"):
            massey_sum((1,) + (2,) * 12)

    def test_enumeration_order_irrelevant(self):
        rng = random.Random(13)
        index = (1, 2, 2, 1, 2, 2)
        expr = massey_sum(index)
        terms = parenthesizations(index[:-1], index[-1])
        rng.shuffle(terms)
        acc = {}
        sign = -1 if len(index) % 2 else 1
        for linking in terms:
            rep, s = canonicalize(linking)
            if s == 0:
                continue
            acc[rep] = acc.get(rep, 0) + sign * s
        assert LinkingExpr.from_dict(acc) == expr

    def test_coefficient_mass_bound(self):
        for index in [(1, 2, 2, 2), (1, 2, 1, 2, 2), (1, 2, 2, 1, 2, 1, 2, 2, 2)]:
            expr = massey_sum(index)
            catalan = math.comb(2 * (len(index) - 2), len(index) - 2) // (len(index) - 1)
            assert sum(abs(c) for _, c in expr.terms) <= catalan

    def test_sign_convention_even_odd(self):
        # the global factor is (-1)^q: compare against a direct sum
        for index in [(1, 1, 2, 2), (1, 2, 1, 2, 2)]:
            sign = -1 if len(index) % 2 else 1
            acc = {}
            for linking in parenthesizations(index[:-1], index[-1]):
                rep, s = canonicalize(linking)
                if s:
                    acc[rep] = acc.get(rep, 0) + sign * s
            assert LinkingExpr.from_dict(acc) == massey_sum(index)


class TestEvaluate:
    def test_paper_value(self):
        expr = massey_sum((1, 2, 2, 1, 2, 1, 2, 2, 2))
        assert evaluate(expr, {"lk(yyxy,(yxy,xy))": 1}) == -20

    def test_all_zero(self):
        expr = massey_sum((1, 2, 2, 1, 2, 1, 2, 2, 2))
        assert evaluate(expr, {}) == 0

    def test_linear(self):
        tree = parse_linking("lk(xy,xy)")
        expr = LinkingExpr.from_dict({tree: 3})
        assert evaluate(expr, {"lk(xy,xy)": -2}) == -6

    def test_missing_reported(self):
        expr = massey_sum((1, 2, 2, 1, 2, 1, 2, 2, 2))
        total, missing = evaluate_detailed(expr, {"lk(yyxy,(yxy,xy))": 1})
        assert total == -20
        assert missing == ["lk(yyxy,yxyxy)", "lk(yyxy,yyxxy)"]

    def test_equivalent_key_carries_sign(self):
        expr = massey_sum((1, 1, 2, 2))  # -1 * lk(xy,xy)
        assert evaluate(expr, {"lk(xy,xy)": 1}) == -1
        # lk(xy,yx) ~ -lk(xy,xy), so the same assignment through the
        # swapped key flips the contribution
        assert evaluate(expr, {"lk(xy,yx)": 1}) == 1

    def test_conflicting_keys(self):
        expr = massey_sum((1, 1, 2, 2))
        with pytest.raises(ParseError, match="conflicting"):
            evaluate(expr, {"lk(xy,xy)": 1, "lk(xy,yx)": 1})

    def test_malformed_values(self):
        expr = massey_sum((1, 1, 2, 2))
        with pytest.raises(ParseError, match="mapping"):
            evaluate(expr, [1, 2])
        with pytest.raises(ParseError, match="integer"):
            evaluate(expr, {"lk(xy,xy)": "lots"})

    def test_values_must_be_integers(self):
        expr = massey_sum((1, 2))
        for bad in (1.5, True, float("inf"), float("-inf"), float("nan")):
            with pytest.raises(ParseError, match="is not an integer"):
                evaluate(expr, {"lk(x,y)": bad})
        assert evaluate(expr, {"lk(x,y)": 2.0}) == 2
        assert evaluate(expr, {"lk(x,y)": "3"}) == 3

    def test_degenerate_key_value_checked(self):
        # lk(xy,y) is degenerate, so its value is unused but still checked
        expr = massey_sum((1, 2, 2))
        assert evaluate(expr, {"lk(xy,y)": 4}) == 0
        with pytest.raises(ParseError, match="is not an integer"):
            evaluate(expr, {"lk(xy,y)": "a"})

    def test_coefficient_lookup(self):
        expr = massey_sum((1, 1, 2, 2))
        assert expr.coefficient(parse_linking("lk(xy,xy)")) == -1
        assert expr.coefficient(parse_linking("lk(xy,yx)")) == 1
        assert expr.coefficient(parse_linking("lk(x,y)")) == 0
