"""Formal brackets, minimal linkings and the mu-bar summation formula.

A bracket is a binary tree whose leaves carry component symbols
(component 1 renders as ``x``, 2 as ``y``, then ``z w v u t s r q p o``);
the string ``a1...an`` abbreviates the right-nested bracket
``(a1,(a2,(...,(a_{n-1},an))))`` and mixed forms like ``(yxy,xy)`` are
allowed.  A formal linking lk(w) is a bracket of weight > 1 read as the
linking of its two top children, up to the equivalence generated by

* re-association across the top split:  lk((u,v),w) ~ lk(u,(v,w)),
* a sign flip for swapping any proper sub-bracket:  lk(w) ~ -lk(w').

A representative whose top split is as balanced as possible is a
minimal linking; canonicalize() picks one deterministically (and
detects classes whose value is forced to vanish, e.g. any bracket with
an identical-pair sub-bracket below the top).  It never lists the
class: read as an unrooted trivalent tree, a linking's class is every
choice of root edge and of child order per vertex, with the sign of
the antisymmetry (AS) relation of Habegger-Masbaum ("The Kontsevich
integral and Milnor's invariants", Topology 2000).  So canonicalize()
re-roots the tree at each of its 2(2n-3) directed edges, keeping the
best child order per subtree, in O(n^2) time and with no cache.

Among equally balanced splits the representative has the smaller side
on the left, then the most string-like rendering (fewest parentheses),
no (y,x)-style inverted leaf pairs, inner pairs with their bigger side
first, and a fixed leaf-sequence/shape order as the final tie-break.
This normal form writes e.g. lk(yyxy,(yxy,xy)) the way the literature
does.

massey_sum() expands a mu-bar invariant of weight q as the signed sum
of lk(w, x_{i_q}) over all binary parenthesizations w of the first
q-1 letters, collected as an integer combination of canonical minimal
linkings; evaluate() substitutes numeric values for them.

The enumeration grows like the Catalan numbers, so the weight is capped
at 12 (WEIGHT_CAP): massey_sum takes about 0.4 s at weight 10 and 6 s at
weight 12.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .errors import ParseError, PreconditionError
from .milnor import Index, format_index

LETTERS = "xyzwvutsrqpo"

WEIGHT_CAP = 12

# A bracket is an int (leaf, 1-based component) or a pair of brackets.
Bracket = int | tuple


def weight(tree: Bracket) -> int:
    count, stack = 0, [tree]
    while stack:
        t = stack.pop()
        if isinstance(t, int):
            count += 1
        else:
            stack.extend(t)
    return count


def letter_of(component: int) -> str:
    if not 1 <= component <= len(LETTERS):
        raise PreconditionError(
            f"component {component} has no letter (supported: 1..{len(LETTERS)})"
        )
    return LETTERS[component - 1]


def render(tree: Bracket) -> str:
    """Inverse of parse_bracket: chains flatten to letter strings."""
    if isinstance(tree, int):
        return letter_of(tree)
    left, right = tree
    if isinstance(left, int):
        return letter_of(left) + render(right)
    return f"({render(left)},{render(right)})"


def render_linking(tree: Bracket) -> str:
    """Display form lk(u,v) of the top split."""
    if isinstance(tree, int):
        raise PreconditionError("a formal linking needs weight > 1")
    return f"lk({render(tree[0])},{render(tree[1])})"


def parse_bracket(text: str) -> Bracket:
    """Parse letter strings, parenthesized pairs and mixtures of both."""
    # A bracket of weight n has at most n - 1 pairs, and the parser
    # recurses once per pair, so reject the excess before recursing.
    pairs = text.count("(")
    letters = sum(ch in LETTERS for ch in text)
    if pairs and pairs >= letters:
        raise ParseError(
            f"{pairs} parentheses for {letters} letters: a bracket of "
            f"weight n has at most n - 1 pairs"
        )
    items, pos = _parse_seq(text, 0)
    if pos != len(text):
        raise ParseError(f"unexpected {text[pos]!r} at position {pos}")
    return _fold(items, text, 0)


def _fold(items: list, text: str, pos: int) -> Bracket:
    if not items:
        raise ParseError(f"empty bracket expression at position {pos}")
    out = items[-1]
    for item in reversed(items[:-1]):
        out = (item, out)
    return out


def _parse_seq(text: str, pos: int) -> tuple[list, int]:
    items: list = []
    while pos < len(text):
        ch = text[pos]
        if ch == "(":
            left, pos = _parse_seq(text, pos + 1)
            if pos >= len(text) or text[pos] != ",":
                raise ParseError(f"expected ',' at position {pos}")
            start = pos
            right, pos = _parse_seq(text, pos + 1)
            if pos >= len(text) or text[pos] != ")":
                raise ParseError(f"expected ')' at position {pos}")
            items.append((_fold(left, text, start), _fold(right, text, start)))
            pos += 1
        elif ch in (",", ")"):
            return items, pos
        elif ch.isspace():
            pos += 1
        else:
            comp = LETTERS.find(ch)
            if comp < 0:
                raise ParseError(
                    f"unknown component letter {ch!r} at position {pos}"
                )
            items.append(comp + 1)
            pos += 1
    return items, pos


def parse_linking(text: str) -> Bracket:
    """Parse ``lk(u,v)`` or a bare bracket of weight > 1."""
    body = text.strip()
    if body.startswith("lk(") and body.endswith(")"):
        body = body[2:]  # keep the parentheses: "(u,v)"
        depth = 0
        has_top_comma = False
        for ch in body[1:-1]:
            if ch == "(":
                depth += 1
            elif ch == ")":
                depth -= 1
            elif ch == "," and depth == 0:
                has_top_comma = True
        tree = parse_bracket(body if has_top_comma else body[1:-1])
    else:
        tree = parse_bracket(body)
    if isinstance(tree, int):
        raise ParseError(f"linking {text!r} has weight 1")
    return tree


# ---------------------------------------------------------------------------
# Canonical representatives by re-rooting the linking tree


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


def canonicalize(tree: Bracket, sign: int = 1) -> tuple[Bracket, int]:
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


def parenthesizations(letters: Index, last: int) -> list[Bracket]:
    """All Catalan(n-1) linkings lk(w, x_last) over bracketings w."""
    seq = tuple(letters)
    if not seq:
        raise PreconditionError("need at least one letter to bracket")

    memo: dict[tuple[int, int], tuple[Bracket, ...]] = {}

    def trees(i: int, j: int) -> tuple[Bracket, ...]:
        if j == i + 1:
            return (seq[i],)
        if (i, j) not in memo:
            memo[i, j] = tuple(
                (a, b)
                for k in range(i + 1, j)
                for a in trees(i, k)
                for b in trees(k, j)
            )
        return memo[i, j]

    return [(w, last) for w in trees(0, len(seq))]


@dataclass(frozen=True)
class LinkingExpr:
    """Integer combination of canonical minimal linkings."""

    terms: tuple[tuple[Bracket, int], ...]  # sorted, nonzero coefficients

    @staticmethod
    def from_dict(acc: dict[Bracket, int]) -> "LinkingExpr":
        items = [(t, c) for t, c in acc.items() if c]
        items.sort(key=lambda tc: (weight(tc[0]), render_linking(tc[0])))
        return LinkingExpr(tuple(items))

    def coefficient(self, tree: Bracket) -> int:
        rep, s = canonicalize(tree)
        for t, c in self.terms:
            if t == rep:
                return c * s
        return 0

    def to_json(self) -> list[dict]:
        return [
            {"linking": render_linking(t), "coeff": c} for t, c in self.terms
        ]


def massey_sum(index) -> LinkingExpr:
    """Expand mu-bar(I) as (-1)^q times the sum of lk(w, x_{i_q}).

    The sum runs over all binary parenthesizations w of x_{i_1} ...
    x_{i_{q-1}}; terms whose class is degenerate drop out.  Requires
    i_1 != i_q and weight at most 12.
    """
    entries = tuple(int(i) for i in index)
    if len(entries) < 2:
        raise PreconditionError("massey_sum needs weight >= 2")
    if entries[0] == entries[-1]:
        raise PreconditionError(
            f"first and last entries of {format_index(entries)} must differ"
        )
    if len(entries) > WEIGHT_CAP:
        raise PreconditionError(
            f"weight {len(entries)} exceeds the cap {WEIGHT_CAP} "
            f"(Catalan growth)"
        )
    if any(not 1 <= i <= len(LETTERS) for i in entries):
        raise PreconditionError(
            f"index entries must lie in 1..{len(LETTERS)} to render as letters"
        )
    sign = -1 if len(entries) % 2 else 1
    acc: dict[Bracket, int] = {}
    for linking in parenthesizations(entries[:-1], entries[-1]):
        rep, s = canonicalize(linking)
        if s == 0:
            continue
        acc[rep] = acc.get(rep, 0) + sign * s
    return LinkingExpr.from_dict(acc)


def evaluate(expr: LinkingExpr, values: dict) -> int:
    """Linear evaluation; linkings absent from values count as 0."""
    total, _ = evaluate_detailed(expr, values)
    return total


def evaluate_detailed(expr: LinkingExpr, values: dict) -> tuple[int, list[str]]:
    """Evaluation plus the display forms of terms that defaulted to 0.

    Keys of values may be ``lk(u,v)`` strings in any equivalent form or
    bracket trees; each is canonicalized (with its sign) before lookup.
    """
    if not isinstance(values, dict):
        raise ParseError("linking values must be a mapping lk(u,v) -> integer")
    canon_values: dict[Bracket, int] = {}
    for key, val in values.items():
        # No massey_sum term is heavier than the cap, and the parser and
        # canonicalize recurse as deep as the key, so weigh it first.
        if isinstance(key, str):
            key_weight = sum(ch in LETTERS for ch in key)
        else:
            key_weight = weight(key)
        if key_weight > WEIGHT_CAP:
            raise PreconditionError(
                f"linking value key of weight {key_weight} exceeds the "
                f"cap WEIGHT_CAP = {WEIGHT_CAP}"
            )
        tree = parse_linking(key) if isinstance(key, str) else key
        rep, s = canonicalize(tree)
        if s == 0:
            continue
        try:
            effective = s * int(val)
        except (TypeError, ValueError) as exc:
            raise ParseError(
                f"linking value for {render_linking(tree)} is not an "
                f"integer: {val!r}"
            ) from exc
        if rep in canon_values and canon_values[rep] != effective:
            raise ParseError(
                f"conflicting values for equivalent linkings at "
                f"{render_linking(rep)}"
            )
        canon_values[rep] = effective
    total = 0
    missing: list[str] = []
    for t, c in expr.terms:
        if t in canon_values:
            total += c * canon_values[t]
        else:
            missing.append(render_linking(t))
    return total, missing
