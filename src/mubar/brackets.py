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
best child order per branch, in O(n^2) time.  A Canonicalizer keeps
the downward branches it has built, keyed by sub-bracket, and numbers
branches by form (unordered labelled rooted tree); massey_sum() and
evaluate_detailed() each share one across a call, and it is dropped
when the call returns, so no table outlives a call.

Among equally balanced splits the representative has the smaller side
on the left, then the most string-like rendering (fewest parentheses),
no (y,x)-style inverted leaf pairs, inner pairs with their bigger side
first, and a fixed leaf-sequence/shape order as the final tie-break.
This normal form writes e.g. lk(yyxy,(yxy,xy)) the way the literature
does.

massey_sum() expands a mu-bar invariant of weight q as the signed sum
of lk(w, x_{i_q}) over all binary parenthesizations w of the first
q-1 letters, collected as an integer combination of canonical minimal
linkings; evaluate() substitutes numeric values for them.  It does not
list the parenthesizations: an interval DP counts them by form, with
signs, and canonicalizes one tree per surviving form.

Where letters repeat, many bracketings share a form: massey_sum takes
about 0.003 s at weight 10 (1212121212) and 0.02 s at weight 12
(121212121212).  On distinct letters no two do, so the count stays
Catalan(q-2) and weight 12 still takes about 1.6 s; the weight is
therefore capped at 12 (WEIGHT_CAP).
"""

from __future__ import annotations

from .errors import ParseError, PreconditionError, strict_int
from .milnor import Index, format_index
from .records import frozen_record

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
    return _fold(items, 0)


def _fold(items: list, pos: int) -> Bracket:
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
            items.append((_fold(left, start), _fold(right, start)))
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


class _Side:
    """Best orientation of one branch of the linking tree.

    ``key`` is (parenthesis pairs, inverted leaf pairs, inner pairs with
    the smaller side first, leaf sequence with later components first,
    shape in preorder) -- the per-side parts of the selection order.
    ``flips`` is the parity of vertices whose cyclic order was reversed,
    and ``form`` the id of the branch as an unordered labelled tree.
    """

    __slots__ = ("key", "tree", "weight", "flips", "form")

    def __init__(
        self, key: tuple, tree: Bracket, weight: int, flips: int, form: int
    ) -> None:
        self.key = key
        self.tree = tree
        self.weight = weight
        self.flips = flips
        self.form = form


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


def _vertex(a: _Side, b: _Side, form: int) -> _Side:
    """The better child order at a vertex whose branches follow as a, b."""
    kept, swapped = _join(a, b, 0, form), _join(b, a, 1, form)
    return kept if kept.key <= swapped.key else swapped


def _choose(best, left: _Side, right: _Side):
    """best, or the root edge (left, right) if its tie-break key is less."""
    lk, rk = left.key, right.key
    key = (lk[0] + rk[0], lk[1] + rk[1], lk[2] + rk[2], lk[3], lk[4], rk[3], rk[4])
    if best is None or key < best[0]:
        return key, left, right
    return best


class Canonicalizer:
    """canonicalize() with branches shared across the trees of one job.

    ``forms`` numbers branches as unordered labelled rooted trees (a
    leaf by its component, a pair by its two forms), and ``sides`` holds
    the best orientation of each downward branch, keyed by sub-bracket.
    Both depend only on the branch, so one instance serves any number of
    trees: massey_sum() makes one per call, for its interval DP over
    forms and for the trees it canonicalizes, which share most of their
    sub-brackets.  Nothing outlives the instance.
    """

    def __init__(self) -> None:
        self.forms: dict = {}
        self.sides: dict[Bracket, _Side] = {}

    def _form(self, a: int, b: int) -> int:
        return self.forms.setdefault((a, b) if a < b else (b, a), len(self.forms))

    def side(self, t: Bracket) -> _Side:
        """Best orientation of sub-bracket t, hanging below its parent."""
        got = self.sides.get(t)
        if got is None:
            if isinstance(t, int):
                form = self.forms.setdefault(t, len(self.forms))
                got = _Side((0, 0, 0, (-t,), (0,)), t, 1, 0, form)
            else:
                a, b = self.side(t[0]), self.side(t[1])
                got = _vertex(a, b, self._form(a.form, b.form))
            self.sides[t] = got
        return got

    def canonicalize(self, tree: Bracket) -> tuple[Bracket, int]:
        """Canonical minimal linking of lk(tree) and its sign.

        lk(tree) is read as an unrooted trivalent tree whose internal
        vertices carry the cyclic order (parent, left, right).  A
        re-association moves the root edge and keeps every cyclic order;
        a sub-bracket swap reverses one vertex's order at sign -1.  The
        class is therefore every choice of root edge, root direction and
        child order per vertex, and a member's sign is -1 to the number
        of vertices whose order differs from the input.  Weight 2 has no
        vertex: lk(x,y) and lk(y,x) are different classes.

        The representative minimizes the top imbalance ||u|-|v||, then
        the tie-break order of the module docstring.  Its parts decompose
        over branches, so each branch keeps the better of its two child
        orders, and the root is the best of the 2(2n-3) directed edges.
        Every vertex's downward branch comes from the shared table; its
        upward branch (the rest of the tree) first gets only its weight
        and form.  The full tie-break key is built only for root edges
        of least (imbalance, left weight), and an upward branch only
        along the path such an edge needs.

        The returned sign s satisfies lk(tree) = s * lk(representative).
        A sign of 0 marks a degenerate class (equivalent to its own
        negative, hence forced to vanish); this happens exactly when
        some vertex has two branches that are isomorphic as unordered
        labelled rooted trees, e.g. the pair (u,u) below the top.
        """
        if isinstance(tree, int):
            raise PreconditionError("a formal linking needs weight > 1")
        if isinstance(tree[0], int) and isinstance(tree[1], int):
            return tree, 1
        # Vertices in preorder of tree[0], then of tree[1]; the two top
        # vertices are each other's parent.  down[v] is v's downward
        # branch and above[v] the form of the branch at parent[v] that
        # hangs away from v.
        side, form = self.side, self._form
        first, second = side(tree[0]), side(tree[1])
        n, top = first.weight + second.weight, 2 * first.weight - 1
        down: list[_Side] = []
        parent: list[int] = []
        kids: list[tuple[int, int] | None] = []
        above: list[int] = []
        degenerate = False
        stack = [(tree[1], second, 0, first.form), (tree[0], first, top, second.form)]
        while stack:
            t, d, p, up = stack.pop()
            v = len(down)
            down.append(d)
            parent.append(p)
            above.append(up)
            if isinstance(t, int):
                kids.append(None)
                continue
            a, b = side(t[0]), side(t[1])
            degenerate = degenerate or a.form == b.form or up in (a.form, b.form)
            kids.append((v + 1, v + 2 * a.weight))
            stack.append((t[1], b, v, form(a.form, up)))
            stack.append((t[0], a, v, form(b.form, up)))

        ups: list[_Side | None] = [None] * len(down)
        ups[0], ups[top] = second, first

        def upward(x: int) -> _Side:
            # the branch at parent[x] that hangs away from x, built lazily
            got = ups[x]
            if got is None:
                p = parent[x]
                a, b = kids[p]
                if x == a:
                    got = _vertex(down[b], upward(p), above[x])
                else:
                    got = _vertex(upward(p), down[a], above[x])
                ups[x] = got
            return got

        # Root edges in the order (vertex, its neighbours parent, left,
        # right); only those of least (imbalance, left weight) compete.
        target = max(min(d.weight, n - d.weight) for d in down)
        best = None
        for u, d in enumerate(down):
            if d.weight == target:
                best = _choose(best, d, upward(u))
            for c in kids[u] or ():
                if n - down[c].weight == target:
                    best = _choose(best, upward(c), down[c])
        _, left, right = best
        if degenerate:
            return (left.tree, right.tree), 0
        return (left.tree, right.tree), (-1) ** (left.flips + right.flips)


def canonicalize(tree: Bracket) -> tuple[Bracket, int]:
    """Canonical minimal linking of lk(tree) and its sign.

    A one-shot Canonicalizer; see Canonicalizer.canonicalize.
    """
    return Canonicalizer().canonicalize(tree)


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


@frozen_record
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
    i_1 != i_q and weight at most 12.  Bracketings of one form are
    summed before any is canonicalized; tests/test_brackets.py keeps
    the one-at-a-time sum as massey_sum_oracle.
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
    canon = Canonicalizer()
    # Interval DP over forms.  sums[i, j] maps the form of each
    # bracketing w of letters i..j-1 to the signed count of those w,
    # each signed against its form's representative rep[form], which is
    # (rep of the smaller form, rep of the larger).  A w with no vertex
    # whose children share a form has no automorphism, so one set of
    # child swaps takes it to the representative and the sign is
    # defined; a w with such a vertex is degenerate and drops out.
    seq = entries[:-1]
    rep: dict[int, Bracket] = {}
    sums: dict[tuple[int, int], dict[int, int]] = {}
    for i, leaf in enumerate(seq):
        form = canon.side(leaf).form
        rep[form] = leaf
        sums[i, i + 1] = {form: 1}
    for span in range(2, len(seq) + 1):
        for i in range(len(seq) - span + 1):
            j = i + span
            acc: dict[int, int] = {}
            for k in range(i + 1, j):
                right = sums[k, j].items()
                for fa, ca in sums[i, k].items():
                    for fb, cb in right:
                        if fa == fb:
                            continue
                        form = canon._form(fa, fb)
                        if fa < fb:
                            acc[form] = acc.get(form, 0) + ca * cb
                            rep.setdefault(form, (rep[fa], rep[fb]))
                        else:
                            acc[form] = acc.get(form, 0) - ca * cb
                            rep.setdefault(form, (rep[fb], rep[fa]))
            sums[i, j] = {form: c for form, c in acc.items() if c}
    terms: dict[Bracket, int] = {}
    for form, count in sums[0, len(seq)].items():
        linking, s = canon.canonicalize((rep[form], entries[-1]))
        if s:
            terms[linking] = terms.get(linking, 0) + sign * s * count
    return LinkingExpr.from_dict(terms)


def evaluate(expr: LinkingExpr, values: dict) -> int:
    """Linear evaluation; linkings absent from values count as 0."""
    total, _ = evaluate_detailed(expr, values)
    return total


def evaluate_detailed(expr: LinkingExpr, values: dict) -> tuple[int, list[str]]:
    """Evaluation plus the display forms of terms that defaulted to 0.

    Keys of values may be ``lk(u,v)`` strings in any equivalent form or
    bracket trees; each is canonicalized (with its sign) before lookup,
    all through one Canonicalizer.
    """
    if not isinstance(values, dict):
        raise ParseError("linking values must be a mapping lk(u,v) -> integer")
    canon = Canonicalizer()
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
        value = strict_int(val, f"linking value for {render_linking(tree)}")
        rep, s = canon.canonicalize(tree)
        if s == 0:
            continue
        effective = s * value
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
