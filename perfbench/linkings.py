"""The benchmark's own reading of formal linkings, independent of mubar.

A formal linking lk(u,v) is a binary tree whose leaves are component
letters.  mubar identifies linkings up to re-association across the top
split (sign +1) and swapping a proper sub-bracket (sign -1).  Both moves
keep the underlying unrooted, unordered leaf-labelled tree, and between
them they reach every rooting and every child order of it, so two
linkings are equivalent up to sign exactly when their unrooted trees are
isomorphic.  ``linking_class`` computes that isomorphism class.

Trees are ints (1-based components) or pairs of trees.
"""

from __future__ import annotations

import random

LETTERS = "xyzwvutsrqpo"


def parse(text: str):
    """Parse ``lk(u,v)`` or a bracket; letter runs are right-nested."""
    body = text.strip()
    if body.startswith("lk(") and body.endswith(")"):
        body = body[2:]
    tree, pos = _seq(body, 0)
    if pos != len(body):
        raise ValueError(f"trailing text in {text!r}")
    return tree


def _seq(text: str, pos: int):
    items = []
    while pos < len(text) and text[pos] not in ",)":
        if text[pos] == "(":
            left, pos = _seq(text, pos + 1)
            if text[pos] != ",":
                raise ValueError(f"expected ',' in {text!r}")
            right, pos = _seq(text, pos + 1)
            if text[pos] != ")":
                raise ValueError(f"expected ')' in {text!r}")
            items.append((left, right))
            pos += 1
        else:
            items.append(LETTERS.index(text[pos]) + 1)
            pos += 1
    if not items:
        raise ValueError(f"empty bracket in {text!r}")
    tree = items[-1]
    for item in reversed(items[:-1]):
        tree = (item, tree)
    return tree, pos


def render(tree) -> str:
    """Fully parenthesized form, e.g. ``lk((x,y),(y,x))``; mubar accepts it."""

    def side(t):
        return LETTERS[t - 1] if isinstance(t, int) else f"({side(t[0])},{side(t[1])})"

    return f"lk({side(tree[0])},{side(tree[1])})"


def leaves(tree) -> list[int]:
    if isinstance(tree, int):
        return [tree]
    return leaves(tree[0]) + leaves(tree[1])


def random_bracketing(seq, rng: random.Random):
    """A uniformly chosen split at every level of the letter sequence."""
    if len(seq) == 1:
        return seq[0]
    k = rng.randint(1, len(seq) - 1)
    return (random_bracketing(seq[:k], rng), random_bracketing(seq[k:], rng))


def _swap_at(tree, path):
    if not path:
        return (tree[1], tree[0])
    if path[0] == 0:
        return (_swap_at(tree[0], path[1:]), tree[1])
    return (tree[0], _swap_at(tree[1], path[1:]))


def _internal_paths(tree, path=()):
    if isinstance(tree, int):
        return []
    out = [path]
    out += _internal_paths(tree[0], path + (0,))
    out += _internal_paths(tree[1], path + (1,))
    return out


def random_moves(tree, rng: random.Random, count: int):
    """Apply ``count`` random equivalence moves; return (tree, sign)."""
    sign = 1
    for _ in range(count):
        left, right = tree
        options = []
        if not isinstance(left, int):
            options.append("left")
        if not isinstance(right, int):
            options.append("right")
        proper = [p for p in _internal_paths(tree) if p]
        if proper:
            options.append("swap")
        choice = rng.choice(options)
        if choice == "left":  # ((a,b),c) -> (a,(b,c))
            tree = (left[0], (left[1], right))
        elif choice == "right":  # (a,(b,c)) -> ((a,b),c)
            tree = ((left, right[0]), right[1])
        else:
            tree = _swap_at(tree, rng.choice(proper))
            sign = -sign
    return tree, sign


def linking_class(tree) -> str:
    """Canonical string of the unrooted unordered leaf-labelled tree."""
    adj: dict[int, list[int]] = {}
    label: dict[int, int] = {}

    def build(t) -> int:
        node = len(adj)
        adj[node] = []
        if isinstance(t, int):
            label[node] = t
            return node
        for child in t:
            c = build(child)
            adj[node].append(c)
            adj[c].append(node)
        return node

    left, right = build(tree[0]), build(tree[1])
    adj[left].append(right)
    adj[right].append(left)

    memo: dict[tuple[int, int], str] = {}

    def rooted(node: int, parent: int) -> str:
        key = (node, parent)
        if key not in memo:
            if node in label:
                memo[key] = LETTERS[label[node] - 1]
            else:
                kids = sorted(rooted(c, node) for c in adj[node] if c != parent)
                memo[key] = "(" + ",".join(kids) + ")"
        return memo[key]

    return min(
        "|".join(sorted((rooted(a, b), rooted(b, a))))
        for a in adj
        for b in adj[a]
    )
