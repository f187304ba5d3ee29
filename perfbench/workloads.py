"""Seeded inputs, operation lists and output checks for each workload.

``build(workload, seed, directory)`` writes the inputs of one run under
``directory`` (the bundled corpus must already be installed there) and
returns the round: the fixed list of operations every round of that run
executes.  An operation is one ``mubar`` CLI invocation plus a check of
its parsed JSON output; a check returns a list of problems, empty when
the output is right.  Checks compare against independent routes or
theory, never against recorded output of the program.

The seed changes the inputs only in ways that leave the cost of each
operation unchanged: it relabels components, reverses letter sequences,
picks crossing signs within fixed braid shapes and rewrites values-file
keys.  So the spread between seeds measures the machine, not the inputs.
The library is imported from ``src`` to build inputs (PD codes, braid
text) and, for ``diagram``, to compute the independent Artin route.
"""

from __future__ import annotations

import functools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import linkings
from mubar.corpus import borromean_pd
from mubar.links import (
    PureBraidWord,
    artin_longitudes,
    braid_closure_pd,
    format_braid,
    mirror_pd,
    reorder,
)
from mubar.milnor import all_vanish_up_to, mu_bar
from mubar.surgery import lcq_is_free
from mubar.words import format_word, identity, left_normed


@dataclass
class Op:
    """One CLI invocation; ``check(out, round_outputs)`` lists problems."""

    key: str
    argv: list[str]
    check: Callable[[dict, dict], list[str]]
    cheap: bool = False  # sub-second; the self-test runs these


def _write(path: Path, data) -> str:
    text = data if isinstance(data, str) else json.dumps(data, indent=2, sort_keys=True) + "\n"
    path.write_text(text)
    return str(path)


def _expect(cond: bool, message: str) -> list[str]:
    return [] if cond else [message]


# ---------------------------------------------------------------------------
# diagram: Wirtinger rewriting and Magnus expansion of long longitudes


def relabel_pd(pd, perm, rng: random.Random) -> dict:
    """PD JSON with component k := old component perm[k-1], arcs renamed.

    Arc order along each component is kept, so every walk, longitude
    word and expansion is the relabelled one and costs the same.
    """
    arcs = [a for comp in pd.components for a in comp]
    fresh = list(range(1, len(arcs) + 1))
    rng.shuffle(fresh)
    name = dict(zip(arcs, fresh))
    crossings = [
        {"arcs": [name[a] for a in x.arcs], "sign": x.sign} for x in pd.crossings
    ]
    rng.shuffle(crossings)
    return {
        "m": pd.m,
        "components": [[name[a] for a in pd.components[p - 1]] for p in perm],
        "crossings": crossings,
    }


def _permutation(rng: random.Random, m: int) -> tuple[int, ...]:
    perm = list(range(1, m + 1))
    rng.shuffle(perm)
    return tuple(perm)


def _left_normed_braid(gens) -> tuple:
    word = (gens[0],)
    for g in gens[1:]:
        inv = tuple((i, j, -e) for i, j, e in reversed(word))
        word = inv + ((g[0], g[1], -g[2]),) + word + (g,)
    return word


def _commutator_braid(rng: random.Random) -> PureBraidWord:
    # [g^s, h^t] for {g, h} = {A12, A23}: every choice is non-trivial and
    # its closure has the same 8 crossings.
    g, h = rng.sample([(1, 2), (2, 3)], 2)
    s, t = rng.choice((1, -1)), rng.choice((1, -1))
    return PureBraidWord(3, _left_normed_braid([(*g, s), (*h, t)]))


def _fmt(index) -> str:
    return "".join(str(i) for i in index)


def _check_pair_vanishes(out, _):
    return _expect(
        out.get("residue") == 0 and out.get("delta") == 0 and out.get("mu") == 0,
        f"mu-bar({out.get('index')}) of a link with vanishing linking numbers "
        f"is {out}",
    )


def _check_triple(out, _):
    return _expect(
        out.get("mu") in (1, -1) and out.get("delta") == 0
        and out.get("residue") == out.get("mu"),
        f"Borromean mu-bar({out.get('index')}) should be +-1 with Delta 0: {out}",
    )


def _same_mu_as(key: str):
    def check(out, outputs):
        other = outputs.get(key)
        if other is None:
            return [f"{key} has no output to compare with"]
        return _expect(
            out.get("mu") == other.get("mu"),
            f"mu changed between depths: {other} vs {out}",
        )

    return check


def _all(*checks):
    def check(out, outputs):
        return [p for c in checks for p in c(out, outputs)]

    return check


def _diagram(seed: int, d: Path) -> list[Op]:
    rng = random.Random(f"diagram-{seed}")
    bor = str(d / "borromean.json")  # the bundled file, as installed
    mirror = _write(d / "mirror.json", relabel_pd(mirror_pd(borromean_pd()), _permutation(rng, 3), rng))
    ops: list[Op] = []
    triple = _fmt(_permutation(rng, 3))
    for name, path in (("bor", bor), ("mir", mirror)):
        for i, j in ((1, 2), (1, 3), (2, 3)):
            index = f"{i}{j}" if rng.random() < 0.5 else f"{j}{i}"
            ops.append(Op(f"{name}-mubar-{index}", ["mu-bar", "--link", path, "--index", index], _check_pair_vanishes, cheap=True))
        ops.append(Op(f"{name}-mubar-d6", ["mu-bar", "--link", path, "--index", triple, "--depth", "6"], _check_triple))
    ops.append(Op("bor-mubar-d7", ["mu-bar", "--link", bor, "--index", triple, "--depth", "7"], _all(_check_triple, _same_mu_as("bor-mubar-d6"))))
    ops.append(Op(
        "bor-lcq-6", ["lcq", "--link", bor, "--q", "6"],
        # all linking numbers vanish, so every weight-2 and repeated-entry
        # weight-3 residue does; 123 is the shortlex-least survivor
        lambda out, _: _expect(
            out.get("free") is False and out.get("witness") == "123"
            and out.get("witness_relator") in (1, 2, 3),
            f"Borromean lcq at q=6 should fail at 123: {out}",
        ),
    ))
    ops.append(Op("mir-vanish-2", ["vanish-up-to", "--link", mirror, "--weight", "2"],
                  lambda out, _: _expect(out.get("all_vanish") is True, f"weight-2 residues vanish: {out}"), cheap=True))
    ops.append(Op("mir-vanish-5", ["vanish-up-to", "--link", mirror, "--weight", "5", "--depth", "6"],
                  lambda out, _: _expect(out.get("all_vanish") is False, f"mu-bar(123) = +-1 survives: {out}")))

    for name in ("closure_a", "closure_b"):
        braid, perm = _commutator_braid(rng), _permutation(rng, 3)
        _write(d / f"{name}.braid", format_braid(braid) + "\n")
        path = _write(d / f"{name}.json", relabel_pd(braid_closure_pd(braid), perm, rng))
        index = tuple(rng.randint(1, 3) for _ in range(4))
        # The Artin route is computed when first checked, outside set-up
        # and outside every timed operation.
        ref = functools.cache(lambda depth, b=braid, p=perm: reorder(artin_longitudes(b, depth), p))

        def same_residue(out, _, depth, index=index, ref=ref):
            value = mu_bar(ref(depth), index)
            return _expect(
                (out.get("residue"), out.get("delta")) == (value.residue, value.delta),
                f"PD route gives {out}, Artin route residue {value.residue} delta {value.delta}",
            )

        def same_vanish(out, _, ref=ref):
            v = all_vanish_up_to(ref(6), 5)
            return _expect(out.get("all_vanish") is v, f"Artin route says {v}: {out}")

        def same_lcq(out, _, ref=ref):
            lcq = lcq_is_free(ref(6), 6)
            w = None if lcq.witness_index is None else _fmt(lcq.witness_index)
            return _expect(
                out.get("free") is lcq.free and out.get("witness") == w,
                f"Artin route gives free={lcq.free} witness={w}: {out}",
            )

        argv = ["mu-bar", "--link", path, "--index", _fmt(index), "--depth"]
        ops.append(Op(f"{name}-mubar-d6", argv + ["6"], functools.partial(same_residue, depth=6), cheap=True))
        ops.append(Op(
            f"{name}-mubar-d7", argv + ["7"],
            _all(functools.partial(same_residue, depth=7), _same_mu_as(f"{name}-mubar-d6")), cheap=True,
        ))
        ops.append(Op(f"{name}-vanish-5", ["vanish-up-to", "--link", path, "--weight", "5", "--depth", "6"], same_vanish, cheap=True))
        ops.append(Op(f"{name}-lcq-6", ["lcq", "--link", path, "--q", "6"], same_lcq, cheap=True))
    return ops


# ---------------------------------------------------------------------------
# brackets: orbit canonicalization of formal linkings


# Index shapes are fixed, so each operation's cost is; the seed relabels
# components and may reverse the first q-1 letters (which mirrors every
# bracketing and keeps every orbit size).  Each shape's first q-1 letters
# start and end away from the last letter, so the reversal stays valid.
BRACKET_SHAPES = {
    "w8": "12211212",
    "w8c": "12312312",
    "w10": "1212121212",
}
STAR_INDEX = "122121222"
STAR_VALUE = -20  # the paper's mu-bar(122121222) on lk(yyxy,(yxy,xy)) = 1


def seeded_index(shape: str, rng: random.Random) -> tuple[int, ...]:
    comps = sorted(set(int(c) for c in shape))
    perm = dict(zip(comps, rng.sample(comps, len(comps))))
    index = [perm[int(c)] for c in shape]
    if rng.random() < 0.5:
        index[:-1] = index[-2::-1]
    return tuple(index)


def catalan(n: int) -> int:
    return math.comb(2 * n, n) // (n + 1)


def _terms_check(index: tuple[int, ...]):
    q = len(index)
    multiset = sorted(index)

    def check(out, _):
        problems = []
        terms = out.get("terms")
        if not isinstance(terms, list):
            return [f"no terms in {out}"]
        for term in terms:
            tree = linkings.parse(term["linking"])
            if sorted(linkings.leaves(tree)) != multiset:
                problems.append(f"term {term['linking']} does not use the letters of {_fmt(index)}")
        total = sum(abs(t["coeff"]) for t in terms)
        if total > catalan(q - 2):
            problems.append(f"sum of |coefficients| {total} exceeds Catalan({q - 2})")
        if out.get("index") != _fmt(index):
            problems.append(f"index echoed as {out.get('index')}")
        return problems

    return check


def values_files(index, rng: random.Random, keys: int):
    """Values on bracketings of ``index``, and the same after random moves.

    The keys lie in distinct equivalence classes, so neither file can
    assign conflicting values to one class.  Returns both mappings and
    the classes they cover.
    """
    plain, moved, classes = {}, {}, set()
    while len(plain) < keys:
        tree = (linkings.random_bracketing(list(index[:-1]), rng), index[-1])
        cls = linkings.linking_class(tree)
        if cls in classes:
            continue
        classes.add(cls)
        value = rng.choice([v for v in range(-5, 6) if v])
        plain[linkings.render(tree)] = value
        other, sign = linkings.random_moves(tree, rng, rng.randint(3, 9))
        moved[linkings.render(other)] = sign * value
    return plain, moved, classes


def _defaults_check(classes):
    def check(out, _):
        expected = sorted(
            t["linking"] for t in out.get("terms", [])
            if linkings.linking_class(linkings.parse(t["linking"])) not in classes
        )
        return _expect(
            sorted(out.get("defaulted_to_zero", [])) == expected,
            f"terms outside the values' classes should default to 0: {out.get('defaulted_to_zero')}",
        )

    return check


def _same_output_as(key: str):
    def check(out, outputs):
        return _expect(out == outputs.get(key), f"rewritten values keys changed the output of {key}")

    return check


def _brackets(seed: int, d: Path) -> list[Op]:
    rng = random.Random(f"brackets-{seed}")
    star = str(d / "star.json")  # the bundled file, as installed
    ops: list[Op] = []

    star_index = tuple(int(c) for c in STAR_INDEX)
    (key, value), = json.loads(Path(star).read_text()).items()
    tree, sign = linkings.random_moves(linkings.parse(key), rng, rng.randint(3, 9))
    star_moved = _write(d / "star_moved.json", {linkings.render(tree): sign * value})
    star_check = _all(_terms_check(star_index), lambda out, _: _expect(
        out.get("value") == STAR_VALUE, f"mu-bar(122121222) evaluates to {out.get('value')}, not -20"))
    ops.append(Op("star", ["massey-sum", "--index", STAR_INDEX, "--values", star], star_check))
    ops.append(Op(
        "star-moved", ["massey-sum", "--index", STAR_INDEX, "--values", star_moved],
        _all(star_check, _same_output_as("star")),
    ))

    for shape, keys in (("w8", 3), ("w8c", 3), ("w10", 0)):
        index = seeded_index(BRACKET_SHAPES[shape], rng)
        argv = ["massey-sum", "--index", _fmt(index)]
        if not keys:
            ops.append(Op(shape, argv, _terms_check(index)))
            continue
        plain, moved, classes = values_files(index, rng, keys)
        checks = [_terms_check(index), _defaults_check(classes)]
        path = _write(d / f"{shape}_values.json", moved)
        ops.append(Op(shape, argv + ["--values", path], _all(*checks), cheap=shape == "w8"))
        if shape == "w8":
            path = _write(d / f"{shape}_values_plain.json", plain)
            ops.append(Op(f"{shape}-plain", argv + ["--values", path], _all(*checks, _same_output_as(shape)), cheap=True))
            # Seven operations a round put the median operation inside
            # the weight-8 three-letter cluster, not between it and
            # the 122121222 pair, where it would average the extremes.
            ops.append(Op(f"{shape}-bare", argv, _terms_check(index), cheap=True))
    return ops


# ---------------------------------------------------------------------------
# sweep: weight-ascending residue scans over many tiny expansions


def gamma_braid(rng: random.Random, strands: int) -> tuple[PureBraidWord, int]:
    """A non-trivial braid in Gamma_k(P_n) and its k.

    P_3: [[g^r, h^s], g^t] with {g, h} = {A12, A23}, in Gamma_3.
    P_4: [A_{i,i+1}^r, A_{i+1,i+2}^s], in Gamma_2.  Adjacent generators
    keep the Artin images short.  All 32 choices have a non-trivial
    Artin action (checked by enumeration).
    """
    r, s, t = (rng.choice((1, -1)) for _ in range(3))
    if strands == 3:
        g, h = rng.sample([(1, 2), (2, 3)], 2)
        gens, k = [(*g, r), (*h, s), (*g, t)], 3
    else:
        i = rng.randint(1, 2)
        pair = [(i, i + 1, r), (i + 1, i + 2, s)]
        rng.shuffle(pair)
        gens, k = pair, 2
    return PureBraidWord(strands, _left_normed_braid(gens)), k


def commutator_system(rng: random.Random, m: int, weight: int, shape: str) -> dict:
    """Longitudes that are products of two left-normed commutators of
    the given weight, so every relator lies in F_weight.

    The commutators' entries are drawn from ``shape`` alone; the seed
    only relabels the components (letters and longitudes alike), which
    keeps the cost of every scan.  Entries drawn from the seed would
    change the cost of ``lcq --q 7`` by up to a fifth between seeds.
    """
    fixed = random.Random(shape)
    label = (0, *_permutation(rng, m))  # old component i is now label[i]
    longs = [""] * m
    for k in range(1, m + 1):
        w = identity()
        for _ in range(2):
            entries = [fixed.randint(1, m) for _ in range(weight)]
            entries[1] = fixed.choice([c for c in range(1, m + 1) if c != entries[0]])
            w = w * left_normed(*(label[e] for e in entries))
        longs[label[k] - 1] = format_word(w)
    return {"m": m, "depth": weight + 1, "longitudes": longs}


def _free(out, _):
    return _expect(
        out.get("free") is True and out.get("witness") is None and out.get("witness_relator") is None,
        f"relators in F_q must give a free quotient: {out}",
    )


def _vanish(out, _):
    return _expect(out.get("all_vanish") is True, f"residues must vanish: {out}")


def _sweep(seed: int, d: Path) -> list[Op]:
    rng = random.Random(f"sweep-{seed}")
    ops: list[Op] = []
    # Five P_4 braids make the operations that are mostly interpreter
    # start-up most of a round, so the median operation lies inside that
    # cluster, not among the small scans, whose costs lie 10-15% apart
    # and would make op_p50_s jump between them from run to run.  P_4,
    # as every choice there costs the same; the P_3 choices differ by
    # up to 20 ms.
    for n, strands in enumerate((3, 4, 4, 4, 4, 4)):
        braid, k = gamma_braid(rng, strands)
        path = _write(d / f"gamma_{n}_p{strands}.braid", format_braid(braid) + "\n")
        ops.append(Op(f"p{strands}.{n}-lcq-{k}", ["lcq", "--link", path, "--q", str(k)], _free, cheap=True))
        ops.append(Op(f"p{strands}.{n}-vanish-{k}", ["vanish-up-to", "--link", path, "--weight", str(k)], _vanish, cheap=True))

    for name in ("sys6a", "sys6b", "sys6c"):
        path = _write(d / f"{name}.json", commutator_system(rng, 3, 6, name))
        qs = (3, 4, 5, 6) if name == "sys6a" else (5,)
        for q in qs:
            ops.append(Op(f"{name}-lcq-{q}", ["lcq", "--link", path, "--q", str(q)], _free))
    ops.append(Op("sys6a-vanish-6", ["vanish-up-to", "--link", str(d / "sys6a.json"), "--weight", "6"], _vanish))
    path = _write(d / "sys7.json", commutator_system(rng, 3, 7, "sys7"))
    ops.append(Op("sys7-lcq-7", ["lcq", "--link", path, "--q", "7"], _free))

    l6 = str(d / "l6.json")  # the bundled file, as installed
    ops.append(Op(
        "l6-detector", ["find-detector", "--alpha", l6, "--weight", "6", "--type", "F"],
        lambda out, _: _expect("112222" in out.get("detectors", []), f"112222 detects F-mutation: {out}"),
        cheap=True,
    ))
    ops.append(Op(
        "l6-mutant", ["lcq", "--mutant-of", l6, "--type", "F", "--q", "6"],
        lambda out, _: _expect(
            out.get("found") is True and out["ribbon_sum"]["free"] is True
            and out["mutant"]["free"] is False and "112222" in out["detectors"],
            f"the ribbon sum must be free and its F-mutant not at q=6: {out}",
        ),
    ))
    ops.append(Op("l6-lcq-5", ["lcq", "--link", l6, "--q", "5"], _free, cheap=True))
    return ops


BUILDERS = {"diagram": _diagram, "brackets": _brackets, "sweep": _sweep}


def build(workload: str, seed: int, directory: Path) -> list[Op]:
    return BUILDERS[workload](seed, directory)
