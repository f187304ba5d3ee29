"""Longitude systems from concrete link presentations.

One pipeline produces a :class:`LongitudeSystem` from a diagram:
planar diagrams (PD codes) go through the Wirtinger presentation and an
iterative rewriting of arc meridians (:func:`longitudes_mod_q`), and a
pure braid word goes through the same rewriting of its closure
(:func:`braid_closure_pd`).  The Artin action on the free group
(:func:`artin_longitudes`) is kept as an independent reference route
for the tests and the benchmark's checks; no verb reads through it.
Beside them are the structural operations: componentwise connected
sum, the inverse-mirror, and one relabelling map that reorders,
selects and reorients components.

PD format.  A crossing is recorded as four arc labels counterclockwise
starting at the incoming under-strand, together with an explicit sign:
``arcs = (a, b, c, d)`` has the under-strand entering at ``a`` and
leaving at ``c``; ``b`` and ``d`` are the two over-strand arcs (their
order is not significant here).  A right-handed crossing has sign +1.
The Wirtinger relation attached to a crossing of sign ``s`` is

    m(c) = u^-s  m(a)  u^s        (u = meridian of the over-strand)

and the longitude of a component is the ordered product of u^s over its
under-passages, times x_i^-e for the 0-framing, with e its x_i exponent
sum (the component's self-writhe).  The Artin route frames by the same
exponent-sum rule.

JSON: ``{"m": .., "components": [[arc, ..], ..],
"crossings": [{"arcs": [a,b,c,d], "sign": +-1}, ..]}``.

Braid text: ``n; A12 A13^-1 ...`` with ``Aij`` (or ``Ai,j`` for
two-digit strand numbers) the standard pure braid generators.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError, shown, strict_int
from .magnus import check_term_budget, check_work_budget
from .milnor import LongitudeSystem
from .records import frozen_record
from .words import Letter, Word, check_letter_budget, generator, identity, substitute


@frozen_record
class Crossing:
    arcs: tuple[int, int, int, int]
    sign: int

    def __post_init__(self):
        if len(self.arcs) != 4:
            raise ValueError("a crossing needs exactly 4 arc labels")
        if self.sign not in (1, -1):
            raise ValueError(f"crossing sign must be +-1, got {shown(self.sign)}")

    @property
    def under_in(self) -> int:
        return self.arcs[0]

    @property
    def under_out(self) -> int:
        return self.arcs[2]

    @property
    def over_pair(self) -> frozenset[int]:
        return frozenset((self.arcs[1], self.arcs[3]))


@frozen_record
class PDCode:
    m: int
    components: tuple[tuple[int, ...], ...]
    crossings: tuple[Crossing, ...]

    def __post_init__(self):
        if self.m != len(self.components):
            raise ParseError(
                f"m={shown(self.m)} but {len(self.components)} components given"
            )
        seen: set[int] = set()
        for comp in self.components:
            if not comp:
                raise ParseError("empty component")
            for arc in comp:
                if arc in seen:
                    raise ParseError(f"arc {shown(arc)} listed twice in components")
                seen.add(arc)
        for k, x in enumerate(self.crossings):
            for arc in x.arcs:
                if arc not in seen:
                    raise ParseError(f"crossing {k} uses unknown arc {shown(arc)}")

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "components": [list(c) for c in self.components],
            "crossings": [
                {"arcs": list(x.arcs), "sign": x.sign} for x in self.crossings
            ],
        }


def load_pd(data: dict) -> PDCode:
    try:
        crossings = tuple(
            Crossing(
                tuple(strict_int(a, f"arc of crossing {k}") for a in entry["arcs"]),
                strict_int(entry["sign"], f"sign of crossing {k}"),
            )
            for k, entry in enumerate(data["crossings"])
        )
        return PDCode(
            m=strict_int(data["m"], "m"),
            components=tuple(
                tuple(strict_int(a, f"arc of component {i}") for a in comp)
                for i, comp in enumerate(data["components"], start=1)
            ),
            crossings=crossings,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"malformed PD code: {exc}") from exc


# A passage is one step of a component past a crossing: ("under"|"over",
# crossing index).  _trace pairs every consecutive arc transition with
# the unique crossing realizing it, consuming each crossing once as an
# under-passage and once as an over-passage.

def _trace(pd: PDCode) -> list[list[tuple[str, int]]]:
    under_unused: dict[tuple[int, int], list[int]] = {}
    over_unused: dict[frozenset[int], list[int]] = {}
    first_use: dict[int, Crossing] = {}  # arc -> first crossing using it
    for k, x in enumerate(pd.crossings):
        under_unused.setdefault((x.under_in, x.under_out), []).append(k)
        over_unused.setdefault(x.over_pair, []).append(k)
        for arc in x.arcs:
            first_use.setdefault(arc, x)

    walks: list[list[tuple[str, int]]] = []
    for comp in pd.components:
        walk: list[tuple[str, int]] = []
        if len(comp) == 1:
            x = first_use.get(comp[0])
            if x is not None:
                raise ParseError(
                    f"single-arc component uses arc {shown(comp[0])} at a crossing "
                    f"{shown(x.arcs)}"
                )
            walks.append(walk)
            continue
        for t, arc in enumerate(comp):
            nxt = comp[(t + 1) % len(comp)]
            unders = under_unused.get((arc, nxt))
            overs = over_unused.get(frozenset((arc, nxt)))
            if unders:
                walk.append(("under", unders.pop(0)))
            elif overs:
                walk.append(("over", overs.pop(0)))
            else:
                raise ParseError(
                    f"no unused crossing joins arcs {shown(arc)} -> {shown(nxt)}"
                )
        walks.append(walk)

    leftover = [k for ks in under_unused.values() for k in ks]
    leftover += [k for ks in over_unused.values() for k in ks]
    if leftover:
        raise ParseError(
            f"crossing(s) {shown(sorted(set(leftover)))} not consumed by any "
            f"component walk"
        )
    return walks


def _zero_framed(w: Word, i: int) -> Word:
    # w times x_i^-e, e the x_i exponent sum of w: the 0-framing of an
    # unframed i-th longitude.  On a PD walk e is the self-writhe, since
    # u^s adds s to it exactly when the over-strand is component i.
    return w * generator(i) ** (-w.exponent_sum(i))


def _running_products(pd: PDCode, walk, exprs: dict[int, Word]):
    # Entry t is the product of u^s over the first t passages of the walk
    # (u the over-strand's arc expression, s the crossing sign): the t-th
    # arc's conjugator.  Each entry is made when it is read, so no walk's
    # list is held.
    conj = identity()
    yield conj
    for kind, k in walk:
        if kind == "under":
            x = pd.crossings[k]
            u = exprs[x.arcs[1]]
            conj = conj * (u if x.sign == 1 else u.inverse())
        yield conj


# Most letters one rewriting round may build: each arc expression and
# the conjugator it is made from are counted as they are made, and the
# longitudes' letters are counted the same way.  WORK_BUDGET, checked
# after the round, admits 1.4 x 10^9 arc letters at m = 2, q = 3, and
# never sees the conjugators, which grow while a run of kinks keeps
# every arc expression one letter long.  A held letter costs about 8
# bytes, a pointer to a shared letter object: on a 2-vCPU host with
# Python 3.11, the round of 2; A12^2000 at q = 3 (16,004,000 arc
# letters) took 8.1 bytes a letter of peak RSS, where fresh letter
# tuples took 81 bytes.  Building costs 0.25-0.7 us a counted letter,
# so a round stops within about 7 s.  At q = 3, 2; A12^1290 answers
# (2.6 s, 107 MB peak) and 2; A12^1291 exits 3.
ARC_LETTER_BUDGET = 10_000_000


def _count_letters(total: int, more: int, stage: str) -> int:
    total += more
    if total > ARC_LETTER_BUDGET:
        raise PreconditionError(
            f"{stage} builds more than ARC_LETTER_BUDGET = {ARC_LETTER_BUDGET} letters"
        )
    return total


def _longitude_letters(pd: PDCode, walk, exprs: dict[int, Word]) -> list[Letter]:
    # the letters of the whole walk's product of u^s, unreduced: the last
    # of _running_products without building the ones before it
    letters: list[Letter] = []
    for kind, k in walk:
        if kind == "under":
            x = pd.crossings[k]
            u = exprs[x.arcs[1]]
            letters += (u if x.sign == 1 else u.inverse()).letters
    return letters


def longitudes_mod_q(pd: PDCode, q: int) -> LongitudeSystem:
    """Longitude words valid mod F_q after q - 2 rounds of rewriting.

    Arc expressions start as the base meridian x_i of their component.
    A round walks each component from its base arc and sets the t-th
    arc to w^-1 x_i w, with w the product of u^s over the first t
    under-passages in the previous round's expressions.  The longitude
    is the whole walk's product times x_i^-e, e its x_i exponent sum
    (the self-writhe; this is the 0-framing).

    Why q - 2 rounds suffice: after r rounds every arc expression is
    right mod F_(r+2).  For r = 0, w^-1 x_i w = x_i mod F_2.  A round
    changes the conjugators by factors in F_(r+2), and conjugators that
    differ by c in F_k conjugate x_i to words that differ by a
    commutator in F_(k+1).  Longitudes are products of arc expressions,
    so after q - 2 rounds they are right mod F_q and every Magnus
    coefficient of degree < q is final; one round fewer is not enough.
    """
    if q < 2:
        raise PreconditionError("depth must be at least 2")
    check_term_budget(pd.m, q)
    walks = _trace(pd)
    exprs = {
        arc: generator(i)
        for i, comp in enumerate(pd.components, start=1) for arc in comp
    }
    for rnd in range(1, q - 1):
        stage = f"rewriting round {rnd}"
        built: dict[int, Word] = {}
        letters = 0
        for i, (comp, walk) in enumerate(zip(pd.components, walks), start=1):
            x = generator(i)
            for arc, w in zip(comp, _running_products(pd, walk, exprs)):
                built[arc] = w.inverse() * x * w
                letters = _count_letters(letters, len(w) + len(built[arc]), stage)
        exprs = built
        check_work_budget(sum(map(len, exprs.values())), pd.m, q)
    longs = []
    letters = 0
    for i, walk in enumerate(walks, start=1):
        product = _longitude_letters(pd, walk, exprs)
        letters = _count_letters(letters, len(product), "reading the longitudes")
        longs.append(_zero_framed(Word(tuple(product)), i))
    try:
        return LongitudeSystem(pd.m, q, tuple(longs))
    except PreconditionError:
        raise  # a budget refusal, not a malformed PD code
    except ValueError as exc:
        # e.g. asymmetric linking numbers from an inconsistent PD code
        raise ParseError(f"malformed PD code: {exc}") from exc


def mirror_pd(pd: PDCode) -> PDCode:
    """The mirror diagram: same incidences, every crossing sign flipped.

    This is the reflection of the diagram in its projection plane; it
    negates linking numbers and writhes.  It is not the inverse-mirror
    of :func:`inverse_mirror`, which models the upside-down (string
    link inverse) mirror and negates every mu invariant.
    """
    return PDCode(
        pd.m,
        pd.components,
        tuple(Crossing(x.arcs, -x.sign) for x in pd.crossings),
    )


# ---------------------------------------------------------------------------
# Pure braids


@frozen_record
class PureBraidWord:
    strands: int
    letters: tuple[tuple[int, int, int], ...]  # (i, j, exponent sign)

    def __post_init__(self):
        if self.strands < 1:
            raise ValueError("strand count must be positive")
        for i, j, e in self.letters:
            if not (1 <= i < j <= self.strands):
                raise ValueError(f"bad pure braid generator A{shown(i)},{shown(j)}")
            if e not in (1, -1):
                raise ValueError(f"letter exponent must be +-1, got {e}")


_BRAID_TOKEN = re.compile(r"^A(?:(\d+),(\d+)|(\d)(\d))(?:\^(-?\d+))?$")


def parse_braid(text: str) -> PureBraidWord:
    """Parse ``n; A12 A13^-1 ...``; an empty word is the trivial braid."""
    if ";" not in text:
        raise ParseError("braid text needs 'n; letters' with a semicolon")
    head, _, rest = text.partition(";")
    try:
        strands = int(head.strip())
    except ValueError as exc:
        raise ParseError(f"bad strand count {shown(head.strip())}") from exc
    letters: list[tuple[int, int, int]] = []
    for pos, token in enumerate(rest.split()):
        m = _BRAID_TOKEN.match(token)
        if m is None:
            raise ParseError(f"bad braid token {shown(token)} (position {pos})")
        try:
            i, j, exp = (int(g or 1) for g in (m[1] or m[3], m[2] or m[4], m[5]))
        except ValueError as exc:  # an integer longer than int() converts
            raise ParseError(
                f"bad braid token {shown(token)} (position {pos}): integer too long"
            ) from exc
        sign = 1 if exp > 0 else -1
        check_letter_budget(len(letters) + abs(exp))
        letters.extend([(i, j, sign)] * abs(exp))
    try:
        return PureBraidWord(strands, tuple(letters))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def format_braid(b: PureBraidWord) -> str:
    toks = []
    for i, j, e in b.letters:
        body = f"A{i}{j}" if i <= 9 and j <= 9 else f"A{i},{j}"
        toks.append(body if e == 1 else body + "^-1")
    return (f"{b.strands}; " + " ".join(toks)) if toks else f"{b.strands};"


def _sigmas(i: int, j: int, e: int) -> list[tuple[int, int]]:
    # A_ij = s_{j-1} .. s_{i+1} s_i^2 s_{i+1}^-1 .. s_{j-1}^-1, as
    # (k, +-1) Artin generators; A_ij^-1 reverses and inverts them.
    seq = [(k, 1) for k in range(j - 1, i, -1)]
    seq += [(i, 1), (i, 1)]
    seq += [(k, -1) for k in range(i + 1, j)]
    if e == -1:
        seq = [(k, -eps) for k, eps in reversed(seq)]
    return seq


def _artin_conjugators(b: PureBraidWord) -> dict[int, Word]:
    # W_t with x_t -> W_t x_t W_t^-1 under the braid's Artin action.
    # A_ij^e, with c = x_i x_j and d = x_j x_i, conjugates x_i and x_j by
    # c^e and every x_r with i < r < j by c^e d^-e (x -> g x g^-1), and
    # fixes the rest, so it sends W_t to step(W_t) g_t.  Trailing x_t
    # letters commute with x_t and are dropped; then the reduced image
    # has 2 len(W_t) + 1 letters, which can grow exponentially in braid
    # length, so its total is held to LETTER_BUDGET after every letter.
    n = b.strands
    conj = {t: identity() for t in range(1, n + 1)}
    for i, j, e in b.letters:
        c = (generator(i) * generator(j)) ** e
        d = (generator(j) * generator(i)) ** e
        step = {t: generator(t) for t in range(1, n + 1)}
        g = {}
        for r in range(i, j + 1):
            g[r] = c if r in (i, j) else c * d.inverse()
            step[r] = g[r] * generator(r) * g[r].inverse()
        for t, w in conj.items():
            letters = (substitute(w, step) * g.get(t, identity())).letters
            k = len(letters)
            while k and letters[k - 1][0] == t:
                k -= 1
            conj[t] = Word(letters[:k])
        check_letter_budget(sum(2 * len(w) + 1 for w in conj.values()))
    return conj


def artin_longitudes(b: PureBraidWord, q: int) -> LongitudeSystem:
    """Longitudes of the closure of a pure braid via the Artin action.

    For a pure braid each x_i maps to w_i x_i w_i^-1; the i-th 0-framed
    longitude is w_i x_i^-e with e the x_i exponent sum of w_i.
    """
    if q < 2:
        raise PreconditionError("depth must be at least 2")
    check_term_budget(b.strands, q)
    conj = _artin_conjugators(b)
    return LongitudeSystem(
        b.strands, q, tuple(_zero_framed(conj[i], i) for i in conj)
    )


# Most arcs and crossings the closure of one braid may have: one arc per
# strand plus 2(j - i) crossings per letter A_ij, counted from the
# letters before anything is built.  Reading a closure through lcq --q 2
# costs about 15-22 us and 0.7-1.2 KB a unit (2-vCPU host, Python 3.11),
# so this holds it to about 5 s: at 250,000 units, 2, 3, 50 and 1,000
# strands and 250,000 idle strands took 3.7-5.5 s and 170-295 MB.  A
# strand count of 10^12 or a letter A1,1000000 is refused before any
# arc is made.
CLOSURE_BUDGET = 250_000


def braid_closure_pd(b: PureBraidWord) -> PDCode:
    """The planar diagram traced by closing a pure braid.

    This is the braid route into longitudes_mod_q: braid text is read
    as the longitudes of its closure.  Arcs are laid out crossing by
    crossing up the braid and the top of each strand is glued to its
    bottom.  At a positive crossing the left strand passes over; the
    opposite convention is the same link (rotate the page about the
    braid axis), so nothing downstream depends on it.
    """
    n = b.strands
    size = n + sum(2 * (j - i) for i, j, _ in b.letters)
    if size > CLOSURE_BUDGET:
        raise PreconditionError(
            f"the closure of a {shown(n)}-strand braid of {len(b.letters)} "
            f"letters has {shown(size)} arcs and crossings, more than "
            f"CLOSURE_BUDGET = {CLOSURE_BUDGET}"
        )
    current = list(range(1, n + 1))    # arc id at each position
    strand_at = list(range(1, n + 1))  # strand at each position
    arcs_of = {s: [s] for s in range(1, n + 1)}
    next_arc = n + 1
    crossings = []  # (arcs, sign), glued into Crossings at the end
    sigmas = [sig for i, j, e in b.letters for sig in _sigmas(i, j, e)]
    for k, eps in sigmas:
        a_left, a_right = current[k - 1], current[k]
        s_left, s_right = strand_at[k - 1], strand_at[k]
        new_left, new_right = next_arc, next_arc + 1
        next_arc += 2
        if eps == 1:
            under_in, over_in = a_right, a_left
            under_out, over_out = new_left, new_right
        else:
            under_in, over_in = a_left, a_right
            under_out, over_out = new_right, new_left
        crossings.append(((under_in, over_in, under_out, over_out), eps))
        current[k - 1], current[k] = new_left, new_right
        strand_at[k - 1], strand_at[k] = s_right, s_left
        arcs_of[s_left].append(new_right)
        arcs_of[s_right].append(new_left)
    if strand_at != list(range(1, n + 1)):
        raise PreconditionError("braid is not pure: strands permuted")
    merge = {current[p - 1]: p for p in range(1, n + 1)}
    comps = []
    for s in range(1, n + 1):
        arcs = [merge.get(a, a) for a in arcs_of[s]]
        if len(arcs) > 1 and arcs[-1] == arcs[0]:
            arcs = arcs[:-1]
        comps.append(tuple(arcs))
    crossings = tuple(
        Crossing(tuple(merge.get(a, a) for a in arcs), sign)
        for arcs, sign in crossings
    )
    return PDCode(n, tuple(comps), crossings)


# ---------------------------------------------------------------------------
# Structural operations on longitude systems


def connected_sum(a: LongitudeSystem, b: LongitudeSystem) -> LongitudeSystem:
    """Componentwise product of longitudes, meridians identified.

    Words known mod F_a and mod F_b multiply to words known mod
    F_min(a,b), which fix every mu-bar of length <= min(a,b) (Milnor,
    "Isotopy of links", 1957): the sum has the shallower depth.
    """
    if a.m != b.m:
        raise PreconditionError(f"component counts differ: {a.m} != {b.m}")
    return LongitudeSystem(
        a.m, min(a.depth, b.depth),
        tuple(u * v for u, v in zip(a.longitudes, b.longitudes)),
    )


def inverse_mirror(a: LongitudeSystem) -> LongitudeSystem:
    """The upside-down mirror closure: every longitude word inverted.

    Cutting a link open to a string link, reflecting through a
    horizontal mirror and closing up again inverts the string link, and
    on longitude data this is word inversion.  The series inverse
    negates every mu(I) modulo Delta(I), exactly so when Delta(I) = 0,
    so connected_sum(a, inverse_mirror(a)) has vanishing residues.
    """
    return LongitudeSystem(
        a.m, a.depth, tuple(w.inverse() for w in a.longitudes)
    )


def reorder(a: LongitudeSystem, comps, flip=()) -> LongitudeSystem:
    """Relabel, select and reorient components in one substitution.

    New component k is old component comps[k-1]; meridians of old
    components not listed are killed, which for realized systems gives
    the longitude system of the sublink.  Components in ``flip`` (old
    numbering) reverse orientation: their meridians invert in every
    word and their longitude is also read backwards (word reversal with
    inverted letters).  0-framing is preserved.
    """
    comps = tuple(int(c) for c in comps)
    flip = {int(c) for c in flip}
    if not comps or len(set(comps)) < len(comps):
        raise PreconditionError(f"{comps} is not a selection of distinct components")
    for c in set(comps) | flip:
        if not 1 <= c <= a.m:
            raise PreconditionError(f"component {c} out of range 1..{a.m}")
    images = {i: identity() for i in range(1, a.m + 1)}
    for new, old in enumerate(comps, start=1):
        images[old] = generator(new, -1 if old in flip else 1)
    longs = []
    for old in comps:
        w = a.longitudes[old - 1]
        longs.append(substitute(w.inverse() if old in flip else w, images))
    return LongitudeSystem(len(comps), a.depth, tuple(longs))
