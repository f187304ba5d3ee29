"""Link generators that only the tests use.

Random realized systems are closures of random pure braids with two
components kept and the others deleted, twisted before closing when a
target linking number is requested; everything produced this way is the
longitude system of an actual link, so identities that hold for links
(cyclic symmetry, the binomial weight-3 residues, ...) may be asserted
on them.  ``borromean_system`` is the symmetric abstract model of the
Borromean rings, each longitude a commutator of the other two meridians,
and ``commutator_systems(q)`` are abstract two-component systems whose
first non-vanishing invariants have weight q.

The test files import this module by name: ``tests/`` has no
``__init__.py``, so pytest puts the directory on ``sys.path``.
"""

from __future__ import annotations

from random import Random

from mubar.links import PureBraidWord, artin_longitudes, reorder
from mubar.milnor import LongitudeSystem
from mubar.words import Word, commutator, generator, left_normed


def borromean_system(depth: int = 4) -> LongitudeSystem:
    """The symmetric abstract model: each longitude a 2-commutator."""
    return LongitudeSystem(
        3,
        depth,
        (
            commutator(generator(2), generator(3)),
            commutator(generator(3), generator(1)),
            commutator(generator(1), generator(2)),
        ),
    )


def random_pure_braid(rng: Random, strands: int, length: int) -> PureBraidWord:
    pairs = [(i, j) for i in range(1, strands + 1) for j in range(i + 1, strands + 1)]
    letters = tuple(
        (*rng.choice(pairs), rng.choice((1, -1))) for _ in range(length)
    )
    return PureBraidWord(strands, letters)


def random_realized_system(
    rng: Random,
    depth: int = 5,
    linking: int | None = None,
) -> LongitudeSystem:
    """A random 2-component longitude system realized by a link.

    Closes a random pure braid, of 2 to 4 strands and at most 8 letters,
    and keeps two random strands.  A target ``linking`` number is set by
    appending full twists between the two kept strands before closing
    (the abelianized braid carries the pairwise linking numbers), so the
    result stays an honest link.
    """
    strands = rng.randint(2, 4)
    letters = list(random_pure_braid(rng, strands, rng.randint(0, 8)).letters)
    i = rng.randint(1, strands - 1)
    j = rng.randint(i + 1, strands)
    if linking is not None:
        current = sum(e for a, b, e in letters if (a, b) == (i, j))
        diff = linking - current
        if diff:
            sign = 1 if diff > 0 else -1
            letters.extend([(i, j, sign)] * abs(diff))
    full = artin_longitudes(PureBraidWord(strands, tuple(letters)), depth)
    return reorder(full, (i, j))


def commutator_systems(q: int) -> list[LongitudeSystem]:
    """Two-component systems whose longitudes are left-normed commutators
    of weight q - 1, so every mu of weight below q vanishes."""
    if q == 2:
        trivial = LongitudeSystem(2, 2, (Word(), Word()))
        return [LongitudeSystem(2, 2, (left_normed(2), left_normed(1))), trivial]
    rng = Random(q)
    w1 = left_normed(2, 1, *rng.choices((1, 2), k=q - 3))
    w2 = left_normed(1, 2, *rng.choices((1, 2), k=q - 3))
    # an empty longitude expands in one variable and reads 0 at every x2
    return [LongitudeSystem(2, q, pair) for pair in ((w1, w2), (Word(), w2), (w1, Word()))]
