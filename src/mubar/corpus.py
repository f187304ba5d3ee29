"""Bundled example links and generators of random realized systems.

The installable corpus consists of PD codes for the 2-component unlink,
the positive Hopf link and the Borromean rings, braid words for the
latter two, a transcription of the 2-component link whose only
nonvanishing invariants have weight 6 (the classical detector for
component-exchange mutation), and the minimal-linking values of the
weight-9 self-mutation example.

Random realized systems are closures of random pure braids with two
components kept and the others deleted, twisted before closing when a
target linking number is requested; everything produced this way is the
longitude system of an actual link, so identities that hold for links
(cyclic symmetry, the binomial weight-3 residues, ...) may be asserted
on them.  Their ``rng`` is a ``random.Random``; the name is only an
annotation, which nothing evaluates, so start-up does not import
``random``.
"""

from __future__ import annotations

import errno
import json
import os

from .links import (
    Crossing,
    PDCode,
    PureBraidWord,
    artin_longitudes,
    format_braid,
    reorder,
)
from .milnor import LongitudeSystem
from .words import commutator, format_word, generator, left_normed

STAR_LINKING_VALUES = {"lk(yyxy,(yxy,xy))": 1}


def unlink_pd(m: int = 2) -> PDCode:
    return PDCode(
        m=m,
        components=tuple((i,) for i in range(1, m + 1)),
        crossings=(),
    )


def hopf_pd() -> PDCode:
    """Positive Hopf link: two crossings, linking number +1."""
    return PDCode(
        m=2,
        components=((1, 2), (3, 4)),
        crossings=(Crossing((1, 3, 2, 4), 1), Crossing((4, 2, 3, 1), 1)),
    )


def borromean_pd() -> PDCode:
    """Borromean rings from the symmetric three-circle arrangement.

    Rings overlap pairwise like a Venn diagram with the cyclic
    over/under pattern 1 over 2, 2 over 3, 3 over 1; outer crossings
    are positive, inner ones negative, so all linking numbers vanish.
    """
    return PDCode(
        m=3,
        components=((1, 2, 3, 4), (5, 6, 7, 8), (9, 10, 11, 12)),
        crossings=(
            Crossing((7, 2, 8, 3), 1),
            Crossing((5, 4, 6, 1), -1),
            Crossing((11, 6, 12, 7), 1),
            Crossing((9, 8, 10, 5), -1),
            Crossing((3, 10, 4, 11), 1),
            Crossing((1, 12, 2, 9), -1),
        ),
    )


def hopf_braid() -> PureBraidWord:
    return PureBraidWord(2, ((1, 2, 1),))


def borromean_braid() -> PureBraidWord:
    """Commutator of two band generators; its closure is Borromean-type."""
    return PureBraidWord(
        3, ((1, 3, -1), (2, 3, -1), (1, 3, 1), (2, 3, 1))
    )


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


def milnor_l6_system(depth: int = 7) -> LongitudeSystem:
    """Weight-6 detector link: vanishing below 6, mu-bar(112222) = -1.

    Transcribed longitude words: the first is the inverse of the
    left-normed commutator [x1,x2,x2,x2,x2]; the second is the product
    [x1,x2,x2,x2,x1] * [[x1,x2],[x1,x2,x2]].  The weight-6 values are
    constant on cyclic classes (-1 on the class of 112222, 4 on the
    class of 121222, -6 on the class of 122122, 0 elsewhere), and the
    exchange-transformed index 221111 gives 0.
    """
    w1 = left_normed(1, 2, 2, 2, 2).inverse()
    w2 = left_normed(1, 2, 2, 2, 1) * commutator(
        commutator(generator(1), generator(2)), left_normed(1, 2, 2)
    )
    return LongitudeSystem(2, depth, (w1, w2))


def random_pure_braid(rng: Random, strands: int, length: int) -> PureBraidWord:
    pairs = [(i, j) for i in range(1, strands + 1) for j in range(i + 1, strands + 1)]
    letters = tuple(
        (*rng.choice(pairs), rng.choice((1, -1))) for _ in range(length)
    )
    return PureBraidWord(strands, letters)


def random_realized_system(
    rng: Random,
    depth: int = 5,
    max_strands: int = 4,
    max_length: int = 8,
    linking: int | None = None,
) -> LongitudeSystem:
    """A random 2-component longitude system realized by a link.

    Closes a random pure braid and keeps two random strands.  A target
    ``linking`` number is set by appending full twists between the two
    kept strands before closing (the abelianized braid carries the
    pairwise linking numbers), so the result stays an honest link.
    """
    strands = rng.randint(2, max_strands)
    letters = list(random_pure_braid(rng, strands, rng.randint(0, max_length)).letters)
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


# ---------------------------------------------------------------------------
# Installable file corpus


def corpus_files() -> dict[str, str]:
    """Name -> exact file contents of the bundled corpus."""

    def dumps(data) -> str:
        return json.dumps(data, indent=2, sort_keys=True) + "\n"

    l6 = milnor_l6_system()
    l6_json = {
        "m": l6.m,
        "depth": l6.depth,
        "longitudes": [format_word(w) for w in l6.longitudes],
        "metadata": {
            "derivation": "transcribed longitude words; gate: weights < 6 "
            "vanish, mu-bar(112222) = -1, mu-bar(221111) = 0"
        },
    }
    return {
        "unlink.json": dumps(unlink_pd().to_json()),
        "hopf.json": dumps(hopf_pd().to_json()),
        "borromean.json": dumps(borromean_pd().to_json()),
        "hopf.braid": format_braid(hopf_braid()) + "\n",
        "borromean.braid": format_braid(borromean_braid()) + "\n",
        "l6.json": dumps(l6_json),
        "star.json": dumps(STAR_LINKING_VALUES),
    }


def corpus_install(directory) -> list[str]:
    """Write the bundled corpus; idempotent (same bytes every time)."""
    # imported here, not at start-up: only this verb writes files, and
    # its output lists the paths as pathlib normalizes them
    from pathlib import Path

    if directory == "":
        # pathlib reads "" as the working directory; os.mkdir("") fails
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), directory)
    root = Path(directory)
    root.mkdir(parents=True, exist_ok=True)
    written = []
    for name, content in sorted(corpus_files().items()):
        path = root / name
        path.write_text(content)
        written.append(str(path))
    return written
