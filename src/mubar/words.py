"""Reduced words in a free group of unbounded rank.

Generators are the 1-based meridian symbols x1, x2, ...; a word is a
freely reduced sequence of (generator, sign) letters and is immutable.
All operations return reduced words, so consumers may assume
reducedness everywhere.

Convention fixed for the whole package: the commutator is

    [u, v] = u^-1 v^-1 u v

Text syntax (files and CLI): whitespace-separated tokens ``xK`` and
``xK^-1`` with K a 1-based index; ``e`` denotes the empty word.
General exponents ``xK^E`` are accepted on input as a convenience.
"""

from __future__ import annotations

import re

from .errors import ParseError, PreconditionError, shown
from .records import frozen_record

Letter = tuple[int, int]

_TOKEN = re.compile(r"^x(\d+)(?:\^(-?\d+))?$")

# Most letters one word or braid text may expand to: exponents are
# expanded letter by letter, so this bounds the memory of one input.
LETTER_BUDGET = 100_000


def check_letter_budget(total: int) -> None:
    if total > LETTER_BUDGET:
        raise PreconditionError(
            f"input expands to {shown(total)} letters, over LETTER_BUDGET = "
            f"{LETTER_BUDGET}"
        )


def _reduce(raw) -> tuple[Letter, ...]:
    # Each letter object is kept, not rebuilt: the words a rewriting round
    # builds then share their letters, at about 8 bytes a letter.
    out: list[Letter] = []
    for letter in raw:
        gen, sign = letter
        if gen < 1:
            raise ValueError(f"generator index must be >= 1, got {gen}")
        if sign not in (1, -1):
            raise ValueError(f"letter sign must be 1 or -1, got {sign}")
        if out and out[-1][0] == gen and out[-1][1] == -sign:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


class _Inverses(dict):
    # letter -> its inverse letter, one shared object per letter seen:
    # at most 2 entries per generator
    def __missing__(self, letter: Letter) -> Letter:
        gen, sign = letter
        inverse = self[letter] = (gen, -sign)
        return inverse


_INVERSE = _Inverses()


@frozen_record
class Word:
    """A freely reduced word; the empty tuple is the identity."""

    letters: tuple[Letter, ...] = ()

    # Only __init__ is written out, to reduce each word as it is built.
    # Touching self.__dict__ would give every word a dict of its own (64
    # more bytes each on CPython 3.11), so the field is set through object.
    def __init__(self, letters: tuple[Letter, ...] = ()):
        object.__setattr__(self, "letters", _reduce(letters))

    def __mul__(self, other: "Word") -> "Word":
        return Word(self.letters + other.letters)

    def __len__(self) -> int:
        return len(self.letters)

    def inverse(self) -> "Word":
        return Word(tuple(map(_INVERSE.__getitem__, reversed(self.letters))))

    def exponent_sum(self, gen: int) -> int:
        return sum(s for g, s in self.letters if g == gen)

    def max_generator(self) -> int:
        return max((g for g, _ in self.letters), default=0)

    def __pow__(self, n: int) -> "Word":
        if n < 0:
            return self.inverse() ** (-n)
        # free reduction of the concatenation is the n-fold product
        return Word(self.letters * n)

    def __str__(self) -> str:
        return format_word(self)

    def __repr__(self) -> str:
        return f"Word({format_word(self)!r})"


def identity() -> Word:
    return Word()


def generator(i: int, sign: int = 1) -> Word:
    return Word(((i, sign),))


def commutator(u: Word, v: Word) -> Word:
    """[u, v] = u^-1 v^-1 u v."""
    return u.inverse() * v.inverse() * u * v


def left_normed(*indices: int) -> Word:
    """[x_{i1}, x_{i2}, ..., x_{ik}] nested to the left."""
    if not indices:
        return identity()
    out = generator(indices[0])
    for i in indices[1:]:
        out = commutator(out, generator(i))
    return out


def substitute(w: Word, images: dict[int, Word]) -> Word:
    """Apply the homomorphism x_i -> images[i] letter by letter.

    Inverse letters map to inverted images.  Every generator occurring
    in w must have an image.
    """
    out: list[Letter] = []
    for g, s in w.letters:
        if g not in images:
            raise PreconditionError(f"no image given for generator x{g}")
        img = images[g] if s == 1 else images[g].inverse()
        out.extend(img.letters)
    return Word(tuple(out))


def parse_word(text: str) -> Word:
    """Parse the ``x1 x2^-1`` token syntax; ``e`` is the identity."""
    text = text.strip()
    if text in ("", "e"):
        return identity()
    letters: list[Letter] = []
    for pos, token in enumerate(text.split()):
        if token == "e":
            continue
        m = _TOKEN.match(token)
        if m is None:
            raise ParseError(f"bad word token {shown(token)} (position {pos})")
        gen = int(m.group(1))
        if gen < 1:
            raise ParseError(f"generator index must be >= 1 in {shown(token)}")
        exp = int(m.group(2)) if m.group(2) is not None else 1
        if exp == 0:
            continue
        sign = 1 if exp > 0 else -1
        check_letter_budget(len(letters) + abs(exp))
        letters.extend([(gen, sign)] * abs(exp))
    return Word(tuple(letters))


def format_word(w: Word) -> str:
    if not w.letters:
        return "e"
    return " ".join(f"x{g}" if s == 1 else f"x{g}^-1" for g, s in w.letters)
