"""Milnor invariants mu(I), the indeterminacy Delta(I) and the residue.

A link enters this module as a :class:`LongitudeSystem`: one word per
component expressing its 0-framed longitude in the meridians x1..xm,
valid modulo the lower central subgroup F_depth.  For an index
I = i_1...i_k j, mu(I) is the coefficient of X_{i_1}...X_{i_k} in the
Magnus expansion of the j-th longitude.  Delta(I) is the gcd of mu(J)
over all J obtained by deleting at least one entry of I and cyclically
rotating the rest, and mu-bar is the residue class of mu modulo Delta.
Every read goes through :meth:`LongitudeSystem.expansion`, which expands
each longitude once, at the system's depth.

Weight-1 values are taken to be 0 and weight-1 indices are rejected.
Every reader takes weights w <= depth only, checked in one place
(check_weight): mu of weight w is a coefficient of degree w - 1, which
each longitude's coset mod F_depth fixes once w <= depth (Milnor,
"Isotopy of links", 1957: pi/pi_q determines every mu-bar of length
<= q).
"""

from __future__ import annotations

import math

from .errors import ParseError, PreconditionError, shown
from .magnus import NCSeries, check_system_terms, magnus_expand
from .records import frozen_record
from .words import Word

Index = tuple[int, ...]


@frozen_record
class LongitudeSystem:
    """0-framed longitude words of an m-component link, valid mod F_depth."""

    m: int
    depth: int
    longitudes: tuple[Word, ...]

    def __post_init__(self):
        if self.m < 1:
            raise ValueError("component count must be positive")
        if self.depth < 2:
            raise ValueError("depth must be at least 2")
        if len(self.longitudes) != self.m:
            raise ValueError(
                f"expected {shown(self.m)} longitudes, got {len(self.longitudes)}"
            )
        # exponent sums[i - 1][g] of x_g in longitude i, one pass per word
        sums: list[dict[int, int]] = []
        for i, w in enumerate(self.longitudes, start=1):
            high = w.max_generator()
            if high > self.m:
                raise ValueError(
                    f"longitude {i} uses generator x{shown(high)} beyond m={self.m}"
                )
            counts: dict[int, int] = {}
            for g, s in w.letters:
                counts[g] = counts.get(g, 0) + s
            if counts.get(i, 0) != 0:
                raise ValueError(
                    f"longitude {i} is not 0-framed: exponent sum of x{i} is "
                    f"{counts[i]}"
                )
            sums.append(counts)
        # only a pair with a nonzero linking number on one side can differ
        pairs = {
            (min(i, j), max(i, j))
            for i, counts in enumerate(sums, start=1)
            for j, s in counts.items()
            if s
        }
        for i, j in sorted(pairs):
            lk_ij = sums[i - 1].get(j, 0)
            lk_ji = sums[j - 1].get(i, 0)
            if lk_ij != lk_ji:
                raise ValueError(
                    f"asymmetric linking numbers: x{j} in longitude {i} gives "
                    f"{lk_ij} but x{i} in longitude {j} gives {lk_ji}"
                )
        check_system_terms(self.m, self.longitudes, self.depth)
        object.__setattr__(self, "_expansions", {})

    def linking(self, i: int, j: int) -> int:
        """Linking number of components i and j (i != j)."""
        return self.longitudes[i - 1].exponent_sum(j)

    def truncate(self, depth: int) -> "LongitudeSystem":
        """The same words at a shallower validity depth, or itself at its own."""
        if depth == self.depth:
            return self
        if depth < 2:
            raise PreconditionError("depth must be at least 2")
        if depth > self.depth:
            raise PreconditionError(
                f"cannot deepen a system: {depth} > {self.depth}"
            )
        return LongitudeSystem(self.m, depth, self.longitudes)

    def expansion(self, j: int) -> NCSeries:
        """Magnus expansion of longitude j at the system's depth, made once."""
        cache = self._expansions
        if j not in cache:
            cache[j] = magnus_expand(self.longitudes[j - 1], self.depth)
        return cache[j]


@frozen_record
class MuValue:
    """mu with its indeterminacy; residue is normalized to [0, delta)."""

    mu: int
    delta: int
    residue: int


def validate_index(system: LongitudeSystem, index) -> Index:
    """The index as a tuple, refused unless its weight and entries fit system."""
    entries = tuple(int(i) for i in index)
    if len(entries) < 2:
        raise PreconditionError(f"index {entries} has weight < 2")
    for i in entries:
        if not 1 <= i <= system.m:
            raise PreconditionError(
                f"index entry {shown(i)} out of range for a {system.m}-component link"
            )
    check_weight(system, len(entries))
    return entries


def check_weight(system: LongitudeSystem, weight: int):
    """Refuse a weight beyond the system's depth."""
    if weight > system.depth:
        raise PreconditionError(
            f"weight {shown(weight)} exceeds validity (depth {system.depth} "
            f"allows weights up to {system.depth})"
        )


def raw_mu(system: LongitudeSystem, index: Index) -> int:
    """mu(I) with no checks; callers validated I."""
    return system.expansion(index[-1]).coefficient(index[:-1])


def mu(system: LongitudeSystem, index) -> int:
    """mu(i_1...i_k j): Magnus coefficient of X_{i_1}..X_{i_k} in w_j."""
    return raw_mu(system, validate_index(system, index))


# Most letters the rotations of an index's distinct subsequences may
# hold before delta refuses it: the closure stops as soon as it passes
# this.  TERM_BUDGET admits weight 20 on two components, where (12)^10
# builds 5,275,350 letters.  One component reaches depth 2^20, and 1^k
# keeps only k + 1 subsequences, yet their rotations copy about k^3 / 3
# letters, so weights above 311 are refused.
SUBINDEX_BUDGET = 10_000_000


def proper_cyclic_subindices(index: Index) -> set[Index]:
    """All rotations of distinct subsequences of length 2..|I|-1.

    A closure, each entry extending every subsequence so far, walks no
    position subsets: weight 19 takes 0.006-0.16 s instead of about 3 s.
    """
    k = len(index)
    subs: set[Index] = {()}
    letters = 0
    for i in index:
        new = {s + (i,) for s in subs}.difference(subs)
        letters += sum(len(s) ** 2 for s in new if 2 <= len(s) < k)
        if letters > SUBINDEX_BUDGET:
            raise PreconditionError(
                f"the cyclic subindices of an index of weight {k} have more "
                f"than SUBINDEX_BUDGET = {SUBINDEX_BUDGET} letters"
            )
        subs |= new
    return {s[r:] + s[:r] for s in subs if 2 <= len(s) < k for r in range(len(s))}


def delta(system: LongitudeSystem, index) -> int:
    """gcd of mu over proper cyclic subindices; 0 for the empty set."""
    entries = validate_index(system, index)
    return math.gcd(*(raw_mu(system, s) for s in proper_cyclic_subindices(entries)))


def mu_bar(system: LongitudeSystem, index) -> MuValue:
    m_val = mu(system, index)
    d_val = delta(system, index)
    return MuValue(m_val, d_val, residue_of(m_val, d_val))


def residue_of(value: int, modulus: int) -> int:
    """Normalize an integer the way mu_bar does: mod, or raw if modulus 0."""
    return value % modulus if modulus > 0 else value


def first_nonvanishing(system: LongitudeSystem, q: int) -> Index | None:
    """Shortlex-least index of weight 2..q with nonzero residue, or None.

    The first non-vanishing mu-bar are integers (Milnor, "Isotopy of
    links", 1957): while the scan has not returned, every mu of lower
    weight is 0, so Delta is 0 and the residue is mu itself.  Hence the
    least index with nonzero residue is the least one with nonzero mu,
    and no Delta is computed.

    Weight w is the least index over every longitude's nonzero degree
    w - 1 terms (NCSeries.nonzero), which skips a zero level without
    decoding it.  None for q < 2.
    """
    check_weight(system, q)
    for d in range(1, q):
        indices = (
            mono + (j,)
            for j in range(1, system.m + 1)
            for mono, _ in system.expansion(j).nonzero(d)
        )
        if (least := min(indices, default=None)) is not None:
            return least
    return None


def all_vanish_up_to(system: LongitudeSystem, q: int) -> bool:
    """True iff every mu-bar residue of weight 2..q is zero."""
    return first_nonvanishing(system, q) is None


def parse_index(text: str) -> Index:
    """Digit string like ``1122``; components > 9 use commas, ``1,2,12``."""
    text = text.strip()
    if not text:
        raise ParseError("empty index")
    try:
        if "," in text:
            entries = tuple(int(part) for part in text.split(","))
        else:
            entries = tuple(int(ch) for ch in text)
    except ValueError as exc:
        raise ParseError(f"bad index {shown(text)}") from exc
    if any(i < 1 for i in entries):
        raise ParseError(f"index entries must be >= 1 in {shown(text)}")
    return entries


def format_index(index: Index) -> str:
    if all(i <= 9 for i in index):
        return "".join(str(i) for i in index)
    return ",".join(str(i) for i in index)
