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
mu, delta, mu_bar and all_vanish_up_to read weights w <= depth - 1
only (check_weight).  first_nonvanishing, and lcq through it, go on to
w = depth, whose coefficients (of degree depth - 1) are still fixed by
each longitude's coset mod F_depth.
"""

from __future__ import annotations

import math

from .errors import ParseError, PreconditionError, shown
from .magnus import NCSeries, check_term_budget, magnus_expand
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
        check_term_budget(self.m, self.depth)
        object.__setattr__(self, "_expansions", {})

    def linking(self, i: int, j: int) -> int:
        """Linking number of components i and j (i != j)."""
        return self.longitudes[i - 1].exponent_sum(j)

    def truncate(self, depth: int) -> "LongitudeSystem":
        """The same words viewed at a shallower validity depth."""
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
    entries = tuple(int(i) for i in index)
    if len(entries) < 2:
        raise PreconditionError(f"index {entries} has weight < 2")
    for i in entries:
        if not 1 <= i <= system.m:
            raise PreconditionError(
                f"index entry {shown(i)} out of range for a {system.m}-component link"
            )
    return entries


def check_weight(system: LongitudeSystem, weight: int):
    """Refuse a weight beyond the system's depth - 1."""
    if weight > system.depth - 1:
        raise PreconditionError(
            f"weight {shown(weight)} exceeds validity (depth {system.depth} "
            f"allows weights up to {system.depth - 1})"
        )


def _mu_raw(system: LongitudeSystem, index: Index) -> int:
    # Coefficient read without the invariance bound; safe for weights up
    # to depth since degree <= depth-1 terms are determined by the coset.
    return system.expansion(index[-1]).coefficient(index[:-1])


def mu(system: LongitudeSystem, index) -> int:
    """mu(i_1...i_k j): Magnus coefficient of X_{i_1}..X_{i_k} in w_j."""
    entries = validate_index(system, index)
    check_weight(system, len(entries))
    return _mu_raw(system, entries)


# Most rotations of position subsets, k 2^(k-1) - 2k at weight k, an
# index may have before delta refuses it; the distinct rotations that
# delta enumerates are fewer.  TERM_BUDGET already caps every system of
# two or more components below weight 20 (weight 19 counts 4,980,698),
# so this fires only on one component, whose depths reach 2^20 and
# whose subsequence closure still grows about cubically in the weight.
SUBINDEX_BUDGET = 5_000_000


def proper_cyclic_subindices(index: Index) -> set[Index]:
    """All rotations of distinct subsequences of length 2..|I|-1.

    A closure, each entry extending every subsequence so far, walks no
    position subsets: weight 19 takes 0.006-0.16 s instead of about 3 s.
    """
    subs: set[Index] = {()}
    for i in index:
        subs |= {s + (i,) for s in subs}
    k = len(index)
    return {s[r:] + s[:r] for s in subs if 2 <= len(s) < k for r in range(len(s))}


def delta(system: LongitudeSystem, index) -> int:
    """gcd of mu over proper cyclic subindices; 0 for the empty set."""
    entries = validate_index(system, index)
    k = len(entries)
    check_weight(system, k)
    if k * 2 ** (k - 1) - 2 * k > SUBINDEX_BUDGET:
        raise PreconditionError(
            f"an index of weight {k} has more than SUBINDEX_BUDGET = "
            f"{SUBINDEX_BUDGET} cyclic subindices"
        )
    return math.gcd(*(_mu_raw(system, s) for s in proper_cyclic_subindices(entries)))


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

    Weight w takes each longitude's least degree w - 1 monomial
    (NCSeries.least_monomial), which skips a zero level without
    decoding it.  Reads coefficients without the validity check, so q
    may equal the system depth but not exceed it; None for q < 2.
    """
    if q > system.depth:
        raise PreconditionError(
            f"weight {q} exceeds the system depth {system.depth}"
        )
    for d in range(1, q):
        found = [
            mono + (j,)
            for j in range(1, system.m + 1)
            if (mono := system.expansion(j).least_monomial(d)) is not None
        ]
        if found:
            return min(found)
    return None


def all_vanish_up_to(system: LongitudeSystem, q: int) -> bool:
    """True iff every mu-bar residue of weight 2..q is zero."""
    check_weight(system, q)
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
