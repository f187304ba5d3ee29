"""Truncated integer power series in noncommuting variables X1, X2, ...

A series carries its truncation bound q; monomials of degree >= q are
discarded by every operation, and mixing bounds is an error rather than
an implicit re-truncation (silent precision loss would corrupt mu
values downstream).

Storage is dense and graded by degree.  A series of width m uses only
X1..Xm, and its degree-d part is one flat list of m^d integers: the
monomial X_{i_1}...X_{i_d} sits at position
(i_1 - 1) + (i_2 - 1) m + ... + (i_d - 1) m^(d-1), its letters read as
base-m digits, least significant first.  Right multiplication by X_g
therefore sends degree d onto the contiguous block g - 1 of degree
d + 1.  A series holds sum_{d<q} m^d integers, at most TERM_BUDGET.

The Magnus expansion sends x_i to 1 + X_i and x_i^-1 to
(1 + X_i)^-1 = 1 - X_i + X_i^2 - ...; it embeds a free-group word into
this ring.  The lowest nonconstant degree of an expansion detects
membership in the lower central series: a word lies in F_d exactly when
its expansion has no nonconstant term of degree < d.

Coefficients are plain Python integers, hence arbitrary precision.
"""

from __future__ import annotations

from itertools import compress
from operator import add, sub

from .errors import PreconditionError, shown
from .words import Word

Monomial = tuple[int, ...]

# Most integers one series may hold, sum_{d<q} m^d for width m and bound
# q.  The pipeline's largest use is Borromean weight 10, m = 3 at
# q = 10 (29,524 terms).
TERM_BUDGET = 1 << 20


def _terms(m: int, q: int) -> int | float:
    # sum_{d<q} m^d, q at width <= 1; infinity past TERM_BUDGET's bit length
    if m <= 1:
        return q
    if q > TERM_BUDGET.bit_length():
        return float("inf")
    return (m**q - 1) // (m - 1)


def check_term_budget(m: int, q: int) -> None:
    if _terms(m, q) > TERM_BUDGET:
        raise PreconditionError(
            f"a series of degree bound {shown(q)} in {shown(m)} variables has more "
            f"than TERM_BUDGET = {TERM_BUDGET} terms"
        )


# Most integers all of one system's expansions may hold, eight series
# at TERM_BUDGET.  m longitudes of width m at depth 2 hold about m^2
# (1.15 GB at m = 12,000); three of width 3 at depth 13 hold 2,391,483.
SYSTEM_TERM_BUDGET = 1 << 23


def check_system_terms(m: int, words, q: int) -> None:
    check_term_budget(m, q)
    total = sum(_terms(w.max_generator(), q) for w in words)
    if total > SYSTEM_TERM_BUDGET:
        raise PreconditionError(
            f"{len(words)} series of degree bound {q} hold {total} terms, "
            f"more than SYSTEM_TERM_BUDGET = {SYSTEM_TERM_BUDGET}"
        )


# Most letter-by-term updates one expansion may cost: each letter of a
# word touches every term of the series.  Borromean PD at depth 10,
# 57,216 arc letters by 29,524 terms, fits, so its weight-10 mu-bar
# answers (in about 17 s); depth 11 does not.
WORK_BUDGET = 10**10


def check_work_budget(letters: int, m: int, q: int) -> None:
    if letters * _terms(m, q) > WORK_BUDGET:
        raise PreconditionError(
            f"{letters} letters into a series of degree bound {q} in {m} "
            f"variables cost more than WORK_BUDGET = {WORK_BUDGET} term updates"
        )


def _position(mono: Monomial, m: int) -> int:
    pos = 0
    for i in reversed(mono):
        pos = pos * m + i - 1
    return pos


class NCSeries:
    """Dense series: ``levels[d]`` holds the m^d coefficients of degree d."""

    __slots__ = ("degree_bound", "width", "levels")

    def __init__(
        self,
        degree_bound: int,
        terms: dict[Monomial, int] | None = None,
        width: int | None = None,
    ):
        if degree_bound < 1:
            raise ValueError("degree bound must be positive")
        terms = {tuple(mono): coeff for mono, coeff in (terms or {}).items()}
        for mono in terms:
            if len(mono) >= degree_bound:
                raise ValueError(
                    f"monomial {mono} too long for degree bound {degree_bound}"
                )
            if any(i < 1 for i in mono):
                raise ValueError(f"monomial {mono} has a letter below X1")
        high = max((max(mono) for mono in terms if mono), default=1)
        if width is None:
            width = high
        elif width < high:
            raise ValueError(f"monomial letter X{high} beyond width {width}")
        check_term_budget(width, degree_bound)
        self.degree_bound = degree_bound
        self.width = width
        self.levels = [[0] * width**d for d in range(degree_bound)]
        for mono, coeff in terms.items():
            self.levels[len(mono)][_position(mono, width)] = coeff

    @classmethod
    def _from_levels(cls, q: int, m: int, levels: list[list[int]]) -> "NCSeries":
        series = cls.__new__(cls)
        series.degree_bound, series.width, series.levels = q, m, levels
        return series

    @property
    def terms(self) -> dict[Monomial, int]:
        """Nonzero coefficients by monomial, in shortlex order."""
        out: dict[Monomial, int] = {}
        for d in range(self.degree_bound):
            out.update(sorted(self.nonzero(d)))
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, NCSeries) or self.degree_bound != other.degree_bound:
            return False
        if self.width == other.width:
            return self.levels == other.levels
        return self.terms == other.terms

    def __repr__(self) -> str:
        items = ", ".join(f"{mono}: {coeff}" for mono, coeff in self.terms.items())
        return f"NCSeries(q={self.degree_bound}, {{{items}}})"

    def coefficient(self, mono: Monomial) -> int:
        mono = tuple(mono)
        if len(mono) >= self.degree_bound:
            raise PreconditionError(
                f"monomial of length {len(mono)} exceeds truncation "
                f"(degree bound {self.degree_bound})"
            )
        if not all(1 <= i <= self.width for i in mono):
            return 0
        return self.levels[len(mono)][_position(mono, self.width)]

    def nonzero(self, d: int):
        """(monomial, coefficient) of each nonzero degree-d term in position
        order, whose digits are the letters least significant first (see
        :func:`_position`), so not shortlex once d > 1.  A zero level is
        skipped without decoding it."""
        level, m = self.levels[d], self.width
        for pos in compress(range(len(level)), level):
            letters, rest = [], pos
            for _ in range(d):
                rest, digit = divmod(rest, m)
                letters.append(digit + 1)
            yield tuple(letters), level[pos]

    def min_nonconstant_degree(self) -> int | None:
        for d in range(1, self.degree_bound):
            if any(self.levels[d]):
                return d
        return None


def one(degree_bound: int) -> NCSeries:
    return NCSeries(degree_bound, {(): 1})


def series_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Product with all degree >= q terms discarded."""
    if a.degree_bound != b.degree_bound:
        raise PreconditionError(
            f"mismatched degree bounds {a.degree_bound} != {b.degree_bound}"
        )
    q = a.degree_bound
    m = max(a.width, b.width)
    if a.width != m:
        a = NCSeries(q, a.terms, width=m)
    if b.width != m:
        b = NCSeries(q, b.terms, width=m)
    out = [[0] * m**d for d in range(q)]
    # A degree-d monomial times the one at position j of degree e lands
    # in block j of degree d + e.
    for d, low in enumerate(a.levels):
        size = len(low)
        for e in range(q - d):
            target = out[d + e]
            for j, cb in enumerate(b.levels[e]):
                if cb:
                    lo = j * size
                    target[lo : lo + size] = [
                        t + cb * c for t, c in zip(target[lo : lo + size], low)
                    ]
    return NCSeries._from_levels(q, m, out)


def magnus_expand(w: Word, q: int) -> NCSeries:
    """Magnus expansion of a reduced word, truncated at degree bound q."""
    if q < 2:
        raise PreconditionError("degree bound must be at least 2")
    m = max(w.max_generator(), 1)
    check_term_budget(m, q)
    check_work_budget(len(w), m, q)
    levels = [[0] * m**d for d in range(q)]
    levels[0][0] = 1
    # (degree d, degree d + 1, m^d): right multiplication by X_g sends
    # degree d onto block g - 1 of degree d + 1.
    rising = [(levels[d], levels[d + 1], m**d) for d in range(q - 1)]
    falling = rising[::-1]
    for gen, sign in w.letters:
        g = gen - 1
        if sign == 1:
            # S(1 + X_g) adds S_d X_g to degree d + 1; top degree first,
            # so that S_d is still the old part.
            for low, high, size in falling:
                lo, hi = g * size, (g + 1) * size
                high[lo:hi] = map(add, high[lo:hi], low)
        else:
            # T = S(1 + X_g)^-1 solves T = S - T X_g; degree 1 first, so
            # that T_d is already the new part.
            for low, high, size in rising:
                lo, hi = g * size, (g + 1) * size
                high[lo:hi] = map(sub, high[lo:hi], low)
    return NCSeries._from_levels(q, m, levels)


def lcs_depth(w: Word, q: int) -> int:
    """Largest d <= q with w in F_d, read off the Magnus expansion.

    Returns min(q, lowest nonconstant degree of the expansion); q means
    no nonconstant term of degree < q survives, i.e. w lies in F_q.
    """
    d = magnus_expand(w, q).min_nonconstant_degree()
    return q if d is None else d
