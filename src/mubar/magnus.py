"""Truncated integer power series in noncommuting variables X1, X2, ...

A series carries its truncation bound q; monomials of degree >= q are
discarded by every operation, and mixing bounds is an error rather than
an implicit re-truncation (silent precision loss would corrupt mu
values downstream).

The Magnus expansion sends x_i to 1 + X_i and x_i^-1 to the truncated
geometric series 1 - X_i + X_i^2 - ...; it embeds a free-group word
into this ring.  The lowest nonconstant degree of an expansion detects
membership in the lower central series: a word lies in F_d exactly when
its expansion has no nonconstant term of degree < d.

Coefficients are plain Python integers, hence arbitrary precision.
"""

from __future__ import annotations

from .errors import PreconditionError
from .words import Word

Monomial = tuple[int, ...]


def monomial_key(m: Monomial) -> tuple[int, Monomial]:
    """Canonical total order on monomials: length, then lexicographic."""
    return (len(m), m)


class NCSeries:
    """Sparse series: map from monomial to nonzero integer coefficient."""

    __slots__ = ("degree_bound", "terms")

    def __init__(self, degree_bound: int, terms: dict[Monomial, int] | None = None):
        if degree_bound < 1:
            raise ValueError("degree bound must be positive")
        self.degree_bound = degree_bound
        clean: dict[Monomial, int] = {}
        for mono, coeff in (terms or {}).items():
            mono = tuple(mono)
            if len(mono) >= degree_bound:
                raise ValueError(
                    f"monomial {mono} too long for degree bound {degree_bound}"
                )
            if coeff:
                clean[mono] = coeff
        self.terms = clean

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, NCSeries)
            and self.degree_bound == other.degree_bound
            and self.terms == other.terms
        )

    def __repr__(self) -> str:
        items = ", ".join(
            f"{mono}: {coeff}"
            for mono, coeff in sorted(self.terms.items(), key=lambda kv: monomial_key(kv[0]))
        )
        return f"NCSeries(q={self.degree_bound}, {{{items}}})"

    def coefficient(self, mono: Monomial) -> int:
        mono = tuple(mono)
        if len(mono) >= self.degree_bound:
            raise PreconditionError(
                f"monomial of length {len(mono)} exceeds truncation "
                f"(degree bound {self.degree_bound})"
            )
        return self.terms.get(mono, 0)

    def min_nonconstant_degree(self) -> int | None:
        degrees = [len(m) for m in self.terms if m]
        return min(degrees) if degrees else None


def one(degree_bound: int) -> NCSeries:
    return NCSeries(degree_bound, {(): 1})


def series_mul(a: NCSeries, b: NCSeries) -> NCSeries:
    """Product with all degree >= q terms discarded."""
    if a.degree_bound != b.degree_bound:
        raise PreconditionError(
            f"mismatched degree bounds {a.degree_bound} != {b.degree_bound}"
        )
    q = a.degree_bound
    out: dict[Monomial, int] = {}
    for ma, ca in a.terms.items():
        room = q - len(ma)
        for mb, cb in b.terms.items():
            if len(mb) >= room:
                continue
            mono = ma + mb
            c = out.get(mono, 0) + ca * cb
            if c:
                out[mono] = c
            else:
                out.pop(mono, None)
    return NCSeries(q, out)


def _mul_letter(terms: dict[Monomial, int], gen: int, sign: int, q: int) -> dict[Monomial, int]:
    # Right-multiply by 1 + X_g, or by 1 - X_g + X_g^2 - ... for sign -1.
    out: dict[Monomial, int] = {}

    def put(mono: Monomial, c: int):
        acc = out.get(mono, 0) + c
        if acc:
            out[mono] = acc
        else:
            out.pop(mono, None)

    for mono, coeff in terms.items():
        put(mono, coeff)
        if sign == 1:
            if len(mono) + 1 < q:
                put(mono + (gen,), coeff)
        else:
            c = coeff
            tail = mono
            while len(tail) + 1 < q:
                tail = tail + (gen,)
                c = -c
                put(tail, c)
    return out


def magnus_expand(w: Word, q: int) -> NCSeries:
    """Magnus expansion of a reduced word, truncated at degree bound q."""
    if q < 2:
        raise PreconditionError("degree bound must be at least 2")
    terms: dict[Monomial, int] = {(): 1}
    for gen, sign in w.letters:
        terms = _mul_letter(terms, gen, sign, q)
    return NCSeries(q, terms)


def lcs_depth(w: Word, q: int) -> int:
    """Largest d <= q with w in F_d, read off the Magnus expansion.

    Returns min(q, lowest nonconstant degree of the expansion); q means
    no nonconstant term of degree < q survives, i.e. w lies in F_q.
    """
    if q < 2:
        raise PreconditionError("degree bound must be at least 2")
    d = magnus_expand(w, q).min_nonconstant_degree()
    return q if d is None else d
