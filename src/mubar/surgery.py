"""Lower central quotients of 0-surgery manifolds.

Doing 0-framed surgery on every component of a link presents the
fundamental group's lower central quotient as F/<F_q, w_1, ..., w_m>
with the longitude words as relators.  That quotient is the free
nilpotent group F/F_q exactly when all mu-bar invariants of weight
<= q vanish, equivalently when every relator lies in F_q; both routes
read the system's cached expansions, independently, and must agree.

A mutative pair is a ribbon sum alpha # inverse_mirror(alpha) together
with one of its bi-mutants: when a detector index exists, the sum's
quotient is free and the mutant's is not, so the two surgery manifolds
have different q-th lower central quotients.  The paper's weight-9
self-mutant is decided by minimal linkings instead (mubar.brackets):
mu-bar(122121222) evaluates to -20 on the paper's values, so that
mutant's ninth quotient is not free, as
``mubar massey-sum --index 122121222 --values star.json`` prints.
"""

from __future__ import annotations

from .errors import PreconditionError
from .links import inverse_mirror
from .milnor import (
    Index,
    LongitudeSystem,
    first_nonvanishing,
    format_index,
)
from .mutation import MutantReport, mutant, witnessed_mutant
from .records import frozen_record


@frozen_record
class LcqReport:
    """Outcome of the free-nilpotence test for one system and depth."""

    q: int
    free: bool
    witness_index: Index | None
    witness_relator: int | None  # 1-based component not in F_q

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "free": self.free,
            "witness": (
                None
                if self.witness_index is None
                else format_index(self.witness_index)
            ),
            "witness_relator": self.witness_relator,
        }


def lcq_is_free(system: LongitudeSystem, q: int) -> LcqReport:
    """Is pi_1(M_L)/pi_1(M_L)_q free nilpotent of rank m?

    Route A checks that every mu-bar residue of weight <= q vanishes;
    route B checks that every relator's cached expansion has no
    nonconstant term of degree < q, i.e. that it lies in F_q.  The two are
    equivalent and both are evaluated; the report carries the shortlex
    least failing index and the first shallow relator when not free.
    """
    if q < 2:
        raise PreconditionError("q must be at least 2")
    witness = first_nonvanishing(system, q)  # refuses q beyond the depth
    route_a = witness is None

    witness_relator = None
    for i in range(1, system.m + 1):
        d = system.expansion(i).min_nonconstant_degree()
        if d is not None and d < q:
            witness_relator = i
            break
    route_b = witness_relator is None

    if route_a != route_b:
        raise RuntimeError(
            f"free-nilpotence routes disagree at q={q}: "
            f"mu-bar witness {witness}, relator {witness_relator}"
        )
    return LcqReport(q, route_a, witness, witness_relator)


@frozen_record
class MutativePairReport:
    """A ribbon sum and a bi-mutant with different lower central quotients."""

    q: int
    mutation: str
    found: bool
    detectors: tuple[Index, ...] = ()
    ribbon_sum: LcqReport | None = None
    mutant: LcqReport | None = None
    witnesses: tuple[MutantReport, ...] = ()

    def to_json(self) -> dict:
        return {
            "q": self.q,
            "mutation": self.mutation,
            "found": self.found,
            "detectors": [format_index(d) for d in self.detectors],
            "ribbon_sum": None if self.ribbon_sum is None else self.ribbon_sum.to_json(),
            "mutant": None if self.mutant is None else self.mutant.to_json(),
            "witnesses": [r.to_json() for r in self.witnesses],
        }


def mutative_pair_report(
    alpha: LongitudeSystem, q: int, tau: str
) -> MutativePairReport:
    """Exhibit distinct q-th lower central quotients across a mutation.

    Builds L = alpha # inverse_mirror(alpha) and its tau-mutant; when a
    detector index exists the report shows lcq_is_free(L, q) true and
    lcq_is_free(mutant, q) false.  Without a detector the report simply
    states the negative.
    """
    composite, witnesses = witnessed_mutant(alpha, q, tau)
    if not witnesses:
        return MutativePairReport(q=q, mutation=tau, found=False)
    return MutativePairReport(
        q=q,
        mutation=tau,
        found=True,
        detectors=tuple(r.index for r in witnesses),
        ribbon_sum=lcq_is_free(mutant(alpha, inverse_mirror(alpha)), q),
        mutant=lcq_is_free(composite, q),
        witnesses=tuple(witnesses),
    )
