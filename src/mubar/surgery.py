"""Lower central quotients of 0-surgery manifolds.

Doing 0-framed surgery on every component of a link presents the
fundamental group's lower central quotient as F/<F_q, w_1, ..., w_m>
with the longitude words as relators.  That quotient is the free
nilpotent group F/F_q exactly when all mu-bar invariants of weight
<= q vanish, equivalently when every relator lies in F_q; both routes
read the system's cached expansions, independently, and must agree.
"""

from __future__ import annotations

from .errors import PreconditionError
from .milnor import (
    Index,
    LongitudeSystem,
    first_nonvanishing,
    format_index,
)
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

