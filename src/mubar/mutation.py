"""Bi-mutation calculus for 2-component links.

A 2-component link presented as a connected sum of closures alpha and
beta has three bi-mutants, indexed by the symmetry applied to the beta
half: F exchanges the components, R reverses their orientations, FR
does both.  On index sequences over {1,2} these act by exchanging 1
and 2, reversing the sequence, and the composition.

The invariants of a mutant obey the congruence

    mu_mutant(I) = mu_alpha(I) + mu_beta(I^tau)   mod D^tau(I),
    D^tau(I) = gcd(Delta_alpha(I), Delta_beta(I^tau)),

which this module both computes (as a :class:`MutantReport`) and
cross-checks against the longitude system of the mutant built with the
structural operations of :mod:`mubar.links`.  The two halves may be
known at different depths; they and their connected sum are read at
the shallower one, and a weight beyond it is refused.

A mutative pair is a ribbon sum alpha # inverse_mirror(alpha) and one of
its bi-mutants; it is ``found`` exactly when the sum's q-th lower central
quotient is free and the mutant's is not (:mod:`mubar.surgery`).  A
detector index ensures this for a link's system; on one that no link
realizes the R congruence can fail and leave the mutant's quotient free.
The paper's weight-9 self-mutant is decided by minimal linkings instead
(mubar.brackets): mu-bar(122121222) evaluates to -20 on the paper's
values, so that mutant's ninth quotient is not free, as
``mubar massey-sum --index 122121222 --values star.json`` prints.
"""

from __future__ import annotations

import math

from .errors import PreconditionError
from .links import connected_sum, inverse_mirror, reorder
from .milnor import (
    Index,
    LongitudeSystem,
    check_weight,
    delta,
    first_nonvanishing,
    format_index,
    mu,
    mu_bar,
    raw_mu,
    residue_of,
    validate_index,
)
from .records import frozen_record
from .surgery import LcqReport, lcq_is_free
from .words import generator

MUTATION_TYPES = ("F", "R", "FR")


def transform_index(index, tau: str) -> Index:
    """I^F exchanges 1 and 2, I^R reverses, I^FR does both."""
    entries = tuple(map(int, index))
    if not {1, 2}.issuperset(entries):
        raise PreconditionError(
            f"index {format_index(entries)} uses components other than 1,2"
        )
    if tau not in MUTATION_TYPES:
        raise PreconditionError(f"unknown mutation type {tau!r}")
    if "F" in tau:
        entries = tuple(map((3).__sub__, entries))
    if "R" in tau:
        entries = entries[::-1]
    return entries


def apply_mutation(system: LongitudeSystem, tau: str) -> LongitudeSystem:
    """The beta half of a mutant: F exchanges, R reverses, FR does both."""
    if tau not in MUTATION_TYPES:
        raise PreconditionError(f"unknown mutation type {tau!r}")
    _require_two_components(system)
    return reorder(
        system, (2, 1) if "F" in tau else (1, 2), (1, 2) if "R" in tau else ()
    )


@frozen_record
class MutantReport:
    """One congruence instance mu_alpha(I) + mu_beta(I^tau) mod D^tau(I)."""

    index: Index
    mutation: str | None
    mu_alpha: int
    mu_beta_transformed: int
    modulus: int
    residue: int
    mu_composite: int
    congruent: bool

    def to_json(self) -> dict:
        return {
            "index": format_index(self.index),
            "mutation": self.mutation,
            "mu_alpha": self.mu_alpha,
            "mu_beta_transformed": self.mu_beta_transformed,
            "modulus": self.modulus,
            "residue": self.residue,
            "mu_composite": self.mu_composite,
            "congruent": self.congruent,
        }


def _require_two_components(*systems: LongitudeSystem):
    for system in systems:
        if system.m != 2:
            raise PreconditionError(
                f"bi-mutation calculus needs 2-component systems, got m={system.m}"
            )


def mutant(
    alpha: LongitudeSystem, beta: LongitudeSystem, tau: str | None = None
) -> LongitudeSystem:
    """The composite alpha # beta^tau; tau=None is the connected sum."""
    _require_two_components(alpha, beta)
    return connected_sum(alpha, beta if tau is None else apply_mutation(beta, tau))


def _report(
    alpha: LongitudeSystem,
    beta: LongitudeSystem,
    composite: LongitudeSystem,
    entries: Index,
    tau: str | None,
    modulus: int | None = None,
) -> MutantReport:
    # both halves are at composite's depth; modulus is D^tau(I) when known
    transformed = entries if tau is None else transform_index(entries, tau)
    value = mu(composite, entries)
    mu_a = mu(alpha, entries)
    mu_bt = mu(beta, transformed)
    if modulus is None:
        modulus = math.gcd(delta(alpha, entries), delta(beta, transformed))
    residue = residue_of(mu_a + mu_bt, modulus)
    return MutantReport(
        index=entries,
        mutation=tau,
        mu_alpha=mu_a,
        mu_beta_transformed=mu_bt,
        modulus=modulus,
        residue=residue,
        mu_composite=value,
        congruent=residue_of(value, modulus) == residue,
    )


def mutant_mu(
    alpha: LongitudeSystem, beta: LongitudeSystem, index, tau: str | None = None
) -> MutantReport:
    """Mutant congruence: mu_mutant(I) = mu_a(I) + mu_b(I^tau) mod D^tau(I).

    tau=None is the connected sum alpha # beta, where I^tau = I.
    """
    composite = mutant(alpha, beta, tau)
    entries, depth = validate_index(composite, index), composite.depth
    return _report(alpha.truncate(depth), beta.truncate(depth), composite, entries, tau)


def normalize_linking(
    alpha: LongitudeSystem, beta: LongitudeSystem
) -> tuple[LongitudeSystem, LongitudeSystem]:
    """Shift the linking number of beta onto alpha by cancelling twists.

    Twists T(k) (longitudes x2^k, x1^k) are summed after alpha and T(-k)
    before beta, so that the composite words, hence all mu values of the
    sum, are unchanged verbatim, while lk(beta') = 0, lk(alpha') = lk(sum).
    """
    _require_two_components(alpha, beta)
    k = beta.linking(1, 2)
    if k == 0:
        return alpha, beta

    def twists(n: int) -> LongitudeSystem:
        return LongitudeSystem(2, alpha.depth, (generator(2) ** n, generator(1) ** n))

    return connected_sum(alpha, twists(k)), connected_sum(twists(-k), beta)


def weight_lt6_invariance_check(
    alpha: LongitudeSystem, beta: LongitudeSystem
) -> bool:
    """Check that mu-bar(12) and mu-bar(1122) survive every bi-mutation.

    These are the only nontrivial residues of weight < 6 for two
    components; weight-2 is compared up to sign (orientation ambiguity)
    and weight-4 on the nose, after moving the linking number of beta
    onto alpha.
    """
    alpha2, beta2 = normalize_linking(alpha, beta)
    total = mutant(alpha2, beta2)
    # each half once at the pair's depth, so its expansions serve every report
    alpha2, beta2 = alpha2.truncate(total.depth), beta2.truncate(total.depth)
    lk = mu_bar(total, (1, 2)).mu
    sato = mu_bar(total, (1, 1, 2, 2))
    for tau in MUTATION_TYPES:
        composite = mutant(alpha2, beta2, tau)
        rep2 = _report(alpha2, beta2, composite, (1, 2), tau)
        if rep2.residue not in (lk, -lk):
            return False
        rep4 = _report(alpha2, beta2, composite, (1, 1, 2, 2), tau)
        if rep4.residue != sato.residue:
            return False
    return True


def find_detector(alpha: LongitudeSystem, q: int, tau: str) -> list[Index]:
    """All weight-q indices with mu(I) != mu(I^tau) on alpha, sorted.

    Requires every residue of weight < q to vanish, so that the values
    compared are free of indeterminacy.  tau is an involution, so each
    differing pair is found from its member with nonzero mu.
    """
    _require_two_components(alpha)
    if tau not in MUTATION_TYPES:
        raise PreconditionError(f"unknown mutation type {tau!r}")
    if q < 2:
        raise PreconditionError("weight must be at least 2")
    check_weight(alpha, q)
    witness = first_nonvanishing(alpha, q - 1)
    if witness is not None:
        raise PreconditionError(
            f"nonvanishing lower-weight invariant at index "
            f"{format_index(witness)}"
        )
    found: set[Index] = set()
    for j in (1, 2):
        for mono, value in alpha.expansion(j).nonzero(q - 1):
            image = transform_index(mono + (j,), tau)
            if value != raw_mu(alpha, image):
                found.update((mono + (j,), image))
    return sorted(found)


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

    Builds L = alpha # inverse_mirror(alpha) and its tau-mutant, which has
    vanishing residues below weight q (checked) and, at each detector
    index I, the nonvanishing weight-q value mu_alpha(I) - mu_alpha(I^tau);
    found is lcq_is_free(L, q) free and lcq_is_free(mutant, q) not.
    Without a detector nothing is built and the report states the negative.
    """
    detectors = find_detector(alpha, q, tau)
    if not detectors:
        return MutativePairReport(q=q, mutation=tau, found=False)
    beta = inverse_mirror(alpha)
    composite = mutant(alpha, beta, tau)
    # the scan's witness has the least weight, so it also answers below q
    mutant_lcq = lcq_is_free(composite, q)
    if not mutant_lcq.free and len(mutant_lcq.witness_index) < q:
        raise PreconditionError(
            f"mutant has nonvanishing lower-weight invariant at "
            f"{format_index(mutant_lcq.witness_index)}"
        )
    # every D^tau(I) is 0: alpha and the mutant vanish below q (find_detector,
    # the check above), so beta^tau = alpha^-1 * mutant and beta do too
    witnesses = tuple(_report(alpha, beta, composite, d, tau, 0) for d in detectors)
    ribbon_lcq = lcq_is_free(mutant(alpha, beta), q)
    return MutativePairReport(
        q=q,
        mutation=tau,
        found=ribbon_lcq.free and not mutant_lcq.free,
        detectors=tuple(detectors),
        ribbon_sum=ribbon_lcq,
        mutant=mutant_lcq,
        witnesses=witnesses,
    )
