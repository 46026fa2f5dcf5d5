"""Nontriviality certificates for the Ceresa and modified-diagonal cycles of the cover curves.

A certificate records which sufficient criterion fired for a given level N:
a listed prime divisor (or a named prime divisor above 71), a square prime
divisor at least 11, the explicit size bound, or an odd-sign rank-one newform
at a divisor level served by the newform client.  "unknown" never asserts
triviality; the criteria are sufficient, not necessary.
"""

from __future__ import annotations

from .arith import LARGE_PRIME_FLOOR, LISTED_PRIMES, _check_level, _Record, factor, large_level_bound
from .modcurves import CurveProfile, _cover_profile
from .newforms import (
    NewformClient,
    WitnessIndeterminate,
    _check_mode,
    witness_minus_rank1,
)

VERDICT_PROVEN = "proven_nontrivial"
VERDICT_UNKNOWN = "unknown"

CLAUSE_A1 = "A1_prime"
CLAUSE_A2 = "A2_prime_square"
CLAUSE_B = "B_bound"
CLAUSE_ANALYTIC = "analytic_witness"
CLAUSE_NONE = "none"
_CLAUSES = (CLAUSE_A1, CLAUSE_A2, CLAUSE_B, CLAUSE_ANALYTIC, CLAUSE_NONE)

# certificates carry the curve profile up to level 60 only, and the note above
# it keeps its wording; raising the cutoff or rewording the note would change
# the output of every certificate above level 60
_PROFILE_MAX_LEVEL = 60


class Certificate(_Record):
    """The clause that fired for a level, with its witnesses, profile and justification.

    The level passes `arith._check_level`, the clause is one of the five
    `CLAUSE_*` values, the witnesses a tuple of dicts, the profile a
    `CurveProfile` or None and the justification a `str`, else ValueError.
    The verdict follows from the clause: "unknown" when it is "none", and
    "proven_nontrivial" otherwise.
    """

    _fields = ("level", "verdict", "clause", "witnesses", "curve_profile", "justification")

    def __init__(
        self,
        level: int,
        clause: str,
        witnesses: tuple[dict, ...],
        curve_profile: CurveProfile | None,
        justification: str,
    ) -> None:
        _check_level(level)
        if clause not in _CLAUSES:
            raise ValueError("clause must be one of %s, not %r" % (", ".join(_CLAUSES), clause))
        if type(witnesses) is not tuple or not all(type(w) is dict for w in witnesses):
            raise ValueError("witnesses must be a tuple of dicts")
        if curve_profile is not None and type(curve_profile) is not CurveProfile:
            raise ValueError("curve_profile must be a CurveProfile or None")
        if type(justification) is not str:
            raise ValueError("justification must be a string")
        verdict = VERDICT_UNKNOWN if clause == CLAUSE_NONE else VERDICT_PROVEN
        self._store(level, verdict, clause, witnesses, curve_profile, justification)


def certify(
    n: int,
    newform_source: NewformClient | None = None,
    mode: str = "offline",
) -> Certificate:
    """Certificate for the cycles of the cover curve at level n.

    Clauses are evaluated in the fixed order: named prime divisor, square
    prime divisor, size bound, analytic witness; the first that fires names
    the clause, and every fired clause is listed in the witnesses.  A verdict
    covers both the modified diagonal cycle in the triple product and the
    Ceresa cycle in the Jacobian, for every choice of basepoint.

    The curve profile is attached for n <= 60 only, computed from the
    factorization already taken; above that the justification notes it as
    omitted.  The call reads no environment, and offline only the newform
    source's directories (see `witness_minus_rank1`).  An unknown mode raises
    ValueError on entry.  An unavailable or failing newform source, the default
    one online too, leaves the analytic clause "not evaluated"; it never fails the call.
    """
    _check_level(n)
    _check_mode(mode)
    bound = large_level_bound()
    known, cofactor = factor(n)
    notes: list[str] = []
    if cofactor > 1:
        notes.append(
            "factorization incomplete: composite cofactor of %d digits left unfactored"
            % len(str(cofactor))
        )

    fired: list[dict] = []

    # A1: a listed prime divisor, else a named prime divisor above 71.  Above
    # the bound an unsplit cofactor hides a large prime divisor that cannot be
    # named, so the clause does not fire on the unnamed evidence alone.
    a1_witness = next((p for p in LISTED_PRIMES if p in known), None)
    if a1_witness is None:
        a1_witness = next((p for p in known if p > LARGE_PRIME_FLOOR), None)
    if a1_witness is not None:
        fired.append({"clause": CLAUSE_A1, "prime": a1_witness})

    # A2: a square prime divisor at least 11, from the known factorization
    a2_witness = next((p for p, e in known.items() if p >= 11 and e >= 2), None)
    if a2_witness is not None:
        fired.append({"clause": CLAUSE_A2, "prime": a2_witness})

    # B: explicit size bound
    if n > bound:
        fired.append({"clause": CLAUSE_B, "bound": str(bound)})

    # analytic: odd-sign rank-one newform at a divisor level
    try:
        if cofactor > 1:
            raise WitnessIndeterminate("divisor scan limited by incomplete factorization")
        hit = witness_minus_rank1(n, mode=mode, client=newform_source)
        if hit is not None:
            level, record = hit
            fired.append(
                {
                    "clause": CLAUSE_ANALYTIC,
                    "level": level,
                    "label": record.label,
                    "analytic_rank": record.analytic_rank,
                    "fricke_sign": record.fricke_sign,
                    "data_source": record.source,
                }
            )
    except WitnessIndeterminate as exc:
        notes.append("analytic clause not evaluated: %s" % exc)

    profile: CurveProfile | None = None
    if n <= _PROFILE_MAX_LEVEL:
        profile = _cover_profile(n, known)
    else:
        notes.append("curve profile omitted: level beyond the enumeration guard")

    return Certificate(
        level=n,
        clause=fired[0]["clause"] if fired else CLAUSE_NONE,
        witnesses=tuple(fired),
        curve_profile=profile,
        justification=_justification(n, fired, notes),
    )


_CLAUSE_TEXT = {
    CLAUSE_A1: (
        "the level has a prime divisor in {37, 43, 53, 61, 67} or above 71, which "
        "guarantees an odd-sign weight-2 newform with nonvanishing central "
        "derivative at a prime divisor level"
    ),
    CLAUSE_A2: (
        "the level is divisible by the square of a prime at least 11, whose "
        "Fricke quotient at the prime-square level has genus at least 2"
    ),
    CLAUSE_B: "the level exceeds the explicit bound, beyond which some divisor level always carries a witness",
    CLAUSE_ANALYTIC: (
        "a weight-2 newform with odd functional equation and analytic rank exactly 1 "
        "exists at a divisor level; its nonzero central derivative makes a Heegner "
        "divisor nontorsion, and a pullback decomposition realizes that divisor as a "
        "correspondence slice of the modified diagonal cycle"
    ),
}


def _justification(n, fired, notes) -> str:
    parts = []
    if fired:
        parts.append(
            "Level %d: the modified diagonal cycle in the triple product and the "
            "Ceresa cycle in the Jacobian are of infinite order in the rational "
            "Chow groups, for every choice of basepoint." % n
        )
        parts.append("Criterion: %s." % _CLAUSE_TEXT[fired[0]["clause"]])
        if len(fired) > 1:
            parts.append(
                "Additional criteria also fired: %s."
                % ", ".join(w["clause"] for w in fired[1:])
            )
        parts.append(
            "Basepoint independence: the group is torsion-free, the cusp class "
            "satisfies (2g-2)*cusp = canonical class, and changing the basepoint "
            "moves the cycle class within a complementary summand of the "
            "intermediate Jacobian, so it cannot cancel the nonzero part."
        )
        if any(w["clause"] == CLAUSE_ANALYTIC for w in fired):
            parts.append(
                "Analytic-rank values are taken from the newform database snapshot "
                "and carry its trust boundary; the sign convention equates odd "
                "functional equation with descent to the Fricke quotient."
            )
    else:
        parts.append(
            "Level %d: no sufficient criterion fired. The criteria are sufficient, "
            "not necessary; no triviality is asserted." % n
        )
    parts.extend("%s." % note.rstrip(".") for note in notes)
    return " ".join(parts)

