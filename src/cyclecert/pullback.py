"""The diagonal pullback of special divisors on the cover curve, and its round trip.

A divisor class is a formal rational combination of Heegner generators
Heeg(m0, r1), the tautological-square class Omega (the canonical class) and
the cusp class Cusp; it is the record `pullback_divisor` and
`chow_heegner_divisor` return.  The pullback of an ambient generator
Z*(m, mu) has a cusp coefficient that is only defined up to an integer;
that ambiguity is carried as a flag and never guessed, and all round-trip
comparisons are on Heegner coefficients alone.

Input is validated once, where it enters: `decompose_heegner` checks its
target, and the records check what they are given, a decomposition its
target and every term.  It keeps its target's `HeegnerIndex`, so the round
trip and `chow_heegner_divisor` check nothing again, and a decompose,
verify and chow round takes one `special_divisor_index` call.  Inside, a
ladder rung keeps its valid target's congruence m = q(mu) mod 1 and is
built unchecked with an `int` coefficient.  The round trip of such a ladder
is one product of packed integers; other pullbacks are summed one splitting
at a time on the integer keys (4N*m0, r1).  Every key a pullback reaches is
valid, so the classes returned are built without checking their keys
again, and `Fraction` keys appear only in what is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import _check_level, _check_rational, _Record
from .heegner import hurwitz_class_number, special_divisor_index
from .lattices import DiscElement
from .modcurves import cover_degree_over_x0

HeegKey = tuple[Fraction, int]

# Fractions are immutable, so the round trip shares these two instead of building them per call
_ZERO, _ONE = Fraction(0), Fraction(1)


def _pair(value, message: str) -> tuple:
    """The two items of `value`, else ValueError(message)."""
    try:
        first, second = value
    except (TypeError, ValueError):
        raise ValueError(message) from None
    return first, second


class DivisorClass(_Record):
    """Formal divisor class: Heegner coefficients plus Omega and Cusp parts.

    `cusp_ambiguous` means the cusp coefficient is a representative only,
    defined up to an undetermined integer.  Construction checks that every
    key is a pair and validates every key with a nonzero coefficient.  A
    class is frozen like the other records, but it holds a dict, so it is
    unhashable.
    """

    _fields = ("level", "heeg_coeffs", "omega_coeff", "cusp_coeff", "cusp_ambiguous")
    __hash__ = None  # type: ignore[assignment]

    def __init__(
        self,
        level: int,
        heeg_coeffs: dict[HeegKey, Fraction] | None = None,
        omega_coeff: Fraction = Fraction(0),
        cusp_coeff: Fraction = Fraction(0),
        cusp_ambiguous: bool = False,
    ) -> None:
        _check_level(level)
        if type(cusp_ambiguous) is not bool:
            raise ValueError("cusp_ambiguous must be a bool")
        _check_rational(omega_coeff)
        _check_rational(cusp_coeff)
        cleaned: dict[HeegKey, Fraction] = {}
        for key, coeff in (heeg_coeffs or {}).items():
            m0, r1 = _pair(key, "a Heegner key must be a pair (m0, r1)")
            _check_rational(coeff)
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            # the key is checked before Fraction(m0) could coerce it
            r = special_divisor_index(level, m0, r1).r
            key = (Fraction(m0), r)
            cleaned[key] = cleaned.get(key, Fraction(0)) + coeff
        self._store(
            level,
            {k: v for k, v in cleaned.items() if v != 0},
            Fraction(omega_coeff),
            Fraction(cusp_coeff),
            cusp_ambiguous,
        )


class AmbientGenerator(_Record):
    """Generator Z*(m, mu) of the divisor algebra on the product surface.

    (0, 0) denotes the inverse tautological-square class of the surface;
    (0, mu) with mu nonzero is the zero divisor.  Every generator also keeps
    the integer 4N*m for the pullback's splitting loop; it takes no part in
    equality, hashing or repr.
    """

    _fields = ("m", "mu")
    _extras = ("_four_nm",)

    def __init__(self, m: Fraction, mu: DiscElement) -> None:
        _check_rational(m)
        if type(mu) is not DiscElement:
            raise ValueError("mu must be a DiscElement")
        m = Fraction(m)
        if m < 0:
            raise ValueError("m must be nonnegative")
        four_n = 4 * mu.level
        four_nm = m * four_n
        # m = q(mu) mod 1 with q(mu) = (r2**2 - r1**2)/4N mod 1, as the integer
        # congruence 4N*m + r1**2 - r2**2 = 0 mod 4N, which needs 4N*m integral
        if (four_nm + mu.r1 * mu.r1 - mu.r2 * mu.r2) % four_n:
            raise ValueError("m = %s violates m = q(mu) mod 1 for mu = %s" % (m, mu))
        self._store(m, mu, four_nm.numerator)

    @property
    def level(self) -> int:
        return self.mu.level


class PullbackDecomposition(_Record):
    """Coefficients on ambient generators realizing a Heegner divisor as a pullback.

    Everything is checked once, when it is built: the target as a pair
    (m0, r1) that `special_divisor_index` accepts, and each term as a pair of
    an `AmbientGenerator` at this level and an `int` or `Fraction`
    coefficient, else ValueError; `target` and `terms` are stored as tuples.
    The target's `HeegnerIndex` is kept out of equality, hashing and repr,
    and the round trip and `chow_heegner_divisor` check nothing again.
    `residual_cusp_ambiguous` is always True: the cusp coefficient of a
    pullback is defined only up to an integer, so the round trip compares
    Heegner coefficients alone.
    """

    _fields = ("level", "target", "terms", "residual_cusp_ambiguous")
    _extras = ("_index",)

    def __init__(self, level: int, target: HeegKey, terms: tuple[tuple[AmbientGenerator, Fraction | int], ...]) -> None:
        target = _pair(target, "a target must be a pair (m0, r1)")
        index = special_divisor_index(level, *target)
        terms = tuple(_pair(term, "a term must pair an AmbientGenerator with a coefficient") for term in terms)
        for gen, coeff in terms:
            if type(gen) is not AmbientGenerator:
                raise ValueError("a term must pair an AmbientGenerator with a coefficient")
            if gen.mu.level != level:
                raise ValueError("cannot add classes at different levels")
            _check_rational(coeff)
        self._store(level, target, terms, True, index)

    def coefficient(self, gen: AmbientGenerator) -> Fraction | int:
        return next((c for g, c in self.terms if g == gen), 0)


def _add_pullback(
    gen: AmbientGenerator,
    coeff: int | Fraction,
    heeg: dict[tuple[int, int], int | Fraction],
) -> int | Fraction:
    """Add coeff times the Heegner part of the pullback of gen into heeg; return its Omega part.

    `heeg` is keyed by (4N*m0, r1).  A splitting is one s = r2 mod 2N with
    s**2 <= 4N*m, giving 4N*m0 = 4N*m - s**2, and s = +-sqrt(4N*m) gives
    -Omega when r1 = 0.  Keys are first seen in the order of s from
    -isqrt(4N*m) up.
    """
    four_nm = gen._four_nm
    if four_nm == 0:
        return -2 * coeff if gen.mu.is_zero() else 0
    r1, r2 = gen.mu.r1, gen.mu.r2
    two_n = 2 * gen.mu.level
    smax = isqrt(four_nm)
    omega = 0
    for s in range(-smax + (r2 + smax) % two_n, smax + 1, two_n):
        rest = four_nm - s * s
        if rest:
            key = (rest, r1)
            heeg[key] = heeg.get(key, 0) + coeff
        elif r1 == 0:
            omega -= coeff
    return omega


def _heeg_fractions(level: int, heeg: dict[tuple[int, int], int | Fraction]) -> dict[HeegKey, Fraction]:
    """`Fraction` keys and values for the nonzero entries of {(4N*m0, r1): coefficient}."""
    four_n = 4 * level
    return {(Fraction(k, four_n), r1): Fraction(c) for (k, r1), c in heeg.items() if c}


def pullback_divisor(gen: AmbientGenerator) -> DivisorClass:
    """Diagonal pullback of an ambient generator, as a divisor class on the curve.

    For m > 0 the result runs over splittings m = m0 + m_plus with the scalar
    side contributing its representation count; the m0 = 0 branch exists only
    for vanishing trace-zero component and contributes through the convention
    Z(0, 0) = -Omega.  The cusp coefficient is ambiguous for m > 0 (boundary
    components of the closure are supported on pairs of cusps) and the chosen
    representative is 0.  For m = 0 the pullback is -2*Omega at mu = 0 by
    adjunction, and the zero class otherwise.
    """
    heeg: dict[tuple[int, int], int] = {}
    omega = _add_pullback(gen, 1, heeg)
    # the keys are valid by construction and r1 is reduced, so the trusted constructor takes them
    heeg_coeffs = _heeg_fractions(gen.level, heeg)
    return DivisorClass._from_valid(gen.level, heeg_coeffs, Fraction(omega), _ZERO, gen._four_nm != 0)


def _inverse_theta(length: int) -> list[int]:
    """First `length` (at least one) coefficients of 1/theta(q), theta = 1 + 2*sum_{k>=1} q^(k^2).

    c_0 = 1 and c_i = -2 * sum_{k>=1} c_{i - k**2}; c_i is (-1)**i times the
    number of overpartitions of i, so none is zero.  Computed per call and
    kept nowhere: on ladders of up to 240 rungs the recurrence takes about a
    third of `decompose_heegner` and about as long as the round trip; at
    20,000 rungs, three quarters of each.
    """
    coeffs = [1]
    squares = [k * k for k in range(1, isqrt(max(length - 1, 0)) + 1)]
    for i in range(1, length):
        acc = 0
        for square in squares:
            if square > i:
                break
            acc += coeffs[i - square]
        coeffs.append(-2 * acc)
    return coeffs


def decompose_heegner(level: int, m0: Fraction | int, r1: int) -> PullbackDecomposition:
    """Express Heeg(m0, r1) as a pullback of ambient generators.

    The generators are Z*(m0 - j, (r1, 0)) for the ladder j = 0, 1, ... while
    m0 - j > 0, plus Z*(0, 0).  The pullback of Z*(m, (r1, 0)) is
    sum_k Heeg(m - N*k**2, r1), so the ladder's generating series is
    multiplied by theta(q^N) with theta = 1 + 2*sum_{k>=1} q^(k^2); the
    coefficient of Z*(m0 - j, (r1, 0)) is therefore the j-th coefficient of
    1/theta(q^N): the i-th coefficient of 1/theta(q) at j = N*i, and zero
    (no rung) elsewhere.  The Z*(0, 0) coefficient is chosen so the Omega
    parts cancel, and the cusp part stays ambiguous; every coefficient is an
    `int`.  The target is validated once, on entry, and the decomposition is
    built from its index without the constructor's checks: each rung, built
    from 4N*m = 4N*m0 - 4N**2*j, keeps the target's congruence
    4N*m + r1**2 = 0 mod 4N.  `verify_decomposition` recognises this ladder
    and multiplies it by theta as packed integers (`_ladder_round_trips`), in
    O(L) Python steps for L rungs.
    """
    idx = special_divisor_index(level, m0, r1)
    n, r1, four_nm = level, idx.r, -idx.disc
    four_n = 4 * n
    step = four_n * n  # the drop in 4N*m from one rung to the next
    coeffs = _inverse_theta(-(-four_nm // step))
    mu = DiscElement(n, r1, 0)
    new_gen = AmbientGenerator._from_valid
    terms = [(new_gen(Fraction(k, four_n), mu, k), c) for k, c in zip(range(four_nm, 0, -step), coeffs)]
    if r1 == 0 and four_nm % step == 0:
        # each rung m = N*t**2 pulls back with -2*Omega per unit coefficient,
        # and Z*(0, 0) pulls back to -2*Omega; such rungs exist only when N | m0
        top = four_nm // step
        lam0 = -sum(coeffs[top - t * t] for t in range(1, isqrt(top) + 1))
        if lam0:
            # Z*(0, 0), here mu = (0, 0), keeps m = q(mu) mod 1 at m = 0
            terms.append((new_gen(_ZERO, mu, 0), lam0))
    # the first rung is Z*(m0, (r1, 0)), so its m is the target's m0; idx is the target's index, already taken
    return PullbackDecomposition._from_valid(n, (terms[0][0].m, r1), tuple(terms), True, idx)


def _ladder_coeffs(decomp: PullbackDecomposition) -> list[int] | None:
    """The rung coefficients of a decomposition shaped like a `decompose_heegner` ladder, else None.

    Rung i is Z*(m0 - N*i, (r1, 0)) at the target's m0 and reduced r1, with
    an `int` coefficient, for every i with 4N*m > 0, in order.  One last term
    of norm 0 may follow: it pulls back with no Heegner part.
    """
    idx = decomp._index
    terms = decomp.terms
    if terms and terms[-1][0]._four_nm == 0:
        terms = terms[:-1]
    four_nm, step = -idx.disc, 4 * decomp.level * decomp.level
    if len(terms) != -(-four_nm // step):
        return None
    coeffs = []
    for gen, coeff in terms:
        if gen._four_nm != four_nm or type(coeff) is not int or gen.mu.r1 != idx.r or gen.mu.r2:
            return None
        coeffs.append(coeff)
        four_nm -= step
    return coeffs


def _ladder_round_trips(coeffs: list[int]) -> bool:
    """Whether an L-rung ladder round-trips: theta(q) * sum_i c_i q^i = 1 below q^L.

    Slot j stands for the key 4N*m0 - 4N**2*j, which rung i reaches from the
    splittings s = +-2N*t with i + t**2 = j, so a slot sums at most
    2*isqrt(L - 1) + 1 rung coefficients.  The slot width w is the bit length
    of max|c_i| plus that of 2*isqrt(L - 1) + 1, so every slot of the product
    less 1 is below 2**w in absolute value.  The c_i are packed into one
    `int`, c_i times 2**(w*i), by pairwise shifts and adds; the series is
    multiplied by theta with one shift and add per square t**2 < L, and 1 is
    subtracted.  The low L slots are all zero exactly when the result is
    divisible by 2**(w*L): the lowest nonzero slot j < L, below 2**w in
    absolute value, leaves a remainder mod 2**(w*(j + 1)).  Slots from L up
    have keys 4N*m0 <= 0 and are masked off.  Every slot is w bits wide, so
    one coefficient far wider than the others costs L times its size in
    memory and in each shift.
    """
    length = len(coeffs)
    tmax = isqrt(length - 1)
    bits = max(map(abs, coeffs)).bit_length() + (2 * tmax + 1).bit_length()
    packed, shift = coeffs, bits
    while len(packed) > 1:
        packed = [lo + (hi << shift) for lo, hi in zip(packed[::2], packed[1::2] + [0])]
        shift *= 2
    series = packed[0]
    total = series - 1
    for t in range(1, tmax + 1):
        total += series << (bits * t * t + 1)
    return not total & ((1 << (bits * length)) - 1)


def verify_decomposition(decomp: PullbackDecomposition) -> dict[HeegKey, Fraction]:
    """Residual of the round trip on Heegner coefficients; empty means exact.

    The decomposition's kept index gives the target's r1 mod 2N and integer
    4N*m0.  A ladder shaped as `decompose_heegner` builds it is first tested
    by `_ladder_round_trips`, one product of packed integers: O(L) Python
    steps and isqrt(L) big-integer shifts for L rungs, and an exact ladder
    returns {} there.  Otherwise the terms, checked when the decomposition
    was built, are summed on (4N*m0, r1) keys, where each splitting of a
    valid generator lands on a valid key, and the target is subtracted there;
    `Fraction` keys and values are built only for the entries returned.
    Omega and cusp coefficients are excluded: the cusp coefficient of a
    pullback is undetermined, and the two classes are proportional on the
    curves in question.
    """
    coeffs = _ladder_coeffs(decomp)
    if coeffs is not None and _ladder_round_trips(coeffs):
        return {}
    heeg: dict[tuple[int, int], int | Fraction] = {}
    for gen, coeff in decomp.terms:
        _add_pullback(gen, coeff, heeg)
    target = (-decomp._index.disc, decomp._index.r)
    heeg[target] = heeg.get(target, 0) - 1
    return _heeg_fractions(decomp.level, heeg)


def chow_heegner_divisor(level: int, decomp: PullbackDecomposition) -> DivisorClass:
    """Degree-zero divisor cut out of the modified diagonal cycle by the decomposition.

    The result is Heeg(m0, r1) - d1 * Cusp with d1 the degree of the Heegner
    divisor on the cover: twice the Hurwitz class number times the covering
    degree over X_0(N).  The two basepoint-slice correction terms are
    supported on cusps, hence torsion, and drop out of the rational class;
    the cusp coefficient here is exact, not ambiguous.
    """
    if level != decomp.level:
        raise ValueError("level %d differs from the decomposition's level %d" % (level, decomp.level))
    idx = decomp._index
    h = hurwitz_class_number(-idx.disc)
    m0 = decomp.target[0]  # valid, so equal to -D/4N
    return DivisorClass._from_valid(
        level,
        {(m0 if type(m0) is Fraction else Fraction(m0), idx.r): _ONE},
        _ZERO,
        Fraction(-2 * cover_degree_over_x0(level) * h.numerator, h.denominator),
        False,
    )
