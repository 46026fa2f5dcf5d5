"""Symbolic divisor algebra on the cover curve and the diagonal pullback map.

Divisor classes are formal rational combinations of Heegner generators
Heeg(m0, r1), the tautological-square class Omega (the canonical class) and
the cusp class Cusp.  The pullback of an ambient generator Z*(m, mu) lands in
this algebra with a cusp coefficient that is only defined up to an integer;
that ambiguity is carried as a flag and never guessed, and all round-trip
comparisons are on Heegner coefficients alone.

Keys are validated once, where they enter: `decompose_heegner` checks its
target, and `PullbackDecomposition`, `DivisorClass` and `AmbientGenerator`
check what they are given.  A decomposition keeps its target's
`HeegnerIndex`, so `apply_decomposition`, `verify_decomposition` and
`chow_heegner_divisor` check nothing again, and a decompose, verify and
chow round takes one `special_divisor_index` call.  Inside, a
ladder rung differs from its valid target by a multiple of N in m, so it
keeps the congruence m = q(mu) mod 1 and is built unchecked, and pullbacks
are summed per r1 on the integer keys 4N*m0, visiting s and -s once where
both split; every key a pullback reaches is valid by construction, so the
classes returned are built without checking their keys again, and
`Fraction` keys appear only in what is returned.
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


class DivisorClass(_Record):
    """Formal divisor class: Heegner coefficients plus Omega and Cusp parts.

    `cusp_ambiguous` means the cusp coefficient is a representative only,
    defined up to an undetermined integer.  Construction validates every key
    with a nonzero coefficient; sums and multiples of classes reuse their
    operands' keys without checking them again.  A class is frozen like the
    other records, but it holds a dict, so it is unhashable.
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
        _check_rational(omega_coeff)
        _check_rational(cusp_coeff)
        cleaned: dict[HeegKey, Fraction] = {}
        for (m0, r1), coeff in (heeg_coeffs or {}).items():
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

    def __add__(self, other: "DivisorClass") -> "DivisorClass":
        if self.level != other.level:
            raise ValueError("cannot add classes at different levels")
        heeg = dict(self.heeg_coeffs)
        for k, v in other.heeg_coeffs.items():
            heeg[k] = heeg.get(k, Fraction(0)) + v
        return DivisorClass._from_valid(
            self.level,
            {k: v for k, v in heeg.items() if v != 0},
            self.omega_coeff + other.omega_coeff,
            self.cusp_coeff + other.cusp_coeff,
            self.cusp_ambiguous or other.cusp_ambiguous,
        )

    def scaled(self, factor: Fraction | int) -> "DivisorClass":
        _check_rational(factor)
        f = Fraction(factor)
        return DivisorClass._from_valid(
            self.level,
            {k: f * v for k, v in self.heeg_coeffs.items()} if f != 0 else {},
            f * self.omega_coeff,
            f * self.cusp_coeff,
            self.cusp_ambiguous,
        )

    def is_zero(self) -> bool:
        return not self.heeg_coeffs and self.omega_coeff == 0 and self.cusp_coeff == 0


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

    The target (m0, r1) is checked when the decomposition is built, as
    `special_divisor_index` checks it, and a bad one raises there.  The
    resulting `HeegnerIndex` is kept beside the fields, out of equality,
    hashing and repr, and the round trip and `chow_heegner_divisor` read it
    instead of checking the target again.  `residual_cusp_ambiguous` is
    always True: the cusp coefficient of a pullback is defined only up to an
    integer, so the decomposition leaves the cusp part undetermined, and the
    round trip compares Heegner coefficients alone.
    """

    _fields = ("level", "target", "terms", "residual_cusp_ambiguous")
    _extras = ("_index",)

    def __init__(self, level: int, target: HeegKey, terms: tuple[tuple[AmbientGenerator, Fraction], ...]) -> None:
        self._store(level, target, terms, True, special_divisor_index(level, *target))

    def coefficient(self, gen: AmbientGenerator) -> Fraction:
        for g, c in self.terms:
            if g == gen:
                return c
        return Fraction(0)


def _add_pullback(gen: AmbientGenerator, coeff: int | Fraction, heeg: dict[int, int | Fraction]) -> int | Fraction:
    """Add coeff times the Heegner part of the pullback of gen into heeg; return its Omega part.

    `heeg` holds gen's r1 alone, keyed by the integer 4N*m0.  A splitting is
    one s = r2 mod 2N with s**2 <= 4N*m, giving 4N*m0 = 4N*m - s**2; s and
    -s both count, which is the scalar line's representation count.  When
    both lie in the class of r2 (r2 = 0 or N, as on every ladder rung), each
    s < 0 is visited once with weight 2, for itself and -s, and s = 0 last.
    Keys are first seen in the order of s from -isqrt(4N*m) up.
    """
    four_nm = gen._four_nm
    if four_nm == 0:
        return -2 * coeff if gen.mu.is_zero() else 0
    r1, r2 = gen.mu.r1, gen.mu.r2
    two_n = 2 * gen.mu.level
    smax = isqrt(four_nm)
    omega = 0
    weight, stop = (coeff, smax + 1) if (2 * r2) % two_n else (2 * coeff, 0)
    for s in range(-smax + (r2 + smax) % two_n, stop, two_n):
        rest = four_nm - s * s
        if rest:
            heeg[rest] = heeg.get(rest, 0) + weight
        elif r1 == 0:
            omega -= weight
    if r2 == 0:
        heeg[four_nm] = heeg.get(four_nm, 0) + coeff
    return omega


def _heeg_fractions(level: int, by_r1: dict[int, dict[int, int | Fraction]]) -> dict[HeegKey, Fraction]:
    """`Fraction` keys and values for the nonzero entries of {r1: {4N*m0: coefficient}}."""
    four_n = 4 * level
    return {(Fraction(k, four_n), r1): Fraction(c) for r1, heeg in by_r1.items() for k, c in heeg.items() if c}


def _divisor_class(
    level: int, by_r1: dict[int, dict[int, int | Fraction]], omega: int | Fraction, ambiguous: bool
) -> DivisorClass:
    # the keys are valid by construction and r1 is reduced, so the trusted constructor takes them
    return DivisorClass._from_valid(level, _heeg_fractions(level, by_r1), Fraction(omega), _ZERO, ambiguous)


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
    heeg: dict[int, int] = {}
    omega = _add_pullback(gen, 1, heeg)
    return _divisor_class(gen.level, {gen.mu.r1: heeg}, omega, gen._four_nm != 0)


def _inverse_theta(length: int) -> list[int]:
    """First `length` (at least one) coefficients of 1/theta(q), theta = 1 + 2*sum_{k>=1} q^(k^2).

    c_0 = 1 and c_i = -2 * sum_{k>=1} c_{i - k**2}; c_i is (-1)**i times the
    number of overpartitions of i, so none is zero.  Computed per call and
    kept nowhere: on ladders of up to 240 rungs the recurrence takes at most
    about a fifth of `decompose_heegner` and a tenth of the round trip; at
    20,000 rungs, three quarters and a fifth.
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
    parts cancel, and the cusp part stays ambiguous.  The target key is
    validated once, on entry, and its index goes to the decomposition, which
    is built without checking it again; the rungs are built in one loop from
    their integers 4N*m = 4N*m0 - 4N**2*j, which keep the target's
    congruence 4N*m + r1**2 = 0 mod 4N, so none is checked again.  The round
    trip through `verify_decomposition` is linear in the number of pullback
    terms it sums.
    """
    idx = special_divisor_index(level, m0, r1)
    n, r1, four_nm = level, idx.r, -idx.disc
    four_n = 4 * n
    step = four_n * n  # the drop in 4N*m from one rung to the next
    coeffs = _inverse_theta(-(-four_nm // step))
    mu = DiscElement(n, r1, 0)
    new_gen = AmbientGenerator._from_valid
    terms = [(new_gen(Fraction(k, four_n), mu, k), Fraction(c))
             for k, c in zip(range(four_nm, 0, -step), coeffs)]
    if r1 == 0 and four_nm % step == 0:
        # each rung m = N*t**2 pulls back with -2*Omega per unit coefficient,
        # and Z*(0, 0) pulls back to -2*Omega; such rungs exist only when N | m0
        top = four_nm // step
        lam0 = -sum(coeffs[top - t * t] for t in range(1, isqrt(top) + 1))
        if lam0:
            # Z*(0, 0), here mu = (0, 0), keeps m = q(mu) mod 1 at m = 0
            terms.append((new_gen(_ZERO, mu, 0), Fraction(lam0)))
    # the first rung is Z*(m0, (r1, 0)), so its m is the target's m0; idx is the target's index, already taken
    return PullbackDecomposition._from_valid(n, (terms[0][0].m, r1), tuple(terms), True, idx)


def _sum_pullbacks(
    decomp: PullbackDecomposition,
) -> tuple[dict[int, dict[int, int | Fraction]], int | Fraction, bool]:
    """Heegner part as {r1: {4N*m0: coefficient}}, Omega part and cusp ambiguity of the summed terms."""
    by_r1: dict[int, dict[int, int | Fraction]] = {}
    omega: int | Fraction = 0
    ambiguous = False
    level = decomp.level
    for gen, coeff in decomp.terms:
        if gen.mu.level != level:
            raise ValueError("cannot add classes at different levels")
        if type(coeff) is not Fraction:
            _check_rational(coeff)
            coeff = Fraction(coeff)
        heeg = by_r1.setdefault(gen.mu.r1, {})
        omega += _add_pullback(gen, coeff.numerator if coeff.denominator == 1 else coeff, heeg)
        ambiguous = ambiguous or gen._four_nm != 0
    return by_r1, omega, ambiguous


def apply_decomposition(decomp: PullbackDecomposition) -> DivisorClass:
    """Pull back every generator in the decomposition and sum with its coefficients."""
    heeg, omega, ambiguous = _sum_pullbacks(decomp)
    return _divisor_class(decomp.level, heeg, omega, ambiguous)


def verify_decomposition(decomp: PullbackDecomposition) -> dict[HeegKey, Fraction]:
    """Residual of the round trip on Heegner coefficients; empty means exact.

    The target was validated when the decomposition was built, and its kept
    index gives r1 mod 2N and the integer 4N*m0.  The pulled-back terms are
    summed per r1 on such integers, and the target is subtracted there.  The summed keys need no check: every
    generator was validated when it was built, and each splitting of a valid
    generator lands on a valid key.  `Fraction` keys and values are built only
    for the entries returned.  Omega and cusp coefficients are excluded from
    the comparison: the cusp coefficient of a pullback is undetermined, and
    the two classes are proportional on the curves in question.
    """
    idx = decomp._index
    by_r1, _, _ = _sum_pullbacks(decomp)
    heeg = by_r1.setdefault(idx.r, {})
    heeg[-idx.disc] = heeg.get(-idx.disc, 0) - 1
    return _heeg_fractions(decomp.level, by_r1)


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
