"""Symbolic divisor algebra on the cover curve and the diagonal pullback map.

Divisor classes are formal rational combinations of Heegner generators
Heeg(m0, r1), the tautological-square class Omega (the canonical class) and
the cusp class Cusp.  The pullback of an ambient generator Z*(m, mu) lands in
this algebra with a cusp coefficient that is only defined up to an integer;
that ambiguity is carried as a flag and never guessed, and all round-trip
comparisons are on Heegner coefficients alone.

Keys are validated once, where they enter: `decompose_heegner` and
`verify_decomposition` check their target, `DivisorClass` and
`AmbientGenerator` check what they are given.  Inside, a ladder rung's
congruence m = q(mu) mod 1 is checked in integers on 4N*m, and pullbacks are
summed on integer keys (4N*m0, r1); every key a pullback reaches is valid by
construction, and `Fraction` keys appear only in what is returned.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt

from .arith import _Record
from .heegner import hurwitz_class_number, special_divisor_index
from .lattices import DiscElement
from .modcurves import cover_degree_over_x0

HeegKey = tuple[Fraction, int]


class DivisorClass(_Record):
    """Formal divisor class: Heegner coefficients plus Omega and Cusp parts.

    `cusp_ambiguous` means the cusp coefficient is a representative only,
    defined up to an undetermined integer.  Construction validates every key
    with a nonzero coefficient; sums and multiples of classes reuse their
    operands' keys without checking them again.  Unlike the other records a
    class is mutable, and so unhashable.
    """

    _fields = ("level", "heeg_coeffs", "omega_coeff", "cusp_coeff", "cusp_ambiguous")
    __hash__ = None  # type: ignore[assignment]
    __setattr__ = object.__setattr__
    __delattr__ = object.__delattr__

    def __init__(
        self,
        level: int,
        heeg_coeffs: dict[HeegKey, Fraction] | None = None,
        omega_coeff: Fraction = Fraction(0),
        cusp_coeff: Fraction = Fraction(0),
        cusp_ambiguous: bool = False,
    ) -> None:
        if level < 1:
            raise ValueError("level must be a positive integer")
        cleaned: dict[HeegKey, Fraction] = {}
        for (m0, r1), coeff in (heeg_coeffs or {}).items():
            coeff = Fraction(coeff)
            if coeff == 0:
                continue
            key = (Fraction(m0), special_divisor_index(level, m0, r1).r)
            cleaned[key] = cleaned.get(key, Fraction(0)) + coeff
        self.__dict__.update(
            level=level,
            heeg_coeffs={k: v for k, v in cleaned.items() if v != 0},
            omega_coeff=Fraction(omega_coeff),
            cusp_coeff=Fraction(cusp_coeff),
            cusp_ambiguous=cusp_ambiguous,
        )

    @classmethod
    def _from_valid(
        cls,
        level: int,
        heeg_coeffs: dict[HeegKey, Fraction],
        omega_coeff: Fraction,
        cusp_coeff: Fraction,
        cusp_ambiguous: bool,
    ) -> "DivisorClass":
        # keys already validated and normalized, coefficients nonzero Fractions
        out = cls.__new__(cls)
        out.level = level
        out.heeg_coeffs = heeg_coeffs
        out.omega_coeff = omega_coeff
        out.cusp_coeff = cusp_coeff
        out.cusp_ambiguous = cusp_ambiguous
        return out

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


def _check_congruence(four_nm: Fraction | int, mu: DiscElement) -> None:
    """Raise unless m = four_nm/4N satisfies m = q(mu) mod 1.

    With q(mu) = (r2**2 - r1**2)/4N mod 1 the condition is the integer
    congruence four_nm + r1**2 - r2**2 = 0 mod 4N, which also requires 4N*m
    to be an integer.
    """
    four_n = 4 * mu.level
    if (four_nm + mu.r1 * mu.r1 - mu.r2 * mu.r2) % four_n:
        raise ValueError("m = %s violates m = q(mu) mod 1 for mu = %s" % (Fraction(four_nm, four_n), mu))


class AmbientGenerator(_Record):
    """Generator Z*(m, mu) of the divisor algebra on the product surface.

    (0, 0) denotes the inverse tautological-square class of the surface;
    (0, mu) with mu nonzero is the zero divisor.  Every generator also keeps
    the integer 4N*m for the pullback's splitting loop; it takes no part in
    equality, hashing or repr.
    """

    _fields = ("m", "mu")

    def __init__(self, m: Fraction, mu: DiscElement) -> None:
        m = Fraction(m)
        if m < 0:
            raise ValueError("m must be nonnegative")
        four_nm = m * 4 * mu.level
        _check_congruence(four_nm, mu)
        self.__dict__.update(m=m, mu=mu, _four_nm=four_nm.numerator)

    @classmethod
    def _rung(cls, four_nm: int, mu: DiscElement) -> "AmbientGenerator":
        """Z*(four_nm/4N, mu) for an integer four_nm >= 0, with the public constructor's check."""
        _check_congruence(four_nm, mu)
        out = cls.__new__(cls)
        out.__dict__.update(m=Fraction(four_nm, 4 * mu.level), mu=mu, _four_nm=four_nm)
        return out

    @property
    def level(self) -> int:
        return self.mu.level


class PullbackDecomposition(_Record):
    """Coefficients on ambient generators realizing a Heegner divisor as a pullback."""

    _fields = ("level", "target", "terms", "residual_cusp_ambiguous")

    def __init__(
        self,
        level: int,
        target: HeegKey,
        terms: tuple[tuple[AmbientGenerator, Fraction], ...],
        residual_cusp_ambiguous: bool = True,
    ) -> None:
        self.__dict__.update(
            level=level, target=target, terms=terms, residual_cusp_ambiguous=residual_cusp_ambiguous
        )

    def coefficient(self, gen: AmbientGenerator) -> Fraction:
        for g, c in self.terms:
            if g == gen:
                return c
        return Fraction(0)


def _add_pullback(
    gen: AmbientGenerator, coeff: int | Fraction, heeg: dict[tuple[int, int], int | Fraction]
) -> int | Fraction:
    """Add coeff times the Heegner part of the pullback of gen into heeg; return its Omega part.

    Keys of `heeg` are (4N*m0, r1) in integers.  A splitting is one s = r2
    mod 2N with s**2 <= 4N*m, giving 4N*m0 = 4N*m - s**2; s and -s both
    count, which is the scalar line's representation count.
    """
    four_nm = gen._four_nm
    if four_nm == 0:
        return -2 * coeff if gen.mu.is_zero() else 0
    r1, r2 = gen.mu.r1, gen.mu.r2
    two_n = 2 * gen.level
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


def _divisor_class(
    level: int, heeg: dict[tuple[int, int], int | Fraction], omega: int | Fraction, ambiguous: bool
) -> DivisorClass:
    four_n = 4 * level
    return DivisorClass(
        level=level,
        heeg_coeffs={(Fraction(k, four_n), r1): Fraction(c) for (k, r1), c in heeg.items() if c},
        omega_coeff=Fraction(omega),
        cusp_coeff=Fraction(0),
        cusp_ambiguous=ambiguous,
    )


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
    return _divisor_class(gen.level, heeg, omega, gen._four_nm != 0)


def _inverse_theta(level: int, length: int) -> list[int]:
    """First `length` (at least one) coefficients of 1/theta(q^N), theta = 1 + 2*sum_{k>=1} q^(k^2).

    c_0 = 1 and c_j = -2 * sum_{k>=1} c_{j - N*k**2}.  Computed per call and
    kept nowhere: the recurrence costs a small share of the ladder built on it.
    """
    coeffs = [1]
    for j in range(1, length):
        acc = 0
        k = 1
        step = level
        while step <= j:
            acc += coeffs[j - step]
            k += 1
            step = level * k * k
        coeffs.append(-2 * acc)
    return coeffs


def decompose_heegner(level: int, m0: Fraction | int, r1: int) -> PullbackDecomposition:
    """Express Heeg(m0, r1) as a pullback of ambient generators.

    The generators are Z*(m0 - j, (r1, 0)) for the ladder j = 0, 1, ... while
    m0 - j > 0, plus Z*(0, 0).  The pullback of Z*(m, (r1, 0)) is
    sum_k Heeg(m - N*k**2, r1), so the ladder's generating series is
    multiplied by theta(q^N) with theta = 1 + 2*sum_{k>=1} q^(k^2); the
    coefficient of Z*(m0 - j, (r1, 0)) is therefore the j-th coefficient of
    1/theta(q^N), an integer that depends only on N and j, with leading
    coefficient 1.  The Z*(0, 0) coefficient is chosen so the Omega parts
    cancel, and the cusp part stays ambiguous.  The target key is validated
    once, on entry; each rung is built from its integer 4N*m, with the
    congruence m = q(mu) mod 1 checked as 4N*m + r1**2 = 0 mod 4N.  The round
    trip through `verify_decomposition` is linear in the number of pullback
    terms it sums.
    """
    idx = special_divisor_index(level, m0, r1)
    n, r1, four_nm = level, idx.r, -idx.disc
    four_n = 4 * n
    depth = -(-four_nm // four_n)
    coeffs = _inverse_theta(n, depth)
    mu = DiscElement(level=n, r1=r1, r2=0)
    rung = AmbientGenerator._rung
    terms: list[tuple[AmbientGenerator, Fraction]] = [
        (rung(four_nm - four_n * j, mu), Fraction(c)) for j, c in enumerate(coeffs[:depth]) if c
    ]
    if r1 == 0:
        # each rung m = N*t**2 pulls back with -2*Omega per unit coefficient,
        # and Z*(0, 0) pulls back to -2*Omega; m0 is an integer here and mu = 0
        m0_int = four_nm // four_n
        lam0 = -sum(coeffs[m0_int - n * t * t] for t in range(1, isqrt(m0_int // n) + 1))
        if lam0:
            terms.append((rung(0, mu), Fraction(lam0)))
    return PullbackDecomposition(
        level=n,
        target=(Fraction(four_nm, four_n), r1),
        terms=tuple(terms),
        residual_cusp_ambiguous=True,
    )


def _sum_pullbacks(
    decomp: PullbackDecomposition,
) -> tuple[dict[tuple[int, int], int | Fraction], int | Fraction, bool]:
    """Heegner part on (4N*m0, r1) keys, Omega part and cusp ambiguity of the summed terms."""
    heeg: dict[tuple[int, int], int | Fraction] = {}
    omega: int | Fraction = 0
    ambiguous = False
    for gen, coeff in decomp.terms:
        if gen.level != decomp.level:
            raise ValueError("cannot add classes at different levels")
        if not isinstance(coeff, Fraction):
            coeff = Fraction(coeff)
        omega += _add_pullback(gen, coeff.numerator if coeff.denominator == 1 else coeff, heeg)
        ambiguous = ambiguous or gen._four_nm != 0
    return heeg, omega, ambiguous


def apply_decomposition(decomp: PullbackDecomposition) -> DivisorClass:
    """Pull back every generator in the decomposition and sum with its coefficients."""
    heeg, omega, ambiguous = _sum_pullbacks(decomp)
    return _divisor_class(decomp.level, heeg, omega, ambiguous)


def verify_decomposition(decomp: PullbackDecomposition) -> dict[HeegKey, Fraction]:
    """Residual of the round trip on Heegner coefficients; empty means exact.

    The target is validated and reduced once, to the integer key
    (4N*m0, r1 mod 2N).  The pulled-back terms are summed on such keys, and
    the target is subtracted there.  The summed keys need no check: every
    generator was validated when it was built, and each splitting of a valid
    generator lands on a valid key.  `Fraction` keys and values are built only
    for the entries returned.  Omega and cusp coefficients are excluded from
    the comparison: the cusp coefficient of a pullback is undetermined, and
    the two classes are proportional on the curves in question.
    """
    m0, r1 = decomp.target
    idx = special_divisor_index(decomp.level, m0, r1)
    heeg, _, _ = _sum_pullbacks(decomp)
    target = (-idx.disc, idx.r)
    heeg[target] = heeg.get(target, 0) - 1
    four_n = 4 * decomp.level
    return {(Fraction(k, four_n), r1): Fraction(c) for (k, r1), c in heeg.items() if c}


def chow_heegner_divisor(level: int, decomp: PullbackDecomposition) -> DivisorClass:
    """Degree-zero divisor cut out of the modified diagonal cycle by the decomposition.

    The result is Heeg(m0, r1) - d1 * Cusp with d1 the degree of the Heegner
    divisor on the cover: twice the Hurwitz class number times the covering
    degree over X_0(N).  The two basepoint-slice correction terms are
    supported on cusps, hence torsion, and drop out of the rational class;
    the cusp coefficient here is exact, not ambiguous.
    """
    m0, r1 = decomp.target
    idx = special_divisor_index(level, m0, r1)
    degree = 2 * cover_degree_over_x0(level) * hurwitz_class_number(-idx.disc)
    return DivisorClass._from_valid(
        level,
        {(Fraction(m0), idx.r): Fraction(1)},
        Fraction(0),
        Fraction(-degree),
        False,
    )
