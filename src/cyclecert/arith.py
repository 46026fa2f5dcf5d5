"""The arithmetic kernel: primality, factorization and divisors of a level.

Every certificate criterion is read off the factorization of N, so this is the
one module that factors.  `factor` is complete for every N up to the size
bound of the certificate; above it, where the bound clause already decides,
a composite piece may be returned unsplit as the cofactor.  Code that needs
the complete factorization calls `_level_factors`, where an unsplit cofactor
becomes a LevelBoundError.

There is one rule per input kind, each with one message, and every entry
that takes such an input calls it: `_check_level` for a level N (directly or
through `_level_factors`), `_check_positive` for a count n, `_check_disc`
for a discriminant and `_check_rational` for a rational value (m0, m or a
coefficient).  The first three refuse anything but an `int` (not a `bool`):
a level or a count of at least 1, a discriminant 0 or 1 mod 4; the last
refuses anything but an `int` (not a `bool`) or a `Fraction`.  `_Record`, the
base of the package's value records, lives here because every other module
imports this one; it generates each record class's one store code, the
trusted builder `_from_valid` included.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count
from math import gcd, isqrt, prod
from operator import attrgetter

LISTED_PRIMES = (37, 43, 53, 61, 67)
LARGE_PRIME_FLOOR = 71

_TRIAL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61, 67, 71)
_MR_BASES = _TRIAL_PRIMES[:13]
# a number above 1 with no prime factor up to 71 and below 73**2 is prime
_TRIAL_SQUARE = 73 * 73

# the least strong pseudoprime to all 13 bases, 1287836182261 * 2575672364521
# (Sorenson and Webster, Math. Comp. 86 (2017)); below it they prove primality
PSI13 = 3317044064679887385961981

# (psi_k, k): psi_k is the least strong pseudoprime to the first k prime
# bases, so those k bases decide every n < psi_k; listed where psi_k grows.
# Sources: Pomerance, Selfridge and Wagstaff, Math. Comp. 35 (1980) for
# k <= 4; Jaeschke, Math. Comp. 61 (1993) for k <= 8; Jiang and Deng,
# Math. Comp. 83 (2014) for psi_9 = psi_10 = psi_11; Sorenson and Webster,
# Math. Comp. 86 (2017) for psi_12 and psi_13
_PSI = (
    (2047, 1),
    (1373653, 2),
    (25326001, 3),
    (3215031751, 4),
    (2152302898747, 5),
    (3474749660383, 6),
    (341550071728321, 7),
    (3825123056546413051, 9),
    (318665857834031151167461, 12),
    (PSI13, 13),
)


_LARGE_LEVEL_BOUND = 2**6 * 3**4 * 5**2 * 7**2 * prod(p for p in _TRIAL_PRIMES if p >= 11 and p not in LISTED_PRIMES)


def large_level_bound() -> int:
    """Exact size bound: 2**6 * 3**4 * 5**2 * 7**2 times the primes 11..71 outside the listed set."""
    return _LARGE_LEVEL_BOUND


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin with the first k prime bases, k sized to n by `_PSI`.

    Exact for n < PSI13, which needs all 13 bases; at or above it the bases
    prove nothing, so the call raises ValueError rather than guess.
    """
    if n >= PSI13:
        raise ValueError("primality of %d is not decidable by the 13 fixed bases" % n)
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    k = next(k for psi, k in _PSI if n < psi)
    for a in _MR_BASES[:k]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _rho(n: int) -> int:
    """A proper divisor of an odd composite n: Brent's variant of Pollard rho (BIT 20, 1980)."""
    for c in count(1):
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * abs(x - y) % n
                g = gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: replay it one step at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = gcd(abs(x - ys), n)
        if g != n:
            return g


def factor(n: int) -> tuple[dict[int, int], int]:
    """Prime factorization of n >= 1 as (prime -> exponent, in increasing order; cofactor).

    The primes up to 71 are divided out, stopping once p*p exceeds what is
    left; each remaining piece is then a prime below 73**2, a proven prime,
    the square of one, or split by rho.  The cofactor is 1 whenever
    n <= large_level_bound().  Above the bound rho is not run, so a
    composite piece that is not a prime square comes back unsplit as the
    cofactor, and so does a piece at or above PSI13.
    """
    _check_positive(n)
    factors: dict[int, int] = {}
    for p in _TRIAL_PRIMES:
        if p * p > n:
            break  # n is 1 or a prime
        while n % p == 0:
            factors[p] = factors.get(p, 0) + 1
            n //= p
    cofactor = 1
    pieces = [n] if n > 1 else []
    while pieces:
        x = pieces.pop()
        r = isqrt(x)
        if x < _TRIAL_SQUARE or (x < PSI13 and is_prime(x)):
            factors[x] = factors.get(x, 0) + 1
        elif r * r == x and r < PSI13 and is_prime(r):
            factors[r] = factors.get(r, 0) + 2
        elif x > _LARGE_LEVEL_BOUND:
            cofactor = x  # only n itself can be this large
        else:
            d = _rho(x)
            pieces += [d, x // d]
    return dict(sorted(factors.items())), cofactor


class LevelBoundError(ValueError):
    """Level above the factoring bound whose composite part `factor` leaves unsplit.

    Raised by `_level_factors` for every computation that needs a complete
    factorization: curve profiles, group orders, the cover degree and
    Heegner enumeration.
    """


def _check_level(level: int) -> None:
    """The one level rule: an `int`, not a `bool`, of at least 1; anything else raises ValueError."""
    if type(level) is not int or level < 1:
        raise ValueError("level must be a positive integer")


def _check_positive(n: int) -> None:
    """The one count rule: an `int`, not a `bool`, of at least 1; anything else raises ValueError."""
    if type(n) is not int or n < 1:
        raise ValueError("n must be a positive integer")


def _check_disc(disc: int) -> None:
    """The one discriminant rule: an `int`, not a `bool`, that is 0 or 1 mod 4; anything else raises ValueError."""
    if type(disc) is not int:
        raise ValueError("disc must be an integer")
    if disc % 4 in (2, 3):
        raise ValueError("disc must be 0 or 1 mod 4")


def _check_rational(x: Fraction | int) -> None:
    """The one rational rule: an `int`, not a `bool`, or a `Fraction`; anything else raises ValueError."""
    if type(x) is not int and type(x) is not Fraction:
        raise ValueError("a rational value must be an int or a Fraction")


def _level_factors(n: int) -> dict[int, int]:
    """The complete factorization of a level n, or LevelBoundError naming n; ValueError for no level."""
    _check_level(n)
    factors, cofactor = factor(n)
    if cofactor > 1:
        raise LevelBoundError(
            "level %d has a composite factor of %d digits above the factoring bound"
            % (n, len(str(cofactor)))
        )
    return factors


def phi(factors: dict[int, int]) -> int:
    """Euler's phi of the number with this factorization."""
    return prod(p ** (e - 1) * (p - 1) for p, e in factors.items() if e)


def divisors(factors: dict[int, int]) -> list[int]:
    """Every divisor of the number with this factorization, in increasing order."""
    divs = [1]
    for p, e in factors.items():
        divs = [d * p**k for d in divs for k in range(e + 1)]
    return sorted(divs)


class _Record:
    """Base of the value records: equality, hash and repr over the fields in `_fields`.

    A subclass names its fields in `_fields`, and in `_extras` the private
    values it keeps beside them, out of equality, hash and repr.  From these
    `__init_subclass__` generates the class's one store code, once: `_store`,
    which `__init__` calls after its checks, and the trusted builder
    `cls._from_valid`, which builds a record without running `__init__` from
    values already checked and normalized as `__init__` would store them.
    Both take the fields and then the extras, in order, and store each
    straight into the instance's `__dict__`, since assignment is refused.
    Records compare equal only to records of the same class, and assigning
    or deleting an attribute afterwards raises AttributeError.
    """

    _fields: tuple[str, ...] = ()
    _extras: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # a plain attribute, not a method: call it as self._values(self)
        cls._values = attrgetter(*cls._fields)
        names = cls._fields + cls._extras
        params = ", ".join(names)
        stores = "".join("\n    fields[%r] = %s" % (name, name) for name in names)
        # one store per name, with no kwargs dict or zip, compiled in one exec per class
        namespace = {"__name__": cls.__module__, "new": object.__new__, "cls": cls}
        exec(
            "def _store(self, %s):\n    fields = self.__dict__%s\n\n"
            "def _from_valid(%s):\n    self = new(cls)\n    fields = self.__dict__%s\n    return self\n"
            % (params, stores, params, stores),
            namespace,
        )
        cls._store = namespace["_store"]
        cls._from_valid = staticmethod(namespace["_from_valid"])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values(self) == other._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join("%s=%r" % (name, getattr(self, name)) for name in self._fields),
        )

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError("cannot assign to field %r" % name)

    def __delattr__(self, name: str) -> None:
        raise AttributeError("cannot delete field %r" % name)
