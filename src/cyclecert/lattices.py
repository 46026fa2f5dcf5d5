"""The two level-N matrix lattices and their discriminant groups, in closed form.

The rank-3 lattice lives inside trace-zero 2x2 rational matrices with
quadratic form Q(x) = N*det(x) and bilinear form (x, y) = N*tr(x*adj(y));
the rank-4 lattice extends it by the scalar-matrix line with Q(a*I) = N*a**2.
Bases are pinned once and for all so Gram matrices are bit-stable:

    trace-zero side:  diag(1, -1), (0, -1/N; 0, 0), (0, 0; 1, 0)
    scalar side:      I

In these bases the Gram matrices are the orthogonal sums <-2N> + H and
<-2N> + H + <2N>, H the hyperbolic plane, so their Smith normal forms are
(1, 1, 2N) and (1, 1, 2N, 2N): the discriminant groups are Z/2N and
(Z/2N)**2, of orders 2N and (2N)**2.  A `GramLattice` accepts only one of
the two pinned matrices, with its signature, so these closed forms always
describe its Gram matrix.  Everything is integer arithmetic; no floats.
"""

from __future__ import annotations

from dataclasses import dataclass

Matrix = tuple[tuple[int, ...], ...]

# signature of the pinned lattice of each rank
_SIGNATURES = {3: (1, 2), 4: (2, 2)}


def _pinned_gram(level: int, rank: int) -> Matrix | None:
    """Gram matrix of the pinned level-N basis of rank 3 or 4; None at any other rank."""
    n = level
    trace_zero = ((-2 * n, 0, 0), (0, 0, 1), (0, 1, 0))
    if rank == 3:
        return trace_zero
    if rank == 4:
        # the scalar-line block is (2N) since (a*I, a*I) = 2*N*a**2
        return tuple(row + (0,) for row in trace_zero) + ((0, 0, 0, 2 * n),)
    return None


@dataclass(frozen=True)
class GramLattice:
    """One of the two pinned level-N lattices, given by its Gram matrix."""

    rank: int
    gram: Matrix
    signature: tuple[int, int]
    level: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        if self.gram != _pinned_gram(self.level, self.rank) or self.signature != _SIGNATURES.get(self.rank):
            raise ValueError(
                "gram matrix and signature must be the pinned level-%d ones of rank 3 or 4" % self.level
            )

    def disc_group_order(self) -> int:
        """Order of dual/lattice quotient, |det(gram)| = (2N)**(rank - 2)."""
        return (2 * self.level) ** (self.rank - 2)

    def elementary_divisors(self) -> tuple[int, ...]:
        """Smith normal form diagonal of the Gram matrix: (1, 1, 2N) or (1, 1, 2N, 2N)."""
        return (1, 1) + (2 * self.level,) * (self.rank - 2)


def trace_zero_lattice(level: int) -> GramLattice:
    """Rank-3 lattice of integral trace-zero matrices, signature (1, 2).

    In the pinned basis the Gram matrix is [[-2N, 0, 0], [0, 0, 1], [0, 1, 0]];
    its discriminant group is cyclic of order 2N.
    """
    return GramLattice(rank=3, gram=_pinned_gram(level, 3), signature=_SIGNATURES[3], level=level)


def full_matrix_lattice(level: int) -> GramLattice:
    """Rank-4 orthogonal sum of the trace-zero lattice and the scalar line.

    The discriminant group has order (2N)**2.
    """
    return GramLattice(rank=4, gram=_pinned_gram(level, 4), signature=_SIGNATURES[4], level=level)


@dataclass(frozen=True)
class DiscElement:
    """Element of the rank-4 lattice's discriminant group as a residue pair mod 2N.

    r1 indexes the trace-zero component (r -> diag(r, -r)/2N), r2 the scalar
    component (r -> (r/2N)*I).  The pair determines and is determined by the
    diagonal matrix representative diag((r1+r2)/2N, (r2-r1)/2N); the
    splitting is unique.
    """

    level: int
    r1: int
    r2: int

    def __post_init__(self) -> None:
        if self.level < 1:
            raise ValueError("level must be a positive integer")
        m = 2 * self.level
        object.__setattr__(self, "r1", self.r1 % m)
        object.__setattr__(self, "r2", self.r2 % m)

    def is_zero(self) -> bool:
        return self.r1 == 0 and self.r2 == 0
