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
(Z/2N)**2, of orders 2N and (2N)**2.  A `GramLattice` is given by its rank
and level alone; its Gram matrix and signature follow from them, so these
closed forms always describe it.  Everything is integer arithmetic; no floats.
"""

from __future__ import annotations

from .arith import _check_level, _Record

Matrix = tuple[tuple[int, ...], ...]

# signature of the pinned lattice of each rank
_SIGNATURES = {3: (1, 2), 4: (2, 2)}


def _pinned_gram(level: int, rank: int) -> Matrix:
    """Gram matrix of the pinned level-N basis of rank 3 or 4."""
    n = level
    trace_zero = ((-2 * n, 0, 0), (0, 0, 1), (0, 1, 0))
    if rank == 3:
        return trace_zero
    # the scalar-line block is (2N) since (a*I, a*I) = 2*N*a**2
    return tuple(row + (0,) for row in trace_zero) + ((0, 0, 0, 2 * n),)


class GramLattice(_Record):
    """One of the two pinned level-N lattices, of rank 3 or 4.

    The Gram matrix and signature are those of the pinned basis, worked out
    from the rank and level, both `int`s.
    """

    _fields = ("rank", "gram", "signature", "level")

    def __init__(self, rank: int, level: int) -> None:
        _check_level(level)
        if type(rank) is not int or rank not in _SIGNATURES:
            raise ValueError("rank must be 3 or 4")
        self._store(rank, _pinned_gram(level, rank), _SIGNATURES[rank], level)

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
    return GramLattice(3, level)


def full_matrix_lattice(level: int) -> GramLattice:
    """Rank-4 orthogonal sum of the trace-zero lattice and the scalar line.

    The discriminant group has order (2N)**2.
    """
    return GramLattice(4, level)


class DiscElement(_Record):
    """Element of the rank-4 lattice's discriminant group as a residue pair mod 2N.

    r1 indexes the trace-zero component (r -> diag(r, -r)/2N), r2 the scalar
    component (r -> (r/2N)*I).  The pair determines and is determined by the
    diagonal matrix representative diag((r1+r2)/2N, (r2-r1)/2N); the
    splitting is unique.
    """

    _fields = ("level", "r1", "r2")

    def __init__(self, level: int, r1: int, r2: int) -> None:
        _check_level(level)
        if type(r1) is not int or type(r2) is not int:
            raise ValueError("r1 and r2 must be integers")
        m = 2 * level
        self._store(level, r1 % m, r2 % m)

    def is_zero(self) -> bool:
        return self.r1 == 0 and self.r2 == 0
