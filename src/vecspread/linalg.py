"""Exact integer linear algebra and the shared multidegree engine.

Ranks are computed by fraction-free (Bareiss) elimination on integer rows,
so no floating point and no rational arithmetic is involved anywhere.

The Koszul complex of a monomial quotient and a multigraded free resolution
both split into finitely many strands, one per exponent vector a, and each
strand is a finite complex of vector spaces whose boundary matrices are
scalar (for the Koszul side it is the upper Koszul simplicial complex of a,
Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).  The rank
oracle, the cycle-basis sweep and the resolution verifier all walk the
multidegrees with `multidegrees` and measure each strand as a
`FiniteComplex`.
"""

from __future__ import annotations

from math import lcm
from typing import Iterable, Iterator, Sequence

def pivot_columns(rows: Iterable[Sequence[int]]) -> list[int]:
    """Pivot columns of a row echelon form, by fraction-free elimination.

    Column j is a pivot exactly when it is not in the span of the columns
    before it, so the pivots depend only on the row space and the column
    order: with columns in descending monomial order they are the leading
    monomials of the row space.
    """
    work = [list(r) for r in rows if any(r)]
    if not work:
        return []
    ncols = len(work[0])
    pivots: list[int] = []
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(work)):
            if work[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        work[rank], work[pivot_row] = work[pivot_row], work[rank]
        pivot = work[rank][col]
        for r in range(rank + 1, len(work)):
            factor = work[r][col]
            row = work[r]
            top = work[rank]
            # Bareiss updates every lower row so the exact divisions stay exact
            for c in range(col, ncols):
                row[c] = (pivot * row[c] - factor * top[c]) // prev
        prev = pivot
        pivots.append(col)
        rank += 1
        if rank == len(work):
            break
    return pivots


def rank_int(rows: Iterable[Sequence[int]]) -> int:
    """Rank of an integer matrix by fraction-free Gaussian elimination."""
    return len(pivot_columns(rows))


def integer_column(entries: Iterable[tuple[int, object]]) -> list[tuple[int, int]]:
    """(row, rational) pairs times the lcm of their denominators.

    A non-zero multiple of a column spans the same line, so every rank taken
    with it is unchanged; coefficients may be int or rational.
    """
    entries = list(entries)
    scale = lcm(*(value.denominator for _, value in entries))
    return [(r, value.numerator * (scale // value.denominator))
            for r, value in entries]


def multidegrees(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every exponent vector of length parts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multidegrees(total - first, parts - 1):
            yield (first,) + rest


class FiniteComplex:
    """A complex 0 -> C_top -> ... -> C_1 -> C_0 -> 0 of based Q-spaces.

    sizes[i] = dim C_i, and the i-th given matrix (i >= 1) is d_i as
    sizes[i - 1] dense int rows of length sizes[i].  mats[i] is d_i for
    i = 0..top+1, the two ends being zero maps, and ranks[i] its rank.
    """

    def __init__(self, sizes: Sequence[int], mats: Sequence[list[list[int]]]):
        self.sizes = list(sizes)
        self.mats = [[], *mats, [[] for _ in range(self.sizes[-1])]]
        self.ranks = [rank_int(m) if m and m[0] else 0 for m in self.mats]

    def homology(self, i: int) -> int:
        """dim H_i = dim ker d_i - rank d_{i+1}, for 0 <= i <= top."""
        return self.sizes[i] - self.ranks[i] - self.ranks[i + 1]

    def augmented_rank(self, i: int, columns: Sequence[Sequence[int]]) -> int:
        """Rank of d_{i+1} with dense columns over the basis of C_i appended."""
        return rank_int([row + [col[r] for col in columns]
                         for r, row in enumerate(self.mats[i + 1])])
