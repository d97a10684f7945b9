"""Exact integer linear algebra and the shared multidegree engine.

Ranks over Q are computed by fraction-free (Bareiss) elimination on int
rows, so no floating point and no rational arithmetic is involved anywhere.
Every matrix here holds int entries: the Koszul chains and the resolution
differentials they are read from carry int coefficients.

The Koszul complex of a monomial quotient and a multigraded free resolution
both split into finitely many strands, one per exponent vector a, and each
strand is a finite complex of vector spaces whose boundary matrices are
scalar (for the Koszul side it is the upper Koszul simplicial complex of a,
Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).  Only the
strands at lcms of generators (or of resolution labels) can differ from
their neighbours (Gasharov-Peeva-Welker, The lcm-lattice in monomial
resolutions), so the rank oracle, the cycle-basis sweep and the resolution
verifier all walk an lcm lattice generated by `lcm_lattice` and measure each
strand there as a `FiniteComplex`.  `multidegrees` walks the whole exponent
box of one degree, for the columns of gin's Macaulay matrices.
"""

from __future__ import annotations

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


def multidegrees(total: int, parts: int) -> Iterator[tuple[int, ...]]:
    """Every exponent vector of length parts summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multidegrees(total - first, parts - 1):
            yield (first,) + rest


def lcm_lattice(points: Iterable[Sequence[int]],
                max_degree: int) -> Iterator[tuple[int, ...]]:
    """The lcms (componentwise maxima) of the non-empty subsets of points
    with coordinate sum at most max_degree, each once, by ascending degree
    and, within a degree, in ascending tuple order (the order of
    `multidegrees`).

    Joining p with a point not below it raises the degree, and every partial
    lcm of a subset is below the whole, so the capped lcms are reached by
    joining one point at a time without leaving the cap, and a degree is
    complete once every lower degree has been joined.  Only the degrees not
    yet reached are held.

    Only join-irreducible points are join partners: a point m with m - e_j
    and m - e_k both in the set for some j != k is their join, so a join
    through m is reached through those two, without leaving the cap, and by
    induction on degree they are reached themselves.  m is still yielded.

    The walk runs on packed words: one field of w = (2 * max_degree)
    .bit_length() + 1 bits per coordinate, the first coordinate most
    significant, so int order is tuple order.  A join of two capped points
    has degree at most 2 * max_degree, so every field value and every
    partial sum of one word fits below the field's top bit, which is a
    guard bit, zero in every point.  With the guard bits H set in a,
    (a | H) - b borrows within each field only and keeps its guard bit
    exactly where a >= b, which selects the maximum field by field; the
    degree is the top field of the product with the all-ones word.  The
    guard bit also keeps m - e_j out of the set when m's field j is zero.
    """
    atoms = {tuple(p) for p in points if sum(p) <= max_degree}
    if not atoms:
        return
    n = len(next(iter(atoms)))
    w = (2 * max_degree).bit_length() + 1
    shifts = [w * (n - 1 - j) for j in range(n)]
    ones = sum(1 << s for s in shifts)
    guards = ones << (w - 1)
    values = guards - ones
    top = shifts[0] if n else 0
    field = (1 << w) - 1
    packed = {sum(c << s for c, s in zip(p, shifts)) for p in atoms}
    partners = [g for g in packed
                if sum(g - (1 << s) in packed for s in shifts) < 2]
    pending: dict[int, set[int]] = {}
    for p in packed:
        pending.setdefault(p * ones >> top & field, set()).add(p)
    for q in range(max_degree + 1):
        for p in sorted(pending.pop(q, ())):
            yield tuple(p >> s & field for s in shifts)
            high = p | guards
            for g in partners:
                ge = (high - g) & guards
                mask = ge - (ge >> (w - 1))
                m = (p & mask) | (g & (values ^ mask))
                d = m * ones >> top & field
                if q < d <= max_degree:
                    pending.setdefault(d, set()).add(m)


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
