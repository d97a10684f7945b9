"""Exact integer linear algebra and the shared multidegree engine.

Every matrix here holds int entries: the Koszul chains and the resolution
differentials they are read from carry int coefficients.  Ranks are taken
first modulo the fixed prime PRIME by `pivot_columns_mod_p`, and a modular
rank is used only where it is a one-sided certificate of the rank over Q:
reducing mod p can only lose rank, so a modular rank that reaches an upper
bound of the rational rank is that rank.  `FiniteComplex` and its
`augmented_rank` argue their bounds, and where a bound is not reached they
fall back to fraction-free (Bareiss) elimination over Z, `pivot_columns`
and `rank_int`.  No floating point and no rational arithmetic is involved
anywhere.

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

PRIME = 2 ** 31 - 1


def pivot_columns_mod_p(rows: Iterable[Sequence[int]]) -> list[int]:
    """Pivot columns of a row echelon form over F_p, p = PRIME.

    Every minor that is non-zero mod p is non-zero over Z, so the rank mod p
    of any set of columns is never above its rank over Q: the rank mod p is
    a lower bound, and the j-th pivot mod p never lies left of the j-th
    pivot of `pivot_columns`.  Entries are reduced mod p where they are
    tested or updated, so a row that is never updated is only copied.
    """
    p = PRIME
    work = [list(row) for row in rows if any(row)]
    pivots: list[int] = []
    if not work:
        return pivots
    last = len(work[0]) - 1
    for col in range(last + 1):
        rank = len(pivots)
        for r in range(rank, len(work)):
            if work[r][col] % p:
                break
        else:
            continue
        pivots.append(col)
        if rank + 1 == len(work) or col == last:
            break
        top = work[r]
        work[r] = work[rank]
        # row -= (row[col] / pivot) * top, past col: the rest is never read
        neg = p - pow(top[col], -1, p)
        for row in work[rank + 1:]:
            f = row[col] * neg % p
            if f:
                for c in range(col + 1, last + 1):
                    row[c] = (row[c] + f * top[c]) % p
    return pivots


def rank_mod_p(rows: Iterable[Sequence[int]]) -> int:
    """Rank over F_p, p = PRIME: a lower bound of the rank over Q."""
    return len(pivot_columns_mod_p(rows))


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
    i = 0..top+1, the two ends being zero maps, and ranks[i] its rank over Q.

    When the caller vouches that d o d = 0 over Q (is_complex), the ranks
    are taken mod p and kept if the homology h_p they give is non-zero in at
    most one position.  Then they are the ranks over Q: r_Q >= r_p gives
    h_Q <= h_p, d o d = 0 gives h_Q >= 0, and the Euler characteristic does
    not depend on the field, so h_Q = h_p, and r_Q = r_p follows by
    induction from r_0 = 0.  Otherwise every rank is recomputed over Z.
    """

    def __init__(self, sizes: Sequence[int], mats: Sequence[list[list[int]]],
                 *, is_complex: bool = True):
        self.sizes = list(sizes)
        self.mats = [[], *mats, [[] for _ in range(self.sizes[-1])]]
        if is_complex:
            self.ranks = [rank_mod_p(m) if m and m[0] else 0 for m in self.mats]
            if sum(1 for i in range(len(self.sizes)) if self.homology(i)) <= 1:
                return
        self.ranks = [rank_int(m) if m and m[0] else 0 for m in self.mats]

    def homology(self, i: int) -> int:
        """dim H_i = dim ker d_i - rank d_{i+1}, for 0 <= i <= top."""
        return self.sizes[i] - self.ranks[i] - self.ranks[i + 1]

    def augmented_rank(self, i: int, columns: Sequence[Sequence[int]]) -> int:
        """Rank over Q of d_{i+1} with dense columns over the basis of C_i
        appended.

        It is at most ranks[i + 1] + len(columns), so a rank mod p that
        reaches that bound is the rank over Q; below it, the rank is taken
        over Z.
        """
        rows = [row + [col[r] for col in columns]
                for r, row in enumerate(self.mats[i + 1])]
        bound = self.ranks[i + 1] + len(columns)
        if rank_mod_p(rows) == bound:
            return bound
        return rank_int(rows)
