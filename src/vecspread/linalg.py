"""Exact integer linear algebra and the shared multidegree engine.

Every matrix here holds int entries: the Koszul chains and the resolution
differentials they are read from carry int coefficients.  Ranks over Q come
from three kernels, each on rows packed into Python ints:

1. over F_2 by `rank_mod_2`, each row a bitmask of its odd entries;
2. over F_p, p = PRIME, by `pivot_columns_mod_p`, each row one int with a
   64-bit field per column;
3. over Z by fraction-free (Bareiss) elimination, `pivot_columns` and
   `rank_int`, on dense rows.

Complexes are ranked over F_2 and then over Z, and gin over F_p alone, so
each consumer has one modular field.  Reducing mod 2 or mod p can only lose
rank: a minor that is odd, or non-zero mod p, is non-zero over Z.  So a
modular rank is a lower bound of the rank over Q, and one that reaches an
upper bound of the rational rank is that rank.  `FiniteComplex` and its
`augmented_rank` argue their bounds over F_2, and only what F_2 does not
certify is ranked over Z.  No floating point and no rational arithmetic is
involved anywhere.

The Koszul complex of a monomial quotient and a multigraded free resolution
both split into finitely many strands, one per exponent vector a, and each
strand is a finite complex of vector spaces whose boundary matrices are
scalar (for the Koszul side it is the upper Koszul simplicial complex of a,
Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34).  Only the
strands at lcms of generators (or of resolution labels) can differ from
their neighbours (Gasharov-Peeva-Welker, The lcm-lattice in monomial
resolutions), so the rank oracle, the cycle-basis sweep and the resolution
verifier all walk an lcm lattice generated by `lcm_lattice` and measure each
strand there as a `FiniteComplex`.  The lattice joins each point not yet
found once with every point found before it, and holds the capped points
until it returns them sorted.  A strand is handed over as the GF(2) parity
rows of its boundary columns, with a callable that builds its sparse
integer columns only if a rank must be taken over Z.
"""

from __future__ import annotations

import sys
from array import array
from typing import Callable, Iterable, Iterator, Sequence

PRIME = 2 ** 31 - 1

# a sparse column: (row, value) pairs, each row at most once
Column = Sequence[tuple[int, int]]


def rank_mod_2(rows: Iterable[int]) -> int:
    """Rank over F_2 of rows packed as bitmasks, bit j holding column j.

    XOR elimination with the highest set bit as the pivot: a row is cleared
    by the kept row holding its highest set bit until that bit is new or
    the row is zero.  Each XOR clears the highest bit and sets only lower
    ones, so the kept rows have distinct highest bits and span the row
    space.  The pivot is keyed by `int.bit_length`, which reads only the
    top digit, so no wide int is hashed or negated.
    """
    pivots: dict[int, int] = {}
    for row in rows:
        while row:
            top = row.bit_length()
            other = pivots.get(top)
            if other is None:
                pivots[top] = row
                break
            row ^= other
    return len(pivots)


def pack_mod_p(row: Sequence[int]) -> int:
    """A dense row as one int: entry j reduced mod p in the 64-bit field at
    bit 64 j, the layout `pivot_columns_mod_p` reads."""
    return int.from_bytes(array("Q", [v % PRIME for v in row]).tobytes(),
                          sys.byteorder)


def pivot_columns_mod_p(rows: Iterable[int]) -> list[int]:
    """Pivot columns over F_p, p = PRIME, of rows packed as by `pack_mod_p`
    (fields reduced mod p), ascending.

    Every minor that is non-zero mod p is non-zero over Z, so the rank mod p
    of any set of columns is never above its rank over Q: the rank mod p is
    a lower bound, and the j-th pivot mod p never lies left of the j-th
    pivot of `pivot_columns`.

    Rows are reduced one at a time, as in `rank_mod_2`: the lowest non-zero
    field is the row's pivot, and the row is cleared there by the kept row
    with that pivot, row += f * top.  A field of row + f * top stays below
    p + p^2 < 2^62, so no carry crosses a field.  Two folds x -> (x mod 2^31)
    + (x >> 31), which keep x mod p as 2^31 = 1 mod p, bring each field to
    at most 2^31, and one conditional subtract brings it below p: the bit
    2^31 of x + 1 is set exactly when x >= p.  So a field is zero exactly
    when its entry is 0 mod p.  A zero column is never a pivot and leaves
    the pivot status of every other column as it is, so dropping the
    columns no row reaches changes no pivot but renumbers them.
    """
    p = PRIME
    rows = [row for row in rows if row]
    if not rows:
        return []
    fields = (max(row.bit_length() for row in rows) + 63) >> 6
    ones = ((1 << (fields << 6)) - 1) // ((1 << 64) - 1)
    low31 = ones * p  # p = 2^31 - 1 is the mask of a field's low 31 bits
    low33 = ones * ((1 << 33) - 1)
    pivots: dict[int, tuple[int, int]] = {}
    for row in rows:
        while row:
            shift = (row & -row).bit_length() - 1 & -64
            entry = row >> shift & p
            pivot = pivots.get(shift)
            if pivot is None:
                pivots[shift] = (row, p - pow(entry, -1, p))
                break
            top, neg = pivot
            row += entry * neg % p * top
            row = (row & low31) + (row >> 31 & low33)
            row = (row & low31) + (row >> 31 & low33)
            row -= (row + ones >> 31 & ones) * p
    return sorted(shift >> 6 for shift in pivots)


def rank_mod_p(rows: Iterable[int]) -> int:
    """Rank over F_p of packed rows: a lower bound of the rank over Q."""
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


def lcm_lattice(points: Iterable[Sequence[int]],
                max_degree: int) -> Iterator[tuple[int, ...]]:
    """The lcms (componentwise maxima) of the non-empty subsets of points
    with coordinate sum at most max_degree, each once, by ascending degree
    and, within a degree, in ascending tuple order.

    The points are taken one at a time in ascending order, each joined
    once with every point found so far: every partial lcm of a subset is
    below the whole, so the capped lcms of the first k points are those of
    the first k - 1, their joins with the k-th, and the k-th itself.  A
    point already found is a join of earlier ones, and is skipped: it adds
    nothing.  So each pair of a point taken and a point found is joined
    once, and every capped point is held until the walk returns, when the
    points are sorted.

    The walk runs on packed words: one field of w = (2 * max_degree)
    .bit_length() + 1 bits per coordinate, the first coordinate most
    significant, so int order is tuple order.  A join of two capped points
    has degree at most 2 * max_degree, so every field value and every
    partial sum of one word fits below the field's top bit, which is a
    guard bit, zero in every point.  With the guard bits H set in g,
    (g | H) - p borrows within each field only and keeps its guard bit ge
    exactly where g >= p; ge - (ge >> (w - 1)) fills those fields, a mask
    taking the maximum field by field, and the degree is the top field of
    the product with the all-ones word.
    """
    atoms = {tuple(p) for p in points if sum(p) <= max_degree}
    if not atoms:
        return
    n = len(next(iter(atoms)))
    w = (2 * max_degree).bit_length() + 1
    shifts = [w * (n - 1 - j) for j in range(n)]
    ones = sum(1 << s for s in shifts)
    guard = w - 1
    guards = ones << guard
    top = shifts[0] if n else 0
    field = (1 << w) - 1
    packed = {sum(c << s for c, s in zip(p, shifts)) for p in atoms}
    found: set[int] = set()
    for g in sorted(packed):
        if g in found:
            continue
        high = g | guards
        joins = {p ^ ((p ^ g) & (ge - (ge >> guard)))
                 for p in found for ge in ((high - p) & guards,)}
        found.update([m for m in joins - found
                      if m * ones >> top & field <= max_degree])
        found.add(g)
    for p in sorted(found, key=lambda p: (p * ones >> top & field, p)):
        yield tuple(p >> s & field for s in shifts)


class FiniteComplex:
    """A complex 0 -> C_top -> ... -> C_1 -> C_0 -> 0 of based Q-spaces.

    sizes[i] = dim C_i.  d_i (1 <= i <= top) is given twice:
    - rows[i - 1] holds its columns as GF(2) parity rows, bit r set when
      the entry in row r is odd.  The rows may number the basis of C_{i-1}
      by any injective labelling: a relabelling of coordinates does not
      change a rank.
    - columns(i) returns its sizes[i] sparse int columns, in the order of
      rows[i - 1], over the basis of C_{i-1} numbered 0..sizes[i-1] - 1.
      It is called only when a rank must be taken over Z, at most once
      per i.
    ranks[i] is the rank over Q of d_i for i = 0..top+1, the two ends being
    zero maps.

    When the caller vouches that d o d = 0 over Q (is_complex), the ranks
    are taken over F_2, and kept if the homology h_2 they give is non-zero
    in at most one position.  Then they are the ranks over Q: an odd minor
    is non-zero over Z, so r_Q >= r_2 and h_Q <= h_2; d o d = 0 gives h_Q >=
    0, and the Euler characteristic does not depend on the field, so h_Q =
    h_2, and r_Q = r_2 follows by induction from r_0 = 0.  2-torsion can put
    h_2 in two positions; then, and for any map that is not vouched for,
    the ranks are taken over Z on dense rows.
    """

    def __init__(self, sizes: Sequence[int], rows: Sequence[Sequence[int]],
                 columns: Callable[[int], Sequence[Column]], *,
                 is_complex: bool = True):
        self.sizes = list(sizes)
        self.rows = [[], *rows, []]
        self._columns = columns
        self._exact: dict[int, Sequence[Column]] = {}
        if is_complex:
            self.ranks = [rank_mod_2(r) for r in self.rows]
            if sum(1 for i in range(len(self.sizes)) if self.homology(i)) <= 1:
                return
        self.ranks = [_rank_z(self.columns(i)) for i in range(len(self.rows))]

    def columns(self, i: int) -> Sequence[Column]:
        """d_i as sparse int columns, built on first use; the two end maps
        have none."""
        if not 0 < i < len(self.sizes):
            return []
        cols = self._exact.get(i)
        if cols is None:
            cols = self._exact[i] = self._columns(i)
        return cols

    def homology(self, i: int) -> int:
        """dim H_i = dim ker d_i - rank d_{i+1}, for 0 <= i <= top."""
        return self.sizes[i] - self.ranks[i] - self.ranks[i + 1]

    def augmented_rank(self, i: int, rows: Sequence[int],
                       columns: Callable[[], Sequence[Column]]) -> int:
        """Rank over Q of d_{i+1} with extra columns over the basis of C_i
        appended, given as d_{i+1} is: their parity rows, in the labelling
        of rows[i + 1], and a callable returning them as sparse int columns.

        It is at most ranks[i + 1] + len(rows), so a rank over F_2 that
        reaches that bound is the rank over Q, and the exact columns are
        never built; below it, the rank is taken over Z.
        """
        bound = self.ranks[i + 1] + len(rows)
        if rank_mod_2([*self.rows[i + 1], *rows]) == bound:
            return bound
        return _rank_z([*self.columns(i + 1), *columns()])


# the exact tier on sparse columns: a matrix and its transpose have one
# rank, so each column is written as a dense row

def _rank_z(columns: Sequence[Column]) -> int:
    width = 1 + max((r for col in columns for r, _ in col), default=-1)
    if not width:
        return 0
    rows = []
    for col in columns:
        row = [0] * width
        for r, v in col:
            row[r] = v
        rows.append(row)
    return rank_int(rows)
