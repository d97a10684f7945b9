"""The lcm-lattice generator against brute force, and the modular rank
certificates, over F_2 and mod p, against exact ranks."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations, product
from math import lcm
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import random_spread_vector, random_strongly_stable_ideal
from vecspread.koszul import spread_labels
from vecspread import linalg
from vecspread.linalg import (
    PRIME,
    FiniteComplex,
    lcm_lattice,
    pack_mod_p,
    pivot_columns,
    pivot_columns_mod_p,
    rank_int,
    rank_mod_2,
    rank_mod_p,
)


def brute_lcms(points, max_degree):
    """lcms of all non-empty subsets with degree <= max_degree."""
    found = set()
    for size in range(1, len(points) + 1):
        for subset in combinations(points, size):
            m = tuple(max(column) for column in zip(*subset))
            if sum(m) <= max_degree:
                found.add(m)
    return sorted(found, key=lambda m: (sum(m), m))


def test_lcm_lattice_matches_subset_lcms():
    rng = random.Random(41)
    for _ in range(60):
        n = rng.randint(1, 4)
        points = [tuple(rng.randint(0, 3) for _ in range(n))
                  for _ in range(rng.randint(1, 7))]
        points.append(rng.choice(points))  # a repeated point
        max_degree = rng.randint(0, 3 * n)
        got = list(lcm_lattice(points, max_degree))
        assert got == brute_lcms(points, max_degree), (points, max_degree)


def test_lcm_lattice_edges():
    assert list(lcm_lattice([], 5)) == []
    assert list(lcm_lattice([(1, 2)], 2)) == []
    assert list(lcm_lattice([(0, 0)], 0)) == [(0, 0)]
    assert list(lcm_lattice([(1, 0), (0, 1)], -1)) == []


def label_multidegrees(seed):
    """The distinct multidegrees of every cycle label of a seeded strongly
    stable ideal: the point set the resolution verifier walks."""
    rng = random.Random(seed)
    n = rng.randint(3, 4)
    t = random_spread_vector(rng, 2, 1)
    ideal = random_strongly_stable_ideal(rng, n, t, 2)
    return sorted({lab.multidegree() for i in range(1, n + 1)
                   for lab in spread_labels(ideal, t, i)})


# brute force is exponential in the number of points: the ideals with at
# most 15 label multidegrees among the first 40 seeds
LABEL_SEEDS = [s for s in range(40) if len(label_multidegrees(s)) <= 15]


@pytest.mark.parametrize("seed", LABEL_SEEDS)
def test_lcm_lattice_on_label_multidegrees(seed):
    points = label_multidegrees(seed)
    top = sum(map(max, zip(*points)))
    every = brute_lcms(points, top)  # a capped lattice is a prefix of it
    for max_degree in range(top + 2):
        assert list(lcm_lattice(points, max_degree)) == [
            m for m in every if sum(m) <= max_degree], (points, max_degree)


def test_lcm_lattice_square_with_its_join():
    # e1 + e2 is the join of e1 and e2, which are both in the set
    points = [(0, 0), (1, 0), (0, 1), (1, 1)]
    for max_degree in range(4):
        assert list(lcm_lattice(points, max_degree)) == brute_lcms(
            points, max_degree)


@pytest.mark.parametrize("n", [1, 2, 3, 8])
@pytest.mark.parametrize("max_degree", range(13))
def test_lcm_lattice_coordinate_at_the_cap(n, max_degree):
    rng = random.Random(1000 * n + max_degree)
    for _ in range(4):
        points = []
        for _ in range(rng.randint(1, 6)):
            p = [0] * n
            for _ in range(rng.randint(0, max_degree)):
                p[rng.randrange(n)] += 1
            points.append(tuple(p))
        # one point with all its degree on one coordinate
        k = rng.randrange(n)
        points.append(tuple(max_degree if j == k else 0 for j in range(n)))
        assert list(lcm_lattice(points, max_degree)) == brute_lcms(
            points, max_degree), (points, max_degree)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.lists(
           st.tuples(*[st.integers(0, 6)] * n), min_size=1, max_size=7)),
       st.integers(-1, 14))
def test_lcm_lattice_property(points, max_degree):
    assert list(lcm_lattice(points, max_degree)) == brute_lcms(points,
                                                              max_degree)


@st.composite
def down_closed_points(draw):
    """A down-closed point set, where most points are the join of two
    points below them, cut to its first points by (degree, tuple), which
    keeps it down-closed, plus up to two arbitrary points: at most 12 in
    all, so that brute force stays at 4,095 subsets."""
    n = draw(st.integers(1, 4))
    tops = draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                         min_size=1, max_size=3))
    extra = draw(st.lists(st.tuples(*[st.integers(0, 4)] * n), max_size=2))
    closed = sorted({p for top in tops
                     for p in product(*(range(c + 1) for c in top))},
                    key=lambda p: (sum(p), p))
    return draw(st.permutations(closed[:12 - len(extra)] + extra))


@settings(max_examples=100, deadline=None)
@given(down_closed_points())
def test_lcm_lattice_on_down_closed_sets(points):
    top = sum(map(max, zip(*points)))
    every = brute_lcms(points, top)
    for max_degree in range(-1, top + 2):
        assert list(lcm_lattice(points, max_degree)) == [
            m for m in every if sum(m) <= max_degree], (points, max_degree)


# -- modular ranks as one-sided certificates -----------------------------------


def columns(mat, ncols=None):
    """A dense matrix as the sparse (row, value) columns FiniteComplex
    builds lazily."""
    ncols = len(mat[0]) if ncols is None else ncols
    return [[(r, row[c]) for r, row in enumerate(mat) if row[c]]
            for c in range(ncols)]


def sparse(col):
    return [(r, v) for r, v in enumerate(col) if v]


def parity(cols):
    """Sparse columns as the GF(2) parity rows FiniteComplex takes."""
    return [sum(1 << r for r, v in col if v & 1) for col in cols]


def complex_of(sizes, mats, built=None, **kwargs):
    """The complex of the dense matrices d_1, d_2, ...: parity rows, and the
    sparse columns on request, each request of d_i appended to `built`."""
    cols = [columns(m, sizes[i + 1]) for i, m in enumerate(mats)]

    def exact(i):
        if built is not None:
            built.append(i)
        return cols[i - 1]

    return FiniteComplex(sizes, [parity(c) for c in cols], exact, **kwargs)


def augmented(cx, i, cols):
    return cx.augmented_rank(i, parity(cols), lambda: cols)


def packed_pivots(mat):
    return pivot_columns_mod_p(map(pack_mod_p, mat))


def packed_rank(mat):
    return rank_mod_p(map(pack_mod_p, mat))


def odd_rank(mat):
    """Rank over F_2, each row packed as the bitmask of its odd entries."""
    return rank_mod_2(sum(1 << c for c, v in enumerate(row) if v & 1)
                      for row in mat)


def list_pivot_columns_mod_p(rows):
    """Pivot columns over F_p by elimination on lists of entries: the
    reference route for the packed kernel."""
    p = PRIME
    work = [list(row) for row in rows if any(row)]
    pivots = []
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


@pytest.fixture
def exact_calls(monkeypatch):
    """The row lists handed to the exact fallback rank_int."""
    calls = []

    def counted(rows):
        rows = [list(r) for r in rows]
        calls.append(rows)
        return rank_int(rows)

    monkeypatch.setattr(linalg, "rank_int", counted)
    return calls


@pytest.fixture
def mod_p_calls(monkeypatch):
    """The packed rows handed to the mod-p kernel, which serves gin alone:
    complexes must never call it."""
    calls = []

    def counted(rows):
        rows = list(rows)
        calls.append(rows)
        return rank_mod_p(rows)

    monkeypatch.setattr(linalg, "rank_mod_p", counted)
    return calls


@pytest.fixture
def f2_blind(monkeypatch):
    """The stack with an F_2 tier that sees nothing: a rank of 0 is a lower
    bound that certifies only zero maps."""
    monkeypatch.setattr(linalg, "rank_mod_2", lambda rows: 0)


# integer matrices that lose rank mod PRIME
TORSION = [[[PRIME]], [[1, 1], [1, 1 + PRIME]], [[2 * PRIME, 0], [0, 0]]]
# integer matrices that lose rank mod 2 but not mod PRIME: the complexes'
# one modular tier misses them
TWO_TORSION = [[[2]], [[1, 1], [1, -1]]]
# integer matrices that lose rank both mod 2 and mod PRIME
BOTH_TORSION = [[[2 * PRIME, 0], [0, 0]], [[2, 0], [0, PRIME]]]


@pytest.mark.parametrize("mat", TORSION)
def test_rank_mod_p_is_a_lower_bound(mat):
    assert packed_rank(mat) == rank_int(mat) - 1
    assert packed_rank([[x + PRIME for x in row] for row in mat]) == \
        packed_rank(mat)


@pytest.mark.parametrize("mat", TWO_TORSION + BOTH_TORSION)
def test_rank_mod_2_is_a_lower_bound(mat):
    assert odd_rank(mat) == rank_int(mat) - 1
    assert odd_rank([[x + 2 for x in row] for row in mat]) == odd_rank(mat)


def test_rank_mod_2_edges():
    assert rank_mod_2([]) == 0
    assert rank_mod_2([0, 0]) == 0
    assert rank_mod_2([0b11, 0b110, 0b101]) == 2  # the rows sum to 0 mod 2
    assert rank_mod_2([0b100, 0b10, 0b1]) == 3
    assert rank_mod_2([1 << 200, (1 << 200) | 1]) == 2


def test_pivot_columns_mod_p_edges():
    rows = [[2, 4, 1, 0], [1, 2, 0, 1], [3, 6, 1, 1]]
    assert packed_pivots(rows) == pivot_columns(rows) == [0, 2]
    assert pivot_columns_mod_p([]) == []
    assert packed_pivots([[], []]) == []
    assert packed_pivots([[0, PRIME], [-PRIME, 0]]) == []
    assert packed_pivots([[0, 0, -1], [0, 3, 5]]) == [1, 2]
    # p-torsion delays a pivot: (1, 1 + p) is (1, 1) mod p
    assert packed_pivots([[1, 1, 0], [1, 1 + PRIME, 1]]) == [0, 2]
    assert pivot_columns([[1, 1, 0], [1, 1 + PRIME, 1]]) == [0, 1]
    # entries at the edge of a field: p - 1 squared is the largest product
    assert packed_pivots([[PRIME - 1, PRIME - 1], [1, PRIME - 1]]) == [0, 1]
    assert packed_pivots([[PRIME - 1, 1], [1, PRIME - 1]]) == [0]
    assert pack_mod_p([-1, PRIME, 2 * PRIME + 1]) == PRIME - 1 + (1 << 128)


@pytest.mark.parametrize("mat", TORSION)
def test_torsion_complex_takes_the_exact_path(mat, f2_blind, exact_calls):
    # 0 -> Z^c -> Z^r -> 0 is exact over Q, but under a rank of 0 both ends
    # carry homology, so the blind ranks certify nothing
    cx = complex_of([len(mat), len(mat[0])], [mat])
    assert exact_calls
    assert cx.ranks == [0, rank_int(mat), 0]
    assert [cx.homology(i) for i in range(2)] == [
        len(mat) - rank_int(mat), len(mat[0]) - rank_int(mat)]


@pytest.mark.parametrize("mat", TORSION[:2])
def test_p_torsion_is_certified_over_f2(mat, mod_p_calls, exact_calls):
    # the same matrices are odd where it matters: F_2 sees their full rank
    cx = complex_of([len(mat), len(mat[0])], [mat])
    assert cx.ranks == [0, rank_int(mat), 0]
    assert not mod_p_calls and not exact_calls


@pytest.mark.parametrize("mat", TWO_TORSION)
def test_two_torsion_falls_through_to_bareiss(mat, mod_p_calls, exact_calls):
    # over F_2 both ends carry homology, and no second modular field is tried
    cx = complex_of([len(mat), len(mat[0])], [mat])
    assert cx.ranks == [0, rank_int(mat), 0]
    assert exact_calls == [[list(row) for row in zip(*mat)]]
    assert not mod_p_calls


@pytest.mark.parametrize("mat", BOTH_TORSION)
def test_torsion_at_two_and_p_reaches_bareiss(mat, mod_p_calls, exact_calls):
    cx = complex_of([len(mat), len(mat[0])], [mat])
    assert cx.ranks == [0, rank_int(mat), 0]
    assert exact_calls and not mod_p_calls


def test_exact_complex_needs_no_fallback(exact_calls):
    # the full simplex on two vertices: C_2 -> C_1 -> C_0, exact but at 0
    cx = complex_of([1, 2, 1], [[[1, 1]], [[-1], [1]]])
    assert cx.ranks == [0, 1, 1, 0]
    assert [cx.homology(i) for i in range(3)] == [0, 0, 0]
    assert not exact_calls


def test_non_complex_is_ranked_exactly(exact_calls):
    # d1 d2 = 2 != 0: over F_2 the homology sits in degree 0 alone, which
    # would certify rank d1 = 0; without d o d = 0 nothing is certified
    cx = complex_of([1, 1, 1], [[[2]], [[1]]], is_complex=False)
    assert cx.ranks == [0, 1, 1, 0]
    assert exact_calls


@pytest.mark.parametrize("mat", TORSION)
def test_torsion_augmented_rank_takes_the_exact_path(mat, f2_blind,
                                                     exact_calls):
    # C_0 alone, with the matrix's columns appended to the zero map d_1
    cx = complex_of([len(mat)], [])
    assert not exact_calls
    assert augmented(cx, 0, columns(mat)) == rank_int(mat)
    assert exact_calls


@pytest.mark.parametrize("mat", BOTH_TORSION)
def test_both_torsion_augmented_rank_reaches_bareiss(mat, exact_calls):
    cx = complex_of([len(mat)], [])
    assert not exact_calls
    assert augmented(cx, 0, columns(mat)) == rank_int(mat)
    assert exact_calls


@pytest.mark.parametrize("mat", TWO_TORSION)
def test_two_torsion_augmented_rank_reaches_bareiss(mat, mod_p_calls,
                                                    exact_calls):
    cx = complex_of([len(mat)], [])
    assert augmented(cx, 0, columns(mat)) == rank_int(mat)
    assert exact_calls and not mod_p_calls


@pytest.mark.parametrize("mat", TORSION[:2])
def test_one_torsion_augmented_rank_is_certified(mat, mod_p_calls,
                                                 exact_calls):
    # p-torsion is odd where it matters: F_2 reaches the bound
    cx = complex_of([len(mat)], [])
    assert augmented(cx, 0, columns(mat)) == rank_int(mat)
    assert not mod_p_calls and not exact_calls


def test_full_augmented_rank_needs_no_fallback(exact_calls):
    cx = complex_of([1, 2, 1], [[[1, 1]], [[-1], [1]]])
    assert augmented(cx, 0, []) == 1
    assert augmented(cx, 1, [sparse([1, 0])]) == 2
    assert not exact_calls
    # a dependent column cannot reach the bound: that is decided exactly
    assert augmented(cx, 1, [sparse([-PRIME, PRIME])]) == 1
    assert exact_calls


def test_exact_columns_are_built_only_for_ranks_over_z(exact_calls):
    # the full simplex on two vertices is certified over F_2, with or
    # without a column appended: no sparse column is ever built
    built = []
    cx = complex_of([1, 2, 1], [[[1, 1]], [[-1], [1]]], built)
    assert cx.ranks == [0, 1, 1, 0]
    assert cx.augmented_rank(1, [0b01], lambda: built.append("extra")) == 2
    assert not built and not exact_calls
    # 2-torsion: d_1 is built once, for its rank over Z, and an augmented
    # rank that F_2 cannot certify reuses it
    cx = complex_of([2, 2], [[[1, 1], [1, -1]]], built)
    assert cx.ranks == [0, 2, 0] and built == [1]
    assert augmented(cx, 0, [sparse([2, 0])]) == 2
    assert built == [1] and len(exact_calls) == 2
def integer_kernel(mat, ncols):
    """Integer vectors spanning the kernel of mat over Q."""
    rows = [[Fraction(x) for x in row] for row in mat]
    pivots = []
    for col in range(ncols):
        r = next((r for r in range(len(pivots), len(rows)) if rows[r][col]),
                 None)
        if r is None:
            continue
        rows[len(pivots)], rows[r] = rows[r], rows[len(pivots)]
        top = rows[len(pivots)]
        top[:] = [x / top[col] for x in top]
        for k, row in enumerate(rows):
            if k != len(pivots) and row[col]:
                row[:] = [a - row[col] * b for a, b in zip(row, top)]
        pivots.append(col)
    basis = []
    for free in (c for c in range(ncols) if c not in pivots):
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for r, col in enumerate(pivots):
            vec[col] = -rows[r][free]
        scale = lcm(*(x.denominator for x in vec))
        basis.append([int(x * scale) for x in vec])
    return basis


# small entries, and multiples and near-multiples of p for torsion
ENTRIES = st.one_of(st.integers(-2, 2),
                    st.sampled_from([PRIME, -PRIME, 2 * PRIME, PRIME + 1]))


@st.composite
def integer_complexes(draw):
    """sizes and matrices of a random complex of free Z-modules: each column
    of d_i is an integer combination of a kernel basis of d_{i-1}."""
    length = draw(st.integers(1, 3))
    sizes = [draw(st.integers(0, 4)) for _ in range(length + 1)]
    kernel = [[int(r == c) for r in range(sizes[0])] for c in range(sizes[0])]
    mats = []
    for i in range(1, length + 1):
        coeffs = [[draw(ENTRIES) for _ in range(sizes[i])] for _ in kernel]
        mat = [[sum(v[r] * coeffs[j][c] for j, v in enumerate(kernel))
                for c in range(sizes[i])] for r in range(sizes[i - 1])]
        mats.append(mat)
        kernel = integer_kernel(mat, sizes[i])
    return sizes, mats


def dense_boundary(sizes, mats, i):
    """d_{i+1} as dense rows over C_i, the zero map past the top."""
    return mats[i] if i < len(mats) else [[] for _ in range(sizes[i])]


def assert_certified_ranks_are_exact(sizes, mats, data):
    cx = complex_of(sizes, mats)
    assert cx.ranks == [0, *(rank_int(m) for m in mats), 0]
    i = data.draw(st.integers(0, len(sizes) - 1))
    extra = data.draw(st.lists(
        st.lists(ENTRIES, min_size=sizes[i], max_size=sizes[i]), max_size=3))
    rows = [row + [col[r] for col in extra]
            for r, row in enumerate(dense_boundary(sizes, mats, i))]
    assert augmented(cx, i, [sparse(col) for col in extra]) == rank_int(rows)


@settings(max_examples=200, deadline=None)
@given(integer_complexes(), st.data())
def test_certified_ranks_are_exact(complex_, data):
    assert_certified_ranks_are_exact(*complex_, data)


@settings(max_examples=100, deadline=None)
@given(integer_complexes(), st.data())
def test_blind_f2_tier_still_gives_exact_ranks(complex_, data):
    # a rank of 0 certifies only zero maps; everything else reaches Bareiss
    with patch.object(linalg, "rank_mod_2", lambda rows: 0):
        assert_certified_ranks_are_exact(*complex_, data)


MATRICES = st.integers(0, 5).flatmap(lambda c: st.lists(
    st.lists(ENTRIES, min_size=c, max_size=c), max_size=5))


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_rank_mod_p_bounds_rank_int(mat):
    assert packed_rank(mat) <= rank_int(mat)
    small = [[x if abs(x) <= 2 else 1 for x in row] for row in mat]
    # every minor of a 5 x 5 matrix with entries in -2..2 is below p
    assert packed_pivots(small) == pivot_columns(small)


def list_rank_mod_2(rows):
    """Rank over F_2 by elimination on lists of entries."""
    work = [[v & 1 for v in row] for row in rows]
    rank = 0
    for col in range(len(work[0]) if work else 0):
        r = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if r is None:
            continue
        work[rank], work[r] = work[r], work[rank]
        for row in work[rank + 1:]:
            if row[col]:
                row[:] = [a ^ b for a, b in zip(row, work[rank])]
        rank += 1
    return rank


@settings(max_examples=200, deadline=None)
@given(MATRICES)
def test_rank_mod_2_bounds_rank_int(mat):
    assert odd_rank(mat) == list_rank_mod_2(mat) <= rank_int(mat)


# entries at every edge of the packed kernel's fields
KERNEL_ENTRIES = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([PRIME, -PRIME, 3 * PRIME, PRIME - 1, 1 - PRIME,
                     2 * PRIME + 1, -2 * PRIME - 1, 2 ** 64, -(2 ** 70)]),
    st.integers(-2 ** 80, 2 ** 80))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 9).flatmap(lambda c: st.lists(
    st.one_of(st.just([0] * c),
              st.lists(KERNEL_ENTRIES, min_size=c, max_size=c)),
    max_size=9)))
def test_packed_kernel_matches_list_kernel(mat):
    assert packed_pivots(mat) == list_pivot_columns_mod_p(mat)
