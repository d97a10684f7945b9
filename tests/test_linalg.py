"""The lcm-lattice generator against brute force."""

from __future__ import annotations

import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from util import random_spread_vector, random_strongly_stable_ideal
from vecspread.koszul import spread_labels
from vecspread.linalg import lcm_lattice


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
