"""The lcm-lattice generator against brute force."""

from __future__ import annotations

import random
from itertools import combinations

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
