"""Shared helpers: seeded random ideals and fixture data."""

from __future__ import annotations

import random

from vecspread import (
    MonomialIdeal,
    SpreadVector,
    minimalize,
    monomial,
    parse_monomial,
    spread_monomials,
    strongly_stable_closure,
)


def ex_spread_ideal(n: int = 6):
    """First worked ideal: t = (1,0,2), four generators, ambient 6."""
    t = SpreadVector((1, 0, 2))
    gens = [parse_monomial(s, n)
            for s in ("x1", "x2*x3^2", "x2*x3*x4*x6", "x2*x4^2*x6")]
    return MonomialIdeal(gens, n), t


def ex_resolution_ideal(n: int = 4):
    """Second worked ideal: t = (1,0), three generators."""
    t = SpreadVector((1, 0))
    gens = [parse_monomial(s, n) for s in ("x1*x2", "x1*x3", "x1*x4^2")]
    return MonomialIdeal(gens, n), t


def random_spread_vector(rng: random.Random, max_len: int = 3,
                         max_entry: int = 2) -> SpreadVector:
    length = rng.randint(1, max_len)
    return SpreadVector(tuple(rng.randint(0, max_entry) for _ in range(length)))


def random_spread_monomials(rng: random.Random, n: int, t: SpreadVector,
                            count: int) -> list:
    """Up to `count` random t-spread monomials of positive degree."""
    picks = []
    for _ in range(count):
        degree = rng.randint(1, t.d)
        pool = spread_monomials(n, degree, t)
        if pool:
            picks.append(rng.choice(pool))
    return picks


def random_strongly_stable_ideal(rng: random.Random, n: int, t: SpreadVector,
                                 max_gens: int = 3) -> MonomialIdeal:
    """The strongly stable closure of a few random t-spread monomials."""
    seeds = random_spread_monomials(rng, n, t, rng.randint(1, max_gens))
    if not seeds:
        seeds = [monomial([n], n)]
    return strongly_stable_closure(seeds, t, ambient_n=n)


def random_monomial_ideal(rng: random.Random, n: int, max_degree: int = 3,
                          max_gens: int = 4) -> MonomialIdeal:
    """An arbitrary (not necessarily spread) monomial ideal."""
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        degree = rng.randint(1, max_degree)
        gens.append(monomial(sorted(rng.randint(1, n) for _ in range(degree)), n))
    return MonomialIdeal.from_generators(gens, n)


def multidegrees(total: int, parts: int):
    """Every exponent vector of length parts summing to total, ascending."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in multidegrees(total - first, parts - 1):
            yield (first,) + rest


def roadmap_workload(seed, sizes, max_gens):
    """The last of successive strongly stable draws for t = (1,1,0).  The
    ROADMAP workloads are W7 = (9, (6, 7), 2) and W8 = (1, (6, 8), 3)."""
    rng = random.Random(seed)
    t = SpreadVector((1, 1, 0))
    for n in sizes:
        ideal = random_strongly_stable_ideal(rng, n, t, max_gens=max_gens)
    return ideal, t
