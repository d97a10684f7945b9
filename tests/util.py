"""Shared helpers: seeded random ideals and fixture data."""

from __future__ import annotations

import random
from operator import add

from vecspread import (
    MonomialIdeal,
    SpreadVector,
    format_poly,
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


def grid(res, i):
    """The text of every cell of d_i, rows by columns, read off the
    `differential(i)` dict; an empty cell prints as format_poly({})."""
    d = res.differential(i)
    return [[format_poly(d.get((r, c), {})) for c in range(res.rank(i))]
            for r in range(res.rank(i - 1))]


def add_term(d, r, c, exps, coeff):
    """Add coeff * x^exps to entry (r, c) of a `differential(i)`-style dict,
    keeping no zero term and no empty entry."""
    poly = d.setdefault((r, c), {})
    new = poly.get(exps, 0) + coeff
    if new:
        poly[exps] = new
    else:
        poly.pop(exps, None)
        if not poly:
            del d[(r, c)]


def reference_compose(a, b):
    """The product a @ b (apply b first) of two `differential(i)` dicts
    {(r, c): {exponents: coefficient}}, expanded term by term with the
    exponent vectors added, so a Laurent term multiplies too; sums that
    cancel keep no term and no entry."""
    by_row = {}
    for (m, c), q in b.items():
        by_row.setdefault(m, []).append((c, q))
    out = {}
    for (r, m), p in a.items():
        for c, q in by_row.get(m, ()):
            for e1, c1 in p.items():
                for e2, c2 in q.items():
                    add_term(out, r, c, tuple(map(add, e1, e2)), c1 * c2)
    return out
