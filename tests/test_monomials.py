"""Monomial arithmetic, orders, spread predicates, and enumeration."""

from __future__ import annotations

import copy
import math
import pickle
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecspread import (
    Monomial,
    SpreadVector,
    compare,
    count_spread_monomials,
    degrevlex_key,
    format_exponents,
    format_monomial,
    free_indices,
    is_spread,
    lex_key,
    monomial,
    next_support_index,
    parse_monomial,
    plex_key,
    spread,
    spread_monomials,
    spread_support,
    unit,
    variable,
)


# -- construction and arithmetic --------------------------------------------


def test_monomial_basic_attributes():
    m = monomial([3, 1, 1], 4)
    assert m.indices == (1, 1, 3)
    assert m.degree == 3
    assert m.support == (1, 3)
    assert m.exponents == (2, 0, 1, 0)
    assert m.max_index == 3
    assert m.min_index == 1
    assert not m.is_unit


def test_unit_monomial():
    one = unit(5)
    assert one.is_unit
    assert one.degree == 0
    assert one.exponents == (0,) * 5
    assert format_monomial(one) == "1"


def test_copy_and_pickle_round_trips():
    # Monomial refuses attribute writes, so copy and pickle rebuild it
    # through __init__; the types holding monomials follow
    from vecspread import CycleLabel, MonomialIdeal, build_resolution
    ideal = MonomialIdeal([parse_monomial(s, 4)
                           for s in ("x1*x2", "x1*x3", "x1*x4^2")], 4)
    u = ideal.generators[2]
    views = [
        (u, lambda m: (m.indices, m.ambient_n, m.exponents, hash(m))),
        (ideal, lambda i: (i.generators, i.ambient_n, i.contains(u.times_var(4)))),
        (CycleLabel(u, (2, 3)), lambda lab: (lab, str(lab), lab.multidegree())),
        (build_resolution(ideal, (1, 0)), lambda res: res.to_json_obj()),
    ]
    for obj, view in views:
        for twin in (copy.copy(obj), copy.deepcopy(obj),
                     pickle.loads(pickle.dumps(obj))):
            assert type(twin) is type(obj)
            assert view(twin) == view(obj)


def test_monomial_rejects_bad_indices():
    with pytest.raises(ValueError):
        Monomial((0, 1), 3)
    with pytest.raises(ValueError):
        Monomial((1, 4), 3)
    with pytest.raises(ValueError):
        Monomial((2, 1), 3)  # not weakly increasing


def test_mul_divide_roundtrip():
    u = parse_monomial("x1*x2^2", 4)
    v = parse_monomial("x2*x4", 4)
    w = u.mul(v)
    assert w == parse_monomial("x1*x2^3*x4", 4)
    assert u.divides(w)
    assert w.divide(u) == v
    assert not v.divides(u)
    with pytest.raises(ValueError):
        v.divide(u)  # u not divisible by v


def test_times_over_var():
    u = parse_monomial("x1*x3", 4)
    assert u.times_var(2) == parse_monomial("x1*x2*x3", 4)
    assert u.over_var(3) == parse_monomial("x1", 4)
    with pytest.raises(ValueError):
        u.over_var(2)


def test_exponent_of():
    u = parse_monomial("x1^2*x3", 4)
    assert u.exponent_of(1) == 2
    assert u.exponent_of(2) == 0
    assert u.exponent_of(3) == 1


def test_equality_ignores_nothing():
    # same indices, same ambient: equal and hash-equal
    assert monomial([1, 2], 3) == monomial([2, 1], 3)
    assert hash(monomial([1, 2], 3)) == hash(monomial([1, 2], 3))


# -- parse / format ----------------------------------------------------------


def test_parse_format_golden():
    assert format_monomial(parse_monomial("x1^2*x3", 4)) == "x1^2*x3"
    assert parse_monomial("1", 6).is_unit
    assert parse_monomial("  x2 * x2 ", 3) == parse_monomial("x2^2", 3)


@pytest.mark.parametrize("bad", ["x0", "y2", "x2^0", "x1^-1", "x", "x1**x2", ""])
def test_parse_rejects(bad):
    with pytest.raises(ValueError):
        parse_monomial(bad, 5)


def test_parse_rejects_out_of_range():
    with pytest.raises(ValueError):
        parse_monomial("x7", 6)


@given(st.lists(st.integers(1, 6), min_size=0, max_size=5))
def test_parse_format_roundtrip(indices):
    m = monomial(indices, 6)
    assert parse_monomial(format_monomial(m), 6) == m


def reference_format_monomial(m):
    """The reference printer: a walk of the index sequence, counting repeats."""
    if m.is_unit:
        return "1"
    parts = []
    seen = {}
    for j in m.indices:
        seen[j] = seen.get(j, 0) + 1
    for j in sorted(seen):
        e = seen[j]
        parts.append(f"x{j}" if e == 1 else f"x{j}^{e}")
    return "*".join(parts)


@settings(max_examples=300)
@given(st.integers(1, 12).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.integers(1, n), max_size=8))))
@example((4, []))
@example((3, [2, 2, 3]))
@example((11, [1, 11, 11, 11, 11, 11, 11, 11, 11, 11, 11]))
def test_format_exponents_matches_the_index_walk(case):
    n, indices = case
    m = monomial(indices, n)
    assert format_exponents(m.exponents) == reference_format_monomial(m)
    assert format_monomial(m) == reference_format_monomial(m)


# -- orders ------------------------------------------------------------------


def test_plex_equals_lex():
    rng = random.Random(11)
    for _ in range(100):
        u = monomial([rng.randint(1, 5) for _ in range(rng.randint(0, 4))], 5)
        v = monomial([rng.randint(1, 5) for _ in range(rng.randint(0, 4))], 5)
        assert (plex_key(u) > plex_key(v)) == (lex_key(u) > lex_key(v))


def test_lex_golden():
    # x1*x2 > x1*x3: larger power of x2 at the first difference
    assert compare(parse_monomial("x1*x2", 4), parse_monomial("x1*x3", 4)) == 1
    assert compare(parse_monomial("x1*x3^2", 6), parse_monomial("x2*x3*x4", 6),
                   "lex") == 1


def test_degrevlex_golden():
    u = parse_monomial("x1*x4^2", 4)
    v = parse_monomial("x2*x3*x4", 4)
    assert degrevlex_key(u) < degrevlex_key(v)
    # degree dominates
    assert degrevlex_key(parse_monomial("x4^3", 4)) > degrevlex_key(
        parse_monomial("x1*x2", 4))


def test_compare_contract():
    u = parse_monomial("x1*x2", 4)
    assert compare(u, u) == 0
    with pytest.raises(ValueError):
        compare(u, parse_monomial("x1*x2", 5))
    with pytest.raises(ValueError):
        compare(u, u, "weird")


def test_orders_are_total():
    mons = spread_monomials(4, 2, SpreadVector((0,)))
    for key in (lex_key, degrevlex_key):
        keys = [key(m) for m in mons]
        assert len(set(keys)) == len(keys)


# -- spread vectors ----------------------------------------------------------


def test_spread_vector_api():
    t = spread(1, 0, 2)
    assert t.d == 4
    assert len(t) == 3
    assert list(t) == [1, 0, 2]
    assert t[2] == 2
    assert t.prefix_sum(0) == 0
    assert t.prefix_sum(2) == 1
    assert t.prefix_sum(3) == 3
    assert str(t) == "(1,0,2)"
    assert SpreadVector.zero(4).entries == (0, 0, 0)
    assert SpreadVector.uniform(2, 3).entries == (2, 2)
    assert SpreadVector.coerce([1, 1]) == SpreadVector((1, 1))


def test_spread_vector_rejects():
    with pytest.raises(ValueError):
        SpreadVector(())
    with pytest.raises(ValueError):
        SpreadVector((1, -1))


# -- spread predicates -------------------------------------------------------


def test_is_spread_goldens():
    u = parse_monomial("x1^3*x2*x4", 6)
    assert is_spread(u, (0, 0, 1, 2))
    assert not is_spread(u, (1, 0, 1, 2))


def test_is_spread_degree_bound():
    # degree above d is not spread, without raising
    u = parse_monomial("x1*x2*x3", 5)
    assert not is_spread(u, (0,))


def test_unit_and_variables_always_spread():
    for t in ((0,), (3,), (1, 0, 2)):
        assert is_spread(unit(4), t)
        for k in range(1, 5):
            assert is_spread(variable(k, 4), t)


def test_spread_support_goldens():
    u = parse_monomial("x1^2*x2*x4*x6*x8", 8)
    assert spread_support(u, (0, 0, 1, 2, 1)) == frozenset({2, 4, 5, 6})
    v = parse_monomial("x2*x3*x4*x6", 6)
    assert spread_support(v, (1, 0, 2)) == frozenset({2, 4, 5})
    assert spread_support(v, (0, 0, 0)) == frozenset()


def test_free_indices_golden():
    v = parse_monomial("x2*x3*x4*x6", 6)
    assert free_indices(v, (1, 0, 2)) == (1, 3)


def test_next_support_index_goldens():
    u = parse_monomial("x1^2*x2*x4*x6*x8", 8)
    assert next_support_index(u, 1) == 2
    assert next_support_index(u, 7) == 8
    assert next_support_index(parse_monomial("x1*x5", 5), 3) == 5
    with pytest.raises(ValueError):
        next_support_index(u, 8)
    with pytest.raises(ValueError):
        next_support_index(unit(4), 1)


def test_next_support_index_matches_the_support_scan():
    # the bisection on the sorted indices against the smallest support
    # index above k, for every monomial of degree <= 4 in 5 variables
    for degree in range(1, 5):
        for u in spread_monomials(5, degree, (0, 0, 0)):
            for k in range(u.max_index):
                assert next_support_index(u, k) == min(
                    j for j in u.support if j > k), (u, k)


def test_exchange_move_preserves_spread():
    # for a spread monomial, swapping the successor of a free index down to
    # that index stays spread
    rng = random.Random(23)
    for _ in range(200):
        t = SpreadVector(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3))))
        n = rng.randint(2, 7)
        degree = rng.randint(1, t.d)
        pool = spread_monomials(n, degree, t)
        if not pool:
            continue
        u = rng.choice(pool)
        for k in free_indices(u, t):
            v = u.over_var(next_support_index(u, k)).times_var(k)
            assert is_spread(v, t), (u, t, k, v)


# -- enumeration and counting ------------------------------------------------


def test_enumeration_golden():
    got = [format_monomial(m) for m in spread_monomials(5, 4, (1, 0, 2))]
    assert got == [
        "x1*x2^2*x4",
        "x1*x2^2*x5",
        "x1*x2*x3*x5",
        "x1*x3^2*x5",
        "x2*x3^2*x5",
    ]


def test_enumeration_empty():
    assert spread_monomials(3, 2, (3,)) == []


def test_count_goldens():
    assert count_spread_monomials(5, 4, (1, 0, 2)) == 5
    assert count_spread_monomials(3, 2, (3,)) == 0
    assert count_spread_monomials(6, 3, (2, 2)) == 4


def test_degree_zero():
    assert count_spread_monomials(4, 0, (1,)) == 1
    assert spread_monomials(4, 0, (1,)) == [unit(4)]


def test_degree_above_bound_raises():
    with pytest.raises(ValueError):
        count_spread_monomials(5, 3, (1,))
    with pytest.raises(ValueError):
        spread_monomials(5, 3, (1,))


def test_enumeration_is_descending_lex_and_distinct():
    mons = spread_monomials(7, 3, (1, 2))
    assert len(set(mons)) == len(mons)
    for a, b in zip(mons, mons[1:]):
        assert compare(a, b, "lex") == 1
    for m in mons:
        assert is_spread(m, (1, 2))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(1, 8),
    st.integers(0, 4),
    st.lists(st.integers(0, 3), min_size=1, max_size=3),
)
def test_count_matches_enumeration(n, degree, entries):
    t = SpreadVector(tuple(entries))
    if degree > t.d:
        return
    mons = spread_monomials(n, degree, t)
    assert count_spread_monomials(n, degree, t) == len(mons)
    if degree > 0:
        top = n + (degree - 1) - t.prefix_sum(degree - 1)
        assert len(mons) == (math.comb(top, degree) if top >= degree else 0)
