"""Shifting operators between spread classes."""

from __future__ import annotations

import random

import pytest

from vecspread import (
    SpreadMap,
    SpreadVector,
    apply_spread_map,
    apply_spread_map_ideal,
    format_monomial,
    is_spread,
    is_strongly_stable,
    parse_monomial,
    spread_monomials,
)

from util import ex_resolution_ideal, random_strongly_stable_ideal


def test_map_construction():
    m = SpreadMap((1, 0), (0, 0))
    assert m.source == SpreadVector((1, 0))
    assert m.target == SpreadVector((0, 0))
    assert m.inverse == SpreadMap((0, 0), (1, 0))
    assert SpreadMap.to_zero((1, 0, 2)).target == SpreadVector.zero(4)
    assert SpreadMap.from_zero((2,)).source == SpreadVector((0,))
    with pytest.raises(ValueError):
        SpreadMap((1,), (1, 0))  # different d


def test_apply_golden_up():
    m = SpreadMap((0, 0), (1, 1))
    u = parse_monomial("x1^2*x2", 3)
    assert format_monomial(apply_spread_map(m, u)) == "x1*x2*x4"


def test_apply_golden_down():
    m = SpreadMap((1, 0), (0, 0))
    u = parse_monomial("x1*x4^2", 4)
    assert format_monomial(apply_spread_map(m, u)) == "x1*x3^2"


def test_apply_rejects_non_spread_input():
    m = SpreadMap((1, 0), (0, 0))
    with pytest.raises(ValueError):
        apply_spread_map(m, parse_monomial("x1^2*x2", 4))


def test_apply_explicit_ambient_too_small():
    m = SpreadMap((0, 0), (1, 1))
    with pytest.raises(ValueError):
        apply_spread_map(m, parse_monomial("x1^2*x2", 3), ambient_n=3)


def test_identity_map():
    t = SpreadVector((1, 2))
    m = SpreadMap(t, t)
    for u in spread_monomials(6, 3, t):
        assert apply_spread_map(m, u, ambient_n=6) == u


def test_round_trip():
    t, s = SpreadVector((1, 0, 2)), SpreadVector((0, 1, 1))
    fwd, back = SpreadMap(t, s), SpreadMap(s, t)
    for degree in range(0, 5):
        for u in spread_monomials(7, degree, t):
            v = apply_spread_map(fwd, u)
            assert is_spread(v, s)
            assert apply_spread_map(back, v, ambient_n=7) == u


def test_degree_preserved():
    m = SpreadMap((2, 1), (0, 0))
    for u in spread_monomials(8, 3, (2, 1)):
        assert apply_spread_map(m, u).degree == u.degree


def test_bijection_onto_zero_spread_slice():
    # on the degree-l slice, the map to the zero spread hits exactly the
    # monomials in n - (t_1 + ... + t_{l-1}) variables
    n, t = 7, SpreadVector((1, 0, 2))
    m = SpreadMap.to_zero(t)
    for degree in range(1, t.d + 1):
        target_n = n - t.prefix_sum(degree - 1)
        images = {apply_spread_map(m, u, ambient_n=target_n)
                  for u in spread_monomials(n, degree, t)}
        expected = set(spread_monomials(target_n, degree, SpreadVector.zero(t.d)))
        assert images == expected


def test_ideal_image_golden():
    ideal, t = ex_resolution_ideal(n=4)
    image = apply_spread_map_ideal(SpreadMap.to_zero(t), ideal)
    assert image.ambient_n == 3
    assert [format_monomial(g) for g in image.generators] == [
        "x1^2", "x1*x2", "x1*x3^2"]


def test_ideal_image_zero_ideal():
    from vecspread import MonomialIdeal
    image = apply_spread_map_ideal(SpreadMap.to_zero((1, 1)), MonomialIdeal.zero(5))
    assert image.is_zero
    assert image.ambient_n == 3


def test_ideal_image_rejects_small_ambient():
    ideal, t = ex_resolution_ideal(n=4)
    with pytest.raises(ValueError):
        apply_spread_map_ideal(SpreadMap.from_zero((3, 3)), ideal, ambient_n=4)


def test_strong_stability_transported_both_ways():
    rng = random.Random(5)
    for _ in range(25):
        entries = tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 3)))
        t = SpreadVector(entries)
        n = rng.randint(3, 6)
        ideal = random_strongly_stable_ideal(rng, n, t)
        assert is_strongly_stable(ideal, t)
        down = apply_spread_map_ideal(SpreadMap.to_zero(t), ideal)
        assert is_strongly_stable(down, SpreadVector.zero(t.d))
        back = apply_spread_map_ideal(SpreadMap.from_zero(t), down,
                                      ambient_n=ideal.ambient_n)
        assert set(back.generators) == set(ideal.generators)
