"""Monomial ideals: generators, membership, spread classes, Hilbert function."""

from __future__ import annotations

import math
import random
from operator import le

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from vecspread import (
    ExchangeViolation,
    Monomial,
    MonomialIdeal,
    SegmentViolation,
    SpreadMap,
    SpreadVector,
    apply_spread_map_ideal,
    decomposition_function,
    format_monomial,
    hilbert_function,
    ideal_from_dict,
    ideal_to_dict,
    is_lex_segment,
    is_spread,
    is_stable,
    is_strongly_stable,
    lex_violation,
    minimalize,
    monomial,
    parse_monomial,
    plex_key,
    spread_monomials,
    stable_violation,
    standard_factorization,
    strongly_stable_closure,
    strongly_stable_violation,
    unit,
    admissible_shape,
)
from vecspread.ideals import divisor_index, minimal_exponents

from util import (
    ex_resolution_ideal,
    ex_spread_ideal,
    random_spread_monomials,
    random_spread_vector,
    random_strongly_stable_ideal,
)


# -- construction and minimality ---------------------------------------------


def test_minimalize_golden():
    gens = [parse_monomial(s, 4) for s in
            ("x1*x2", "x1*x3", "x1*x2^2", "x1*x2*x3", "x1*x2*x4",
             "x1*x3^2", "x1*x3*x4", "x1*x4^2")]
    assert [format_monomial(m) for m in minimalize(gens)] == [
        "x1*x2", "x1*x3", "x1*x4^2"]


def test_minimalize_trivial():
    u = parse_monomial("x2*x3", 4)
    assert minimalize([u]) == [u]
    assert minimalize([parse_monomial("x1", 3), parse_monomial("x1*x2", 3)]) == [
        parse_monomial("x1", 3)]
    assert minimalize([]) == []


def test_constructor_rejects_redundant_generators():
    with pytest.raises(ValueError):
        MonomialIdeal([parse_monomial("x1", 3), parse_monomial("x1*x2", 3)], 3)


def test_constructor_names_the_first_divisor():
    x1, x1x2 = parse_monomial("x1", 3), parse_monomial("x1*x2", 3)
    with pytest.raises(ValueError,
                       match=r"^generator set is not minimal: x1 divides x1\*x2$"):
        MonomialIdeal([x1, x1x2], 3)
    with pytest.raises(ValueError,
                       match=r"^generator set is not minimal: x1 divides x1$"):
        MonomialIdeal([x1, x1], 3)


def random_mixed_monomials(rng):
    """A few monomials, each in its own ambient of 1 to 8 variables."""
    out = []
    for _ in range(rng.randint(0, 7)):
        n = rng.randint(1, 8)
        out.append(monomial([rng.randint(1, n)
                             for _ in range(rng.randint(0, 3))], n))
    return out


def test_minimalize_on_mixed_ambients():
    # x3 in ambient 3 has exponents (0, 0, 1) and x1 in ambient 1 has (1,):
    # compared position by position without padding, x3 would divide x1
    x1, x3 = parse_monomial("x1", 1), parse_monomial("x3", 3)
    assert minimalize([x1, x3]) == [x1, x3]
    rng = random.Random(17)
    for _ in range(400):
        pool = set(random_mixed_monomials(rng))
        brute = sorted((m for m in pool
                        if not any(k != m and k.divides(m) for k in pool)),
                       key=plex_key, reverse=True)
        assert minimalize(pool) == brute


def test_minimalize_keeps_the_first_of_equal_monomials():
    # x1 read in ambients 1 and 3 is one monomial: the first one given stays
    x1_in_1, x1_in_3 = parse_monomial("x1", 1), parse_monomial("x1", 3)
    x2 = parse_monomial("x2", 3)
    assert [m.ambient_n for m in minimalize([x1_in_1, x2, x1_in_3])] == [1, 3]
    assert [m.ambient_n for m in minimalize([x1_in_3, x2, x1_in_1])] == [3, 3]


def test_constructor_minimality_on_mixed_ambients():
    # the first witness in stored order, found by Monomial.divides
    rng = random.Random(19)
    raised = 0
    for _ in range(400):
        gens = random_mixed_monomials(rng)
        stored = [Monomial(g.indices, 8)
                  for g in sorted(gens, key=plex_key, reverse=True)]
        witness = next((f"generator set is not minimal: {h} divides {g}"
                        for i, g in enumerate(stored)
                        for j, h in enumerate(stored)
                        if j != i and h.divides(g)), None)
        if witness is None:
            assert MonomialIdeal(gens, 8).generators == tuple(stored)
        else:
            raised += 1
            with pytest.raises(ValueError) as exc:
                MonomialIdeal(gens, 8)
            assert str(exc.value) == witness
    assert raised


def test_constructor_rejects_oversized_generator():
    with pytest.raises(ValueError):
        MonomialIdeal([parse_monomial("x4", 4)], 3)


def test_zero_and_unit_ideals():
    z = MonomialIdeal.zero(4)
    assert z.is_zero and not z.is_unit
    assert not z.contains(parse_monomial("x1", 4))
    o = MonomialIdeal.unit_ideal(4)
    assert o.is_unit and not o.is_zero
    assert o.contains(unit(4))
    assert o.contains(parse_monomial("x3^2", 4))


def test_contains_goldens():
    ideal, _ = ex_spread_ideal()
    assert ideal.contains(parse_monomial("x2*x3^2*x5", 6))
    assert not ideal.contains(parse_monomial("x2*x4", 6))
    assert not ideal.contains(unit(6))


def test_contains_matches_divisibility():
    # w read in the ideal's ambient 6, in a smaller one and in a larger one
    rng = random.Random(3)
    ideal, _ = ex_spread_ideal()
    for n in (6, 3, 9):
        for _ in range(200):
            w = monomial([rng.randint(1, n) for _ in range(rng.randint(0, 5))], n)
            assert ideal.contains(w) == any(g.divides(w) for g in ideal.generators)


@st.composite
def ideal_and_point(draw):
    """A monomial ideal in n <= 4 variables with exponents up to 3, and an
    exponent vector a with entries up to 5, so a_k may lie past every
    generator.  No generator gives the zero ideal, x^0 the unit ideal."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    gens = draw(st.lists(vector, max_size=7))
    ideal = MonomialIdeal.from_generators(map(Monomial.from_exponents, gens), n)
    return ideal, draw(st.tuples(*[st.integers(0, 5)] * n))


def reference_generators_dividing(ideal, a):
    """The exponent vectors of the generators dividing x^a, by a scan over
    the generators in stored order: the route before the divisor index."""
    return [g.exponents for g in ideal.generators
            if all(map(le, g.exponents, a))]


def reference_tight_masks(ideal, a, support):
    """Each divisor's tight mask summed position by position: the route the
    Koszul blocks took before the divisor index."""
    return {sum(1 << p for p, k in enumerate(support) if g[k] == a[k])
            for g in reference_generators_dividing(ideal, a)}


@settings(max_examples=300, deadline=None)
@given(ideal_and_point())
@example((MonomialIdeal.zero(3), (0, 2, 1)))
@example((MonomialIdeal.unit_ideal(3), (0, 0, 0)))
@example((MonomialIdeal.unit_ideal(3), (4, 0, 1)))
@example((MonomialIdeal([parse_monomial("x1*x2^2", 3),
                         parse_monomial("x3", 3)], 3), (5, 0, 5)))
def test_divisor_index_matches_the_scan(case):
    ideal, a = case
    bits = ideal.divisor_bits(a)
    assert bits >> len(ideal.generators) == 0
    # in the stored order, so the lowest bit is the first divisor
    assert [g.exponents for j, g in enumerate(ideal.generators)
            if bits >> j & 1] == reference_generators_dividing(ideal, a)
    support = [k for k, ak in enumerate(a) if ak]
    assert ideal.tight_masks(a, support) == reference_tight_masks(
        ideal, a, support)


def reference_divisor_index(points, n):
    """The divisor index by one OR per point into each bitset: the build
    before the binary numerals, quadratic in the points."""
    le, eq = [], []
    for k in range(n):
        column = [p[k] for p in points]
        eq_k = [0] * (max(column, default=0) + 1)
        for j, v in enumerate(column):
            eq_k[v] |= 1 << j
        le_k, below = [], 0
        for bits in eq_k:
            below |= bits
            le_k.append(below)
        le.append(le_k)
        eq.append(eq_k)
    return le, eq


@st.composite
def index_points(draw):
    """Up to 80 exponent vectors, so that a column may take either build,
    with values at the top of a byte, one past it, or far past it."""
    n = draw(st.integers(0, 4))
    top = draw(st.sampled_from([3, 255, 256, 600]))
    value = st.integers(0, 3) | st.integers(min(top, 250), top)
    size = draw(st.integers(0, 80))
    return n, draw(st.lists(st.tuples(*[value] * n), min_size=size,
                            max_size=size))


@settings(max_examples=150, deadline=None)
@given(index_points())
def test_divisor_index_matches_the_or_loop(case):
    n, points = case
    assert divisor_index(points, n) == reference_divisor_index(points, n)


def test_divisor_index_on_long_columns():
    # 3,000 points: the first column's values pass a byte and take the OR
    # per point, the others take the byte string
    rng = random.Random(7)
    points = [(rng.randrange(800), rng.randrange(3), rng.randrange(256), 0)
              for _ in range(3000)]
    assert divisor_index(points, 4) == reference_divisor_index(points, 4)


@st.composite
def exponent_pools(draw):
    """Exponent vectors of one length with repeats, possibly the zero
    vector, and chains of divisors: each chain climbs one coordinate at a
    time from a drawn vector."""
    n = draw(st.integers(1, 4))
    vector = st.tuples(*[st.integers(0, 3)] * n)
    pool = draw(st.lists(vector, max_size=10))
    for start in draw(st.lists(vector, max_size=3)):
        link = list(start)
        for k in draw(st.lists(st.integers(0, n - 1), max_size=4)):
            pool.append(tuple(link))
            link[k] += 1
    if draw(st.booleans()):
        pool.append((0,) * n)
    if pool:
        pool += draw(st.lists(st.sampled_from(pool), max_size=4))
    return draw(st.permutations(pool))


@settings(max_examples=300, deadline=None)
@given(exponent_pools())
def test_minimal_exponents_matches_the_pairwise_filter(pool):
    distinct = set(pool)
    expected = sorted((e for e in distinct
                       if not any(f != e and all(map(le, f, e))
                                  for f in distinct)),
                      key=lambda e: (sum(e), e))
    assert minimal_exponents(pool) == expected


# -- spread ideal classes -----------------------------------------------------


def test_worked_example_is_strongly_stable():
    ideal, t = ex_spread_ideal()
    assert is_strongly_stable(ideal, t)
    assert is_stable(ideal, t)


def test_x2_not_strongly_stable():
    ideal = MonomialIdeal([parse_monomial("x2", 3)], 3)
    violation = strongly_stable_violation(ideal, (1,))
    assert violation is not None
    assert violation.moved() == parse_monomial("x1", 3)
    assert "x1" in str(violation)


def test_lex_segment_golden():
    # in two variables with t=(0,): (x1^2, x1x2) is lex, adding x2^2 keeps it
    t = SpreadVector((0,))
    lex = MonomialIdeal([parse_monomial("x1^2", 2), parse_monomial("x1*x2", 2)], 2)
    assert is_lex_segment(lex, t)


def test_strongly_stable_but_not_lex():
    # x1x3 is lex-larger than x2^2 and missing
    t = SpreadVector((0,))
    gens = [parse_monomial(s, 3) for s in ("x1^2", "x1*x2", "x2^2")]
    ideal = MonomialIdeal(gens, 3)
    assert is_strongly_stable(ideal, t)
    violation = lex_violation(ideal, t)
    assert violation is not None
    assert violation.missing == parse_monomial("x1*x3", 3)
    assert violation.member == parse_monomial("x2^2", 3)


def test_stable_but_not_strongly_stable():
    # exchanges at max(u) stay inside, but x1*(x2x3/x2) = x1x3 is missing
    t = SpreadVector((0, 0))
    gens = [parse_monomial(s, 4) for s in
            ("x1^2", "x1*x2", "x2^2", "x2*x3", "x2*x4")]
    ideal = MonomialIdeal(gens, 4)
    assert is_stable(ideal, t)
    violation = strongly_stable_violation(ideal, t)
    assert violation is not None
    assert violation.moved() == parse_monomial("x1*x3", 4)


def test_predicates_reject_non_spread_generators():
    ideal = MonomialIdeal([parse_monomial("x1*x2", 3)], 3)
    for pred in (is_stable, is_strongly_stable, is_lex_segment):
        with pytest.raises(ValueError):
            pred(ideal, (2,))


def test_zero_and_unit_vacuously_in_all_classes():
    for ideal in (MonomialIdeal.zero(3), MonomialIdeal.unit_ideal(3)):
        for t in ((0,), (1, 1)):
            assert is_stable(ideal, t)
            assert is_strongly_stable(ideal, t)
            assert is_lex_segment(ideal, t)


def reference_stable_violation(ideal: MonomialIdeal,
                               t) -> ExchangeViolation | None:
    """stable_violation on Monomial objects, each U_l listed by a membership
    scan over every t-spread monomial: the route before the member walk."""
    t = SpreadVector.coerce(t)
    for degree in range(1, t.d + 1):
        members = [m for m in spread_monomials(ideal.ambient_n, degree, t)
                   if ideal.contains(m)]
        member_set = set(members)
        for u in members:
            i = u.max_index
            base = u.over_var(i)
            for j in range(1, i):
                w = base.times_var(j)
                if is_spread(w, t) and w not in member_set:
                    return ExchangeViolation(u, i, j)
    return None


def reference_strongly_stable_violation(ideal: MonomialIdeal,
                                        t) -> ExchangeViolation | None:
    """strongly_stable_violation on Monomial objects, membership by
    `contains`: the route before the index tuples."""
    t = SpreadVector.coerce(t)
    for u in ideal.generators:
        for i in u.support:
            base = u.over_var(i)
            for j in range(1, i):
                w = base.times_var(j)
                if is_spread(w, t) and not ideal.contains(w):
                    return ExchangeViolation(u, i, j)
    return None


@st.composite
def spread_ideals(draw):
    """A spread vector with entries 0 to 3 and an ambient of 1 to 8, with the
    ideal of a few random t-spread monomials (most of them not stable), or
    the zero or the unit ideal."""
    t = SpreadVector(tuple(draw(st.lists(st.integers(0, 3), min_size=1,
                                         max_size=3))))
    n = draw(st.integers(1, 8))
    kind = draw(st.sampled_from(("random",) * 4 + ("zero", "unit")))
    if kind == "zero":
        return MonomialIdeal.zero(n), t
    if kind == "unit":
        return MonomialIdeal.unit_ideal(n), t
    rng = draw(st.randoms(use_true_random=False))
    seeds = random_spread_monomials(rng, n, t, draw(st.integers(1, 6)))
    return MonomialIdeal.from_generators(seeds, n), t


SPREAD_IDEAL_EXAMPLES = [
    (MonomialIdeal.zero(5), SpreadVector((0, 2))),
    (MonomialIdeal.unit_ideal(4), SpreadVector((1, 0, 3))),
    (MonomialIdeal([parse_monomial(s, 4) for s in
                    ("x1*x2", "x1*x3", "x2*x4")], 4), SpreadVector((1, 0))),
    (MonomialIdeal([parse_monomial(s, 8) for s in
                    ("x1^3", "x2^2*x5", "x4*x8")], 8), SpreadVector((0, 0, 3))),
]


def with_examples(cases):
    def decorate(test):
        for case in cases:
            test = example(case)(test)
        return test
    return decorate


@settings(max_examples=400, deadline=None)
@given(spread_ideals())
@with_examples(SPREAD_IDEAL_EXAMPLES)
def test_predicates_match_the_monomial_loops(case):
    ideal, t = case
    for fast, reference in ((stable_violation, reference_stable_violation),
                            (strongly_stable_violation,
                             reference_strongly_stable_violation)):
        got, want = fast(ideal, t), reference(ideal, t)
        assert got == want
        assert str(got) == str(want)


@settings(max_examples=300, deadline=None)
@given(spread_ideals())
@with_examples(SPREAD_IDEAL_EXAMPLES)
def test_member_walk_matches_the_scan(case):
    ideal, t = case
    n = ideal.ambient_n
    for degree in range(t.d + 1):
        assert ideal.spread_member_indices(t, degree) == [
            m.indices for m in spread_monomials(n, degree, t)
            if ideal.contains(m)]
        assert ideal.degreewise_members(t, degree) == [
            m for m in spread_monomials(n, degree, t) if ideal.contains(m)]
    with pytest.raises(ValueError):
        ideal.spread_member_indices(t, t.d + 1)


def reference_contains(ideal: MonomialIdeal, w: Monomial) -> bool:
    return bool(reference_generators_dividing(
        ideal, w.exponents_over(ideal.ambient_n)))


def reference_lex_violation(ideal: MonomialIdeal,
                            t) -> SegmentViolation | None:
    """lex_violation on Monomial objects: every t-spread monomial of each
    degree, read upwards in lex and tested for membership by the generator
    scan, the route before the index tuples."""
    t = SpreadVector.coerce(t)
    for degree in range(1, t.d + 1):
        last_member = None
        for m in reversed(spread_monomials(ideal.ambient_n, degree, t)):
            if reference_contains(ideal, m):
                last_member = m
            elif last_member is not None:
                return SegmentViolation(last_member, m)
    return None


@settings(max_examples=300, deadline=None)
@given(st.tuples(spread_ideals(), spread_ideals()))
@with_examples([(case, SPREAD_IDEAL_EXAMPLES[2]) for case in SPREAD_IDEAL_EXAMPLES])
def test_index_routes_match_the_scans(cases):
    (ideal, t), (other, _) = cases
    got, want = lex_violation(ideal, t), reference_lex_violation(ideal, t)
    assert got == want
    assert str(got) == str(want)
    # the whole ideal, one degree slice of it, and an unrelated ideal
    n = ideal.ambient_n
    slice_ = MonomialIdeal(ideal.degreewise_members(t, t.d), n)
    for a, b in ((ideal, other), (other, ideal), (ideal, slice_),
                 (slice_, ideal)):
        assert a.contains_ideal(b) == all(
            any(g.divides(h) for g in a.generators) for h in b.generators)
    # spread monomials and their multiples, read in the ideal's ambient
    words = [w for degree in range(t.d + 1) for w in spread_monomials(n, degree, t)]
    words += [w.times_var(k) for w in words[:20] for k in range(1, n + 1)]
    for w in words:
        member = reference_contains(ideal, w)
        assert ideal.contains(w) == member
        if not admissible_shape(t):
            with pytest.raises(ValueError, match="is not of the form"):
                decomposition_function(ideal, t, w)
        elif member:
            assert decomposition_function(ideal, t, w) == Monomial.from_exponents(
                reference_generators_dividing(ideal, w.exponents)[0])
        else:
            with pytest.raises(ValueError, match="is not in the ideal"):
                decomposition_function(ideal, t, w)


def _degreewise_strongly_stable(ideal: MonomialIdeal, t: SpreadVector) -> bool:
    # first-principles check on every degree slice
    for degree in range(1, t.d + 1):
        members = [m for m in spread_monomials(ideal.ambient_n, degree, t)
                   if ideal.contains(m)]
        member_set = set(members)
        for u in members:
            for i in u.support:
                base = u.over_var(i)
                for j in range(1, i):
                    w = base.times_var(j)
                    if is_spread(w, t) and w not in member_set:
                        return False
    return True


def test_generator_criterion_matches_degreewise_definition():
    rng = random.Random(17)
    for _ in range(60):
        t = random_spread_vector(rng)
        n = rng.randint(2, 6)
        seeds = random_spread_monomials(rng, n, t, rng.randint(1, 3))
        if not seeds:
            continue
        ideal = MonomialIdeal.from_generators(seeds, n)
        assert is_strongly_stable(ideal, t) == _degreewise_strongly_stable(ideal, t)


def test_hierarchy_on_random_ideals():
    rng = random.Random(29)
    for _ in range(80):
        t = random_spread_vector(rng)
        n = rng.randint(2, 6)
        seeds = random_spread_monomials(rng, n, t, rng.randint(1, 3))
        if not seeds:
            continue
        ideal = MonomialIdeal.from_generators(seeds, n)
        if is_lex_segment(ideal, t):
            assert is_strongly_stable(ideal, t)
        if is_strongly_stable(ideal, t):
            assert is_stable(ideal, t)


# -- strongly stable closure --------------------------------------------------


def test_closure_of_power_of_x1():
    for a in (1, 2, 3):
        seed = parse_monomial(f"x1^{a}" if a > 1 else "x1", 4)
        ideal = strongly_stable_closure([seed], (0, 0, 0), ambient_n=4)
        assert list(ideal.generators) == [seed]


def test_closure_golden_reaches_lex_smaller_monomials():
    t = SpreadVector((1, 0, 2))
    ideal = strongly_stable_closure([parse_monomial("x2*x4^2*x6", 6)], t,
                                    ambient_n=6)
    assert ideal.contains(parse_monomial("x1*x3^2*x5", 6))
    assert is_strongly_stable(ideal, t)


def test_closure_is_idempotent_extensive_monotone():
    ideal, t = ex_spread_ideal()
    again = strongly_stable_closure(ideal.generators, t, ambient_n=6)
    assert set(again.generators) == set(ideal.generators)

    rng = random.Random(41)
    for _ in range(20):
        t = random_spread_vector(rng)
        n = rng.randint(2, 6)
        seeds = random_spread_monomials(rng, n, t, 2)
        if not seeds:
            continue
        closed = strongly_stable_closure(seeds, t, ambient_n=n)
        assert is_strongly_stable(closed, t)
        for s in seeds:
            assert closed.contains(s)  # extensive
        bigger = strongly_stable_closure(seeds + seeds[:1], t, ambient_n=n)
        assert set(bigger.generators) == set(closed.generators)
        twice = strongly_stable_closure(closed.generators, t, ambient_n=n)
        assert set(twice.generators) == set(closed.generators)  # idempotent


def test_closure_rejects_non_spread_seed():
    with pytest.raises(ValueError):
        strongly_stable_closure([parse_monomial("x1*x2", 4)], (2,))


# -- standard factorization ---------------------------------------------------


def test_standard_factorization_goldens():
    ideal, t = ex_spread_ideal()
    for g in ideal.generators:
        u, v = standard_factorization(ideal, t, g)
        assert (u, v) == (g, unit(6))
    w = parse_monomial("x2*x3^2*x5", 6)
    u, v = standard_factorization(ideal, t, w)
    assert format_monomial(u) == "x2*x3^2"
    assert format_monomial(v) == "x5"

    ideal2, t2 = ex_resolution_ideal()
    u, v = standard_factorization(ideal2, t2, parse_monomial("x1*x2*x4", 4))
    assert (format_monomial(u), format_monomial(v)) == ("x1*x2", "x4")


def test_standard_factorization_contract_and_uniqueness():
    ideal, t = ex_spread_ideal()
    count = 0
    for degree in range(1, t.d + 1):
        for w in spread_monomials(6, degree, t):
            if not ideal.contains(w):
                continue
            count += 1
            u, v = standard_factorization(ideal, t, w)
            assert u.mul(v) == w
            assert any(g == u for g in ideal.generators)
            assert v.is_unit or u.max_index <= v.min_index
            # uniqueness: no other generator admits such a splitting
            others = [
                g for g in ideal.generators
                if g.divides(w) and g != u
                and (w.divide(g).is_unit or g.max_index <= w.divide(g).min_index)
            ]
            assert others == []
    assert count > 4


def test_standard_factorization_errors():
    ideal, t = ex_spread_ideal()
    with pytest.raises(ValueError):
        standard_factorization(ideal, t, parse_monomial("x2*x4", 6))  # not in I
    with pytest.raises(ValueError):
        standard_factorization(ideal, t, parse_monomial("x2*x3", 6))  # not t-spread
    not_ss = MonomialIdeal([parse_monomial("x2", 3)], 3)
    with pytest.raises(ValueError):
        standard_factorization(not_ss, (1,), parse_monomial("x2*x3", 3))


# -- decomposition function ---------------------------------------------------


def test_admissible_shape():
    assert admissible_shape((1, 0))
    assert admissible_shape((1, 1, 1))
    assert admissible_shape((0, 0))
    assert not admissible_shape((0, 1))
    assert not admissible_shape((2, 0))


def test_decomposition_function_goldens():
    ideal, t = ex_resolution_ideal()
    g = decomposition_function(ideal, t, parse_monomial("x1*x2*x3", 4))
    assert format_monomial(g) == "x1*x2"
    g = decomposition_function(ideal, t, parse_monomial("x1*x2*x4^2", 4))
    assert format_monomial(g) == "x1*x2"
    for gen in ideal.generators:
        assert decomposition_function(ideal, t, gen) == gen


def _decomposition_reference(ideal, w):
    """The plex-largest dividing generator, by a full scan."""
    return max((g for g in ideal.generators if g.divides(w)), key=plex_key)


def test_decomposition_is_plex_largest_divisor_and_prefix():
    rng = random.Random(41)
    for t in ((1,), (1, 0), (1, 1), (1, 0, 0), (1, 1, 0)):
        for _ in range(4):
            n = rng.randint(3, 6)
            ideal = random_strongly_stable_ideal(rng, n, SpreadVector(t))
            if ideal.is_unit:
                continue
            for degree in range(1, len(t) + 2):
                for w in spread_monomials(n, degree, t):
                    if not ideal.contains(w):
                        continue
                    g = decomposition_function(ideal, t, w)
                    assert g == _decomposition_reference(ideal, w), (ideal, w)
                    u, v = standard_factorization(ideal, t, w)
                    assert u == g
                    assert u.indices + v.indices == w.indices
                    # and on the multiples x_k*w, which need not be t-spread
                    for k in range(1, n + 1):
                        wk = w.times_var(k)
                        assert (decomposition_function(ideal, t, wk)
                                == _decomposition_reference(ideal, wk))


def test_decomposition_function_errors():
    ideal, t = ex_resolution_ideal()
    with pytest.raises(ValueError):
        decomposition_function(ideal, t, parse_monomial("x2*x3", 4))  # not in I
    ideal2, _ = ex_spread_ideal()
    with pytest.raises(ValueError):
        decomposition_function(ideal2, (1, 0, 2), parse_monomial("x1*x3", 6))


# -- Hilbert function ---------------------------------------------------------


def test_hilbert_zero_ideal():
    hf = hilbert_function(MonomialIdeal.zero(4), 8)
    assert hf == [math.comb(q + 3, 3) for q in range(9)]


def test_hilbert_principal_variable():
    ideal = MonomialIdeal([parse_monomial("x1", 4)], 4)
    hf = hilbert_function(ideal, 8)
    assert hf == [math.comb(q + 2, 2) for q in range(9)]


def test_hilbert_unit_ideal():
    assert hilbert_function(MonomialIdeal.unit_ideal(3), 4) == [0] * 5


def test_hilbert_agrees_with_shifted_image():
    ideal, t = ex_resolution_ideal()
    image = apply_spread_map_ideal(SpreadMap.to_zero(t), ideal, ambient_n=4)
    assert hilbert_function(ideal, 10) == hilbert_function(image, 10)


def test_hilbert_brute_force_cross_check():
    rng = random.Random(53)
    for _ in range(10):
        t = random_spread_vector(rng)
        n = rng.randint(2, 4)
        ideal = random_strongly_stable_ideal(rng, n, t)
        hf = hilbert_function(ideal, 5)
        assert hf[0] == (0 if ideal.is_unit else 1)
        for q in range(1, 6):
            outside = [m for m in spread_monomials(n, q, SpreadVector.zero(q + 1))
                       if not ideal.contains(m)]
            assert hf[q] == len(outside)


def reference_hilbert_function(ideal, max_degree):
    """dim_K (S/I)_q for q = 0..max_degree by a DFS over exponent vectors
    that carries the list of generators still able to divide: the route
    before the divisor index."""
    n = ideal.ambient_n
    counts = [0] * (max_degree + 1)

    def free_count(assigned, degree):
        # no generator can divide any completion: count the whole subtree
        rest = n - assigned
        if rest == 0:
            counts[degree] += 1
            return
        for r in range(max_degree - degree + 1):
            counts[degree + r] += math.comb(r + rest - 1, rest - 1)

    def walk(var, alive, degree):
        if not alive:
            free_count(var, degree)
            return
        if var == n:
            counts[degree] += 1
            return
        for e in range(max_degree - degree + 1):
            nxt = []
            dominated = False
            for g, last in alive:
                if g[var] > e:
                    continue  # this branch kills g for good
                if last <= var:  # g has no support past var: it divides
                    dominated = True
                    break
                nxt.append((g, last))
            if not dominated:
                walk(var + 1, nxt, degree + e)

    # each generator with the last index of its support, -1 for the unit
    walk(0, [(g.exponents, max((i for i, e in enumerate(g.exponents) if e),
                               default=-1)) for g in ideal.generators], 0)
    return counts


@st.composite
def ideal_and_cap(draw):
    """An arbitrary monomial ideal in n <= 5 variables with exponents up to
    3, its generators often confined to the first variables, and a degree
    cap from 0 to 10."""
    n = draw(st.integers(1, 5))
    used = draw(st.integers(1, n))
    vector = st.tuples(*[st.integers(0, 3)] * used)
    gens = [g + (0,) * (n - used) for g in draw(st.lists(vector, max_size=6))]
    ideal = MonomialIdeal.from_generators(map(Monomial.from_exponents, gens), n)
    return ideal, draw(st.integers(0, 10))


@settings(max_examples=300, deadline=None)
@given(ideal_and_cap())
@example((MonomialIdeal.zero(4), 10))
@example((MonomialIdeal.zero(1), 0))
@example((MonomialIdeal.unit_ideal(3), 10))
@example((MonomialIdeal.unit_ideal(1), 0))
@example((MonomialIdeal([parse_monomial(s, 5) for s in ("x1^2", "x1*x2^3")], 5), 10))
@example((MonomialIdeal([parse_monomial("x2*x3", 6)], 6), 7))
def test_hilbert_function_matches_the_generator_lists(case):
    ideal, cap = case
    assert hilbert_function(ideal, cap) == reference_hilbert_function(ideal, cap)


# -- JSON round-trip ----------------------------------------------------------


def test_ideal_dict_roundtrip():
    ideal, t = ex_spread_ideal()
    payload = ideal_to_dict(ideal, t)
    assert payload["n"] == 6
    assert payload["t"] == [1, 0, 2]
    back, back_t = ideal_from_dict(payload)
    assert set(back.generators) == set(ideal.generators)
    assert back_t == t


def test_ideal_dict_without_t():
    payload = ideal_to_dict(MonomialIdeal([parse_monomial("x1*x3", 3)], 3))
    assert payload["t"] == []
    back, back_t = ideal_from_dict(payload)
    assert back_t is None
    assert back.generators[0] == parse_monomial("x1*x3", 3)


def test_ideal_from_dict_rejects_garbage():
    with pytest.raises(ValueError):
        ideal_from_dict({"n": 3})
    with pytest.raises(ValueError):
        ideal_from_dict({"n": 0, "t": [], "generators": []})
    with pytest.raises(ValueError):
        ideal_from_dict({"n": 3, "t": [], "generators": ["y1"]})
