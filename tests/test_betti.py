"""Graded Betti numbers: closed formula, tables, and the homology oracle."""

from __future__ import annotations

import random
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import vecspread.betti
import vecspread.koszul
import vecspread.linalg
from vecspread import (
    BettiTable,
    KoszulChain,
    MonomialIdeal,
    SpreadVector,
    admissible_shape,
    betti_table,
    free_indices,
    homology_basis_labels,
    homology_dimensions,
    is_strongly_stable,
    parse_monomial,
    poincare_pd_reg,
    verify_homology_basis,
    verify_homology_basis_range,
)

from vecspread.betti import _koszul_block
from vecspread.linalg import lcm_lattice

from util import (
    ex_resolution_ideal,
    ex_spread_ideal,
    multidegrees,
    random_monomial_ideal,
    random_spread_vector,
    random_strongly_stable_ideal,
    roadmap_workload,
)


# -- table plumbing -----------------------------------------------------------


def test_view_conversion_roundtrip():
    tb = betti_table(*ex_spread_ideal(), view="ideal")
    assert tb.view == "ideal"
    q = tb.to_quotient()
    assert q.view == "quotient"
    assert q.to_ideal() == tb
    assert tb.to_ideal() == tb
    assert q.to_quotient() == q


def test_totals_pd_reg_first_fixture():
    ideal, t = ex_spread_ideal()
    tb = betti_table(ideal, t, view="ideal")
    assert tb.totals() == [4, 5, 2]
    assert tb.total(1) == 5
    assert tb.projective_dimension == 2
    assert tb.regularity == 4
    q = tb.to_quotient()
    assert q.totals() == [1, 4, 5, 2]
    assert q.projective_dimension == 3
    assert q.regularity == 3


def test_entries_first_fixture():
    ideal, t = ex_spread_ideal()
    assert betti_table(ideal, t, view="ideal").entries == {
        (0, 1): 1, (0, 3): 1, (0, 4): 2, (1, 4): 1, (1, 5): 4, (2, 6): 2}
    assert betti_table(ideal, t, view="quotient").entries == {
        (0, 0): 1, (1, 1): 1, (1, 3): 1, (1, 4): 2,
        (2, 4): 1, (2, 5): 4, (3, 6): 2}


def test_entries_second_fixture_both_ambients():
    for n in (4, 6):
        ideal, t = ex_resolution_ideal(n=n)
        tb = betti_table(ideal, t, view="ideal")
        assert tb.entries == {
            (0, 2): 2, (0, 3): 1, (1, 3): 1, (1, 4): 2, (2, 5): 1}
        assert tb.totals() == [3, 3, 1]


def test_ascii_goldens():
    ideal, t = ex_spread_ideal()
    assert betti_table(ideal, t, view="quotient").ascii() == (
        "        0  1  2  3\n"
        "total:  1  4  5  2\n"
        "0:      1  1  -  -\n"
        "1:      -  -  -  -\n"
        "2:      -  1  1  -\n"
        "3:      -  2  4  2")
    ideal2, t2 = ex_resolution_ideal()
    assert betti_table(ideal2, t2, view="ideal").ascii() == (
        "        0  1  2\n"
        "total:  3  3  1\n"
        "2:      2  1  -\n"
        "3:      1  2  1")


def test_json_shape():
    ideal, t = ex_resolution_ideal()
    obj = betti_table(ideal, t, view="quotient").to_json_obj()
    assert obj["view"] == "quotient"
    assert {tuple(e[:2]): e[2] for e in obj["entries"]}[(3, 5)] == 1


def test_formula_matches_free_counts():
    import math
    ideal, t = ex_spread_ideal()
    tb = betti_table(ideal, t, view="ideal")
    for g in ideal.generators:
        f = len(free_indices(g, t))
        for i in range(f + 1):
            assert tb.entries.get((i, i + g.degree), 0) >= math.comb(f, i)


def test_poincare_goldens():
    ideal, t = ex_spread_ideal()
    assert poincare_pd_reg(ideal, t) == ([4, 5, 2], 2, 4)
    ideal2, t2 = ex_resolution_ideal()
    assert poincare_pd_reg(ideal2, t2) == ([3, 3, 1], 2, 3)


def test_zero_and_unit_edge_cases():
    z = MonomialIdeal.zero(3)
    u = MonomialIdeal.unit_ideal(3)
    assert betti_table(z, (0,), view="ideal").entries == {}
    assert betti_table(z, (0,), view="quotient").entries == {(0, 0): 1}
    assert betti_table(u, (0,), view="ideal").entries == {(0, 0): 1}
    assert betti_table(u, (0,), view="quotient").entries == {}
    with pytest.raises(ValueError):
        _ = betti_table(z, (0,), view="ideal").projective_dimension
    with pytest.raises(ValueError):
        poincare_pd_reg(z, (0,))
    assert poincare_pd_reg(u, (0,)) == ([1], 0, 0)


def test_zero_and_unit_view_conversion():
    # S/S = 0 has the empty table and S/0 = S the single entry beta_{0,0}
    for ideal in (MonomialIdeal.zero(3), MonomialIdeal.unit_ideal(3)):
        as_ideal = betti_table(ideal, (0,), view="ideal")
        as_quotient = betti_table(ideal, (0,), view="quotient")
        assert as_ideal.to_quotient() == as_quotient
        assert as_quotient.to_ideal() == as_ideal
        assert as_ideal.to_quotient().to_ideal() == as_ideal
        assert as_quotient.to_ideal().to_quotient() == as_quotient


def test_betti_requires_strongly_stable():
    bad = MonomialIdeal([parse_monomial("x2", 3)], 3)
    with pytest.raises(ValueError):
        betti_table(bad, (1,))


def test_bad_view_rejected():
    ideal, t = ex_resolution_ideal()
    with pytest.raises(ValueError):
        betti_table(ideal, t, view="module")


# -- homology oracle ------------------------------------------------------------


def test_oracle_zero_ideal():
    assert homology_dimensions(MonomialIdeal.zero(3), 3) == {(0, 0): 1}


def test_oracle_unit_ideal():
    assert homology_dimensions(MonomialIdeal.unit_ideal(3), 3) == {}


def test_oracle_principal_variable():
    ideal = MonomialIdeal([parse_monomial("x1", 3)], 3)
    assert homology_dimensions(ideal, 4) == {(0, 0): 1, (1, 1): 1}


def test_oracle_matches_formula_first_fixture():
    ideal, t = ex_spread_ideal()
    dims = homology_dimensions(ideal, 6)
    expected = dict(betti_table(ideal, t, view="quotient").entries)
    assert dims == expected


def test_oracle_matches_formula_second_fixture():
    ideal, t = ex_resolution_ideal()
    dims = homology_dimensions(ideal, 5)
    assert dims == dict(betti_table(ideal, t, view="quotient").entries)


def test_oracle_matches_formula_random():
    rng = random.Random(71)
    done = 0
    while done < 12:
        t = random_spread_vector(rng, max_len=2)
        n = rng.randint(2, 5)
        ideal = random_strongly_stable_ideal(rng, n, t)
        if ideal.is_unit:
            continue
        bound = max(g.degree for g in ideal.generators) + len(free_indices(
            max(ideal.generators, key=lambda g: len(free_indices(g, t))), t))
        dims = homology_dimensions(ideal, bound)
        assert dims == dict(betti_table(ideal, t, view="quotient").entries), (
            ideal.generators, str(t))
        done += 1


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1))
def test_oracle_matches_formula_for_non_admissible_t(seed):
    # the oracle never reads the formula, so they meet only in the paper's
    # theorem, here for t-spread vectors outside the admissible shape
    rng = random.Random(seed)
    t = random_spread_vector(rng)
    while admissible_shape(t):
        t = random_spread_vector(rng)
    ideal = random_strongly_stable_ideal(rng, rng.randint(1, 5), t)
    expected = betti_table(ideal, t, view="quotient").entries
    top = max((j for _, j in expected), default=0)
    assert homology_dimensions(ideal, top) == expected, (
        [str(g) for g in ideal.generators], str(t))


def test_koszul_block_wedges_brute_force():
    # every tau in supp(a) whose residue x^(a - 1_tau) no generator divides
    rng = random.Random(29)
    for _ in range(15):
        n = rng.randint(1, 4)
        ideal = random_monomial_ideal(rng, n, max_degree=3, max_gens=4)
        for a in product(range(3), repeat=n):
            support = [k for k in range(n) if a[k]]
            wedges = set()
            for size in range(len(support) + 1):
                for tau in combinations(support, size):
                    rest = [a[k] - (k in tau) for k in range(n)]
                    if not any(all(e <= r for e, r in zip(g.exponents, rest))
                               for g in ideal.generators):
                        wedges.add(tuple(k + 1 for k in tau))
            block = _koszul_block(ideal, a)
            if not wedges or len(wedges) == 2 ** len(support):
                assert block is None, (ideal, a)
            else:
                assert block is not None, (ideal, a)
                _, support, index = block
                # each wedge's bitmask over the support positions, as a wedge
                found = [[tuple(k + 1 for p, k in enumerate(support) if m >> p & 1)
                          for m in ix] for ix in index]
                assert {w for ix in found for w in ix} == wedges, (ideal, a)
                assert all(len(w) == i for i, ix in enumerate(found) for w in ix)


def box_homology_dimensions(ideal, max_degree):
    """The oracle over every exponent vector of each degree: the reference
    for the walk over the lcm lattice."""
    dims = {} if ideal.is_unit else {(0, 0): 1}
    for q in range(1, max_degree + 1):
        for a in multidegrees(q, ideal.ambient_n):
            block = _koszul_block(ideal, a)
            if block is None:
                continue
            cx = block[0]
            for i in range(len(cx.sizes)):
                if cx.homology(i):
                    dims[(i, q)] = dims.get((i, q), 0) + cx.homology(i)
    return dims


def test_oracle_matches_box_walk():
    # arbitrary monomial ideals, not stable: the cone argument is general
    rng = random.Random(43)
    ideals = [MonomialIdeal.zero(3), MonomialIdeal.unit_ideal(3)]
    ideals += [random_monomial_ideal(rng, rng.randint(1, 4), max_degree=3,
                                     max_gens=5) for _ in range(20)]
    for ideal in ideals:
        got = homology_dimensions(ideal, 7)
        # same entries in the same order
        assert list(got.items()) == list(box_homology_dimensions(ideal, 7).items()), \
            ideal.generators


def rp2_ideal():
    """The Stanley-Reisner ideal of the 6-vertex real projective plane: its
    10 non-faces, the 3-subsets of [6] that are no facet."""
    facets = {"124", "126", "135", "136", "145", "234", "235", "256", "346",
              "456"}
    gens = ["*".join(f"x{k}" for k in trip)
            for trip in map("".join, combinations("123456", 3))
            if trip not in facets]
    return MonomialIdeal([parse_monomial(g, 6) for g in gens], 6)


def test_oracle_on_two_torsion(monkeypatch):
    # H_2(RP^2; Z) = Z/2 sits in the full-support block: its ranks over F_2
    # put homology in two positions, so that block alone reaches rank_int,
    # and the answer is the rational one (over F_2: 1, 10, 15, 7, 1)
    ideal = rp2_ideal()
    assert len(ideal.generators) == 10
    block, rank_int = vecspread.betti._koszul_block, vecspread.linalg.rank_int
    visited, exact = [], []
    monkeypatch.setattr(vecspread.betti, "_koszul_block",
                        lambda ideal, a, shapes: visited.append(a)
                        or block(ideal, a, shapes))
    monkeypatch.setattr(vecspread.linalg, "rank_int",
                        lambda rows: exact.append(visited[-1]) or rank_int(rows))
    assert homology_dimensions(ideal, 6) == {
        (0, 0): 1, (1, 3): 10, (2, 4): 15, (3, 5): 6}
    assert exact and set(exact) == {(1,) * 6}


def unmemoised_homology_dimensions(ideal, max_degree):
    """The oracle with every block built and ranked afresh: the reference
    for the per-call shape memo."""
    dims = {} if ideal.is_unit else {(0, 0): 1}
    for a in lcm_lattice([g.exponents for g in ideal.generators], max_degree):
        block = _koszul_block(ideal, a)
        if block is None:
            continue
        cx = block[0]
        for i in range(len(cx.sizes)):
            if cx.homology(i):
                dims[(i, sum(a))] = dims.get((i, sum(a)), 0) + cx.homology(i)
    return dims


def memo_cases():
    """D12 at cap 10, RP^2, and 20 monomial ideals that are not strongly
    stable."""
    rng = random.Random(53)
    cases = [(roadmap_workload(1, (6, 12), 3)[0], 10), (rp2_ideal(), 6)]
    while len(cases) < 22:
        ideal = random_monomial_ideal(rng, rng.randint(3, 6), max_degree=4,
                                      max_gens=8)
        if not is_strongly_stable(ideal, (0, 0, 0)):
            cases.append((ideal, 8))
    return cases


def test_memoised_oracle_matches_the_unmemoised_one():
    for ideal, cap in memo_cases():
        got = homology_dimensions(ideal, cap)
        assert list(got.items()) == list(
            unmemoised_homology_dimensions(ideal, cap).items()), ideal.generators


def test_oracle_builds_each_shape_once_per_call(monkeypatch):
    ideal, _ = roadmap_workload(1, (6, 8), 3)
    blocks = sum(_koszul_block(ideal, a) is not None
                 for a in lcm_lattice([g.exponents for g in ideal.generators], 9))
    shape, built = vecspread.betti._block_shape, []
    monkeypatch.setattr(vecspread.betti, "_block_shape",
                        lambda s, masks: built.append((s, masks)) or shape(s, masks))
    first = homology_dimensions(ideal, 9)
    once = len(built)
    assert once == len(set(built)) < blocks
    # the memo lasts one call: a second call builds every shape again
    assert homology_dimensions(ideal, 9) == first
    assert built[once:] == built[:once]


def test_sweep_with_and_without_the_shape_memo(monkeypatch):
    cases = [roadmap_workload(1, (6, 8), 3)]
    rng = random.Random(59)
    while len(cases) < 6:
        t = random_spread_vector(rng, max_len=2)
        ideal = random_strongly_stable_ideal(rng, rng.randint(3, 6), t)
        if not ideal.is_unit:
            cases.append((ideal, t))
    memoised = [verify_homology_basis_range(ideal, t, 7) for ideal, t in cases]
    block = vecspread.betti._koszul_block
    monkeypatch.setattr(vecspread.betti, "_koszul_block",
                        lambda ideal, a, shapes: block(ideal, a))
    for (ideal, t), rep in zip(cases, memoised):
        assert rep == verify_homology_basis_range(ideal, t, 7), ideal.generators


@pytest.mark.parametrize("call", [
    lambda ideal, t: homology_dimensions(ideal, -1),
    lambda ideal, t: verify_homology_basis_range(ideal, t, -1),
    lambda ideal, t: verify_homology_basis(ideal, t, 1, -3),
], ids=["oracle", "range", "spot"])
def test_negative_degree_cap_is_refused(call):
    ideal, t = ex_spread_ideal()
    with pytest.raises(ValueError, match="^max_degree must be non-negative$"):
        call(ideal, t)


def test_zero_degree_cap():
    ideal, t = ex_spread_ideal()
    assert homology_dimensions(ideal, 0) == {(0, 0): 1}
    rep = verify_homology_basis_range(ideal, t, 0)
    assert rep.ok and rep.checked_labels == 0


@pytest.mark.parametrize("fixture", [ex_spread_ideal, ex_resolution_ideal])
def test_oracle_never_calls_the_formula(monkeypatch, fixture):
    ideal, _ = fixture()
    expected = homology_dimensions(ideal, 6)

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle must not use the formula side")

    for name in ("betti.betti_table", "betti.free_indices",
                 "koszul.homology_basis_labels", "koszul.spread_labels"):
        monkeypatch.setattr(f"vecspread.{name}", forbidden)
    assert homology_dimensions(ideal, 6) == expected


# -- basis verification -----------------------------------------------------------


def test_verify_basis_first_fixture():
    ideal, t = ex_spread_ideal()
    rep = verify_homology_basis_range(ideal, t, 8)
    assert rep.ok
    assert rep.failures == []
    assert rep.checked_labels == 11
    assert rep.label_counts == rep.homology_counts
    assert rep.label_counts == {
        (1, 1): 1, (1, 3): 1, (1, 4): 2, (2, 4): 1, (2, 5): 4, (3, 6): 2}


def test_verify_basis_single_bidegree():
    ideal, t = ex_spread_ideal()
    rep = verify_homology_basis(ideal, t, 2, 5)
    assert rep.ok
    assert rep.checked_labels == 4


def test_verify_basis_second_fixture_both_ambients():
    for n in (4, 6):
        ideal, t = ex_resolution_ideal(n=n)
        rep = verify_homology_basis_range(ideal, t, 6)
        assert rep.ok, rep.failures
        assert rep.checked_labels == sum(
            len(homology_basis_labels(ideal, t, i)) for i in range(1, 5))


def test_verify_basis_random():
    rng = random.Random(97)
    done = 0
    while done < 8:
        t = random_spread_vector(rng, max_len=2)
        n = rng.randint(2, 5)
        ideal = random_strongly_stable_ideal(rng, n, t)
        if ideal.is_unit:
            continue
        rep = verify_homology_basis_range(ideal, t, 7)
        assert rep.ok, (ideal.generators, str(t), rep.failures)
        done += 1


def test_verify_basis_flags_label_off_the_lattice(monkeypatch):
    # a bogus free index 4 for x1*x2 adds the label (x1*x2; {4}) at
    # x1*x2*x4, which is no lcm of generators; its cycle there is a
    # boundary, so the sweep must still visit that multidegree and fail
    ideal, t = ex_resolution_ideal()
    u = parse_monomial("x1*x2", 4)
    bogus = KoszulChain(ideal, 3)
    bogus.add_term((1, 2, 4), parse_monomial("1", 4), 1)
    bogus = vecspread.koszul.koszul_differential(bogus)
    free, cycle = vecspread.betti.free_indices, vecspread.betti._direct_cycle
    monkeypatch.setattr(vecspread.betti, "free_indices",
                        lambda m, t: (4,) if m == u else free(m, t))
    monkeypatch.setattr(vecspread.betti, "_direct_cycle",
                        lambda ideal, m, sigma: bogus if (m, sigma) == (u, (4,))
                        else cycle(ideal, m, sigma))
    assert not bogus.is_zero
    rep = verify_homology_basis_range(ideal, t, 4)
    assert not rep.ok
    assert any("multidegree (1, 1, 0, 1)" in f for f in rep.failures), rep.failures
    assert rep.failures == [
        "cycles at multidegree (1, 1, 0, 1), i=2 are dependent modulo boundaries",
        "cycles at multidegree (1, 1, 0, 1), i=2 do not span: "
        "kernel 1, boundaries 1, cycles 1"]


def test_verify_basis_flags_a_label_in_a_homology_free_multidegree(
        monkeypatch):
    # a bogus free index 1 for x1 adds the label (x1; {1}) at x1^2, where x1
    # divides every wedge's residue: the block is zero, and the sweep names
    # the label instead of ranking it
    ideal, t = ex_spread_ideal()
    u = parse_monomial("x1", 6)
    free, cycle = vecspread.betti.free_indices, vecspread.betti._direct_cycle
    monkeypatch.setattr(vecspread.betti, "free_indices",
                        lambda m, t: (1,) if m == u else free(m, t))
    monkeypatch.setattr(vecspread.betti, "_direct_cycle",
                        lambda ideal, m, sigma: cycle(ideal, u, ())
                        if (m, sigma) == (u, (1,)) else cycle(ideal, m, sigma))
    assert _koszul_block(ideal, (2, 0, 0, 0, 0, 0)) is None
    rep = verify_homology_basis_range(ideal, t, 8)
    assert not rep.ok
    assert rep.failures == ["labels ['(x1; {1})'] land in a homology-free "
                            "multidegree (2, 0, 0, 0, 0, 0)"]


def test_cycle_column_refuses_a_wedge_outside_the_index():
    # at x2*x3*x4^2*x6 the wedge e4 misses the tight set of x2*x3*x4*x6, so
    # the block has no e4: x2*x3*x4*x6 e4, which only a chain over a smaller
    # ideal holds, has the block's multidegree and no coordinates there
    ideal, _ = ex_spread_ideal()
    a = (0, 1, 1, 2, 0, 1)
    _, support, index = _koszul_block(ideal, a)

    def column(wedge, residue):
        chain = KoszulChain(MonomialIdeal.zero(6), 1)
        chain.add_term(wedge, parse_monomial(residue, 6), 1)
        return vecspread.betti._cycle_column(support, index[1], a, chain)

    assert column((4,), "x2*x3*x4*x6") is None
    assert column((6,), "x2*x3*x4^2") == [(index[1][1 << 3], 1)]


def sweep_with_cycles(monkeypatch, replace):
    """verify_homology_basis_range on the first worked ideal up to degree 8,
    each label's cycle c handed to the sweep as replace(label, c)."""
    ideal, t = ex_spread_ideal()
    cycle = vecspread.betti._direct_cycle
    monkeypatch.setattr(
        vecspread.betti, "_direct_cycle",
        lambda ideal, u, sigma: replace(
            (str(u), tuple(sigma)), cycle(ideal, u, sigma)))
    return verify_homology_basis_range(ideal, t, 8)


def one_term_chain(ideal, wedge, residue):
    """eps(residue) e_wedge, with residue a monomial string over x1..x6."""
    chain = KoszulChain(ideal, len(wedge))
    chain.add_term(wedge, parse_monomial(residue, 6), 1)
    return chain


def test_verify_basis_flags_a_vanished_cycle(monkeypatch):
    target = ("x2*x3*x4*x6", (1, 3))
    rep = sweep_with_cycles(monkeypatch, lambda label, c:
                            c.scale(0) if label == target else c)
    assert not rep.ok
    assert "cycle of (x2*x3*x4*x6; {1,3}) vanished" in rep.failures
    # its multidegree keeps one homology class no label covers
    assert any(f.startswith("cycles at multidegree (1, 1, 2, 1, 0, 1), i=3 "
                            "do not span") for f in rep.failures), rep.failures
    assert rep.failures == [
        "cycle of (x2*x3*x4*x6; {1,3}) vanished",
        "cycles at multidegree (1, 1, 2, 1, 0, 1), i=3 do not span: "
        "kernel 4, boundaries 3, cycles 0"]


def test_verify_basis_flags_a_non_cycle(monkeypatch):
    # eps(x2) e3 has differential x2*x3, which lies outside the ideal
    ideal, _ = ex_spread_ideal()
    bogus = one_term_chain(ideal, (3,), "x2")
    rep = sweep_with_cycles(monkeypatch, lambda label, c:
                            bogus if label == ("x2*x3^2", ()) else c)
    assert not rep.ok
    assert "differential of cycle (x2*x3^2; {}) is non-zero" in rep.failures
    assert rep.failures == [
        "differential of cycle (x2*x3^2; {}) is non-zero",
        "cycles at multidegree (0, 1, 2, 0, 0, 0), i=1 do not span: "
        "kernel 2, boundaries 1, cycles 0"]


def test_verify_basis_flags_a_cycle_leaving_its_block(monkeypatch):
    # the cycle eps(x2*x4^2) e6 of (x2*x4^2*x6; {}) uses e6, and the block
    # of (x2*x3^2; {}) at x2*x3^2 has no x6
    ideal, t = ex_spread_ideal()
    other = vecspread.koszul.koszul_cycle(
        ideal, t, parse_monomial("x2*x4^2*x6", 6), ())
    rep = sweep_with_cycles(monkeypatch, lambda label, c:
                            other if label == ("x2*x3^2", ()) else c)
    assert not rep.ok
    assert "cycle (x2*x3^2; {}) leaves its block" in rep.failures
    assert rep.failures == [
        "cycle (x2*x3^2; {}) leaves its block",
        "cycles at multidegree (0, 1, 2, 0, 0, 0), i=1 do not span: "
        "kernel 2, boundaries 1, cycles 0"]


def test_verify_basis_flags_a_repeated_cycle(monkeypatch):
    # the cycle of (x2*x3*x4*x6; {3}) has the wedge e3^e6, which is also a
    # basis wedge at the multidegree of (x2*x4^2*x6; {3}), but its residue
    # x2*x3*x4 belongs to x2*x3^2*x4*x6: read by wedge alone it would pass
    ideal, t = ex_spread_ideal()
    other = vecspread.koszul.koszul_cycle(
        ideal, t, parse_monomial("x2*x3*x4*x6", 6), (3,))
    rep = sweep_with_cycles(monkeypatch, lambda label, c:
                            other if label == ("x2*x4^2*x6", (3,)) else c)
    assert not rep.ok
    assert rep.failures == [
        "cycle (x2*x4^2*x6; {3}) leaves its block",
        "cycles at multidegree (0, 1, 1, 2, 0, 1), i=2 do not span: "
        "kernel 4, boundaries 3, cycles 0"]


def test_verify_basis_flags_a_boundary_for_a_cycle(monkeypatch):
    # no two labels share a multidegree here, so a dependent column comes
    # from a boundary: d(eps(x4*x6) e2^e3^e4) at the multidegree x2*x3*x4^2*x6
    # of (x2*x4^2*x6; {3}), non-zero and zero modulo boundaries
    ideal, _ = ex_spread_ideal()
    boundary = vecspread.koszul.koszul_differential(
        one_term_chain(ideal, (2, 3, 4), "x4*x6"))
    assert not boundary.is_zero
    rep = sweep_with_cycles(monkeypatch, lambda label, c:
                            boundary if label == ("x2*x4^2*x6", (3,)) else c)
    assert not rep.ok
    assert rep.failures == ["cycles at multidegree (0, 1, 1, 2, 0, 1), i=2 "
                            "are dependent modulo boundaries"]


def test_verify_basis_reaches_rank_int_on_even_cycles(monkeypatch):
    # 2c is zero over F_2 but the same Q-basis: every labelled block misses
    # its bound over F_2 and is decided by rank_int, which keeps it ok
    rank_int, exact = vecspread.linalg.rank_int, []
    monkeypatch.setattr(vecspread.linalg, "rank_int",
                        lambda rows: exact.append(rows) or rank_int(rows))
    rep = sweep_with_cycles(monkeypatch, lambda label, c: c.scale(2))
    assert rep.ok, rep.failures
    assert rep.checked_labels == len(exact) == 11


def test_unit_ideal_has_no_cycles():
    unit_ideal = MonomialIdeal.unit_ideal(3)
    for i in range(1, 5):
        assert homology_basis_labels(unit_ideal, (1,), i) == []
    rep = verify_homology_basis_range(unit_ideal, (1,), 3)
    assert rep.ok, rep.failures
    assert rep.checked_labels == 0
    assert rep.label_counts == rep.homology_counts == {}


def test_verify_basis_requires_strongly_stable():
    bad = MonomialIdeal([parse_monomial("x2", 3)], 3)
    with pytest.raises(ValueError):
        verify_homology_basis_range(bad, (1,), 3)
