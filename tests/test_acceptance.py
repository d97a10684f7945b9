"""Acceptance suite: the contract this package is shipped against.

Each test pins one externally visible guarantee: the two worked examples,
the labelled resolution, the cycle and basis theorems at desk scale,
enumeration counts, the gin comparison, and the shifting properties.
All checks are exact; each records a wall-clock budget.
"""

from __future__ import annotations

import itertools
import json
import math
import random
import time

import pytest

from vecspread import (
    MonomialIdeal,
    SpreadMap,
    SpreadVector,
    apply_spread_map_ideal,
    betti_table,
    build_resolution,
    count_spread_monomials,
    format_monomial,
    format_poly,
    gin,
    homology_basis_labels,
    koszul_cycle,
    koszul_cycle_recursive,
    koszul_differential,
    parse_monomial,
    spread_monomials,
    verify_homology_basis_range,
    verify_resolution,
    verify_shift_properties,
)
from vecspread.cli import main

from util import (
    ex_resolution_ideal,
    ex_spread_ideal,
    random_spread_monomials,
    random_strongly_stable_ideal,
    roadmap_workload,
)


def timed(limit_s):
    start = time.monotonic()

    def check():
        elapsed = time.monotonic() - start
        assert elapsed < limit_s, f"took {elapsed:.1f}s, budget {limit_s}s"

    return check


def write_ideal(tmp_path, payload):
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps(payload))
    return str(path)


# 1. first worked example: quotient Betti table over the CLI, oracle-confirmed


def test_acceptance_1_quotient_table(tmp_path, capsys):
    done = timed(5)
    path = write_ideal(tmp_path, {
        "n": 6, "t": [1, 0, 2],
        "generators": ["x1", "x2*x3^2", "x2*x3*x4*x6", "x2*x4^2*x6"]})
    assert main(["betti", "--ideal", path, "--oracle"]) == 0
    out = capsys.readouterr().out.rstrip()
    assert out == (
        "        0  1  2  3\n"
        "total:  1  4  5  2\n"
        "0:      1  1  -  -\n"
        "1:      -  -  -  -\n"
        "2:      -  1  1  -\n"
        "3:      -  2  4  2\n"
        "oracle: MATCH")
    done()


# 2. second worked example: ideal Betti table, identical in both ambients


def test_acceptance_2_ideal_table_ambient_independent():
    done = timed(2)
    tables = []
    for n in (4, 6):
        ideal, t = ex_resolution_ideal(n=n)
        tb = betti_table(ideal, t, view="ideal")
        assert tb.totals() == [3, 3, 1]
        assert {j: v for (i, j), v in tb.entries.items() if i == 0} == {2: 2, 3: 1}
        # row layout: degree-2 strand (2,1), degree-3 strand (1,2,1)
        assert [tb.entries.get((i, i + 2), 0) for i in range(3)] == [2, 1, 0]
        assert [tb.entries.get((i, i + 3), 0) for i in range(3)] == [1, 2, 1]
        tables.append(tb)
    assert tables[0] == tables[1]
    done()


# 3. labelled resolution: golden matrices, complex, minimal, exact


def test_acceptance_3_resolution_matrices():
    done = timed(10)
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)

    def grid(m):
        return [[format_poly(m.entry(r, c)) for c in range(m.ncols)]
                for r in range(m.nrows)]

    assert grid(res.differential(1)) == [["x1*x2", "x1*x3", "x1*x4^2"]]
    assert grid(res.differential(2)) == [
        ["x3", "x4^2", "0"],
        ["-x2", "0", "x4^2"],
        ["0", "-x2", "-x3"],
    ]
    assert grid(res.differential(3)) == [["-x4^2"], ["x3"], ["-x2"]]
    for i in range(1, res.length):
        assert res.differential(i).compose(res.differential(i + 1)).is_zero
    report = verify_resolution(res, 8)
    assert report.ok, report.failures
    assert report.checks["minimality"] and report.checks["exactness"]
    done()


# 4. cycle suite: 200 random strongly stable ideals, both constructions agree


def test_acceptance_4_cycle_suite():
    done = timed(60)
    rng = random.Random(2024)
    built = 0
    while built < 200:
        t = SpreadVector(tuple(rng.randint(0, 2)
                               for _ in range(rng.randint(1, 3))))
        n = rng.randint(2, 7)
        ideal = random_strongly_stable_ideal(rng, n, t, max_gens=2)
        if ideal.is_unit or ideal.is_zero:
            continue
        built += 1
        for i in itertools.count(1):
            labels = homology_basis_labels(ideal, t, i)
            if not labels:
                break
            for lab in labels:
                direct = koszul_cycle(ideal, t, lab.generator, lab.sigma)
                assert not direct.is_zero, str(lab)
                assert koszul_differential(direct).is_zero, str(lab)
                rec = koszul_cycle_recursive(ideal, t, lab.generator, lab.sigma)
                assert (direct - rec).is_zero, str(lab)
    assert built == 200
    done()


# 5. basis theorem at desk scale: 100 random ideals, all degrees <= 8


def test_acceptance_5_basis_verification():
    done = timed(300)
    rng = random.Random(77)
    built = 0
    while built < 100:
        t = SpreadVector(tuple(rng.randint(0, 2)
                               for _ in range(rng.randint(1, 3))))
        n = rng.randint(2, 6)
        ideal = random_strongly_stable_ideal(rng, n, t, max_gens=2)
        if ideal.is_unit or ideal.is_zero:
            continue
        built += 1
        report = verify_homology_basis_range(ideal, t, 8)
        assert report.ok, (ideal.generators, str(t), report.failures)
        assert report.label_counts == report.homology_counts
    assert built == 100
    done()


# 6. counting identity across the whole desk-scale grid


def test_acceptance_6_counting():
    done = timed(10)
    golden = [format_monomial(m) for m in spread_monomials(5, 4, (1, 0, 2))]
    assert golden == ["x1*x2^2*x4", "x1*x2^2*x5", "x1*x2*x3*x5",
                      "x1*x3^2*x5", "x2*x3^2*x5"]
    for width in range(1, 5):  # d = width + 1 <= 5
        for entries in itertools.product(range(4), repeat=width):
            t = SpreadVector(entries)
            for n in range(1, 9):
                for degree in range(0, t.d + 1):
                    mons = spread_monomials(n, degree, t)
                    assert len(mons) == count_spread_monomials(n, degree, t)
                    assert len(set(mons)) == len(mons)
    done()


# 7. gin theorem: generic initial ideal equals the spread-collapse image


def test_acceptance_7_gin_theorem():
    done = timed(300)
    rng = random.Random(4242)
    built = 0
    while built < 20:
        t = SpreadVector(tuple(rng.randint(0, 2)
                               for _ in range(rng.randint(1, 2))))
        n = rng.randint(2, 5)
        ideal = random_strongly_stable_ideal(rng, n, t, max_gens=2)
        if ideal.is_unit or ideal.is_zero:
            continue
        built += 1
        expected = apply_spread_map_ideal(SpreadMap.to_zero(t), ideal,
                                          ambient_n=ideal.ambient_n)
        got = gin(ideal, seed=rng.randrange(2 ** 32))
        assert got == expected, (ideal.generators, str(t),
                                 got.generators, expected.generators)
    assert built == 20
    done()


# 8. shifting properties on the fixture suite


def test_acceptance_8_shift_properties():
    done = timed(300)
    fixtures = [ex_spread_ideal(), ex_resolution_ideal(),
                (MonomialIdeal([parse_monomial("x1*x2", 2)], 2),
                 SpreadVector((1,)))]
    for ideal, t in fixtures:
        rep = verify_shift_properties(ideal, t, max_degree=10, seed=99)
        assert rep.ok, (ideal.generators, rep.witnesses)
        assert rep.results["strongly_stable"] is True
        assert rep.results["fixed_point"] is True  # all fixtures are stable
        assert rep.results["hilbert_function"] is True

    # a non-stable input: the shift moves it, the other properties must hold
    skew = MonomialIdeal([parse_monomial("x2", 3)], 3)
    rep = verify_shift_properties(skew, (1,), max_degree=10, seed=99)
    assert rep.ok
    assert rep.results["fixed_point"] is None  # skipped: input not stable

    # nested random pairs for containment preservation
    rng = random.Random(31337)
    built = 0
    while built < 10:
        t = SpreadVector(tuple(rng.randint(0, 1)
                               for _ in range(rng.randint(1, 2))))
        n = rng.randint(2, 4)
        inner_seeds = random_spread_monomials(rng, n, t, 1)
        outer_seeds = inner_seeds + random_spread_monomials(rng, n, t, 1)
        if not inner_seeds or len(outer_seeds) < 2:
            continue
        from vecspread import strongly_stable_closure
        inner = strongly_stable_closure(inner_seeds, t, ambient_n=n)
        outer = strongly_stable_closure(outer_seeds, t, ambient_n=n)
        if inner.is_unit or outer.is_unit:
            continue
        built += 1
        rep = verify_shift_properties(inner, t, other=outer, max_degree=10,
                                      seed=rng.randrange(2 ** 32))
        assert rep.ok, rep.witnesses
        assert rep.results["containment"] is True
    assert built == 10
    done()


# 7b. gin theorem on the ROADMAP workloads W7 and W8


def test_acceptance_7b_gin_roadmap_workloads():
    done = timed(60)
    w7 = roadmap_workload(9, (6, 7), 2)
    w8 = roadmap_workload(1, (6, 8), 3)
    assert (w7[0].ambient_n, len(w7[0].generators)) == (7, 30)
    assert (w8[0].ambient_n, len(w8[0].generators)) == (8, 63)
    for name, (ideal, t), budget in (("W7", w7, 3), ("W8", w8, None)):
        start = time.monotonic()
        got = gin(ideal, seed=0)
        elapsed = time.monotonic() - start
        assert budget is None or elapsed < budget, \
            f"{name} gin took {elapsed:.1f}s, budget {budget}s"
        assert got == apply_spread_map_ideal(SpreadMap.to_zero(t), ideal,
                                             ambient_n=ideal.ambient_n)
    done()


# 9. Betti numbers are invariant under spread re-spacing


def test_acceptance_9_betti_invariance():
    done = timed(30)
    rng = random.Random(505)
    built = 0
    while built < 50:
        width = rng.randint(1, 3)
        t = SpreadVector(tuple(rng.randint(0, 2) for _ in range(width)))
        s = SpreadVector(tuple(rng.randint(0, 2) for _ in range(width)))
        n = rng.randint(2, 6)
        ideal = random_strongly_stable_ideal(rng, n, t, max_gens=2)
        if ideal.is_unit or ideal.is_zero:
            continue
        built += 1
        image = apply_spread_map_ideal(SpreadMap(t, s), ideal)
        assert betti_table(image, s, view="ideal") == betti_table(
            ideal, t, view="ideal"), (ideal.generators, str(t), str(s))
    assert built == 50
    done()
