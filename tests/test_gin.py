"""Generic initial ideals by modular echelon, checked against the exact
echelon under unitriangular and full coordinate changes and against the
spread collapse, the packed images and their pivots against the full-width
reference route, and the spread shift."""

from __future__ import annotations

import json
import random
from importlib import import_module

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecspread import (
    CoordinateChange,
    GenericityError,
    MonomialIdeal,
    SpreadMap,
    SpreadVector,
    apply_spread_map_ideal,
    gin,
    hilbert_function,
    initial_ideal,
    is_strongly_stable,
    parse_monomial,
    random_coordinate_change,
    shift,
    verify_shift_properties,
)

from vecspread.cli import main
from vecspread.linalg import (
    PRIME, pack_mod_p, pivot_columns, pivot_columns_mod_p, rank_int)
from vecspread.monomials import Monomial, exponents_degrevlex_key

from util import (
    ex_resolution_ideal,
    ex_spread_ideal,
    multidegrees,
    random_monomial_ideal,
    random_strongly_stable_ideal,
    roadmap_workload,
)


def P(*terms):
    """Integer polynomial from (exps, coeff) pairs."""
    out = {}
    for exps, coeff in terms:
        out[tuple(exps)] = out.get(tuple(exps), 0) + coeff
    return {k: v for k, v in out.items() if v}


# -- linear algebra and initial ideals ---------------------------------------------


def test_pivot_columns_skip_dependent_column():
    rows = [[2, 4, 1, 0], [1, 2, 0, 1], [3, 6, 1, 1]]
    # column 1 is twice column 0, and the third row is the sum of the others
    assert pivot_columns(rows) == [0, 2]
    assert pivot_columns([[0, 0], [0, 0]]) == []
    for m in (rows, [[0, 1, 1], [0, 2, 2]], [[1, 0], [0, 1], [1, 1]], []):
        assert rank_int(m) == len(pivot_columns(m))


def test_initial_ideal_golden():
    # g: x1 -> x1 + x2, x2 -> x1 - x2.  (gI)_2 = <x1^2 + x2^2, x1*x2>, and
    # in(gI) needs x2^3, one degree above the input, to close up
    ideal = MonomialIdeal([parse_monomial(s, 2) for s in ("x1^2", "x2^2")], 2)
    change = CoordinateChange(((1, 1), (1, -1)))
    ini = initial_ideal(ideal, change)
    assert {str(g) for g in ini.generators} == {"x1^2", "x1*x2", "x2^3"}


def test_initial_ideal_zero_ideal():
    change = CoordinateChange(((1, 1, 0), (0, 1, 0), (2, 0, 1)))
    assert initial_ideal(MonomialIdeal.zero(3), change).is_zero


def lcm_degree(ideal):
    return sum(map(max, zip(*(u.exponents for u in ideal.generators))))


def non_stable_draws():
    """Twelve seeded arbitrary monomial ideals, each with a gin seed."""
    rng = random.Random(101)
    for _ in range(12):
        ideal = random_monomial_ideal(rng, rng.randint(2, 4))
        yield ideal, rng.randrange(2 ** 32)


def test_gin_of_non_stable_ideals():
    # arbitrary monomial ideals: gin is classically strongly stable and keeps
    # the Hilbert function up to the lcm degree, which fixes the whole series
    for ideal, seed in non_stable_draws():
        g = gin(ideal, seed=seed)
        top = max(u.degree for u in g.generators)
        assert is_strongly_stable(g, SpreadVector.zero(max(2, top)))
        last = max(lcm_degree(ideal), lcm_degree(g))
        assert hilbert_function(g, last) == hilbert_function(ideal, last)


def monomial_image(change, u):
    """g(u) over Z, expanded one linear form at a time, as exponent vector ->
    coefficient: the reference route for `CoordinateChange.image_rows`."""
    out = {(0,) * change.n: 1}
    for j in u.indices:
        row = change.matrix[j - 1]
        product = {}
        for e, c in out.items():
            for k, a in enumerate(row):
                if a:
                    key = e[:k] + (e[k] + 1,) + e[k + 1:]
                    product[key] = product.get(key, 0) + c * a
        out = {e: c for e, c in product.items() if c}
    return out


def exact_initial_ideal(ideal, change):
    """in(gI) by fraction-free echelon over Z, with the stop rule of
    `initial_ideal`: the reference route for the modular echelon."""
    n = ideal.ambient_n
    if ideal.is_zero:
        return MonomialIdeal.zero(n)
    top = max(g.degree for g in ideal.generators)
    found = MonomialIdeal.zero(n)
    d = min(g.degree for g in ideal.generators)
    while True:
        columns = sorted(multidegrees(d, n), key=exponents_degrevlex_key,
                         reverse=True)
        position = {e: j for j, e in enumerate(columns)}
        rows = []
        for e in columns:
            if ideal.contains_exponents(e):
                row = [0] * len(columns)
                for image, c in monomial_image(
                        change, Monomial.from_exponents(e)).items():
                    row[position[image]] = c
                rows.append(row)
        new = [Monomial.from_exponents(columns[j]) for j in pivot_columns(rows)
               if not found.contains_exponents(columns[j])]
        if new:
            found = MonomialIdeal(found.generators + tuple(new), n)
        if d >= top:
            last = max(lcm_degree(ideal), lcm_degree(found))
            if hilbert_function(found, last) == hilbert_function(ideal, last):
                return found
        d += 1


# the worked examples and W7 with the gin seeds the tests use, and the
# non-stable draws
ACCEPTANCE = {"first-example": (ex_spread_ideal()[0], 2),
              "second-example": (ex_resolution_ideal()[0], 7),
              "W7": (roadmap_workload(9, (6, 7), 2)[0], 0)}
ACCEPTANCE.update((f"draw{k}", case) for k, case in enumerate(non_stable_draws()))


def full_coordinate_change(n, rng, bound):
    """A change with every entry drawn from [-bound, bound], drawn again
    while singular mod p: the draw before the unitriangular one, the
    reference that gin reaches from a change in all of GL_n."""
    while True:
        matrix = tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                       for _ in range(n))
        try:
            return CoordinateChange(matrix)
        except ValueError:
            continue


@pytest.mark.parametrize("ideal, seed", ACCEPTANCE.values(), ids=ACCEPTANCE)
def test_modular_initial_ideal_matches_exact(ideal, seed):
    # the two coordinate changes gin draws first from this seed, and a full
    # one: the matrix is read on the columns the images reach, whatever the
    # shape of the change
    rng = random.Random(seed)
    n = ideal.ambient_n
    changes = [random_coordinate_change(n, rng, 100) for _ in range(2)]
    for change in changes + [full_coordinate_change(n, rng, 100)]:
        assert initial_ideal(ideal, change) == exact_initial_ideal(ideal, change)


def test_random_coordinate_change_is_unitriangular():
    for n in range(1, 7):
        matrix = random_coordinate_change(n, random.Random(n), 5).matrix
        assert [row[j] for j, row in enumerate(matrix)] == [1] * n
        assert all(row[k] == 0 for j, row in enumerate(matrix)
                   for k in range(j + 1, n))
    # the entries below the diagonal are all drawn, from the whole range
    below = [a for row in random_coordinate_change(40, random.Random(0), 3).matrix
             for a in row[:-1]]
    assert set(below) >= set(range(-3, 4))


@pytest.mark.parametrize("ideal, seed", ACCEPTANCE.values(), ids=ACCEPTANCE)
def test_gin_matches_exact_under_a_full_change(ideal, seed):
    # a unitriangular change reaches the gin that a change in all of GL_n
    # reaches, read here by the exact echelon
    change = full_coordinate_change(ideal.ambient_n, random.Random(seed), 100)
    assert gin(ideal, seed=seed) == exact_initial_ideal(ideal, change)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 5), st.integers(0, 2 ** 32 - 1))
def test_gin_matches_exact_under_a_full_change_property(n, seed):
    # entries from [-100, 100] make a non-generic full change about once in
    # 200 draws (x1 -> -87*x2 gave in(g(x1^2)) = x2^2); from [-10^9, 10^9]
    # such a draw is about 10^7 times rarer
    rng = random.Random(seed)
    ideal = random_monomial_ideal(rng, n)
    change = full_coordinate_change(n, rng, 10 ** 9)
    assert gin(ideal, seed=seed) == exact_initial_ideal(ideal, change)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5), st.lists(st.integers(0, 2), min_size=1, max_size=3),
       st.integers(0, 2 ** 32 - 1))
def test_gin_is_the_spread_collapse(n, t, seed):
    # gin of a t-spread strongly stable ideal is its image under the map
    # that collapses t-spread monomials to 0-spread ones
    t = SpreadVector(tuple(t))
    rng = random.Random(seed)
    ideal = random_strongly_stable_ideal(rng, n, t)
    expected = apply_spread_map_ideal(SpreadMap.to_zero(t), ideal, ambient_n=n)
    assert gin(ideal, seed=rng.randrange(2 ** 32)) == expected


# the module, not the function `gin` the package exports under its name
gin_module = import_module("vecspread.gin")


def descending_columns(d, n):
    return sorted(multidegrees(d, n), key=exponents_degrevlex_key, reverse=True)


def unpack(row, width):
    """The 64-bit fields of a packed row, column 0 first."""
    data = row.to_bytes(8 * width, "little")
    return [int.from_bytes(data[8 * j:8 * j + 8], "little")
            for j in range(width)]


def gin_matrices(ideal, seed, draw):
    """(change, degree, rows) of every Macaulay matrix that the first two
    changes drawn by draw from this seed take, through the top generator
    degree of I and of its initial ideal."""
    rng = random.Random(seed)
    for _ in range(2):
        change = draw(ideal.ambient_n, rng, 100)
        top = max(g.degree for g in initial_ideal(ideal, change).generators)
        low = min(g.degree for g in ideal.generators)
        for d in range(low, max(top, max(g.degree for g in ideal.generators)) + 1):
            yield change, d, gin_module._degree_part(ideal, d)


def images_mod_p(change, monomials):
    """g(m) mod p for each m, as exponent vector -> coefficient, the terms
    that vanish mod p dropped."""
    return [{e: c % PRIME
             for e, c in monomial_image(change, Monomial.from_exponents(m)).items()
             if c % PRIME}
            for m in monomials]


def full_width_pivots(change, rows, d):
    """The pivot columns mod p, as monomials, of the Macaulay matrix over
    every degree-d monomial: the reference route for the occurring columns."""
    columns = descending_columns(d, change.n)
    packed = [pack_mod_p([image.get(e, 0) for e in columns])
              for image in images_mod_p(change, rows)]
    return [columns[j] for j in pivot_columns_mod_p(packed)]


PREFIX_CASES = {"W7": (roadmap_workload(9, (6, 7), 2)[0], 0),
                "W8": (roadmap_workload(1, (6, 8), 3)[0], 0)}
PREFIX_CASES.update((f"draw{k}", case)
                    for k, case in enumerate(non_stable_draws()))


@pytest.mark.parametrize("ideal, seed", PREFIX_CASES.values(), ids=PREFIX_CASES)
def test_prefix_pivots_match_full_width(ideal, seed):
    # a column no image reaches is zero and never a pivot, so the pivots on
    # the occurring columns are those of the full width, for the
    # unitriangular changes gin draws and for full ones
    for draw in (random_coordinate_change, full_coordinate_change):
        for change, d, rows in gin_matrices(ideal, seed, draw):
            columns, images = change.image_rows(rows)
            pivots = [columns[j] for j in pivot_columns_mod_p(images)]
            assert pivots == full_width_pivots(change, rows, d), (draw, d)
            assert len(pivots) == len(rows)  # g_p is an automorphism


def check_image_rows(change, monomials):
    """image_rows gives the monomials with a coefficient non-zero mod p in
    some image, in descending degrevlex order, and rows that unpack to the
    images over them."""
    images = images_mod_p(change, monomials)
    columns, rows = change.image_rows(monomials)
    assert columns == sorted(set().union(*images), key=exponents_degrevlex_key,
                             reverse=True)
    assert [unpack(r, len(columns)) for r in rows] == [
        [image.get(e, 0) for e in columns] for image in images]


@pytest.mark.parametrize("ideal, seed", ACCEPTANCE.values(), ids=ACCEPTANCE)
def test_image_rows_match_monomial_image(ideal, seed):
    n = ideal.ambient_n
    rng = random.Random(seed)
    for change in (random_coordinate_change(n, rng, 100),
                   full_coordinate_change(n, rng, 100)):
        for d in range(1, max(g.degree for g in ideal.generators) + 1):
            check_image_rows(change, gin_module._degree_part(ideal, d))


def test_image_rows_wide_exponent_field():
    # degree 300 needs 9 bits per exponent field: an 8-bit field would
    # carry x1^256 into x2
    check_image_rows(CoordinateChange(((3, -5), (7, 2))), [(200, 100)])
    ideal = MonomialIdeal([parse_monomial("x1^200*x2^100", 2)], 2)
    assert {str(g) for g in gin(ideal, seed=3).generators} == {"x1^300"}


def test_gin_runs_one_echelon_per_degree(monkeypatch):
    # two quadrics in four variables: each change visits degrees 2 and 3,
    # and runs one echelon on each, on the rows image_rows made
    made, echeloned = [], []
    image_rows = CoordinateChange.image_rows
    pivot_columns = gin_module.pivot_columns_mod_p

    def spy_rows(self, monomials):
        columns, rows = image_rows(self, monomials)
        made.append((sum(monomials[0]), rows))
        return columns, rows

    def spy_pivots(rows):
        echeloned.append(rows)
        return pivot_columns(rows)

    monkeypatch.setattr(CoordinateChange, "image_rows", spy_rows)
    monkeypatch.setattr(gin_module, "pivot_columns_mod_p", spy_pivots)
    ideal = MonomialIdeal([parse_monomial(s, 4) for s in ("x1^2", "x2^2")], 4)
    g = gin(ideal, seed=7)
    assert [str(u) for u in g.generators] == ["x1^2", "x1*x2", "x2^3"]
    assert [d for d, _ in made] == [2, 3, 2, 3]
    assert echeloned == [rows for _, rows in made]


def test_gin_counts_each_hilbert_function_once(monkeypatch):
    # the stop test compares the Hilbert functions of S/J and S/I; within a
    # gin call each is counted once for both changes, which agree
    counted = []
    hilbert = gin_module.hilbert_function
    ideal, _ = ex_resolution_ideal()

    def spy(target, last):
        counted.append(target)
        return hilbert(target, last)

    monkeypatch.setattr(gin_module, "hilbert_function", spy)
    g = gin(ideal, seed=7)
    assert counted.count(ideal) == 1 and counted.count(g) == 1
    assert len(counted) == len(set(counted))
    counted.clear()
    assert gin(ideal, seed=7) == g and counted.count(ideal) == 1


def disagreeing_changes(monkeypatch):
    """Make every change's initial ideal differ from all the others', and
    return the bounds gin draws its changes at, in order."""
    bounds, seen = [], []
    draw = gin_module.random_coordinate_change

    def spy_draw(n, rng, bound):
        bounds.append(bound)
        return draw(n, rng, bound)

    def initial(ideal, change, *, _shared=None):
        seen.append(change)
        n = ideal.ambient_n
        return MonomialIdeal([parse_monomial(f"x1^{len(seen)}", n)], n)

    monkeypatch.setattr(gin_module, "random_coordinate_change", spy_draw)
    monkeypatch.setattr(gin_module, "initial_ideal", initial)
    return bounds


def test_gin_gives_up_when_the_changes_never_agree(monkeypatch):
    # the bound doubles from 100 after each try, two changes per try, and
    # after MAX_RETRIES = 3 doublings gin names the last bound and gives up
    bounds = disagreeing_changes(monkeypatch)
    ideal, _ = ex_resolution_ideal()
    with pytest.raises(GenericityError,
                       match="^independent coordinate changes kept "
                             "disagreeing up to bound 800; genericity not "
                             "certified$"):
        gin(ideal, seed=7)
    assert bounds == [100, 100, 200, 200, 400, 400, 800, 800]


def test_cli_gin_reports_giving_up_in_one_line(monkeypatch, capsys, tmp_path):
    disagreeing_changes(monkeypatch)
    path = tmp_path / "J.json"
    path.write_text('{"n": 4, "t": [1, 0], '
                    '"generators": ["x1*x2", "x1*x3", "x1*x4^2"]}')
    assert main(["gin", "--ideal", str(path), "--seed", "7"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == ("error: independent coordinate changes kept disagreeing "
                   "up to bound 800; genericity not certified\n")


def test_initial_ideal_stays_below_the_exact_one():
    # g = [[1, p], [0, 1]] is the identity mod p: the modular echelon sees
    # I itself, while over Q, x2 -> p*x1 + x2 makes x1 the lead of g(x2)
    ideal = MonomialIdeal([parse_monomial("x2", 2)], 2)
    change = CoordinateChange(((1, 0), (PRIME, 1)))
    assert {str(g) for g in initial_ideal(ideal, change).generators} == {"x2"}
    # x1 has the coefficient p in g(x2), so no column is made for it
    assert change.image_rows([(0, 1)]) == ([(0, 1)], [1])
    assert {str(g) for g in exact_initial_ideal(ideal, change).generators} \
        == {"x1"}


# -- coordinate changes ------------------------------------------------------------


def test_coordinate_change_rejects_singular():
    with pytest.raises(ValueError):
        CoordinateChange(((1, 2), (2, 4)))
    with pytest.raises(ValueError, match="invertible mod"):
        # invertible over Q, but singular mod p
        CoordinateChange(((PRIME, 0), (0, 1)))
    with pytest.raises(ValueError):
        CoordinateChange(((1, 2, 3), (4, 5, 6)))  # not square


def test_monomial_image_golden():
    # identity matrix keeps the monomial
    change = CoordinateChange(((1, 0), (0, 1)))
    img = monomial_image(change, parse_monomial("x1*x2", 2))
    assert img == P(((1, 1), 1))
    # x1 -> x1 + x2 squares out to x1^2 + 2 x1 x2 + x2^2
    change2 = CoordinateChange(((1, 1), (0, 1)))
    img2 = monomial_image(change2, parse_monomial("x1^2", 2))
    assert img2 == P(((2, 0), 1), ((1, 1), 2), ((0, 2), 1))


def test_random_coordinate_change_seeded():
    a = random_coordinate_change(3, random.Random(4), 10)
    b = random_coordinate_change(3, random.Random(4), 10)
    assert a.matrix == b.matrix
    assert all(abs(x) <= 10 for row in a.matrix for x in row)


def test_random_coordinate_change_bound_guard():
    with pytest.raises(ValueError):
        random_coordinate_change(2, random.Random(0), 0)


# -- gin -----------------------------------------------------------------------------


def test_gin_golden_second_fixture():
    ideal, t = ex_resolution_ideal()
    g = gin(ideal, seed=7)
    expected = apply_spread_map_ideal(SpreadMap.to_zero(t), ideal, ambient_n=4)
    assert g == expected
    assert {str(m) for m in g.generators} == {"x1^2", "x1*x2", "x1*x3^2"}


def test_gin_powers_of_x1():
    for a in (1, 2, 3):
        ideal = MonomialIdeal(
            [parse_monomial(f"x1^{a}" if a > 1 else "x1", 3)], 3)
        assert gin(ideal, seed=1) == ideal


def test_gin_zero_and_unit_passthrough():
    assert gin(MonomialIdeal.zero(3), seed=0).is_zero
    assert gin(MonomialIdeal.unit_ideal(3), seed=0).is_unit


def test_gin_idempotent_on_classically_strongly_stable():
    ideal = MonomialIdeal(
        [parse_monomial(s, 3) for s in ("x1^2", "x1*x2", "x2^2")], 3)
    assert gin(ideal, seed=3) == ideal


def test_gin_deterministic_by_seed():
    ideal, _ = ex_resolution_ideal()
    assert gin(ideal, seed=11) == gin(ideal, seed=11)


def test_gin_preserves_hilbert_function():
    rng = random.Random(59)
    done = 0
    while done < 5:
        t = SpreadVector((rng.randint(0, 1), rng.randint(0, 1)))
        n = rng.randint(2, 4)
        ideal = random_strongly_stable_ideal(rng, n, t)
        if ideal.is_unit:
            continue
        g = gin(ideal, seed=rng.randrange(2 ** 32))
        assert hilbert_function(ideal, 6) == hilbert_function(g, 6)
        done += 1


# -- shift ----------------------------------------------------------------------------


def test_shift_fixes_first_fixture():
    ideal, t = ex_spread_ideal()
    assert shift(ideal, t, seed=2) == ideal


def test_shift_fixes_principal_spread_ideal():
    ideal = MonomialIdeal([parse_monomial("x1*x2", 2)], 2)
    assert shift(ideal, (1,), seed=5) == ideal


def test_shift_produces_strongly_stable():
    rng = random.Random(83)
    done = 0
    while done < 6:
        t = SpreadVector(tuple(rng.randint(0, 2) for _ in range(rng.randint(1, 2))))
        n = rng.randint(2, 4)
        ideal = random_strongly_stable_ideal(rng, n, t)
        if ideal.is_unit:
            continue
        shifted = shift(ideal, t, seed=rng.randrange(2 ** 32))
        assert is_strongly_stable(shifted, t), (ideal.generators, str(t))
        done += 1


def test_shift_degree_capacity_error():
    ideal = MonomialIdeal([parse_monomial("x1*x2*x3", 3)], 3)
    with pytest.raises(ValueError):
        shift(ideal, (1,), seed=0)


def test_verify_shift_properties_fixture():
    ideal, t = ex_spread_ideal()
    rep = verify_shift_properties(ideal, t, seed=9)
    assert rep.ok
    assert rep.results["strongly_stable"] is True
    assert rep.results["fixed_point"] is True
    assert rep.results["hilbert_function"] is True
    assert rep.results["containment"] is None
    assert "pass" in str(rep)


def test_verify_shift_properties_containment():
    small = MonomialIdeal([parse_monomial("x1*x2", 3)], 3)
    big = MonomialIdeal([parse_monomial("x1", 3)], 3)
    rep = verify_shift_properties(small, (1,), big, seed=21)
    assert rep.ok
    assert rep.results["containment"] is True


def test_verify_shift_containment_precondition():
    a = MonomialIdeal([parse_monomial("x1", 3)], 3)
    b = MonomialIdeal([parse_monomial("x2*x3", 3)], 3)
    with pytest.raises(ValueError):
        verify_shift_properties(a, (1,), b, seed=0)


def I3(*generators):
    return MonomialIdeal([parse_monomial(g, 3) for g in generators], 3)


# (ideal, t, the larger ideal or None, what shift returns call by call, the
# flag that fails, the witnesses): each a shift that breaks one property
BROKEN_SHIFTS = [
    (I3("x2*x3"), (1,), None, [I3("x2*x3")], "strongly_stable",
     ["shifted ideal MonomialIdeal((x2*x3), n=3) is not strongly stable"]),
    (I3("x2*x3"), (1,), None, [I3("x1^2")], "strongly_stable",
     ["shifted ideal is not t-spread: generator x1^2 is not (1)-spread"]),
    # two strongly stable ideals with one Hilbert function
    (I3("x1^2", "x1*x2", "x2^2"), (0, 0), None,
     [I3("x1^2", "x1*x2", "x1*x3", "x2^3")], "fixed_point",
     ["strongly stable input moved: MonomialIdeal((x1^2, x1*x2, x2^2), n=3) "
      "became MonomialIdeal((x1^2, x1*x2, x1*x3, x2^3), n=3)"]),
    (I3("x2"), (1,), None, [I3("x1", "x2")], "hilbert_function",
     ["Hilbert functions differ in ambient 3: [1, 2, 3, 4, 5] vs "
      "[1, 1, 1, 1, 1]"]),
    (I3("x1*x2"), (1,), I3("x1"), [I3("x1*x2"), I3("x3")], "containment",
     ["containment lost: MonomialIdeal((x1*x2), n=3) is not inside "
      "MonomialIdeal((x3), n=3)"]),
]
BROKEN_IDS = ["not-strongly-stable", "not-t-spread", "moved-fixed-point",
              "hilbert-function", "containment"]


def broken_shift(monkeypatch, returned):
    answers = iter(returned)
    monkeypatch.setattr(gin_module, "shift",
                        lambda ideal, t, *, seed=None: next(answers))


@pytest.mark.parametrize("ideal, t, other, returned, flag, witnesses",
                         BROKEN_SHIFTS, ids=BROKEN_IDS)
def test_verify_shift_properties_names_each_witness(
        monkeypatch, ideal, t, other, returned, flag, witnesses):
    broken_shift(monkeypatch, returned)
    rep = verify_shift_properties(ideal, t, other, seed=0)
    assert not rep.ok
    assert [k for k, v in rep.results.items() if v is False] == [flag]
    assert rep.witnesses == witnesses
    assert str(rep).splitlines()[1:] == [f"  {w}" for w in witnesses]


@pytest.mark.parametrize("ideal, t, other, returned, flag, witnesses",
                         [c for c in BROKEN_SHIFTS if c[2] is None],
                         ids=BROKEN_IDS[:-1])
def test_cli_shift_verify_exits_1_with_the_witnesses(
        monkeypatch, capsys, tmp_path, ideal, t, other, returned, flag,
        witnesses):
    broken_shift(monkeypatch, returned)
    path = tmp_path / "ideal.json"
    path.write_text(json.dumps({"n": 3, "t": list(t), "generators": [
        str(g) for g in ideal.generators]}))
    argv = ["shift", "--ideal", str(path), "--t", ",".join(map(str, t)),
            "--seed", "0", "--verify"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err.splitlines() == witnesses
    properties = json.loads(out)["properties"]
    assert [k for k, v in properties.items() if v is False] == [flag]


def test_shift_not_fixed_on_non_stable_input():
    # (x2) is not strongly stable; its shift is (x1)
    ideal = MonomialIdeal([parse_monomial("x2", 3)], 3)
    shifted = shift(ideal, (1,), seed=13)
    assert {str(g) for g in shifted.generators} == {"x1"}
