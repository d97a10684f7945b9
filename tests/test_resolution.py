"""Minimal free resolutions: construction, golden matrices, verification."""

from __future__ import annotations

import random
from fractions import Fraction
from operator import index, le, sub

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import vecspread.ideals
from vecspread import koszul, linalg, resolution
from vecspread import (
    CycleLabel,
    Monomial,
    MonomialIdeal,
    Resolution,
    ResolutionReport,
    SpreadVector,
    betti_table,
    build_resolution,
    decomposition_function,
    format_exponents,
    format_poly,
    free_indices,
    hilbert_function,
    homology_basis_labels,
    homology_dimensions,
    parse_monomial,
    variable,
    verify_homology_basis_range,
    verify_resolution,
)
from vecspread.ideals import minimal_exponents

from util import (
    add_term,
    ex_resolution_ideal,
    grid,
    random_strongly_stable_ideal,
    reference_compose,
    roadmap_workload,
)


# -- golden matrices ----------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6])
def test_golden_differentials(n):
    ideal, t = ex_resolution_ideal(n=n)
    res = build_resolution(ideal, t)
    assert res.length == 3
    assert [res.rank(i) for i in range(4)] == [1, 3, 3, 1]
    assert grid(res, 1) == [["x1*x2", "x1*x3", "x1*x4^2"]]
    assert grid(res, 2) == [
        ["x3", "x4^2", "0"],
        ["-x2", "0", "x4^2"],
        ["0", "-x2", "-x3"],
    ]
    assert grid(res, 3) == [["-x4^2"], ["x3"], ["-x2"]]


def test_golden_basis_order():
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    assert [str(l) for l in res.basis(1)] == [
        "(x1*x2; {})", "(x1*x3; {})", "(x1*x4^2; {})"]
    assert [str(l) for l in res.basis(2)] == [
        "(x1*x3; {2})", "(x1*x4^2; {2})", "(x1*x4^2; {3})"]
    assert [str(l) for l in res.basis(3)] == ["(x1*x4^2; {2,3})"]


def test_length_is_projective_dimension():
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    tb = betti_table(ideal, t, view="quotient")
    assert res.length == tb.projective_dimension == 3
    assert res.graded_rank_counts() == tb.entries


def test_ascii_and_json():
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    text = res.ascii()
    assert "ranks: F0=1, F1=3, F2=3, F3=1" in text
    assert "[ x1*x2  x1*x3  x1*x4^2 ]" in text
    obj = res.to_json_obj()
    assert obj["ranks"] == [1, 3, 3, 1]
    assert obj["differentials"][2]["entries"] == [
        [0, 0, "-x4^2"], [1, 0, "x3"], [2, 0, "-x2"]]


# -- verification -------------------------------------------------------------


@pytest.mark.parametrize("n", [4, 6])
def test_verify_passes(n):
    ideal, t = ex_resolution_ideal(n=n)
    rep = verify_resolution(build_resolution(ideal, t), 8)
    assert rep.ok, rep.failures
    assert rep.checks == {
        "complex": True, "minimality": True, "multigraded": True,
        "exactness": True, "graded_ranks": True}


def test_verify_detects_sign_flip():
    ideal, t = ex_resolution_ideal()
    # turn the (0,0) entry x3 of d_2 into -x3
    rep = verify_resolution(flip_sign(build_resolution(ideal, t)), 6)
    assert not rep.ok
    assert rep.checks["complex"] is False
    assert any("d1" in f or "compose" in f or "position" in f for f in rep.failures)


def test_verify_detects_unit_entry():
    ideal, t = ex_resolution_ideal()
    rep = verify_resolution(unit_entry(build_resolution(ideal, t)), 6)
    assert rep.checks["minimality"] is False


def test_verify_detects_wrong_multidegree():
    ideal, t = ex_resolution_ideal()
    rep = verify_resolution(wrong_multidegree(build_resolution(ideal, t)), 6)
    assert rep.checks["multigraded"] is False


def test_verify_detects_rank_drop():
    ideal, t = ex_resolution_ideal()
    rep = verify_resolution(clear_d3(build_resolution(ideal, t)), 6)
    assert not rep.ok
    assert rep.checks["complex"] is True  # zero map still composes to zero
    assert rep.checks["exactness"] is False


def test_verify_rescaled_basis_element():
    # replacing basis element c of F2 by its negative negates column c of d2
    # and row c of d3: still a minimal resolution
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    c = 1
    res.columns[1][c] = {r: -v for r, v in res.columns[1][c].items()}
    for col in res.columns[2]:
        if c in col:
            col[c] *= -1
    rep = verify_resolution(res, 6)
    assert rep.ok, rep.failures
    assert all(rep.checks.values())

    rep = verify_resolution(scale_entry(3)(res), 6)
    assert rep.checks["complex"] is False
    assert rep.checks["exactness"] is False


@pytest.fixture
def f2_calls(monkeypatch):
    """The packed rows whose rank is taken over F_2, the strands' one
    modular tier."""
    calls = []
    rank_mod_2 = linalg.rank_mod_2

    def counted(rows):
        rows = list(rows)
        calls.append(rows)
        return rank_mod_2(rows)

    monkeypatch.setattr(linalg, "rank_mod_2", counted)
    return calls


def exact_witnesses(res, monkeypatch):
    """The checks and failures of verify_resolution with every rank taken
    by rank_int: an F_2 tier that sees nothing certifies only zero maps, so
    every strand with a non-zero map reaches the lazy exact columns."""
    exact_calls = []
    rank_int = linalg.rank_int
    with monkeypatch.context() as m:
        m.setattr(linalg, "rank_mod_2", lambda rows: 0)
        m.setattr(linalg, "rank_int",
                  lambda rows: exact_calls.append(rows) or rank_int(rows))
        exact = verify_resolution(res, 6)
    assert exact_calls or not exact.checks["multigraded"]
    return exact.checks, exact.failures


def assert_scaled_entry_is_ranked_exactly(scale, f2_calls, monkeypatch):
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    assert verify_resolution(res, 6).ok and f2_calls
    scale_entry(scale)(res)
    f2_calls.clear()
    rep = verify_resolution(res, 6)
    assert rep.checks["complex"] is False
    assert any(f.startswith("not exact at position") for f in rep.failures)
    assert not f2_calls
    assert (rep.checks, rep.failures) == exact_witnesses(res, monkeypatch)


def test_verify_torsion_entry_is_ranked_exactly(f2_calls, monkeypatch):
    # an entry scaled by p breaks d o d = 0 and vanishes mod p: once the
    # complex check fails, no strand is ranked modularly, and the witnesses
    # are those of exact elimination
    assert_scaled_entry_is_ranked_exactly(linalg.PRIME, f2_calls,
                                          monkeypatch)


def test_verify_two_scaled_entry_is_ranked_exactly(f2_calls, monkeypatch):
    # the same with an entry scaled by 2, which vanishes over F_2
    assert_scaled_entry_is_ranked_exactly(2, f2_calls, monkeypatch)


def test_verify_rejects_non_int_coefficient():
    # columns is public and editable; a rational there is refused rather
    # than truncated by the integer elimination
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    res.columns[1][0][0] = Fraction(1, 2)
    with pytest.raises(TypeError):
        verify_resolution(res, 6)


def test_verify_flags_label_off_the_generators(f2_calls):
    # (x1*x3*x4; {4}) has the multidegree and position of (x1*x4^2; {3}),
    # but x1*x3*x4 is no minimal generator: its label matches no strand scan,
    # so the strands drop it, are no complexes and are ranked exactly
    ideal, t = ex_resolution_ideal()
    rep = verify_resolution(stray_label(build_resolution(ideal, t)), 6)
    assert rep.checks["multigraded"] is True
    assert rep.checks["exactness"] is False
    assert "labels on x1*x3*x4, not a minimal generator" in rep.failures
    assert rep.checks["complex"] is True and not f2_calls


def zero_entry(res, i, key):
    r, c = key
    del res.columns[i - 1][c][r]
    return res


def drop_generator_label(res, c):
    """res without position-1 basis element c: column c of d1, row c of d2."""
    bases = [list(b) for b in res.bases]
    del bases[0][c]
    d1, d2, *rest = res.columns
    d1 = d1[:c] + d1[c + 1:]
    d2 = [{k - (k > c): v for k, v in col.items() if k != c} for col in d2]
    return Resolution(res.ideal, res.t, bases, [d1, d2, *rest])


def resolve_subideal(res):
    """An exact resolution of S/(x1*x2, x1*x3) passed off as one of S/I."""
    sub = MonomialIdeal(res.ideal.generators[:2], res.ideal.ambient_n)
    other = build_resolution(sub, res.t)
    return Resolution(res.ideal, res.t, other.bases, other.columns)


WITNESS_CASES = [
    lambda res: zero_entry(res, 2, (0, 0)),
    lambda res: zero_entry(res, 1, (0, 0)),
    lambda res: drop_generator_label(res, 0),
    resolve_subideal,
]


@pytest.mark.parametrize("corrupt", WITNESS_CASES,
                         ids=["d2-entry", "d1-entry", "position-1-label", "sub-ideal"])
def test_verify_exactness_names_a_witness(corrupt):
    ideal, t = ex_resolution_ideal()
    rep = verify_resolution(corrupt(build_resolution(ideal, t)), 6)
    assert rep.checks["multigraded"] is True
    assert rep.checks["exactness"] is False
    assert any(f.startswith(("not exact at position", "cokernel at position 0"))
               for f in rep.failures), rep.failures


def flip_sign(res):
    res.columns[1][0][0] -= 2  # x3 -> -x3
    return res


def unit_entry(res):
    """F2's label (x1*x4^2; {2}) raised to (x1*x4^2; {2,3}), the label of
    F3: entry (1,0) of d3 joins two labels of one multidegree, a constant."""
    res.bases[1][1] = CycleLabel(res.bases[1][1].generator, (2, 3))
    return res


def wrong_multidegree(res):
    # rows x1*x4^2 and column (x1*x3; {2}) are incomparable multidegrees
    res.columns[1][0][2] = 1  # x2*x3*x4^-2
    return res


def scale_entry(factor):
    def corrupt(res):
        res.columns[1][0][0] *= factor
        return res
    return corrupt


def clear_d3(res):
    for col in res.columns[2]:
        col.clear()
    return res


def stray_label(res):
    c = [str(lab) for lab in res.bases[1]].index("(x1*x4^2; {3})")
    res.bases[1][c] = CycleLabel(parse_monomial("x1*x3*x4", 4), (4,))
    return res


CORRUPTIONS = [
    *WITNESS_CASES,
    flip_sign,
    unit_entry,
    wrong_multidegree,
    clear_d3,
    scale_entry(linalg.PRIME),
    scale_entry(2),
    scale_entry(3),
    stray_label,
]
CORRUPTION_IDS = [
    "d2-entry", "d1-entry", "position-1-label", "sub-ideal", "flip-sign",
    "unit-entry", "wrong-multidegree", "clear-d3", "scale-p", "scale-2",
    "scale-3", "stray-label",
]
CHECKS = ("complex", "minimality", "multigraded", "exactness", "graded_ranks")

# (failing checks, failures) of verify_resolution(corrupt(res), 6) for each
# of CORRUPTIONS, in order; every other check passes
CORRUPTION_WITNESSES = [
    ("complex exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = -x1*x2*x3",
        "d2 d3 is non-zero, e.g. entry (0, 0) = x3*x4^2",
        "not exact at position 1, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 2, next image 3",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]),
    ("complex exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = -x1*x2*x3",
        "not exact at position 0, degree 2, multidegree (1, 1, 0, 0): "
        "kernel 1, next image 0",
        "not exact at position 1, degree 2, multidegree (1, 1, 0, 0): "
        "kernel 1, next image 0",
    ]),
    ("complex exactness graded_ranks", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = -x1*x2*x3",
        "not exact at position 1, degree 3, multidegree (1, 1, 1, 0): "
        "kernel 0, next image 1",
        "not exact at position 1, degree 4, multidegree (1, 1, 0, 2): "
        "kernel 0, next image 1",
        "not exact at position 1, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 1, next image 2",
        "cokernel at position 0 has dimension 9 in degree 2, Hilbert "
        "function says 8",
        "cokernel at position 0 has dimension 15 in degree 3, Hilbert "
        "function says 12",
        "cokernel at position 0 has dimension 22 in degree 4, Hilbert "
        "function says 17",
        "cokernel at position 0 has dimension 30 in degree 5, Hilbert "
        "function says 23",
        "cokernel at position 0 has dimension 39 in degree 6, Hilbert "
        "function says 30",
        "graded ranks [((0, 0), 1), ((1, 2), 1), ((1, 3), 1), ((2, 3), 1), "
        "((2, 4), 2), ((3, 5), 1)] differ from the Betti formula [((0, 0), "
        "1), ((1, 2), 2), ((1, 3), 1), ((2, 3), 1), ((2, 4), 2), ((3, 5), "
        "1)]",
    ]),
    ("exactness graded_ranks", [
        "cokernel at position 0 has dimension 13 in degree 3, Hilbert "
        "function says 12",
        "cokernel at position 0 has dimension 19 in degree 4, Hilbert "
        "function says 17",
        "cokernel at position 0 has dimension 26 in degree 5, Hilbert "
        "function says 23",
        "cokernel at position 0 has dimension 34 in degree 6, Hilbert "
        "function says 30",
        "graded ranks [((0, 0), 1), ((1, 2), 2), ((2, 3), 1)] differ from "
        "the Betti formula [((0, 0), 1), ((1, 2), 2), ((1, 3), 1), ((2, 3),"
        " 1), ((2, 4), 2), ((3, 5), 1)]",
    ]),
    ("complex exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = -2*x1*x2*x3",
        "d2 d3 is non-zero, e.g. entry (0, 0) = 2*x3*x4^2",
        "not exact at position 1, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 2, next image 3",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]),
    ("minimality exactness graded_ranks", [
        "d3 entry (1,0) = 1 has a constant term",
        "not exact at position 1, degree 4, multidegree (1, 1, 0, 2): "
        "kernel 1, next image 0",
        "graded ranks [((0, 0), 1), ((1, 2), 2), ((1, 3), 1), ((2, 3), 1), "
        "((2, 4), 1), ((2, 5), 1), ((3, 5), 1)] differ from the Betti "
        "formula [((0, 0), 1), ((1, 2), 2), ((1, 3), 1), ((2, 3), 1), "
        "((2, 4), 2), ((3, 5), 1)]",
    ]),
    ("complex multigraded exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = x1*x2*x3",
        "d2 d3 is non-zero, e.g. entry (2, 0) = -x2*x3",
        "d2 entry (2,0) term x2*x3*x4^-2 breaks the multigrading",
        "exactness skipped: differentials not multigraded",
    ]),
    ("exactness", [
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 1, next image 0",
        "not exact at position 3, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 1, next image 0",
    ]),
    ("complex exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = 2147483646*x1*x2*x3",
        "d2 d3 is non-zero, e.g. entry (0, 0) = -2147483646*x3*x4^2",
        "not exact at position 1, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 2, next image 3",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]),
    ("complex exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = x1*x2*x3",
        "d2 d3 is non-zero, e.g. entry (0, 0) = -x3*x4^2",
        "not exact at position 1, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 2, next image 3",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]),
    ("complex exactness", [
        "d1 d2 is non-zero, e.g. entry (0, 0) = 2*x1*x2*x3",
        "d2 d3 is non-zero, e.g. entry (0, 0) = -2*x3*x4^2",
        "not exact at position 1, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 2, next image 3",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]),
    ("exactness", [
        "labels on x1*x3*x4, not a minimal generator",
        "not exact at position 1, degree 4, multidegree (1, 0, 1, 2): "
        "kernel 1, next image 0",
        "not exact at position 2, degree 5, multidegree (1, 1, 1, 2): "
        "kernel 0, next image 1",
    ]),
]


@pytest.mark.parametrize("corrupt, witness",
                         zip(CORRUPTIONS, CORRUPTION_WITNESSES),
                         ids=CORRUPTION_IDS)
def test_corruption_witnesses_are_pinned(corrupt, witness):
    failing, failures = witness
    ideal, t = ex_resolution_ideal()
    rep = verify_resolution(corrupt(build_resolution(ideal, t)), 6)
    assert rep.checks == {k: k not in failing.split() for k in CHECKS}
    assert rep.failures == failures


@pytest.mark.parametrize("corrupt, witness",
                         zip(CORRUPTIONS, CORRUPTION_WITNESSES),
                         ids=CORRUPTION_IDS)
def test_exact_ranks_reproduce_the_pinned_witnesses(corrupt, witness,
                                                    monkeypatch):
    failing, failures = witness
    ideal, t = ex_resolution_ideal()
    checks, got = exact_witnesses(corrupt(build_resolution(ideal, t)),
                                  monkeypatch)
    assert checks == {k: k not in failing.split() for k in CHECKS}
    assert got == failures


@pytest.mark.parametrize("corrupt", [lambda res: res, wrong_multidegree],
                         ids=["multigraded", "not-multigraded"])
def test_negative_cap_is_refused_up_front(corrupt, monkeypatch):
    # refused before the d o d product, whether or not the exactness pass,
    # which counts Hilbert functions up to the cap, would be reached
    ideal, t = ex_resolution_ideal()
    res = corrupt(build_resolution(ideal, t))

    def product(*args):
        raise AssertionError("multiplied before the cap was checked")

    monkeypatch.setattr(resolution, "_product", product)
    with pytest.raises(ValueError, match="^max_degree must be non-negative$"):
        verify_resolution(res, -1)


def out_of_shape_entry(res):
    res.columns[2][0][5] = 1  # past the 3 rows of d3
    return res


def too_wide_d3(res):
    res.columns[2].append({})
    return res


def negative_row(res):
    res.columns[1][0][-1] = 1
    return res


def too_tall_d1(res):
    res.columns[0][0][1] = 1  # F0 = S has one row
    return res


def missing_d3(res):
    res.columns.pop()
    return res


@pytest.mark.parametrize("corrupt, message", [
    (out_of_shape_entry, "d3 entry (5,0) outside 3x1"),
    (too_wide_d3, "d3 has 2 columns, but F3 has rank 1"),
    (negative_row, "d2 entry (-1,0) outside 3x3"),
    (too_tall_d1, "d1 entry (1,0) outside 1x3"),
    (missing_d3, "one differential is needed per positive position"),
], ids=["entry-past-the-shape", "d3-too-wide", "negative-row", "d1-too-tall",
        "missing-d3"])
def test_shapes_are_checked_up_front(corrupt, message, monkeypatch):
    # a differential that does not fit its bases is refused with one line
    # before any check reads a coefficient or multiplies a product
    ideal, t = ex_resolution_ideal()
    res = corrupt(build_resolution(ideal, t))

    def check(*args):
        raise AssertionError("checked before the shapes")

    monkeypatch.setattr(resolution, "index", check)
    monkeypatch.setattr(resolution, "_product", check)
    with pytest.raises(ValueError) as caught:
        verify_resolution(res, 6)
    assert str(caught.value) == message


@pytest.mark.parametrize("reader", [
    lambda res: verify_resolution(res, 6), Resolution.ascii,
    Resolution.to_json_obj, lambda res: res.differential(2)],
    ids=["verify", "ascii", "json", "differential"])
@pytest.mark.parametrize("row", [-1, 5])
def test_every_reader_refuses_a_row_outside_the_shape(row, reader):
    # the printers and the copies refuse the verifier's way: unchecked, a
    # row -1 would print in the last row of the grid and a row 5 would
    # raise IndexError
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    res.columns[1][0][row] = 1
    with pytest.raises(ValueError) as caught:
        reader(res)
    assert str(caught.value) == f"d2 entry ({row},0) outside 3x3"


def test_multigraded_input_is_never_composed(monkeypatch):
    # d o d is read off the integer columns, so no input is composed,
    # multigraded or not, and neither the verifier nor the printers read a
    # differential(i) copy; the witnesses are the pinned ones
    def copy(*args):
        raise AssertionError("read a differential(i) copy")

    w8 = build_resolution(*roadmap_workload(1, (6, 8), 3))
    monkeypatch.setattr(Resolution, "differential", copy)
    assert verify_resolution(w8, 8).ok
    w8.ascii(), w8.to_json_obj()
    ideal, t = ex_resolution_ideal()
    for corrupt, (_, failures) in zip(CORRUPTIONS, CORRUPTION_WITNESSES):
        rep = verify_resolution(corrupt(build_resolution(ideal, t)), 6)
        assert rep.failures == failures


def test_matrix_differentials_are_refused():
    # a resolution holds its differentials as columns only: the dicts that
    # differential(i) hands out are refused with one line
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    matrices = [res.differential(i) for i in range(1, res.length + 1)]
    with pytest.raises(TypeError) as caught:
        Resolution(ideal, t, res.bases, matrices)
    assert str(caught.value) == ("a differential is a list of sparse columns "
                                 "{row: coefficient}, not a dict")


def test_differential_hands_out_a_copy():
    # each call makes a new dict of new entries; editing it changes nothing
    # the resolution prints or verifies
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    before = res.to_json_obj(), res.ascii()
    d2 = res.differential(2)
    assert d2 is not res.differential(2)
    d2[(0, 0)][(0, 0, 1, 0)] = 5
    d2[(2, 0)] = {(0, 0, 0, 0): 1}
    del d2[(1, 0)]
    assert res.differential(2) == build_resolution(ideal, t).differential(2)
    assert (res.to_json_obj(), res.ascii()) == before
    assert verify_resolution(res, 6).ok


def test_verifier_never_calls_the_formula(monkeypatch):
    # the verifier reads the labels and matrices it is given; once they are
    # built, the formula's free sets, decompositions and label lists are
    # out of reach, and its verdicts and witnesses do not change.  Check (d)
    # compares against betti_table on purpose, so that stays reachable.
    w8 = build_resolution(*roadmap_workload(1, (6, 8), 3))
    ideal, t = ex_resolution_ideal()
    plain = [verify_resolution(corrupt(build_resolution(ideal, t)), 6)
             for corrupt in CORRUPTIONS]
    assert not any(rep.ok for rep in plain)
    built = [corrupt(build_resolution(ideal, t)) for corrupt in CORRUPTIONS]

    def formula(*args):
        raise AssertionError("the verifier called the resolution formula")

    with monkeypatch.context() as m:
        m.setattr(resolution, "free_indices", formula)
        m.setattr(resolution, "decomposition_function", formula)
        m.setattr(koszul, "spread_labels", formula)
        with pytest.raises(AssertionError):
            build_resolution(ideal, t)
        assert verify_resolution(w8, 8).ok
        for res, rep in zip(built, plain):
            again = verify_resolution(res, 6)
            assert (again.checks, again.failures) == (rep.checks, rep.failures)


def test_one_stability_check_per_call(monkeypatch):
    # the labels of every homological degree reuse the caller's one check
    calls = []
    check = vecspread.ideals.strongly_stable_violation
    monkeypatch.setattr(vecspread.ideals, "strongly_stable_violation",
                        lambda ideal, t: calls.append(t) or check(ideal, t))
    ideal, t = ex_resolution_ideal()
    assert build_resolution(ideal, t).length == 3
    assert len(calls) == 1
    assert verify_homology_basis_range(ideal, t, 6).ok
    assert len(calls) == 2


# -- structural properties ------------------------------------------------------


def test_complex_property_random():
    rng = random.Random(31)
    done = 0
    while done < 15:
        width = rng.randint(1, 3)
        ones = rng.randint(0, width)
        t = SpreadVector(tuple([1] * ones + [0] * (width - ones)))
        n = rng.randint(2, 6)
        ideal = random_strongly_stable_ideal(rng, n, t)
        if ideal.is_unit:
            continue
        res = build_resolution(ideal, t)
        for i in range(1, res.length):
            assert not reference_compose(res.differential(i),
                                         res.differential(i + 1))
        # the differentials only carry +-x_k and +-v_k, with int signs
        assert all(type(coeff) is int and coeff in (1, -1)
                   for d in res.columns for col in d
                   for coeff in col.values())
        rep = verify_resolution(res, 6)
        assert rep.ok, (ideal.generators, str(t), rep.failures)
        done += 1


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(0, 7))
def test_resolution_ranks_match_the_koszul_oracle(seed, cap):
    # the built resolution's graded ranks up to the cap against the Koszul
    # homology oracle's ranks: neither side reads the closed Betti formula
    ideal, t = random_admissible_ideal(random.Random(seed))
    assume(not ideal.is_unit)
    counts = build_resolution(ideal, t).graded_rank_counts()
    assert {(i, q): v for (i, q), v in counts.items() if q <= cap} == \
        homology_dimensions(ideal, cap)


def test_column_support_bound():
    # each summand of the differential contributes at most two entries per
    # sigma element
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    for i in range(2, res.length + 1):
        d = res.differential(i)
        for c in range(res.rank(i)):
            nonzero = sum(1 for r in range(res.rank(i - 1)) if (r, c) in d)
            assert nonzero <= 2 * (i - 1)


def test_zero_terms_are_dropped():
    x1, x2 = (1, 0), (0, 1)
    assert format_poly({x1: 0}) == "0" and format_poly({x1: 0, x2: -1}) == "-x2"
    # a product that cancels keeps no entry
    assert not list(resolution._product([{0: 1}, {0: 1}], [{0: 1, 1: -1}]))
    # a zero written into a column by hand is no term, even between labels
    # of equal or incomparable multidegrees
    ideal, t = ex_resolution_ideal()
    res = unit_entry(build_resolution(ideal, t))
    res.columns[2][0][1] = 0
    res.columns[1][0][2] = 0
    rep = verify_resolution(res, 6)
    assert rep.checks["minimality"] and rep.checks["multigraded"]
    res = build_resolution(ideal, t)
    res.columns[1][0][2] = 0
    rep = verify_resolution(res, 6)
    assert rep.ok, rep.failures


# -- domain restrictions ---------------------------------------------------------


def test_build_rejects_bad_shape():
    ideal = MonomialIdeal([parse_monomial("x1", 6)], 6)
    with pytest.raises(ValueError):
        build_resolution(ideal, (1, 0, 2))
    with pytest.raises(ValueError):
        build_resolution(ideal, (0, 1))


def test_build_rejects_unit_ideal():
    with pytest.raises(ValueError):
        build_resolution(MonomialIdeal.unit_ideal(3), (1,))


def test_build_rejects_non_strongly_stable():
    ideal = MonomialIdeal([parse_monomial("x2", 3)], 3)
    with pytest.raises(ValueError):
        build_resolution(ideal, (1,))


def test_zero_ideal_resolves_to_ring():
    res = build_resolution(MonomialIdeal.zero(3), (1,))
    assert res.length == 0
    assert res.rank(0) == 1
    assert verify_resolution(res, 4).ok


def test_accessor_errors():
    ideal, t = ex_resolution_ideal()
    res = build_resolution(ideal, t)
    with pytest.raises(ValueError):
        res.differential(0)
    with pytest.raises(ValueError):
        res.differential(4)
    with pytest.raises(ValueError):
        res.basis(0)
    assert res.rank(0) == 1


# -- reference routes ------------------------------------------------------------
#
# The differentials with u_k, free(u_k) and v_k found anew for every label
# and every k in its sigma, the route build_resolution must agree with, and
# the verifier and printers on the `differential(i)` copies, which
# `util.reference_compose` multiplies term by term.


def reference_build_resolution(ideal, t):
    """The labels of every position and every d_i as a `differential(i)`
    dict."""
    bases = []
    while not ideal.is_zero:
        labels = homology_basis_labels(ideal, t, len(bases) + 1)
        if not labels:
            break
        bases.append(labels)
    n = ideal.ambient_n
    diffs = []
    for i, cols in enumerate(bases, start=1):
        if i == 1:
            d = {}
            for c, lab in enumerate(cols):
                add_term(d, 0, c, lab.generator.exponents, 1)
            diffs.append(d)
            continue
        rows = {lab: r for r, lab in enumerate(bases[i - 2])}
        d = {}
        for c, lab in enumerate(cols):
            u, sigma = lab.generator, lab.sigma
            for pos, k in enumerate(sigma):
                sign = -1 if pos % 2 else 1
                tau = sigma[:pos] + sigma[pos + 1:]
                add_term(d, rows[CycleLabel(u, tau)], c,
                         variable(k, n).exponents, -sign)
                w = u.times_var(k)
                u_k = decomposition_function(ideal, t, w)
                if set(tau) <= set(free_indices(u_k, t)):
                    add_term(d, rows[CycleLabel(u_k, tau)], c,
                             w.divide(u_k).exponents, sign)
        diffs.append(d)
    return bases, diffs


def test_builders_agree():
    rng = random.Random(41)
    cases = [ex_resolution_ideal(6), roadmap_workload(1, (6, 8), 3)]
    while len(cases) < 24:
        width = rng.randint(1, 3)
        ones = rng.randint(0, width)
        t = SpreadVector(tuple([1] * ones + [0] * (width - ones)))
        ideal = random_strongly_stable_ideal(rng, rng.randint(2, 7), t)
        if not ideal.is_unit:
            cases.append((ideal, t))
    for ideal, t in cases:
        new = build_resolution(ideal, t)
        bases, diffs = reference_build_resolution(ideal, t)
        assert new.bases == bases
        for i, e in enumerate(diffs, start=1):
            assert list(new.differential(i).items()) == list(e.items())


def reference_strands(points, columns, keep, max_degree, is_complex):
    """The strands as sparse columns: the kept labels are listed from the
    keep masks, at each lattice point they are found by comparing every
    kept multidegree with a, and each column of d_i is renumbered onto the
    strand through a row lookup; the parity rows are packed from those
    columns."""
    kept = [[(c, m) for c, m in enumerate(on) if bits >> c & 1]
            for on, bits in zip(points, keep)]
    for a in linalg.lcm_lattice([m for on in kept[1:] for _, m in on],
                                max_degree):
        active = [[c for c, m in on if all(map(le, m, a))] for on in kept]
        strand = []
        for i in range(1, len(points)):
            rlook = {r: p for p, r in enumerate(active[i - 1])}
            strand.append([[(rlook[r], value)
                            for r, value in columns[i - 1][c].items()
                            if r in rlook]
                           for c in active[i]])
        rows = [[sum(1 << r for r, v in col if v & 1) for col in cols]
                for cols in strand]
        yield a, linalg.FiniteComplex(
            [len(x) for x in active], rows,
            lambda i, strand=strand: strand[i - 1], is_complex=is_complex)


ENTRY_KINDS, LABEL_KINDS = (0, 1, 2, 3), (4, 5)


def random_corruption(rng, kinds=ENTRY_KINDS + LABEL_KINDS):
    """A seeded corruption of a resolution, of a kind drawn from kinds: one
    entry of some d_i deleted (0), negated or scaled by 2 or 3 (1 and 2), or
    +-1 written at a row its column lacks (3); or a label moved to another
    generator (4), or (u; sigma) moved to (u * x_k; sigma - {k}) for a k in
    sigma (5), which keeps its multidegree but lies on no minimal
    generator.  The label kinds edit res.bases alone."""
    def corrupt(res):
        kind = rng.choice(kinds)
        # position 1 has no k in sigma to move
        i = rng.randint(min(2, res.length) if kind == 5 else 1, res.length)
        if kind in LABEL_KINDS:
            labels = res.bases[i - 1]
            c = rng.randrange(len(labels))
            u, sigma = labels[c].generator, labels[c].sigma
            if kind == 4:
                labels[c] = CycleLabel(rng.choice(res.ideal.generators), sigma)
            elif sigma:
                k = rng.choice(sigma)
                labels[c] = CycleLabel(u.times_var(k),
                                       tuple(j for j in sigma if j != k))
            return res
        cols = res.columns[i - 1]
        if kind == 3:
            col = cols[rng.randrange(len(cols))]
            lacking = [r for r in range(res.rank(i - 1)) if r not in col]
            if lacking:
                col[rng.choice(lacking)] = rng.choice((1, -1))
            return res
        entries = sorted((r, c) for c, col in enumerate(cols) for r in col)
        if not entries:
            return res
        r, c = rng.choice(entries)
        if kind == 0:
            del cols[c][r]
        else:
            cols[c][r] *= (-1, 2, 3)[rng.randrange(3)]
        return res
    return corrupt


def test_bitset_strands_match_the_sparse_reference(monkeypatch):
    # every check and every witness of the bitset strands equals the sparse
    # route's, on the worked example's corruptions and on random admissible
    # ideals, both intact and corrupted
    rng = random.Random(67)
    ideal, t = ex_resolution_ideal()
    cases = [(ideal, t, corrupt, 6) for corrupt in CORRUPTIONS]
    while len(cases) < len(CORRUPTIONS) + 40:
        width = rng.randint(1, 3)
        ones = rng.randint(0, width)
        t = SpreadVector(tuple([1] * ones + [0] * (width - ones)))
        ideal = random_strongly_stable_ideal(rng, rng.randint(2, 6), t)
        if ideal.is_unit or ideal.is_zero:
            continue
        corrupt = random_corruption(rng) if len(cases) % 2 else (lambda r: r)
        cases.append((ideal, t, corrupt, rng.randint(0, 7)))
    failing = 0
    for ideal, t, corrupt, cap in cases:
        res = corrupt(build_resolution(ideal, t))
        fast = verify_resolution(res, cap)
        with monkeypatch.context() as m:
            m.setattr(resolution, "_strands", reference_strands)
            ref = verify_resolution(res, cap)
        assert (fast.checks, fast.failures) == (ref.checks, ref.failures), (
            ideal.generators, str(t), cap)
        failing += not fast.checks["exactness"]
    assert failing > len(CORRUPTIONS)


def reference_verify_resolution(res, max_degree):
    """The verifier on the `differential(i)` copies: d o d expanded
    symbolically by compose before any other check, a term with a negative
    exponent off the grading, and the strands of reference_strands."""
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    ideal = res.ideal
    n = ideal.ambient_n
    failures, checks = [], {}
    ok = True
    for i in range(1, res.length):
        prod = reference_compose(res.differential(i), res.differential(i + 1))
        if prod:
            ok = False
            bad = min(prod)
            failures.append(
                f"d{i} d{i + 1} is non-zero, e.g. entry {bad} = "
                f"{format_poly(prod[bad])}")
    checks["complex"] = ok
    ok = True
    for i in range(1, res.length + 1):
        for (r, c), poly in res.differential(i).items():
            if any(coeff and not any(e) for e, coeff in poly.items()):
                ok = False
                failures.append(f"d{i} entry ({r},{c}) = {format_poly(poly)} "
                                f"has a constant term")
    checks["minimality"] = ok
    generators = {g.exponents for g in ideal.generators}
    strays, mdegs, kept = [], [[(0,) * n]], [{0: 0}]
    for labels in res.bases:
        mdegs.append([lab.multidegree() for lab in labels])
        kept.append({})
        for c, lab in enumerate(labels):
            g = lab.generator.exponents
            if g in generators:
                kept[-1][c] = len(kept[-1])
            elif g not in strays:
                strays.append(g)
    ok = True
    columns = []
    for i in range(1, res.length + 1):
        rows, cols = kept[i - 1], [{} for _ in kept[i]]
        for (r, c), poly in res.differential(i).items():
            for e, coeff in poly.items():
                coeff = index(coeff)
                if not coeff:
                    continue
                if min(e) < 0:
                    ok = False
                    failures.append(
                        f"d{i} entry ({r},{c}) term {format_exponents(e)} "
                        f"breaks the multigrading")
                elif c in kept[i] and r in rows:
                    cols[kept[i][c]][rows[r]] = coeff
        columns.append(cols)
    checks["multigraded"] = ok
    ok = True
    if checks["multigraded"]:
        for g in strays:
            ok = False
            failures.append(f"labels on {format_exponents(g)}, not a "
                            f"minimal generator")
        points = [[mdegs[i][c] for c in on] for i, on in enumerate(kept)]
        everything = [(1 << len(on)) - 1 for on in points]
        for a, cx in reference_strands(points, columns, everything, max_degree,
                                       checks["complex"] and ok):
            for i in range(res.length + 1):
                if cx.homology(i):
                    ok = False
                    failures.append(
                        f"not exact at position {i}, degree {sum(a)}, "
                        f"multidegree {a}: kernel {cx.sizes[i] - cx.ranks[i]}, "
                        f"next image {cx.ranks[i + 1]}")
        hf = hilbert_function(ideal, max_degree)
        spanned = minimal_exponents(m for on in points[1:] for m in on)
        coker = hilbert_function(MonomialIdeal(
            map(Monomial.from_exponents, spanned), n), max_degree)
        for q in range(max_degree + 1):
            if coker[q] != hf[q]:
                ok = False
                failures.append(
                    f"cokernel at position 0 has dimension {coker[q]} in "
                    f"degree {q}, Hilbert function says {hf[q]}")
    else:
        ok = False
        failures.append("exactness skipped: differentials not multigraded")
    checks["exactness"] = ok
    expected = betti_table(ideal, res.t, view="quotient").entries
    got = res.graded_rank_counts()
    ok = got == expected
    if not ok:
        failures.append(
            f"graded ranks {sorted(got.items())} differ from the Betti "
            f"formula {sorted(expected.items())}")
    checks["graded_ranks"] = ok
    return ResolutionReport(all(checks.values()), checks, failures)


def assert_matches_the_reference(res, cap):
    fast = verify_resolution(res, cap)
    ref = reference_verify_resolution(res, cap)
    assert (fast.checks, fast.failures) == (ref.checks, ref.failures)
    return fast


@pytest.mark.parametrize("corrupt", CORRUPTIONS, ids=CORRUPTION_IDS)
def test_corruptions_match_the_compose_first_reference(corrupt):
    ideal, t = ex_resolution_ideal()
    assert_matches_the_reference(corrupt(build_resolution(ideal, t)), 6)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans(), st.integers(0, 7))
def test_verifier_matches_the_compose_first_reference(seed, corrupted, cap):
    # seeded admissible resolutions, intact or with one random corruption
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    ones = rng.randint(0, width)
    t = SpreadVector(tuple([1] * ones + [0] * (width - ones)))
    ideal = random_strongly_stable_ideal(rng, rng.randint(2, 6), t)
    assume(not ideal.is_unit)
    res = build_resolution(ideal, t)
    if corrupted and res.length:
        res = random_corruption(rng)(res)
    assert_matches_the_reference(res, cap)


def random_admissible_ideal(rng):
    """A random strongly stable ideal and an admissible t; it may be the
    zero or the unit ideal."""
    width = rng.randint(1, 3)
    ones = rng.randint(0, width)
    t = SpreadVector(tuple([1] * ones + [0] * (width - ones)))
    return random_strongly_stable_ideal(rng, rng.randint(2, 6), t), t


@settings(max_examples=80, deadline=None)
@given(st.integers(0, 2 ** 32 - 1),
       st.sampled_from([(), ENTRY_KINDS, LABEL_KINDS]), st.integers(0, 7))
def test_stored_columns_match_the_matrices(seed, kinds, cap):
    # the checks, failures, JSON and text read off the stored columns agree
    # with the compose-first reference and the dense printers, which read
    # the differential(i) matrices: intact, after an entry edit and after a
    # label move
    ideal, t = random_admissible_ideal(random.Random(seed))
    assume(not ideal.is_unit and not ideal.is_zero)
    res = build_resolution(ideal, t)
    if kinds:
        random_corruption(random.Random(seed), kinds)(res)
    assert_matches_the_reference(res, cap)
    assert res.to_json_obj() == reference_to_json_obj(res)
    assert res.ascii() == reference_resolution_ascii(res)


def test_a_built_resolution_makes_no_matrix(monkeypatch):
    # the graded ranks reuse the build's strong-stability check until the
    # ideal or t is replaced
    calls = []
    check = vecspread.ideals.strongly_stable_violation
    monkeypatch.setattr(vecspread.ideals, "strongly_stable_violation",
                        lambda ideal, t: calls.append(t) or check(ideal, t))
    cases = [(*ex_resolution_ideal(), 6), (*roadmap_workload(1, (6, 8), 3), 8)]
    for ideal, t, cap in cases:
        calls.clear()
        res = build_resolution(ideal, t)
        res.to_json_obj(), res.ascii()
        assert verify_resolution(res, cap).ok
        assert len(calls) == 1
    ideal, t = ex_resolution_ideal()
    for replace in (resolve_subideal,
                    lambda res: setattr(res, "ideal", MonomialIdeal(
                        res.ideal.generators, res.ideal.ambient_n)) or res,
                    lambda res: setattr(res, "t", SpreadVector((1, 0))) or res):
        res = replace(build_resolution(ideal, t))
        calls.clear()
        verify_resolution(res, 6)
        assert len(calls) == 1


def test_generator_cover_matches_the_minimal_elements():
    # L = I is read off "every generator is a kept label's multidegree"; the
    # minimal kept multidegrees are the reference, on random label sets
    # with labels dropped and labels moved off the minimal generators
    rng = random.Random(83)
    seen = {True: 0, False: 0}
    while min(seen.values()) < 40:
        ideal, t = random_admissible_ideal(rng)
        if ideal.is_unit:
            continue
        generators = {g.exponents for g in ideal.generators}
        bases = []
        for labels in build_resolution(ideal, t).bases:
            labels = [lab for lab in labels if rng.random() < 0.8]
            for c, lab in enumerate(labels):
                if lab.sigma and rng.random() < 0.2:
                    k = rng.choice(lab.sigma)
                    labels[c] = CycleLabel(
                        lab.generator.times_var(k),
                        tuple(j for j in lab.sigma if j != k))
            bases.append(labels)
        points = [[(0,) * ideal.ambient_n]] + [
            [lab.multidegree() for lab in labels] for labels in bases]
        keep = [1] + [sum(1 << c for c, lab in enumerate(labels)
                          if lab.generator.exponents in generators)
                      for labels in bases]
        kept = [m for ms, bits in zip(points[1:], keep[1:])
                for c, m in enumerate(ms) if bits >> c & 1]
        expected = set(minimal_exponents(kept)) == generators
        assert resolution._spans_the_generators(
            generators, points, keep) == expected
        seen[expected] += 1


# -- JSON --------------------------------------------------------------------


def differentials(res):
    return [res.differential(i) for i in range(1, res.length + 1)]


def reference_to_json_obj(res):
    """Resolution.to_json_obj with every label and every entry formatted
    anew, and the entries sorted as [r, c, text] lists."""
    return {
        "ranks": [res.rank(i) for i in range(res.length + 1)],
        "bases": [[str(lab) for lab in labels] for labels in res.bases],
        "differentials": [
            {
                "rows": res.rank(i - 1),
                "cols": res.rank(i),
                "entries": sorted(
                    [r, c, format_poly(poly)] for (r, c), poly in d.items()),
            }
            for i, d in enumerate(differentials(res), start=1)
        ],
    }


def set_coefficients(*changes):
    """A corruption writing coefficient v at entry (r, c) of d_i, for each
    (i, (r, c), v) in changes."""
    def corrupt(res):
        for i, (r, c), v in changes:
            res.columns[i - 1][c][r] = v
        return res
    return corrupt


JSON_CORRUPTIONS = {
    "zero-coefficient": set_coefficients((2, (0, 0), 0)),
    "fraction": set_coefficients((2, (0, 0), Fraction(1, 2)),
                                 (2, (0, 1), Fraction(2))),
    "removed-entry": lambda res: zero_entry(res, 2, (0, 0)),
    # d2's entries (0,1) and (1,2) are both x4^2: equal values of two types
    # must not share a text
    "int-and-float": set_coefficients((2, (0, 1), 2), (2, (1, 2), 2.0)),
}


@pytest.mark.parametrize("corrupt", [*JSON_CORRUPTIONS.values(), *CORRUPTIONS],
                         ids=[*JSON_CORRUPTIONS, *CORRUPTION_IDS])
def test_json_obj_matches_the_reference_on_corruptions(corrupt):
    ideal, t = ex_resolution_ideal()
    res = corrupt(build_resolution(ideal, t))
    assert res.to_json_obj() == reference_to_json_obj(res)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.booleans())
def test_json_obj_matches_the_reference_on_random_resolutions(seed,
                                                               corrupted):
    rng = random.Random(seed)
    width = rng.randint(1, 3)
    ones = rng.randint(0, width)
    t = SpreadVector(tuple([1] * ones + [0] * (width - ones)))
    ideal = random_strongly_stable_ideal(rng, rng.randint(2, 6), t)
    assume(not ideal.is_unit)
    res = build_resolution(ideal, t)
    if corrupted and res.length:
        res = random_corruption(rng)(res)
    assert res.to_json_obj() == reference_to_json_obj(res)


def test_json_obj_formats_each_piece_once(monkeypatch):
    # on W8 each generator and each distinct entry is formatted once:
    # 78 texts for 3,087 entries
    res = build_resolution(*roadmap_workload(1, (6, 8), 3))
    expected = reference_to_json_obj(res)
    calls = {"format_poly": 0, "format_monomial": 0}
    for name in calls:
        def counted(arg, name=name, real=getattr(resolution, name)):
            calls[name] += 1
            return real(arg)
        monkeypatch.setattr(resolution, name, counted)
    assert res.to_json_obj() == expected
    assert calls == {
        "format_poly": len({tuple(p.items()) for d in differentials(res)
                            for p in d.values()}),
        "format_monomial": len(res.ideal.generators),
    }


# -- ASCII -------------------------------------------------------------------


def reference_ascii(res, i):
    """The grid of d_i by the dense loop over the `differential(i)` dict:
    every cell formatted anew, an empty one as format_poly({}), and padded
    cell by cell."""
    cells = grid(res, i)
    if not cells or not cells[0]:
        return "[ ]"
    widths = [max(len(row[c]) for row in cells) for c in range(len(cells[0]))]
    lines = []
    for row in cells:
        body = "  ".join(cell.ljust(widths[c]) for c, cell in enumerate(row))
        lines.append("[ " + body.rstrip() + " ]")
    return "\n".join(lines)


def reference_resolution_ascii(res):
    ranks = ", ".join(f"F{i}={res.rank(i)}" for i in range(res.length + 1))
    return "\n".join([f"ranks: {ranks}"] + [
        f"\nd{i} (F{i} -> F{i - 1}):\n{reference_ascii(res, i)}"
        for i in range(1, res.length + 1)])


ASCII_CORRUPTIONS = {
    **JSON_CORRUPTIONS,
    "bool": set_coefficients((2, (0, 0), True), (2, (1, 2), False)),
}


@pytest.mark.parametrize("corrupt", [*ASCII_CORRUPTIONS.values(), *CORRUPTIONS],
                         ids=[*ASCII_CORRUPTIONS, *CORRUPTION_IDS])
def test_ascii_matches_the_dense_loop_on_corruptions(corrupt):
    ideal, t = ex_resolution_ideal()
    res = corrupt(build_resolution(ideal, t))
    assert res.ascii() == reference_resolution_ascii(res)


def test_ascii_of_hand_edited_coefficients():
    # a zero coefficient shows nothing, and a bool prints as the int it is
    ideal, t = ex_resolution_ideal()
    res = set_coefficients((2, (0, 0), 0), (2, (2, 2), True))(
        build_resolution(ideal, t))
    d2 = "\n".join([
        "[ 0    x4^2  0 ]",
        "[ -x2  0     x4^2 ]",
        "[ 0    -x2   x3 ]"])
    assert reference_ascii(res, 2) == d2
    assert f"d2 (F2 -> F1):\n{d2}\n" in res.ascii()
    # a differential with no row or no column prints as an empty bracket
    res.bases[1], res.columns[1], res.columns[2] = [], [], [{}]
    assert res.ascii().endswith("d2 (F2 -> F1):\n[ ]\n\nd3 (F3 -> F2):\n[ ]")
    assert res.ascii() == reference_resolution_ascii(res)


def test_ascii_formats_each_distinct_entry_once(monkeypatch):
    # on W8 the text is the dense loop's, byte for byte, and each matrix
    # formats each of its distinct entries once and no empty cell
    res = build_resolution(*roadmap_workload(1, (6, 8), 3))
    expected = reference_resolution_ascii(res)
    calls = []
    real = resolution.format_poly
    monkeypatch.setattr(resolution, "format_poly",
                        lambda poly: calls.append(poly) or real(poly))
    assert res.ascii() == expected
    assert len(calls) == sum(len({tuple(p.items()) for p in d.values()})
                             for d in differentials(res))
