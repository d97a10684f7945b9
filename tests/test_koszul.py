"""Koszul chains, the cycle construction, and homology basis labels."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vecspread import (
    CycleLabel,
    KoszulChain,
    Monomial,
    MonomialIdeal,
    SpreadVector,
    admissible_shape,
    cycle_sign_parity,
    format_monomial,
    free_indices,
    homology_basis_labels,
    koszul_cycle,
    koszul_cycle_recursive,
    koszul_differential,
    monomial,
    next_support_index,
    parse_monomial,
    remainder_split,
    simple_cycle,
    unit,
)
from vecspread.betti import _cycle_column, _koszul_block
from vecspread.koszul import _direct_cycle, _wedge_mask

from util import (
    ex_resolution_ideal,
    ex_spread_ideal,
    random_spread_vector,
    random_strongly_stable_ideal,
    roadmap_workload,
)


# -- chain algebra ------------------------------------------------------------


def test_add_term_sorts_wedges_with_sign():
    ideal, _ = ex_spread_ideal()
    c = KoszulChain(ideal, 2)
    c.add_term((3, 1), unit(6), 1)
    assert c.coefficient((1, 3), unit(6)) == -1
    assert c.coefficient((3, 1), unit(6)) == 1  # sign tracked through lookup


def test_add_term_drops_repeated_wedge():
    ideal, _ = ex_spread_ideal()
    c = KoszulChain(ideal, 2)
    c.add_term((2, 2), unit(6), 5)
    assert c.is_zero


def test_add_term_reduces_residues_mod_ideal():
    ideal, _ = ex_spread_ideal()
    c = KoszulChain(ideal, 1)
    c.add_term((2,), parse_monomial("x2*x3^2", 6), 1)  # residue inside ideal
    assert c.is_zero


def test_add_term_cancellation():
    ideal, _ = ex_spread_ideal()
    c = KoszulChain(ideal, 1)
    m = parse_monomial("x2*x3", 6)
    c.add_term((2,), m, 2)
    c.add_term((2,), m, -2)
    assert c.is_zero


def test_chain_arithmetic():
    ideal, _ = ex_spread_ideal()
    a = KoszulChain(ideal, 1)
    a.add_term((1,), parse_monomial("x2*x3", 6), 2)
    b = a.scale(3)
    assert b.coefficient((1,), parse_monomial("x2*x3", 6)) == 6
    assert a.scale(0).is_zero
    assert (a - a).is_zero
    assert (-a).coefficient((1,), parse_monomial("x2*x3", 6)) == -2
    with pytest.raises(ValueError):
        a.add(KoszulChain(ideal, 2))


def test_non_int_coefficients_rejected():
    # coefficients are int only: a rational is refused, not rounded
    ideal, _ = ex_spread_ideal()
    a = KoszulChain(ideal, 1)
    m = parse_monomial("x2*x3", 6)
    with pytest.raises(TypeError):
        a.add_term((1,), m, Fraction(1, 2))
    assert a.is_zero
    a.add_term((1,), m, 2)
    with pytest.raises(TypeError):
        a.scale(Fraction(1, 2))
    with pytest.raises(TypeError):
        a.add_term((1,), m, 1.0)


def test_wedge_length_checked():
    ideal, _ = ex_spread_ideal()
    c = KoszulChain(ideal, 2)
    with pytest.raises(ValueError):
        c.add_term((1,), unit(6), 1)
    with pytest.raises(ValueError):
        c.add_term((1, 7), unit(6), 1)  # exceeds ambient
    j, _ = ex_resolution_ideal()
    with pytest.raises(ValueError):  # a residue past the ambient n = 4
        KoszulChain(j, 1).add_term((1,), Monomial((5,), 5), 1)


def test_internal_degree():
    ideal, _ = ex_spread_ideal()
    c = KoszulChain(ideal, 2)
    assert c.internal_degree() is None
    c.add_term((1, 3), parse_monomial("x2*x3", 6), 1)
    assert c.internal_degree() == 4
    c.add_term((1, 2), parse_monomial("x3", 6), 1)
    with pytest.raises(ValueError):
        c.internal_degree()


# -- differential -------------------------------------------------------------


def test_differential_golden():
    ideal, _ = ex_resolution_ideal()
    c = KoszulChain(ideal, 2)
    c.add_term((1, 3), unit(4), 1)
    d = koszul_differential(c)
    assert d.coefficient((3,), parse_monomial("x1", 4)) == 1
    assert d.coefficient((1,), parse_monomial("x3", 4)) == -1


def test_differential_squares_to_zero():
    rng = random.Random(7)
    ideal, _ = ex_spread_ideal()
    for _ in range(40):
        c = KoszulChain(ideal, 3)
        for _ in range(rng.randint(1, 5)):
            wedge = rng.sample(range(1, 7), 3)
            resid = monomial([rng.randint(1, 6) for _ in range(rng.randint(0, 3))], 6)
            c.add_term(wedge, resid, rng.randint(-3, 3))
        if c.is_zero:
            continue
        dd = koszul_differential(koszul_differential(c))
        assert dd.is_zero


def test_differential_rejects_degree_zero():
    ideal, _ = ex_spread_ideal()
    with pytest.raises(ValueError):
        koszul_differential(KoszulChain(ideal, 0))


# -- labels -------------------------------------------------------------------


def test_label_properties():
    lab = CycleLabel(parse_monomial("x2*x4^2*x6", 6), (1, 3))
    assert lab.hom_degree == 3
    assert lab.internal_degree == 6
    assert lab.multidegree() == (1, 1, 1, 2, 0, 1)
    assert str(lab) == "(x2*x4^2*x6; {1,3})"


def test_homology_basis_labels_golden():
    ideal, t = ex_spread_ideal()
    labels = {i: homology_basis_labels(ideal, t, i) for i in range(1, 6)}
    assert [str(l) for l in labels[1]] == [
        "(x1; {})", "(x2*x3^2; {})", "(x2*x3*x4*x6; {})", "(x2*x4^2*x6; {})"]
    assert [str(l) for l in labels[2]] == [
        "(x2*x3^2; {1})", "(x2*x3*x4*x6; {1})", "(x2*x3*x4*x6; {3})",
        "(x2*x4^2*x6; {1})", "(x2*x4^2*x6; {3})"]
    assert [str(l) for l in labels[3]] == [
        "(x2*x3*x4*x6; {1,3})", "(x2*x4^2*x6; {1,3})"]
    assert labels[4] == []
    assert labels[5] == []


def test_homology_basis_labels_order_second_fixture():
    ideal, t = ex_resolution_ideal()
    labels = homology_basis_labels(ideal, t, 2)
    assert [str(l) for l in labels] == [
        "(x1*x3; {2})", "(x1*x4^2; {2})", "(x1*x4^2; {3})"]


def test_homology_labels_requires_strongly_stable():
    from vecspread import MonomialIdeal
    bad = MonomialIdeal([parse_monomial("x2", 3)], 3)
    with pytest.raises(ValueError):
        homology_basis_labels(bad, (1,), 1)


def test_cycle_label_validation():
    ideal, t = ex_spread_ideal()
    with pytest.raises(ValueError):
        koszul_cycle(ideal, t, parse_monomial("x2*x3", 6), ())  # not a generator
    with pytest.raises(ValueError):
        koszul_cycle(ideal, t, parse_monomial("x2*x3^2", 6), (2,))  # 2 not free


# -- the cycle construction ----------------------------------------------------


def expand(chain):
    return [(tup, format_monomial(m), co) for tup, m, co in chain.terms()]


def test_cycles_golden_h1():
    ideal, t = ex_spread_ideal()
    for gen, wedge, resid in [
        ("x1", (1,), "1"),
        ("x2*x3^2", (3,), "x2*x3"),
        ("x2*x3*x4*x6", (6,), "x2*x3*x4"),
        ("x2*x4^2*x6", (6,), "x2*x4^2"),
    ]:
        c = koszul_cycle(ideal, t, parse_monomial(gen, 6), ())
        assert expand(c) == [(wedge, resid, 1)]


def test_cycles_golden_h2():
    ideal, t = ex_spread_ideal()
    w2 = parse_monomial("x2*x3^2", 6)
    w3 = parse_monomial("x2*x3*x4*x6", 6)
    w4 = parse_monomial("x2*x4^2*x6", 6)
    assert expand(koszul_cycle(ideal, t, w2, (1,))) == [((1, 3), "x2*x3", 1)]
    assert expand(koszul_cycle(ideal, t, w3, (1,))) == [((1, 6), "x2*x3*x4", 1)]
    assert expand(koszul_cycle(ideal, t, w3, (3,))) == [((3, 6), "x2*x3*x4", 1)]
    assert expand(koszul_cycle(ideal, t, w4, (1,))) == [((1, 6), "x2*x4^2", 1)]
    assert expand(koszul_cycle(ideal, t, w4, (3,))) == [
        ((3, 6), "x2*x4^2", 1), ((4, 6), "x2*x3*x4", -1)]


def test_cycles_golden_h3():
    ideal, t = ex_spread_ideal()
    w3 = parse_monomial("x2*x3*x4*x6", 6)
    w4 = parse_monomial("x2*x4^2*x6", 6)
    assert expand(koszul_cycle(ideal, t, w3, (1, 3))) == [
        ((1, 3, 6), "x2*x3*x4", 1)]
    assert expand(koszul_cycle(ideal, t, w4, (1, 3))) == [
        ((1, 3, 6), "x2*x4^2", 1), ((1, 4, 6), "x2*x3*x4", -1)]


def test_cycles_are_cycles_on_fixture():
    ideal, t = ex_spread_ideal()
    for i in range(1, 4):
        for lab in homology_basis_labels(ideal, t, i):
            c = koszul_cycle(ideal, t, lab.generator, lab.sigma)
            assert not c.is_zero
            if i > 1:
                assert koszul_differential(c).is_zero


def test_sign_parity_base_cases():
    ideal, t = ex_spread_ideal()
    w4 = parse_monomial("x2*x4^2*x6", 6)
    assert cycle_sign_parity(w4, (), ()) == 0
    # singleton subsets of a singleton sigma contribute an odd sign
    assert cycle_sign_parity(w4, (3,), (3,)) == 1
    assert cycle_sign_parity(w4, (3,), ()) == 0
    with pytest.raises(ValueError):
        cycle_sign_parity(w4, (3,), (9,))


# -- the subset loop, the reference of the repeat-free walk ---------------------


def _subset_parity(subset, succ):
    """`cycle_sign_parity` of the subset with bit p for sigma[p], read off
    succ[p], the next support index above sigma[p].

    Successors grow with sigma, so the recursion only ever drops a top
    segment of sigma: one element outside the subset, or the whole group
    sharing the successor of an element inside it.
    """
    parity, h = 0, len(succ)
    while subset:
        size = subset.bit_count()
        h -= 1
        if subset >> h & 1:
            top = h
            while h and succ[h - 1] == succ[top]:
                h -= 1
            parity ^= ((top - h) * (size + 1) + 1) & 1
            subset &= (1 << h) - 1
        else:
            parity ^= size & 1
    return parity


def reference_direct_cycle(ideal, u, sigma):
    """The expansion over all 2^|sigma| subsets F of sigma, dropping each F
    whose wedge (sigma minus F) + succ(F) + max(u) repeats an index."""
    chain = KoszulChain(ideal, len(sigma) + 1)
    max_u = u.max_index
    u_prime = list(u.exponents_over(ideal.ambient_n))
    u_prime[max_u - 1] -= 1
    succ = [next_support_index(u, k) for k in sigma]
    m = len(sigma)
    for subset in range(1 << m):
        F = [p for p in range(m) if subset >> p & 1]
        rest = [sigma[p] for p in range(m) if not (subset >> p & 1)]
        wedge, sign = _wedge_mask(rest + [succ[p] for p in F] + [max_u])
        if not sign:
            continue
        residue = list(u_prime)
        for p in F:
            residue[succ[p] - 1] -= 1
            residue[sigma[p] - 1] += 1
        parity = _subset_parity(subset, succ)
        chain._add(wedge, tuple(residue), -sign if parity else sign)
    return chain


@settings(max_examples=150, deadline=None)
@given(st.lists(st.integers(0, 3), min_size=1, max_size=3),
       st.integers(2, 7), st.randoms(use_true_random=False))
def test_walk_matches_the_subset_loop(gaps, n, rng):
    # every label of a random strongly stable ideal, t admissible or not,
    # and members of the ideal that are not generators with any sigma
    # admissible for them
    t = SpreadVector(tuple(gaps))
    ideal = random_strongly_stable_ideal(rng, n, t)
    pairs = [(lab.generator, lab.sigma) for lab in _labels(ideal, t)]
    for degree in range(1, t.d + 1):
        for u in ideal.degreewise_members(t, degree):
            free = free_indices(u, t)
            pairs.append((u, tuple(k for k in free if rng.random() < 0.6)))
    for u, sigma in pairs:
        assert (_direct_cycle(ideal, u, sigma)._terms
                == reference_direct_cycle(ideal, u, sigma)._terms), (u, sigma)


def test_walk_matches_the_subset_loop_on_the_workloads():
    # W8 and a D10 prefix: labels with long sigma and shared successors
    for ideal, t in [roadmap_workload(1, (6, 8), 3),
                     roadmap_workload(1, (6, 10), 3)]:
        grouped = 0
        for lab in _labels(ideal, t):
            u, sigma = lab.generator, lab.sigma
            assert (_direct_cycle(ideal, u, sigma)._terms
                    == reference_direct_cycle(ideal, u, sigma)._terms), str(lab)
            succ = [next_support_index(u, k) for k in sigma]
            grouped += len(set(succ)) < len(succ)
        assert grouped


def test_subset_parity_matches_cycle_sign_parity():
    # the parity the subset loop reads off the successors it holds, against
    # the public recursion on sigma, on every subset of every label
    cases = [ex_spread_ideal(), ex_resolution_ideal()]
    cases += [roadmap_workload(seed, (6, 7), 2) for seed in (1, 5, 9)]
    grouped = 0
    for ideal, t in cases:
        top = max(len(free_indices(g, t)) for g in ideal.generators)
        for i in range(1, top + 2):
            for lab in homology_basis_labels(ideal, t, i):
                u, sigma = lab.generator, lab.sigma
                succ = [next_support_index(u, k) for k in sigma]
                grouped += len(set(succ)) < len(succ)
                for subset in range(1 << len(sigma)):
                    chosen = [k for p, k in enumerate(sigma) if subset >> p & 1]
                    assert _subset_parity(subset, succ) == cycle_sign_parity(
                        u, sigma, chosen), (lab, chosen)
    assert grouped  # some labels share a successor between sigma indices


def test_recursive_matches_direct_on_fixture():
    ideal, t = ex_spread_ideal()
    for i in range(1, 4):
        for lab in homology_basis_labels(ideal, t, i):
            direct = koszul_cycle(ideal, t, lab.generator, lab.sigma)
            rec = koszul_cycle_recursive(ideal, t, lab.generator, lab.sigma)
            assert (direct - rec).is_zero, str(lab)


def test_recursive_matches_direct_random():
    rng = random.Random(13)
    done = 0
    while done < 30:
        t = random_spread_vector(rng)
        n = rng.randint(2, 6)
        ideal = random_strongly_stable_ideal(rng, n, t)
        if ideal.is_unit:
            continue
        for i in range(1, 4):
            for lab in homology_basis_labels(ideal, t, i):
                direct = koszul_cycle(ideal, t, lab.generator, lab.sigma)
                rec = koszul_cycle_recursive(ideal, t, lab.generator, lab.sigma)
                assert (direct - rec).is_zero, (ideal.generators, str(t), str(lab))
                # both constructions only ever add +-1, as int
                for _, _, coeff in [*direct.terms(), *rec.terms()]:
                    assert type(coeff) is int and coeff in (1, -1), str(lab)
                if i > 1:
                    assert koszul_differential(direct).is_zero
        done += 1


def test_leading_term_is_label_term():
    # the expansion at the empty subset survives reduction and leads the chain
    ideal, t = ex_spread_ideal()
    for i in range(1, 4):
        for lab in homology_basis_labels(ideal, t, i):
            c = koszul_cycle(ideal, t, lab.generator, lab.sigma)
            tup, mono, coeff = c.leading_term()
            assert tup == lab.sigma + (lab.generator.max_index,)
            assert mono == lab.generator.over_var(lab.generator.max_index)
            assert coeff == 1


# -- simple cycles and the remainder split -------------------------------------


def test_simple_cycle_single_term():
    ideal, t = ex_resolution_ideal()
    u = parse_monomial("x1*x4^2", 4)
    c = simple_cycle(ideal, t, u, (2, 3))
    assert expand(c) == [((2, 3, 4), "x1*x4", 1)]
    assert koszul_differential(c).is_zero


def test_simple_cycle_rejects_bad_shape():
    ideal, t = ex_spread_ideal()
    with pytest.raises(ValueError):
        simple_cycle(ideal, t, parse_monomial("x2*x3^2", 6), (1,))


def test_remainder_split_reassembles():
    ideal, t = ex_spread_ideal()
    for i in range(2, 4):
        for lab in homology_basis_labels(ideal, t, i):
            head, rest = remainder_split(ideal, t, lab.generator, lab.sigma)
            total = head + rest
            cycle = koszul_cycle(ideal, t, lab.generator, lab.sigma)
            assert (total - cycle).is_zero
            k1 = lab.sigma[0]
            for tup, _, _ in head.terms():
                assert k1 in tup
            for tup, _, _ in rest.terms():
                assert k1 not in tup


def test_remainder_split_needs_sigma():
    ideal, t = ex_spread_ideal()
    with pytest.raises(ValueError):
        remainder_split(ideal, t, parse_monomial("x1", 6), ())


# -- the tuple-keyed reference route --------------------------------------------
#
# Chains were once keyed by (sorted wedge index tuple, Monomial), and the sweep
# translated each term onto a block's wedge bitmasks.  That route is kept here
# as the reference for the bitmask-and-exponent-vector keys.


def _sorted_wedge(seq):
    """Sort wedge indices, tracking the transposition sign; repeats give None."""
    arr = list(seq)
    sign = 1
    for i in range(1, len(arr)):
        j = i
        while j > 0 and arr[j - 1] > arr[j]:
            arr[j - 1], arr[j] = arr[j], arr[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(arr, arr[1:]):
        if a == b:
            return None, 0
    return tuple(arr), sign


class ReferenceChain:
    """A chain keyed by (sorted index tuple, Monomial)."""

    def __init__(self, ideal, hom_degree):
        self.ideal, self.hom_degree, self._terms = ideal, hom_degree, {}

    def add_term(self, wedge, residue, coeff):
        if coeff == 0:
            return
        tup, sign = _sorted_wedge(wedge)
        if tup is None:
            return
        if len(tup) != self.hom_degree:
            raise ValueError(f"wedge {tup} has the wrong length")
        if tup and (tup[0] < 1 or tup[-1] > self.ideal.ambient_n):
            raise ValueError(f"wedge {tup} out of range")
        if self.ideal.contains(residue):
            return
        key = (tup, residue)
        new = self._terms.get(key, 0) + sign * coeff
        if new == 0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = new

    def terms(self):
        for (tup, mono), coeff in sorted(
                self._terms.items(), key=lambda kv: (kv[0][0], kv[0][1].indices)):
            yield tup, mono, coeff

    def coefficient(self, wedge, residue):
        tup, sign = _sorted_wedge(wedge)
        return 0 if tup is None else sign * self._terms.get((tup, residue), 0)

    def internal_degree(self):
        degs = {m.degree + len(tup) for (tup, m) in self._terms}
        if len(degs) > 1:
            raise ValueError("mixed internal degrees")
        return degs.pop() if degs else None

    def wedge_var_right(self, k):
        out = ReferenceChain(self.ideal, self.hom_degree + 1)
        for (tup, mono), coeff in self._terms.items():
            out.add_term(tup + (k,), mono, coeff)
        return out

    def wedge_var_left(self, k):
        out = ReferenceChain(self.ideal, self.hom_degree + 1)
        for (tup, mono), coeff in self._terms.items():
            out.add_term((k,) + tup, mono, coeff)
        return out

    def __str__(self):
        if not self._terms:
            return "0"
        pieces = []
        for tup, mono, coeff in self.terms():
            wedge = "^".join(f"e{k}" for k in tup)
            body = f"eps({format_monomial(mono)}) {wedge}"
            if coeff == 1:
                pieces.append(("+ " if pieces else "") + body)
            elif coeff == -1:
                pieces.append(("- " if pieces else "-") + body)
            else:
                sign = "- " if coeff < 0 else ("+ " if pieces else "")
                pieces.append(f"{sign}{abs(coeff)}*{body}")
        return " ".join(pieces)


def reference_differential(chain):
    out = ReferenceChain(chain.ideal, chain.hom_degree - 1)
    for (tup, mono), coeff in chain._terms.items():
        for pos, k in enumerate(tup):
            sign = -1 if pos % 2 else 1
            out.add_term(tup[:pos] + tup[pos + 1:], mono.times_var(k), sign * coeff)
    return out


def reference_cycle_column(bits, index, degree, chain):
    """The sweep's old translation: bits maps each support variable to its
    bit, degree lists the multidegree a as variables."""
    col = {}
    for wedge, residue, coeff in chain.terms():
        if sorted(residue.indices + wedge) != degree:
            return None
        r = index.get(sum(bits[k] for k in wedge))
        if r is None:
            return None
        col[r] = coeff
    return list(col.items())


def as_reference(chain):
    ref = ReferenceChain(chain.ideal, chain.hom_degree)
    for wedge, residue, coeff in chain.terms():
        ref.add_term(wedge, residue, coeff)
    return ref


def outcome(f, *args):
    """f(*args), or the type of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError:
        return ValueError


# wedges unsorted and with repeats, residues of degree <= 4, small coefficients
_chain_terms = st.integers(0, 4).flatmap(lambda i: st.tuples(
    st.just(i),
    st.lists(st.tuples(st.lists(st.integers(1, 6), min_size=i, max_size=i),
                       st.lists(st.integers(1, 6), max_size=4),
                       st.integers(-3, 3)), max_size=6)))


@settings(max_examples=300, deadline=None)
@given(st.booleans(), _chain_terms)
def test_chain_matches_tuple_keyed_reference(zero_ideal, spec):
    ideal = MonomialIdeal.zero(6) if zero_ideal else ex_spread_ideal()[0]
    i, terms = spec
    new, ref = KoszulChain(ideal, i), ReferenceChain(ideal, i)
    for wedge, residue, coeff in terms:
        new.add_term(wedge, monomial(residue, 6), coeff)
        ref.add_term(wedge, monomial(residue, 6), coeff)
    assert list(new.terms()) == list(ref.terms())
    assert str(new) == str(ref)
    for wedge, residue, _ in terms:
        assert (new.coefficient(wedge, monomial(residue, 6))
                == ref.coefficient(wedge, monomial(residue, 6)))
    assert outcome(new.internal_degree) == outcome(ref.internal_degree)
    if not new.is_zero:
        assert new.leading_term() == next(ref.terms())
    if i:
        d_new, d_ref = koszul_differential(new), reference_differential(ref)
        assert list(d_new.terms()) == list(d_ref.terms())
        assert str(d_new) == str(d_ref)
    for k in range(1, 7):
        assert (list(new.wedge_var_right(k).terms())
                == list(ref.wedge_var_right(k).terms()))


def _labels(ideal, t):
    labels, i = [], 1
    while True:
        level = homology_basis_labels(ideal, t, i)
        if not level:
            return labels
        labels += level
        i += 1


def _non_admissible_cases(seed, count):
    rng, cases = random.Random(seed), []
    while len(cases) < count:
        t = random_spread_vector(rng)
        ideal = random_strongly_stable_ideal(rng, rng.randint(4, 7), t)
        if not admissible_shape(t) and not ideal.is_unit:
            cases.append((ideal, t))
    return cases


def test_cycle_column_matches_the_old_translation():
    # each label's cycle read in its own block and in the next label's,
    # so both the coordinates and the None of a foreign block are compared
    for ideal, t in [roadmap_workload(1, (6, 8), 3), *_non_admissible_cases(41, 6)]:
        labels = _labels(ideal, t)
        blocks = {}
        for label, other in zip(labels, labels[1:] + labels[:1]):
            chain = koszul_cycle(ideal, t, label.generator, label.sigma)
            ref = as_reference(chain)
            for a in {label.multidegree(), other.multidegree()}:
                if a not in blocks:
                    blocks[a] = _koszul_block(ideal, a)
                if blocks[a] is None or label.hom_degree >= len(blocks[a][2]):
                    continue
                _, support, index = blocks[a]
                bits = {k + 1: 1 << p for p, k in enumerate(support)}
                degree = [k + 1 for k in support for _ in range(a[k])]
                new = _cycle_column(support, index[label.hom_degree], a, chain)
                old = reference_cycle_column(
                    bits, index[label.hom_degree], degree, ref)
                assert (new if new is None else sorted(new)) == (
                    old if old is None else sorted(old)), (str(label), a)


def test_remainder_split_head_is_the_reference_left_wedge():
    for ideal, t in [ex_spread_ideal(), *_non_admissible_cases(43, 8)]:
        for label in _labels(ideal, t):
            if not label.sigma:
                continue
            u, sigma = label.generator, label.sigma
            head, _ = remainder_split(ideal, t, u, sigma)
            shorter = as_reference(koszul_cycle(ideal, t, u, sigma[1:]))
            assert (list(head.terms())
                    == list(shorter.wedge_var_left(sigma[0]).terms())), str(label)
