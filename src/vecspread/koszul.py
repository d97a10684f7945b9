"""Koszul chains over S/I and the distinguished cycles attached to labels.

A chain in homological degree i is an integer combination of wedge basis
elements e_{k_1} ^ ... ^ e_{k_i} (k_1 < ... < k_i) with monomial residues
taken in S/I: terms whose residue lies in I are dropped on insertion.  A
term is keyed by its wedge bitmask (bit k - 1 for e_k) and its residue's
exponent vector, as the multidegree blocks of betti.py read them.  Integer
coefficients only (cycles carry +-1); a rational or a float raises
TypeError.  The differential sends e_tau to sum_l (-1)^(l+1) x_{k_l}
e_{tau minus k_l}, again reducing residues mod I.

For a t-spread strongly stable ideal, each label (u, sigma) with u a minimal
generator and sigma inside [max(u)-1] minus the spread support of u carries
a distinguished cycle whose classes form a basis of the Koszul homology.
The cycle is built here both from its closed-form expansion (with the sign
parity recursion) and from the two-case recurrence on sigma; the two
constructions must agree, which the test suite checks term by term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from operator import add, index
from typing import Iterable, Iterator, Optional

from .ideals import MonomialIdeal, admissible_shape, require_strongly_stable
from .monomials import (
    Monomial,
    SpreadVector,
    format_monomial,
    free_indices,
    is_spread,
    next_support_index,
)

WedgeIndex = tuple[int, ...]


def _wedge_mask(seq: Iterable[int], mask: int = 0) -> tuple[int, int]:
    """The bitmask of e_mask ^ e_seq (bit k - 1 for e_k) and its sorting sign:
    appending e_k passes each set bit above k.  A repeat gives sign 0."""
    sign = 1
    for k in seq:
        bit = 1 << (k - 1)
        if mask & bit:
            return 0, 0
        if (mask >> k).bit_count() & 1:
            sign = -sign
        mask |= bit
    return mask, sign


class KoszulChain:
    """A chain of K_i(x; S/I) with int coefficients."""

    def __init__(self, ideal: MonomialIdeal, hom_degree: int):
        if hom_degree < 0:
            raise ValueError("homological degree must be non-negative")
        self.ideal = ideal
        self.hom_degree = hom_degree
        self._terms: dict[tuple[int, tuple[int, ...]], int] = {}

    # -- construction ------------------------------------------------------

    def add_term(self, wedge: Iterable[int], residue: Monomial, coeff) -> None:
        """Insert coeff * residue * e_wedge, canonicalizing the wedge.

        Wedges with repeated indices vanish; residues inside the ideal are
        reduced to zero; cancellations remove the slot.  coeff must be an
        integer (operator.index): a rational or a float raises TypeError.
        """
        coeff = index(coeff)
        if coeff == 0:
            return
        seq, n = tuple(wedge), self.ideal.ambient_n
        if min(seq, default=1) < 1 or max((*seq, *residue.indices), default=0) > n:
            raise ValueError(f"wedge {tuple(sorted(seq))} or residue {residue} "
                             f"out of range for n={n}")
        mask, sign = _wedge_mask(seq)
        if not sign:
            return
        if len(seq) != self.hom_degree:
            raise ValueError(f"wedge {tuple(sorted(seq))} has length {len(seq)}, "
                             f"chain lives in degree {self.hom_degree}")
        self._add(mask, residue.exponents_over(n), sign * coeff)

    def _add(self, mask: int, exps: tuple[int, ...], coeff: int) -> None:
        """Insert coeff * x^exps * e_mask, dropping residues in the ideal."""
        if not self.ideal.contains_exponents(exps):
            new = self._terms.pop((mask, exps), 0) + coeff
            if new:
                self._terms[mask, exps] = new

    def copy(self) -> "KoszulChain":
        dup = KoszulChain(self.ideal, self.hom_degree)
        dup._terms = dict(self._terms)
        return dup

    # -- inspection --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self._terms

    def terms(self) -> Iterator[tuple[WedgeIndex, Monomial, int]]:
        """Terms sorted by descending wedge order (ascending index tuples)."""
        yield from sorted(
            ((tuple(k + 1 for k in range(mask.bit_length()) if mask >> k & 1),
              Monomial.from_exponents(exps), coeff)
             for (mask, exps), coeff in self._terms.items()),
            key=lambda term: (term[0], term[1].indices))

    def coefficient(self, wedge: Iterable[int], residue: Monomial) -> int:
        seq, n = tuple(wedge), self.ideal.ambient_n
        if min(seq, default=1) < 1 or max((*seq, *residue.indices), default=0) > n:
            return 0
        mask, sign = _wedge_mask(seq)
        return sign * self._terms.get((mask, residue.exponents_over(n)), 0)

    def internal_degree(self) -> Optional[int]:
        """deg(residue) + |wedge|, which all terms must share."""
        degs = {mask.bit_count() + sum(exps) for mask, exps in self._terms}
        if not degs:
            return None
        if len(degs) > 1:
            raise ValueError(f"chain mixes internal degrees {sorted(degs)}")
        return degs.pop()

    def leading_term(self) -> tuple[WedgeIndex, Monomial, int]:
        """The term with the largest wedge (smallest index tuple)."""
        if self.is_zero:
            raise ValueError("the zero chain has no leading term")
        return next(self.terms())

    # -- algebra -----------------------------------------------------------

    def add(self, other: "KoszulChain") -> "KoszulChain":
        if self.hom_degree != other.hom_degree:
            raise ValueError("cannot add chains of different homological degree")
        out = self.copy()
        for (mask, exps), coeff in other._terms.items():
            out._add(mask, exps, coeff)
        return out

    __add__ = add

    def scale(self, factor) -> "KoszulChain":
        factor = index(factor)
        out = KoszulChain(self.ideal, self.hom_degree)
        if factor != 0:
            out._terms = {k: v * factor for k, v in self._terms.items()}
        return out

    def negate(self) -> "KoszulChain":
        return self.scale(-1)

    __neg__ = negate

    def __sub__(self, other: "KoszulChain") -> "KoszulChain":
        return self.add(other.negate())

    def wedge_var_right(self, k: int) -> "KoszulChain":
        """self ^ e_k."""
        if not 1 <= k <= self.ideal.ambient_n:
            raise ValueError(f"e{k} out of range for n={self.ideal.ambient_n}")
        out = KoszulChain(self.ideal, self.hom_degree + 1)
        for (mask, exps), coeff in self._terms.items():
            wedge, sign = _wedge_mask((k,), mask)
            if sign:
                out._terms[wedge, exps] = sign * coeff
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, KoszulChain):
            return NotImplemented
        return self.hom_degree == other.hom_degree and self._terms == other._terms

    def __hash__(self):
        raise TypeError("KoszulChain is unhashable")

    def __str__(self) -> str:
        if self.is_zero:
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
                mag = abs(coeff)
                pieces.append(f"{sign}{mag}*{body}")
        return " ".join(pieces)

    __repr__ = __str__


def koszul_differential(chain: KoszulChain) -> KoszulChain:
    """Apply the Koszul differential, reducing residues modulo the ideal."""
    if chain.hom_degree == 0:
        raise ValueError("cannot differentiate a degree-0 chain")
    out = KoszulChain(chain.ideal, chain.hom_degree - 1)
    for (mask, exps), coeff in chain._terms.items():
        # drop the wedge's indices from the lowest up with signs +, -, +, ...
        for k in range(len(exps)):
            if mask >> k & 1:
                out._add(mask ^ (1 << k), exps[:k] + (exps[k] + 1,) + exps[k + 1:],
                         coeff)
                coeff = -coeff
    return out


# -- labels ------------------------------------------------------------------


@dataclass(frozen=True)
class CycleLabel:
    """A pair (u, sigma): a minimal generator and an admissible index set."""

    generator: Monomial
    sigma: tuple[int, ...]

    @property
    def hom_degree(self) -> int:
        return len(self.sigma) + 1

    @property
    def internal_degree(self) -> int:
        return self.generator.degree + len(self.sigma)

    def multidegree(self) -> tuple[int, ...]:
        exps = list(self.generator.exponents)
        for k in self.sigma:
            exps[k - 1] += 1
        return tuple(exps)

    def __str__(self) -> str:
        return format_label(format_monomial(self.generator), self.sigma)


def format_label(generator: str, sigma: tuple[int, ...]) -> str:
    """The text of the label (u, sigma), given the text of u."""
    return f"({generator}; {{{','.join(map(str, sigma))}}})"


def homology_basis_labels(ideal: MonomialIdeal, t, hom_degree: int) -> list[CycleLabel]:
    """All labels (u, sigma) with |sigma| = hom_degree - 1.

    Ordered by generator (descending plex, the stored order) and then by
    descending wedge order on sigma.  The unit ideal has none: S/S = 0 has
    no Koszul homology.
    """
    t = SpreadVector.coerce(t)
    require_strongly_stable(ideal, t)
    return spread_labels(ideal, t, hom_degree)


def spread_labels(ideal: MonomialIdeal, t: SpreadVector,
                  hom_degree: int) -> list[CycleLabel]:
    """homology_basis_labels without the strong-stability check, for callers
    that check the ideal once for all homological degrees."""
    if hom_degree < 1:
        raise ValueError("homological degree must be at least 1")
    if ideal.is_unit:
        return []
    labels = []
    for g in ideal.generators:
        allowed = free_indices(g, t)
        for sigma in combinations(allowed, hom_degree - 1):
            labels.append(CycleLabel(g, sigma))
    return labels


def _validate_label(ideal: MonomialIdeal, t: SpreadVector, u: Monomial,
                    sigma: tuple[int, ...]) -> tuple[int, ...]:
    if u not in ideal.generator_set:
        raise ValueError(f"{u} is not a minimal generator of the ideal")
    sigma = tuple(sorted(set(sigma)))
    allowed = set(free_indices(u, t))
    stray = [k for k in sigma if k not in allowed]
    if stray:
        raise ValueError(
            f"sigma indices {stray} are not admissible for {u}: allowed "
            f"{sorted(allowed)}")
    return sigma


# -- sign parity --------------------------------------------------------------


def cycle_sign_parity(u: Monomial, sigma, subset) -> int:
    """Parity (0 or 1) of the sign exponent attached to a subset of sigma.

    Recursion on the largest element of sigma: removing it when absent from
    the subset costs |subset|; when present, the whole group of sigma
    elements sharing its successor support index collapses at once.
    """
    sigma = tuple(sorted(sigma))
    chosen = frozenset(subset)
    if not chosen <= set(sigma):
        raise ValueError(f"subset {sorted(chosen)} not contained in sigma {sigma}")

    def rec(sig: tuple[int, ...], F: frozenset[int]) -> int:
        if not F:
            return 0
        top = sig[-1]
        if top not in F:
            return (rec(sig[:-1], F) + len(F)) % 2
        j_top = next_support_index(u, top)
        group = tuple(k for k in sig if next_support_index(u, k) == j_top)
        sig2 = tuple(k for k in sig if k not in group)
        F2 = frozenset(k for k in F if k not in group)
        return (rec(sig2, F2) + (len(group) - 1) * (len(F) + 1) + 1) % 2

    return rec(sigma, chosen)


# -- cycles -------------------------------------------------------------------


def _direct_cycle(ideal: MonomialIdeal, u: Monomial,
                  sigma: tuple[int, ...]) -> KoszulChain:
    """Closed-form expansion over the subsets F of sigma whose wedge (sigma
    minus F) + succ(F) + max(u) repeats no index (u any t-spread member).

    sigma is walked one index at a time, each entering the wedge bitmask as
    itself or as its successor succ(k), the support index of u next above
    k, and a branch ends at its first repeated bit.  A kept F takes at most
    one index q from each run of sigma sharing a successor, and the sigma
    indices between sigma_q and succ(q) are the run's members above q.
    A term's sign is (-1) to the sorting inversions of its wedge plus
    `cycle_sign_parity`.  For a kept F that parity is |F| plus the pairs
    q < p with q in F and p outside it, and the inversions are the pairs
    among those with sigma_p > succ(q).  So each q taken multiplies the
    sign by (-1) to the number of the run's members from q up.
    """
    n, max_u = ideal.ambient_n, u.max_index
    u_prime = list(u.exponents_over(n))
    u_prime[max_u - 1] -= 1
    succ = [next_support_index(u, k) for k in sigma]
    walk = [(1 << (max_u - 1), tuple(u_prime), 1)]
    for p, (k, s) in enumerate(zip(sigma, succ)):
        own, up = 1 << (k - 1), 1 << (s - 1)
        # taking the successor trades x_s for x_k in the residue; on a
        # repeat-free wedge the successors taken still divide u'
        swap = [0] * n
        swap[k - 1], swap[s - 1] = 1, -1
        flip = -1 if succ[p:].count(s) & 1 else 1
        step = []
        for mask, residue, sign in walk:
            if not mask & own:
                step.append((mask | own, residue, sign))
            if not mask & up:
                step.append((mask | up, tuple(map(add, residue, swap)),
                             sign * flip))
        walk = step
    chain = KoszulChain(ideal, len(sigma) + 1)
    for mask, residue, sign in walk:
        chain._add(mask, residue, sign)
    return chain


def koszul_cycle(ideal: MonomialIdeal, t, u: Monomial, sigma) -> KoszulChain:
    """The distinguished cycle of the label (u, sigma), by its expansion."""
    t = SpreadVector.coerce(t)
    sigma = _validate_label(ideal, t, u, tuple(sigma))
    return _direct_cycle(ideal, u, sigma)


def _recursive_cycle(ideal: MonomialIdeal, t: SpreadVector, u: Monomial,
                     sigma: tuple[int, ...]) -> KoszulChain:
    if not sigma:
        chain = KoszulChain(ideal, 1)
        chain.add_term((u.max_index,), u.over_var(u.max_index), 1)
        return chain
    k_top = sigma[-1]
    j_top = next_support_index(u, k_top)
    head = _recursive_cycle(ideal, t, u, sigma[:-1]).wedge_var_right(k_top).negate()
    if j_top == u.max_index:
        return head
    v = u.over_var(j_top).times_var(k_top)
    assert is_spread(v, t), f"exchange {v} left the spread class"
    first = min(p for p, k in enumerate(sigma)
                if next_support_index(u, k) == j_top)
    tail = _recursive_cycle(ideal, t, v, sigma[:first])
    for k in sigma[first:-1]:
        tail = tail.wedge_var_right(k)
    tail = tail.wedge_var_right(j_top)
    if (len(sigma) - first - 1) % 2:
        tail = tail.negate()
    return head.add(tail)


def koszul_cycle_recursive(ideal: MonomialIdeal, t, u: Monomial, sigma) -> KoszulChain:
    """The same cycle, assembled by the recurrence on the last sigma index."""
    t = SpreadVector.coerce(t)
    sigma = _validate_label(ideal, t, u, tuple(sigma))
    return _recursive_cycle(ideal, t, u, sigma)


def simple_cycle(ideal: MonomialIdeal, t, u: Monomial, sigma) -> KoszulChain:
    """eps(u / x_max) e_sigma ^ e_max; a cycle for spreads (1,..,1,0,..,0)."""
    t = SpreadVector.coerce(t)
    if not admissible_shape(t):
        raise ValueError(
            f"simple cycles need a spread vector shaped (1,..,1,0,..,0), got {t}")
    sigma = _validate_label(ideal, t, u, tuple(sigma))
    chain = KoszulChain(ideal, len(sigma) + 1)
    chain.add_term(sigma + (u.max_index,), u.over_var(u.max_index), 1)
    return chain


def remainder_split(ideal: MonomialIdeal, t, u: Monomial, sigma
                    ) -> tuple[KoszulChain, KoszulChain]:
    """Split the cycle as e_{k_1} ^ e(u; sigma minus k_1) plus a remainder.

    The remainder collects exactly the expansion terms whose subset contains
    the smallest sigma index k_1, which are the terms whose wedge lacks
    e_{k_1}: a subset without k_1 keeps it in the wedge, and a subset with
    it puts only successors and max(u), all above k_1, in its place.
    """
    t = SpreadVector.coerce(t)
    sigma = _validate_label(ideal, t, u, tuple(sigma))
    if not sigma:
        raise ValueError("sigma must be non-empty to split")
    k1 = sigma[0]
    # e_k ^ c = (-1)^deg(c) c ^ e_k, and the shorter cycle has degree |sigma|
    head = _direct_cycle(ideal, u, sigma[1:]).wedge_var_right(k1).scale(
        (-1) ** len(sigma))
    cycle = _direct_cycle(ideal, u, sigma)
    rest = KoszulChain(ideal, cycle.hom_degree)
    rest._terms = {key: c for key, c in cycle._terms.items()
                   if not key[0] >> (k1 - 1) & 1}
    return head, rest
