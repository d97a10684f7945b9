"""Monomial ideals generated by t-spread monomials.

Membership, minimal generators, the stable / strongly stable / lex-segment
predicates (checked degreewise on U_l = I intersect M_{n,l,t}), strongly
stable closures, standard factorizations, decomposition functions, and exact
Hilbert function counting.

Each ideal builds a divisor index of its generators when it is made, and
every divisibility question against them reads it: minimality, membership,
the plex-largest divisor, the Hilbert function and the spread-class
predicates, which work on index tuples.  U_l and the monomials outside I
are walked with the bitset of generators that can still divide, and an
exchange's exponent vector is n ANDs.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from math import comb
from operator import add
from typing import Iterable, Optional, Sequence

from .monomials import (
    Monomial,
    SpreadVector,
    format_monomial,
    gaps_meet,
    is_spread,
    parse_monomial,
    plex_key,
    spread_index_tuples,
    unit,
)


class MonomialIdeal:
    """A monomial ideal held by its minimal generators.

    Generators are stored in descending plex order.  Equality and hashing
    compare the generator index data only; the ambient size is contextual.
    Instances are immutable by convention.
    """

    def __init__(self, generators: Iterable[Monomial], ambient_n: int):
        gens = tuple(sorted(generators, key=plex_key, reverse=True))
        for g in gens:
            if g.max_index > ambient_n and not g.is_unit:
                raise ValueError(f"generator {g} exceeds ambient n={ambient_n}")
        # normalize every generator to the ideal's own ambient
        gens = tuple(Monomial(g.indices, ambient_n) for g in gens)
        exps = [g.exponents for g in gens]
        # le[k][v] and eq[k][v] over the stored order: the lowest bit among
        # the other divisors of a generator is its first divisor
        self._divisor_index = divisor_index(exps, ambient_n)
        self.generators = gens
        for i, e in enumerate(exps):
            others = self.divisor_bits(e) & ~(1 << i)
            if others:
                j = (others & -others).bit_length() - 1
                raise ValueError(f"generator set is not minimal: "
                                 f"{gens[j]} divides {gens[i]}")
        self.generator_set = frozenset(gens)
        self.ambient_n = ambient_n
        self._exp_cache: dict[tuple[int, ...], bool] = {}

    @classmethod
    def from_generators(cls, generators: Iterable[Monomial],
                        ambient_n: int) -> "MonomialIdeal":
        """The ideal of any monomials, the first of equal ones kept.  Only a
        set the constructor refuses is minimalised: a minimal one is indexed
        once."""
        pool = list(generators)
        try:
            return cls(pool, ambient_n)
        except ValueError:
            return cls(minimalize(pool), ambient_n)

    @classmethod
    def zero(cls, n: int) -> "MonomialIdeal":
        return cls((), n)

    @classmethod
    def unit_ideal(cls, n: int) -> "MonomialIdeal":
        return cls((unit(n),), n)

    # -- membership --------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.generators

    @property
    def is_unit(self) -> bool:
        return len(self.generators) == 1 and self.generators[0].is_unit

    def divisor_bits(self, exps: tuple[int, ...]) -> int:
        """The generators dividing x^exps (exps of length ambient_n) as a
        bitset over the stored descending plex order, so the lowest set bit
        is the plex-largest divisor."""
        return bits_below(self._divisor_index[0], exps,
                          (1 << len(self.generators)) - 1)

    def tight_masks(self, exps: tuple[int, ...],
                    support: list[int]) -> frozenset[int]:
        """The distinct tight masks of the generators dividing x^exps: for a
        divisor g, the bitmask of the positions p with g_k = exps_k, k =
        support[p] (0-based variables).

        The divisor bitset is split into classes of equal mask, one support
        position at a time, by eq[k][exps_k], so the divisors are never
        visited one by one.  Empty when no generator divides x^exps.
        """
        divisors = self.divisor_bits(exps)
        if not divisors:
            return frozenset()
        eq = self._divisor_index[1]
        classes = {0: divisors}
        for p, k in enumerate(support):
            eq_k, v = eq[k], exps[k]
            tight = eq_k[v] & divisors if v < len(eq_k) else 0
            if not tight:
                continue
            bit, split = 1 << p, {}
            for mask, members in classes.items():
                hit = members & tight
                if hit:
                    split[mask | bit] = hit
                    if hit != members:
                        split[mask] = members ^ hit
                else:
                    split[mask] = members
            classes = split
        return frozenset(classes)

    def contains_exponents(self, exps: tuple[int, ...]) -> bool:
        """Membership of x^exps (exps of length ambient_n), memoised: the
        Koszul chains (a certify seed-1 round makes 12,945 calls on 532
        vectors, 9,522 from the sweep's d z = 0 check and 3,423 from the
        cycle expansion, one per repeat-free subset), gin's per-degree
        ideals and `contains` fill the memo; without it the bench's
        probe-scaled certify `wall_s` rose from 0.383 to 0.409 s."""
        hit = self._exp_cache.get(exps)
        if hit is None:
            hit = self._exp_cache[exps] = self.divisor_bits(exps) != 0
        return hit

    def contains(self, w: Monomial) -> bool:
        # variables past ambient_n divide no generator, so they cannot
        # decide membership: w may be read in any ambient
        return self.contains_exponents(w.exponents_over(self.ambient_n))

    def _no_support_past(self) -> list[int]:
        """past[k], k = 0..n: the generators with no support past x_k."""
        past = [(1 << len(self.generators)) - 1] * (self.ambient_n + 1)
        for k in range(self.ambient_n - 1, -1, -1):
            past[k] = past[k + 1] & self._divisor_index[0][k][0]
        return past

    def spread_member_indices(self, t, degree: int) -> list[tuple[int, ...]]:
        """The index tuples of U_degree, the members of the ideal among the
        t-spread monomials of that degree, ascending (the order of
        `spread_monomials`).

        The walk over index tuples carries the bitset of the generators that
        can still divide: moving past variable k with exponent e ANDs
        le[k][e], and skipping it ANDs le[k][0].  The bitset only shrinks as
        the next index grows, so each loop stops at the first empty one and
        no subtree without members is entered.
        """
        t = SpreadVector.coerce(t)
        if degree < 0:
            raise ValueError("degree must be non-negative")
        if degree > t.d:
            raise ValueError(f"degree {degree} exceeds the spread bound d={t.d}")
        n, gaps, le = self.ambient_n, t.entries, self._divisor_index[0]
        everyone = (1 << len(self.generators)) - 1
        past = self._no_support_past()
        members: list[tuple[int, ...]] = []

        def below(k: int, e: int) -> int:  # le[k][e], k 1-based
            le_k = le[k - 1]
            return le_k[e] if e < len(le_k) else everyone

        def place(prefix: tuple[int, ...], e: int, bits: int) -> None:
            # bits: the generators below prefix on x_1..x_{last - 1}, where
            # the last index occurs e times at the end of prefix
            last = prefix[-1]
            if len(prefix) == degree:
                if bits & below(last, e) & past[last]:
                    members.append(prefix)
                return
            j = last + gaps[len(prefix) - 1]
            if j == last:
                place(prefix + (j,), e + 1, bits)
                j += 1
            bits &= below(last, e)
            for k in range(last + 1, min(j, n + 1)):
                bits &= le[k - 1][0]
            extend(prefix, j, bits)

        def extend(prefix: tuple[int, ...], j: int, bits: int) -> None:
            # bits: the generators below prefix on x_1..x_{j - 1}
            while bits and j <= n:
                place(prefix + (j,), 1, bits)
                bits &= le[j - 1][0]
                j += 1

        if degree == 0:
            return [()] if past[0] else []
        extend((), 1, everyone)
        return members

    def degreewise_members(self, t, degree: int) -> list[Monomial]:
        """U_degree = members of the ideal among t-spread monomials."""
        return [Monomial(u, self.ambient_n)
                for u in self.spread_member_indices(t, degree)]

    def contains_ideal(self, other: "MonomialIdeal") -> bool:
        return all(map(self.contains, other.generators))

    def with_ambient(self, n: int) -> "MonomialIdeal":
        """The same generators, read in K[x_1..x_n]."""
        needed = max((g.max_index for g in self.generators if not g.is_unit),
                     default=1)
        if n < needed:
            raise ValueError(f"ambient {n} too small for generators up to x{needed}")
        return MonomialIdeal((Monomial(g.indices, n) for g in self.generators), n)

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, MonomialIdeal):
            return NotImplemented
        return self.generator_set == other.generator_set

    def __hash__(self) -> int:
        return hash(self.generator_set)

    def __repr__(self) -> str:
        gens = ", ".join(str(g) for g in self.generators)
        return f"MonomialIdeal(({gens}), n={self.ambient_n})"


# _BINARY_DIGITS[c] translates the byte c to the digit 1, any other byte to 0
_BINARY_DIGITS = [b"0" * c + b"1" + b"0" * (255 - c) for c in range(256)]


def divisor_index(points: Sequence[tuple[int, ...]],
                  n: int) -> tuple[list[list[int]], list[list[int]]]:
    """le[k][v] and eq[k][v], v = 0..max p_k, for exponent vectors of
    length n: the bitsets of the points with p_k <= v and with p_k = v,
    bit j standing for points[j].

    Column k is read as one byte per point, the last point first, and its
    bytes translated to the digit 1 at a value v and 0 elsewhere are the
    bitset of v in binary, so the build is linear in the points.  An OR per
    point copies the growing int each time; it is kept for fewer than 32
    points, near where the two routes time alike (24 to 40 points for 2 to
    8 distinct values), and for exponents past 255, which no byte holds.
    """
    le, eq = [], []
    for column in zip(*points) if points else [()] * n:
        eq_k = [0] * (max(column, default=0) + 1)
        if len(column) < 32 or len(eq_k) > 256:
            for j, v in enumerate(column):
                eq_k[v] |= 1 << j
        else:
            digits = bytes(reversed(column))
            for v in set(column):
                eq_k[v] = int(digits.translate(_BINARY_DIGITS[v]), 2)
        le_k, below = [], 0
        for bits in eq_k:
            below |= bits
            le_k.append(below)
        le.append(le_k)
        eq.append(eq_k)
    return le, eq


def bits_below(le: list[list[int]], exps: tuple[int, ...], bits: int) -> int:
    """The points of bitset `bits` below exps componentwise, read off the le
    part of a `divisor_index`: the AND of le[k][exps_k] over k, a value past
    max p_k keeping every point."""
    for le_k, v in zip(le, exps):
        if v < len(le_k):
            bits &= le_k[v]
    return bits


def minimal_exponents(points: Iterable[tuple[int, ...]]
                      ) -> list[tuple[int, ...]]:
    """The divisibility-minimal vectors among exponent vectors of one
    length, each once, by ascending degree and then ascending tuple.

    A vector dividing another one comes before it in that order, so each
    vector is tested, with one `bits_below` on a `divisor_index` of the
    whole pool, against the bitset of the minimal ones kept before it.
    """
    pool = sorted(set(points), key=lambda e: (sum(e), e))
    le = divisor_index(pool, len(pool[0]))[0] if pool else []
    kept = 0
    for j, e in enumerate(pool):
        if not bits_below(le, e, kept):
            kept |= 1 << j
    return [e for j, e in enumerate(pool) if kept >> j & 1]


def minimalize(monomials: Iterable[Monomial]) -> list[Monomial]:
    """Divisibility-minimal elements, in descending plex order.

    Divisibility is decided by `minimal_exponents` on exponent vectors over
    the largest ambient in the pool, so monomials of different ambients
    compare correctly; among equal monomials the first one given is kept.
    """
    pool = list(monomials)
    n = max((m.ambient_n for m in pool), default=1)
    first: dict[tuple[int, ...], Monomial] = {}
    for m in pool:
        first.setdefault(m.exponents_over(n), m)
    return [first[e] for e in sorted(minimal_exponents(first), reverse=True)]


# -- spread ideal classes ---------------------------------------------------


@dataclass(frozen=True)
class ExchangeViolation:
    """A move x_j * (u / x_i) that leaves the ideal (or the degree set)."""

    monomial: Monomial
    removed: int
    inserted: int

    def moved(self) -> Monomial:
        return self.monomial.over_var(self.removed).times_var(self.inserted)

    def __str__(self) -> str:
        w = self.moved()
        return (f"x{self.inserted}*({format_monomial(self.monomial)}/"
                f"x{self.removed}) = {format_monomial(w)} not in ideal")


@dataclass(frozen=True)
class SegmentViolation:
    """A lex-larger t-spread monomial missing from a degree slice."""

    member: Monomial
    missing: Monomial

    def __str__(self) -> str:
        return (f"{format_monomial(self.missing)} >lex "
                f"{format_monomial(self.member)} but is not in the ideal")


def _check_spread_generators(ideal: MonomialIdeal, t: SpreadVector) -> None:
    for g in ideal.generators:
        if not is_spread(g, t):
            raise ValueError(f"generator {g} is not {t}-spread")


def stable_violation(ideal: MonomialIdeal, t) -> Optional[ExchangeViolation]:
    """Degreewise: exchanges at the last index must stay inside each U_l.

    U_l comes from `spread_member_indices`, and each exchange is an index
    tuple looked up in the set of them.
    """
    t = SpreadVector.coerce(t)
    _check_spread_generators(ideal, t)
    for degree in range(1, t.d + 1):
        members = ideal.spread_member_indices(t, degree)
        member_set = set(members)
        for u in members:
            i, base = u[-1], u[:-1]
            for j in range(1, i):
                p = bisect_right(base, j)
                w = base[:p] + (j,) + base[p:]
                if w not in member_set and gaps_meet(w, t.entries):
                    return ExchangeViolation(Monomial(u, ideal.ambient_n), i, j)
    return None


def strongly_stable_violation(ideal: MonomialIdeal, t) -> Optional[ExchangeViolation]:
    """Generator criterion: every spread exchange on a generator stays in I.

    Each exchange is an index tuple, tested for its gaps, and then for
    membership by `bits_below` on its exponent vector.
    """
    t = SpreadVector.coerce(t)
    _check_spread_generators(ideal, t)
    le = ideal._divisor_index[0]
    everyone = (1 << len(ideal.generators)) - 1
    for u in ideal.generators:
        exps = list(u.exponents)
        for i in u.support:
            p = u.indices.index(i)
            base = u.indices[:p] + u.indices[p + 1:]
            exps[i - 1] -= 1
            for j in range(1, i):
                q = bisect_right(base, j)
                if not gaps_meet(base[:q] + (j,) + base[q:], t.entries):
                    continue
                exps[j - 1] += 1
                hit = bits_below(le, exps, everyone)
                exps[j - 1] -= 1
                if not hit:
                    return ExchangeViolation(u, i, j)
            exps[i - 1] += 1
    return None


def lex_violation(ideal: MonomialIdeal, t) -> Optional[SegmentViolation]:
    """Each U_l must be an upper interval of the lex order on M_{n,l,t}: a
    prefix of the ascending (descending lex) t-spread index tuples T.  The
    witness is (member T[j+1], missing T[j]) for the largest j with T[j]
    outside U_l and T[j+1] in it, the first gap met reading upwards in lex."""
    t = SpreadVector.coerce(t)
    _check_spread_generators(ideal, t)
    n = ideal.ambient_n
    for degree in range(1, t.d + 1):
        member_set = set(ideal.spread_member_indices(t, degree))
        slice_ = list(spread_index_tuples(n, degree, t))
        for j in range(len(slice_) - 2, -1, -1):
            if slice_[j + 1] in member_set and slice_[j] not in member_set:
                return SegmentViolation(Monomial(slice_[j + 1], n),
                                        Monomial(slice_[j], n))
    return None


def is_stable(ideal: MonomialIdeal, t) -> bool:
    return stable_violation(ideal, t) is None


def is_strongly_stable(ideal: MonomialIdeal, t) -> bool:
    return strongly_stable_violation(ideal, t) is None


def is_lex_segment(ideal: MonomialIdeal, t) -> bool:
    return lex_violation(ideal, t) is None


def require_strongly_stable(ideal: MonomialIdeal, t) -> None:
    violation = strongly_stable_violation(ideal, t)
    if violation is not None:
        raise ValueError(f"ideal is not strongly stable: {violation}")


def strongly_stable_closure(monomials: Iterable[Monomial], t,
                            ambient_n: Optional[int] = None) -> MonomialIdeal:
    """Smallest t-spread strongly stable ideal containing the given monomials.

    Exchange moves preserve degree, so the closure is a fixpoint computation
    inside the finitely many t-spread monomials of the input degrees.
    """
    t = SpreadVector.coerce(t)
    seeds = list(monomials)
    for m in seeds:
        if not is_spread(m, t):
            raise ValueError(f"{m} is not {t}-spread")
    if ambient_n is None:
        ambient_n = max((m.ambient_n for m in seeds), default=1)
    closed: set[Monomial] = set()
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        if u in closed:
            continue
        closed.add(u)
        for i in u.support:
            base = u.over_var(i)
            for j in range(1, i):
                w = base.times_var(j)
                if is_spread(w, t) and w not in closed:
                    frontier.append(w)
    return MonomialIdeal.from_generators(closed, ambient_n)


# -- standard factorization -------------------------------------------------


def _first_divisor(ideal: MonomialIdeal, w: Monomial) -> Monomial:
    """The first generator in stored order dividing w: the plex-largest,
    the lowest set bit of `divisor_bits`."""
    bits = ideal.divisor_bits(w.exponents_over(ideal.ambient_n))
    if not bits:
        raise ValueError(f"{w} is not in the ideal")
    return ideal.generators[(bits & -bits).bit_length() - 1]


def standard_factorization(ideal: MonomialIdeal, t, w: Monomial) -> tuple[Monomial, Monomial]:
    """Split w in I as u*v with u a minimal generator and max(u) <= min(v).

    u is the plex-largest generator dividing w.  When some generator is a
    leading segment of w's indices, no other divisor beats it in plex (one
    that ties it below max(u) and is not smaller at max(u) is a multiple of
    it), so for strongly stable ideals u is that segment and the splitting
    is the unique one.
    """
    t = SpreadVector.coerce(t)
    if not is_spread(w, t):
        raise ValueError(f"{w} is not {t}-spread")
    g = _first_divisor(ideal, w)
    require_strongly_stable(ideal, t)
    u = Monomial(w.indices[:g.degree], w.ambient_n)
    if u != g:
        raise AssertionError(f"leading factor {u} of {w} is not a generator")
    return u, Monomial(w.indices[g.degree:], w.ambient_n)


def admissible_shape(t) -> bool:
    """True for spread vectors of the form (1,...,1,0,...,0)."""
    entries = SpreadVector.coerce(t).entries
    if any(e not in (0, 1) for e in entries):
        return False
    return all(a >= b for a, b in zip(entries, entries[1:]))


def decomposition_function(ideal: MonomialIdeal, t, w: Monomial) -> Monomial:
    """The plex-largest minimal generator dividing w.

    Defined for spread vectors shaped (1,...,1,0,...,0), where it realizes
    the standard splitting used by the resolution differential.
    """
    t = SpreadVector.coerce(t)
    if not admissible_shape(t):
        raise ValueError(f"spread vector {t} is not of the form (1,..,1,0,..,0)")
    return _first_divisor(ideal, w)


# -- Hilbert function -------------------------------------------------------


def hilbert_function(ideal: MonomialIdeal, max_degree: int) -> list[int]:
    """dim_K (S/I)_q for q = 0..max_degree, by direct monomial counting.

    A DFS over exponent vectors carries the bitset of the generators that
    can still divide, ANDed with le[k][e] as x_k takes exponent e.  A branch
    stops at the first e where a live generator has no support past x_k: it
    divides every completion, for that e and each larger one.  An empty
    bitset adds the monomials in the variables left, a precomputed row of
    binomials.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    n, le = ideal.ambient_n, ideal._divisor_index[0]
    done = ideal._no_support_past()
    counts = [0] * (max_degree + 1)
    # free[r][q]: the degree-q monomials in the last r variables
    free = [[comb(q + r - 1, q) if r else int(q == 0)
             for q in range(max_degree + 1)] for r in range(n + 1)]

    def walk(k: int, alive: int, degree: int) -> None:
        if not alive:
            counts[degree:] = map(add, counts[degree:], free[n - k])
            return
        le_k = le[k]
        for e in range(max_degree - degree + 1):
            live = alive & le_k[e] if e < len(le_k) else alive
            if live & done[k + 1]:
                break
            walk(k + 1, live, degree + e)

    walk(0, (1 << len(ideal.generators)) - 1, 0)
    return counts


# -- serialization ----------------------------------------------------------


def ideal_to_dict(ideal: MonomialIdeal, t=None) -> dict:
    """The record {"n", "t", "generators"}; "t" is [] when t is None."""
    return {
        "n": ideal.ambient_n,
        "t": [] if t is None else list(SpreadVector.coerce(t).entries),
        "generators": [format_monomial(g) for g in ideal.generators],
    }


def ideal_from_dict(payload: dict) -> tuple[MonomialIdeal, Optional[SpreadVector]]:
    try:
        n = payload["n"]
        raw_t = payload["t"]
        raw_gens = payload["generators"]
    except (KeyError, TypeError) as exc:
        raise ValueError(f"ideal record must have n, t, generators: {exc}") from None
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise ValueError(f"invalid ambient size {n!r}")
    if not isinstance(raw_t, list):
        raise ValueError(f"t must be a list of integers, got {raw_t!r}")
    if not (isinstance(raw_gens, list)
            and all(isinstance(g, str) for g in raw_gens)):
        raise ValueError(f"generators must be a list of strings, got {raw_gens!r}")
    t = SpreadVector(tuple(raw_t)) if raw_t else None
    gens = [parse_monomial(s, n) for s in raw_gens]
    return MonomialIdeal.from_generators(gens, n), t
