"""Monomials as weakly increasing index sequences, with spread combinatorics.

A monomial x_{j_1} x_{j_2} ... x_{j_l} (j_1 <= ... <= j_l) is stored as its
index tuple together with the ambient number of variables n.  The unit
monomial has the empty tuple; by convention its min and max index are both n.

A spread vector t = (t_1, ..., t_{d-1}) of non-negative integers bounds the
degrees under consideration by d and prescribes minimal gaps between
consecutive indices: u is t-spread when j_{i+1} - j_i >= t_i for every i.
"""

from __future__ import annotations

import re
import sys
from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, combinations, compress
from math import comb
from operator import add
from typing import Iterable, Iterator


def _check_ambient(n: int) -> None:
    if n < 1:
        raise ValueError(f"ambient size must be >= 1, got {n}")


class Monomial:
    """Immutable monomial of K[x_1..x_n].

    Equality and hashing use the index sequence only; the ambient size is
    contextual (spread maps routinely move monomials between ambients).
    `exponents` is the exponent vector over x_1..x_n, built once.
    """

    __slots__ = ("indices", "ambient_n", "_hash", "exponents")

    def __init__(self, indices: Iterable[int], ambient_n: int):
        idx = tuple(indices)
        _check_ambient(ambient_n)
        for a, b in zip(idx, idx[1:]):
            if a > b:
                raise ValueError(f"indices must be weakly increasing, got {idx}")
        if idx and (idx[0] < 1 or idx[-1] > ambient_n):
            raise ValueError(f"indices {idx} out of range for n={ambient_n}")
        object.__setattr__(self, "indices", idx)
        object.__setattr__(self, "ambient_n", ambient_n)
        object.__setattr__(self, "_hash", hash(idx))
        object.__setattr__(self, "exponents", self.exponents_over(ambient_n))

    def __setattr__(self, name, value):
        raise AttributeError("Monomial is immutable")

    def __reduce__(self):
        return Monomial, (self.indices, self.ambient_n)

    # -- structure ---------------------------------------------------------

    @property
    def degree(self) -> int:
        return len(self.indices)

    @property
    def is_unit(self) -> bool:
        return not self.indices

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(sorted(set(self.indices)))

    @property
    def max_index(self) -> int:
        # min(1) = max(1) = n by convention
        return self.indices[-1] if self.indices else self.ambient_n

    @property
    def min_index(self) -> int:
        return self.indices[0] if self.indices else self.ambient_n

    @classmethod
    def from_exponents(cls, exps: tuple[int, ...]) -> "Monomial":
        """The monomial x^exps of K[x_1..x_len(exps)]."""
        return cls([k + 1 for k, e in enumerate(exps) for _ in range(e)], len(exps))

    def exponents_over(self, n: int) -> tuple[int, ...]:
        """The exponent vector over x_1..x_n; variables past n are dropped."""
        exps = [0] * n
        for j in self.indices:
            if j <= n:
                exps[j - 1] += 1
        return tuple(exps)

    def exponent_of(self, k: int) -> int:
        return self.indices.count(k)

    # -- arithmetic --------------------------------------------------------

    def mul(self, other: "Monomial") -> "Monomial":
        if self.ambient_n != other.ambient_n:
            raise ValueError("cannot multiply monomials with different ambients")
        merged = sorted(self.indices + other.indices)
        return Monomial(merged, self.ambient_n)

    __mul__ = mul

    def times_var(self, k: int) -> "Monomial":
        return Monomial(sorted(self.indices + (k,)), self.ambient_n)

    def over_var(self, k: int) -> "Monomial":
        """Divide by x_k (one copy); k must occur."""
        idx = list(self.indices)
        try:
            idx.remove(k)
        except ValueError:
            raise ValueError(f"x{k} does not divide {self}") from None
        return Monomial(idx, self.ambient_n)

    def divides(self, other: "Monomial") -> bool:
        if self.degree > other.degree:
            return False
        # two-pointer walk over both sorted index tuples
        i = 0
        for j in other.indices:
            if i < len(self.indices) and self.indices[i] == j:
                i += 1
            elif i < len(self.indices) and self.indices[i] < j:
                return False
        return i == len(self.indices)

    def divide(self, other: "Monomial") -> "Monomial":
        """Exact quotient self / other."""
        if self.ambient_n != other.ambient_n:
            raise ValueError("cannot divide monomials with different ambients")
        idx = list(self.indices)
        for k in other.indices:
            try:
                idx.remove(k)
            except ValueError:
                raise ValueError(f"{other} does not divide {self}") from None
        return Monomial(idx, self.ambient_n)

    __truediv__ = divide

    # -- identity ----------------------------------------------------------

    def __eq__(self, other) -> bool:
        if not isinstance(other, Monomial):
            return NotImplemented
        return self.indices == other.indices

    def __hash__(self) -> int:
        return self._hash

    def __str__(self) -> str:
        return format_monomial(self)

    def __repr__(self) -> str:
        return f"Monomial({self.indices}, n={self.ambient_n})"


def monomial(indices: Iterable[int], n: int) -> Monomial:
    """Build a monomial from indices in any order."""
    return Monomial(sorted(indices), n)


def unit(n: int) -> Monomial:
    return Monomial((), n)


def variable(k: int, n: int) -> Monomial:
    return Monomial((k,), n)


# -- textual form ----------------------------------------------------------

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")


def format_exponents(exps: tuple[int, ...]) -> str:
    """Render x^exps as x<k> / x<k>^<e> factors joined by '*'; the unit is '1'."""
    parts = []
    for k in compress(range(1, len(exps) + 1), exps):  # the support, in C
        e = exps[k - 1]
        parts.append(f"x{k}" if e == 1 else f"x{k}^{e}")
    return "*".join(parts) or "1"


def format_monomial(m: Monomial) -> str:
    return format_exponents(m.exponents)


def parse_monomial(text: str, n: int) -> Monomial:
    """Parse the x<k>[^<e>] grammar; '1' denotes the unit monomial."""
    s = text.strip()
    if s == "1":
        return unit(n)
    indices: list[int] = []
    for factor in s.split("*"):
        factor = factor.strip()
        match = _FACTOR_RE.match(factor)
        if match is None:
            raise ValueError(f"cannot parse monomial factor {factor!r} in {text!r}")
        k = int(match.group(1))
        e = int(match.group(2)) if match.group(2) else 1
        if k < 1:
            raise ValueError(f"variable index must be >= 1 in {factor!r}")
        if e < 1:
            raise ValueError(f"exponent must be >= 1 in {factor!r}")
        if e > sys.maxsize:
            raise ValueError(f"exponent exceeds {sys.maxsize} in {factor!r}")
        if k > n:
            raise ValueError(f"variable x{k} exceeds ambient n={n}")
        indices.extend([k] * e)
    return Monomial(sorted(indices), n)


# -- monomial orders -------------------------------------------------------
#
# lex and plex both compare exponent vectors left to right (largest exponent
# at the first difference wins); they agree everywhere and in particular on
# monomials of equal degree, which is where lex segments are read.  degrevlex
# compares total degree first, then breaks ties reverse-lexicographically.


def plex_key(m: Monomial):
    return m.exponents


lex_key = plex_key


def exponents_degrevlex_key(exps: tuple[int, ...]):
    """The degrevlex key of a raw exponent vector."""
    return (sum(exps), tuple(-e for e in reversed(exps)))


def degrevlex_key(m: Monomial):
    return exponents_degrevlex_key(m.exponents)


_ORDER_KEYS = {"lex": lex_key, "plex": plex_key, "degrevlex": degrevlex_key}


def compare(u: Monomial, v: Monomial, order: str = "lex") -> int:
    """Return 1, 0, -1 as u >, =, < v in the named order."""
    if u.ambient_n != v.ambient_n:
        raise ValueError(
            f"cannot compare monomials with ambients {u.ambient_n} and {v.ambient_n}"
        )
    try:
        key = _ORDER_KEYS[order]
    except KeyError:
        raise ValueError(f"unknown monomial order {order!r}") from None
    a, b = key(u), key(v)
    return (a > b) - (a < b)


# -- spread vectors --------------------------------------------------------


@dataclass(frozen=True)
class SpreadVector:
    """Gap thresholds t = (t_1, ..., t_{d-1}); bounds usable degrees by d."""

    entries: tuple[int, ...]

    def __post_init__(self):
        entries = tuple(self.entries)
        object.__setattr__(self, "entries", entries)
        if len(entries) < 1:
            raise ValueError("spread vector needs at least one entry (d >= 2)")
        if any(not isinstance(e, int) or isinstance(e, bool) for e in entries):
            raise ValueError(f"spread entries must be integers, got {entries}")
        if any(e < 0 for e in entries):
            raise ValueError(f"spread entries must be non-negative, got {entries}")

    @property
    def d(self) -> int:
        return len(self.entries) + 1

    @classmethod
    def coerce(cls, t) -> "SpreadVector":
        if isinstance(t, SpreadVector):
            return t
        return cls(tuple(t))

    @classmethod
    def zero(cls, d: int) -> "SpreadVector":
        return cls((0,) * (d - 1))

    @classmethod
    def uniform(cls, value: int, d: int) -> "SpreadVector":
        return cls((value,) * (d - 1))

    def prefix_sum(self, k: int) -> int:
        """Sum of the first k entries."""
        if k < 0:
            raise ValueError("prefix length must be non-negative")
        return sum(self.entries[:k])

    def __len__(self) -> int:
        return len(self.entries)

    def __iter__(self):
        return iter(self.entries)

    def __getitem__(self, i):
        return self.entries[i]

    def __str__(self) -> str:
        return "(" + ",".join(str(e) for e in self.entries) + ")"


def spread(*entries: int) -> SpreadVector:
    return SpreadVector(tuple(entries))


# -- spread predicates -----------------------------------------------------


def is_spread(m: Monomial, t) -> bool:
    """True when deg(m) <= d and consecutive index gaps meet the thresholds.

    The unit and all variables are spread for every t.  Monomials of degree
    above d are simply not t-spread (no error).
    """
    t = SpreadVector.coerce(t)
    if m.degree > t.d:
        return False
    return gaps_meet(m.indices, t.entries)


def gaps_meet(indices: tuple[int, ...], entries: tuple[int, ...]) -> bool:
    """True when j_{i+1} - j_i >= t_i for consecutive indices; the degree is
    not checked against d."""
    return all(b - a >= s for a, b, s in zip(indices, indices[1:], entries))


def spread_support(m: Monomial, t) -> frozenset[int]:
    """Union of the intervals [j_i, j_i + t_i - 1] over i < deg(m).

    Entries t_i = 0 contribute empty intervals; the last index contributes
    nothing.  Requires m to be t-spread.
    """
    t = SpreadVector.coerce(t)
    if not is_spread(m, t):
        raise ValueError(f"{m} is not {t}-spread")
    covered: set[int] = set()
    idx = m.indices
    for i in range(len(idx) - 1):
        covered.update(range(idx[i], idx[i] + t.entries[i]))
    return frozenset(covered)


def next_support_index(m: Monomial, k: int) -> int:
    """Smallest support index of m strictly above k; needs k < max(m)."""
    if m.is_unit:
        raise ValueError("the unit monomial has no support")
    if k >= m.max_index:
        raise ValueError(f"no support index of {m} exceeds {k}")
    return m.indices[bisect_right(m.indices, k)]


def free_indices(m: Monomial, t) -> tuple[int, ...]:
    """Sorted elements of [max(m)-1] not covered by the t-spread support."""
    covered = spread_support(m, t)
    return tuple(k for k in range(1, m.max_index) if k not in covered)


# -- enumeration -----------------------------------------------------------


def count_spread_monomials(n: int, degree: int, t) -> int:
    """Number of t-spread monomials of the given degree in n variables."""
    _check_ambient(n)
    t = SpreadVector.coerce(t)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > t.d:
        raise ValueError(f"degree {degree} exceeds the spread bound d={t.d}")
    if degree == 0:
        return 1
    top = n + (degree - 1) - t.prefix_sum(degree - 1)
    if top < degree:
        return 0
    return comb(top, degree)


def spread_index_tuples(n: int, degree: int, t) -> Iterator[tuple[int, ...]]:
    """The index tuples of the t-spread monomials of the given degree,
    ascending (descending lex): j_i - (t_1 + ... + t_{i-1}) + (i - 1) maps
    them in order onto the `combinations` of [1, top], top as in
    `count_spread_monomials`."""
    _check_ambient(n)
    t = SpreadVector.coerce(t)
    if degree < 0:
        raise ValueError("degree must be non-negative")
    if degree > t.d:
        raise ValueError(f"degree {degree} exceeds the spread bound d={t.d}")
    shift = [s - i for i, s in enumerate(prefix_sums(t)[:degree])]
    top = n - shift[-1] if shift else n
    for c in combinations(range(1, top + 1), degree):
        yield tuple(map(add, c, shift))


def iter_spread_monomials(n: int, degree: int, t) -> Iterator[Monomial]:
    for u in spread_index_tuples(n, degree, t):
        yield Monomial(u, n)


def spread_monomials(n: int, degree: int, t) -> list[Monomial]:
    """All t-spread monomials of the given degree, in descending lex order.

    Ascending order of index tuples is descending lex order of monomials, so
    the recursion needs no sort.
    """
    return list(iter_spread_monomials(n, degree, t))


def prefix_sums(t: SpreadVector) -> tuple[int, ...]:
    """(0, t_1, t_1+t_2, ...) with d entries."""
    return (0,) + tuple(accumulate(t.entries))
