"""Generic initial ideals (degrevlex, characteristic zero) and spread shifting.

Genericity is sampled, not certified: the ideal is pushed through a random
integer coordinate change g and the leading terms of g(I) are read off.  Two
independent runs must agree, and the result must be strongly stable in the
classical (0-spread) sense; otherwise the coefficient bound doubles and the
whole procedure retries, at most MAX_RETRIES = 3 times, before giving up.

The change is drawn lower unitriangular, x_j -> x_j + sum_{k<j} a_jk x_k.
A matrix M acts by x_j -> sum_k M[j][k] x_k, so acting by A and then by B
is acting by AB.
- Let b send each x_j to b_jj x_j + sum_{k>j} b_jk x_k, b_jj != 0.  Under
  any order with x_1 > ... > x_n, b(x^a) is a non-zero multiple of x^a
  plus smaller terms, so in(bJ) = in(J) for every ideal J.
- A generic g factors as g = ub, u lower unitriangular and b as above
  (LU), and acting by g is acting by u and then by b: in(gI) = in(uI).
- So the u with in(uI) = gin(I) (Galligo; Bayer and Stillman 1987) hold
  the factor of every generic g: a non-empty open, hence dense, part of
  the unitriangular group (an affine space), which a random draw meets as
  a random g meets its own.

Every input is a monomial ideal I, so in(gI)_d is read off the pivot
columns of the Macaulay matrix of the images g(m), m in I_d (Lazard 1983;
no S-pairs), columns in descending degrevlex order.  The echelon is taken
modulo the prime `linalg.PRIME`: it reads in(g_p I), never above in(gI)
and so never above gin, and two agreeing changes stand behind it.  The
columns are only the monomials that some image reaches with a coefficient
non-zero mod p (see `CoordinateChange.image_rows`): a column no image
reaches is zero, never a pivot, and leaves the pivot status of every other
column as it is, so one echelon per degree reads the pivots of the full
width, for any change.  The degree loop stops on the exact certificate
argued in `initial_ideal`.

Shifting composes this with a spread operator: the t-shift of I is the image
of Gin(I) under the map that re-spaces 0-spread monomials into t-spread ones.
"""

from __future__ import annotations

import random
from array import array
from dataclasses import dataclass
from itertools import combinations_with_replacement
from typing import Optional, Sequence

from .ideals import MonomialIdeal, hilbert_function, is_strongly_stable
from .linalg import PRIME, pack_mod_p, pivot_columns_mod_p, rank_mod_p
from .monomials import Monomial, SpreadVector
from .spreadmaps import SpreadMap, apply_spread_map_ideal

Exps = tuple[int, ...]


class GenericityError(RuntimeError):
    """Raised when repeated random coordinate changes never agree."""


# -- generic coordinates -------------------------------------------------------


@dataclass(frozen=True)
class CoordinateChange:
    """An invertible integer matrix acting on variables by x_j -> sum_k A[j][k] x_k.

    It must be invertible mod p (p = `linalg.PRIME`), which implies that it is
    invertible over Q and makes its reduction an automorphism over F_p.
    """

    matrix: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("coordinate change must be square")
        if rank_mod_p(map(pack_mod_p, self.matrix)) != n:
            raise ValueError(f"coordinate change must be invertible mod {PRIME}")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def image_rows(self, monomials: Sequence[Exps]) -> tuple[list[Exps], list[int]]:
        """The Macaulay matrix mod p of the images g(m) of monomials m of one
        degree d: its columns, the monomials that occur in some image with a
        coefficient non-zero mod p, in descending degrevlex order, and the
        images, each packed by `linalg.pack_mod_p` over those columns.

        Monomials are packed exponent words, x_1 in the lowest field and
        every field wide enough for d, so for one degree the word order is
        the ascending order of the columns.  g(m) is g(m / x_j) times the
        form of x_j, x_j the last variable of m, and the monomials are taken
        in ascending order of their sorted variable lists, so the partial
        products shared by consecutive monomials are built once.  Each
        finished image is held as its words and coefficients until the
        columns are known.
        """
        p = PRIME
        n = self.n
        d = sum(monomials[0]) if monomials else 0
        bits = d.bit_length()
        units = [1 << (bits * k) for k in range(n)]
        forms = [[(units[k], a % p) for k, a in enumerate(row) if a % p]
                 for row in self.matrix]
        images: list = [None] * len(monomials)
        # path[t]: the image of the first t factors of the previous m, and
        # path[d] the previous image
        path: list[dict[int, int]] = [{0: 1}]
        previous: list[int] = []
        for factors, r in sorted(
                ([k for k, c in enumerate(m) for _ in range(c)], r)
                for r, m in enumerate(monomials)):
            shared = 0
            while shared < len(path) - 1 and factors[shared] == previous[shared]:
                shared += 1
            del path[shared + 1:]
            for t in range(shared, d):
                product: dict[int, int] = {}
                for u, c in path[t].items():
                    for unit, a in forms[factors[t]]:
                        product[u + unit] = product.get(u + unit, 0) + c * a
                path.append({v: c % p for v, c in product.items() if c % p})
            previous = factors
            image = path[d]
            images[r] = (tuple(image), array("Q", image.values()))
        words = sorted(set().union(*(terms for terms, _ in images)))
        position = {v: j for j, v in enumerate(words)}
        rows = []
        for terms, coefficients in images:
            values = [0] * len(words)
            for v, c in zip(terms, coefficients):
                values[position[v]] = c
            rows.append(pack_mod_p(values))
        mask = (1 << bits) - 1
        return [tuple(v >> (bits * k) & mask for k in range(n))
                for v in words], rows


def _lcm_degree(ideal: MonomialIdeal) -> int:
    return sum(map(max, zip(*(g.exponents for g in ideal.generators))))


def _degree_part(ideal: MonomialIdeal, d: int) -> list[Exps]:
    """The exponent vectors of the monomials of I_d, ascending."""
    part: set[Exps] = set()
    for g in ideal.generators:
        if g.degree <= d:
            for factors in combinations_with_replacement(
                    range(ideal.ambient_n), d - g.degree):
                e = list(g.exponents)
                for k in factors:
                    e[k] += 1
                part.add(tuple(e))
    return sorted(part)


class _SharedWork:
    """What the changes of one `gin` call share: the Hilbert functions of
    S/I and of S/J for each J tested, each counted once and recounted only
    when a larger degree is asked for, and per degree the monomials of I_d."""

    def __init__(self):
        self.counts: dict[MonomialIdeal, list[int]] = {}
        self.parts: dict[int, list[Exps]] = {}

    def hilbert_function(self, ideal: MonomialIdeal, last: int) -> list[int]:
        counts = self.counts.get(ideal)
        if counts is None or len(counts) <= last:
            counts = self.counts[ideal] = hilbert_function(ideal, last)
        return counts[:last + 1]


def initial_ideal(ideal: MonomialIdeal, change: CoordinateChange, *,
                  _shared: Optional[_SharedWork] = None) -> MonomialIdeal:
    """Degrevlex initial ideal in(g_p I) of a monomial ideal I under the
    reduction g_p of a change g mod p, p = `linalg.PRIME`.

    For each degree d, the rows g(m) for the monomials m of I_d span (gI)_d;
    with the columns in descending degrevlex order, the pivot columns of the
    matrix mod p are exactly the leading monomials in(g_p I)_d over F_p.  Those
    not yet in the ideal J of the leading monomials found so far are new
    generators of J.  A maximal minor that is non-zero mod p is non-zero over
    Z, so in(g_p I)_d <= in(gI)_d <= gin_d in the degree-d Plucker order: the
    modular echelon never overshoots gin, and it meets in(gI) unless p
    divides the Plucker coordinate of in(gI)_d.  The matrix is built on the
    columns the images reach, which hold every pivot, and echeloned once.

    Once d reaches the top degree of I, the loop stops when S/J and S/I have
    the same Hilbert function up to L = max(deg lcm(gens I), deg lcm(gens J)).
    This certifies J = in(g_p I) over F_p:
    - J is contained in in(g_p I), and since g_p is an automorphism over F_p,
      in(g_p I) has the Hilbert series of I;
    - by the Taylor resolution, both Hilbert-series numerators have degree
      at most L, and values through L fix such a numerator;
    - so the two series are equal, and a contained ideal with the same
      Hilbert series is the whole ideal.
    The test only depends on J, so it is not repeated for a degree that adds
    no generator.  `gin` hands its changes one _SharedWork, so the Hilbert
    function of S/I, and of each J, is counted once per call, and each I_d
    is listed once.
    """
    shared = _shared or _SharedWork()
    n = ideal.ambient_n
    if change.n != n:
        raise ValueError(f"coordinate change on {change.n} variables applied "
                         f"to an ideal in {n}")
    if ideal.is_zero:
        return MonomialIdeal.zero(n)
    top = max(g.degree for g in ideal.generators)
    found = MonomialIdeal.zero(n)
    tested = None
    d = min(g.degree for g in ideal.generators)
    while True:
        rows = shared.parts.get(d)
        if rows is None:
            rows = shared.parts[d] = _degree_part(ideal, d)
        columns, images = change.image_rows(rows)
        pivots = pivot_columns_mod_p(images)
        new = [Monomial.from_exponents(columns[j]) for j in pivots
               if not found.contains_exponents(columns[j])]
        if new:
            found = MonomialIdeal(found.generators + tuple(new), n)
        if d >= top and found is not tested:
            tested = found
            last = max(_lcm_degree(ideal), _lcm_degree(found))
            if (shared.hilbert_function(found, last)
                    == shared.hilbert_function(ideal, last)):
                return found
        d += 1


def random_coordinate_change(n: int, rng: random.Random, bound: int) -> CoordinateChange:
    """A lower unitriangular change x_j -> x_j + sum_{k<j} a_jk x_k, each a_jk
    drawn from [-bound, bound]: never singular, and generic enough for gin
    (see the module docstring)."""
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    return CoordinateChange(tuple(
        tuple(rng.randint(-bound, bound) for _ in range(j)) + (1,) + (0,) * (n - 1 - j)
        for j in range(n)))


def _classic_spread(ideal: MonomialIdeal) -> SpreadVector:
    top = max((g.degree for g in ideal.generators), default=1)
    return SpreadVector((0,) * max(1, top - 1))


# the coefficient bound of gin's first coordinate changes, and the number
# of its doublings after the first try before gin gives up
FIRST_BOUND = 100
MAX_RETRIES = 3


def gin(ideal: MonomialIdeal, *, seed: Optional[int] = None) -> MonomialIdeal:
    """Generic initial ideal under degrevlex.

    Two independent random coordinate changes must yield identical initial
    ideals, and the agreed result must be classically strongly stable; on
    any mismatch the coefficient bound (FIRST_BOUND = 100 at first) doubles
    and the computation retries, MAX_RETRIES = 3 times, before raising
    GenericityError.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal
    rng = random.Random(seed)
    shared = _SharedWork()
    b = FIRST_BOUND
    for _ in range(MAX_RETRIES + 1):
        first, second = [
            initial_ideal(ideal, random_coordinate_change(ideal.ambient_n, rng, b),
                          _shared=shared)
            for _ in range(2)]
        if first == second and is_strongly_stable(first, _classic_spread(first)):
            return first
        b *= 2
    raise GenericityError(
        f"independent coordinate changes kept disagreeing up to bound {b // 2}; "
        f"genericity not certified")


# -- shifting -------------------------------------------------------------------


def shift(ideal: MonomialIdeal, t, *, seed: Optional[int] = None) -> MonomialIdeal:
    """The t-spread shift: the image of Gin(I) under the 0-to-t spread map."""
    t = SpreadVector.coerce(t)
    g = gin(ideal, seed=seed)
    if g.is_zero or g.is_unit:
        return g
    top = max(u.degree for u in g.generators)
    if top > t.d:
        raise ValueError(
            f"Gin(I) has a generator of degree {top}; a spread vector with at "
            f"least {top - 1} entries is needed, got {t}")
    return apply_spread_map_ideal(SpreadMap.from_zero(t), g)


@dataclass
class ShiftReport:
    shifted: MonomialIdeal
    results: dict[str, Optional[bool]]
    witnesses: list[str]

    @property
    def ok(self) -> bool:
        return all(v is not False for v in self.results.values())

    def __str__(self) -> str:
        body = ", ".join(
            f"{k}={'skipped' if v is None else ('pass' if v else 'FAIL')}"
            for k, v in self.results.items())
        out = f"shift check ({body})"
        if self.witnesses:
            out += "\n  " + "\n  ".join(self.witnesses)
        return out


def verify_shift_properties(ideal: MonomialIdeal, t, other: Optional[MonomialIdeal] = None,
                            *, max_degree: Optional[int] = None,
                            seed: Optional[int] = None) -> ShiftReport:
    """Check the four shifting properties on one ideal (and optionally a pair).

    The shift must be t-spread strongly stable; it must fix t-spread strongly
    stable inputs; it must preserve the Hilbert function (compared in a common
    ambient); and it must preserve containment when a larger ideal is supplied.
    """
    t = SpreadVector.coerce(t)
    rng = random.Random(seed)
    results: dict[str, Optional[bool]] = {}
    witnesses: list[str] = []

    shifted = shift(ideal, t, seed=rng.randrange(2 ** 62))

    try:
        results["strongly_stable"] = is_strongly_stable(shifted, t)
        if not results["strongly_stable"]:
            witnesses.append(f"shifted ideal {shifted} is not strongly stable")
    except ValueError as exc:
        results["strongly_stable"] = False
        witnesses.append(f"shifted ideal is not t-spread: {exc}")

    try:
        input_ss = is_strongly_stable(ideal, t)
    except ValueError:
        input_ss = False
    if input_ss:
        results["fixed_point"] = shifted == ideal
        if not results["fixed_point"]:
            witnesses.append(
                f"strongly stable input moved: {ideal} became {shifted}")
    else:
        results["fixed_point"] = None

    if max_degree is None:
        top = max((u.degree for u in shifted.generators), default=1)
        max_degree = top + 3
    n_common = max(ideal.ambient_n, shifted.ambient_n)
    hf_in = hilbert_function(ideal.with_ambient(n_common), max_degree)
    hf_out = hilbert_function(shifted.with_ambient(n_common), max_degree)
    results["hilbert_function"] = hf_in == hf_out
    if not results["hilbert_function"]:
        witnesses.append(
            f"Hilbert functions differ in ambient {n_common}: {hf_in} vs {hf_out}")

    if other is None:
        results["containment"] = None
    else:
        if not other.contains_ideal(ideal):
            raise ValueError("containment check needs the first ideal inside "
                             "the second")
        shifted_other = shift(other, t, seed=rng.randrange(2 ** 62))
        results["containment"] = shifted_other.contains_ideal(shifted)
        if not results["containment"]:
            witnesses.append(
                f"containment lost: {shifted} is not inside {shifted_other}")

    return ShiftReport(shifted, results, witnesses)
