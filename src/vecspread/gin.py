"""Generic initial ideals (degrevlex, characteristic zero) and spread shifting.

Genericity is sampled, not certified: the ideal is pushed through a random
integer coordinate change g and the leading terms of g(I) are read off.  Two
independent runs must agree, and the result must be strongly stable in the
classical (0-spread) sense; otherwise the coefficient bound doubles and the
whole procedure retries before giving up.

Every input is a monomial ideal I, so (gI)_d is spanned by the images g(m)
of the monomials m of I_d, and in(gI)_d is the set of leading monomials of
an echelon form of that Macaulay matrix (Lazard 1983): no S-pairs and no
reduction.  The echelon is taken modulo the prime `linalg.PRIME`, so its
entries never grow.  It reads in(g_p I) for the reduction g_p of g, which
never lies above in(gI), hence never above gin; the agreement of two
changes and the stability check stand behind it.  The
degree loop stops on an exact certificate, the Hilbert-function test argued
in `initial_ideal`.

Shifting composes this with a spread operator: the t-shift of I is the image
of Gin(I) under the map that re-spaces 0-spread monomials into t-spread ones.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

from .ideals import MonomialIdeal, hilbert_function, is_strongly_stable
from .linalg import PRIME, multidegrees, pivot_columns_mod_p, rank_mod_p
from .monomials import Monomial, SpreadVector, exponents_degrevlex_key
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
    bound: int

    def __post_init__(self):
        n = len(self.matrix)
        if any(len(row) != n for row in self.matrix):
            raise ValueError("coordinate change must be square")
        if rank_mod_p(self.matrix) != n:
            raise ValueError(f"coordinate change must be invertible mod {PRIME}")

    @property
    def n(self) -> int:
        return len(self.matrix)

    def monomial_image(self, u: Monomial) -> dict[Exps, int]:
        """Expand the product of linear forms replacing each variable of u."""
        out: dict[Exps, int] = {(0,) * self.n: 1}
        for j in u.indices:
            row = self.matrix[j - 1]
            product: dict[Exps, int] = {}
            for e, c in out.items():
                for k, a in enumerate(row):
                    if a:
                        key = e[:k] + (e[k] + 1,) + e[k + 1:]
                        product[key] = product.get(key, 0) + c * a
            out = {e: c for e, c in product.items() if c}
        return out


def _lcm_degree(ideal: MonomialIdeal) -> int:
    return sum(map(max, zip(*(g.exponents for g in ideal.generators))))


def initial_ideal(ideal: MonomialIdeal, change: CoordinateChange) -> MonomialIdeal:
    """Degrevlex initial ideal in(g_p I) of a monomial ideal I under the
    reduction g_p of a change g mod p, p = `linalg.PRIME`.

    For each degree d, the rows g(m) for the monomials m of I_d span (gI)_d;
    with the columns in descending degrevlex order, the pivot columns of the
    matrix mod p are exactly the leading monomials in(g_p I)_d over F_p.  Those
    not yet in the ideal J of the leading monomials found so far are new
    generators of J.  A maximal minor that is non-zero mod p is non-zero over
    Z, so in(g_p I)_d <= in(gI)_d <= gin_d in the degree-d Plucker order: the
    modular echelon never overshoots gin, and it meets in(gI) unless p
    divides the Plucker coordinate of in(gI)_d.

    Once d reaches the top degree of I, the loop stops when S/J and S/I have
    the same Hilbert function up to L = max(deg lcm(gens I), deg lcm(gens J)).
    This certifies J = in(g_p I) over F_p:
    - J is contained in in(g_p I), and since g_p is an automorphism over F_p,
      in(g_p I) has the Hilbert series of I;
    - by the Taylor resolution, both Hilbert-series numerators have degree
      at most L, and values through L fix such a numerator;
    - so the two series are equal, and a contained ideal with the same
      Hilbert series is the whole ideal.
    """
    n = ideal.ambient_n
    if change.n != n:
        raise ValueError(f"coordinate change on {change.n} variables applied "
                         f"to an ideal in {n}")
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
                for image, c in change.monomial_image(Monomial.from_exponents(e)).items():
                    row[position[image]] = c
                rows.append(row)
        new = [Monomial.from_exponents(columns[j]) for j in pivot_columns_mod_p(rows)
               if not found.contains_exponents(columns[j])]
        if new:
            found = MonomialIdeal(found.generators + tuple(new), n)
        if d >= top:
            last = max(_lcm_degree(ideal), _lcm_degree(found))
            if hilbert_function(found, last) == hilbert_function(ideal, last):
                return found
        d += 1


def random_coordinate_change(n: int, rng: random.Random, bound: int) -> CoordinateChange:
    if bound < 1:
        raise ValueError("coefficient bound must be at least 1")
    while True:
        matrix = tuple(tuple(rng.randint(-bound, bound) for _ in range(n))
                       for _ in range(n))
        try:
            return CoordinateChange(matrix, bound)
        except ValueError:
            continue  # singular draw: draw again


def _classic_spread(ideal: MonomialIdeal) -> SpreadVector:
    top = max((g.degree for g in ideal.generators), default=1)
    return SpreadVector((0,) * max(1, top - 1))


def _gin_once(ideal: MonomialIdeal, rng: random.Random, bound: int) -> MonomialIdeal:
    change = random_coordinate_change(ideal.ambient_n, rng, bound)
    return initial_ideal(ideal, change)


def gin(ideal: MonomialIdeal, *, seed: Optional[int] = None, bound: int = 100,
        max_retries: int = 3) -> MonomialIdeal:
    """Generic initial ideal under degrevlex.

    Two independent random coordinate changes must yield identical initial
    ideals, and the agreed result must be classically strongly stable; on
    any mismatch the coefficient bound doubles and the computation retries.
    """
    if ideal.is_zero or ideal.is_unit:
        return ideal
    rng = random.Random(seed)
    b = bound
    for _ in range(max_retries + 1):
        first = _gin_once(ideal, rng, b)
        second = _gin_once(ideal, rng, b)
        if first == second and is_strongly_stable(first, _classic_spread(first)):
            return first
        b *= 2
    raise GenericityError(
        f"independent coordinate changes kept disagreeing up to bound {b // 2}; "
        f"genericity not certified")


# -- shifting -------------------------------------------------------------------


def shift(ideal: MonomialIdeal, t, *, seed: Optional[int] = None,
          bound: int = 100, max_retries: int = 3) -> MonomialIdeal:
    """The t-spread shift: the image of Gin(I) under the 0-to-t spread map."""
    t = SpreadVector.coerce(t)
    g = gin(ideal, seed=seed, bound=bound, max_retries=max_retries)
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
                            seed: Optional[int] = None, bound: int = 100) -> ShiftReport:
    """Check the four shifting properties on one ideal (and optionally a pair).

    The shift must be t-spread strongly stable; it must fix t-spread strongly
    stable inputs; it must preserve the Hilbert function (compared in a common
    ambient); and it must preserve containment when a larger ideal is supplied.
    """
    t = SpreadVector.coerce(t)
    rng = random.Random(seed)
    results: dict[str, Optional[bool]] = {}
    witnesses: list[str] = []

    shifted = shift(ideal, t, seed=rng.randrange(2 ** 62), bound=bound)

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
        shifted_other = shift(other, t, seed=rng.randrange(2 ** 62), bound=bound)
        results["containment"] = shifted_other.contains_ideal(shifted)
        if not results["containment"]:
            witnesses.append(
                f"containment lost: {shifted} is not inside {shifted_other}")

    return ShiftReport(shifted, results, witnesses)
