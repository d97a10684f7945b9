"""Minimal free resolutions of S/I for spread vectors shaped (1,..,1,0,..,0).

The resolution's position-i basis is labelled by pairs (u, sigma) with u a
minimal generator and sigma a set of i-1 free indices; the differential acts
by

    d(f(u; sigma)) = sum over k in sigma of
        (-1)^{alpha(sigma;k)} (-x_k f(u; sigma minus k) + v_k f(u_k; sigma minus k))

where alpha(sigma;k) counts the sigma elements below k, u_k is the
decomposition of x_k u (the plex-largest generator dividing it) and
v_k = x_k u / u_k.  Whenever sigma minus k stops being a set of free indices
for u_k, that summand is dropped (the zero convention).

Verification never trusts the formula: the complex property is checked on
the differentials' scalar coefficients once their terms are found
multigraded (symbolically otherwise), and exactness is measured with ranks,
one multidegree at a time, against the independently counted Hilbert
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import add, index, sub
from typing import Iterator, Optional

from .betti import betti_table
from .ideals import (
    MonomialIdeal,
    admissible_shape,
    bits_below,
    decomposition_function,
    divisor_index,
    hilbert_function,
    minimal_exponents,
    require_strongly_stable,
)
from .koszul import CycleLabel, format_label
from .linalg import FiniteComplex, lcm_lattice
from .monomials import (
    Monomial,
    SpreadVector,
    format_exponents,
    format_monomial,
    free_indices,
)

# a polynomial: exponent vector over x_1..x_n -> int coefficient
Poly = dict[tuple[int, ...], int]


def format_poly(poly: Poly) -> str:
    """The terms in descending plex order; a zero coefficient shows nothing."""
    pieces = []
    for exps, coeff in sorted(poly.items(), reverse=True):
        if not coeff:
            continue
        mag = abs(coeff)
        body = format_exponents(exps) if mag == 1 else \
            f"{mag}*{format_exponents(exps)}"
        if not pieces:
            pieces.append(body if coeff > 0 else f"-{body}")
        else:
            pieces.append(("+" if coeff > 0 else "-") + body)
    return "".join(pieces) or "0"


def _poly_text(texts: dict[tuple, str], poly: Poly) -> str:
    """`format_poly(poly)`, memoised in texts on the terms and their
    coefficient types, so that 2 and 2.0 print apart."""
    key = (tuple(poly.items()), tuple(map(type, poly.values())))
    text = texts.get(key)
    if text is None:
        text = texts[key] = format_poly(poly)
    return text


class MonomialMatrix:
    """A sparse matrix whose entries are polynomials with int coefficients,
    each keyed by its terms' exponent vectors.

    Construction and `add_to_entry` keep no zero term and no empty entry.
    `entries` is public and may be edited in place, so nothing here checks
    the coefficients; verify_resolution rejects a non-int with TypeError and
    ignores a zero one.
    """

    def __init__(self, nrows: int, ncols: int,
                 entries: Optional[dict[tuple[int, int], Poly]] = None):
        self.nrows = nrows
        self.ncols = ncols
        self.entries: dict[tuple[int, int], Poly] = {}
        if entries:
            for (r, c), poly in entries.items():
                self._check_index(r, c)
                poly = {exps: coeff for exps, coeff in poly.items() if coeff}
                if poly:
                    self.entries[(r, c)] = poly

    def _check_index(self, r: int, c: int) -> None:
        if not (0 <= r < self.nrows and 0 <= c < self.ncols):
            raise ValueError(
                f"entry ({r},{c}) outside {self.nrows}x{self.ncols}")

    def entry(self, r: int, c: int) -> Poly:
        return dict(self.entries.get((r, c), {}))

    def add_to_entry(self, r: int, c: int, exps: tuple[int, ...], coeff) -> None:
        self._check_index(r, c)
        poly = self.entries.setdefault((r, c), {})
        new = poly.get(exps, 0) + coeff
        if new:
            poly[exps] = new
        else:
            poly.pop(exps, None)
            if not poly:
                del self.entries[(r, c)]

    @property
    def is_zero(self) -> bool:
        return not self.entries

    def compose(self, other: "MonomialMatrix") -> "MonomialMatrix":
        """Matrix product self @ other (apply other first).

        Terms are multiplied and summed on exponent vectors, and zero sums
        are dropped.  Multiplying two terms of unequal length raises
        ValueError.
        """
        if self.ncols != other.nrows:
            raise ValueError(
                f"cannot compose {self.nrows}x{self.ncols} with "
                f"{other.nrows}x{other.ncols}")
        by_row: dict[int, list[tuple[int, Poly]]] = {}
        for (m, c), q in other.entries.items():
            by_row.setdefault(m, []).append((c, q))
        sums: dict[tuple[int, int], Poly] = {}
        for (r, m), p in self.entries.items():
            for c, q in by_row.get(m, ()):
                acc = sums.setdefault((r, c), {})
                for e1, c1 in p.items():
                    for e2, c2 in q.items():
                        if len(e1) != len(e2):
                            raise ValueError("cannot multiply monomials with "
                                             "different ambients")
                        e = tuple(map(add, e1, e2))
                        acc[e] = acc.get(e, 0) + c1 * c2
        return MonomialMatrix(self.nrows, other.ncols, sums)  # drops the zeros

    def ascii(self) -> str:
        if not self.nrows or not self.ncols:
            return "[ ]"
        texts: dict[tuple, str] = {}
        cells = [["0"] * self.ncols for _ in range(self.nrows)]
        for (r, c), poly in self.entries.items():
            if 0 <= r < self.nrows and 0 <= c < self.ncols:
                cells[r][c] = _poly_text(texts, poly)
        line = "[ " + "  ".join(
            f"{{:<{max(map(len, column))}}}" for column in zip(*cells))
        return "\n".join(line.format(*row).rstrip() + " ]" for row in cells)

    def __repr__(self) -> str:
        return f"MonomialMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


class Resolution:
    """Free resolution data: labelled bases and differential matrices.

    Position 0 is the rank-one free module S; position i >= 1 has one basis
    element per label in bases[i-1].  diffs[i-1] is the matrix of d_i.
    """

    def __init__(self, ideal: MonomialIdeal, t: SpreadVector,
                 bases: list[list[CycleLabel]], diffs: list[MonomialMatrix]):
        if len(bases) != len(diffs):
            raise ValueError("one differential is needed per positive position")
        self.ideal = ideal
        self.t = t
        self.bases = [list(b) for b in bases]
        self.diffs = list(diffs)

    @property
    def length(self) -> int:
        return len(self.bases)

    def rank(self, i: int) -> int:
        if i == 0:
            return 1
        if 1 <= i <= self.length:
            return len(self.bases[i - 1])
        return 0

    def basis(self, i: int) -> list[CycleLabel]:
        if not 1 <= i <= self.length:
            raise ValueError(f"no labelled basis at position {i}")
        return list(self.bases[i - 1])

    def differential(self, i: int) -> MonomialMatrix:
        if not 1 <= i <= self.length:
            raise ValueError(f"no differential d_{i}")
        return self.diffs[i - 1]

    def graded_rank_counts(self) -> dict[tuple[int, int], int]:
        counts = {(0, 0): 1}
        for i, labels in enumerate(self.bases, start=1):
            for lab in labels:
                key = (i, lab.internal_degree)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def ascii(self) -> str:
        ranks = ", ".join(f"F{i}={self.rank(i)}" for i in range(self.length + 1))
        lines = [f"ranks: {ranks}"]
        for i in range(1, self.length + 1):
            lines.append("")
            lines.append(f"d{i} (F{i} -> F{i - 1}):")
            lines.append(self.differential(i).ascii())
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        """Ranks, label texts and differential entries [r, c, text], sorted;
        each generator and each distinct entry is formatted once per call."""
        names: dict[Monomial, str] = {}
        bases = []
        for labels in self.bases:
            texts = []
            for lab in labels:
                name = names.get(lab.generator)
                if name is None:
                    name = names[lab.generator] = format_monomial(lab.generator)
                texts.append(format_label(name, lab.sigma))
            bases.append(texts)
        polys: dict[tuple, str] = {}
        differentials = []
        for d in self.diffs:
            entries = []
            for (r, c), poly in sorted(d.entries.items()):
                entries.append([r, c, _poly_text(polys, poly)])
            differentials.append(
                {"rows": d.nrows, "cols": d.ncols, "entries": entries})
        return {
            "ranks": [self.rank(i) for i in range(self.length + 1)],
            "bases": bases,
            "differentials": differentials,
        }


def build_resolution(ideal: MonomialIdeal, t) -> Resolution:
    """Assemble the labelled resolution of S/I from the generator data."""
    t = SpreadVector.coerce(t)
    if not admissible_shape(t):
        raise ValueError(
            f"resolution formula needs a spread vector shaped (1,..,1,0,..,0), "
            f"got {t}")
    require_strongly_stable(ideal, t)
    if ideal.is_unit:
        raise ValueError("the quotient by the unit ideal is zero")

    # the labels of every position, as spread_labels lists them, from one
    # free set per generator
    free = {g: free_indices(g, t) for g in ideal.generators}
    bases: list[list[CycleLabel]] = []
    while labels := [CycleLabel(g, sigma) for g, allowed in free.items()
                     for sigma in combinations(allowed, len(bases))]:
        bases.append(labels)

    diffs: list[MonomialMatrix] = []
    n = ideal.ambient_n
    # the exponent vectors of x_1..x_n
    xs = [None] + [tuple(int(j == k) for j in range(1, n + 1))
                   for k in range(1, n + 1)]
    # (u_k, free(u_k), v_k) for each (generator u, k): none depends on sigma
    steps: dict[tuple[Monomial, int],
                tuple[Monomial, frozenset[int], tuple[int, ...]]] = {}
    for i in range(1, len(bases) + 1):
        cols = bases[i - 1]
        if i == 1:
            d = MonomialMatrix(1, len(cols))
            for c, lab in enumerate(cols):
                d.add_to_entry(0, c, lab.generator.exponents, 1)
            diffs.append(d)
            continue
        rows = {(lab.generator, lab.sigma): r for r, lab in enumerate(bases[i - 2])}
        d = MonomialMatrix(len(rows), len(cols))
        for c, lab in enumerate(cols):
            u, sigma = lab.generator, lab.sigma
            for pos, k in enumerate(sigma):
                sign = -1 if pos % 2 else 1  # alpha(sigma;k) = elements below k
                tau = sigma[:pos] + sigma[pos + 1:]
                d.add_to_entry(rows[u, tau], c, xs[k], -sign)
                step = steps.get((u, k))
                if step is None:
                    w = u.times_var(k)
                    u_k = decomposition_function(ideal, t, w)
                    step = steps[u, k] = (
                        u_k, frozenset(free[u_k]),
                        tuple(map(sub, w.exponents, u_k.exponents)))
                u_k, free_k, v_k = step
                if free_k.issuperset(tau):
                    d.add_to_entry(rows[u_k, tau], c, v_k, sign)
        diffs.append(d)
    return Resolution(ideal, t, bases, diffs)


# -- verification --------------------------------------------------------------


@dataclass
class ResolutionReport:
    ok: bool
    checks: dict[str, bool]
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        flags = ", ".join(f"{k}={'pass' if v else 'FAIL'}"
                          for k, v in self.checks.items())
        out = f"resolution check {status} ({flags})"
        if self.failures:
            out += "\n  " + "\n  ".join(self.failures[:8])
        return out


def verify_resolution(res: Resolution, max_degree: int) -> ResolutionReport:
    """Check the complex property, minimality, graded exactness and ranks.

    A negative max_degree, a d_i that is not rank(i-1) x rank(i) and an
    entry outside its d_i are refused with ValueError before any check.

    One pass over the entries checks minimality and the multigrading, and
    reads each d_i off as sparse scalar columns: entry (r, c) contributes
    the coefficient of its term x^(m_c - m_r), m_c and m_r the multidegrees
    of the labels.  Once every term has that form, entry (r, c) of
    d_i d_{i+1} is x^(m_c - m_r) times entry (r, c) of the integer product
    of the scalar columns, so d o d = 0 is checked on those.  An input that
    is not multigraded is composed symbolically by `MonomialMatrix.compose`.

    Exactness is certified multidegree by multidegree with ranks over Q:
    taken over F_2 and certified by the Euler characteristic (see
    `FiniteComplex`) once d o d = 0 has passed, and over Z otherwise.
    The strand at a holds position 0 (S itself) and the labels on minimal
    generators with multidegree <= a, so it is the strand at a', the lcm of
    those multidegrees, and a' = 0 leaves position 0 alone.  Only the lcms
    of such label multidegrees of degree <= max_degree are visited:
    exactness at a is exactness at a' (see `_strands`).

    Position 0 is checked in two steps.  Each visited a' lies above a label,
    hence above a generator, so (S/I)_a' = 0 and the strand must have no
    cokernel there; a non-zero one is reported as non-exactness at position
    0.  Once every visited strand has none, the cokernel in degree q counts
    the a of degree q with no label <= a, which is the Hilbert function of
    S/L for the ideal L spanned by the label multidegrees; that is compared
    against the directly counted Hilbert function of S/I.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    for i in range(1, res.length + 1):
        d = res.differential(i)
        if (d.nrows, d.ncols) != (res.rank(i - 1), res.rank(i)):
            raise ValueError(f"d{i} is {d.nrows}x{d.ncols}, but F{i - 1} and "
                             f"F{i} have ranks {res.rank(i - 1)} and "
                             f"{res.rank(i)}")
        for r, c in d.entries:
            if not (0 <= r < d.nrows and 0 <= c < d.ncols):
                raise ValueError(
                    f"d{i} entry ({r},{c}) outside {d.nrows}x{d.ncols}")
    ideal = res.ideal
    n = ideal.ambient_n
    mdegs = [[(0,) * n]] + [[lab.multidegree() for lab in labels]
                            for labels in res.bases]

    # (b) minimality and the multigrading, in one pass that also reads
    # scalars[i - 1], d_i as sparse columns of (row, coefficient)
    constant: list[str] = []
    off_grade: list[str] = []
    scalars: list[list[list[tuple[int, int]]]] = []
    for i in range(1, res.length + 1):
        cols = [[] for _ in mdegs[i]]
        for (r, c), poly in res.differential(i).entries.items():
            want = tuple(map(sub, mdegs[i][c], mdegs[i - 1][r]))
            unit = False
            for e, coeff in poly.items():
                coeff = index(coeff)  # a rational would truncate in Bareiss
                if not coeff:
                    continue
                unit = unit or not any(e)
                if e == want:
                    cols[c].append((r, coeff))
                else:
                    off_grade.append(
                        f"d{i} entry ({r},{c}) term {format_exponents(e)} "
                        f"breaks the multigrading")
            if unit:
                constant.append(f"d{i} entry ({r},{c}) = {format_poly(poly)} "
                                f"has a constant term")
        scalars.append(cols)

    # (a) d o d = 0, on the scalars once the terms are multigraded
    failures: list[str] = []
    for i in range(1, res.length):
        if off_grade:
            prod = res.differential(i).compose(res.differential(i + 1)).entries
        else:
            prod = {(r, c): {tuple(map(sub, mdegs[i + 1][c],
                                       mdegs[i - 1][r])): v}
                    for (r, c), v in _product(scalars[i - 1], scalars[i])}
        if prod:
            bad = min(prod)
            failures.append(f"d{i} d{i + 1} is non-zero, e.g. entry {bad} = "
                            f"{format_poly(prod[bad])}")
    checks = {"complex": not failures, "minimality": not constant,
              "multigraded": not off_grade}
    failures += constant + off_grade

    ok = checks["multigraded"]
    if ok:
        # a label's multidegree is a multiple of its generator's, and the
        # strands hold only the labels on minimal generators: a label on
        # anything else would drop out of every strand unseen, so it is
        # named, and keep[i] holds a bit for each kept label of position i
        generators = {g.exponents for g in ideal.generators}
        keep = [1] + [sum(1 << c for c, lab in enumerate(labels)
                          if lab.generator.exponents in generators)
                      for labels in res.bases]
        strays = dict.fromkeys(lab.generator.exponents
                               for labels in res.bases for lab in labels
                               if lab.generator.exponents not in generators)
        for g in strays:
            ok = False
            failures.append(f"labels on {format_exponents(g)}, not a "
                            f"minimal generator")
        # a strand is a complex once d o d = 0 and no label was dropped from
        # it, and only then may its ranks be certified modularly
        for a, cx in _strands(mdegs, scalars, keep, max_degree,
                              checks["complex"] and ok):
            for i in range(res.length + 1):
                if cx.homology(i):
                    ok = False
                    failures.append(
                        f"not exact at position {i}, degree {sum(a)}, "
                        f"multidegree {a}: kernel {cx.sizes[i] - cx.ranks[i]}, "
                        f"next image {cx.ranks[i + 1]}")
        hf = hilbert_function(ideal, max_degree)
        # L = I when the label multidegrees have the generators of I as their
        # minimal elements; only otherwise is S/L counted apart
        spanned = minimal_exponents(m for ms, bits in zip(mdegs[1:], keep[1:])
                                    for c, m in enumerate(ms) if bits >> c & 1)
        if set(spanned) == generators:
            coker = hf
        else:
            coker = hilbert_function(MonomialIdeal(
                map(Monomial.from_exponents, spanned), n), max_degree)
        for q in range(max_degree + 1):
            if coker[q] != hf[q]:
                ok = False
                failures.append(
                    f"cokernel at position 0 has dimension {coker[q]} in "
                    f"degree {q}, Hilbert function says {hf[q]}")
    else:
        failures.append("exactness skipped: differentials not multigraded")
    checks["exactness"] = ok

    # (d) graded ranks against the closed Betti formula
    expected = betti_table(ideal, res.t, view="quotient").entries
    got = res.graded_rank_counts()
    ok = got == expected
    if not ok:
        failures.append(
            f"graded ranks {sorted(got.items())} differ from the Betti "
            f"formula {sorted(expected.items())}")
    checks["graded_ranks"] = ok

    return ResolutionReport(all(checks.values()), checks, failures)


def _product(left: list[list[tuple[int, int]]],
             right: list[list[tuple[int, int]]]
             ) -> Iterator[tuple[tuple[int, int], int]]:
    """The non-zero entries ((r, c), value) of the product of two integer
    matrices given as sparse columns of (row, value)."""
    for c, col in enumerate(right):
        acc: dict[int, int] = {}
        for m, w in col:
            for r, v in left[m]:
                acc[r] = acc.get(r, 0) + v * w
        for r, v in acc.items():
            if v:
                yield (r, c), v


def _strands(points: list[list[tuple[int, ...]]],
             columns: list[list[list[tuple[int, int]]]], keep: list[int],
             max_degree: int, is_complex: bool
             ) -> Iterator[tuple[tuple[int, ...], FiniteComplex]]:
    """Each strand of a complex of multigraded free modules on the kept basis
    elements, at every point a of the lcm lattice of their multidegrees past
    position 0, capped at max_degree: (a, the strand as a `FiniteComplex`).

    points[i] lists the multidegrees of the position-i basis, columns[i - 1]
    is d_i as sparse scalar columns over position i - 1, and bit c of
    keep[i] is set when basis element c of position i is kept.  One
    `divisor_index` covers the bases of all positions, concatenated, so the
    strand at a is one chain of n ANDs from the kept bits, split into one
    bitmask per position by shift and mask, and its sizes are the bit
    counts.  Each column c of d_i gets its parity mask over the
    position-(i-1) basis once, and the strand's row for c is that mask
    ANDed with the bitmask of position i - 1: the strand's column modulo 2,
    its rows numbered by basis index instead of strand position, which
    leaves every rank as it is.  A position's members are listed only to
    pick the rows of d_i, and to renumber the sparse columns onto the
    strand, which are built only if `FiniteComplex` ranks over Z.  So an
    element that is not kept enters no strand, as a row or as a column.
    """
    n = len(points[0][0])  # position 0 is S, of multidegree 0
    le = divisor_index([m for ms in points for m in ms], n)[0]
    masks, kept, shift = [], 0, 0
    for ms, bits in zip(points, keep):
        masks.append((shift, (1 << len(ms)) - 1))
        kept |= bits << shift
        shift += len(ms)
    parity = [[sum(1 << r for r, v in col if v & 1) for col in cols]
              for cols in columns]
    atoms = [m for ms, bits in zip(points[1:], keep[1:])
             for c, m in enumerate(ms) if bits >> c & 1]
    for a in lcm_lattice(atoms, max_degree):
        below = bits_below(le, a, kept)
        active = [below >> s & mask for s, mask in masks]
        members = [[0]] + [_set_bits(bits) for bits in active[1:]]
        rows = [[parity[i][c] & active[i] for c in members[i + 1]]
                for i in range(len(columns))]

        def exact(i: int, members=members) -> list[list[tuple[int, int]]]:
            where = {r: p for p, r in enumerate(members[i - 1])}
            return [[(where[r], v) for r, v in columns[i - 1][c] if r in where]
                    for c in members[i]]

        yield a, FiniteComplex([bits.bit_count() for bits in active], rows,
                               exact, is_complex=is_complex)


def _set_bits(bits: int) -> list[int]:
    """The positions of the set bits, descending: each step reads the top
    bit, which costs no wide negation."""
    out = []
    while bits:
        top = bits.bit_length() - 1
        out.append(top)
        bits ^= 1 << top
    return out
