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

Every entry of d_i is one term c * x^(m_c - m_r), c = +-1, for the
multidegrees m_r and m_c of its row and column labels: -x_k is
x^(mdeg(u; sigma) - mdeg(u; sigma minus k)), and v_k is
x^(mdeg(u; sigma) - mdeg(u_k; sigma minus k)).  So a `Resolution` holds d_i
as one sparse column {row: c} per label; every multigraded map between free
modules on such bases has that form, with c any integer.

Verification never trusts the formula: the complex property is checked on
the differentials' scalar coefficients, whose exponents telescope along
every product, and exactness is measured with ranks, one multidegree at a
time, against the independently counted Hilbert function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import index, le, sub
from typing import Iterator, Optional

from .betti import _formula_table, betti_table
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


def _grid(nrows: int, ncols: int,
          entries: Iterator[tuple[int, int, str]]) -> str:
    """The text of an nrows x ncols matrix with the texts (r, c, text) in
    their cells and "0" elsewhere, each column padded to its widest cell."""
    if not nrows or not ncols:
        return "[ ]"
    cells = [["0"] * ncols for _ in range(nrows)]
    for r, c, text in entries:
        cells[r][c] = text
    line = "[ " + "  ".join(
        f"{{:<{max(map(len, column))}}}" for column in zip(*cells))
    return "\n".join(line.format(*row).rstrip() + " ]" for row in cells)


# a differential as sparse columns: column c maps row r to its coefficient
Columns = list[dict[int, int]]


def _signed_entries(rows: list[tuple[int, ...]], cols: list[tuple[int, ...]],
                    columns: Columns, texts: dict[tuple, str]
                    ) -> Iterator[tuple[int, int, str]]:
    """(r, c, text) for each entry s * x^(m_c - m_r) of the columns, column
    by column, with m_r = rows[r] and m_c = cols[c]; texts memoises
    `format_poly` on the exponents, s and the type of s, so that 2 and 2.0
    print apart."""
    for c, (high, col) in enumerate(zip(cols, columns)):
        for r, s in col.items():
            key = (tuple(map(sub, high, rows[r])), s, type(s))
            text = texts.get(key)
            if text is None:
                text = texts[key] = format_poly({key[0]: s})
            yield r, c, text


def _multidegrees(n: int, bases: list[list[CycleLabel]]
                  ) -> list[list[tuple[int, ...]]]:
    """The label multidegrees of each position, position 0 (S) first."""
    return [[(0,) * n]] + [[lab.multidegree() for lab in labels]
                           for labels in bases]


class Resolution:
    """Free resolution data: labelled bases and differentials.

    Position 0 is the rank-one free module S; position i >= 1 has one basis
    element per label in bases[i-1].  columns[i-1] is d_i as one sparse
    column {row: coefficient} per label of position i, and entry (r, c) of
    d_i is coefficient * x^(m_c - m_r) for the multidegrees m_r and m_c of
    the current labels of row r and column c.  `differential(i)` hands out
    d_i as a new dict {(r, c): {m_c - m_r: coefficient}}, whose edits leave
    the resolution as it is.  Each reader refuses a differential that does
    not fit its bases with one line (see `_check_shape`).
    """

    def __init__(self, ideal: MonomialIdeal, t: SpreadVector,
                 bases: list[list[CycleLabel]], columns: list[Columns]):
        if len(bases) != len(columns):
            raise ValueError("one differential is needed per positive position")
        for d in columns:
            if not isinstance(d, list):
                raise TypeError("a differential is a list of sparse columns "
                                f"{{row: coefficient}}, not a {type(d).__name__}")
        self.ideal = ideal
        self.t = t
        self.bases = [list(b) for b in bases]
        self.columns = list(columns)
        # the (ideal, t) that build_resolution found strongly stable
        self._stable: Optional[tuple[MonomialIdeal, SpreadVector]] = None

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

    def differential(self, i: int) -> dict[tuple[int, int], Poly]:
        if not 1 <= i <= self.length:
            raise ValueError(f"no differential d_{i}")
        _check_shape(self)
        rows, cols = _multidegrees(self.ideal.ambient_n,
                                   self.bases[max(i - 2, 0):i])[-2:]
        return {(r, c): {tuple(map(sub, high, rows[r])): s}
                for c, (high, col) in enumerate(zip(cols, self.columns[i - 1]))
                for r, s in col.items()}

    def graded_rank_counts(self) -> dict[tuple[int, int], int]:
        counts = {(0, 0): 1}
        for i, labels in enumerate(self.bases, start=1):
            for lab in labels:
                key = (i, lab.internal_degree)
                counts[key] = counts.get(key, 0) + 1
        return counts

    def ascii(self) -> str:
        _check_shape(self)
        ranks = ", ".join(f"F{i}={self.rank(i)}" for i in range(self.length + 1))
        lines = [f"ranks: {ranks}"]
        mdegs = _multidegrees(self.ideal.ambient_n, self.bases)
        for i, cols in enumerate(self.columns, start=1):
            lines += ["", f"d{i} (F{i} -> F{i - 1}):", _grid(
                len(mdegs[i - 1]), len(cols),
                _signed_entries(mdegs[i - 1], mdegs[i], cols, {}))]
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        """Ranks, label texts and differential entries [r, c, text], sorted;
        each generator and each distinct entry is formatted once per call."""
        _check_shape(self)
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
        mdegs = _multidegrees(self.ideal.ambient_n, self.bases)
        for i, cols in enumerate(self.columns, start=1):
            # bucketed by row, each row's columns ascend: sorted as (r, c)
            by_row = [[] for _ in mdegs[i - 1]]
            for r, c, text in _signed_entries(mdegs[i - 1], mdegs[i], cols,
                                              polys):
                by_row[r].append([r, c, text])
            differentials.append({
                "rows": len(by_row), "cols": len(cols),
                "entries": [entry for row in by_row for entry in row]})
        return {
            "ranks": [self.rank(i) for i in range(self.length + 1)],
            "bases": bases,
            "differentials": differentials,
        }


def _check_shape(res: Resolution) -> None:
    """Refuse with one line a differential count other than the number of
    positions past 0, a d_i without one column per label of position i, or
    a row outside 0..rank(i-1)-1, the first one in column order."""
    if len(res.columns) != res.length:
        raise ValueError("one differential is needed per positive position")
    for i, cols in enumerate(res.columns, start=1):
        nrows, ncols = res.rank(i - 1), res.rank(i)
        if len(cols) != ncols:
            raise ValueError(f"d{i} has {len(cols)} columns, but F{i} has "
                             f"rank {ncols}")
        for c, col in enumerate(cols):
            for r in col:
                if not 0 <= r < nrows:
                    raise ValueError(
                        f"d{i} entry ({r},{c}) outside {nrows}x{ncols}")


def build_resolution(ideal: MonomialIdeal, t) -> Resolution:
    """Assemble the labelled resolution of S/I from the generator data.

    Each d_i is written as one signed column {row: +-1} per label, a sum
    that cancels keeping no row (see `Resolution`)."""
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

    columns: list[Columns] = [[{0: 1} for _ in bases[0]]] if bases else []
    # (u_k, free(u_k)) for each (generator u, k): neither depends on sigma
    steps: dict[tuple[Monomial, int], tuple[Monomial, frozenset[int]]] = {}
    for i in range(2, len(bases) + 1):
        rows = {(lab.generator, lab.sigma): r for r, lab in enumerate(bases[i - 2])}
        d = []
        for lab in bases[i - 1]:
            u, sigma = lab.generator, lab.sigma
            col: dict[int, int] = {}
            for pos, k in enumerate(sigma):
                sign = -1 if pos % 2 else 1  # alpha(sigma;k) = elements below k
                tau = sigma[:pos] + sigma[pos + 1:]
                # no earlier k wrote row (u, tau): each k leaves its own tau
                col[rows[u, tau]] = -sign
                step = steps.get((u, k))
                if step is None:
                    u_k = decomposition_function(ideal, t, u.times_var(k))
                    step = steps[u, k] = (u_k, frozenset(free[u_k]))
                u_k, free_k = step
                if free_k.issuperset(tau):
                    r = rows[u_k, tau]
                    v = col.get(r, 0) + sign
                    if v:
                        col[r] = v
                    else:
                        del col[r]
            d.append(col)
        columns.append(d)
    res = Resolution(ideal, t, bases, columns)
    res._stable = (ideal, t)
    return res


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

    A negative max_degree and a differential that does not fit its bases
    (see `_check_shape`) are refused with ValueError before any check.  Each
    value is read through `operator.index`, so a non-int one raises
    TypeError, and a zero one is no term.

    Entry (r, c) of d_i is the value times x^(m_c - m_r), m_r and m_c the
    multidegrees of the labels, so it has a constant term when m_r = m_c
    and breaks the multigrading unless m_r <= m_c, printed then as a Laurent
    monomial such as x2*x3*x4^-2.  Along any product the exponents
    telescope, (m_m - m_r) + (m_c - m_m) = m_c - m_r, so entry (r, c) of
    d_i d_{i+1} is x^(m_c - m_r) times entry (r, c) of the integer product
    of the columns, and d o d = 0 is checked on those.

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
    against the directly counted Hilbert function of S/I.  L = I when
    every generator of I is the multidegree of a kept label (see
    `_spans_the_generators`); only otherwise is S/L counted apart.

    The graded ranks are compared with the Betti formula, whose strong
    stability check is the build's own while res.ideal and res.t are the
    objects `build_resolution` was given.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    _check_shape(res)
    ideal = res.ideal
    n = ideal.ambient_n
    mdegs = _multidegrees(n, res.bases)

    # (b) minimality and the multigrading, while scalars[i - 1] takes d_i
    # with every value an int (a rational would truncate in Bareiss) and no
    # zero
    constant: list[str] = []
    off_grade: list[str] = []
    scalars: list[Columns] = []
    for i, cols in enumerate(res.columns, start=1):
        rows, read = mdegs[i - 1], []
        for c, (high, col) in enumerate(zip(mdegs[i], cols)):
            read.append(kept := {})
            for r, s in col.items():
                if not (v := index(s)):
                    continue
                kept[r] = v
                if rows[r] == high:
                    constant.append(
                        f"d{i} entry ({r},{c}) = "
                        f"{format_poly({(0,) * n: v})} has a constant term")
                elif not all(map(le, rows[r], high)):
                    off_grade.append(
                        f"d{i} entry ({r},{c}) term "
                        f"{format_exponents(tuple(map(sub, high, rows[r])))}"
                        f" breaks the multigrading")
        scalars.append(read)

    # (a) d o d = 0, on the scalars
    failures: list[str] = []
    for i in range(1, res.length):
        lowest = min(_product(scalars[i - 1], scalars[i]), default=None)
        if lowest:
            (r, c), v = lowest
            term = tuple(map(sub, mdegs[i + 1][c], mdegs[i - 1][r]))
            failures.append(f"d{i} d{i + 1} is non-zero, e.g. entry {(r, c)} "
                            f"= {format_poly({term: v})}")
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
        if _spans_the_generators(generators, mdegs, keep):
            coker = hf
        else:
            spanned = minimal_exponents(
                m for ms, bits in zip(mdegs[1:], keep[1:])
                for c, m in enumerate(ms) if bits >> c & 1)
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
    if res._stable and res._stable[0] is ideal and res._stable[1] is res.t:
        expected = _formula_table(ideal, res.t, "quotient").entries
    else:
        expected = betti_table(ideal, res.t, view="quotient").entries
    got = res.graded_rank_counts()
    ok = got == expected
    if not ok:
        failures.append(
            f"graded ranks {sorted(got.items())} differ from the Betti "
            f"formula {sorted(expected.items())}")
    checks["graded_ranks"] = ok

    return ResolutionReport(all(checks.values()), checks, failures)


def _spans_the_generators(generators: set[tuple[int, ...]],
                          points: list[list[tuple[int, ...]]],
                          keep: list[int]) -> bool:
    """Whether every generator is the multidegree of a kept basis element,
    points[i] and keep[i] as in `_strands`.  Each kept label's multidegree
    lies above its own generator, so the generators are then the minimal
    kept multidegrees, and these span I.  The positions are read in order
    and the scan stops once none is missing: position 1 usually covers
    them."""
    missing = set(generators)
    for ms, bits in zip(points[1:], keep[1:]):
        if not missing:
            break
        missing.difference_update(m for c, m in enumerate(ms) if bits >> c & 1)
    return not missing


def _product(left: Columns, right: Columns
             ) -> Iterator[tuple[tuple[int, int], int]]:
    """The non-zero entries ((r, c), value) of the product of two integer
    matrices given as sparse columns {row: value}."""
    for c, col in enumerate(right):
        acc: dict[int, int] = {}
        for m, w in col.items():
            for r, v in left[m].items():
                acc[r] = acc.get(r, 0) + v * w
        for r, v in acc.items():
            if v:
                yield (r, c), v


def _strands(points: list[list[tuple[int, ...]]],
             columns: list[Columns], keep: list[int],
             max_degree: int, is_complex: bool
             ) -> Iterator[tuple[tuple[int, ...], FiniteComplex]]:
    """Each strand of a complex of multigraded free modules on the kept basis
    elements, at every point a of the lcm lattice of their multidegrees past
    position 0, capped at max_degree: (a, the strand as a `FiniteComplex`).

    points[i] lists the multidegrees of the position-i basis, columns[i - 1]
    is d_i as sparse scalar columns {row: value} over position i - 1, and
    bit c of keep[i] is set when basis element c of position i is kept.  One
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
    parity = [[sum(1 << r for r, v in col.items() if v & 1) for col in cols]
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
            return [[(where[r], v) for r, v in columns[i - 1][c].items()
                     if r in where]
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
