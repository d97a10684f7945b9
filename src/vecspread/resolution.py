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

Every entry of a built d_i is one term c * x^(m_c - m_r), c = +-1, for the
multidegrees m_r and m_c of its row and column labels: -x_k is
x^(mdeg(u; sigma) - mdeg(u; sigma minus k)), and v_k is
x^(mdeg(u; sigma) - mdeg(u_k; sigma minus k)).  So `build_resolution`
stores d_i as one sparse column {row: c} per label, and the resolution
turns them into `MonomialMatrix` objects only when a caller asks for the
matrices or edits a label.

Verification never trusts the formula: the complex property is checked on
the differentials' scalar coefficients once their terms are found
multigraded (symbolically otherwise), and exactness is measured with ranks,
one multidegree at a time, against the independently counted Hilbert
function.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from operator import add, index, le, sub
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
        texts: dict[tuple, str] = {}
        return _grid(self.nrows, self.ncols, (
            (r, c, _poly_text(texts, poly))
            for (r, c), poly in self.entries.items()
            if 0 <= r < self.nrows and 0 <= c < self.ncols))

    def __repr__(self) -> str:
        return f"MonomialMatrix({self.nrows}x{self.ncols}, {len(self.entries)} entries)"


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
    """(r, c, text) for each entry s * x^(m_c - m_r) of signed columns,
    column by column, with m_r = rows[r] and m_c = cols[c]; texts memoises
    `format_poly` on (exponents, sign)."""
    for c, (high, col) in enumerate(zip(cols, columns)):
        for r, s in col.items():
            key = (tuple(map(sub, high, rows[r])), s)
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
    """Free resolution data: labelled bases and differential matrices.

    Position 0 is the rank-one free module S; position i >= 1 has one basis
    element per label in bases[i-1].  diffs[i-1] is the matrix of d_i.

    A resolution from `build_resolution` holds each d_i as signed columns
    instead, one {row: +-1} per label, entry (r, c) being the coefficient of
    x^(m_c - m_r) for the multidegrees of the labels it was built on.
    `ascii`, `to_json_obj` and `verify_resolution` read them while every
    label in bases is the built one.  The first read of `diffs` or
    `differential`, or a label replaced in bases, turns them into
    `MonomialMatrix` objects with those exponents, whose edits count from
    then on.
    """

    def __init__(self, ideal: MonomialIdeal, t: SpreadVector,
                 bases: list[list[CycleLabel]], diffs: list[MonomialMatrix]):
        if len(bases) != len(diffs):
            raise ValueError("one differential is needed per positive position")
        self.ideal = ideal
        self.t = t
        self.bases = [list(b) for b in bases]
        self._diffs = list(diffs)
        # build_resolution's labels and signed columns, until they turn
        # into _diffs, and the (ideal, t) it found strongly stable
        self._columns: Optional[tuple[list[list[CycleLabel]],
                                      list[Columns]]] = None
        self._stable: Optional[tuple[MonomialIdeal, SpreadVector]] = None

    @classmethod
    def _from_columns(cls, ideal: MonomialIdeal, t: SpreadVector,
                      bases: list[list[CycleLabel]],
                      columns: list[Columns]) -> "Resolution":
        res = cls(ideal, t, bases, columns)
        res._diffs, res._columns, res._stable = [], (bases, columns), (ideal, t)
        return res

    @property
    def diffs(self) -> list[MonomialMatrix]:
        if self._columns is not None:
            self._materialise()
        return self._diffs

    @diffs.setter
    def diffs(self, diffs: list[MonomialMatrix]) -> None:
        self._diffs, self._columns = diffs, None

    def _signed_columns(self) -> Optional[list[Columns]]:
        """The built columns while every label is the built one; None once
        the differentials are `MonomialMatrix` objects."""
        if self._columns is not None and self.bases != self._columns[0]:
            self._materialise()
        return None if self._columns is None else self._columns[1]

    def _built_multidegrees(self) -> list[list[tuple[int, ...]]]:
        return _multidegrees(self._stable[0].ambient_n, self._columns[0])

    def _materialise(self) -> None:
        mdegs = self._built_multidegrees()
        diffs = []
        for i, columns in enumerate(self._columns[1], start=1):
            rows = mdegs[i - 1]
            d = MonomialMatrix(len(rows), len(columns))
            for c, (high, col) in enumerate(zip(mdegs[i], columns)):
                for r, s in col.items():
                    d.entries[r, c] = {tuple(map(sub, high, rows[r])): s}
            diffs.append(d)
        self._diffs, self._columns = diffs, None

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
        columns = self._signed_columns()
        if columns is None:
            grids = [self.differential(i).ascii()
                     for i in range(1, self.length + 1)]
        else:
            mdegs = self._built_multidegrees()
            grids = [_grid(len(mdegs[i - 1]), len(cols), _signed_entries(
                         mdegs[i - 1], mdegs[i], cols, {}))
                     for i, cols in enumerate(columns, start=1)]
        for i, grid in enumerate(grids, start=1):
            lines += ["", f"d{i} (F{i} -> F{i - 1}):", grid]
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
        columns = self._signed_columns()
        if columns is None:
            for d in self.diffs:
                entries = [[r, c, _poly_text(polys, poly)]
                           for (r, c), poly in sorted(d.entries.items())]
                differentials.append(
                    {"rows": d.nrows, "cols": d.ncols, "entries": entries})
        else:
            # bucketed by row, each row's columns ascend: sorted as (r, c)
            mdegs = self._built_multidegrees()
            for i, cols in enumerate(columns, start=1):
                by_row = [[] for _ in mdegs[i - 1]]
                for r, c, text in _signed_entries(mdegs[i - 1], mdegs[i],
                                                  cols, polys):
                    by_row[r].append([r, c, text])
                differentials.append({
                    "rows": len(by_row), "cols": len(cols),
                    "entries": [entry for row in by_row for entry in row]})
        return {
            "ranks": [self.rank(i) for i in range(self.length + 1)],
            "bases": bases,
            "differentials": differentials,
        }


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
    return Resolution._from_columns(ideal, t, bases, columns)


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

    The checks run on d_i as sparse scalar columns: entry (r, c) holds the
    coefficient of its term x^(m_c - m_r), m_c and m_r the multidegrees of
    the labels.  The signed columns of `build_resolution` are such columns
    while every label is the built one: a term is then constant when
    m_c = m_r and off the grading unless m_r <= m_c.  Otherwise, as for
    `MonomialMatrix` differentials built or edited by hand, one pass over
    the entries checks minimality and the multigrading and reads the
    columns off.  Once every term has that form, entry (r, c) of
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
    against the directly counted Hilbert function of S/I.  L = I when
    every generator of I is the multidegree of a kept label (see
    `_spans_the_generators`); only otherwise is S/L counted apart.

    The graded ranks are compared with the Betti formula, whose strong
    stability check is the build's own while res.ideal and res.t are the
    objects `build_resolution` was given.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    ideal = res.ideal
    n = ideal.ambient_n
    mdegs = _multidegrees(n, res.bases)

    # (b) minimality and the multigrading, on the built columns or on the
    # matrices, whose entries are read off as scalars[i - 1], d_i as sparse
    # columns {row: coefficient}
    constant: list[str] = []
    off_grade: list[str] = []
    scalars = res._signed_columns()
    if scalars is not None:
        for i, cols in enumerate(scalars, start=1):
            rows = mdegs[i - 1]
            for c, (high, col) in enumerate(zip(mdegs[i], cols)):
                for r, s in col.items():
                    if rows[r] == high:
                        constant.append(
                            f"d{i} entry ({r},{c}) = "
                            f"{format_poly({(0,) * n: s})} has a constant term")
                    elif not all(map(le, rows[r], high)):
                        off_grade.append(
                            f"d{i} entry ({r},{c}) term "
                            f"{format_exponents(tuple(map(sub, high, rows[r])))}"
                            f" breaks the multigrading")
    else:
        scalars = _read_matrices(res, mdegs, constant, off_grade)

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


def _read_matrices(res: Resolution, mdegs: list[list[tuple[int, ...]]],
                   constant: list[str], off_grade: list[str]
                   ) -> list[Columns]:
    """Each d_i of res as sparse scalar columns, entry (r, c) holding the
    coefficient of x^(m_c - m_r), m_r = mdegs[i - 1][r] and m_c =
    mdegs[i][c], in one pass over the entries that names each entry with a
    constant term in constant and each term of another exponent in
    off_grade.  The shapes are checked first, as
    `verify_resolution` says."""
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
    scalars = []
    for i in range(1, res.length + 1):
        cols: Columns = [{} for _ in mdegs[i]]
        for (r, c), poly in res.differential(i).entries.items():
            want = tuple(map(sub, mdegs[i][c], mdegs[i - 1][r]))
            unit = False
            for e, coeff in poly.items():
                coeff = index(coeff)  # a rational would truncate in Bareiss
                if not coeff:
                    continue
                unit = unit or not any(e)
                if e == want:
                    cols[c][r] = coeff
                else:
                    off_grade.append(
                        f"d{i} entry ({r},{c}) term {format_exponents(e)} "
                        f"breaks the multigrading")
            if unit:
                constant.append(f"d{i} entry ({r},{c}) = {format_poly(poly)} "
                                f"has a constant term")
        scalars.append(cols)
    return scalars


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
