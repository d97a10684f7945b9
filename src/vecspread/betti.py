"""Graded Betti numbers: closed formula and an independent homology oracle.

The formula side evaluates binomial counts attached to the minimal
generators of a strongly stable spread ideal.  The oracle side knows nothing
about that: it assembles exact matrices of the Koszul differential on graded
pieces and measures kernels and images by their ranks over Q (certified
over F_2 or taken over Z, see `linalg.FiniteComplex`), so the two routes
cross-check each other.

Both the oracle and the basis verifier work one multidegree at a time.  The
Koszul complex of a monomial quotient splits into finitely many blocks, one
per exponent vector a, with wedge subsets tau drawn from the support of a
and residues x^(a - 1_tau).  A block is read off the generators g dividing
x^a (Miller-Sturmfels, Combinatorial Commutative Algebra, Thm 1.34): the
tight set of g is {k in supp a : g_k = a_k}, and x^(a - 1_tau) lies in the
ideal exactly when tau misses some tight set, so the surviving wedges are
the tau meeting every tight set.  Two shapes need no elimination: with no
divisor every residue survives and the block is the (exact) chain complex
of a full simplex; when some tight set is empty every residue lies in the
ideal and the block is zero.

The divisors and their distinct tight sets are read off a divisor index of
the ideal, bitsets of the generators with g_k <= v and with g_k = v, so no
multidegree scans the generators.  A block depends only on its shape, the
size of supp a and the set of tight sets, and many multidegrees share one:
each call of the oracle or the sweep builds and ranks a shape once, in a
memo that lives as long as the call.  The memo is keyed on tight sets
alone, so the oracle still never reads the formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations
from math import comb
from typing import Optional

from .ideals import MonomialIdeal, require_strongly_stable
from .koszul import CycleLabel, _direct_cycle, koszul_differential
from .linalg import FiniteComplex, lcm_lattice
from .monomials import SpreadVector, free_indices


class BettiTable:
    """Graded Betti numbers beta_{i,j}, either of an ideal or its quotient."""

    def __init__(self, entries: dict[tuple[int, int], int], view: str):
        if view not in ("ideal", "quotient"):
            raise ValueError(f"view must be 'ideal' or 'quotient', got {view!r}")
        self.entries = {k: v for k, v in entries.items() if v}
        self.view = view

    def to_quotient(self) -> "BettiTable":
        if self.view == "quotient":
            return self
        if (0, 0) in self.entries:
            # beta_{0,0} of an ideal is non-zero only for I = S, and S/S = 0
            return BettiTable({}, "quotient")
        shifted = {(i + 1, j): v for (i, j), v in self.entries.items()}
        shifted[(0, 0)] = 1
        return BettiTable(shifted, "quotient")

    def to_ideal(self) -> "BettiTable":
        if self.view == "ideal":
            return self
        if not self.entries:  # S/I = 0 only for I = S
            return BettiTable({(0, 0): 1}, "ideal")
        shifted = {(i - 1, j): v for (i, j), v in self.entries.items() if i >= 1}
        return BettiTable(shifted, "ideal")

    def total(self, i: int) -> int:
        return sum(v for (ii, _), v in self.entries.items() if ii == i)

    def totals(self) -> list[int]:
        if not self.entries:
            return []
        top = max(i for i, _ in self.entries)
        return [self.total(i) for i in range(top + 1)]

    @property
    def projective_dimension(self) -> int:
        if not self.entries:
            raise ValueError("empty table has no projective dimension")
        return max(i for i, _ in self.entries)

    @property
    def regularity(self) -> int:
        if not self.entries:
            raise ValueError("empty table has no regularity")
        return max(j - i for i, j in self.entries)

    def ascii(self) -> str:
        """Rows labelled by j - i, columns by i, '-' marking zero cells."""
        if not self.entries:
            return "(zero table)"
        max_i = max(i for i, _ in self.entries)
        rows = [j - i for i, j in self.entries]
        r_lo, r_hi = min(rows), max(rows)
        head = [""] + [str(i) for i in range(max_i + 1)]
        body = [head, ["total:"] + [str(self.total(i)) for i in range(max_i + 1)]]
        for r in range(r_lo, r_hi + 1):
            cells = [f"{r}:"]
            for i in range(max_i + 1):
                v = self.entries.get((i, i + r), 0)
                cells.append(str(v) if v else "-")
            body.append(cells)
        widths = [max(len(row[c]) for row in body) for c in range(len(head))]
        lines = []
        for row in body:
            first = row[0].ljust(widths[0])
            rest = "  ".join(cell.rjust(widths[c + 1])
                             for c, cell in enumerate(row[1:]))
            lines.append((first + "  " + rest).rstrip())
        return "\n".join(lines)

    def to_json_obj(self) -> dict:
        return {
            "view": self.view,
            "entries": sorted([i, j, v] for (i, j), v in self.entries.items()),
            "totals": self.totals(),
        }

    def __eq__(self, other) -> bool:
        if not isinstance(other, BettiTable):
            return NotImplemented
        return self.view == other.view and self.entries == other.entries

    def __repr__(self) -> str:
        return f"BettiTable({self.view}, {sorted(self.entries.items())})"


def betti_table(ideal: MonomialIdeal, t, view: str = "ideal") -> BettiTable:
    """Graded Betti numbers from the generator formula.

    Each generator u of degree j contributes binom(c, i) to beta_{i,i+j}
    where c counts the indices below max(u) left free by the spread support.
    """
    if view not in ("ideal", "quotient"):
        raise ValueError(f"view must be 'ideal' or 'quotient', got {view!r}")
    t = SpreadVector.coerce(t)
    require_strongly_stable(ideal, t)
    return _formula_table(ideal, t, view)


def _formula_table(ideal: MonomialIdeal, t: SpreadVector,
                   view: str) -> BettiTable:
    """`betti_table` for an ideal already known to be strongly stable."""
    entries: dict[tuple[int, int], int] = {}
    if ideal.is_unit:
        entries[(0, 0)] = 1
    else:
        for u in ideal.generators:
            c = len(free_indices(u, t))
            j = u.degree
            for i in range(c + 1):
                entries[(i, i + j)] = entries.get((i, i + j), 0) + comb(c, i)
    table = BettiTable(entries, "ideal")
    return table if view == "ideal" else table.to_quotient()


def poincare_pd_reg(ideal: MonomialIdeal, t) -> tuple[list[int], int, int]:
    """Total Betti numbers of the ideal plus projective dimension and
    regularity, read off the formula's Betti table."""
    table = betti_table(ideal, t)
    if ideal.is_zero:
        raise ValueError("the zero ideal has no Poincare data")
    return table.totals(), table.projective_dimension, table.regularity


# -- multidegree blocks of the Koszul complex ---------------------------------


# a block's complex and, per degree, each wedge's bitmask over the support
# positions -> its basis position; both depend only on the block's shape
_Shape = tuple[FiniteComplex, list[dict[int, int]]]
# the complex, the support positions (0-based variables) and the wedge index
_Block = tuple[FiniteComplex, list[int], list[dict[int, int]]]


def _koszul_block(ideal: MonomialIdeal, a: tuple[int, ...],
                  shapes: Optional[dict] = None) -> Optional[_Block]:
    """Koszul complex in multidegree a with its wedge index, or None when it
    needs no elimination.

    Each generator dividing x^a gives the bitmask of its tight set over the
    support positions; the wedges kept are those meeting every mask, that
    is every inclusion-minimal one.  No divisor means the full simplex
    (exact for a != 0, H_0 = K at a = 0, which callers count themselves); an
    empty mask means the zero block.  The distinct masks are read off the
    ideal's divisor index (`MonomialIdeal.tight_masks`), with no scan of
    the generators.

    The complex and its wedge index depend only on the shape (|supp a|, set
    of masks), so a caller visiting many multidegrees passes one dict as
    `shapes` and each shape is built and ranked once; only the support is
    per point.
    """
    support = [k for k, ak in enumerate(a) if ak]  # 0-based here
    masks = ideal.tight_masks(a, support)
    if not masks or 0 in masks:
        return None
    key = (len(support), masks)
    if shapes is None:
        shapes = {}
    shape = shapes.get(key)
    if shape is None:
        shape = shapes[key] = _block_shape(*key)
    cx, index = shape
    return cx, support, index


def _block_shape(s: int, masks: frozenset[int]) -> _Shape:
    """The block on s support positions whose divisors have the given tight
    masks.  Each boundary column is emitted as its parity row, and as
    sparse signed columns only when a rank must be taken over Z: the faces
    of a wedge, dropping its support positions from the lowest up, carry
    the signs +1, -1, +1, ..."""
    minimal = [m for m in masks if not any(o != m and o & m == o for o in masks)]

    # the wedges as one bitset over all 2^s of them: bit tau of zeros[p] is
    # set when tau misses position p, so the wedges missing a mask m are
    # the AND of zeros[p] over p in m
    full = (1 << (1 << s)) - 1
    zeros = [full // ((1 << (2 << p)) - 1) * ((1 << (1 << p)) - 1)
             for p in range(s)]
    kept = full
    for m in minimal:
        missing = full
        for p in range(s):
            if m >> p & 1:
                missing &= zeros[p]
        kept &= ~missing
    index: list[dict[int, int]] = [dict() for _ in range(s + 1)]
    while kept:
        low = kept & -kept
        kept ^= low
        tau = low.bit_length() - 1
        wedges = index[tau.bit_count()]
        wedges[tau] = len(wedges)

    def faces(i: int, tau: int) -> list[tuple[int, int]]:
        col, sign, rest = [], 1, tau
        while rest:
            low = rest & -rest
            r = index[i - 1].get(tau ^ low)
            if r is not None:
                col.append((r, sign))
            sign, rest = -sign, rest ^ low
        return col

    # every face carries a sign +-1, so each kept face is an odd entry
    rows = [[sum(1 << r for r, _ in faces(i, tau)) for tau in index[i]]
            for i in range(1, s + 1)]
    return FiniteComplex([len(ix) for ix in index], rows,
                         lambda i: [faces(i, tau) for tau in index[i]]), index


def homology_dimensions(ideal: MonomialIdeal, max_degree: int) -> dict[tuple[int, int], int]:
    """dim_K H_i(x; S/I) in each internal degree q <= max_degree.

    Brute-force oracle: exact ranks of the Koszul differential, computed
    blockwise per multidegree.  Valid for arbitrary monomial ideals.

    Only the lcms of generators are visited.  Take a != 0 that is not the
    lcm b of the generators dividing x^a.  With no divisor the block is a
    full simplex, which is exact.  Otherwise pick k with b_k < a_k: k lies in
    supp a and in no tight set, so tau -> tau with k toggled maps the
    surviving wedges onto themselves, and the block is a cone on k, which is
    exact.  So a block can carry homology only when a is such an lcm.
    """
    if max_degree < 0:
        raise ValueError("max_degree must be non-negative")
    dims: dict[tuple[int, int], int] = {}
    if not ideal.is_unit:
        dims[(0, 0)] = 1  # H_0 = K in multidegree zero
    shapes: dict = {}
    for a in lcm_lattice([g.exponents for g in ideal.generators], max_degree):
        block = _koszul_block(ideal, a, shapes)
        if block is None:
            continue
        cx, q = block[0], sum(a)
        for i in range(len(cx.sizes)):
            h = cx.homology(i)
            if h:
                dims[(i, q)] = dims.get((i, q), 0) + h
    return dims


# -- verification of the distinguished cycles ---------------------------------


@dataclass
class BasisCheckReport:
    ok: bool
    checked_labels: int
    label_counts: dict[tuple[int, int], int]
    homology_counts: dict[tuple[int, int], int]
    failures: list[str] = field(default_factory=list)

    def __str__(self) -> str:
        status = "ok" if self.ok else "FAILED"
        return (f"basis check {status}: {self.checked_labels} cycles; "
                + "; ".join(self.failures[:4]))


def _cycle_column(support: list[int], index: dict[int, int],
                  a: tuple[int, ...], chain) -> Optional[list[tuple[int, int]]]:
    """Sparse integer coordinates of a chain over a block's wedge basis, or
    None when a term falls outside it.  A term x^b e_tau is in the block when
    b + 1_tau = a; its wedge is then read over the support positions of a."""
    col = []
    for (mask, b), coeff in chain._terms.items():
        if b != tuple(ak - (mask >> k & 1) for k, ak in enumerate(a)):
            return None
        r = index.get(sum(1 << p for p, k in enumerate(support) if mask >> k & 1))
        if r is None:
            return None
        col.append((r, coeff))
    return col


def verify_homology_basis(ideal: MonomialIdeal, t, hom_degree: int,
                          internal_degree: int) -> BasisCheckReport:
    """Check the distinguished cycles at one (i, q) spot; see _sweep."""
    if internal_degree < 0:
        raise ValueError("max_degree must be non-negative")
    return _sweep(ideal, t, [internal_degree], hom_degree)


def verify_homology_basis_range(ideal: MonomialIdeal, t,
                                max_internal_degree: int) -> BasisCheckReport:
    """Check the distinguished cycles at every i and q <= the bound."""
    if max_internal_degree < 0:
        raise ValueError("max_degree must be non-negative")
    return _sweep(ideal, t, list(range(1, max_internal_degree + 1)), None)


def _sweep(ideal: MonomialIdeal, t, degrees: list[int],
           hom_filter: Optional[int]) -> BasisCheckReport:
    """Certify, degree by degree and multidegree by multidegree, that the
    labelled cycles are (a) cycles, (b) independent modulo boundaries and
    (c) spanning modulo boundaries.

    The multidegrees visited are the lcms of generators and the multidegrees
    of the labels.  Anywhere else the block is a cone or the full simplex
    (see homology_dimensions), so it has no homology, and with no label
    there (b) and (c) hold trivially.  A label placed elsewhere is still
    visited: its cycle, if non-zero, is a boundary there and fails (b).
    """
    t = SpreadVector.coerce(t)
    require_strongly_stable(ideal, t)
    if hom_filter is not None and hom_filter < 1:
        raise ValueError("homological degree must be at least 1")
    degree_set = set(degrees)
    failures: list[str] = []
    label_counts: dict[tuple[int, int], int] = {}
    homology_counts: dict[tuple[int, int], int] = {}
    checked = 0

    free = {u: free_indices(u, t) for u in ideal.generators}
    max_free = max(map(len, free.values()), default=0)
    hom_range = ([hom_filter] if hom_filter is not None
                 else list(range(1, max_free + 2)))
    if ideal.is_unit:  # S/S = 0 has no labels
        free = {}

    # cycles grouped by multidegree, the labels listed as spread_labels
    # lists them, from one free set per generator
    by_mdeg: dict[tuple[int, ...], list[tuple[CycleLabel, object]]] = {}
    labels = ((i, CycleLabel(u, sigma)) for i in hom_range
              for u, allowed in free.items()
              for sigma in combinations(allowed, i - 1))
    for i, label in labels:
        if label.internal_degree not in degree_set:
            continue
        # the label is built from a free set, so it needs no validation
        chain = _direct_cycle(ideal, label.generator, label.sigma)
        checked += 1
        key = (i, label.internal_degree)
        label_counts[key] = label_counts.get(key, 0) + 1
        if chain.is_zero:
            failures.append(f"cycle of {label} vanished")
            continue
        if not koszul_differential(chain).is_zero:
            failures.append(f"differential of cycle {label} is non-zero")
            continue
        by_mdeg.setdefault(label.multidegree(), []).append((label, chain))

    points = set(by_mdeg).union(
        a for a in lcm_lattice([g.exponents for g in ideal.generators],
                               max(degree_set, default=0))
        if sum(a) in degree_set)
    shapes: dict = {}
    for a in sorted(points, key=lambda a: (sum(a), a)):
        q = sum(a)
        block = _koszul_block(ideal, a, shapes)
        here = by_mdeg.get(a, [])
        if block is None:
            if here:
                failures.append(
                    f"labels {[str(l) for l, _ in here]} land in a "
                    f"homology-free multidegree {a}")
            continue
        cx, support, index = block
        for i in hom_range:
            # a label (u, sigma) of degree i has sigma and max(u) inside
            # supp(a): past the block's top there are no labels, no homology
            if i >= len(cx.sizes):
                continue
            cols = []
            for label, ch in here:
                if label.hom_degree != i:
                    continue
                col = _cycle_column(support, index[i], a, ch)
                if col is None:
                    failures.append(f"cycle {label} leaves its block")
                    continue
                cols.append(col)
            h = cx.homology(i)
            if h:
                key = (i, q)
                homology_counts[key] = homology_counts.get(key, 0) + h
            b_rank = cx.ranks[i + 1]
            # with no cycle appended, the rank is ranks[i + 1] itself
            rows = [sum(1 << r for r, v in col if v & 1) for col in cols]
            if rows and (cx.augmented_rank(i, rows, lambda: cols)
                         != b_rank + len(rows)):
                failures.append(
                    f"cycles at multidegree {a}, i={i} are dependent "
                    f"modulo boundaries")
            kernel = cx.sizes[i] - cx.ranks[i]
            if kernel != b_rank + len(cols):
                failures.append(
                    f"cycles at multidegree {a}, i={i} do not span: "
                    f"kernel {kernel}, boundaries {b_rank}, cycles {len(cols)}")

    ok = not failures
    return BasisCheckReport(ok, checked, label_counts, homology_counts, failures)
