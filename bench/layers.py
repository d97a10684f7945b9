"""Per-layer tracing for the traced run, installed from outside the program.

The layers are the modules under src/vecspread/.  Tracer.install() replaces
each function named in SPANS by a wrapper that records a span: its calls
and its self time (duration minus the part covered by child spans).  A
function imported with `from .x import f` is bound a second time in the
importing module, so every vecspread module that holds the same object gets
the wrapper.  contains_exponents is too hot for spans: it is only counted.
rank_int materialises its rows before its span opens, so the caller's row
generator stays in the caller's time, then counts rows x cols handed in.

A name that no longer exists is reported as absent and reads 0.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict

SPANS = [
    "cli.main",
    "cli.parse_ideal_file",
    "monomials.spread_monomials",
    "ideals.strongly_stable_violation",
    "ideals.hilbert_function",
    "koszul.homology_basis_labels",
    "koszul.koszul_cycle",
    "koszul.koszul_differential",
    "betti.betti_table",
    "betti.homology_dimensions",
    "betti.verify_homology_basis_range",
    "linalg.rank_int",
    "resolution.build_resolution",
    "resolution.verify_resolution",
    "resolution.MonomialMatrix.compose",
    "gin.gin",
    "gin.initial_ideal",
    "gin.buchberger",
    "gin.normal_form",
    "gin.CoordinateChange.monomial_image",
    "gin.verify_shift_properties",
    "spreadmaps.apply_spread_map_ideal",
]
# metric name -> where the counted function lives
COUNTED = {"ideals.contains_exponents": "ideals.MonomialIdeal.contains_exponents"}

# (metric, unit); the names the benchmark reports with --trace 1
METRICS = [
    ("cli.main.self_s", "s"),
    ("cli.parse_ideal_file.self_s", "s"),
    ("monomials.spread_monomials.calls", "count"),
    ("monomials.spread_monomials.self_s", "s"),
    ("ideals.contains_exponents.calls", "count"),
    ("ideals.strongly_stable_violation.calls", "count"),
    ("ideals.strongly_stable_violation.self_s", "s"),
    ("ideals.hilbert_function.calls", "count"),
    ("ideals.hilbert_function.self_s", "s"),
    ("koszul.homology_basis_labels.self_s", "s"),
    ("koszul.koszul_cycle.calls", "count"),
    ("koszul.koszul_cycle.self_s", "s"),
    ("koszul.koszul_differential.self_s", "s"),
    ("betti.betti_table.self_s", "s"),
    ("betti.homology_dimensions.self_s", "s"),
    ("betti.verify_homology_basis_range.self_s", "s"),
    ("linalg.rank_int.calls", "count"),
    ("linalg.rank_int.self_s", "s"),
    ("linalg.rank_int.cells", "count"),
    ("linalg.rank_int.max_cells", "count"),
    ("resolution.build_resolution.self_s", "s"),
    ("resolution.verify_resolution.self_s", "s"),
    ("resolution.MonomialMatrix.compose.self_s", "s"),
    ("gin.gin.calls", "count"),
    ("gin.initial_ideal.calls", "count"),
    ("gin.attempts_per_gin", "ratio"),
    ("gin.buchberger.self_s", "s"),
    ("gin.normal_form.calls", "count"),
    ("gin.normal_form.self_s", "s"),
    ("gin.CoordinateChange.monomial_image.self_s", "s"),
    ("gin.verify_shift_properties.self_s", "s"),
    ("spreadmaps.apply_spread_map_ideal.self_s", "s"),
]


def _resolve(name: str):
    """(owner, attribute, object) for 'module.attr' or 'module.Class.attr'."""
    parts = name.split(".")
    module = sys.modules.get("vecspread." + parts[0])
    owner = module
    for part in parts[1:-1]:
        owner = getattr(owner, part, None)
    if owner is None or not hasattr(owner, parts[-1]):
        return None
    return owner, parts[-1], getattr(owner, parts[-1])


def _bind(owner, attr: str, original, wrapper) -> None:
    """Put the wrapper wherever vecspread holds the original."""
    if isinstance(owner, type):
        setattr(owner, attr, wrapper)
        return
    for modname, module in list(sys.modules.items()):
        if modname == "vecspread" or modname.startswith("vecspread."):
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)


class Tracer:
    def __init__(self):
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.cells = 0
        self.max_cells = 0
        self.absent: list[str] = []
        self._stack: list[list[float]] = []

    def _span(self, name: str, fn):
        stack, calls, self_s = self._stack, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                spent = clock() - start
                stack.pop()
                calls[name] += 1
                self_s[name] += spent - frame[0]
                if stack:
                    stack[-1][0] += spent
        return wrapper

    def _rank_int(self, fn):
        timed = self._span("linalg.rank_int", fn)

        def wrapper(rows):
            rows = [list(r) for r in rows]
            cells = len(rows) * (len(rows[0]) if rows else 0)
            self.cells += cells
            self.max_cells = max(self.max_cells, cells)
            return timed(rows)
        return wrapper

    def _counted(self, name: str, fn):
        calls = self.calls

        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    def install(self) -> None:
        for name in SPANS + list(COUNTED):
            found = _resolve(COUNTED.get(name, name))
            if found is None:
                self.absent.append(name)
                continue
            owner, attr, original = found
            if name in COUNTED:
                wrapper = self._counted(name, original)
            elif name == "linalg.rank_int":
                wrapper = self._rank_int(original)
            else:
                wrapper = self._span(name, original)
            _bind(owner, attr, original, wrapper)

    def summary(self) -> dict:
        """Metric name -> value, every name in METRICS, plus the absent list."""
        out: dict = {"absent": self.absent}
        for metric, _ in METRICS:
            base, _, stat = metric.rpartition(".")
            if stat == "calls":
                out[metric] = self.calls.get(base, 0)
            elif stat == "self_s":
                out[metric] = self.self_s.get(base, 0.0)
        out["linalg.rank_int.cells"] = self.cells
        out["linalg.rank_int.max_cells"] = self.max_cells
        gins = self.calls.get("gin.gin", 0)
        out["gin.attempts_per_gin"] = (
            self.calls.get("gin.initial_ideal", 0) / (2 * gins) if gins else 0.0)
        return out
