"""Output checks made apart from the program.

None of these calls vecspread.  Each check recounts what it needs from the
ideal's generators (index tuples, as in gen.py) and compares it with the
program's printed output:

* Hilbert functions are counted by listing the standard monomials of S/I
  degree by degree.
* A graded Betti table of S/I must satisfy
  HF(q) = sum_{i,j} (-1)^i beta_{i,j} binom(q - j + n - 1, n - 1).
* Gin of a t-spread strongly stable ideal is its spread-collapse image
  (index k of a generator drops by t_1 + ... + t_{k-1}); it is classically
  strongly stable and keeps the Hilbert function.

Every check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import json
import re
from math import comb

from gen import divides, exchanges, minimal_generators

_LABEL_RE = re.compile(r"^\((.+); \{([0-9,]*)\}\)$")


def parse_mono(text: str) -> tuple[int, ...]:
    if text.strip() == "1":
        return ()
    idx: list[int] = []
    for factor in text.split("*"):
        var, _, exp = factor.strip().partition("^")
        idx.extend([int(var[1:])] * (int(exp) if exp else 1))
    return tuple(sorted(idx))


def hilbert_counts(n: int, gens, max_degree: int) -> list[int]:
    """dim (S/I)_q for q = 0..max_degree by listing standard monomials.

    Standard monomials are closed under division, so each one of degree q+1
    is a standard m times x_k with k >= the last variable of m.  A generator
    g dividing m*x_k but not m has g_k equal to the new exponent of x_k, so
    only those generators are tried.
    """
    exps = [tuple(u.count(k) for k in range(1, n + 1)) for u in gens]
    if any(not any(e) for e in exps):
        return [0] * (max_degree + 1)
    by_slot: dict = {}
    for e in exps:
        for k in range(n):
            if e[k]:
                by_slot.setdefault((k, e[k]), []).append(e)
    level = [((0,) * n, 0)]
    counts = [1]
    for _ in range(max_degree):
        nxt = []
        for m, last in level:
            for k in range(last, n):
                w = m[:k] + (m[k] + 1,) + m[k + 1:]
                if not any(all(a <= b for a, b in zip(g, w))
                           for g in by_slot.get((k, w[k]), ())):
                    nxt.append((w, k))
        level = nxt
        counts.append(len(level))
    return counts


def hilbert_from_betti(entries: dict, n: int, q: int) -> int:
    return sum((-1) ** i * b * comb(q - j + n - 1, n - 1)
               for (i, j), b in entries.items() if q >= j)


def check_betti_entries(entries: dict, n: int, gens, what: str) -> list[str]:
    """The quotient table against the counted Hilbert function."""
    fails = []
    if entries.get((0, 0)) != 1:
        fails.append(f"{what}: beta_0,0 is {entries.get((0, 0))}, not 1")
    # a table change the identity can see already shows by q = max j
    top = max((j for _, j in entries), default=0)
    hf = hilbert_counts(n, gens, top)
    for q in range(top + 1):
        got = hilbert_from_betti(entries, n, q)
        if got != hf[q]:
            fails.append(f"{what}: Hilbert identity fails at q={q}: "
                         f"table gives {got}, counting gives {hf[q]}")
            break
    return fails


def check_certify(job: dict, outputs: list[str], codes: list[int]) -> list[str]:
    n, gens = job["n"], [tuple(g) for g in job["gens"]]
    verify_out, betti_out, basis_out = outputs
    fails = []
    if codes[0] != 0 or verify_out.strip() != "stable: true":
        fails.append(f"verify --class stable: exit {codes[0]}, "
                     f"output {verify_out.strip()[:80]!r}")
    if codes[1] != 0:
        return fails + [f"betti --oracle exited {codes[1]}"]
    betti = json.loads(betti_out)
    if betti.get("oracle") != "match" or betti.get("view") != "quotient":
        fails.append(f"betti: oracle {betti.get('oracle')!r}, "
                     f"view {betti.get('view')!r}")
    entries = {(i, j): v for i, j, v in betti["entries"]}
    fails += check_betti_entries(entries, n, gens, "betti")
    basis = json.loads(basis_out)
    if not basis["ok"]:
        fails.append(f"basis check failed: {basis['failures'][:2]}")
    wanted = {f"{i},{j}": v for (i, j), v in entries.items() if i >= 1}
    if basis["homology_counts"] != wanted or basis["label_counts"] != wanted:
        fails.append(f"basis check counts {basis['homology_counts']} / "
                     f"{basis['label_counts']} differ from the table {wanted}")
    return fails


def graded_ranks(ranks: list[int], bases: list[list[str]]) -> tuple[dict, list[str]]:
    """Graded ranks of the resolution read from its labels (u; sigma):
    the label sits in position |sigma| + 1 and degree deg(u) + |sigma|."""
    entries = {(0, 0): 1}
    fails = []
    for i, labels in enumerate(bases, start=1):
        if ranks[i] != len(labels):
            fails.append(f"rank F{i} = {ranks[i]} but {len(labels)} labels")
        for lab in labels:
            match = _LABEL_RE.match(lab)
            if match is None:
                fails.append(f"unreadable label {lab!r}")
                continue
            sigma = [s for s in match.group(2).split(",") if s]
            if len(sigma) != i - 1:
                fails.append(f"label {lab} in position {i}")
            key = (i, len(parse_mono(match.group(1))) + len(sigma))
            entries[key] = entries.get(key, 0) + 1
    return entries, fails


def check_resolution_payload(payload: dict, n: int, gens) -> list[str]:
    fails = []
    report = payload.get("verification", {})
    if not report.get("ok") or not all(report.get("checks", {}).values()):
        fails.append(f"verify report not ok: {report.get('checks')}")
    ranks = payload["ranks"]
    alternating = sum((-1) ** i * r for i, r in enumerate(ranks))
    if alternating != 0:
        fails.append(f"ranks {ranks} have alternating sum {alternating}")
    entries, bad = graded_ranks(ranks, payload["bases"])
    fails += bad
    fails += check_betti_entries(entries, n, gens, "graded ranks")
    return fails


def check_resolve(job: dict, outputs: list[str], codes: list[int]) -> list[str]:
    if codes[0] != 0:
        return [f"resolution --verify exited {codes[0]}"]
    return check_resolution_payload(json.loads(outputs[0]), job["n"],
                                    [tuple(g) for g in job["gens"]])


def collapse(u: tuple[int, ...], t) -> tuple[int, ...]:
    """Index k of u (1-based position) drops by t_1 + ... + t_{k-1}."""
    out, drop = [], 0
    for k, j in enumerate(u):
        out.append(j - drop)
        if k < len(t):
            drop += t[k]
    return tuple(out)


def classically_strongly_stable(gens) -> bool:
    gens = list(gens)
    return all(any(divides(g, w) for g in gens)
               for u in gens for w in exchanges(u))


def check_gin_generators(n: int, t, gens, got) -> list[str]:
    fails = []
    expected = sorted(minimal_generators(collapse(u, t) for u in gens))
    if sorted(got) != expected:
        fails.append(f"gin {sorted(got)} is not the spread-collapse image "
                     f"{expected}")
    if not classically_strongly_stable(got):
        fails.append("gin is not strongly stable")
    top = max((len(u) for u in gens), default=0) + 2
    if hilbert_counts(n, got, top) != hilbert_counts(n, gens, top):
        fails.append("gin changes the Hilbert function")
    return fails


def check_gin(job: dict, outputs: list[str], codes: list[int]) -> list[str]:
    if codes[0] != 0:
        return [f"gin exited {codes[0]}"]
    payload = json.loads(outputs[0])
    fails = []
    if payload["seed"] != job["gin_seed"] or payload["n"] != job["n"]:
        fails.append(f"gin echoed seed {payload['seed']} n {payload['n']}")
    got = [parse_mono(s) for s in payload["generators"]]
    return fails + check_gin_generators(job["n"], job["t"],
                                        [tuple(g) for g in job["gens"]], got)


def check_shift(job: dict, outputs: list[str], codes: list[int]) -> list[str]:
    if codes[0] != 0:
        return [f"shift --verify exited {codes[0]}"]
    payload = json.loads(outputs[0])
    fails = []
    got = sorted(parse_mono(s) for s in payload["generators"])
    if got != sorted(tuple(g) for g in job["gens"]):
        fails.append(f"shift to its own t moved the ideal to {got}")
    props = payload.get("properties", {})
    for name in ("strongly_stable", "fixed_point", "hilbert_function"):
        if props.get(name) is not True:
            fails.append(f"shift property {name} = {props.get(name)}")
    return fails


CHECKS = {"certify": check_certify, "resolve": check_resolve,
          "gin": check_gin, "shift": check_shift}
