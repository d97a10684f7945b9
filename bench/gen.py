"""Seeded ideals and job lists for the three benchmark workloads.

Everything here is the benchmark's own combinatorics on index tuples
(x1*x2^2 is (1, 2, 2)); nothing is imported from vecspread, so the inputs
stay the same whatever a later change does to the program.

A make-up fixes an ideal's ambient n, spread vector t, the degrees of the
random t-spread monomials whose strongly stable closure is taken, the exact
number of minimal generators and the top degree max(deg u + free(u)) of the
Betti table.  Strongly stable ideals are so rigid that a make-up holds one
to a few ideals.  A job slot offers one or two make-ups of nearly equal cost;
the workload seed picks one of them and then one ideal of it, and it draws
the --seed of every gin and shift job.  So the seed changes the inputs while
a job's cost, and the round's, stays close to the same on every seed, which
is what lets ten seeds agree within the benchmark's bounds.
"""

from __future__ import annotations

import random
from collections import Counter

Mono = tuple[int, ...]

MAX_TRIES = 20000


def is_spread(u: Mono, t: tuple[int, ...]) -> bool:
    if len(u) > len(t) + 1:
        return False
    return all(u[i + 1] - u[i] >= t[i] for i in range(len(u) - 1))


def spread_monomials(n: int, degree: int, t: tuple[int, ...]) -> list[Mono]:
    out: list[Mono] = []

    def rec(prefix: Mono, lo: int) -> None:
        if len(prefix) == degree:
            out.append(prefix)
            return
        pos = len(prefix)
        for j in range(lo, n + 1):
            rec(prefix + (j,), j + (t[pos] if pos < degree - 1 else 0))

    rec((), 1)
    return out


def exchanges(u: Mono):
    """x_j * u / x_i for i in supp(u), j < i (not yet filtered by spread)."""
    for i in sorted(set(u)):
        rest = list(u)
        rest.remove(i)
        for j in range(1, i):
            yield tuple(sorted(rest + [j]))


def borel_closure(seeds, t) -> set[Mono]:
    """All t-spread monomials reachable from the seeds by exchange moves."""
    closed: set[Mono] = set()
    frontier = list(seeds)
    while frontier:
        u = frontier.pop()
        if u in closed:
            continue
        closed.add(u)
        frontier.extend(w for w in exchanges(u)
                        if is_spread(w, t) and w not in closed)
    return closed


def divides(a: Mono, b: Mono) -> bool:
    ca, cb = Counter(a), Counter(b)
    return all(cb[k] >= e for k, e in ca.items())


def minimal_generators(monos) -> list[Mono]:
    kept: list[Mono] = []
    for m in sorted(monos, key=lambda m: (len(m), m)):
        if not any(divides(k, m) for k in kept):
            kept.append(m)
    return sorted(kept)


def fmt(u: Mono) -> str:
    if not u:
        return "1"
    return "*".join(f"x{k}" if e == 1 else f"x{k}^{e}"
                    for k, e in sorted(Counter(u).items()))


def free_count(u: Mono, t) -> int:
    """Indices below max(u) outside the t-spread support of u.

    Only sizes jobs; no output check relies on it.
    """
    covered = set()
    for i in range(len(u) - 1):
        covered.update(range(u[i], u[i] + t[i]))
    return sum(1 for k in range(1, u[-1]) if k not in covered)


def top_degree(gens, t) -> int:
    """Largest deg(u) + free_count(u): the top internal degree of the Betti
    table, used to size the basis sweep of a certify job."""
    return max(len(u) + free_count(u, t) for u in gens)


def draw_ideal(rng: random.Random, n: int, t, seed_degrees, gens: int,
               top: int, taken: set) -> list[Mono]:
    """A t-spread strongly stable ideal with exactly `gens` minimal generators
    and top degree `top`, the closure of random t-spread monomials of the
    given degrees, not in `taken`."""
    pools = {d: spread_monomials(n, d, t) for d in set(seed_degrees)}
    for _ in range(MAX_TRIES):
        seeds = [rng.choice(pools[d]) for d in seed_degrees]
        g = minimal_generators(borel_closure(seeds, t))
        key = tuple(g)
        if len(g) == gens and top_degree(g, t) == top and key not in taken:
            taken.add(key)
            return g
    raise RuntimeError(f"no ideal with {gens} generators for n={n} t={t} "
                       f"seed degrees {seed_degrees}")


# -- workloads ------------------------------------------------------------------
#
# A make-up is (n, t, seed degrees, generator count, top degree); a slot
# lists one or two.  No two make-ups of a workload share an ideal, so no job
# repeats.  The comments give one-job times on the 2-core x86 VM where the
# benchmark was made: for certify and resolve, the scaled job times of
# ten runs, from which pairs within 12 % of each other were formed; for gin
# and shift, one gin call.

CERTIFY_SLOTS = [
    [(6, (1, 0, 1), (2, 3), 3, 3)],  # ~0.013 s
    [(5, (0, 2, 1), (2,), 6, 4)],  # ~0.016 s
    [(6, (1, 2), (2,), 3, 4), (5, (0, 1, 2), (2, 3), 5, 4)],  # ~0.018 / 0.018 s
    [(5, (0, 2), (2,), 4, 5), (7, (2, 0, 1), (2,), 3, 4)],  # ~0.022 / 0.024 s
    [(5, (1, 0, 2), (3,), 5, 5), (6, (1, 0, 2), (2,), 5, 4)],  # ~0.024 / 0.025 s
    [(5, (2, 0, 0), (3,), 6, 5), (5, (1, 2), (2,), 9, 5)],  # ~0.026 / 0.027 s
    [(7, (0, 2), (3,), 3, 5), (7, (0, 2, 1), (4,), 4, 5)],  # ~0.028 / 0.030 s
    [(6, (2, 0, 0), (3,), 3, 5), (7, (0, 1, 2), (4,), 5, 5)],  # ~0.030 / 0.032 s
    [(7, (2, 1), (2,), 5, 4), (5, (2, 0, 1), (3,), 9, 5)],  # ~0.032 / 0.033 s
    [(6, (0, 2, 1), (3,), 5, 5), (6, (0, 1, 2), (4,), 3, 6)],  # ~0.035 / 0.036 s
    [(7, (1, 0, 1), (2,), 6, 4), (7, (2, 0, 0), (2,), 6, 4)],  # ~0.036 / 0.036 s
    [(5, (0, 2, 1), (2,), 12, 6), (6, (2, 0, 1), (3,), 5, 5)],  # ~0.037 / 0.038 s
    [(6, (2, 1), (2,), 4, 5), (6, (0, 2), (3,), 4, 6)],  # ~0.040 / 0.044 s
    [(5, (1, 0, 1), (4,), 6, 6), (6, (1, 2), (3,), 6, 5)],  # ~0.044 / 0.047 s
    [(6, (2, 1), (3,), 6, 5), (7, (1, 2), (3,), 3, 5)],  # ~0.047 / 0.048 s
    [(6, (0, 2, 1), (2,), 9, 5), (6, (0, 1, 2), (2,), 10, 5)],  # ~0.051 / 0.052 s
    [(6, (2, 0, 1), (2, 3), 6, 5), (5, (0, 1, 2), (2, 3), 11, 6)],  # ~0.053 / 0.054 s
    [(7, (1, 0, 2), (4,), 3, 6), (7, (2, 1), (3,), 5, 5)],  # ~0.061 / 0.068 s
    [(7, (0, 2, 1), (3,), 6, 5), (7, (1, 2), (3,), 5, 5)],  # ~0.068 / 0.069 s
    [(8, (2, 1), (3,), 3, 5), (6, (0, 2), (2,), 5, 6)],  # ~0.074 / 0.082 s
    [(6, (1, 0, 2), (2,), 5, 6), (6, (1, 2), (2,), 15, 6)],  # ~0.082 / 0.089 s
    [(6, (1, 0, 2), (2,), 14, 6), (7, (0, 2), (2,), 7, 5)],  # ~0.093 / 0.094 s
    [(6, (0, 1, 2), (2,), 9, 6), (6, (1, 0, 1), (2,), 9, 6)],  # ~0.095 / 0.097 s
    [(7, (2, 0, 1), (2,), 7, 5), (6, (2, 0, 1), (3,), 7, 6)],  # ~0.099 / 0.106 s
    [(7, (1, 0, 2), (2,), 10, 5), (7, (2, 0, 0), (2,), 10, 5)],  # ~0.110 / 0.110 s
    [(6, (2, 0, 0), (4,), 15, 6)],  # ~0.116 s
    [(7, (2, 0, 1), (4,), 7, 6), (7, (0, 1, 2), (4,), 7, 6)],  # ~0.144 / 0.145 s
    [(6, (1, 0, 1), (3,), 16, 6), (6, (0, 2, 1), (2,), 6, 7)],  # ~0.152 / 0.155 s
    [(6, (0, 2), (3,), 20, 6), (8, (1, 0, 2), (2,), 7, 5)],  # ~0.167 / 0.167 s
    [(7, (1, 2), (3,), 4, 6), (7, (2, 1), (3,), 4, 6)],  # ~0.168 / 0.168 s
    [(8, (2, 0, 0), (2,), 9, 5), (7, (0, 1, 2), (2,), 15, 6)],  # ~0.192 / 0.194 s
    [(7, (0, 2), (2,), 14, 6), (7, (2, 0, 0), (2,), 15, 6)],  # ~0.198 / 0.206 s
    [(7, (2, 0, 1), (2,), 14, 6), (7, (2, 1), (2,), 9, 6)],  # ~0.220 / 0.221 s
    [(7, (1, 0, 2), (2,), 12, 6), (7, (0, 2), (2,), 21, 7)],  # ~0.228 / 0.248 s
    [(6, (2, 0, 0), (4,), 13, 7), (7, (0, 2, 1), (2,), 20, 7)],  # ~0.254 / 0.265 s
    [(6, (0, 1, 2), (3, 4), 35, 7), (7, (1, 0, 1), (2,), 21, 7)],  # ~0.276 / 0.281 s
    [(7, (1, 0, 1), (2,), 20, 7), (7, (0, 2, 1), (2,), 18, 7)],  # ~0.300 / 0.307 s
    [(7, (0, 1, 2), (2,), 27, 8), (7, (1, 2), (3,), 16, 6)],  # ~0.319 / 0.352 s
    [(8, (2, 0, 0), (2,), 5, 6), (7, (1, 0, 1), (2,), 15, 7)],  # ~0.379 / 0.387 s
    [(7, (0, 1, 2), (4,), 10, 7), (7, (1, 0, 2), (2,), 6, 7)],  # ~0.399 / 0.410 s
]

# make-up plus --max-degree
RESOLVE_SLOTS = [
    [(6, (1, 1), (3,), 3, 5, 6), (5, (1, 0, 0), (2,), 3, 3, 6)],  # ~0.014 / 0.015 s
    [(5, (1, 0), (3,), 4, 6, 6), (5, (1, 0), (3,), 5, 5, 6)],  # ~0.016 / 0.016 s
    [(5, (1, 1, 1), (2,), 3, 4, 6), (5, (1, 1), (3,), 5, 5, 6)],  # ~0.017 / 0.018 s
    [(6, (1, 0), (3,), 3, 5, 6)],  # ~0.018 s
    [(6, (1, 1, 0), (3,), 4, 4, 6)],  # ~0.020 s
    [(5, (1, 1, 1), (3,), 6, 5, 6), (6, (1, 1, 1), (3,), 4, 6, 6)],  # ~0.022 / 0.023 s
    [(5, (1, 1, 0), (2, 3), 5, 5, 6)],  # ~0.024 s
    [(6, (1, 0, 0), (3,), 6, 5, 6), (5, (1, 1, 0), (2,), 4, 5, 6)],  # ~0.028 / 0.028 s
    [(5, (1, 1, 0), (2,), 5, 4, 6), (5, (1, 0, 0), (2, 4), 6, 7, 6)],  # ~0.030 / 0.031 s
    [(5, (1, 0), (2, 3), 6, 5, 6), (5, (1, 0, 0), (3,), 7, 6, 6)],  # ~0.031 / 0.031 s
    [(5, (1, 1), (3, 3), 8, 5, 6), (5, (1, 0), (2, 3), 6, 6, 6)],  # ~0.032 / 0.034 s
    [(5, (1, 0, 0), (4,), 15, 6, 6), (5, (1, 0, 0), (4,), 13, 7, 6)],  # ~0.037 / 0.037 s
    [(5, (1, 1, 0), (2,), 6, 4, 6), (6, (1, 1), (2, 3, 3), 6, 5, 6)],  # ~0.041 / 0.043 s
    [(6, (1, 1, 1), (3,), 7, 6, 6), (5, (1, 0), (3,), 9, 6, 6)],  # ~0.045 / 0.047 s
    [(5, (1, 0), (2, 3, 3), 8, 6, 6), (5, (1, 0, 0), (4,), 16, 7, 6)],  # ~0.050 / 0.053 s
    [(5, (1, 1, 0), (2,), 7, 5, 6), (6, (1, 0, 0), (4,), 13, 8, 6)],  # ~0.062 / 0.063 s
    [(5, (1, 0, 0), (4,), 19, 7, 6), (6, (1, 0), (3,), 10, 6, 6)],  # ~0.070 / 0.070 s
    [(6, (1, 1, 1), (3,), 10, 6, 6), (6, (1, 1, 1), (2,), 5, 6, 6)],  # ~0.076 / 0.077 s
    [(5, (1, 0, 0), (4,), 20, 7, 6), (5, (1, 0), (2, 3), 11, 6, 6)],  # ~0.078 / 0.085 s
    [(5, (1, 0), (3,), 14, 6, 6)],  # ~0.087 s
    [(6, (1, 0, 0), (2, 3), 8, 7, 6)],  # ~0.102 s
    [(6, (1, 1, 0), (2, 3), 11, 6, 6), (5, (1, 1, 0), (2,), 10, 5, 6)],  # ~0.122 / 0.123 s
    [(6, (1, 0), (3,), 12, 7, 6), (6, (1, 1, 0), (2, 2), 8, 6, 6)],  # ~0.125 / 0.130 s
    [(6, (1, 0), (3,), 13, 7, 6), (5, (1, 0, 0), (3,), 19, 6, 6)],  # ~0.139 / 0.141 s
    [(6, (1, 1, 0), (2,), 9, 5, 6), (6, (1, 0, 0), (3,), 16, 6, 6)],  # ~0.148 / 0.150 s
    [(6, (1, 1, 0), (2, 3), 13, 6, 6), (6, (1, 0, 0), (3, 3), 14, 7, 6)],  # ~0.158 / 0.161 s
    [(6, (1, 1, 1), (3,), 16, 6, 6), (7, (1, 1, 1), (3,), 14, 6, 6)],  # ~0.161 / 0.170 s
    [(7, (1, 1, 0), (3,), 12, 7, 6), (6, (1, 1, 0), (2,), 9, 6, 6)],  # ~0.176 / 0.184 s
    [(7, (1, 1, 0), (3,), 13, 7, 6), (7, (1, 1, 0), (2,), 6, 7, 6)],  # ~0.186 / 0.193 s
    [(6, (1, 0, 0), (3, 3), 20, 6, 6), (7, (1, 1), (3, 3), 14, 7, 6)],  # ~0.214 / 0.215 s
    [(6, (1, 1, 1), (3,), 19, 6, 6), (6, (1, 0, 0), (4,), 34, 7, 6)],  # ~0.228 / 0.232 s
    [(6, (1, 1, 0), (3,), 20, 6, 6), (6, (1, 0), (3,), 19, 7, 6)],  # ~0.241 / 0.263 s
    [(6, (1, 1, 1), (2,), 12, 6, 6), (7, (1, 0, 0), (2, 3), 11, 7, 6)],  # ~0.304 / 0.311 s
    [(6, (1, 0, 0), (2, 3, 3), 15, 7, 6), (6, (1, 0), (3, 3), 22, 7, 6)],  # ~0.319 / 0.324 s
    [(6, (1, 0), (3,), 23, 7, 6), (7, (1, 1, 1), (3,), 19, 7, 6)],  # ~0.352 / 0.356 s
    [(6, (1, 1, 0), (2,), 14, 6, 6), (6, (1, 0), (3, 3), 25, 7, 6)],  # ~0.412 / 0.431 s
    [(6, (1, 0, 0), (2, 3, 3), 21, 7, 6), (8, (1, 0, 0), (2,), 7, 8, 6)],  # ~0.448 / 0.475 s
    [(6, (1, 1, 0), (2,), 15, 6, 6), (6, (1, 0, 0), (3, 3), 28, 7, 6)],  # ~0.501 / 0.509 s
    [(7, (1, 1, 0), (3,), 25, 7, 6), (6, (1, 0, 0), (3, 4), 31, 7, 6)],  # ~0.600 / 0.615 s
]

# W8 of the ROADMAP: the (1,1,0)-spread strongly stable ideal of n = 8 spanned
# by x3*x4*x6*x8, 63 quartic generators.  It is the one make-up with a single
# ideal, so it is the same job on every seed.
W8 = (8, (1, 1, 0), (3, 4, 6, 8))
W8_MAX_DEGREE = 5                         # ~1.1 s

# the 40 cheapest make-ups with 7 to 20 generators in n = 5-6 among those
# sampled when the benchmark was made, alternately for gin jobs and
# shift --verify jobs
GIN_SLOTS = [
    [(5, (1, 0, 0), (2,), 7, 5)],  # ~0.081 s
    [(5, (0, 0), (2, 2), 8, 6)],  # ~0.099 s
    [(5, (0, 0), (2, 3), 8, 7)],  # ~0.106 s
    [(5, (1, 0, 0), (2, 3), 9, 5)],  # ~0.141 s
    [(5, (1, 0), (2, 3), 9, 6)],  # ~0.150 s
    [(5, (2, 0), (2, 3), 7, 5)],  # ~0.167 s
    [(5, (1, 0, 0), (3,), 7, 5)],  # ~0.179 s
    [(6, (1, 2), (2, 3), 9, 6)],  # ~0.195 s
    [(5, (0, 1), (3,), 7, 5)],  # ~0.200 s
    [(5, (0, 2), (3,), 7, 5)],  # ~0.208 s
    [(5, (0, 1), (2, 3), 11, 6)],  # ~0.235 s
    [(6, (1, 0), (2, 3), 8, 7)],  # ~0.243 s
    [(5, (2, 0), (3,), 7, 5)],  # ~0.254 s
    [(5, (0, 0, 0), (3,), 9, 5)],  # ~0.263 s
    [(5, (0, 1), (2, 3), 10, 6)],  # ~0.279 s
    [(6, (2, 0), (2, 3), 9, 6)],  # ~0.289 s
    [(5, (0, 1), (3,), 9, 6)],  # ~0.308 s
    [(6, (2, 0), (2,), 10, 5)],  # ~0.316 s
    [(5, (0, 2), (3,), 9, 5)],  # ~0.333 s
    [(6, (0, 0, 0), (2,), 11, 7)],  # ~0.342 s
]

SHIFT_SLOTS = [
    [(5, (0,), (2, 2), 7, 5)],  # ~0.081 s
    [(5, (1, 0), (2, 3), 7, 6)],  # ~0.103 s
    [(5, (0, 0), (2, 2), 9, 6)],  # ~0.132 s
    [(5, (0, 2), (2,), 9, 5)],  # ~0.146 s
    [(6, (1, 2), (2, 2), 8, 6)],  # ~0.153 s
    [(5, (1, 0, 0), (3,), 7, 6)],  # ~0.169 s
    [(5, (0, 2), (2,), 10, 5)],  # ~0.186 s
    [(5, (1, 0), (2, 3), 10, 5)],  # ~0.197 s
    [(5, (0, 0, 0), (3,), 7, 5)],  # ~0.204 s
    [(5, (1, 0, 0), (2, 3), 10, 6)],  # ~0.215 s
    [(5, (0, 1), (3,), 7, 6)],  # ~0.239 s
    [(6, (2, 0), (2,), 9, 5)],  # ~0.249 s
    [(5, (1, 1), (3,), 7, 5)],  # ~0.262 s
    [(5, (2, 0), (3,), 9, 5)],  # ~0.277 s
    [(5, (1, 0, 0), (3,), 9, 6)],  # ~0.279 s
    [(5, (1, 1, 0), (3,), 9, 5)],  # ~0.302 s
    [(5, (1, 0, 0), (3,), 9, 5)],  # ~0.312 s
    [(5, (0, 0, 0), (3,), 9, 6)],  # ~0.323 s
    [(5, (1, 0), (2, 3), 11, 6)],  # ~0.334 s
    [(5, (0, 0, 0), (2, 3), 12, 6)],  # ~0.350 s
]

WORKLOADS = ("certify", "resolve", "shift")


def build_jobs(workload: str, seed: int) -> list[dict]:
    """The workload's job list for one seed: distinct ideals, in slot order."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    taken: set = set()
    jobs: list[dict] = []

    def add(kind, n, t, gens, **extra):
        jobs.append({"id": f"{kind}{len(jobs):02d}", "kind": kind, "n": n,
                     "t": list(t), "gens": [list(u) for u in gens], **extra})

    def fill(slots):
        for slot in slots:
            n, t, degs, g, top, *rest = rng.choice(slot)
            yield n, t, draw_ideal(rng, n, t, degs, g, top, taken), top, rest

    if workload == "certify":
        for n, t, gens, top, _ in fill(CERTIFY_SLOTS):
            add("certify", n, t, gens, top=top)
    elif workload == "resolve":
        for n, t, gens, _, (max_degree,) in fill(RESOLVE_SLOTS):
            add("resolve", n, t, gens, max_degree=max_degree)
        n, t, u = W8
        add("resolve", n, t, minimal_generators(borel_closure([u], t)),
            max_degree=W8_MAX_DEGREE)
    else:
        for kind, slots in (("gin", GIN_SLOTS), ("shift", SHIFT_SLOTS)):
            for n, t, gens, _, _ in fill(slots):
                add(kind, n, t, gens, gin_seed=rng.randrange(2 ** 32))
    return jobs
