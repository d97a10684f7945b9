"""The benchmark's output checks on the paper's two worked examples.

    python3 -m pytest bench/test_checks.py
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))

import checks  # noqa: E402
from checks import parse_mono  # noqa: E402

# (x1, x2*x3^2, x2*x3*x4*x6, x2*x4^2*x6) in n = 6, t = (1,0,2)
SPREAD_N = 6
SPREAD_GENS = [parse_mono(s) for s in ("x1", "x2*x3^2", "x2*x3*x4*x6", "x2*x4^2*x6")]
SPREAD_TABLE = {(0, 0): 1, (1, 1): 1, (1, 3): 1, (1, 4): 2,
                (2, 4): 1, (2, 5): 4, (3, 6): 2}

# (x1*x2, x1*x3, x1*x4^2) in n = 4, t = (1,0)
RES_N = 4
RES_T = [1, 0]
RES_GENS = [parse_mono(s) for s in ("x1*x2", "x1*x3", "x1*x4^2")]
RES_PAYLOAD = {
    "ranks": [1, 3, 3, 1],
    "bases": [["(x1*x2; {})", "(x1*x3; {})", "(x1*x4^2; {})"],
              ["(x1*x3; {2})", "(x1*x4^2; {2})", "(x1*x4^2; {3})"],
              ["(x1*x4^2; {2,3})"]],
    "verification": {"ok": True, "checks": {"complex": True, "exactness": True}},
}


def test_hilbert_counts_by_hand():
    # S/(x1*x2) in two variables: 1, 2, 2, 2, ...
    assert checks.hilbert_counts(2, [(1, 2)], 4) == [1, 2, 2, 2, 2]
    assert checks.hilbert_counts(3, [()], 2) == [0, 0, 0]


def test_spread_example_table_passes():
    totals = [sum(v for (i, _), v in SPREAD_TABLE.items() if i == k)
              for k in range(4)]
    assert totals == [1, 4, 5, 2]
    assert checks.check_betti_entries(SPREAD_TABLE, SPREAD_N, SPREAD_GENS, "t") == []


def test_altered_tables_are_rejected():
    wrong_value = dict(SPREAD_TABLE)
    wrong_value[(2, 5)] = 3
    assert checks.check_betti_entries(wrong_value, SPREAD_N, SPREAD_GENS, "t")
    # same totals 1,4,5,2, one entry moved to another internal degree
    moved = dict(SPREAD_TABLE)
    moved[(2, 5)] -= 1
    moved[(2, 6)] = 1
    assert checks.check_betti_entries(moved, SPREAD_N, SPREAD_GENS, "t")


def test_resolution_example_passes():
    assert checks.check_resolution_payload(RES_PAYLOAD, RES_N, RES_GENS) == []


def test_altered_resolutions_are_rejected():
    shifted = dict(RES_PAYLOAD, bases=[list(b) for b in RES_PAYLOAD["bases"]])
    shifted["bases"][1][0] = "(x1*x4^2; {1})"      # degree 4 for degree 3
    assert checks.check_resolution_payload(shifted, RES_N, RES_GENS)
    extra = dict(RES_PAYLOAD, ranks=[1, 3, 3, 2])
    assert checks.check_resolution_payload(extra, RES_N, RES_GENS)
    failed = dict(RES_PAYLOAD, verification={"ok": False, "checks": {}})
    assert checks.check_resolution_payload(failed, RES_N, RES_GENS)


def test_gin_of_resolution_example():
    # spread collapse of (x1*x2, x1*x3, x1*x4^2) under t = (1,0)
    gin = [parse_mono(s) for s in ("x1^2", "x1*x2", "x1*x3^2")]
    assert checks.check_gin_generators(RES_N, RES_T, RES_GENS, gin) == []
    assert checks.check_gin_generators(RES_N, RES_T, RES_GENS, gin[:2] + [(1, 3, 4)])
    # the input itself is not the gin: it is not classically strongly stable
    assert checks.check_gin_generators(RES_N, RES_T, RES_GENS, RES_GENS)
