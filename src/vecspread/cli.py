"""Command-line front end.

Subcommands: enumerate, verify, betti, homology-basis, resolution, gin,
shift.  Results go to stdout, diagnostics to stderr; exit code 0 means
success (or property holds), 1 means a property violation with a witness,
2 means a usage or input error.

Every setting is a flag with its default declared on it (`--help` lists
them); no environment variable is read, so a printed command line, with the
seed that gin and shift print, reproduces its result.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from typing import Optional

from .betti import betti_table, homology_dimensions
from .gin import GenericityError, gin, shift, verify_shift_properties
from .ideals import (
    MonomialIdeal,
    ideal_from_dict,
    ideal_to_dict,
    lex_violation,
    stable_violation,
    strongly_stable_violation,
)
from .koszul import homology_basis_labels, koszul_cycle
from .monomials import (
    SpreadVector,
    count_spread_monomials,
    format_monomial,
    is_spread,
    spread_monomials,
)
from .resolution import build_resolution, verify_resolution


def _parse_t(text: str) -> SpreadVector:
    try:
        entries = tuple(int(p) for p in text.split(","))
        return SpreadVector(entries)
    except ValueError as exc:
        raise ValueError(f"bad spread vector {text!r}: {exc}") from None


def parse_ideal_file(path: str) -> tuple[MonomialIdeal, Optional[SpreadVector]]:
    """Load an ideal record {"n":…, "t":[…], "generators":[…]} from JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ValueError(f"{path} is not valid JSON: {exc}") from None
    ideal, t = ideal_from_dict(payload)
    if t is not None:
        for g in ideal.generators:
            if not is_spread(g, t):
                raise ValueError(
                    f"generator {format_monomial(g)} is not {t}-spread")
    return ideal, t


def _need_t(t: Optional[SpreadVector], what: str) -> SpreadVector:
    if t is None:
        raise ValueError(f"{what} needs a spread vector; give the ideal file "
                         f"a non-empty \"t\"")
    return t


def _emit(obj: dict, text: str, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(obj, indent=2, sort_keys=True))
    else:
        print(text)


# -- subcommands ----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    t = _parse_t(args.t)
    monos = spread_monomials(args.n, args.deg, t)
    count = count_spread_monomials(args.n, args.deg, t)
    lines = [format_monomial(m) for m in monos]
    _emit({"monomials": lines, "count": count},
          "\n".join(lines + [f"count: {count}"]), args.format)
    return 0


def _cmd_verify(args) -> int:
    ideal, t = parse_ideal_file(args.ideal)
    t = _need_t(t, "class verification")
    checker = {
        "stable": stable_violation,
        "strongly-stable": strongly_stable_violation,
        "lex": lex_violation,
    }[args.cls]
    witness = checker(ideal, t)
    holds = witness is None
    _emit({"class": args.cls, "holds": holds,
           "witness": None if holds else str(witness)},
          f"{args.cls}: {'true' if holds else 'false'}"
          + ("" if holds else f"\nwitness: {witness}"),
          args.format)
    return 0 if holds else 1


def _cmd_betti(args) -> int:
    ideal, t = parse_ideal_file(args.ideal)
    t = _need_t(t, "the Betti formula")
    table = betti_table(ideal, t, view=args.module)
    text = table.ascii()
    payload = table.to_json_obj()
    code = 0
    if args.oracle:
        bound = max((j for _, j in table.entries), default=0)
        dims = homology_dimensions(ideal, bound)
        expected = table.to_quotient().entries
        match = dims == expected
        payload["oracle"] = "match" if match else "mismatch"
        text += f"\noracle: {'MATCH' if match else 'MISMATCH'}"
        if not match:
            print(f"formula {sorted(expected.items())} vs oracle "
                  f"{sorted(dims.items())}", file=sys.stderr)
            code = 1
    _emit(payload, text, args.format)
    return code


def _cmd_homology_basis(args) -> int:
    ideal, t = parse_ideal_file(args.ideal)
    t = _need_t(t, "homology bases")
    labels = homology_basis_labels(ideal, t, args.i)
    lines = []
    payload: dict = {"i": args.i, "count": len(labels),
                     "labels": [str(lab) for lab in labels]}
    if args.expand:
        chains = [koszul_cycle(ideal, t, lab.generator, lab.sigma)
                  for lab in labels]
        payload["chains"] = [str(ch) for ch in chains]
        for lab, ch in zip(labels, chains):
            lines.append(f"{lab} = {ch}")
    else:
        lines = [str(lab) for lab in labels]
    lines.append(f"count: {len(labels)}")
    _emit(payload, "\n".join(lines), args.format)
    return 0


def _cmd_resolution(args) -> int:
    ideal, t = parse_ideal_file(args.ideal)
    t = _need_t(t, "the resolution")
    res = build_resolution(ideal, t)
    payload = res.to_json_obj()
    # the text of a large resolution is megabytes: build it only to print it
    text = res.ascii() if args.format == "ascii" else ""
    code = 0
    if args.verify:
        report = verify_resolution(res, args.max_degree)
        payload["verification"] = {
            "ok": report.ok,
            "checks": report.checks,
            "failures": report.failures,
        }
        text += f"\n\n{report}"
        if not report.ok:
            for line in report.failures:
                print(line, file=sys.stderr)
            code = 1
    _emit(payload, text, args.format)
    return code


def _seed(args) -> int:
    """--seed, or a fresh one when it is absent; gin and shift print it."""
    return args.seed if args.seed is not None else random.randrange(2 ** 32)


def _generator_text(ideal: MonomialIdeal, seed: int) -> str:
    return "\n".join([format_monomial(g) for g in ideal.generators]
                     + [f"seed: {seed}"])


def _cmd_gin(args) -> int:
    ideal, _ = parse_ideal_file(args.ideal)
    seed = _seed(args)
    result = gin(ideal, seed=seed, bound=args.bound)
    payload = ideal_to_dict(result)
    payload["seed"] = seed
    _emit(payload, _generator_text(result, seed), args.format)
    return 0


def _cmd_shift(args) -> int:
    ideal, _ = parse_ideal_file(args.ideal)
    t = _parse_t(args.t)
    seed = _seed(args)
    report = None
    if args.verify:
        report = verify_shift_properties(ideal, t, max_degree=args.max_degree,
                                         seed=seed, bound=args.bound)
        result = report.shifted
    else:
        result = shift(ideal, t, seed=seed, bound=args.bound)
    payload = ideal_to_dict(result, t)
    payload["seed"] = seed
    text = _generator_text(result, seed)
    code = 0
    if report is not None:
        payload["properties"] = dict(report.results)
        text += f"\n{report}"
        if not report.ok:
            for line in report.witnesses:
                print(line, file=sys.stderr)
            code = 1
    _emit(payload, text, args.format)
    return code


# -- parser ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vecspread",
        description="Spread monomial ideals: enumeration, stability classes, "
                    "Koszul homology, Betti tables, resolutions, shifting.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, default="ascii"):
        p.add_argument("--format", choices=("ascii", "json"), default=default)

    p = sub.add_parser("enumerate", help="list spread monomials of one degree")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--t", required=True, help="comma-separated spread entries")
    add_format(p)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("verify", help="check a stability class membership")
    p.add_argument("--ideal", required=True)
    p.add_argument("--class", dest="cls", required=True,
                   choices=("stable", "strongly-stable", "lex"))
    add_format(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("betti", help="graded Betti numbers by the closed formula")
    p.add_argument("--ideal", required=True)
    p.add_argument("--module", choices=("ideal", "quotient"), default="quotient")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exact Koszul ranks")
    add_format(p)
    p.set_defaults(func=_cmd_betti)

    p = sub.add_parser("homology-basis", help="distinguished Koszul cycles")
    p.add_argument("--ideal", required=True)
    p.add_argument("--i", type=int, required=True, help="homological degree")
    p.add_argument("--expand", action="store_true",
                   help="print the full chains, not just the labels")
    add_format(p)
    p.set_defaults(func=_cmd_homology_basis)

    p = sub.add_parser("resolution", help="labelled minimal free resolution")
    p.add_argument("--ideal", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-degree", type=int, default=8,
                   help="degree cap of the verification (default 8)")
    add_format(p)
    p.set_defaults(func=_cmd_resolution)

    p = sub.add_parser("gin", help="generic initial ideal (degrevlex)")
    p.add_argument("--ideal", required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int, default=100,
                   help="coefficient bound of the coordinate changes (default 100)")
    add_format(p, default="json")
    p.set_defaults(func=_cmd_gin)

    p = sub.add_parser("shift", help="t-spread algebraic shifting")
    p.add_argument("--ideal", required=True)
    p.add_argument("--t", required=True, help="target spread, comma-separated")
    p.add_argument("--seed", type=int)
    p.add_argument("--bound", type=int, default=100,
                   help="coefficient bound of the coordinate changes (default 100)")
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-degree", type=int,
                   help="degree cap of the Hilbert-function check "
                        "(default: top generator degree + 3)")
    add_format(p, default="json")
    p.set_defaults(func=_cmd_shift)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, GenericityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
