"""Command-line front end.

Subcommands: enumerate, verify, betti, homology-basis, resolution, gin,
shift.  Results go to stdout, diagnostics to stderr; exit code 0 means
success (or property holds), 1 means a property violation with a witness,
2 means a usage or input error, and 141 (128 + SIGPIPE) means the reader
closed stdout early, as `| head` does.

Every setting is a flag with its default declared on it (`--help` lists
them); no environment variable is read, so a printed command line, with the
seed that gin and shift print, reproduces its result.

Each call builds the argument parser of its own subcommand only, from the
`_COMMANDS` table.  The full tree of all seven is built for top-level help
and errors alone: no command, an unknown one, or an option before it.
"""

from __future__ import annotations

import argparse
import json
import os
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
    iter_spread_monomials,
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


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {True: "true", False: "false", None: "null"}


def _json_text(value, indent: str = "\n") -> str:
    """json.dumps(value, indent=2, sort_keys=True) for the values the CLI
    prints: dicts with str keys, lists, str, int, bool and None.

    With an indent the standard library's encoder runs in pure Python,
    value by value.  Here each container is one join over its items, and a
    str or int item is written inline, by the C encoder's string function
    or by int's repr.
    """
    if isinstance(value, list):
        if not value:
            return "[]"
        inner = indent + "  "
        return "[" + inner + ("," + inner).join([
            _encode_str(v) if type(v) is str else
            repr(v) if type(v) is int else _json_text(v, inner)
            for v in value]) + indent + "]"
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = indent + "  "
        return "{" + inner + ("," + inner).join([
            _encode_str(k) + ": " + (
                _encode_str(v) if type(v) is str else
                repr(v) if type(v) is int else _json_text(v, inner))
            for k, v in sorted(value.items())]) + indent + "}"
    if isinstance(value, str):
        return _encode_str(value)
    if value is None or isinstance(value, bool):
        return _CONSTANTS[value]
    if isinstance(value, int):
        return int.__repr__(value)
    raise TypeError(f"Object of type {type(value).__name__} "
                    f"is not JSON serializable")


def _emit(obj: dict, text: str, fmt: str) -> None:
    print(_json_text(obj) if fmt == "json" else text)


# -- subcommands ----------------------------------------------------------------


def _cmd_enumerate(args) -> int:
    t = _parse_t(args.t)
    # one monomial at a time: each holds an exponent vector of length n
    lines = [format_monomial(m) for m in iter_spread_monomials(args.n, args.deg, t)]
    count = count_spread_monomials(args.n, args.deg, t)
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
    # either form of a large resolution is megabytes: build only the printed one
    payload = res.to_json_obj() if args.format == "json" else {}
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
    result = gin(ideal, seed=seed)
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
                                         seed=seed)
        result = report.shifted
    else:
        result = shift(ideal, t, seed=seed)
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


def _add_format(p, default="ascii"):
    p.add_argument("--format", choices=("ascii", "json"), default=default)


def _enumerate_args(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--deg", type=int, required=True)
    p.add_argument("--t", required=True, help="comma-separated spread entries")
    _add_format(p)


def _verify_args(p):
    p.add_argument("--ideal", required=True)
    p.add_argument("--class", dest="cls", required=True,
                   choices=("stable", "strongly-stable", "lex"))
    _add_format(p)


def _betti_args(p):
    p.add_argument("--ideal", required=True)
    p.add_argument("--module", choices=("ideal", "quotient"), default="quotient")
    p.add_argument("--oracle", action="store_true",
                   help="cross-check against exact Koszul ranks")
    _add_format(p)


def _homology_basis_args(p):
    p.add_argument("--ideal", required=True)
    p.add_argument("--i", type=int, required=True, help="homological degree")
    p.add_argument("--expand", action="store_true",
                   help="print the full chains, not just the labels")
    _add_format(p)


def _resolution_args(p):
    p.add_argument("--ideal", required=True)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-degree", type=int, default=8,
                   help="degree cap of the verification (default 8)")
    _add_format(p)


def _gin_args(p):
    p.add_argument("--ideal", required=True)
    p.add_argument("--seed", type=int)
    _add_format(p, default="json")


def _shift_args(p):
    p.add_argument("--ideal", required=True)
    p.add_argument("--t", required=True, help="target spread, comma-separated")
    p.add_argument("--seed", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--max-degree", type=int,
                   help="degree cap of the Hilbert-function check "
                        "(default: top generator degree + 3)")
    _add_format(p, default="json")


# name -> (handler, help text, adds the subcommand's arguments), in help order
_COMMANDS = {
    "enumerate": (_cmd_enumerate, "list spread monomials of one degree",
                  _enumerate_args),
    "verify": (_cmd_verify, "check a stability class membership",
               _verify_args),
    "betti": (_cmd_betti, "graded Betti numbers by the closed formula",
              _betti_args),
    "homology-basis": (_cmd_homology_basis, "distinguished Koszul cycles",
                       _homology_basis_args),
    "resolution": (_cmd_resolution, "labelled minimal free resolution",
                   _resolution_args),
    "gin": (_cmd_gin, "generic initial ideal (degrevlex)", _gin_args),
    "shift": (_cmd_shift, "t-spread algebraic shifting", _shift_args),
}


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The argparse tree of every subcommand, or of `command` alone.

    A one-command tree names every subcommand in its usage line, so the
    usage it prints with an error is the full tree's.  The full tree keeps
    the default metavar: a set one would replace "command" in its errors.
    """
    parser = argparse.ArgumentParser(
        prog="vecspread",
        description="Spread monomial ideals: enumeration, stability classes, "
                    "Koszul homology, Betti tables, resolutions, shifting.")
    metavar = None if command is None else "{" + ",".join(_COMMANDS) + "}"
    sub = parser.add_subparsers(dest="command", required=True, metavar=metavar)
    for name, (func, help_text, add_arguments) in _COMMANDS.items():
        if command is None or command == name:
            p = sub.add_parser(name, help=help_text)
            add_arguments(p)
            p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # anything but a subcommand first is top-level help or an error, whose
    # message lists every subcommand
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    args = build_parser(command).parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except (ValueError, GenericityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: give it somewhere to go
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141


if __name__ == "__main__":
    sys.exit(main())
