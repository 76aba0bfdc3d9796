"""Command-line entry point.

Subcommands: msp gen, stirling table, series {revert|compose|exp-transform},
ptypes list, verify run.  Each leaf parser names its handler with
set_defaults(run=...), and main calls it.  main builds only the parsers
that argv names, one command and one leaf, and all of them at a level where
argv names no command or leaf, so help texts and usage errors are those of
the whole tree; the parser is built afresh on every call.  No parser takes
a prefix of an option name (allow_abbrev=False), so argparse and the join
of a negative coefficient list to its option read the same full names.  All
machine-readable output goes to stdout, diagnostics to stderr.  Exit
status: 0 on success, 1 on a check that fails or raises, a path
disagreement or a reader that closed stdout early, 2 on usage errors.

One helper bounds every depth argument: at most the environment variable
MSPKIT_MAX_N (default 30), a safety valve, and at least 1 for msp gen --n,
--order and --max-n, else 0.  Another builds every series argument, a
coefficient list parsed to Fractions by one ASCII grammar, as an Egf
truncated or zero-padded to --order.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from fractions import Fraction
from typing import Iterable

from . import msp, series, stirling, verify
from .ptypes import format_type, partition_types


# polynomial generation beyond this needs --force.  Building a whole explicit
# first-kind row S_{n,1..n} (no output) took 0.2 ms at n = 12, 1.8 ms at 20,
# 4.8 ms at 24 and 19 ms at 30 (benchmark probe.S_row_ms, Python 3.11, 2 vCPUs);
# the row has 195 terms at n = 12 and 23025 at n = 30.  So the limit keeps the
# default output short; it is not a time ceiling.
DEFAULT_GEN_DEPTH = 12


# int() alone also takes "1_2", " 3", "+3" and non-ASCII digits, and Fraction()'s
# string grammar differs between Python versions; a coefficient may add a /q
_INT = re.compile("-?[0-9]+")
_COEFF = re.compile("-?[0-9]+(?:/[0-9]+)?")


def _strict_int(text: str) -> int:
    if not _INT.fullmatch(text):
        raise ValueError(text)
    return int(text)


_strict_int.__name__ = "int"  # argparse's error reads "invalid int value: '1_2'"


def _parse_coeffs(text: str) -> tuple[Fraction, ...]:
    fields = text.split(",")
    try:
        for field in fields:
            if not _COEFF.fullmatch(field):
                raise ValueError(f"{field!r} is not an integer or p/q")
        return tuple(map(Fraction, fields))
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {exc}")


# argparse reads a separate value that starts with "-" as an option unless it
# is a bare number, so main joins a coefficient list such as -3/4,5 to the
# option before it, as in --coeffs=-3/4,5; -h stays help
_LIST_OPTIONS = ("--coeffs", "--f", "--g")
_NEGATIVE = re.compile("-[0-9]")


def _join_negative_lists(argv: list[str]) -> list[str]:
    joined: list[str] = []
    for arg in argv:
        if joined and joined[-1] in _LIST_OPTIONS and _NEGATIVE.match(arg):
            joined[-1] += "=" + arg
        else:
            joined.append(arg)
    return joined


def _parse_check_ids(text: str) -> list[str]:
    ids = [chunk.strip() for chunk in text.split(",")]
    if "" in ids:
        raise argparse.ArgumentTypeError(
            f"bad check list {text!r}: a blank field is an empty check selection")
    return ids


def _msp_gen_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=msp.KINDS)
    p.add_argument("--n", type=_strict_int, required=True)
    p.add_argument("--k", type=_strict_int, default=None)
    p.add_argument("--format", default="text", choices=["text", "json", "latex"])
    p.add_argument(
        "--force",
        action="store_true",
        help=f"allow n beyond the default depth limit of {DEFAULT_GEN_DEPTH}",
    )
    p.set_defaults(run=_cmd_msp_gen)


def _stirling_table_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kind", required=True, choices=["s1", "s2", "c", "assoc", "lah"])
    p.add_argument("--n", type=_strict_int, required=True)
    p.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p.set_defaults(run=_cmd_stirling_table)


def _series_revert_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p.add_argument("--order", type=_strict_int, required=True)
    p.add_argument("--path", default="msp", choices=["msp", "comtet", "oracle", "all"])
    p.set_defaults(run=_cmd_series_revert)


def _series_compose_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--f", type=_parse_coeffs, required=True)
    p.add_argument("--g", type=_parse_coeffs, required=True)
    p.add_argument("--order", type=_strict_int, required=True)
    p.set_defaults(run=_cmd_series_compose)


def _series_exp_transform_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p.add_argument("--order", type=_strict_int, required=True)
    p.set_defaults(run=_cmd_series_exp_transform)


def _ptypes_list_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("n", type=_strict_int)
    p.add_argument("k", type=_strict_int)
    p.set_defaults(run=_cmd_ptypes_list)


def _verify_run_arguments(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-n", type=_strict_int, required=True)
    p.add_argument("--only", type=_parse_check_ids, default=None,
                   help="comma-separated check ids")
    p.add_argument("--seed", type=_strict_int, default=0)
    p.add_argument("--format", default="text", choices=["text", "json"])
    p.set_defaults(run=_cmd_verify_run)


# command -> (help, {leaf -> (help, function that adds the leaf's arguments)}),
# in the order that help and usage lines list them
_COMMANDS = {
    "msp": ("polynomial generation", {
        "gen": ("generate a polynomial family member", _msp_gen_arguments),
    }),
    "stirling": ("integer number tables", {
        "table": ("emit a triangular number table", _stirling_table_arguments),
    }),
    "series": ("exact EGF arithmetic", {
        "revert": ("compositional inverse", _series_revert_arguments),
        "compose": ("composition f(g(x))", _series_compose_arguments),
        "exp-transform": ("rows of exp(t*f)", _series_exp_transform_arguments),
    }),
    "ptypes": ("partition types", {
        "list": ("list all (n,k)-partition types", _ptypes_list_arguments),
    }),
    "verify": ("identity-check suite", {
        "run": ("run the suite", _verify_run_arguments),
    }),
}


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser for `argv`.  Only the command that argv[0] names is
    registered, and only the leaf that argv[1] names gets its arguments.
    Where argv names none, as with -h, nothing or a typo, every child at that
    level is built, so help texts and errors read as for the whole tree.

    With one command registered, the top-level usage line, which handlers
    print with their usage errors, still lists all five: the metavar spells
    them out.  It is set on that path only, because argparse also names the
    action by its metavar in errors, and `mspkit bogus` must still read
    "argument command: invalid choice".  Each add_subparsers call is given
    its prog, which argparse would otherwise format with a HelpFormatter."""
    parser = argparse.ArgumentParser(
        prog="mspkit",
        description="Exact multivariate Stirling polynomials, number tables, "
        "series reversion and the identity-check suite.",
        allow_abbrev=False,
    )
    command = argv[0] if argv and argv[0] in _COMMANDS else None
    leaf = argv[1] if command and len(argv) > 1 else None
    sub = parser.add_subparsers(dest="command", required=True, prog=parser.prog,
                                metavar="{" + ",".join(_COMMANDS) + "}" if command else None)
    for name, (text, leaves) in _COMMANDS.items():
        if command not in (None, name):
            continue
        p_command = sub.add_parser(name, help=text, allow_abbrev=False)
        leaf_sub = p_command.add_subparsers(dest="subcommand", required=True,
                                            prog=p_command.prog)
        for leaf_name, (leaf_text, add_arguments) in leaves.items():
            if leaf in leaves and leaf_name != leaf:
                continue
            add_arguments(leaf_sub.add_parser(leaf_name, help=leaf_text, allow_abbrev=False))
    return parser


def _check_cap(parser: argparse.ArgumentParser, value: int, name: str, low: int = 0):
    raw = os.environ.get("MSPKIT_MAX_N", "30")
    cap = int(raw) if _INT.fullmatch(raw) else -1
    if cap < 0:
        parser.error(f"MSPKIT_MAX_N must be a nonnegative integer, got {raw!r}")
    if value > cap:
        parser.error(f"{name}={value} exceeds the MSPKIT_MAX_N cap ({cap})")
    if value < low:
        parser.error(f"{name} must be >= {low}")


def _egf(
    parser: argparse.ArgumentParser, coeffs: tuple[Fraction, ...], order: int, cls: type[series.Egf]
) -> series.Egf:
    """cls(coeffs) truncated or zero-padded to `order`; a bad series is a
    usage error."""
    try:
        return cls(coeffs).truncate(order)
    except ValueError as exc:
        parser.error(str(exc))


def _cmd_msp_gen(parser, args) -> int:
    # no family has a member at n = 0
    _check_cap(parser, args.n, "n", low=1)
    if args.n > DEFAULT_GEN_DEPTH and not args.force:
        parser.error(
            f"n={args.n} exceeds the default depth limit"
            f" ({DEFAULT_GEN_DEPTH}); pass --force to generate anyway"
        )
    if args.kind == "Bn" and args.k is not None:
        parser.error("--k does not apply to --kind Bn")
    if args.k is not None and not 1 <= args.k <= args.n:
        parser.error(f"k={args.k} outside 1..n={args.n}")
    # one member, or the row k = 1..n.  Bn has no k: it prints like a single
    # member, with the index n alone
    single = args.k is not None or args.kind == "Bn"
    try:
        items = [(k, msp.generate(args.kind, args.n, k))
                 for k in ([args.k] if single else range(1, args.n + 1))]
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        payload = items[0][1].to_json_dict() if single else {
            "kind": args.kind,
            "n": args.n,
            "items": [{"k": k, "poly": value.to_json_dict()} for k, value in items],
        }
        text = json.dumps(payload, separators=(",", ":"))
    elif args.format == "latex":
        text = "\n".join(
            f"${args.kind}_{{{args.n}{'' if k is None else f',{k}'}}}={value.to_latex()}$"
            for k, value in items
        )
    else:
        text = str(items[0][1]) if single else "\n".join(
            f"{args.kind}[{args.n},{k}] = {value}" for k, value in items
        )
    print(text)
    return 0


_TABLES = {
    "s1": stirling.s1_table,
    "s2": stirling.s2_table,
    "c": stirling.cycle_table,
    "assoc": stirling.assoc_s2_table,
    "lah": lambda n: stirling.lah_tables(n)[0],
}


def _cmd_stirling_table(parser, args) -> int:
    _check_cap(parser, args.n, "n")
    table = _TABLES[args.kind](args.n)
    if args.format == "json":
        payload = {
            "kind": args.kind,
            "n": args.n,
            "rows": [[str(v) for v in row] for row in table.rows],
        }
        print(json.dumps(payload, separators=(",", ":")))
    elif args.format == "csv":
        print("n,k,value")
        for n, row in enumerate(table.rows):
            for k, v in enumerate(row):
                print(f"{n},{k},{v}")
    else:
        for n, row in enumerate(table.rows):
            print(f"n={n}: " + " ".join(str(v) for v in row))
    return 0


def _cmd_series_revert(parser, args) -> int:
    _check_cap(parser, args.order, "order", low=1)
    f = _egf(parser, args.coeffs, args.order, series.EgfCoeffs)
    paths = {"msp": series.revert_msp, "comtet": series.revert_comtet,
             "oracle": series.revert_oracle}
    if args.path != "all":
        paths = {args.path: paths[args.path]}
    results = {name: [str(v) for v in fn(f)] for name, fn in paths.items()}
    inverse, *rest = results.values()
    if all(r == inverse for r in rest):
        print(json.dumps({"inverse": inverse}))
        return 0
    print(json.dumps({"paths": results}))
    print("error: reversion paths disagree", file=sys.stderr)
    return 1


def _cmd_series_compose(parser, args) -> int:
    _check_cap(parser, args.order, "order", low=1)
    f = _egf(parser, args.f, args.order, series.Egf)
    g = _egf(parser, args.g, args.order, series.Egf)
    result = series.egf_compose(f, g, args.order)
    print(json.dumps({"composition": [str(v) for v in result]}))
    return 0


def _cmd_series_exp_transform(parser, args) -> int:
    _check_cap(parser, args.order, "order", low=1)
    f = _egf(parser, args.coeffs, args.order, series.Egf)
    rows = series.exp_transform(f, args.order)
    print(json.dumps({"rows": [[str(c) for c in row] for row in rows]}))
    return 0


def _cmd_ptypes_list(parser, args) -> int:
    _check_cap(parser, args.n, "n")
    if args.k < 0:
        parser.error("k must be >= 0")
    for r in partition_types(args.n, args.k):
        print(format_type(r))
    return 0


def _cmd_verify_run(parser, args) -> int:
    _check_cap(parser, args.max_n, "max-n", low=1)
    try:
        results = verify.run_suite(args.max_n, selection=args.only, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        print(verify.report_json(results, args.max_n, args.seed))
    else:
        print(verify.report_text(results))
    for r in results:
        print(f"timing: {r.check_id} {r.wall_ms:.1f} ms", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def main(argv: Iterable[str] | None = None) -> int:
    argv = _join_negative_lists(sys.argv[1:] if argv is None else list(argv))
    parser = _build_parser(argv)
    args = parser.parse_args(argv)
    try:
        status = args.run(parser, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader closed stdout early: point stdout at devnull, so that
        # the interpreter's flush at exit does not fail a second time
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    return status


if __name__ == "__main__":
    sys.exit(main())
