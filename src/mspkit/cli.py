"""Command-line entry point.

Subcommands: msp gen, stirling table, series {revert|compose|exp-transform},
ptypes list, verify run.  All machine-readable output goes to stdout,
diagnostics to stderr.  Exit status: 0 on success, 1 on a failed check or
path disagreement, 2 on usage errors.  The environment variable
MSPKIT_MAX_N (default 30) caps every depth argument as a safety valve.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import msp, series, stirling, verify
from .poly import LaurentX1
from .ptypes import partition_types


# polynomial generation beyond this needs --force.  Building a whole explicit
# first-kind row S_{n,1..n} (no output) took 1.3 ms at n = 12, 17 ms at 20,
# 51 ms at 24 and 0.21 s at 30 (benchmark probe.S_row_ms, Python 3.11, 2 vCPUs);
# the row has 195 terms at n = 12 and 23025 at n = 30.  So the limit keeps the
# default output short; it is not a time ceiling.
DEFAULT_GEN_DEPTH = 12


def _max_n_cap(parser: argparse.ArgumentParser) -> int:
    raw = os.environ.get("MSPKIT_MAX_N", "30")
    try:
        cap = int(raw)
    except ValueError:
        cap = -1
    if cap < 0:
        parser.error(f"MSPKIT_MAX_N must be a nonnegative integer, got {raw!r}")
    return cap


def _parse_coeffs(text: str) -> tuple[Fraction, ...]:
    try:
        return tuple(Fraction(chunk.strip()) for chunk in text.split(",") if chunk.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"bad coefficient list {text!r}: {exc}")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mspkit",
        description="Exact multivariate Stirling polynomials, number tables, "
        "series reversion and the identity-check suite.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_msp = sub.add_parser("msp", help="polynomial generation")
    msp_sub = p_msp.add_subparsers(dest="subcommand", required=True)
    p_gen = msp_sub.add_parser("gen", help="generate a polynomial family member")
    p_gen.add_argument("--kind", required=True, choices=msp.KINDS)
    p_gen.add_argument("--n", type=int, required=True)
    p_gen.add_argument("--k", type=int, default=None)
    p_gen.add_argument("--format", default="text", choices=["text", "json", "latex"])
    p_gen.add_argument(
        "--force",
        action="store_true",
        help=f"allow n beyond the default depth limit of {DEFAULT_GEN_DEPTH}",
    )

    p_st = sub.add_parser("stirling", help="integer number tables")
    st_sub = p_st.add_subparsers(dest="subcommand", required=True)
    p_table = st_sub.add_parser("table", help="emit a triangular number table")
    p_table.add_argument(
        "--kind", required=True, choices=["s1", "s2", "c", "assoc", "lah"]
    )
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", default="text", choices=["text", "json", "csv"])

    p_series = sub.add_parser("series", help="exact EGF arithmetic")
    se_sub = p_series.add_subparsers(dest="subcommand", required=True)
    p_revert = se_sub.add_parser("revert", help="compositional inverse")
    p_revert.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p_revert.add_argument("--order", type=int, required=True)
    p_revert.add_argument(
        "--path", default="msp", choices=["msp", "comtet", "oracle", "all"]
    )
    p_compose = se_sub.add_parser("compose", help="composition f(g(x))")
    p_compose.add_argument("--f", type=_parse_coeffs, required=True)
    p_compose.add_argument("--g", type=_parse_coeffs, required=True)
    p_compose.add_argument("--order", type=int, required=True)
    p_exp = se_sub.add_parser("exp-transform", help="rows of exp(t*f)")
    p_exp.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p_exp.add_argument("--order", type=int, required=True)

    p_pt = sub.add_parser("ptypes", help="partition types")
    pt_sub = p_pt.add_subparsers(dest="subcommand", required=True)
    p_list = pt_sub.add_parser("list", help="list all (n,k)-partition types")
    p_list.add_argument("n", type=int)
    p_list.add_argument("k", type=int)

    p_verify = sub.add_parser("verify", help="identity-check suite")
    ve_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p_run = ve_sub.add_parser("run", help="run the suite")
    p_run.add_argument("--max-n", type=int, required=True)
    p_run.add_argument("--only", default=None, help="comma-separated check ids")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--format", default="text", choices=["text", "json"])

    return parser


def _check_cap(parser: argparse.ArgumentParser, value: int, name: str):
    cap = _max_n_cap(parser)
    if value > cap:
        parser.error(f"{name}={value} exceeds the MSPKIT_MAX_N cap ({cap})")
    if value < 0:
        parser.error(f"{name} must be nonnegative")


def _cmd_msp_gen(parser, args) -> int:
    _check_cap(parser, args.n, "n")
    if args.n > DEFAULT_GEN_DEPTH and not args.force:
        parser.error(
            f"n={args.n} exceeds the default depth limit"
            f" ({DEFAULT_GEN_DEPTH}); pass --force to generate anyway"
        )
    # Bn has no k: it prints like a single member, with the index n alone
    if args.kind == "Bn":
        if args.k is not None:
            parser.error("--k does not apply to --kind Bn")
        ks = [None]
    elif args.k is not None:
        if not 1 <= args.k <= args.n:
            parser.error(f"k={args.k} outside 1..n={args.n}")
        ks = [args.k]
    else:
        ks = list(range(1, args.n + 1))
    single = args.k is not None or args.kind == "Bn"
    items = []
    for k in ks:
        try:
            items.append((k, msp.generate(args.kind, args.n, k)))
        except ValueError as exc:
            parser.error(str(exc))
    if args.format == "json":
        if single:
            print(json.dumps(items[0][1].to_json_dict(), separators=(",", ":")))
        else:
            payload = {
                "kind": args.kind,
                "n": args.n,
                "items": [
                    {"k": k, "poly": value.to_json_dict()} for k, value in items
                ],
            }
            print(json.dumps(payload, separators=(",", ":")))
    elif args.format == "latex":
        for k, value in items:
            body = (
                value.to_latex()
                if not isinstance(value, LaurentX1)
                else f"X_{{1}}^{{-{value.x1_den}}}({value.num.to_latex()})"
            )
            index = args.n if k is None else f"{args.n},{k}"
            print(f"${args.kind}_{{{index}}}={body}$")
    else:
        if single:
            print(str(items[0][1]))
        else:
            for k, value in items:
                print(f"{args.kind}[{args.n},{k}] = {value}")
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
    _check_cap(parser, args.order, "order")
    if args.order < 1:
        parser.error("order must be >= 1")
    coeffs = args.coeffs[: args.order]
    coeffs = coeffs + (Fraction(0),) * (args.order - len(coeffs))
    try:
        f = series.EgfCoeffs(coeffs)
    except ValueError as exc:
        parser.error(str(exc))
    paths = {
        "msp": series.revert_msp,
        "comtet": series.revert_comtet,
        "oracle": series.revert_oracle,
    }
    if args.path != "all":
        result = paths[args.path](f)
        print(json.dumps({"inverse": [str(v) for v in result]}))
        return 0
    results = {name: fn(f) for name, fn in paths.items()}
    values = list(results.values())
    if values[0] == values[1] == values[2]:
        print(json.dumps({"inverse": [str(v) for v in values[0]]}))
        return 0
    payload = {
        "paths": {name: [str(v) for v in r] for name, r in results.items()}
    }
    print(json.dumps(payload))
    print("error: reversion paths disagree", file=sys.stderr)
    return 1


def _cmd_series_compose(parser, args) -> int:
    _check_cap(parser, args.order, "order")
    if args.order < 1:
        parser.error("order must be >= 1")
    try:
        f = series.Egf(args.f).truncate(args.order)
        g = series.Egf(args.g).truncate(args.order)
    except ValueError as exc:
        parser.error(str(exc))
    result = series.egf_compose(f, g, args.order)
    print(json.dumps({"composition": [str(v) for v in result]}))
    return 0


def _cmd_series_exp_transform(parser, args) -> int:
    _check_cap(parser, args.order, "order")
    if args.order < 1:
        parser.error("order must be >= 1")
    try:
        f = series.Egf(args.coeffs).truncate(args.order)
    except ValueError as exc:
        parser.error(str(exc))
    rows = series.exp_transform(f, args.order)
    payload = {
        "rows": [
            [str(row.coefficient(k)) for k in range(n + 1)]
            for n, row in enumerate(rows, start=1)
        ]
    }
    print(json.dumps(payload))
    return 0


def _cmd_ptypes_list(parser, args) -> int:
    _check_cap(parser, args.n, "n")
    if args.k < 0:
        parser.error("k must be nonnegative")
    for pt in partition_types(args.n, args.k):
        print(pt)
    return 0


def _cmd_verify_run(parser, args) -> int:
    _check_cap(parser, args.max_n, "max-n")
    if args.max_n < 1:
        parser.error("max-n must be >= 1")
    selection = None
    if args.only:
        selection = [chunk.strip() for chunk in args.only.split(",") if chunk.strip()]
    try:
        results = verify.run_suite(args.max_n, selection=selection, seed=args.seed)
    except ValueError as exc:
        parser.error(str(exc))
    if args.format == "json":
        print(verify.report_json(results, args.max_n, args.seed))
    else:
        print(verify.report_text(results))
    for r in results:
        print(f"timing: {r.check_id} {r.wall_ms:.1f} ms", file=sys.stderr)
    return 0 if all(r.passed for r in results) else 1


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "msp":
        return _cmd_msp_gen(parser, args)
    if args.command == "stirling":
        return _cmd_stirling_table(parser, args)
    if args.command == "series":
        if args.subcommand == "revert":
            return _cmd_series_revert(parser, args)
        if args.subcommand == "compose":
            return _cmd_series_compose(parser, args)
        return _cmd_series_exp_transform(parser, args)
    if args.command == "ptypes":
        return _cmd_ptypes_list(parser, args)
    return _cmd_verify_run(parser, args)


if __name__ == "__main__":
    sys.exit(main())
