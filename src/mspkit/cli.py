"""Command-line entry point.

Subcommands: msp gen, stirling table, series {revert|compose|exp-transform},
ptypes list, verify run.  Each leaf parser names its handler with
set_defaults(run=...), and main calls it.  All machine-readable output goes
to stdout, diagnostics to stderr.  Exit status: 0 on success, 1 on a failed
check, a path disagreement or a reader that closed stdout early, 2 on usage
errors.

One helper bounds every depth argument: at most the environment variable
MSPKIT_MAX_N (default 30), a safety valve, and at least 1 for msp gen --n,
--order and --max-n, else 0.  Another builds every series argument as an
Egf truncated or zero-padded to --order.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

from . import msp, series, stirling, verify
from .ptypes import format_type, partition_types


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
    p_gen.set_defaults(run=_cmd_msp_gen)

    p_st = sub.add_parser("stirling", help="integer number tables")
    st_sub = p_st.add_subparsers(dest="subcommand", required=True)
    p_table = st_sub.add_parser("table", help="emit a triangular number table")
    p_table.add_argument(
        "--kind", required=True, choices=["s1", "s2", "c", "assoc", "lah"]
    )
    p_table.add_argument("--n", type=int, required=True)
    p_table.add_argument("--format", default="text", choices=["text", "json", "csv"])
    p_table.set_defaults(run=_cmd_stirling_table)

    p_series = sub.add_parser("series", help="exact EGF arithmetic")
    se_sub = p_series.add_subparsers(dest="subcommand", required=True)
    p_revert = se_sub.add_parser("revert", help="compositional inverse")
    p_revert.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p_revert.add_argument("--order", type=int, required=True)
    p_revert.add_argument(
        "--path", default="msp", choices=["msp", "comtet", "oracle", "all"]
    )
    p_revert.set_defaults(run=_cmd_series_revert)
    p_compose = se_sub.add_parser("compose", help="composition f(g(x))")
    p_compose.add_argument("--f", type=_parse_coeffs, required=True)
    p_compose.add_argument("--g", type=_parse_coeffs, required=True)
    p_compose.add_argument("--order", type=int, required=True)
    p_compose.set_defaults(run=_cmd_series_compose)
    p_exp = se_sub.add_parser("exp-transform", help="rows of exp(t*f)")
    p_exp.add_argument("--coeffs", type=_parse_coeffs, required=True)
    p_exp.add_argument("--order", type=int, required=True)
    p_exp.set_defaults(run=_cmd_series_exp_transform)

    p_pt = sub.add_parser("ptypes", help="partition types")
    pt_sub = p_pt.add_subparsers(dest="subcommand", required=True)
    p_list = pt_sub.add_parser("list", help="list all (n,k)-partition types")
    p_list.add_argument("n", type=int)
    p_list.add_argument("k", type=int)
    p_list.set_defaults(run=_cmd_ptypes_list)

    p_verify = sub.add_parser("verify", help="identity-check suite")
    ve_sub = p_verify.add_subparsers(dest="subcommand", required=True)
    p_run = ve_sub.add_parser("run", help="run the suite")
    p_run.add_argument("--max-n", type=int, required=True)
    p_run.add_argument("--only", default=None, help="comma-separated check ids")
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--format", default="text", choices=["text", "json"])
    p_run.set_defaults(run=_cmd_verify_run)

    return parser


def _check_cap(parser: argparse.ArgumentParser, value: int, name: str, low: int = 0):
    cap = _max_n_cap(parser)
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
            index = args.n if k is None else f"{args.n},{k}"
            print(f"${args.kind}_{{{index}}}={value.to_latex()}$")
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
    selection = None
    if args.only is not None:
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
