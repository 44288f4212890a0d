"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (the error name goes to
stderr), 2 on usage or polynomial-syntax errors.  All polynomial output is
canonical (descending powers), so runs are byte-reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys

from .polyring import DomainError, ParseError, Poly, decimal_int, decimal_str, parse_poly
from .redei import redei_recurrence, redei_sequence
from .pell2 import PellProblem, classify, identify_solution, solve, verify
from .pellm import classify_m, divisibility_probe, solve_m


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellred",
        description="Exact polynomial Pell equation toolkit built on Redei polynomials.",
        # `pellred verify @args.txt` reads one argument per line of the file:
        # the way in for polynomials past the OS limit on one argument.
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true")
        p.set_defaults(func=func)
        return p

    def poly_args(p, *names):
        for name in names:
            p.add_argument(name, required=True, metavar="POLY")

    p = command("redei", _cmd_redei, "one Redei pair (N_n, D_n)")
    poly_args(p, "--alpha", "--z")
    p.add_argument("-n", type=decimal_int, required=True)

    p = command("table", _cmd_table, "rows n = 1..n_max of (N_n, D_n)")
    poly_args(p, "--alpha", "--z")
    p.add_argument("--n-max", type=decimal_int, required=True)

    p = command("solve", _cmd_solve, "normalized solution of P^2-(f^2+d)Q^2=1")
    poly_args(p, "-f")
    p.add_argument("-d", type=decimal_int, required=True)
    p.add_argument("-n", type=decimal_int, required=True)

    p = command("solve-m", _cmd_solve_m, "normalized degree-m solution for R=(-f)^m+r")
    poly_args(p, "-f")
    p.add_argument("-r", type=decimal_int, required=True)
    p.add_argument("-m", type=decimal_int, required=True)
    p.add_argument("-n", type=decimal_int, required=True)

    p = command("verify", _cmd_verify, "check P^2 - D*Q^2 == 1 exactly")
    poly_args(p, "--P", "--Q")
    p.add_argument("--D", metavar="POLY")
    p.add_argument("-f", metavar="POLY")
    p.add_argument("-d", type=decimal_int)

    p = command("identify", _cmd_identify, "match an integer solution to its index n")
    poly_args(p, "--P", "--Q", "-f")
    p.add_argument("-d", type=decimal_int, required=True)

    p = command("classify", _cmd_classify, "integrality class of d, or the degree-m case")
    p.add_argument("-d", type=decimal_int)
    p.add_argument("-r", type=decimal_int)
    p.add_argument("-m", type=decimal_int)
    p.add_argument("-n", type=decimal_int)

    p = command("probe", _cmd_probe, "divisibility scan for r = +-m, prime m")
    poly_args(p, "-f")
    p.add_argument("-m", type=decimal_int, required=True)
    p.add_argument("--n-max", type=decimal_int, required=True)

    return parser


def _pair_json(pair) -> dict:
    return {"n": pair.n, "N": pair.N.to_json(), "D": pair.D.to_json()}


def emit_table(alpha: Poly, z: Poly, n_max: int, as_json: bool = False) -> str:
    """Table text for rows n = 1..n_max; TSV with a header, or JSON lines."""
    pairs = redei_sequence(alpha, z, n_max)[1:]
    if as_json:
        lines = [json.dumps(_pair_json(p)) for p in pairs]
    else:
        lines = ["n\tN\tD"] + [f"{p.n}\t{p.N}\t{p.D}" for p in pairs]
    return "".join(line + "\n" for line in lines)


def _bool_text(flag: bool) -> str:
    return "true" if flag else "false"


def _emit(args, data: dict, *lines: str) -> int:
    """Print ``data`` as one JSON line under --json, else the text lines.

    The line is ``json.dumps(data)``, except that an int value is written by
    ``decimal_str``: ``json`` stops at the interpreter's int-to-str digit limit.
    """
    if args.json:
        fields = (f"{json.dumps(k)}: {decimal_str(v) if type(v) is int else json.dumps(v)}"
                  for k, v in data.items())
        lines = ("{" + ", ".join(fields) + "}",)
    print("\n".join(lines))
    return 0


def _cmd_redei(args, error) -> int:
    pair = redei_recurrence(parse_poly(args.alpha), parse_poly(args.z), args.n)
    return _emit(args, _pair_json(pair), f"N = {pair.N}", f"D = {pair.D}")


def _cmd_table(args, error) -> int:
    sys.stdout.write(emit_table(parse_poly(args.alpha), parse_poly(args.z), args.n_max, args.json))
    return 0


def _cmd_solve(args, error) -> int:
    sol = solve(PellProblem(parse_poly(args.f), args.d), args.n)
    data = {
        "n": sol.n,
        "P": sol.P.to_json(),
        "Q": sol.Q.to_json(),
        "integral": sol.integral,
        "normalizer": decimal_str(sol.normalizer),
    }
    return _emit(
        args,
        data,
        f"P = {sol.P}",
        f"Q = {sol.Q}",
        f"integral = {_bool_text(sol.integral)}",
        f"normalizer = {decimal_str(sol.normalizer)}",
    )


def _cmd_solve_m(args, error) -> int:
    sol = solve_m(parse_poly(args.f), args.r, args.m, args.n)
    data = {
        "m": sol.m,
        "n": sol.n,
        "R": sol.R.to_json(),
        "sols": [s.to_json() for s in sol.sols],
        "integral": sol.integral,
        "normalizer": decimal_str(sol.normalizer),
    }
    return _emit(
        args,
        data,
        f"R = {sol.R}",
        *(f"P{i} = {s}" for i, s in enumerate(sol.sols, 1)),
        f"integral = {_bool_text(sol.integral)}",
        f"normalizer = {decimal_str(sol.normalizer)}",
    )


def _cmd_verify(args, error) -> int:
    if args.D is not None and args.f is None and args.d is None:
        D = parse_poly(args.D)
    elif args.D is None and args.f is not None and args.d is not None:
        D = PellProblem(parse_poly(args.f), args.d).D
    else:
        error("verify needs either --D, or -f together with -d")
    ok = verify(parse_poly(args.P), parse_poly(args.Q), D)
    return _emit(args, {"verified": ok}, _bool_text(ok))


def _cmd_identify(args, error) -> int:
    n = identify_solution(parse_poly(args.P), parse_poly(args.Q), parse_poly(args.f), args.d)
    return _emit(args, {"n": n}, "unidentified" if n is None else f"n = {n}")


def _cmd_classify(args, error) -> int:
    degree_m = (args.r, args.m, args.n)
    if args.d is not None and degree_m == (None, None, None):
        tag = classify(args.d).tag
        return _emit(args, {"d": args.d, "class": tag}, tag)
    if args.d is None and None not in degree_m:
        flag = classify_m(*degree_m)
        data = {"r": args.r, "m": args.m, "n": args.n, "integral_case": flag}
        return _emit(args, data, _bool_text(flag))
    error("classify needs -d, or the tuple -r -m -n")


def _cmd_probe(args, error) -> int:
    report = divisibility_probe(parse_poly(args.f), args.m, args.n_max)
    data = {
        "m": report.m,
        "f": report.f.to_json(),
        "n_max": report.n_max,
        "ok": report.ok,
        "violation": list(report.violation) if report.violation else None,
    }
    if report.ok:
        result = "ok"
    else:
        r, n, idx = report.violation
        result = f"violation at r={r}, n={n}, component {idx}"
    return _emit(
        args,
        data,
        f"m = {report.m}",
        f"f = {report.f}",
        f"n_max = {report.n_max}",
        f"result = {result}",
    )


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser.error)
    except ParseError as exc:
        print(f"ParseError: {exc}", file=sys.stderr)
        return 2
    except DomainError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
