"""Command-line front end.

Exit codes: 0 on success, 1 on domain errors (the error name goes to
stderr), 2 on usage or polynomial-syntax errors.  All polynomial output is
canonical (descending powers), so runs are byte-reproducible.

Flags: ``--alpha``, ``--z``, ``-f``, ``--P``, ``--Q`` and ``--D`` take a
polynomial (POLY); every other flag but ``--json`` takes an integer, read by
``decimal_int``.

Output: under ``--json``, one JSON object per answer, or one per row for
``table``.  Integers are JSON numbers of any size, except ``normalizer``,
which is a decimal string.  As text, each answer field prints as a
``key = value`` line, except that verify, identify and classify print one
bare line.
"""

from __future__ import annotations

import argparse
import json
import sys

from .polyring import DomainError, ParseError, Poly, decimal_int, decimal_str, parse_poly
from .redei import redei_recurrence, redei_sequence
from .pell2 import PellProblem, classify, identify_solution, solve, verify
from .pellm import classify_m, divisibility_probe, solve_m


class _Store(argparse.Action):
    """Store a flag's value.  An attached ``--`` (``-d=--``) is the value
    "--", as Python 3.13 reads it: older argparse strips it and hands over
    [], which this converts as "--", refused with 3.13's message."""

    def __call__(self, parser, namespace, values, option_string=None):
        if values == []:
            try:
                values = self.type("--") if self.type else "--"
            except ValueError:
                raise argparse.ArgumentError(self, f"invalid {self.type.__name__} value: '--'") from None
        setattr(namespace, self.dest, values)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pellred",
        description="Exact polynomial Pell equation toolkit built on Redei polynomials.",
        # `pellred verify @args.txt` reads one argument per line of the file:
        # the way in for polynomials past the OS limit on one argument.
        fromfile_prefix_chars="@",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    poly_flags = ("--alpha", "--z", "-f", "--P", "--Q", "--D")

    def command(name, func, help, required, optional=""):
        """Subcommand ``name`` with --json and its space-separated flags, in order."""
        p = sub.add_parser(name, help=help)
        p.add_argument("--json", action="store_true")
        required, optional = required.split(), optional.split()
        for flag in required + optional:
            kind = {"metavar": "POLY"} if flag in poly_flags else {"type": decimal_int}
            p.add_argument(flag, required=flag in required, action=_Store, **kind)
        p.set_defaults(func=func)

    command("redei", _cmd_redei, "one Redei pair (N_n, D_n)", "--alpha --z -n")
    command("table", _cmd_table, "rows n = 1..n_max of (N_n, D_n)", "--alpha --z --n-max")
    command("solve", _cmd_solve, "normalized solution of P^2-(f^2+d)Q^2=1", "-f -d -n")
    command("solve-m", _cmd_solve_m, "normalized degree-m solution for R=(-f)^m+r",
            "-f -r -m -n")
    command("verify", _cmd_verify, "check P^2 - D*Q^2 == 1 exactly", "--P --Q", "--D -f -d")
    command("identify", _cmd_identify, "match an integer solution to its index n",
            "--P --Q -f -d")
    command("classify", _cmd_classify, "integrality class of d, or the degree-m case",
            "", "-d -r -m -n")
    command("probe", _cmd_probe, "divisibility scan for r = +-m, prime m", "-f -m --n-max")
    return parser


def _json_value(value) -> str:
    """An int by ``decimal_str``, as ``json`` stops at the interpreter's int-to-str
    digit limit; anything else by ``json.dumps``, a Poly through ``Poly.to_json``.
    """
    return decimal_str(value) if type(value) is int else json.dumps(value, default=Poly.to_json)


def _json_line(data: dict) -> str:
    return "{" + ", ".join(f"{json.dumps(k)}: {_json_value(v)}" for k, v in data.items()) + "}"


def _text(value) -> str:
    """A bool as true/false, an int by ``decimal_str``, a Poly (format_poly) or str by ``str``."""
    if type(value) is bool:
        return "true" if value else "false"
    return decimal_str(value) if type(value) is int else str(value)


def _pair(pair) -> dict:
    return {"n": pair.n, "N": pair.N, "D": pair.D}


def emit_table(alpha: Poly, z: Poly, n_max: int, as_json: bool = False) -> str:
    """Table text for rows n = 1..n_max; TSV with a header, or JSON lines."""
    pairs = redei_sequence(alpha, z, n_max)[1:]
    if as_json:
        lines = [_json_line(_pair(p)) for p in pairs]
    else:
        lines = ["n\tN\tD"] + [f"{p.n}\t{p.N}\t{p.D}" for p in pairs]
    return "".join(line + "\n" for line in lines)


def _emit(args, data: dict, *text) -> int:
    """Print ``data`` as one JSON line under --json, else the text lines.

    A text item is a tuple of keys of ``data``, each printed as
    ``key = value``, or a str printed as it stands.
    """
    if args.json:
        print(_json_line(data))
    else:
        for item in text:
            print(item if type(item) is str else "\n".join(f"{k} = {_text(data[k])}" for k in item))
    return 0


def _cmd_redei(args, error) -> int:
    pair = redei_recurrence(parse_poly(args.alpha), parse_poly(args.z), args.n)
    return _emit(args, _pair(pair), ("N", "D"))


def _cmd_table(args, error) -> int:
    sys.stdout.write(emit_table(parse_poly(args.alpha), parse_poly(args.z), args.n_max, args.json))
    return 0


def _cmd_solve(args, error) -> int:
    sol = solve(PellProblem(parse_poly(args.f), args.d), args.n)
    data = {"n": sol.n, "P": sol.P, "Q": sol.Q, "integral": sol.integral,
            "normalizer": decimal_str(sol.normalizer)}
    return _emit(args, data, ("P", "Q", "integral", "normalizer"))


def _cmd_solve_m(args, error) -> int:
    sol = solve_m(parse_poly(args.f), args.r, args.m, args.n)
    data = {"m": sol.m, "n": sol.n, "R": sol.R, "sols": sol.sols, "integral": sol.integral,
            "normalizer": decimal_str(sol.normalizer)}
    sols = (f"P{i} = {s}" for i, s in enumerate(sol.sols, 1))
    return _emit(args, data, ("R",), *sols, ("integral", "normalizer"))


def _cmd_verify(args, error) -> int:
    if args.D is not None and args.f is None and args.d is None:
        D = parse_poly(args.D)
    elif args.D is None and args.f is not None and args.d is not None:
        D = PellProblem(parse_poly(args.f), args.d).D
    else:
        error("verify needs either --D, or -f together with -d")
    ok = verify(parse_poly(args.P), parse_poly(args.Q), D)
    return _emit(args, {"verified": ok}, _text(ok))


def _cmd_identify(args, error) -> int:
    n = identify_solution(parse_poly(args.P), parse_poly(args.Q), parse_poly(args.f), args.d)
    return _emit(args, {"n": n}, "unidentified" if n is None else ("n",))


def _cmd_classify(args, error) -> int:
    degree_m = (args.r, args.m, args.n)
    if args.d is not None and degree_m == (None, None, None):
        tag = classify(args.d).tag
        return _emit(args, {"d": args.d, "class": tag}, tag)
    if args.d is None and None not in degree_m:
        flag = classify_m(*degree_m)
        data = {"r": args.r, "m": args.m, "n": args.n, "integral_case": flag}
        return _emit(args, data, _text(flag))
    error("classify needs -d, or the tuple -r -m -n")


def _cmd_probe(args, error) -> int:
    report = divisibility_probe(parse_poly(args.f), args.m, args.n_max)
    data = {"m": report.m, "f": report.f, "n_max": report.n_max, "ok": report.ok,
            "violation": report.violation}
    result = "ok"
    if not report.ok:
        result = "violation at r={}, n={}, component {}".format(*report.violation)
    return _emit(args, data, ("m", "f", "n_max"), f"result = {result}")


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
