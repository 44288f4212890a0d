"""The four workloads: seeded operation lists, how to run one, how to check it.

A workload is a grid of cells.  One round holds one operation per cell, in a
seeded order, with seeded operands.  A run generates ``rounds`` rounds and
the closed loop runs all of them in every pass, so every run sees the same
mix whatever the seed and however fast the code is.
The operation lists are plain data and a pure function of the seed; pellred
objects are built from them in ``prepare``, during set-up.

``run`` is the timed part and calls pellred only through public names looked
up at call time, so the tracer's wrappers see every call.  ``check`` is not
timed: it turns the outputs into their wire form, checks them with
``oracle`` and returns the canonical record that goes into the digest.
"""

from __future__ import annotations

import json
import random

import oracle as orc


def rand_poly(rng, deg: int, bound: int = 5) -> list:
    """Coefficients in [-bound, bound], ascending, with a nonzero leading one."""
    lead = rng.choice([c for c in range(-bound, bound + 1) if c])
    return [rng.randint(-bound, bound) for _ in range(deg)] + [lead]


def make_rounds(workload, seed: int, count: int | None = None) -> list:
    """``count`` rounds of operations (default: the workload's own count)."""
    rng = random.Random(f"{workload.name}/{seed}")
    rounds = []
    for _ in range(workload.rounds if count is None else count):
        cells = workload.cells()
        rng.shuffle(cells)
        rounds.append([workload.make_op(rng, cell) for cell in cells])
    return rounds


class Sweep:
    """The classification sweep: many small operands and Fraction outputs."""

    name = "sweep"
    module = "pellred"
    rounds = 4
    trace_rounds = 4
    n_max = 20
    expect_calls = (
        "polyring.mul",
        "polyring.square",
        "polyring.add",
        "polyring.sub",
        "redei.redei_sequence",
        "pell2.solve_sequence",
        "pell2.verify",
        "pell2.descend",
        "pell2.identify_solution",
    )

    def cells(self):
        return [(deg, d) for deg in (1, 2, 3, 4) for d in (*range(1, 7), *range(-6, 0))]

    def make_op(self, rng, cell):
        deg, d = cell
        return {"f": rand_poly(rng, deg), "d": d}

    def prepare(self, api, op):
        f = api.Poly(op["f"])
        return api.PellProblem(f, op["d"]), f

    def run(self, api, item):
        problem, f = item
        seq = api.solve_sequence(problem, self.n_max)
        D = problem.D
        verdicts = [api.verify(s.P, s.Q, D) for s in seq if s is not None]
        idents = [
            (n, api.identify_solution(seq[n].P, seq[n].Q, f, problem.d))
            for n in (4, 8)
            if seq[n] is not None and seq[n].integral
        ]
        return seq, verdicts, idents

    def check(self, op, result, x0):
        f, d = op["f"], op["d"]
        seq, verdicts, idents = result
        ok = len(seq) == self.n_max + 1
        canon, want_idents = [], []
        for n, sol in enumerate(seq):
            scale = orc.normalizer(d, n)
            if sol is None:
                ok = ok and scale is None
                canon.append(None)
                continue
            P, Q = sol.P.to_json(), sol.Q.to_json()
            Pc, Qc = orc.from_wire(P), orc.from_wire(Q)
            ok = (
                ok
                and sol.n == n
                and sol.normalizer == scale
                and orc.pell_solution_ok(Pc, Qc, f, d, n, sol.integral, x0)
            )
            if n in (4, 8) and orc.is_integral(Pc) and orc.is_integral(Qc):
                want_idents.append((n, n))
            canon.append([P, Q, sol.integral, str(sol.normalizer)])
        defined = sum(s is not None for s in seq)
        ok = ok and verdicts == [True] * defined and list(idents) == want_idents
        return ok, [canon, verdicts, [list(i) for i in idents]]


class HighIndex:
    """Few large all-integer operands: the multiplication kernel dominates."""

    name = "high-index"
    module = "pellred"
    rounds = 2
    trace_rounds = 1
    expect_calls = (
        "polyring.mul",
        "polyring.square",
        "polyring.sub",
        "redei.redei_sequence",
        "redei.redei_recurrence",
        "pell2.solve",
        "pell2.verify",
    )

    def cells(self):
        # Cost comes in six tiers, one per (degree, n), each twice the one below.
        # Equal tiers would put the median in the gap between the third and
        # fourth; giving degree 3 at n = 128 two operations per d puts it
        # inside that tier instead.  Degree 3 at n = 192 also gets two, so
        # that over two rounds the tail (the 11th-largest time) falls inside
        # the top tier, not at the upper edge of the one below it.
        grid = [(deg, d, n) for deg in (2, 3) for d in (-1, 1, 2, -2) for n in (64, 128, 192)]
        return grid + [(3, d, n) for d in (-1, 1, 2, -2) for n in (128, 192)]

    def make_op(self, rng, cell):
        deg, d, n = cell
        return {"f": rand_poly(rng, deg), "d": d, "n": n}

    def prepare(self, api, op):
        return api.PellProblem(api.Poly(op["f"]), op["d"]), op["n"]

    def run(self, api, item):
        problem, n = item
        sol = api.solve(problem, n)
        return sol, api.verify(sol.P, sol.Q, problem.D)

    def check(self, op, result, x0):
        f, d, n = op["f"], op["d"], op["n"]
        sol, verdict = result
        P, Q = sol.P.to_json(), sol.Q.to_json()
        ok = (
            verdict is True
            and sol.n == n
            and sol.normalizer == orc.normalizer(d, n)
            and orc.pell_solution_ok(
                orc.from_wire(P), orc.from_wire(Q), f, d, n, sol.integral, x0
            )
        )
        return ok, [P, Q, sol.integral, str(sol.normalizer)]


class DegreeM:
    """The twisted-circulant generalization: the only user of polymat."""

    name = "degree-m"
    module = "pellred"
    rounds = 3
    trace_rounds = 1
    expect_calls = (
        "polyring.mul",
        "polyring.pow",
        "polyring.divmod",
        "polyring.div_exact",
        "polymat.matmul",
        "polymat.pow",
        "polymat.det_cofactor",
        "polymat.det_bareiss",
        "polymat.char_poly",
        "polymat.build_circulant",
        "pellm.gen_redei",
        "pellm.solve_m",
        "pellm.verify_m",
    )

    def cells(self):
        return [
            (m, r, k, deg)
            for m in (3, 4, 5)
            for r in (-1, 1, m, -m, 2)
            for k in (1, 2, 3)
            for deg in (1, 2)
        ]

    def make_op(self, rng, cell):
        m, r, k, deg = cell
        return {"f": rand_poly(rng, deg), "r": r, "m": m, "n": k * m}

    def prepare(self, api, op):
        return api.Poly(op["f"]), op["r"], op["m"], op["n"]

    def run(self, api, item):
        f, r, m, n = item
        sol = api.solve_m(f, r, m, n)
        verdict = api.verify_m(sol)
        return sol, verdict, api.step_matrix(f, sol.R, m).char_poly()

    def check(self, op, result, x0):
        f, r, m, n = op["f"], op["r"], op["m"], op["n"]
        sol, verdict, char = result
        f0 = orc.horner(f, x0)
        R = sol.R.to_json()
        R0 = orc.value_at(orc.from_wire(R), x0)
        sols = [s.to_json() for s in sol.sols]
        sols_c = [orc.from_wire(s) for s in sols]
        char_w = [c.to_json() for c in char]
        char_at_x0 = [orc.value_at(orc.from_wire(c), x0) for c in char_w]
        ok = (
            verdict is True
            and (sol.m, sol.n) == (m, n)
            and R0 == (-f0) ** m + r
            and len(sols) == m
            and orc.circulant_det([orc.value_at(s, x0) for s in sols_c], R0) == 1
            and sol.integral == all(orc.is_integral(s) for s in sols_c)
            and len(char_w) == m + 1
            and orc.step_char_poly_ok(char_at_x0, f0, R0, m, [x0 + j for j in range(1, m + 2)])
        )
        return ok, [R, sols, sol.integral, str(sol.normalizer), char_w]


class Cli:
    """Sequential ``python -m pellred`` calls: start-up and imports dominate.

    Every subcommand appears once as text and once with ``--json`` in each
    round, plus two expected refusals: an odd index with irrational
    normalizer (exit 1) and a polynomial syntax error (exit 2).
    """

    name = "cli"
    module = "pellred.cli"
    rounds = 2
    trace_rounds = 24
    kinds = ("redei", "table", "solve", "solve-m", "verify", "identify", "classify", "probe")
    expect_calls = (
        "cli.main",
        "polyring.parse_poly",
        "polyring.format_poly",
        "polyring.to_json",
        "redei.redei_recurrence",
        "redei.redei_sequence",
        "pell2.solve",
        "pell2.verify",
        "pell2.identify_solution",
        "pellm.solve_m",
        "pellm.divisibility_probe",
    )

    def cells(self):
        cells = [(kind, as_json) for kind in self.kinds for as_json in (False, True)]
        return cells + [("refuse-odd", False), ("refuse-syntax", True)]

    def make_op(self, rng, cell):
        kind, as_json = cell
        fmt = orc.format_int_poly
        op = {"kind": kind, "json": as_json, "code": 0}
        if kind in ("redei", "table"):
            op["alpha"] = rand_poly(rng, rng.randint(1, 4), 3)
            op["z"] = rand_poly(rng, rng.randint(1, 2), 3)
            op["n"] = rng.randint(1, 8) if kind == "redei" else rng.randint(1, 6)
            flag = "-n" if kind == "redei" else "--n-max"
            argv = [kind, f"--alpha={fmt(op['alpha'])}", f"--z={fmt(op['z'])}", f"{flag}={op['n']}"]
        elif kind == "solve":
            op["f"] = rand_poly(rng, rng.randint(1, 2), 3)
            op["d"] = rng.choice([-1, 1, 2, -2, 3, -3, 4, -4, 5])
            op["n"] = rng.randint(0, 8)
            if orc.normalizer(op["d"], op["n"]) is None:
                op["n"] += 1
            argv = ["solve", f"-f={fmt(op['f'])}", f"-d={op['d']}", f"-n={op['n']}"]
        elif kind == "solve-m":
            m = rng.choice([2, 3, 4])
            op.update(f=rand_poly(rng, rng.randint(1, 2), 3), m=m,
                      r=rng.choice([-1, 1, m, -m, 2]), n=m * rng.randint(1, 2))
            argv = ["solve-m", f"-f={fmt(op['f'])}", f"-r={op['r']}", f"-m={m}", f"-n={op['n']}"]
        elif kind in ("verify", "identify"):
            f = rand_poly(rng, rng.randint(1, 2), 3)
            d, k = rng.choice([(-1, 1), (-1, 2), (-1, 3), (1, 2), (2, 2), (-2, 2), (1, 4), (-2, 4)])
            P, Q = orc.pell_pair(f, d, k)
            if kind == "identify":
                op["expect"] = k
                argv = ["identify", f"--P={fmt(P)}", f"--Q={fmt(Q)}", f"-f={fmt(f)}", f"-d={d}"]
            else:
                op["expect"] = rng.random() < 0.5
                if not op["expect"]:
                    P = orc.padd(P, [1])
                target = (
                    [f"--D={fmt(orc.padd(orc.pmul(f, f), [d]))}"]
                    if rng.random() < 0.5
                    else [f"-f={fmt(f)}", f"-d={d}"]
                )
                argv = ["verify", f"--P={fmt(P)}", f"--Q={fmt(Q)}", *target]
        elif kind == "classify":
            if rng.random() < 0.5:
                op["d"] = rng.choice([c for c in range(-6, 7) if c])
                op["expect"] = orc.paper_class(op["d"])
                argv = ["classify", f"-d={op['d']}"]
            else:
                r, m, n = rng.choice([-1, 1, 2, 3, -3, 5]), rng.randint(2, 5), rng.randint(0, 10)
                op.update(r=r, m=m, n=n, expect=orc.paper_case_m(r, m, n))
                argv = ["classify", f"-r={r}", f"-m={m}", f"-n={n}"]
        elif kind == "probe":
            op.update(f=rand_poly(rng, rng.randint(1, 2), 3), m=rng.choice([2, 3, 5]),
                      n=rng.randint(4, 12))
            argv = ["probe", f"-f={fmt(op['f'])}", f"-m={op['m']}", f"--n-max={op['n']}"]
        elif kind == "refuse-odd":
            op.update(code=1, error="OddIndexUndefined")
            d = rng.choice([2, -2, 3, -3, 5, 6])
            argv = ["solve", f"-f={fmt(rand_poly(rng, 1, 3))}", f"-d={d}", f"-n={rng.choice([1, 3, 5])}"]
        else:
            op.update(code=2, error="ParseError")
            bad = rng.choice(["x^^2", "2x^", "x+*1", "3y"])
            argv = ["solve", f"-f={bad}", "-d=1", "-n=2"]
        op["argv"] = argv + (["--json"] if as_json else [])
        return op

    def prepare(self, api, op):
        return op["argv"]

    def run(self, api, argv):
        return api(argv)

    def check(self, op, result, x0):
        code, out, err = result
        name = err.split(":", 1)[0] if err else ""
        canon = [code, out, name]
        if code != op["code"]:
            return False, canon
        if code:
            return out == "" and name == op["error"], canon
        return err == "" and self._output_ok(op, out, x0), canon

    def _output_ok(self, op, out, x0):
        kind = op["kind"]
        if op["json"]:
            records = [json.loads(line) for line in out.splitlines()]
            data = records[0] if len(records) == 1 else None
            poly = orc.from_wire
        else:
            lines = out.splitlines()
            data = dict(line.split(" = ", 1) for line in lines if " = " in line)
            poly = orc.parse_canonical
        if kind == "redei":
            if op["json"] and data["n"] != op["n"]:
                return False
            return self._redei_ok(op, op["n"], poly(data["N"]), poly(data["D"]), x0)
        if kind == "table":
            if op["json"]:
                rows = [(r["n"], r["N"], r["D"]) for r in records]
            else:
                if lines[0] != "n\tN\tD":
                    return False
                rows = [line.split("\t") for line in lines[1:]]
                rows = [(int(k), N, D) for k, N, D in rows]
            return [k for k, _, _ in rows] == list(range(1, op["n"] + 1)) and all(
                self._redei_ok(op, k, poly(N), poly(D), x0) for k, N, D in rows
            )
        if kind == "solve":
            if op["json"] and data["n"] != op["n"]:
                return False
            integral = data["integral"] if op["json"] else data["integral"] == "true"
            return int(data["normalizer"]) == orc.normalizer(op["d"], op["n"]) and (
                orc.pell_solution_ok(
                    poly(data["P"]), poly(data["Q"]), op["f"], op["d"], op["n"], integral, x0
                )
            )
        if kind == "solve-m":
            m = op["m"]
            if op["json"]:
                if (data["m"], data["n"]) != (m, op["n"]):
                    return False
                sols = [poly(s) for s in data["sols"]]
                integral = data["integral"]
            else:
                sols = [poly(data[f"P{i}"]) for i in range(1, m + 1)]
                integral = data["integral"] == "true"
            R0 = orc.value_at(poly(data["R"]), x0)
            return (
                len(sols) == m
                and R0 == (-orc.horner(op["f"], x0)) ** m + op["r"]
                and orc.circulant_det([orc.value_at(s, x0) for s in sols], R0) == 1
                and integral == all(orc.is_integral(s) for s in sols)
            )
        if kind == "verify":
            got = data["verified"] if op["json"] else {"true": True, "false": False}.get(out.strip())
            return got is op["expect"]
        if kind == "identify":
            got = data["n"] if op["json"] else out.strip()
            return got == (op["expect"] if op["json"] else f"n = {op['expect']}")
        if kind == "classify":
            if "d" in op:
                if op["json"]:
                    return data == {"d": op["d"], "class": op["expect"]}
                return out.strip() == op["expect"]
            if op["json"]:
                return data["integral_case"] is op["expect"] and (
                    (data["r"], data["m"], data["n"]) == (op["r"], op["m"], op["n"])
                )
            return out.strip() == ("true" if op["expect"] else "false")
        if kind == "probe":
            if op["json"]:
                ok = data["ok"] is True and data["violation"] is None
            else:
                ok = data["result"] == "ok"
            return (
                ok
                and int(data["m"]) == op["m"]
                and int(data["n_max"]) == op["n"]
                and poly(data["f"]) == (op["f"], [1] * len(op["f"]))
            )
        raise ValueError(f"unknown operation kind {kind}")

    @staticmethod
    def _redei_ok(op, n, N, D, x0):
        a0, z0 = orc.horner(op["alpha"], x0), orc.horner(op["z"], x0)
        return (orc.value_at(N, x0), orc.value_at(D, x0)) == orc.redei_at(a0, z0, n)


WORKLOADS = {w.name: w for w in (Sweep(), HighIndex(), DegreeM(), Cli())}
