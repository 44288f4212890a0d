"""Tests of the benchmark itself: seeding, digests, the oracle and the tracer.

    python3 -m pytest perfbench      (or: python3 -m unittest discover -s perfbench)
"""

from __future__ import annotations

import dataclasses
import json
import random
import sys
import time
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

pellred = worker.import_target("pellred")
cli = worker.import_target("pellred.cli")
X0 = oracle.odd_point(random.Random("x0/test"))
W = workloads.WORKLOADS


def first_round(wl, seed=3):
    ops = workloads.make_rounds(wl, seed, 1)[0]
    return ops, [wl.prepare(pellred, op) for op in ops]


def flagged(wl, op, result) -> bool:
    """The oracle rejects the output, or cannot read it (the loop counts both as failed)."""
    try:
        return not wl.check(op, result, X0)[0]
    except (ValueError, KeyError, IndexError):
        return True


def run_round(wl, ops, items, execute):
    return worker.closed_loop(wl, [ops], [items], execute, time.process_time, X0, passes=1)


class Seeding(unittest.TestCase):
    def test_operation_list_is_a_pure_function_of_the_seed(self):
        for wl in W.values():
            with self.subTest(wl.name):
                a = workloads.make_rounds(wl, 11, 3)
                self.assertEqual(a, workloads.make_rounds(wl, 11, 3))
                self.assertNotEqual(a, workloads.make_rounds(wl, 12, 3))
                # Plain data only, so the list is the same in any process.
                self.assertEqual(json.loads(json.dumps(a)), a)

    def test_every_round_has_every_cell_once(self):
        for wl in W.values():
            for rnd in workloads.make_rounds(wl, 5, 2):
                self.assertEqual(len(rnd), len(wl.cells()))


class Digest(unittest.TestCase):
    def test_digest_repeats_across_runs(self):
        wl = W["sweep"]
        ops, items = first_round(wl)
        runs = [run_round(wl, ops, items, lambda it: wl.run(pellred, it)) for _ in range(2)]
        self.assertEqual(runs[0]["failed"], 0, runs[0]["errors"])
        self.assertEqual(runs[0]["digest"], runs[1]["digest"])
        other = run_round(wl, *first_round(wl, seed=4), lambda it: wl.run(pellred, it))
        self.assertNotEqual(runs[0]["digest"], other["digest"])

    def test_cli_in_process_digest_repeats(self):
        wl = W["cli"]
        ops, items = first_round(wl)
        call = worker.cli_in_process(cli)
        runs = [run_round(wl, ops, items, call) for _ in range(2)]
        self.assertEqual(runs[0]["failed"], 0, runs[0]["errors"])
        self.assertEqual(runs[0]["digest"], runs[1]["digest"])


class Scaling(unittest.TestCase):
    def test_times_are_scaled_by_the_calibration(self):
        wl = W["sweep"]
        ops, items = first_round(wl)
        ops, items = ops[:4], items[:4]
        saved = worker.calibrate
        worker.calibrate = lambda: 2 * worker.CAL_REF_S  # a host at half the reference speed
        try:
            phase = run_round(wl, ops, items, lambda it: wl.run(pellred, it))
        finally:
            worker.calibrate = saved
        self.assertEqual(phase["failed"], 0, phase["errors"])
        self.assertEqual(len(phase["latencies"]), len(ops))
        for scaled, raw in zip(phase["latencies"], phase["raw_latencies"]):
            self.assertAlmostEqual(scaled, raw / 2)
        m = worker.end_to_end(phase, 1024)
        self.assertAlmostEqual(m["ops_per_s"], 2 * m["raw_ops_per_s"])
        self.assertEqual(m["latency_tail_n"], len(ops))


class Oracle(unittest.TestCase):
    def test_text_round_trip(self):
        rng = random.Random(1)
        for _ in range(200):
            a = workloads.rand_poly(rng, rng.randint(0, 6))
            self.assertEqual(oracle.parse_canonical(oracle.format_int_poly(a)), (a, [1] * len(a)))
        self.assertEqual(oracle.parse_canonical("-1/2x^3+x-4"), ([-4, 1, 0, -1], [1, 1, 1, 2]))

    def test_det_and_redei(self):
        self.assertEqual(oracle.det([[2, 1], [1, 3]]), 5)
        self.assertEqual(oracle.det([[0, 1, 0], [1, 0, 0], [0, 0, 4]]), -4)
        # (3 + sqrt(2))^2 = 11 + 6 sqrt(2)
        self.assertEqual(oracle.redei_at(2, 3, 2), (11, 6))
        P, Q = oracle.pell_pair([0, 1], 2, 2)
        self.assertTrue(oracle.pell_holds((P, [1] * len(P)), (Q, [1] * len(Q)), [0, 1], 2, X0))

    def test_quadratic_corruptions_are_flagged(self):
        wl = W["high-index"]
        op = {"f": [1, -2, 3], "d": 2, "n": 6}
        item = wl.prepare(pellred, op)
        sol, verdict = wl.run(pellred, item)
        self.assertTrue(wl.check(op, (sol, verdict), X0)[0])
        bad = [
            dataclasses.replace(sol, P=sol.P + 1),
            dataclasses.replace(sol, Q=sol.Q * 2),
            dataclasses.replace(sol, integral=not sol.integral),
            dataclasses.replace(sol, P=sol.P * pellred.X),
        ]
        for wrong in bad:
            self.assertFalse(wl.check(op, (wrong, verdict), X0)[0])
        self.assertFalse(wl.check(op, (sol, False), X0)[0])

    def test_sweep_corruption_is_flagged(self):
        wl = W["sweep"]
        op = {"f": [1, 2], "d": -1}
        seq, verdicts, idents = wl.run(pellred, wl.prepare(pellred, op))
        self.assertTrue(wl.check(op, (seq, verdicts, idents), X0)[0])
        broken = list(seq)
        broken[7] = dataclasses.replace(seq[7], P=seq[7].P + 1)
        self.assertFalse(wl.check(op, (broken, verdicts, idents), X0)[0])
        self.assertFalse(wl.check(op, (seq, verdicts, [(4, None), (8, 8)]), X0)[0])

    def test_wrong_det_and_char_poly_are_flagged(self):
        wl = W["degree-m"]
        op = {"f": [2, 1], "r": 2, "m": 4, "n": 4}
        sol, verdict, char = wl.run(pellred, wl.prepare(pellred, op))
        self.assertTrue(wl.check(op, (sol, verdict, char), X0)[0])
        sols = (sol.sols[0] + 1,) + sol.sols[1:]
        self.assertFalse(wl.check(op, (dataclasses.replace(sol, sols=sols), verdict, char), X0)[0])
        char = (char[0] + pellred.X,) + char[1:]
        self.assertFalse(wl.check(op, (sol, verdict, char), X0)[0])

    def test_cli_corruption_is_flagged(self):
        wl = W["cli"]
        call = worker.cli_in_process(cli)
        ops = workloads.make_rounds(wl, 8, 1)[0]
        for op in ops:
            code, out, err = call(op["argv"])
            self.assertTrue(wl.check(op, (code, out, err), X0)[0], op)
            self.assertFalse(wl.check(op, (code + 1, out, err), X0)[0])
            digits = [i for i, ch in enumerate(out) if ch.isdigit()]
            if digits:
                i = digits[0]
                wrong = out[:i] + str((int(out[i]) + 1) % 10) + out[i + 1:]
                self.assertTrue(flagged(wl, op, (code, wrong, err)), (op, wrong))


class Tracing(unittest.TestCase):
    def test_every_reference_is_wrapped_and_restored(self):
        originals = (pellred.pell2.verify, pellred.polyring.Poly.__mul__)
        tr = tracing.Tracer()
        tr.install()
        try:
            wrapped = pellred.pell2.verify
            self.assertIsNot(wrapped, originals[0])
            self.assertIs(pellred.verify, wrapped)
            self.assertIs(cli.verify, wrapped)
            Poly = pellred.polyring.Poly
            self.assertIs(vars(Poly)["__rmul__"], vars(Poly)["__mul__"])
            self.assertIs(pellred.pell2.redei_sequence, pellred.redei.redei_sequence)
            tr.run_op(lambda: 2 * pellred.Poly("x+1"))
            self.assertEqual(tr.count("polyring.mul"), 1)
            # Outside an operation nothing is recorded.
            pellred.verify(pellred.ONE, pellred.ZERO, pellred.X)
            self.assertEqual(tr.count("pell2.verify"), 0)
        finally:
            tr.uninstall()
        self.assertIs(pellred.pell2.verify, originals[0])
        self.assertIs(cli.verify, originals[0])
        self.assertIs(pellred.polyring.Poly.__rmul__, originals[1])

    def test_traced_sweep_counts_every_expected_call(self):
        wl = W["sweep"]
        ops, items = first_round(wl)
        tr = tracing.Tracer()
        tr.install()
        try:
            phase = run_round(wl, ops, items, lambda it: tr.run_op(wl.run, pellred, it))
        finally:
            tr.uninstall()
        self.assertEqual(phase["failed"], 0)
        for name in wl.expect_calls:
            self.assertGreater(tr.count(name), 0, name)
        m = tr.metrics()
        self.assertEqual(m["redei.pairs_per_request"], 1.0)
        self.assertEqual(m["pell2.identify.hit_ratio"], 1.0)
        self.assertGreater(tr.count("pell2.verify"), len(ops))
        self.assertLessEqual(sum(tr.self_s), sum(phase["raw_latencies"]))

    def test_pairs_per_request_counts_unused_pairs(self):
        tr = tracing.Tracer()
        tr.install()
        try:
            tr.run_op(pellred.solve, pellred.PellProblem(pellred.X, 1), 10)
        finally:
            tr.uninstall()
        self.assertEqual(tr.metrics()["redei.pairs_per_request"], 11.0)


class Declaration(unittest.TestCase):
    def test_benchmark_json_matches_the_code(self):
        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        self.assertEqual([w["name"] for w in spec["workloads"]], list(W))
        self.assertEqual(
            [(m["name"], m["unit"]) for m in spec["end_to_end"]], list(run.END_TO_END)
        )
        self.assertEqual(
            [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]],
            tracing.per_layer_spec(),
        )


if __name__ == "__main__":
    unittest.main()
