"""Run one workload in this process: set-up, closed loop, oracle, trace.

Started by run.py as a fresh process, one per measurement.  The last line of
its standard output is one JSON object; run.py turns it into the report.

Set-up is the time from this process's first statement to the first timed
operation: importing pellred and the benchmark, generating the seeded
operation list and building pellred inputs from it.  With ``--setup-only``
the worker stops there and prints only the set-up time.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from contextlib import redirect_stderr, redirect_stdout  # noqa: E402
from fractions import Fraction  # noqa: E402
from pathlib import Path  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CHILD_TIMEOUT_S = 60
MIN_PASSES = 2
# calibrate()'s time at the reference speed, near its fastest time on the
# 2-vCPU Intel Xeon VM with CPython 3.11 where the benchmark was tuned.  A
# scaled time reads as that host's time when calibrate() takes this long.
CAL_REF_S = 0.0005
CAL_BIG = 3**2000
CAL_MOD = (CAL_BIG - 1) << 3000


def import_target(module: str):
    """Import pellred from this checkout's src, never from anywhere else."""
    package = SRC / "pellred"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"error: no pellred package at {package}")
    sys.path.insert(0, str(SRC))
    mod = importlib.import_module(module)
    found = Path(sys.modules["pellred"].__file__).resolve().parent
    if found != package.resolve():
        raise SystemExit(f"error: imported pellred from {found}, not {package}")
    return mod


def child_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC))


def cli_subprocess(argv):
    """One ``python -m pellred`` call; returns (exit code, stdout, stderr)."""
    done = subprocess.run(
        [sys.executable, "-m", "pellred", *argv],
        cwd=ROOT, env=child_env(), capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return done.returncode, done.stdout, done.stderr


def cli_in_process(cli):
    def call(argv):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    return call


def children_cpu() -> float:
    ru = resource.getrusage(resource.RUSAGE_CHILDREN)
    return ru.ru_utime + ru.ru_stime


def calibrate() -> float:
    """Seconds taken by a fixed pure-Python task: the host's current speed.

    The task mixes what the workloads do (Fraction sums, small-int loops with
    a dict, big-int products) and uses nothing from pellred.
    """
    t0 = time.perf_counter()
    acc = Fraction(0)
    for i in range(1, 60):
        acc += Fraction(i, i + 7)
    x, table = 1, {}
    for i in range(600):
        x = (x * 1000003 + i) % 2305843009213693951
        table[i & 63] = x
    y = CAL_BIG
    for _ in range(4):
        y = y * CAL_BIG % CAL_MOD
    return time.perf_counter() - t0


def closed_loop(wl, rounds, items, execute, cpu_clock, x0, seconds=None, passes=None):
    """One client: each operation starts when the previous one is checked.

    A pass runs every generated operation once, in the same order.  Passes
    repeat for about ``seconds`` of wall time, at least ``MIN_PASSES`` of them,
    or exactly ``passes``.  The oracle checks every output between operations
    and is not timed.  The digest covers the inputs and canonical outputs of
    the first round of the first pass.

    A shared host switches between faster and slower states for seconds at a
    time, and the slowdown reaches a whole run.  So ``calibrate`` runs before
    every operation and once after the last, and each operation's time is
    scaled by ``CAL_REF_S`` over the median of the two calibrations before
    and the two after it: its time at the reference speed.  An operation's
    figure is the median of its scaled times over the passes.  The raw
    (unscaled) best times over the passes are returned as well.
    """
    ops = [pair for rnd, its in zip(rounds, items) for pair in zip(rnd, its)]
    raw_lat, raw_cpu = [math.inf] * len(ops), [math.inf] * len(ops)
    lat, cpu = [[] for _ in ops], [[] for _ in ops]
    errors, failed, attempted, done = [], 0, 0, 0
    digest = hashlib.sha256()
    started = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        cal, pass_lat, pass_cpu = [], [], []
        for i, (op, item) in enumerate(ops):
            cal.append(calibrate())
            c0 = cpu_clock()
            t0 = time.perf_counter()
            try:
                result, raised = execute(item), None
            except Exception as exc:  # an operation outside its expected outcome
                result, raised = None, exc
            t1 = time.perf_counter()
            pass_cpu.append(cpu_clock() - c0)
            pass_lat.append(t1 - t0)
            attempted += 1
            ok, canon = False, None
            if raised is None:
                try:
                    ok, canon = wl.check(op, result, x0)
                except Exception as exc:  # malformed output
                    raised = exc
            if not ok:
                failed += 1
                if len(errors) < 5:
                    errors.append({"op": op, "error": repr(raised) if raised else "oracle rejected"})
            if done == 0 and i < len(rounds[0]):
                record = json.dumps([op, canon], sort_keys=True, separators=(",", ":"))
                digest.update(record.encode() + b"\n")
        cal.append(calibrate())
        for i, (t, c) in enumerate(zip(pass_lat, pass_cpu)):
            scale = CAL_REF_S / statistics.median(cal[max(0, i - 1):i + 3])
            lat[i].append(t * scale)
            cpu[i].append(c * scale)
            raw_lat[i] = min(raw_lat[i], t)
            raw_cpu[i] = min(raw_cpu[i], c)
        done += 1
        if passes is not None:
            if done >= passes:
                break
            continue
        # Stop at the pass boundary nearest to ``seconds`` of wall time.
        now = time.perf_counter()
        if done >= MIN_PASSES and now - started + (now - pass_start) / 2 >= seconds:
            break
    lat = [statistics.median(ts) for ts in lat]
    return {
        "latencies": lat, "cpu": [statistics.median(cs) for cs in cpu],
        "raw_latencies": raw_lat, "raw_cpu": raw_cpu,
        "attempted": attempted, "failed": failed, "busy": sum(lat), "passes": done,
        "digest": digest.hexdigest(), "errors": errors,
    }


def end_to_end(phase, peak_rss_kb) -> dict:
    """The end-to-end metrics of one untraced phase, with the tail's rank.

    The declared time metrics are at the reference speed; ``raw_*`` are the
    same figures from each operation's unscaled best time, for reading only.
    """
    out = {}
    for prefix, lat, cpu in (
        ("", phase["latencies"], phase["cpu"]),
        ("raw_", phase["raw_latencies"], phase["raw_cpu"]),
    ):
        lat = sorted(lat)
        n = len(lat)
        tail_rank = n - 11 if n > 10 else n - 1
        out.update({
            prefix + "ops_per_s": n / sum(lat),
            prefix + "latency_p50_ms": statistics.median(lat) * 1000,
            prefix + "latency_tail_ms": lat[tail_rank] * 1000,
            prefix + "cpu_ms_per_op": sum(cpu) / n * 1000,
        })
    out.update({
        "latency_tail_pct": 100 * (tail_rank + 1) / n,
        "latency_tail_n": n,
        "peak_rss_mb": peak_rss_kb / 1024,
        "fail_ratio": phase["failed"] / phase["attempted"],
    })
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    target = import_target(wl.module)
    rounds = workloads.make_rounds(wl, args.seed, wl.trace_rounds if args.trace else wl.rounds)
    items = [[wl.prepare(target, op) for op in rnd] for rnd in rounds]
    x0 = oracle.odd_point(random.Random(f"x0/{args.seed}"))
    setup_s = time.perf_counter() - STARTED
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    if not args.trace:
        # The cli workload's operations are child processes; measure those.
        if wl.name == "cli":
            execute, cpu_clock, who = cli_subprocess, children_cpu, resource.RUSAGE_CHILDREN
        else:
            execute, cpu_clock, who = (
                lambda item: wl.run(target, item), time.process_time, resource.RUSAGE_SELF
            )
        phase = closed_loop(wl, rounds, items, execute, cpu_clock, x0, seconds=args.seconds)
        out = {
            "setup_s": setup_s,
            "attempted": phase["attempted"],
            "failed": phase["failed"],
            "passes": phase["passes"],
            "digest": phase["digest"],
            "errors": phase["errors"],
            "metrics": end_to_end(phase, resource.getrusage(who).ru_maxrss),
            "missing_calls": [],
        }
        print(json.dumps(out))
        return 0

    # Traced run: one pass untraced, then one traced, both in this process.
    api = cli_in_process(target) if wl.name == "cli" else target

    def plain(item):
        return wl.run(api, item)

    tr = tracing.Tracer()

    def traced(item):
        return tr.run_op(wl.run, api, item)

    base = closed_loop(wl, rounds, items, plain, time.process_time, x0, passes=1)
    tr.install()
    try:
        phase = closed_loop(wl, rounds, items, traced, time.process_time, x0, passes=1)
    finally:
        tr.uninstall()
    metrics = tr.metrics()
    metrics["trace.ops_per_s_traced"] = len(phase["latencies"]) / phase["busy"]
    metrics["trace.ops_per_s_untraced"] = len(base["latencies"]) / base["busy"]
    metrics["trace.overhead_ratio"] = (
        metrics["trace.ops_per_s_traced"] / metrics["trace.ops_per_s_untraced"]
    )
    missing = [name for name in wl.expect_calls if tr.count(name) == 0]
    errors = base["errors"] + phase["errors"]
    if base["digest"] != phase["digest"]:
        errors.append({"error": "traced outputs differ from untraced outputs"})
    out = {
        "setup_s": setup_s,
        "attempted": base["attempted"] + phase["attempted"],
        "failed": base["failed"] + phase["failed"] + (base["digest"] != phase["digest"]),
        "passes": 1,
        "digest": phase["digest"],
        "errors": errors,
        "metrics": metrics,
        "missing_calls": missing,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
