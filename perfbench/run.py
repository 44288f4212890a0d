"""pellred benchmark: one workload, one seed, one line of results.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 15 --trace 0

With ``--trace 0`` it measures the end-to-end metrics untraced; with
``--trace 1`` it measures the per-layer metrics in a separate traced run and
the tracing overhead against the same operations untraced.  Every line but
the last is for people: the metrics with units, the tail percentile and its
sample count, fail_ratio, the output digest and the environment.  The last
line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

The workload runs in a fresh worker process (worker.py) against pellred from
this checkout's ``src``.  Set-up time is the median over several fresh
set-up-only workers.  Every time metric is scaled to a reference host speed
by a calibration task run next to each measurement (``worker.calibrate``);
the unscaled figures are printed beside them and kept in the report.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402
from worker import CAL_REF_S, ROOT, SRC, calibrate, child_env  # noqa: E402

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
)
SETUP_PROBES = 7
CAL_PROBES = 5
START_PROBES = 5
WORKER_TIMEOUT_S = 150


def run_child(cmd: list, timeout: float) -> str:
    """Run a child to completion; its stderr passes through.  Returns stdout."""
    done = subprocess.run(
        cmd, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True, timeout=timeout
    )
    if done.returncode != 0:
        raise SystemExit(f"error: {cmd[1:3]} exited with {done.returncode}")
    return done.stdout


def worker(args, *extra) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    lines = run_child(cmd + list(extra), WORKER_TIMEOUT_S).strip().splitlines()
    if not lines:
        raise SystemExit("error: the worker printed no result")
    return json.loads(lines[-1])


def scaled_setup(args) -> tuple:
    """One set-up-only worker's set-up time: raw, and at the reference speed.

    The scale comes from calibrations run just before and just after it, as
    in ``worker.closed_loop``.
    """
    before = [calibrate() for _ in range(CAL_PROBES)]
    raw = worker(args, "--setup-only")["setup_s"]
    after = [calibrate() for _ in range(CAL_PROBES)]
    return raw, raw * CAL_REF_S / statistics.median(before + after)


def start_times() -> dict:
    """cli.interp_s and cli.import_s: medians over fresh interpreters."""
    code = ("import time; t = time.perf_counter(); import pellred.cli; "
            "print(time.perf_counter() - t)")
    interp, imports = [], []
    for _ in range(START_PROBES):
        t0 = time.perf_counter()
        run_child([sys.executable, "-c", "pass"], 30)
        interp.append(time.perf_counter() - t0)
        imports.append(float(run_child([sys.executable, "-c", code], 30)))
    return {"cli.interp_s": statistics.median(interp), "cli.import_s": statistics.median(imports)}


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(args) -> dict:
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "seed": args.seed,
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="pellred benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "pellred" / "__init__.py").is_file():
        print(f"error: no pellred package at {SRC / 'pellred'}", file=sys.stderr)
        return 2
    env = environment(args)
    # Fills the bytecode cache, so no measured process compiles pellred.
    run_child([sys.executable, "-c", "import pellred.cli"], 60)

    if args.trace:
        result = worker(args)
        result["metrics"].update(start_times())
        names = [name for name, _, _ in tracer.per_layer_spec()]
        units = {name: unit for name, unit, _ in tracer.per_layer_spec()}
        setup = None
    else:
        setups = [scaled_setup(args) for _ in range(SETUP_PROBES)]
        result = worker(args)
        result["metrics"]["setup_s"] = statistics.median(s for _, s in setups)
        result["metrics"]["raw_setup_s"] = statistics.median(r for r, _ in setups)
        names = [name for name, _ in END_TO_END]
        units = dict(END_TO_END)
        setup = setups

    metrics = result["metrics"]
    correct = result["failed"] == 0 and not result["missing_calls"]
    print(f"# pellred benchmark: workload={args.workload} seed={args.seed} trace={args.trace}")
    for name in names:
        raw = metrics.get("raw_" + name)
        unscaled = "" if raw is None else f"   (unscaled {raw:.6g})"
        print(f"{name:34s} {metrics[name]:>16.6g} {units[name]}{unscaled}")
    if not args.trace:
        print(f"{'fail_ratio':34s} {metrics['fail_ratio']:>16.6g} ratio")
        print(f"# latency_tail_ms is p{metrics['latency_tail_pct']:.2f} "
              f"of {metrics['latency_tail_n']} operations")
    if result["missing_calls"]:
        print(f"# no calls recorded for: {', '.join(result['missing_calls'])}")
    for err in result["errors"]:
        print(f"# failed: {json.dumps(err)}")
    report = {
        "environment": env,
        "passes": result["passes"],
        "digest_first_round": result["digest"],
        "setup_samples_s": setup,
        "metrics": metrics,
    }
    print("report " + json.dumps(report))
    print(json.dumps({
        "correct": correct,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
