"""Benchmark of the lcmlattice command line, end to end and per layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload analyze-large --seed 1 --seconds 40 --trace 0

Without ``--workload`` it runs every workload in turn.  The benchmark is a
closed loop with one client: each pass runs the workload's operations one
after the other through ``lcmlattice.cli.main`` in a fresh interpreter
(worker.py), so a cache can only help within one pass.  Passes repeat until
the next one would end after ``--seconds``, with at least two.  Every output
is checked by check.py; a non-zero exit, an exception or a wrong output is a
failed operation.  With ``--trace 1`` traced and untraced passes alternate and
the per-layer metrics come from the traced ones.  The last line of stdout is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import check
import reference
import workloads
from tracing import METRICS as LAYER_METRICS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

MIN_PASSES = 2
#: setup_s is the median of this many imports: one per untraced pass, the rest
#: from import-only interpreters started between passes.
SETUP_SAMPLES = 12
WORKER_TIMEOUT_S = 170

#: The worker runs with the interpreter's defaults: no -O, no digit limit change.
_DROPPED_ENV = ("PYTHONINTMAXSTRDIGITS", "PYTHONOPTIMIZE", "PYTHONPATH")


class WorkerError(RuntimeError):
    pass


def run_worker(ops: list[dict], spans_path: Path | None = None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), str(SRC)]
    if spans_path is not None:
        cmd.append(str(spans_path))
    env = {k: v for k, v in os.environ.items() if k not in _DROPPED_ENV}
    proc = subprocess.run(cmd, input=json.dumps(ops), capture_output=True, text=True,
                          env=env, timeout=WORKER_TIMEOUT_S, cwd=ROOT)
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout)


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _scaled(seconds: float, reference_s: float) -> float:
    """A time at the reference speed (see reference.py), given the reference's
    duration measured around it."""
    return seconds * reference.REFERENCE_S / reference_s


def _scaled_ops(worker: dict) -> list[float]:
    return [_scaled(r["s"], r["ref_s"]) for r in worker["ops"]]


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    ops = workloads.operations(workload, seed)
    by_id = {op["id"]: op for op in ops}
    expected = check.load_expected()
    verdicts: dict[tuple, str | None] = {}
    failures: list[str] = []
    untraced: list[dict] = []
    traced: list[dict] = []
    setups: list[dict] = []
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.jsonl" if trace else None
    if trace:
        OUT_DIR.mkdir(exist_ok=True)

    run_worker([])  # compiles bytecode, which a user's later runs would reuse
    start = time.perf_counter()
    while True:
        tracing = trace and len(traced) <= len(untraced)
        result = run_worker(ops, spans_path if tracing else None)
        for r in result["ops"]:
            key = (r["id"], r["code"], r["out"])
            if key not in verdicts:
                verdicts[key] = check.check(by_id[r["id"]], r["code"], r["out"], expected)
            if verdicts[key]:
                stderr = r["err"].strip().splitlines()[-1:] or [""]
                failures.append(f"{r['id']}: {verdicts[key]} {stderr[0]}".rstrip())
        (traced if tracing else untraced).append(result)
        if not trace:
            setups.append(result)
            while len(setups) < min(4 * len(untraced), SETUP_SAMPLES):
                setups.append(run_worker([]))
        done = len(untraced) + len(traced)
        elapsed = time.perf_counter() - start
        if (done >= MIN_PASSES and (untraced and (traced or not trace))
                and elapsed * (done + 1) / done > seconds):
            break

    print(f"{workload} seed {seed}: {done} passes of {len(ops)} operations"
          f" ({len(traced)} traced), {len(failures)} failed")
    for line in failures:
        print(f"  FAILED {line}")
    op_seconds: dict[str, list[float]] = {op["id"]: [] for op in ops}
    for p in untraced:
        for r in p["ops"]:
            op_seconds[r["id"]].append(r["s"])
    print("  median seconds per operation, untraced: " + ", ".join(
        f"{k} {statistics.median(v):.3f}" for k, v in op_seconds.items()))
    print("  unscaled median seconds: pass "
          f"{statistics.median(p['pass_s'] for p in untraced):.3f}, reference "
          f"{statistics.median(r['ref_s'] for p in untraced for r in p['ops']):.4f}")
    if workload == "analyze-large":
        report_known_failure(expected)

    if trace:
        metrics = {name: _metric(statistics.median(_layer_value(p, name) for p in traced),
                                 _layer_unit(name))
                   for name in LAYER_METRICS}
        out_bytes = [sum(len(r["out"].encode()) for r in p["ops"]) for p in traced]
        metrics["cli.output_bytes"] = _metric(statistics.median(out_bytes), "bytes")
        overhead = (statistics.median(sum(_scaled_ops(p)) for p in traced)
                    - statistics.median(sum(_scaled_ops(p)) for p in untraced))
        metrics["trace.overhead_s"] = _metric(overhead, "s")
    else:
        while len(setups) < SETUP_SAMPLES:
            setups.append(run_worker([]))
        metrics = {
            "setup_s": _metric(statistics.median(
                _scaled(w["setup_s"], w["setup_ref_s"]) for w in setups), "s"),
            "pass_s": _metric(statistics.median(
                sum(_scaled_ops(p)) for p in untraced), "s"),
            "peak_rss_mb": _metric(statistics.median(
                p["peak_rss_kib"] / 1024 for p in untraced), "MiB"),
        }
    return {"correct": not failures, "attempted": done * len(ops),
            "failed": len(failures), "metrics": metrics}


def _layer_unit(name: str) -> str:
    return "s" if name.endswith("_s") else "count"


def _layer_value(traced_pass: dict, name: str) -> float:
    """A per-layer metric of one traced pass; times are scaled by the pass's
    ratio of scaled to measured time, so they add up like pass_s."""
    value = traced_pass["layers"][name]
    if _layer_unit(name) == "s":
        value *= sum(_scaled_ops(traced_pass)) / traced_pass["pass_s"]
    return value


def report_known_failure(expected: dict) -> None:
    """Runs the operation that fails at the seed commit, outside the counts."""
    op = workloads.KNOWN_FAILURE
    r = run_worker([op])["ops"][0]
    bad = check.check(op, r["code"], r["out"], expected)
    detail = (r["err"].strip().splitlines() or [""])[-1]
    print(f"known failure {op['id']} (not counted): "
          + (f"still fails: {bad} {detail}".rstrip() if bad else "now passes"))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all, one result line each)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=40)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lcmlattice" / "cli.py").is_file():
        print(f"error: no lcmlattice sources under {SRC}", file=sys.stderr)
        return 2
    try:
        for name in [args.workload] if args.workload else workloads.WORKLOADS:
            result = run(name, args.seed, args.seconds, bool(args.trace))
            print(json.dumps(result), flush=True)
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
