"""Run the measurekit benchmark and print its metrics.

    python3 bench/run.py --workload iid-chain --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --seed 1                # every workload, one by one

Each workload runs in fresh interpreters (bench/worker.py).  Untraced runs
(``--trace 0``) start the workload SETUP_RUNS more times, each stopping at
its first timed operation, so that ``setup_s`` is the median of several
set-ups; then one run measures for ``--seconds``.  Traced runs (``--trace
1``) run once with the layer tracing of bench/tracing.py and report the
per-layer metrics instead.  The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  A failed output check,
a crash or a missing measurekit source tree exits non-zero; only a failed
check still prints the result line, with ``"correct": false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("iid-chain", "mixture-scalar", "sample-cli")
SETUP_RUNS = 6
# Worst case 6 * 8 + 40 + 60 = 148 s for a 40 s run: within 180 s even if
# every worker hangs until it is killed.
SETUP_TIMEOUT_S = 8


def _worker(args, extra=(), timeout=SETUP_TIMEOUT_S):
    """Start one worker; return (its result object, the monotonic start time)."""
    argv = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace),
            *extra]
    started = time.monotonic()
    proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=timeout, text=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    if proc.returncode != 0 and not (result and result.get("correct") is False):
        raise RuntimeError(f"worker for {args.workload} exited {proc.returncode}")
    return result, started


def run_workload(args) -> dict:
    setups = []
    if not args.trace:
        for _ in range(SETUP_RUNS):
            first, started = _worker(args, ["--setup-only"])
            setups.append(first["first_op_at"] - started)
    result, started = _worker(args, timeout=args.seconds + 60)
    if result["correct"] and not args.trace:
        setups.append(result["first_op_at"] - started)
        result["metrics"]["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    return result


def _report(workload, result) -> None:
    for name, metric in sorted(result["metrics"].items()):
        print(f"{workload:15s} {name:38s} {metric['value']:>16.6g} {metric['unit']}")
    print(f"{workload:15s} {'attempted':38s} {result['attempted']:>16d}")
    print(f"{workload:15s} {'failed':38s} {result['failed']:>16d}")
    if "busy_ms_per_round" in result:
        print(f"{workload:15s} {'(op time per round, ms)':38s} {result['busy_ms_per_round']:>16.6g}")
    if "spans" in result:
        print(f"{workload:15s} spans written to {result['spans']}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(argparse.Namespace(**{**vars(args), "workload": name}))
    except (RuntimeError, OSError, ValueError, KeyError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        _report(name, result)
    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": value for name, result in results.items()
                   for metric, value in result["metrics"].items()}
    correct = all(r["correct"] for r in results.values())
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": metrics,
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
