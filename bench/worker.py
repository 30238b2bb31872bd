"""One benchmark process: set up one workload, run it for a fixed time, report.

Started by run.py in a fresh interpreter.  It imports measurekit from the
checkout's ``src`` directory, builds the workload's measures, points and JSON
documents from the seed, and then runs whole rounds of the workload's
operations in a closed loop (one caller, next operation when the previous one
returns) until the run length has passed.  Every operation's output is
checked against values computed here with ``math`` or against properties
the method must have.  The last line of stdout is one JSON object for run.py.

    python3 bench/worker.py --workload iid-chain --seed 1 --seconds 10 --trace 0
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import shutil
import sys
import tempfile
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
KINDS = ("logdensity", "sample", "mass", "cli")


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's own reference."""


class OpFailed(Exception):
    """An operation raised; the rest of its round is skipped."""


class Run:
    """Closed-loop operation timer and output checker for one workload run.

    Every round issues the same operations in the same order, so operation
    i of one round is the same work as operation i of the next, on other
    values.  Only the fastest time of each position over the whole rounds
    is kept: other tenants of a shared machine slow whole stretches of a
    run by up to a half, and the best of many rounds is the cost without
    them.  Keeping only the minima also keeps memory flat however long the
    run is.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.best_ns = None  # kind -> fastest time of each op position
        self.round_coords = 0  # coordinates one whole round evaluates or draws
        self.ops = {kind: 0 for kind in KINDS}
        self.busy_ns = 0
        self.attempted = 0
        self.failed = 0
        self.chain_elements = 0
        self.first_op_at = None  # time.monotonic() when the first op starts
        self._round_ns = {kind: [] for kind in KINDS}
        self._round_coords = 0

    def op(self, kind, fn, coords=0, chain=0):
        """Time one call into measurekit and return its result.

        ``coords`` is the number of scalar coordinates the call evaluates or
        draws; ``chain`` the number of chain elements among them.
        """
        if self.first_op_at is None:
            self.first_op_at = time.monotonic()
        self.attempted += 1
        tracer = self.tracer
        if tracer is not None:
            tracer.begin_op(kind, chain > 0)
        start = time.perf_counter_ns()
        try:
            result = fn()
        except Exception as exc:  # the program failed this operation: count it
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            raise OpFailed(kind) from exc
        finally:
            elapsed = time.perf_counter_ns() - start
            if tracer is not None:
                tracer.end_op()
        self._round_ns[kind].append(elapsed)
        self.ops[kind] += 1
        self.busy_ns += elapsed
        if kind in ("logdensity", "sample"):
            self._round_coords += coords
        self.chain_elements += chain
        return result

    def end_round(self, whole: bool) -> None:
        """Fold a round's times into the per-position minima if it is whole."""
        if whole:
            if self.best_ns is None:
                self.best_ns = self._round_ns
            else:
                self.best_ns = {kind: list(map(min, self.best_ns[kind], times))
                                for kind, times in self._round_ns.items()}
            self.round_coords = self._round_coords
        self._round_ns = {kind: [] for kind in KINDS}
        self._round_coords = 0

    # -- output checks ----------------------------------------------------------

    @staticmethod
    def check(ok, what):
        if not ok:
            raise CheckFailed(what)

    @staticmethod
    def close(got, want, what, rel=1e-9, abs_tol=1e-9):
        value = got.value if hasattr(got, "value") else got
        ok = (value == want) or math.isclose(value, want, rel_tol=rel, abs_tol=abs_tol)
        if not ok:
            raise CheckFailed(f"{what}: got {got!r}, expected {want!r}")


def _import_measurekit():
    """Import measurekit from this checkout's sources, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import measurekit

    if Path(measurekit.__file__).resolve().parent.parent != src.resolve():
        raise ImportError(f"measurekit imported from {measurekit.__file__}, not {src}")
    return measurekit


def _quantile(sorted_values, q):
    # Nearest-rank quantile.
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def end_to_end(run: Run) -> dict:
    if run.best_ns is None:
        raise CheckFailed("no round completed")
    best = {kind: sorted(v) for kind, v in run.best_ns.items()}
    for kind in KINDS:
        if not best[kind]:
            raise CheckFailed(f"a round has no {kind} operation")
    busy_s = {kind: sum(v) / 1e9 for kind, v in best.items()}
    values = {
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "coords_per_s": (run.round_coords / (busy_s["logdensity"] + busy_s["sample"]), "1/s"),
        "logdensity_per_s": (len(best["logdensity"]) / busy_s["logdensity"], "1/s"),
        "logdensity_p50_us": (_quantile(best["logdensity"], 0.5) / 1e3, "us"),
        "logdensity_p90_us": (_quantile(best["logdensity"], 0.9) / 1e3, "us"),
        "sample_per_s": (len(best["sample"]) / busy_s["sample"], "1/s"),
        "sample_p50_us": (_quantile(best["sample"], 0.5) / 1e3, "us"),
        "mass_p50_ms": (_quantile(best["mass"], 0.5) / 1e6, "ms"),
        "cli_p50_ms": (_quantile(best["cli"], 0.5) / 1e6, "ms"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="stop at the first timed operation (set-up timing)")
    args = parser.parse_args(argv)

    mk = _import_measurekit()
    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.install(mk)
    import workloads

    OUT.mkdir(parents=True, exist_ok=True)
    docs = tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=OUT)
    run = Run(tracer)
    result = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    try:
        play_round, finish = workloads.WORKLOADS[args.workload](run, args.seed, docs)
        if args.setup_only:
            print(json.dumps({"first_op_at": time.monotonic()}))
            return 0
        mk.reset_weight_evaluations()
        rounds = 0
        start = time.perf_counter()
        while rounds == 0 or time.perf_counter() - start < args.seconds:
            try:
                play_round(rounds)
                run.end_round(whole=True)
            except OpFailed:
                run.end_round(whole=False)
            rounds += 1
        weight_evaluations = mk.weight_evaluations()
        finish()
        result["attempted"] = run.attempted
        result["failed"] = run.failed
        result["rounds"] = rounds
        result["first_op_at"] = run.first_op_at
        result["ops"] = run.ops
        result["busy_ms_per_round"] = run.busy_ns / 1e6 / rounds
        if tracer is None:
            result["metrics"] = end_to_end(run)
        else:
            result["metrics"] = tracing.layer_metrics(
                tracer, mk, rounds, result["ops"], run.chain_elements, weight_evaluations)
            spans = OUT / f"spans-{args.workload}-{args.seed}.jsonl"
            tracer.write_spans(str(spans))
            result["spans"] = str(spans.relative_to(ROOT))
    except CheckFailed as exc:
        print(f"check failed: {exc}", file=sys.stderr)
        result.update(correct=False, attempted=run.attempted, failed=run.failed)
        print(json.dumps(result))
        return 1
    finally:
        shutil.rmtree(docs, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
