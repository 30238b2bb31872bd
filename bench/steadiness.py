"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 bench/steadiness.py --runs 10                  # every workload
    python3 bench/steadiness.py --runs 5 --workload iid-chain --first-seed 101

For each workload and end-to-end metric it prints the median of the runs and
the distance between their first and third quartiles as a share of the
median, next to the metric's bound from BENCHMARK.json, and the share of
failed operations.  Runs are sequential, one seed each.  The raw results go
to bench/out/steadiness-<workload>.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    steady = True
    for workload in [args.workload] if args.workload else names:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*spec["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
            results.append(json.loads(proc.stdout.strip().splitlines()[-1]))
        out = HERE / "out"
        out.mkdir(exist_ok=True)
        (out / f"steadiness-{workload}.json").write_text(json.dumps(results, indent=1))
        shares = {r["failed"] / r["attempted"] for r in results}
        print(f"{workload}: {args.runs} runs, failed shares {sorted(shares)}, "
              f"all correct: {all(r['correct'] for r in results)}")
        for name, bound in bounds.items():
            values = [r["metrics"][name]["value"] for r in results]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            ok = name == "setup_s" or spread < bound / 3
            steady &= ok
            print(f"  {name:20s} median {median:14.6g}  spread {spread:7.4f}  "
                  f"bound {bound:5.2f}  {'ok' if ok else 'WIDE'}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
