"""Steadiness check: run each workload over several seeds and report, per
end-to-end metric, the quartile spread as a share of the median next to
the metric's bound in BENCHMARK.json.

    python3 perfbench/steady.py --seeds 10 [--first-seed 1] [--workload NAME ...]
    python3 perfbench/steady.py --counts --workload city_population

``--counts`` runs two traced runs of one seed per workload instead and
reports every count that differs between them (the exact counts must
repeat identically).  Results append to ``.perfbench/steady.jsonl``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
COUNT_UNITS = ("count", "bytes")


def run(workload: str, seed: int, trace: int) -> dict:
    command = [
        sys.executable, str(ROOT / SPEC["command"][1]),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(SPEC["run_seconds"]), "--trace", str(trace),
    ]  # fmt: skip
    out = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
    result = json.loads(out.stdout.splitlines()[-1])
    with open(ROOT / ".perfbench" / "steady.jsonl", "a") as log:
        log.write(json.dumps({"workload": workload, "seed": seed, "trace": trace, **result}) + "\n")
    return result


def spreads(workload: str, seeds: list[int]) -> bool:
    results = [run(workload, seed, 0) for seed in seeds]
    steady = True
    print(f"{workload}: seeds {seeds[0]}..{seeds[-1]}, correct {all(r['correct'] for r in results)}")
    for metric in SPEC["end_to_end"]:
        values = [r["metrics"][metric["name"]]["value"] for r in results]
        q1, median, q3 = statistics.quantiles(values, n=4)
        share = (q3 - q1) / median
        ok = share < metric["bound"] / 3 or metric["name"] == "setup_s"
        steady &= ok
        print(
            f"  {metric['name']:<14} median {median:.6g} {metric['unit']:<8} "
            f"spread {share:.2%} bound {metric['bound']:.0%} {'ok' if ok else 'UNSTEADY'}"
        )
    return steady


def counts(workload: str, seed: int) -> bool:
    first, second = (run(workload, seed, 1)["metrics"] for _ in range(2))
    names = [m["name"] for m in SPEC["per_layer"] if m["unit"] in COUNT_UNITS]
    differ = [n for n in names if first[n]["value"] != second[n]["value"]]
    print(f"{workload}: {len(names)} counts, differing: {differ or 'none'}")
    return not differ


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", action="append", help="default: every workload")
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--counts", action="store_true")
    args = parser.parse_args()
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    names = args.workload or [w["name"] for w in SPEC["workloads"]]
    seeds = list(range(args.first_seed, args.first_seed + args.seeds))
    if args.counts:
        ok = all([counts(name, args.first_seed) for name in names])
    else:
        ok = all([spreads(name, seeds) for name in names])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
