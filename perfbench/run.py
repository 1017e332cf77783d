"""Benchmark entry point: one workload, one seed, every metric by name.

    python3 perfbench/run.py --workload paper_figures --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout.  It times set-up in several
fresh interpreters, then runs the workload in one child process, and
prints, last, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics`` — the ``end_to_end`` metrics of BENCHMARK.json with
``--trace 0``, its ``per_layer`` metrics with ``--trace 1``.  Lines
before it give every metric with its unit, the spread of the repeats,
the output digest and the machine fingerprint.  See README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibration import scale
from workloads import WORKLOADS, fastest, normalised

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT = ROOT / ".perfbench"

#: Fresh-interpreter set-up probes per run; the median is reported.
SETUP_REPEATS = 5
#: Seconds a child may take before the run is abandoned.
CHILD_TIMEOUT_S = 170


class BenchError(Exception):
    """The benchmark could not produce a result."""


def _stop_group(process: subprocess.Popen) -> None:
    """Kill whatever the child left behind in its session and wait for it."""
    try:
        os.killpg(process.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(process.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.05)


def child(role: str, args: argparse.Namespace, timeout: float) -> dict:
    """Run ``worker.py`` in a fresh interpreter; return its JSON record."""
    command = [
        sys.executable, str(WORKER), role,
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
    ]  # fmt: skip
    env = {name: value for name, value in os.environ.items() if not name.startswith("REPRO_")}
    OUT.mkdir(exist_ok=True)
    log = OUT / f"{role}-{os.getpid()}.out"
    with open(log, "w+") as stdout:
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=stdout, start_new_session=True
        )
        try:
            code = process.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            code = None
        finally:
            _stop_group(process)
            process.wait()
        stdout.seek(0)
        lines = stdout.read().splitlines()
    log.unlink()
    if code != 0 or not lines:
        raise BenchError(f"{role} child failed (exit {code}) for {args.workload}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> str:
    return (
        f"min {min(values):.6g} median {statistics.median(values):.6g} "
        f"max {max(values):.6g} n={len(values)}"
    )


def pass_spread(rows: list[list[float]]) -> str:
    """Raw figures for diagnosis: per-study fastest, and whole passes."""
    return f"fastest {fastest(rows):.6g}; passes {spread([sum(row) for row in rows])}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    listed = spec["per_layer" if args.trace else "end_to_end"]
    start = time.monotonic()
    try:
        setups = [child("setup", args, CHILD_TIMEOUT_S) for _ in range(SETUP_REPEATS)]
        record = child("run", args, CHILD_TIMEOUT_S - (time.monotonic() - start))
    except BenchError as exc:
        print(exc, file=sys.stderr)
        return 1

    # Host times are scaled to the reference host speed by the calibration
    # runs taken alongside them (README.md, "Host speed").
    setup_s = [probe["setup_s"] * scale(probe["calibration"]) for probe in setups]
    sim = record["sim"]
    values = {
        "wall_s": normalised(record["wall_s"], record["calibration"]),
        "setup_s": statistics.median(setup_s),
        "peak_rss_mb": record["peak_rss_mb"],
        "success_rate": (record["attempted"] - record["failed"]) / record["attempted"],
    }
    if "rerun_s" in record:
        values["rerun_s"] = normalised(record["rerun_s"], record["calibration"])
    values.update(record.get("per_layer", {}))

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"  setup_s     {spread(setup_s)}  raw {spread([p['setup_s'] for p in setups])}")
    print(f"  calibration {spread(record['calibration'])}")
    for name in ("wall_s", "rerun_s", "traced_wall_s"):
        if name in record:
            print(f"  {name:<11} {pass_spread(record[name])}")
    print(f"  sim_startup_p95_s {sim['startup_p95_s']:.6g} sim_s")
    print(f"  sim_rebuffer_ratio {sim['rebuffer_ratio']:.6g} fraction")
    print(f"  sessions {sim['sessions']}  digest {record['digest']}")
    for problem in record["problems"]:
        print(f"  problem: {problem}")
    print(
        json.dumps(
            {
                "record": {
                    "workload": args.workload,
                    "seed": args.seed,
                    "trace": args.trace,
                    "fingerprint": record["fingerprint"],
                    "digest": record["digest"],
                    "setup": setups,
                    "calibration": record["calibration"],
                    **{k: record[k] for k in ("wall_s", "rerun_s", "traced_wall_s") if k in record},
                }
            }
        )
    )
    metrics = {}
    for metric in listed:
        value = values[metric["name"]]
        print(f"  {metric['name']} = {value:.6g} {metric['unit']}")
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
    print(
        json.dumps(
            {
                "correct": record["failed"] == 0,
                "attempted": record["attempted"],
                "failed": record["failed"],
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
