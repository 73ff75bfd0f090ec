"""convexfit benchmark: run one workload, check its results, print metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every execution of the workload runs in a fresh worker process
(bench/worker.py), one at a time, so that set-up time counts from process
start and peak memory is the workload's own.

- ``--trace 0`` runs set-up-only processes, then timed executions for S
  seconds (at least one; execution k uses workload seed ``100 * N + k``), and
  reports the medians of the end-to-end metrics.
- ``--trace 1`` alternates untraced and traced executions of workload seed
  ``100 * N`` for S seconds (at least one pair) and reports the medians of
  the per-layer metrics of the traced ones, with the tracing overhead: the
  median traced minus the median untraced wall time.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the numeric environment.  The exit code is 0 only when every result
passed the correctness gate.
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
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 3  # set-up-only processes per run, besides the timed ones
RUN_LIMIT_S = 170.0  # a run must end within 180 s, whatever its workers do


class WorkerError(RuntimeError):
    """A worker process failed before producing its record."""


def spawn(workload, seed, mode, toy=False, deadline=None):
    """Run one worker process to completion; returns its JSON record.

    The worker is killed and reaped if it is still running at `deadline`
    (a time.monotonic() value)."""
    cmd = [sys.executable, str(HERE / "worker.py"), workload, str(seed), mode]
    start = time.monotonic()
    cmd.append(repr(start))
    if toy:
        cmd.append("--toy")
    timeout = None if deadline is None else max(deadline - start, 0.001)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:  # subprocess.run kills and reaps the child
        raise WorkerError(f"{mode} worker for {workload} timed out after {exc.timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise WorkerError(f"{mode} worker for {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _tally(records):
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    for r in records:
        for message in r["failures"]:
            print(f"FAIL {r['workload']} seed {r['seed']}: {message}", file=sys.stderr)
    return attempted, failed


def _executions(workload, seed, seconds, modes, toy, start):
    """Run `modes` (one worker each) repeatedly, at least once, while another
    round of average length still fits in `seconds` from `start`."""
    rounds = []
    while not rounds or (time.monotonic() - start) * (1 + 1 / len(rounds)) <= seconds:
        rounds.append([spawn(workload, seed(len(rounds)), mode, toy, start + RUN_LIMIT_S) for mode in modes])
    return [list(column) for column in zip(*rounds)]


def _median(records, key):
    return statistics.median(key(r) for r in records)


def run(workload, seed, seconds, trace, toy=False):
    """Returns (summary, records); summary is the printed JSON object."""
    start = time.monotonic()
    if trace:
        plain, traced = _executions(workload, lambda k: 100 * seed, seconds, ("plain", "trace"), toy, start)
        records = plain + traced
        metrics = {
            name: {"value": _median(traced, lambda r: r["layers"][name][0]), "unit": unit}
            for name, (_, unit) in traced[0]["layers"].items()
        }
        metrics["trace.startup_s"] = {"value": _median(traced, lambda r: r["startup_s"]), "unit": "s"}
        other = _median(traced, lambda r: r["spans"]["bench.workload"]["self_s"])
        metrics["trace.other_s"] = {"value": other, "unit": "s"}
        overhead = _median(traced, lambda r: r["wall_s"]) - _median(plain, lambda r: r["wall_s"])
        metrics["trace.overhead_s"] = {"value": overhead, "unit": "s"}
    else:
        setups = [spawn(workload, 100 * seed, "setup", toy, start + RUN_LIMIT_S) for _ in range(SETUP_PROCESSES)]
        (records,) = _executions(workload, lambda k: 100 * seed + k, seconds, ("plain",), toy, start)
        energies = [r["energy"] for r in records if r["energy"] is not None]
        metrics = {
            "wall_s": {"value": _median(records, lambda r: r["wall_s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(r["setup_s"] for r in records + setups if "setup_s" in r), "unit": "s"},
            "peak_rss_mb": {"value": _median(records, lambda r: r["rss_mb"]), "unit": "MB"},
        }
        if energies:  # else every execution failed, and the run is incorrect anyway
            metrics["energy"] = {"value": statistics.median(energies), "unit": "1"}
    attempted, failed = _tally(records)
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, records


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    try:
        summary, records = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except WorkerError as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 2
    env = records[0]["env"]
    env["missing_hooks"] = sorted({h for r in records for h in r["missing_hooks"]})
    env["executions"] = [{"seed": r["seed"], "mode": r["mode"], "energy": r["energy"]} for r in records]
    print("environment " + json.dumps(env))
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
