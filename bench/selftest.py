"""Self-test of the benchmark harness at toy size (N = 32).

    python3 bench/selftest.py

For every workload, untraced and traced, it checks that the run passes its
correctness gate and emits exactly the metrics BENCHMARK.json names, each
with its unit.  In the traced run, process start-up plus the self times of
all spans must add up to the traced wall time (the untraced wall time plus
the tracing overhead).  Finally it feeds the gate broken results, and the
tracer a missing hook target, and checks that both are reported.  Takes
about half a minute.
"""

import dataclasses
import json
import sys
from pathlib import Path

import worker  # first: pins the BLAS threads and puts src/ on sys.path
import run

ACCOUNTING_TOL_S = 1e-3


def _expect(condition, message, errors):
    if not condition:
        errors.append(message)


def check_harness(spec, errors):
    for name in sorted(run.WORKLOADS):
        for trace, section in ((False, "end_to_end"), (True, "per_layer")):
            summary, records = run.run(name, 0, 1.0, trace, toy=True)
            label = f"{name} trace={int(trace)}"
            _expect(summary["correct"] and summary["failed"] == 0, f"{label}: gate failed", errors)
            emitted = {k: v["unit"] for k, v in summary["metrics"].items()}
            wanted = {m["name"]: m["unit"] for m in spec[section]}
            _expect(emitted == wanted, f"{label}: metrics {emitted} != {wanted}", errors)
            if not trace:
                continue
            for traced in (r for r in records if r["mode"] == "trace"):
                spans = sum(s["self_s"] for s in traced["spans"].values())
                accounted = traced["startup_s"] + spans
                _expect(
                    abs(accounted - traced["wall_s"]) <= ACCOUNTING_TOL_S * (1.0 + traced["wall_s"]),
                    f"{label}: start-up + span self times {accounted:.6f} s != traced wall {traced['wall_s']:.6f} s",
                    errors,
                )
            print(
                f"{label}: start-up {traced['startup_s']:.3f} s + span self times {spans:.3f} s "
                f"= traced wall {traced['wall_s']:.3f} s; tracing overhead "
                f"{summary['metrics']['trace.overhead_s']['value']:+.3f} s"
            )


def check_gate(errors):
    """The gate must reject an infeasible shape and a too-high energy."""
    import workloads

    cf = worker._import_convexfit()
    outcome = workloads.run("nodal_disk_p8", cf, 0, True, [])
    _expect(workloads.check(cf, "nodal_disk_p8", outcome, None, 0.1)[0] == 0, "gate rejects a good result", errors)
    prob, res = outcome.solves[0]
    bulged = dataclasses.replace(res, samples=cf.SupportSamples(res.samples.values + 1e-3))
    broken = dataclasses.replace(outcome, solves=[(prob, bulged)])
    _expect(workloads.check(cf, "nodal_disk_p8", broken, None, 0.1)[0] == 1, "gate accepts a shape outside the container", errors)
    worse = dataclasses.replace(outcome, energy=outcome.energy * 1.2)
    _expect(workloads.check(cf, "nodal_disk_p8", worse, outcome.energy, 0.1)[0] == 1, "gate accepts energy 20% above reference", errors)
    _expect(workloads.check(cf, "nodal_disk_p8", dataclasses.replace(outcome, solves=[]), None, 0.1)[0] == 1, "gate accepts a missing solve", errors)


def check_missing_hook(errors):
    """A hook target that is gone drops its metrics instead of failing."""
    import tracer

    module = worker._import_convexfit().nodal
    convexify = module.convexify
    del module.convexify
    try:
        t = tracer.Tracer("trace").install()
        t.uninstall()
    finally:
        module.convexify = convexify
    layers = t.layer_metrics()
    _expect("nodal.convexify" in t.missing, "missing convexify not reported", errors)
    _expect("nodal.convexify_s" not in layers, "metric of a missing hook still reported", errors)
    _expect("nodal.seed_build_s" in layers, "a missing hook dropped unrelated metrics", errors)


def main():
    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    errors = []
    check_harness(spec, errors)
    check_gate(errors)
    check_missing_hook(errors)
    for message in errors:
        print(f"SELFTEST FAIL {message}")
    print("selftest " + ("failed" if errors else "passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
