"""Regenerate bench/reference_energies.json, the reference energy of each workload.

    python3 bench/make_reference.py

The workloads use no random starts, so an execution's energy does not
depend on the seed, and one execution per workload gives its reference.
The correctness gate fails an execution whose energy is worse than the
reference by more than the energy bound in BENCHMARK.json.  Run it only on
a commit whose energies are trusted.
"""

import json
import sys

import run


def main():
    path = run.HERE / "reference_energies.json"
    path.write_text("{}\n")  # the gate must not compare against the energies being replaced
    table = {}
    for workload in sorted(run.WORKLOADS):
        record = run.spawn(workload, 0, "plain")
        if record["energy"] is None or record["failed"]:
            sys.exit(f"{workload} failed: {record['failures']}")
        table[workload] = record["energy"]
        print(workload, record["energy"], flush=True)
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
