"""One workload execution in a fresh process; prints one JSON record.

    python3 bench/worker.py WORKLOAD SEED MODE SPAWN_TIME [--toy]

MODE is ``plain`` (timed execution), ``trace`` (per-layer spans) or
``setup`` (stop at the first solve_nlp call).  SPAWN_TIME is the parent's
time.monotonic() just before it started this process, so that times count
from process start, interpreter start-up and imports included.
"""

import os

# Pin BLAS threads before numpy loads: energies then do not depend on the
# thread count, and 1 thread costs nothing on these problem sizes.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import ctypes  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))


def _import_convexfit():
    import convexfit

    source = Path(convexfit.__file__).resolve()
    if ROOT / "src" not in source.parents:
        raise ImportError(f"convexfit imported from {source}, not from {ROOT / 'src'}")
    return convexfit


def _blas_threads_in_use():
    """Thread count reported by the loaded OpenBLAS, or None."""
    try:
        with open("/proc/self/maps") as maps:
            libs = {line.split()[-1] for line in maps if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        try:
            handle = ctypes.CDLL(lib)
        except OSError:
            continue
        for symbol in (
            "openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
        ):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def numeric_environment():
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "blas_threads_requested": int(BLAS_THREADS),
        "blas_threads_in_use": _blas_threads_in_use(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _reference_energy(workload):
    path = Path(__file__).resolve().parent / "reference_energies.json"
    return json.loads(path.read_text()).get(workload)


def _energy_bound():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return next(m["bound"] for m in spec["end_to_end"] if m["name"] == "energy")


def main(argv):
    workload, seed, mode, spawn = argv[0], int(argv[1]), argv[2], float(argv[3])
    toy = "--toy" in argv[4:]
    cf = _import_convexfit()
    import tracer as tracing
    import workloads

    tracer = tracing.Tracer(mode).install()
    record = {"workload": workload, "seed": seed, "mode": mode, "missing_hooks": sorted(tracer.missing)}
    start = time.monotonic()
    try:
        outcome = tracer.run_root(workloads.run, workload, cf, seed, toy, tracer.results)
    except tracing.SetupReached:
        outcome = None
    except (RuntimeError, cf.GeometryError) as exc:  # InfeasibleError, SolverAbort: RuntimeError
        outcome = exc
    end = time.monotonic()
    record["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    tracer.uninstall()
    if tracer.first_solve is not None:
        record["setup_s"] = tracer.first_solve - spawn
    if mode == "setup":
        if tracer.first_solve is None:
            raise RuntimeError("workload ended before its first solve_nlp call")
        print(json.dumps(record))
        return 0
    record["wall_s"] = end - spawn
    if isinstance(outcome, Exception):
        expected = workloads.WORKLOADS[workload].solves
        record.update(energy=None, attempted=expected, failed=expected, failures=[f"raised {outcome!r}"])
    else:
        reference = None if toy else _reference_energy(workload)
        failed, failures = workloads.check(cf, workload, outcome, reference, _energy_bound())
        record.update(
            energy=outcome.energy,
            attempted=workloads.WORKLOADS[workload].solves,
            failed=failed,
            failures=failures,
            reference_energy=reference,
        )
    record["env"] = numeric_environment()
    if mode == "trace":
        record["startup_s"] = start - spawn
        record["layers"] = {k: list(v) for k, v in tracer.layer_metrics().items()}
        record["spans"] = tracer.span_table()
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
