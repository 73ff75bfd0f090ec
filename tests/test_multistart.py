"""The per-CPU map (`multistart.per_cpu_map`) under the multistart and the oracle.

Forked workers must give the serial loop's results bit for bit, hand errors
and aborts back to the caller, and leave no child process behind.  Each case
runs in a fresh interpreter with BLAS pinned to 1 thread, so that the
process has one OS thread and forks even when the suite itself runs with a
multithreaded BLAS; `_set_cpus` sets the worker count the case sees.

    python tests/test_multistart.py CASE
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import os
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
CASES = {}


def case(fn):
    CASES[fn.__name__] = fn
    return fn


def _set_cpus(k):
    """Make `multistart._workers` see an affinity mask of k CPUs."""
    os.sched_getaffinity = lambda pid: set(range(k))


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _count_forks():
    """A list that gains an entry at every `os.fork` from now on."""
    forks = []
    fork = os.fork

    def counted_fork():
        forks.append(1)
        return fork()

    os.fork = counted_fork
    return forks


def _fingerprint(obj, skip=()):
    """A value whose repr differs whenever any float bit, array, string or
    status inside `obj` differs.  Dataclass fields named in `skip` are left
    out at any depth, so that a re-pinned digest can be checked against the
    old one on the fields that did not change."""
    if dataclasses.is_dataclass(obj):
        values = (getattr(obj, f.name) for f in dataclasses.fields(obj) if f.name not in skip)
        return (type(obj).__name__,) + tuple(_fingerprint(value, skip) for value in values)
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if isinstance(obj, (list, tuple)):
        return tuple(_fingerprint(item, skip) for item in obj)
    if isinstance(obj, BaseException):
        return (type(obj).__name__, str(obj))
    if isinstance(obj, float):
        return obj.hex()
    return obj


def _digest(obj, skip=()):
    return hashlib.sha256(repr(_fingerprint(obj, skip)).encode()).hexdigest()


def _quadratic(dim, trap=None):
    """min |x - 1|^2 with its exact Newton seed; `trap(x, value)` returns
    the objective's value at x, or raises."""
    from convexfit.solver import NlpProblem

    def objective(x):
        value = float((x - 1.0) @ (x - 1.0))
        if trap is not None:
            value = trap(x, value)
        return value, 2.0 * (x - 1.0)

    prob = NlpProblem(dim=dim, objective=objective)
    prob.h0_builder = lambda x, active, rho, eq_grad: (lambda q: q / 2.0)
    return prob


def _energy(x):
    return float((x - 1.0) @ (x - 1.0))


@case
def identical_at_any_worker_count():
    from convexfit import fourier, multistart, nodal
    from convexfit.fourier import FourierProblem
    from convexfit.geometry import named_container
    from convexfit.nodal import NodalProblem

    seen = []  # every Winner and every start's outcome, in call order
    per_cpu_map = multistart.per_cpu_map

    def spy_map(*args):
        outcomes = per_cpu_map(*args)
        seen.append(outcomes)
        return outcomes

    def spy_winner(run):
        def spy(*args):
            winner = run(*args)
            seen.append(winner)
            return winner

        return spy

    multistart.per_cpu_map = spy_map
    nodal.run_multistart = spy_winner(nodal.run_multistart)
    fourier.run_multistart = spy_winner(fourier.run_multistart)
    forks = _count_forks()

    def cells():
        nodal.solve_nodal(NodalProblem(named_container("pentagon"), n=48, p=4.0, alpha=0.3), seeds=3)
        nodal.solve_nodal(NodalProblem(named_container("square"), n=48, p=math.inf, alpha=0.5), seeds=2)
        disk = FourierProblem(named_container("disk"), n_f=8, m=96, q=128, p=2.0, alpha=0.4)
        fourier.solve_fourier(disk, seeds=2, n_samples=64)

    digests = {}
    for workers in (1, 2, 3):
        _set_cpus(workers)
        seen.clear()
        forks.clear()
        cells()
        _assert_no_child_left()
        assert len(seen) == 6 and all(isinstance(outcome, list) for outcome in seen[::2])
        assert len(forks) == 3 * (workers - 1)  # every cell has 3 or 4 starts
        digests[workers] = [_digest(item) for item in seen]
    assert digests[1] == digests[2] == digests[3]


@case
def oracle_scan_identical_at_any_worker_count():
    from convexfit.geometry import named_container
    from convexfit.oracles import brute_force_nodal

    forks = _count_forks()
    cells = [("disk", 5, 2.0, 0.25, 9), ("square", 4, 1.0, 0.25, 12)]
    digests = {}
    for workers in (1, 2, 3):
        _set_cpus(workers)
        reports = []
        for name, *args in cells:
            forks.clear()
            reports.append(brute_force_nodal(named_container(name), *args))
            _assert_no_child_left()
            scans = 2 if reports[-1].widened else 1
            assert len(forks) == scans * (workers - 1)  # one map call per scan of the grid
        digests[workers] = _digest(reports)
    assert digests[1] == digests[2] == digests[3]


@case
def a_worker_error_is_raised_again_naming_its_start():
    from convexfit.multistart import run_multistart

    class Local(Exception):
        """Defined in a function, so pickle cannot carry it."""

    def trap(x, value):
        if x[0] == 5.0:
            raise ZeroDivisionError("trapped at the start")
        if x[0] == 7.0:
            raise Local("not picklable")
        return value

    _set_cpus(2)
    raised = ((5.0, ZeroDivisionError, "trapped at the start"), (7.0, RuntimeError, "Local: not picklable"))
    for start, kind, text in raised:
        with pytest.raises(kind) as err:
            run_multistart(_quadratic(2, trap), [np.zeros(2), np.full(2, start)], None, _energy)
        assert str(err.value) == text
        cause = str(err.value.__cause__)
        assert cause.startswith("start 1 raised in a worker process:")
        assert "trap" in cause  # the child's traceback
        _assert_no_child_left()


@case
def an_error_here_ends_the_workers():
    from convexfit.multistart import run_multistart

    def trap(x, value):
        if x[0] == 5.0:
            time.sleep(60.0)  # start 1, in the child: killed long before
        if x[0] == 0.0:
            raise ZeroDivisionError("start 0 fails in the calling process")
        return value

    _set_cpus(2)
    begun = time.monotonic()
    with pytest.raises(ZeroDivisionError):
        run_multistart(_quadratic(2, trap), [np.zeros(2), np.full(2, 5.0)], None, _energy)
    assert time.monotonic() - begun < 30.0
    _assert_no_child_left()


@case
def a_worker_abort_reads_as_in_the_serial_run():
    from convexfit.multistart import run_multistart

    def trap(x, value):
        return math.nan if x[0] == 5.0 else value

    messages = []
    for workers in (1, 2):
        _set_cpus(workers)
        winner = run_multistart(_quadratic(2, trap), [np.zeros(2), np.full(2, 5.0)], None, _energy)
        messages.append(winner.message)
        _assert_no_child_left()
    assert messages == ["start 1: objective not finite at x0"] * 2


@case
def a_reply_larger_than_the_pipe_buffer_comes_back_whole():
    import pickle

    from convexfit.multistart import per_cpu_map
    from convexfit.solver import solve_nlp

    prob = _quadratic(20_000)
    starts = [np.zeros(20_000), np.linspace(-3.0, 2.0, 20_000)]
    replies = {}
    for workers in (1, 2):
        _set_cpus(workers)
        replies[workers] = per_cpu_map(lambda i: solve_nlp(prob, starts[i]), len(starts))
        _assert_no_child_left()
    assert len(pickle.dumps(replies[2][1])) > 64 * 1024
    assert _digest(replies[1]) == _digest(replies[2])


@case
def no_fork_with_a_second_thread_or_one_cpu():
    from convexfit import multistart
    from convexfit.multistart import run_multistart

    def refuse():
        raise AssertionError("forked")

    os.fork = refuse
    _set_cpus(1)
    assert multistart._workers(3) == 1
    run_multistart(_quadratic(2), [np.zeros(2), np.ones(2)], None, _energy)

    _set_cpus(2)
    assert multistart._workers(1) == 1
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert multistart._workers(2) == 1
        winner = run_multistart(_quadratic(2), [np.zeros(2), np.ones(2)], None, _energy)
    finally:
        stop.set()
        thread.join()
    assert (winner.status, winner.message) == ("converged", "")


def test_a_digest_leaves_out_the_fields_it_skips():
    from convexfit.multistart import Winner

    winner = Winner(np.ones(2), 1.0, 0, False, None, "converged", "")
    noted = dataclasses.replace(winner, message="a note")
    assert _digest(winner) != _digest(noted)
    assert _digest([winner], skip=("message",)) == _digest([noted], skip=("message",))
    moved = dataclasses.replace(noted, energy=2.0)
    assert _digest(winner, skip=("message",)) != _digest(moved, skip=("message",))


@pytest.mark.skipif(
    len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2,
    reason="one CPU in the affinity mask: every multistart runs serially",
)
@pytest.mark.parametrize("name", sorted(CASES))
def test_fork_path(name):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    pinned = {var: "1" for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    env = {**os.environ, **pinned, "PYTHONPATH": path}
    proc = subprocess.run(
        [sys.executable, __file__, name], env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


if __name__ == "__main__":
    CASES[sys.argv[1]]()
