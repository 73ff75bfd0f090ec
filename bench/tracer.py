"""Time convexfit's layers from outside, by wrapping its public names.

A `Tracer` replaces a public function with a wrapper in every loaded
`convexfit` module that holds it (so `from .solver import solve_nlp` in
another module is wrapped too).  A hook whose target no longer exists is
recorded in `missing`, and every metric that needs it is left out of the
report instead of crashing the run.

Modes:

- ``plain``: keep the result of every solve entry point (for the
  correctness gate) and the time of the first `solve_nlp` call (the end of
  set-up).  Nothing on the hot path is wrapped.
- ``setup``: as ``plain``, but the first `solve_nlp` call raises
  `SetupReached`, so a process measures set-up only.
- ``trace``: additionally time every layer.  Spans are aggregated per name
  (calls, inclusive time, self time) instead of stored per call, because the
  problem callables run tens of thousands of times per workload.
"""

from __future__ import annotations

import copy
import importlib
import inspect
import os
import sys
import time
import weakref
from collections import defaultdict

import numpy as np

ENTRY_POINTS = (("nodal", "solve_nodal"), ("nodal", "solve_minimax"), ("fourier", "solve_fourier"))
STUDIES = (("experiments", "gamma_sweep"),)
EXPORTS = tuple(
    ("exports", name)
    for name in ("export_csv", "export_history_csv", "export_study_csv", "export_fourier_csv", "export_svg")
)
SUPPORT = (("geometry", "support_samples"), ("geometry", "support_eval"))
CALLABLES = "NlpProblem callables"


class SetupReached(BaseException):
    """Raised at the first solve_nlp call of a set-up-only process.

    A BaseException, so that no handler inside the package swallows it.
    """


class _UnitSteps:
    """Counts inner iterations whose first line-search trial is accepted.

    After a seed build at x, the next objective call is the unit-step trial
    T.  The trial was accepted when the next event is a seed build at T (the
    next iteration) or an objective call at T (the KKT check after the inner
    loop ends); any other objective call is a backtrack.
    """

    def __init__(self):
        self.awaiting = False
        self.trial = None
        self.hits = 0

    def built(self, x):
        self._resolve(x)
        self.awaiting = True

    def evaluated(self, z):
        if self.awaiting:
            self.trial = np.array(z, dtype=float, copy=True)
            self.awaiting = False
        else:
            self._resolve(z)

    def _resolve(self, x):
        if self.trial is not None:
            self.hits += bool(np.array_equal(x, self.trial))
            self.trial = None


class Tracer:
    def __init__(self, mode):
        if mode not in ("plain", "setup", "trace"):
            raise ValueError(f"unknown tracer mode {mode!r}")
        self.mode = mode
        self.trace = mode == "trace"
        self.first_solve = None  # time.monotonic() of the first solve_nlp call
        self.results = []  # (entry point name, problem, SolveResult)
        self.missing = set()
        self.stats = defaultdict(lambda: [0, 0.0, 0.0, 0])  # name -> [calls, inclusive, self, depth]
        self.counts = defaultdict(float)
        self._stack = []  # [name, start, child time, stats]
        self._entries = []  # [layer, start, saw solve_nlp]
        self._dense_builders = weakref.WeakSet()
        self._patched = []

    # -- installing ---------------------------------------------------------

    def install(self):
        for module, name in ENTRY_POINTS:
            self._hook(module, name, lambda fn, m=module, n=name: self._entry_wrapper(m, n, fn))
        self._hook("solver", "solve_nlp", self._solve_nlp_wrapper)
        if self.trace:
            self._hook("solver", "dense_h0_builder", self._dense_marker)
            self._hook("multistart", "run_multistart", lambda fn: self._span("multistart.run", fn))
            self._hook("nodal", "convexify", lambda fn: self._span("nodal.convexify", fn))
            for module, name in STUDIES:
                self._hook(module, name, lambda fn: self._span("experiments.study", fn))
            for module, name in SUPPORT:
                self._hook(module, name, lambda fn: self._span("geometry.support", fn))
            for module, name in EXPORTS:
                self._hook(module, name, self._export_wrapper)
        return self

    def uninstall(self):
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def _hook(self, module, name, make_wrapper):
        try:
            mod = importlib.import_module(f"convexfit.{module}")
        except ImportError:
            mod = None
        original = getattr(mod, name, None)
        if not callable(original):
            self.missing.add(f"{module}.{name}")
            return
        wrapper = make_wrapper(original)
        for loaded in list(sys.modules.values()):
            mod_name = getattr(loaded, "__name__", "")
            if mod_name != "convexfit" and not mod_name.startswith("convexfit."):
                continue
            for attr, value in list(vars(loaded).items()):
                if value is original:
                    setattr(loaded, attr, wrapper)
                    self._patched.append((loaded, attr, original))

    # -- spans --------------------------------------------------------------

    def _enter(self, name):
        stats = self.stats[name]
        stats[3] += 1
        self._stack.append([name, time.perf_counter(), 0.0, stats])

    def _exit(self):
        _, start, child, stats = self._stack.pop()
        elapsed = time.perf_counter() - start
        stats[0] += 1
        stats[2] += elapsed - child
        stats[3] -= 1
        if not stats[3]:  # nested calls of one span count once
            stats[1] += elapsed
        if self._stack:
            self._stack[-1][2] += elapsed

    def _span(self, name, fn, before=None):
        enter, exit_ = self._enter, self._exit

        def wrapper(*args, **kwargs):
            if before is not None:
                before(*args)
            enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                exit_()

        return wrapper

    def run_root(self, fn, *args):
        """Call the workload under the root span `bench.workload`."""
        if not self.trace:
            return fn(*args)
        return self._span("bench.workload", fn)(*args)

    # -- wrappers -----------------------------------------------------------

    def _entry_wrapper(self, layer, name, fn):
        def wrapper(prob, *args, **kwargs):
            self._entries.append([layer, time.perf_counter(), False])
            if self.trace:
                self._enter(f"{layer}.solve")
            try:
                result = fn(prob, *args, **kwargs)
            finally:
                if self.trace:
                    self._exit()
                self._entries.pop()
            self.results.append((name, prob, result))
            return result

        return wrapper

    def _solve_nlp_wrapper(self, fn):
        signature = inspect.signature(fn)

        def wrapper(problem, *args, **kwargs):
            now = time.perf_counter()
            if self.first_solve is None:
                self.first_solve = time.monotonic()
                if self.mode == "setup":
                    raise SetupReached()
            if not self.trace:
                return fn(problem, *args, **kwargs)
            layer = "experiments"
            if self._entries:
                entry = self._entries[-1]
                layer = entry[0]
                if not entry[2]:
                    entry[2] = True
                    self.counts[f"{layer}.setup_s"] += now - entry[1]
            if any(frame[0] == "multistart.run" for frame in self._stack):
                self.counts["multistart.starts"] += 1
            steps, calls = _UnitSteps(), [0]
            instrumented = self._instrument(problem, layer, steps, calls)
            self._enter("solver.solve")
            try:
                result = fn(instrumented, *args, **kwargs)
            finally:
                self._exit()
                self.counts["solver.solves"] += 1
                self.counts["solver.al_evals"] += calls[0]
                rows = getattr(problem, "ineq_matrix", None)
                if rows is not None:
                    self.counts["solver.matvec_bytes"] += calls[0] * 2 * rows.size * 8
            self._record_solve(signature, problem, args, kwargs, result, steps)
            return result

        return wrapper

    def _instrument(self, problem, layer, steps, calls):
        """Copy of the NlpProblem whose callables are timed spans."""
        try:
            inst = copy.copy(problem)
            objective = problem.objective

            def on_objective(z, *rest):
                calls[0] += 1
                steps.evaluated(z)

            inst.objective = self._span(f"{layer}.objective", objective, before=on_objective)
            if problem.equality is not None:
                inst.equality = self._span(f"{layer}.area", problem.equality)
            builder = problem.h0_builder
            if builder is not None:
                seed = "solver.dense_seed" if builder in self._dense_builders else f"{layer}.seed"

                def build(x, *args, **kwargs):
                    steps.built(x)
                    self._enter(f"{seed}_build")
                    try:
                        apply = builder(x, *args, **kwargs)
                    finally:
                        self._exit()
                    return self._span(f"{seed}_apply", apply)

                inst.h0_builder = build
        except (AttributeError, TypeError):
            self.missing.add(CALLABLES)
            return problem
        return inst

    def _record_solve(self, signature, problem, args, kwargs, result, steps):
        try:
            history = result.history
            inner = [rec.inner_iters for rec in history]
            params = signature.bind(problem, *args, **kwargs).arguments.get("params")
            if params is None:
                params = importlib.import_module("convexfit.solver").SolverParams()
            max_inner = params.max_inner
            status = result.status
        except (AttributeError, TypeError, ImportError):
            self.missing.add("NlpResult.history")
            return
        self.counts["solver.outer_iters"] += len(history)
        self.counts["solver.inner_iters"] += sum(inner)
        self.counts["solver.max_inner_hits"] += sum(1 for k in inner if k >= max_inner)
        self.counts["solver.converged"] += status == "converged"
        self.counts["solver.unit_steps"] += steps.hits

    def _dense_marker(self, fn):
        def wrapper(*args, **kwargs):
            builder = fn(*args, **kwargs)
            self._dense_builders.add(builder)
            return builder

        return wrapper

    def _export_wrapper(self, fn):
        signature = inspect.signature(fn)
        timed = self._span("exports.write", fn)

        def wrapper(*args, **kwargs):
            result = timed(*args, **kwargs)
            path = signature.bind(*args, **kwargs).arguments.get("path")
            if path is not None and os.path.exists(path):
                self.counts["exports.bytes_written"] += os.path.getsize(path)
            return result

        return wrapper

    # -- report -------------------------------------------------------------

    def layer_metrics(self):
        """Per-layer metrics as {name: (value, unit)}; a metric is left out
        when every hook it reads from is missing."""
        s, c, missing = self.stats, self.counts, self.missing

        def incl(name):
            return s[name][1] if name in s else 0.0

        def self_time(name):
            return s[name][2] if name in s else 0.0

        def calls(name):
            return s[name][0] if name in s else 0

        def gone(*hooks):
            return all(f"{m}.{n}" in missing for m, n in hooks)

        nlp = gone(("solver", "solve_nlp"))
        callables = nlp or CALLABLES in missing
        history = nlp or "NlpResult.history" in missing
        nodal, fourier = gone(*ENTRY_POINTS[:2]), gone(*ENTRY_POINTS[2:])
        dense = callables or gone(("solver", "dense_h0_builder"))
        inner = c["solver.inner_iters"]
        solves = c["solver.solves"]
        table = [
            ("solver.solve_s", incl("solver.solve"), "s", nlp),
            ("solver.self_s", self_time("solver.solve"), "s", callables),
            ("solver.outer_iters", c["solver.outer_iters"], "count", history),
            ("solver.inner_iters", inner, "count", history),
            ("solver.al_evals", c["solver.al_evals"], "count", callables),
            ("solver.evals_per_inner", c["solver.al_evals"] / inner if inner else 0.0, "call/iter", callables or history),
            ("solver.unit_step_frac", c["solver.unit_steps"] / inner if inner else 0.0, "ratio", callables or history),
            ("solver.max_inner_hits", c["solver.max_inner_hits"], "count", history),
            ("solver.certified_frac", c["solver.converged"] / solves if solves else 0.0, "ratio", history),
            ("solver.matvec_bytes", c["solver.matvec_bytes"], "B_computed", callables),
            ("solver.dense_seed_build_s", incl("solver.dense_seed_build"), "s", dense),
            ("solver.dense_seed_apply_s", incl("solver.dense_seed_apply"), "s", dense),
            ("nodal.seed_build_s", incl("nodal.seed_build"), "s", callables or nodal),
            ("nodal.seed_apply_s", incl("nodal.seed_apply"), "s", callables or nodal),
            ("nodal.seed_builds", calls("nodal.seed_build"), "count", callables or nodal),
            ("nodal.objective_s", incl("nodal.objective"), "s", callables or nodal),
            ("nodal.area_s", incl("nodal.area"), "s", callables or nodal),
            ("nodal.setup_s", c["nodal.setup_s"], "s", nlp or nodal),
            ("nodal.convexify_s", incl("nodal.convexify"), "s", gone(("nodal", "convexify"))),
            ("nodal.self_s", self_time("nodal.solve"), "s", nodal),
            ("geometry.support_s", incl("geometry.support"), "s", gone(*SUPPORT)),
            ("fourier.objective_s", incl("fourier.objective"), "s", callables or fourier),
            ("fourier.area_s", incl("fourier.area"), "s", callables or fourier),
            ("fourier.setup_s", c["fourier.setup_s"], "s", nlp or fourier),
            ("fourier.self_s", self_time("fourier.solve"), "s", fourier),
            ("multistart.select_s", self_time("multistart.run"), "s", gone(("multistart", "run_multistart"))),
            ("multistart.starts", c["multistart.starts"], "count", nlp or gone(("multistart", "run_multistart"))),
            ("experiments.self_s", self_time("experiments.study"), "s", gone(*STUDIES)),
            ("exports.write_s", incl("exports.write"), "s", gone(*EXPORTS)),
            ("exports.bytes_written", c["exports.bytes_written"], "B", gone(*EXPORTS)),
        ]
        return {name: (float(value), unit) for name, value, unit, absent in table if not absent}

    def span_table(self):
        """{span: {"calls", "inclusive_s", "self_s"}} for the traced run."""
        return {
            name: {"calls": calls, "inclusive_s": incl, "self_s": self_s}
            for name, (calls, incl, self_s, _) in sorted(self.stats.items())
        }
