"""Spans and counters recorded around kramerslab's public functions.

Nothing in the package is edited. Each function is replaced, at the name its
callers look it up by (``convergence.assemble``, ``cli.solve``, the methods
of ``LinearSolver`` and ``FormMatrices``), by a wrapper that records a span:
name, start, end, parent span and run id. Spans stay in memory and are
written once, when the traced process ends; ``layer_metrics`` turns them into
the per-layer figures.

The package is single-threaded under ``KRAMERS_THREADS=1``, so one span
stack describes the nesting.
"""
from __future__ import annotations

import functools
import time

import numpy as np

# spans under which a LinearSolver belongs to the limit system
_LIMIT = "evolve_limit.solve_limit"
_KRAMERS = "evolve_kramers.solve"

# eps-level diagnostics of a ladder snapshot (convergence's own per-rung work)
_DIAG = ("grid_forms.pair_measure", "convergence.nonlinear_observable",
         "convergence.fiber_bound_margin", "convergence.gradient_bound_margin",
         "convergence.xi_flatness", "grid_forms.b_form", "grid_forms.energy")

# the default ladder, whose rungs are reported one by one
RUNG_EPS = (0.2, 0.1, 0.05)


class Tracer:
    """In-memory span recorder; one instance per traced process."""

    def __init__(self):
        self.spans = []
        self.run_id = None
        self.paused = False
        self._stack = []

    def open(self, name, **extra):
        span = {"name": name, "start": time.perf_counter(), "end": None,
                "parent": self._stack[-1] if self._stack else -1,
                "run": self.run_id, **extra}
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def close(self, span):
        span["end"] = time.perf_counter()
        self._stack.pop()

    def innermost(self, name):
        for idx in reversed(self._stack):
            if self.spans[idx]["name"] == name:
                return self.spans[idx]
        return None

    def wrap(self, owner, attr, name, after=None):
        """Replace ``owner.attr`` by a span-recording wrapper.

        ``after(span, args, kwargs, result)`` may attach figures to the span
        once the call has returned.
        """
        inner = getattr(owner, attr)
        tracer = self

        @functools.wraps(inner)
        def traced(*args, **kwargs):
            if tracer.paused:
                return inner(*args, **kwargs)
            span = tracer.open(name)
            try:
                result = inner(*args, **kwargs)
            finally:
                tracer.close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        setattr(owner, attr, traced)


def trajectory_figures(traj):
    """Steps, snapshots and the worst per-step conservation figures."""
    mass = np.asarray(traj.mass, dtype=float)
    e_res = np.asarray(traj.energy_residual, dtype=float)
    drift = np.abs(np.diff(mass))
    # the first step is the damped start, whose energy residual is only
    # nonpositive; the identity holds with equality on the later steps
    tail = np.abs(e_res[1:])
    return {
        "steps": len(traj.times) - 1,
        "snapshots": len(traj.snapshots),
        "mass_drift": float(drift.max()) if drift.size else 0.0,
        "energy_residual": float(tail.max()) if tail.size else 0.0,
        "b0": float(traj.b[0]),
        "finite": bool(np.all(np.isfinite(mass)) and np.all(np.isfinite(e_res))
                       and np.all(np.isfinite(traj.b))),
    }


def _forms_bytes(forms):
    total = 0
    for value in vars(forms).values():
        if isinstance(value, np.ndarray):
            total += value.nbytes
        elif hasattr(value, "indptr"):
            total += value.data.nbytes + value.indices.nbytes + value.indptr.nbytes
    return total


def install(tracer):
    """Wrap every traced entry point of kramerslab; returns nothing."""
    from kramerslab import (cli, convergence, evolve_kramers, gibbs,
                            grid_forms, transition)

    def on_trajectory(span, args, kwargs, result):
        span.update(trajectory_figures(result))

    def on_assemble(span, args, kwargs, result):
        span["eps"] = float(result.eps)
        span["bytes"] = _forms_bytes(result)

    seen_partitions = set()

    def on_log_partition(span, args, kwargs, result):
        profile, eps = args[0], args[1]
        tol = args[2] if len(args) > 2 else kwargs.get("tol", 1e-12)
        skew = args[3] if len(args) > 3 else kwargs.get("skew")
        key = (profile.name, float(eps), float(tol), skew is None)
        span["repeat"] = key in seen_partitions
        seen_partitions.add(key)

    # modules that look the library functions up by their own global names
    for module in (cli, convergence):
        tracer.wrap(module, "solve", _KRAMERS, on_trajectory)
        tracer.wrap(module, "solve_limit", _LIMIT, on_trajectory)
        tracer.wrap(module, "assemble", "grid_forms.assemble", on_assemble)
        tracer.wrap(module, "assemble_limit", "grid_forms.assemble_limit")
        tracer.wrap(module, "lift", "transition.lift")
        tracer.wrap(module, "k_eps", "transition.k_eps")
        tracer.wrap(module, "q_eps", "transition.q_eps")
    tracer.wrap(cli, "assemble_limit_rates", "grid_forms.assemble_limit")
    tracer.wrap(cli, "run_ladder_study", "convergence.run_ladder_study")
    tracer.wrap(cli, "build_grid", "grid_forms.build_grid")
    tracer.wrap(cli, "profile_from_config", "cli.profile_from_config")
    for cmd in ("cmd_rates", "cmd_simulate", "cmd_limit", "cmd_converge"):
        tracer.wrap(cli, cmd, "cli.command")

    for name in ("pair_measure", "b_form"):
        tracer.wrap(convergence, name, f"grid_forms.{name}")
    for name in ("nonlinear_observable", "fiber_bound_margin",
                 "gradient_bound_margin", "xi_flatness", "gamma_limsup_check"):
        tracer.wrap(convergence, name, f"convergence.{name}")

    tracer.wrap(gibbs, "log_partition", "gibbs.log_partition", on_log_partition)
    tracer.wrap(gibbs, "log_barrier_integral", "gibbs.log_barrier_integral")
    tracer.wrap(gibbs, "adaptive_integral", "quadrature.adaptive_integral")
    tracer.wrap(transition, "transition_profile", "transition.transition_profile")

    forms_cls = grid_forms.FormMatrices
    tracer.wrap(forms_cls, "apply_a", "grid_forms.apply_a")
    tracer.wrap(forms_cls, "a1_energy", "grid_forms.energy")
    tracer.wrap(forms_cls, "a2_energy", "grid_forms.energy")

    solver_cls = evolve_kramers.LinearSolver
    init = solver_cls.__init__
    solve = solver_cls.solve

    @functools.wraps(init)
    def factorize(self, *args, **kwargs):
        span = tracer.open("LinearSolver.factorize")
        try:
            init(self, *args, **kwargs)
        finally:
            tracer.close(span)
        exact = self.op

        # ``op`` runs exactly once per LU solve (after the first solve and
        # after each refinement sweep), so counting its calls counts solves
        def counted(v):
            current = tracer.innermost("LinearSolver.solve")
            if current is not None:
                current["lu"] += 1
            return exact(v)

        counted.exact = exact
        self.op = counted

    @functools.wraps(solve)
    def certified_solve(self, rhs):
        span = tracer.open("LinearSolver.solve", lu=0)
        try:
            x = solve(self, rhs)
        finally:
            tracer.close(span)
        # the backward error, recomputed from the exact operator: the
        # tracer's own work, in a span of its own so that no layer's calls
        # or self time include it
        check = tracer.open("tracer.backward_error")
        tracer.paused = True
        try:
            rhs = np.asarray(rhs, dtype=float)
            norm_rhs = float(np.linalg.norm(rhs))
            r = rhs - self.op.exact(x) if norm_rhs > 0.0 else rhs
            span["backward_error"] = float(np.linalg.norm(r)) / (
                self.norm_S * float(np.linalg.norm(x)) + norm_rhs or 1.0)
        finally:
            tracer.paused = False
            tracer.close(check)
        return x

    solver_cls.__init__ = factorize
    solver_cls.solve = certified_solve


# -- turning spans into per-layer figures ------------------------------------

def _durations(spans, name):
    return [s["end"] - s["start"] for s in spans if s["name"] == name]


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _nearest(spans, span, names):
    parent = span["parent"]
    while parent >= 0:
        if spans[parent]["name"] in names:
            return spans[parent]["name"]
        parent = spans[parent]["parent"]
    return None


def _self_times(spans):
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] >= 0:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


def _rung_times(spans):
    """Wall time of each ladder rung, keyed by eps.

    A rung is not a function of its own; with one worker the rungs run one
    after another, each opening with its ``assemble``. A rung spans from its
    assemble to the end of the last call the study makes before the next.
    """
    rungs = {}
    for idx, study in enumerate(spans):
        if study["name"] != "convergence.run_ladder_study":
            continue
        children = [s for s in spans if s["parent"] == idx]
        starts = [i for i, s in enumerate(children)
                  if s["name"] == "grid_forms.assemble"]
        for n, i in enumerate(starts):
            stop = starts[n + 1] if n + 1 < len(starts) else len(children)
            block = children[i:stop]
            eps = children[i]["eps"]
            rungs[eps] = rungs.get(eps, 0.0) + block[-1]["end"] - block[0]["start"]
    return rungs


def layer_metrics(spans, artifact_bytes):
    """Per-layer figures of one traced repetition, as name -> (value, unit)."""
    m = {}
    selfs = _self_times(spans)

    def busy(name, scale=1e3):
        return sum(_durations(spans, name)) * scale

    def calls(name):
        return sum(1 for s in spans if s["name"] == name)

    solves = {_KRAMERS: [], _LIMIT: []}
    factorizations = {_KRAMERS: [], _LIMIT: []}
    for s in spans:
        if s["name"] in ("LinearSolver.solve", "LinearSolver.factorize"):
            owner = _LIMIT if _nearest(spans, s, (_KRAMERS, _LIMIT)) == _LIMIT \
                else _KRAMERS
            kind = solves if s["name"] == "LinearSolver.solve" else factorizations
            kind[owner].append(s)

    ks = solves[_KRAMERS]
    kt = [(s["end"] - s["start"]) * 1e3 for s in ks]
    m["evolve_kramers.linear_solve.calls"] = (len(ks), "count")
    m["evolve_kramers.linear_solve.p50_ms"] = (_percentile(kt, 50), "ms")
    m["evolve_kramers.linear_solve.p99_ms"] = (_percentile(kt, 99), "ms")
    m["evolve_kramers.inner_solves_per_solve"] = (
        sum(s["lu"] for s in ks) / len(ks) if ks else 0.0, "count")
    m["evolve_kramers.backward_error_max"] = (
        max((s["backward_error"] for s in ks), default=0.0), "1")

    at = [d * 1e6 for d in _durations(spans, "grid_forms.apply_a")]
    m["grid_forms.apply_a.calls"] = (len(at), "count")
    m["grid_forms.apply_a.p50_us"] = (_percentile(at, 50), "us")
    m["grid_forms.apply_a.p99_us"] = (_percentile(at, 99), "us")

    runs = [s for s in spans if s["name"] == _KRAMERS]
    steps = sum(s["steps"] for s in runs)
    m["evolve_kramers.solve.busy_s"] = (busy(_KRAMERS, 1.0), "s")
    m["evolve_kramers.steps"] = (steps, "count")
    stepper_self = sum(selfs[i] for i, s in enumerate(spans)
                       if s["name"] == _KRAMERS)
    m["evolve_kramers.self_ms_per_step"] = (
        stepper_self * 1e3 / steps if steps else 0.0, "ms")
    m["evolve_kramers.mass_drift_max"] = (
        max((s["mass_drift"] for s in runs), default=0.0), "1")
    m["evolve_kramers.energy_residual_max"] = (
        max((s["energy_residual"] for s in runs), default=0.0), "1")
    m["grid_forms.energy.calls"] = (calls("grid_forms.energy"), "count")
    m["grid_forms.energy.busy_ms"] = (busy("grid_forms.energy"), "ms")

    kf = factorizations[_KRAMERS]
    m["evolve_kramers.factorize.calls"] = (len(kf), "count")
    m["evolve_kramers.factorize.busy_ms"] = (
        sum(s["end"] - s["start"] for s in kf) * 1e3, "ms")

    m["grid_forms.assemble.calls"] = (calls("grid_forms.assemble"), "count")
    m["grid_forms.assemble.busy_ms"] = (busy("grid_forms.assemble"), "ms")
    m["grid_forms.assemble.bytes"] = (
        sum(s["bytes"] for s in spans if s["name"] == "grid_forms.assemble"), "B")
    parts = [s for s in spans if s["name"] == "gibbs.log_partition"]
    m["gibbs.log_partition.calls"] = (len(parts), "count")
    m["gibbs.log_partition.busy_ms"] = (busy("gibbs.log_partition"), "ms")
    m["gibbs.log_partition.repeat_share"] = (
        sum(s["repeat"] for s in parts) / len(parts) if parts else 0.0, "ratio")
    m["quadrature.adaptive_integral.calls"] = (
        calls("quadrature.adaptive_integral"), "count")
    m["quadrature.adaptive_integral.busy_ms"] = (
        busy("quadrature.adaptive_integral"), "ms")
    for name in ("transition_profile", "q_eps", "lift"):
        m[f"transition.{name}.busy_ms"] = (busy(f"transition.{name}"), "ms")

    m["grid_forms.pair_measure.calls"] = (calls("grid_forms.pair_measure"), "count")
    m["grid_forms.pair_measure.busy_ms"] = (busy("grid_forms.pair_measure"), "ms")
    m["convergence.nonlinear_observable.calls"] = (
        calls("convergence.nonlinear_observable"), "count")
    m["convergence.nonlinear_observable.busy_ms"] = (
        busy("convergence.nonlinear_observable"), "ms")
    # outermost diagnostic calls a ladder study makes outside its solves
    diag = 0.0
    for s in spans:
        if s["name"] in _DIAG and _nearest(spans, s, _DIAG) is None and \
                _nearest(spans, s, ("convergence.run_ladder_study", _KRAMERS,
                                    _LIMIT)) == "convergence.run_ladder_study":
            diag += s["end"] - s["start"]
    snaps = sum(s["snapshots"] for s in runs
                if _nearest(spans, s, ("convergence.run_ladder_study",))
                is not None)
    m["convergence.snapshot_diag_ms"] = (diag * 1e3 / snaps if snaps else 0.0, "ms")
    m["convergence.run_ladder_study.busy_s"] = (
        busy("convergence.run_ladder_study", 1.0), "s")
    rungs = _rung_times(spans)
    for eps in RUNG_EPS:
        m[f"convergence.rung.eps_{eps:g}.busy_s"] = (rungs.get(eps, 0.0), "s")

    limits = [s for s in spans if s["name"] == _LIMIT]
    lt = [(s["end"] - s["start"]) * 1e3 for s in solves[_LIMIT]]
    m["evolve_limit.solve_limit.busy_s"] = (busy(_LIMIT, 1.0), "s")
    m["evolve_limit.steps"] = (sum(s["steps"] for s in limits), "count")
    m["evolve_limit.linear_solve.p50_ms"] = (_percentile(lt, 50), "ms")
    m["evolve_limit.factorize.busy_ms"] = (
        sum(s["end"] - s["start"] for s in factorizations[_LIMIT]) * 1e3, "ms")
    m["grid_forms.assemble_limit.busy_ms"] = (busy("grid_forms.assemble_limit"), "ms")

    # the commands' own work: building rows and writing the CSV/JSON files
    m["cli.artifacts.busy_ms"] = (
        sum(selfs[i] for i, s in enumerate(spans) if s["name"] == "cli.command")
        * 1e3, "ms")
    m["cli.artifacts.bytes"] = (artifact_bytes, "B")
    return m
