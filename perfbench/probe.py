"""Per-layer probe: one call of each layer at fixed scales, timed directly.

Run inside the traced run of every workload (``child.py probe OUT.json``),
untraced, at the default 129 x 161 grid and the README's default pair, at
eps in {0.2, 0.05, 0.03}. Each timing is the median of three calls. The
certificate outcome at every scale (backward error of the probe solve, mass
drift and energy residual over five steps) is recorded as measured; at
eps = 0.03 the mass certificate fails today.

    python3 perfbench/probe.py --pcg OUT.json

times one certified solve on the Jacobi-PCG path (257 x 321 unknowns, above
the direct-solver limit) once; it takes minutes, so no workload repeats it.
"""
from __future__ import annotations

import json
import os
import statistics
import sys
import time

PROBE_EPS = (0.2, 0.05, 0.03)
DT = 1e-3
REPEATS = 3


def _timed(fn, *args, **kwargs):
    """(median seconds of REPEATS calls, result of the last call)."""
    times = []
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        times.append(time.perf_counter() - t0)
    return statistics.median(times), result


def _setup(nx, nxi, eps):
    import numpy as np
    from kramerslab import build_grid, lift, quartic_default
    profile = quartic_default()
    grid = build_grid(nx, nxi)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), profile, eps, grid)
    return profile, grid, u0


def _system(forms, c, counter):
    M = forms.M
    S = (M + c * forms.A).tocsr()

    def op(v):
        counter[0] += 1
        return M @ v + c * forms.apply_a(v)
    return S, op


def probe_scale(eps):
    import numpy as np
    from kramerslab import assemble, solve
    from kramerslab.convergence import default_test_functions, nonlinear_observable
    from kramerslab.evolve_kramers import LinearSolver
    from kramerslab.grid_forms import pair_measure

    profile, grid, u0 = _setup(129, 161, eps)
    out = {}
    t, forms = _timed(assemble, grid, profile, eps)
    out["assemble_ms"] = t * 1e3
    counter = [0]
    S, op = _system(forms, 0.5 * DT, counter)
    t, solver = _timed(LinearSolver, S, 1e-11, op=op)
    out["factorize_ms"] = t * 1e3

    u = u0.ravel().copy()
    rhs = -DT * forms.apply_a(u)
    counter[0] = 0
    t, du = _timed(solver.solve, rhs)
    out["linear_solve_ms"] = t * 1e3
    out["lu_solves"] = counter[0] / REPEATS
    r = rhs - op(du)
    out["backward_error"] = float(np.linalg.norm(r)) / (
        solver.norm_S * float(np.linalg.norm(du)) + float(np.linalg.norm(rhs)))
    t, _ = _timed(forms.apply_a, u)
    out["apply_a_us"] = t * 1e6

    M = forms.M
    mass_vec = M @ np.ones_like(u)
    u_new = u + du

    def step_diagnostics():
        # what the stepper records per step: mass, b, the energy split and
        # the energy-identity residual of a trapezoidal step
        mass_vec @ u_new
        b = float(u_new @ (M @ u_new))
        forms.a1_energy(u_new)
        forms.a2_energy(u_new)
        ubar = 0.5 * (u_new + u)
        return 0.5 * b - 0.5 * float(u @ (M @ u)) + DT * forms.a_energy(ubar)
    t, _ = _timed(step_diagnostics)
    out["step_diag_ms"] = t * 1e3

    traj = solve(forms, u0, 5 * DT, DT, snapshot_times=(5 * DT,))
    state = traj.snapshots[-1][1]
    out["mass_drift_max"] = float(np.abs(np.diff(traj.mass)).max())
    out["energy_residual_max"] = float(np.abs(traj.energy_residual[1:]).max())

    tests = default_test_functions()
    t, _ = _timed(lambda: [pair_measure(forms, state, fn) for fn in tests.values()])
    out["pair_measure_ms"] = t * 1e3
    observables = (lambda x, xi, v: v * v, lambda x, xi, v: np.abs(v) ** 1.5)
    t, _ = _timed(lambda: [nonlinear_observable(forms, state, f)
                           for f in observables])
    out["nonlinear_observable_ms"] = t * 1e3
    return out


def probe_limit():
    import numpy as np
    from kramerslab import (LimitField, assemble_limit, limit_rate,
                            quartic_default, solve_limit)
    x = np.linspace(0.0, 1.0, 1025)
    lforms = assemble_limit(x, limit_rate(quartic_default()))
    w0 = LimitField(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), x)
    t, _ = _timed(solve_limit, lforms, w0, 50 * DT, DT)
    return t * 1e3


def metrics():
    """Probe figures as name -> (value, unit)."""
    units = {"assemble_ms": "ms", "factorize_ms": "ms", "linear_solve_ms": "ms",
             "lu_solves": "count", "backward_error": "1", "apply_a_us": "us",
             "step_diag_ms": "ms", "mass_drift_max": "1",
             "energy_residual_max": "1", "pair_measure_ms": "ms",
             "nonlinear_observable_ms": "ms"}
    m = {}
    for eps in PROBE_EPS:
        for key, value in probe_scale(eps).items():
            m[f"probe.eps_{eps:g}.{key}"] = (value, units[key])
    m["probe.solve_limit_ms"] = (probe_limit(), "ms")
    return m


def main(out_path):
    with open(out_path, "w") as fh:
        json.dump(metrics(), fh)


def pcg_solve(eps):
    """One certified Jacobi-PCG solve at 257 x 321 (82,497 unknowns)."""
    import numpy as np
    from kramerslab import assemble
    from kramerslab.evolve_kramers import DIRECT_LIMIT, LinearSolver

    profile, grid, u0 = _setup(257, 321, eps)
    forms = assemble(grid, profile, eps)
    counter = [0]
    S, op = _system(forms, 0.5 * DT, counter)
    solver = LinearSolver(S, 1e-11, op=op)
    u = u0.ravel()
    rhs = -DT * forms.apply_a(u)
    t0 = time.perf_counter()
    du = solver.solve(rhs)
    busy = time.perf_counter() - t0
    r = rhs - op(du)
    return {
        "eps": eps, "grid": [257, 321], "unknowns": int(S.shape[0]),
        "direct_limit": DIRECT_LIMIT, "method": solver.method,
        "evolve_kramers.linear_solve_pcg.busy_s": busy,
        "operator_applications": counter[0],
        "backward_error": float(np.linalg.norm(r)) / (
            solver.norm_S * float(np.linalg.norm(du)) + float(np.linalg.norm(rhs))),
    }


def pcg_probe(out_path):
    """The PCG solve at the ladder's ends, eps = 0.2 and 0.05."""
    results = [pcg_solve(eps) for eps in (0.2, 0.05)]
    with open(out_path, "w") as fh:
        json.dump(results, fh, indent=2)
    print(json.dumps(results, indent=2))


if __name__ == "__main__":
    if len(sys.argv) != 3 or sys.argv[1] != "--pcg":
        raise SystemExit("usage: python3 perfbench/probe.py --pcg OUT.json")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    pcg_probe(sys.argv[2])
