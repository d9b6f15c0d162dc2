"""Theta-scheme solver for the two-species reaction-diffusion limit system.

Same variational structure and the same stepping machinery as the eps-level
solver, acting on the block forms over the pair of well densities.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .evolve_kramers import LinearSolver, theta_plan, _snapshot_steps
from .grid_forms import LimitField

__all__ = ["LimitTrajectory", "solve_limit", "limit_energy_identity",
           "homogeneous_pair_solution"]


@dataclass
class LimitTrajectory:
    """Trajectory of the limit system with per-step diagnostics."""

    times: np.ndarray
    mass: np.ndarray
    b: np.ndarray
    a: np.ndarray
    energy_residual: np.ndarray
    thetas: np.ndarray
    snapshots: list
    scheme: str
    dt: float

    def snapshot_at(self, t):
        for ts, state in self.snapshots:
            if abs(ts - t) <= 1e-9 * max(abs(t), 1.0):
                return state
        raise KeyError(f"no snapshot stored at t = {t!r}")


def solve_limit(lforms, u0, T, dt, scheme="CN_rannacher", snapshot_times=(),
                residual_target=1e-11):
    """Integrate the block system M dw/dt + A w = 0 for w = (u_minus, u_plus).

    The block system is small and, with distinct exchange rates,
    nonsymmetric; it is solved by sparse LU.
    """
    if not isinstance(u0, LimitField):
        raise TypeError("u0 must be a LimitField")
    if len(u0.x_nodes) != len(lforms.x_nodes) or not np.array_equal(
            u0.x_nodes, lforms.x_nodes):
        raise ValueError("initial data and forms live on different x-grids")
    M, A = lforms.M, lforms.A
    n_steps, groups = theta_plan(
        T, dt, scheme, lambda c: LinearSolver(M + c * A, residual_target))
    want = _snapshot_steps(snapshot_times, dt, n_steps)

    nx = len(lforms.x_nodes)
    w = u0.stack()
    mass_vec = M @ np.ones_like(w)

    times = np.zeros(n_steps + 1)
    mass = np.zeros(n_steps + 1)
    b = np.zeros(n_steps + 1)
    a = np.zeros(n_steps + 1)
    e_res = np.zeros(n_steps)
    thetas = np.zeros(n_steps)
    snapshots = []

    def record(idx, t, vec):
        times[idx] = t
        mass[idx] = float(mass_vec @ vec)
        b[idx] = float(vec @ (M @ vec))
        a[idx] = float(vec @ (A @ vec))

    def snap(t, vec):
        snapshots.append((t, LimitField(vec[:nx].copy(), vec[nx:].copy(),
                                        lforms.x_nodes)))

    record(0, 0.0, w)
    if 0 in want:
        snap(want[0], w)

    t = 0.0
    for step, group in enumerate(groups, start=1):
        residual = 0.0
        theta_used = group[0][0]
        for theta, dt_sub, solver in group:
            w_new = w + solver.solve(-dt_sub * (A @ w))
            wbar = theta * w_new + (1.0 - theta) * w
            residual += (0.5 * float(w_new @ (M @ w_new))
                         - 0.5 * float(w @ (M @ w))
                         + dt_sub * float(wbar @ (A @ wbar)))
            w = w_new
            t += dt_sub
        record(step, t, w)
        e_res[step - 1] = residual
        thetas[step - 1] = theta_used
        if step in want:
            snap(want[step], w)
    return LimitTrajectory(times=times, mass=mass, b=b, a=a,
                           energy_residual=e_res, thetas=thetas,
                           snapshots=snapshots, scheme=scheme, dt=dt)


def limit_energy_identity(trajectory):
    """Per-step residual of the discrete energy identity of the limit flow."""
    return trajectory.energy_residual


def homogeneous_pair_solution(c_minus, c_plus, rate_forward, rate_backward, t):
    """Closed-form spatially homogeneous pair dynamics.

    du_minus/dt = rb * u_plus - rf * u_minus and symmetrically; the total is
    conserved and the deviation from the stationary split decays at the rate
    rf + rb. With equal rates k this is (m -+ half-gap e^{-2kt}) with
    m the mean, i.e. u_plus(0) = c_plus is recovered at t = 0.
    """
    total = c_minus + c_plus
    lam = rate_forward + rate_backward
    if lam == 0.0:
        return c_minus, c_plus
    eq_minus = total * rate_backward / lam
    eq_plus = total * rate_forward / lam
    decay = np.exp(-lam * np.asarray(t, dtype=float))
    return (eq_minus + (c_minus - eq_minus) * decay,
            eq_plus + (c_plus - eq_plus) * decay)
