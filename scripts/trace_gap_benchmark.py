#!/usr/bin/env python3
"""Homogeneous two-state benchmark: measured trace-gap decay vs predictions.

Runs spatially uniform embedded data (0, 1) at one scale and tabulates the
trace gap against exp(-4 k_eps t) (the two-state exchange with per-well rate
2 k_eps) and against the limit-system decay exp(-2 k t).

    python3 scripts/trace_gap_benchmark.py [--eps 0.1] [--T 1.0]
"""
import argparse
import math

import numpy as np

from kramerslab.enthalpy import quartic_default
from kramerslab.evolve_kramers import solve
from kramerslab.grid_forms import assemble, build_grid
from kramerslab.transition import k_eps, lift, limit_rate


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--eps", type=float, default=0.1)
    ap.add_argument("--T", type=float, default=1.0)
    ap.add_argument("--dt", type=float, default=1e-3)
    ap.add_argument("--nx", type=int, default=129)
    ap.add_argument("--nxi", type=int, default=161)
    args = ap.parse_args()

    prof = quartic_default()
    grid = build_grid(args.nx, args.nxi)
    forms = assemble(grid, prof, args.eps)
    u0 = lift(np.zeros(args.nx), np.ones(args.nx), prof, args.eps, grid)
    times = tuple(round(f * args.T, 10) for f in (0.1, 0.2, 0.5, 1.0))
    traj = solve(forms, u0, args.T, args.dt, snapshot_times=times)

    rate = k_eps(forms.measure)
    k = limit_rate(prof)
    print(f"eps = {args.eps}: k_eps = {rate:.6f}, per-well rate 2k_eps = "
          f"{2 * rate:.6f}, limit rate k = {k:.6f}")
    print(f"{'t':>6} {'gap':>12} {'exp(-4k_eps t)':>15} {'ratio':>8} "
          f"{'exp(-2k t)':>12}")
    for t in times:
        state = traj.snapshot_at(t)
        gap = float(state.values[:, -1].mean() - state.values[:, 0].mean())
        pred = math.exp(-4.0 * rate * t)
        print(f"{t:6.2f} {gap:12.6e} {pred:15.6e} {gap / pred:8.4f} "
              f"{math.exp(-2.0 * k * t):12.6e}")


if __name__ == "__main__":
    main()
