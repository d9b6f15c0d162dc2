"""Acceptance suite: one test per certification criterion, at full scale.

Each test prints a one-line verdict. Shared fixtures run the expensive
ladder studies once per session.
"""
import math
import time

import numpy as np
import pytest

from kramerslab import gibbs
from kramerslab.convergence import (Config, gamma_limsup_check,
                                    run_ladder_study)
from kramerslab.evolve_kramers import solve, solve_limit
from kramerslab.grid_forms import (Field, LimitField, assemble,
                                   assemble_limit, build_grid, graded_nodes)
from kramerslab.transition import k_eps, lift, q_eps

import oracles
from conftest import QP_GRID

LADDER = (0.2, 0.1, 0.05)
LIMIT_RATE = 4.0 * math.sqrt(2.0) / math.pi


def _verdict(num, name):
    print(f"[criterion {num:02d}] {name}: PASS")


@pytest.fixture(scope="module")
def default_grid():
    return build_grid(129, 161)


@pytest.fixture(scope="module")
def default_forms(quartic, default_grid):
    return {eps: assemble(default_grid, quartic, eps) for eps in LADDER}


@pytest.fixture(scope="module")
def critical_report():
    t0 = time.perf_counter()
    report = run_ladder_study(Config(ladder=LADDER))
    report.elapsed = time.perf_counter() - t0
    return report


@pytest.fixture(scope="module")
def sub_report():
    return run_ladder_study(Config(ladder=LADDER, regime="sub",
                                   t_final=0.5, times=(0.1, 0.5)))


@pytest.fixture(scope="module")
def super_report():
    return run_ladder_study(Config(ladder=LADDER, regime="super",
                                   t_final=0.5, times=(0.1, 0.5)))


def test_criterion_01_rate_asymptotics(quartic):
    t0 = time.perf_counter()
    ratios = [2.0 * k_eps(gibbs.GibbsMeasure.compute(quartic, eps))
              / LIMIT_RATE for eps in LADDER]
    elapsed = time.perf_counter() - t0
    gaps = [abs(r - 1.0) for r in ratios]
    assert gaps[0] > gaps[1] > gaps[2], ratios
    assert gaps[-1] < 0.25
    assert elapsed < 5.0
    _verdict(1, "rate coefficient approaches the limit monotonically")


def test_criterion_02_variational_minimality(quartic):
    t0 = time.perf_counter()
    nodes = graded_nodes(4001, **QP_GRID)
    for eps in LADDER:
        k_min, _ = oracles.qp_minimum(quartic.eval, eps, nodes)
        rate = k_eps(gibbs.GibbsMeasure.compute(quartic, eps))
        assert abs(rate / k_min - 1.0) <= 1e-6, eps
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _verdict(2, "closed form matches the discrete minimization oracle")


def test_criterion_03_profile_mass(quartic):
    devs = [abs(4.0 * q_eps(gibbs.GibbsMeasure.compute(quartic, eps)) - 1.0)
            for eps in LADDER]
    assert devs[0] > devs[1] > devs[2], devs
    assert devs[-1] < 0.3
    _verdict(3, "optimal-profile mass approaches 1/4 monotonically")


def test_criterion_04_laplace_consistency(quartic):
    z_dev, i_dev = [], []
    for eps in LADDER:
        z = math.exp(gibbs.log_partition(quartic, eps))
        ish = math.exp(gibbs.log_barrier_integral(quartic, eps))
        z_dev.append(abs(z / gibbs.laplace_z(quartic, eps) - 1.0))
        i_dev.append(abs(ish / gibbs.laplace_i_shifted(quartic, eps) - 1.0))
    assert z_dev[0] > z_dev[1] > z_dev[2], z_dev
    assert i_dev[0] > i_dev[1] > i_dev[2], i_dev
    assert z_dev[-1] < 0.25 and i_dev[-1] < 0.25
    _verdict(4, "quadrature matches leading-order asymptotics monotonically")


def test_criterion_05_discrete_structure(quartic, default_grid, default_forms):
    t0 = time.perf_counter()
    for eps, forms in default_forms.items():
        one = np.ones(forms.n)
        assert np.abs(forms.A @ one).max() <= 1e-12 * np.abs(forms.A.data).max()
        u0 = lift(np.cos(np.pi * default_grid.x_nodes),
                  1.0 + np.cos(np.pi * default_grid.x_nodes),
                  quartic, eps, default_grid)
        traj = solve(forms, u0, T=0.05, dt=1e-3)
        assert np.abs(np.diff(traj.mass)).max() <= 1e-10, eps
        assert np.abs(traj.energy_residual[1:]).max() <= 1e-9 * traj.b[0], eps
        const = Field(np.full((default_grid.nx, default_grid.nxi), 0.7),
                      default_grid)
        ctraj = solve(forms, const, T=0.01, dt=1e-3, snapshot_times=(0.01,))
        assert np.abs(ctraj.snapshot_at(0.01).values - 0.7).max() <= 1e-10
    elapsed = time.perf_counter() - t0
    assert elapsed < 60.0
    _verdict(5, "conservation, energy identity, stationarity, kernel")


def test_criterion_06_homogeneous_benchmark(quartic, default_grid,
                                            default_forms):
    # eps-level trace gap follows the two-state exchange with per-well rate
    # 2 k_eps (the rate coefficient measures half a well pair), so the gap
    # decays as exp(-4 k_eps t)
    eps = 0.1
    forms = default_forms[eps]
    u0 = lift(np.zeros(129), np.ones(129), quartic, eps, default_grid)
    traj = solve(forms, u0, T=0.5, dt=1e-3, snapshot_times=(0.1, 0.5))
    rate = k_eps(forms.measure)
    for t in (0.1, 0.5):
        state = traj.snapshot_at(t)
        gap = float(state.values[:, -1].mean() - state.values[:, 0].mean())
        predicted = math.exp(-4.0 * rate * t)
        assert abs(gap / predicted - 1.0) <= 0.10, (t, gap, predicted)

    x = default_grid.x_nodes
    lforms = assemble_limit(x, LIMIT_RATE)
    ltraj = solve_limit(lforms, LimitField(np.zeros(129), np.ones(129), x),
                        T=0.5, dt=1e-4, snapshot_times=(0.5,))
    um, up = oracles.limit_pair_solution(lforms, np.zeros(129), np.ones(129),
                                         0.5)
    final = ltraj.snapshot_at(0.5)
    assert np.abs(final.u_minus - um).max() <= 1e-6
    assert np.abs(final.u_plus - up).max() <= 1e-6
    _verdict(6, "homogeneous two-state benchmark at both levels")


def test_criterion_07_weak_star_certification(critical_report):
    failing = [name for name in critical_report.failures()
               if name.startswith(("pairing_monotone", "trace_monotone",
                                   "mass_pairing_small"))]
    assert failing == []
    assert critical_report.elapsed < 600.0
    _verdict(7, "weak-* pairings and traces converge monotonically")


def test_criterion_08_norm_certification(critical_report):
    for t in (0.5, 1.0):
        assert critical_report.checks[f"b_monotone[t={t:g}]"]
        assert critical_report.checks[f"a_monotone[t={t:g}]"]
    _verdict(8, "form values converge monotonically at positive times")


def test_criterion_09_recovery_families(quartic, default_grid, default_forms):
    ladder = LADDER
    pairs = {
        "constants": (lambda x: np.full_like(x, 0.3),
                      lambda x: np.full_like(x, 0.3)),
        "cosine": (lambda x: np.cos(np.pi * x),
                   lambda x: 1.0 + np.cos(np.pi * x)),
        "mixed": (lambda x: 0.2 + np.cos(np.pi * x),
                  lambda x: 1.0 - 0.5 * np.cos(2.0 * np.pi * x)),
    }
    for name, (um, up) in pairs.items():
        table = gamma_limsup_check(um, up, ladder, default_grid, quartic)
        assert table.b_monotone and table.a_monotone, name
    for eps, forms in default_forms.items():
        v = lift(np.zeros(129), np.ones(129), quartic, eps, default_grid)
        # grid-quadrature tolerance of the default discretization
        assert abs(forms.a_energy(v) / k_eps(forms.measure) - 1.0) <= 5e-3
    _verdict(9, "recovery families converge; unit jump reproduces the rate")


def test_criterion_10_scaling_dichotomy(sub_report, super_report):
    for t in (0.1, 0.5):
        errs = [r.trace_err[t] for r in sub_report.rows]
        assert errs[0] > errs[1] > errs[2], ("sub", t, errs)
    assert sub_report.checks["effective_rate_decreasing"]
    assert sub_report.checks["effective_rate_scaling"]
    gaps = [r.gap_norm[0.5] for r in super_report.rows]
    assert gaps[0] > gaps[1] > gaps[2], gaps
    assert gaps[-1] < 1e-6
    _verdict(10, "off-critical clocks: extinction vs instant equilibration")


def test_criterion_11_lower_bounds_everywhere(critical_report, sub_report,
                                              super_report):
    for report in (critical_report, sub_report, super_report):
        for row in report.rows:
            for margin in row.fiber_margin.values():
                assert margin >= -1e-8, (report.regime, row.eps)
            for margin in row.jensen_margin.values():
                assert margin >= -1e-8, (report.regime, row.eps)
    _verdict(11, "discrete lower bounds hold on every stored state")


def test_invariants_full_report_green(critical_report, sub_report,
                                      super_report):
    # beyond the numbered criteria: every boolean certificate in every
    # produced report holds (flatness decay, conservation, observables, ...)
    for report in (critical_report, sub_report, super_report):
        assert report.row_errors == {}
        assert report.all_ok, report.failures()
    print("[invariants] all report certificates hold: PASS")
