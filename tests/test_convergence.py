import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kramerslab
import kramerslab.convergence as conv
from kramerslab import gibbs
from kramerslab.convergence import (Config, ConfigError,
                                    _snapshot_observables, check_times,
                                    cutoff_average, cutoff_bump,
                                    cutoff_mass, default_test_functions,
                                    fiber_bound_margin,
                                    gamma_limsup_check, gradient_bound_margin,
                                    nonlinear_observable,
                                    nonlinear_observable_limit,
                                    run_ladder_study, traces, xi_flatness)
from kramerslab.grid_forms import (Field, LimitField, apply_x, assemble,
                                   b_form, build_grid, nonlinear_observables,
                                   pair_limit, pair_measure, paired)
from kramerslab.evolve_kramers import solve
from kramerslab.transition import k_eps, lift

# coarse, fast settings: the full-scale certification lives in the
# acceptance module
MINI = dict(ladder=(0.2, 0.1), nx=33, nxi=41, dt=5e-3, t_final=0.5,
            times=(0.1, 0.5))


@pytest.fixture(scope="module")
def mini_report():
    return run_ladder_study(Config(**MINI))


def test_sample_times_and_the_solver_share_one_horizon(quartic):
    # the step index owns the tolerance, 1e-9 relative: a time that close to
    # the horizon's step lies within it, for the config and the solver alike
    grid = build_grid(4, 11)
    forms = assemble(grid, quartic, 0.2)
    u0 = lift(np.ones(4), np.ones(4), quartic, 0.2, grid)
    T, dt = 1.0, 0.1
    t = T * (1 + 5e-10)
    check_times("times", (t,), dt, T)
    assert solve(forms, u0, T, dt, snapshot_times=(t,)).snapshots[0][0] == t
    t = T * (1 + 2e-9)
    with pytest.raises(ConfigError, match="is not a positive multiple"):
        check_times("times", (t,), dt, T)
    with pytest.raises(ValueError, match="not a step multiple within"):
        solve(forms, u0, T, dt, snapshot_times=(t,))


def test_traces_of_lift_are_inputs(quartic):
    grid = build_grid(17, 21)
    rng = np.random.default_rng(2)
    um, up = rng.normal(size=17), rng.normal(size=17)
    tr = traces(lift(um, up, quartic, 0.1, grid))
    assert np.array_equal(tr.u_minus, um)
    assert np.array_equal(tr.u_plus, up)


def test_traces_of_constant(quartic):
    grid = build_grid(9, 11)
    tr = traces(Field(np.full((9, 11), 2.5), grid))
    assert np.all(tr.u_minus == 2.5) and np.all(tr.u_plus == 2.5)


def test_cutoff_bump_shape():
    assert cutoff_bump(-1.0) == 1.0
    assert cutoff_bump(-0.5) == 0.0
    assert cutoff_bump(0.3) == 0.0
    assert cutoff_bump(1.0, side="+") == 1.0
    xs = np.linspace(-1.0, 1.0, 101)
    assert np.all((cutoff_bump(xs) >= 0.0) & (cutoff_bump(xs) <= 1.0))
    assert np.array_equal(cutoff_bump(xs, "+"), cutoff_bump(-xs, "-"))


def test_cutoff_average_of_constant(quartic):
    grid = build_grid(9, 41)
    field = Field(np.full((9, 41), 1.7), grid)
    avg = cutoff_average(field, gibbs.GibbsMeasure.compute(quartic, 0.1))
    assert np.max(np.abs(avg - 1.7)) <= 1e-12


def test_cutoff_mass_tends_to_half(quartic):
    grid = build_grid(9, 81)
    devs = [abs(cutoff_mass(gibbs.GibbsMeasure.compute(quartic, eps), grid)
                - 0.5)
            for eps in (0.2, 0.1, 0.05)]
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.05


def test_cutoff_average_recovers_well_density(quartic):
    grid = build_grid(17, 81)
    x = grid.x_nodes
    um, up = np.cos(np.pi * x), 1.0 + np.cos(np.pi * x)
    errs = []
    for eps in (0.2, 0.1, 0.05):
        field = lift(um, up, quartic, eps, grid)
        avg = cutoff_average(field, gibbs.GibbsMeasure.compute(quartic, eps),
                             side="-")
        errs.append(float(np.max(np.abs(avg - um))))
    assert errs[0] > errs[1] > errs[2]


def test_gamma_limsup_tables(quartic):
    grid = build_grid(65, 81)
    ladder = (0.2, 0.1, 0.05)
    flat = gamma_limsup_check(lambda x: np.full_like(x, 0.3),
                              lambda x: np.full_like(x, 0.3),
                              ladder, grid, quartic, degenerate_floor=1e-10)
    assert max(flat.a_errors) <= 1e-12
    assert max(flat.b_errors) <= 1e-10  # grid-quadrature floor at this size
    assert flat.a_monotone and flat.b_monotone

    jump = gamma_limsup_check(lambda x: np.zeros_like(x),
                              lambda x: np.ones_like(x),
                              ladder, grid, quartic)
    assert jump.a_monotone and jump.b_monotone
    # unit jump: the energy form value is the rate coefficient itself, up to
    # the interpolation bias of this grid (4x the default-grid bias)
    for eps, a_val in zip(ladder, jump.a_eps):
        rate = k_eps(gibbs.GibbsMeasure.compute(quartic, eps))
        assert a_val == pytest.approx(rate, rel=2e-2)
        assert a_val >= rate - 1e-10
    assert jump.a_limit == pytest.approx(0.5 * 1.8006326323142123, rel=1e-12)

    cos = gamma_limsup_check(lambda x: np.cos(np.pi * x),
                             lambda x: 1.0 + np.cos(np.pi * x),
                             ladder, grid, quartic)
    assert cos.a_monotone and cos.b_monotone


def test_mini_study_passes(mini_report):
    # coarse-grid ladder: drop the one check that needs default-grid
    # quadrature accuracy on the eps = 0.05 well widths (absent here)
    failures = [f for f in mini_report.failures()
                if not f.startswith("mass_pairing_small")]
    assert failures == []
    assert mini_report.regime == "critical"
    assert mini_report.limit_rate == pytest.approx(1.8006326323142123,
                                                   rel=1e-12)


def test_mini_study_rows_complete(mini_report):
    assert [r.eps for r in mini_report.rows] == [0.2, 0.1]
    for row in mini_report.rows:
        for t in MINI["times"]:
            assert np.isfinite(row.trace_err[t])
            assert np.isfinite(row.b[t][2])
            assert row.fiber_margin[t] >= -1e-8
            assert row.jensen_margin[t] >= -1e-8
        assert row.fiber_margin[0.0] >= -1e-8
        # cosine data: the modes left unstepped hold only roundoff
        assert row.initial_norm > 0.0
        assert 0.0 <= row.dropped_norm <= 1e-15 * row.initial_norm
    # so does the limit reference, under the same drop rule
    assert mini_report.limit_initial_norm > 0.0
    assert 0.0 <= mini_report.limit_dropped_norm \
        <= 1e-15 * mini_report.limit_initial_norm
    assert mini_report.checks["modes_dropped_small"]


def test_report_serializes(mini_report):
    d = mini_report.to_dict()
    assert d["regime"] == "critical"
    assert len(d["rows"]) == 2
    assert isinstance(d["checks"], dict)
    import json
    json.dumps(d)


def test_report_holds_no_numpy_scalar(mini_report):
    # json writes the report's dataclasses as they stand, so every number
    # in them, key or value, is a Python one
    def walk(value):
        assert not isinstance(value, np.generic), repr(value)
        if isinstance(value, dict):
            for k, v in value.items():
                walk(k)
                walk(v)
        elif isinstance(value, (list, tuple)):
            for v in value:
                walk(v)

    walk(dataclasses.asdict(mini_report))


def test_critical_study_overrides_regime(mini_report):
    cfg = Config(regime="super", **MINI)
    rep = run_ladder_study(dataclasses.replace(cfg, regime="critical"))
    assert rep.regime == "critical"
    assert rep.to_dict() == mini_report.to_dict()


def test_constant_data_is_exact():
    constant = {"kind": "constant", "value": 0.8}
    cfg = Config(u0={"minus": constant, "plus": constant}, **MINI)
    rep = run_ladder_study(cfg)
    for row in rep.rows:
        for t in MINI["times"]:
            assert row.b[t][2] <= 1e-9
            assert row.a[t][2] <= 1e-9
            assert row.trace_err[t] <= 1e-9


def test_nonlinear_observable_consistency(quartic):
    grid = build_grid(17, 41)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    rng = np.random.default_rng(4)
    field = Field(rng.normal(size=(17, 41)), grid)
    squared = nonlinear_observable(forms, field,
                                   lambda x, xi, r: r * r)
    assert squared == pytest.approx(b_form(forms.M.dot, field), rel=1e-12)
    unit = nonlinear_observable(forms, field,
                                lambda x, xi, r: 1.0 + 0.0 * r)
    assert unit == pytest.approx(1.0, abs=1e-9)


def test_nonlinear_observable_limit_value():
    x = np.linspace(0.0, 1.0, 33)
    lf = LimitField(np.full(33, 4.0), np.full(33, 1.0), x)
    val = nonlinear_observable_limit(lf, lambda x_, xi, r: np.abs(r) ** 1.5)
    assert val == pytest.approx(0.5 * (8.0 + 1.0), rel=1e-12)


def test_power_observable_converges(mini_report):
    for t in MINI["times"]:
        errs = [r.observables["|u|^1.5"][t][2] for r in mini_report.rows]
        assert errs[1] < errs[0] or errs[1] <= 1e-8


def test_fiber_bound_is_sharp_on_lift(quartic):
    grid = build_grid(17, 81)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    field = lift(np.zeros(17), np.ones(17), quartic, eps, grid)
    margin = fiber_bound_margin(forms, field, k_eps(forms.measure))
    assert -1e-8 <= margin <= 0.05


def test_jensen_bound_on_x_only_field(quartic):
    # purely spatial field: the normalized-average version of the bound
    # would fail here by a factor of four; the unnormalized one must hold
    grid = build_grid(33, 41)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    vals = np.broadcast_to(np.cos(np.pi * grid.x_nodes)[:, None],
                           (33, 41)).copy()
    margin = gradient_bound_margin(forms, Field(vals, grid))
    assert margin >= -1e-8


def test_flatness_of_lift_decreases(quartic):
    grid = build_grid(17, 81)
    vals = []
    for eps in (0.2, 0.1, 0.05):
        field = lift(np.zeros(17), np.ones(17), quartic, eps, grid)
        vals.append(xi_flatness(assemble(grid, quartic, eps), field))
    assert vals[0] > vals[1] > vals[2]


def test_flatness_does_not_depend_on_memory_order(quartic, monkeypatch):
    # the same values give the same bytes: C- or F-ordered field values,
    # and an x-product handed back in either order (a reduction that follows
    # the memory order sums differently on some of these seeds)
    grid = build_grid(33, 41)
    forms = assemble(grid, quartic, 0.1)
    fields = [Field(np.random.default_rng(seed).normal(size=(33, 41)), grid)
              for seed in range(8)]
    ref = [xi_flatness(forms, field) for field in fields]
    for field in fields:
        field.values = np.asfortranarray(field.values)
    assert [xi_flatness(forms, field) for field in fields] == ref
    monkeypatch.setattr("kramerslab.convergence.apply_x",
                        lambda bands, V: np.asfortranarray(apply_x(bands, V)))
    for order in ("C", "F"):
        for field in fields:
            field.values = np.asarray(field.values, order=order)
        assert [xi_flatness(forms, field) for field in fields] == ref


def test_sub_regime_scaling():
    rep = run_ladder_study(Config(regime="sub", **MINI))
    assert rep.regime == "sub"
    for row in rep.rows:
        assert row.rate_effective == pytest.approx(row.eps * row.rate,
                                                   rel=1e-12)
    assert rep.checks["effective_rate_decreasing"]
    failures = [f for f in rep.failures()
                if not f.startswith("mass_pairing_small")]
    assert failures == []


def test_super_regime_gap_shrinks():
    rep = run_ladder_study(Config(regime="super", **MINI))
    assert rep.regime == "super"
    for t in MINI["times"]:
        gaps = [r.gap_norm[t] for r in rep.rows]
        assert gaps[1] < gaps[0]
    failures = [f for f in rep.failures()
                if not f.startswith("mass_pairing_small")]
    assert failures == []


def test_regime_validation():
    with pytest.raises(ValueError):
        dataclasses.replace(Config(**MINI), regime="weird")
    with pytest.raises(ValueError):
        Config(ladder=(0.1, 0.2), nx=17, nxi=21, dt=5e-3, t_final=0.1,
               times=(0.1,))
    with pytest.raises(ValueError):
        Config(ladder=(0.2, 0.001), nx=17, nxi=21, dt=5e-3, t_final=0.1,
               times=(0.1,))


def test_initial_pairing_matches_recovery_objects(quartic):
    # at t = 0 the trajectory state is exactly the embedded pair, so study
    # pairings and recovery-family pairings are the same numbers
    from kramerslab.convergence import default_test_functions
    from kramerslab.grid_forms import assemble as _assemble, pair_measure, pair_limit
    grid = build_grid(17, 41)
    x = grid.x_nodes
    um, up = np.cos(np.pi * x), 1.0 + np.cos(np.pi * x)
    eps = 0.1
    forms = _assemble(grid, quartic, eps)
    state0 = lift(um, up, quartic, eps, grid)
    lf0 = LimitField(um, up, x)
    for name, fn in default_test_functions().items():
        ve = pair_measure(forms, state0, fn)
        vl = pair_limit(lf0, fn)
        assert np.isfinite(ve) and np.isfinite(vl)
        # the recovery-family error at t = 0 is exactly this difference
        assert abs(ve - vl) == abs(pair_measure(forms, state0, fn) - vl)


def test_snapshot_diagnostics_match_the_integrator_records(snapshots):
    # the pairing with 1 is the mass and the observable u^2 is b, which the
    # integrator records from M u
    forms, traj, dt = snapshots
    one = default_test_functions()["1"]
    square = _snapshot_observables()["u^2"]
    assert len(traj.snapshots) == 6
    for t, state in traj.snapshots:
        n = round(t / dt)
        mass = pair_measure(forms, state, one)
        (b,) = nonlinear_observables(forms, state, [square])
        assert abs(mass - traj.mass[n]) <= 1e-14 * abs(traj.mass[n])
        assert abs(b - traj.b[n]) <= 1e-14 * abs(traj.b[n])


def test_product_pairings_match_the_generic_path(snapshots):
    forms, traj, _ = snapshots
    state = traj.snapshots[-1][1]
    x = forms.grid.x_nodes
    limit = LimitField(np.cos(np.pi * x) ** 2, 1.0 + np.sin(3.0 * x), x)
    for test in default_test_functions().values():
        def size(x_, xi, r, test=test):
            return np.abs(test(x_, xi) * r)
        generic = nonlinear_observable(forms, state, paired(test))
        scale = nonlinear_observable(forms, state, size)
        assert abs(pair_measure(forms, state, test) - generic) <= 1e-14 * scale
        generic = nonlinear_observable_limit(limit, paired(test))
        scale = nonlinear_observable_limit(limit, size)
        assert abs(pair_limit(limit, test) - generic) <= 1e-14 * scale


def test_failed_rung_is_recorded(monkeypatch):
    from kramerslab.evolve_kramers import SolverError
    real_solve = conv.solve

    def flaky(forms, *args, **kw):
        if forms.eps == 0.1:
            raise SolverError("synthetic stagnation", residual=1.0)
        return real_solve(forms, *args, **kw)

    monkeypatch.setattr(conv, "solve", flaky)
    cfg = Config(ladder=(0.2, 0.1), nx=17, nxi=21, dt=1e-2, t_final=0.1,
                 times=(0.1,))
    rep = run_ladder_study(cfg)
    assert [r.eps for r in rep.rows] == [0.2]
    assert set(rep.row_errors) == {0.1}
    assert "SolverError" in rep.row_errors[0.1]
    assert rep.checks == {"ladder_complete": False}
    assert not rep.all_ok
    assert "row_errors" in rep.to_dict()


def test_a_nan_energy_residual_fails_the_certificate(monkeypatch):
    # the per-step guard raises first in a real run; the report must not
    # pass a NaN that reaches it anyway
    real_solve = conv.solve

    def spoiled(forms, *args, **kw):
        traj = real_solve(forms, *args, **kw)
        traj.energy_residual[1] = np.nan
        return traj

    monkeypatch.setattr(conv, "solve", spoiled)
    rep = run_ladder_study(Config(ladder=(0.2, 0.1), nx=17, nxi=21, dt=1e-2,
                                  t_final=0.1, times=(0.1,)))
    assert all(np.isnan(r.energy_residual_max) for r in rep.rows)
    assert rep.checks["energy_identity"] is False
    assert not rep.all_ok


def _truncated_study(monkeypatch, share, **cfg):
    # each rung reports a dropped norm of ``share`` times max(1, ||u0||_M)
    real_solve = conv.solve

    def truncated(forms, *args, **kw):
        traj = real_solve(forms, *args, **kw)
        traj.dropped_norm = share * max(1.0, math.sqrt(traj.b[0]))
        return traj

    monkeypatch.setattr(conv, "solve", truncated)
    return run_ladder_study(Config(ladder=(0.2, 0.1), nx=17, nxi=21, dt=1e-2,
                                   t_final=0.1, times=(0.1,), **cfg))


def test_a_large_dropped_norm_fails_its_check(monkeypatch):
    rep = _truncated_study(monkeypatch, 2.0 * conv.DROPPED_NORM_BOUND)
    assert all(r.dropped_norm >= 2e-10 for r in rep.rows)
    assert rep.checks["modes_dropped_small"] is False
    assert not rep.all_ok


def test_a_large_limit_dropped_norm_fails_its_check(monkeypatch):
    # the limit reference's dropped norm is bounded as the rungs' are
    real_solve_limit = conv.solve_limit

    def truncated(*args, **kw):
        traj = real_solve_limit(*args, **kw)
        traj.dropped_norm = 2.0 * conv.DROPPED_NORM_BOUND * max(
            1.0, math.sqrt(traj.b[0]))
        return traj

    monkeypatch.setattr(conv, "solve_limit", truncated)
    rep = run_ladder_study(Config(ladder=(0.2, 0.1), nx=17, nxi=21, dt=1e-2,
                                  t_final=0.1, times=(0.1,)))
    assert rep.limit_dropped_norm >= 2e-10
    assert rep.to_dict()["limit_dropped_norm"] == rep.limit_dropped_norm
    assert all(r.dropped_norm <= conv.DROPPED_NORM_BOUND for r in rep.rows)
    assert rep.checks["modes_dropped_small"] is False
    assert not rep.all_ok


def test_dropped_norm_bound_scales_with_the_data(monkeypatch):
    # the drop rule is relative to ||u0||_M, and so is its check: data
    # scaled up leave more M-norm unstepped and still pass
    big = {side: {"kind": "cosine", "offset": 500.0, "amplitude": 300.0}
           for side in ("minus", "plus")}
    rep = _truncated_study(monkeypatch, 0.5 * conv.DROPPED_NORM_BOUND, u0=big)
    assert len(rep.rows) == 2
    for row in rep.rows:
        assert row.initial_norm > 2.0
        assert row.dropped_norm > conv.DROPPED_NORM_BOUND
    assert rep.checks["modes_dropped_small"] is True


_FRESH_STUDY = """
import os, sys
from kramerslab import cli
config, out, one_cpu = sys.argv[1:]
if one_cpu == "1":
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
sys.exit(cli.main(["converge", "--config", config, "--out", out]))
"""


def _fresh_study(tmp_path, one_cpu):
    """The ``report.json`` bytes of a fresh interpreter's ``converge`` of
    the MINI study on three rungs, limited to one CPU or not."""
    config = tmp_path / "mini.json"
    config.write_text(json.dumps(dict(MINI, ladder=(0.2, 0.15, 0.1))))
    out = tmp_path / f"one-cpu-{one_cpu}"
    env = dict(os.environ)
    env["PYTHONPATH"] = (str(Path(kramerslab.__file__).resolve().parents[1])
                         + os.pathsep + env.get("PYTHONPATH", ""))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    run = subprocess.run([sys.executable, "-c", _FRESH_STUDY, str(config),
                          str(out), str(int(one_cpu))], env=env,
                         capture_output=True, text=True, timeout=300)
    assert run.returncode == 0, run.stderr
    return (out / "report.json").read_bytes()


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                    reason="the process cannot be limited to one CPU")
def test_study_bytes_do_not_depend_on_the_cpus(tmp_path):
    assert _fresh_study(tmp_path, one_cpu=False) == _fresh_study(
        tmp_path, one_cpu=True)


@pytest.mark.parametrize("eps", [0.2, 0.1], ids=["own-rung", "worker-rung"])
def test_unexpected_error_names_its_rung(monkeypatch, eps):
    # eps 0.2 fails on the first rung, eps 0.1 after a finished one
    real_solve = conv.solve

    def broken(forms, *args, **kw):
        if forms.eps == eps:
            raise ZeroDivisionError("synthetic")
        return real_solve(forms, *args, **kw)

    monkeypatch.setattr(conv, "solve", broken)
    cfg = Config(ladder=(0.2, 0.1), nx=17, nxi=21, dt=1e-2, t_final=0.1,
                 times=(0.1,))
    with pytest.raises(RuntimeError,
                       match=f"eps = {eps} raised ZeroDivisionError"):
        run_ladder_study(cfg)


def test_every_rung_runs_in_this_process(monkeypatch):
    # an in-process counter sees every rung of the study
    seen, real_solve = [], conv.solve

    def counted(forms, *args, **kw):
        seen.append(forms.eps)
        return real_solve(forms, *args, **kw)

    monkeypatch.setattr(conv, "solve", counted)
    rep = run_ladder_study(Config(ladder=(0.2, 0.15, 0.1), nx=17, nxi=21,
                                  dt=1e-2, t_final=0.1, times=(0.1,)))
    assert seen == [0.2, 0.15, 0.1]
    assert [r.eps for r in rep.rows] == seen
