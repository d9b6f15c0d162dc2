import dataclasses
import math

import numpy as np
import pytest

from kramerslab.evolve_kramers import (LinearSolver, SolverError, Trajectory,
                                       solve)
from kramerslab.evolve_limit import (LimitSystem, homogeneous_pair_solution,
                                     solve_limit)
from kramerslab.enthalpy import quartic_default
from kramerslab.grid_forms import (LimitField, LimitFormMatrices, assemble,
                                   assemble_limit, assemble_limit_rates,
                                   build_grid)
from kramerslab.transition import lift

import oracles

K = 1.8006326323142123


def make_setup(nx=33, k=K):
    x = np.linspace(0.0, 1.0, nx)
    return x, assemble_limit(x, k)


def test_constant_pair_is_stationary():
    x, lf = make_setup()
    w0 = LimitField(np.full(33, 0.4), np.full(33, 0.4), x)
    traj = solve_limit(lf, w0, T=0.1, dt=1e-3, snapshot_times=(0.1,))
    final = traj.snapshot_at(0.1)
    assert np.max(np.abs(final.u_minus - 0.4)) <= 1e-10
    assert np.max(np.abs(final.u_plus - 0.4)) <= 1e-10
    assert np.abs(traj.energy_residual).max() <= 1e-15


def test_homogeneous_pair_matches_closed_form():
    x, lf = make_setup()
    w0 = LimitField(np.zeros(33), np.ones(33), x)
    traj = solve_limit(lf, w0, T=0.5, dt=1e-4, snapshot_times=(0.5,))
    um, up = homogeneous_pair_solution(0.0, 1.0, K, K, 0.5)
    om, op = oracles.pair_ode_solution(0.0, 1.0, K, 0.5)
    assert um == pytest.approx(om, rel=1e-12)
    assert up == pytest.approx(op, rel=1e-12)
    final = traj.snapshot_at(0.5)
    assert np.max(np.abs(final.u_minus - um)) <= 1e-6
    assert np.max(np.abs(final.u_plus - up)) <= 1e-6


def test_zero_rate_decouples():
    x = np.linspace(0.0, 1.0, 33)
    lf = assemble_limit(x, 0.0)
    up0 = 1.0 + np.cos(np.pi * x)
    runs = []
    for um0 in (np.zeros(33), np.cos(2.0 * np.pi * x)):
        w0 = LimitField(um0, up0.copy(), x)
        traj = solve_limit(lf, w0, T=0.1, dt=1e-3, snapshot_times=(0.1,))
        runs.append(traj.snapshot_at(0.1).u_plus)
    # the refinement depth may differ with the other block, so equality
    # holds to solver accuracy rather than bitwise
    assert np.max(np.abs(runs[0] - runs[1])) <= 1e-12


def test_heat_mode_decay_rate():
    x = np.linspace(0.0, 1.0, 129)
    lf = assemble_limit(x, 0.0)
    w0 = LimitField(np.cos(np.pi * x), np.cos(np.pi * x), x)
    traj = solve_limit(lf, w0, T=0.1, dt=1e-4, snapshot_times=(0.1,))
    amp = float(traj.snapshot_at(0.1).u_plus @ np.cos(np.pi * x)) \
        / float(np.cos(np.pi * x) @ np.cos(np.pi * x))
    assert amp == pytest.approx(oracles.heat_mode_decay(1.0, 1, 0.1), rel=2e-3)


def test_mass_conservation_and_energy_identity():
    x, lf = make_setup()
    rng = np.random.default_rng(23)
    w0 = LimitField(rng.normal(size=33), rng.normal(size=33), x)
    traj = solve_limit(lf, w0, T=0.05, dt=1e-3)
    assert np.abs(np.diff(traj.mass)).max() <= 1e-10
    assert np.abs(traj.energy_residual[1:]).max() <= 1e-9 * traj.b[0]


def test_discrete_maximum_principle():
    x, lf = make_setup()
    rng = np.random.default_rng(29)
    w0 = LimitField(rng.uniform(0.0, 1.0, 33), rng.uniform(0.0, 1.0, 33), x)
    lo = min(w0.u_minus.min(), w0.u_plus.min())
    hi = max(w0.u_minus.max(), w0.u_plus.max())
    traj = solve_limit(lf, w0, T=0.05, dt=1e-3, scheme="BE",
                       snapshot_times=(0.01, 0.05))
    for t in (0.01, 0.05):
        s = traj.snapshot_at(t)
        assert s.u_minus.min() >= lo - 1e-10 and s.u_plus.min() >= lo - 1e-10
        assert s.u_minus.max() <= hi + 1e-10 and s.u_plus.max() <= hi + 1e-10


def test_swap_symmetry():
    x, lf = make_setup()
    rng = np.random.default_rng(31)
    a, b = rng.normal(size=33), rng.normal(size=33)
    t1 = solve_limit(lf, LimitField(a, b, x), T=0.05, dt=1e-3,
                     snapshot_times=(0.05,)).snapshot_at(0.05)
    t2 = solve_limit(lf, LimitField(b, a, x), T=0.05, dt=1e-3,
                     snapshot_times=(0.05,)).snapshot_at(0.05)
    scale = max(np.abs(t1.u_minus).max(), np.abs(t1.u_plus).max(), 1.0)
    assert np.max(np.abs(t1.u_minus - t2.u_plus)) <= 1e-12 * scale
    assert np.max(np.abs(t1.u_plus - t2.u_minus)) <= 1e-12 * scale


def test_unequal_rates_relax_to_detailed_balance():
    # forward/backward rates with ratio e^gap and geometric mean K
    gap = math.log(2.0)
    kf = K * math.exp(gap / 2.0)   # minus -> plus
    kb = K * math.exp(-gap / 2.0)  # plus -> minus
    x = np.linspace(0.0, 1.0, 17)
    lf = assemble_limit_rates(x, kf, kb)
    w0 = LimitField(np.zeros(17), np.ones(17), x)
    traj = solve_limit(lf, w0, T=0.5, dt=1e-4, snapshot_times=(0.5,))
    um, up = homogeneous_pair_solution(0.0, 1.0, kf, kb, 0.5)
    final = traj.snapshot_at(0.5)
    assert np.max(np.abs(final.u_minus - um)) <= 1e-6
    assert np.max(np.abs(final.u_plus - up)) <= 1e-6
    # stationary split obeys detailed balance: u_minus/u_plus -> kb/kf
    um_inf, up_inf = homogeneous_pair_solution(0.0, 1.0, kf, kb, 50.0)
    assert um_inf / up_inf == pytest.approx(kb / kf, rel=1e-12)
    # total mass of the pair is conserved
    assert np.abs(np.diff(traj.mass)).max() <= 1e-10


def test_grid_mismatch_rejected():
    x, lf = make_setup()
    other = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        solve_limit(lf, LimitField(np.zeros(17), np.zeros(17), other),
                    T=0.1, dt=1e-3)


# equal, skewed (ratio e) and zero exchange rates
RATES = [(K, K), (K * math.exp(0.5), K * math.exp(-0.5)), (0.0, 0.0)]


@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("c", [0.5e-3, 1e-3])
def test_limit_system_matches_sparse_lu(rates, c):
    x = np.linspace(0.0, 1.0, 257)
    lf = assemble_limit_rates(x, *rates)
    system = LimitSystem(lf, c)
    M, A = oracles.block_forms(lf)
    S = (M + c * A).tocsr()
    rng = np.random.default_rng(41)
    rhs = M @ rng.normal(size=lf.n)
    structured = LinearSolver(system, target=1e-11).solve(rhs)
    # the two tridiagonal solves alone, without refinement, are backward
    # stable
    LinearSolver(system, target=1e-14, max_refine=0).solve(rhs)
    direct = LinearSolver(S, target=1e-11, op=lambda v: system @ v).solve(rhs)
    assert (np.linalg.norm(structured - direct)
            <= 1e-12 * np.linalg.norm(direct))


@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("c", [0.5e-3, 1e-3])
def test_limit_norm_is_exact(rates, c):
    lf = assemble_limit_rates(np.linspace(0.0, 1.0, 257), *rates)
    M, A = oracles.block_forms(lf)
    exact = float(np.abs((M + c * A).tocsr()).sum(axis=1).max())
    assert LimitSystem(lf, c).norm_inf() == pytest.approx(exact, rel=1e-14)


def test_limit_factorization_rejects_indefinite():
    # rates below -1/c make P1 = P0 + c (k_f + k_b) M_x indefinite;
    # assemble_limit_rates refuses them, so they are put in afterwards
    _, lf = make_setup()
    lf = dataclasses.replace(lf, rate_forward=-2000.0, rate_backward=-1000.0)
    with pytest.raises(SolverError, match=r"M \+ 0\.001 A.*k_f = -2000, "
                                          r"k_b = -1000"):
        LimitSystem(lf, 1e-3).factorize()


def test_skewed_fine_grid_certificates():
    x = np.linspace(0.0, 1.0, 4097)
    lf = assemble_limit_rates(x, K * math.exp(0.5), K * math.exp(-0.5))
    w0 = LimitField(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), x)
    traj = solve_limit(lf, w0, T=2e-3, dt=1e-4)
    assert len(traj.energy_residual) == 20
    assert np.abs(np.diff(traj.mass)).max() <= 1e-10
    assert np.abs(traj.energy_residual[1:]).max() <= 1e-9 * max(1.0, traj.b[0])
    assert traj.energy_residual[0] <= 1e-9 * max(1.0, traj.b[0])


def test_skewed_run_takes_one_inner_solve_per_solve(op_counts):
    x = np.linspace(0.0, 1.0, 4097)
    lf = assemble_limit_rates(x, K * math.exp(0.5), K * math.exp(-0.5))
    w0 = LimitField(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), x)
    solve_limit(lf, w0, T=2e-3, dt=1e-4)
    assert op_counts["solve"] == 21
    assert op_counts["op"] == op_counts["solve"]


class _LeakyForms(LimitFormMatrices):
    """Limit forms whose stiffness is A + 0.1 M."""

    def stencil(self, w):
        st = super().stencil(w)
        st.au = st.au + 0.1 * self.apply_m(w)
        return st


def test_guard_stops_nonconservative_step():
    # a stiffness whose columns do not sum to zero leaks mass at every step
    x, lf = make_setup()
    leaky = _LeakyForms(**{f.name: getattr(lf, f.name)
                           for f in dataclasses.fields(lf)})
    w0 = LimitField(np.zeros(33), np.ones(33), x)
    with pytest.raises(SolverError,
                       match=r"limit system, step 1 \(t = 0\.001\): "
                             r"mass drift"):
        solve_limit(leaky, w0, T=0.01, dt=1e-3)


def _kramers_run(T, snapshot_times):
    grid = build_grid(17, 21)
    profile = quartic_default()
    forms = assemble(grid, profile, 0.1)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), profile, 0.1, grid)
    traj = solve(forms, u0, T=T, dt=1e-3, snapshot_times=snapshot_times)
    return u0.ravel(), traj


def _limit_run(T, snapshot_times, rates=(K, K)):
    x = np.linspace(0.0, 1.0, 33)
    lf = assemble_limit_rates(x, *rates)
    w0 = LimitField(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), x)
    traj = solve_limit(lf, w0, T=T, dt=1e-3, snapshot_times=snapshot_times)
    return w0.stack(), traj


def test_both_levels_share_one_trajectory():
    _, kt = _kramers_run(0.01, (0.01,))
    _, lt = _limit_run(0.01, (0.01,))
    for traj, eps in ((kt, 0.1), (lt, 0.0)):
        assert type(traj) is Trajectory
        assert traj.eps == eps
        for name in ("times", "mass", "b", "a1", "a2", "a"):
            assert getattr(traj, name).shape == (11,)
        assert traj.energy_residual.shape == traj.thetas.shape == (10,)
        assert list(traj.thetas) == [1.0] + [0.5] * 9
        assert traj.times[-1] == pytest.approx(0.01, abs=1e-15)


@pytest.mark.parametrize("rates", RATES[:2])
def test_limit_energy_split_matches_block_form(rates):
    times = tuple(k * 1e-3 for k in range(11))
    _, traj = _limit_run(0.01, times, rates)
    lf = assemble_limit_rates(np.linspace(0.0, 1.0, 33), *rates)
    _, A = oracles.block_forms(lf)
    assert len(traj.snapshots) == 11
    for idx, (t, state) in enumerate(traj.snapshots):
        w = state.stack()
        exact = float(w @ (A @ w))
        assert abs(traj.a1[idx] + traj.a2[idx] - exact) <= 1e-13 * abs(exact)
        if rates[0] == rates[1]:
            # equal rates: the reaction part is k/2 times the squared gap
            gap = state.u_plus - state.u_minus
            assert traj.a2[idx] == pytest.approx(
                0.5 * K * float(gap @ (lf.M_x @ gap)), rel=1e-12)


@pytest.mark.parametrize("run, flat", [
    (_kramers_run, lambda s: s.values.reshape(-1)),
    (_limit_run, lambda s: s.stack()),
])
def test_snapshots_are_not_changed_by_later_steps(run, flat):
    initial, traj = run(0.01, (0.0, 0.003, 0.01))
    _, short = run(0.003, (0.003,))
    assert np.array_equal(flat(traj.snapshot_at(0.0)), initial)
    assert np.array_equal(flat(traj.snapshot_at(0.003)),
                          flat(short.snapshot_at(0.003)))
    assert not np.array_equal(flat(traj.snapshot_at(0.01)), initial)
