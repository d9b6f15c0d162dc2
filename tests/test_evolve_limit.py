import math

import numpy as np
import pytest

from kramerslab import evolve_kramers
from kramerslab.evolve_kramers import (LinearSolver, SolverError,
                                       ThetaSystem, Trajectory, solve,
                                       solve_limit)
from kramerslab.enthalpy import quartic_default
from kramerslab.grid_forms import (LimitField, ModalForms, ModalLimitForms,
                                   assemble, assemble_limit,
                                   assemble_limit_rates, build_grid)
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
    um, up = oracles.limit_pair_solution(lf, w0.u_minus, w0.u_plus, 0.5)
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
    um, up = oracles.limit_pair_solution(lf, w0.u_minus, w0.u_plus, 0.5)
    final = traj.snapshot_at(0.5)
    assert np.max(np.abs(final.u_minus - um)) <= 1e-6
    assert np.max(np.abs(final.u_plus - up)) <= 1e-6
    # stationary split obeys detailed balance: u_minus/u_plus -> kb/kf
    um_inf, up_inf = oracles.limit_pair_solution(lf, w0.u_minus, w0.u_plus,
                                                 50.0)
    assert um_inf / up_inf == pytest.approx(np.full(17, kb / kf), rel=1e-12)
    # total mass of the pair is conserved
    assert np.abs(np.diff(traj.mass)).max() <= 1e-10


def test_grid_mismatch_rejected():
    x, lf = make_setup()
    other = np.linspace(0.0, 1.0, 17)
    with pytest.raises(ValueError):
        solve_limit(lf, LimitField(np.zeros(17), np.zeros(17), other),
                    T=0.1, dt=1e-3)


def test_limit_needs_uniform_x_nodes():
    # the x-modes are the closed-form eigenbasis of uniform hats; graded
    # nodes are refused at assembly, so before any step
    x = np.linspace(0.0, 1.0, 17) ** 2
    with pytest.raises(ValueError, match="uniform x-nodes"):
        assemble_limit(x, K)


# equal, skewed (ratio e) and zero exchange rates
RATES = [(K, K), (K * math.exp(0.5), K * math.exp(-0.5)), (0.0, 0.0)]


@pytest.mark.parametrize("rates", RATES[:2])
def test_limit_is_second_order_against_the_exact_modes(rates):
    # an x-dependent pair with every mode against the exact semi-discrete
    # solution: the only error left is the theta scheme's, second order in dt
    x = np.linspace(0.0, 1.0, 129)
    lf = assemble_limit_rates(x, *rates)
    w0 = LimitField(np.cos(np.pi * x) + 0.5 * np.cos(3.0 * np.pi * x),
                    1.0 + x * x, x)
    exact = oracles.limit_pair_solution(lf, w0.u_minus, w0.u_plus, 0.1)
    M_x = oracles.x_factors(x)[0]
    errors = []
    for dt in (2e-3, 1e-3, 5e-4):
        final = solve_limit(lf, w0, T=0.1, dt=dt,
                            snapshot_times=(0.1,)).snapshot_at(0.1)
        errors.append(math.sqrt(sum(
            float(e @ (M_x @ e)) for e in (final.u_minus - exact[0],
                                           final.u_plus - exact[1]))))
    for coarse, fine in zip(errors, errors[1:]):
        assert coarse / fine == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("c", [0.5e-3, 1e-3])
def test_limit_system_matches_sparse_lu(rates, c, monkeypatch):
    # the modal solve of V^T r against SuperLU on the nodal block system
    # with the right-hand side r = (I (x) M_x V) rhs, whose modes are rhs
    x = np.linspace(0.0, 1.0, 257)
    modal = assemble_limit_rates(x, *rates)
    system = ThetaSystem(modal, c)
    M, A = oracles.block_forms(modal)
    rng = np.random.default_rng(41)
    rhs = rng.normal(size=modal.n)
    structured = LinearSolver(system, target=1e-11).solve(rhs)
    # the closed-form block inverses alone, without refinement, are
    # backward stable
    with monkeypatch.context() as m:
        m.setattr(evolve_kramers, "MAX_REFINE", 0)
        LinearSolver(system, target=1e-14).solve(rhs)
    M_x = oracles.x_factors(x)[0]
    r = np.concatenate([M_x @ v for v in modal.values(rhs)])
    direct = LinearSolver((M + c * A).tocsr(), target=1e-11).solve(r)
    nodal = np.concatenate(modal.values(structured))
    assert np.linalg.norm(nodal - direct) <= 1e-12 * np.linalg.norm(direct)


@pytest.mark.parametrize("rates", RATES)
@pytest.mark.parametrize("c", [0.5e-3, 1e-3])
def test_limit_norm_is_exact(rates, c):
    # the modal system is the nodal block system in the basis V: per mode
    # the block 1/2 [(1 + c lam_k) I + c R]; its norm is the exact row sum
    x = np.linspace(0.0, 1.0, 257)
    modal = assemble_limit_rates(x, *rates)
    M, A = oracles.block_forms(modal)
    V = modal.basis.values(np.eye(257)).T
    Vb = np.kron(np.eye(2), V)
    transformed = Vb.T @ (M + c * A).toarray() @ Vb
    a = 1.0 + c * modal.basis.lam
    kf, kb = rates
    blocks = 0.5 * np.block([[np.diag(a + c * kf), -c * kb * np.eye(257)],
                             [-c * kf * np.eye(257), np.diag(a + c * kb)]])
    assert np.abs(transformed - blocks).max() <= 1e-12 * np.abs(blocks).max()
    exact = float(np.abs(blocks).sum(axis=1).max())
    assert modal.norm_inf(c) == pytest.approx(exact, rel=1e-14)


def test_limit_factorization_rejects_indefinite():
    # rates below -1/c give a block a non-positive determinant;
    # assemble_limit_rates refuses them, so they are put in afterwards
    _, lf = make_setup()
    lf.rate_forward, lf.rate_backward = -2000.0, -1000.0
    with pytest.raises(SolverError, match=r"M \+ 0\.001 A.*k_f = -2000, "
                                          r"k_b = -1000"):
        lf.factorize(1e-3)


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


class _LeakyForms(ModalLimitForms):
    """Modal limit forms whose stiffness is A + 0.1 M."""

    def mass_and_stencil(self, y, out=None):
        mv, st = super().mass_and_stencil(y, out)
        st.au = st.au + 0.1 * mv
        return mv, st


def test_guard_stops_nonconservative_step():
    # a stiffness whose columns do not sum to zero leaks mass at every step
    x = np.linspace(0.0, 1.0, 33)
    w0 = LimitField(np.zeros(33), np.ones(33), x)
    with pytest.raises(SolverError,
                       match=r"limit system, step 1 \(t = 0\.001\): "
                             r"mass drift"):
        solve_limit(_LeakyForms(x, K, K), w0, T=0.01, dt=1e-3)


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
    for traj in (kt, lt):
        assert type(traj) is Trajectory
        for name in ("times", "mass", "b", "a1", "a2", "a"):
            assert getattr(traj, name).shape == (11,)
        assert traj.energy_residual.shape == traj.thetas.shape == (10,)
        assert list(traj.thetas) == [1.0] + [0.5] * 9
        assert traj.times[-1] == pytest.approx(0.01, abs=1e-15)


def _eps_level():
    # the forms the eps-level integrator steps: the x-modes of the nodal ones
    grid = build_grid(17, 21)
    profile = quartic_default()
    forms = assemble(grid, profile, 0.1)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), profile, 0.1, grid)
    return (ModalForms(forms), (grid.nx, grid.nxi),
            lambda T: solve(forms, u0, T, 1e-3))


def _limit_level():
    # the forms the limit integrator steps: the x-modes of the pair
    x = np.linspace(0.0, 1.0, 33)
    lf = assemble_limit_rates(x, *RATES[1])
    w0 = LimitField(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), x)
    return (lf, (2, 33),
            lambda T: solve_limit(lf, w0, T, 1e-3))


# solves whose first inner solve is spoiled, so that a refinement sweep
# certifies them: a trapezoidal one (solves 1 and 2 are the damped start)
# and a late one
SWEPT_SOLVES = (3, 230)


@pytest.mark.parametrize("level", [_eps_level, _limit_level])
def test_carried_state_matches_fresh_evaluation(monkeypatch, level):
    # the integrator evaluates the forms at the initial state only and adds
    # each increment's M x and stencil in place; after every sub-step of
    # 250 steps the carried arrays and energies must be those of the state,
    # to rounding
    forms, shape, run = level()
    counts = {"solve": 0, "inner": 0, "checked": 0}

    class SweepingSolver(LinearSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            inner = self._inner

            def spoiled(rhs):
                # a constant offset leaves residual mass 1e-12 times the
                # total measure, ten times what a solve may leave
                counts["inner"] += 1
                offset = counts.pop("first", False) and \
                    counts["solve"] in SWEPT_SOLVES
                return inner(rhs) + (1e-12 if offset else 0.0)
            self._inner = spoiled

        def solve(self, rhs):
            counts["solve"] += 1
            counts["first"] = True
            return super().solve(rhs)

    advance = evolve_kramers._CarriedState.advance

    def checked(state, x, mx, sx, theta, dt):
        residual = advance(state, x, mx, sx, theta, dt)
        mu, fresh = forms.mass_and_stencil(state.u)
        size = np.abs(state.u).max()
        # the fluxes of the roughest state of this size: the scale of the
        # rounding of any flux evaluation
        rough = forms.mass_and_stencil(size * (
            2.0 * (np.indices(shape).sum(axis=0) % 2) - 1.0).reshape(-1))[1]
        flux = max(np.abs(f).max() for _, f in rough.parts)
        tol = 1e-13
        assert np.abs(state.st.au - fresh.au).max() <= tol * flux
        for (d, f), (d0, f0) in zip(state.st.parts, fresh.parts):
            assert np.abs(d - d0).max() <= tol * size
            assert np.abs(f - f0).max() <= tol * flux
        assert np.abs(state.mu - mu).max() <= tol * np.abs(mu).max()
        assert abs(state.b - float(state.u @ mu)) <= tol * state.b
        assert abs(state.a1 - fresh.a1) <= tol * fresh.a1
        assert abs(state.a2 - fresh.a2) <= tol * fresh.a2
        counts["checked"] += 1
        return residual

    monkeypatch.setattr(evolve_kramers, "LinearSolver", SweepingSolver)
    monkeypatch.setattr(evolve_kramers._CarriedState, "advance", checked)
    traj = run(0.25)
    assert len(traj.thetas) == 250 and list(traj.thetas[:2]) == [1.0, 0.5]
    assert counts["checked"] == counts["solve"] == 251
    # each spoiled solve took exactly one sweep
    assert counts["inner"] == counts["solve"] + len(SWEPT_SOLVES)


def test_theta_system_hands_on_only_its_last_product():
    # the integrator takes M x and the stencil of x from the product the
    # solve made last; any other array gets a fresh evaluation
    forms, _, _ = _eps_level()
    system = ThetaSystem(forms, 1e-3)
    rng = np.random.default_rng(3)
    v = rng.normal(size=forms.n)
    product = system @ v
    mv, st = system.mass_and_stencil(v)
    assert np.array_equal(product, mv + 1e-3 * st.au)
    fresh_mv, fresh = forms.mass_and_stencil(v)
    assert np.array_equal(mv, fresh_mv)
    assert np.array_equal(st.au, fresh.au)
    # an array equal to v is not v: it gets a fresh evaluation
    w = v.copy()
    mw, sw = system.mass_and_stencil(w)
    assert mw is not mv and sw is not st
    assert np.array_equal(mw, mv) and np.array_equal(sw.au, st.au)
    # as does the solution of a solve whose last sweep was rejected: the
    # slot holds that sweep's product
    system @ (w + 1.0)
    mw, sw = system.mass_and_stencil(w)
    assert np.array_equal(mw, fresh_mv)
    assert np.array_equal(sw.au, fresh.au)


@pytest.mark.parametrize("level", [_eps_level, _limit_level])
def test_theta_system_writes_its_products_into_one_workspace(level):
    # a product and its parts live in buffers the system allocated once,
    # valid until its next product; any other array gets a fresh evaluation
    forms, _, _ = level()
    system = ThetaSystem(forms, 1e-3)
    rng = np.random.default_rng(29)
    v, w = rng.normal(size=(2, forms.n))
    first = system @ v
    second = system @ w
    assert second is first
    mw, sw = system.mass_and_stencil(w)
    buffers = [mw, sw.au, sw.parts[0][1], *sw.parts[1]]
    assert all(np.shares_memory(b, system._out) for b in buffers)
    assert np.shares_memory(sw.parts[0][0], w)
    fresh_mw, fresh = forms.mass_and_stencil(w)
    assert np.array_equal(second, fresh_mw + 1e-3 * fresh.au)
    assert np.array_equal(mw, fresh_mw) and np.array_equal(sw.au, fresh.au)
    mv, sv = system.mass_and_stencil(v)
    assert not any(np.shares_memory(b, system._out)
                   for b in [mv, sv.au, sv.parts[0][1], *sv.parts[1]])
    # the carried state holds u as its stencil's first part
    state = evolve_kramers._CarriedState(forms, v)
    assert state.u is state.st.parts[0][0]
    assert not np.shares_memory(state.u, v)


@pytest.mark.parametrize("rates", RATES[:2])
def test_limit_energy_split_matches_block_form(rates):
    times = tuple(k * 1e-3 for k in range(11))
    _, traj = _limit_run(0.01, times, rates)
    x = np.linspace(0.0, 1.0, 33)
    _, A = oracles.block_forms(assemble_limit_rates(x, *rates))
    M_x = oracles.x_factors(x)[0]
    assert len(traj.snapshots) == 11
    for idx, (t, state) in enumerate(traj.snapshots):
        w = state.stack()
        exact = float(w @ (A @ w))
        assert abs(traj.a1[idx] + traj.a2[idx] - exact) <= 1e-13 * abs(exact)
        if rates[0] == rates[1]:
            # equal rates: the reaction part is k/2 times the squared gap
            gap = state.u_plus - state.u_minus
            assert traj.a2[idx] == pytest.approx(
                0.5 * K * float(gap @ (M_x @ gap)),
                rel=1e-12)


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
