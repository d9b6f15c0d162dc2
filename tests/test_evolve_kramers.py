import math

import numpy as np
import pytest
import scipy.sparse as sp

from kramerslab import evolve_kramers
from kramerslab.evolve_kramers import (MASS_RESIDUAL_BOUND, LinearSolver,
                                       SolverError, ThetaSystem,
                                       _certify_step, solve)
from kramerslab.grid_forms import Field, ModalForms, assemble, build_grid
from kramerslab.transition import k_eps, lift

import oracles

EPS = 0.1


@pytest.fixture(scope="module")
def setup(quartic):
    grid = build_grid(33, 41)
    forms = assemble(grid, quartic, EPS)
    return grid, forms


def random_field(grid, seed=0, scale=1.0):
    rng = np.random.default_rng(seed)
    return Field(1.0 + scale * rng.normal(size=(grid.nx, grid.nxi)), grid)


def test_constant_is_stationary(setup):
    grid, forms = setup
    u = Field(np.full((grid.nx, grid.nxi), 0.7), grid)
    traj = solve(forms, u, 1e-3, 1e-3, scheme="BE", snapshot_times=(1e-3,))
    out = traj.snapshot_at(1e-3)
    assert np.max(np.abs(out.values - 0.7)) <= 1e-11


def test_solve_rejects_nonpositive_dt(setup):
    grid, forms = setup
    u = Field(np.ones((grid.nx, grid.nxi)), grid)
    for dt in (-1e-3, 0.0):
        with pytest.raises(ValueError, match="dt must be positive"):
            solve(forms, u, 1e-3, dt)


def test_backward_step_contracts(setup):
    grid, forms = setup
    M, _, _ = oracles.kron_forms(forms)
    u = random_field(grid, seed=1)
    traj = solve(forms, u, 1e-3, 1e-3, scheme="BE", snapshot_times=(1e-3,))
    out = traj.snapshot_at(1e-3).ravel()
    b0 = float(u.ravel() @ (M @ u.ravel()))
    b1 = float(out @ (M @ out))
    assert b1 <= b0


def test_step_preserves_mass(setup):
    grid, forms = setup
    M, _, _ = oracles.kron_forms(forms)
    u = random_field(grid, seed=2)
    m = M @ np.ones(forms.n)
    # the first step is two damped half-steps, the second a trapezoidal one
    traj = solve(forms, u, 2e-3, 1e-3, scheme="CN_rannacher",
                 snapshot_times=(1e-3, 2e-3))
    assert list(traj.thetas) == [1.0, 0.5]
    for _, out in traj.snapshots:
        assert abs(float(m @ out.ravel()) - float(m @ u.ravel())) <= 1e-10


@pytest.mark.parametrize("scheme", ["CN_rannacher", "BE"])
def test_solve_diagnostics(setup, scheme):
    grid, forms = setup
    u0 = random_field(grid, seed=3, scale=0.2)
    traj = solve(forms, u0, T=0.02, dt=1e-3, scheme=scheme)
    assert np.abs(np.diff(traj.mass)).max() <= 1e-10
    assert np.all(np.diff(traj.b) <= 1e-12 * traj.b[0])
    if scheme == "CN_rannacher":
        # trapezoidal steps satisfy the energy identity to solver accuracy
        assert np.abs(traj.energy_residual[1:]).max() <= 1e-9 * traj.b[0]
    # damped steps overshoot dissipation with one sign
    assert traj.energy_residual[0] <= 1e-12 * traj.b[0]


def test_constant_trajectory(setup):
    grid, forms = setup
    u0 = Field(np.full((grid.nx, grid.nxi), 1.3), grid)
    traj = solve(forms, u0, T=0.05, dt=5e-3, snapshot_times=(0.05,))
    assert np.max(np.abs(traj.snapshot_at(0.05).values - 1.3)) <= 1e-10
    assert np.abs(traj.energy_residual).max() <= 1e-15


def test_zero_field_zero_residual(setup):
    grid, forms = setup
    u0 = Field(np.zeros((grid.nx, grid.nxi)), grid)
    traj = solve(forms, u0, T=0.01, dt=1e-3)
    assert np.all(traj.energy_residual == 0.0)


@pytest.mark.parametrize("scheme", ["CN_rannacher", "BE"])
def test_recorded_energies_are_those_of_the_states(setup, scheme):
    # the integrator's a1 and a2 come from each state's stencil; they must be
    # the energies of the snapshot states
    grid, forms = setup
    times = (1e-3, 2e-3, 5e-3, 1e-2)
    traj = solve(forms, random_field(grid, seed=3, scale=0.2), T=1e-2,
                 dt=1e-3, scheme=scheme, snapshot_times=times)
    for t, state in traj.snapshots:
        n = round(t / 1e-3)
        assert abs(traj.a1[n] - forms.a1_energy(state)) <= 1e-13 * traj.a1[n]
        assert abs(traj.a2[n] - forms.a2_energy(state)) <= 1e-13 * traj.a2[n]


def test_snapshots_and_validation(setup):
    grid, forms = setup
    u0 = random_field(grid, seed=4)
    traj = solve(forms, u0, T=0.01, dt=1e-3, snapshot_times=(0.0, 0.01))
    assert np.array_equal(traj.snapshot_at(0.0).values, u0.values)
    with pytest.raises(KeyError):
        traj.snapshot_at(0.005)
    with pytest.raises(ValueError):
        solve(forms, u0, T=0.01, dt=1e-3, snapshot_times=(0.0042,))
    with pytest.raises(ValueError):
        solve(forms, u0, T=0.0107, dt=1e-3)
    with pytest.raises(ValueError):
        solve(forms, u0, T=0.01, dt=1e-3, scheme="FE")


def test_even_data_stays_even(quartic):
    grid = build_grid(17, 41)
    forms = assemble(grid, quartic, EPS)
    vals = 1.0 + 0.3 * np.cos(np.pi * grid.x_nodes)[:, None] \
        * (grid.xi_nodes ** 2)[None, :]
    traj = solve(forms, Field(vals, grid), T=0.05, dt=1e-3,
                 snapshot_times=(0.05,))
    out = traj.snapshot_at(0.05).values
    assert np.max(np.abs(out - out[:, ::-1])) <= 1e-9


def test_equilibration_long_run(quartic):
    # embedded (0, 1) data relax to the uniform 1/2 state; the squared norm to 1/4
    grid = build_grid(17, 41)
    forms = assemble(grid, quartic, EPS)
    u0 = lift(np.zeros(17), np.ones(17), quartic, EPS, grid)
    traj = solve(forms, u0, T=3.0, dt=0.01, scheme="BE", snapshot_times=(3.0,))
    final = traj.snapshot_at(3.0)
    assert np.max(np.abs(final.values - 0.5)) <= 1e-4
    assert traj.b[-1] == pytest.approx(0.25, abs=1e-4)
    assert abs(traj.mass[-1] - traj.mass[0]) <= 1e-10
    assert traj.mass[0] == pytest.approx(0.5, abs=1e-8)


def test_trace_gap_two_state_kinetics(quartic):
    # spatially uniform embedded data relax like the two-state exchange with
    # per-well rate 2*k_eps, i.e. the trace gap decays as exp(-4 k_eps t)
    grid = build_grid(65, 81)
    forms = assemble(grid, quartic, EPS)
    u0 = lift(np.zeros(65), np.ones(65), quartic, EPS, grid)
    traj = solve(forms, u0, T=0.5, dt=2e-3, snapshot_times=(0.1, 0.5))
    rate = k_eps(forms.measure)
    for t in (0.1, 0.5):
        state = traj.snapshot_at(t)
        gap = float(state.values[:, -1].mean() - state.values[:, 0].mean())
        assert abs(gap / math.exp(-4.0 * rate * t) - 1.0) <= 0.1


def test_solver_error_surfaces(monkeypatch):
    rng = np.random.default_rng(13)
    n = 50
    S = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    solver = LinearSolver(S, target=1e-11)
    x = solver.solve(rng.normal(size=n))
    assert x.shape == (n,)
    monkeypatch.setattr(evolve_kramers, "MAX_REFINE", 2)
    impossible = LinearSolver(S, target=1e-30)
    with pytest.raises(SolverError) as info:
        impossible.solve(rng.normal(size=n))
    assert info.value.residual is not None
    assert info.value.residual > 1e-30


def test_failed_solve_names_the_step(setup, monkeypatch):
    # an unreachable target stagnates the first sub-step's solve; the error
    # names eps, the step and the time that sub-step would reach
    grid, forms = setup
    monkeypatch.setattr(evolve_kramers, "RESIDUAL_TARGET", 1e-30)
    with pytest.raises(SolverError,
                       match=r"eps = 0\.1, step 1 \(t = 0\.0005\): "
                             r"linear solve stagnated") as info:
        solve(forms, random_field(grid), 1e-3, 1e-3)
    assert info.value.residual > 1e-30


def test_solver_rejects_nan_residual():
    # a NaN residual compares False against any target; it must not certify
    S = sp.diags(np.linspace(1.0, 2.0, 20)).tocsr()
    solver = LinearSolver(S, target=1e-11, op=lambda v: np.full_like(v, np.nan))
    with pytest.raises(SolverError):
        solver.solve(np.ones(20))


def test_solver_rejects_overflowed_solution():
    # an infinite x drives the backward error to 0; it must not certify
    S = sp.diags(np.full(20, 1e-300)).tocsr()
    solver = LinearSolver(S, target=1e-11, op=lambda v: np.zeros_like(v))
    with pytest.raises(SolverError):
        solver.solve(np.full(20, 1e10))


def test_refinement_sweeps_out_the_residual_mass():
    # op = S + delta 1 1^T / n: the SuperLU solve of S alone is certified,
    # but its residual -delta (1^T x / n) 1 is all mass; one sweep removes it
    n, delta = 1000, 1e-12
    S = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    calls = []

    def op(v):
        calls.append(v)
        return S @ v + delta * v.sum() / n
    rhs = np.random.default_rng(5).uniform(1.0, 2.0, size=n)
    solver = LinearSolver(S, target=1e-11, op=op)
    x0 = solver._inner(rhs)
    r0 = rhs - op(x0)
    assert np.linalg.norm(r0) <= 1e-11 * (
        solver.norm_S * np.linalg.norm(x0) + np.linalg.norm(rhs))
    assert abs(r0.sum()) > MASS_RESIDUAL_BOUND
    calls.clear()
    x = solver.solve(rhs)
    assert len(calls) == 2
    assert abs((rhs - op(x)).sum()) <= MASS_RESIDUAL_BOUND


def test_refinement_stops_without_progress():
    # an op whose constant offset flips sign at every call leaves a residual
    # mass no sweep can remove; one sweep without progress ends refinement
    n = 50
    S = sp.diags(np.linspace(1.0, 2.0, n)).tocsr()
    calls = []

    def op(v):
        calls.append(v)
        return S @ v + (-1.0) ** len(calls) * 1e-13
    solver = LinearSolver(S, target=1e-11, op=op)
    solver.solve(np.ones(n))
    assert len(calls) == 2


@pytest.mark.parametrize("eps", [0.1, 0.05])
def test_certified_run_takes_one_inner_solve_per_solve(quartic, op_counts,
                                                       eps):
    grid = build_grid(129, 161)
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, eps, grid)
    solve(forms, u0, T=0.02, dt=1e-3)
    assert op_counts["solve"] == 21
    assert op_counts["op"] == op_counts["solve"]


@pytest.mark.parametrize("eps, nx, nxi", [(0.025, 193, 257),
                                          (0.02, 193, 257),
                                          (0.02, 33, 1025),
                                          (0.02, 33, 4097)])
def test_fine_grid_drift_stays_at_machine_level(quartic, op_counts, eps, nx,
                                                nxi):
    # down to the eps floor, on fine grids, the modal steps keep the flat
    # well rows flat: the default-lift run conserves mass far below the
    # 1e-10 certificate, with no refinement sweep (one inner solve each)
    grid = build_grid(nx, nxi)
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, eps, grid)
    traj = solve(forms, u0, T=0.04, dt=1e-3)
    assert np.abs(np.diff(traj.mass)).max() <= 1e-13
    assert op_counts["op"] == op_counts["solve"] == 41


@pytest.fixture(scope="module")
def forms_65(quartic):
    grid = build_grid(65, 81)
    return {eps: assemble(grid, quartic, eps) for eps in (0.8, 0.2, 0.05)}


# eps = 0.8 gives blocks with positive off-diagonals
@pytest.mark.parametrize("eps", [0.8, 0.2, 0.05])
@pytest.mark.parametrize("c", [0.5e-3, 1e-3])
def test_tensor_solver_matches_sparse_lu(forms_65, eps, c, monkeypatch):
    # the modal solve, taken back to the nodes, against SuperLU on the nodal
    # M + cA; a modal residual r is the nodal one (M_x V (x) I) r
    forms = forms_65[eps]
    modal = ModalForms(forms)
    system = ThetaSystem(modal, c)
    S = (forms.M + c * forms.A).tocsr()
    rng = np.random.default_rng(17)
    rhs = forms.M @ rng.normal(size=forms.n)
    modal_rhs = (modal.V.T @ rhs.reshape(modal.shape)).reshape(-1)
    tensor = LinearSolver(system, target=1e-11).solve(modal_rhs)
    # the factorization alone, without refinement, is backward stable
    with monkeypatch.context() as m:
        m.setattr(evolve_kramers, "MAX_REFINE", 0)
        LinearSolver(system, target=1e-14).solve(modal_rhs)
    direct = LinearSolver(
        S, target=1e-11,
        op=lambda v: forms.apply_m(v) + c * forms.apply_a(v)).solve(rhs)
    assert (np.linalg.norm(modal.values(tensor).reshape(-1) - direct)
            <= 1e-12 * np.linalg.norm(direct))


@pytest.mark.parametrize("eps", [0.8, 0.2, 0.05])
@pytest.mark.parametrize("c", [0.5e-3, 1e-3])
def test_tensor_norm_is_exact(forms_65, eps, c):
    # the modal M + cA is the block diagonal of (1 + c lam_k) M_xi + c K_xi
    forms = forms_65[eps]
    modal = ModalForms(forms)
    S = (sp.kron(sp.diags(1.0 + c * modal.lam), oracles.csr(forms.M_xi))
         + c * sp.kron(sp.identity(forms.grid.nx),
                       oracles.csr(forms.K_xi))).tocsr()
    exact = float(np.abs(S).sum(axis=1).max())
    assert modal.norm_inf(c) == pytest.approx(exact, rel=1e-14)


def test_modal_residual_mass_is_the_nodal_one(forms_65):
    # a modal residual V^T r leaves the nodal mass 1^T r in its mode 0
    modal = ModalForms(forms_65[0.05])
    R = np.random.default_rng(19).normal(size=modal.shape)
    residual = (modal.V.T @ R).reshape(-1)
    mass = modal.residual_mass(residual)
    assert abs(mass - R.sum()) <= 1e-14 * np.abs(R).sum()


def _blocks(modal, c):
    """The diagonals (nx, nxi) and off-diagonals (nx, nxi - 1) of the
    blocks (1 + c lam_k) M_xi + c K_xi, formed entry by entry."""
    scale = 1.0 + c * modal.lam[:, None]
    return (scale * modal.M_xi[1] + c * modal.K_xi[1],
            scale * modal.M_xi[2, :-1] + c * modal.K_xi[2, :-1])


def _block_backward_errors(diag, off, x, rhs):
    """Per block, ||rhs - S x|| / (||S|| ||x|| + ||rhs||) in the inf-norm."""
    r = rhs - diag * x
    r[:, :-1] -= off * x[:, 1:]
    r[:, 1:] -= off * x[:, :-1]
    a = np.abs(off)
    norm_S = (np.abs(diag) + np.pad(a, ((0, 0), (0, 1)))
              + np.pad(a, ((0, 0), (1, 0)))).max(axis=1)
    return np.abs(r).max(axis=1) / (norm_S * np.abs(x).max(axis=1)
                                    + np.abs(rhs).max(axis=1))


@pytest.mark.parametrize("eps", [0.2, 0.05, 0.02])
@pytest.mark.parametrize("nx, nxi", [(4, 11), (17, 21), (129, 161),
                                     (33, 1025)])
def test_two_ended_sweep_against_per_block_oracle(quartic, nx, nxi, eps):
    # the sweep over all modes against each block formed on its own: its
    # normwise backward error, and on the small grids, where the dense block
    # is nonsingular in floating point (not at eps 0.02, where c K_xi swamps
    # M_xi), its distance to numpy's LU solve, within the condition number
    modal = ModalForms(assemble(build_grid(nx, nxi), quartic, eps))
    rhs = np.random.default_rng(nx + nxi).normal(size=(nx, nxi))
    for c in (1e-4, 1e-3, 1e-2, 1e-1):
        x = modal.factorize(c)(rhs.reshape(-1))
        x = x.reshape(nx, nxi)
        diag, off = _blocks(modal, c)
        assert _block_backward_errors(diag, off, x, rhs).max() <= 1e-14
        if nxi > 21 or eps < 0.05:
            continue
        i = np.arange(nxi)
        S = np.zeros((nx, nxi, nxi))
        S[:, i, i] = diag
        S[:, i[:-1], i[1:]] = S[:, i[1:], i[:-1]] = off
        dense = np.linalg.solve(S, rhs[..., None])[..., 0]
        error = np.abs(x - dense).max(axis=1) / np.abs(dense).max(axis=1)
        assert np.all(error <= 1e-15 * np.linalg.cond(S, p=np.inf))


def test_indefinite_block_raises_naming_eps(quartic):
    modal = ModalForms(assemble(build_grid(17, 21), quartic, 0.2))
    # a large negative c: 1 + c lam_k < 0 for every k >= 1
    with pytest.raises(SolverError, match=r"^tensor factorization of "
                       r"M \+ -1 A at eps = 0\.2 lost positive pivots$"):
        modal.factorize(-1.0)
    # the twist pivot alone: a negative mass row sum at the saddle row,
    # which no pivot of either half reads
    modal.M_xi = modal.M_xi.copy()
    modal.M_xi[1, 10] = -1e3
    with pytest.raises(SolverError, match="at eps = 0.2 lost positive"):
        modal.factorize(1e-3)


def test_sweep_returns_a_fresh_solution(forms_65):
    # callers keep the solutions across solves, and the rhs stays as it was
    solve = ModalForms(forms_65[0.2]).factorize(1e-3)
    rhs = np.random.default_rng(29).normal(size=forms_65[0.2].n)
    before = rhs.copy()
    first = solve(rhs)
    kept = first.copy()
    second = solve(2.0 * rhs)
    assert np.array_equal(rhs, before) and np.array_equal(first, kept)
    assert second is not first and np.array_equal(second, 2.0 * first)

@pytest.mark.parametrize("eps", [0.04, 0.03, 0.025])
def test_small_eps_certificates(quartic, eps):
    # README claim: mass drift and energy identity at machine level on the
    # default grid, down to the small-eps end
    grid = build_grid(129, 161)
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, eps, grid)
    traj = solve(forms, u0, T=0.02, dt=1e-3)
    assert np.all(np.isfinite(traj.mass)) and np.all(np.isfinite(traj.b))
    assert np.abs(np.diff(traj.mass)).max() <= 1e-10
    assert np.abs(traj.energy_residual[1:]).max() <= 1e-9 * max(1.0, traj.b[0])
    assert traj.energy_residual[0] <= 1e-9 * max(1.0, traj.b[0])


def test_horizon_is_capped_at_max_steps():
    # the cap is checked before any solver is built or any record allocated
    assert evolve_kramers.horizon_steps(1.0, 1e-7) == evolve_kramers.MAX_STEPS

    def no_solver(c):
        raise AssertionError("a solver was built")
    for dt in (1e-300, 0.5e-7):
        with pytest.raises(ValueError, match=r"^T = 1\.0 takes .* steps of "
                           r"dt = .*, more than the 1e\+07 a run may take$"):
            evolve_kramers.theta_plan(1.0, dt, "BE", no_solver)


def test_step_certificate_bounds():
    # damped steps may dissipate without limit; trapezoidal steps may not
    _certify_step("eps = 0.1", 1, 1e-3, 1e-11, -1.0, 1.0, 1.0)
    _certify_step("eps = 0.1", 2, 2e-3, -1e-11, -5e-10, 0.5, 0.0)
    _certify_step("eps = 0.1", 2, 2e-3, 0.0, 4e-9, 0.5, 5.0)
    cases = [(2e-10, 0.0, 0.5, "mass drift"),
             (float("nan"), 0.0, 0.5, "mass drift"),
             (0.0, -2e-9, 0.5, "energy-identity residual"),
             (0.0, 2e-9, 1.0, "energy-identity residual"),
             (0.0, float("nan"), 1.0, "energy-identity residual")]
    for drift, residual, theta, quantity in cases:
        with pytest.raises(SolverError,
                           match=rf"eps = 0\.1, step 3 \(t = 0\.003\): "
                                 rf"{quantity}"):
            _certify_step("eps = 0.1", 3, 3e-3, drift, residual, theta, 1.0)


def test_guard_stops_uncertified_run(quartic, leaky_eps_forms):
    # forms whose stiffness is A + 0.1 M leak mass at every step; the run
    # must raise, not return a trajectory that breaks the README's mass
    # certificate
    eps = 0.02
    grid = build_grid(33, 257)
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, eps, grid)
    with pytest.raises(SolverError,
                       match=r"eps = 0\.02, step \d+ \(t = [0-9.]+\): "
                             r"mass drift"):
        solve(forms, u0, T=0.04, dt=1e-3)


def test_step_doubling_accuracy(quartic):
    # unconditional stability makes dt an accuracy knob only: halving it
    # moves the reported squared norm by far less than 1e-4
    grid = build_grid(65, 81)
    forms = assemble(grid, quartic, EPS)
    u0 = lift(np.zeros(65), np.ones(65), quartic, EPS, grid)
    b_vals = {}
    for dt in (1e-3, 5e-4):
        traj = solve(forms, u0, T=0.25, dt=dt)
        b_vals[dt] = traj.b[-1]
    assert abs(b_vals[1e-3] - b_vals[5e-4]) < 1e-4
