import math

import numpy as np
import pytest
import scipy.sparse as sp

from kramerslab import gibbs
from kramerslab.grid_forms import (AssemblyError, Field, LimitField,
                                   assemble, assemble_limit,
                                   assemble_limit_rates, b_form, build_grid,
                                   graded_nodes, l2_norm_x,
                                   nonlinear_observable, nonlinear_observables,
                                   pair_limit, pair_measure, paired)
from kramerslab.transition import k_eps, lift, q_eps, transition_mass

import oracles

LADDER = (0.2, 0.1, 0.05)


def test_uniform_grid_nodes():
    grid = build_grid(4, 5, grading="uniform")
    assert np.array_equal(grid.xi_nodes, [-1.0, -0.5, 0.0, 0.5, 1.0])
    assert np.array_equal(grid.x_nodes, np.linspace(0.0, 1.0, 4))


def test_graded_grid_structure():
    grid = build_grid(17, 41)
    xi = grid.xi_nodes
    assert xi[0] == -1.0 and xi[-1] == 1.0
    assert np.any(xi == 0.0)
    widths = np.diff(xi)
    assert np.all(widths > 0.0)
    assert widths.sum() == pytest.approx(2.0, abs=1e-12)
    assert np.max(np.abs(xi + xi[::-1])) == 0.0


def test_bad_grids_rejected():
    with pytest.raises(ValueError):
        build_grid(3, 11)
    with pytest.raises(ValueError):
        build_grid(8, 3)
    with pytest.raises(ValueError):
        build_grid(8, 10)  # even: xi = 0 would not be a node
    with pytest.raises(ValueError):
        build_grid(8, 11, grading="nope")
    with pytest.raises(ValueError):
        graded_nodes(10)


@pytest.fixture(scope="module")
def small_forms(quartic):
    grid = build_grid(17, 21)
    return {eps: assemble(grid, quartic, eps) for eps in LADDER}


@pytest.mark.parametrize("eps", LADDER)
def test_total_mass_is_one(quartic, eps):
    # needs a xi-grid that resolves the well widths (the default count)
    grid = build_grid(9, 161)
    forms = assemble(grid, quartic, eps)
    one = np.ones(forms.n)
    assert b_form(forms.M, one, one) == pytest.approx(1.0, abs=1e-10)


@pytest.mark.parametrize("eps", LADDER)
def test_stiffness_kills_constants(small_forms, eps):
    forms = small_forms[eps]
    one = np.ones(forms.n)
    defect = np.abs(forms.A @ one).max()
    assert defect <= 1e-12 * np.abs(forms.A.data).max()
    assert np.abs(forms.apply_a(one)).max() == 0.0


def test_matrices_exactly_symmetric(small_forms):
    forms = small_forms[0.1]
    _, A1, A2 = oracles.kron_forms(forms)
    for mat in (forms.M, A1, A2, forms.A):
        assert (mat - mat.T).nnz == 0


def test_mass_positive_definite(small_forms):
    forms = small_forms[0.05]
    rng = np.random.default_rng(11)
    for _ in range(20):
        v = rng.normal(size=forms.n)
        assert b_form(forms.M, v, v) > 0.0


def test_eps_floor_enforced(quartic):
    grid = build_grid(9, 11)
    with pytest.raises(ValueError):
        assemble(grid, quartic, 0.01)
    with pytest.raises(ValueError):
        assemble(grid, quartic, 1.5)


def test_linear_field_x_energy(quartic):
    grid = build_grid(33, 41)
    forms = assemble(grid, quartic, 0.1)
    u = Field(np.broadcast_to(grid.x_nodes[:, None],
                              (33, 41)).copy(), grid, 0.1)
    _, A1, _ = oracles.kron_forms(forms)
    assert forms.a1_energy(u) == pytest.approx(1.0, abs=1e-3)
    assert float(u.ravel() @ (A1 @ u.ravel())) == pytest.approx(1.0, abs=1e-3)


def test_forms_bitwise_symmetric(small_forms):
    forms = small_forms[0.1]
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.normal(size=forms.n)
        v = rng.normal(size=forms.n)
        assert b_form(forms.M, u, v) == b_form(forms.M, v, u)
        su, sv = forms.stencil(u), forms.stencil(v)
        assert su.cross(sv) == sv.cross(su)
        exact = float(u @ (forms.A @ v)) + float(v @ (forms.A @ u))
        assert su.cross(sv) == pytest.approx(exact, rel=1e-9)


def test_stiffness_kernel_pairing(small_forms):
    forms = small_forms[0.1]
    rng = np.random.default_rng(6)
    one = np.ones(forms.n)
    for _ in range(5):
        v = rng.normal(size=forms.n)
        scale = np.abs(forms.A.data).max() * np.abs(v).max()
        assert abs(float(one @ (forms.A @ v))) <= 1e-12 * scale
        # the differences of a constant vanish, so its cross term is zero
        assert forms.stencil(one).cross(forms.stencil(v)) == 0.0


def test_energy_split_matches_total(small_forms):
    forms = small_forms[0.1]
    rng = np.random.default_rng(8)
    u = rng.normal(size=forms.n)
    _, A1, A2 = oracles.kron_forms(forms)
    e1, e2 = forms.a1_energy(u), forms.a2_energy(u)
    assert e1 + e2 == pytest.approx(float(u @ (forms.A @ u)), rel=1e-9)
    assert e1 == pytest.approx(float(u @ (A1 @ u)), rel=1e-9)
    assert e2 == pytest.approx(float(u @ (A2 @ u)), rel=1e-9)
    assert forms.a_energy(u) == e1 + e2


@pytest.mark.parametrize("eps", LADDER)
def test_apply_m_matches_kron(small_forms, eps):
    forms = small_forms[eps]
    M, _, _ = oracles.kron_forms(forms)
    u = np.random.default_rng(5).normal(size=forms.n)
    exact = M @ u
    assert np.abs(forms.apply_m(u) - exact).max() <= 1e-15 * (
        abs(M) @ np.abs(u)).max()


@pytest.mark.parametrize("eps", LADDER)
def test_stencil_matches_sparse_stiffness(small_forms, eps):
    forms = small_forms[eps]
    _, A1, A2 = oracles.kron_forms(forms)
    A = A1 + A2
    rng = np.random.default_rng(6)
    u, w = rng.normal(size=(2, forms.n))
    st, sw = forms.stencil(u), forms.stencil(w)
    # the incidence form and the sparse matvec agree to the matvec's noise
    assert np.abs(st.au - A @ u).max() <= 1e-13 * (abs(A) @ np.abs(u)).max()
    assert np.array_equal(forms.apply_a(u), st.au)
    assert st.a1 == pytest.approx(float(u @ (A1 @ u)), rel=1e-12)
    assert st.a2 == pytest.approx(float(u @ (A2 @ u)), rel=1e-12)
    assert st.a1 == forms.a1_energy(u) and st.a2 == forms.a2_energy(u)
    scale = float(np.abs(u) @ (abs(A) @ np.abs(w)))
    exact = float(u @ (A @ w)) + float(w @ (A @ u))
    assert abs(st.cross(sw) - exact) <= 1e-13 * scale
    assert st.cross(sw) == sw.cross(st)


def test_limit_stencil_matches_block_forms():
    x = np.linspace(0.0, 1.0, 33)
    lf = assemble_limit_rates(x, 2.0, 0.5)
    M, A = oracles.block_forms(lf)
    rng = np.random.default_rng(7)
    u, w = rng.normal(size=(2, lf.n))
    st, sw = lf.stencil(u), lf.stencil(w)
    # the band kernel sums each row in the order of the CSR matvec
    assert np.array_equal(lf.apply_m(u), M @ u)
    assert np.abs(st.au - A @ u).max() <= 1e-14 * (abs(A) @ np.abs(u)).max()
    assert np.array_equal(lf.apply_a(u), st.au)
    assert st.a == pytest.approx(float(u @ (A @ u)), rel=1e-12)
    # diffusion is half the K_x-energy of each density
    um, up = u.reshape(2, -1)
    assert st.a1 == pytest.approx(
        0.5 * float(um @ (lf.K_x @ um) + up @ (lf.K_x @ up)), rel=1e-12)
    # the reaction block is nonsymmetric: the cross term is its symmetric part
    exact = float(u @ (A @ w)) + float(w @ (A @ u))
    assert st.cross(sw) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("eps", LADDER)
def test_assemble_builds_no_2d_matrix(quartic, eps):
    forms = assemble(build_grid(17, 21), quartic, eps)
    n = forms.n
    for name, value in vars(forms).items():
        if sp.issparse(value):
            assert max(value.shape) < n, name
    # the 2-D references are built on first use only
    assert not {"M", "A"} & set(vars(forms))
    assert forms.M.shape == (n, n) and "M" in vars(forms)


@pytest.mark.parametrize("rates", [(1.8, 1.8), (2.0, 0.5)])
def test_assemble_limit_builds_no_block_matrix(rates):
    lf = assemble_limit_rates(np.linspace(0.0, 1.0, 33), *rates)
    assert lf.n == 66
    for name, value in vars(lf).items():
        if sp.issparse(value):
            assert max(value.shape) < lf.n, name
    assert not hasattr(lf, "M") and not hasattr(lf, "A")


def test_lift_mass_is_q_form(quartic):
    # the mass form of an embedded pair equals the 1D transition-mass value
    grid = build_grid(33, 81)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    v = lift(np.zeros(33), np.ones(33), quartic, eps, grid)
    q = q_eps(quartic, eps)
    assert b_form(forms.M, v, v) == pytest.approx(
        transition_mass(0.0, 1.0, quartic, eps, q=q), abs=1e-5)


def test_lift_mass_against_x_quadrature(quartic):
    # 2D mass of an embedded x-dependent pair vs the 1D reduction
    grid = build_grid(33, 81)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    um, up = np.cos(np.pi * x), 1.0 + np.cos(np.pi * x)
    v = lift(um, up, quartic, eps, grid)
    q = q_eps(quartic, eps)
    p = 0.5 * (um + up)
    d = up - um
    expected = (float(p @ (forms.M_x @ p))
                + q * float(d @ (forms.M_x @ d)))
    assert b_form(forms.M, v, v) == pytest.approx(expected, abs=1e-5)


def test_refinement_order_of_energy(quartic):
    eps = 0.1
    m2 = oracles.fixed_quad(
        lambda xi: xi * xi * np.exp(-quartic.eval(xi) / eps), -1.0, 1.0)
    z = oracles.fixed_quad(lambda xi: np.exp(-quartic.eval(xi) / eps),
                           -1.0, 1.0)
    target = 0.5 * math.pi ** 2 * (m2 / z) + 0.5 * gibbs.tau(eps)
    errors = []
    for n in (33, 65, 129):
        grid = build_grid(n, n)
        forms = assemble(grid, quartic, eps)
        u = Field(np.cos(np.pi * grid.x_nodes)[:, None]
                  * grid.xi_nodes[None, :], grid, eps)
        errors.append(abs(forms.a_energy(u) - target))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_limit_forms_basic():
    x = np.linspace(0.0, 1.0, 17)
    k = 1.8
    lf = assemble_limit(x, k)
    _, A = oracles.block_forms(lf)
    ones = LimitField(np.ones(17), np.ones(17), x)
    assert b_form(lf.apply_m, ones, ones) == pytest.approx(1.0, abs=1e-12)
    assert lf.stencil(ones.stack()).a == pytest.approx(0.0, abs=1e-12)
    w01 = LimitField(np.zeros(17), np.ones(17), x)
    st = lf.stencil(w01)
    assert st.a1 == pytest.approx(0.0, abs=1e-12)
    assert st.a2 == pytest.approx(0.5 * k, rel=1e-12)
    w = w01.stack()
    assert float(w @ (A @ w)) == pytest.approx(0.5 * k, rel=1e-12)


def test_limit_forms_symmetric_psd():
    x = np.linspace(0.0, 1.0, 17)
    lf = assemble_limit(x, 1.8)
    dense = oracles.block_forms(lf)[1].toarray()
    assert np.max(np.abs(dense - dense.T)) == 0.0
    eigmin = np.linalg.eigvalsh(dense).min()
    assert eigmin >= -1e-12 * np.abs(dense).max()


def test_limit_forms_reject_negative_rate():
    with pytest.raises(ValueError):
        assemble_limit(np.linspace(0.0, 1.0, 9), -1.0)


@pytest.mark.parametrize("rates", [(-1.0, 1.0), (1.0, -1e-300),
                                   (float("nan"), 1.0), (1.0, float("inf"))])
def test_limit_rates_reject_bad_rates(rates):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        assemble_limit_rates(np.linspace(0.0, 1.0, 9), *rates)


def test_limit_rates_pair_nonsymmetric():
    x = np.linspace(0.0, 1.0, 9)
    lf = assemble_limit_rates(x, 1.0, 2.0)
    dense = oracles.block_forms(lf)[1].toarray()
    assert np.max(np.abs(dense - dense.T)) > 0.0
    u, w = np.random.default_rng(9).normal(size=(2, lf.n))
    assert abs(float(u @ lf.apply_a(w)) - float(w @ lf.apply_a(u))) > 0.1


@pytest.mark.parametrize("eps", LADDER)
def test_pairing_constant_function(quartic, eps):
    grid = build_grid(17, 161)
    forms = assemble(grid, quartic, eps)
    u = Field(np.ones((17, 161)), grid, eps)
    assert pair_measure(forms, u, lambda x, xi: 1.0) == pytest.approx(
        1.0, abs=1e-9)
    assert abs(pair_measure(forms, u, lambda x, xi: xi + 0.0 * x)) <= 1e-12


def test_pairing_second_moment_ladder(quartic):
    grid = build_grid(17, 81)
    errs = []
    for eps in LADDER:
        forms = assemble(grid, quartic, eps)
        u = Field(np.ones((17, 81)), grid, eps)
        val = pair_measure(forms, u, lambda x, xi: xi * xi + 0.0 * x)
        z = oracles.fixed_quad(lambda s: np.exp(-quartic.eval(s) / eps),
                               -1.0, 1.0)
        m2 = oracles.fixed_quad(
            lambda s: s * s * np.exp(-quartic.eval(s) / eps), -1.0, 1.0) / z
        assert val == pytest.approx(m2, abs=1e-8)
        errs.append(abs(val - 1.0))
    assert errs[0] > errs[1] > errs[2]


@pytest.mark.parametrize("eps", LADDER)
def test_batched_observables_match_single_calls_bitwise(quartic, eps):
    grid = build_grid(33, 41)
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    u = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, eps, grid)
    u = Field(u.values * (1.0 + 0.1 * np.random.default_rng(3).normal(
        size=u.values.shape)), grid, eps)
    tests = [lambda x, xi: 1.0, lambda x, xi: np.cos(np.pi * x) * xi]
    observables = [lambda x, xi, r: r * r,
                   lambda x, xi, r: np.abs(r) ** 1.5]
    batched = nonlinear_observables(
        forms, u, [paired(phi) for phi in tests] + observables)
    single = ([pair_measure(forms, u, phi) for phi in tests]
              + [nonlinear_observable(forms, u, f) for f in observables])
    assert batched == single


def test_pair_limit_values():
    x = np.linspace(0.0, 1.0, 33)
    lf = LimitField(np.ones(33), np.ones(33), x)
    assert pair_limit(lf, lambda x_, xi: 1.0) == pytest.approx(1.0, abs=1e-12)
    assert pair_limit(lf, lambda x_, xi: xi) == pytest.approx(0.0, abs=1e-12)
    lf2 = LimitField(np.zeros(33), np.ones(33), x)
    assert pair_limit(lf2, lambda x_, xi: xi) == pytest.approx(0.5, abs=1e-12)


def test_field_validation(quartic):
    grid = build_grid(9, 11)
    with pytest.raises(ValueError):
        Field(np.zeros((9, 10)), grid, 0.1)
    with pytest.raises(ValueError):
        Field(np.full((9, 11), np.nan), grid, 0.1)
    with pytest.raises(ValueError):
        LimitField(np.zeros(5), np.zeros(4), np.linspace(0, 1, 5))
