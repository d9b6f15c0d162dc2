import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as la
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from kramerslab import gibbs
from kramerslab.grid_forms import (Field, Grid, LimitField, ModalForms,
                                   ModalLimitForms, ProductTest, XBasis,
                                   _tridiag, apply_x, assemble,
                                   assemble_limit, assemble_limit_rates,
                                   b_form, build_grid, graded_nodes,
                                   l2_norm_x, nonlinear_observable,
                                   nonlinear_observables, pair_limit,
                                   pair_measure, paired)
from kramerslab.transition import lift, q_eps, transition_mass

import oracles

LADDER = (0.2, 0.1, 0.05)

ONE = ProductTest(np.ones_like, np.ones_like)
XI = ProductTest(np.ones_like, lambda xi: xi)


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
    # each message names the parameter, which is the config field
    with pytest.raises(ValueError, match="^nx: must be an integer >= 4"):
        build_grid(3, 11)
    with pytest.raises(ValueError, match="^nx: must be an integer >= 4"):
        Grid(3, graded_nodes(11))
    with pytest.raises(ValueError):
        build_grid(8, 3)
    with pytest.raises(ValueError, match="^nxi: the three-zone grading"):
        build_grid(8, 10)  # even: xi = 0 would not be a node
    with pytest.raises(ValueError, match="^grading: "):
        build_grid(8, 11, grading="nope")
    for nodes in ([-1.0, 0.5, 0.0, 0.5, 1.0], [-1.0, -0.5, 0.1, 0.5, 1.0],
                  [-0.9, -0.5, 0.0, 0.5, 1.0]):
        with pytest.raises(ValueError, match="^nxi: the xi-nodes must"):
            Grid(8, np.array(nodes))
    with pytest.raises(ValueError):
        graded_nodes(10)
    # the 1-point rule makes every cell's mass block rank one; a bool is
    # not an order
    for order in (1, True):
        with pytest.raises(ValueError, match="quad_order"):
            build_grid(8, 11, quad_order=order)
        with pytest.raises(ValueError, match="quad_order"):
            Grid(8, graded_nodes(11), quad_order=order)


def test_grid_rejects_an_even_xi_count():
    # an even count with xi = 0 a node would give the two-ended sweep two
    # halves of different lengths: the Grid refuses it, before any assembly
    with pytest.raises(ValueError, match="^nxi: the two-ended sweep needs "
                                         "an odd count"):
        Grid(4, np.array([-1.0, -0.5, 0.0, 0.5, 0.75, 1.0]))


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
    assert b_form(forms.M.dot, one) == pytest.approx(1.0, abs=1e-10)


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
        assert b_form(forms.M.dot, v) > 0.0


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
                              (33, 41)).copy(), grid)
    _, A1, _ = oracles.kron_forms(forms)
    assert forms.a1_energy(u) == pytest.approx(1.0, abs=1e-3)
    assert float(u.ravel() @ (A1 @ u.ravel())) == pytest.approx(1.0, abs=1e-3)


def test_forms_bitwise_symmetric(small_forms):
    forms = small_forms[0.1]
    rng = np.random.default_rng(5)
    for _ in range(5):
        u = rng.normal(size=forms.n)
        v = rng.normal(size=forms.n)
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
def test_band_products_match_the_csr_factors(quartic, eps):
    # each band pass sums a row's left neighbour, diagonal and right
    # neighbour in the order of a CSR matvec of the same factor, so every
    # product below agrees with its CSR reference to 0 ulps: along x (1-D,
    # and (nx, m) in C and F order, with a C-ordered result), along xi, the
    # nodal mass, the L2 norm and both energy parts
    forms = assemble(build_grid(129, 161), quartic, eps)
    M_x, K_x, M_xi = (oracles.csr(b)
                      for b in (forms.M_x, forms.K_x, forms.M_xi))
    rng = np.random.default_rng(31)
    v = rng.normal(size=129)
    for bands, mat in ((forms.M_x, M_x), (forms.K_x, K_x)):
        assert np.array_equal(_tridiag(bands, v), mat @ v)
        assert np.array_equal(apply_x(bands, v), mat @ v)
    assert l2_norm_x(forms.M_x, v) == math.sqrt(float(v @ (M_x @ v)))
    U = rng.normal(size=(129, 161))
    for V in (U, np.asfortranarray(U[:, ::2])):
        W = apply_x(forms.M_x, V)
        assert W.flags.c_contiguous and np.array_equal(W, M_x @ V)
    assert np.array_equal(_tridiag(forms.M_xi, U), (M_xi @ U.T).T)
    u = U.reshape(-1)
    assert np.array_equal(forms.apply_m(u),
                          (M_x @ (M_xi @ U.T).T).reshape(-1))
    dx, dxi = np.diff(U, axis=0), np.diff(U, axis=1)
    assert forms.a1_energy(u) == float(np.vdot(
        dx, (M_xi @ dx.T).T * forms.g_x[:, None]))
    assert forms.a2_energy(u) == float(np.vdot(dxi,
                                               (M_x @ dxi) * forms.g_xi))


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
    # the modal forms of nodal pairs against the block forms of the pairs,
    # with equal, skewed (ratio e) and zero exchange rates
    x = np.linspace(0.0, 1.0, 33)
    u, w = np.random.default_rng(7).normal(size=(2, 66))
    um, up = u.reshape(2, -1)
    for rates in ((1.8, 1.8), (1.8 * math.exp(0.5), 1.8 * math.exp(-0.5)),
                  (0.0, 0.0)):
        modal = assemble_limit_rates(x, *rates)
        M, A = oracles.block_forms(modal)
        M_x, K_x = oracles.x_factors(x)
        y, z = (modal.coefficients(LimitField(*v.reshape(2, -1), x))
                for v in (u, w))
        mv, st = modal.mass_and_stencil(y)
        sw = modal.mass_and_stencil(z)[1]
        assert float(y @ mv) == pytest.approx(float(u @ (M @ u)), rel=1e-12)
        # the mass 1^T M u is mode 0 of both species
        assert float(modal.apply_m(modal.one) @ y) == pytest.approx(
            float((M @ u).sum()), rel=1e-12)
        # A y holds the modes V^T (A u) = V^T M_x (M_x^{-1} A u) of each
        # species
        au = modal.coefficients(LimitField(*(
            spla.spsolve(M_x.tocsc(), v) for v in (A @ u).reshape(2, -1)),
            x))
        assert np.abs(st.au - au).max() <= 1e-12 * np.abs(au).max()
        assert st.a == pytest.approx(float(u @ (A @ u)), rel=1e-12)
        # diffusion is half the K_x-energy of each density, reaction half
        # the x-mass pairing of the gap with the net transfer
        assert st.a1 == pytest.approx(
            0.5 * float(um @ (K_x @ um) + up @ (K_x @ up)), rel=1e-12)
        transfer = rates[0] * um - rates[1] * up
        assert st.a2 == pytest.approx(
            0.5 * float((um - up) @ (M_x @ transfer)), rel=1e-12,
            abs=1e-15)
        # the reaction block is nonsymmetric: the cross term is its
        # symmetric part
        exact = float(u @ (A @ w)) + float(w @ (A @ u))
        assert st.cross(sw) == pytest.approx(exact, rel=1e-12)


@pytest.mark.parametrize("nx", [4, 33, 129])
def test_fft_transforms_match_the_dense_basis(quartic, nx):
    # the limit level's O(n log n) transforms against the eps level's dense
    # V^T M_x and V, from one owner of the constants
    modal = ModalForms(assemble(Grid(nx, graded_nodes(11)), quartic, 0.2))
    basis = XBasis(nx)
    assert np.array_equal(basis.lam, modal.lam)
    U = np.random.default_rng(nx).normal(size=(3, nx))
    for fast, dense in ((basis.coefficients(U), U @ modal.VtM.T),
                        (basis.values(U), U @ modal.V.T)):
        assert np.abs(fast - dense).max() <= 1e-14 * np.abs(dense).max()
    assert np.abs(basis.values(basis.coefficients(U)) - U).max() \
        <= 1e-14 * np.abs(U).max()


def test_three_node_basis_diagonalizes_the_x_factors():
    # the least x-basis, below the least Grid: V = values(I) is M_x-
    # orthonormal, diagonalizes K_x, and coefficients(I) is V^T M_x
    basis = XBasis(3)
    M_x, K_x = (f.toarray() for f in oracles.x_factors(np.linspace(0, 1, 3)))
    V = basis.values(np.eye(3)).T
    assert np.abs(V.T @ M_x @ V - np.eye(3)).max() <= 1e-14
    assert np.abs(V.T @ K_x @ V - np.diag(basis.lam)).max() \
        <= 1e-14 * basis.lam.max()
    assert np.abs(basis.coefficients(np.eye(3)).T - V.T @ M_x).max() <= 1e-14


@pytest.mark.parametrize("eps", LADDER)
def test_assemble_builds_no_2d_matrix(quartic, eps):
    forms = assemble(build_grid(17, 21), quartic, eps)
    n = forms.n
    # the factors are (3, n) bands, and nothing assembled is sparse
    for name, size in (("M_x", 17), ("K_x", 17), ("M_xi", 21), ("K_xi", 21)):
        assert getattr(forms, name).shape == (3, size), name
    for name, value in vars(forms).items():
        assert not sp.issparse(value), name
        if isinstance(value, np.ndarray):
            assert max(value.shape) < n, name
    # the 2-D references are built on first use only
    assert not {"M", "A"} & set(vars(forms))
    assert forms.M.shape == (n, n) and "M" in vars(forms)


@pytest.mark.parametrize("rates", [(1.8, 1.8), (2.0, 0.5)])
def test_assemble_limit_builds_no_block_matrix(rates):
    # the limit forms are their x-modes: no x-matrix and no block matrix,
    # only vectors no longer than the state, theirs and their basis's
    lf = assemble_limit_rates(np.linspace(0.0, 1.0, 33), *rates)
    assert isinstance(lf, ModalLimitForms) and lf.n == 66
    for name, value in {**vars(lf), **vars(lf.basis)}.items():
        assert not sp.issparse(value), name
        if isinstance(value, np.ndarray):
            assert value.ndim == 1 and value.size <= 66, name
    assert not {"M", "A", "M_x", "K_x"} & set(vars(lf))


def test_lift_mass_is_q_form(quartic):
    # the mass form of an embedded pair equals the 1D transition-mass value
    grid = build_grid(33, 81)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    v = lift(np.zeros(33), np.ones(33), quartic, eps, grid)
    q = q_eps(forms.measure)
    assert b_form(forms.M.dot, v) == pytest.approx(
        transition_mass(0.0, 1.0, q), abs=1e-5)


def test_lift_mass_against_x_quadrature(quartic):
    # 2D mass of an embedded x-dependent pair vs the 1D reduction
    grid = build_grid(33, 81)
    eps = 0.1
    forms = assemble(grid, quartic, eps)
    x = grid.x_nodes
    um, up = np.cos(np.pi * x), 1.0 + np.cos(np.pi * x)
    v = lift(um, up, quartic, eps, grid)
    q = q_eps(forms.measure)
    p = 0.5 * (um + up)
    d = up - um
    M_x = oracles.csr(forms.M_x)
    expected = float(p @ (M_x @ p)) + q * float(d @ (M_x @ d))
    assert b_form(forms.M.dot, v) == pytest.approx(expected, abs=1e-5)


def test_refinement_order_of_energy(quartic):
    eps = 0.1
    m2 = oracles.fixed_quad(
        lambda xi: xi * xi * np.exp(-quartic.eval(xi) / eps), -1.0, 1.0)
    z = oracles.fixed_quad(lambda xi: np.exp(-quartic.eval(xi) / eps),
                           -1.0, 1.0)
    target = (0.5 * math.pi ** 2 * (m2 / z)
              + 0.5 * math.exp(gibbs.log_tau(eps)))
    errors = []
    for n in (33, 65, 129):
        grid = build_grid(n, n)
        forms = assemble(grid, quartic, eps)
        u = Field(np.cos(np.pi * grid.x_nodes)[:, None]
                  * grid.xi_nodes[None, :], grid)
        errors.append(abs(forms.a_energy(u) - target))
    orders = [math.log2(errors[i] / errors[i + 1]) for i in range(2)]
    assert min(orders) >= 1.8


def test_limit_forms_basic():
    x = np.linspace(0.0, 1.0, 17)
    k = 1.8
    modal = assemble_limit(x, k)
    _, A = oracles.block_forms(modal)
    ones = modal.coefficients(LimitField(np.ones(17), np.ones(17), x))
    assert np.abs(ones - modal.one).max() <= 1e-15
    assert b_form(modal.apply_m, ones) == pytest.approx(1.0, abs=1e-12)
    assert modal.mass_and_stencil(ones)[1].a == pytest.approx(0.0, abs=1e-12)
    w01 = LimitField(np.zeros(17), np.ones(17), x)
    st = modal.mass_and_stencil(modal.coefficients(w01))[1]
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
    modal = assemble_limit_rates(x, 1.0, 2.0)
    dense = oracles.block_forms(modal)[1].toarray()
    assert np.max(np.abs(dense - dense.T)) > 0.0
    y, z = np.random.default_rng(9).normal(size=(2, modal.n))
    assert abs(float(y @ modal.mass_and_stencil(z)[1].au)
               - float(z @ modal.mass_and_stencil(y)[1].au)) > 0.1


@pytest.mark.parametrize("eps", LADDER)
def test_pairing_constant_function(quartic, eps):
    grid = build_grid(17, 161)
    forms = assemble(grid, quartic, eps)
    u = Field(np.ones((17, 161)), grid)
    assert pair_measure(forms, u, ONE) == pytest.approx(1.0, abs=1e-9)
    assert abs(pair_measure(forms, u, XI)) <= 1e-12


def test_pairing_second_moment_ladder(quartic):
    grid = build_grid(17, 81)
    errs = []
    for eps in LADDER:
        forms = assemble(grid, quartic, eps)
        u = Field(np.ones((17, 81)), grid)
        val = pair_measure(forms, u, ProductTest(np.ones_like,
                                                 lambda xi: xi * xi))
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
        size=u.values.shape)), grid)
    tests = [ONE, ProductTest(lambda x: np.cos(np.pi * x), lambda xi: xi)]
    observables = [lambda x, xi, r: r * r,
                   lambda x, xi, r: np.abs(r) ** 1.5]
    batched = nonlinear_observables(
        forms, u, [paired(phi) for phi in tests] + observables)
    single = ([nonlinear_observable(forms, u, paired(phi)) for phi in tests]
              + [nonlinear_observable(forms, u, f) for f in observables])
    assert batched == single


def test_blocked_observables_match_whole_grid_oracle(snapshots):
    forms, traj, _ = snapshots
    u = traj.snapshots[-1][1]
    fns = [lambda x, xi, r: r * r, lambda x, xi, r: np.abs(r) ** 1.5,
           paired(ProductTest(lambda x: np.cos(np.pi * x), lambda xi: xi)),
           lambda x, xi, r: np.sin(3.0 * x + xi) * r ** 3,
           lambda x, xi, r: 1.0]
    got = nonlinear_observables(forms, u, fns)
    want = oracles.whole_grid_observables(forms, u, fns)
    scale = oracles.whole_grid_observables(
        forms, u, [lambda x, xi, r, f=f: np.abs(f(x, xi, r)) for f in fns])
    for g_, w_, s_ in zip(got, want, scale):
        assert abs(g_ - w_) <= 1e-14 * s_


def test_observables_peak_below_one_tensor_array(snapshots):
    # one array over every tensor Gauss point (2.6 MB at 129 x 161) is
    # what the blocks avoid
    forms, traj, _ = snapshots
    u = traj.snapshots[-1][1]
    grid = forms.grid
    tensor_bytes = 8 * grid.quad_order ** 2 * (grid.nx - 1) * (grid.nxi - 1)
    fns = [lambda x, xi, r: r * r, lambda x, xi, r: np.abs(r) ** 1.5]
    nonlinear_observables(forms, u, fns)
    tracemalloc.start()
    try:
        nonlinear_observables(forms, u, fns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < tensor_bytes


def test_pair_limit_values():
    x = np.linspace(0.0, 1.0, 33)
    lf = LimitField(np.ones(33), np.ones(33), x)
    assert pair_limit(lf, ONE) == pytest.approx(1.0, abs=1e-12)
    assert pair_limit(lf, XI) == pytest.approx(0.0, abs=1e-12)
    lf2 = LimitField(np.zeros(33), np.ones(33), x)
    assert pair_limit(lf2, XI) == pytest.approx(0.5, abs=1e-12)


def test_field_validation(quartic):
    grid = build_grid(9, 11)
    with pytest.raises(ValueError):
        Field(np.zeros((9, 10)), grid)
    with pytest.raises(ValueError):
        Field(np.full((9, 11), np.nan), grid)
    with pytest.raises(ValueError):
        LimitField(np.zeros(5), np.zeros(4), np.linspace(0, 1, 5))


@pytest.mark.parametrize("nx", [5, 17, 129])
def test_modal_basis_diagonalizes_the_x_pencil(quartic, nx):
    forms = assemble(build_grid(nx, 11), quartic, 0.2)
    modal = ModalForms(forms)
    V, lam = modal.V, modal.lam
    M_x, K_x = (oracles.csr(b).toarray() for b in (forms.M_x, forms.K_x))
    # mode 0 is exactly the constant 1, and its eigenvalue exactly 0
    assert np.array_equal(V[:, 0], np.ones(nx)) and lam[0] == 0.0
    assert np.abs(V.T @ M_x @ V - np.eye(nx)).max() <= 1e-14
    assert np.abs(V.T @ K_x @ V - np.diag(lam)).max() <= 1e-14 * lam[-1]
    assert np.abs(modal.VtM @ V - np.eye(nx)).max() <= 1e-14
    reference = la.eigh(K_x, M_x, eigvals_only=True)
    assert np.abs(lam - reference).max() <= 1e-14 * lam[-1]


def test_modal_transforms_keep_equal_columns_equal(quartic):
    # the transforms act on xi-differences, so the flat well columns of a
    # lifted field stay exactly flat both ways (a plain V^T M_x U breaks
    # one pair here with OpenBLAS)
    eps = 0.02
    grid = build_grid(33, 41)
    modal = ModalForms(assemble(grid, quartic, eps))
    x = grid.x_nodes
    U = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, eps,
             grid).values
    flat = np.all(np.diff(U, axis=1) == 0.0, axis=0)
    assert flat.sum() >= 10
    Y = modal.coefficients(U).reshape(modal.shape)
    back = modal.values(Y.reshape(-1))
    for A in (Y, back):
        assert np.all(np.diff(A, axis=1)[:, flat] == 0.0)
    assert np.abs(back - U).max() <= 1e-14 * np.abs(U).max()


@pytest.mark.parametrize("eps", LADDER)
def test_modal_forms_match_the_nodal_ones(small_forms, eps):
    forms = small_forms[eps]
    modal = ModalForms(forms)
    U = 1.0 + np.random.default_rng(10).normal(size=modal.shape)
    u = U.reshape(-1)
    y = modal.coefficients(U)
    mv, st = modal.mass_and_stencil(y)
    nodal = forms.stencil(u)
    assert np.array_equal(mv, modal.apply_m(y))
    assert float(y @ mv) == pytest.approx(float(u @ forms.apply_m(u)),
                                          rel=1e-14)
    assert st.a1 == pytest.approx(nodal.a1, rel=1e-13)
    assert st.a2 == pytest.approx(nodal.a2, rel=1e-13)
    # A y is V^T (A u), and the mass is read from mode 0 alone
    au = (modal.V.T @ nodal.au.reshape(modal.shape)).reshape(-1)
    assert np.abs(st.au - au).max() <= 1e-13 * np.abs(au).max()
    mass = float(forms.apply_m(np.ones(forms.n)) @ u)
    assert float(modal.apply_m(modal.one) @ y) == pytest.approx(mass,
                                                               rel=1e-14)


def test_restricted_modal_forms_are_the_kept_blocks(small_forms):
    # forms on a few x-modes act, solve and transform exactly as the full
    # forms do on those blocks of a state that is zero elsewhere; mode 0
    # is always kept, and the norm of the smaller system is at most the
    # full one's
    forms = small_forms[0.1]
    full, part = ModalForms(forms), ModalForms(forms, [3, 1])
    keep = [0, 1, 3]
    assert list(part.modes) == keep and part.shape == (3, 21)
    assert np.array_equal(part.lam, full.lam[keep])
    assert np.array_equal(part.V, full.V[:, keep])
    assert np.array_equal(part.VtM, full.VtM[keep])
    rng = np.random.default_rng(5)
    Y = np.zeros(full.shape)
    Y[keep] = rng.normal(size=(3, 21))
    mv, st = full.mass_and_stencil(Y.reshape(-1))
    pmv, pst = part.mass_and_stencil(Y[keep].reshape(-1))
    assert np.array_equal(pmv, mv.reshape(full.shape)[keep].reshape(-1))
    assert np.array_equal(pst.au, st.au.reshape(full.shape)[keep].reshape(-1))
    assert pst.a1 == pytest.approx(st.a1, rel=1e-15)
    assert pst.a2 == pytest.approx(st.a2, rel=1e-15)
    R = rng.normal(size=full.shape)
    x = full.factorize(1e-3)(R.reshape(-1)).reshape(full.shape)[keep]
    assert np.array_equal(part.factorize(1e-3)(R[keep].reshape(-1)),
                          x.reshape(-1))
    assert part.norm_inf(1e-3) < full.norm_inf(1e-3)


@pytest.mark.parametrize("rates", [(2.0, 0.5), (0.0, 0.0)])
def test_restricted_limit_forms_are_the_kept_blocks(rates):
    # limit forms on a few x-modes act, solve and transform exactly as the
    # full forms do on those modes of a pair that is zero elsewhere; mode 0
    # is always kept, and the norm of the smaller system is at most the
    # full one's
    x = np.linspace(0.0, 1.0, 33)
    full = ModalLimitForms(x, *rates)
    part = ModalLimitForms(x, *rates, [3, 1])
    keep = [0, 1, 3]
    assert list(part.modes) == keep and part.n == 6
    assert np.array_equal(part.lam, full.lam[keep])
    assert np.array_equal(part.one, full.one.reshape(2, -1)[:, keep].ravel())
    rng = np.random.default_rng(5)
    Y = np.zeros((2, 33))
    Y[:, keep] = rng.normal(size=(2, 3))
    mv, st = full.mass_and_stencil(Y.reshape(-1))
    pmv, pst = part.mass_and_stencil(Y[:, keep].reshape(-1))
    assert np.array_equal(pmv, mv.reshape(2, -1)[:, keep].reshape(-1))
    assert np.array_equal(pst.au, st.au.reshape(2, -1)[:, keep].reshape(-1))
    assert pst.a1 == pytest.approx(st.a1, rel=1e-15)
    assert pst.a2 == pytest.approx(st.a2, rel=1e-15)
    R = rng.normal(size=(2, 33))
    sol = full.factorize(1e-3)(R.reshape(-1)).reshape(2, -1)[:, keep]
    assert np.array_equal(part.factorize(1e-3)(R[:, keep].reshape(-1)),
                          sol.reshape(-1))
    assert part.norm_inf(1e-3) < full.norm_inf(1e-3)
    # the transforms gather the kept modes and scatter them back
    field = LimitField(*full.values(Y.reshape(-1)), x)
    assert np.array_equal(part.values(Y[:, keep].reshape(-1)).reshape(-1),
                          field.stack())
    assert np.array_equal(part.coefficients(field),
                          full.coefficients(field).reshape(2, -1)[:, keep]
                          .reshape(-1))
    # the mode norms are those of M = 1/2 I, over every mode
    norms = part.mode_norms(field)
    assert norms.shape == (33,)
    assert float(norms @ norms) == pytest.approx(
        0.5 * float(Y.reshape(-1) @ Y.reshape(-1)), rel=1e-13)


def test_mode_norms_are_the_block_norms(small_forms):
    # the fast transform's block norms are the dense modes' M_xi-norms, and
    # their squares sum to ||u||_M^2
    forms = small_forms[0.1]
    full = ModalForms(forms)
    U = np.random.default_rng(7).normal(size=full.shape)
    Y = full.coefficients(U).reshape(full.shape)
    M_xi = oracles.csr(forms.M_xi).toarray()
    dense = np.sqrt((Y * (Y @ M_xi)).sum(axis=1))
    norms = forms.mode_norms(U)
    assert norms == pytest.approx(dense, rel=1e-13)
    m = float(U.reshape(-1) @ forms.apply_m(U))
    assert float(norms @ norms) == pytest.approx(m, rel=1e-13)


@pytest.mark.parametrize("shape", [(129, 161), (65, 81), (33, 1025)],
                         ids=["129x161", "65x81", "33x1025"])
@pytest.mark.parametrize("eps", [0.2, 0.02])
def test_flat_modal_kernels_match_the_per_mode_formulas(quartic, shape, eps):
    # the flat passes over the mode blocks laid end to end against M_xi
    # and the xi-differences taken per mode on the (nx, nxi) array: M y and
    # A y bit for bit, the energies to the rounding of one dot product
    modal = ModalForms(assemble(build_grid(*shape), quartic, eps))
    Y = 1.0 + np.random.default_rng(21).normal(size=shape)
    y = Y.reshape(-1)
    mv, st = modal.mass_and_stencil(y)
    MY = (oracles.csr(modal.M_xi) @ Y.T).T
    F1 = MY * modal.lam[:, None]
    D = np.diff(Y, axis=1)
    F2 = D * modal.g_xi
    AY = F1.copy()
    AY[:, :-1] -= F2
    AY[:, 1:] += F2
    assert np.array_equal(mv, MY.reshape(-1))
    assert np.array_equal(st.au, AY.reshape(-1))
    assert st.parts[0][0] is y
    # the flat differences are the per-mode ones plus one across each block
    # end, whose flux is exactly zero
    d, f = (np.append(p, 0.0).reshape(shape) for p in st.parts[1])
    assert np.array_equal(d[:, :-1], D) and np.array_equal(f[:, :-1], F2)
    assert not np.any(f[:, -1])
    assert st.a1 == pytest.approx(float(np.vdot(Y, F1)), rel=1e-15)
    assert st.a2 == pytest.approx(float(np.vdot(D, F2)), rel=1e-15)


@pytest.mark.parametrize("rates", [(2.0, 0.5), (1.0, 1.0), (0.0, 0.0)])
def test_flat_limit_kernels_match_the_pair_formulas(rates):
    # the flat modal pair against the per-species formulas on the (2, nx)
    # modes: M = 1/2 I, diffusion fluxes lam y / 2, half the net transfer
    modal = assemble_limit_rates(np.linspace(0.0, 1.0, 257), *rates)
    Y = np.random.default_rng(23).normal(size=(2, 257))
    y = Y.reshape(-1)
    mv, st = modal.mass_and_stencil(y)
    F1 = 0.5 * modal.basis.lam * Y
    F2 = 0.5 * (rates[0] * Y[0] - rates[1] * Y[1])
    assert np.array_equal(mv, 0.5 * y)
    assert np.array_equal(modal.apply_m(y), mv)
    assert np.array_equal(st.au, (F1 + [F2, -F2]).reshape(-1))
    assert st.parts[0][0] is y
    assert np.array_equal(st.parts[0][1], F1.reshape(-1))
    assert np.array_equal(st.parts[1][0], Y[0] - Y[1])
    assert np.array_equal(st.parts[1][1], F2)
    assert st.a1 == pytest.approx(float(np.vdot(Y, F1)), rel=1e-15)
    assert st.a2 == pytest.approx(float(np.vdot(Y[0] - Y[1], F2)), rel=1e-15)
