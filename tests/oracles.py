"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's own quadrature and
assembly paths: fixed-grid composite rules, scipy's QUADPACK integrator,
finite differences, the closed chain solution of the piecewise-linear
connection program, the sparse matrices of the 1-D form factors' bands and
their 2-D Kronecker products, the closed-form nodal x-factors of the limit
forms and their block matrices, the semi-discrete limit solution in a dense
eigenbasis, and whole-grid tensor quadrature of observables. Only
the tests import ``scipy.integrate``. The one exception is
:func:`inline_scale`, which reuses the package's Gibbs integrals and its
``PanelRule`` (points, weights and hat values) on purpose, to match the
measure-based functions bit for bit.
"""
import math

import numpy as np
import scipy.linalg
import scipy.sparse as sp
from scipy.integrate import quad


def fixed_quad(f, a, b, panels=100_000, order=6):
    """Composite Gauss-Legendre quadrature on a uniform fixed grid."""
    g, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(a, b, panels + 1)
    mid = 0.5 * (edges[1:] + edges[:-1])
    half = 0.5 * (edges[1] - edges[0])
    pts = mid[:, None] + half * g[None, :]
    return half * float(w @ f(pts).sum(axis=0))


def quad_reference(f, a, b, tol=1e-12, abs_tol=0.0):
    """Adaptive QUADPACK integral of the scalar function ``f`` over [a, b]
    at relative tolerance ``tol``, or absolute tolerance ``abs_tol``
    (integrals that vanish, such as odd moments, cannot meet a relative
    one)."""
    value, _ = quad(f, a, b, epsabs=abs_tol, epsrel=tol, limit=1000)
    return value


def central_diff(f, x, h=1e-5):
    x, h = np.longdouble(x), np.longdouble(h)
    return float((f(x + h) - f(x - h)) / (2.0 * h))


def central_diff2(f, x, h=1e-5):
    # extended precision: in double the difference noise 4*eps/h^2 ~ 4e-6
    # would swamp the 1e-6 agreement this oracle certifies
    x, h = np.longdouble(x), np.longdouble(h)
    return float((f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h))


def pl_energy(h_eval, eps, nodes, phi, order=20):
    """Rescaled Dirichlet energy of a piecewise-linear profile, from raw
    cell masses of exp(-H/eps) on the given partition."""
    g, w = np.polynomial.legendre.leggauss(order)
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * g[None, :]
    wts = half[:, None] * w[None, :]
    cell_mass = (wts * np.exp(-h_eval(pts) / eps)).sum(axis=1)
    z = cell_mass.sum()
    tau = eps * math.exp(1.0 / eps)
    h = np.diff(nodes)
    slopes = np.diff(phi) / h
    return (tau / z) * float((slopes * slopes * cell_mass).sum())


def qp_minimum(h_eval, eps, nodes, order=20):
    """Minimum and minimizer of the piecewise-linear connection program.

    Stationarity of the quadratic program is a tridiagonal system whose
    solution is the constant-flux chain: cell resistances h^2 / cell_mass,
    cumulative resistance gives the minimizer, total resistance the minimum.
    Solving the chain directly avoids amplifying roundoff through the huge
    well conductances.
    """
    g, w = np.polynomial.legendre.leggauss(order)
    a, b = nodes[:-1], nodes[1:]
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    pts = mid[:, None] + half[:, None] * g[None, :]
    wts = half[:, None] * w[None, :]
    cell_mass = (wts * np.exp(-h_eval(pts) / eps)).sum(axis=1)
    z = cell_mass.sum()
    tau = eps * math.exp(1.0 / eps)
    h = np.diff(nodes)
    resistance = h * h / cell_mass
    total = resistance.sum()
    k_min = (tau / z) / total
    phi = -0.5 + np.concatenate([[0.0], np.cumsum(resistance)]) / total
    phi[-1] = 0.5
    return k_min, phi


def heat_mode_decay(amplitude, mode, t):
    """Neumann heat-equation mode cos(mode*pi*x) amplitude at time t."""
    return amplitude * math.exp(-((mode * math.pi) ** 2) * t)


def csr(bands):
    """The sparse CSR matrix of the (3, n) bands of a 1-D form factor: the
    left coefficient, the diagonal and the right coefficient of each row."""
    return sp.diags([bands[0, 1:], bands[1], bands[2, :-1]], [-1, 0, 1],
                    format="csr")


def x_factors(x_nodes):
    """The sparse hat-function mass M_x and stiffness K_x on the 1-D nodes
    ``x_nodes``, from the exact cell integrals h/3, h/6 and 1/h: the nodal
    x-factors of the limit forms."""
    h = np.diff(x_nodes)

    def chain(off, cell):
        diag = np.zeros(len(h) + 1)
        diag[:-1] += cell
        diag[1:] += cell
        return sp.diags([off, diag, off], [-1, 0, 1], format="csr")

    return chain(h / 6.0, h / 3.0), chain(-1.0 / h, 1.0 / h)


def limit_pair_solution(lf, u_minus, u_plus, t):
    """The exact solution at time ``t`` of the semi-discrete limit system
    M w' + A w = 0 of the limit forms ``lf`` from the nodal pair
    (``u_minus``, ``u_plus``): (u_minus(t), u_plus(t)).

    In the eigenbasis of the pencil (K_x, M_x) of :func:`x_factors` on the
    nodes of ``lf``, from a dense generalized eigensolver, mode k obeys
    y_k' = -(lam_k I + R) y_k with R = [[k_f, -k_b], [-k_f, k_b]].
    R^2 = s R for s = k_f + k_b, so
    y_k(t) = e^{-lam_k t} (y_k - phi(t) R y_k), phi(t) = (1 - e^{-st}) / s
    (phi = t at s = 0). Mode 0, the constants, is the two-state exchange:
    the total is conserved and the deviation from the stationary split
    decays at the rate s (2k for equal rates k).
    """
    M_x, K_x = x_factors(lf.x_nodes)
    lam, V = scipy.linalg.eigh(K_x.toarray(), M_x.toarray())
    Y = V.T @ (M_x @ np.stack([u_minus, u_plus], axis=1))
    s = lf.rate_forward + lf.rate_backward
    phi = t if s == 0.0 else -math.expm1(-s * t) / s
    transfer = lf.rate_forward * Y[:, 0] - lf.rate_backward * Y[:, 1]
    Y = np.exp(-lam * t)[:, None] * (
        Y - phi * np.stack([transfer, -transfer], axis=1))
    u_minus, u_plus = (V @ Y).T
    return u_minus, u_plus


def kron_forms(forms):
    """The 2-D sparse mass M_x (x) M_xi and the stiffness parts
    A1 = K_x (x) M_xi, A2 = M_x (x) K_xi of eps-level forms, assembled with
    ``scipy.sparse.kron`` from their 1-D factors."""
    M_x, K_x, M_xi, K_xi = (csr(b) for b in (forms.M_x, forms.K_x,
                                              forms.M_xi, forms.K_xi))
    M = sp.kron(M_x, M_xi, format="csr")
    A1 = sp.kron(K_x, M_xi, format="csr")
    A2 = sp.kron(M_x, K_xi, format="csr")
    return M, A1, A2


def block_forms(lf):
    """The block mass M = 1/2 I (x) M_x and stiffness
    A = 1/2 I (x) K_x + 1/2 R (x) M_x, R = [[k_f, -k_b], [-k_f, k_b]], of
    limit forms, assembled with ``scipy.sparse.bmat`` from the
    :func:`x_factors` on their nodes."""
    half, kf, kb = 0.5, lf.rate_forward, lf.rate_backward
    M_x, K_x = x_factors(lf.x_nodes)
    M = sp.bmat([[half * M_x, None], [None, half * M_x]], format="csr")
    react = sp.bmat([[half * kf * M_x, -half * kb * M_x],
                     [-half * kf * M_x, half * kb * M_x]], format="csr")
    A = (sp.bmat([[half * K_x, None], [None, half * K_x]],
                 format="csr") + react).tocsr()
    return M, A


def whole_grid_observables(forms, field, fns):
    """Tensor Gauss quadrature of each f(x, xi, u) against the reference
    measure exp(-H/eps - log_z), with u the bilinear interpolant of
    ``field``: every tensor point of the grid evaluated at once and summed
    by one einsum per function."""
    order = forms.grid.quad_order
    g, w = np.polynomial.legendre.leggauss(order)
    s = 0.5 * (1.0 + g)

    def panels(nodes):
        mid, half = 0.5 * (nodes[1:] + nodes[:-1]), 0.5 * np.diff(nodes)
        return mid[:, None] + half[:, None] * g, half[:, None] * w

    def interp(values):
        return values[..., :-1, None] * (1.0 - s) + values[..., 1:, None] * s

    xq, xw = panels(forms.grid.x_nodes)
    xiq, xiw = panels(forms.grid.xi_nodes)
    gamma_w = xiw * np.exp(-forms.measure.profile.eval(xiq) / forms.eps
                           - forms.measure.log_z)
    # shape (x-cells, order, xi-cells, order)
    Uq = interp(np.moveaxis(interp(field.values.T), 0, -1))
    xq, xiq = xq[:, :, None, None], xiq[None, None, :, :]
    return [float(np.einsum("ca,db,cadb->", xw, gamma_w, np.broadcast_to(
        np.asarray(f(xq, xiq, Uq), dtype=float), Uq.shape))) for f in fns]


def inline_scale(profile, eps, xi):
    """The reference density at ``xi``, k_eps and q_eps at scale ``eps``,
    each written out as one inline expression that integrates its own
    log Z_eps, from the package's Gibbs integrals, optimal profile and
    8-point panel rule: (density, k_eps, q_eps)."""
    from kramerslab import gibbs
    from kramerslab.grid_forms import graded_nodes
    from kramerslab.quadrature import PanelRule
    from kramerslab.transition import transition_profile

    h = profile.eval
    density = np.exp(-np.asarray(h(xi), dtype=float) / eps
                     - gibbs.log_partition(profile, eps))
    rate = math.exp(math.log(eps) - gibbs.log_partition(profile, eps)
                    - gibbs.log_barrier_integral(profile, eps))
    nodes = graded_nodes(801, delta=0.2, power=2.0,
                         fractions=(0.45, 0.25, 0.30))
    rule = PanelRule(nodes, 8)
    vq = rule.interp(transition_profile(profile, eps, nodes))
    dens = np.exp(-np.asarray(h(rule.pts), dtype=float) / eps
                  - gibbs.log_partition(profile, eps))
    return density, rate, float((rule.wts * dens * vq * vq).sum())
