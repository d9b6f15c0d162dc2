"""Independent numerical oracles for the test suite.

Everything here deliberately avoids the package's own quadrature and
assembly paths: fixed-grid composite rules, scipy's QUADPACK integrator,
finite differences, and the closed chain solution of the piecewise-linear
connection program, and the 2-D sparse Kronecker products and block
matrices of the 1-D form factors. Only the tests import ``scipy.integrate``.
"""
import math

import numpy as np
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


def quad_reference(f, a, b, tol=1e-12):
    """Adaptive QUADPACK integral of the scalar function ``f`` over [a, b]
    at relative tolerance ``tol``."""
    value, _ = quad(f, a, b, epsabs=0.0, epsrel=tol, limit=1000)
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


def pair_ode_solution(c_minus, c_plus, rate, t):
    """Two-state exchange at equal rate: mean conserved, gap decays at 2*rate."""
    mean = 0.5 * (c_minus + c_plus)
    gap = c_plus - c_minus
    decay = math.exp(-2.0 * rate * t)
    return mean - 0.5 * gap * decay, mean + 0.5 * gap * decay


def kron_forms(forms):
    """The 2-D sparse mass M_x (x) M_xi and the stiffness parts
    A1 = K_x (x) M_xi, A2 = M_x (x) K_xi of eps-level forms, assembled with
    ``scipy.sparse.kron`` from their 1-D factors."""
    M = sp.kron(forms.M_x, forms.M_xi, format="csr")
    A1 = sp.kron(forms.K_x, forms.M_xi, format="csr")
    A2 = sp.kron(forms.M_x, forms.K_xi, format="csr")
    return M, A1, A2


def block_forms(lf):
    """The block mass M = 1/2 I (x) M_x and stiffness
    A = 1/2 I (x) K_x + 1/2 R (x) M_x, R = [[k_f, -k_b], [-k_f, k_b]], of
    limit forms, assembled with ``scipy.sparse.bmat`` from their 1-D
    factors."""
    half, kf, kb, M_x = 0.5, lf.rate_forward, lf.rate_backward, lf.M_x
    M = sp.bmat([[half * M_x, None], [None, half * M_x]], format="csr")
    react = sp.bmat([[half * kf * M_x, -half * kb * M_x],
                     [-half * kf * M_x, half * kb * M_x]], format="csr")
    A = (sp.bmat([[half * lf.K_x, None], [None, half * lf.K_x]],
                 format="csr") + react).tocsr()
    return M, A
