"""Tensor-product hat-function discretization of (0,1) x (-1,1).

Assembles the weighted mass form and the split stiffness (spatial part plus
time-rescaled reaction-coordinate part) of the evolution problem, and the
forms of the two-species limit system, both kept as their 1-D factors. The
weight is evaluated at the quadrature points, never lumped, so the discrete
energy identities of the variational formulation hold exactly.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from . import gibbs
from .enthalpy import EnthalpyProfile
from .quadrature import gauss_rule, panel_points

__all__ = [
    "AssemblyError", "Grid", "Field", "LimitField", "FormMatrices",
    "LimitFormMatrices", "Stencil", "graded_nodes", "build_grid", "assemble",
    "assemble_limit", "assemble_limit_rates", "b_form", "pair_measure",
    "pair_limit", "nonlinear_observable", "nonlinear_observables",
    "nonlinear_observable_limit", "paired", "mass_matrix_1d",
    "stiffness_matrix_1d", "xi_node_functional", "l2_norm_x",
]


class AssemblyError(RuntimeError):
    pass


def graded_nodes(n, delta=0.2, power=2.0, fractions=(0.35, 0.30, 0.35)):
    """Symmetric reaction-coordinate nodes clustered near 0 and near +-1.

    ``n`` must be odd so that 0 is a node. The half grid on [0, 1] is split
    into [0, delta], [delta, 1-delta], [1-delta, 1]; the two outer zones are
    power-graded toward their cluster point (the saddle at 0, the well at 1),
    the middle zone is uniform. ``fractions`` allocates cells to the zones.
    """
    if n < 5 or n % 2 == 0:
        raise ValueError("graded grids need an odd node count n >= 5")
    if not 0.0 < delta < 0.5:
        raise ValueError("delta must lie in (0, 1/2)")
    cells = (n - 1) // 2
    c_in = max(2, int(round(fractions[0] * cells)))
    c_out = max(2, int(round(fractions[2] * cells)))
    c_mid = cells - c_in - c_out
    if c_mid < 1:
        raise ValueError(f"node count {n} too small for a three-zone grading")
    inner = delta * (np.arange(c_in + 1) / c_in) ** power
    mid = np.linspace(delta, 1.0 - delta, c_mid + 1)
    outer = 1.0 - delta * ((np.arange(c_out + 1) / c_out) ** power)[::-1]
    half = np.concatenate([inner, mid[1:], outer[1:]])
    half[0] = 0.0
    half[-1] = 1.0
    return np.concatenate([-half[::-1], half[1:]])


@dataclass(frozen=True)
class Grid:
    """Tensor grid: x-nodes on [0, 1], reaction-coordinate nodes on [-1, 1]."""

    x_nodes: np.ndarray
    xi_nodes: np.ndarray
    quad_order: int = 4

    def __post_init__(self):
        x = np.ascontiguousarray(self.x_nodes, dtype=float)
        xi = np.ascontiguousarray(self.xi_nodes, dtype=float)
        object.__setattr__(self, "x_nodes", x)
        object.__setattr__(self, "xi_nodes", xi)
        if len(x) < 3 or len(xi) < 3:
            raise ValueError("need at least 3 nodes per direction")
        if np.any(np.diff(x) <= 0.0) or np.any(np.diff(xi) <= 0.0):
            raise ValueError("nodes must be strictly increasing")
        if x[0] != 0.0 or x[-1] != 1.0:
            raise ValueError("x-nodes must span [0, 1] exactly")
        if xi[0] != -1.0 or xi[-1] != 1.0:
            raise ValueError("xi-nodes must span [-1, 1] exactly")
        if not np.any(xi == 0.0):
            raise ValueError("xi = 0 must be a node")
        if self.quad_order < 1:
            raise ValueError("quad_order must be at least 1")

    @property
    def nx(self):
        return len(self.x_nodes)

    @property
    def nxi(self):
        return len(self.xi_nodes)


def build_grid(nx, nxi, grading="three_zone", delta=0.2, power=2.0,
               quad_order=4):
    """Tensor grid with ``nx`` uniform x-nodes and ``nxi`` xi-nodes.

    ``nxi`` must be odd in either grading so that the saddle is a node.
    """
    if nx < 4 or nxi < 4:
        raise ValueError("build_grid needs nx >= 4 and nxi >= 4")
    if nxi % 2 == 0:
        raise ValueError("nxi must be odd so that xi = 0 is a node")
    x = np.linspace(0.0, 1.0, nx)
    if grading == "uniform":
        xi = np.linspace(-1.0, 1.0, nxi)
        xi[(nxi - 1) // 2] = 0.0
    elif grading == "three_zone":
        xi = graded_nodes(nxi, delta=delta, power=power)
    else:
        raise ValueError(f"unknown grading {grading!r}")
    return Grid(x_nodes=x, xi_nodes=xi, quad_order=quad_order)


@dataclass
class Field:
    """Nodal values of a density against the eps-reference measure."""

    values: np.ndarray
    grid: Grid
    eps: float

    def __post_init__(self):
        self.values = np.ascontiguousarray(self.values, dtype=float)
        expected = (self.grid.nx, self.grid.nxi)
        if self.values.shape != expected:
            raise ValueError(
                f"field shape {self.values.shape} does not match grid {expected}")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("field values must be finite")

    def ravel(self):
        return self.values.reshape(-1)

    def copy(self):
        return Field(self.values.copy(), self.grid, self.eps)


@dataclass
class LimitField:
    """Pair of nodal 1D functions on the x-grid, one per well."""

    u_minus: np.ndarray
    u_plus: np.ndarray
    x_nodes: np.ndarray

    def __post_init__(self):
        self.u_minus = np.ascontiguousarray(self.u_minus, dtype=float)
        self.u_plus = np.ascontiguousarray(self.u_plus, dtype=float)
        self.x_nodes = np.ascontiguousarray(self.x_nodes, dtype=float)
        if not (len(self.u_minus) == len(self.u_plus) == len(self.x_nodes)):
            raise ValueError("limit field components must have equal length")
        if not (np.all(np.isfinite(self.u_minus))
                and np.all(np.isfinite(self.u_plus))):
            raise ValueError("limit field values must be finite")

    def stack(self):
        return np.concatenate([self.u_minus, self.u_plus])

    def copy(self):
        return LimitField(self.u_minus.copy(), self.u_plus.copy(), self.x_nodes)


def _weighted_points(nodes, order, weight=None, log_weight=None):
    """Panel Gauss weights times the weight (or exp of ``log_weight``)
    sampled at the panel Gauss points; shape (ncells, order)."""
    pts, wts = panel_points(nodes, order)
    if log_weight is not None:
        return wts * np.exp(log_weight(pts))
    if weight is not None:
        return wts * weight(pts)
    return wts


def _mass_cells(nodes, order, weight=None, log_weight=None):
    """Per-cell 2x2 hat-function mass blocks (m00, m01, m11) and cell masses."""
    wq = _weighted_points(nodes, order, weight, log_weight)
    g, _ = gauss_rule(order)
    s = 0.5 * (1.0 + g)
    n0 = 1.0 - s
    m00 = wq @ (n0 * n0)
    m01 = wq @ (n0 * s)
    m11 = wq @ (s * s)
    return m00, m01, m11, wq.sum(axis=1)


def mass_matrix_1d(nodes, weight=None, order=4, log_weight=None):
    """Tridiagonal hat-function mass matrix with the weight sampled at the
    panel Gauss points (not lumped)."""
    nodes = np.asarray(nodes, dtype=float)
    m00, m01, m11, _ = _mass_cells(nodes, order, weight, log_weight)
    n = len(nodes)
    diag = np.zeros(n)
    diag[:-1] += m00
    diag[1:] += m11
    return sp.diags([m01, diag, m01], [-1, 0, 1], format="csr")


def stiffness_cells(nodes, weight=None, order=4, log_weight=None):
    """Per-cell conductances g_c = (integral of the weight over the cell) / h^2.

    The 1D stiffness is exactly the chain sum of rank-one difference stencils
    with these coefficients; keeping them separate allows applying the
    operator in incidence form (difference, scale, difference), where every
    floating-point product is proportional to the true local flux.
    """
    nodes = np.asarray(nodes, dtype=float)
    wq = _weighted_points(nodes, order, weight, log_weight)
    h = np.diff(nodes)
    return wq.sum(axis=1) / (h * h)


def stiffness_from_cells(g_cell):
    n = len(g_cell) + 1
    diag = np.zeros(n)
    diag[:-1] += g_cell
    diag[1:] += g_cell
    return sp.diags([-g_cell, diag, -g_cell], [-1, 0, 1], format="csr")


def stiffness_matrix_1d(nodes, weight=None, order=4, log_weight=None):
    """Tridiagonal hat-function stiffness matrix; constants are in its kernel
    (each cell contributes the graph-Laplacian stencil)."""
    return stiffness_from_cells(
        stiffness_cells(nodes, weight=weight, order=order,
                        log_weight=log_weight))


def _pair(v, f):
    """The sum of v * f over all entries."""
    return float(np.vdot(v, f))


def _bands(T):
    """(3, n) rows of a symmetric tridiagonal matrix: the coefficient of the
    left neighbour, the diagonal, the coefficient of the right neighbour
    (zero past either end)."""
    off = T.diagonal(1)
    return np.stack([np.concatenate([[0.0], off]), T.diagonal(),
                     np.concatenate([off, [0.0]])])


def _tridiag(bands, V):
    """The tridiagonal matrix of ``bands`` applied along the last axis of
    ``V``. Each row sums left neighbour, diagonal, right neighbour in that
    order, as a CSR matvec does, so the two agree bit for bit."""
    out = bands[1] * V
    out[..., 1:] += bands[0, 1:] * V[..., :-1]
    out[..., :-1] += bands[2, :-1] * V[..., 1:]
    return out


class Stencil:
    """The stiffness at one state u, in incidence form.

    ``au`` is A u; ``parts`` holds, per part of the energy, the differences
    D u and the fluxes F u, such that the bilinear form of two states pairs
    the differences of one with the fluxes of the other:
    u^T A w = sum over parts of D u . F w. So a1 and a2 are sums of
    difference times flux. At the eps level F u is the conductance times
    the 1-D mass across D u.
    """

    def __init__(self, au, parts):
        self.au = au
        self.parts = parts

    @functools.cached_property
    def a1(self):
        return _pair(*self.parts[0])

    @functools.cached_property
    def a2(self):
        return _pair(*self.parts[1])

    @property
    def a(self):
        return self.a1 + self.a2

    def cross(self, other):
        """u^T A w + w^T A u of this state u and the state w of ``other``."""
        return sum(_pair(v, g) + _pair(w, f) for (v, f), (w, g)
                   in zip(self.parts, other.parts))


@dataclass(frozen=True)
class FormMatrices:
    """The forms at one value of eps, kept as their 1-D factors.

    The weighted mass is M = M_x (x) M_xi, the x-stiffness
    A1 = K_x (x) M_xi, the time-rescaled xi-stiffness A2 = M_x (x) K_xi and
    A = A1 + A2. They act through the factors: M u is M_x U M_xi on the
    nodal grid U, and the stiffness is applied in incidence form, from the
    per-cell conductances ``g_x``, ``g_xi``: differences first, then the
    1-D mass across them, then the conductance. The xi-conductances are of
    size clock * density and a plain sparse matvec against an O(1) field
    would drown conserved functionals in eps_mach * |A| noise, while the
    incidence form keeps every product proportional to the local flux. No
    run of the package builds the 2-D sparse ``M`` and ``A``: they are
    built on first use, for ``perfbench/probe.py`` and the tests.
    """

    M_x: sp.csr_matrix
    K_x: sp.csr_matrix
    M_xi: sp.csr_matrix
    K_xi: sp.csr_matrix
    g_x: np.ndarray
    g_xi: np.ndarray
    grid: Grid
    profile: EnthalpyProfile
    eps: float
    log_z: float
    log_tau_shift: float = 0.0
    underflow_cells: tuple = ()

    @functools.cached_property
    def M(self):
        return sp.kron(self.M_x, self.M_xi, format="csr")

    @functools.cached_property
    def A(self):
        return (sp.kron(self.K_x, self.M_xi, format="csr")
                + sp.kron(self.M_x, self.K_xi, format="csr")).tocsr()

    @property
    def n(self):
        return self.grid.nx * self.grid.nxi

    def _as_grid(self, u):
        if isinstance(u, Field):
            return u.values
        return np.asarray(u, dtype=float).reshape(self.grid.nx, self.grid.nxi)

    def apply_m(self, u):
        """M u = M_x U M_xi; flat output."""
        U = self._as_grid(u)
        return (self.M_x @ (self.M_xi @ U.T).T).reshape(-1)

    def _x_part(self, U):
        """x-differences of U and their fluxes g_x (dU M_xi)."""
        V = np.diff(U, axis=0)
        return V, np.multiply((self.M_xi @ V.T).T, self.g_x[:, None],
                              order="C")

    def _xi_part(self, U):
        """xi-differences of U and their fluxes (M_x dU) g_xi."""
        V = np.diff(U, axis=1)
        F = self.M_x @ V
        F *= self.g_xi
        return V, F

    def _parts(self, u):
        U = self._as_grid(u)
        return self._x_part(U), self._xi_part(U)

    def _divergence(self, parts):
        """A u = D^T F: each flux leaves the lower node of its cell and
        enters the upper one; flat output."""
        (_, F1), (_, F2) = parts
        out = np.zeros((self.grid.nx, self.grid.nxi))
        out[:-1] -= F1
        out[1:] += F1
        out[:, :-1] -= F2
        out[:, 1:] += F2
        return out.reshape(-1)

    def stencil(self, u):
        """A u and the energy split of ``u`` from one pass over the field."""
        parts = self._parts(u)
        return Stencil(self._divergence(parts), parts)

    def apply_a(self, u):
        return self._divergence(self._parts(u))

    def a1_energy(self, u):
        """x-part of the energy as a nonnegative sum over x-cells."""
        return _pair(*self._x_part(self._as_grid(u)))

    def a2_energy(self, u):
        """xi-part of the energy as a nonnegative sum over xi-cells."""
        return _pair(*self._xi_part(self._as_grid(u)))

    def a_energy(self, u):
        return self.a1_energy(u) + self.a2_energy(u)


def assemble(grid, profile, eps, log_tau_shift=0.0, tol=1e-12,
             quad_order=None):
    """Assemble the weighted Galerkin matrices at scale ``eps``.

    The xi-stiffness weight combines the time-rescaling factor and the
    reference density in one exponent per quadrature point,
    log(eps) + shift + (1 - H(xi))/eps - log_z, evaluated as a single sum
    before exponentiating. ``log_tau_shift`` rescales the reaction clock for
    the off-critical scaling experiments (0 critical, log(eps) subcritical,
    -log(eps) supercritical).
    """
    if not gibbs.EPS_FLOOR <= eps <= gibbs.EPS_CEIL:
        raise ValueError(
            f"eps = {eps!r} outside [{gibbs.EPS_FLOOR}, {gibbs.EPS_CEIL}]: "
            "below the floor the barrier weight exp(-1/eps) drowns in the "
            "roundoff of the well entries and the assembled stiffness loses "
            "the barrier region")
    order = grid.quad_order if quad_order is None else quad_order
    log_z = gibbs.log_partition(profile, eps, tol)
    h = profile.eval

    def density(xi):
        return np.exp(-np.asarray(h(xi), dtype=float) / eps - log_z)

    def stiff_exponent(xi):
        return (math.log(eps) + log_tau_shift
                + (1.0 - np.asarray(h(xi), dtype=float)) / eps - log_z)

    M_x = mass_matrix_1d(grid.x_nodes, order=order)
    g_x = stiffness_cells(grid.x_nodes, order=order)
    K_x = stiffness_from_cells(g_x)

    m00, m01, m11, cell_mass = _mass_cells(grid.xi_nodes, order, weight=density)
    nxi = grid.nxi
    diag = np.zeros(nxi)
    diag[:-1] += m00
    diag[1:] += m11
    M_xi = sp.diags([m01, diag, m01], [-1, 0, 1], format="csr")
    underflow = tuple(int(c) for c in np.nonzero(cell_mass == 0.0)[0])
    if np.any(M_xi.diagonal() <= 0.0):
        raise AssemblyError(
            f"weighted mass lost positive definiteness at eps = {eps}: "
            f"cells {underflow} underflowed to zero")

    g_xi = stiffness_cells(grid.xi_nodes, order=order,
                           log_weight=stiff_exponent)
    K_xi = stiffness_from_cells(g_xi)

    return FormMatrices(M_x=M_x, K_x=K_x, M_xi=M_xi, K_xi=K_xi, g_x=g_x,
                        g_xi=g_xi, grid=grid, profile=profile, eps=eps,
                        log_z=log_z, log_tau_shift=log_tau_shift,
                        underflow_cells=underflow)


def _vec(u):
    if isinstance(u, Field):
        return u.values.reshape(-1)
    if isinstance(u, LimitField):
        return u.stack()
    return np.asarray(u, dtype=float).reshape(-1)


def b_form(M, u, v):
    """Mass pairing u^T M v, with M a matrix or its action v -> M v;
    symmetric in (u, v) bitwise."""
    apply = M if callable(M) else M.__matmul__
    uu = _vec(u)
    vv = _vec(v)
    if uu.shape != vv.shape:
        raise ValueError(f"shape mismatch: {uu.shape} vs {vv.shape}")
    if uu is vv or np.array_equal(uu, vv):
        return float(uu @ apply(uu))
    # polarization keeps the evaluation bitwise symmetric in (u, v)
    s = uu + vv
    d = uu - vv
    return 0.25 * (float(s @ apply(s)) - float(d @ apply(d)))


@dataclass(frozen=True)
class LimitFormMatrices:
    """The forms of the two-species limit system over w = (u_minus, u_plus),
    kept as their 1-D factors.

    The mass is M = 1/2 I (x) M_x and the stiffness
    A = 1/2 I (x) K_x + 1/2 R (x) M_x, with the reaction matrix
    R = [[k_f, -k_b], [-k_f, k_b]]. They act on the (2, nx) pair through the
    bands of M_x and K_x. Offers the forms interface of
    :class:`FormMatrices` that the theta integrator uses; the energy splits
    into the diffusion part ``a1`` and the reaction part ``a2``.
    """

    M_x: sp.csr_matrix
    K_x: sp.csr_matrix
    x_nodes: np.ndarray
    rate_forward: float   # minus -> plus
    rate_backward: float  # plus -> minus

    eps = 0.0  # the limit of the eps-level forms

    @functools.cached_property
    def bands(self):
        """The bands of M_x and of K_x, each (3, nx) (see ``_bands``)."""
        return _bands(self.M_x), _bands(self.K_x)

    @property
    def n(self):
        return 2 * len(self.x_nodes)

    def apply_m(self, w):
        W = _vec(w).reshape(2, -1)
        return 0.5 * _tridiag(self.bands[0], W).reshape(-1)

    def _parts(self, w):
        """Diffusion: both densities and half their K_x-fluxes; reaction:
        the well gap u_minus - u_plus and half the x-mass of the net
        transfer k_f u_minus - k_b u_plus (with equal rates k, a2 is k/2
        times the squared gap)."""
        W = _vec(w).reshape(2, -1)
        um, up = W
        m, k = self.bands
        transfer = self.rate_forward * um - self.rate_backward * up
        return ((W, 0.5 * _tridiag(k, W)),
                (um - up, 0.5 * _tridiag(m, transfer)))

    def stencil(self, w):
        """A w and the energy split of ``w``, as for the eps-level forms: A w
        is the diffusion flux of each density plus the transfer, which
        leaves u_minus and enters u_plus."""
        parts = self._parts(w)
        (_, F1), (_, F2) = parts
        return Stencil((F1 + [F2, -F2]).reshape(-1), parts)

    def apply_a(self, w):
        return self.stencil(w).au


def assemble_limit_rates(x_nodes, rate_forward, rate_backward, quad_order=4):
    """Limit forms of the two-species system with distinct rates; the
    stiffness is nonsymmetric unless the two rates coincide."""
    for name, rate in (("rate_forward", rate_forward),
                       ("rate_backward", rate_backward)):
        if not 0.0 <= rate < math.inf:
            raise ValueError(f"{name} must be finite and nonnegative, "
                             f"got {rate!r}")
    x_nodes = np.asarray(x_nodes, dtype=float)
    return LimitFormMatrices(
        M_x=mass_matrix_1d(x_nodes, order=quad_order),
        K_x=stiffness_matrix_1d(x_nodes, order=quad_order), x_nodes=x_nodes,
        rate_forward=rate_forward, rate_backward=rate_backward)


def assemble_limit(x_nodes, k, quad_order=4):
    """Symmetric limit forms: equal exchange rate ``k`` between the wells."""
    return assemble_limit_rates(x_nodes, k, k, quad_order=quad_order)


def _panel_interp(values, order):
    """Values of the nodal piecewise-linear interpolant, along the last axis,
    at the panel Gauss points of its own partition; shape
    (..., ncells, order)."""
    g, _ = gauss_rule(order)
    s = 0.5 * (1.0 + g)
    return values[..., :-1, None] * (1.0 - s) + values[..., 1:, None] * s


def nonlinear_observables(forms, field, fns):
    """Quadrature of each f(x, xi, u) in ``fns`` against the reference
    measure, with u the bilinear interpolant of ``field`` at the tensor
    panel Gauss points; the interpolant and the weights are built once for
    all of them. Returns a list of floats, one per function."""
    grid = forms.grid
    order = grid.quad_order
    xq, xw = panel_points(grid.x_nodes, order)
    xiq, xiw = panel_points(grid.xi_nodes, order)
    gamma_w = xiw * np.exp(
        -np.asarray(forms.profile.eval(xiq), dtype=float) / forms.eps
        - forms.log_z)
    # interpolate in x, then in xi: shape (x-cells, order, xi-cells, order);
    # einsum sums in memory order, so Uq must be C-ordered for its rounding
    # not to depend on how it was built
    Uq = _panel_interp(np.ascontiguousarray(np.moveaxis(
        _panel_interp(field.values.T, order), 0, -1)), order)
    xq, xiq = xq[:, :, None, None], xiq[None, None, :, :]
    # each f's values are freed as soon as they are summed
    return [float(np.einsum("ca,db,cadb->", xw, gamma_w, np.broadcast_to(
        np.asarray(f(xq, xiq, Uq), dtype=float), Uq.shape))) for f in fns]


def nonlinear_observable(forms, field, f):
    """Quadrature of f(x, xi, u) against the reference measure, with u the
    bilinear interpolant of ``field`` at the tensor panel Gauss points."""
    return nonlinear_observables(forms, field, [f])[0]


def paired(phi):
    """The observable f(x, xi, u) = phi(x, xi) u of a test function."""
    return lambda x, xi, u: phi(x, xi) * u


def pair_measure(forms, field, phi):
    """Duality pairing of the measure (field * reference) with ``phi(x, xi)``."""
    return nonlinear_observable(forms, field, paired(phi))


def nonlinear_observable_limit(lf, f, quad_order=4):
    """Limit counterpart of :func:`nonlinear_observable`: f(x, xi, u)
    averaged over the two well lines xi = -1 and xi = 1."""
    xq, xw = panel_points(lf.x_nodes, quad_order)
    um = _panel_interp(lf.u_minus, quad_order)
    up = _panel_interp(lf.u_plus, quad_order)
    fm = np.broadcast_to(np.asarray(f(xq, -1.0, um), dtype=float), um.shape)
    fp = np.broadcast_to(np.asarray(f(xq, 1.0, up), dtype=float), up.shape)
    return 0.5 * (float((xw * fm).sum()) + float((xw * fp).sum()))


def pair_limit(lf, phi, quad_order=4):
    """Pairing of the two-line limit measure with ``phi(x, xi)``."""
    return nonlinear_observable_limit(lf, paired(phi), quad_order)


def xi_node_functional(grid, fn, order=None):
    """Nodal weights w_j = integral of hat_j(xi) * fn(xi); w @ u gives the
    fn-weighted xi-average of a field row by row."""
    order = grid.quad_order if order is None else order
    pts, wts = panel_points(grid.xi_nodes, order)
    vals = wts * fn(pts)
    g, _ = gauss_rule(order)
    s = 0.5 * (1.0 + g)
    w = np.zeros(grid.nxi)
    w[:-1] += vals @ (1.0 - s)
    w[1:] += vals @ s
    return w


def l2_norm_x(M_x, values):
    """L2 norm over the spatial domain of a nodal 1D function."""
    v = np.asarray(values, dtype=float)
    return math.sqrt(max(float(v @ (M_x @ v)), 0.0))
