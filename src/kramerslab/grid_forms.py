"""Tensor-product hat-function discretization of (0,1) x (-1,1).

Assembles the weighted mass form and the split stiffness (spatial part plus
time-rescaled reaction-coordinate part) of the evolution problem as 1-D
factors, and the forms of both levels in their x-modes, where each level's
forms own the block solve of its theta step M + cA. The weight is evaluated
at the quadrature points, never lumped, so the discrete energy identities of
the variational formulation hold exactly.
"""
from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gibbs
from .quadrature import QUAD_ORDER, PanelRule, check_quad_order

__all__ = [
    "AssemblyError", "SolverError", "Grid", "Field", "LimitField",
    "FormMatrices", "XBasis", "ModalForms", "ModalLimitForms", "Stencil",
    "graded_nodes", "build_grid",
    "assemble", "assemble_limit", "assemble_limit_rates", "b_form",
    "pair_measure", "pair_limit", "nonlinear_observable",
    "nonlinear_observables", "nonlinear_observable_limit", "paired",
    "ProductTest", "apply_x", "l2_norm_x",
]


class AssemblyError(RuntimeError):
    pass


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


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


def _whole(n, least):
    """Whether ``n`` is an integer, not a bool, of at least ``least``."""
    return isinstance(n, numbers.Integral) and not isinstance(n, bool) \
        and n >= least


@dataclass(frozen=True)
class Grid:
    """Tensor grid: ``nx`` uniform x-nodes on [0, 1], xi-nodes on [-1, 1].

    Construction raises ValueError("nx: ..." or "nxi: ...") for the first
    rule broken: ``nx`` is an integer >= 4, and the xi-nodes are an odd
    count, so that the two-ended sweep meets in one saddle row, strictly
    increasing, spanning [-1, 1], with 0 a node."""

    nx: int
    xi_nodes: np.ndarray
    quad_order: int = QUAD_ORDER

    def __post_init__(self):
        xi = np.ascontiguousarray(self.xi_nodes, dtype=float)
        object.__setattr__(self, "xi_nodes", xi)
        if not _whole(self.nx, 4):
            raise ValueError(f"nx: must be an integer >= 4, got {self.nx!r}")
        if len(xi) % 2 == 0:
            raise ValueError(f"nxi: the two-ended sweep needs an odd count "
                             f"so that the saddle row is one node, got {len(xi)}")
        if np.any(np.diff(xi) <= 0.0):
            raise ValueError("nxi: the xi-nodes must increase strictly")
        if xi[0] != -1.0 or xi[-1] != 1.0 or not np.any(xi == 0.0):
            raise ValueError("nxi: the xi-nodes must span [-1, 1] exactly "
                             "and have 0 as a node")
        check_quad_order(self.quad_order)

    @functools.cached_property
    def x_nodes(self):
        """The uniform x-nodes, as the x-eigenbasis of ModalForms needs."""
        return np.linspace(0.0, 1.0, self.nx)

    @functools.cached_property
    def x_rule(self):
        """The panel rule of the x-partition, built on first use."""
        return PanelRule(self.x_nodes, self.quad_order)

    @functools.cached_property
    def x_mass(self):
        """The bands of the x-mass M_x of every assembly on this grid."""
        return _mass(self.x_rule)

    @functools.cached_property
    def xi_rule(self):
        """The panel rule of the xi-partition, built on first use."""
        return PanelRule(self.xi_nodes, self.quad_order)

    @property
    def nxi(self):
        return len(self.xi_nodes)


def build_grid(nx, nxi, grading="three_zone", quad_order=QUAD_ORDER):
    """Tensor grid with ``nx`` uniform x-nodes and ``nxi`` three-zone graded
    xi-nodes; raises ValueError("grading: ..." or "nxi: ...") for a
    grading or count that :func:`graded_nodes` cannot make, and :class:`Grid`
    checks the rest."""
    if grading != "three_zone":
        raise ValueError(f"grading: unknown grading {grading!r}")
    # the least odd count with a cell in each zone of graded_nodes
    if not _whole(nxi, 11) or nxi % 2 == 0:
        raise ValueError(f"nxi: the three-zone grading needs an odd integer "
                         f">= 11, got {nxi!r}")
    return Grid(nx, graded_nodes(nxi), quad_order)


@dataclass
class Field:
    """Nodal values of a density against the eps-reference measure."""

    values: np.ndarray
    grid: Grid

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


def _chain(off, lower, upper):
    """The (3, n) bands of the symmetric tridiagonal matrix with
    off-diagonal ``off`` whose diagonal sums each cell's ``lower`` entry
    into its lower node and ``upper`` into its upper node: the coefficient
    of the left neighbour, the diagonal, the coefficient of the right
    neighbour, zero past either end."""
    diag = np.zeros(len(off) + 1)
    diag[:-1] += lower
    diag[1:] += upper
    return np.stack([np.append(0.0, off), diag, np.append(off, 0.0)])


def _mass(rule, log_weight=None):
    """Bands of the tridiagonal hat-function mass matrix of the panel
    ``rule``, weighted by exp(``log_weight``) at its points if given."""
    wq = rule.weighted(log_weight)
    return _chain(wq @ (rule.left * rule.right), wq @ (rule.left * rule.left),
                  wq @ (rule.right * rule.right))


def _stiffness(rule, log_weight=None):
    """Per-cell conductances g_c = (integral of the weight over the cell) /
    h^2 by the panel ``rule``, and the bands of the stiffness they make.

    The 1D stiffness is exactly the chain sum of rank-one difference stencils
    with these coefficients; keeping them separate allows applying the
    operator in incidence form (difference, scale, difference), where every
    floating-point product is proportional to the true local flux. Constants
    are in its kernel.
    """
    wq = rule.weighted(log_weight)
    h = np.diff(rule.nodes)
    g = wq.sum(axis=1) / (h * h)
    return g, _chain(-g, g, g)


def _pair(v, f):
    """The sum of v * f over all entries."""
    return float(np.vdot(v, f))


def _tridiag(bands, V, out=None, work=None):
    """The tridiagonal matrix of ``bands`` applied along the last axis of
    ``V``, written into ``out`` if given; ``work``, if given, holds the
    off-diagonal products (one entry fewer than ``V`` along that axis).
    Each row sums left neighbour, diagonal, right neighbour in that order,
    as a CSR matvec does, so the two agree bit for bit."""
    out = np.multiply(bands[1], V, out=out)
    work = np.multiply(bands[0][1:], V[..., :-1], out=work)
    out[..., 1:] += work
    out[..., :-1] += np.multiply(bands[2][:-1], V[..., 1:], out=work)
    return out


def apply_x(bands, V):
    """The x-factor of ``bands`` applied along the first axis of ``V`` (1-D
    or (nx, m)), one pass per band over whole rows: bit for bit the CSR
    product, and C-ordered as it is, so reductions over it sum alike."""
    out = np.empty(np.shape(V))
    _tridiag(bands, V.T, out=out.T)
    return out


class Stencil:
    """The stiffness at one state u, in incidence form.

    ``au`` is A u; ``parts`` holds, per part of the energy, the differences
    D u and the fluxes F u, such that the bilinear form of two states pairs
    the differences of one with the fluxes of the other:
    u^T A w = sum over parts of D u . F w. So a1 and a2 are sums of
    difference times flux. At the eps level F u is the conductance times
    the 1-D mass across D u. All of it is linear in u: ``st += sw`` turns
    the stencil of u into that of u + w in place (so a1 and a2 are summed
    on each access, never cached).
    """

    def __init__(self, au, parts):
        self.au = au
        self.parts = parts

    @property
    def a1(self):
        return _pair(*self.parts[0])

    @property
    def a2(self):
        return _pair(*self.parts[1])

    @property
    def a(self):
        return self.a1 + self.a2

    def cross(self, other):
        """u^T A w + w^T A u of this state u and the state w of ``other``."""
        return sum(_pair(v, g) + _pair(w, f) for (v, f), (w, g)
                   in zip(self.parts, other.parts))

    def __iadd__(self, other):
        self.au += other.au
        for (v, f), (w, g) in zip(self.parts, other.parts):
            v += w
            f += g
        return self


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
    incidence form keeps every product proportional to the local flux.
    Each factor is kept as its (3, n) bands (see :func:`_chain`), applied
    along xi by :func:`_tridiag` and along x by :func:`apply_x`. Only the
    2-D sparse ``M`` and ``A`` load ``scipy.sparse``; they are built on
    first use, by ``perfbench/probe.py`` and the tests, never by a run of
    the package. These are the nodal forms of the diagnostics; the theta
    loop steps the same forms in x-modes (:class:`ModalForms`).

    ``measure`` is the scale's :class:`~kramerslab.gibbs.GibbsMeasure`, the
    one source of eps, log Z_eps and the density that weights M_xi, the
    pairings and the observables.
    """

    M_x: np.ndarray
    K_x: np.ndarray
    M_xi: np.ndarray
    K_xi: np.ndarray
    g_x: np.ndarray
    g_xi: np.ndarray
    grid: Grid
    measure: gibbs.GibbsMeasure

    @property
    def eps(self):
        return self.measure.eps

    @staticmethod
    def _kron(a, b):
        """The 2-D sparse a (x) b of the bands of two factors."""
        import scipy.sparse as sp
        a, b = (sp.diags([t[0, 1:], t[1], t[2, :-1]], [-1, 0, 1],
                         format="csr") for t in (a, b))
        return sp.kron(a, b, format="csr")

    @functools.cached_property
    def M(self):
        return self._kron(self.M_x, self.M_xi)

    @functools.cached_property
    def A(self):
        return (self._kron(self.K_x, self.M_xi)
                + self._kron(self.M_x, self.K_xi)).tocsr()

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
        return apply_x(self.M_x, _tridiag(self.M_xi, U)).reshape(-1)

    def mode_norms(self, u):
        """The M_xi-norm of each x-mode block V^T M_x U of ``u`` (the
        O(n log n) transform of :class:`XBasis`); their squares sum to
        ||u||_M^2 up to rounding."""
        Y = XBasis(self.grid.nx).coefficients(self._as_grid(u).T).T
        return np.sqrt(np.maximum((Y * _tridiag(self.M_xi, Y)).sum(axis=1),
                                  0.0))

    def _x_part(self, U):
        """x-differences of U and their fluxes g_x (dU M_xi)."""
        V = np.diff(U, axis=0)
        return V, _tridiag(self.M_xi, V) * self.g_x[:, None]

    def _xi_part(self, U):
        """xi-differences of U and their fluxes (M_x dU) g_xi."""
        V = np.diff(U, axis=1)
        return V, apply_x(self.M_x, V) * self.g_xi

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
        """A u; no run of the package calls it, ``perfbench`` times it."""
        return self.stencil(u).au

    def a1_energy(self, u):
        """x-part of the energy as a nonnegative sum over x-cells."""
        return _pair(*self._x_part(self._as_grid(u)))

    def a2_energy(self, u):
        """xi-part of the energy as a nonnegative sum over xi-cells."""
        return _pair(*self._xi_part(self._as_grid(u)))

    def a_energy(self, u):
        return self.a1_energy(u) + self.a2_energy(u)


def _dct1(v):
    """sum_j w_j v_j cos(pi j k / n) along the last axis (``XBasis.w``): one
    real FFT of the even extension."""
    return 0.5 * np.fft.rfft(np.concatenate([v, v[..., -2:0:-1]], axis=-1)).real


class XBasis:
    """The closed-form eigenbasis of the uniform P1 x-factors on ``nx``
    nodes, the one owner of its constants (Lynch, Rice & Thomas, Numer.
    Math. 6, 1964): with n = nx - 1, t_k = pi k / n, W = diag(``w``) =
    diag(1/2, 1, ..., 1, 1/2), c_k = cos(pi j k / n) has M_x c_k = mu_k W c_k
    and K_x c_k = lam_k mu_k W c_k, mu_k = (2 + cos t_k) / (3n) and
    lam_k = 6 n^2 (1 - cos t_k) / (2 + cos t_k). V = (c_k / ``norm``_k) has
    V^T M_x V = I, V^T K_x V = diag(``lam``), V^T M_x = (W V diag(mu))^T
    and column 0 exactly 1; :meth:`coefficients` and :meth:`values` apply
    V^T M_x and V along the last axis in O(n log n)."""

    def __init__(self, nx):
        n = nx - 1
        cos = np.cos(np.pi * np.arange(nx) / n)
        self.lam = 6.0 * n * n * (1.0 - cos) / (2.0 + cos)
        # c_k^T W c_k is n at both ends and n / 2 inside
        norm2 = (2.0 + cos) / 6.0
        norm2[[0, -1]] *= 2.0
        self.norm = np.sqrt(norm2)
        self.mu = (2.0 + cos) / (3.0 * n)
        self.w = np.ones(nx)
        self.w[[0, -1]] = 0.5

    def coefficients(self, u):
        """The modes V^T M_x u of the nodal values ``u``."""
        return _dct1(u) * (self.mu / self.norm)

    def values(self, y):
        """The nodal values V y of the modes ``y``."""
        return _dct1(y / (self.norm * self.w))


# ModalForms.factorize solves by the kept blocks' explicit inverse from
# the INVERSE_AFTER-th solve of a factorization on (at least 4, so that a
# two-step run, 3 solves, never builds one), when the inverses take at most
# INVERSE_BYTES and the condition number ||M + cA||_inf ||(M + cA)^{-1}||_inf
# is at most INVERSE_MAX_COND = 1 / u, u = 2^-53: kappa u <= 1, where the
# solves by the inverse were first seen to break a certificate at about 1e4
INVERSE_AFTER = 16
INVERSE_BYTES = 2 << 20
INVERSE_MAX_COND = 2.0 ** 53


def _two_ended_sweep(L, D, cols=()):
    """The solve of the GTH factors of :meth:`ModalForms.factorize`: ``L``
    (m, 2, nb) and the pivots ``D`` (nxi nb), both in the sweep's layout, as
    a function rhs -> x from right-hand sides of nb nxi entries, or of shape
    (nb, nxi, *``cols``), to a fresh (nb, nxi, *cols) solution. The factors
    broadcast along the trailing column axes, so one sweep solves every
    column.

    Pass j of the sweep is row j of the top half and row nxi-1-j of the
    bottom half of every block, one contiguous pass over 2 nb entries (times
    the columns). A solve gathers the right-hand side into that layout, runs
    the forward passes, the twist row, one division by the pivots and the
    backward passes in one workspace, and scatters the solution.
    """
    m, _, nb = L.shape
    nxi = 2 * m + 1
    ones = (1,) * len(cols)
    D = D.reshape(-1, *ones)
    work = np.empty((nxi * nb, *cols))
    pairs, mid = work[:-nb].reshape(m, 2 * nb, *cols), work[-nb:]
    top, bottom = pairs.reshape(m, 2, nb, *cols).swapaxes(0, 1)
    t = np.empty((2 * nb, *cols))
    t_pair = t.reshape(2, nb, *cols)
    t_top, t_bottom = t_pair
    # the last pass meets the twist row, the others the next pass
    L_twist = L[-1].reshape(2, nb, *ones)
    L = L.reshape(m, 2 * nb, *ones)
    L_end, x_end = L[-1], pairs[-1]
    passes = list(zip(L[:-1], pairs[:-1], pairs[1:]))
    mul, sub = np.multiply, np.subtract

    def solve(rhs):
        R = rhs.reshape(nb, nxi, *cols)
        np.copyto(top, R[:, :m].swapaxes(0, 1))
        np.copyto(bottom, R[:, :m:-1].swapaxes(0, 1))
        np.copyto(mid, R[:, m])
        for Lj, xj, xn in passes:
            mul(Lj, xj, t)
            sub(xn, t, xn)
        mul(L_end, x_end, t)
        sub(mid, t_top, mid)
        sub(mid, t_bottom, mid)
        np.divide(work, D, out=work)
        mul(L_twist, mid, t_pair)
        sub(x_end, t, x_end)
        for Lj, xj, xn in reversed(passes):
            mul(Lj, xn, t)
            sub(xj, t, xj)
        x = np.empty((nb, nxi, *cols))
        np.copyto(x[:, :m], top.swapaxes(0, 1))
        np.copyto(x[:, :m:-1], bottom.swapaxes(0, 1))
        x[:, m] = mid
        return x
    return solve


def _mode_set(nx, modes=None):
    """The sorted x-modes that modal forms on ``nx`` nodes keep: all of
    them when ``modes`` is None, else those given and mode 0, which
    carries the mass."""
    if modes is None:
        return np.arange(nx)
    return np.array(sorted({0, *map(int, modes)}))


class ModalForms:
    """The eps-level forms in the x-eigenbasis (:class:`XBasis`), where the
    theta loop steps, restricted to the x-modes ``modes`` (all nx of them by
    default; mode 0 is always kept, since it carries the mass).

    The state is the (len(modes), nxi) array of the kept x-mode coefficients
    Y = V^T M_x U, flattened, in increasing mode order. The forms are
    Kronecker sums, so each mode relaxes along xi on its own, and a mode
    left out stays out: M = I (x) M_xi, A1 = diag(lam) (x) M_xi,
    A2 = I (x) K_xi, and M + cA is the block diagonal of the tridiagonal
    blocks (1 + c lam_k) M_xi + c K_xi, which :meth:`factorize` solves. The
    stencil parts are (y, lam M_xi y) and (dy, g_xi dy), with dy the
    xi-differences, so b, a1 and a2 are those of the nodal forms of V Y.
    The mass 1^T M u is 1^T M_xi Y_0: mode 0 alone.

    The operator runs on the flat vector, the mode blocks laid end to end:
    the bands of M_xi tiled once per block (the first left and the last
    right coefficient of a block are zero, so no product crosses a block
    end), lam repeated once per entry, and g_xi once per difference of the
    flat vector, zero on each difference across a block end. So every term
    is one contiguous pass, and every flux is still proportional to its
    local difference.

    The transforms are the kept columns of the dense V and the kept rows
    of V^T M_x, its inverse on the full basis. They act on column 0 and
    the xi-differences, and then sum along xi: exactly equal adjacent
    columns stay exactly equal, where the xi-conductances are of size
    e^{1/eps} and any rounding between them would be a stiff error that the
    theta steps never damp.
    """

    def __init__(self, forms, modes=None):
        nx, nxi = forms.grid.nx, forms.grid.nxi
        n = nx - 1
        j = np.arange(nx)
        k = self.modes = _mode_set(nx, modes)
        self.shape = (len(k), nxi)
        self.n, self.eps = len(k) * nxi, forms.eps
        basis = XBasis(nx)
        self.lam = basis.lam[k]
        self.V = np.cos(np.pi * (np.outer(j, k) % (2 * n)) / n) / basis.norm[k]
        # the kept rows of V^T M_x, the inverse of the full V
        self.VtM = np.ascontiguousarray(
            (basis.w[:, None] * self.V * basis.mu[k]).T)
        self.M_xi, self.K_xi, self.g_xi = forms.M_xi, forms.K_xi, forms.g_xi
        # the flat layout; M_xi is symmetric, so its right coefficients are
        # the left ones shifted, read from the same memory
        left, diag, _ = np.tile(forms.M_xi, len(k))
        off = np.append(left, 0.0)
        self._m = (off[:-1], diag, off[1:])
        self._lam = np.repeat(self.lam, nxi)
        self._g = np.tile(np.append(forms.g_xi, 0.0), len(k))[:-1]
        # the modes of the constant function 1: mode 0 alone, all ones
        self.one = np.zeros(self.n)
        self.one[:nxi] = 1.0

    def coefficients(self, U):
        """The flat kept modes V^T M_x U of the nodal (nx, nxi) array
        ``U``."""
        return np.cumsum(self.VtM @ np.diff(U, axis=1, prepend=0.0),
                         axis=1).reshape(-1)

    def values(self, y):
        """The nodal (nx, nxi) array V Y of the flat modes ``y``."""
        Y = y.reshape(self.shape)
        return np.cumsum(self.V @ np.diff(Y, axis=1, prepend=0.0), axis=1)

    def apply_m(self, y):
        """M y: M_xi applied to every mode; flat output."""
        return _tridiag(self._m, y)

    def workspace(self):
        """The buffers of one :meth:`mass_and_stencil`: M y, A y, the
        fluxes lam M y, the differences and their fluxes."""
        return np.empty((5, self.n))

    def mass_and_stencil(self, y, out=None):
        """(M y, the :class:`Stencil` of the flat modes ``y``), one pass per
        term, written into ``out`` (a :meth:`workspace`) if given; the
        stencil's first part holds ``y`` itself."""
        mv, au, F1, D, F2 = self.workspace() if out is None else out
        D, F2 = D[:-1], F2[:-1]
        # au takes the off-diagonal products of M y until it is written
        _tridiag(self._m, y, out=mv, work=au[:-1])
        np.multiply(self._lam, mv, out=F1)
        np.subtract(y[1:], y[:-1], out=D)
        np.multiply(self._g, D, out=F2)
        np.subtract(F1[:-1], F2, out=au[:-1])
        au[-1] = F1[-1]
        au[1:] += F2
        return mv, Stencil(au, ((y, F1), (D, F2)))

    def norm_inf(self, c):
        """||M + cA||_inf, exactly: the largest row sum of absolute values
        over the kept blocks (1 + c lam_k) M_xi + c K_xi. The blocks of the
        modes left out do not count, so a restricted state's backward-error
        certificate ||r|| / (||S|| ||x|| + ||rhs||) has the smaller ||S||
        of the system it steps and is stricter than the full one's."""
        scale = 1.0 + c * self.lam[:, None]
        rows = sum(np.abs(scale * self.M_xi[i] + c * self.K_xi[i])
                   for i in range(3))
        return float(rows.max())

    def factorize(self, c):
        """Inner solver r -> (M + cA)^{-1} r over all kept blocks at once:
        a tridiagonal sweep from both ends of each block, and for a long run
        of few well-conditioned blocks their explicit inverse (fast
        diagonalization in x).

        The blocks are never diagonalized in xi (M_xi has condition
        ~exp(1/eps)); each is factored with GTH pivots: the K_xi rows sum to
        zero, so the row excess of block k is exactly (1 + c lam_k) times
        the M_xi row sums, and D_j = r_j - e_j, L_j = e_j / D_j,
        r_{j+1} = excess_{j+1} - L_j r_j has no cancellation where the
        off-diagonals e_j are <= 0. The elimination runs with these pivots
        from both wells toward the saddle row m = (nxi - 1)/2 (a Grid's
        count is odd), where the twist pivot excess_m - L r (top) - L r
        (bottom) is again a sum of nonnegative terms. The factors lie as
        (m, 2, nb), the layout of :func:`_two_ended_sweep`.

        The first solves run the sweep. At the INVERSE_AFTER-th solve of
        the factorization, if the kept blocks' inverses take at most
        INVERSE_BYTES, one sweep over the identity's columns builds them;
        they are kept if ||M + cA||_inf ||(M + cA)^{-1}||_inf is at most
        INVERSE_MAX_COND, and from then on each solve is one batched
        ``np.matmul``. Otherwise the sweep serves every solve: well past
        that condition (eps <= 0.0275 on the README grids) solves by the
        inverse leak mass or break the energy identity partway through a
        run. Each solve writes a fresh solution, which the caller may keep.
        """
        nb, nxi = self.shape
        m = nxi // 2
        scale = 1.0 + c * self.lam
        off = scale[:, None] * self.M_xi[2, :-1] - c * self.g_xi
        excess = scale[:, None] * self.M_xi.sum(axis=0)

        def ends(a):
            # (m, 2, nb): column j and column -1-j of the (nb, .) array a
            return np.stack((a[:, :m], a[:, ::-1][:, :m]), axis=1).transpose(
                2, 1, 0).copy()

        ex, e = ends(excess), ends(off)
        # the pivots in the layout of the workspace: the pairs, then row m
        D = np.empty(nxi * nb)
        pivots = D[:-nb].reshape(m, 2, nb)
        L = np.empty((m, 2, nb))
        r = ex[0]
        for j in range(m):
            np.subtract(r, e[j], out=pivots[j])
            np.divide(e[j], pivots[j], out=L[j])
            lr = L[j] * r
            if j + 1 < m:
                r = ex[j + 1] - lr
        np.subtract(excess[:, m] - lr[0], lr[1], out=D[-nb:])
        if not np.all(D > 0.0):
            raise SolverError(f"tensor factorization of M + {c:g} A at "
                              f"eps = {self.eps:g} lost positive pivots")

        sweep = _two_ended_sweep(L, D)
        fits = nb * nxi * nxi * 8 <= INVERSE_BYTES
        solves = 0
        inverse = None

        def solve(rhs):
            nonlocal solves, inverse
            solves += 1
            if solves == INVERSE_AFTER and fits:
                inv = _two_ended_sweep(L, D, (nxi,))(
                    np.broadcast_to(np.eye(nxi), (nb, nxi, nxi)))
                if (self.norm_inf(c) * np.abs(inv).sum(axis=2).max()
                        <= INVERSE_MAX_COND):
                    inverse = inv
            if inverse is None:
                return sweep(rhs).reshape(-1)
            return np.matmul(inverse, rhs.reshape(nb, nxi, 1)).reshape(-1)
        return solve

    def residual_mass(self, r):
        """1^T r of the nodal residual: the sum of its mode-0 block."""
        return float(r[:self.shape[1]].sum())


def assemble(grid, profile, eps, log_tau_shift=0.0):
    """Assemble the weighted Galerkin matrices at scale ``eps``, by the
    grid's ``quad_order`` panel Gauss rule.

    Builds the scale's Gibbs measure (the one log Z_eps integration) and
    weights M_xi by its density. The xi-stiffness weight combines the
    time-rescaling factor and the reference density in one exponent per
    quadrature point, log(eps) + shift + (1 - H(xi))/eps - log_z, evaluated
    as a single sum before exponentiating. ``log_tau_shift`` rescales the
    reaction clock for the off-critical scaling experiments (0 critical,
    log(eps) subcritical, -log(eps) supercritical).
    """
    gibbs.check_scale(eps)
    measure = gibbs.GibbsMeasure.compute(profile, eps)
    h = profile.eval

    def stiff_exponent(xi):
        return (math.log(eps) + log_tau_shift
                + (1.0 - np.asarray(h(xi), dtype=float)) / eps
                - measure.log_z)

    g_x, K_x = _stiffness(grid.x_rule)

    M_xi = _mass(grid.xi_rule, measure.log_density)
    if np.any(M_xi[1] <= 0.0):
        cell_mass = grid.xi_rule.weighted(measure.log_density).sum(axis=1)
        underflow = tuple(int(c) for c in np.nonzero(cell_mass == 0.0)[0])
        raise AssemblyError(
            f"weighted mass lost positive definiteness at eps = {eps}: "
            f"cells {underflow} underflowed to zero")

    g_xi, K_xi = _stiffness(grid.xi_rule, stiff_exponent)

    return FormMatrices(M_x=grid.x_mass, K_x=K_x, M_xi=M_xi, K_xi=K_xi,
                        g_x=g_x, g_xi=g_xi, grid=grid, measure=measure)


def b_form(apply_m, u):
    """The squared mass norm u^T M u of a :class:`Field` or a flat state,
    with ``apply_m`` the action v -> M v."""
    uu = u.values.reshape(-1) if isinstance(u, Field) else \
        np.asarray(u, dtype=float).reshape(-1)
    return float(uu @ apply_m(uu))


class ModalLimitForms:
    """The two-species limit forms M = 1/2 I (x) M_x and A = 1/2 I (x) K_x
    + 1/2 R (x) M_x on the nodal pair (u_minus, u_plus), R = [[k_f, -k_b],
    [-k_f, k_b]] (k_f: minus -> plus), held in the x-eigenbasis (XBasis) of
    the uniform ``x_nodes``: other nodes or a rate outside [0, inf) raise.
    They are restricted to the x-modes ``modes`` (all nx of them by
    default; mode 0 is always kept, since it carries the mass).

    The state is the flat pair y = (V^T M_x u_minus, V^T M_x u_plus) of the
    kept modes, in increasing mode order, in which M = 1/2 I and
    A = 1/2 I (x) diag(lam) + 1/2 R (x) I: mode k of the two species is a
    2 x 2 system of its own, which :meth:`factorize` inverts in closed
    form, and a mode left out stays out. The stencil parts are the
    diffusion (y, lam y / 2) and the reaction: the well gap
    y_minus - y_plus and half the net transfer k_f y_minus - k_b y_plus,
    which leaves y_minus and enters y_plus. So b, a1 and a2 are those of
    the nodal forms, and the mass is mode 0 alone (``one`` holds the modes
    of the constant pair). The transforms are the O(n log n) ones of the
    full basis, gathering the kept modes and scattering them back.
    """

    def __init__(self, x_nodes, rate_forward, rate_backward, modes=None):
        for name, rate in (("rate_forward", rate_forward),
                           ("rate_backward", rate_backward)):
            if not 0.0 <= rate < math.inf:
                raise ValueError(f"{name} must be finite and nonnegative, "
                                 f"got {rate!r}")
        self.x_nodes = x = np.asarray(x_nodes, dtype=float)
        if not np.array_equal(x, np.linspace(0.0, 1.0, len(x))):
            raise ValueError("the limit x-modes need the uniform x-nodes "
                             "linspace(0, 1, nx)")
        self.basis = XBasis(len(x))
        k = self.modes = _mode_set(len(x), modes)
        self.lam = self.basis.lam[k]
        self.n = 2 * len(k)
        self.one = np.zeros(self.n)
        self.one[[0, len(k)]] = 1.0
        self.rate_forward, self.rate_backward = rate_forward, rate_backward
        self._half_lam = np.tile(0.5 * self.lam, 2)

    def mode_norms(self, field):
        """The M-norm sqrt((y_minus,k^2 + y_plus,k^2) / 2) of each x-mode k
        of the :class:`LimitField` ``field`` (M = 1/2 I in modes), over the
        full basis; their squares sum to ||field||_M^2."""
        Y = self.basis.coefficients(field.stack().reshape(2, -1))
        return np.sqrt(0.5 * (Y * Y).sum(axis=0))

    def coefficients(self, field):
        """The flat kept modes of the :class:`LimitField` ``field``."""
        return self.basis.coefficients(
            field.stack().reshape(2, -1))[:, self.modes].ravel()

    def values(self, y):
        """The nodal pair (u_minus, u_plus) of the flat kept modes ``y``."""
        Y = np.zeros((2, len(self.basis.lam)))
        Y[:, self.modes] = y.reshape(2, -1)
        return self.basis.values(Y)

    def apply_m(self, y):
        return 0.5 * y

    def workspace(self):
        """The buffers of one :meth:`mass_and_stencil`: M y, A y, the
        diffusion fluxes, then the well gap and its flux (half as long)."""
        return np.empty((4, self.n))

    def mass_and_stencil(self, y, out=None):
        """(M y, the :class:`Stencil` of the flat modes ``y``), one pass per
        term, written into ``out`` (a :meth:`workspace`) if given; the
        stencil's first part holds ``y`` itself."""
        mv, au, F1, gap = self.workspace() if out is None else out
        m = self.n // 2
        ym, yp = y[:m], y[m:]
        D, F2 = gap[:m], gap[m:]
        np.multiply(y, 0.5, out=mv)
        np.multiply(self._half_lam, y, out=F1)
        np.subtract(ym, yp, out=D)
        # au takes the backward transfer until it is written
        np.multiply(self.rate_forward, ym, out=F2)
        F2 -= np.multiply(self.rate_backward, yp, out=au[:m])
        F2 *= 0.5
        np.add(F1[:m], F2, out=au[:m])
        np.subtract(F1[m:], F2, out=au[m:])
        return mv, Stencil(au, ((y, F1), (D, F2)))

    def _blocks(self, c):
        """a_k = 1 + c lam_k, c k_f and c k_b over the kept modes."""
        return 1.0 + c * self.lam, c * self.rate_forward, \
            c * self.rate_backward

    def norm_inf(self, c):
        """||M + cA||_inf, exactly: the largest block row sum,
        (|a_k + c k_f| + |c k_b|) / 2 or (|a_k + c k_b| + |c k_f|) / 2."""
        a, cf, cb = self._blocks(c)
        return 0.5 * float(max((np.abs(a + cf) + abs(cb)).max(),
                               (np.abs(a + cb) + abs(cf)).max()))

    def factorize(self, c):
        """Inner solver r -> (M + cA)^{-1} r, mode by mode, in O(kept
        modes): block k has determinant a_k (a_k + c s) / 4, s = k_f + k_b,
        and the inverse (2 / a_k) [[a_k + c k_b, c k_b], [c k_f,
        a_k + c k_f]] / (a_k + c s), each entry 2 / a_k times a ratio in
        [0, 1], so that large rates do not overflow; zero rates need no
        special case."""
        a, cf, cb = self._blocks(c)
        d = a + (cf + cb)
        if not np.all(a * d > 0.0):
            raise SolverError(
                f"limit system M + {c:g} A has a non-positive block "
                f"determinant (k_f = {self.rate_forward:g}, "
                f"k_b = {self.rate_backward:g})")
        g = [2.0 / a * (v / d) for v in (a + cb, cb, cf, a + cf)]
        m = len(a)
        return lambda r: np.concatenate([g[0] * r[:m] + g[1] * r[m:],
                                         g[2] * r[:m] + g[3] * r[m:]])

    def residual_mass(self, r):
        """1^T r of the nodal residual: mode 0 of both species."""
        return float(r[0] + r[self.n // 2])


def assemble_limit_rates(x_nodes, rate_forward, rate_backward):
    """The :class:`ModalLimitForms` with rates k_f, k_b: nonsymmetric
    unless the two coincide."""
    return ModalLimitForms(x_nodes, rate_forward, rate_backward)


def assemble_limit(x_nodes, k):
    """Symmetric limit forms: equal exchange rate ``k`` between the wells."""
    return assemble_limit_rates(x_nodes, k, k)


# tensor Gauss points that nonlinear_observables evaluates at once: the
# x-cells of one block times every xi point (128 kB per array)
_BLOCK_POINTS = 1 << 14


def nonlinear_observables(forms, field, fns):
    """Quadrature of each f(x, xi, u) in ``fns`` against the reference
    measure, with u the bilinear interpolant of ``field`` at the tensor
    panel Gauss points. The points are taken one block of x-cells at a
    time: the block's interpolant is built once for all of the functions,
    and each f's values are contracted with the xi weights, then the x
    weights, before the next block. Returns a list of floats, one per
    function."""
    grid = forms.grid
    order = grid.quad_order
    xr, xir = grid.x_rule, grid.xi_rule
    # points and weights ordered (xi-order, xi-cell), the long axis last
    gamma_w = xir.weighted(forms.measure.log_density).T.reshape(-1)
    xiq = xir.pts.T[None, None]
    step = max(1, _BLOCK_POINTS // (order * gamma_w.size))
    # the interpolant and its second term, for the largest block
    work = np.empty((2, step * order * gamma_w.size))
    totals = [0.0] * len(fns)
    for c0 in range(0, grid.nx - 1, step):
        U = field.values[c0:min(c0 + step, grid.nx - 1) + 1]
        # interpolate in x, then in xi: shape (x-cell, x-order, xi-order,
        # xi-cell); each value is u0 left + u1 right, as along either axis
        V = (U[:-1, None, :] * xr.left[:, None]
             + U[1:, None, :] * xr.right[:, None])
        shape = V.shape[:2] + (order, grid.nxi - 1)
        Uq, second = (w[:math.prod(shape)].reshape(shape) for w in work)
        np.multiply(V[:, :, None, :-1], xir.left[:, None], out=Uq)
        Uq += np.multiply(V[:, :, None, 1:], xir.right[:, None], out=second)
        cells = slice(c0, c0 + len(V))
        xb = xr.pts[cells, :, None, None]
        wb = xr.wts[cells].reshape(-1)
        for k, f in enumerate(fns):
            v = np.broadcast_to(np.asarray(f(xb, xiq, Uq), dtype=float),
                                shape).reshape(wb.size, gamma_w.size)
            totals[k] += float(wb @ (v @ gamma_w))
    return totals


def nonlinear_observable(forms, field, f):
    """Quadrature of f(x, xi, u) against the reference measure, with u the
    bilinear interpolant of ``field`` at the tensor panel Gauss points."""
    return nonlinear_observables(forms, field, [f])[0]


def paired(phi):
    """The observable f(x, xi, u) = phi(x, xi) u of a test function."""
    return lambda x, xi, u: phi(x, xi) * u


@dataclass(frozen=True)
class ProductTest:
    """The test function phi(x, xi) = f_x(x) f_xi(xi); each factor maps an
    array of points to its values. Calling it evaluates phi, so a product
    test also serves wherever a plain phi(x, xi) does."""

    f_x: Callable
    f_xi: Callable

    def __call__(self, x, xi):
        return self.f_x(x) * self.f_xi(xi)


def pair_measure(forms, field, test):
    """Duality pairing of the measure (field * reference) with the product
    test f_x(x) f_xi(xi), as a^T U c through two 1-D node functionals:
    a_i = integral of f_x hat_i dx and c_j = integral of f_xi psi_j gamma
    dxi, by the panel Gauss rules of the observables. Pair any other
    phi(x, xi) by ``nonlinear_observable(forms, field, paired(phi))``."""
    grid = forms.grid
    a = grid.x_rule.functional(test.f_x)
    c = grid.xi_rule.functional(
        lambda xi: test.f_xi(xi) * forms.measure.density(xi))
    return float(a @ (field.values @ c))


def nonlinear_observable_limit(lf, f):
    """Limit counterpart of :func:`nonlinear_observable`: f(x, xi, u)
    averaged over the two well lines xi = -1 and xi = 1."""
    rule = PanelRule(lf.x_nodes, QUAD_ORDER)
    um, up = rule.interp(lf.u_minus), rule.interp(lf.u_plus)
    fm = np.broadcast_to(np.asarray(f(rule.pts, -1.0, um), dtype=float),
                         um.shape)
    fp = np.broadcast_to(np.asarray(f(rule.pts, 1.0, up), dtype=float),
                         up.shape)
    return 0.5 * (float((rule.wts * fm).sum()) + float((rule.wts * fp).sum()))


def pair_limit(lf, test):
    """Pairing of the two-line limit measure with the product test
    f_x(x) f_xi(xi): (f_xi(-1) a.u_minus + f_xi(1) a.u_plus) / 2, with a
    the x node functional of f_x (see :func:`pair_measure`)."""
    a = PanelRule(lf.x_nodes, QUAD_ORDER).functional(test.f_x)
    return 0.5 * (float(test.f_xi(-1.0)) * float(a @ lf.u_minus)
                  + float(test.f_xi(1.0)) * float(a @ lf.u_plus))


def l2_norm_x(M_x, values):
    """L2 norm over (0, 1) of a nodal 1D function, by the x-mass bands M_x."""
    v = np.asarray(values, dtype=float)
    return math.sqrt(max(float(v @ apply_x(M_x, v)), 0.0))
