"""Theta-scheme solver for the two-species reaction-diffusion limit system.

Same variational structure and the same integrator as the eps-level solver
(``evolve_kramers``), acting on the forms over the pair of well densities;
this module supplies the structured solver of M + cA.
"""
from __future__ import annotations

import numpy as np
import scipy.linalg as la

from .evolve_kramers import SolverError, _integrate, _ThetaSystem
from .grid_forms import LimitField, _tridiag

__all__ = ["LimitSystem", "solve_limit"]


class LimitSystem(_ThetaSystem):
    """M + cA of the limit forms, kept as its 1-D factors:
    1/2 [I (x) P0 + c R (x) M_x], P0 = M_x + c K_x, with the reaction
    matrix R = [[k_f, -k_b], [-k_f, k_b]]; ``S @ v`` is the exact action of
    the forms on the flat pair, written into the system's workspace as at
    the eps level (valid until the next product), and both act through the
    bands of M_x and K_x.
    """

    def __init__(self, lforms, c):
        super().__init__(lforms, c)
        self._m, k = lforms.bands
        self._p0 = self._m + self.c * k

    def norm_inf(self):
        """||M + cA||_inf, exactly: row i of the minus block row sums
        |P0 + c k_f M_x| along row i plus c k_b times the M_x row sum, all
        halved; the plus block row swaps the rates."""
        lf, c, m, p0 = self.forms, self.c, self._m, self._p0
        kf, kb = lf.rate_forward, lf.rate_backward
        m_row = np.abs(m).sum(axis=0)
        minus = np.abs(p0 + c * kf * m).sum(axis=0) + c * kb * m_row
        plus = np.abs(p0 + c * kb * m).sum(axis=0) + c * kf * m_row
        return 0.5 * float(max(minus.max(), plus.max()))

    def factorize(self):
        """Inner solver r -> (M + cA)^{-1} r by two SPD tridiagonal solves.

        R has the left eigenvector (1, 1) with eigenvalue 0, so the sum of
        the block rows gives P0 s = 2 (r_minus + r_plus) for the total
        s = u_minus + u_plus. Putting u_plus = s - u_minus into the minus
        row gives P1 u_minus = 2 r_minus + c k_b M_x s with
        P1 = P0 + c (k_f + k_b) M_x. Nothing is divided by k_f + k_b, so
        zero rates need no special case.
        """
        lf, c, m, p0 = self.forms, self.c, self._m, self._p0
        kf, kb = lf.rate_forward, lf.rate_backward
        factors = []
        for p in (p0, p0 + c * (kf + kb) * m):
            d, e, info = la.lapack.dpttrf(p[1], p[2, :-1])
            if info != 0:
                raise SolverError(
                    f"limit factorization of M + {c:g} A lost positive "
                    f"pivots (k_f = {kf:g}, k_b = {kb:g})")
            factors.append((d, e))
        (p0_factor, p1_factor), n = factors, len(m[1])

        def tri_solve(factor, r):
            return la.lapack.dpttrs(*factor, r[:, None])[0][:, 0]

        def inner(rhs):
            r_minus = rhs[:n]
            s = tri_solve(p0_factor, 2.0 * (r_minus + rhs[n:]))
            u_minus = tri_solve(p1_factor,
                                2.0 * r_minus + c * kb * _tridiag(m, s))
            return np.concatenate([u_minus, s - u_minus])
        return inner


def solve_limit(lforms, u0, T, dt, scheme="CN_rannacher", snapshot_times=()):
    """Integrate the limit system M dw/dt + A w = 0 for w = (u_minus, u_plus).

    Each theta step is solved through :class:`LimitSystem`: two SPD
    tridiagonal solves per inner solve, factored once per plan, refined and
    certified against the exact action of the forms. Returns an
    ``evolve_kramers.Trajectory`` whose energy split is (diffusion,
    reaction). Raises :class:`SolverError`, naming the step, t and the
    quantity, as soon as a step drifts the mass or breaks the energy
    identity beyond the certificates.
    """
    if not isinstance(u0, LimitField):
        raise TypeError("u0 must be a LimitField")
    x = lforms.x_nodes
    if not np.array_equal(u0.x_nodes, x):
        raise ValueError("initial data and forms live on different x-grids")
    nx = len(x)
    return _integrate(
        lforms, LimitSystem, u0.stack(), T, dt, scheme, snapshot_times,
        lambda v: LimitField(v[:nx], v[nx:], x),
        LimitField(u0.u_minus.copy(), u0.u_plus.copy(), x), "limit system")
