"""Theta-scheme solver for the two-species reaction-diffusion limit system.

Same variational structure and the same integrator as the eps-level solver
(``evolve_kramers``), acting on the forms over the pair of well densities in
their closed-form x-eigenbasis (``grid_forms.ModalLimitForms``), where M + cA
is one 2 x 2 block per mode; the nodal pair is formed by FFT only at entry
and at snapshots. This module supplies the solver of the blocks.
"""
from __future__ import annotations

import numpy as np

from .evolve_kramers import SolverError, _integrate, _ThetaSystem
from .grid_forms import LimitField

__all__ = ["LimitSystem", "solve_limit"]


class LimitSystem(_ThetaSystem):
    """M + cA of the limit forms in x-modes (:class:`ModalLimitForms`): per
    mode k the block 1/2 [(1 + c lam_k) I + c R], R = [[k_f, -k_b],
    [-k_f, k_b]]. ``S @ v`` is the exact action, written into the system's
    workspace as at the eps level; the inner solve inverts every block in
    closed form."""

    def _blocks(self):
        """a_k = 1 + c lam_k, c k_f and c k_b."""
        f, c = self.forms, self.c
        return 1.0 + c * f.basis.lam, c * f.rate_forward, c * f.rate_backward

    def norm_inf(self):
        """||M + cA||_inf, exactly: the largest block row sum,
        (|a_k + c k_f| + |c k_b|) / 2 or (|a_k + c k_b| + |c k_f|) / 2."""
        a, cf, cb = self._blocks()
        return 0.5 * float(max((np.abs(a + cf) + abs(cb)).max(),
                               (np.abs(a + cb) + abs(cf)).max()))

    def factorize(self):
        """Inner solver r -> (M + cA)^{-1} r, mode by mode, in O(n): block k
        has determinant a_k (a_k + c s) / 4, s = k_f + k_b, and the inverse
        (2 / a_k) [[a_k + c k_b, c k_b], [c k_f, a_k + c k_f]] / (a_k + c s),
        each entry 2 / a_k times a ratio in [0, 1], so that large rates do
        not overflow; zero rates need no special case."""
        a, cf, cb = self._blocks()
        d = a + (cf + cb)
        if not np.all(a * d > 0.0):
            raise SolverError(
                f"limit system M + {self.c:g} A has a non-positive block "
                f"determinant (k_f = {self.forms.rate_forward:g}, "
                f"k_b = {self.forms.rate_backward:g})")
        g = [2.0 / a * (v / d) for v in (a + cb, cb, cf, a + cf)]
        nx = len(a)
        return lambda r: np.concatenate([g[0] * r[:nx] + g[1] * r[nx:],
                                         g[2] * r[:nx] + g[3] * r[nx:]])

    def residual_mass(self, r):
        """1^T r of the nodal residual: mode 0 of both species."""
        return float(r[0] + r[self.forms.n // 2])


def solve_limit(lforms, u0, T, dt, scheme="CN_rannacher", snapshot_times=()):
    """Integrate the limit system M dw/dt + A w = 0 for w = (u_minus, u_plus).

    Steps the limit forms ``lforms`` (a ``grid_forms.ModalLimitForms``, as
    ``assemble_limit`` builds them) in their x-modes through
    :class:`LimitSystem`, each solve certified against the exact action of
    the forms; the snapshots are nodal pairs, the one at t = 0 a copy of
    ``u0``. Returns an ``evolve_kramers``
    ``Trajectory`` whose energy split is (diffusion, reaction). Raises
    :class:`SolverError`, naming the step, t and the quantity, as soon as a
    step drifts the mass or breaks the energy identity beyond the
    certificates.
    """
    if not isinstance(u0, LimitField):
        raise TypeError("u0 must be a LimitField")
    x = lforms.x_nodes
    if not np.array_equal(u0.x_nodes, x):
        raise ValueError("initial data and forms live on different x-grids")
    return _integrate(
        lforms, LimitSystem, lforms.coefficients(u0), T, dt, scheme,
        snapshot_times, lambda y: LimitField(*lforms.values(y), x),
        LimitField(u0.u_minus.copy(), u0.u_plus.copy(), x), "limit system")
