"""Theta-scheme time integration of the eps-level evolution.

The scheme is unconditionally stable, so the step size is purely an accuracy
knob. The default starts with two damped half-steps before switching to the
trapezoidal rule: the reaction-coordinate operator carries the huge rescaled
clock, and the damped start kills its stiff transients while the trapezoidal
steps preserve the discrete energy identity exactly.

The same integrator steps the two-species limit system (``evolve_limit``):
both levels are gradient flows of an energy ``a`` in the metric ``b`` and
differ only in their forms and in the structured solver of M + cA.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg as la
import scipy.sparse.linalg as spla

from .grid_forms import Field, _bands

__all__ = ["SolverError", "KroneckerSystem", "LinearSolver", "Trajectory",
           "SCHEMES", "solve", "regularization_check", "RegularityFlags"]


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class _ThetaSystem:
    """The theta-step matrix M + cA of ``forms``; ``S @ v`` is the exact
    action, with the mass applied by ``forms.apply_m`` and the stiffness by
    ``forms.apply_a``. Subclasses add
    ``norm_inf`` and ``factorize`` from the 1-D factors of the forms."""

    def __init__(self, forms, c):
        self.forms = forms
        self.c = float(c)

    def __matmul__(self, v):
        return self.forms.apply_m(v) + self.c * self.forms.apply_a(v)


class KroneckerSystem(_ThetaSystem):
    """M + cA of the eps-level forms, kept as its 1-D factors:
    (M_x + c K_x) (x) M_xi + c M_x (x) K_xi; the stiffness acts in
    incidence form.
    """

    def norm_inf(self):
        """||M + cA||_inf, exactly: per row, the nine-term stencil of
        absolute values of P (x) M_xi + c M_x (x) K_xi, P = M_x + c K_x."""
        f, c = self.forms, self.c
        m_x, k_x = _bands(f.M_x), _bands(f.K_x)
        p_x = m_x + c * k_x
        m_xi, k_xi = _bands(f.M_xi), _bands(f.K_xi)
        entries = (p_x[:, None, :, None] * m_xi[None, :, None, :]
                   + c * m_x[:, None, :, None] * k_xi[None, :, None, :])
        return float(np.abs(entries).sum(axis=(0, 1)).max())

    def factorize(self):
        """Inner solver r -> (M + cA)^{-1} r by fast diagonalization in x.

        In the M_x-orthonormal eigenbasis of (K_x, M_x) the system splits
        into nx tridiagonal blocks (1 + c lam_k) M_xi + c K_xi. They are
        never diagonalized in xi (M_xi has condition ~exp(1/eps)); each is
        factored as L D L^T with GTH pivots: the K_xi rows sum to zero, so
        the row excess of block k is exactly (1 + c lam_k) times the M_xi
        row sums, and D_j = r'_j - e_j, r'_{j+1} = r_{j+1} - e_j r'_j / D_j
        has no cancellation where the off-diagonals e_j are <= 0.
        """
        f, c = self.forms, self.c
        nx, nxi = f.grid.nx, f.grid.nxi
        lam, V = la.eigh(f.K_x.toarray(), f.M_x.toarray())
        scale = 1.0 + c * lam
        m_xi = _bands(f.M_xi)
        off = scale[:, None] * m_xi[2, :-1] - c * f.g_xi
        excess = scale[:, None] * m_xi.sum(axis=0)
        D = np.empty((nx, nxi))
        L = np.zeros((nx, nxi))
        r = excess[:, 0]
        for j in range(nxi - 1):
            D[:, j] = r - off[:, j]
            L[:, j] = off[:, j] / D[:, j]
            r = excess[:, j + 1] - L[:, j] * r
        D[:, -1] = r
        if not np.all(D > 0.0):
            raise SolverError(f"tensor factorization of M + {c:g} A at "
                              f"eps = {f.eps:g} lost positive pivots")
        d, e = D.reshape(-1), L.reshape(-1)[:-1]

        def inner(rhs):
            Y = V.T @ rhs.reshape(nx, nxi)
            Z, _ = la.lapack.dpttrs(d, e, Y.reshape(-1, 1), overwrite_b=1)
            return (V @ Z.reshape(nx, nxi)).reshape(-1)
        return inner


# the README's per-step certificates
MASS_DRIFT_BOUND = 1e-10
ENERGY_RESIDUAL_BOUND = 1e-9
# the mass a certified solve may leave in its residual, per step
MASS_RESIDUAL_BOUND = 1e-3 * MASS_DRIFT_BOUND
# the backward error every theta-step solve of both levels certifies
RESIDUAL_TARGET = 1e-11


class LinearSolver:
    """Linear solve with a backward-error certificate.

    ``S`` is a structured system (:class:`KroneckerSystem`, or
    ``evolve_limit.LimitSystem``) that supplies its own ``norm_inf`` and
    ``factorize``, or a sparse matrix, factored by SuperLU. No run of the
    package takes the sparse branch: it serves ``perfbench/probe.py`` and the
    tests, as a reference for the structured solvers. Every residual
    r = rhs - op(x) is taken against ``op`` (by default ``S @ v``), the exact
    operator action.

    The certificate is the normwise backward error
    ||r|| / (||S|| ||x|| + ||rhs||): on the stiff rows the plain
    ||r||/||rhs|| measurement is floored by the cancellation noise of the
    matvec itself (observed ~2e-11 at default grids) and cannot certify
    anything tighter, while the backward error stays meaningful down to
    machine precision. A :class:`SolverError` carrying the achieved value is
    raised when the target is not met or the solution is not finite.

    The solve returns once it is certified and |1^T r| <= MASS_RESIDUAL_BOUND:
    the stiffness has zero column sums, so a theta step moves the mass by
    1^T rhs - 1^T r, and a residual along the constant vector, invisible to
    normwise measures, leaks mass directly. The first solve usually meets
    both; else refinement sweeps x += inner(r) follow, at most
    ``max_refine``, ending at the first that cuts the excess by under 10%.
    """

    def __init__(self, S, target=RESIDUAL_TARGET, max_refine=6, op=None):
        self.target = float(target)
        self.max_refine = max_refine
        if hasattr(S, "factorize"):
            self.norm_S = S.norm_inf()
            self._inner = S.factorize()
        else:
            S = S.tocsr()
            self.norm_S = float(np.abs(S).sum(axis=1).max())
            self._inner = spla.splu(S.tocsc()).solve
        self.op = op if op is not None else (lambda v: S @ v)

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        norm_rhs = float(np.linalg.norm(rhs))
        if norm_rhs == 0.0:
            return np.zeros_like(rhs)

        def certify(x):
            # residual, backward error, excess over the stop rule (<= 1)
            r = rhs - self.op(x)
            res = float(np.linalg.norm(r)) / (
                self.norm_S * float(np.linalg.norm(x)) + norm_rhs)
            return r, res, max(res / self.target,
                               abs(float(r.sum())) / MASS_RESIDUAL_BOUND)

        x = self._inner(rhs)
        r, res, excess = certify(x)
        for _ in range(self.max_refine):
            if not excess > 1.0:
                break
            better = x + self._inner(r)
            r_new, res_new, excess_new = certify(better)
            if excess_new < excess:
                x, r, res = better, r_new, res_new
            if not excess_new < 0.9 * excess:
                break
            excess = excess_new
        if not np.all(np.isfinite(x)):
            raise SolverError("linear solve returned a non-finite solution",
                              residual=res)
        if not res <= self.target:
            raise SolverError(
                f"linear solve stagnated at relative residual {res:.3e} "
                f"(target {self.target:.1e})", residual=res)
        return x


SCHEMES = ("CN_rannacher", "BE")


def theta_plan(T, dt, scheme, make_solver):
    """Pre-factorized sub-step plan covering [0, T] in steps of ``dt``.

    ``make_solver(c)`` returns the solver of M + c A. Returns
    (n_steps, groups): each group is a list of sub-steps (theta, dt_sub,
    solver) that together advance one dt. The damped-start scheme shares one
    factorization because the trapezoidal system matrix M + (dt/2) A equals
    the half-step damped one.
    """
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n_steps = int(round(T / dt))
    if n_steps < 1 or abs(n_steps * dt - T) > 1e-9 * max(T, 1.0):
        raise ValueError(f"T = {T!r} is not a positive multiple of dt = {dt!r}")

    if scheme == "CN_rannacher":
        solver = make_solver(0.5 * dt)
        first = [(1.0, 0.5 * dt, solver), (1.0, 0.5 * dt, solver)]
        rest = [(0.5, dt, solver)]
        groups = [first] + [rest] * (n_steps - 1)
    elif scheme == "BE":
        solver = make_solver(dt)
        groups = [[(1.0, dt, solver)]] * n_steps
    else:
        raise ValueError(f"unknown scheme {scheme!r}; use one of {SCHEMES}")
    return n_steps, groups


@dataclass
class Trajectory:
    """Discrete trajectory with per-step conservation/energy diagnostics.

    Diagnostic arrays are aligned with ``times`` (length n_steps + 1);
    ``energy_residual`` and ``thetas`` are per step (length n_steps).
    ``a1`` and ``a2`` split the energy: x- and xi-parts at the eps level,
    diffusion and reaction parts for the limit system (``eps`` = 0).
    States are stored only at the requested snapshot times.
    """

    times: np.ndarray
    mass: np.ndarray
    b: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    energy_residual: np.ndarray
    thetas: np.ndarray
    snapshots: list
    scheme: str
    dt: float
    eps: float

    @property
    def a(self):
        return self.a1 + self.a2

    def snapshot_at(self, t):
        for ts, state in self.snapshots:
            if abs(ts - t) <= 1e-9 * max(abs(t), 1.0):
                return state
        raise KeyError(f"no snapshot stored at t = {t!r}")


def _certify_step(where, step, t, drift, residual, theta, b0):
    """Raise :class:`SolverError` if one step broke a certificate.

    The mass may move by at most MASS_DRIFT_BOUND. The energy-identity
    residual is bounded by ENERGY_RESIDUAL_BOUND * max(1, b0): in absolute
    value on trapezoidal steps (theta = 1/2), from above only on damped
    steps, where it is nonpositive. A NaN breaks either bound.
    """
    bound = ENERGY_RESIDUAL_BOUND * max(1.0, b0)
    if not abs(drift) <= MASS_DRIFT_BOUND:
        quantity = (f"mass drift {drift:.3e} exceeds {MASS_DRIFT_BOUND:.0e}")
    elif not (abs(residual) if theta == 0.5 else residual) <= bound:
        quantity = (f"energy-identity residual {residual:.3e} exceeds "
                    f"{bound:.3e}")
    else:
        return
    raise SolverError(f"{where}, step {step} (t = {t:g}): {quantity}")


def _snapshot_steps(snapshot_times, dt, n_steps):
    steps = {}
    for t in snapshot_times:
        k = int(round(t / dt))
        if abs(k * dt - t) > 1e-9 * max(abs(t), 1.0) or not 0 <= k <= n_steps:
            raise ValueError(
                f"snapshot time {t!r} is not a step multiple within [0, T]")
        steps[k] = t
    return steps


def _integrate(forms, system, u, T, dt, scheme, snapshot_times, wrap,
               where):
    """The theta loop of both levels, from the flat initial state ``u``.

    ``system(forms, c)`` is the structured M + cA, ``wrap(vec)`` builds a
    snapshot from a private copy of the state, and ``where`` names the run
    in a :class:`SolverError`. Each state gets one ``forms.stencil``: its
    A u is the next right-hand side, its energy split is recorded, and the
    energy a(u_theta) of the step into it follows by polarization with the
    previous state's stencil. The squared norm b is computed once per state
    and serves both the record and the energy-identity residual.
    """
    n_steps, groups = theta_plan(
        T, dt, scheme,
        lambda c: LinearSolver(system(forms, c), RESIDUAL_TARGET))
    want = _snapshot_steps(snapshot_times, dt, n_steps)

    u = np.array(u, dtype=float)
    mass_vec = forms.apply_m(np.ones_like(u))
    times, mass, b, a1, a2 = (np.zeros(n_steps + 1) for _ in range(5))
    e_res = np.zeros(n_steps)
    thetas = np.zeros(n_steps)
    snapshots = []

    def record(idx, t, vec, b_vec, st):
        times[idx] = t
        mass[idx] = float(mass_vec @ vec)
        b[idx] = b_vec
        a1[idx] = st.a1
        a2[idx] = st.a2
        if idx in want:
            snapshots.append((want[idx], wrap(vec.copy())))

    st = forms.stencil(u)
    b_u = float(u @ forms.apply_m(u))
    record(0, 0.0, u, b_u, st)
    t = 0.0
    for step, group in enumerate(groups, start=1):
        residual = 0.0
        for theta, dt_sub, solver in group:
            u_new = u + solver.solve(-dt_sub * st.au)
            st_new = forms.stencil(u_new)
            b_new = float(u_new @ forms.apply_m(u_new))
            # a(theta u_new + (1 - theta) u)
            a_bar = (theta * theta * st_new.a + (1.0 - theta) ** 2 * st.a
                     + theta * (1.0 - theta) * st_new.cross(st))
            residual += 0.5 * b_new - 0.5 * b_u + dt_sub * a_bar
            u, b_u, st = u_new, b_new, st_new
            t += dt_sub
        e_res[step - 1] = residual
        thetas[step - 1] = group[0][0]
        record(step, t, u, b_u, st)
        _certify_step(where, step, t, mass[step] - mass[step - 1], residual,
                      thetas[step - 1], b[0])
    return Trajectory(times=times, mass=mass, b=b, a1=a1, a2=a2,
                      energy_residual=e_res, thetas=thetas,
                      snapshots=snapshots, scheme=scheme, dt=dt, eps=forms.eps)


def solve(forms, u0, T, dt, scheme="CN_rannacher", snapshot_times=()):
    """Integrate M du/dt + A u = 0 from the nodal field ``u0`` to time T.

    Records mass, the squared norm b and the energy split (a1, a2) at every
    step, the per-step residual of the discrete energy identity
    b(u_next)/2 - b(u)/2 + dt a(u_theta) (zero up to solver tolerance on
    trapezoidal steps, nonpositive on damped ones), and full states at
    ``snapshot_times``. Every step's solve is certified to the backward
    error RESIDUAL_TARGET. Raises :class:`SolverError`, naming eps, the
    step, t and the quantity, as soon as a step drifts the mass or breaks
    the energy identity beyond the certificates.
    """
    if not isinstance(u0, Field):
        raise TypeError("u0 must be a Field")
    shape = u0.values.shape
    return _integrate(
        forms, KroneckerSystem, u0.ravel(), T, dt, scheme, snapshot_times,
        lambda v: Field(v.reshape(shape), u0.grid, u0.eps),
        f"eps = {forms.eps:g}")


@dataclass
class RegularityFlags:
    """Smoothing diagnostics: energy decay and the t * energy bound."""

    a_nonincreasing: np.ndarray
    bounded: np.ndarray

    @property
    def all_ok(self):
        return bool(np.all(self.a_nonincreasing) and np.all(self.bounded))


def regularization_check(trajectory, rel_slack=1e-6):
    """Check that the energy decays along the run and that t * a(u(t)) stays
    below half the initial squared norm (discrete smoothing estimate)."""
    a = trajectory.a
    scale = max(float(a[0]), float(trajectory.b[0]), 1.0)
    noninc = a[1:] <= a[:-1] * (1.0 + 1e-10) + 1e-13 * scale
    bound = (trajectory.times * a
             <= 0.5 * trajectory.b[0] * (1.0 + rel_slack) + 1e-13 * scale)
    return RegularityFlags(a_nonincreasing=noninc, bounded=bound)
