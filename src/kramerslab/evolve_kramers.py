"""Theta-scheme time integration of the eps-level evolution.

The scheme is unconditionally stable, so the step size is purely an accuracy
knob. The default starts with two damped half-steps before switching to the
trapezoidal rule: the reaction-coordinate operator carries the huge rescaled
clock, and the damped start kills its stiff transients while the trapezoidal
steps preserve the discrete energy identity exactly.

The eps level steps in the x-eigenbasis (``grid_forms.ModalForms``), where
M + cA is block diagonal; nodal fields are formed only at entry and at
snapshots. The same integrator steps the two-species limit system
(``evolve_limit``): both levels are gradient flows of an energy ``a`` in the
metric ``b`` and differ only in their forms and in the structured solver of
M + cA. Both solvers run in numpy alone, over all x-modes at once (here
:class:`KroneckerSystem`'s two-ended tridiagonal sweep; at the limit the
closed-form inverse of each 2 x 2 block), so no run loads scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_forms import Field, ModalForms

__all__ = ["SolverError", "KroneckerSystem", "LinearSolver", "Trajectory",
           "SCHEMES", "solve", "energy_excess"]


class SolverError(RuntimeError):
    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class _ThetaSystem:
    """The theta-step matrix M + cA of ``forms``; ``S @ v`` is the exact
    action, with the mass and the stencil from ``forms.mass_and_stencil``.
    Subclasses add ``norm_inf``, ``factorize`` and ``residual_mass`` (see
    :class:`LinearSolver`) from the structure of the forms.

    The system owns the workspace of its products, allocated once: ``S @ v``
    writes M v and the :class:`Stencil` of v into ``forms.workspace()`` and
    M v + c A v into one more buffer, which it returns. So a product and its
    parts are valid until the system's next product, and no product
    allocates an array of the state's size.

    The last product keeps M v and the stencil of v in a one-slot hand-off:
    the certified solve's final product is of the increment it returns, so
    ``mass_and_stencil`` gives the integrator the increment's parts without
    a second application.
    """

    def __init__(self, forms, c):
        self.forms = forms
        self.c = float(c)
        self.shape = (forms.n, forms.n)
        self._out = forms.workspace()
        self._sv = np.empty(forms.n)
        self._kept = None

    def __matmul__(self, v):
        mv, st = self.forms.mass_and_stencil(v, self._out)
        self._kept = (v, mv, st)
        np.multiply(st.au, self.c, out=self._sv)
        self._sv += mv
        return self._sv

    def mass_and_stencil(self, x):
        """(M x, Stencil of x): the last product's if it was of this very
        array ``x``, else fresh ones. The caller must not modify them, and
        the last product's are valid until the next product."""
        if self._kept is not None and self._kept[0] is x:
            return self._kept[1:]
        return self.forms.mass_and_stencil(x)


class KroneckerSystem(_ThetaSystem):
    """M + cA of the eps-level forms in x-modes (:class:`ModalForms`): the
    block diagonal of the nx tridiagonal blocks (1 + c lam_k) M_xi + c K_xi,
    with the xi-stiffness in incidence form. ``S @ v`` is one contiguous
    pass per term over the flat modes (the M_xi product, the xi-stencil,
    the scale by lam), written into the system's workspace, so it and its
    parts are valid until the next product; the inner solve is one
    tridiagonal sweep over all blocks at once, from both ends of each
    (:meth:`factorize`), with no dense product (fast diagonalization in x).
    """

    def norm_inf(self):
        """||M + cA||_inf, exactly: the largest row sum of absolute values
        over the blocks."""
        f, c = self.forms, self.c
        scale = 1.0 + c * f.lam[:, None]
        rows = sum(np.abs(scale * f.M_xi[i] + c * f.K_xi[i]) for i in range(3))
        return float(rows.max())

    def factorize(self):
        """Inner solver r -> (M + cA)^{-1} r: one tridiagonal sweep over all
        blocks at once, from both ends of each.

        The blocks are never diagonalized in xi (M_xi has condition
        ~exp(1/eps)); each is factored with GTH pivots: the K_xi rows sum to
        zero, so the row excess of block k is exactly (1 + c lam_k) times
        the M_xi row sums, and D_j = r_j - e_j, L_j = e_j / D_j,
        r_{j+1} = excess_{j+1} - L_j r_j has no cancellation where the
        off-diagonals e_j are <= 0. The elimination runs with these pivots
        from both wells toward the saddle row m = (nxi - 1)/2 (a Grid's
        count is odd), where the twist pivot excess_m - L r (top) - L r
        (bottom) is again a sum of nonnegative terms.

        The factors lie as (m, 2, nx): pass j of the sweep is row j of the
        top half and row nxi-1-j of the bottom half of every block, one
        contiguous pass over 2 nx entries. A solve gathers the right-hand
        side into that layout, runs the forward passes, the twist row, one
        division by the pivots and the backward passes in one workspace,
        and writes a fresh solution, which the caller may keep.
        """
        f, c = self.forms, self.c
        nx, nxi = f.shape
        m = nxi // 2
        scale = 1.0 + c * f.lam
        off = scale[:, None] * f.M_xi[2, :-1] - c * f.g_xi
        excess = scale[:, None] * f.M_xi.sum(axis=0)

        def ends(a):
            # (m, 2, nx): column j and column -1-j of the (nx, .) array a
            return np.stack((a[:, :m], a[:, ::-1][:, :m]), axis=1).transpose(
                2, 1, 0).copy()

        ex, e = ends(excess), ends(off)
        # the pivots in the layout of the workspace: the pairs, then row m
        D = np.empty(nxi * nx)
        pivots = D[:-nx].reshape(m, 2, nx)
        L = np.empty((m, 2, nx))
        r = ex[0]
        for j in range(m):
            np.subtract(r, e[j], out=pivots[j])
            np.divide(e[j], pivots[j], out=L[j])
            lr = L[j] * r
            if j + 1 < m:
                r = ex[j + 1] - lr
        np.subtract(excess[:, m] - lr[0], lr[1], out=D[-nx:])
        if not np.all(D > 0.0):
            raise SolverError(f"tensor factorization of M + {c:g} A at "
                              f"eps = {f.eps:g} lost positive pivots")

        work = np.empty(nxi * nx)
        pairs, mid = work[:-nx].reshape(m, 2 * nx), work[-nx:]
        top, bottom = pairs.reshape(m, 2, nx).transpose(1, 0, 2)
        t = np.empty(2 * nx)
        t_pair = t.reshape(2, nx)
        t_top, t_bottom = t_pair
        # the last pass meets the twist row, the others the next pass
        L_twist = L[-1]
        L = L.reshape(m, 2 * nx)
        L_end, x_end = L[-1], pairs[-1]
        passes = list(zip(L[:-1], pairs[:-1], pairs[1:]))
        mul, sub = np.multiply, np.subtract

        def solve(rhs):
            R = rhs.reshape(nx, nxi)
            np.copyto(top, R[:, :m].T)
            np.copyto(bottom, R[:, :m:-1].T)
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
            x = np.empty((nx, nxi))
            np.copyto(x[:, :m], top.T)
            np.copyto(x[:, :m:-1], bottom.T)
            x[:, m] = mid
            return x.reshape(-1)
        return solve

    def residual_mass(self, r):
        """1^T r of the nodal residual: the sum of its mode-0 block."""
        return float(r[:self.forms.shape[1]].sum())


# the README's per-step certificates
MASS_DRIFT_BOUND = 1e-10
ENERGY_RESIDUAL_BOUND = 1e-9
# the mass a certified solve may leave in its residual, per step
MASS_RESIDUAL_BOUND = 1e-3 * MASS_DRIFT_BOUND
# the backward error every theta-step solve of both levels certifies
RESIDUAL_TARGET = 1e-11
# the most refinement sweeps one certified solve may take
MAX_REFINE = 6


class LinearSolver:
    """Linear solve with a backward-error certificate.

    ``S`` is a structured system (:class:`KroneckerSystem`, or
    ``evolve_limit.LimitSystem``) that supplies its own ``norm_inf`` and
    ``factorize``, both in numpy alone, or a sparse matrix, factored by
    SuperLU. No run of the package takes the sparse branch, the one user of
    scipy in this module (``scipy.sparse.linalg``, imported there): it
    serves ``perfbench/probe.py`` and the tests, as a reference for the
    structured solvers. Every residual r = rhs - op(x) is taken against
    ``op`` (by default ``S @ v``), the exact operator action.

    The certificate is the normwise backward error
    ||r|| / (||S|| ||x|| + ||rhs||): on the stiff rows the plain
    ||r||/||rhs|| measurement is floored by the cancellation noise of the
    matvec itself (observed ~2e-11 at default grids) and cannot certify
    anything tighter, while the backward error stays meaningful down to
    machine precision. A :class:`SolverError` carrying the achieved value is
    raised when the target is not met or the solution is not finite.

    At the eps level every vector is in x-modes (:class:`KroneckerSystem`),
    so the certificate is the backward error of the modal system. The modes
    y = V^T M_x u measure u in the M_x (x) I norm, and a modal residual
    V^T r measures r in its dual, so with 2-norms throughout the nodal
    backward error is at most cond(M_x) times the modal one; for uniform
    hats cond(M_x) < 4.

    The solve returns once it is certified and the mass |1^T r| that the
    residual leaves, read by ``S.residual_mass`` (the sum of the mode-0
    block at the eps level), is at most MASS_RESIDUAL_BOUND: the stiffness
    has zero column sums, so a theta step moves the mass by
    1^T rhs - 1^T r, and a residual along the constant vector, invisible to
    normwise measures, leaks mass directly. The first solve usually meets
    both; else refinement sweeps x += inner(r) follow, at most
    MAX_REFINE, ending at the first that cuts the excess by under 10%.

    The solve's last ``op`` call is of the very array it returns, unless
    its last sweep was rejected. The integrator relies on this: a
    structured ``S`` (kept as ``self.S``) hands that product's M x and
    stencil on through ``mass_and_stencil``. The residual of every solve
    is written into one buffer, allocated with the solver. A solution is
    non-finite when its norm is: the certificate takes ||x|| anyway, and a
    norm that overflows counts as non-finite too.
    """

    def __init__(self, S, target=RESIDUAL_TARGET, op=None):
        self.target = float(target)
        self.S = S
        if hasattr(S, "factorize"):
            self.norm_S = S.norm_inf()
            self._inner = S.factorize()
            self._mass = S.residual_mass
        else:
            import scipy.sparse.linalg as spla
            S = S.tocsr()
            self.norm_S = float(np.abs(S).sum(axis=1).max())
            self._inner = spla.splu(S.tocsc()).solve
            self._mass = np.sum
        self.op = op if op is not None else (lambda v: S @ v)
        self._r = np.empty(S.shape[0])

    def solve(self, rhs):
        rhs = np.asarray(rhs, dtype=float)
        norm_rhs = float(np.linalg.norm(rhs))
        if norm_rhs == 0.0:
            return np.zeros_like(rhs)

        def certify(x):
            # backward error, excess over the stop rule (<= 1) and ||x||;
            # the residual is left in self._r
            r = np.subtract(rhs, self.op(x), out=self._r)
            norm_x = float(np.linalg.norm(x))
            res = float(np.linalg.norm(r)) / (self.norm_S * norm_x + norm_rhs)
            return res, max(res / self.target,
                            abs(float(self._mass(r))) / MASS_RESIDUAL_BOUND
                            ), norm_x

        x = self._inner(rhs)
        res, excess, norm_x = certify(x)
        for _ in range(MAX_REFINE):
            if not excess > 1.0:
                break
            # a rejected sweep ends the refinement, so self._r is always
            # the residual of x here
            better = x + self._inner(self._r)
            res_new, excess_new, norm_new = certify(better)
            if excess_new < excess:
                x, res, norm_x = better, res_new, norm_new
            if not excess_new < 0.9 * excess:
                break
            excess = excess_new
        if not math.isfinite(norm_x):
            raise SolverError("linear solve returned a non-finite solution",
                              residual=res)
        if not res <= self.target:
            raise SolverError(
                f"linear solve stagnated at relative residual {res:.3e} "
                f"(target {self.target:.1e})", residual=res)
        return x


SCHEMES = ("CN_rannacher", "BE")


def step_index(t, dt):
    """The step round(t / dt) on which the time ``t`` falls, or None if
    ``t`` is not a whole number of steps ``dt`` to 1e-9 relative. A time
    lies within a horizon when its step is at most the horizon's."""
    q = t / dt
    n = int(round(q)) if np.isfinite(q) else np.nan
    return n if abs(n * dt - t) <= 1e-9 * max(abs(t), 1.0) else None


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
    n_steps = step_index(T, dt)
    if n_steps is None or n_steps < 1:
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
    diffusion and reaction parts for the limit system.
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
    dt: float

    @property
    def a(self):
        return self.a1 + self.a2

    def snapshot_at(self, t):
        n = step_index(t, self.dt)
        for ts, state in self.snapshots:
            if n is not None and step_index(ts, self.dt) == n:
                return state
        raise KeyError(f"no snapshot stored at t = {t!r}")


def energy_excess(residual, theta):
    """The part of one step's energy-identity residual that the certificate
    bounds by ENERGY_RESIDUAL_BOUND * max(1, b0): its absolute value on
    trapezoidal steps (theta = 1/2), the residual itself on damped steps,
    where it is nonpositive."""
    return abs(residual) if theta == 0.5 else residual


def _step_error(where, step, t, message, residual=None):
    """The :class:`SolverError` of one step, naming the run, the step and
    the time it reaches."""
    return SolverError(f"{where}, step {step} (t = {t:g}): {message}",
                       residual=residual)


def _certify_step(where, step, t, drift, residual, theta, b0):
    """Raise :class:`SolverError` if one step broke a certificate.

    The mass may move by at most MASS_DRIFT_BOUND, and the
    :func:`energy_excess` of the energy-identity residual is at most
    ENERGY_RESIDUAL_BOUND * max(1, b0). A NaN breaks either bound.
    """
    bound = ENERGY_RESIDUAL_BOUND * max(1.0, b0)
    if not abs(drift) <= MASS_DRIFT_BOUND:
        quantity = (f"mass drift {drift:.3e} exceeds {MASS_DRIFT_BOUND:.0e}")
    elif not energy_excess(residual, theta) <= bound:
        quantity = (f"energy-identity residual {residual:.3e} exceeds "
                    f"{bound:.3e}")
    else:
        return
    raise _step_error(where, step, t, quantity)


def _snapshot_steps(snapshot_times, dt, n_steps):
    steps = {}
    for t in snapshot_times:
        k = step_index(t, dt)
        if k is None or not 0 <= k <= n_steps:
            raise ValueError(
                f"snapshot time {t!r} is not a step multiple within [0, T]")
        steps[k] = t
    return steps


class _CarriedState:
    """The current state u of a run with M u, its :class:`Stencil` and the
    scalars b = u^T M u, a1 and a2.

    All of them but the scalars are linear in u, so ``advance`` adds an
    increment's M x and stencil in place instead of evaluating the forms
    at the new state. The carried arrays are the state's own, and u is the
    stencil's first part (at both levels that part is the argument's
    memory), so adding the increment's stencil adds x to u.
    """

    def __init__(self, forms, u):
        self.mu, self.st = forms.mass_and_stencil(np.array(u, dtype=float))
        self.u = self.st.parts[0][0]
        self._energies()

    def _energies(self):
        self.b = float(self.u @ self.mu)
        self.a1, self.a2 = self.st.a1, self.st.a2

    def advance(self, x, mx, sx, theta, dt):
        """u += x, given M x and the stencil ``sx`` of x; returns the step's
        energy-identity residual b(u + x)/2 - b(u)/2 + dt a(u + theta x),
        with a(u + theta x) from the old parts and those of x."""
        a_theta = (self.a1 + self.a2 + theta * self.st.cross(sx)
                   + theta * theta * sx.a)
        b_u = self.b
        self.mu += mx
        self.st += sx
        self._energies()
        return 0.5 * self.b - 0.5 * b_u + dt * a_theta


def _integrate(forms, system, u, T, dt, scheme, snapshot_times, wrap,
               start, where):
    """The theta loop of both levels, from the flat initial state ``u``.

    ``system(forms, c)`` is the structured M + cA, ``wrap(vec)`` builds a
    snapshot from a private copy of the state, ``start`` is the snapshot of
    the initial state, and ``where`` names the run in a
    :class:`SolverError`. The forms are evaluated at the initial state
    only: each sub-step's certified solve applies M + cA to the increment x
    it returns, and that product hands M x and the stencil of x on to the
    :class:`_CarriedState`, which adds them in place. So a sub-step costs
    one inner solve and one operator application; the carried A u is the
    next right-hand side, and b, a1, a2 and the energy a(u_theta) of the
    energy identity come from the carried parts.
    """
    n_steps, groups = theta_plan(
        T, dt, scheme,
        lambda c: LinearSolver(system(forms, c), RESIDUAL_TARGET))
    want = _snapshot_steps(snapshot_times, dt, n_steps)

    state = _CarriedState(forms, u)
    rhs = np.empty(forms.n)
    # M 1; in x-modes only its mode-0 block is nonzero
    mass_vec = forms.apply_m(forms.one)
    times, mass, b, a1, a2 = (np.zeros(n_steps + 1) for _ in range(5))
    e_res = np.zeros(n_steps)
    thetas = np.zeros(n_steps)
    snapshots = []

    def record(idx, t):
        times[idx] = t
        mass[idx] = float(mass_vec @ state.u)
        b[idx], a1[idx], a2[idx] = state.b, state.a1, state.a2
        if idx in want:
            snapshots.append(
                (want[idx], wrap(state.u.copy()) if idx else start))

    record(0, 0.0)
    t = 0.0
    for step, group in enumerate(groups, start=1):
        residual = 0.0
        for theta, dt_sub, solver in group:
            try:
                x = solver.solve(np.multiply(state.st.au, -dt_sub, out=rhs))
            except SolverError as exc:
                raise _step_error(where, step, t + dt_sub, exc,
                                  exc.residual) from exc
            residual += state.advance(x, *solver.S.mass_and_stencil(x),
                                      theta, dt_sub)
            t += dt_sub
        e_res[step - 1] = residual
        thetas[step - 1] = group[0][0]
        record(step, t)
        _certify_step(where, step, t, mass[step] - mass[step - 1], residual,
                      thetas[step - 1], b[0])
    return Trajectory(times=times, mass=mass, b=b, a1=a1, a2=a2,
                      energy_residual=e_res, thetas=thetas,
                      snapshots=snapshots, dt=dt)


def solve(forms, u0, T, dt, scheme="CN_rannacher", snapshot_times=()):
    """Integrate M du/dt + A u = 0 from the nodal field ``u0`` to time T.

    Steps the x-modes of the forms (:class:`ModalForms`); the snapshots are
    nodal fields, and the one at t = 0 is a copy of ``u0``. Records mass,
    the squared norm b and the energy split (a1, a2) at every step, the
    per-step residual of the discrete energy identity
    b(u_next)/2 - b(u)/2 + dt a(u_theta) (zero up to solver tolerance on
    trapezoidal steps, nonpositive on damped ones), and full states at
    ``snapshot_times``. Every step's solve is certified to the backward
    error RESIDUAL_TARGET. Raises :class:`SolverError`, naming eps, the
    step, t and the quantity, as soon as a step drifts the mass or breaks
    the energy identity beyond the certificates.
    """
    if not isinstance(u0, Field):
        raise TypeError("u0 must be a Field")
    modal = ModalForms(forms)
    return _integrate(
        modal, KroneckerSystem, modal.coefficients(u0.values), T, dt, scheme,
        snapshot_times, lambda y: Field(modal.values(y), u0.grid),
        Field(u0.values.copy(), u0.grid), f"eps = {forms.eps:g}")
