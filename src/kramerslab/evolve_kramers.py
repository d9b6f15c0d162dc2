"""Theta-scheme time integration of the eps-level evolution and its limit.

The scheme is unconditionally stable, so the step size is purely an accuracy
knob. The default starts with two damped half-steps before switching to the
trapezoidal rule: the reaction-coordinate operator carries the huge rescaled
clock, and the damped start kills its stiff transients while the trapezoidal
steps preserve the discrete energy identity exactly.

The eps level steps in the x-eigenbasis (``grid_forms.ModalForms``), where
M + cA is block diagonal; nodal fields are formed only at entry and at
snapshots. The same integrator steps the two-species limit system
(:func:`solve_limit`, on ``grid_forms.ModalLimitForms``): both levels are
gradient flows of an energy ``a`` in the metric ``b`` and differ only in
their forms, which own the block solve of M + cA (:class:`ThetaSystem`).
Both solves run in numpy alone, over all x-modes at once (the two-ended
tridiagonal sweep at the eps level, the closed-form inverse of each 2 x 2
block at the limit), so no run loads scipy.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .grid_forms import Field, LimitField, ModalForms, SolverError

__all__ = ["SolverError", "ThetaSystem", "LinearSolver", "Trajectory",
           "SCHEMES", "solve", "solve_limit", "energy_excess"]


class ThetaSystem:
    """The theta-step matrix M + cA of the modal ``forms`` of either level;
    ``S @ v`` is the exact action, with the mass and the stencil from
    ``forms.mass_and_stencil``. The forms also own its block solve
    (``forms.norm_inf(c)``, ``forms.factorize(c)`` and
    ``forms.residual_mass``, read by :class:`LinearSolver`).

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

    ``S`` is a :class:`ThetaSystem`, whose forms supply its ``norm_inf``
    and ``factorize``, both in numpy alone, or a sparse matrix, factored by
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

    At the eps level every vector is in x-modes (``ModalForms``), so the
    certificate is the backward error of the modal system. The modes
    y = V^T M_x u measure u in the M_x (x) I norm, and a modal residual
    V^T r measures r in its dual, so with 2-norms throughout the nodal
    backward error is at most cond(M_x) times the modal one; for uniform
    hats cond(M_x) < 4.

    The solve returns once it is certified and the mass |1^T r| that the
    residual leaves, read by the forms' ``residual_mass`` (the sum of the
    mode-0 block at the eps level), is at most MASS_RESIDUAL_BOUND: the stiffness
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
        if isinstance(S, ThetaSystem):
            self.norm_S = S.forms.norm_inf(S.c)
            self._inner = S.forms.factorize(S.c)
            self._mass = S.forms.residual_mass
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


# the most steps a run may take: its seven per-step records then take
# about 560 MB
MAX_STEPS = 10**7


def horizon_steps(T, dt):
    """The number of steps ``dt`` in the horizon ``T``; raises ValueError
    unless dt > 0 and T is a positive whole number of steps, at most
    MAX_STEPS of them."""
    if not dt > 0.0:
        raise ValueError("dt must be positive")
    n = step_index(T, dt)
    if n is None or n < 1:
        raise ValueError(f"T = {T!r} is not a positive multiple of dt = {dt!r}")
    if n > MAX_STEPS:
        raise ValueError(f"T = {T!r} takes {n:.3g} steps of dt = {dt!r}, "
                         f"more than the {MAX_STEPS:.0e} a run may take")
    return n


def theta_plan(T, dt, scheme, make_solver):
    """Pre-factorized sub-step plan covering [0, T] in steps of ``dt``.

    ``make_solver(c)`` returns the solver of M + c A. Returns
    (n_steps, groups): each group is a list of sub-steps (theta, dt_sub,
    solver) that together advance one dt. The damped-start scheme shares one
    factorization because the trapezoidal system matrix M + (dt/2) A equals
    the half-step damped one.
    """
    n_steps = horizon_steps(T, dt)
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


def _integrate(forms, u, T, dt, scheme, snapshot_times, wrap, start,
               where):
    """The theta loop of both levels, from the flat initial state ``u`` in
    the modes of ``forms``.

    ``wrap(vec)`` builds a snapshot from a private copy of the state, ``start`` is the snapshot of
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
        lambda c: LinearSolver(ThetaSystem(forms, c), RESIDUAL_TARGET))
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
        modal, modal.coefficients(u0.values), T, dt, scheme, snapshot_times,
        lambda y: Field(modal.values(y), u0.grid),
        Field(u0.values.copy(), u0.grid), f"eps = {forms.eps:g}")


def solve_limit(lforms, u0, T, dt, scheme="CN_rannacher", snapshot_times=()):
    """Integrate the limit system M dw/dt + A w = 0 for w = (u_minus, u_plus).

    Steps the limit forms ``lforms`` (a ``grid_forms.ModalLimitForms``, as
    ``assemble_limit`` builds them) in their x-modes, each solve certified
    against the exact action of the forms; the snapshots are nodal pairs,
    the one at t = 0 a copy of ``u0``. Returns a :class:`Trajectory` whose
    energy split is (diffusion, reaction). Raises :class:`SolverError`,
    naming the step, t and the quantity, as soon as a step drifts the mass
    or breaks the energy identity beyond the certificates.
    """
    if not isinstance(u0, LimitField):
        raise TypeError("u0 must be a LimitField")
    x = lforms.x_nodes
    if not np.array_equal(u0.x_nodes, x):
        raise ValueError("initial data and forms live on different x-grids")
    return _integrate(
        lforms, lforms.coefficients(u0), T, dt, scheme, snapshot_times,
        lambda y: LimitField(*lforms.values(y), x),
        LimitField(u0.u_minus.copy(), u0.u_plus.copy(), x), "limit system")
