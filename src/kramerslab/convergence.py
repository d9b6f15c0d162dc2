"""Ladder studies: weak-* pairings, traces, form values and scaling regimes.

Runs the eps-level solver down a ladder of scales, compares everything
against the two-species limit solver, and reports the monotonicity and
lower-bound booleans that certify the convergence statements at desk scale.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import gibbs
from .enthalpy import EnthalpyProfile
from .evolve_kramers import SCHEMES, SolverError, solve
from .evolve_limit import solve_limit
from .grid_forms import (AssemblyError, LimitField, assemble, assemble_limit,
                         b_form, build_grid, l2_norm_x, mass_matrix_1d,
                         nonlinear_observable, nonlinear_observable_limit,
                         nonlinear_observables, pair_measure, paired,
                         xi_node_functional)
from .quadrature import QuadratureError
from .transition import k_eps, lift, limit_rate, q_eps

__all__ = [
    "StudyConfig", "EpsRow", "ConvergenceReport", "traces", "cutoff_bump",
    "cutoff_average", "cutoff_mass", "gamma_limsup_check", "LimsupTable",
    "run_ladder_study", "ConfigError", "check_study", "check_eps",
    "check_times", "REGIMES",
    "nonlinear_observable", "nonlinear_observable_limit", "pair_measure",
    "fiber_bound_margin", "gradient_bound_margin", "xi_flatness",
    "default_test_functions", "MONOTONE_FLOOR",
]

REGIMES = ("critical", "sub", "super")

# Two error ladders are called monotone if each entry drops below its
# predecessor or below this floor; pairings whose two sides agree to
# conservation accuracy (e.g. the constant test function) sit at roundoff
# where strict ordering is meaningless.
MONOTONE_FLOOR = 1e-8


def traces(field):
    """Restriction of a field to the two well lines."""
    return LimitField(u_minus=field.values[:, 0].copy(),
                      u_plus=field.values[:, -1].copy(),
                      x_nodes=field.grid.x_nodes)


def cutoff_bump(xi, side="-"):
    """C^1 cubic bump equal to 1 at the chosen endpoint, supported on the
    half-well [-1, -1/2] (mirrored for side '+')."""
    xi = np.asarray(xi, dtype=float)
    if side == "-":
        s = (xi + 1.0) / 0.5
    elif side == "+":
        s = (1.0 - xi) / 0.5
    else:
        raise ValueError("side must be '-' or '+'")
    s = np.clip(s, 0.0, 1.0)
    return (1.0 - s) ** 2 * (1.0 + 2.0 * s)


def _cutoff_weights(grid, profile, eps, log_z, side):
    h = profile.eval

    def fn(xi):
        return cutoff_bump(xi, side) * np.exp(
            -np.asarray(h(xi), dtype=float) / eps - log_z)

    return xi_node_functional(grid, fn)


def cutoff_mass(profile, eps, grid, side="-", log_z=None):
    """Mass of the cutoff under the reference measure; tends to 1/2."""
    if log_z is None:
        log_z = gibbs.log_partition(profile, eps)
    return float(_cutoff_weights(grid, profile, eps, log_z, side).sum())


def cutoff_average(field, profile, side="-", log_z=None):
    """Normalized cutoff mean over the chosen well, one value per x-node."""
    if log_z is None:
        log_z = gibbs.log_partition(profile, field.eps)
    w = _cutoff_weights(field.grid, profile, field.eps, log_z, side)
    return (field.values @ w) / w.sum()


def fiber_bound_margin(forms, field, rate):
    """Margin of the xi-energy over rate * squared trace gap.

    Along every x-fiber the xi-energy dominates the minimal connection cost
    of its own endpoint values, so the margin must be nonnegative up to
    roundoff for any field whatsoever.
    """
    tr = traces(field)
    gap = tr.u_plus - tr.u_minus
    return forms.a2_energy(field) - rate * float(gap @ (forms.M_x @ gap))


def gradient_bound_margin(forms, field):
    """Margin of the x-energy over the cutoff-projected gradient energy.

    Uses the unnormalized cutoff means (mass ~ 1/2 each); with normalized
    means the bound would fail by the squared cutoff mass, as a purely
    x-dependent field shows.
    """
    grid, profile, eps = forms.grid, forms.profile, forms.eps
    wm = _cutoff_weights(grid, profile, eps, forms.log_z, "-")
    wp = _cutoff_weights(grid, profile, eps, forms.log_z, "+")
    vm = field.values @ wm
    vp = field.values @ wp
    bound = (float(vm @ (forms.K_x @ vm)) / wm.sum()
             + float(vp @ (forms.K_x @ vp)) / wp.sum())
    return forms.a1_energy(field) - bound


def xi_flatness(field, delta=0.5):
    """Unweighted squared L2 norm of the xi-derivative away from the saddle
    (cells whose midpoint satisfies |xi| >= delta)."""
    grid = field.grid
    xi = grid.xi_nodes
    mid = 0.5 * (xi[1:] + xi[:-1])
    h = np.diff(xi)
    sel = np.abs(mid) >= delta
    dU = np.diff(field.values, axis=1)[:, sel] / h[sel]
    M_x = mass_matrix_1d(grid.x_nodes, order=grid.quad_order)
    W = M_x @ dU
    return float(np.einsum("ic,ic->c", dU, W) @ h[sel])


def default_test_functions():
    """Smooth dictionary with both spatial and reaction-coordinate content."""
    return {
        "1": lambda x, xi: np.broadcast_to(1.0, np.broadcast_shapes(
            np.shape(x), np.shape(xi))),
        "xi": lambda x, xi: xi + 0.0 * x,
        "xi^2": lambda x, xi: xi * xi + 0.0 * x,
        "cos(pi x)": lambda x, xi: np.cos(np.pi * x) + 0.0 * xi,
        "cos(2pi x)": lambda x, xi: np.cos(2.0 * np.pi * x) + 0.0 * xi,
        "cos(pi x) xi": lambda x, xi: np.cos(np.pi * x) * xi,
        "cos(2pi x) xi": lambda x, xi: np.cos(2.0 * np.pi * x) * xi,
    }


def _snapshot_observables():
    """The (kind, name) keys and the f(x, xi, u) of every pairing and
    observable measured at a snapshot, in report order."""
    test_fns = default_test_functions()
    observables = {"u^2": lambda x, xi, r: r * r,
                   "|u|^1.5": lambda x, xi, r: np.abs(r) ** 1.5}
    keys = ([("pairing", n) for n in test_fns]
            + [("observables", n) for n in observables])
    fns = [paired(phi) for phi in test_fns.values()] + list(observables.values())
    return keys, fns


class ConfigError(ValueError):
    """A configuration breaks a rule; the message starts with its field."""


def check_eps(field, eps):
    """Reject a scale outside [EPS_FLOOR, EPS_CEIL]."""
    if not gibbs.EPS_FLOOR <= eps <= gibbs.EPS_CEIL:
        raise ConfigError(
            f"{field}: {eps} outside [{gibbs.EPS_FLOOR}, {gibbs.EPS_CEIL}] "
            "(double-precision floor: the barrier weight exp(-1/eps) "
            "drowns in roundoff during form assembly below it)")


def check_times(field, times, dt, t_final):
    """Reject a time that is not a positive whole number of steps dt within
    t_final, to the tolerance of the integrator's plan, or that falls on the
    step of an earlier time."""
    steps = set()
    for t in times:
        q = t / dt
        if not (t <= t_final + 1e-12 and 0.5 < q < math.inf
                and abs(round(q) * dt - t) <= 1e-9 * max(t, 1.0)):
            raise ConfigError(f"{field}: {t!r} is not a positive multiple of "
                              f"dt = {dt!r} up to t_final = {t_final!r}")
        if round(q) in steps:
            raise ConfigError(f"{field}: {t!r} repeats an earlier time")
        steps.add(round(q))


def check_study(ladder, dt, t_final, times, scheme, regime, min_rungs=2):
    """Raise ``ConfigError("<field>: ...")`` for the first rule a study
    breaks, before any work starts; a ladder needs ``min_rungs`` scales."""
    if len(ladder) < min_rungs or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder: must be strictly decreasing with at least "
                          f"{min_rungs} entries, got {list(ladder)}")
    for eps in ladder:
        check_eps("ladder", eps)
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"dt: must be finite and positive, got {dt!r}")
    check_times("t_final", (t_final,), dt, t_final)
    check_times("times", times, dt, t_final)
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme: must be one of {SCHEMES}, got {scheme!r}")
    if regime not in REGIMES:
        raise ConfigError(f"regime: must be one of {REGIMES}, got {regime!r}")


@dataclass(frozen=True)
class StudyConfig:
    """Ladder study setup; defaults match the desk-scale certification runs."""

    profile: EnthalpyProfile
    ladder: tuple = (0.2, 0.1, 0.05)
    nx: int = 129
    nxi: int = 161
    dt: float = 1e-3
    t_final: float = 1.0
    times: tuple = (0.1, 0.5, 1.0)
    scheme: str = "CN_rannacher"
    regime: str = "critical"
    quad_order: int = 4
    u0_minus: Callable = staticmethod(lambda x: np.cos(np.pi * x))
    u0_plus: Callable = staticmethod(lambda x: 1.0 + np.cos(np.pi * x))
    grading: str = "three_zone"

    def __post_init__(self):
        object.__setattr__(self, "ladder", tuple(float(e) for e in self.ladder))
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        check_study(self.ladder, self.dt, self.t_final, self.times,
                    self.scheme, self.regime)


@dataclass
class EpsRow:
    """Everything recorded for a single rung of the ladder."""

    eps: float
    rate: float              # minimal-cost coefficient at this eps
    rate_effective: float    # with the regime's clock scaling
    q: float
    pairing: dict            # name -> {t: (value_eps, value_limit, abs_err)}
    trace_err: dict          # t -> L2(x) distance of traces to the limit pair
    b_vals: dict             # t -> (b_eps, b_limit, abs_err)
    a_vals: dict             # t -> (a_eps, a_limit, abs_err)
    a_split: dict            # t -> (a1_eps, a2_eps, reaction_limit)
    observables: dict        # name -> {t: (value_eps, value_limit, abs_err)}
    gap_norm: dict           # t -> L2(x) norm of the trace gap
    fiber_margin: dict       # t -> margin of the fiber lower bound
    jensen_margin: dict      # t -> margin of the gradient lower bound
    flatness: dict           # t -> outer xi-derivative mass
    mass_drift: float
    energy_residual_max: float


@dataclass
class ConvergenceReport:
    """Ladder table plus the explicit boolean certificates.

    ``row_errors`` records rungs whose sub-solves failed (eps -> reason);
    a nonempty record fails the ``ladder_complete`` certificate.
    """

    regime: str
    ladder: tuple
    times: tuple
    limit_rate: float
    rows: list
    limit_values: dict
    checks: dict
    row_errors: dict

    @property
    def all_ok(self):
        return all(self.checks.values())

    def failures(self):
        return sorted(name for name, ok in self.checks.items() if not ok)

    def to_dict(self):
        d = _plain(dataclasses.asdict(self))
        for row in d["rows"]:
            row["b"], row["a"] = row.pop("b_vals"), row.pop("a_vals")
        # per-name limit tables keep float t keys, which json sorts as numbers
        d["limit_values"] = {
            n: {str(k): _plain(v, str_keys=False) for k, v in tv.items()}
            for n, tv in self.limit_values.items()}
        d["all_ok"] = self.all_ok
        return d


def _plain(value, str_keys=True):
    """JSON-ready copy: tuples become lists, numpy scalars floats (np.bool_
    bool) and, with ``str_keys``, dict keys strings."""
    if isinstance(value, dict):
        return {str(k) if str_keys else k: _plain(v, str_keys)
                for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_plain(v, str_keys) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.generic):
        return float(value)
    return value


def _monotone(errs, floor=MONOTONE_FLOOR):
    return all(b < a or b <= floor for a, b in zip(errs, errs[1:]))


def _limit_reference(cfg, x, k, um0, up0):
    """The limit side of the study: its forms, its trajectory and its
    values at the sample times, against which every rung is measured."""
    # off the critical scaling the limit has no reaction: the sub regime
    # keeps the initial pair, the super regime starts it at equilibrium
    k_target = k if cfg.regime == "critical" else 0.0
    lm0, lp0 = um0, up0
    if cfg.regime == "super":
        lm0 = lp0 = 0.5 * (um0 + up0)
    lforms = assemble_limit(x, k_target, quad_order=cfg.quad_order)
    ltraj = solve_limit(lforms, LimitField(lm0, lp0, x), cfg.t_final, cfg.dt,
                        scheme=cfg.scheme, snapshot_times=(0.0,) + cfg.times)
    values = {"pairing": {}, "b": {}, "a": {}, "observables": {}, "gap": {}}
    keys, fns = _snapshot_observables()
    for t in cfg.times:
        w = ltraj.snapshot_at(t)
        n = round(t / cfg.dt)
        values["b"][t] = float(ltraj.b[n])
        values["a"][t] = float(ltraj.a[n])
        values["gap"][t] = l2_norm_x(lforms.M_x, w.u_plus - w.u_minus)
        for (kind, name), fn in zip(keys, fns):
            values[kind].setdefault(name, {})[t] = nonlinear_observable_limit(
                w, fn, cfg.quad_order)
    return lforms, ltraj, values


def _rung(cfg, grid, limit, um0, up0, eps):
    """One rung: assemble -> lift -> integrate -> diagnose. A failed
    sub-solve aborts this rung only, returning (eps, reason) for the row."""
    try:
        shift = {"critical": 0.0, "sub": math.log(eps),
                 "super": -math.log(eps)}[cfg.regime]
        forms = assemble(grid, cfg.profile, eps, log_tau_shift=shift,
                         quad_order=cfg.quad_order)
        rate = k_eps(cfg.profile, eps)
        u0 = lift(um0, up0, cfg.profile, eps, grid)
        traj = solve(forms, u0, cfg.t_final, cfg.dt, scheme=cfg.scheme,
                     snapshot_times=(0.0,) + cfg.times)
        return _diagnose(cfg, limit, forms, traj, rate,
                         rate * math.exp(shift))
    except (SolverError, AssemblyError, QuadratureError) as exc:
        return eps, f"{type(exc).__name__}: {exc}"


def _diagnose(cfg, limit, forms, traj, rate, rate_eff):
    """The rung's row, each snapshot measured against the limit; b, a1 and
    a2 at t are the trajectory's record at step round(t / dt)."""
    lforms, ltraj, lv = limit
    eps = forms.eps
    row = EpsRow(eps=eps, rate=rate,
                 rate_effective=rate_eff, q=q_eps(cfg.profile, eps),
                 pairing={}, trace_err={}, b_vals={}, a_vals={}, a_split={},
                 observables={}, gap_norm={}, fiber_margin={},
                 jensen_margin={}, flatness={},
                 mass_drift=float(np.abs(np.diff(traj.mass)).max()),
                 energy_residual_max=float(
                     np.abs(traj.energy_residual[1:]).max()
                     if len(traj.energy_residual) > 1 else 0.0))
    keys, fns = _snapshot_observables()
    for t, state in traj.snapshots:
        row.fiber_margin[t] = fiber_bound_margin(forms, state, rate_eff)
        row.jensen_margin[t] = gradient_bound_margin(forms, state)
        if t == 0.0:
            continue
        lw = ltraj.snapshot_at(t)
        tr = traces(state)
        err2 = (l2_norm_x(lforms.M_x, tr.u_minus - lw.u_minus) ** 2
                + l2_norm_x(lforms.M_x, tr.u_plus - lw.u_plus) ** 2)
        row.trace_err[t] = math.sqrt(err2)
        row.gap_norm[t] = l2_norm_x(lforms.M_x, tr.u_plus - tr.u_minus)
        n = round(t / cfg.dt)
        b, a1, a2 = float(traj.b[n]), float(traj.a1[n]), float(traj.a2[n])
        row.b_vals[t] = (b, lv["b"][t], abs(b - lv["b"][t]))
        row.a_vals[t] = (a1 + a2, lv["a"][t], abs(a1 + a2 - lv["a"][t]))
        # the limit trajectory records the reaction energy of its state
        row.a_split[t] = (a1, a2, float(ltraj.a2[n]))
        row.flatness[t] = xi_flatness(state)
        # every pairing and observable from one interpolant of the snapshot
        for (kind, name), ve in zip(keys, nonlinear_observables(forms, state,
                                                                 fns)):
            vl = lv[kind][name][t]
            getattr(row, kind).setdefault(name, {})[t] = (ve, vl, abs(ve - vl))
    return row


def _certificates(cfg, rows, row_errors):
    """The report's booleans; a ladder with a failed rung certifies
    nothing beyond ``ladder_complete``."""
    checks = {"ladder_complete": not row_errors}
    if row_errors:
        return checks
    for t in cfg.times:
        for name in default_test_functions():
            errs = [r.pairing[name][t][2] for r in rows]
            checks[f"pairing_monotone[{name}][t={t:g}]"] = _monotone(errs)
        checks[f"mass_pairing_small[t={t:g}]"] = all(
            r.pairing["1"][t][2] <= 1e-9 for r in rows)
        checks[f"trace_monotone[t={t:g}]"] = _monotone(
            [r.trace_err[t] for r in rows])
        checks[f"b_monotone[t={t:g}]"] = _monotone(
            [r.b_vals[t][2] for r in rows])
        checks[f"a_monotone[t={t:g}]"] = _monotone(
            [r.a_vals[t][2] for r in rows])
        checks[f"flatness_decreasing[t={t:g}]"] = _monotone(
            [r.flatness[t] for r in rows], floor=1e-14)
        for name in rows[0].observables:
            errs = [r.observables[name][t][2] for r in rows]
            checks[f"observable_monotone[{name}][t={t:g}]"] = _monotone(errs)
    checks["fiber_bound"] = all(m >= -1e-8 for r in rows
                                for m in r.fiber_margin.values())
    checks["jensen_bound"] = all(m >= -1e-8 for r in rows
                                 for m in r.jensen_margin.values())
    checks["mass_conserved"] = all(r.mass_drift <= 1e-10 for r in rows)
    checks["energy_identity"] = all(
        r.energy_residual_max <= 1e-9 * max(1.0, rows[0].b_vals[cfg.times[0]][0])
        for r in rows)
    if cfg.regime == "sub":
        checks["effective_rate_scaling"] = all(
            abs(r.rate_effective / (r.eps * r.rate) - 1.0) <= 1e-12
            for r in rows)
        checks["effective_rate_decreasing"] = all(
            b.rate_effective < a.rate_effective
            for a, b in zip(rows, rows[1:]))
    if cfg.regime == "super":
        for t in cfg.times:
            checks[f"gap_decreasing[t={t:g}]"] = all(
                b.gap_norm[t] < a.gap_norm[t] for a, b in zip(rows, rows[1:]))
    return checks


def run_ladder_study(cfg):
    """Run the full ladder and assemble the report with its certificates:
    the limit reference first, then one rung per eps in ladder order, then
    the certificates."""
    grid = build_grid(cfg.nx, cfg.nxi, grading=cfg.grading,
                      quad_order=cfg.quad_order)
    x = grid.x_nodes
    k = limit_rate(cfg.profile)
    um0 = np.asarray(cfg.u0_minus(x), dtype=float)
    up0 = np.asarray(cfg.u0_plus(x), dtype=float)
    limit = _limit_reference(cfg, x, k, um0, up0)

    outcomes = [_rung(cfg, grid, limit, um0, up0, eps) for eps in cfg.ladder]
    rows = [o for o in outcomes if isinstance(o, EpsRow)]
    row_errors = {o[0]: o[1] for o in outcomes if not isinstance(o, EpsRow)}
    return ConvergenceReport(regime=cfg.regime, ladder=cfg.ladder,
                             times=cfg.times, limit_rate=k, rows=rows,
                             limit_values=limit[2],
                             checks=_certificates(cfg, rows, row_errors),
                             row_errors=row_errors)


@dataclass
class LimsupTable:
    """Recovery-family form values along the ladder vs the limit forms."""

    ladder: tuple
    b_eps: list
    a_eps: list
    b_limit: float
    a_limit: float
    b_errors: list
    a_errors: list
    b_monotone: bool
    a_monotone: bool


def gamma_limsup_check(u_minus, u_plus, ladder, grid, profile,
                       degenerate_floor=1e-12):
    """Form values of the embedded pair along the ladder against the limit.

    The embedding of a pair of well densities is the optimal recovery family;
    its mass and energy forms must approach the limit forms from the ladder.
    """
    x = grid.x_nodes
    um = np.asarray(u_minus(x) if callable(u_minus) else u_minus, dtype=float)
    up = np.asarray(u_plus(x) if callable(u_plus) else u_plus, dtype=float)
    k = limit_rate(profile)
    lforms = assemble_limit(x, k, quad_order=grid.quad_order)
    w = LimitField(um, up, x).stack()
    b_lim = b_form(lforms.apply_m, w, w)
    a_lim = lforms.stencil(w).a
    b_vals, a_vals = [], []
    for eps in ladder:
        forms = assemble(grid, profile, eps, quad_order=grid.quad_order)
        v = lift(um, up, profile, eps, grid)
        b_vals.append(b_form(forms.apply_m, v, v))
        a_vals.append(forms.a_energy(v))
    b_err = [abs(bv - b_lim) for bv in b_vals]
    a_err = [abs(av - a_lim) for av in a_vals]
    return LimsupTable(ladder=tuple(ladder), b_eps=b_vals, a_eps=a_vals,
                       b_limit=b_lim, a_limit=a_lim, b_errors=b_err,
                       a_errors=a_err,
                       b_monotone=_monotone(b_err, floor=degenerate_floor),
                       a_monotone=_monotone(a_err, floor=degenerate_floor))
