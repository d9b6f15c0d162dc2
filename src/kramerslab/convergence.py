"""Ladder studies: weak-* pairings, traces, form values and scaling regimes.

Runs the eps-level solver down a ladder of scales, compares everything
against the two-species limit solver, and reports the monotonicity and
lower-bound booleans that certify the convergence statements at desk scale.
"""
from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import gibbs
from .enthalpy import from_coefficients, quartic_default, validate
from .evolve_kramers import (ENERGY_RESIDUAL_BOUND, MASS_DRIFT_BOUND, SCHEMES,
                             SolverError, energy_excess, horizon_steps, solve,
                             solve_limit, step_index)
from .grid_forms import (AssemblyError, LimitField, ProductTest, apply_x,
                         assemble, assemble_limit, b_form, build_grid,
                         l2_norm_x,
                         nonlinear_observable, nonlinear_observable_limit,
                         nonlinear_observables, pair_limit, pair_measure)
from .quadrature import QUAD_ORDER, QuadratureError
from .transition import k_eps, lift, limit_rate, q_eps

__all__ = [
    "Config", "EpsRow", "ConvergenceReport", "traces", "cutoff_bump",
    "cutoff_average", "cutoff_mass", "gamma_limsup_check", "LimsupTable",
    "run_ladder_study", "ConfigError", "check_study", "check_times",
    "profile_from_config", "REGIMES",
    "nonlinear_observable", "nonlinear_observable_limit", "pair_measure",
    "fiber_bound_margin", "gradient_bound_margin", "xi_flatness",
    "default_test_functions", "MONOTONE_FLOOR", "DROPPED_NORM_BOUND",
]

REGIMES = ("critical", "sub", "super")

# Two error ladders are called monotone if each entry drops below its
# predecessor or below this floor; pairings whose two sides agree to
# conservation accuracy (e.g. the constant test function) sit at roundoff
# where strict ordering is meaningless.
MONOTONE_FLOOR = 1e-8

# The most M-norm a rung or the limit reference may leave unstepped in the
# x-modes that its initial state barely occupies (evolve_kramers.DROP_TOL),
# per max(1, ||u0||_M): the run is then within this share of the data of the
# run over every mode at every step (the limit reference has equal rates, so
# its bound's rate constant is 1). The drop rule leaves at most
# DROP_TOL sqrt(nx - 1) ||u0||_M.
DROPPED_NORM_BOUND = 1e-10


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


def _cutoff_weights(grid, measure, side):
    def fn(xi):
        return cutoff_bump(xi, side) * measure.density(xi)

    return grid.xi_rule.functional(fn)


def cutoff_mass(measure, grid, side="-"):
    """Mass of the cutoff under the Gibbs ``measure``; tends to 1/2."""
    return float(_cutoff_weights(grid, measure, side).sum())


def cutoff_average(field, measure, side="-"):
    """Normalized cutoff mean over the chosen well under the Gibbs
    ``measure`` of the field's scale, one value per x-node."""
    w = _cutoff_weights(field.grid, measure, side)
    return (field.values @ w) / w.sum()


def fiber_bound_margin(forms, field, rate):
    """Margin of the xi-energy over rate * squared trace gap.

    Along every x-fiber the xi-energy dominates the minimal connection cost
    of its own endpoint values, so the margin must be nonnegative up to
    roundoff for any field whatsoever.
    """
    tr = traces(field)
    gap = tr.u_plus - tr.u_minus
    return forms.a2_energy(field) - rate * float(gap @ apply_x(forms.M_x, gap))


def gradient_bound_margin(forms, field):
    """Margin of the x-energy over the cutoff-projected gradient energy.

    Uses the unnormalized cutoff means (mass ~ 1/2 each); with normalized
    means the bound would fail by the squared cutoff mass, as a purely
    x-dependent field shows.
    """
    wm = _cutoff_weights(forms.grid, forms.measure, "-")
    wp = _cutoff_weights(forms.grid, forms.measure, "+")
    vm = field.values @ wm
    vp = field.values @ wp
    bound = (float(vm @ apply_x(forms.K_x, vm)) / wm.sum()
             + float(vp @ apply_x(forms.K_x, vp)) / wp.sum())
    return float(forms.a1_energy(field) - bound)


def xi_flatness(forms, field):
    """Unweighted squared L2 norm of the xi-derivative away from the saddle
    (cells whose midpoint satisfies |xi| >= 1/2), over x by the forms'
    M_x."""
    xi = forms.grid.xi_nodes
    mid = 0.5 * (xi[1:] + xi[:-1])
    h = np.diff(xi)
    sel = np.abs(mid) >= 0.5
    dU = np.ascontiguousarray(np.diff(field.values, axis=1)[:, sel] / h[sel])
    W = np.ascontiguousarray(apply_x(forms.M_x, dU))
    # summed row after row over C-ordered arrays: one fixed order, whatever
    # the memory order of the field or of the x-product
    return float((dU * W).sum(axis=0) @ h[sel])


def default_test_functions():
    """Smooth dictionary with both spatial and reaction-coordinate content.
    Every entry is a :class:`ProductTest` f(x) g(xi), so that both levels
    pair it through 1-D node functionals (``pair_measure``, ``pair_limit``)."""
    one = np.ones_like

    def xi(s):
        return s

    def xi2(s):
        return s * s

    def cos1(x):
        return np.cos(np.pi * x)

    def cos2(x):
        return np.cos(2.0 * np.pi * x)

    return {
        "1": ProductTest(one, one),
        "xi": ProductTest(one, xi),
        "xi^2": ProductTest(one, xi2),
        "cos(pi x)": ProductTest(cos1, one),
        "cos(2pi x)": ProductTest(cos2, one),
        "cos(pi x) xi": ProductTest(cos1, xi),
        "cos(2pi x) xi": ProductTest(cos2, xi),
    }


def _snapshot_observables():
    """The nonlinear observables f(x, xi, u) measured at a snapshot beside
    the pairings, in report order."""
    return {"u^2": lambda x, xi, r: r * r,
            "|u|^1.5": lambda x, xi, r: np.abs(r) ** 1.5}


class ConfigError(ValueError):
    """A configuration breaks a rule; the message starts with its field."""


def _rule(field, check, *args):
    """``check(*args)``, its ValueError raised as a ConfigError on ``field``."""
    try:
        return check(*args)
    except ValueError as exc:
        raise ConfigError(f"{field}: {exc}") from None


def _number(field, value):
    try:
        x = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return x + 0.0  # -0.0 becomes 0.0; exact for every other x


def _numbers(field, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{field}: expected a list, got {value!r}")
    return tuple(_number(field, v) for v in value)


def _on_horizon(t, dt, t_final):
    """The step of ``t`` if it is a positive whole number of steps ``dt`` at
    most that of ``t_final`` (:func:`step_index`), else None."""
    n, last = step_index(t, dt), step_index(t_final, dt)
    return n if None not in (n, last) and 1 <= n <= last else None


def check_times(field, times, dt, t_final):
    """Reject a time that is not a positive whole number of steps dt within
    t_final, or that repeats the step or the %g label (which names its
    snapshot file and its checks) of an earlier time."""
    seen = set()
    for t in times:
        n = _on_horizon(t, dt, t_final)
        if n is None:
            raise ConfigError(f"{field}: {t!r} is not a positive multiple of "
                              f"dt = {dt!r} up to t_final = {t_final!r}")
        # steps are ints and labels strings, so the two never collide
        if {n, f"{t:g}"} & seen:
            raise ConfigError(f"{field}: {t!r} repeats the step or the label "
                              f"{t:g} of an earlier time")
        seen |= {n, f"{t:g}"}


def check_study(ladder, dt, t_final, times, scheme, regime):
    """Raise ``ConfigError("<field>: ...")`` for the first rule a study
    breaks, before any work starts."""
    if not ladder or any(b >= a for a, b in zip(ladder, ladder[1:])):
        raise ConfigError("ladder: must be nonempty and strictly decreasing, "
                          f"got {list(ladder)}")
    for eps in ladder:
        _rule("ladder", gibbs.check_scale, eps)
    if not 0.0 < dt < math.inf:
        raise ConfigError(f"dt: must be finite and positive, got {dt!r}")
    _rule("t_final", horizon_steps, t_final, dt)
    check_times("times", times, dt, t_final)
    if scheme not in SCHEMES:
        raise ConfigError(f"scheme: must be one of {SCHEMES}, got {scheme!r}")
    if regime not in REGIMES:
        raise ConfigError(f"regime: must be one of {REGIMES}, got {regime!r}")


_U0_KEYS = {"constant": {"value"}, "cosine": {"offset", "amplitude", "mode"},
            "tabulated": {"x", "values"}}


def _u0_callable(u0, side):
    """The initial density of one well, x -> u, from its spec in ``u0``;
    every violation of the spec format is a ConfigError."""
    path, spec = f"u0.{side}", u0.get(side)
    if not isinstance(spec, dict):
        raise ConfigError(f"{path}: expected an object, got {spec!r}")
    kind = spec.get("kind")
    if kind not in tuple(_U0_KEYS):
        raise ConfigError(
            f"{path}.kind: must be one of {tuple(_U0_KEYS)}, got {kind!r}")
    unknown = set(spec) - _U0_KEYS[kind] - {"kind"}
    if unknown:
        raise ConfigError(f"{path}: unknown keys {sorted(unknown)}")
    if kind == "tabulated":
        xs = np.array(_numbers(f"{path}.x", spec.get("x")))
        vs = np.array(_numbers(f"{path}.values", spec.get("values")))
        if not xs.size or xs.shape != vs.shape:
            raise ConfigError(
                f"{path}: 'x' and 'values' must be equal-length, nonempty")
        if np.any(np.diff(xs) <= 0.0):
            raise ConfigError(f"{path}.x: must be strictly increasing")
        return lambda x: np.interp(np.asarray(x, dtype=float), xs, vs)
    c = {key: _number(f"{path}.{key}", spec[key])
         for key in _U0_KEYS[kind] & set(spec)}
    if kind == "constant":
        value = c.get("value", 0.0)
        return lambda x: np.full_like(np.asarray(x, dtype=float), value)
    off, amp = c.get("offset", 0.0), c.get("amplitude", 1.0)
    mode = c.get("mode", 1.0)
    if not mode.is_integer():
        raise ConfigError(f"{path}.mode: must be an integer, got {mode!r}")
    mode = int(mode)
    return lambda x: off + amp * np.cos(mode * np.pi * np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Config:
    """A study and its single runs, with documented defaults. Construction
    coerces the numbers and checks every rule but the profile's
    admissibility (:func:`profile_from_config`), raising
    ``ConfigError("<field path>: ...")`` for the first one broken."""

    # constants, not fields: perfbench/child.py passes them to build_grid
    grading = "three_zone"
    quad_order = QUAD_ORDER

    profile: dict | None = None  # None = the quartic; or {"coeffs": [...]}
    skew_gap: float = 0.0
    ladder: tuple = (0.2, 0.1, 0.05)
    eps: float = 0.1            # single-run scale for `simulate`
    nx: int = 129
    nxi: int = 161
    dt: float = 1e-3
    t_final: float = 1.0
    # omitted: those of these on a step within the horizon, or else t_final
    times: tuple = (0.1, 0.5, 1.0)
    scheme: str = "CN_rannacher"
    regime: str = "critical"
    rate: float | None = None   # manual override for `limit`; None = from profile
    u0: dict = dataclasses.field(default_factory=lambda: {
        "minus": {"kind": "cosine", "offset": 0.0, "amplitude": 1.0, "mode": 1},
        "plus": {"kind": "cosine", "offset": 1.0, "amplitude": 1.0, "mode": 1},
    })
    out: str = "out"

    def __post_init__(self):
        def put(name, value):
            object.__setattr__(self, name, value)

        prof = self.profile
        if prof is not None:
            if not isinstance(prof, dict) or set(prof) != {"coeffs"}:
                raise ConfigError("profile: expected null or {'coeffs': [...]}, "
                                  f"got {prof!r}")
            _numbers("profile.coeffs", prof["coeffs"])
        omitted = self.times is Config.times
        for name in ("ladder", "times"):
            put(name, _numbers(name, getattr(self, name)))
        for name in ("eps", "dt", "t_final", "skew_gap"):
            put(name, _number(name, getattr(self, name)))
        if omitted and self.dt > 0.0:
            put("times", tuple(t for t in self.times if _on_horizon(
                t, self.dt, self.t_final)) or (self.t_final,))
        check_study(self.ladder, self.dt, self.t_final, self.times,
                    self.scheme, self.regime)
        _rule("eps", gibbs.check_scale, self.eps)
        try:
            # each grid rule names its parameter, which is the field
            build_grid(self.nx, self.nxi)
        except ValueError as exc:
            raise ConfigError(str(exc)) from None
        if self.rate is not None:
            put("rate", _number("rate", self.rate))
            if self.rate < 0.0:
                raise ConfigError("rate: must be nonnegative or null")
        if not isinstance(self.u0, dict) or set(self.u0) - {"minus", "plus"}:
            raise ConfigError("u0: expected {'minus': {...}, 'plus': {...}}")
        for side in ("minus", "plus"):
            _u0_callable(self.u0, side)
        put("out", str(self.out))

    def initial_pair(self, x):
        """The initial well densities (u_minus, u_plus) at the nodes ``x``."""
        return tuple(_u0_callable(self.u0, side)(x)
                     for side in ("minus", "plus"))


def profile_from_config(cfg):
    """The enthalpy profile of ``cfg``, after the admissibility check."""
    if cfg.profile is None:
        prof = quartic_default()
    else:
        prof = from_coefficients(cfg.profile["coeffs"])
    bad = validate(prof)
    if bad:
        raise ConfigError("profile violates the double-well assumptions: "
                          + "; ".join(bad))
    return prof


@dataclass
class EpsRow:
    """Everything recorded for a single rung of the ladder."""

    eps: float
    rate: float              # minimal-cost coefficient at this eps
    rate_effective: float    # with the regime's clock scaling
    q: float
    pairing: dict            # name -> {t: (value_eps, value_limit, abs_err)}
    trace_err: dict          # t -> L2(x) distance of traces to the limit pair
    b: dict                  # t -> (b_eps, b_limit, abs_err)
    a: dict                  # t -> (a_eps, a_limit, abs_err)
    a_split: dict            # t -> (a1_eps, a2_eps, reaction_limit)
    observables: dict        # name -> {t: (value_eps, value_limit, abs_err)}
    gap_norm: dict           # t -> L2(x) norm of the trace gap
    fiber_margin: dict       # t -> margin of the fiber lower bound
    jensen_margin: dict      # t -> margin of the gradient lower bound
    flatness: dict           # t -> outer xi-derivative mass
    mass_drift: float
    energy_residual_max: float
    dropped_norm: float      # M-norm of the initial x-modes not stepped
    initial_norm: float      # M-norm of the initial state, ||u0||_M


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
    limit_dropped_norm: float   # M-norm of the limit's initial modes not stepped
    limit_initial_norm: float   # M-norm of the limit's initial pair, ||w0||_M
    checks: dict
    row_errors: dict

    @property
    def all_ok(self):
        return all(self.checks.values())

    def failures(self):
        return sorted(name for name, ok in self.checks.items() if not ok)

    def to_dict(self):
        """The report's fields and ``all_ok``, for ``json`` to write as is."""
        return {**dataclasses.asdict(self), "all_ok": self.all_ok}


def _monotone(errs, floor=MONOTONE_FLOOR):
    return all(b < a or b <= floor for a, b in zip(errs, errs[1:]))


def _limit_reference(cfg, grid, k, um0, up0):
    """The limit side of the study on the grid's x-nodes: its trajectory
    and its values at the sample times, against which every rung is
    measured."""
    x = grid.x_nodes
    # off the critical scaling the limit has no reaction: the sub regime
    # keeps the initial pair, the super regime starts it at equilibrium
    k_target = k if cfg.regime == "critical" else 0.0
    lm0, lp0 = um0, up0
    if cfg.regime == "super":
        lm0 = lp0 = 0.5 * (um0 + up0)
    ltraj = solve_limit(assemble_limit(x, k_target), LimitField(lm0, lp0, x),
                        cfg.t_final, cfg.dt, scheme=cfg.scheme,
                        snapshot_times=cfg.times)
    values = {"pairing": {}, "b": {}, "a": {}, "observables": {}, "gap": {}}
    tests, observables = default_test_functions(), _snapshot_observables()
    for t in cfg.times:
        w = ltraj.snapshot_at(t)
        n = step_index(t, cfg.dt)
        values["b"][t] = float(ltraj.b[n])
        values["a"][t] = float(ltraj.a[n])
        values["gap"][t] = l2_norm_x(grid.x_mass, w.u_plus - w.u_minus)
        for name, test in tests.items():
            values["pairing"].setdefault(name, {})[t] = pair_limit(w, test)
        for name, f in observables.items():
            values["observables"].setdefault(name, {})[t] = (
                nonlinear_observable_limit(w, f))
    return ltraj, values


def _initial_norm(traj):
    """||u0||_M of a run: its stepped part, sqrt(b(0)), with the dropped
    norm."""
    return math.hypot(math.sqrt(traj.b[0]), traj.dropped_norm)


def _rung(cfg, profile, grid, limit, um0, up0, eps):
    """One rung: assemble -> lift -> integrate -> diagnose. A failed
    sub-solve aborts this rung only, returning (eps, reason) for the row."""
    try:
        shift = {"critical": 0.0, "sub": math.log(eps),
                 "super": -math.log(eps)}[cfg.regime]
        forms = assemble(grid, profile, eps, log_tau_shift=shift)
        rate = k_eps(forms.measure)
        u0 = lift(um0, up0, profile, eps, grid)
        traj = solve(forms, u0, cfg.t_final, cfg.dt, scheme=cfg.scheme,
                     snapshot_times=(0.0,) + cfg.times)
        return _diagnose(cfg, limit, forms, traj, rate,
                         rate * math.exp(shift))
    except (SolverError, AssemblyError, QuadratureError) as exc:
        return eps, f"{type(exc).__name__}: {exc}"


def _diagnose(cfg, limit, forms, traj, rate, rate_eff):
    """The rung's row, each snapshot measured against the limit; b, a1 and
    a2 at t are the trajectory's record at the step of t."""
    ltraj, lv = limit
    eps = forms.eps
    row = EpsRow(eps=eps, rate=rate,
                 rate_effective=rate_eff, q=q_eps(forms.measure),
                 pairing={}, trace_err={}, b={}, a={}, a_split={},
                 observables={}, gap_norm={}, fiber_margin={},
                 jensen_margin={}, flatness={},
                 mass_drift=float(np.abs(np.diff(traj.mass)).max()),
                 energy_residual_max=float(np.max([0.0, *map(
                     energy_excess, traj.energy_residual, traj.thetas)])),
                 dropped_norm=traj.dropped_norm,
                 initial_norm=_initial_norm(traj))
    tests, observables = default_test_functions(), _snapshot_observables()
    for t, state in traj.snapshots:
        row.fiber_margin[t] = fiber_bound_margin(forms, state, rate_eff)
        row.jensen_margin[t] = gradient_bound_margin(forms, state)
        if t == 0.0:
            continue
        lw = ltraj.snapshot_at(t)
        tr = traces(state)
        err2 = (l2_norm_x(forms.M_x, tr.u_minus - lw.u_minus) ** 2
                + l2_norm_x(forms.M_x, tr.u_plus - lw.u_plus) ** 2)
        row.trace_err[t] = math.sqrt(err2)
        row.gap_norm[t] = l2_norm_x(forms.M_x, tr.u_plus - tr.u_minus)
        n = step_index(t, cfg.dt)
        b, a1, a2 = float(traj.b[n]), float(traj.a1[n]), float(traj.a2[n])
        row.b[t] = (b, lv["b"][t], abs(b - lv["b"][t]))
        row.a[t] = (a1 + a2, lv["a"][t], abs(a1 + a2 - lv["a"][t]))
        # the limit trajectory records the reaction energy of its state
        row.a_split[t] = (a1, a2, float(ltraj.a2[n]))
        row.flatness[t] = xi_flatness(forms, state)
        measured = {
            "pairing": {name: pair_measure(forms, state, test)
                        for name, test in tests.items()},
            "observables": dict(zip(observables, nonlinear_observables(
                forms, state, list(observables.values()))))}
        for kind, values in measured.items():
            for name, ve in values.items():
                vl = lv[kind][name][t]
                getattr(row, kind).setdefault(name, {})[t] = (ve, vl,
                                                              abs(ve - vl))
    return row


def _certificates(cfg, rows, row_errors, limit_norms):
    """The report's booleans; a ladder with a failed rung certifies
    nothing beyond ``ladder_complete``. ``limit_norms`` are the limit
    reference's dropped and initial M-norms."""
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
            [r.b[t][2] for r in rows])
        checks[f"a_monotone[t={t:g}]"] = _monotone(
            [r.a[t][2] for r in rows])
        checks[f"flatness_decreasing[t={t:g}]"] = _monotone(
            [r.flatness[t] for r in rows], floor=1e-14)
        for name in rows[0].observables:
            errs = [r.observables[name][t][2] for r in rows]
            checks[f"observable_monotone[{name}][t={t:g}]"] = _monotone(errs)
    checks["fiber_bound"] = all(m >= -1e-8 for r in rows
                                for m in r.fiber_margin.values())
    checks["jensen_bound"] = all(m >= -1e-8 for r in rows
                                 for m in r.jensen_margin.values())
    checks["mass_conserved"] = all(r.mass_drift <= MASS_DRIFT_BOUND
                                   for r in rows)
    checks["modes_dropped_small"] = all(
        dropped <= DROPPED_NORM_BOUND * max(1.0, initial)
        for dropped, initial in [(r.dropped_norm, r.initial_norm)
                                 for r in rows] + [limit_norms])
    b0 = rows[0].b[cfg.times[0]][0]
    checks["energy_identity"] = all(
        r.energy_residual_max <= ENERGY_RESIDUAL_BOUND * max(1.0, b0)
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
    """Run the full ladder of the :class:`Config` and assemble the report
    with its certificates: the limit reference first, then one rung per eps
    in ladder order, then the certificates. A study needs two rungs and a
    sample time. An exception that a rung does not turn into a row error
    is raised again naming its eps."""
    if len(cfg.ladder) < 2:
        raise ConfigError("ladder: a convergence study needs at least 2 "
                          f"scales, got {list(cfg.ladder)}")
    if not cfg.times:
        raise ConfigError("times: a convergence study needs at least one "
                          "sample time")
    profile = profile_from_config(cfg)
    grid = build_grid(cfg.nx, cfg.nxi)
    k = limit_rate(profile)
    um0, up0 = cfg.initial_pair(grid.x_nodes)
    limit = _limit_reference(cfg, grid, k, um0, up0)

    outcomes = []
    for eps in cfg.ladder:
        try:
            outcomes.append(_rung(cfg, profile, grid, limit, um0, up0, eps))
        except Exception as exc:
            raise RuntimeError(f"rung eps = {eps!r} raised "
                               f"{type(exc).__name__}: {exc}") from exc
    rows = [o for o in outcomes if isinstance(o, EpsRow)]
    row_errors = {o[0]: o[1] for o in outcomes if not isinstance(o, EpsRow)}
    ltraj = limit[0]
    limit_norms = ltraj.dropped_norm, _initial_norm(ltraj)
    return ConvergenceReport(
        regime=cfg.regime, ladder=cfg.ladder, times=cfg.times, limit_rate=k,
        rows=rows, limit_values=limit[1], limit_dropped_norm=limit_norms[0],
        limit_initial_norm=limit_norms[1],
        checks=_certificates(cfg, rows, row_errors, limit_norms),
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
    modal = assemble_limit(x, k)
    y = modal.coefficients(LimitField(um, up, x))
    b_lim = b_form(modal.apply_m, y)
    a_lim = modal.mass_and_stencil(y)[1].a
    b_eps, a_eps = [], []
    for eps in ladder:
        forms = assemble(grid, profile, eps)
        v = lift(um, up, profile, eps, grid)
        b_eps.append(b_form(forms.apply_m, v))
        a_eps.append(forms.a_energy(v))
    b_err = [abs(bv - b_lim) for bv in b_eps]
    a_err = [abs(av - a_lim) for av in a_eps]
    return LimsupTable(ladder=tuple(ladder), b_eps=b_eps, a_eps=a_eps,
                       b_limit=b_lim, a_limit=a_lim, b_errors=b_err,
                       a_errors=a_err,
                       b_monotone=_monotone(b_err, floor=degenerate_floor),
                       a_monotone=_monotone(a_err, floor=degenerate_floor))
