"""Command-line front end: configuration, orchestration, CSV/JSON artifacts.

Subcommands: ``rates`` (scale-dependent coefficients vs their limits),
``simulate`` (one eps-level run), ``limit`` (the two-species system),
``converge`` (the full ladder certification). Runs are deterministic for a
fixed configuration; ``converge`` exits nonzero iff any report boolean fails.
A run whose solve breaks a per-step certificate prints the error and exits 1.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from . import gibbs
from .convergence import (REGIMES, ConfigError, StudyConfig, check_eps,
                          check_study, check_times, run_ladder_study)
from .enthalpy import from_coefficients, quartic_default, validate
from .evolve_kramers import SCHEMES, SolverError, solve
from .evolve_limit import solve_limit
# assemble_limit is unused here but stays a name of this module:
# perfbench/tracer.py wraps it by name
from .grid_forms import (LimitField, assemble, assemble_limit,
                         assemble_limit_rates, build_grid)
from .transition import k_eps, lift, limit_rate, q_eps

__all__ = ["Config", "ConfigError", "parse_config", "run", "main"]


def _number(field, value):
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigError(f"{field}: expected a finite number, got {value!r}")
    return x


def _numbers(field, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{field}: expected a list, got {value!r}")
    return tuple(_number(field, v) for v in value)


@dataclass(frozen=True)
class Config:
    """Validated study configuration with documented defaults."""

    profile: dict = field(default_factory=lambda: {"name": "quartic"})
    skew_gap: float = 0.0
    ladder: tuple = (0.2, 0.1, 0.05)
    eps: float = 0.1            # single-run scale for `simulate`
    nx: int = 129
    nxi: int = 161
    grading: str = "three_zone"
    quad_order: int = 4
    dt: float = 1e-3
    t_final: float = 1.0
    times: tuple = (0.1, 0.5, 1.0)
    scheme: str = "CN_rannacher"
    regime: str = "critical"
    rate: float | None = None   # manual override for `limit`; None = from profile
    u0: dict = field(default_factory=lambda: {
        "minus": {"kind": "cosine", "offset": 0.0, "amplitude": 1.0, "mode": 1},
        "plus": {"kind": "cosine", "offset": 1.0, "amplitude": 1.0, "mode": 1},
    })
    quad_tol: float = 1e-12
    out: str = "out"

    def to_dict(self):
        d = asdict(self)
        d["ladder"] = list(self.ladder)
        d["times"] = list(self.times)
        return d


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


def config_from_dict(data):
    """Strictly validated Config; every violation names its field path."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    defaults = Config()
    known = set(defaults.to_dict())
    unknown = set(data) - known
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    merged = {**defaults.to_dict(), **data}

    prof = merged["profile"]
    if isinstance(prof, str):
        prof = {"name": prof}
    if not isinstance(prof, dict) or not ({"name"} >= set(prof) or
                                          {"coeffs"} >= set(prof)):
        raise ConfigError("profile: expected {'name': ...} or {'coeffs': [...]}")
    if "name" in prof and prof["name"] != "quartic":
        raise ConfigError(f"profile.name: unknown profile {prof['name']!r}")
    if "coeffs" in prof:
        _numbers("profile.coeffs", prof["coeffs"])

    ladder = _numbers("ladder", merged["ladder"])
    eps = _number("eps", merged["eps"])
    dt, t_final, quad_tol, skew_gap = (
        _number(name, merged[name])
        for name in ("dt", "t_final", "quad_tol", "skew_gap"))
    if "times" not in data:
        # default sample times follow a shortened horizon
        kept = [t for t in merged["times"] if t <= t_final + 1e-12]
        merged["times"] = kept or [t_final]
    times = _numbers("times", merged["times"])
    # one rung is a valid `rates` ladder; a study needs two
    check_study(ladder, dt, t_final, times, merged["scheme"], merged["regime"],
                min_rungs=1)
    check_eps("eps", eps)

    for name, lo in (("nx", 4), ("nxi", 4), ("quad_order", 1)):
        v = merged[name]
        if not isinstance(v, int) or v < lo:
            raise ConfigError(f"{name}: must be an integer >= {lo}, got {v!r}")
    if merged["nxi"] % 2 == 0:
        raise ConfigError("nxi: must be odd so that xi = 0 is a node")
    if merged["grading"] not in ("three_zone", "uniform"):
        raise ConfigError(f"grading: unknown grading {merged['grading']!r}")

    if not quad_tol > 0.0:
        raise ConfigError(f"quad_tol: must be positive, got {quad_tol!r}")
    rate = None if merged["rate"] is None else _number("rate", merged["rate"])
    if rate is not None and rate < 0.0:
        raise ConfigError("rate: must be nonnegative or null")

    u0 = merged["u0"]
    if not isinstance(u0, dict) or set(u0) - {"minus", "plus"}:
        raise ConfigError("u0: expected {'minus': {...}, 'plus': {...}}")
    for side in ("minus", "plus"):
        _u0_callable(u0, side)

    return Config(profile=prof, skew_gap=skew_gap, ladder=ladder, eps=eps,
                  nx=merged["nx"], nxi=merged["nxi"],
                  grading=merged["grading"], quad_order=merged["quad_order"],
                  dt=dt, t_final=t_final, times=times, scheme=merged["scheme"],
                  regime=merged["regime"], rate=rate, u0=u0,
                  quad_tol=quad_tol, out=str(merged["out"]))


def parse_config(path=None, overrides=None):
    """Config from an optional JSON file plus flag overrides (strict keys)."""
    data = {}
    if path is not None:
        try:
            with open(path) as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed config {path}: line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides and isinstance(data, dict):
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data)


def profile_from_config(cfg):
    if "coeffs" in cfg.profile:
        prof = from_coefficients(cfg.profile["coeffs"])
    else:
        prof = quartic_default()
    bad = validate(prof, 1001)
    if bad:
        raise ConfigError("profile violates the double-well assumptions: "
                          + "; ".join(bad))
    return prof


def _fmt(x):
    return f"{float(x):.17g}"


def _write_csv(path, header, rows):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow([c if isinstance(c, str) else _fmt(c) for c in row])
    return path


def _write_table(path, header, columns):
    """CSV of equal-length float columns, every value as %.17g: the bytes
    :func:`_write_csv` writes for the same rows, formatted in one pass."""
    table = np.column_stack(columns)
    line = ",".join(["%.17g"] * table.shape[1]) + "\r\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.write((line * len(table)) % tuple(table.ravel().tolist()))
    return path


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_rates(cfg):
    """Scale-dependent coefficient table with Laplace and limit cross-checks."""
    prof = profile_from_config(cfg)
    k = limit_rate(prof)
    header = ["eps", "Z_eps", "laplace_Z", "I_shifted", "laplace_I_shifted",
              "log_tau", "k_eps", "2k_eps_over_k", "q_eps", "4q_eps"]
    rows = []
    payload = {"limit_rate": k, "half_limit_rate": 0.5 * k, "rows": []}
    for eps in cfg.ladder:
        z = math.exp(gibbs.log_partition(prof, eps, cfg.quad_tol))
        ish = math.exp(gibbs.log_barrier_integral(prof, eps, cfg.quad_tol))
        ke = k_eps(prof, eps, cfg.quad_tol)
        qe = q_eps(prof, eps)
        row = [eps, z, gibbs.laplace_z(prof, eps), ish,
               gibbs.laplace_i_shifted(prof, eps), gibbs.log_tau(eps),
               ke, 2.0 * ke / k, qe, 4.0 * qe]
        rows.append(row)
        payload["rows"].append(dict(zip(header, (float(v) for v in row))))
    rows.append(["limit", k, "", "", "", "", 0.5 * k, 1.0, 0.25, 1.0])
    out = Path(cfg.out)
    csv_path = _write_csv(out / "rates.csv", header, rows)
    _write_json(out / "rates.json", payload)
    print(f"wrote {csv_path}")
    return 0


def cmd_simulate(cfg, snapshots=()):
    """One eps-level run: per-step diagnostics CSV, optional field snapshots."""
    # t = 0 is the lifted initial state
    check_times("snapshots", [t for t in snapshots if t != 0.0], cfg.dt,
                cfg.t_final)
    prof = profile_from_config(cfg)
    grid = build_grid(cfg.nx, cfg.nxi, grading=cfg.grading,
                      quad_order=cfg.quad_order)
    forms = assemble(grid, prof, cfg.eps, tol=cfg.quad_tol)
    x = grid.x_nodes
    u0 = lift(_u0_callable(cfg.u0, "minus")(x), _u0_callable(cfg.u0, "plus")(x),
              prof, cfg.eps, grid)
    traj = solve(forms, u0, cfg.t_final, cfg.dt, scheme=cfg.scheme,
                 snapshot_times=tuple(snapshots))
    out = Path(cfg.out)
    csv_path = _write_table(out / "trajectory.csv",
                            ["t", "mass", "b_eps", "a1_eps", "a2_eps"],
                            (traj.times, traj.mass, traj.b, traj.a1, traj.a2))
    for t, state in traj.snapshots:
        _write_table(out / f"field_t{t:g}.csv", ["x", "xi", "u"],
                     (np.repeat(grid.x_nodes, grid.nxi),
                      np.tile(grid.xi_nodes, grid.nx), state.values.ravel()))
    print(f"wrote {csv_path}")
    return 0


def cmd_limit(cfg):
    """Two-species limit run; CSV of both well densities at sampled times.

    The well-depth gap pins the rate ratio exp(gap) and the pair is
    normalized by its geometric mean, the symmetric rate k; gap 0 gives
    k exp(+-0) = k exactly.
    """
    prof = profile_from_config(cfg)
    k = limit_rate(prof) if cfg.rate is None else cfg.rate
    x = np.linspace(0.0, 1.0, cfg.nx)
    half = 0.5 * cfg.skew_gap
    try:
        rates = k * math.exp(half), k * math.exp(-half)
    except OverflowError:
        rates = (math.inf,)
    if not max(rates) < math.inf:
        raise ConfigError(f"skew_gap: {cfg.skew_gap!r} puts a rate k "
                          "exp(+-gap/2) past the float range")
    lforms = assemble_limit_rates(x, *rates, quad_order=cfg.quad_order)
    w0 = LimitField(_u0_callable(cfg.u0, "minus")(x),
                    _u0_callable(cfg.u0, "plus")(x), x)
    traj = solve_limit(lforms, w0, cfg.t_final, cfg.dt, scheme=cfg.scheme,
                       snapshot_times=(0.0,) + cfg.times)
    snaps = traj.snapshots
    csv_path = _write_table(
        Path(cfg.out) / "limit.csv", ["t", "x", "u_minus", "u_plus"],
        (np.repeat([t for t, _ in snaps], len(x)), np.tile(x, len(snaps)),
         np.concatenate([w.u_minus for _, w in snaps]),
         np.concatenate([w.u_plus for _, w in snaps])))
    print(f"wrote {csv_path}")
    return 0


def cmd_converge(cfg):
    """Full ladder certification; exit status mirrors the report booleans."""
    study = StudyConfig(profile=profile_from_config(cfg), ladder=cfg.ladder,
                        nx=cfg.nx, nxi=cfg.nxi, dt=cfg.dt, t_final=cfg.t_final,
                        times=cfg.times, scheme=cfg.scheme, regime=cfg.regime,
                        quad_order=cfg.quad_order, grading=cfg.grading,
                        u0_minus=_u0_callable(cfg.u0, "minus"),
                        u0_plus=_u0_callable(cfg.u0, "plus"))
    report = run_ladder_study(study)
    out = Path(cfg.out)
    _write_json(out / "report.json", report.to_dict())

    pairing_rows = []
    for row in report.rows:
        for name, tv in row.pairing.items():
            for t, (ve, vl, err) in tv.items():
                pairing_rows.append([row.eps, t, name, ve, vl, err])
    _write_csv(out / "pairings.csv",
               ["eps", "t", "test_function", "value_eps", "value_limit",
                "abs_error"], pairing_rows)
    form_rows = []
    for row in report.rows:
        for t in report.times:
            form_rows.append([row.eps, t, *row.b_vals[t], *row.a_vals[t],
                              row.trace_err[t]])
    _write_csv(out / "forms.csv",
               ["eps", "t", "b_eps", "b_limit", "b_error", "a_eps", "a_limit",
                "a_error", "trace_l2_error"], form_rows)

    print(f"wrote {out / 'report.json'}")
    if not report.all_ok:
        json.dump({"failed_checks": report.failures()}, sys.stderr, indent=2)
        sys.stderr.write("\n")
        return 1
    return 0


def run(subcommand, cfg, **kw):
    """Dispatch a subcommand on a validated Config; returns the exit status."""
    handlers = {"rates": cmd_rates, "simulate": cmd_simulate,
                "limit": cmd_limit, "converge": cmd_converge}
    if subcommand not in handlers:
        raise ValueError(f"unknown subcommand {subcommand!r}")
    return handlers[subcommand](cfg, **kw)


def _add_common(p):
    p.add_argument("--config", help="JSON config file")
    p.add_argument("--out", help="output directory")
    p.add_argument("--profile", help="profile name (quartic)")
    p.add_argument("--nx", type=int)
    p.add_argument("--nxi", type=int)
    p.add_argument("--dt", type=float)
    p.add_argument("--T", type=float, dest="t_final")
    p.add_argument("--scheme", choices=SCHEMES)
    p.add_argument("--quad-order", type=int, dest="quad_order")


def _parse_floats(field, text):
    return tuple(_number(field, v) for v in text.split(",") if v.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kramerslab",
        description="Numerical laboratory for the high-activation-energy "
                    "limit of a double-well drift-diffusion on a cylinder "
                    "and its two-species reaction-diffusion limit.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("rates", help="coefficient table along the ladder "
                       "(CSV columns: eps, Z_eps, laplace_Z, I_shifted, "
                       "laplace_I_shifted, log_tau, k_eps, 2k_eps_over_k, "
                       "q_eps, 4q_eps; final row carries the limit values)")
    _add_common(p)
    p.add_argument("--ladder", help="comma-separated decreasing eps values")

    p = sub.add_parser("simulate", help="one eps-level run "
                       "(trajectory.csv columns: t, mass, b_eps, a1_eps, "
                       "a2_eps; snapshot files: x, xi, u)")
    _add_common(p)
    p.add_argument("--eps", type=float)
    p.add_argument("--snapshots", help="comma-separated snapshot times")

    p = sub.add_parser("limit", help="two-species limit run "
                       "(limit.csv columns: t, x, u_minus, u_plus)")
    _add_common(p)
    p.add_argument("--k", type=float, dest="rate",
                   help="manual reaction rate; default derives it from the profile")
    p.add_argument("--skew-gap", type=float, dest="skew_gap",
                   help="well-depth gap; nonzero selects the two-rate variant")
    p.add_argument("--times", help="comma-separated output times")
    p.add_argument("--u0", help="constants shorthand 'c_minus,c_plus'")

    p = sub.add_parser("converge", help="ladder certification study; exit "
                       "status reflects the report booleans")
    _add_common(p)
    p.add_argument("--ladder")
    p.add_argument("--regime", choices=REGIMES)
    p.add_argument("--times", help="comma-separated sample times")

    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k in Config.__dataclass_fields__ and v is not None}
    try:
        for name in ("ladder", "times"):
            if getattr(args, name, None):
                overrides[name] = _parse_floats(name, getattr(args, name))
        if getattr(args, "profile", None):
            overrides["profile"] = {"name": args.profile}
        if getattr(args, "u0", None):
            pair = _parse_floats("u0", args.u0)
            if len(pair) != 2:
                raise ConfigError(
                    f"u0: expected 'c_minus,c_plus', got {args.u0!r}")
            overrides["u0"] = {side: {"kind": "constant", "value": c}
                               for side, c in zip(("minus", "plus"), pair)}
        cfg = parse_config(getattr(args, "config", None), overrides)
        kw = {}
        if args.command == "simulate" and getattr(args, "snapshots", None):
            kw["snapshots"] = _parse_floats("snapshots", args.snapshots)
        return run(args.command, cfg, **kw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
