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
from pathlib import Path

import numpy as np

from . import gibbs
from .convergence import (REGIMES, Config, ConfigError, _number, check_times,
                          profile_from_config, run_ladder_study)
from .evolve_kramers import SCHEMES, SolverError, solve, solve_limit
# assemble_limit is unused here but stays a name of this module:
# perfbench/tracer.py wraps it by name
from .grid_forms import (LimitField, assemble, assemble_limit,
                         assemble_limit_rates, build_grid)
from .transition import k_eps, lift, limit_rate, q_eps

__all__ = ["Config", "ConfigError", "config_from_dict", "parse_config", "main"]

# the Config fields that each command reads: its flags and the keys it
# takes from a config file
READS = {
    "rates": ("profile", "ladder", "out"),
    "simulate": ("profile", "eps", "nx", "nxi", "dt", "t_final", "scheme",
                 "u0", "out"),
    "limit": ("profile", "rate", "skew_gap", "nx", "dt", "t_final", "times",
              "scheme", "u0", "out"),
    "converge": ("profile", "ladder", "nx", "nxi", "dt", "t_final", "times",
                 "scheme", "regime", "u0", "out"),
}


def config_from_dict(data, command=None):
    """The Config of a JSON object of known keys, less those that
    ``command`` does not read; :class:`Config` checks every rule."""
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be an object, got {type(data).__name__}")
    unknown = set(data) - set(Config.__dataclass_fields__)
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return Config(**{k: v for k, v in data.items()
                     if command is None or k in READS[command]})


def parse_config(path=None, overrides=None, command=None):
    """Config of ``command`` from an optional UTF-8 JSON file plus flags."""
    data = {}
    if path is not None:
        try:
            with open(path, encoding="utf-8") as fh:
                data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(
                f"malformed config {path}: line {exc.lineno}, column "
                f"{exc.colno}: {exc.msg}") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"malformed config {path}: {exc}") from exc
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if overrides and isinstance(data, dict):
        data.update({k: v for k, v in overrides.items() if v is not None})
    return config_from_dict(data, command)


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


# rows that _write_table formats and writes at once
_TABLE_CHUNK = 4096


def _write_table(path, header, columns):
    """CSV of equal-length float columns, every value as %.17g: the bytes
    :func:`_write_csv` writes for the same rows, formatted ``_TABLE_CHUNK``
    rows at a time, so that only one chunk of lines is held as text. A
    column that repeats values (a time, a grid coordinate) has each distinct
    bit pattern formatted once, so 0.0 and -0.0 stay apart."""
    cells = []
    for col in (np.ascontiguousarray(c, dtype=float) for c in columns):
        bits, index = np.unique(col.view(np.uint64), return_inverse=True)
        cells.append(col if len(bits) == len(col) else np.array(
            [_fmt(v) for v in bits.view(float)], dtype=object)[index])
    line = ",".join("%.17g" if c.dtype == float else "%s"
                    for c in cells) + "\r\n"
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        csv.writer(fh).writerow(header)
        for start in range(0, len(cells[0]), _TABLE_CHUNK):
            chunk = np.column_stack([c[start:start + _TABLE_CHUNK]
                                     for c in cells])
            fh.write((line * len(chunk)) % tuple(chunk.ravel().tolist()))
    return path


def _write_json(path, payload):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def cmd_rates(cfg):
    """Scale-dependent coefficient table with Laplace and limit cross-checks;
    each scale integrates log Z_eps and the barrier integral once, through
    its Gibbs measure."""
    prof = profile_from_config(cfg)
    k = limit_rate(prof)
    header = ["eps", "Z_eps", "laplace_Z", "I_shifted", "laplace_I_shifted",
              "log_tau", "k_eps", "2k_eps_over_k", "q_eps", "4q_eps"]
    rows = []
    payload = {"limit_rate": k, "half_limit_rate": 0.5 * k, "rows": []}
    for eps in cfg.ladder:
        measure = gibbs.GibbsMeasure.compute(prof, eps)
        ke = k_eps(measure)
        qe = q_eps(measure)
        row = [eps, math.exp(measure.log_z), gibbs.laplace_z(prof, eps),
               math.exp(measure.log_i_shifted),
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
    grid = build_grid(cfg.nx, cfg.nxi)
    forms = assemble(grid, prof, cfg.eps)
    x = grid.x_nodes
    u0 = lift(*cfg.initial_pair(x), prof, cfg.eps, grid)
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
    lforms = assemble_limit_rates(x, *rates)
    w0 = LimitField(*cfg.initial_pair(x), x)
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
    report = run_ladder_study(cfg)
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
            form_rows.append([row.eps, t, *row.b[t], *row.a[t],
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


# the flag of each field that has one
_FLAGS = {
    "ladder": ("--ladder", {"help": "comma-separated decreasing eps values"}),
    "eps": ("--eps", {"type": float}),
    "rate": ("--k", {"type": float, "help": "manual reaction rate; default "
                     "derives it from the profile"}),
    "skew_gap": ("--skew-gap", {"type": float, "help": "well-depth gap; "
                                "nonzero selects the two-rate variant"}),
    "nx": ("--nx", {"type": int}),
    "nxi": ("--nxi", {"type": int}),
    "dt": ("--dt", {"type": float}),
    "t_final": ("--T", {"type": float}),
    "times": ("--times", {"help": "comma-separated sample times"}),
    "scheme": ("--scheme", {"choices": SCHEMES}),
    "regime": ("--regime", {"choices": REGIMES}),
    "out": ("--out", {"help": "output directory"}),
}

_HELP = {
    "rates": "coefficient table along the ladder (CSV columns: eps, Z_eps, "
             "laplace_Z, I_shifted, laplace_I_shifted, log_tau, k_eps, "
             "2k_eps_over_k, q_eps, 4q_eps; final row carries the limit "
             "values)",
    "simulate": "one eps-level run (trajectory.csv columns: t, mass, b_eps, "
                "a1_eps, a2_eps; snapshot files: x, xi, u)",
    "limit": "two-species limit run (limit.csv columns: t, x, u_minus, "
             "u_plus)",
    "converge": "ladder certification study; exit status reflects the "
                "report booleans",
}


def _parse_floats(field, text):
    return tuple(_number(field, v) for v in text.split(",") if v.strip())


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="kramerslab",
        description="Numerical laboratory for the high-activation-energy "
                    "limit of a double-well drift-diffusion on a cylinder "
                    "and its two-species reaction-diffusion limit.")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, fields in READS.items():
        p = sub.add_parser(command, help=_HELP[command])
        p.add_argument("--config", help="JSON config file")
        for field in fields:
            if field in _FLAGS:
                flag, kw = _FLAGS[field]
                p.add_argument(flag, dest=field, **kw)
        if command == "simulate":
            p.add_argument("--snapshots", help="comma-separated snapshot times")
        if command == "limit":
            p.add_argument("--u0", help="constants shorthand 'c_minus,c_plus'")

    args = parser.parse_args(argv)
    overrides = {k: v for k, v in vars(args).items()
                 if k in Config.__dataclass_fields__ and v is not None}
    try:
        for name in ("ladder", "times"):
            if getattr(args, name, None) is not None:
                overrides[name] = _parse_floats(name, getattr(args, name))
        if getattr(args, "u0", None) is not None:
            pair = _parse_floats("u0", args.u0)
            if len(pair) != 2:
                raise ConfigError(
                    f"u0: expected 'c_minus,c_plus', got {args.u0!r}")
            overrides["u0"] = {side: {"kind": "constant", "value": c}
                               for side, c in zip(("minus", "plus"), pair)}
        cfg = parse_config(args.config, overrides, args.command)
        kw = {}
        if args.command == "simulate" and getattr(args, "snapshots", None):
            kw["snapshots"] = _parse_floats("snapshots", args.snapshots)
        # by module-global name, so that a wrapped cmd_* is the one called
        return globals()[f"cmd_{args.command}"](cfg, **kw)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except SolverError as exc:
        print(f"solver error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
