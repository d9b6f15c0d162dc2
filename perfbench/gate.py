"""Independent correctness gate over the artifacts of one repetition.

Every operation is judged from its written artifacts (and, for the CLI's
integrations, the diagnostic arrays the run kept) without trusting the
program's booleans: NaN never passes a comparison here, because every bound
is tested as ``value <= bound``. An operation fails if it raised, wrote a
non-finite number, broke a README certificate (per-step mass drift
<= 1e-10, energy-identity residual <= 1e-9 * b) or a report certificate, or
left the seed-0 reference table.

An outcome's ``contradiction`` marks an output the program vouches for that
the gate finds wrong: a ``converge`` report boolean that recomputation
overturns, a non-finite ``report.json`` from a ``converge`` that exited 0,
or a seed-0 value off its reference. These make the run incorrect. The other
commands certify nothing themselves, so their broken outputs only count as
failed operations.
"""
from __future__ import annotations

import csv
import json
import math
from pathlib import Path

MASS_DRIFT = 1e-10
ENERGY_RESIDUAL = 1e-9
MONOTONE_FLOOR = 1e-8
MASS_PAIRING = 1e-9
BOUND_SLACK = -1e-8
# seed-0 values may move by solver roundoff, not by discretization error
REF_RTOL, REF_ATOL = 1e-7, 1e-10


def finite(obj):
    if isinstance(obj, bool) or obj is None or isinstance(obj, str):
        return True
    if isinstance(obj, (int, float)):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(finite(v) for v in obj.values())
    if isinstance(obj, (list, tuple)):
        return all(finite(v) for v in obj)
    return False


def _cell(text):
    try:
        return float(text)
    except ValueError:
        return text


def _read_csv(path):
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], [[_cell(c) for c in row] for row in rows[1:]]


class Outcome:
    """One operation's verdict and the values compared with the reference."""

    def __init__(self, name):
        self.name = name
        self.reason = None
        self.values = {}
        self.contradiction = None

    def fail(self, reason):
        if self.reason is None:
            self.reason = reason


def _monotone(errs, floor=MONOTONE_FLOOR):
    return all(b < a or b <= floor for a, b in zip(errs, errs[1:]))


def recompute_checks(report):
    """The critical-regime report certificates, from the report's numbers."""
    rows, times = report["rows"], [str(t) for t in report["times"]]
    label = {str(t): f"{t:g}" for t in report["times"]}
    checks = {"ladder_complete": not report["row_errors"]}
    if report["row_errors"]:
        return checks
    names = list(rows[0]["pairing"])
    for name in names:
        for t in times:
            checks[f"pairing_monotone[{name}][t={label[t]}]"] = _monotone(
                [r["pairing"][name][t][2] for r in rows])
    for t in times:
        checks[f"mass_pairing_small[t={label[t]}]"] = all(
            r["pairing"]["1"][t][2] <= MASS_PAIRING for r in rows)
        checks[f"trace_monotone[t={label[t]}]"] = _monotone(
            [r["trace_err"][t] for r in rows])
        checks[f"b_monotone[t={label[t]}]"] = _monotone([r["b"][t][2] for r in rows])
        checks[f"a_monotone[t={label[t]}]"] = _monotone([r["a"][t][2] for r in rows])
        checks[f"flatness_decreasing[t={label[t]}]"] = _monotone(
            [r["flatness"][t] for r in rows], floor=1e-14)
        for name in rows[0]["observables"]:
            checks[f"observable_monotone[{name}][t={label[t]}]"] = _monotone(
                [r["observables"][name][t][2] for r in rows])
    checks["fiber_bound"] = all(m >= BOUND_SLACK for r in rows
                                for m in r["fiber_margin"].values())
    checks["jensen_bound"] = all(m >= BOUND_SLACK for r in rows
                                 for m in r["jensen_margin"].values())
    checks["mass_conserved"] = all(r["mass_drift"] <= MASS_DRIFT for r in rows)
    scale = max(1.0, rows[0]["b"][times[0]][0])
    checks["energy_identity"] = all(
        r["energy_residual_max"] <= ENERGY_RESIDUAL * scale for r in rows)
    return checks


def _converge(op, record):
    out = Path(op["out"])
    ladder = op["config"].get("ladder", [0.2, 0.1, 0.05])
    rungs = [Outcome(f"rung eps={eps:g}") for eps in ladder]
    cert = Outcome("certificates")
    outcomes = rungs + [cert]
    try:
        with open(out / "report.json") as fh:
            report = json.load(fh)
        for name in ("pairings.csv", "forms.csv"):
            _, rows = _read_csv(out / name)
            if not finite(rows):
                cert.fail(f"non-finite number in {name}")
    except (OSError, ValueError, IndexError) as exc:
        for o in outcomes:
            o.fail(f"artifacts unreadable: {exc}; {record['error'] or ''}".strip())
        return outcomes

    by_eps = {r["eps"]: r for r in report["rows"]}
    times = [str(t) for t in report["times"]]
    scale = (max(1.0, report["rows"][0]["b"][times[0]][0])
             if report["rows"] else 1.0)
    for eps, rung in zip(ladder, rungs):
        row = by_eps.get(eps)
        if str(eps) in report["row_errors"]:
            rung.fail(report["row_errors"][str(eps)])
        elif row is None:
            rung.fail("rung missing from the report")
        elif not finite(row):
            rung.fail("non-finite number in the rung")
        elif not row["mass_drift"] <= MASS_DRIFT:
            rung.fail(f"mass drift {row['mass_drift']:.3e} per step")
        elif not row["energy_residual_max"] <= ENERGY_RESIDUAL * scale:
            rung.fail(f"energy residual {row['energy_residual_max']:.3e}")
        if row is not None:
            for t in (times[0], times[-1]):
                rung.values[f"b@{t}"] = row["b"][t][0]
                rung.values[f"a@{t}"] = row["a"][t][0]
                rung.values[f"trace_err@{t}"] = row["trace_err"][t]
                for name, tv in row["pairing"].items():
                    rung.values[f"pairing[{name}]@{t}"] = tv[t][0]
                for name, tv in row["observables"].items():
                    rung.values[f"observable[{name}]@{t}"] = tv[t][0]

    reported = report["checks"]
    recomputed = recompute_checks(report)
    overturned = sorted(k for k, v in recomputed.items()
                        if k in reported and reported[k] != v)
    missing = sorted(set(recomputed) - set(reported))
    if overturned:
        cert.contradiction = f"report booleans overturned: {overturned[:5]}"
        cert.fail(cert.contradiction)
    if missing:
        cert.fail(f"certificates missing from the report: {missing[:5]}")
    failing = sorted(k for k, v in reported.items() if not v)
    if failing:
        cert.fail(f"failed certificates: {failing[:5]}")
    if record["exit"] != 0:
        cert.fail(f"exit status {record['exit']}")
    if not finite(report):
        cert.fail("non-finite number in report.json")
        if record["exit"] == 0:
            cert.contradiction = "non-finite report.json from a run that exited 0"
    return outcomes


def _trajectory(outcome, traj):
    if not traj["finite"]:
        outcome.fail("non-finite diagnostics")
    elif not traj["mass_drift"] <= MASS_DRIFT:
        outcome.fail(f"mass drift {traj['mass_drift']:.3e} per step")
    elif not traj["energy_residual"] <= ENERGY_RESIDUAL * max(1.0, traj["b0"]):
        outcome.fail(f"energy residual {traj['energy_residual']:.3e}")


def _single(op, record):
    """simulate, limit, rates and gamma: one outcome per operation."""
    outcome = Outcome(op["label"])
    out = Path(op["out"])
    files = {"simulate": "trajectory.csv", "limit": "limit.csv",
             "rates": "rates.json"}.get(op.get("command"), "gamma.json")
    try:
        if files.endswith(".csv"):
            _, rows = _read_csv(out / files)
            data = rows
        else:
            with open(out / files) as fh:
                data = json.load(fh)
    except (OSError, ValueError, IndexError) as exc:
        outcome.fail(f"artifacts unreadable: {exc}; {record['error'] or ''}".strip())
        return [outcome]
    if record["error"] is not None:
        outcome.fail(record["error"].strip().splitlines()[-1])
    elif record["exit"] != 0:
        outcome.fail(f"exit status {record['exit']}")
    if not finite(data):
        outcome.fail(f"non-finite number in {files}")
    for traj in record["trajectories"]:
        _trajectory(outcome, traj)

    if files == "trajectory.csv":
        last = rows[-1]
        outcome.values = dict(zip(("t", "mass", "b", "a1", "a2"), last))
    elif files == "limit.csv":
        t_last = rows[-1][0]
        final = [r for r in rows if r[0] == t_last]
        outcome.values = {"t": t_last,
                          "sum_u_minus": math.fsum(r[2] for r in final),
                          "sum_u_plus": math.fsum(r[3] for r in final)}
    elif files == "rates.json":
        for row in data["rows"]:
            if not (row["k_eps"] > 0.0 and row["q_eps"] > 0.0):
                outcome.fail(f"nonpositive coefficient at eps={row['eps']:g}")
            for key in ("k_eps", "q_eps", "Z_eps"):
                outcome.values[f"{key}@{row['eps']:.6g}"] = row[key]
    else:
        for key in ("b_eps", "a_eps"):
            for eps, v in zip(data["ladder"], data[key]):
                outcome.values[f"{key}@{eps:.6g}"] = v
    return [outcome]


def check(op, record):
    """Outcomes of one operation, in the order they count as attempted."""
    if op.get("command") == "converge":
        return _converge(op, record)
    return _single(op, record)


def compare_reference(outcome, reference):
    """Fail ``outcome`` if a value leaves its seed-0 reference."""
    expected = reference.get(outcome.name)
    if expected is None or outcome.reason is not None:
        return
    for key, ref in expected.items():
        got = outcome.values.get(key)
        if got is None or not abs(got - ref) <= REF_ATOL + REF_RTOL * abs(ref):
            outcome.fail(f"{key} = {got!r} left the reference {ref!r}")
            outcome.contradiction = outcome.reason
            return
