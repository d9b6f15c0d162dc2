"""One fresh, single-threaded workload process.

    python3 perfbench/child.py run JOB.json      # one repetition of a workload
    python3 perfbench/child.py setup JOB.json    # fresh interpreter to ready
    python3 perfbench/child.py probe OUT.json    # per-layer probe (probe.py)

``run`` executes the job's operations in order, each through the public
entry points a user reaches (``kramerslab.cli.main`` or
``convergence.gamma_limsup_check``). An operation that raises is recorded
and the next one runs. The trajectories the CLI integrates are kept for the
correctness gate (their diagnostic arrays are not in the CSV artifacts).
With ``"trace": true`` in the job every library layer is wrapped
(``tracer.install``) and the spans are written when the process ends;
without it the calibration kernel (``calibrate.py``) is timed between
operations.
"""
from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time
import traceback
from pathlib import Path

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import tracer as tr  # noqa: E402


def _cosine(spec, x):
    import numpy as np
    return spec["offset"] + spec["amplitude"] * np.cos(spec["mode"] * np.pi * x)


def _gamma(op):
    from kramerslab import build_grid, convergence, quartic_default
    grid = build_grid(op["nx"], op["nxi"])
    x = grid.x_nodes
    table = convergence.gamma_limsup_check(
        _cosine(op["u0"]["minus"], x), _cosine(op["u0"]["plus"], x),
        op["scales"], grid, quartic_default())
    out = Path(op["out"])
    out.mkdir(parents=True, exist_ok=True)
    payload = {k: (list(v) if isinstance(v, (tuple, list)) else v)
               for k, v in vars(table).items()}
    with open(out / "gamma.json", "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=float)
    return 0


def _dir_bytes(path):
    return sum(p.stat().st_size for p in Path(path).rglob("*") if p.is_file())


def run(job_path):
    with open(job_path) as fh:
        job = json.load(fh)
    from kramerslab import cli

    tracer = tr.Tracer() if job.get("trace") else None
    trajectories = []
    if tracer is not None:
        tr.install(tracer)

    def keep(fn):
        def kept(*args, **kwargs):
            traj = fn(*args, **kwargs)
            trajectories.append(tr.trajectory_figures(traj))
            return traj
        return kept

    # the CLI looks these up by its own global names
    cli.solve = keep(cli.solve)
    cli.solve_limit = keep(cli.solve_limit)

    # an untraced repetition times the calibration kernel once before each
    # operation and once after the last; run.py takes the time this costs
    # out of the repetition's wall time
    calibration, spent = [], 0.0

    def calibrate_once():
        nonlocal spent
        if tracer is None:
            t0 = time.perf_counter()
            import calibrate
            calibration.extend(calibrate.measure(1))
            spent += time.perf_counter() - t0

    records = []
    for index, op in enumerate(job["ops"]):
        calibrate_once()
        del trajectories[:]
        if tracer is not None:
            tracer.run_id = f"{job['name']}:{index}"
        record = {"label": op["label"], "exit": None, "error": None}
        stderr = io.StringIO()
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(stderr):
                if op["kind"] == "cli":
                    record["exit"] = cli.main(op["argv"])
                else:
                    record["exit"] = _gamma(op)
        except Exception:  # one failed operation must not end the repetition
            record["error"] = traceback.format_exc(limit=4)
        record["stderr"] = stderr.getvalue()[-2000:]
        record["trajectories"] = list(trajectories)
        record["artifact_bytes"] = _dir_bytes(op["out"]) if os.path.isdir(op["out"]) else 0
        records.append(record)
    calibrate_once()

    import numpy
    import scipy
    result = {"ops": records, "calibration_s": calibration,
              "calibration_spent_s": spent,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    if tracer is not None:
        result["spans"] = tracer.spans
    with open(job["result"], "w") as fh:
        json.dump(result, fh)


def setup(job_path):
    """Import, config validation, profile admissibility check and grid."""
    from kramerslab import cli
    with open(job_path) as fh:
        job = json.load(fh)
    import numpy as np
    for op in job["ops"]:
        if op["kind"] != "cli":
            continue
        cfg = cli.parse_config(op["argv"][op["argv"].index("--config") + 1])
        cli.profile_from_config(cfg)
        if op["argv"][0] == "limit":
            np.linspace(0.0, 1.0, cfg.nx)
        else:
            cli.build_grid(cfg.nx, cfg.nxi, grading=cfg.grading,
                           quad_order=cfg.quad_order)


def main(argv):
    mode, path = argv
    if mode == "run":
        run(path)
    elif mode == "setup":
        setup(path)
    elif mode == "probe":
        import probe
        probe.main(path)
    else:
        raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    main(sys.argv[1:])
