"""The names the benchmark in ``perfbench/`` reaches into the package by.

``perfbench/tracer.py`` wraps library functions by name and
``perfbench/probe.py`` calls library code directly, so a deletion in
``src/`` can break ``perfbench/run.py --trace 1`` without failing any other
test. Each check runs in a fresh interpreter, because ``tracer.install``
patches the package for the whole process.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

import kramerslab

ROOT = Path(__file__).resolve().parents[1]


def _run(code):
    """Run ``code`` with the package and ``perfbench/`` importable; returns
    the JSON its last line of output prints."""
    src = str(Path(kramerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [src, str(ROOT / "perfbench"), env.get("PYTHONPATH", "")])
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=300)
    return json.loads(out.stdout.strip().splitlines()[-1])


def test_tracer_records_the_layer_spans(tmp_path):
    code = f"""
import json
import tracer
from kramerslab import cli
t = tracer.Tracer()
tracer.install(t)
status = cli.main(["converge", "--nx", "17", "--nxi", "21", "--dt", "0.01",
                   "--T", "0.1", "--times", "0.1", "--ladder", "0.2,0.1",
                   "--out", {str(tmp_path / "out")!r}])
print(json.dumps({{"status": status,
                  "names": sorted({{s["name"] for s in t.spans}})}}))
"""
    result = _run(code)
    # the coarse ladder may fail a certificate (status 1), but it runs
    # through and writes its report
    assert result["status"] in (0, 1)
    assert (tmp_path / "out" / "report.json").exists()
    assert {"LinearSolver.solve", "grid_forms.assemble",
            "grid_forms.energy"} <= set(result["names"])


def test_probe_system_solve_is_certified():
    code = """
import json
import numpy as np
import probe
from kramerslab import assemble, build_grid, quartic_default
from kramerslab.evolve_kramers import LinearSolver
forms = assemble(build_grid(17, 21), quartic_default(), 0.1)
counter = [0]
S, op = probe._system(forms, 0.5 * probe.DT, counter)
solver = LinearSolver(S, 1e-11, op=op)
u = np.random.default_rng(0).normal(size=forms.n)
rhs = -probe.DT * forms.apply_a(u)
x = solver.solve(rhs)
r = rhs - op(x)
err = float(np.linalg.norm(r)) / (
    solver.norm_S * float(np.linalg.norm(x)) + float(np.linalg.norm(rhs)))
print(json.dumps({"backward_error": err, "ops": counter[0]}))
"""
    result = _run(code)
    assert result["backward_error"] <= 1e-11
    assert result["ops"] >= 2


def test_probe_scale_and_gamma_op_run(tmp_path):
    # every name the probe and the gamma operation reach: the sparse forms,
    # apply_a, the energies, pair_measure, nonlinear_observable and the
    # positional gamma_limsup_check call, on a 17 x 21 grid
    code = f"""
import json
import child
import probe
setup = probe._setup
probe._setup = lambda nx, nxi, eps: setup(17, 21, eps)
figures = probe.probe_scale(0.2)
cos = {{"offset": 0.0, "amplitude": 1.0, "mode": 1}}
status = child._gamma({{"nx": 17, "nxi": 21, "scales": [0.2, 0.1],
                       "u0": {{"minus": cos, "plus": dict(cos, offset=1.0)}},
                       "out": {str(tmp_path)!r}}})
print(json.dumps({{"figures": figures, "status": status}}))
"""
    result = _run(code)
    assert result["status"] == 0
    assert (tmp_path / "gamma.json").exists()
    figures = result["figures"]
    assert set(figures) == {
        "assemble_ms", "factorize_ms", "linear_solve_ms", "lu_solves",
        "backward_error", "apply_a_us", "step_diag_ms", "mass_drift_max",
        "energy_residual_max", "pair_measure_ms", "nonlinear_observable_ms"}
    assert figures["backward_error"] <= 1e-11


def test_child_setup_runs_the_seed0_operations(tmp_path):
    # child.setup checks each config file without a command and builds the
    # grid from Config.grading and Config.quad_order
    code = f"""
import json
import child
import workloads
counts = {{}}
for name in workloads.NAMES:
    ops, _ = workloads.operations(name, 0, {str(tmp_path)!r} + "/" + name)
    job = {str(tmp_path)!r} + "/" + name + ".json"
    with open(job, "w") as fh:
        json.dump({{"ops": ops}}, fh)
    child.setup(job)
    counts[name] = sum(op["kind"] == "cli" for op in ops)
print(json.dumps(counts))
"""
    assert _run(code) == {"converge-default": 1, "refine-setup": 21}


def test_probe_limit_runs():
    # probe.probe_limit reaches assemble_limit and solve_limit by name and
    # times a 50-step limit solve at nx 1025
    code = """
import json
import probe
print(json.dumps({"solve_limit_ms": probe.probe_limit()}))
"""
    assert _run(code)["solve_limit_ms"] > 0.0
