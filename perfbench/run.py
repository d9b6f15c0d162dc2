"""kramerslab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src/``. Every repetition of the workload runs in a fresh single-threaded
process (BLAS and ``KRAMERS_THREADS`` pinned to 1), one process at a time.

``--trace 0`` measures the end-to-end metrics: repetitions until
``--seconds`` is spent, each after one fresh interpreter brought to ready
(``setup_s``, at least three). Times are means over the run, scaled to a
reference host speed by a calibration kernel timed between repetitions
(``calibrate.py``); peak memory is a median. ``--trace 1`` runs the per-layer
probe, then pairs of an untraced and a traced repetition; the traced one
gives the per-layer metrics, the pair gives ``trace_overhead_share``.

Every repetition passes the correctness gate (``gate.py``). The last line of
standard output is one JSON object: correct, attempted, failed, metrics.
Inputs, environment and per-operation verdicts are also written to
``.perfbench_out/<workload>-seed<N>-trace<T>/summary.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import gate  # noqa: E402
import tracer as tr  # noqa: E402
import workloads  # noqa: E402

ROOT = Path.cwd()
SETUP_REPEATS = 3
CHILD_TIMEOUT = 150.0
REFERENCE = HERE / "reference_seed0.json"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
               "KRAMERS_THREADS")


class BenchError(RuntimeError):
    pass


def child_env():
    env = dict(os.environ)
    for var in THREAD_VARS:
        env[var] = "1"
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def _expired(signum, frame):
    raise BenchError(f"a child process exceeded {CHILD_TIMEOUT:.0f} s")


def spawn(args, env, log):
    """Run one child to completion: (wall seconds, peak RSS in MB)."""
    t0 = time.perf_counter()
    with open(log, "ab") as err:
        proc = subprocess.Popen([sys.executable, str(HERE / "child.py"), *args],
                                env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    # a blocking wait, cut by an interval timer, keeps this process idle
    # while the child is measured
    previous = signal.signal(signal.SIGALRM, _expired)
    signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BenchError:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"child {args[0]} exited {proc.returncode}; see {log}")
    return time.perf_counter() - t0, usage.ru_maxrss / 1024.0


def repetition(job, job_path, env, work, reference):
    """One fresh-process repetition, gated; wall time ends after the gate."""
    for op in job["ops"]:
        shutil.rmtree(op["out"], ignore_errors=True)
    t0 = time.perf_counter()
    _, rss = spawn(["run", str(job_path)], env, work / "child.log")
    with open(job["result"]) as fh:
        result = json.load(fh)
    outcomes, steps, artifact_bytes = [], 0, 0
    for op, record in zip(job["ops"], result["ops"]):
        verdicts = gate.check(op, record)
        for outcome in verdicts:
            gate.compare_reference(outcome, reference)
        outcomes.extend(verdicts)
        if record["error"] is None and record["exit"] in (0, 1):
            steps += op.get("steps", 0)
        artifact_bytes += record["artifact_bytes"]
    wall = time.perf_counter() - t0 - result["calibration_spent_s"]
    return {"wall": wall, "rss": rss, "steps": steps, "outcomes": outcomes,
            "artifact_bytes": artifact_bytes, "result": result,
            "calibration": result["calibration_s"]}


def environment(versions):
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": None, "caches": {}, **versions,
            "threads": {var: "1" for var in THREAD_VARS}}
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
        for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            info["caches"][f"L{level}-{kind}"] = (index / "size").read_text().strip()
    except OSError:
        pass
    info["git_commit"] = None
    if (ROOT / ".git").exists():
        try:
            info["git_commit"] = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    info["src_sha256"] = digest.hexdigest()
    return info


def _median(values):
    return statistics.median(values) if values else float("nan")


def measure_untraced(plain, env, work, reference, deadline):
    job, job_path = plain

    def setup_once():
        setup.append(spawn(["setup", str(job_path)], env, work / "child.log")[0])

    # set-up samples alternate with repetitions, so both span the whole run;
    # another repetition starts only if it and the set-up samples still
    # missing are expected to end by the deadline. The calibration kernel
    # runs before the first set-up, after every set-up and repetition, and
    # between the operations of each repetition (child.py).
    setup, reps, cal = [], [], calibrate.measure()
    while True:
        setup_once()
        cal += calibrate.measure()
        reps.append(repetition(job, job_path, env, work, reference))
        cal += reps[-1]["calibration"] + calibrate.measure()
        missing = max(1, SETUP_REPEATS - len(setup))
        if time.perf_counter() + reps[-1]["wall"] + missing * setup[-1] > deadline:
            break
    while len(setup) < SETUP_REPEATS:
        setup_once()
        cal += calibrate.measure()
    # Times are means, brought to the host speed at which the kernel takes
    # calibrate.REFERENCE_S by the run's mean kernel time. The host's slow
    # spells come and go within a repetition, so a mean over the run
    # follows the share of time they take, and the kernel's mean follows
    # the same share.
    scale = calibrate.REFERENCE_S / statistics.fmean(cal)
    raw_wall = [r["wall"] for r in reps]
    samples = {"wall_s": [w * scale for w in raw_wall],
               "setup_s": [t * scale for t in setup],
               "steps_per_s": [r["steps"] / (r["wall"] * scale) for r in reps],
               "peak_rss_mb": [r["rss"] for r in reps],
               "raw_wall_s": raw_wall, "raw_setup_s": setup,
               "calibration_s": cal}
    steps = statistics.fmean(r["steps"] for r in reps)
    metrics = {"wall_s": (statistics.fmean(samples["wall_s"]), "s"),
               "setup_s": (statistics.fmean(samples["setup_s"]), "s"),
               "steps_per_s": (steps / statistics.fmean(samples["wall_s"]), "1/s"),
               "peak_rss_mb": (_median(samples["peak_rss_mb"]), "MB")}
    return metrics, samples, reps


def measure_traced(plain, traced, env, work, reference, deadline):
    probe_out = work / "probe.json"
    spawn(["probe", str(probe_out)], env, work / "child.log")
    with open(probe_out) as fh:
        probe = {k: tuple(v) for k, v in json.load(fh).items()}
    plain_reps, traced_reps, layers = [], [], []
    while True:
        plain_reps.append(repetition(*plain, env, work, reference))
        rep = repetition(*traced, env, work, reference)
        traced_reps.append(rep)
        layers.append(tr.layer_metrics(rep["result"]["spans"], rep["artifact_bytes"]))
        if time.perf_counter() + plain_reps[-1]["wall"] + rep["wall"] > deadline:
            break
    metrics = {name: (_median([m[name][0] for m in layers]), unit)
               for name, (_, unit) in layers[0].items()}
    metrics.update(probe)
    overhead = (_median([r["wall"] for r in traced_reps])
                / _median([r["wall"] for r in plain_reps]) - 1.0)
    metrics["trace_overhead_share"] = (overhead, "ratio")
    samples = {"trace_overhead_share": [t["wall"] / p["wall"] - 1.0
                                        for p, t in zip(plain_reps, traced_reps)]}
    return metrics, samples, plain_reps + traced_reps


def write_reference(workload, reps):
    data = {}
    if REFERENCE.exists():
        with open(REFERENCE) as fh:
            data = json.load(fh)
    data[workload] = {o.name: o.values for o in reps[0]["outcomes"]
                      if o.reason is None and o.values}
    with open(REFERENCE, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--write-reference", action="store_true",
                        help="record the seed-0 reference table of this workload")
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "kramerslab" / "__init__.py").is_file():
        print(f"no kramerslab sources under {ROOT / 'src'}; run from the "
              "root of a source checkout", file=sys.stderr)
        return 2
    if args.write_reference and (args.seed != 0 or args.trace):
        parser.error("--write-reference needs --seed 0 --trace 0")

    start = time.perf_counter()
    deadline = start + args.seconds
    work = ROOT / ".perfbench_out" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    env = child_env()
    ops, inputs = workloads.operations(args.workload, args.seed, work / "artifacts")
    job = {"name": args.workload, "ops": ops, "trace": False,
           "result": str(work / "result.json")}
    plain = (job, work / "job.json")
    traced = (dict(job, trace=True), work / "job-traced.json")
    for spec, path in (plain, traced):
        path.write_text(json.dumps(spec))
    reference = {}
    if args.seed == 0 and not args.write_reference and REFERENCE.exists():
        with open(REFERENCE) as fh:
            reference = json.load(fh).get(args.workload, {})

    try:
        if args.trace:
            metrics, samples, reps = measure_traced(
                plain, traced, env, work, reference, deadline)
        else:
            metrics, samples, reps = measure_untraced(
                plain, env, work, reference, deadline)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 1

    # every repetition runs the same operations, so an operation is attempted
    # once per run and fails if any repetition failed it; the counts then do
    # not depend on how many repetitions the run's time held
    per_op = list(zip(*(r["outcomes"] for r in reps)))
    attempted = len(per_op)
    failed = [next(o for o in runs if o.reason is not None) for runs in per_op
              if any(o.reason is not None for o in runs)]
    contradictions = sorted({o.contradiction for r in reps for o in r["outcomes"]
                             if o.contradiction})
    if args.write_reference:
        write_reference(args.workload, reps)

    env_info = environment(reps[0]["result"]["versions"])
    summary = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "inputs": inputs, "environment": env_info, "repetitions": len(reps),
        "elapsed_s": time.perf_counter() - start,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "samples": samples,
        "failed_operations": sorted({f"{o.name}: {o.reason}" for o in failed}),
        "contradictions": contradictions,
    }
    report = Path(ops[0]["out"]) / "report.json"
    if report.is_file():
        summary["report_sha256"] = hashlib.sha256(report.read_bytes()).hexdigest()
    with open(work / "summary.json", "w") as fh:
        json.dump(summary, fh, indent=1, sort_keys=True)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"repetitions {len(reps)}")
    for name, (value, unit) in metrics.items():
        extra = ""
        if name in samples:
            vals = samples[name]
            stat = ("median of" if name in ("peak_rss_mb", "trace_overhead_share")
                    else f"mean; median {_median(vals):.6g} of")
            extra = f"  ({stat} {len(vals)}; min {min(vals):.6g}, max {max(vals):.6g})"
        print(f"  {name} = {value:.6g} {unit}{extra}")
    if "calibration_s" in samples:
        print(f"  unscaled means: wall {statistics.fmean(samples['raw_wall_s']):.6g} s,"
              f" set-up {statistics.fmean(samples['raw_setup_s']):.6g} s; calibration"
              f" kernel {statistics.fmean(samples['calibration_s']):.6g} s (mean of "
              f"{len(samples['calibration_s'])}; reference {calibrate.REFERENCE_S} s)")
    print(f"  failed_share = {len(failed)}/{attempted} = "
          f"{len(failed) / attempted:.6g}")
    for line in summary["failed_operations"]:
        print(f"  failed: {line}")
    for line in contradictions:
        print(f"  incorrect: {line}")
    if "report_sha256" in summary:
        print(f"  report.json sha256 {summary['report_sha256']}")
    print(f"  environment {json.dumps(env_info, sort_keys=True)}")
    print(json.dumps({
        "correct": not contradictions,
        "attempted": attempted,
        "failed": len(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
