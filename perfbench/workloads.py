"""Seeded inputs of the two workloads.

``operations(name, seed, out)`` returns the operations one repetition runs,
in order, each with the config file it passes to the CLI. The program sees
only these generated inputs. Seed 0 is the README's defaults: the pair
(cos(pi x), 1 + cos(pi x)) and the ladder (0.2, 0.1, 0.05). Other seeds draw
a smooth, positive, mode-1 cosine pair, and for ``refine-setup`` one scale
in a low cell of [EPS_FLOOR, 0.028] and one per log-spaced cell of
[0.05, EPS_CEIL].
"""
from __future__ import annotations

import json
import math
import random
from pathlib import Path

NAMES = ("converge-default", "refine-setup")

LADDER = (0.2, 0.1, 0.05)
DT = 1e-3
# the CLI's accepted range of scales, fixed here so that inputs stay the same
# when the program moves its floor
EPS_FLOOR, EPS_CEIL = 0.02, 1.0
# When this benchmark was written, a two-step simulate broke the mass
# certificate on every grid below 0.029, passed on every grid above 0.048,
# and in between failed on some grids and pairs and not on others (drift
# 1e-16 to 4e-8 per step, with no order in eps). One cell below that band
# and five log-spaced cells above it give every seed the same count of
# failing runs, so that ``failed`` is a property of the code, not of the seed.
LOW_CELL = (EPS_FLOOR, 0.028)
HIGH_FLOOR = 0.05
HIGH_CELLS = 5
# descending; 0.03 fails on every grid with the default pair
SEED0_SCALES = (0.8, 0.4, 0.2, 0.1, 0.05, 0.03)
REFINE_GRIDS = ((65, 81), (129, 161), (193, 257))
REFINE_STEPS = 2
LIMIT_NX, LIMIT_DT, LIMIT_T = 4097, 1e-4, 0.03
LIMIT_TIMES = tuple(round(0.003 * k, 3) for k in range(1, 11))
SEED0_SKEW_GAP = 1.0

DEFAULT_PAIR = {
    "minus": {"kind": "cosine", "offset": 0.0, "amplitude": 1.0, "mode": 1},
    "plus": {"kind": "cosine", "offset": 1.0, "amplitude": 1.0, "mode": 1},
}


def random_pair(rng):
    """Positive mode-1 pair with a well gap near the default's.

    Pairs whose wells nearly coincide, or that carry mode-2 content, break
    the ladder's ``a_monotone`` certificate at some sampled times (measured
    on the code this benchmark was written against); the family keeps the
    default's structure instead.
    """
    a_minus, a_plus = rng.uniform(0.5, 1.0), rng.uniform(0.5, 1.0)
    offset = a_minus + rng.uniform(0.05, 0.5)
    gap = rng.uniform(0.75, 1.25)
    return {
        "minus": {"kind": "cosine", "offset": offset, "amplitude": a_minus,
                  "mode": 1},
        "plus": {"kind": "cosine", "offset": offset + gap, "amplitude": a_plus,
                 "mode": 1},
    }


def stratified_scales(rng):
    """One scale per cell: the low cell, then log-spaced cells of
    [HIGH_FLOOR, EPS_CEIL]; descending."""
    def log_uniform(lo, hi):
        return lo * (hi / lo) ** rng.random()

    edges = [HIGH_FLOOR * (EPS_CEIL / HIGH_FLOOR) ** (k / HIGH_CELLS)
             for k in range(HIGH_CELLS + 1)]
    scales = [log_uniform(*LOW_CELL)]
    scales += [log_uniform(lo, hi) for lo, hi in zip(edges, edges[1:])]
    return tuple(sorted(scales, reverse=True))


def _cli(label, command, config, out, **extra):
    """A CLI operation whose config file sits beside its output directory."""
    cfg_path = Path(out) / f"{label}.json"
    cfg_path.parent.mkdir(parents=True, exist_ok=True)
    with open(cfg_path, "w") as fh:
        json.dump(config, fh, indent=2, sort_keys=True)
    out = Path(out) / label
    return {"label": label, "kind": "cli", "command": command, "config": config,
            "argv": [command, "--config", str(cfg_path), "--out", str(out)],
            "out": str(out), **extra}


def operations(name, seed, out):
    """(operations, inputs) of one repetition of workload ``name``.

    Each stepping operation carries ``steps``, the theta steps it runs at
    its stated grid.
    """
    rng = random.Random(f"{name}:{seed}")
    pair = DEFAULT_PAIR if seed == 0 else random_pair(rng)
    inputs = {"seed": seed, "u0": pair}
    if name == "converge-default":
        # the default ladder, grid, dt, scheme and regime; the horizon is
        # 0.1 instead of 1.0 so that a run holds about ten repetitions
        config = {"u0": pair, "t_final": 0.1, "times": [0.05, 0.1]}
        ops = [_cli("converge", "converge", config, out,
                    steps=100 * len(LADDER))]
    elif name == "refine-setup":
        scales = SEED0_SCALES if seed == 0 else stratified_scales(rng)
        inputs["scales"] = list(scales)
        ops = [_cli("rates", "rates", {"ladder": list(scales)}, out)]
        for nx, nxi in REFINE_GRIDS:
            for eps in scales:
                config = {"u0": pair, "eps": eps, "nx": nx, "nxi": nxi,
                          "dt": DT, "t_final": REFINE_STEPS * DT}
                ops.append(_cli(f"simulate-{nx}x{nxi}-eps{eps:.6g}", "simulate",
                                config, out, steps=REFINE_STEPS))
            ops.append({"label": f"gamma-{nx}x{nxi}", "kind": "gamma",
                        "nx": nx, "nxi": nxi, "scales": list(scales),
                        "u0": pair, "out": str(Path(out) / f"gamma-{nx}x{nxi}")})
        # the limit system at a fine x-grid, with equal and with skewed
        # rates: evolve_limit is under 0.5% of every eps-level run
        gap = SEED0_SKEW_GAP if seed == 0 else rng.uniform(0.5, 2.0)
        inputs["skew_gap"] = gap
        base = {"u0": pair, "nx": LIMIT_NX, "dt": LIMIT_DT, "t_final": LIMIT_T,
                "times": list(LIMIT_TIMES)}
        steps = round(LIMIT_T / LIMIT_DT)
        ops += [_cli("limit-equal", "limit", base, out, steps=steps),
                _cli("limit-skew", "limit", {**base, "skew_gap": gap}, out,
                     steps=steps)]
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {NAMES}")
    return ops, inputs
