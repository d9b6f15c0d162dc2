import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kramerslab.enthalpy import quartic_default


@pytest.fixture(scope="session")
def quartic():
    return quartic_default()


@pytest.fixture(scope="session", params=[(129, 161), (33, 1025)],
                ids=["129x161", "33x1025"])
def snapshots(request, quartic):
    """Forms at eps 0.1 and five theta steps of dt with a snapshot at every
    step: (forms, trajectory, dt)."""
    import numpy as np
    from kramerslab import assemble, build_grid, lift, solve

    grid = build_grid(*request.param)
    forms = assemble(grid, quartic, 0.1)
    x = grid.x_nodes
    u0 = lift(np.cos(np.pi * x), 1.0 + np.cos(np.pi * x), quartic, 0.1, grid)
    dt = 1e-3
    traj = solve(forms, u0, 5 * dt, dt,
                 snapshot_times=tuple(n * dt for n in range(6)))
    return forms, traj, dt


# grading of the 4001-node oracle grid for the connection program: uniform
# inner zone (the resistance-carrying band), verified to reach 1e-6 agreement
QP_GRID = dict(delta=0.4, power=1.0, fractions=(0.62, 0.18, 0.20))


@pytest.fixture
def op_counts(monkeypatch):
    """Counts of certified solves and of ``op`` calls (one per inner solve)
    made by every LinearSolver the integrator builds, at either level."""
    from kramerslab import evolve_kramers

    counts = {"solve": 0, "op": 0}

    class CountingSolver(evolve_kramers.LinearSolver):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            exact = self.op

            def op(v):
                counts["op"] += 1
                return exact(v)
            self.op = op

        def solve(self, rhs):
            counts["solve"] += 1
            return super().solve(rhs)

    monkeypatch.setattr(evolve_kramers, "LinearSolver", CountingSolver)
    return counts


@pytest.fixture
def leaky_eps_forms(monkeypatch):
    """Make every eps-level run step forms whose stiffness is A + 0.1 M: a
    mass leak at every step that does not depend on the solver."""
    from kramerslab import evolve_kramers

    class LeakyModalForms(evolve_kramers.ModalForms):
        def mass_and_stencil(self, y, out=None):
            mv, st = super().mass_and_stencil(y, out)
            st.au = st.au + 0.1 * mv
            return mv, st

    monkeypatch.setattr(evolve_kramers, "ModalForms", LeakyModalForms)
