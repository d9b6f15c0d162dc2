import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from kramerslab.enthalpy import quartic_default


@pytest.fixture(scope="session")
def quartic():
    return quartic_default()


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
