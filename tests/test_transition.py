import math

import numpy as np
import pytest

from kramerslab import gibbs
from kramerslab.grid_forms import build_grid, graded_nodes
from kramerslab.transition import (k_eps, lift, limit_rate, q_eps,
                                   transition_mass, transition_profile)

import oracles
from conftest import QP_GRID

LADDER = (0.2, 0.1, 0.05)
# the profile grid of q_eps
NODES = graded_nodes(801, delta=0.2, power=2.0, fractions=(0.45, 0.25, 0.30))
HALF_LIMIT = math.sqrt(32.0) / (2.0 * math.pi)


@pytest.fixture(scope="module")
def profile_005(quartic):
    return transition_profile(quartic, 0.05, NODES)


def test_endpoints_exact(profile_005):
    assert profile_005[0] == -0.5
    assert profile_005[-1] == 0.5


def test_zero_at_saddle(profile_005):
    i0 = int(np.nonzero(NODES == 0.0)[0][0])
    assert profile_005[i0] == 0.0


def test_odd_monotone_bounded(profile_005):
    v = profile_005
    assert np.max(np.abs(v + v[::-1])) <= 1e-10
    assert np.all(np.diff(v) >= 0.0)
    assert v.min() >= -0.5 and v.max() <= 0.5


def test_profile_value_against_fixed_grid(quartic):
    # midpoint value on a uniform grid containing 0.5 vs a raw-integrand
    # fixed-grid quadrature ratio
    eps = 0.05
    nodes = np.linspace(-1.0, 1.0, 1601)
    nodes[800] = 0.0
    p = transition_profile(quartic, eps, nodes)
    j = int(np.nonzero(nodes == 0.5)[0][0])
    num = oracles.fixed_quad(lambda xi: np.exp(quartic.eval(xi) / eps),
                             0.0, 0.5, panels=1_000_000)
    den = oracles.fixed_quad(lambda xi: np.exp(quartic.eval(xi) / eps),
                             0.0, 1.0, panels=1_000_000)
    assert p[j] == pytest.approx(0.5 * num / den, abs=1e-3)


def test_profile_requires_nodes(quartic):
    with pytest.raises(ValueError):
        transition_profile(quartic, 0.1, np.linspace(-1.0, 1.0, 10))


def test_rate_ladder_approaches_half_limit(quartic):
    vals = [k_eps(gibbs.GibbsMeasure.compute(quartic, eps)) for eps in LADDER]
    rel = [abs(v / HALF_LIMIT - 1.0) for v in vals]
    assert rel[0] > rel[1] > rel[2]
    assert rel[-1] < 0.25
    for eps, v in zip(LADDER, vals):
        z = oracles.fixed_quad(lambda xi: np.exp(-quartic.eval(xi) / eps),
                               -1.0, 1.0)
        ish = oracles.fixed_quad(
            lambda xi: np.exp((quartic.eval(xi) - 1.0) / eps), -1.0, 1.0)
        assert v == pytest.approx(eps / (z * ish), rel=1e-9)


@pytest.mark.parametrize("eps", LADDER)
def test_rate_matches_quadratic_program(quartic, eps):
    nodes = graded_nodes(4001, **QP_GRID)
    k_min, phi = oracles.qp_minimum(quartic.eval, eps, nodes)
    rate = k_eps(gibbs.GibbsMeasure.compute(quartic, eps))
    assert abs(rate / k_min - 1.0) <= 1e-6


@pytest.mark.parametrize("eps", LADDER)
def test_profile_matches_discrete_minimizer(quartic, eps):
    nodes = graded_nodes(4001, **QP_GRID)
    _, phi = oracles.qp_minimum(quartic.eval, eps, nodes)
    p = transition_profile(quartic, eps, nodes)
    assert np.max(np.abs(p - phi)) <= 1e-6


def test_competitors_never_beat_minimum(quartic):
    eps = 0.1
    nodes = graded_nodes(4001, **QP_GRID)
    _, phi = oracles.qp_minimum(quartic.eval, eps, nodes)
    rate = k_eps(gibbs.GibbsMeasure.compute(quartic, eps))
    rng = np.random.default_rng(20240817)
    for _ in range(50):
        bump = rng.normal(0.0, 0.1, len(nodes) - 2)
        psi = phi + np.concatenate([[0.0], bump, [0.0]])
        energy = oracles.pl_energy(quartic.eval, eps, nodes, psi)
        assert energy >= rate - 1e-8


def test_q_bounds_and_ladder(quartic):
    devs = []
    for eps in LADDER:
        q = q_eps(gibbs.GibbsMeasure.compute(quartic, eps))
        assert 0.0 <= q <= 0.25
        devs.append(abs(4.0 * q - 1.0))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.3


@pytest.mark.parametrize("lam", [-1.0, 2.0, 3.0])
def test_quadratic_scaling_exact(lam):
    q = 0.2499
    for a, b in [(0.25, 0.5), (-0.5, 0.5), (0.125, -0.375)]:
        base = transition_mass(a, b, q)
        scaled = transition_mass(lam * a, lam * b, q)
        assert scaled == pytest.approx(lam * lam * base, rel=1e-14)


def test_mass_at_unit_jump_is_q(quartic):
    q = q_eps(gibbs.GibbsMeasure.compute(quartic, 0.1))
    assert transition_mass(-0.5, 0.5, q) == pytest.approx(
        q, abs=1e-15)


def test_lift_constant_pair(quartic):
    grid = build_grid(9, 11)
    field = lift(np.full(9, 0.7), np.full(9, 0.7), quartic, 0.1, grid)
    assert np.all(field.values == 0.7)


def test_lift_traces_exact(quartic):
    grid = build_grid(17, 21)
    rng = np.random.default_rng(7)
    um = rng.normal(size=17)
    up = rng.normal(size=17)
    field = lift(um, up, quartic, 0.1, grid)
    assert np.array_equal(field.values[:, 0], um)
    assert np.array_equal(field.values[:, -1], up)


def test_lift_linear_in_inputs(quartic):
    grid = build_grid(9, 11)
    rng = np.random.default_rng(3)
    um1, up1 = rng.normal(size=9), rng.normal(size=9)
    um2, up2 = rng.normal(size=9), rng.normal(size=9)
    # power-of-two scaling rescales every product and sum exactly
    f1 = lift(um1, up1, quartic, 0.1, grid)
    scaled = lift(4.0 * um1, 4.0 * up1, quartic, 0.1, grid)
    assert np.array_equal(scaled.values, 4.0 * f1.values)
    # additivity holds to machine accuracy (one extra rounding per node)
    f12 = lift(um1 + um2, up1 + up2, quartic, 0.1, grid)
    f2 = lift(um2, up2, quartic, 0.1, grid)
    scale = np.abs(f12.values).max()
    assert np.max(np.abs(f12.values - (f1.values + f2.values))) \
        <= 4.0 * np.finfo(float).eps * scale


def test_lift_shape_mismatch(quartic):
    grid = build_grid(9, 11)
    with pytest.raises(ValueError):
        lift(np.zeros(8), np.zeros(9), quartic, 0.1, grid)


def test_limit_rate_value(quartic):
    explicit = 4.0 * math.sqrt(2.0) / math.pi
    assert limit_rate(quartic) == pytest.approx(explicit, rel=1e-14)
    fd = math.sqrt(-oracles.central_diff2(quartic.eval, 0.0)
                   * oracles.central_diff2(quartic.eval, 1.0)) / math.pi
    assert limit_rate(quartic) == pytest.approx(fd, rel=1e-6)
    assert 2.0 * k_eps(gibbs.GibbsMeasure.compute(quartic, 0.05)) \
        == pytest.approx(limit_rate(quartic), rel=0.1)


def test_limit_rate_homogeneity(quartic):
    class Scaled:
        eval = quartic.eval
        deriv = quartic.deriv

        @staticmethod
        def deriv2(xi):
            return 4.0 * quartic.deriv2(xi) if xi == 1.0 else quartic.deriv2(xi)

    assert limit_rate(Scaled) == pytest.approx(2.0 * limit_rate(quartic),
                                               rel=1e-14)


def test_limit_rate_rejects_degenerate(quartic):
    class Flat:
        @staticmethod
        def deriv2(xi):
            return 0.0

    with pytest.raises(ValueError):
        limit_rate(Flat)
