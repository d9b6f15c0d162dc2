import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import kramerslab
from kramerslab import gibbs
from kramerslab.quadrature import (PanelRule, QuadratureError,
                                   adaptive_integral, gauss_kronrod)
from kramerslab.transition import k_eps

import oracles

SCALES = (1.0, 0.2, 0.05, 0.02)


@pytest.mark.parametrize("degree", range(32))
def test_rule_integrates_monomials_exactly(degree):
    exact = 0.0 if degree % 2 else 2.0 / (degree + 1)
    kronrod, gauss = gauss_kronrod(lambda x: x ** degree, -1.0, 1.0)
    assert abs(kronrod - exact) <= 1e-15
    if degree <= 19:
        assert abs(gauss - exact) <= 1e-15


def test_gauss_part_is_not_exact_at_degree_20():
    # the estimate |K - G| must see the first degree Gauss misses
    kronrod, gauss = gauss_kronrod(lambda x: x ** 20, -1.0, 1.0)
    assert abs(kronrod - 2.0 / 21.0) <= 1e-15
    assert abs(gauss - 2.0 / 21.0) > 1e-7


@pytest.mark.parametrize("eps", SCALES)
def test_gibbs_integrals_match_quadpack(quartic, eps):
    h = quartic.eval
    z = oracles.quad_reference(lambda xi: math.exp(-h(xi) / eps), -1.0, 1.0)
    ish = oracles.quad_reference(lambda xi: math.exp((h(xi) - 1.0) / eps),
                                 -1.0, 1.0)
    gm = gibbs.GibbsMeasure.compute(quartic, eps)
    m2 = oracles.quad_reference(
        lambda xi: xi * xi * math.exp(-h(xi) / eps - gm.log_z), -1.0, 1.0)
    rate = math.exp(math.log(eps) - math.log(z) - math.log(ish))
    assert math.exp(gibbs.log_partition(quartic, eps)) == pytest.approx(
        z, rel=1e-13, abs=0.0)
    assert math.exp(gibbs.log_barrier_integral(quartic, eps)) == (
        pytest.approx(ish, rel=1e-13, abs=0.0))
    # the in-house rule on the measure's second moment
    moment, _ = adaptive_integral(lambda xi: xi * xi * gm.density(xi), -1.0,
                                  1.0)
    assert moment == pytest.approx(m2, rel=1e-13, abs=0.0)
    assert k_eps(gm) == pytest.approx(rate, rel=1e-13, abs=0.0)


@pytest.mark.parametrize("f", [
    lambda x: math.nan,
    lambda x: math.nan if x > 0.3 else 1.0,
    lambda x: math.inf if x == 0.0 else 1.0,
], ids=["nan-everywhere", "nan-on-a-subinterval", "inf-at-a-node"])
def test_non_finite_integrand_is_not_certified(f):
    with pytest.raises(QuadratureError) as info:
        adaptive_integral(f, -1.0, 1.0)
    assert not (math.isfinite(info.value.value)
                and math.isfinite(info.value.estimate))


def test_cli_import_leaves_out_integrate_special_and_optimize():
    # a fresh interpreter: the oracles load scipy.integrate into this one
    src = str(Path(kramerslab.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    code = ("import sys, kramerslab.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[:2] in (['scipy', 'integrate'], "
            "['scipy', 'special'], ['scipy', 'optimize'])))")
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    assert out.stdout.strip() == "[]"


def _mirrored_graded_nodes():
    # a graded partition of [-1, 1], mirror-symmetric bitwise
    half = np.linspace(0.0, 1.0, 9) ** 2
    return np.concatenate([-half[::-1], half[1:]])


@pytest.mark.parametrize("order", [2, 3, 4, 8])
def test_panel_rule_interp_reproduces_linear_functions(order):
    nodes = _mirrored_graded_nodes()
    rule = PanelRule(nodes, order)
    assert rule.pts.shape == rule.wts.shape == (len(nodes) - 1, order)
    assert np.array_equal(rule.left + rule.right, np.ones(order))
    values = np.stack([3.0 * nodes - 0.5, -nodes])
    expect = np.stack([3.0 * rule.pts - 0.5, -rule.pts])
    assert np.max(np.abs(rule.interp(values) - expect)) <= 1e-15


@pytest.mark.parametrize("order", [2, 4, 8])
def test_panel_rule_functional_of_one_is_hat_integrals(order):
    nodes = _mirrored_graded_nodes()
    h = np.diff(nodes)
    hats = np.concatenate([[0.0], h]) / 2.0 + np.concatenate([h, [0.0]]) / 2.0
    w = PanelRule(nodes, order).functional(np.ones_like)
    assert np.max(np.abs(w - hats)) <= 1e-16


def test_panel_rule_integrals_of_even_integrand_mirror_bitwise():
    nodes = _mirrored_graded_nodes()
    panels = PanelRule(nodes, 8).integrals(lambda xi: np.exp(np.cos(3.0 * xi)))
    assert np.array_equal(panels, panels[::-1])
    assert panels.sum() == pytest.approx(
        oracles.quad_reference(lambda xi: math.exp(math.cos(3.0 * xi)),
                               -1.0, 1.0), rel=1e-12)


def test_panel_rule_integrals_reject_an_odd_order():
    with pytest.raises(ValueError, match="even"):
        PanelRule(_mirrored_graded_nodes(), 3).integrals(np.ones_like)


@pytest.mark.parametrize("order", [0, 1, True, 2.0, "4"])
def test_panel_rule_rejects_a_bad_order(order):
    with pytest.raises(ValueError, match="quad_order"):
        PanelRule(_mirrored_graded_nodes(), order)
