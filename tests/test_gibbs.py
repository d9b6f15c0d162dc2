import math

import numpy as np
import pytest

from kramerslab import cli, gibbs
from kramerslab.convergence import Config, run_ladder_study
from kramerslab.enthalpy import EnthalpyProfile
from kramerslab.quadrature import QuadratureError, adaptive_integral
from kramerslab.transition import k_eps, q_eps

import oracles

LADDER = (0.2, 0.1, 0.05)


def flat_profile(value):
    # degenerate landscape for closed-form checks; validation intentionally
    # bypassed (these are not admissible double wells)
    return EnthalpyProfile(eval=lambda xi: value + 0.0 * np.asarray(xi),
                           deriv=lambda xi: 0.0 * np.asarray(xi),
                           deriv2=lambda xi: 0.0 * np.asarray(xi),
                           name=f"flat{value}")


def test_log_partition_flat_zero():
    assert gibbs.log_partition(flat_profile(0.0), 0.1) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_log_barrier_integral_flat_one():
    assert gibbs.log_barrier_integral(flat_profile(1.0), 0.1) == pytest.approx(
        math.log(2.0), abs=1e-12)


def test_partition_near_laplace_value(quartic):
    z = math.exp(gibbs.log_partition(quartic, 0.1))
    assert abs(z / 0.2802495608198964 - 1.0) < 0.15
    z_oracle = oracles.fixed_quad(lambda xi: np.exp(-quartic.eval(xi) / 0.1),
                                  -1.0, 1.0)
    assert z == pytest.approx(z_oracle, rel=1e-10)


def test_barrier_integral_near_laplace_value(quartic):
    ish = math.exp(gibbs.log_barrier_integral(quartic, 0.1))
    assert abs(ish / 0.3963327297606011 - 1.0) < 0.15
    ish_oracle = oracles.fixed_quad(
        lambda xi: np.exp((quartic.eval(xi) - 1.0) / 0.1), -1.0, 1.0)
    assert ish == pytest.approx(ish_oracle, rel=1e-10)


def test_laplace_consistency_ladder(quartic):
    z_ratio, i_ratio = [], []
    for eps in LADDER:
        z = math.exp(gibbs.log_partition(quartic, eps))
        ish = math.exp(gibbs.log_barrier_integral(quartic, eps))
        z_ratio.append(abs(z / gibbs.laplace_z(quartic, eps) - 1.0))
        i_ratio.append(abs(ish / gibbs.laplace_i_shifted(quartic, eps) - 1.0))
    assert z_ratio[0] > z_ratio[1] > z_ratio[2]
    assert i_ratio[0] > i_ratio[1] > i_ratio[2]
    assert z_ratio[-1] < 0.25
    assert i_ratio[-1] < 0.25


def test_tau_values():
    assert gibbs.log_tau(0.05) == pytest.approx(math.log(0.05) + 20.0, abs=1e-12)


def test_tau_rejects_bad_eps():
    for bad in (0.0, -1.0, float("nan")):
        with pytest.raises(ValueError):
            gibbs.log_tau(bad)


def test_laplace_values(quartic):
    assert gibbs.laplace_z(quartic, 0.1) == pytest.approx(
        math.sqrt(2.0 * math.pi * 0.1 / 8.0), rel=1e-14)
    assert gibbs.log_laplace_i(quartic, 0.1) == pytest.approx(
        0.5 * math.log(2.0 * math.pi * 0.1 / 4.0) + 10.0, abs=1e-12)


def test_laplace_scaling_exact(quartic):
    for eps in LADDER:
        assert gibbs.laplace_z(quartic, 4.0 * eps) == 2.0 * gibbs.laplace_z(
            quartic, eps)


def test_laplace_rejects_degenerate():
    with pytest.raises(ValueError):
        gibbs.laplace_z(flat_profile(0.0), 0.1)
    with pytest.raises(ValueError):
        gibbs.log_laplace_i(flat_profile(0.0), 0.1)


@pytest.mark.parametrize("eps", LADDER)
def test_density_normalized(quartic, eps):
    gm = gibbs.GibbsMeasure.compute(quartic, eps)
    total = oracles.fixed_quad(gm.density, -1.0, 1.0)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_density_even(quartic):
    gm = gibbs.GibbsMeasure.compute(quartic, 0.1)
    xs = np.linspace(0.0, 1.0, 257)
    assert np.max(np.abs(gm.density(xs) - gm.density(-xs))) <= 1e-12


def _moment(gm, p):
    """Integral of ``p`` against the measure's density, by QUADPACK, with an
    absolute floor: odd moments vanish and cannot meet a relative target."""
    return oracles.quad_reference(lambda xi: p(xi) * gm.density(xi), -1.0,
                                  1.0, tol=1e-10, abs_tol=1e-13)


def test_moments_concentrate(quartic):
    # the limit measure puts mass 1/2 on each well: moments (p(-1) + p(1))/2
    polys = {
        "1": lambda xi: 1.0 + 0.0 * xi,
        "xi": lambda xi: xi,
        "xi^2": lambda xi: xi * xi,
        "xi^3": lambda xi: xi ** 3,
    }
    prev = {name: None for name in polys}
    for eps in LADDER:
        gm = gibbs.GibbsMeasure.compute(quartic, eps)
        for name, p in polys.items():
            err = abs(_moment(gm, p) - 0.5 * (p(-1.0) + p(1.0)))
            if name in ("xi", "xi^3"):
                assert err <= 1e-13
            else:
                if prev[name] is not None and prev[name] > 1e-12:
                    assert err < prev[name]
            prev[name] = err
    assert abs(_moment(gibbs.GibbsMeasure.compute(quartic, 0.05),
                       lambda xi: xi * xi) - 1.0) < 0.2


@pytest.mark.parametrize("eps", (1.0, 0.2, 0.05, 0.02))
def test_measure_matches_the_inline_formulas_bitwise(quartic, eps):
    xs = np.linspace(-1.0, 1.0, 257)
    density, rate, q = oracles.inline_scale(quartic, eps, xs)
    gm = gibbs.GibbsMeasure.compute(quartic, eps)
    assert np.array_equal(gm.density(xs), density)
    assert k_eps(gm) == rate
    assert q_eps(gm) == q


def test_each_scale_integrates_log_z_once(monkeypatch, tmp_path):
    names = ("log_partition", "log_barrier_integral", "adaptive_integral")
    log = []
    for name in names:
        def counted(*args, _name=name, _fn=getattr(gibbs, name), **kwargs):
            log.append(_name)
            return _fn(*args, **kwargs)
        monkeypatch.setattr(gibbs, name, counted)

    def logged():
        counts = {name: log.count(name) for name in names}
        log.clear()
        return counts

    report = run_ladder_study(Config(
        ladder=LADDER, nx=17, nxi=21, dt=0.01, t_final=0.02, times=(0.02,)))
    calls = logged()
    assert len(report.rows) == 3
    assert calls["log_partition"] == 3
    # ``rates``: Z_eps and the barrier integral once each per scale
    assert cli.main(["rates", "--ladder", "0.2,0.1,0.05",
                     "--out", str(tmp_path)]) == 0
    calls = logged()
    assert calls == {"log_partition": 3, "log_barrier_integral": 3,
                     "adaptive_integral": 6}


def test_adaptive_quadrature_reports_failure():
    # an oscillation far beyond the subdivision budget cannot be certified
    with pytest.raises(QuadratureError) as info:
        adaptive_integral(lambda x: math.cos(3.0e7 * x), -1.0, 1.0)
    assert info.value.estimate is not None
    assert info.value.estimate > 0.0


def test_rejects_nonpositive_eps(quartic):
    with pytest.raises(ValueError):
        gibbs.log_partition(quartic, 0.0)
