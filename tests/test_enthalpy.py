import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kramerslab.enthalpy import (from_coefficients, quartic_default, skewed,
                                 validate, SkewedEnthalpy)

import oracles


def test_quartic_endpoint_values(quartic):
    assert quartic.eval(0.0) == pytest.approx(1.0, abs=1e-14)
    assert quartic.eval(1.0) == pytest.approx(0.0, abs=1e-14)
    assert quartic.eval(-1.0) == pytest.approx(0.0, abs=1e-14)


def test_quartic_hand_value(quartic):
    assert quartic.eval(0.5) == pytest.approx(0.5625, abs=1e-15)


def test_quartic_curvatures(quartic):
    assert quartic.deriv2(0.0) == pytest.approx(-4.0, abs=1e-14)
    assert quartic.deriv2(1.0) == pytest.approx(8.0, abs=1e-14)
    assert oracles.central_diff2(quartic.eval, 0.0) == pytest.approx(-4.0, abs=1e-6)
    assert oracles.central_diff2(quartic.eval, 1.0) == pytest.approx(8.0, abs=1e-6)


@pytest.mark.parametrize("profile_maker", [
    quartic_default,
    lambda: from_coefficients([1.0, 0.0, -2.0, 0.0, 1.0], name="quartic-coeffs"),
])
def test_derivatives_match_finite_differences(profile_maker):
    prof = profile_maker()
    xs = np.linspace(-0.99, 0.99, 101)
    for x in xs:
        assert prof.deriv(x) == pytest.approx(
            oracles.central_diff(prof.eval, x), abs=1e-6)
        assert prof.deriv2(x) == pytest.approx(
            oracles.central_diff2(prof.eval, x), abs=1e-6)


def test_validate_accepts_default(quartic):
    assert validate(quartic, 1001) == []


def test_validate_rejects_parabola():
    prof = from_coefficients([1.0, 0.0, -1.0], name="parabola")
    messages = validate(prof, 1001)
    assert any("H'(" in m and "fails" in m for m in messages)


def test_validate_rejects_odd_perturbation():
    prof = from_coefficients([1.0, 0.1, -2.0, 0.0, 1.0], name="tilted")
    messages = validate(prof, 1001)
    assert any("evenness fails" in m for m in messages)


def test_validate_needs_samples(quartic):
    with pytest.raises(ValueError):
        validate(quartic, 2)


def test_skewed_zero_gap_is_pure_scaling(quartic):
    h_eps = skewed(quartic, 0.0, 0.1)
    xs = np.linspace(-1.0, 1.0, 101)
    shifted = h_eps(xs) - quartic.eval(xs) / 0.1
    assert np.max(np.abs(shifted - shifted[0])) <= 1e-12


@pytest.mark.parametrize("gap,eps", [(math.log(2.0), 0.1), (0.7, 0.05)])
def test_skewed_gap_is_exact(quartic, gap, eps):
    h_eps = skewed(quartic, gap, eps)
    assert h_eps(1.0) - h_eps(-1.0) == pytest.approx(gap, abs=1e-12)


def test_skew_tilt_is_flat_at_wells(quartic):
    sk = SkewedEnthalpy(quartic, 0.7)
    for s in (-1.0, 1.0):
        assert abs(oracles.central_diff(sk.tilt, s, h=1e-6)) <= 1e-5


def test_skewed_rejects_nonpositive_eps(quartic):
    with pytest.raises(ValueError):
        skewed(quartic, 0.0, 0.0)
    with pytest.raises(ValueError):
        skewed(quartic, 0.0, -0.1)


def test_skewed_well_mass_ratio_ladder(quartic):
    # stationary weight exp(-H_eps): the mass split between the wells tends
    # to exp(-gap), with the deviation shrinking down the ladder
    gap = math.log(2.0)
    devs = []
    for eps in (0.2, 0.1, 0.05):
        h_eps = skewed(quartic, gap, eps)
        m_plus = oracles.fixed_quad(lambda xi: np.exp(-h_eps(xi)), 0.0, 1.0,
                                    panels=20_000)
        m_minus = oracles.fixed_quad(lambda xi: np.exp(-h_eps(xi)), -1.0, 0.0,
                                     panels=20_000)
        devs.append(abs(m_plus / m_minus - math.exp(-gap)))
    assert devs[0] > devs[1] > devs[2]
    assert devs[-1] < 0.05


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quartic_even_and_bounded(xi):
    prof = quartic_default()
    assert prof.eval(xi) == prof.eval(-xi)
    assert 0.0 <= prof.eval(xi) <= 1.0


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quartic_slope_is_odd(xi):
    prof = quartic_default()
    assert prof.deriv(xi) == -prof.deriv(-xi)
