import numpy as np
import pytest
from hypothesis import given, strategies as st

from kramerslab.enthalpy import from_coefficients, quartic_default, validate

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
    lambda: from_coefficients([1.0, 0.0, -2.0, 0.0, 1.0]),
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
    assert validate(quartic) == []


def test_validate_rejects_parabola():
    prof = from_coefficients([1.0, 0.0, -1.0])
    messages = validate(prof)
    assert any("H'(" in m and "fails" in m for m in messages)


def test_validate_rejects_odd_perturbation():
    prof = from_coefficients([1.0, 0.1, -2.0, 0.0, 1.0])
    messages = validate(prof)
    assert any("evenness fails" in m for m in messages)


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quartic_even_and_bounded(xi):
    prof = quartic_default()
    assert prof.eval(xi) == prof.eval(-xi)
    assert 0.0 <= prof.eval(xi) <= 1.0


@given(st.floats(min_value=-1.0, max_value=1.0, allow_nan=False))
def test_quartic_slope_is_odd(xi):
    prof = quartic_default()
    assert prof.deriv(xi) == -prof.deriv(-xi)
