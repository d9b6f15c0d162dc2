"""Double-well barrier profiles on [-1, 1] with exact derivatives.

A profile represents the energy landscape of a two-state molecule along its
reaction coordinate: wells of depth zero at xi = -1 and xi = +1 (the two
chemical states) separated by a saddle of unit height at xi = 0.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "EnthalpyProfile",
    "quartic_default",
    "from_coefficients",
    "validate",
]

_ENDPOINT_TOL = 1e-14
_EVEN_TOL = 1e-12


@dataclass(frozen=True)
class EnthalpyProfile:
    """Barrier function with vectorized value and first two derivatives.

    Instances are immutable; quadrature and assembly evaluate them at
    arbitrary points, so the callables must accept scalars and arrays.
    """

    eval: Callable
    deriv: Callable
    deriv2: Callable
    name: str = "custom"


def quartic_default():
    """The quartic barrier (1 - xi^2)^2.

    Satisfies every admissibility condition with simple closed-form
    derivatives, which makes the limiting rate constant analytically
    checkable: curvature -4 at the saddle and 8 at the wells.
    """

    def value(xi):
        return (1.0 - xi * xi) ** 2

    def slope(xi):
        return -4.0 * xi * (1.0 - xi * xi)

    def curvature(xi):
        return 12.0 * xi * xi - 4.0

    return EnthalpyProfile(eval=value, deriv=slope, deriv2=curvature,
                           name="quartic")


def from_coefficients(coeffs):
    """Profile from polynomial coefficients, lowest order first."""
    poly = np.polynomial.Polynomial(np.asarray(coeffs, dtype=float))
    return EnthalpyProfile(eval=poly, deriv=poly.deriv(1), deriv2=poly.deriv(2),
                           name=f"poly{len(coeffs) - 1}")


def validate(profile):
    """Check the double-well admissibility conditions on a sample grid.

    Uses 1001 uniform points including the endpoints, plus 0. Returns a
    list of human-readable violations; an empty list means admissible.
    Violations are data, not errors: candidate profiles may fail freely.
    """
    violations = []
    xi = np.linspace(-1.0, 1.0, 1001)

    h0 = float(profile.eval(0.0))
    if abs(h0 - 1.0) > _ENDPOINT_TOL:
        violations.append(f"H(0)=1 fails: H(0) = {h0!r}")
    for s in (-1.0, 1.0):
        hs = float(profile.eval(s))
        if abs(hs) > _ENDPOINT_TOL:
            violations.append(f"H({s:+.0f})=0 fails: H({s:+.0f}) = {hs!r}")
        ds = float(profile.deriv(s))
        if abs(ds) > _ENDPOINT_TOL:
            violations.append(f"H'({s:+.0f})=0 fails: H'({s:+.0f}) = {ds!r}")

    even_gap = np.abs(np.asarray(profile.eval(xi)) - np.asarray(profile.eval(-xi)))
    if even_gap.max() > _EVEN_TOL:
        at = xi[int(np.argmax(even_gap))]
        violations.append(
            f"evenness fails: |H(xi)-H(-xi)| = {even_gap.max():.3e} at xi = {at:.6g}")

    interior = xi[1:-1]
    vals = np.asarray(profile.eval(interior))
    if not np.all(vals > 0.0):
        at = interior[int(np.argmin(vals))]
        violations.append(
            f"positivity fails: H({at:.6g}) = {vals.min():.3e} <= 0")

    if not float(profile.deriv2(0.0)) < 0.0:
        violations.append(
            f"H''(0)<0 fails: H''(0) = {float(profile.deriv2(0.0))!r}")
    if not float(profile.deriv2(1.0)) > 0.0:
        violations.append(
            f"H''(1)>0 fails: H''(1) = {float(profile.deriv2(1.0))!r}")
    return violations
