"""Reference measures exp(-H/eps) and their log-space integrals.

Everything exponentially large or small is carried in log space; products
like the rate coefficient combine exponents analytically before a single
exp, so the huge time-rescaling factor and the tiny well weight never meet
in floating point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .enthalpy import EnthalpyProfile
from .quadrature import adaptive_integral

__all__ = [
    "EPS_FLOOR", "EPS_CEIL", "GibbsMeasure", "LimitMeasure",
    "log_partition", "log_barrier_integral", "log_tau", "tau",
    "laplace_z", "laplace_i", "log_laplace_i", "laplace_i_shifted",
]

# Double-precision working range for form assembly: at eps = 0.02 the barrier
# weight e^{-1/eps} ~ 2e-22 already sits near the roundoff floor of the well
# entries; below that the stiffness loses the barrier region entirely.
EPS_FLOOR = 0.02
EPS_CEIL = 1.0


def _check_eps(eps):
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite real, got {eps!r}")


def log_partition(profile, eps, tol=1e-12):
    """log of the well-normalization integral of exp(-H/eps) over [-1, 1].

    The direct integrand is bounded by 1, so it is integrated as-is; only
    the log leaves this function.
    """
    _check_eps(eps)
    h = profile.eval

    def f(xi):
        return math.exp(-h(xi) / eps)
    value, _ = adaptive_integral(f, -1.0, 1.0, tol)
    return math.log(value)


def log_barrier_integral(profile, eps, tol=1e-12):
    """log of the shifted barrier integral of exp((H - 1)/eps) over [-1, 1].

    The unshifted barrier integral carries a factor e^{1/eps}; its log is
    this value plus 1/eps. The shifted integrand is bounded by 1, so there is
    no overflow for any eps.
    """
    _check_eps(eps)
    h = profile.eval

    def f(xi):
        return math.exp((h(xi) - 1.0) / eps)
    value, _ = adaptive_integral(f, -1.0, 1.0, tol)
    return math.log(value)


def log_tau(eps):
    """log of the time-rescaling factor eps * exp(1/eps); always finite."""
    _check_eps(eps)
    return math.log(eps) + 1.0 / eps


def tau(eps):
    """Linear-scale time-rescaling factor; raises OverflowError once
    1/eps + log(eps) exceeds the double range (around eps = 1.4e-3)."""
    return math.exp(log_tau(eps))


def laplace_z(profile, eps):
    """Leading-order well integral sqrt(2 pi eps / H''(1)) for cross-checks."""
    _check_eps(eps)
    curv = float(profile.deriv2(1.0))
    if not curv > 0.0:
        raise ValueError(f"degenerate well: H''(1) = {curv!r} must be positive")
    return math.sqrt(2.0 * math.pi * eps / curv)


def log_laplace_i(profile, eps):
    """log of the leading-order barrier integral, including the e^{1/eps} factor."""
    _check_eps(eps)
    curv = float(profile.deriv2(0.0))
    if not curv < 0.0:
        raise ValueError(f"degenerate saddle: H''(0) = {curv!r} must be negative")
    return 0.5 * math.log(2.0 * math.pi * eps / (-curv)) + 1.0 / eps


def laplace_i(profile, eps):
    """Linear-scale leading-order barrier integral (may overflow for tiny eps)."""
    return math.exp(log_laplace_i(profile, eps))


def laplace_i_shifted(profile, eps):
    """Leading-order barrier integral with the e^{1/eps} factor removed."""
    return math.exp(log_laplace_i(profile, eps) - 1.0 / eps)


@dataclass(frozen=True)
class GibbsMeasure:
    """Normalized reference density exp(-H/eps - log_z) on [-1, 1].

    Frozen value object: compute it once per (profile, eps) and reuse it.
    """

    eps: float
    profile: EnthalpyProfile
    log_z: float

    @classmethod
    def compute(cls, profile, eps, tol=1e-12):
        return cls(eps=eps, profile=profile,
                   log_z=log_partition(profile, eps, tol))

    def density(self, xi):
        return np.exp(-np.asarray(self.profile.eval(xi), dtype=float) / self.eps
                      - self.log_z)

    def moment(self, g, tol=1e-10):
        """Integral of ``g`` against the normalized measure.

        Carries an absolute floor alongside the relative tolerance: odd
        moments vanish by symmetry and cannot meet a relative target.
        """
        h = self.profile.eval

        def f(xi):
            return g(xi) * math.exp(-h(xi) / self.eps - self.log_z)

        value, _ = adaptive_integral(f, -1.0, 1.0, tol, abs_floor=1e-13)
        return value


@dataclass(frozen=True)
class LimitMeasure:
    """Equal point masses at the two wells over the unit spatial domain."""

    weight_minus: float = 0.5
    weight_plus: float = 0.5

    @property
    def total(self):
        return self.weight_minus + self.weight_plus

    def moment(self, g):
        return self.weight_minus * g(-1.0) + self.weight_plus * g(1.0)
