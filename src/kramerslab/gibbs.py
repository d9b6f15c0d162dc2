"""The reference measure exp(-H/eps - log Z_eps) of one scale and its
log-space integrals.

``GibbsMeasure`` integrates log Z_eps once per scale and owns the density
that every per-scale quantity reads. Everything exponentially large or
small is carried in log space; products like the rate coefficient combine
exponents analytically before a single exp, so the huge time-rescaling
factor and the tiny well weight never meet in floating point.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .enthalpy import EnthalpyProfile
from .quadrature import adaptive_integral

__all__ = [
    "EPS_FLOOR", "EPS_CEIL", "check_scale", "GibbsMeasure", "log_partition",
    "log_barrier_integral", "log_tau", "laplace_z", "log_laplace_i",
    "laplace_i_shifted",
]

# The lowest scale measured and certified on the README grids ("Valid
# scales"); assembly holds below it (least M_xi entry 3.7e-90 at eps 0.005).
EPS_FLOOR = 0.02
EPS_CEIL = 1.0


def check_scale(eps):
    """Reject a scale outside the working range [EPS_FLOOR, EPS_CEIL],
    naming the bound it crosses."""
    if not EPS_FLOOR <= eps:
        raise ValueError(f"eps = {eps!r} below the floor {EPS_FLOOR}, the "
                         "lowest scale measured and certified on the "
                         "documented grids")
    if eps > EPS_CEIL:
        raise ValueError(f"eps = {eps!r} above the ceiling {EPS_CEIL} of "
                         "the working range")


def _check_eps(eps):
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0.0):
        raise ValueError(f"eps must be a positive finite real, got {eps!r}")


def _log_integral(profile, eps, sign, shift):
    """log of the integral of exp((sign * H - shift)/eps) over [-1, 1]; the
    integrand is bounded by 1, so it is integrated as-is and only the log
    leaves this function."""
    _check_eps(eps)
    h = profile.eval

    def f(xi):
        return math.exp((sign * h(xi) - shift) / eps)
    value, _ = adaptive_integral(f, -1.0, 1.0)
    return math.log(value)


def log_partition(profile, eps):
    """log of the well-normalization integral of exp(-H/eps) over [-1, 1]."""
    return _log_integral(profile, eps, -1.0, 0.0)


def log_barrier_integral(profile, eps):
    """log of the shifted barrier integral of exp((H - 1)/eps) over [-1, 1].

    The unshifted barrier integral carries a factor e^{1/eps}; its log is
    this value plus 1/eps. The shift keeps the integrand bounded by 1, so
    there is no overflow for any eps.
    """
    return _log_integral(profile, eps, 1.0, 1.0)


def log_tau(eps):
    """log of the time-rescaling factor eps * exp(1/eps); always finite."""
    _check_eps(eps)
    return math.log(eps) + 1.0 / eps


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


def laplace_i_shifted(profile, eps):
    """Leading-order barrier integral with the e^{1/eps} factor removed."""
    return math.exp(log_laplace_i(profile, eps) - 1.0 / eps)


@dataclass(frozen=True)
class GibbsMeasure:
    """The reference measure gamma_eps = exp(-H/eps - log_z) on [-1, 1] at
    one scale, and the one owner of log Z_eps and of its density.

    Build it once per (profile, eps) with :meth:`compute`, which integrates
    log Z_eps; the weighted forms, ``k_eps``, ``q_eps`` and the well cutoffs
    all read this one measure. ``log_i_shifted`` is integrated on first use.
    """

    profile: EnthalpyProfile
    eps: float
    log_z: float

    @classmethod
    def compute(cls, profile, eps):
        return cls(profile, eps, log_partition(profile, eps))

    def log_density(self, xi):
        """-H(xi)/eps - log_z, the log of the normalized density."""
        return -np.asarray(self.profile.eval(xi), dtype=float) / self.eps \
            - self.log_z

    def density(self, xi):
        return np.exp(self.log_density(xi))

    @functools.cached_property
    def log_i_shifted(self):
        """log of the shifted barrier integral (see log_barrier_integral)."""
        return log_barrier_integral(self.profile, self.eps)
