"""Minimal transition cost between the wells and the optimal profile.

The cheapest way (in rescaled Dirichlet energy) to connect prescribed values
at the two wells is an explicit profile: the normalized cumulative integral
of the reciprocal reference weight. Its cost defines the eps-level rate
coefficient ``k_eps``; as eps shrinks, twice that coefficient converges to
the reaction rate of the limit system.
"""
from __future__ import annotations

import math

import numpy as np

from .grid_forms import Field, graded_nodes
from .quadrature import PanelRule

__all__ = [
    "transition_profile",
    "k_eps", "q_eps", "transition_mass",
    "lift", "limit_rate",
]

# points of the panel rule that integrates the profile and its moment
PROFILE_ORDER = 8


def transition_profile(profile, eps, xi_nodes):
    """Optimal connecting profile at the ``xi_nodes`` by cumulative panel
    quadrature; the values at the end nodes are exactly -1/2 and +1/2, and
    for an even barrier the whole profile is odd.

    Both the cumulative integral and its normalization use the shifted
    integrand exp((H - 1)/eps), which is bounded by 1, so nothing overflows.
    Panels are accumulated outward from the saddle; with an even barrier on a
    symmetric grid the two half-sums mirror bitwise and the endpoint values
    come out exactly +-1/2.
    """
    xi_nodes = np.asarray(xi_nodes, dtype=float)
    for needed in (-1.0, 0.0, 1.0):
        if not np.any(xi_nodes == needed):
            raise ValueError(f"xi grid must contain {needed}")
    h = profile.eval

    def shifted(xi):
        return np.exp((np.asarray(h(xi), dtype=float) - 1.0) / eps)

    panels = PanelRule(xi_nodes, PROFILE_ORDER).integrals(shifted)
    i0 = int(np.nonzero(xi_nodes == 0.0)[0][0])
    right = np.concatenate([[0.0], np.cumsum(panels[i0:])])
    left = -np.cumsum(panels[:i0][::-1])[::-1]
    cumulative = np.concatenate([left, right])
    total = cumulative[-1] - cumulative[0]
    if not total > 0.0:
        raise ValueError("degenerate profile: normalization integral vanished")
    return cumulative / total


def k_eps(measure):
    """Rate coefficient at the scale of the Gibbs ``measure``: the minimal
    rescaled connection energy for a unit jump between the wells.

    Evaluated as exp(log(eps) - log_z - log_i_shifted), from the measure's
    log Z_eps and its shifted barrier integral: the exponentially large
    clock factor and the exponentially large barrier integral cancel
    analytically, leaving only well-scaled quantities.
    """
    return math.exp(math.log(measure.eps) - measure.log_z
                    - measure.log_i_shifted)


def q_eps(measure):
    """Second moment of the optimal profile under the Gibbs ``measure``.

    Lies in [0, 1/4] and climbs to 1/4 as eps shrinks. The profile is
    integrated as its piecewise-linear interpolant on the default profile
    grid, against the measure's density at the panel Gauss points.
    """
    # denser than the solver grid: nodes cluster where the profile jumps
    # (the saddle) and where the measure sits (the wells)
    xi_nodes = graded_nodes(801, delta=0.2, power=2.0,
                            fractions=(0.45, 0.25, 0.30))
    rule = PanelRule(xi_nodes, PROFILE_ORDER)
    vq = rule.interp(transition_profile(measure.profile, measure.eps, xi_nodes))
    return float((rule.weighted(measure.log_density) * vq * vq).sum())


def transition_mass(phi_minus, phi_plus, q):
    """Squared mass of the optimal connection with prescribed well values:
    (phi_minus^2 + phi_plus^2)/2 + (q - 1/4) * (phi_plus - phi_minus)^2,
    with ``q`` = q_eps."""
    gap = phi_plus - phi_minus
    return 0.5 * (phi_minus * phi_minus + phi_plus * phi_plus) \
        + (q - 0.25) * gap * gap


def lift(u_minus, u_plus, profile, eps, grid):
    """Embed a pair of well densities into the cylinder via the optimal
    profile: u(x, xi) = u_minus(x) (1/2 - p(xi)) + u_plus(x) (1/2 + p(xi)).

    The two rows at xi = -1 and xi = +1 reproduce the inputs bitwise.
    """
    um = np.asarray(u_minus, dtype=float)
    up = np.asarray(u_plus, dtype=float)
    if um.shape != (grid.nx,) or up.shape != (grid.nx,):
        raise ValueError(
            f"well densities must have shape ({grid.nx},), got "
            f"{um.shape} and {up.shape}")
    p = transition_profile(profile, eps, grid.xi_nodes)
    wm = 0.5 - p
    wp = 0.5 + p
    values = um[:, None] * wm[None, :] + up[:, None] * wp[None, :]
    return Field(values, grid)


def limit_rate(profile):
    """Reaction rate of the limit system: sqrt(|H''(0)| H''(1)) / pi."""
    saddle = float(profile.deriv2(0.0))
    well = float(profile.deriv2(1.0))
    if not saddle < 0.0:
        raise ValueError(f"degenerate saddle curvature {saddle!r}")
    if not well > 0.0:
        raise ValueError(f"degenerate well curvature {well!r}")
    return math.sqrt(-saddle * well) / math.pi
