"""Quadrature kernels shared across the package.

Two routes are provided on purpose: an adaptive integrator with a certified
error estimate (for scalar integrals of sharply peaked weights) and plain
per-panel Gauss rules on a fixed partition, owned by :class:`PanelRule`
(for cumulative integrals, Galerkin assembly, pairings and observables).
Both use numpy only.
"""
from __future__ import annotations

import heapq
import math
import numbers
from functools import lru_cache

import numpy as np


class QuadratureError(RuntimeError):
    """Adaptive quadrature could not certify the requested tolerance."""

    def __init__(self, message, value=None, estimate=None):
        super().__init__(message)
        self.value = value
        self.estimate = estimate


# Cap on adaptive bisections; the integrands here are smooth with at most
# three sharp features, so this is never the binding constraint in practice.
SUBDIVISION_LIMIT = 1000
# The relative error every adaptive integral certifies.
ADAPTIVE_TOL = 1e-12

# The 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21, as doubles):
# the positive Kronrod nodes, decreasing, with their weights, the weight of
# the centre, and the 10-point Gauss weights of the odd-indexed nodes, which
# are the Gauss nodes. Kronrod is exact to degree 31, Gauss to degree 19.
_XK = (0.9956571630258081, 0.9739065285171717, 0.9301574913557082,
       0.8650633666889845, 0.7808177265864169, 0.6794095682990244,
       0.5627571346686047, 0.4333953941292472, 0.2943928627014602,
       0.14887433898163122)
_WK = (0.011694638867371874, 0.032558162307964725, 0.054755896574351995,
       0.07503967481091996, 0.0931254545836976, 0.10938715880229764,
       0.12349197626206584, 0.13470921731147334, 0.14277593857706009,
       0.14773910490133849)
_WK_CENTRE = 0.1494455540029169
_WG = (0.06667134430868814, 0.1494513491505806, 0.21908636251598204,
       0.26926671930999635, 0.29552422471475287)


def gauss_kronrod(f, a, b):
    """The 21-point Kronrod and the embedded 10-point Gauss values of the
    integral of the scalar function ``f`` over ``[a, b]``."""
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    pairs = [f(mid - half * x) + f(mid + half * x) for x in _XK]
    kronrod = _WK_CENTRE * f(mid) + sum(w * p for w, p in zip(_WK, pairs))
    gauss = sum(w * p for w, p in zip(_WG, pairs[1::2]))
    return half * kronrod, half * gauss


def adaptive_integral(f, a, b):
    """Integrate the scalar function ``f`` over ``[a, b]`` to relative error
    ``ADAPTIVE_TOL``, by globally adaptive Gauss-Kronrod bisection.

    Each panel's error estimate is |K21 - G10|; the panel with the largest
    one is bisected until their sum is at most ADAPTIVE_TOL * |value|, or
    ``SUBDIVISION_LIMIT`` bisections are spent. Returns
    ``(value, error_estimate)``; raises :class:`QuadratureError` with the
    achieved estimate attached when the target cannot be certified, and
    when the value or the estimate is not finite.
    """
    panels = []  # heap of (-estimate, lo, hi, value)

    def push(lo, hi):
        k, g = gauss_kronrod(f, lo, hi)
        heapq.heappush(panels, (-abs(k - g), lo, hi, k))

    push(a, b)
    for bisection in range(SUBDIVISION_LIMIT + 1):
        # plain sums let a NaN or an infinity through (math.fsum raises)
        value = sum(p[3] for p in panels)
        estimate = -sum(p[0] for p in panels)
        target = max(ADAPTIVE_TOL * abs(value), np.finfo(float).tiny)
        # a panel that is not finite stops the refinement: its NaN would
        # break the heap order and no bisection can certify it
        if (estimate <= target or not math.isfinite(estimate)
                or bisection == SUBDIVISION_LIMIT):
            break
        _, lo, hi, _ = heapq.heappop(panels)
        mid = 0.5 * (lo + hi)
        push(lo, mid)
        push(mid, hi)
    if not (math.isfinite(value) and estimate <= target):
        raise QuadratureError(
            f"adaptive quadrature not certified: value {value!r}, error "
            f"estimate {estimate:.3e}, target {target:.3e}",
            value=value, estimate=estimate)
    return value, estimate


@lru_cache(maxsize=None)
def gauss_rule(order):
    """Gauss-Legendre rule on [-1, 1], symmetrized so g[i] == -g[-1-i] bitwise."""
    g, w = np.polynomial.legendre.leggauss(order)
    g = 0.5 * (g - g[::-1])
    w = 0.5 * (w + w[::-1])
    g.setflags(write=False)
    w.setflags(write=False)
    return g, w


# the panel order of a default Grid and of the limit functionals
QUAD_ORDER = 4


def check_quad_order(order):
    """Raise ValueError("quad_order: ...") unless ``order`` is an integer,
    not a bool, of at least 2: the 1-point rule makes every cell's 2x2
    hat-function mass block rank one."""
    if isinstance(order, bool) or not isinstance(order, numbers.Integral) \
            or order < 2:
        raise ValueError(
            f"quad_order: must be an integer >= 2, got {order!r}")


class PanelRule:
    """The ``order``-point Gauss rule on each panel of the partition
    ``nodes``: the one owner of a partition's panel points ``pts`` and
    weights ``wts``, each of shape (ncells, order), and of the hat values
    ``left`` = 1 - s and ``right`` = s at the rule's points, s in (0, 1)
    along a panel. The midpoint/half-width mapping keeps mirrored panels of
    a symmetric partition at exactly negated points."""

    def __init__(self, nodes, order):
        check_quad_order(order)
        self.nodes = np.asarray(nodes, dtype=float)
        self.order = order
        g, w = gauss_rule(order)
        mid = 0.5 * (self.nodes[1:] + self.nodes[:-1])
        half = 0.5 * (self.nodes[1:] - self.nodes[:-1])
        self.pts = mid[:, None] + half[:, None] * g[None, :]
        self.wts = half[:, None] * w[None, :]
        self.right = 0.5 * (1.0 + g)
        self.left = 1.0 - self.right

    def weighted(self, log_weight=None):
        """The weights, times exp(``log_weight``) at the points if given."""
        if log_weight is None:
            return self.wts
        return self.wts * np.exp(log_weight(self.pts))

    def interp(self, values):
        """Values of the nodal piecewise-linear interpolant, along the last
        axis, at the points; shape (..., ncells, order)."""
        return values[..., :-1, None] * self.left \
            + values[..., 1:, None] * self.right

    def functional(self, fn):
        """Nodal weights w_j = integral of hat_j * fn: w @ v is the integral
        of fn times the piecewise-linear interpolant of the nodal values v
        (row by row for a grid whose last axis runs over the nodes)."""
        vals = self.wts * fn(self.pts)
        w = np.zeros(len(self.nodes))
        w[:-1] += vals @ self.left
        w[1:] += vals @ self.right
        return w

    def integrals(self, f):
        """Per-panel integrals of ``f``. The in-panel sum is pair-folded so
        that for an even integrand on a mirror-symmetric partition the left
        and right panel sums agree bitwise; the order must be even."""
        if self.order % 2:
            raise ValueError("order must be even")
        vals = self.wts * f(self.pts)
        half = self.order // 2
        folded = vals[:, :half] + vals[:, ::-1][:, :half]
        return folded.sum(axis=1)
