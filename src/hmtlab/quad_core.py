"""Constants, graded radial grids, singularity-aware quadrature, and series.

Everything downstream integrates weighted radial profiles over a truncated
interval [r_min, 1-eps].  The integrands carry (-ln r)^k singularities at the
origin and (1-r^2)^(-k) singularities at the boundary, so the grid clusters
nodes geometrically at both ends and stays uniform in the interior where
profiles actually vary.  The boundary coordinate s = 1-r is stored exactly
(the grid is built in s on the right) so that 1-r^2 = s*(2-s) never suffers
cancellation, which matters for weights like (1-r^2)^(-n) at s ~ 1e-6.
The Anderson mixer of the extremal ascent lives in extremal, beside it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict

import numpy as np

from .errors import (
    DomainError,
    GridConfigError,
    InvalidDimensionError,
    NumericError,
)

__all__ = [
    "Constants",
    "RadialGrid",
    "integrate",
    "make_constants",
    "make_grid",
    "truncated_exp",
]

EXP_CLAMP = 700.0  # exp(700) ~ 1e304, last safe exponent in float64
TAIL_SPAN = 0.01  # each geometric tail covers r in [r_min, 0.01] or 1 - r in [eps, 0.01]


@dataclass(frozen=True)
class Constants:
    """Dimension-dependent constants of the sharp inequalities on the ball.

    omega       surface area of the unit sphere S^(n-1) in R^n
    alpha_n     sharp exponential constant n * omega^(1/(n-1))
    hardy_const sharp boundary-Hardy constant (2(n-1)/n)^n
    """

    n: int
    omega: float
    alpha_n: float
    hardy_const: float

    @property
    def gamma(self) -> float:
        """Pole normalization omega^(-1/(n-1)) of the Green function."""
        return self.omega ** (-1.0 / (self.n - 1))


@lru_cache(maxsize=None, typed=True)  # typed: 2.0 must not be served the entry cached for 2
def make_constants(n: int) -> Constants:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 2:
        raise InvalidDimensionError(f"dimension must be an integer >= 2, got {n!r}")
    n = int(n)
    try:
        omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    except OverflowError:  # gamma(n/2) overflows from n = 344 on
        raise InvalidDimensionError(
            f"dimension {n} is too large: the constants of the ball overflow float64") from None
    alpha_n = n * omega ** (1.0 / (n - 1))
    hardy_const = (2.0 * (n - 1) / n) ** n
    return Constants(n=n, omega=omega, alpha_n=alpha_n, hardy_const=hardy_const)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@dataclass(frozen=True)
class RadialGrid:
    """Strictly increasing radial nodes on [r_min, 1-eps] with exact 1-r.

    nodes    radii r_i, nodes[0] = r_min, nodes[-1] = 1 - eps
    s        1 - r_i carried exactly (built before r on the right tail)
    xi       ln r_i, the grid's one log array: np.log(r_i) on make_grid's
             left and middle zones, log1p(-s_i) on its right tail, and the
             exact -G/gamma on the Green table's image grid

    Arrays that depend on the nodes only are computed once, on first use,
    and cached read-only: the steps ``dr`` and ``dxi`` of nodes and xi, the
    trapezoid ``weights``, ``one_minus_r2``, the powers ``nodes_pow(k)`` and
    ``one_minus_r2_pow(k)``, and ``hyperbolic_density(n)``, the Poincare-ball
    volume per unit dr.  Each is the expression its callers used to
    evaluate, so a cached array equals the recomputed one to the bit.
    """

    nodes: np.ndarray
    s: np.ndarray
    xi: np.ndarray
    epsilon: float

    def __post_init__(self):
        for name in ("nodes", "s", "xi"):
            object.__setattr__(self, name, np.asarray(getattr(self, name), dtype=float))
        if self.nodes[0] <= 0.0 or np.any(np.diff(self.nodes) <= 0.0):
            raise GridConfigError("grid nodes must be strictly increasing and positive")

    @property
    def n_points(self) -> int:
        return self.nodes.size

    @cached_property
    def one_minus_r2(self) -> np.ndarray:
        """(1 - r^2) evaluated as s*(2-s); exact to rounding near the boundary."""
        return _read_only(self.s * (2.0 - self.s))

    @cached_property
    def dr(self) -> np.ndarray:
        return _read_only(np.diff(self.nodes))

    @cached_property
    def dxi(self) -> np.ndarray:
        return _read_only(np.diff(self.xi))

    @cached_property
    def weights(self) -> np.ndarray:
        return _read_only(trapezoid_weights(self.nodes))

    @cached_property
    def _arrays(self) -> Dict[tuple, np.ndarray]:
        return {}

    def nodes_pow(self, k: float) -> np.ndarray:
        """nodes ** k, cached per exponent."""
        return self._cached(("r", k), lambda: self.nodes**k)

    def one_minus_r2_pow(self, k: float) -> np.ndarray:
        """one_minus_r2 ** k, cached per exponent."""
        return self._cached(("1-r2", k), lambda: self.one_minus_r2**k)

    def hyperbolic_density(self, n: int) -> np.ndarray:
        """omega (2/(1-r^2))^n r^(n-1), the Poincare-ball volume per unit dr, cached per n.

        At large n it leaves float64: r^(n-1) underflows to 0 near the origin
        (from n = 34 on the default grid), and where (2/(1-r^2))^n overflows
        near the boundary (from n = 52) every volume integral would be
        non-finite, so NumericError is raised, without a warning.
        """
        def build():
            with np.errstate(over="ignore"):
                density = make_constants(n).omega * (
                    int_pow(2.0 / self.one_minus_r2, n) * self.nodes_pow(n - 1))
            if np.isinf(density[-1]):  # the density increases with r
                raise NumericError(f"hyperbolic volume density overflows float64 at n={n}")
            return density
        return self._cached(("dv_H", n), build)

    def _cached(self, key: tuple, build) -> np.ndarray:
        out = self._arrays.get(key)
        if out is None:
            out = self._arrays[key] = _read_only(build())
        return out


def trapezoid_weights(x: np.ndarray) -> np.ndarray:
    w = np.zeros_like(x)
    dx = np.diff(x)
    w[:-1] += 0.5 * dx
    w[1:] += 0.5 * dx
    return w


def make_grid(n_points: int, epsilon: float, r_min: float = 1e-10,
              tail_fraction: float = 0.15) -> RadialGrid:
    """Build the three-zone graded mesh on [r_min, 1-epsilon].

    A geometric tail runs from ``r_min`` up to ``TAIL_SPAN``, a uniform
    section covers the interior, and a second geometric tail (in s = 1-r)
    runs from ``TAIL_SPAN`` down to the truncation eps.  ``tail_fraction``
    of the nodes goes to each tail.  Spacing therefore decreases
    geometrically toward both endpoints; the ratio adapts to the node count
    (a fixed ratio underflows for large grids).

    Requires n_points >= 16, 0 < epsilon < 1/2, 0 < r_min < TAIL_SPAN and
    0 < tail_fraction <= 0.4.  When epsilon is not small (epsilon >=
    TAIL_SPAN = 0.01, or so close below it that the graded tail's radii
    round together at its TAIL_SPAN end) the boundary has no singular layer
    to resolve: the right tail is the single node 1 - epsilon, and the
    uniform section runs up to it.  A tail whose radii round together at its
    epsilon end cannot resolve the layer and raises GridConfigError, and so
    does an epsilon for which 1 - epsilon rounds to 1.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 16:
        raise GridConfigError(f"n_points must be an integer >= 16, got {n_points!r}")
    if not (0.0 < epsilon < 0.5):
        raise GridConfigError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    if 1.0 - epsilon == 1.0:
        raise GridConfigError(f"epsilon={epsilon!r} is below the float resolution at 1: "
                              "1 - epsilon rounds to 1")
    if not (0.0 < r_min < TAIL_SPAN):
        raise GridConfigError(f"r_min must lie in (0, {TAIL_SPAN}), got {r_min}")
    if not (0.0 < tail_fraction <= 0.4):
        raise GridConfigError(f"tail_fraction must lie in (0, 0.4], got {tail_fraction}")
    n_points = int(n_points)

    n_tail = max(4, int(round(n_points * tail_fraction)))
    left = np.geomspace(r_min, TAIL_SPAN, n_tail)

    s_right = np.geomspace(TAIL_SPAN, epsilon, n_tail)
    steps = np.diff(1.0 - s_right)
    if epsilon >= TAIL_SPAN or steps[0] <= 0.0:
        # no boundary layer to grade: the right tail is the one node 1 - eps
        s_right = np.asarray([epsilon])
    elif not np.all(steps > 0.0):
        raise GridConfigError(f"epsilon={epsilon!r} is too small for n_points={n_points}: "
                              "the boundary tail's radii 1 - s round together near 1 - epsilon")
    n_mid = n_points - n_tail - s_right.size
    if n_mid < 4:
        raise GridConfigError(f"n_points={n_points} too small for tail_fraction={tail_fraction}")
    mid = np.linspace(TAIL_SPAN, 1.0 - s_right[0], n_mid + 2)[1:-1]  # geomspace ends at TAIL_SPAN

    # left and mid are built in r, the right tail in s = 1 - r
    nodes = np.concatenate([left, mid, 1.0 - s_right])
    s = np.concatenate([1.0 - left, 1.0 - mid, s_right])
    xi = np.concatenate([np.log(left), np.log(mid), np.log1p(-s_right)])
    return RadialGrid(nodes=nodes, s=s, xi=xi, epsilon=epsilon)


def integrate(samples: np.ndarray, grid: RadialGrid):
    """Composite trapezoid of node samples over [nodes[0], 1-eps].

    Exact for piecewise-linear integrands; second order on smooth ones.
    Linear and monotone in the samples.  A non-finite sum, overflow included, raises
    NumericError, also under ``-W error::RuntimeWarning``.

    ``samples`` is one row of node values, whose sum comes back as a float,
    or a (k, N) stack of rows, whose k sums come back as an array.  Both are
    summed by one ``np.vecdot(samples, weights)`` on contiguous memory,
    which takes each row's dot product on its own, so a row's sum is its
    ``np.dot(row, weights)`` to the bit, whatever stack it sits in: BLAS
    gemv (``stack @ weights``) rounds a row differently by its position in
    the stack, and a strided row is summed in another order.
    """
    samples = np.ascontiguousarray(samples, dtype=float)
    if samples.shape[-1:] != grid.nodes.shape or samples.ndim > 2:
        raise NumericError(
            f"samples shape {samples.shape} does not match grid ({grid.nodes.shape})"
        )
    try:
        total = np.vecdot(samples, grid.weights)
        finite = bool(np.isfinite(total).all())
    except RuntimeWarning:  # the dot warns on inf - inf and on overflow
        finite = False
    if not finite:
        raise NumericError("non-finite sample passed to integrate, or its sum overflows")
    return float(total) if samples.ndim == 1 else total


def int_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1 by square-and-multiply, without libm pow.

    k = 1 returns x itself and k = 2 is x * x, which is numpy's ``x**2`` to
    the bit; a larger k takes one rounding per multiplication, so it lies
    within k - 1 ulp of ``x**k``.  Any k >= 2 gives a new array.
    """
    out = None
    while True:
        if k & 1:
            out = x if out is None else out * x
        k >>= 1
        if not k:
            return out
        x = x * x


def cumulative_from_origin(samples: np.ndarray, grid: RadialGrid) -> np.ndarray:
    """F(r_i) = int_{r_0}^{r_i} samples dr by cumulative trapezoid."""
    samples = np.asarray(samples, dtype=float)
    if not np.all(np.isfinite(samples)):
        raise NumericError("non-finite sample in cumulative integral")
    out = np.empty(samples.size)
    out[0] = 0.0
    # 0.5 (samples[1:] + samples[:-1]) dr, one rounding at a time in that order, summed in place
    incr = out[1:]
    np.add(samples[1:], samples[:-1], out=incr)
    incr *= 0.5
    incr *= grid.dr
    np.cumsum(incr, out=incr)
    return out


def truncated_exp(t, m: int):
    """Tail of the exponential series E_m(t) = sum_{k>=m} t^k / k!.

    Equals e^t minus the first m Taylor terms.  Small arguments (t < m)
    are summed as a series from the k = m term up, which avoids the
    catastrophic cancellation of the subtracted form; large arguments use
    the direct form with compensated summation of the Taylor partial sum.
    The direct form rounds with relative error about
    eps / P(Poisson(t) >= m), which at t >= m stays below 2 eps, so
    neighbouring floats do not dip across the switch.  Strictly positive
    for t > 0 and monotone nondecreasing in t.
    """
    if not isinstance(m, (int, np.integer)) or m < 0:
        raise DomainError(f"truncation order must be an integer >= 0, got {m!r}")
    m = int(m)
    t_arr = np.asarray(t, dtype=float)
    scalar = t_arr.ndim == 0
    t_arr = np.atleast_1d(t_arr)
    if np.any(t_arr < 0.0) or not np.all(np.isfinite(t_arr)):
        raise DomainError("truncated_exp requires finite t >= 0")

    out = np.zeros_like(t_arr)
    small = t_arr < m  # empty at m = 0, since t >= 0

    if small.any():
        ts = t_arr[small]
        term = ts**m / math.factorial(m)
        total = term.copy()
        for k in range(m, m + 400):
            term = term * ts / (k + 1)
            total += term
            if np.all(term <= 1e-20 * total):
                break
        out[small] = total

    big = ~small
    if big.any():
        tb = t_arr[big]
        # Kahan-compensated partial Taylor sum of the subtracted terms
        partial = np.zeros_like(tb)
        comp = np.zeros_like(tb)
        term = np.ones_like(tb)
        for k in range(m):
            y = term - comp
            tmp = partial + y
            comp = (tmp - partial) - y
            partial = tmp
            term = term * tb / (k + 1)
        exp_t = np.where(tb <= EXP_CLAMP, np.exp(np.minimum(tb, EXP_CLAMP)), np.inf)
        out[big] = exp_t - partial

    return float(out[0]) if scalar else out
