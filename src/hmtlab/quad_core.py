"""Constants, graded radial grids, and singularity-aware quadrature.

Everything downstream integrates weighted radial profiles over a truncated
interval [r_min, 1-eps].  The integrands carry (-ln r)^k singularities at the
origin and (1-r^2)^(-k) singularities at the boundary, so the grid clusters
nodes geometrically at both ends and stays uniform in the interior where
profiles actually vary.  The boundary coordinate s = 1-r is stored exactly
(the grid is built in s on the right) so that 1-r^2 = s*(2-s) never suffers
cancellation, which matters for weights like (1-r^2)^(-n) at s ~ 1e-6.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Dict, NamedTuple, Optional

import numpy as np

from .errors import (
    DomainError,
    GridConfigError,
    InvalidDimensionError,
    NumericError,
)

__all__ = [
    "Constants",
    "GridGrading",
    "PchipSpacing",
    "RadialGrid",
    "make_constants",
    "make_grid",
    "pchip_spacing",
    "integrate",
    "int_pow",
    "cumulative_from_origin",
    "trapezoid_weights",
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
    omega = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    alpha_n = n * omega ** (1.0 / (n - 1))
    hardy_const = (2.0 * (n - 1) / n) ** n
    return Constants(n=n, omega=omega, alpha_n=alpha_n, hardy_const=hardy_const)


@dataclass(frozen=True)
class GridGrading:
    """Clustering parameters of the three-zone radial mesh.

    A geometric tail runs from ``r_min`` up to ``TAIL_SPAN``, a uniform
    section covers the interior, and a second geometric tail (in s = 1-r)
    runs from ``TAIL_SPAN`` down to the truncation eps.  ``tail_fraction``
    of the nodes goes to each tail.  Spacing therefore decreases
    geometrically toward both endpoints; the ratio adapts to the node count
    (a fixed ratio underflows for large grids).
    """

    r_min: float = 1e-10
    tail_fraction: float = 0.15

    def validate(self) -> None:
        if not (0.0 < self.r_min < TAIL_SPAN):
            raise GridConfigError(f"r_min must lie in (0, {TAIL_SPAN}), got {self.r_min}")
        if not (0.0 < self.tail_fraction <= 0.4):
            raise GridConfigError(f"tail_fraction must lie in (0, 0.4], got {self.tail_fraction}")


class PchipSpacing(NamedTuple):
    """Node spacing h and the Fritsch-Carlson weights w1 = 2h_k + h_(k-1), w2 = h_k + 2h_(k-1)."""

    h: np.ndarray
    w1: np.ndarray
    w2: np.ndarray
    w12: np.ndarray  # w1 + w2


def pchip_spacing(x: np.ndarray) -> PchipSpacing:
    """The PCHIP slope weights of strictly increasing breakpoints x, read-only."""
    h = np.diff(x)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    return PchipSpacing(*(_read_only(a) for a in (h, w1, w2, w1 + w2)))


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
    and cached read-only: the trapezoid ``weights``, ``one_minus_r2``, the
    PCHIP ``spacing``, the powers ``nodes_pow(k)`` and
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
    def weights(self) -> np.ndarray:
        return _read_only(trapezoid_weights(self.nodes))

    @cached_property
    def spacing(self) -> PchipSpacing:
        return pchip_spacing(self.nodes)

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
        """omega (2/(1-r^2))^n r^(n-1), the Poincare-ball volume per unit dr, cached per n."""
        return self._cached(("dv_H", n), lambda: make_constants(n).omega * (
            int_pow(2.0 / self.one_minus_r2, n) * self.nodes_pow(n - 1)))

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


def make_grid(n_points: int, epsilon: float, grading: Optional[GridGrading] = None) -> RadialGrid:
    """Build the three-zone graded mesh on [r_min, 1-epsilon].

    Requires n_points >= 16 and 0 < epsilon < 1/2.  When epsilon is not
    small (epsilon >= TAIL_SPAN, or so close below it that the graded
    tail's radii round together at its TAIL_SPAN end) the boundary has no
    singular layer to resolve and the right tail collapses into the uniform
    section.  A tail whose radii round together at its epsilon end cannot
    resolve the layer and raises GridConfigError, and so does an epsilon
    for which 1 - epsilon rounds to 1.
    """
    if not isinstance(n_points, (int, np.integer)) or n_points < 16:
        raise GridConfigError(f"n_points must be an integer >= 16, got {n_points!r}")
    if not (0.0 < epsilon < 0.5):
        raise GridConfigError(f"epsilon must lie in (0, 1/2), got {epsilon!r}")
    if 1.0 - epsilon == 1.0:
        raise GridConfigError(f"epsilon={epsilon!r} is below the float resolution at 1: "
                              "1 - epsilon rounds to 1")
    grading = grading or GridGrading()
    grading.validate()
    n_points = int(n_points)

    n_tail = max(4, int(round(n_points * grading.tail_fraction)))
    left = np.geomspace(grading.r_min, TAIL_SPAN, n_tail)

    s_right = np.geomspace(TAIL_SPAN, epsilon, n_tail)
    steps = np.diff(1.0 - s_right)
    if epsilon < TAIL_SPAN and steps[0] > 0.0:
        if not np.all(steps > 0.0):
            raise GridConfigError(f"epsilon={epsilon!r} is too small for n_points={n_points}: "
                                  "the boundary tail's radii 1 - s round together near 1 - epsilon")
        n_mid = n_points - 2 * n_tail
        if n_mid < 4:
            raise GridConfigError(
                f"n_points={n_points} too small for tail_fraction={grading.tail_fraction}"
            )
        mid = np.linspace(TAIL_SPAN, 1.0 - TAIL_SPAN, n_mid + 2)[1:-1]
    else:
        # boundary truncation is far from 1: uniform section runs straight to 1-eps
        s_right = np.asarray([epsilon])
        n_mid = n_points - n_tail - 1
        if n_mid < 4:
            raise GridConfigError(f"n_points={n_points} too small for the requested grading")
        mid = np.linspace(TAIL_SPAN, 1.0 - epsilon, n_mid + 2)[1:-1]

    # left and mid are built in r, the right tail in s = 1 - r
    nodes = np.concatenate([left, mid, 1.0 - s_right])
    s = np.concatenate([1.0 - left, 1.0 - mid, s_right])
    xi = np.concatenate([np.log(left), np.log(mid), np.log1p(-s_right)])
    return RadialGrid(nodes=nodes, s=s, xi=xi, epsilon=epsilon)


def integrate(samples: np.ndarray, grid: RadialGrid) -> float:
    """Composite trapezoid of node samples over [nodes[0], 1-eps].

    Exact for piecewise-linear integrands; second order on smooth ones.
    Linear and monotone in the samples.  A non-finite sum, overflow included, raises
    NumericError, also under ``-W error::RuntimeWarning``.
    """
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise NumericError(
            f"samples shape {samples.shape} does not match grid ({grid.nodes.shape})"
        )
    try:
        total = float(np.dot(samples, grid.weights))
    except RuntimeWarning:  # the dot warns on inf - inf and on overflow
        total = math.nan
    if not math.isfinite(total):
        raise NumericError("non-finite sample passed to integrate, or its sum overflows")
    return total


def int_pow(x: np.ndarray, k: int) -> np.ndarray:
    """x**k for an integer k >= 1 by binary exponentiation, without libm pow.

    k = 1 returns x itself and k = 2 is x * x, which is numpy's ``x**2`` to
    the bit; a larger k takes one rounding per multiplication, so it lies
    within k - 1 ulp of ``x**k``.
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
    incr = 0.5 * (samples[1:] + samples[:-1]) * np.diff(grid.nodes)
    out = np.empty_like(samples)
    out[0] = 0.0
    np.cumsum(incr, out=out[1:])
    return out


def truncated_exp(t, m: int):
    """Tail of the exponential series E_m(t) = sum_{k>=m} t^k / k!.

    Equals e^t minus the first m Taylor terms.  Small arguments (t < m/2)
    are summed as a series from the k = m term up, which avoids the
    catastrophic cancellation of the subtracted form; large arguments use
    the direct form with compensated summation of the Taylor partial sum.
    Strictly positive for t > 0.  Monotone nondecreasing in t for m <= 5;
    for m >= 6 the direct form just above t = m/2 rounds with relative
    error about eps / P(Poisson(m/2) >= m), so neighbouring floats there
    can dip by rounding (relative 2e-15 at m = 6, 2e-12 at m = 30).
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
    small = t_arr < (m / 2.0) if m > 0 else np.zeros(t_arr.shape, dtype=bool)

    if m > 0 and small.any():
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
