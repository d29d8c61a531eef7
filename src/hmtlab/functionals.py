"""Radial profiles and the functionals of the sharp-inequality pipeline.

A profile is a sampled radial function on a RadialGrid.  Derivatives come
from a shape-preserving (monotone) cubic interpolant rather than finite
differences: on strongly graded meshes central differences lose an order
near the endpoints, and the monotone fit never overshoots plateaus.  The
interpolant is Fritsch & Carlson's PCHIP (SIAM J. Numer. Anal. 1980), done
with numpy alone: ``pchip_slopes`` gives its node slopes and
``hermite_eval`` evaluates the cubic Hermite pieces at the points a
``hermite_plan`` located, both with scipy's arithmetic, so values and
derivatives equal those of scipy's ``PchipInterpolator`` to the bit.  No
spline object is built.

Admissible profiles are stored with u = 0 at the last node, enforced by
subtracting the boundary value; constant shifts leave the gradient energy
untouched and keep the profile in the zero-boundary class the theory needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple, Optional, Tuple

import numpy as np
# unused here; perfbench/spans.py looks PchipInterpolator up in this module to trace PCHIP builds
from scipy.interpolate import PchipInterpolator  # noqa: F401

from .errors import DomainError, NumericError, PreconditionError
from .quad_core import (
    EXP_CLAMP,
    PchipSpacing,
    RadialGrid,
    integrate,
    make_constants,
    pchip_spacing,
    truncated_exp,
)

__all__ = [
    "RadialProfile",
    "Potential",
    "MTResult",
    "HyperbolicMTResult",
    "PolyaSzegoResult",
    "HermitePlan",
    "pchip_slopes",
    "hermite_plan",
    "hermite_eval",
    "pchip",
    "grad_energy",
    "hardy_term",
    "h_functional",
    "potential_term",
    "ln_norm_pow",
    "hyperbolic_ln_norm_pow",
    "mt_exponent",
    "clamped_exp",
    "singular_mt",
    "singular_mt_gradient",
    "hyperbolic_mt",
    "hyperbolic_volume",
    "cell_hyperbolic_volumes",
    "rearrange",
    "check_polya_szego",
    "check_hardy_littlewood",
]

TAIL_SHARE_THRESHOLD = 0.5  # divergent-tail detector: last decade carries > 50%


class HermitePlan(NamedTuple):
    """Query points located among breakpoints x, ready for ``hermite_eval``.

    idx is the piece of each query (x[idx] <= q < x[idx+1], the last piece
    closed on the right, the ends extended outward) and s = q - x[idx].
    """

    idx: np.ndarray
    s: np.ndarray
    s2: np.ndarray
    s3: np.ndarray


def hermite_plan(x: np.ndarray, xq) -> HermitePlan:
    """Locate queries xq among strictly increasing breakpoints x, as scipy's PPoly does."""
    xq = np.asarray(xq, dtype=float)
    idx = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    s = xq - x[idx]
    s2 = s * s
    return HermitePlan(idx, s, s2, s2 * s)


def hermite_eval(plan: HermitePlan, h: np.ndarray, y: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Cubic Hermite interpolant of node values y and slopes d at a plan's queries.

    The piece coefficients are scipy's ``CubicHermiteSpline`` ones, and the
    sum c3 + c2 s + c1 s^2 + c0 s^3 is formed term by term from 0 in the
    order its ``PPoly`` evaluation adds them, so the result is scipy's to
    the bit.
    """
    c0, c1 = _cubic_coefficients(h, y, d)
    i = plan.idx
    return 0.0 + y[i] + d[i] * plan.s + c1[i] * plan.s2 + c0[i] * plan.s3


def _cubic_coefficients(h, y, d):
    """The s^3 and s^2 coefficients of each cubic Hermite piece."""
    secant = np.diff(y) / h
    t = (d[:-1] + d[1:] - 2.0 * secant) / h
    return t / h, (secant - d[:-1]) / h - t


def pchip_slopes(y: np.ndarray, spacing: PchipSpacing) -> np.ndarray:
    """Fritsch-Carlson node slopes of the PCHIP fit, as scipy computes them.

    Interior nodes take the weighted harmonic mean of the adjacent secants,
    or 0 where the secants change sign or one is flat; both ends use
    Moler's shape-preserving one-sided three-point rule.  Needs three nodes
    or more.
    """
    h = spacing.h
    m = np.diff(y) / h
    d = np.empty_like(y)
    sm = np.sign(m)
    flat = (sm[1:] != sm[:-1]) | (m[1:] == 0.0) | (m[:-1] == 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):  # flat entries divide by 0
        whmean = (spacing.w1 / m[:-1] + spacing.w2 / m[1:]) / spacing.w12
        d[1:-1] = np.where(flat, 0.0, 1.0 / whmean)
    d[0] = _end_slope(h[0], h[1], m[0], m[1])
    d[-1] = _end_slope(h[-1], h[-2], m[-1], m[-2])
    return d


def pchip(x: np.ndarray, y: np.ndarray, xq) -> np.ndarray:
    """The PCHIP interpolant of (x, y) at xq; equals ``PchipInterpolator(x, y)(xq)``."""
    spacing = pchip_spacing(x)
    return hermite_eval(hermite_plan(x, xq), spacing.h, y, pchip_slopes(y, spacing))


class RadialProfile:
    """Sampled radial function u(r) >= 0 on a RadialGrid.

    ``enforce_zero_boundary`` subtracts u at the last node (default), which
    is what every admissible profile uses; pass False for diagnostic
    profiles that legitimately carry boundary values.

    The monotone cubic fit is the PCHIP interpolant: ``slopes`` holds its
    node slopes, ``derivative`` reads u' at the nodes from them, and calling
    the profile (or ``evaluate`` on a ready plan) sums the cubic Hermite
    pieces with numpy.  Only the slope (read-only) and derivative arrays
    are cached.
    """

    def __init__(self, grid: RadialGrid, values, *, enforce_zero_boundary: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape != grid.nodes.shape:
            raise PreconditionError(
                f"values shape {values.shape} does not match grid ({grid.nodes.shape})"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("profile values must be finite")
        if enforce_zero_boundary:
            values = np.maximum(values - values[-1], 0.0)
        self.grid = grid
        self.values = values
        self._deriv: Optional[np.ndarray] = None

    @cached_property
    def slopes(self) -> np.ndarray:
        """Fritsch-Carlson node slopes of the PCHIP fit (``pchip_slopes``), read-only."""
        d = pchip_slopes(self.values, self.grid.spacing)
        d.flags.writeable = False
        return d

    @property
    def derivative(self) -> np.ndarray:
        """u'(r_i) read from the monotone cubic fit (cached).

        The node slopes, except at the last node: a piecewise polynomial
        evaluates that node at the right end of the last cubic, so the same
        sum is formed here, in the same order, and the value equals scipy's
        spline derivative to the last bit.
        """
        if self._deriv is None:
            d = self.slopes.copy()
            h = self.grid.spacing.h[-1:]
            c0, c1 = _cubic_coefficients(h, self.values[-2:], d[-2:])
            d[-1] = d[-2] + (2.0 * c1[0]) * h[0] + (3.0 * c0[0]) * (h[0] * h[0])
            self._deriv = d
        return self._deriv

    def __call__(self, r) -> np.ndarray:
        """u(r), with r clipped to the grid's range."""
        r = np.clip(np.asarray(r, dtype=float), self.grid.nodes[0], self.grid.nodes[-1])
        return self.evaluate(hermite_plan(self.grid.nodes, r))

    def evaluate(self, plan: HermitePlan) -> np.ndarray:
        """u at the queries of a plan made on this profile's grid nodes."""
        return hermite_eval(plan, self.grid.spacing.h, self.values, self.slopes)

    def is_nonincreasing(self, tol: float = 1e-12) -> bool:
        return bool(np.all(np.diff(self.values) <= tol * max(1.0, float(self.values.max(initial=0.0)))))

    def scaled(self, c: float) -> "RadialProfile":
        return RadialProfile(self.grid, c * self.values, enforce_zero_boundary=False)


def _end_slope(h0: float, h1: float, m0: float, m1: float) -> float:
    """Moler's one-sided three-point end slope, clipped to keep the end monotone."""
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    if np.sign(d) != np.sign(m0):
        return 0.0
    if np.sign(m0) != np.sign(m1) and abs(d) > 3.0 * abs(m0):
        return 3.0 * m0
    return d


@dataclass(frozen=True)
class Potential:
    """Nonnegative radial potential V(r) with the rearrangement-compatible weight.

    kinds: zero, hardy (critical boundary potential), hardy+lambda,
    const.  Admissible kinds keep (1-r^2)^n V(r) non-increasing.
    """

    kind: str
    lam: float = 0.0
    alpha: float = 0.0

    def __post_init__(self):
        if not (math.isfinite(self.lam) and self.lam >= 0):
            raise DomainError(f"lambda must be finite and >= 0, got {self.lam}")
        if not (math.isfinite(self.alpha) and self.alpha >= 0):
            raise DomainError(f"constant potential must be finite and >= 0, got {self.alpha}")

    @classmethod
    def zero(cls) -> "Potential":
        return cls(kind="zero")

    @classmethod
    def hardy_critical(cls) -> "Potential":
        return cls(kind="hardy")

    @classmethod
    def hardy_plus_lambda(cls, lam: float) -> "Potential":
        return cls(kind="hardy+lambda", lam=float(lam))

    @classmethod
    def constant(cls, alpha: float) -> "Potential":
        return cls(kind="const", alpha=float(alpha))

    def at(self, r: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
        """V at radii r, given the boundary weight (1 - r^2)^n there.

        Callers form the weight from 1 - r^2 free of cancellation.
        """
        hc = make_constants(n).hardy_const
        if self.kind == "zero":
            return np.zeros_like(r)
        if self.kind == "hardy":
            return hc / weight
        if self.kind == "hardy+lambda":
            return hc / weight + self.lam
        if self.kind == "const":
            return np.full_like(r, self.alpha)
        raise DomainError(f"unknown potential kind {self.kind!r}")

    def values(self, grid: RadialGrid, n: int) -> np.ndarray:
        """V at the grid's nodes, from the grid's cached (1 - r^2)^n."""
        return self.at(grid.nodes, grid.one_minus_r2_pow(n), n)

    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "const" and self.alpha == 0.0)

    @classmethod
    def parse(cls, text: str) -> "Potential":
        """Inverse of descriptor(): zero | hardy | hardy+lambda=<x> | const=<x>."""
        if not isinstance(text, str):
            raise DomainError(f"potential must be a string, got {text!r}")
        if text in ("zero", "hardy"):
            return cls(kind=text)
        for prefix, make in (("hardy+lambda=", cls.hardy_plus_lambda), ("const=", cls.constant)):
            if text.startswith(prefix):
                try:
                    value = float(text[len(prefix):])
                except ValueError:
                    raise DomainError(f"potential parameter is not a number: {text!r}") from None
                return make(value)
        raise DomainError(f"unknown potential {text!r}")

    def descriptor(self) -> str:
        if self.kind == "hardy+lambda":
            return f"hardy+lambda={self.lam!r}"
        if self.kind == "const":
            return f"const={self.alpha!r}"
        return self.kind


class MTResult(NamedTuple):
    value: float
    overflow: bool


class HyperbolicMTResult(NamedTuple):
    value: float
    divergence_flag: bool
    overflow: bool


class PolyaSzegoResult(NamedTuple):
    margin: float
    h_margin: float


def grad_energy(u: RadialProfile, n: int) -> float:
    """omega * int |u'|^n r^(n-1) dr over the truncated domain."""
    c = make_constants(n)
    g = u.grid
    return c.omega * integrate(np.abs(u.derivative) ** n * g.nodes_pow(n - 1), g)


def hardy_term(u: RadialProfile, n: int) -> float:
    """Sharp-constant boundary Hardy integral of |u|^n."""
    c = make_constants(n)
    g = u.grid
    integrand = u.values**n / g.one_minus_r2_pow(n) * g.nodes_pow(n - 1)
    return c.hardy_const * c.omega * integrate(integrand, g)


def _tail_share(integrand: np.ndarray, grid: RadialGrid) -> float:
    w = grid.weights
    total = float(np.dot(integrand, w))
    if total <= 0.0:
        return 0.0
    mask = grid.s <= 10.0 * grid.epsilon
    return float(np.dot(integrand[mask], w[mask])) / total


def h_functional(u: RadialProfile, n: int) -> float:
    """Hardy-deficit energy: gradient energy minus the sharp Hardy term."""
    return grad_energy(u, n) - hardy_term(u, n)


def potential_term(u: RadialProfile, potential: Potential, n: int) -> float:
    """int V |u|^n dx = omega * int V u^n r^(n-1) dr."""
    c = make_constants(n)
    g = u.grid
    return c.omega * integrate(
        potential.values(g, n) * u.values**n * g.nodes_pow(n - 1), g
    )


def ln_norm_pow(u: RadialProfile, n: int) -> float:
    """||u||_n^n with respect to Lebesgue measure on the ball."""
    c = make_constants(n)
    return c.omega * integrate(u.values**n * u.grid.nodes_pow(n - 1), u.grid)


def hyperbolic_ln_norm_pow(u: RadialProfile, n: int) -> float:
    """int |u|^n dv_H, the L^n norm under the Poincare-ball volume."""
    return float(np.dot(u.values**n, cell_hyperbolic_volumes(u.grid, n)))


def mt_exponent(values: np.ndarray, n: int, beta: float, scale: float = 1.0) -> np.ndarray:
    """The Moser-Trudinger exponent scale * (1 - beta/n) * alpha_n * u^(n/(n-1)) of node values."""
    return scale * (1.0 - beta / n) * make_constants(n).alpha_n * values ** (n / (n - 1.0))


def clamped_exp(x: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """exp(x) with x clamped at EXP_CLAMP, and the mask of the clamped entries."""
    return np.exp(np.minimum(x, EXP_CLAMP)), x > EXP_CLAMP


def singular_mt(
    u: RadialProfile, n: int, beta: float, exponent_scale: float = 1.0
) -> MTResult:
    """Singular exponential integral with weight r^(-beta).

    omega * int exp(scale * (1 - beta/n) * alpha_n * u^(n/(n-1))) r^(n-beta-1) dr,
    evaluated in log space per node and clamped at exp(EXP_CLAMP); a clamped
    node sets the overflow flag (concentrating families legitimately get
    there, so the flag is data rather than an error).
    """
    _check_beta(beta, n)
    if exponent_scale <= 0.0:
        raise DomainError(f"exponent_scale must be positive, got {exponent_scale}")
    g = u.grid
    log_integrand = mt_exponent(u.values, n, beta, exponent_scale) + (n - beta - 1.0) * g.log_nodes
    vals, clamped = clamped_exp(log_integrand)
    return MTResult(make_constants(n).omega * integrate(vals, g), bool(clamped.any()))


def singular_mt_gradient(u: RadialProfile, n: int, beta: float) -> np.ndarray:
    """Node gradient of singular_mt's quadrature sum at scale 1; 0 where a node is clamped."""
    c = make_constants(n)
    g = u.grid
    vals, clamped = clamped_exp(mt_exponent(u.values, n, beta) + (n - beta - 1.0) * g.log_nodes)
    inner = (1.0 - beta / n) * c.alpha_n * (n / (n - 1.0)) * np.maximum(u.values, 0.0) ** (
        1.0 / (n - 1.0))
    return np.where(clamped, 0.0, c.omega * g.weights * vals * inner)


def hyperbolic_mt(u: RadialProfile, n: int, beta: float, m: int) -> HyperbolicMTResult:
    """Regularized exponential integral against the hyperbolic volume weight.

    omega * int E_m((1-beta/n) alpha_n u^(n/(n-1))) (1-r^2)^(-n) r^(n-beta-1) dr
    with E_m the order-m exponential tail.  m = n is the convergent
    regularization for admissible profiles; m = n-1 is allowed only as a
    divergence probe.  The divergence flag fires when the last decade of
    nodes carries more than half the integral.
    """
    _check_beta(beta, n)
    if m not in (n - 1, n):
        raise DomainError(f"truncation m must be n-1 or n (= {n-1} or {n}), got {m}")
    g = u.grid
    x = mt_exponent(u.values, n, beta)
    overflow = bool(np.any(x > EXP_CLAMP))
    e_vals = truncated_exp(np.minimum(x, EXP_CLAMP), m)
    integrand = e_vals / g.one_minus_r2_pow(n) * g.nodes_pow(n - beta - 1.0)
    value = make_constants(n).omega * integrate(integrand, g)
    flag = _tail_share(integrand, g) > TAIL_SHARE_THRESHOLD
    return HyperbolicMTResult(value, flag, overflow)


def hyperbolic_volume(r: float, n: int) -> float:
    """Volume of the Euclidean ball of radius r under the hyperbolic metric.

    omega * int_0^r (2/(1-s^2))^n s^(n-1) ds by the trapezoid rule on a
    dedicated mesh, independent of any profile grid: 200 001 uniform nodes
    on r <= 0.9 and 100 000 geometric ones in 1 - r beyond.  Relative error
    at most 7e-9 against the n = 2 closed form up to r = 1 - 1e-6, inside
    the 1e-8 its references are checked to.  Strictly increasing in r.
    """
    c = make_constants(n)
    if not (0.0 <= r < 1.0):
        raise DomainError(f"radius must lie in [0, 1), got {r}")
    if r == 0.0:
        return 0.0
    core = min(r, 0.9)
    xs = np.linspace(0.0, core, 200_001)
    integrand = (2.0 / (1.0 - xs**2)) ** n * xs ** (n - 1)
    total = float(np.trapezoid(integrand, xs))
    if r > core:
        s = np.geomspace(1.0 - core, 1.0 - r, 100_000)
        one_minus_sq = s * (2.0 - s)
        integrand = (2.0 / one_minus_sq) ** n * (1.0 - s) ** (n - 1)
        total += float(np.trapezoid(integrand, 1.0 - s))  # 1 - s increases from core to r
    return c.omega * total


def cell_hyperbolic_volumes(grid: RadialGrid, n: int) -> np.ndarray:
    """Hyperbolic volume attached to each node's trapezoid cell."""
    c = make_constants(n)
    density = (2.0 / grid.one_minus_r2) ** n * grid.nodes_pow(n - 1)
    return c.omega * density * grid.weights


def rearrange(u: RadialProfile, n: int) -> RadialProfile:
    """Radial non-increasing rearrangement w.r.t. the hyperbolic volume.

    Each node cell is an atom (value, hyperbolic volume).  Atoms are sorted
    by value (stable, preserving cell order on ties), laid out along the
    cumulative-volume axis, and averaged back onto the original cells.
    The construction conserves int u dv_H up to rounding and int f(u) dv_H
    up to a second-order cell-quantization term; an already non-increasing
    profile comes back equal up to rounding, not bit for bit.
    """
    if np.any(u.values < 0):
        raise PreconditionError("rearrange requires a nonnegative profile")
    w = cell_hyperbolic_volumes(u.grid, n)
    order = np.argsort(-u.values, kind="stable")
    w_sorted = w[order]
    cum_w_src = np.concatenate([[0.0], np.cumsum(w_sorted)])
    cum_int_src = np.concatenate([[0.0], np.cumsum(u.values[order] * w_sorted)])
    cum_w_tgt = np.concatenate([[0.0], np.cumsum(w)])
    block_int = np.interp(cum_w_tgt, cum_w_src, cum_int_src)
    star = np.diff(block_int) / np.diff(cum_w_tgt)
    star = np.minimum.accumulate(star)  # remove rounding-level violations
    return RadialProfile(u.grid, star, enforce_zero_boundary=False)


def check_polya_szego(u: RadialProfile, n: int) -> PolyaSzegoResult:
    """Energy drop under rearrangement; nonnegative up to quadrature noise."""
    star = rearrange(u, n)
    margin = grad_energy(u, n) - grad_energy(star, n)
    h_margin = h_functional(u, n) - h_functional(star, n)
    return PolyaSzegoResult(margin, h_margin)


def check_hardy_littlewood(u: RadialProfile, n: int, beta: float) -> float:
    """singular_mt gain of the rearranged profile (should be >= 0)."""
    star = rearrange(u, n)
    return singular_mt(star, n, beta).value - singular_mt(u, n, beta).value


def _check_beta(beta: float, n: int) -> None:
    if not (0.0 <= beta < n):
        raise DomainError(f"beta must lie in [0, n) = [0, {n}), got {beta}")
