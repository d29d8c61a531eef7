"""Radial profiles and the functionals of the sharp-inequality pipeline.

A profile is a sampled radial function on a RadialGrid.  Derivatives come
from a shape-preserving (monotone) cubic interpolant rather than finite
differences: on strongly graded meshes central differences lose an order
near the endpoints, and the monotone fit never overshoots plateaus.  The
interpolant is Fritsch & Carlson's PCHIP (SIAM J. Numer. Anal. 1980), done
with numpy alone: ``pchip_slopes`` gives its node slopes, which are the
profile's derivative, and ``hermite_eval`` evaluates the cubic Hermite
pieces, both with scipy's arithmetic.  Values equal those of scipy's
``PchipInterpolator`` to the bit, and so does the derivative at every node
but the last, where scipy evaluates the end of the last cubic and rounds
within a few ulp of the node slope.  No spline object is built.

A profile's values may be one row of N node values or a (k, N) stack of
rows on one grid, the nodes on the last axis.  The slopes, the cubic
evaluation, ``scaled`` and the functionals (``grad_energy``, ``hardy_term``,
``h_functional``, ``potential_term``, ``ln_norm_pow``, ``mt_integrand``,
``singular_mt`` and ``hyperbolic_mt``) work row by row on a stack, with the
arithmetic of one row, and return one value per row.  The n-th-power
integrals go through ``power_integral``, which fixes their rounding order,
and ``quad_core.integrate`` sums each row as its own ``np.dot`` would, so a
row's results do not depend on the stack it was computed in.

Admissible profiles are stored with u = 0 at the last node, enforced by
subtracting the boundary value; constant shifts leave the gradient energy
untouched and keep the profile in the zero-boundary class the theory needs.

The Hardy deficit is a statement on hyperbolic space.  The n-energy is
conformally invariant, so on the Poincare ball, with metric
g = (2/(1-r^2))^2 |dx|^2,

    H(u) = int |grad u|^n dx - (2(n-1)/n)^n int |u|^n (1-r^2)^(-n) dx
         = int |grad_g u|^n dv_g - ((n-1)/n)^n int |u|^n dv_g,

and the sharp Hardy weight is ((n-1)/n)^n times the hyperbolic volume
density.  Every Hardy and hyperbolic sum here reads that density from the
grid (``RadialGrid.hyperbolic_density``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, NamedTuple, Optional, Tuple

import numpy as np

from .errors import DomainError, NumericError, PreconditionError
from .quad_core import (
    EXP_CLAMP,
    RadialGrid,
    int_pow,
    integrate,
    make_constants,
    truncated_exp,
)

__all__ = [
    "Potential",
    "RadialProfile",
    "check_hardy_littlewood",
    "check_polya_szego",
    "grad_energy",
    "h_functional",
    "hardy_term",
    "hyperbolic_mt",
    "hyperbolic_volume",
    "ln_norm_pow",
    "rearrange",
    "singular_mt",
]

TAIL_SHARE_THRESHOLD = 0.5  # divergent-tail detector: last decade carries > 50%


def __getattr__(name: str):
    """scipy's ``PchipInterpolator`` on request (PEP 562); importing hmtlab needs numpy alone."""
    if name == "PchipInterpolator":
        from scipy.interpolate import PchipInterpolator

        return PchipInterpolator
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def hermite_eval(x: np.ndarray, y: np.ndarray, d: np.ndarray, xq) -> np.ndarray:
    """Cubic Hermite interpolant of node values y and slopes d at the queries xq.

    x holds strictly increasing breakpoints.  Each query is located as
    scipy's ``PPoly`` locates it (x[i] <= q < x[i+1], the last piece closed
    on the right, the ends extended outward).  The piece coefficients are
    scipy's ``CubicHermiteSpline`` ones, from h = diff(x), and the sum
    c3 + c2 s + c1 s^2 + c0 s^3 in s = q - x[i] is formed term by term from
    0 in the order its ``PPoly`` evaluation adds them, so the result is
    scipy's to the bit.  y and d may be (k, N) stacks, each row read at
    the same queries.
    """
    xq = np.asarray(xq, dtype=float)
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    s = xq - x[i]
    h = np.diff(x)
    secant = np.diff(y) / h
    t = (d[..., :-1] + d[..., 1:] - 2.0 * secant) / h
    c0, c1 = t / h, (secant - d[..., :-1]) / h - t
    s2 = s * s
    # np.take keeps a stack's rows in C order, where a[..., i] would give F order
    y_i, d_i, c1_i, c0_i = (np.take(a, i, axis=-1) for a in (y, d, c1, c0))
    return 0.0 + y_i + d_i * s + c1_i * s2 + c0_i * (s2 * s)


def pchip_slopes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Fritsch-Carlson node slopes of the PCHIP fit of (x, y), as scipy computes them.

    Interior nodes take the weighted harmonic mean of the adjacent secants,
    or 0 where the secants change sign or one is flat; both ends use
    Moler's shape-preserving one-sided three-point rule.  x holds three or
    more strictly increasing breakpoints.  y may be a (k, N) stack; each
    row is fitted on its own.

    The harmonic means are formed in the output and the secant array, in
    place, with scipy's operations in scipy's order: a stack's temporaries
    are large, and writing into memory already in cache is faster than
    filling fresh arrays.
    """
    h = np.diff(x)
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    m = np.diff(y)
    m /= h
    d = np.empty_like(y)
    ends, inner = [0, -1], [1, -2]  # each end's own interval and secant, then the next ones
    d[..., ends] = _end_slopes(h[ends], h[inner], m[..., ends], m[..., inner])
    # flat where an adjacent secant is 0 or the two differ in sign
    rise, flat = m > 0.0, m == 0.0
    flat = flat[..., 1:] | flat[..., :-1]
    flat |= rise[..., 1:] != rise[..., :-1]
    whmean, m1 = d[..., 1:-1], m[..., 1:]
    with np.errstate(divide="ignore", invalid="ignore"):  # flat entries divide by 0
        np.divide(w1, m[..., :-1], out=whmean)
        whmean += np.divide(w2, m1, out=m1)
        whmean /= w1 + w2
        np.divide(1.0, whmean, out=whmean)
    whmean[flat] = 0.0
    return d


def pchip(x: np.ndarray, y: np.ndarray, xq) -> np.ndarray:
    """The PCHIP interpolant of (x, y) at xq; equals ``PchipInterpolator(x, y)(xq)``."""
    return hermite_eval(x, y, pchip_slopes(x, y), xq)


class RadialProfile:
    """Sampled radial function u(r) >= 0 on a RadialGrid, or a stack of them.

    ``values`` holds the N node values, or a (k, N) stack of k profiles on
    the one grid; ``rows`` splits a stack into its profiles.
    ``enforce_zero_boundary`` subtracts u at the last node (default), which
    is what every admissible profile uses; pass False for diagnostic
    profiles that legitimately carry boundary values.

    The monotone cubic fit is the PCHIP interpolant.  ``slopes`` is the
    profile's one node-derivative array, u'(r_i): the fit's node slopes,
    cached read-only, unless the constructor of a closed-form family set it
    (``moser_profile``).  Calling the profile sums the cubic Hermite pieces
    of the values and slopes with numpy, and ``scaled`` carries the slopes
    to the rescaled profile.
    """

    def __init__(self, grid: RadialGrid, values, *, enforce_zero_boundary: bool = True):
        values = np.asarray(values, dtype=float)
        if values.shape[-1:] != grid.nodes.shape or values.ndim > 2:
            raise PreconditionError(
                f"values shape {values.shape} does not match grid ({grid.nodes.shape})"
            )
        if not np.all(np.isfinite(values)):
            raise NumericError("profile values must be finite")
        if enforce_zero_boundary:
            values = values - values[..., -1:]
            np.maximum(values, 0.0, out=values)
        self.grid = grid
        self.values = values

    @cached_property
    def slopes(self) -> np.ndarray:
        """Fritsch-Carlson node slopes of the PCHIP fit (``pchip_slopes``), read-only."""
        d = pchip_slopes(self.grid.nodes, self.values)
        d.flags.writeable = False
        return d

    def __call__(self, r) -> np.ndarray:
        """u(r), with r clipped to the grid's range; one row of values per profile of a stack."""
        r = np.clip(np.asarray(r, dtype=float), self.grid.nodes[0], self.grid.nodes[-1])
        return hermite_eval(self.grid.nodes, self.values, self.slopes, r)

    def is_nonincreasing(self, tol: float) -> bool:
        """Whether every profile's rises stay below tol times max(1, its largest value)."""
        top = np.maximum(1.0, self.values.max(axis=-1, initial=0.0, keepdims=True))
        return bool(np.all(np.diff(self.values) <= tol * top))

    def scaled(self, c) -> "RadialProfile":
        """c * u on the same grid, carrying c * slopes if they are already set.

        c is a number, or one factor per profile of a stack.  PCHIP is
        homogeneous (every secant, harmonic mean and end slope scales by c),
        so the carried slopes are the fit of c * u up to the rounding of its
        secants, and the rescale costs no new fit.
        """
        c = np.asarray(c, dtype=float)[..., None]
        out = RadialProfile(self.grid, c * self.values, enforce_zero_boundary=False)
        if "slopes" in self.__dict__:
            d = c * self.slopes
            d.flags.writeable = False
            out.slopes = d
        return out

    def rows(self) -> List["RadialProfile"]:
        """The profiles of a stack, each viewing its row of values and of slopes, if set."""
        out = [RadialProfile(self.grid, row, enforce_zero_boundary=False) for row in self.values]
        if "slopes" in self.__dict__:
            for prof, d in zip(out, self.slopes):
                prof.slopes = d
        return out


def _end_slopes(h0: np.ndarray, h1: np.ndarray, m0: np.ndarray, m1: np.ndarray) -> np.ndarray:
    """Moler's one-sided three-point end slopes, clipped to keep the ends monotone.

    0 where the slope's sign differs from the end secant m0's; else 3 m0
    where the two secants differ in sign and the slope exceeds 3 |m0|.
    """
    d = ((2.0 * h0 + h1) * m0 - h0 * m1) / (h0 + h1)
    d = np.where(np.sign(d) != np.sign(m0), 0.0, d)
    return np.where((np.sign(m0) != np.sign(m1)) & (np.abs(d) > 3.0 * np.abs(m0)), 3.0 * m0, d)


@dataclass(frozen=True)
class Potential:
    """Nonnegative radial potential V(r) with the rearrangement-compatible weight.

    kinds: zero, hardy (critical boundary potential), hardy+lambda and
    const; the last two carry ``value``, the lambda added to the Hardy
    potential or the constant.  Admissible kinds keep (1-r^2)^n V(r)
    non-increasing.  Build one as ``Potential(kind, value)``, with a float value
    so that its descriptor reads ``const=2.0``, or as ``Potential.parse(descriptor)``.
    """

    kind: str
    value: float = 0.0

    def __post_init__(self):
        if self.kind not in _POTENTIAL_KINDS:
            raise DomainError(f"unknown potential kind {self.kind!r}")
        if not (math.isfinite(self.value) and self.value >= 0):
            raise DomainError(f"{self.kind} value must be finite and >= 0, got {self.value}")
        if self.value != 0.0 and self.kind not in _VALUED_KINDS:
            raise DomainError(f"potential {self.kind!r} carries no value, got {self.value}")

    def at(self, r: np.ndarray, weight: np.ndarray, n: int) -> np.ndarray:
        """V at radii r, given the boundary weight (1 - r^2)^n there.

        Callers form the weight from 1 - r^2 free of cancellation.  The
        Hardy potential ((2(n-1)/n)^n / weight) is ((n-1)/n)^n (2/(1-r^2))^n,
        the hyperbolic density without its r^(n-1); it stays pointwise
        because ``make_maps`` evaluates V at a(t), off any grid.  Where the
        weight underflows to 0 or the quotient overflows (large n near the
        boundary), V is inf without a RuntimeWarning, and the potential mass
        of the Green solve raises PotentialInstabilityError on it.
        """
        hc = make_constants(n).hardy_const
        if self.kind.startswith("hardy"):
            with np.errstate(divide="ignore", over="ignore"):
                v = hc / weight
        else:
            v = np.zeros_like(r)
        return v + self.value if self.kind in _VALUED_KINDS else v

    def values(self, grid: RadialGrid, n: int) -> np.ndarray:
        """V at the grid's nodes, from the grid's cached (1 - r^2)^n."""
        return self.at(grid.nodes, grid.one_minus_r2_pow(n), n)

    def is_zero(self) -> bool:
        return self.kind == "zero" or (self.kind == "const" and self.value == 0.0)

    @classmethod
    def parse(cls, text: str) -> "Potential":
        """Inverse of descriptor(): zero | hardy | hardy+lambda=<x> | const=<x>."""
        if not isinstance(text, str):
            raise DomainError(f"potential must be a string, got {text!r}")
        kind, sep, number = text.partition("=")
        if kind not in _POTENTIAL_KINDS or bool(sep) != (kind in _VALUED_KINDS):
            raise DomainError(f"unknown potential {text!r}")
        if not sep:
            return cls(kind=kind)
        try:
            value = float(number)
        except ValueError:
            raise DomainError(f"potential parameter is not a number: {text!r}") from None
        return cls(kind=kind, value=value)

    def descriptor(self) -> str:
        return f"{self.kind}={self.value!r}" if self.kind in _VALUED_KINDS else self.kind


_VALUED_KINDS = ("hardy+lambda", "const")  # the kinds that carry a value
_POTENTIAL_KINDS = ("zero", "hardy") + _VALUED_KINDS


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


def power_integral(values: np.ndarray, n: int, grid: RadialGrid, *weights: np.ndarray):
    """integrate(values^n times the weights), one sum per row of a stack.

    Rounding order: ``int_pow(values, n)``, a new array at n >= 2, times each
    weight in place in the order given, then ``integrate``.
    """
    vals = int_pow(values, n)
    for w in weights:
        vals *= w
    return integrate(vals, grid)


def grad_energy(u: RadialProfile, n: int):
    """omega * int |u'|^n r^(n-1) dr over the truncated domain, per profile of a stack."""
    g = u.grid
    return make_constants(n).omega * power_integral(np.abs(u.slopes), n, g, g.nodes_pow(n - 1))


def hardy_term(u: RadialProfile, n: int):
    """Sharp-constant boundary Hardy integral of |u|^n: ((n-1)/n)^n int |u|^n dv_H."""
    return ((n - 1) / n) ** n * hyperbolic_ln_norm_pow(u, n)


def h_functional(u: RadialProfile, n: int):
    """Hardy-deficit energy: gradient energy minus the sharp Hardy term."""
    return grad_energy(u, n) - hardy_term(u, n)


def potential_term(u: RadialProfile, potential: Potential, n: int):
    """int V |u|^n dx = omega * int V u^n r^(n-1) dr."""
    g = u.grid
    return make_constants(n).omega * power_integral(u.values, n, g, potential.values(g, n),
                                                    g.nodes_pow(n - 1))


def ln_norm_pow(u: RadialProfile, n: int):
    """||u||_n^n with respect to Lebesgue measure on the ball."""
    g = u.grid
    return make_constants(n).omega * power_integral(u.values, n, g, g.nodes_pow(n - 1))


def hyperbolic_ln_norm_pow(u: RadialProfile, n: int):
    """int |u|^n dv_H, the L^n norm under the Poincare-ball volume."""
    return power_integral(u.values, n, u.grid, u.grid.hyperbolic_density(n))


def mt_exponent(values: np.ndarray, n: int, beta: float, scale: float = 1.0) -> np.ndarray:
    """The Moser-Trudinger exponent scale * (1 - beta/n) * alpha_n * u^(n/(n-1)) of node values.

    At n = 3 the power u^(3/2) is formed as u * sqrt(u), without libm pow.
    """
    if n == 3:
        u_pow = np.sqrt(values)
        u_pow *= values
    else:
        u_pow = values ** (n / (n - 1.0))
    return np.multiply(u_pow, scale * (1.0 - beta / n) * make_constants(n).alpha_n, out=u_pow)


def mt_integrand(values: np.ndarray, grid: RadialGrid, n: int, beta: float, scale: float = 1.0,
                 exponent: Optional[np.ndarray] = None) -> Tuple[np.ndarray, np.ndarray]:
    """singular_mt's node integrand exp(exponent) r^(n-beta-1), and the mask of clamped nodes.

    Formed in log space from ``mt_exponent(values, n, beta, scale)`` and the
    row (n - beta - 1) ln r, with the logarithm clamped at EXP_CLAMP.  A
    given ``exponent`` is that exponent formed already; it is read, not
    overwritten, so one libm pow serves two grids.
    """
    row = (n - beta - 1.0) * grid.xi
    if exponent is None:
        x = mt_exponent(values, n, beta, scale)
        x += row
    else:
        x = exponent + row
    clamped = x > EXP_CLAMP
    x[clamped] = EXP_CLAMP  # a scan of the mask alone when no node clamps
    return np.exp(x, out=x), clamped


def singular_mt(u: RadialProfile, n: int, beta: float, exponent_scale: float = 1.0,
                exponent: Optional[np.ndarray] = None) -> MTResult:
    """Singular exponential integral with weight r^(-beta).

    omega * int exp(scale * (1 - beta/n) * alpha_n * u^(n/(n-1))) r^(n-beta-1) dr,
    evaluated in log space per node and clamped at exp(EXP_CLAMP); a clamped
    node sets the overflow flag (concentrating families legitimately get
    there, so the flag is data rather than an error).  On a stack, value
    and flag hold one entry per profile.  ``exponent`` is passed on to
    ``mt_integrand``.
    """
    _check_beta(beta, n)
    if exponent_scale <= 0.0:
        raise DomainError(f"exponent_scale must be positive, got {exponent_scale}")
    vals, clamped = mt_integrand(u.values, u.grid, n, beta, exponent_scale, exponent)
    overflow = clamped.any(axis=-1)
    return MTResult(make_constants(n).omega * integrate(vals, u.grid),
                    bool(overflow) if overflow.ndim == 0 else overflow)


def singular_mt_with_gradient(values: np.ndarray, grid: RadialGrid, n: int, beta: float
                              ) -> Tuple[float, np.ndarray]:
    """singular_mt's sum at scale 1 and its node gradient (0 where clamped), from one integrand."""
    _check_beta(beta, n)
    c = make_constants(n)
    vals, clamped = mt_integrand(values, grid, n, beta)
    grad = np.maximum(values, 0.0)
    if n > 2:  # the power 1 at n = 2 would copy the same bits
        grad **= 1.0 / (n - 1.0)
    grad *= (1.0 - beta / n) * c.alpha_n * (n / (n - 1.0))
    grad *= c.omega * grid.weights * vals
    grad[clamped] = 0.0
    return c.omega * integrate(vals, grid), grad


def hyperbolic_mt(u: RadialProfile, n: int, beta: float, m: int) -> HyperbolicMTResult:
    """Regularized exponential integral against the weight 2^(-n) r^(-beta) dv_H.

    omega * int E_m((1-beta/n) alpha_n u^(n/(n-1))) (1-r^2)^(-n) r^(n-beta-1) dr
    with E_m the order-m exponential tail.  m = n is the convergent
    regularization for admissible profiles; m = n-1 is allowed only as a
    divergence probe.  The divergence flag fires when the last decade of
    nodes carries more than half the integral.  On a stack, value and both
    flags hold one entry per profile.
    """
    _check_beta(beta, n)
    if m not in (n - 1, n):
        raise DomainError(f"truncation m must be n-1 or n (= {n-1} or {n}), got {m}")
    g = u.grid
    x = mt_exponent(u.values, n, beta)
    overflow = np.any(x > EXP_CLAMP, axis=-1)
    e_vals = truncated_exp(np.minimum(x, EXP_CLAMP), m)
    integrand = e_vals * g.hyperbolic_density(n) * g.nodes_pow(-beta)
    total = integrate(integrand, g)
    tail = g.s <= 10.0 * g.epsilon
    flag = np.vecdot(integrand[..., tail], g.weights[tail]) > TAIL_SHARE_THRESHOLD * total
    flags = (bool(a) if a.ndim == 0 else a for a in (flag, overflow))  # one profile: Python bools
    return HyperbolicMTResult(2.0**-n * total, *flags)


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
    integrand = int_pow(2.0 / (1.0 - xs**2), n) * int_pow(xs, n - 1)
    total = float(np.trapezoid(integrand, xs))
    if r > core:
        s = np.geomspace(1.0 - core, 1.0 - r, 100_000)
        one_minus_sq = s * (2.0 - s)
        integrand = int_pow(2.0 / one_minus_sq, n) * int_pow(1.0 - s, n - 1)
        total += float(np.trapezoid(integrand, 1.0 - s))  # 1 - s increases from core to r
    return c.omega * total


def nonincreasing_majorant(values: np.ndarray) -> np.ndarray:
    """The least non-increasing majorant of node values: at each node, the max from it outward.

    Row by row on a (k, N) stack.  Values that are non-increasing already
    come back as they are, the same array when no row rises: the check
    costs about a fifteenth of the running maximum.
    """
    rises = np.any(values[..., 1:] > values[..., :-1], axis=-1)
    if not np.any(rises):
        return values
    out = values.copy()
    out[rises] = np.maximum.accumulate(values[rises][..., ::-1], axis=-1)[..., ::-1]
    return out


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
    w = u.grid.hyperbolic_density(n) * u.grid.weights
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
