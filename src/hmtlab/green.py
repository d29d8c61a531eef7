"""Green function of the n-Laplacian with critical Hardy potential.

The radial problem reduces to a flux identity: for the positive singular
solution G with pole at the origin,

    -omega^(1/(n-1)) G'(b) b = (1 + m(b))^(1/(n-1)),
    m(b) = omega * int_0^b V(s) G(s)^(n-1) s^(n-1) ds,

with G = 0 at the truncated boundary 1-eps.  The discrete identity is
homogeneous in G and the flux 1 + m, so the solver fixes the flux at the
boundary instead of at the pole, where the problem is causal: it marches
inward window by window, plain Picard steps of two cumulative sums over a
window's nodes from the G and flux of its outer node, and one rescale
restores the pole normalization.  A flux that vanishes before the pole
shows that no positive Green function exists.  The pole decomposition

    G(r) = -gamma ln r + C_G + H(r),   gamma = omega^(-1/(n-1)),

is assembled without cancellation: the log part is exact in xi, the
remainder H is accumulated from the origin as a sum of tiny positive flux
excesses, so H stays meaningful down to 1e-300, and G adds the same
excesses summed from the boundary, where it is tiny itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Optional, Tuple

import numpy as np

from . import FORMAT_VERSION
from .errors import (
    ConvergenceError,
    CorruptTableError,
    NumericError,
    PotentialInstabilityError,
)
from .functionals import Potential, pchip
from .quad_core import (
    RadialGrid,
    cumulative_from_origin,
    int_pow,
    make_constants,
    make_grid,
)

__all__ = [
    "GreenTable",
    "TransplantMaps",
    "check_boundary_bound",
    "image_t_grid",
    "make_maps",
    "solve_green",
]

# solve_green's windows; 1, 2 or 4 fail 2-5 tol-1e-10 solves at eps = 1e-12, N <= 2048, that 8 pass
MARCH_WINDOWS = 8
MARCH_WINDOW_NODES = 4096

@dataclass(frozen=True)
class GreenTable:
    """Converged discrete Green function and its pole decomposition; its arrays are read-only."""

    grid: RadialGrid
    n: int
    potential: Potential
    g_values: np.ndarray
    excess: np.ndarray  # flux - 1, kept apart from 1 so that tiny values survive
    c_g: float
    remainder: np.ndarray
    iterations: int
    tol: float

    def __post_init__(self):
        for a in (self.g_values, self.excess, self.remainder):
            a.flags.writeable = False

    @property
    def m_values(self) -> np.ndarray:
        return _mass(self.g_values, self.potential.values(self.grid, self.n), self.grid, self.n)

    @property
    def g_deriv(self) -> np.ndarray:
        return -make_constants(self.n).gamma * (1.0 + self.excess) / self.grid.nodes

    @cached_property
    def residual(self) -> float:
        """Sup-norm defect of the flux identity, the mass recomputed from G; computed once."""
        return float(np.max(np.abs(_flux_excess(self.m_values, self.n) - self.excess)))

    def validate(self) -> None:
        """Raise CorruptTableError if any structural invariant fails."""
        _check_decreasing(self.g_values)
        if not np.all(self.excess >= -1e-12):
            raise CorruptTableError("-omega^(1/(n-1)) G' r must be >= 1")
        if not math.isfinite(self.residual) or self.residual > 10.0 * self.tol:
            raise CorruptTableError(f"residual {self.residual} exceeds tolerance {self.tol}")

    def report_fields(self) -> dict:
        """``to_json_dict`` with G left as the read-only array, for a writer that takes arrays."""
        return {
            "n": self.n,
            "potential": self.potential.descriptor(),
            "epsilon": self.grid.epsilon,
            "c_g": self.c_g,
            "residual": self.residual,
            "tol": self.tol,
            "iterations": self.iterations,
            "G": self.g_values,
        }

    def to_json_dict(self) -> dict:
        return {**self.report_fields(), "G": self.g_values.tolist()}

    @classmethod
    def from_json_dict(cls, doc) -> "GreenTable":
        """Rebuild a table from ``to_json_dict`` output, trusting only its G.

        The inputs are n, potential, epsilon, tol, iterations and G; the grid
        is ``make_grid(len(G), epsilon)``.  The solver's last step, repeated
        from G, recomputes the flux excess, G', the remainder and the
        residual; it must pass ``validate``, agree with G to 10 tol gamma and
        give back c_g as the pole fit of G, and the stored G must itself be
        strictly decreasing; a recomputation whose potential mass overflows
        is corrupt too.  The stored residual is not read.
        A document that still carries r, Gprime or remainder is an
        hmtlab-report/1 table and is rejected, so none of them is read.
        """
        stale = [k for k in ("r", "Gprime", "remainder") if isinstance(doc, dict) and k in doc]
        if stale:
            raise CorruptTableError(f"an hmtlab-report/1 table (it stores {', '.join(stale)}); "
                                    f"expected {FORMAT_VERSION}, which stores G alone")
        try:
            n = int(doc["n"])
            gamma = make_constants(n).gamma
            potential = Potential.parse(doc["potential"])
            tol = float(doc["tol"])
            iterations = int(doc["iterations"])
            g = np.asarray(doc["G"], dtype=float)
            grid = make_grid(g.size, float(doc["epsilon"]))
            c_g = float(doc["c_g"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise CorruptTableError(f"missing or malformed field: {exc}") from exc
        if not (math.isfinite(tol) and tol > 0.0):
            raise CorruptTableError(f"tol must be finite and positive, got {tol}")
        if g.shape != grid.nodes.shape or not np.all(np.isfinite(g)):
            raise CorruptTableError("G must hold one finite value per node")

        try:
            table = _table_from_g(grid, n, potential, g, iterations, tol)
            table.validate()
            if not np.all(np.abs(g - table.g_values) <= 10.0 * tol * gamma):
                raise CorruptTableError("G disagrees with its recomputation from G")
            c_g_fit = _fit_c_g(grid, g, gamma, n)
            if not abs(c_g - c_g_fit) <= 1e-12 * abs(c_g_fit):
                raise CorruptTableError(f"c_g {c_g!r} differs from {c_g_fit!r}, the fit of G")
            # the rest of validate holds for the loaded table as for table: its excess is
            # the one formed from the mass of g, so its residual is 0.0 by construction
            _check_decreasing(g)
        except PotentialInstabilityError as exc:
            raise CorruptTableError(f"its recomputation from G fails: {exc}") from exc
        return replace(table, g_values=g, c_g=c_g_fit)


@dataclass(frozen=True)
class TransplantMaps:
    """Transplantation ingredients tabulated on a t-grid.

    The t-grid is the Green table's image grid (``image_t_grid``) unless
    ``make_maps`` was given ``n_t``.  ``image_of`` is the table's r-grid in
    the first case and None in the second: on the image grid a(t_i) = r_i,
    so a profile on ``image_of`` pushes forward as its own node data.

    a(t) inverts t = exp(-G/gamma); phi(t) = omega |G'(a)|^(n-1) a^(n-1) - 1
    equals the cumulative potential mass m(a(t)); psi(t) is the singular-MT
    comparison weight (a/t)^(n-beta) / (1 + phi)^(1/(n-1)).
    """

    t_grid: RadialGrid
    a: np.ndarray
    phi: np.ndarray
    psi: np.ndarray
    beta: float
    n: int
    c_g: float
    potential: Potential
    # phi'(t) (-ln t)^(1-n) with the log powers cancelled analytically:
    # V(a) a^n / (t (1+phi)^(1/(n-1))), finite at every node
    hardy_weight: np.ndarray
    image_of: Optional[RadialGrid]

    @property
    def a_over_t(self) -> np.ndarray:
        return self.a / self.t_grid.nodes


def _check_decreasing(g_values: np.ndarray) -> None:
    if np.any(np.diff(g_values) >= 0.0):
        raise CorruptTableError("G must be strictly decreasing")


def _flux_excess(m: np.ndarray, n: int) -> np.ndarray:
    # (1+m)^(1/(n-1)) - 1 without rounding to zero for m below 1 ulp
    return np.expm1(np.log1p(m) / (n - 1))


def _mass(g_values: np.ndarray, v_vals: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Cumulative potential mass m(r) = omega int_0^r V G^(n-1) s^(n-1) ds.

    The density omega V G^(n-1) r^(n-1) is rounded left to right.
    Raises PotentialInstabilityError, and no RuntimeWarning, where the
    density or its running sum overflows float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        density = make_constants(n).omega * v_vals
        density *= np.power(g_values, n - 1)
        density *= grid.nodes_pow(n - 1)
        try:
            m = cumulative_from_origin(density, grid)
        except NumericError:  # a non-finite density
            m = None
    # a running sum that overflows stays non-finite to its end
    if m is None or not math.isfinite(m[-1]):
        raise _mass_overflow(grid)
    return m


def _mass_overflow(grid: RadialGrid) -> PotentialInstabilityError:
    return PotentialInstabilityError(
        f"potential mass overflows float64 on this grid ({grid.n_points} nodes)")


def _sum_from_boundary(incr: np.ndarray, start: float = 0.0,
                       out: Optional[np.ndarray] = None) -> np.ndarray:
    """Node array (``out`` if given) whose entry j is start + sum_{k>=j} incr[k], from the end."""
    out = np.empty(incr.size + 1) if out is None else out
    out[:-1], out[-1] = incr, start
    np.add.accumulate(out[::-1], out=out[::-1])
    return out


def _assemble(excess: np.ndarray, grid: RadialGrid, gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    """(G, H) from the flux excess, the integral of gamma (flux - 1) dxi summed both ways."""
    incr = np.add(excess[1:], excess[:-1])
    incr *= 0.5 * gamma
    incr *= grid.dxi
    # H(r) = -gamma int_{xi_min}^{xi} (flux - 1) dxi', a sum of tiny positive increments
    h_rem = -np.concatenate(([0.0], np.cumsum(incr)))
    # G(r) = gamma(xi_max - xi) + gamma int_xi^{xi_max} (flux - 1) dxi', the tail summed from
    # the boundary: G is tiny there, and H - H(r_max) would cancel to |H(r_max)| ulp
    return gamma * (grid.xi[-1] - grid.xi) + _sum_from_boundary(incr), h_rem


def _table_from_g(grid: RadialGrid, n: int, potential: Potential, g_values: np.ndarray,
                  iterations: int, tol: float) -> GreenTable:
    """One self-consistent assembly: the mass of G, its flux excess, then G, H and c_g."""
    gamma = make_constants(n).gamma
    excess = _flux_excess(_mass(g_values, potential.values(grid, n), grid, n), n)
    g_fin, h_rem = _assemble(excess, grid, gamma)
    return GreenTable(grid=grid, n=n, potential=potential, g_values=g_fin, excess=excess,
                      c_g=_fit_c_g(grid, g_fin, gamma, n), remainder=h_rem,
                      iterations=iterations, tol=tol)


def solve_green(
    n: int,
    potential: Potential,
    grid: RadialGrid,
    tol: float = 1e-8,
    max_iter: int = 500,
) -> GreenTable:
    """Solve the flux identity on the truncated ball inward from the boundary.

    The discrete equations are homogeneous in (G, Phi), Phi = 1 + m the
    flux to the power n - 1: G -> kG takes Phi to k^(n-1) Phi.  So the
    solve fixes Phi = 1 at the boundary node instead of at the pole, where
    the problem is causal (Volterra), and marches inward through
    max(MARCH_WINDOWS, ceil((N - 1) / MARCH_WINDOW_NODES)) windows of equal
    node count (Linz, Analytical and Numerical Methods for Volterra
    Equations, 1985).  On the window [lo, hi] each Picard step sums

        G_j   = G_hi + sum_{j<=k<hi} gamma/2 (Phi_k^(1/(n-1)) + Phi_{k+1}^(1/(n-1))) dxi_k,
        Phi_j = Phi_hi - sum_{j<=k<hi} 1/2 (d_k + d_{k+1}) dr_k,   d = omega V r^(n-1) G^(n-1),

    from the boundary in, starting at Phi = Phi_hi and clamping Phi at 0
    before the root; no mixing.  A window stops at max |dPhi| <= 64 ulp of
    Phi_hi, its rounding level, or raises ConvergenceError naming its
    nodes after max_iter steps; ``iterations`` is the most steps any window
    took.  G is then rescaled by Phi_0^(-1/(n-1)), which puts the flux 1 at
    the pole, and the table is assembled from it.  tol bounds only that
    table: a residual above 10 tol is a ConvergenceError, which happens
    where the flux excess is so large that tol lies below its rounding.

    Raises PotentialInstabilityError when Phi <= 0 at a window's inner
    node, naming the outermost such node: no positive Green function
    exists (half-linear Sturm comparison; Dosly & Rehak, Half-linear
    Differential Equations, 2005), so the potential has no spectral gap on
    this grid; or when the potential mass overflows float64.  A grid too
    coarse for the potential's boundary layer ends in either, so all
    messages name it.
    """
    if tol <= 0.0:
        raise ConvergenceError("tolerance must be positive", residual=None, iterations=0)
    g_values, iterations = _inward_march(n, potential.values(grid, n), grid, max_iter)
    table = _table_from_g(grid, n, potential, g_values, iterations, tol)
    if not table.residual <= 10.0 * tol:
        raise ConvergenceError(
            f"flux residual {table.residual:.3e} of the assembled table exceeds 10 tol "
            f"({10.0 * tol:.3e}); tol lies below the flux's rounding on this grid "
            f"({grid.n_points} nodes)",
            residual=table.residual,
            iterations=iterations,
        )
    table.validate()
    return table


def _inward_march(n: int, v_vals: np.ndarray, grid: RadialGrid,
                  max_iter: int) -> Tuple[np.ndarray, int]:
    """``solve_green``'s march: G normalized to flux 1 at the pole, and a window's most steps."""
    c = make_constants(n)
    half_dxi = 0.5 * c.gamma * grid.dxi
    neg_half_dr = -0.5 * grid.dr
    # the root Phi^(1/(n-1)): sqrt and cbrt instead of x ** (1/k), which calls libm pow
    root = {3: np.sqrt, 4: np.cbrt}.get(n, lambda p, out: np.power(p, 1.0 / (n - 1), out=out))
    size = grid.n_points
    windows = max(MARCH_WINDOWS, -(-(size - 1) // MARCH_WINDOW_NODES))
    edges = np.linspace(0, size - 1, windows + 1, dtype=int).tolist()
    g_values, g_hi, phi_hi, iterations = np.empty(size), 0.0, 1.0, 0
    with np.errstate(over="ignore", invalid="ignore"):
        weight = c.omega * v_vals * grid.nodes_pow(n - 1)
        if not np.all(np.isfinite(weight)):
            raise _mass_overflow(grid)
        for lo, hi in zip(edges[-2::-1], edges[:0:-1]):
            w_w, dxi_w, dr_w = weight[lo:hi + 1], half_dxi[lo:hi], neg_half_dr[lo:hi]
            g_w, (phi_w, root_w, new) = g_values[lo:hi + 1], np.full((3, hi + 1 - lo), phi_hi)
            rounding, change = 64.0 * np.finfo(float).eps * abs(phi_hi), math.inf
            for steps in range(1, max_iter + 1):
                np.maximum(phi_w, 0.0, out=root_w)
                if n > 2:
                    root(root_w, out=root_w)
                _sum_from_boundary((root_w[1:] + root_w[:-1]) * dxi_w, g_hi, out=g_w)
                d_w = w_w * int_pow(g_w, n - 1)
                _sum_from_boundary((d_w[1:] + d_w[:-1]) * dr_w, phi_hi, out=new)
                if not math.isfinite(new[0]):  # the running sum overflowed; so it stays inward
                    raise _mass_overflow(grid)
                change = float(np.abs(np.subtract(new, phi_w, out=root_w), out=root_w).max())
                phi_w, new = new, phi_w
                if change <= rounding:
                    break
            else:
                raise ConvergenceError(
                    f"no convergence on nodes {lo}-{hi} in {max_iter} iterations (flux change "
                    f"{change:.3e} > {rounding:.3e}); the grid ({size} nodes) may be too coarse, "
                    "or the potential too close to its spectral threshold",
                    residual=change,
                    iterations=max_iter,
                )
            if phi_w[0] <= 0.0:
                j = lo + int(np.flatnonzero(phi_w <= 0.0)[-1])
                raise PotentialInstabilityError(
                    f"flux vanishes at r = {grid.nodes[j]:.4g} (node {j}) after {steps} "
                    "iterations: no positive Green function, so the potential has no spectral "
                    f"gap on this domain, or the grid ({size} nodes) is too coarse to resolve it"
                )
            g_hi, phi_hi, iterations = g_w[0], phi_w[0], max(iterations, steps)
    g_values *= phi_hi ** (-1.0 / (n - 1))
    return g_values, iterations


def _fit_c_g(grid: RadialGrid, g_values: np.ndarray, gamma: float, n: int) -> float:
    """Pole constant from the 8 smallest nodes, extrapolated in r^n (-ln r)^(n-1)."""
    r = grid.nodes[:8]
    y = g_values[:8] + gamma * np.log(r)
    z = r**n * (-np.log(r)) ** (n - 1)
    design = np.vstack([np.ones_like(z), z]).T
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    return float(coef[0])


def check_boundary_bound(table: GreenTable) -> float:
    """Fitted constant in G <= C (1-r^2)^((n-1)/n) over r >= 1/2."""
    g = table.grid
    mask = g.nodes >= 0.5
    ratios = table.g_values[mask] / g.one_minus_r2[mask] ** ((table.n - 1.0) / table.n)
    return float(np.max(ratios))


def image_t_grid(table: GreenTable) -> RadialGrid:
    """The r-grid pushed through t = exp(-G/gamma).

    On this grid the inverse map is a(t_i) = r_i, so the transplantation of
    a profile on the r-grid is its own node data, and ``pushforward`` takes
    it as such (the tabulated a reproduces r_i to 1.8e-15 relative).
    ``make_maps`` uses this grid by default, which makes the identities'
    defects measure the quadrature on the r-grid rather than interpolation
    of a(t).  1 - t is computed with expm1, exact near the boundary where
    t -> 1.
    """
    c = make_constants(table.n)
    arg = -table.g_values / c.gamma
    t = np.exp(arg)
    s_t = -np.expm1(arg)
    return RadialGrid(nodes=t, s=s_t, xi=arg, epsilon=float(s_t[-1]))


def make_maps(
    table: GreenTable,
    beta: float = 0.0,
    n_t: Optional[int] = None,
    t_min: float = 1e-8,
) -> TransplantMaps:
    """Tabulate a(t), phi, phi', psi on a t-grid.

    a(t) is the monotone interpolant (in ln-ln coordinates) of the inverse
    of t = exp(-G/gamma); phi comes from the identity phi = m(a(t)); phi'
    uses the closed differentiation formula rather than differencing phi.
    With ``n_t=None`` the t-grid is ``image_t_grid(table)``, on which
    a(t_i) = r_i and the interpolants return their own node data, and
    ``image_of`` is the table's grid.  A given ``n_t`` builds the
    three-zone graded mesh of n_t nodes on [t_min, 1 - t_min] instead,
    whose defects fall with n_t, and leaves ``image_of`` None.
    """
    c = make_constants(table.n)
    n = table.n
    _check_decreasing(table.g_values)
    if n_t is None:
        t_grid = image_t_grid(table)
    else:
        t_grid = make_grid(n_t, t_min, r_min=t_min, tail_fraction=0.2)
    t = t_grid.nodes
    ln_t_nodes = -table.g_values / c.gamma  # increasing, ends at 0
    ln_r = table.grid.xi
    ln_t_query = np.clip(t_grid.xi, ln_t_nodes[0], ln_t_nodes[-1])  # exact ln t, log1p-built near 1
    a = np.exp(pchip(ln_t_nodes, ln_r, ln_t_query))
    a = np.clip(a, table.grid.nodes[0], table.grid.nodes[-1])

    # phi and ln(1 - a^2) are PCHIPs in ln r read at ln a, fitted as one stack; 1 - a^2
    # is formed from the interpolated log so that it keeps its digits as a -> 1
    stack = np.stack([table.m_values, np.log(table.grid.one_minus_r2)])
    phi, ln_one_minus_a2 = pchip(ln_r, stack, np.log(a))
    phi = np.maximum(phi, 0.0)
    one_minus_a2 = np.exp(ln_one_minus_a2)
    v_at_a = table.potential.at(a, one_minus_a2**n, n)
    phi_root = (1.0 + phi) ** (1.0 / (n - 1))
    hardy_weight = v_at_a * a**n / (t * phi_root)
    psi = (a / t) ** (n - beta) / phi_root

    maps = TransplantMaps(
        t_grid=t_grid, a=a, phi=phi, psi=psi, beta=beta, n=n, c_g=table.c_g,
        potential=table.potential, hardy_weight=hardy_weight,
        image_of=table.grid if n_t is None else None,
    )
    _validate_maps(maps, table)
    return maps


def _validate_maps(maps: TransplantMaps, table: GreenTable) -> None:
    if np.any(np.diff(maps.a) <= 0.0):
        raise CorruptTableError("a(t) is not strictly increasing")
    ratio = maps.a_over_t
    if np.any(np.diff(ratio) > 1e-9 * ratio[:-1]):
        raise CorruptTableError("a(t)/t is not decreasing")
    if not table.potential.is_zero():
        # below the first radial node the cumulative potential mass is not
        # observable, so phi may sit at exactly zero there
        observable = maps.a > table.grid.nodes[0] * (1.0 + 1e-12)
        if np.any(maps.phi[observable] <= 0.0) or np.any(maps.phi < 0.0):
            raise CorruptTableError("phi must be positive for a nonzero potential")
