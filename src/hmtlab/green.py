"""Green function of the n-Laplacian with critical Hardy potential.

The radial problem reduces to a flux identity: for the positive singular
solution G with pole at the origin,

    -omega^(1/(n-1)) G'(b) b = (1 + m(b))^(1/(n-1)),
    m(b) = omega * int_0^b V(s) G(s)^(n-1) s^(n-1) ds,

with G = 0 at the truncated boundary 1-eps.  The solver iterates this map
in the log coordinate xi = ln r, where the potential-free part of the flux
integrates exactly.  Its unknown is the flux excess, and Anderson mixing
(Walker & Ni, SIAM J. Numer. Anal. 2011; ``quad_core.AndersonMixer``, which
the extremal ascent shares) accelerates the plain Picard step, falling back
to it whenever a mixed step is not finite or has a negative excess entry;
the iterates therefore do not climb monotonically.  The pole
decomposition

    G(r) = -gamma ln r + C_G + H(r),   gamma = omega^(-1/(n-1)),

is assembled without cancellation: the log part is exact in xi and the
remainder H is accumulated from the origin as a sum of tiny positive flux
excesses, so H stays meaningful down to 1e-300.
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
    AndersonMixer,
    RadialGrid,
    cumulative_from_origin,
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

INSTABILITY_CAP = 1e12  # sup m beyond this across iterations means no spectral gap


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
        if np.any(np.diff(self.g_values) >= 0.0):
            raise CorruptTableError("G must be strictly decreasing")
        if not np.all(self.excess >= -1e-12):
            raise CorruptTableError("-omega^(1/(n-1)) G' r must be >= 1")
        if not math.isfinite(self.residual) or self.residual > 10.0 * self.tol:
            raise CorruptTableError(f"residual {self.residual} exceeds tolerance {self.tol}")

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "potential": self.potential.descriptor(),
            "epsilon": self.grid.epsilon,
            "c_g": self.c_g,
            "residual": self.residual,
            "tol": self.tol,
            "iterations": self.iterations,
            "G": self.g_values.tolist(),
        }

    @classmethod
    def from_json_dict(cls, doc) -> "GreenTable":
        """Rebuild a table from ``to_json_dict`` output, trusting only its G.

        The inputs are n, potential, epsilon, tol, iterations and G; the grid
        is ``make_grid(len(G), epsilon)``.  The solver's last step, repeated
        from G, recomputes the flux excess, G', the remainder and the
        residual; it must pass ``validate``, agree with G to 10 tol gamma and
        give back c_g as the pole fit of G; a recomputation whose potential
        mass overflows is corrupt too.  The stored residual is not read.
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
            table = _table_from_g(grid, n, potential, potential.values(grid, n),
                                  gamma * (grid.xi[-1] - grid.xi), g, iterations, tol)
            table.validate()
            if not np.all(np.abs(g - table.g_values) <= 10.0 * tol * gamma):
                raise CorruptTableError("G disagrees with its recomputation from G")
            c_g_fit = _fit_c_g(grid, g, gamma, n)
            if not abs(c_g - c_g_fit) <= 1e-12 * abs(c_g_fit):
                raise CorruptTableError(f"c_g {c_g!r} differs from {c_g_fit!r}, the fit of G")
            loaded = replace(table, g_values=g, c_g=c_g_fit)
            loaded.validate()  # the stored G must itself be strictly decreasing
        except PotentialInstabilityError as exc:
            raise CorruptTableError(f"its recomputation from G fails: {exc}") from exc
        return loaded


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


def _flux_excess(m: np.ndarray, n: int) -> np.ndarray:
    # (1+m)^(1/(n-1)) - 1 without rounding to zero for m below 1 ulp
    return np.expm1(np.log1p(m) / (n - 1))


def _mass(g_values: np.ndarray, v_vals: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Cumulative potential mass m(r) = omega int_0^r V G^(n-1) s^(n-1) ds.

    Raises PotentialInstabilityError, and no RuntimeWarning, where the
    density or its running sum overflows float64.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        density = make_constants(n).omega * v_vals * g_values ** (n - 1) * grid.nodes_pow(n - 1)
        try:
            m = cumulative_from_origin(density, grid)
        except NumericError:  # a non-finite density
            m = None
    # a running sum that overflows stays non-finite to its end
    if m is None or not math.isfinite(m[-1]):
        raise PotentialInstabilityError(
            f"potential mass overflows float64 on this grid ({grid.n_points} nodes)")
    return m


def _assemble(excess: np.ndarray, log_part: np.ndarray, grid: RadialGrid,
              gamma: float) -> Tuple[np.ndarray, np.ndarray]:
    # H(r) = -gamma int_{xi_min}^{xi} (flux - 1) dxi', a sum of tiny positive increments;
    # G(r) = gamma(xi_max - xi) + (H(r) - H(r_max)), both pieces cancellation-free
    incr = 0.5 * gamma * (excess[1:] + excess[:-1]) * np.diff(grid.xi)
    h_rem = -np.concatenate([[0.0], np.cumsum(incr)])
    return log_part + (h_rem - h_rem[-1]), h_rem


def _table_from_g(grid: RadialGrid, n: int, potential: Potential, v_vals: np.ndarray,
                  log_part: np.ndarray, g_values: np.ndarray, iterations: int,
                  tol: float) -> GreenTable:
    """One self-consistent assembly: the mass of G, its flux excess, then G, H and c_g."""
    gamma = make_constants(n).gamma
    excess = _flux_excess(_mass(g_values, v_vals, grid, n), n)
    g_fin, h_rem = _assemble(excess, log_part, grid, gamma)
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
    """Anderson-mixed fixed-point solve of the flux identity on the truncated ball.

    The unknown is the flux excess x; one plain step T assembles G from x,
    integrates its potential mass and returns the new excess.  T is
    order-preserving (V >= 0 and every step adds positive terms) and
    x = 0, the V = 0 solution, is a subsolution, so plain Picard steps
    would climb monotonically to the minimal fixed point, slowly when the
    potential is near its spectral threshold.  An AndersonMixer (depth
    ``quad_core.ANDERSON_DEPTH``) instead combines the last differences of
    x and of the defect f = T(x) - x: the coefficients c solve the small
    Gram system dF dF^T c = dF f, and the next iterate is
    T(x) - (dX + dF)^T c.  The
    mixed iterates do not climb monotonically.  A mixed step that is not
    finite or has a negative excess entry is replaced by the plain step
    T(x), and the history restarts from there.  Once |f| <= tol, the table
    is assembled from the next iterate, the history's best estimate of the
    fixed point, which costs no further potential mass.

    Raises ConvergenceError if tol is not reached within max_iter and
    PotentialInstabilityError when the potential mass diverges across
    iterations (no spectral gap) or overflows float64.  A grid too coarse
    for the potential's boundary layer ends in either, so all messages name
    it.
    """
    if tol <= 0.0:
        raise ConvergenceError("tolerance must be positive", residual=None, iterations=0)
    gamma = make_constants(n).gamma
    v_vals = potential.values(grid, n)
    log_part = gamma * (grid.xi[-1] - grid.xi)

    excess = np.zeros_like(log_part)  # assembles to G = log_part
    mixer = AndersonMixer(excess.size)
    residual = math.inf
    for iterations in range(1, max_iter + 1):
        g_values, _ = _assemble(excess, log_part, grid, gamma)
        m = _mass(g_values, v_vals, grid, n)
        m_sup = float(np.max(m))
        if m_sup > INSTABILITY_CAP:
            raise PotentialInstabilityError(
                f"potential mass diverged (sup m = {m_sup:.3e} after {iterations} iterations); "
                "potential has no spectral gap on this domain, or the grid "
                f"({grid.n_points} nodes) is too coarse to resolve it"
            )
        defect = _flux_excess(m, n) - excess
        residual = float(np.max(np.abs(defect)))
        plain = excess + defect
        mixed = mixer.mix(excess, defect, plain)
        if mixed is None:
            excess = plain
        elif np.all(np.isfinite(mixed)) and np.min(mixed) >= 0.0:
            excess = mixed
        else:  # keep the plain step and restart the history from it
            excess = plain
            mixer.restart()
        if residual <= tol:  # the next iterate is the history's best estimate: return it
            g_values, _ = _assemble(excess, log_part, grid, gamma)
            break
    else:
        raise ConvergenceError(
            f"no convergence in {max_iter} iterations (residual {residual:.3e} > tol {tol:.3e}); "
            f"the grid ({grid.n_points} nodes) may be too coarse, or the potential too close "
            "to its spectral threshold",
            residual=residual,
            iterations=max_iter,
        )

    del mixer  # free its ring buffers before the assembly, where the memory of the solve peaks
    # final self-consistent assembly from the converged mass
    table = _table_from_g(grid, n, potential, v_vals, log_part, g_values, iterations, tol)
    table.validate()
    return table


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
    if np.any(np.diff(table.g_values) >= 0.0):
        raise CorruptTableError("cannot invert a non-monotone Green table")
    if n_t is None:
        t_grid = image_t_grid(table)
    else:
        t_grid = make_grid(n_t, t_min, r_min=t_min, tail_fraction=0.2)
    t = t_grid.nodes
    neg_ln_t = -t_grid.xi  # exact -ln t, log1p-built near t = 1
    ln_t_nodes = -table.g_values / c.gamma  # increasing, ends at 0
    ln_r = table.grid.xi
    ln_t_query = np.clip(-neg_ln_t, ln_t_nodes[0], ln_t_nodes[-1])
    a = np.exp(pchip(ln_t_nodes, ln_r, ln_t_query))
    a = np.clip(a, table.grid.nodes[0], table.grid.nodes[-1])

    # phi and ln(1 - a^2) are PCHIPs in ln r read at ln a; 1 - a^2 is formed
    # from the interpolated log so that it keeps its digits as a -> 1
    ln_a = np.log(a)
    phi = np.maximum(pchip(ln_r, table.m_values, ln_a), 0.0)
    one_minus_a2 = np.exp(pchip(ln_r, np.log(table.grid.one_minus_r2), ln_a))
    v_at_a = table.potential.at(a, one_minus_a2**n, n)
    hardy_weight = v_at_a * a**n / (t * (1.0 + phi) ** (1.0 / (n - 1)))
    psi = (a / t) ** (n - beta) / (1.0 + phi) ** (1.0 / (n - 1))

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
