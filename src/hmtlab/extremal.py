"""Test families, constrained extremal search, and sharpness probes.

Constraint handling is exact scaling throughout: the deficit energy, the
potential quadratic form, and the n-norm are all exactly n-homogeneous
(the discrete functionals included, since the monotone-spline derivative
is positively homogeneous), so a profile is placed on the constraint set
by one closed-form rescale instead of multiplier tuning.  Both searches run
_ascend on deficit weights built once and handed in, beside its AndersonMixer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DegenerateProfileError,
    DiscretizationFailureError,
    PreconditionError,
)
from .functionals import (
    RadialProfile,
    grad_energy,
    h_functional,
    hyperbolic_mt,
    ln_norm_pow,
    nonincreasing_majorant,
    pchip,
    singular_mt,
    singular_mt_with_gradient,
)
from .quad_core import RadialGrid, make_constants

__all__ = [
    "MoserParams",
    "SearchOptions",
    "SearchReport",
    "boundedness_sweep",
    "bump_corpus",
    "divergence_probe",
    "estimate_lambda1",
    "improved_sweep",
    "maximize_mt",
    "moser_profile",
    "normalize_h",
    "seeded_corpus",
    "smoothed_moser_profile",
]


@dataclass(frozen=True)
class MoserParams:
    """Concentration radius of the plateau-plus-logarithm family."""

    rho: float
    n: int

    def __post_init__(self):
        if not (0.0 < self.rho < 1.0):
            raise PreconditionError(f"rho must lie in (0,1), got {self.rho}")


RTOL = 1e-14  # relative change of F over a plain step that ends either search
MAX_GAP = 0.01  # largest relative gap between a value on the profile and on the nodes
SHOULDER = 0.5  # the corpus's Moser corner blend; acceptance criteria 4-6 were checked with it
TAIL_CUT_BASE = 0.25  # the divergence family's cut depth; criterion 8 was checked with it
CORNER_CLEARANCE = 16.0  # a Moser corner must lie at least this many times the first node out
ANDERSON_DEPTH = 5  # past steps whose differences an AndersonMixer mixes


@dataclass(frozen=True)
class SearchOptions:
    max_iter: int = 1000


@dataclass
class SearchReport:
    best_value: float
    best_profile: RadialProfile
    iterations: int
    constraint_residual: float
    trajectory: List[tuple]
    stalled: bool

    def to_dict(self) -> dict:
        """The report's document; profile_values is the best profile's array, for the writer."""
        return {
            "best_value": self.best_value,
            "iterations": self.iterations,
            "constraint_residual": self.constraint_residual,
            "stalled": self.stalled,
            "trajectory": [[int(i), float(v)] for i, v in self.trajectory],
            "profile_values": self.best_profile.values,
        }


class SweepPoint(NamedTuple):
    param: float
    value: float
    overflow: bool
    divergence_flag: bool


class ProbeRow(NamedTuple):
    param: float
    value_low: float
    flag_low: bool
    value_high: float
    flag_high: bool


def moser_profile(params: MoserParams, grid: RadialGrid) -> RadialProfile:
    """Plateau-plus-logarithm concentration profile with unit gradient energy.

    The corner radius is snapped to the nearest node and the closed-form
    derivative is given as the profile's slopes; the profile is then
    rescaled so the computed gradient energy is 1 exactly (homogeneity makes
    the rescale exact).
    A corner whose nearest node is the first or the last one (in particular
    one below the first node) is not resolved by the grid and raises
    PreconditionError.  So does a corner node below CORNER_CLEARANCE = 16
    times the first node, because the plateau below the first node is cut
    off and the row comes out low.  At 16384 nodes (n = 2, epsilon = 1e-6)
    the rows at the default r_min = 1e-10 fell below those on a grid from
    r_min = 1e-16 by 0.1% at rho = 2^-29 (18.6 r_min), 0.45% at 2^-30
    (9.3 r_min), 1.9% at 2^-31, 8% at 2^-32 and 43% at 2^-33, beyond the
    0.44% by which the two gradings differ at rho >= 2^-27.
    """
    return _moser([params.rho], params.n, grid).rows()[0]


def _moser(rhos: Sequence[float], n: int, grid: RadialGrid) -> RadialProfile:
    """moser_profile's members at the corner radii rhos as one stack, checked in order."""
    r = grid.nodes
    consts = []
    for rho_k in rhos:
        idx = int(np.argmin(np.abs(r - rho_k)))
        if idx in (0, grid.n_points - 1):
            raise PreconditionError(f"Moser corner rho={rho_k:.3e} snaps to the "
                                    f"{'first' if idx == 0 else 'last'} grid node {r[idx]:.3e}")
        rho = float(r[idx])
        if rho < CORNER_CLEARANCE * r[0]:
            raise PreconditionError(f"Moser corner rho={rho_k:.3e} snaps to node {rho:.3e}, below "
                                    f"{CORNER_CLEARANCE:g} x r_min = {CORNER_CLEARANCE * r[0]:.3e}: "
                                    "the plateau below r_min is cut off")
        consts.append((rho, *_moser_plateau(rho, n)))
    rho, big_l, plateau = np.array(consts).reshape(-1, 3).T[..., None]  # (k, 1) each, k >= 0
    vals = np.where(r <= rho, plateau, plateau * np.log(1.0 / r) / big_l)
    deriv = np.where(r <= rho, 0.0, -plateau / (big_l * r))
    u = RadialProfile(grid, vals, enforce_zero_boundary=True, slopes=deriv)
    return u.scaled(_inverse_root(grad_energy(u, n), n))


def _moser_plateau(rho: float, n: int) -> Tuple[float, float]:
    """L = ln(1/rho) and the Moser plateau height (L^(n-1) / omega)^(1/n)."""
    big_l = math.log(1.0 / rho)
    return big_l, (big_l ** (n - 1) / make_constants(n).omega) ** (1.0 / n)


def smoothed_moser_profile(params: MoserParams, grid: RadialGrid) -> RadialProfile:
    """Moser-type profile with the corner rounded by a cubic Hermite shoulder.

    C^1 at the joint, so spline-based quadratures see no derivative jump;
    used for the transplant certification corpus where identity defects are
    held to 1e-4.  The plateau extends to rho; the blend covers
    [rho, rho * (1 + SHOULDER)], capped at r = 0.98.
    """
    return _smoothed_moser([params.rho], params.n, grid).rows()[0]


def _smoothed_moser(rhos: Sequence[float], n: int, grid: RadialGrid) -> RadialProfile:
    """The stack of smoothed_moser_profile's members at the corner radii rhos, in order.

    Each member's constants (plateau, shoulder end and its value and
    slope, the energy rescale) are Python floats of its own.
    """
    r = grid.nodes
    rho = np.asarray(rhos, dtype=float)
    big_l, plateau = (np.array(c) for c in zip(*(_moser_plateau(rho_k, n) for rho_k in rhos)))
    hi = np.array([min(rho_k * (1.0 + SHOULDER), 0.98) for rho_k in rhos])
    y = np.minimum(1.0, np.log(1.0 / r) / big_l[:, None])
    rows, cols = np.nonzero((r > rho[:, None]) & (r < hi[:, None]))
    x = (r[cols] - rho[rows]) / (hi - rho)[rows]
    y_hi = np.array([math.log(1.0 / h) / b for h, b in zip(hi.tolist(), big_l.tolist())])
    dy_hi = -(hi - rho) / (big_l * hi)
    h00 = 2 * x**3 - 3 * x**2 + 1
    h01 = -2 * x**3 + 3 * x**2
    h11 = x**3 - x**2
    y[rows, cols] = h00 * 1.0 + h01 * y_hi[rows] + h11 * dy_hi[rows]
    u = RadialProfile(grid, plateau[:, None] * y, enforce_zero_boundary=True)
    return u.scaled(_inverse_root(grad_energy(u, n), n))


def _inverse_root(values, n: int):
    """values ** (-1/n) by Python's float pow, entry by entry for an array of values."""
    if np.ndim(values) == 0:
        return values ** (-1.0 / n)
    return np.array([v ** (-1.0 / n) for v in values.tolist()])


def boundary_tail_profile(grid: RadialGrid, n: int, k: int) -> RadialProfile:
    """k-th member of the boundary-concentrating family for divergence probes.

    Tail (1-r^2)^q with q = (n-1)/n * (1 - 1/(k+1)), truncated at distance
    TAIL_CUT_BASE * 4^(-k) from the boundary (floored at twice the grid cutoff).
    Coupling the truncation depth to the exponent keeps the deficit energy
    of the members comparable, so the convergent column of the probe stays
    flat while the divergent one grows.
    """
    if k < 1:
        raise PreconditionError(f"family index must be >= 1, got {k}")
    q = (n - 1.0) / n * (1.0 - 1.0 / (k + 1))
    s_cut = max(TAIL_CUT_BASE * 4.0 ** (-k), 2.0 * grid.epsilon)
    cut_val = (s_cut * (2.0 - s_cut)) ** q
    vals = np.maximum(grid.one_minus_r2**q - cut_val, 0.0)
    return RadialProfile(grid, vals, enforce_zero_boundary=True)


def normalize_h(u: RadialProfile, n: int) -> RadialProfile:
    """Rescale so the deficit energy is exactly 1 (n-homogeneity), each profile of a stack on its own."""
    h_val = h_functional(u, n)
    bad = next((h for h in np.atleast_1d(h_val).tolist() if not h > 0.0), None)
    if bad is not None:
        raise DegenerateProfileError(f"deficit energy must be positive to normalize, got {bad!r}")
    return u.scaled(_inverse_root(h_val, n))


def boundedness_sweep(n: int, beta: float, family: Sequence[MoserParams], exponent_scale: float,
                      grid: RadialGrid) -> List[SweepPoint]:
    """singular_mt at exponent_scale along the deficit-normalized Moser family, as one stack."""
    return _moser_sweep(n, beta, 0.0, family, grid, exponent_scale)


def divergence_probe(
    n: int, beta: float, ks: Sequence[int], grid: RadialGrid
) -> List[ProbeRow]:
    """Hyperbolic integrals at truncation orders n-1 and n along the boundary family, as one stack."""
    tails = [boundary_tail_profile(grid, n, k).values for k in ks]
    u = normalize_h(RadialProfile(grid, np.reshape(tails, (len(tails), grid.n_points)),
                                  enforce_zero_boundary=False), n)
    low, high = (hyperbolic_mt(u, n, beta, m) for m in (n - 1, n))
    cols = (a.tolist() for a in (low.value, low.divergence_flag, high.value, high.divergence_flag))
    return [ProbeRow(float(k), *row) for k, *row in zip(ks, *cols)]


def improved_sweep(n: int, beta: float, lam: float, family: Sequence[MoserParams],
                   grid: RadialGrid, lambda1_hat: float) -> List[SweepPoint]:
    """Sweep with members normalized to deficit-minus-lambda-mass equal 1, as one stack.

    Requires lam at least 10% below the lambda_1 estimate (NaN fails); at
    lam = 0 this is boundedness_sweep at scale 1, bit for bit.
    """
    if not (0.0 <= lam <= 0.9 * lambda1_hat):
        raise PreconditionError(
            f"lambda must lie in [0, 0.9 * lambda1_hat] = [0, {0.9 * lambda1_hat:.6g}] with "
            f"lambda1_hat = {lambda1_hat:.6g}, got {lam}"
        )
    return _moser_sweep(n, beta, lam, family, grid, 1.0)


def _moser_sweep(n: int, beta: float, lam: float, family: Sequence[MoserParams],
                 grid: RadialGrid, exponent_scale: float) -> List[SweepPoint]:
    """singular_mt along the Moser family as one stack, each member scaled to h - lam ||u||_n^n = 1."""
    odd = [p for p in family if p.n != n]
    if odd:
        raise PreconditionError(f"Moser member rho={odd[0].rho} has n={odd[0].n}, the sweep n={n}")
    u = _moser([p.rho for p in family], n, grid)
    q_val = h_functional(u, n) - lam * ln_norm_pow(u, n)
    for params, q in zip(family, q_val.tolist()):
        if not (q > 0.0):
            raise DegenerateProfileError(f"h - lam ||u||_n^n = {q!r} <= 0 at rho={params.rho}")
    mt = singular_mt(u.scaled(_inverse_root(q_val, n)), n, beta, exponent_scale)
    return [SweepPoint(p.rho, v, o, False)
            for p, v, o in zip(family, mt.value.tolist(), mt.overflow.tolist())]


def pav_nonincreasing(y: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Weighted pool-adjacent-violators projection onto non-increasing sequences.

    scipy is imported on call, so that importing hmtlab needs numpy alone.
    """
    from scipy.optimize import isotonic_regression

    return isotonic_regression(y, weights=w, increasing=False).x


def _surrogate_weights(grid: RadialGrid, n: int):
    """Weights of the interval-difference deficit energy and of the n-norm.

    Returns (dr, cell, hardy, mass, solve_cell) with the factor omega left
    out: the deficit is omega * (sum(cell * |diff(u)/dr|^n) - sum(hardy * u^n)),
    and ||u||_n^n is omega * sum(mass * u^n), the trapezoid rule of ln_norm_pow.
    omega * hardy is ((n-1)/n)^n times the hyperbolic cell volumes, as in hardy_term.
    _solve_gradient_part divides by solve_cell, cell with +inf where r^n underflows to 0.
    """
    mass = grid.nodes_pow(n - 1) * grid.weights
    hardy = ((n - 1) / n) ** n / make_constants(n).omega * grid.hyperbolic_density(n) * grid.weights
    cell = np.diff(grid.nodes_pow(n)) / n
    return grid.dr, cell, hardy, mass, np.where(cell > 0.0, cell, np.inf)


def _h_surrogate(u: np.ndarray, weights: tuple, n: int, work: Optional[np.ndarray] = None) -> float:
    """Interval-difference deficit energy of _surrogate_weights; analytic in the node values."""
    dr, cell, hardy = weights[:3]
    du = np.subtract(u[1:], u[:-1], out=None if work is None else work[:-1])
    du /= dr
    np.abs(du, out=du)
    du **= n
    return make_constants(n).omega * (float(np.dot(du, cell)) - float(np.dot(u**n, hardy)))


def _h_surrogate_gradient(u_vals: np.ndarray, grid: RadialGrid, n: int) -> np.ndarray:
    """Node gradient of the interval-difference deficit energy."""
    c = make_constants(n)
    dr, cell, hardy = _surrogate_weights(grid, n)[:3]
    du = np.diff(u_vals) / dr
    contrib = c.omega * n * np.abs(du) ** (n - 1) * np.sign(du) * cell / dr
    return (-np.diff(contrib, prepend=0.0, append=0.0)
            - c.omega * n * hardy * np.maximum(u_vals, 0.0) ** (n - 1))


def _solve_gradient_part(rhs: np.ndarray, dr: np.ndarray, cell: np.ndarray, n: int,
                         face: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Solve grad E(w) = omega * n * rhs with w = 0 at the last node, into ``w``.

    E is omega * sum(cell * |diff(w)/dr|^n).  The face fluxes
    cell * slope^(n-1) / dr are the cumulative sums of rhs from the origin
    and w sums the slopes from the boundary, so rhs >= 0 gives a w that is
    non-increasing exactly.  A cell of no volume, +inf in ``cell``, gets slope 0.
    """
    np.add.accumulate(rhs[:-1], out=face)  # the fluxes, turned into slope * dr in place
    face *= dr
    face /= cell
    if n > 2:  # the power 1 at n = 2 would copy the same bits
        face **= 1.0 / (n - 1)
    face *= dr
    np.add.accumulate(face[::-1], out=w[-2::-1])
    return w


def _unit_deficit(u: np.ndarray, weights: tuple, n: int, work: np.ndarray) -> np.ndarray:
    """Rescale node values to _h_surrogate = 1 (n-homogeneity); ``work`` goes to _h_surrogate."""
    h_val = _h_surrogate(u, weights, n, work)
    if not h_val > 0.0:
        raise DiscretizationFailureError(
            f"deficit {h_val!r} on the nodes of a nonzero profile; grid cannot support the "
            "Hardy bound"
        )
    return u * h_val ** (-1.0 / n)


class AndersonMixer:
    """Type-II Anderson mixing of a fixed-point iteration x -> T(x).

    ``mix`` takes the defect f = T(x) - x and the caller's own plain step
    T(x), passed as it computed it, and returns the mixed step
    plain - c @ dG.  The rows of dF and dG are the last ``ANDERSON_DEPTH``
    differences of successive f and of successive plain steps, and the
    coefficients c solve the Gram system dF dF^T c = dF f.  This is Anderson
    acceleration (Walker & Ni, SIAM J. Numer. Anal. 2011) in the Type-II
    multisecant form (Fang & Saad, Numer. Linear Algebra Appl. 2009): its
    step plain - c @ (dX + dF) needs only dG = dX + dF, the differences of
    x + f, so x itself is never read.  The Gram matrix is kept and updated
    by one row and column per step.  A singular Gram system gives NaN
    coefficients, hence a non-finite step.  The caller judges each mixed
    step; on rejecting one it takes ``plain`` and calls ``restart``, so the
    history starts again from the plain step.

    The mixer copies f and plain, so the caller may reuse their buffers,
    and each step is a new array.
    """

    def __init__(self, size: int):
        # ring buffers: row k holds one difference of successive f (d_f) and plain steps (d_g);
        # the row the next difference goes to holds the last f and plain until then
        self._d_f = np.empty((ANDERSON_DEPTH, size))
        self._d_g = np.empty_like(self._d_f)
        self._gram = np.empty((ANDERSON_DEPTH, ANDERSON_DEPTH))  # d_f d_f^T, row by row
        self.restart()

    def restart(self) -> None:
        self._kept = 0  # differences recorded since the history was last cleared
        self._primed = False  # whether the last f and plain are stored

    def mix(self, defect: np.ndarray, plain: np.ndarray) -> Optional[np.ndarray]:
        """The mixed step, or None while the history holds no difference yet."""
        step = None
        row = self._kept % ANDERSON_DEPTH
        if self._primed:
            np.subtract(defect, self._d_f[row], out=self._d_f[row])
            np.subtract(plain, self._d_g[row], out=self._d_g[row])
            self._kept += 1
            rows = min(self._kept, ANDERSON_DEPTH)
            df = self._d_f[:rows]
            self._gram[row, :rows] = self._gram[:rows, row] = df @ df[row]
            try:
                coef = np.linalg.solve(self._gram[:rows, :rows], df @ defect)
            except np.linalg.LinAlgError:  # singular Gram system: no mixed step
                coef = np.full(rows, np.nan)
            with np.errstate(invalid="ignore", over="ignore"):
                step = plain - coef @ self._d_g[:rows]
            row = self._kept % ANDERSON_DEPTH
        self._d_f[row] = defect
        self._d_g[row] = plain
        self._primed = True
        return step


def _ascend(u: np.ndarray, weights: tuple, n: int, evaluate: Callable[[np.ndarray], tuple],
            max_iter: int) -> Tuple[np.ndarray, List[tuple], bool]:
    """Maximize a convex node objective F over the unit deficit set from the start u.

    The deficit _h_surrogate is H = E - D, E its gradient part and D the
    Hardy sum, both convex and n-homogeneous.  The plain step of this
    convex-concave ascent (Yuille & Rangarajan, Neural Comput. 2003) solves
    grad E(w) = grad D(u) + tau * grad F(u) with the stationary multiplier
    tau = n / <grad F(u), u> and rescales w to w' = w / H(w)^(1/n), so w' is
    non-increasing, and F(w') >= F(u):
      Euler's identity and the minimality of w give E(w) >= E(u);
      hence tau <grad F(u), w> >= H(w) + n - 1 >= n H(w)^(1/n);
      so F(w') >= F(u) + <grad F(u), w' - u> >= F(u).
    The plain steps converge linearly, so each step offers an AndersonMixer
    the plain step and its change from u, and takes the mixed step instead
    when it is finite, non-increasing with a last node >= 0, of positive
    deficit, and, rescaled to unit deficit, of F at least F(u).  Otherwise it takes
    the plain step and restarts the history.  So every iterate is
    non-increasing on the unit deficit set, and F never decreases: a plain
    step that lowers F, which rounding does at a converged iterate, ends
    the run at u.  A rejected mixed step costs one more evaluation.
    ``evaluate`` gives (F, grad F) of node values, once per node array.
    Stops at a plain step that changes F by at most RTOL relative; a mixed
    step that small is confirmed by a plain step first.  Returns the last
    iterate's node values, the trajectory of F and whether that stop came
    before max_iter.  ``weights`` are H's _surrogate_weights, built once by the caller.
    The plain step fills buffers made once per search, never what
    ``evaluate`` returns: ``rhs``, ``work`` (tau grad F / (omega n), then
    _h_surrogate's differences), ``face`` (the fluxes, then slope * dr) and
    ``w`` (the solve; w[-1] = 0).
    """
    omega = make_constants(n).omega
    dr, _, hardy, _, cell = weights  # the solve's cell: +inf where a cell has no volume
    rhs, work, face, w = np.empty(u.size), np.empty(u.size), np.empty(u.size - 1), np.zeros(u.size)
    u = _unit_deficit(u, weights, n, work)
    value, grad_f = evaluate(u)
    trajectory = [(0, value)]
    mixer = AndersonMixer(u.size)
    converged = confirm = False
    for it in range(1, max_iter + 1):
        tau = n / float(np.dot(grad_f, u))
        np.multiply(hardy, u if n == 2 else u ** (n - 1), out=rhs)  # rhs = hardy u^(n-1)
        rhs += np.multiply(grad_f, tau / (omega * n), out=work)  # + tau grad F / (omega n)
        plain = _unit_deficit(_solve_gradient_part(rhs, dr, cell, n, face, w), weights, n, work)
        mixed = None if confirm else mixer.mix(plain - u, plain)
        step = None if mixed is None else _mixed_step(mixed, value, weights, n, work, evaluate)
        if step is None:
            if mixed is not None or confirm:  # the history restarts from the plain step
                mixer.restart()
            step = plain, *evaluate(plain)
            if step[1] < value:  # rounding, at a converged u: end the run there
                converged = True
                break
        prev, (u, value, grad_f) = value, step
        trajectory.append((it, value))
        confirm = abs(value - prev) <= RTOL * abs(prev)  # a mixed step this small: confirm it
        if confirm and u is plain:
            converged = True
            break
    return u, trajectory, converged


def _mixed_step(mixed: np.ndarray, value: float, weights: tuple, n: int, work: np.ndarray,
                evaluate: Callable[[np.ndarray], tuple]) -> Optional[tuple]:
    """(node values, F, grad F) of the mixed step rescaled to unit deficit, or None if rejected."""
    if not (np.all(np.isfinite(mixed)) and mixed[-1] >= 0.0 and np.all(np.diff(mixed) <= 0.0)):
        return None
    try:
        mixed = _unit_deficit(mixed, weights, n, work)
    except DiscretizationFailureError:  # deficit <= 0: off the set the ascent works on
        return None
    step = mixed, *evaluate(mixed)
    return step if step[1] >= value else None


def maximize_mt(
    n: int,
    beta: float,
    grid: RadialGrid,
    start: RadialProfile,
    options: Optional[SearchOptions] = None,
) -> SearchReport:
    """Maximize singular_mt over the unit deficit set: _ascend on its quadrature sum F.

    The start is projected once onto non-increasing profiles by its least
    non-increasing majorant, max over s >= r of u(s), which vanishes only
    where the start vanishes from r on.  The trajectory records F; the
    reported value is singular_mt of the last iterate rescaled to
    h_functional = 1.  A zero start raises, and so does a gap above MAX_GAP
    between the two deficits of the last iterate.
    """
    opts = options or SearchOptions()
    u = RadialProfile(grid, nonincreasing_majorant(np.maximum(start.values, 0.0))).values
    if not np.any(u > 0.0):
        raise DegenerateProfileError("start profile is zero after projection")
    u, trajectory, converged = _ascend(u, _surrogate_weights(grid, n), n, lambda v: (
        singular_mt_with_gradient(v, grid, n, beta)), opts.max_iter)
    prof = RadialProfile(grid, u, enforce_zero_boundary=False)
    h_val = h_functional(prof, n)
    if not abs(h_val - 1.0) <= MAX_GAP:
        raise DiscretizationFailureError(
            f"maximizer not resolved: deficit {h_val!r} on the profile, 1 on the nodes; "
            "refine the grid"
        )
    best = prof.scaled(h_val ** (-1.0 / n))
    return SearchReport(
        best_value=singular_mt(best, n, beta).value,
        best_profile=best,
        iterations=len(trajectory) - 1,
        constraint_residual=abs(h_functional(best, n) - 1.0),
        trajectory=trajectory,
        stalled=not converged,
    )


def estimate_lambda1(
    n: int, grid: RadialGrid, options: Optional[SearchOptions] = None
) -> SearchReport:
    """Minimize the deficit-to-n-norm ratio: _ascend on the node n-norm F.

    On the unit deficit set tau = 1/F is the ratio, so each step is the
    nonlinear inverse power step (Hein & Buehler, NeurIPS 2010).  The
    trajectory records the ratio 1/F; the reported value is h_functional /
    ln_norm_pow on the returned profile, scaled to ||u||_n^n = 1.  A
    non-positive deficit on the nodes raises, as it contradicts the
    Hardy-Sobolev bound, and so does a gap above MAX_GAP between the two
    ratios (a non-positive or non-finite one included): the grid is then
    too coarse to resolve the minimizer.
    """
    opts = options or SearchOptions()
    omega = make_constants(n).omega
    weights = _surrogate_weights(grid, n)
    mass = weights[3]
    u = np.maximum(grid.one_minus_r2**1.5 - grid.one_minus_r2[-1] ** 1.5, 0.0)
    u, trajectory, converged = _ascend(u, weights, n, lambda v: (
        omega * float(np.dot(mass, v**n)), omega * n * mass * v ** (n - 1)), opts.max_iter)
    prof = RadialProfile(grid, trajectory[-1][1] ** (-1.0 / n) * u, enforce_zero_boundary=False)
    trajectory = [(i, 1.0 / f) for i, f in trajectory]
    lam = trajectory[-1][1]
    norm = ln_norm_pow(prof, n)
    best = h_functional(prof, n) / norm
    if not abs(best - lam) <= MAX_GAP * lam:
        raise DiscretizationFailureError(
            f"lambda_1 not resolved: {best!r} on the profile, {lam!r} on the nodes; refine the grid"
        )
    return SearchReport(
        best_value=best,
        best_profile=prof,
        iterations=len(trajectory) - 1,
        constraint_residual=abs(norm - 1.0),
        trajectory=trajectory,
        stalled=not converged,
    )


def seeded_corpus(grid: RadialGrid, n: int, size: int, seed, first: int = 0) -> RadialProfile:
    """Members first, ..., first + size - 1 of the seeded certification corpus, as a (size, N) stack.

    Non-increasing, each member at unit deficit energy.  Member i has shape
    i mod 3: a monotone spline through coarse decreasing control points
    with bounded slopes, a power of (1-r^2), or a shoulder-smoothed Moser
    profile.  All resolvable on production grids, which is what keeps
    transplant identity defects at the 1e-4 scale.

    ``seed`` is an int or a ``np.random.Generator``.  The members draw their
    random numbers from it one after another, in member order, and then
    the stack is built and normalized at once: each shape's rows in one
    set of array operations (the spline rows one by one), the least
    non-increasing majorant of every row, one PCHIP fit of the rows whose
    slopes are not carried from the Moser rescales, and normalize_h, which
    raises on a member whose deficit energy is not positive.  Each row
    comes out as it would alone, so blocks drawn in turn from one
    Generator, each ``first`` where the last one ended, are the rows of a
    single call of their total size.
    """
    rng = np.random.default_rng(seed)
    raw = np.zeros((size, grid.n_points))
    powers, mosers = [], []
    for i in range(size):
        kind = (first + i) % 3
        if kind == 0:
            kpts = int(rng.integers(3, 7))
            gaps = rng.uniform(0.08, 1.0, kpts + 1)
            gaps /= gaps.sum()
            r_sup = rng.uniform(0.5, 0.95)
            xs = np.concatenate([[0.0], np.cumsum(gaps) * r_sup, [1.05]])
            drops = rng.uniform(0.2, 1.5, kpts + 1) * np.diff(xs)[: kpts + 1]
            vals_desc = np.concatenate([[np.sum(drops)], np.sum(drops) - np.cumsum(drops)])
            vals = np.concatenate([vals_desc[:-1], [0.0, 0.0]])
            raw[i] = np.maximum(pchip(xs, vals, grid.nodes), 0.0)
        elif kind == 1:
            powers.append((i, rng.uniform(1.0, 3.0), rng.uniform(0.3, 2.0)))  # q, amplitude
        else:
            mosers.append((i, rng.uniform(0.05, 0.5), rng.uniform(0.5, 1.5)))  # rho, scale
    if powers:
        rows, q, amp = (np.array(c) for c in zip(*powers))
        raw[rows] = amp[:, None] * grid.one_minus_r2 ** q[:, None]
    values = RadialProfile(grid, raw, enforce_zero_boundary=True).values
    slopes = np.empty_like(values)
    refit = np.ones(size, dtype=bool)
    if mosers:
        rows, rho, scale = zip(*mosers)
        moser = _smoothed_moser(rho, n, grid).scaled(scale)
        rows = list(rows)
        values[rows], slopes[rows], refit[rows] = moser.values, moser.slopes, False
    majorant = nonincreasing_majorant(values)
    refit |= np.any(majorant != values, axis=-1)  # a member the majorant moved is fitted anew
    slopes[refit] = RadialProfile(grid, majorant[refit], enforce_zero_boundary=False).slopes
    return normalize_h(RadialProfile(grid, majorant, enforce_zero_boundary=False, slopes=slopes), n)


def bump_corpus(grid: RadialGrid, size: int, seed: int) -> List[RadialProfile]:
    """Seeded non-monotone bump profiles for rearrangement checks.

    Control points keep a minimum separation so every member is resolvable
    on production grids (steep sub-cell features would turn rearrangement
    cell-quantization into a first-order error).
    """
    rng = np.random.default_rng(seed)
    out: List[RadialProfile] = []
    r = grid.nodes
    while len(out) < size:
        if len(out) % 2 == 0:
            a = rng.uniform(1.0, 2.5)
            b = rng.uniform(1.0, 2.5)
            amp = rng.uniform(0.3, 1.5)
            vals = amp * r**a * (1.0 - r) ** b
        else:
            kpts = int(rng.integers(4, 8))
            gaps = rng.uniform(0.08, 1.0, kpts + 1)
            gaps /= gaps.sum()
            xs = np.concatenate([[0.0], 0.05 + 0.90 * np.cumsum(gaps), [1.0]])
            ys = np.concatenate([[rng.uniform(0, 0.3)], rng.uniform(0.1, 1.0, kpts), [0.0, 0.0]])
            vals = np.maximum(pchip(xs, ys, r), 0.0)
        out.append(RadialProfile(grid, vals, enforce_zero_boundary=True))
    return out
