import dataclasses
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hmtlab as hl
from hmtlab import (
    ConvergenceError,
    CorruptTableError,
    Potential,
    PotentialInstabilityError,
    check_boundary_bound,
    make_constants,
    make_grid,
    make_maps,
    solve_green,
)
from hmtlab.green import _fit_c_g, image_t_grid
from hmtlab.quad_core import cumulative_from_origin
from scipy.integrate import solve_ivp
from scipy.interpolate import PchipInterpolator


class TestZeroPotential:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_log_solution_exact(self, green_tables, n):
        table = green_tables(n, "zero", 2048, 1e-6)
        gam = make_constants(n).gamma
        exact = -gam * np.log(table.grid.nodes / table.grid.nodes[-1])
        rel = np.abs(table.g_values - exact) / np.maximum(np.abs(exact), 1e-30)
        rel[-1] = 0.0  # both sides vanish at the boundary node
        assert rel.max() < 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_c_g_vanishes(self, green_tables, n):
        table = green_tables(n, "zero", 2048, 1e-6)
        assert abs(table.c_g) < 1e-6

    def test_remainder_vanishes(self, green_tables):
        table = green_tables(2, "zero", 2048, 1e-6)
        assert np.max(np.abs(table.remainder)) < 1e-14


class TestHardyCritical:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_invariants(self, green_tables, n):
        table = green_tables(n, "hardy", 2048, 1e-6)
        table.validate()
        c = make_constants(n)
        assert np.all(np.diff(table.g_values) < 0)
        assert np.all(table.g_deriv < 0)
        flux = -(c.omega ** (1 / (n - 1))) * table.g_deriv * table.grid.nodes
        assert np.all(flux >= 1.0 - 1e-12)
        assert table.residual <= table.tol

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_flux_identity_residual_recomputed(self, green_tables, n):
        table = green_tables(n, "hardy", 2048, 1e-6)
        c = make_constants(n)
        v = Potential("hardy").values(table.grid, n)
        m = cumulative_from_origin(
            c.omega * v * table.g_values ** (n - 1) * table.grid.nodes ** (n - 1), table.grid
        )
        flux_stored = -(c.omega ** (1 / (n - 1))) * table.g_deriv * table.grid.nodes
        defect = np.abs(flux_stored - (1 + m) ** (1 / (n - 1)))
        assert defect.max() <= 10 * table.tol

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_pole_normalization(self, green_tables, n):
        table = green_tables(n, "hardy", 2048, 1e-6)
        gam = make_constants(n).gamma
        val = -table.g_deriv[:4] * table.grid.nodes[:4]
        assert np.all(np.abs(val - gam) / gam < 1e-4)

    @pytest.mark.parametrize("n", [2, 3])
    def test_c_g_matches_fine_mesh_oracle(self, green_tables, oracles, n):
        table = green_tables(n, "hardy", 2048, 1e-5, 1e-10)
        ref = oracles["c_g_hardy"][str(n)]["per_eps"]["1e-05"]
        assert abs(table.c_g - ref) < 1e-4

    @pytest.mark.parametrize("n", [2, 3])
    def test_c_g_stable_under_refinement(self, green_tables, n):
        a = green_tables(n, "hardy", 2048, 1e-5, 1e-10).c_g
        b = green_tables(n, "hardy", 4096, 1e-5, 1e-10).c_g
        assert abs(a - b) < 1e-4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_remainder_slope(self, green_tables, n):
        table = green_tables(n, "hardy", 2048, 1e-6)
        g = table.grid
        mask = (g.nodes >= 1e-6) & (g.nodes <= 1e-3)
        slope = np.polyfit(np.log(g.nodes[mask]),
                           np.log(np.abs(table.remainder[mask]) + 1e-300), 1)[0]
        assert slope >= 1.5

    def test_boundary_bound(self, green_tables):
        fitted = {}
        for n_points in (2048, 4096):
            fitted[n_points] = check_boundary_bound(green_tables(2, "hardy", n_points, 1e-6))
        assert np.isfinite(fitted[2048])
        assert fitted[2048] == pytest.approx(fitted[4096], rel=0.10)
        # pointwise ratio at r = 1/2 is a lower bound for the fitted sup
        table = green_tables(2, "hardy", 2048, 1e-6)
        i = np.searchsorted(table.grid.nodes, 0.5)
        ratio = table.g_values[i] / table.grid.one_minus_r2[i] ** 0.5
        assert ratio <= fitted[2048] + 1e-12

    def test_boundary_bound_zero_potential(self, green_tables):
        assert np.isfinite(check_boundary_bound(green_tables(2, "zero", 2048, 1e-6)))


class TestSolverErrors:
    def test_convergence_error(self, grids):
        with pytest.raises(ConvergenceError) as err:
            solve_green(2, Potential("hardy"), grids(512, 1e-6), max_iter=2)
        assert err.value.residual is not None
        assert err.value.iterations == 2

    def test_instability_error(self, grids):
        with pytest.raises(PotentialInstabilityError):
            solve_green(2, Potential("const", 1e8), grids(512, 1e-3), max_iter=400)

    def test_instability_named_in_one_pass(self, grids):
        # above the spectral threshold the flux reaches 0 at r = 0.141 (node 498) within
        # 6 inward steps of its window
        with pytest.raises(PotentialInstabilityError,
                           match=r"flux vanishes at r = 0\.1411 \(node 498\).*grid \(2048 nodes\)"):
            solve_green(3, Potential("const", 20.0), grids(2048, 1e-6), max_iter=40)

    def test_residual_beyond_its_bound_is_a_convergence_failure(self, grids):
        # the flux excess reaches 7.6e4 at eps = 1e-12, so the assembled table's absolute
        # residual (1.3e-10, the flux's rounding there) cannot meet tol 1e-12; the solve
        # says so instead of returning a table that its own validate rejects
        with pytest.raises(ConvergenceError, match="grid \\(16384 nodes\\)") as err:
            solve_green(2, Potential("hardy"), grids(16384, 1e-12), tol=1e-12)
        assert err.value.residual > 1e-11 and err.value.iterations <= 40

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    # at n = 100 the boundary weight (1 - r^2)^n underflows to 0, so V is inf there
    @pytest.mark.parametrize("n, potential", [(2, "hardy+lambda=1e308"), (3, "const=1.7e308"),
                                              (100, "hardy")])
    def test_overflowing_mass_is_an_instability(self, grids, n, potential):
        with pytest.raises(PotentialInstabilityError, match="overflows float64"):
            solve_green(n, Potential.parse(potential), grids(256, 1e-6))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_table_whose_recomputation_overflows_rejected(self, green_tables):
        doc = {**green_tables(2, "hardy", 2048, 1e-6).report_fields(),
               "potential": "hardy+lambda=1e308"}
        with pytest.raises(CorruptTableError, match="overflows float64"):
            hl.GreenTable.from_json_dict(doc)

    @pytest.mark.parametrize("n, potential", [(2, "hardy"), (3, "hardy+lambda=1.0"), (4, "zero")])
    def test_mass_on_finite_input_is_the_plain_sum(self, green_tables, n, potential):
        table = green_tables(n, potential, 2048, 1e-6)
        v_vals = table.potential.values(table.grid, n)
        density = (make_constants(n).omega * v_vals * table.g_values ** (n - 1)
                   * table.grid.nodes_pow(n - 1))
        plain = cumulative_from_origin(density, table.grid)
        assert np.array_equal(hl.green._mass(table.g_values, table.potential, table.grid, n), plain)


class TestStepFunctions:
    @pytest.mark.parametrize("n, potential", [(2, "hardy"), (3, "hardy+lambda=1.0"),
                                              (4, "const=0.5")])
    def test_steps_are_the_plain_expressions(self, green_tables, n, potential):
        # the table's assembly is these expressions to the bit, the sign of H's leading zero
        # included: G sums its tail from the boundary, H from the origin
        table = green_tables(n, potential, 2048, 1e-6)
        grid, c, x = table.grid, make_constants(n), table.excess
        v_vals = table.potential.values(grid, n)
        log_part = c.gamma * (grid.xi[-1] - grid.xi)
        incr = 0.5 * c.gamma * (x[1:] + x[:-1]) * np.diff(grid.xi)
        h_rem = -np.concatenate([[0.0], np.cumsum(incr)])
        g_values = log_part + np.concatenate([np.cumsum(incr[::-1])[::-1], [0.0]])
        density = c.omega * v_vals * g_values ** (n - 1) * grid.nodes ** (n - 1)
        m = np.concatenate([[0.0], np.cumsum(0.5 * (density[1:] + density[:-1])
                                             * np.diff(grid.nodes))])
        g = hl.green._assemble(x, grid, c.gamma)
        assert g.tobytes() == g_values.tobytes()
        assert table.remainder.tobytes() == h_rem.tobytes()
        mass = hl.green._mass(g, table.potential, grid, n)
        assert mass.tobytes() == m.tobytes()
        flux = hl.green._flux_excess(mass, n)
        assert flux.tobytes() == np.expm1(np.log1p(m) / (n - 1)).tobytes()


class TestInwardIteration:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("potential", ["hardy", "hardy+lambda=1.0"])
    def test_iteration_count(self, green_tables, n, potential):
        # the slowest window of the inward march takes 14-15 steps on these cases
        assert green_tables(n, potential, 2048, 1e-6, 1e-10).iterations <= 40

    @pytest.mark.parametrize("potential", ["hardy", "hardy+lambda=1.0", "hardy+lambda=2"])
    def test_matches_dense_solve_at_n2(self, grids, potential):
        # At n = 2 the flux excess is the mass itself, so one step x -> A x + b of
        # the discrete flux map is affine.  A is built column by column from unit
        # excesses and the fixed point solves (I - A) x = b directly.  hardy+lambda=2
        # is the case nearest its threshold: A's spectral radius is about 0.965.
        grid = grids(1024, 1e-6)
        pot = Potential.parse(potential)
        c = make_constants(2)
        v = pot.values(grid, 2)
        size = grid.nodes.size
        d_xi = np.diff(grid.xi)[:, None]
        d_r = np.diff(grid.nodes)[:, None]

        def assemble(x):  # each column of x is a flux excess, each column out a G
            h = np.zeros_like(x)
            h[1:] = -np.cumsum(0.5 * c.gamma * (x[1:] + x[:-1]) * d_xi, axis=0)
            return c.gamma * (grid.xi[-1] - grid.xi)[:, None] + h - h[-1]

        def flux_map(x):
            density = c.omega * v[:, None] * assemble(x) * grid.nodes[:, None]
            m = np.zeros_like(x)
            m[1:] = np.cumsum(0.5 * (density[1:] + density[:-1]) * d_r, axis=0)
            return m

        b = flux_map(np.zeros((size, 1)))[:, 0]
        a = flux_map(np.eye(size)) - b[:, None]
        x = np.linalg.solve(np.eye(size) - a, b)
        table = solve_green(2, pot, grid, tol=1e-10)
        assert np.max(np.abs(table.g_values - assemble(x[:, None])[:, 0])) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("potential", ["hardy", "hardy+lambda=1.0"])
    def test_windows_stitch_to_the_single_window_solve(self, grids, monkeypatch, n, potential):
        # 8 windows of 256 nodes against one window of all 2048: each window starts from the
        # G and flux at its outer node, so both converge to the same discrete solution
        # (5.8e-14 relative in G, 2.1e-13 in c_g at most)
        grid, pot = grids(2048, 1e-6), Potential.parse(potential)
        marched = solve_green(n, pot, grid, tol=1e-10)
        monkeypatch.setattr(hl.green, "MARCH_WINDOWS", 1)
        monkeypatch.setattr(hl.green, "MARCH_WINDOW_NODES", grid.n_points)
        single = solve_green(n, pot, grid, tol=1e-10)
        assert single.iterations > marched.iterations
        g, ref = marched.g_values[:-1], single.g_values[:-1]  # both are 0 at the boundary
        assert np.max(np.abs(g - ref) / ref) <= 1e-12
        assert abs(marched.c_g - single.c_g) <= 1e-12 * abs(single.c_g)

    def test_near_threshold_potential_on_a_fine_grid(self):
        # hardy+lambda=2.36 sits just below the n = 2 spectral threshold; a Picard iteration
        # over all 100k nodes left a residual of 6.1e-9 here, each window reaches 3.1e-10
        table = solve_green(2, Potential.parse("hardy+lambda=2.36"), make_grid(100000, 1e-6),
                            tol=1e-10)
        table.validate()

    def test_memory_peak_stays_below_the_allocating_solve(self):
        # the tracemalloc peak of this call is 1927790 bytes: the march holds one window's
        # arrays, H is not formed and the mass is summed in place, so the bound leaves 15%;
        # numpy 2.4, CPython 3.11
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            solve_green(3, Potential("hardy"), make_grid(20000, 1e-6), tol=1e-10)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert peak <= 2216959


class TestContinuation:
    def test_pole_constant_rises_as_truncation_shrinks(self, grids):
        cgs = [solve_green(2, Potential("hardy"), grids(1024, eps), tol=1e-9).c_g
               for eps in (1e-2, 1e-3, 1e-4)]
        assert cgs[0] < cgs[1] < cgs[2]


class TestSmallTruncation:
    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    @pytest.mark.parametrize("n_points", [2048, 16384, 65536])
    @pytest.mark.parametrize("tol", [1e-8, 1e-10])
    def test_converges_at_eps_1e12(self, grids, n, n_points, tol):
        # 16-26 steps in the slowest window: G summed from the boundary keeps its digits
        # where it is tiny, and each window converges to the rounding of its own flux; at
        # tol 1e-10 the residuals reach 2.0 tol at n = 2
        table = solve_green(n, Potential("hardy"), grids(n_points, 1e-12), tol=tol)
        table.validate()
        assert table.iterations <= 40


def _agm(a, b):
    """Arithmetic-geometric mean M(a, b), elementwise on arrays."""
    for _ in range(60):  # far more steps than float64 needs: the convergence is quadratic
        a, b = 0.5 * (a + b), np.sqrt(a * b)
    return a


def exact_c_g_n2(eps):
    """Pole constant of the n = 2 Hardy Green function on the ball of radius 1 - eps.

    There -Delta_g G - G/4 = delta_0 on the Poincare disk, whose radial
    solutions are Legendre functions of order -1/2; Landen's transformation
    writes them as arithmetic-geometric means M, and
    c_g(eps) = ln 2/pi - M(1, sqrt(eps (2 - eps))) / (4 M(1, 1 - eps)).
    """
    return math.log(2.0) / math.pi - _agm(1.0, math.sqrt(eps * (2.0 - eps))) / (
        4.0 * _agm(1.0, 1.0 - eps))


def exact_g_n2(grid):
    """The n = 2 Hardy Green function G_eps at the grid's nodes.

    G_eps = G_0 - (ln 2/pi - c_g(eps)) P_{-1/2}, with the whole-ball
    G_0 = sqrt(1 - r^2) / (4 M(1, r)) and P_{-1/2} = sqrt(1 - r^2) / M(1, sqrt(1 - r^2));
    1 - r^2 is formed as s (2 - s), exact near the boundary.
    """
    root = np.sqrt(grid.s * (2.0 - grid.s))
    g_whole = root / (4.0 * _agm(1.0, grid.nodes))
    return g_whole - (math.log(2.0) / math.pi - exact_c_g_n2(grid.epsilon)) * root / _agm(1.0, root)


class TestClosedFormN2:
    @pytest.mark.parametrize("eps", [0.3, 0.02, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
    def test_second_order_in_the_grid(self, grids, eps):
        # c_g's errors and sup |G - G_eps| are 2.0e-3, 4.9e-4, 1.2e-4 at eps = 1e-12; observed
        # orders 2.00-2.05.  For eps >= 0.01 the boundary tail is one node: 2.2e-8, 5.5e-9,
        # 1.4e-9 at eps = 0.3
        c_g_err, g_err = [], []
        for n_points in (2048, 4096, 8192):
            table = solve_green(2, Potential("hardy"), grids(n_points, eps), tol=1e-9)
            c_g_err.append(table.c_g - exact_c_g_n2(eps))
            g_err.append(np.max(np.abs(table.g_values - exact_g_n2(table.grid))))
        for err in (c_g_err, g_err):
            for coarse, fine in zip(err, err[1:]):
                assert 1.5 <= math.log2(coarse / fine) <= 2.5


def continuum_c_g(n, eps):
    """Pole constant of the continuum Hardy Green function on the ball of radius 1 - eps.

    The flux identity G' = -gamma Phi^(1/(n-1)) / r, Phi' = omega V G^(n-1) r^(n-1) is
    homogeneous (G -> k G, Phi -> k^(n-1) Phi), so one initial-value solve from
    (G, Phi) = (0, 1) at the boundary inward to r = 1e-26, rescaled to Phi = 1 at the
    pole, gives c_g = Phi^(-1/(n-1)) G + gamma ln r there.  The variable is
    sigma = ln rho, rho = 2 artanh r the hyperbolic distance: the pole's logarithm
    becomes linear in sigma, and 1 - r^2 = 4 e^-rho / (1 + e^-rho)^2 keeps its digits
    at the boundary, where rho = ln((2 - eps) / eps).
    """
    c = make_constants(n)

    def rhs(sigma, y):
        rho = math.exp(sigma)
        r = math.tanh(0.5 * rho)
        q = math.exp(-rho)
        one_minus_r2 = 4.0 * q / (1.0 + q) ** 2
        dr = 0.5 * one_minus_r2 * rho  # dr / dsigma
        g, phi = y
        return [-c.gamma * phi ** (1.0 / (n - 1)) / r * dr,
                c.omega * c.hardy_const / one_minus_r2**n * g ** (n - 1) * r ** (n - 1) * dr]

    r_pole = 1e-26
    sigma_span = (math.log(math.log((2.0 - eps) / eps)), math.log(2.0 * math.atanh(r_pole)))
    # the default first-step estimate overflows on atol = 1e-300
    sol = solve_ivp(rhs, sigma_span, [0.0, 1.0], method="DOP853", rtol=1e-13, atol=1e-300,
                    first_step=1e-6)
    assert sol.success, sol.message
    g, phi = sol.y[:, -1]
    return phi ** (-1.0 / (n - 1)) * g + c.gamma * math.log(r_pole)


class TestContinuumReference:
    @pytest.mark.parametrize("eps", [1e-2, 1e-6, 1e-12])
    def test_matches_the_closed_form_at_n2(self, eps):
        # measured 9e-15, 3e-13 and 6e-13
        assert continuum_c_g(2, eps) == pytest.approx(exact_c_g_n2(eps), rel=0.0, abs=2e-12)

    @pytest.mark.parametrize("n", [3, 4, 5])
    @pytest.mark.parametrize("eps", [1e-2, 1e-3, 1e-6, 1e-9, 1e-12])
    def test_second_order_in_the_grid(self, grids, n, eps):
        # errors on 2048/16384 nodes at eps = 1e-2 (a one-node boundary tail), 1e-3, 1e-6,
        # 1e-9 and 1e-12; observed orders 2.00-2.03
        # n = 3: 3.9e-8/6.1e-10, 7.2e-6/1.1e-7, 9.2e-5/1.4e-6, 4.8e-4/7.3e-6, 1.6e-3/2.4e-5;
        # n = 4: 3.2e-8/5.0e-10, 4.2e-6/6.6e-8, 7.0e-5/1.1e-6, 3.7e-4/5.7e-6, 1.3e-3/1.9e-5;
        # n = 5: 2.3e-8/3.6e-10, 2.6e-6/4.1e-8, 5.6e-5/8.7e-7, 3.0e-4/4.6e-6, 1.1e-3/1.5e-5
        ref = continuum_c_g(n, eps)
        coarse, fine = (solve_green(n, Potential("hardy"), grids(n_points, eps), tol=1e-10).c_g
                        - ref for n_points in (2048, 16384))
        assert 1.5 <= math.log2(coarse / fine) / 3.0 <= 2.5


class TestMaps:
    def test_zero_potential_identity(self):
        grid = make_grid(8192, 1e-10)
        table = solve_green(2, Potential("zero"), grid)
        maps = make_maps(table, beta=0.0, n_t=8192)
        assert np.max(np.abs(maps.a_over_t - 1.0)) < 1e-8
        assert np.max(np.abs(maps.phi)) == 0.0
        assert np.max(np.abs(maps.psi - 1.0)) < 1e-8

    def test_image_grid_is_exact_inverse(self, green_tables):
        table = green_tables(2, "hardy", 2048, 1e-6)
        maps = make_maps(table, beta=0.0)
        assert np.allclose(maps.a, table.grid.nodes, rtol=1e-12)

    @pytest.mark.parametrize("n", [2, 3])
    @pytest.mark.parametrize("potential", ["hardy", "hardy+lambda=1.0", "const=0.5"])
    def test_default_t_grid_is_image_grid(self, green_tables, n, potential):
        table = green_tables(n, potential, 2048, 1e-6)
        maps = make_maps(table)
        image = image_t_grid(table)
        for key in ("nodes", "s", "xi"):
            assert np.array_equal(getattr(maps.t_grid, key), getattr(image, key))
        np.testing.assert_allclose(maps.a, table.grid.nodes, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("n_t", [None, 3000])
    @pytest.mark.parametrize("n,potential", [(2, "hardy"), (3, "hardy+lambda=1.0"), (2, "const=0.5")])
    def test_interpolants_match_scipy_pchip(self, green_tables, n, potential, n_t):
        """a, phi and the Hardy weight equal scipy's PchipInterpolator composition bit for bit."""
        table = green_tables(n, potential, 2048, 1e-6)
        maps = make_maps(table, n_t=n_t)
        ln_t_nodes = -table.g_values / make_constants(n).gamma
        ln_r = table.grid.xi
        ln_t = np.clip(maps.t_grid.xi, ln_t_nodes[0], ln_t_nodes[-1])
        a = np.exp(PchipInterpolator(ln_t_nodes, ln_r)(ln_t))
        a = np.clip(a, table.grid.nodes[0], table.grid.nodes[-1])
        assert maps.a.tobytes() == a.tobytes()
        ln_a = np.log(a)
        phi = np.maximum(PchipInterpolator(ln_r, table.m_values)(ln_a), 0.0)
        assert maps.phi.tobytes() == phi.tobytes()
        one_minus_a2 = np.exp(PchipInterpolator(ln_r, np.log(table.grid.one_minus_r2))(ln_a))
        v_at_a = table.potential.at(a, one_minus_a2**n, n)
        t = maps.t_grid.nodes
        hardy_weight = v_at_a * a**n / (t * (1.0 + phi) ** (1.0 / (n - 1)))
        assert maps.hardy_weight.tobytes() == hardy_weight.tobytes()

    @pytest.mark.parametrize("n", [2, 3])
    def test_hardy_maps_invariants(self, transplant_maps, n):
        maps = transplant_maps(n)
        assert np.all(maps.phi > 0.0)
        ratio = maps.a_over_t
        assert np.all(np.diff(ratio) <= 1e-9 * ratio[:-1])
        gam = make_constants(n).gamma
        assert np.all(ratio < math.exp(maps.c_g / gam) + 1e-6)

    @pytest.mark.parametrize("n", [2, 3])
    def test_a_over_t_matches_remainder_form(self, green_tables, transplant_maps, n):
        # ln(a/t) = (c_g + H(a)) / gamma holds with the table's own remainder
        table = green_tables(n, "hardy", 4096, 1e-6, 1e-10)
        maps = transplant_maps(n)
        gam = make_constants(n).gamma
        h_at_a = PchipInterpolator(np.log(table.grid.nodes), table.remainder)(np.log(maps.a))
        predicted = np.exp((maps.c_g + h_at_a) / gam)
        rel = np.abs(maps.a_over_t - predicted) / predicted
        assert rel.max() < 1e-3
        # and the t -> 0 limit is e^(c_g / gamma)
        assert maps.a_over_t[0] == pytest.approx(math.exp(maps.c_g / gam), rel=1e-3)

    @pytest.mark.parametrize("n", [2, 3])
    def test_phi_prime_consistent_with_numeric_derivative(self, transplant_maps, n):
        # fourth-order stencil on the uniform zone, subsampled wide enough to
        # average over sub-node interpolation wiggle in the phi table
        maps = transplant_maps(n)
        t = maps.t_grid.nodes
        idx = np.where((t >= 0.1) & (t <= 0.9))[0][::12]
        h = t[idx[1]] - t[idx[0]]
        core = idx[2:-2]
        stride = idx[1] - idx[0]
        num = (-maps.phi[core + 2 * stride] + 8 * maps.phi[core + stride]
               - 8 * maps.phi[core - stride] + maps.phi[core - 2 * stride]) / (12 * h)
        phi_prime = maps.hardy_weight[core] * (-maps.t_grid.xi[core]) ** (n - 1)
        rel = np.abs(num - phi_prime) / np.abs(phi_prime)
        assert np.max(rel) < 1e-3

    def test_corrupt_table_rejected(self, green_tables):
        import dataclasses

        table = green_tables(2, "hardy", 2048, 1e-6)
        g_bad = table.g_values.copy()
        g_bad[100] = g_bad[99] + 1.0  # break monotonicity
        bad = dataclasses.replace(table, g_values=g_bad)
        with pytest.raises(CorruptTableError):
            make_maps(bad)


class TestTableRoundTrip:
    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("potential", ["hardy", "zero", "hardy+lambda=1.0", "const=2.0"])
    def test_reloads_exactly(self, grids, n, potential):
        table = solve_green(n, Potential.parse(potential), grids(2048, 1e-6), max_iter=2000)
        self._check_round_trip(table)

    def test_g_off_its_recomputation_rejected(self, grids):
        # with V = 0 the mass vanishes for every G, so a shifted G with its own c_g
        # passes validate and the c_g fit; only its recomputation from G rejects it
        table = solve_green(2, Potential("zero"), grids(2048, 1e-6))
        g = table.g_values + 1e-3
        doc = {**table.report_fields(), "G": g.tolist(),
               "c_g": _fit_c_g(table.grid, g, make_constants(2).gamma, 2)}
        with pytest.raises(CorruptTableError, match="G disagrees"):
            hl.GreenTable.from_json_dict(doc)

    def test_stored_g_not_strictly_decreasing_rejected(self, grids):
        # with V = 0 the recomputation does not see G, and a flat step at the boundary
        # end moves G by less than 10 tol gamma: only the check on the stored G rejects it
        table = solve_green(2, Potential("zero"), grids(2048, 1e-6), tol=1e-4)
        g = table.g_values.copy()
        g[-2] = g[-1]
        assert np.all(np.abs(g - table.g_values) <= 10.0 * table.tol * make_constants(2).gamma)
        doc = {**table.report_fields(), "G": g.tolist(),
               "c_g": _fit_c_g(table.grid, g, make_constants(2).gamma, 2)}
        with pytest.raises(CorruptTableError, match="G must be strictly decreasing"):
            hl.GreenTable.from_json_dict(doc)

    def test_reloads_exactly_at_loose_tolerance(self, grids):
        self._check_round_trip(
            solve_green(3, Potential("hardy"), grids(2048, 1e-6), tol=1e-4)
        )

    @settings(max_examples=25, deadline=None, derandomize=True)
    @given(
        n=st.sampled_from([2, 3, 4]),
        potential=st.one_of(
            st.just(Potential("zero")),
            st.just(Potential("hardy")),
            st.floats(0.0, 1.0).map(lambda lam: Potential("hardy+lambda", lam)),
            st.floats(0.0, 1.0).map(lambda alpha: Potential("const", alpha)),
        ),
        n_points=st.integers(256, 1024),
        log10_eps=st.floats(-6.0, -2.0),
    )
    def test_reloads_exactly_property(self, n, potential, n_points, log10_eps):
        grid = make_grid(n_points, 10.0**log10_eps)
        self._check_round_trip(solve_green(n, potential, grid, tol=1e-10))

    @staticmethod
    def _check_round_trip(table):
        text = json.dumps(table.report_fields(), default=np.ndarray.tolist)
        loaded = hl.GreenTable.from_json_dict(json.loads(text))
        loaded.validate()
        assert np.array_equal(loaded.g_values, table.g_values)
        assert loaded.c_g == table.c_g
        # the grid is rebuilt from len(G) and epsilon, so s and xi are exact
        for key in ("nodes", "s", "xi"):
            assert np.array_equal(getattr(loaded.grid, key), getattr(table.grid, key))
        # the derived arrays are recomputed from G on load, not compared with stored ones;
        # the excess bound is the G' bound, since G' r / gamma = -(1 + excess)
        tol = table.tol
        assert np.all(np.abs(loaded.remainder - table.remainder)
                      <= 10.0 * tol * make_constants(table.n).gamma)
        assert np.all(np.abs(loaded.g_deriv - table.g_deriv) <= 10.0 * tol * np.abs(table.g_deriv))
        assert np.all(np.abs(loaded.excess - table.excess) <= 10.0 * tol * (1.0 + table.excess))


class TestPoleConstantFittedFromG:
    def test_c_g_is_no_field(self):
        assert [f.name for f in dataclasses.fields(hl.GreenTable)] == [
            "grid", "n", "potential", "g_values", "excess", "iterations", "tol"]

    @pytest.mark.parametrize("n, potential", [(2, "hardy"), (3, "hardy+lambda=1.0"),
                                              (4, "const=0.5")])
    def test_c_g_is_the_fit_of_its_g(self, green_tables, n, potential):
        table = green_tables(n, potential, 2048, 1e-6)
        text = json.dumps(table.report_fields(), default=np.ndarray.tolist)
        loaded = hl.GreenTable.from_json_dict(json.loads(text))
        gamma = make_constants(n).gamma
        for t in (table, loaded):
            assert t.c_g == _fit_c_g(t.grid, t.g_values, gamma, n)
            assert "c_g" in vars(t) and t.c_g is t.c_g
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.c_g = 0.0


class TestResidualOnce:
    @pytest.mark.parametrize("n, potential", [(2, "hardy"), (3, "hardy"), (2, "hardy+lambda=2")])
    def test_one_mass_pass_per_table(self, grids, monkeypatch, n, potential):
        # validate computes the residual; the report reads it without a second mass pass
        calls = []
        original = hl.green._mass

        def counted(*args):
            calls.append(args)
            return original(*args)

        table = solve_green(n, Potential.parse(potential), grids(512, 1e-4), tol=1e-10)
        monkeypatch.setattr(hl.green, "_mass", counted)
        assert table.report_fields()["residual"] == table.residual
        assert calls == []
        loaded = hl.GreenTable.from_json_dict(table.report_fields())
        assert len(calls) == 2  # the rebuild's assembly, then the rebuilt table's residual
        # the loaded table's excess is the one formed from its own G, so the residual
        # that load no longer computes is exactly 0
        assert loaded.residual == 0.0
        assert len(calls) == 3

    def test_arrays_read_only(self, grids):
        table = solve_green(2, Potential("hardy"), grids(512, 1e-4), tol=1e-10)
        assert "remainder" not in vars(table)  # a solve does not form H
        for a in (table.g_values, table.excess, table.remainder):
            with pytest.raises(ValueError):
                a[0] = 0.0
        assert table.remainder is table.remainder
        with pytest.raises(dataclasses.FrozenInstanceError):
            table.remainder = np.zeros(512)


def comparison_supersolution(grid, n):
    """Supersolution check for psi(r) = (-ln r)^((n-1)/n) against the critical potential.

    A reference for one proof step that no subcommand runs.  Returns the
    minimum of the elementary inequality (1-r^2) + 2 r ln r >= 0 over all
    nodes, the minimum of the analytic residual -Delta_n psi - V psi^(n-1)
    at the nodes, and the minimum of a finite-volume discretization of it
    over interior nodes with 1 - r >= 0.011.  The analytic margin decays
    like n(1-r)/2 relative to its terms, so within the geometrically graded
    boundary tail it drops below what any difference scheme resolves; the
    safe range stops inside the uniform zone, which ends at
    1 - r = TAIL_SPAN = 0.01.
    """
    c = make_constants(n)
    r = grid.nodes
    neg_ln_r = -grid.xi  # exact -ln r, log1p-built near the boundary
    one_minus_r2 = grid.one_minus_r2
    elementary = one_minus_r2 - 2.0 * r * neg_ln_r

    q = (n - 1.0) / n
    psi_vals = neg_ln_r**q
    v_vals = c.hardy_const / one_minus_r2**n
    analytic = (
        ((n - 1.0) / n) ** n
        * psi_vals ** (n - 1)
        / r**n
        * (neg_ln_r ** (-float(n)) - (2.0 * r / one_minus_r2) ** n)
    )

    # finite-volume radial n-Laplacian: flux difference over the exact
    # cell volume, consistent on arbitrarily graded meshes
    mid_r = 0.5 * (r[1:] + r[:-1])
    dpsi = np.diff(psi_vals) / np.diff(r)
    flux_mid = mid_r ** (n - 1) * np.abs(dpsi) ** (n - 2) * dpsi
    cell = (mid_r[1:] ** n - mid_r[:-1] ** n) / n
    lap = np.diff(flux_mid) / cell
    discrete = -lap - v_vals[1:-1] * psi_vals[1:-1] ** (n - 1)
    interior = grid.s[1:-1] >= 0.011  # just inside the uniform zone; see the docstring
    return {
        "elementary_min": float(np.min(elementary)),
        "analytic_min": float(np.min(analytic)),
        "discrete_min": float(np.min(discrete[interior])),
        "discrete_range_max_r": float(np.max(r[1:-1][interior])),
    }


class TestComparisonSupersolution:
    @pytest.mark.parametrize("n", [2, 3])
    def test_supersolution_margins(self, grids, n):
        out = comparison_supersolution(grids(2048, 1e-6), n)
        assert out["elementary_min"] >= -1e-12  # equality only as r -> 1
        assert out["analytic_min"] > 0.0
        assert out["discrete_min"] > 0.0
