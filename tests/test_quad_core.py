import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hmtlab import (
    DomainError,
    GridConfigError,
    InvalidDimensionError,
    NumericError,
    RadialGrid,
    integrate,
    make_constants,
    make_grid,
    solve_green,
    truncated_exp,
)
from hmtlab.functionals import Potential
from hmtlab.green import image_t_grid
from hmtlab.quad_core import TAIL_SPAN, int_pow, trapezoid_weights


class TestConstants:
    def test_n2(self):
        c = make_constants(2)
        assert c.omega == pytest.approx(2 * math.pi, rel=1e-14)
        assert c.alpha_n == pytest.approx(4 * math.pi, rel=1e-14)
        assert c.hardy_const == pytest.approx(1.0, rel=1e-14)

    def test_n3(self):
        c = make_constants(3)
        assert c.omega == pytest.approx(4 * math.pi, rel=1e-14)
        assert c.alpha_n == pytest.approx(3 * math.sqrt(4 * math.pi), rel=1e-14)
        assert c.alpha_n == pytest.approx(10.6347, abs=5e-5)
        assert c.hardy_const == pytest.approx(64 / 27, rel=1e-14)

    def test_gamma_normalization(self):
        for n in (2, 3, 4, 5):
            c = make_constants(n)
            assert c.gamma == pytest.approx(c.omega ** (-1 / (n - 1)), rel=1e-14)

    @pytest.mark.parametrize("bad", [1, 0, -3, 2.5, "2"])
    def test_invalid_dimension(self, bad):
        with pytest.raises(InvalidDimensionError):
            make_constants(bad)

    def test_memoized_per_type(self):
        # 2.0 == 2 hash alike: an untyped cache would serve 2.0 the entry cached for 2
        assert make_constants(2) is make_constants(2)
        for bad in (2.0, True):
            with pytest.raises(InvalidDimensionError):
                make_constants(bad)


class TestGrid:
    def test_small_grid_contract(self):
        g = make_grid(16, 0.25)
        assert g.n_points == 16
        assert g.nodes[0] == pytest.approx(1e-10)
        assert g.nodes[-1] == pytest.approx(0.75, abs=1e-15)
        assert np.all(np.diff(g.nodes) > 0)

    def test_large_grid_contract(self):
        g = make_grid(2048, 1e-6)
        assert g.n_points == 2048
        assert g.nodes[-1] == pytest.approx(1 - 1e-6, rel=1e-14)
        assert g.s[-1] == 1e-6  # boundary distance carried exactly

    def test_epsilon_just_below_inner_right(self):
        # a graded tail from 0.01 down to 0.01 (1 - 1e-15) rounds to repeated radii
        eps = 10.0**-2.0000000000000004
        g = make_grid(256, eps)
        assert g.n_points == 256
        assert np.all(np.diff(g.nodes) > 0)
        assert g.s[-1] == eps

    @pytest.mark.parametrize("n_points, eps", [(2048, 1e-16), (16384, 1e-15), (100000, 1e-14)])
    def test_tail_rounding_together_at_epsilon_raises(self, n_points, eps):
        # these once collapsed the tail silently: the boundary layer went unresolved
        with pytest.raises(GridConfigError, match=f"epsilon={eps!r}.*n_points={n_points}"):
            make_grid(n_points, eps)

    @pytest.mark.parametrize("n_points", [16, 64, 128, 2048])
    @pytest.mark.parametrize("eps", [2.0**-54, 1e-17, 1e-20])
    def test_epsilon_that_rounds_one_minus_epsilon_to_one_raises(self, n_points, eps):
        # at 128 nodes or fewer the graded tail's last radius was exactly 1.0
        with pytest.raises(GridConfigError, match=f"epsilon={eps!r}.*rounds to 1"):
            make_grid(n_points, eps)

    def test_smallest_epsilon_below_one_is_accepted(self):
        eps = np.nextafter(2.0**-54, 1.0)  # 1 - eps is the float just below 1
        g = make_grid(64, eps)
        assert g.nodes[-1] == 1.0 - 2.0**-53 and g.s[-1] == eps

    @pytest.mark.parametrize("eps", [0.01, 0.2, 0.49])
    def test_large_epsilon_collapses_the_tail(self, eps):
        g = make_grid(2048, eps)
        assert g.s[-1] == eps
        h = np.diff(g.nodes[g.nodes >= TAIL_SPAN])  # uniform from the left tail to 1 - eps
        assert np.all(h > 0.0) and np.allclose(h, h[0], rtol=1e-9, atol=0.0)

    @pytest.mark.parametrize("eps", [1e-2 * (1 - 1e-6), 1e-6, 1e-15])
    def test_xi_is_ln_r(self, eps):
        g = make_grid(2048, eps)
        tail = g.s <= TAIL_SPAN
        assert np.array_equal(g.xi[~tail], np.log(g.nodes[~tail]))  # left and middle zones
        assert np.array_equal(g.xi[tail], np.log1p(-g.s[tail]))  # exact in s near r = 1

    def test_too_few_points(self):
        with pytest.raises(GridConfigError):
            make_grid(8, 0.25)

    @pytest.mark.parametrize("eps", [0.0, -0.1, 0.5, 0.7])
    def test_bad_epsilon(self, eps):
        with pytest.raises(GridConfigError):
            make_grid(64, eps)

    def test_spacing_clusters_at_both_ends(self):
        g = make_grid(2048, 1e-6)
        h = np.diff(g.nodes)
        mid = h[len(h) // 2]
        assert h[0] < 1e-3 * mid
        assert h[-1] < 1e-3 * mid
        # geometric decay toward each endpoint within the tails
        left_ratio = h[1] / h[0]
        right_ratio = h[-2] / h[-1]
        assert left_ratio > 1.0
        assert right_ratio > 1.0


class TestIntegrate:
    def test_constant(self):
        g = make_grid(128, 0.25)
        val = integrate(np.ones_like(g.nodes), g)
        assert val == pytest.approx(g.nodes[-1] - g.nodes[0], abs=1e-12)

    def test_linear_exact(self):
        g = make_grid(64, 0.25)
        val = integrate(g.nodes, g)
        exact = (g.nodes[-1] ** 2 - g.nodes[0] ** 2) / 2
        assert val == pytest.approx(exact, abs=1e-12)

    def test_inverse_sqrt_weight_matches_arcsin(self):
        g = make_grid(16384, 1e-6)
        val = integrate(1.0 / np.sqrt(g.one_minus_r2), g)
        exact = math.asin(g.nodes[-1]) - math.asin(g.nodes[0])
        assert val == pytest.approx(exact, abs=1e-6)

    def test_nonfinite_rejected(self):
        g = make_grid(64, 0.25)
        bad = np.ones_like(g.nodes)
        bad[3] = np.nan
        with pytest.raises(NumericError):
            integrate(bad, g)
        bad[3] = np.inf
        with pytest.raises(NumericError):
            integrate(bad, g)

    def test_linearity_and_monotonicity(self):
        g = make_grid(256, 1e-3)
        rng = np.random.default_rng(5)
        f = rng.uniform(0, 1, g.n_points)
        h = rng.uniform(0, 1, g.n_points)
        a, b = 2.5, -1.25
        combined = integrate(a * f + b * h, g)
        assert combined == pytest.approx(a * integrate(f, g) + b * integrate(h, g), rel=1e-12)
        assert integrate(f, g) >= 0.0

    @pytest.mark.parametrize("n", [3, 4])
    def test_refinement_order(self, n):
        errs = []
        for n_points in (512, 1024, 2048):
            g = make_grid(n_points, 1e-6)
            exact = (g.nodes[-1] ** n - g.nodes[0] ** n) / n
            errs.append(abs(integrate(g.nodes ** (n - 1), g) - exact))
        order1 = math.log2(errs[0] / errs[1])
        order2 = math.log2(errs[1] / errs[2])
        assert order1 >= 1.9
        assert order2 >= 1.9

    def test_linear_integrand_any_grid_exact(self):
        # n = 2 case of the order study: trapezoid is exact for r^(n-1)
        g = make_grid(512, 1e-6)
        exact = (g.nodes[-1] ** 2 - g.nodes[0] ** 2) / 2
        assert integrate(g.nodes, g) == pytest.approx(exact, abs=1e-12)


class TestGridWeights:
    @pytest.fixture(scope="class", params=["make_grid", "image_t_grid"])
    def grid(self, request):
        g = make_grid(512, 1e-4)
        if request.param == "make_grid":
            return g
        return image_t_grid(solve_green(2, Potential.hardy_critical(), g, tol=1e-10))

    def test_cached_trapezoid_weights(self, grid):
        assert np.array_equal(grid.weights, trapezoid_weights(grid.nodes))
        assert grid.weights is grid.weights

    def test_read_only(self, grid):
        with pytest.raises(ValueError):
            grid.weights[0] = 1.0
        assert np.array_equal(grid.weights, trapezoid_weights(grid.nodes))

    def test_cached_arrays_read_only_and_recomputed(self, grid):
        one_minus_r2 = grid.s * (2.0 - grid.s)
        h = np.diff(grid.nodes)
        w1, w2 = 2.0 * h[1:] + h[:-1], h[1:] + 2.0 * h[:-1]
        cached = {
            "one_minus_r2": (lambda: grid.one_minus_r2, one_minus_r2),
            "h": (lambda: grid.spacing.h, h),
            "w1": (lambda: grid.spacing.w1, w1),
            "w2": (lambda: grid.spacing.w2, w2),
            "w12": (lambda: grid.spacing.w12, w1 + w2),
        }
        for k in (1, 2, 3, 1.5, 0.5):
            cached[f"r^{k}"] = (lambda k=k: grid.nodes_pow(k), grid.nodes**k)
            cached[f"(1-r^2)^{k}"] = (lambda k=k: grid.one_minus_r2_pow(k), one_minus_r2**k)
        for n in (2, 3, 4) if grid.s[-1] > 0.0 else ():  # the image grid ends at t = 1
            density = make_constants(n).omega * (int_pow(2.0 / one_minus_r2, n)
                                                 * grid.nodes**(n - 1))
            cached[f"dv_H/dr n={n}"] = (lambda n=n: grid.hyperbolic_density(n), density)
        for name, (read, fresh) in cached.items():
            arr = read()
            assert arr is read(), name
            assert arr.tobytes() == fresh.tobytes(), name
            with pytest.raises(ValueError):
                arr[0] = 1.0
            assert arr.tobytes() == fresh.tobytes(), name

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_integrate_rejects_a_non_finite_sample(self, grid, bad, where):
        f = np.ones(grid.n_points)
        f[{"first": 0, "middle": grid.n_points // 2, "last": -1}[where]] = bad
        with pytest.raises(NumericError):
            integrate(f, grid)

    def test_integrate_rejects_an_infinite_pair(self, grid):
        f = np.ones(grid.n_points)
        f[3], f[-4] = np.inf, -np.inf
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):  # inf - inf warns
            integrate(f, grid)

    def test_integrate_rejects_a_sum_that_overflows(self):
        # every sample is finite, but their sum over [1, 3] is 2e308; on [r_min, 1 - eps]
        # the weights add up to less than 1, so samples of 1e308 cannot overflow there
        x = np.linspace(1.0, 3.0, 64)
        f = np.full(x.size, 1e308)
        with pytest.raises(NumericError), np.errstate(over="ignore"):  # the dot product warns
            integrate(f, RadialGrid(nodes=x, s=1.0 - x, xi=np.log(x), epsilon=0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("case", ["nan", "inf", "-inf", "pair", "overflow"])
    def test_integrate_raises_numeric_error_when_warnings_are_errors(self, grid, case):
        f = np.ones(grid.n_points)
        if case == "pair":
            f[3], f[-4] = np.inf, -np.inf
        elif case == "overflow":
            x = np.linspace(1.0, 3.0, 64)
            f, grid = np.full(x.size, 1e308), RadialGrid(nodes=x, s=1.0 - x, xi=np.log(x),
                                                         epsilon=0.0)
        else:
            f[grid.n_points // 2] = float(case)
        with pytest.raises(NumericError):
            integrate(f, grid)

    def test_integrate_unchanged(self, grid):
        f = np.random.default_rng(3).uniform(0.0, 1.0, grid.n_points) / grid.nodes
        assert integrate(f, grid) == float(np.dot(f, trapezoid_weights(grid.nodes)))


class TestIntPow:
    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(k=st.integers(1, 6), seed=st.integers(0, 2**32 - 1))
    def test_matches_pow(self, k, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-3.0, 3.0, 2000) * 10.0 ** rng.uniform(-45.0, 45.0, 2000)
        x[:3] = (0.0, 1.0, -1.0)
        got, ref = int_pow(x, k), x**k
        if k == 1:
            assert got is x
        if k <= 2:
            assert got.tobytes() == ref.tobytes()
            return
        normal = np.isfinite(ref) & (np.abs(ref) >= np.finfo(float).tiny)
        err = np.abs(got[normal] - ref[normal])
        assert np.all(err <= (k - 1) * np.spacing(np.abs(ref[normal])))


class TestTruncatedExp:
    def test_zero_argument(self):
        for m in (1, 2, 5):
            assert truncated_exp(0.0, m) == 0.0

    def test_closed_form(self):
        assert truncated_exp(1.0, 2) == pytest.approx(math.e - 2.0, rel=1e-14)

    def test_small_argument_series(self):
        t = 1e-8
        val = truncated_exp(t, 3)
        lead = t**3 / 6.0
        assert val == pytest.approx(lead, rel=1e-6)
        assert val == pytest.approx(1.6667e-25, rel=1e-3)

    def test_m_zero_is_exp(self):
        assert truncated_exp(30.0, 0) == pytest.approx(math.exp(30.0), rel=1e-14)

    def test_no_overflow_below_700(self):
        assert np.isfinite(truncated_exp(700.0, 3))

    @pytest.mark.parametrize("t", [0.1, 1.0, 10.0])
    def test_term_recurrence(self, t):
        for m in range(0, 7):
            diff = truncated_exp(t, m) - truncated_exp(t, m + 1)
            term = t**m / math.factorial(m)
            assert diff == pytest.approx(term, rel=1e-12)

    def test_positive_and_monotone(self):
        ts = np.linspace(1e-6, 40.0, 200)
        for m in (0, 1, 2, 3, 6):
            vals = truncated_exp(ts, m)
            assert np.all(vals > 0)
            assert np.all(np.diff(vals) >= 0)

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(m=st.integers(1, 5), steps=st.lists(st.integers(-2**20, 2**20), min_size=2, max_size=8),
           ulps=st.integers(1, 2**30))
    def test_monotone_across_branch_switch(self, m, steps, ulps):
        # t = m/2 separates the series branch from the subtracted form; the points
        # lie within 2^50 float steps of it and include the switch's lower neighbour
        switch = m / 2.0
        ts = np.unique(np.concatenate([[np.nextafter(switch, 0.0), switch],
                                       switch + np.array(steps) * ulps * np.spacing(switch)]))
        assert np.all(ts > 0.0)
        assert np.all(np.diff(truncated_exp(ts, m)) >= 0.0)

    @pytest.mark.xfail(strict=True, reason=(
        "just above t = m/2 the subtracted form e^t - sum_{k<m} t^k/k! rounds with relative "
        "error about eps / P(Poisson(m/2) >= m), larger than one float step from m = 6 on"))
    def test_monotone_across_branch_switch_high_orders(self):
        for m in range(6, 31):
            ts = m / 2.0 + np.arange(-2000, 2001) * np.spacing(m / 2.0)
            assert np.all(np.diff(truncated_exp(ts, m)) >= 0.0), m

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            truncated_exp(-0.5, 2)
        with pytest.raises(DomainError):
            truncated_exp(1.0, -1)
        with pytest.raises(DomainError):
            truncated_exp(1.0, 2.5)
