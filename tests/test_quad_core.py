import math
from typing import NamedTuple, Optional

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
from hmtlab.extremal import ANDERSON_DEPTH, AndersonMixer
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

    @pytest.mark.parametrize("n", [344, 1241, 10**4])
    def test_dimension_whose_constants_overflow(self, n):
        # gamma(n/2) overflows float64 from n = 344 on, and pi^(n/2) from n = 1241 on
        with pytest.raises(InvalidDimensionError, match=f"dimension {n} "):
            make_constants(n)

    def test_largest_dimension_is_finite(self):
        c = make_constants(343)
        assert all(math.isfinite(v) and v > 0.0 for v in (c.omega, c.alpha_n, c.hardy_const))

    def test_memoized_per_type(self):
        # 2.0 == 2 hash alike: an untyped cache would serve 2.0 the entry cached for 2
        assert make_constants(2) is make_constants(2)
        for bad in (2.0, True):
            with pytest.raises(InvalidDimensionError):
                make_constants(bad)


class TestGrid:
    @pytest.mark.parametrize("nodes", [[0.0, 0.5, 0.9], [0.1, 0.5, 0.5], [0.1, 0.6, 0.5]],
                             ids=["zero", "repeated", "falling"])
    def test_nodes_must_increase_from_above_zero(self, nodes):
        nodes = np.asarray(nodes)
        with pytest.raises(GridConfigError, match="strictly increasing and positive"):
            RadialGrid(nodes, 1.0 - nodes, nodes, 0.1)

    def test_no_room_between_the_tails(self):
        # 7 nodes in each tail leave 3 for the uniform section, which needs 4
        with pytest.raises(GridConfigError, match="n_points=17 too small for tail_fraction=0.4"):
            make_grid(17, 1e-6, tail_fraction=0.4)

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

    @pytest.mark.parametrize("r_min, tail_fraction", [(1e-10, 0.15), (1e-8, 0.2)])
    @pytest.mark.parametrize("eps, graded", [(1e-15, True), (1e-6, True),
                                             (10.0**-2.0000000000000004, False),
                                             (0.01, False), (0.2, False)])
    def test_zones_to_the_bit(self, eps, graded, r_min, tail_fraction):
        # a graded right tail runs in s from TAIL_SPAN down to eps; otherwise it is the node eps
        n_points = 1024  # 2048 nodes at tail_fraction 0.2 cannot grade down to 1e-15
        n_tail = round(n_points * tail_fraction)
        left = np.geomspace(r_min, TAIL_SPAN, n_tail)
        s_right = np.geomspace(TAIL_SPAN, eps, n_tail) if graded else np.array([eps])
        n_mid = n_points - n_tail - s_right.size
        mid = np.linspace(TAIL_SPAN, 1.0 - (TAIL_SPAN if graded else eps), n_mid + 2)[1:-1]
        g = make_grid(n_points, eps, r_min=r_min, tail_fraction=tail_fraction)
        assert np.array_equal(g.nodes, np.concatenate([left, mid, 1.0 - s_right]))
        assert np.array_equal(g.s, np.concatenate([1.0 - left, 1.0 - mid, s_right]))
        assert np.array_equal(g.xi, np.concatenate([np.log(left), np.log(mid),
                                                    np.log1p(-s_right)]))

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

    @pytest.mark.parametrize("r_min", [0.0, -1e-10, TAIL_SPAN, math.nan])
    def test_bad_r_min(self, r_min):
        with pytest.raises(GridConfigError, match=r"r_min must lie in \(0, 0.01\)"):
            make_grid(64, 1e-6, r_min=r_min)

    @pytest.mark.parametrize("tail_fraction", [0.0, 0.41, math.nan])
    def test_bad_tail_fraction(self, tail_fraction):
        with pytest.raises(GridConfigError, match=r"tail_fraction must lie in \(0, 0.4\]"):
            make_grid(64, 1e-6, tail_fraction=tail_fraction)

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
    @pytest.mark.parametrize("shape", [(63,), (64, 2), (2, 2, 64)])
    def test_wrongly_shaped_samples_rejected(self, shape):
        with pytest.raises(NumericError, match="does not match grid"):
            integrate(np.ones(shape), make_grid(64, 0.25))

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


def _shaped(f, shape):
    """f itself as one row, or as row 2 of a stack of five whose other rows are ones."""
    if shape == "row":
        return f
    stack = np.ones((5, f.size))
    stack[2] = f
    return stack


class TestGridWeights:
    @pytest.fixture(scope="class", params=["make_grid", "image_t_grid"])
    def grid(self, request):
        g = make_grid(512, 1e-4)
        if request.param == "make_grid":
            return g
        return image_t_grid(solve_green(2, Potential("hardy"), g, tol=1e-10))

    def test_cached_trapezoid_weights(self, grid):
        assert np.array_equal(grid.weights, trapezoid_weights(grid.nodes))
        assert grid.weights is grid.weights

    def test_read_only(self, grid):
        with pytest.raises(ValueError):
            grid.weights[0] = 1.0
        assert np.array_equal(grid.weights, trapezoid_weights(grid.nodes))

    def test_cached_arrays_read_only_and_recomputed(self, grid):
        one_minus_r2 = grid.s * (2.0 - grid.s)
        cached = {
            "one_minus_r2": (lambda: grid.one_minus_r2, one_minus_r2),
            "dr": (lambda: grid.dr, np.diff(grid.nodes)),
            "dxi": (lambda: grid.dxi, np.diff(grid.xi)),
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

    @pytest.mark.parametrize("shape", ["row", "stack"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["first", "middle", "last"])
    def test_integrate_rejects_a_non_finite_sample(self, grid, bad, where, shape):
        f = np.ones(grid.n_points)
        f[{"first": 0, "middle": grid.n_points // 2, "last": -1}[where]] = bad
        with pytest.raises(NumericError):
            integrate(_shaped(f, shape), grid)

    @pytest.mark.parametrize("shape", ["row", "stack"])
    def test_integrate_rejects_an_infinite_pair(self, grid, shape):
        f = np.ones(grid.n_points)
        f[3], f[-4] = np.inf, -np.inf
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):  # inf - inf warns
            integrate(_shaped(f, shape), grid)

    @pytest.mark.parametrize("shape", ["row", "stack"])
    def test_integrate_rejects_a_sum_that_overflows(self, shape):
        # every sample is finite, but their sum over [1, 3] is 2e308; on [r_min, 1 - eps]
        # the weights add up to less than 1, so samples of 1e308 cannot overflow there
        x = np.linspace(1.0, 3.0, 64)
        f = np.full(x.size, 1e308)
        with pytest.raises(NumericError), np.errstate(over="ignore"):  # the dot product warns
            integrate(_shaped(f, shape), RadialGrid(nodes=x, s=1.0 - x, xi=np.log(x), epsilon=0.0))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("shape", ["row", "stack"])
    @pytest.mark.parametrize("case", ["nan", "inf", "-inf", "pair", "overflow"])
    def test_integrate_raises_numeric_error_when_warnings_are_errors(self, grid, case, shape):
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
            integrate(_shaped(f, shape), grid)

    def test_integrate_unchanged(self, grid):
        f = np.random.default_rng(3).uniform(0.0, 1.0, grid.n_points) / grid.nodes
        assert integrate(f, grid) == float(np.dot(f, trapezoid_weights(grid.nodes)))


class TestIntegrateStack:
    """A (k, N) stack sums each row to its own np.dot, so a report does not depend on its block."""

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(k=st.integers(2, 20), n_points=st.integers(16, 4096),
           layout=st.sampled_from(["C", "F", "strided"]), seed=st.integers(0, 2**32 - 1))
    def test_rows_sum_to_their_own_dot(self, k, n_points, layout, seed):
        rng = np.random.default_rng(seed)
        grid = make_grid(n_points, 1e-4)
        stack = rng.uniform(-1.0, 1.0, (k, n_points)) * 10.0 ** rng.uniform(-150.0, 150.0,
                                                                            (k, n_points))
        ref = np.array([float(np.dot(row, grid.weights)) for row in stack])
        if layout == "F":
            stack = np.asfortranarray(stack)
        elif layout == "strided":
            wide = np.empty((k, 2 * n_points))
            wide[:, ::2] = stack
            stack = wide[:, ::2]
        assert integrate(stack, grid).tobytes() == ref.tobytes()
        # one row alone is a float, its float(np.dot) and its entry in the stack to the bit
        sums = [integrate(row, grid) for row in stack]
        assert all(type(total) is float for total in sums)
        assert np.array(sums).tobytes() == ref.tobytes()


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

    @pytest.mark.parametrize("k", range(1, 9))
    def test_is_square_and_multiply_to_the_bit(self, k):
        # x^(2^j) by repeated squaring, then the factors of k's set bits multiplied from the lowest
        rng = np.random.default_rng(k)
        x = rng.uniform(-3.0, 3.0, 2000) * 10.0 ** rng.uniform(-35.0, 35.0, 2000)
        x[:3] = (0.0, 1.0, -1.0)
        squares = [x]
        while 2 ** len(squares) <= k:
            squares.append(squares[-1] * squares[-1])
        factors = [sq for j, sq in enumerate(squares) if k >> j & 1]
        ref = factors[0]
        for f in factors[1:]:
            ref = ref * f
        assert int_pow(x, k).tobytes() == ref.tobytes()

    @pytest.mark.parametrize("k", range(2, 9))
    def test_result_is_not_x(self, k):
        x = np.linspace(-2.0, 2.0, 64)
        kept = x.copy()
        out = int_pow(x, k)
        out[:] = 7.0
        assert x.tobytes() == kept.tobytes()


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
        # t = m separates the series branch from the subtracted form; the points
        # lie within 2^50 float steps of it and include the switch's lower neighbour
        switch = float(m)
        ts = np.unique(np.concatenate([[np.nextafter(switch, 0.0), switch],
                                       switch + np.array(steps) * ulps * np.spacing(switch)]))
        assert np.all(ts > 0.0)
        assert np.all(np.diff(truncated_exp(ts, m)) >= 0.0)

    def test_monotone_across_branch_switch_high_orders(self):
        # the subtracted form rounds with relative error about eps / P(Poisson(t) >= m); below
        # t = m, where the series takes over, that exceeds one float step from m = 6 on
        for m in range(1, 31):
            for centre in (m / 2.0, float(m)):
                ts = centre + np.arange(-2000, 2001) * np.spacing(centre)
                assert np.all(np.diff(truncated_exp(ts, m)) >= 0.0), (m, centre)

    def test_domain_errors(self):
        with pytest.raises(DomainError):
            truncated_exp(-0.5, 2)
        with pytest.raises(DomainError):
            truncated_exp(1.0, -1)
        with pytest.raises(DomainError):
            truncated_exp(1.0, 2.5)


class MixStep(NamedTuple):
    defect: np.ndarray
    plain: np.ndarray
    step: Optional[np.ndarray]  # a copy of what mix returned
    gram: np.ndarray  # a copy of the mixer's kept Gram matrix
    history: list  # (x, f) of each call since the last restart
    shares: bool  # whether the step shared memory with x, f, plain or the last step


class TestAndersonMixer:
    """The Type-II mixer against the Type-I expression, on a contraction of 64 unknowns.

    18 steps with a restart after the fifth, so the ring of 5 differences wraps after it.
    """

    @staticmethod
    def _run(size=64, steps=18, restart_at=5):
        rng = np.random.default_rng(11)
        a = rng.standard_normal((size, size))
        a *= 0.9 / np.linalg.norm(a, 2)
        b = rng.standard_normal(size)
        mixer = AndersonMixer(size)
        x, history, records = np.zeros(size), [], []
        for k in range(steps):
            defect = b + a @ np.tanh(x) - x
            plain = x + defect
            history.append((x, defect))
            mixed = mixer.mix(defect, plain)
            held = (x, defect, plain)  # x is the last step, or a plain step
            shares = mixed is not None and any(np.shares_memory(mixed, h) for h in held)
            records.append(MixStep(defect, plain, None if mixed is None else mixed.copy(),
                                   mixer._gram.copy(), list(history), shares))
            x = plain if mixed is None else mixed
            if k + 1 == restart_at:
                mixer.restart()
                history = []
        return records

    @staticmethod
    def _ring(history):
        """dX and dF since the restart in ring order: the k-th difference is row k % 5."""
        diffs = [(x1 - x0, f1 - f0) for (x0, f0), (x1, f1) in zip(history, history[1:])]
        rows = [None] * min(len(diffs), ANDERSON_DEPTH)
        for k, d in enumerate(diffs):
            rows[k % ANDERSON_DEPTH] = d
        return np.array([d[0] for d in rows]), np.array([d[1] for d in rows])

    def test_history_restarts_and_wraps(self):
        records = self._run()
        assert [r.step is None for r in records[:7]] == [True, False, False, False, False,
                                                         True, False]
        assert max(len(r.history) for r in records) - 1 > ANDERSON_DEPTH

    def test_kept_gram_matrix_is_df_df_t(self):
        for r in self._run():
            if r.step is None:
                continue
            _, df = self._ring(r.history)
            ref = df @ df.T
            scale = np.sqrt(np.outer(np.diag(ref), np.diag(ref)))  # the rounding scale of a dot
            assert np.all(np.abs(r.gram[:len(df), :len(df)] - ref) <= 1e-13 * scale)

    def test_type_ii_step_is_the_type_i_step(self):
        mixed = [r for r in self._run() if r.step is not None]
        assert len(mixed) >= 15
        for r in mixed:
            dx, df = self._ring(r.history)
            coef = np.linalg.solve(df @ df.T, df @ r.defect)
            type_i = r.plain - coef @ dx - coef @ df
            assert np.max(np.abs(r.step - type_i)) <= 1e-13 * np.max(np.abs(type_i))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_singular_gram_system_gives_a_non_finite_step(self):
        # the same defect twice leaves one zero difference: the Gram matrix is [[0]]
        mixer = AndersonMixer(4)
        defect, plain = np.ones(4), np.arange(4.0)
        assert mixer.mix(defect, plain) is None
        step = mixer.mix(defect, plain + 1.0)
        assert step.shape == (4,) and not np.any(np.isfinite(step))

    def test_step_shares_no_memory_with_what_the_caller_holds(self):
        records = self._run()
        assert sum(r.step is not None for r in records) >= 15
        assert not any(r.shares for r in records)
