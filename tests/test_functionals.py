import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.interpolate import CubicHermiteSpline, PchipInterpolator

from hmtlab import (
    DomainError,
    Potential,
    RadialProfile,
    check_hardy_littlewood,
    check_polya_szego,
    grad_energy,
    h_functional,
    hardy_term,
    hyperbolic_mt,
    hyperbolic_volume,
    ln_norm_pow,
    make_grid,
    rearrange,
    singular_mt,
)
from hmtlab.extremal import MoserParams, moser_profile
from hmtlab.functionals import (
    cell_hyperbolic_volumes,
    hermite_eval,
    hermite_plan,
    hyperbolic_ln_norm_pow,
    pchip,
    pchip_slopes,
    potential_term,
)
from hmtlab.quad_core import pchip_spacing


@pytest.fixture(scope="module")
def fine_grid():
    return make_grid(32768, 1e-9)


@pytest.fixture(scope="module")
def xfine_grid():
    return make_grid(131072, 1e-10)


class TestEnergies:
    def test_grad_linear_profile(self, fine_grid):
        u = RadialProfile(fine_grid, 1.0 - fine_grid.nodes)
        assert grad_energy(u, 2) == pytest.approx(math.pi, abs=1e-8)

    def test_grad_quadratic_profile(self, xfine_grid):
        u = RadialProfile(xfine_grid, xfine_grid.one_minus_r2)
        assert grad_energy(u, 2) == pytest.approx(2 * math.pi, abs=1e-8)

    def test_grad_moser_normalized(self, fine_grid):
        for rho in (0.5, 2.0**-5, 2.0**-15):
            u = moser_profile(MoserParams(rho=rho, n=2), fine_grid)
            assert grad_energy(u, 2) == pytest.approx(1.0, abs=1e-6)

    def test_hardy_quadratic_profile(self, fine_grid):
        u = RadialProfile(fine_grid, fine_grid.one_minus_r2)
        assert hardy_term(u, 2) == pytest.approx(math.pi, abs=1e-6)

    def test_hardy_zero(self, fine_grid):
        u = RadialProfile(fine_grid, np.zeros_like(fine_grid.nodes))
        assert hardy_term(u, 2) == 0.0

    def test_h_quadratic(self, fine_grid):
        u = RadialProfile(fine_grid, fine_grid.one_minus_r2)
        assert h_functional(u, 2) == pytest.approx(math.pi, abs=1e-6)

    def test_h_zero(self, fine_grid):
        u = RadialProfile(fine_grid, np.zeros_like(fine_grid.nodes))
        assert h_functional(u, 2) == 0.0

    @pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_homogeneity(self, grids, c, n):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2**1.5)
        base = h_functional(u, n)
        scaled = h_functional(u.scaled(c), n)
        assert abs(scaled - c**n * base) <= 1e-9 * max(1.0, c**n * abs(base))

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.sampled_from([2, 3, 4]), c=st.floats(1e-3, 1e3), p=st.floats(1.0, 3.0),
           a=st.floats(0.0, 5.0))
    def test_homogeneity_property(self, n, c, p, a):
        g = make_grid(512, 1e-6)
        u = RadialProfile(g, g.one_minus_r2**p * (1.0 + a * g.nodes**2))
        scale = c**n * (grad_energy(u, n) + hardy_term(u, n))  # H = E - D cancels below this
        assert abs(h_functional(u.scaled(c), n) - c**n * h_functional(u, n)) <= 1e-12 * scale

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hardy_inequality_on_corpus(self, corpora, n):
        # sharp-constant Hardy bound holds for all seeded admissible profiles; both sides
        # are n-homogeneous, and seeded_corpus's normalize_h raises on a member with E <= D
        for u in corpora(n, size=50, seed=900 + n, n_points=2048):
            assert grad_energy(u, n) >= hardy_term(u, n) - 1e-8

    def test_hardy_subcritical_grows_with_refinement(self):
        # decay exponent below the critical (n-1)/n: the truncated Hardy
        # integral grows without bound as the cutoff shrinks
        vals = []
        for eps in (1e-4, 1e-6, 1e-8):
            g = make_grid(4096, eps)
            u = RadialProfile(g, g.one_minus_r2**0.45, enforce_zero_boundary=False)
            vals.append(hardy_term(u, 2))
        assert vals[1] > 1.3 * vals[0]
        assert vals[2] > 1.3 * vals[1]


def _spline_profile(kind: str, nodes: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    size = nodes.size
    if kind == "nonincreasing":
        return np.sort(rng.exponential(1.0, size))[::-1]
    if kind == "nonmonotone":
        return rng.uniform(0.0, 1.0, size)
    if kind == "flat_runs":
        return np.round(np.sort(rng.uniform(0.0, 3.0, size))[::-1], 1)
    if kind == "sign_changing":
        return np.sin(rng.uniform(5.0, 50.0) * nodes) + 0.1 * rng.standard_normal(size)
    # two-valued: a step down at a random node
    return np.where(np.arange(size) < rng.integers(1, size), rng.uniform(0.5, 2.0), 0.0)


class TestSplineSlopes:
    """Slopes read directly match scipy's PCHIP spline bit for bit."""

    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(kind=st.sampled_from(["nonincreasing", "nonmonotone", "flat_runs", "sign_changing",
                                 "two_valued"]),
           n_points=st.integers(16, 4096), eps=st.sampled_from([1e-2, 1e-6, 1e-9]),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy_pchip(self, kind, n_points, eps, seed):
        g = make_grid(n_points, eps)
        rng = np.random.default_rng(seed)
        values = _spline_profile(kind, g.nodes, rng)
        u = RadialProfile(g, values, enforce_zero_boundary=False)
        ref = PchipInterpolator(g.nodes, values)
        assert np.array_equal(u.derivative, ref.derivative()(g.nodes))
        r = np.concatenate([g.nodes, rng.uniform(g.nodes[0], g.nodes[-1], 200)])
        assert np.array_equal(u(r), ref(r))

    def test_moser_closed_form_derivative_kept(self, grids):
        g = grids(2048, 1e-6)
        u = moser_profile(MoserParams(rho=2.0**-5, n=2), g)
        r, d = g.nodes, u.derivative
        plateau = u.values == u.values[0]
        assert np.all(d[plateau] == 0.0)
        # beyond the corner u' = -C / r exactly, which the spline only approximates
        assert np.allclose(d[~plateau] * r[~plateau], d[-1] * r[-1], rtol=1e-13, atol=0.0)
        assert not np.array_equal(d, PchipInterpolator(r, u.values).derivative()(r))


class TestHermiteEvaluator:
    """pchip_slopes and hermite_eval reproduce scipy's PCHIP and Hermite splines bit for bit.

    scipy is only the oracle here; the package evaluates both with numpy.
    """

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(size=st.integers(5, 64), monotone=st.booleans(), flat_run=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_matches_scipy(self, size, monotone, flat_run, seed):
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(1e-3, 1.0, size))
        y = rng.standard_normal(size)
        if monotone:
            y = np.sort(y)[::-1]
        if flat_run:  # a run of equal values, which PCHIP gives zero slopes
            start = int(rng.integers(0, size - 1))
            y[start:start + flat_run + 1] = y[start]
        between = x[:-1] + rng.uniform(0.0, 1.0, size - 1) * np.diff(x)
        outside = np.array([x[0] - 0.5, x[0] - 1e-9, x[-1] + 1e-9, x[-1] + 0.5])
        q = np.concatenate([x, between, [x[0], x[-1]], outside])

        ref = PchipInterpolator(x, y)
        assert pchip(x, y, q).tobytes() == ref(q).tobytes()
        d = pchip_slopes(y, pchip_spacing(x))
        assert np.array_equal(d[:-1], ref.derivative()(x[:-1]))

        clipped = np.clip(q, x[0], x[-1])
        spline = CubicHermiteSpline(x, y, d)
        plan = hermite_plan(x, clipped)
        assert hermite_eval(plan, np.diff(x), y, d).tobytes() == spline(clipped).tobytes()


class TestQV:
    """Q_V(u) = grad_energy(u) - potential_term(u, V) for each kind of potential."""

    def test_zero_potential_gives_grad(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        assert potential_term(u, Potential.zero(), 2) == 0.0

    def test_hardy_potential_matches_h(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        q_v = grad_energy(u, 2) - potential_term(u, Potential.hardy_critical(), 2)
        assert q_v == pytest.approx(h_functional(u, 2), rel=1e-10)

    def test_linear_in_constant_potential(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        p1 = potential_term(u, Potential.constant(1.0), 2)
        p3 = potential_term(u, Potential.constant(3.0), 2)
        assert p3 - p1 == pytest.approx(2.0 * ln_norm_pow(u, 2), rel=1e-10)


class TestPotential:
    @pytest.mark.parametrize("pot", [Potential.zero(), Potential.hardy_critical(),
                                     Potential.hardy_plus_lambda(0.5), Potential.constant(2.0)])
    def test_parse_inverts_descriptor(self, pot):
        assert Potential.parse(pot.descriptor()) == pot

    @pytest.mark.parametrize("text", ["bogus", "hardy+lambda=abc", "const=", "const=2.0x"])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            Potential.parse(text)

    @pytest.mark.parametrize("make", [
        lambda: Potential.hardy_plus_lambda(math.nan),
        lambda: Potential.constant(math.inf),
        lambda: Potential(kind="hardy+lambda", lam=math.nan),
        lambda: Potential.hardy_plus_lambda(-1.0),
        lambda: Potential(kind="const", alpha=-math.inf),
    ])
    def test_rejects_nonfinite_or_negative_parameters(self, make):
        with pytest.raises(DomainError):
            make()


class TestSingularMT:
    def test_zero_profile_disc_area(self):
        g = make_grid(16384, 1e-10)
        u = RadialProfile(g, np.zeros_like(g.nodes))
        assert singular_mt(u, 2, 0.0).value == pytest.approx(math.pi, abs=1e-8)

    def test_zero_profile_n3_beta1(self):
        g = make_grid(16384, 1e-10)
        u = RadialProfile(g, np.zeros_like(g.nodes))
        assert singular_mt(u, 3, 1.0).value == pytest.approx(2 * math.pi, abs=1e-8)

    def test_overflow_flag(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, np.full_like(g.nodes, 10.0), enforce_zero_boundary=False)
        res = singular_mt(u, 2, 0.0)
        assert res.overflow
        assert np.isfinite(res.value)

    def test_beta_domain(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        with pytest.raises(DomainError):
            singular_mt(u, 2, 2.0)
        with pytest.raises(DomainError):
            singular_mt(u, 2, -0.5)
        with pytest.raises(DomainError):
            singular_mt(u, 2, 0.0, exponent_scale=0.0)


class TestHyperbolicMT:
    def test_zero_profile(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, np.zeros_like(g.nodes))
        assert hyperbolic_mt(u, 2, 0.0, 2).value == 0.0
        assert hyperbolic_mt(u, 2, 0.0, 1).value == 0.0

    def test_integrand_matches_subtracted_exponential_n2(self, grids):
        # with m = n = 2 the integrand kernel is e^x - 1 - x at x = 4 pi u^2
        g = grids(2048, 1e-6)
        u = RadialProfile(g, 0.5 * g.one_minus_r2)
        x = 4 * math.pi * u.values**2
        from hmtlab import truncated_exp

        kernel = truncated_exp(x, 2)
        direct = np.expm1(x) - x
        mask = x > 1e-3  # direct form loses accuracy below the switchover
        assert np.allclose(kernel[mask], direct[mask], rtol=1e-10)

    def test_admissible_decay_no_flag(self, grids):
        # u <= C (1-r^2)^((n-1)/p) with n < p < n^2/(n-1) keeps m = n finite
        g = grids(4096, 1e-6)
        for n, p in ((2, 3.0), (3, 4.0)):
            u = RadialProfile(g, g.one_minus_r2 ** ((n - 1) / p))
            res = hyperbolic_mt(u, n, 0.0, n)
            assert np.isfinite(res.value)
            assert not res.divergence_flag

    def test_truncation_order_validation(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        with pytest.raises(DomainError):
            hyperbolic_mt(u, 3, 0.0, 1)


class TestHyperbolicVolume:
    def test_closed_form_n2(self):
        # past r = 0.9 the volume adds a geometric layer in 1 - r
        for r in (0.5, 0.95, 0.999, 1.0 - 1e-6):
            exact = 4 * math.pi * r**2 / (1 - r**2)
            assert hyperbolic_volume(r, 2) == pytest.approx(exact, rel=1e-8)

    def test_zero_radius(self):
        assert hyperbolic_volume(0.0, 3) == 0.0

    def test_against_fine_reference(self, oracles):
        ref = oracles["hyperbolic_volume"]["n3_r0.5"]
        assert hyperbolic_volume(0.5, 3) == pytest.approx(ref, rel=1e-8)

    def test_strictly_increasing(self):
        vals = [hyperbolic_volume(r, 3) for r in (0.2, 0.4, 0.6, 0.8, 0.9, 0.95, 0.999)]
        assert np.all(np.diff(vals) > 0)

    def test_domain(self):
        with pytest.raises(DomainError):
            hyperbolic_volume(1.0, 2)


class TestRearrange:
    def test_identity_on_nonincreasing(self, grids):
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.one_minus_r2**1.5)
        star = rearrange(u, 2)
        assert np.allclose(star.values, u.values, atol=1e-13)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(size=st.integers(16, 600), n=st.integers(2, 4), seed=st.integers(0, 2**32 - 1),
           ties=st.booleans())
    def test_equimeasurable_on_random_values(self, size, n, seed, ties):
        g = make_grid(size, 1e-6)
        vals = np.random.default_rng(seed).uniform(0.0, 1.0, size)
        if ties:
            vals = np.round(4.0 * vals) / 4.0  # flat runs and zeros
        w = cell_hyperbolic_volumes(g, n)
        star = rearrange(RadialProfile(g, vals, enforce_zero_boundary=False), n).values
        mass = float(np.dot(vals, w))
        assert abs(float(np.dot(star, w)) - mass) <= 1e-13 * mass
        assert np.all(np.diff(star) <= 0.0)
        desc = np.sort(vals)[::-1]
        back = rearrange(RadialProfile(g, desc, enforce_zero_boundary=False), n).values
        assert np.max(np.abs(back - desc)) <= 1e-13 * desc.max()

    def test_idempotent(self, grids):
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.nodes * (1 - g.nodes))
        star = rearrange(u, 2)
        star2 = rearrange(star, 2)
        assert np.allclose(star2.values, star.values, atol=1e-12)

    def test_output_nonincreasing(self, grids):
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.nodes * (1 - g.nodes))
        assert rearrange(u, 2).is_nonincreasing()

    @pytest.mark.parametrize("n", [2, 3])
    def test_ln_norm_preserved(self, bump_corpora, n):
        # cell quantization is second order; 16384 nodes puts it below 1e-6
        for u in bump_corpora(n, size=20, seed=321 + n, n_points=16384):
            a = hyperbolic_ln_norm_pow(u, n)
            b = hyperbolic_ln_norm_pow(rearrange(u, n), n)
            assert abs(a - b) <= 1e-6 * max(a, 1e-30)

    def test_level_set_measures(self, grids):
        # distribution functions agree within cell quantization at 100 levels
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.nodes * (1 - g.nodes))
        star = rearrange(u, 2)
        w = cell_hyperbolic_volumes(g, 2)
        levels = np.linspace(1e-3, 0.999 * u.values.max(), 100)
        for t in levels:
            mu_u = w[u.values > t].sum()
            mu_s = w[star.values > t].sum()
            assert abs(mu_u - mu_s) <= 0.02 * max(mu_u, 1e-12)


class TestRearrangementInequalities:
    def test_polya_szego_identity_case(self, grids):
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.one_minus_r2**2)
        res = check_polya_szego(u, 2)
        assert abs(res.margin) <= 1e-10

    def test_polya_szego_bump(self, grids):
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.nodes * (1 - g.nodes))
        res = check_polya_szego(u, 2)
        assert res.margin > 0
        assert res.h_margin > 0

    @pytest.mark.parametrize("n", [2, 3])
    def test_margins_on_bump_corpus(self, bump_corpora, n):
        for u in bump_corpora(n, size=50, seed=777):
            assert check_polya_szego(u, n).margin >= -1e-8
            assert check_hardy_littlewood(u, n, 0.0) >= -1e-8

    def test_hardy_littlewood_examples(self, grids):
        g = grids(4096, 1e-6)
        bump = RadialProfile(g, g.nodes * (1 - g.nodes))
        assert check_hardy_littlewood(bump, 2, 0.0) >= 0.0
        assert check_hardy_littlewood(bump, 3, 1.0) >= 0.0
        flat = RadialProfile(g, g.one_minus_r2)
        assert abs(check_hardy_littlewood(flat, 2, 0.0)) <= 1e-8
