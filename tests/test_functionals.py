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
    truncated_exp,
)
from hmtlab.extremal import MoserParams, _surrogate_weights, moser_profile
from hmtlab.extremal import seeded_corpus
from hmtlab.functionals import (
    hermite_eval,
    hyperbolic_ln_norm_pow,
    pchip,
    pchip_slopes,
    potential_term,
    singular_mt_with_gradient,
)
from hmtlab.quad_core import integrate, make_constants


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
    """Values and node slopes match scipy's PCHIP; slopes bit for bit except at the last node.

    scipy reads the last node's derivative at the right end of the last
    cubic, d[-2] + 2 c1 h + 3 c0 h^2, which equals the node slope d[-1] up
    to the rounding of those terms.  They reach about 12 times the largest
    of d[-2], d[-1] and the last secant, so on profiles of any shape the two
    agree to 4 ulp of 16 times that; on the smooth corpus, where d[-1] is
    the largest, to 4 ulp of d[-1].
    """

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
        d_ref = ref.derivative()(g.nodes)
        assert np.array_equal(u.slopes[:-1], d_ref[:-1])
        terms = max(abs(u.slopes[-2]), abs(values[-1] - values[-2]) / g.dr[-1],
                    abs(u.slopes[-1]))
        assert abs(u.slopes[-1] - d_ref[-1]) <= 4.0 * np.spacing(16.0 * terms)
        r = np.concatenate([g.nodes, rng.uniform(g.nodes[0], g.nodes[-1], 200)])
        assert np.array_equal(u(r), ref(r))

    @pytest.mark.parametrize("n", [2, 3])
    def test_last_slope_within_4_ulp_on_corpus(self, corpora, n):
        # the certification corpus: smooth profiles whose last slope is the largest term
        for member in corpora(n):
            u = RadialProfile(member.grid, member.values, enforce_zero_boundary=False)
            d_ref = PchipInterpolator(u.grid.nodes, u.values).derivative()(u.grid.nodes[-2:])
            assert np.array_equal(u.slopes[-2], d_ref[0])
            assert abs(u.slopes[-1] - d_ref[1]) <= 4.0 * np.spacing(abs(d_ref[1]))

    def test_moser_closed_form_derivative_kept(self, grids):
        g = grids(2048, 1e-6)
        u = moser_profile(MoserParams(rho=2.0**-5, n=2), g)
        r, d = g.nodes, u.slopes
        assert not d.flags.writeable
        plateau = u.values == u.values[0]
        assert np.all(d[plateau] == 0.0)
        # beyond the corner u' = -C / r exactly, which the spline only approximates
        assert np.allclose(d[~plateau] * r[~plateau], d[-1] * r[-1], rtol=1e-13, atol=0.0)
        assert not np.array_equal(d, PchipInterpolator(r, u.values).derivative()(r))


def _secant_rounding(u: RadialProfile) -> np.ndarray:
    """Per node, the larger bound eps (|y_k| + |y_k+1|) / h_k on an adjacent secant's rounding."""
    y = np.abs(u.values)
    noise = np.finfo(float).eps * (y[:-1] + y[1:]) / u.grid.dr
    out = np.maximum(np.append(noise, 0.0), np.insert(noise, 0, 0.0))
    out[0], out[-1] = noise[:2].max(), noise[-2:].max()  # the end slopes use two secants
    return out


class TestCarriedSlopes:
    """scaled(c) hands c * u the parent's slopes times c, once computed.

    A fresh fit of c * u forms its secants from rounded values, so it can
    differ from the carried arrays by the rounding of those secants; each
    slope moves by at most 3 times the change of each of its two secants.
    Where the secants are rounding noise (the flat core near the origin)
    that is more than any number of ulp, and a zero may sit on either side.
    """

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(n=st.sampled_from([2, 3]), member=st.integers(0, 49), c=st.floats(1e-3, 1e3))
    def test_matches_fresh_fit(self, corpora, n, member, c):
        u = corpora(n)[member]
        parent = RadialProfile(u.grid, u.values, enforce_zero_boundary=False)
        unfit = parent.scaled(c)
        assert "slopes" not in vars(unfit)
        parent.slopes
        carried = parent.scaled(c)
        fresh = RadialProfile(u.grid, c * u.values, enforce_zero_boundary=False)
        assert carried.values.tobytes() == fresh.values.tobytes()
        assert not carried.slopes.flags.writeable
        assert np.array_equal(carried.slopes, c * parent.slopes)
        assert np.all(np.abs(carried.slopes - fresh.slopes)
                      <= 4.0 * np.spacing(np.abs(fresh.slopes)) + 6.0 * _secant_rounding(fresh))

    @pytest.mark.parametrize("k", [-9, -1, 1, 9])
    @pytest.mark.parametrize("n", [2, 3])
    def test_power_of_two_bit_for_bit(self, corpora, n, k):
        # scaling by 2^k is exact in every operation of the fit
        for u in corpora(n)[:12]:
            parent = RadialProfile(u.grid, u.values, enforce_zero_boundary=False)
            parent.slopes
            fresh = RadialProfile(u.grid, 2.0**k * u.values, enforce_zero_boundary=False)
            carried = parent.scaled(2.0**k)
            assert np.array_equal(carried.slopes, fresh.slopes)

    def test_slopes_only_parent(self, grids):
        # the slopes are the one carried array: values and slopes are all a profile holds
        g = grids(2048, 1e-6)
        parent = RadialProfile(g, g.one_minus_r2**2)
        parent.slopes
        carried = parent.scaled(3.0)
        assert sorted(vars(carried)) == ["grid", "slopes", "values"]
        fresh = RadialProfile(g, 3.0 * parent.values, enforce_zero_boundary=False)
        assert np.all(np.abs(carried.slopes - fresh.slopes)
                      <= 4.0 * np.spacing(np.abs(fresh.slopes)) + 6.0 * _secant_rounding(fresh))


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
        d = pchip_slopes(x, y)
        assert np.array_equal(d[:-1], ref.derivative()(x[:-1]))

        spline = CubicHermiteSpline(x, y, d)
        assert hermite_eval(x, y, d, q).tobytes() == spline(q).tobytes()

    @settings(max_examples=200, deadline=None, derandomize=True)
    @given(rows=st.integers(1, 4), size=st.integers(3, 64), flat_run=st.integers(0, 5),
           seed=st.integers(0, 2**32 - 1))
    def test_stack_fits_each_row_alone(self, rows, size, flat_run, seed):
        # make_maps fits phi and ln(1 - a^2) as one (2, N) stack; each row must come
        # out as its own fit would, including flat runs and secants that change sign
        rng = np.random.default_rng(seed)
        x = rng.uniform(-2.0, 2.0) + np.cumsum(rng.uniform(1e-3, 1.0, size))
        stack = rng.standard_normal((rows, size))
        stack[0] = np.abs(stack[0])  # sign changes of the secants, none of the values
        if flat_run:
            start = int(rng.integers(0, size - 1))
            stack[:, start:start + flat_run + 1] = stack[:, start:start + 1]
        q = np.concatenate([x, x[:-1] + rng.uniform(0.0, 1.0, size - 1) * np.diff(x),
                            [x[0] - 0.5, x[-1] + 0.5]])
        fitted = pchip(x, stack, q)
        assert fitted.shape == (rows, q.size)
        for row, values in zip(fitted, stack):
            assert row.tobytes() == pchip(x, values, q).tobytes()
        slopes = np.stack([pchip_slopes(x, values) for values in stack])
        assert pchip_slopes(x, stack).tobytes() == slopes.tobytes()


class TestQV:
    """Q_V(u) = grad_energy(u) - potential_term(u, V) for each kind of potential."""

    def test_zero_potential_gives_grad(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        assert potential_term(u, Potential("zero"), 2) == 0.0

    def test_hardy_potential_matches_h(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        q_v = grad_energy(u, 2) - potential_term(u, Potential("hardy"), 2)
        assert q_v == pytest.approx(h_functional(u, 2), rel=1e-10)

    def test_linear_in_constant_potential(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        p1 = potential_term(u, Potential("const", 1.0), 2)
        p3 = potential_term(u, Potential("const", 3.0), 2)
        assert p3 - p1 == pytest.approx(2.0 * ln_norm_pow(u, 2), rel=1e-10)


class TestPotential:
    @pytest.mark.parametrize("pot", [Potential("zero"), Potential("hardy"),
                                     Potential("hardy+lambda", 0.5), Potential("const", 2.0)])
    def test_parse_inverts_descriptor(self, pot):
        assert Potential.parse(pot.descriptor()) == pot

    @pytest.mark.parametrize("text", ["bogus", "hardy+lambda=abc", "const=", "const=2.0x"])
    def test_parse_rejects(self, text):
        with pytest.raises(DomainError):
            Potential.parse(text)

    @pytest.mark.parametrize("make", [
        lambda: Potential.parse("hardy+lambda=nan"),
        lambda: Potential.parse("const=inf"),
        lambda: Potential(kind="hardy+lambda", value=math.nan),
        lambda: Potential.parse("hardy+lambda=-1.0"),
        lambda: Potential(kind="const", value=-math.inf),
    ])
    def test_rejects_nonfinite_or_negative_parameters(self, make):
        with pytest.raises(DomainError):
            make()

    @given(kind=st.sampled_from(["zero", "hardy", "hardy+lambda", "const"]),
           value=st.floats(min_value=0.0, allow_infinity=False))
    def test_every_potential_round_trips(self, kind, value):
        pot = Potential(kind, value if kind in ("hardy+lambda", "const") else 0.0)
        assert Potential.parse(pot.descriptor()) == pot

    @pytest.mark.parametrize("kind", ["zero", "hardy"])
    def test_kind_without_value_rejects_one(self, kind):
        with pytest.raises(DomainError, match="carries no value"):
            Potential(kind, 5.0)

    def test_unknown_kind_rejected_at_construction(self):
        with pytest.raises(DomainError, match="unknown potential kind 'foo'"):
            Potential("foo")

    def test_parse_reports_construction_errors_as_such(self):
        # the number converts, the potential rejects it: not "not a number"
        with pytest.raises(DomainError, match="const value must be finite and >= 0"):
            Potential.parse("const=-1")


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
        for beta in (2.0, -0.5):
            with pytest.raises(DomainError):
                singular_mt_with_gradient(u.values, g, 2, beta)

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_sum_with_gradient_is_singular_mt(self, grids, n, beta):
        # the ascent's objective is singular_mt's value to the bit, clamped nodes included
        g = grids(1024, 1e-6)
        members = list(seeded_corpus(g, n, 3, 41).values)
        members.append(40.0 / members[0].max() * members[0])
        for v in members:
            value, _ = singular_mt_with_gradient(v, g, n, beta)
            ref = singular_mt(RadialProfile(g, v, enforce_zero_boundary=False), n, beta)
            assert value == ref.value
        assert ref.overflow  # the last member clamps


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

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grid_density_second_order(self, grids, n):
        # the trapezoid sum of the grid's density is the volume of [r_min, 1-eps]
        errs = []
        for n_points in (2048, 8192):
            g = grids(n_points, 1e-6)
            ref = hyperbolic_volume(1.0 - 1e-6, n) - hyperbolic_volume(g.nodes[0], n)
            errs.append(abs(integrate(g.hyperbolic_density(n), g) - ref) / ref)
        order = math.log(errs[0] / errs[1]) / math.log(4.0)
        assert errs[1] < 1e-4
        assert 1.5 <= order <= 2.5, (errs, order)


class TestHyperbolicDensity:
    """Every Hardy and hyperbolic sum reads the grid's density; the (1-r^2)^(-n) forms agree."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_hardy_term_is_hyperbolic_norm(self, corpora, n):
        for u in corpora(n, size=20, seed=55):
            assert hardy_term(u, n) == ((n - 1) / n) ** n * hyperbolic_ln_norm_pow(u, n)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_matches_boundary_weight_forms(self, corpora, n):
        c = make_constants(n)
        beta = 0.5
        for u in corpora(n, size=20, seed=55):
            g = u.grid
            weight = g.one_minus_r2**n
            hardy = c.hardy_const * c.omega * np.dot(u.values**n / weight * g.nodes**(n - 1),
                                                     g.weights)
            assert hardy_term(u, n) == pytest.approx(hardy, rel=1e-13, abs=0.0)

            x = (1.0 - beta / n) * c.alpha_n * u.values ** (n / (n - 1.0))
            for m in (n - 1, n):
                integrand = truncated_exp(x, m) / weight * g.nodes ** (n - beta - 1.0)
                res = hyperbolic_mt(u, n, beta, m)
                assert res.value == pytest.approx(c.omega * np.dot(integrand, g.weights),
                                                  rel=1e-13, abs=0.0)
                tail = g.s <= 10.0 * g.epsilon
                share = np.dot(integrand[tail], g.weights[tail]) / np.dot(integrand, g.weights)
                assert res.divergence_flag == (share > 0.5)

        g = corpora(n, size=20, seed=55)[0].grid
        surrogate = _surrogate_weights(g, n)[2]
        old = c.hardy_const * g.nodes**(n - 1) * g.weights / g.one_minus_r2**n
        assert np.allclose(surrogate, old, rtol=1e-13, atol=0.0)


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
        w = g.hyperbolic_density(n) * g.weights
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
        assert rearrange(u, 2).is_nonincreasing(tol=1e-12)

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
        w = g.hyperbolic_density(2) * g.weights
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
