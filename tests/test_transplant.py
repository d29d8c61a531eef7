import math

import numpy as np
import pytest
from scipy.interpolate import CubicHermiteSpline

import hmtlab as hl
from hmtlab import (
    Potential,
    PreconditionError,
    RadialProfile,
    check_mt_comparison,
    make_constants,
    make_grid,
    make_maps,
    normalize_h,
    pushforward,
    solve_green,
    transplant_report,
    verify_grad_identity,
    verify_hardy_identity,
)
from hmtlab.extremal import MoserParams, seeded_corpus, smoothed_moser_profile
from hmtlab.functionals import mt_exponent, mt_integrand, potential_term
from hmtlab.quad_core import integrate


@pytest.fixture(scope="module")
def zero_setup():
    grid = make_grid(8192, 1e-10, r_min=1e-12)
    table = solve_green(2, Potential("zero"), grid)
    maps = make_maps(table, beta=0.0, n_t=8192, t_min=1e-11)
    return grid, table, maps


class TestPushforward:
    def test_zero_potential_resamples_identity(self, zero_setup):
        grid, _, maps = zero_setup
        u = RadialProfile(grid, grid.one_minus_r2**2)
        v = pushforward(u, maps)
        expected = u(maps.t_grid.nodes)
        assert np.max(np.abs(v.values - expected)) < 1e-8

    def test_plateau_preserved(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = smoothed_moser_profile(MoserParams(rho=0.3, n=2), g)
        v = pushforward(u, maps)
        assert v.values[0] == pytest.approx(u.values[0], rel=1e-9)
        assert v.is_nonincreasing(tol=1e-12)
        assert v.values[-1] == 0.0

    def test_matches_direct_composition(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = smoothed_moser_profile(MoserParams(rho=0.3, n=2), g)
        v = pushforward(u, maps)
        t_samples = np.linspace(0.05, 0.95, 1000)
        a_interp = np.interp(t_samples, maps.t_grid.nodes, maps.a)
        direct = u(a_interp)
        via_profile = v(t_samples)
        assert np.max(np.abs(direct - via_profile)) < 1e-5

    def test_increasing_profile_rejected(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.nodes * (1 - g.nodes))
        with pytest.raises(PreconditionError):
            pushforward(u, maps)


def _spline_pushforward(u, maps):
    """pushforward's values composed through scipy's CubicHermiteSpline of u."""
    r = u.grid.nodes
    vals = CubicHermiteSpline(r, u.values, u.slopes)(np.clip(maps.a, r[0], r[-1]))
    vals = np.maximum.accumulate(vals[::-1])[::-1]
    return RadialProfile(maps.t_grid, vals).values


def _assert_node_data(u, v, maps):
    """v is u's monotone, zero-boundary node data, and the spline composition to rounding."""
    node_data = RadialProfile(maps.t_grid, np.maximum.accumulate(u.values[::-1])[::-1]).values
    assert v.values.tobytes() == node_data.tobytes()
    assert np.max(np.abs(v.values - _spline_pushforward(u, maps))) <= 1e-15 * u.values.max()


class TestPushforwardPlan:
    """pushforward takes node data on the image grid and the spline composition elsewhere."""

    @pytest.mark.parametrize("t_grid", ["image", "n_t"])
    def test_matches_spline_composition(self, green_tables, transplant_maps, corpora, t_grid):
        table = green_tables(2, "hardy", 4096, 1e-6, 1e-10)
        maps = make_maps(table) if t_grid == "image" else transplant_maps(2)
        assert maps.image_of is (table.grid if t_grid == "image" else None)
        for u in corpora(2)[:12]:
            assert u.grid is table.grid
            v = pushforward(u, maps)
            if t_grid == "image":
                _assert_node_data(u, v, maps)
            else:
                assert v.values.tobytes() == _spline_pushforward(u, maps).tobytes()

    def test_profile_on_another_grid(self, green_tables, corpora, grids):
        table = green_tables(2, "hardy", 4096, 1e-6, 1e-10)
        maps = make_maps(table)
        home = corpora(2)[0]
        away = seeded_corpus(grids(2048, 1e-6), 2, 3, 99).rows()
        for u in [home, *away, home]:
            v = pushforward(u, maps)
            if u is home:
                _assert_node_data(u, v, maps)
            else:
                assert v.values.tobytes() == _spline_pushforward(u, maps).tobytes()


class TestGradIdentity:
    def test_zero_potential_defect_tiny(self, zero_setup):
        grid, _, maps = zero_setup
        u = RadialProfile(grid, 1.0 - grid.nodes)
        v = pushforward(u, maps)
        assert verify_grad_identity(u, v, maps) < 1e-10

    def test_hardy_quadratic(self, green_tables):
        table = green_tables(2, "hardy", 8192, 1e-6, 1e-10)
        maps = hl.make_maps(table, beta=0.0, n_t=16384)
        u = RadialProfile(table.grid, table.grid.one_minus_r2)
        v = pushforward(u, maps)
        assert verify_grad_identity(u, v, maps) < 1e-5

    def test_defect_decreases_with_t_refinement(self, green_tables):
        # window where the t-grid error dominates the fixed r-grid floor
        table = green_tables(2, "hardy", 8192, 1e-6, 1e-10)
        u = RadialProfile(table.grid, table.grid.one_minus_r2)
        defects = []
        for n_t in (1024, 2048, 4096):
            maps = hl.make_maps(table, beta=0.0, n_t=n_t)
            defects.append(verify_grad_identity(u, pushforward(u, maps), maps))
        order = math.log2(defects[0] / defects[-1]) / 2
        assert order >= 1.5


class TestHardyIdentity:
    def test_zero_potential_both_sides_vanish(self, zero_setup):
        grid, _, maps = zero_setup
        u = RadialProfile(grid, grid.one_minus_r2)
        v = pushforward(u, maps)
        assert verify_hardy_identity(u, v, maps) == 0.0

    def test_hardy_quadratic(self, green_tables):
        table = green_tables(2, "hardy", 8192, 1e-6, 1e-10)
        maps = hl.make_maps(table, beta=0.0, n_t=16384)
        u = RadialProfile(table.grid, table.grid.one_minus_r2)
        v = pushforward(u, maps)
        assert hl.hardy_term(u, 2) == pytest.approx(math.pi, abs=2e-4)
        assert verify_hardy_identity(u, v, maps) < 1e-4

    def test_defect_halves_under_t_refinement(self, green_tables):
        table = green_tables(2, "hardy", 8192, 1e-6, 1e-10)
        u = RadialProfile(table.grid, table.grid.one_minus_r2)
        defects = []
        for n_t in (2048, 4096):
            maps = hl.make_maps(table, beta=0.0, n_t=n_t)
            defects.append(verify_hardy_identity(u, pushforward(u, maps), maps))
        assert defects[1] <= 0.5 * defects[0]


class TestHardyLemma:
    def test_zero_profile(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = RadialProfile(g, np.zeros_like(g.nodes))
        assert transplant_report(u, maps).hardy_lemma_margin == 0.0

    def test_zero_potential_maps(self, zero_setup):
        grid, _, maps = zero_setup
        u = RadialProfile(grid, grid.one_minus_r2)
        assert transplant_report(u, maps).hardy_lemma_margin == 0.0

    @pytest.mark.parametrize("n", [2, 3])
    def test_corpus_margins(self, transplant_maps, corpora, n):
        maps = transplant_maps(n)
        for u in corpora(n, size=50, seed=1234):
            assert transplant_report(u, maps).hardy_lemma_margin >= -1e-6


class TestKeyInequality:
    def test_zero_profile(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = RadialProfile(g, np.zeros_like(g.nodes))
        assert transplant_report(u, maps).key_margin == pytest.approx(0.0, abs=1e-12)

    def test_quadratic_normalized(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = normalize_h(RadialProfile(g, g.one_minus_r2), 2)
        assert transplant_report(u, maps).key_margin >= 0.0

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_corpus_grad_v_below_one(self, green_tables, corpora, n):
        table = green_tables(n, "hardy", 4096, 1e-6, 1e-10)
        maps = hl.make_maps(table, beta=0.0, n_t=8192)
        for u in corpora(n, size=50, seed=1234):
            v = pushforward(u, maps)
            assert hl.grad_energy(v, n) <= 1.0 + 1e-6


class TestMTComparison:
    def test_zero_potential_equality(self, zero_setup):
        grid, _, maps = zero_setup
        u = RadialProfile(grid, np.zeros_like(grid.nodes))
        v = pushforward(u, maps)
        res = check_mt_comparison(u, v, maps)
        assert abs(res.margin) < 1e-8

    def test_moser_margin(self, transplant_maps, grids):
        maps = transplant_maps(2)
        g = grids(4096, 1e-6)
        u = normalize_h(smoothed_moser_profile(MoserParams(rho=0.1, n=2), g), 2)
        res = check_mt_comparison(u, pushforward(u, maps), maps)
        assert res.margin >= 0.0
        assert res.identity_defect < 1e-4

    @pytest.mark.parametrize("n,beta", [(2, 0.0), (2, 1.0), (3, 0.0), (3, 1.5)])
    def test_corpus_margins(self, transplant_maps, corpora, n, beta):
        maps = transplant_maps(n, beta=beta)
        for u in corpora(n, size=25, seed=555):
            v = pushforward(u, maps)
            res = check_mt_comparison(u, v, maps)
            mt_u = hl.singular_mt(u, n, beta).value
            assert res.margin >= -1e-6 * max(1.0, mt_u)
            assert res.identity_defect < 1e-4

    def test_psi_bounds(self, transplant_maps):
        maps = transplant_maps(2, beta=0.0)
        gam = make_constants(2).gamma
        assert np.all(maps.psi < maps.a_over_t ** (2 - 0.0))
        assert np.all(maps.a_over_t < math.exp(maps.c_g / gam) + 1e-6)


class TestReportChain:
    @pytest.mark.parametrize("n", [2, 3])
    def test_chain_consistency(self, transplant_maps, corpora, n):
        maps = transplant_maps(n)
        for u in corpora(n, size=10, seed=999):
            rep = transplant_report(u, maps)
            # key - lemma is the signed grad defect minus the signed Hardy defect
            budget = (rep.identity_grad_defect * max(1.0, rep.grad_u)
                      + rep.identity_hardy_defect * max(1.0, rep.hardy_u))
            gap = abs(rep.key_margin - rep.hardy_lemma_margin)
            assert gap <= budget + 1e-14 * max(1.0, rep.grad_u)

    def test_report_fields(self, transplant_maps, corpora):
        maps = transplant_maps(2)
        rep = transplant_report(corpora(2, size=2, seed=1)[0], maps)
        d = rep.to_dict()
        for key in ("grad_u", "grad_v", "hardy_u", "identity_grad_defect",
                    "identity_hardy_defect", "hardy_lemma_margin", "key_margin",
                    "mt_comparison_margin"):
            assert key in d
            assert np.isfinite(d[key])

    @pytest.mark.parametrize("n", [2, 3])
    def test_views_equal_report(self, transplant_maps, corpora, n):
        maps = transplant_maps(n, beta=n / 2)
        for u in corpora(n, size=10, seed=999):
            rep = transplant_report(u, maps)
            v = pushforward(u, maps)
            assert verify_grad_identity(u, v, maps) == rep.identity_grad_defect
            assert verify_hardy_identity(u, v, maps) == rep.identity_hardy_defect
            assert check_mt_comparison(u, v, maps).margin == rep.mt_comparison_margin


class TestImageGrid:
    """make_maps' default t-grid, on which a(t_i) = r_i for every potential."""

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("potential", ["hardy", "hardy+lambda=1.0", "const=2.0",
                                           "const=0.5"])
    def test_corpus_defects_and_margins(self, green_tables, corpora, n, potential):
        maps = make_maps(green_tables(n, potential, 4096, 1e-6, 1e-10))
        for u in corpora(n, size=50, seed=1234):
            rep = transplant_report(u, maps)
            assert rep.identity_grad_defect <= 5e-5
            assert rep.identity_hardy_defect <= 5e-5
            assert rep.key_margin >= 0.0
            # the key margin is the lemma margin up to the two identities' defects
            assert abs(rep.key_margin - rep.hardy_lemma_margin) <= 1e-4

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_grad_defect_second_order_in_r_grid(self, green_tables, corpora, n):
        worst = []
        for n_points in (1024, 2048):
            maps = make_maps(green_tables(n, "hardy", n_points, 1e-6, 1e-10))
            worst.append(max(transplant_report(u, maps).identity_grad_defect
                             for u in corpora(n, size=50, seed=1234, n_points=n_points)))
        # the r-grid's second-order quadrature error, and nothing that falls faster or slower
        assert 0.2 * worst[0] <= worst[1] <= 0.35 * worst[0]

    @pytest.mark.parametrize("n, beta", [(2, 0.5), (3, 2.5)])
    def test_mt_integrand_reads_ln_t_as_minus_g_over_gamma(self, green_tables, corpora, n, beta):
        # the weight t^(n-beta-1) comes from the exact ln t the grid was built from, not from
        # np.log of its rounded exponential
        table = green_tables(n, "hardy", 1024, 1e-6, 1e-10)
        maps = make_maps(table, beta=beta)
        ln_t = -table.g_values / make_constants(n).gamma
        assert np.array_equal(maps.t_grid.xi, ln_t)
        for u in corpora(n, size=6, seed=1234, n_points=1024):
            v = pushforward(u, maps)
            vals, clamped = mt_integrand(v.values, v.grid, n, beta)
            x = mt_exponent(v.values, n, beta) + (n - beta - 1.0) * ln_t
            assert not clamped.any()
            assert vals.tobytes() == np.exp(x).tobytes()


def _reference_fields(u, maps):
    """A profile's report fields from the one-profile functionals, outside the chain."""
    n, beta, c = maps.n, maps.beta, make_constants(maps.n)
    node_data = u.values if u.grid is maps.image_of else u(maps.a)
    v = RadialProfile(maps.t_grid, np.maximum.accumulate(node_data[::-1])[::-1])
    grad_u, grad_v = hl.grad_energy(u, n), hl.grad_energy(v, n)
    vp_pow = np.abs(v.slopes) ** n * maps.t_grid.nodes ** (n - 1)
    grad_phi = c.omega * integrate(vp_pow * maps.phi, maps.t_grid)
    hardy_u = potential_term(u, maps.potential, n)
    hardy_t = c.omega * integrate(v.values**n * maps.hardy_weight, maps.t_grid)
    mt_u, mt_v = hl.singular_mt(u, n, beta), hl.singular_mt(v, n, beta)
    mt_u_via_t = c.omega * integrate(mt_integrand(v.values, v.grid, n, beta)[0] * maps.psi,
                                     maps.t_grid)
    return {
        "grad_u": grad_u,
        "grad_v": grad_v,
        "hardy_u": hardy_u,
        "identity_grad_defect": abs(grad_u - (grad_v + grad_phi)) / max(1.0, grad_u),
        "identity_hardy_defect": abs(hardy_u - hardy_t) / max(1.0, hardy_u),
        "hardy_lemma_margin": grad_phi - hardy_t,
        "key_margin": (grad_u - hardy_u) - grad_v,
        "mt_comparison_margin": math.exp((1.0 - beta / n) * c.alpha_n * maps.c_g) * mt_v.value
                                - mt_u.value,
        "psi_identity_defect": abs(mt_u_via_t - mt_u.value) / max(1.0, mt_u.value),
        "overflow": mt_u.overflow or mt_v.overflow,
    }


class TestStackedReports:
    """transplant_report of a corpus stack: one report per row, each that of the row alone."""

    @pytest.mark.parametrize("t_grid", ["image", "n_t"])
    @pytest.mark.parametrize("potential", ["zero", "hardy", "const=0.5"])
    @pytest.mark.parametrize("n, beta", [(2, 0.0), (3, 0.0), (3, 2.5), (4, 0.0), (4, 2.5)])
    def test_rows_match_independent_reference(self, green_tables, grids, n, beta, potential,
                                              t_grid):
        table = green_tables(n, potential, 1024, 1e-6, 1e-10)
        maps = make_maps(table, beta=beta, n_t=None if t_grid == "image" else 1536)
        stack = seeded_corpus(grids(1024, 1e-6), n, 6, 17)  # each of the three shapes twice
        assert stack.values.shape == (6, 1024)
        reports = transplant_report(stack, maps)
        assert len(reports) == 6
        for row, rep in zip(stack.rows(), reports):
            got, ref = rep.to_dict(), _reference_fields(row, maps)
            assert got.keys() == ref.keys()
            assert got.pop("overflow") is ref.pop("overflow")
            for key, value in ref.items():
                assert abs(got[key] - value) <= 1e-13 * max(1.0, abs(value)), (key, got[key], value)
            assert transplant_report(row, maps) == rep  # the one-row case, to the bit
