import math

import numpy as np
import pytest
from scipy.linalg import solve_banded

import hmtlab as hl
from hmtlab import (
    DegenerateProfileError,
    HmtError,
    MoserParams,
    PreconditionError,
    RadialProfile,
    boundedness_sweep,
    divergence_probe,
    estimate_lambda1,
    grad_energy,
    h_functional,
    improved_sweep,
    make_grid,
    maximize_mt,
    moser_profile,
    normalize_h,
    seeded_corpus,
    singular_mt,
)
from hmtlab.extremal import (
    SearchOptions,
    _ascend,
    _h_surrogate,
    _h_surrogate_gradient,
    _surrogate_weights,
    boundary_tail_profile,
    pav_nonincreasing,
)
from hmtlab.functionals import singular_mt_with_gradient
from hmtlab.quad_core import TAIL_SPAN, AndersonMixer


class TestMoserProfile:
    @pytest.mark.parametrize("rho", [0.5, 2.0**-5, 2.0**-15])
    def test_unit_gradient_energy(self, grids, rho):
        g = grids(2048, 1e-6)
        u = moser_profile(MoserParams(rho=rho, n=2), g)
        assert grad_energy(u, 2) == pytest.approx(1.0, abs=1e-9)

    def test_plateau_and_boundary(self, grids):
        g = grids(2048, 1e-6)
        u = moser_profile(MoserParams(rho=0.25, n=2), g)
        idx = int(np.argmin(np.abs(g.nodes - 0.25)))
        assert u.values[idx] == pytest.approx(u.values[0], rel=1e-12)
        assert u.values[-1] == 0.0

    def test_plateau_value_closed_form(self, grids):
        # for rho = e^-k in two dimensions the plateau is (k / 2 pi)^(1/2)
        g = grids(4096, 1e-6)
        k = 5
        u = moser_profile(MoserParams(rho=math.exp(-k), n=2), g)
        assert u.values[0] == pytest.approx(math.sqrt(k / (2 * math.pi)), rel=5e-3)

    def test_param_validation(self):
        with pytest.raises(PreconditionError):
            MoserParams(rho=1.5, n=2)

    @pytest.mark.parametrize("rho, end", [(2e-10, "first"), (2.0**-40, "first"), (0.54, "last")])
    def test_corner_on_end_node_rejected(self, rho, end):
        # nodes run 1e-10, 4.6e-8, ..., 0.505, 0.55: each rho is nearest to an end node
        g = make_grid(16, 0.45)
        with pytest.raises(PreconditionError, match=f"{end} grid node"):
            moser_profile(MoserParams(rho=rho, n=2), g)

    @pytest.mark.parametrize("k", [30, 31, 32])
    def test_corner_near_r_min_rejected(self, grids, k):
        # the plateau below r_min = 1e-10 is cut off; these rows came out 0.45-8% low
        g = grids(2048, 1e-6)
        with pytest.raises(PreconditionError, match="below 16 x r_min"):
            moser_profile(MoserParams(rho=2.0**-k, n=2), g)

    def test_corner_clear_of_r_min_accepted(self, grids):
        g = grids(2048, 1e-6)
        u = moser_profile(MoserParams(rho=2.0**-29, n=2), g)  # 18.6 r_min
        assert grad_energy(u, 2) == pytest.approx(1.0, abs=1e-9)


class TestNormalizeH:
    def test_quadratic_scale(self, grids):
        g = grids(4096, 1e-6)
        u = RadialProfile(g, g.one_minus_r2)
        h_val = h_functional(u, 2)
        assert h_val == pytest.approx(math.pi, abs=1e-3)
        scaled = normalize_h(u, 2)
        assert np.allclose(scaled.values, u.values / math.sqrt(h_val), rtol=1e-12)
        assert h_functional(scaled, 2) == pytest.approx(1.0, abs=1e-10)

    def test_idempotent(self, grids):
        g = grids(4096, 1e-6)
        u = normalize_h(RadialProfile(g, g.one_minus_r2), 2)
        again = normalize_h(u, 2)
        assert np.max(np.abs(again.values - u.values)) < 1e-10

    def test_zero_profile_degenerate(self, grids):
        g = grids(2048, 1e-6)
        with pytest.raises(DegenerateProfileError):
            normalize_h(RadialProfile(g, np.zeros_like(g.nodes)), 2)


class TestBoundednessSweep:
    def test_scale_one_bounded(self, grids):
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=2.0**-k, n=2) for k in range(1, 13)]
        points = boundedness_sweep(2, 0.0, family, 1.0, g)
        vals = np.array([p.value for p in points])
        assert np.all(np.isfinite(vals))
        assert vals.max() / vals.min() < 20
        assert not any(p.overflow for p in points)

    def test_supercritical_scale_grows(self, grids):
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=2.0**-k, n=2) for k in range(1, 21)]
        vals = [p.value for p in boundedness_sweep(2, 0.0, family, 1.1, g)]
        assert vals[19] > vals[4]


class TestDivergenceProbe:
    @pytest.mark.parametrize("n", [2, 3])
    def test_dichotomy_direction(self, grids, n):
        g = grids(4096, 1e-6)
        rows = divergence_probe(n, 0.0, list(range(1, 13)), g)
        low = np.array([r.value_low for r in rows])
        high = np.array([r.value_high for r in rows])
        # m = n column stays within a tight band; m = n-1 grows along the family
        assert high.max() / high.min() < 20
        assert low[-1] / low[0] > 4.0
        assert np.all(np.diff(low) > 0)

    def test_zero_profile_columns(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, np.zeros_like(g.nodes))
        assert hl.hyperbolic_mt(u, 2, 0.0, 1).value == 0.0
        assert hl.hyperbolic_mt(u, 2, 0.0, 2).value == 0.0

    def test_family_profiles_admissible(self, grids):
        g = grids(2048, 1e-6)
        for k in (1, 4, 8):
            u = boundary_tail_profile(g, 2, k)
            assert u.is_nonincreasing(tol=1e-12)
            assert u.values[-1] == 0.0
            assert h_functional(u, 2) > 0

    def test_family_index_below_one_rejected(self, grids):
        g = grids(2048, 1e-6)
        with pytest.raises(PreconditionError, match="family index must be >= 1, got 0"):
            boundary_tail_profile(g, 2, 0)
        with pytest.raises(PreconditionError, match="family index must be >= 1, got 0"):
            divergence_probe(2, 0.0, [3, 0, -1], g)


def _raised(call):
    """The type and message of the error that call() raises."""
    with pytest.raises(HmtError) as exc:
        call()
    return type(exc.value), str(exc.value)


class TestFamilyStacks:
    """Each family is evaluated as one stack: every row, and the error a family raises, is that
    of its member alone."""

    @pytest.mark.parametrize("n, beta", [(2, 0.0), (3, 1.5), (4, 0.5)])
    def test_sweep_rows_are_members_alone(self, grids, n, beta):
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=2.0**-k, n=n) for k in range(1, 30)]
        sweeps = {"boundedness": lambda fam: boundedness_sweep(n, beta, fam, 40.0, g),
                  "improved": lambda fam: improved_sweep(n, beta, 1.0, fam, g, lambda1_hat=2.7)}
        for name, sweep in sweeps.items():
            rows = sweep(family)
            assert rows == [sweep([p])[0] for p in family]
            assert [type(x) for row in rows for x in row] == [float, float, bool, bool] * 29
            assert rows[-1].overflow == (name == "boundedness")  # scale 40 clamps at EXP_CLAMP

    @pytest.mark.parametrize("n, beta", [(2, 0.0), (3, 0.0), (3, 1.5)])
    def test_probe_rows_are_members_alone(self, grids, n, beta):
        g = grids(2048, 1e-6)
        ks = list(range(1, 15))
        rows = divergence_probe(n, beta, ks, g)
        assert rows == [divergence_probe(n, beta, [k], g)[0] for k in ks]
        assert [type(x) for row in rows for x in row] == [float, float, bool, float, bool] * 14

    def test_empty_families(self, grids):
        g = grids(2048, 1e-6)
        assert boundedness_sweep(2, 0.0, [], 1.0, g) == []
        assert divergence_probe(2, 0.0, [], g) == []

    def test_corner_error_names_the_first_member_in_family_order(self):
        # on 256 nodes 2^-33 snaps to the first node and 2^-30 to a node below 16 r_min
        g = make_grid(256, 1e-6)
        first_node, near_r_min = MoserParams(2.0**-33, 2), MoserParams(2.0**-30, 2)
        for family, match in (([first_node, near_r_min], "first grid node"),
                              ([near_r_min, first_node], "below 16 x r_min")):
            family = [MoserParams(0.25, 2)] + family
            err = _raised(lambda: boundedness_sweep(2, 0.0, family, 1.0, g))
            assert err[0] is PreconditionError and match in err[1]
            assert err == _raised(lambda: moser_profile(family[1], g))

    def test_degenerate_error_names_the_first_member_in_family_order(self, grids):
        # h / ||u||_2^2 rises from 4.4 at rho = 1/2 along the family, so lam = 10 leaves
        # h - lam ||u||_n^n <= 0 at k = 1..4; the reversed family meets k = 4 first
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=2.0**-k, n=2) for k in range(12, 0, -1)]
        err = _raised(lambda: improved_sweep(2, 0.0, 10.0, family, g, lambda1_hat=100.0))
        assert err[0] is DegenerateProfileError and err[1].endswith("at rho=0.0625")
        assert err == _raised(lambda: improved_sweep(2, 0.0, 10.0, [family[8]], g, 100.0))

    def test_member_of_another_dimension_rejected(self, grids):
        # each member is built and measured at the sweep's n
        g = grids(2048, 1e-6)
        with pytest.raises(PreconditionError, match=r"rho=0\.1 has n=3, the sweep n=2"):
            boundedness_sweep(2, 0.0, [MoserParams(0.1, 3)], 1.0, g)
        family = [MoserParams(0.5, 2), MoserParams(0.25, 4), MoserParams(0.1, 3)]
        with pytest.raises(PreconditionError, match=r"rho=0\.25 has n=4, the sweep n=2"):
            improved_sweep(2, 0.0, 1.0, family, g, lambda1_hat=2.7)


class TestPAV:
    def test_projects_to_nonincreasing(self):
        rng = np.random.default_rng(3)
        y = rng.uniform(0, 1, 200)
        w = rng.uniform(0.5, 2.0, 200)
        out = pav_nonincreasing(y, w)
        assert np.all(np.diff(out) <= 1e-12)

    def test_identity_on_nonincreasing(self):
        y = np.linspace(1.0, 0.0, 50)
        out = pav_nonincreasing(y, np.ones_like(y))
        assert np.allclose(out, y)

    def test_weighted_projection_optimal(self):
        rng = np.random.default_rng(11)
        y = rng.uniform(0, 1, 300)
        w = rng.uniform(0.1, 3.0, 300)
        out = pav_nonincreasing(y, w)
        assert np.dot(w, out) == pytest.approx(np.dot(w, y), rel=1e-12)
        best = np.dot(w, (out - y) ** 2)
        # out + (non-increasing) is non-increasing: a projection is no farther from y
        for _ in range(200):
            step = 10.0 ** rng.uniform(-4, 0)
            cand = out + step * np.sort(rng.normal(size=y.size))[::-1]
            assert best <= np.dot(w, (cand - y) ** 2)

    def test_hand_pooled(self):
        # 1 < 2 pools to 4/3 (weights 2 and 1); 6 then pools the three to 2.5
        y = np.array([5.0, 1.0, 2.0, 6.0, 0.0])
        w = np.array([1.0, 2.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(pav_nonincreasing(y, w), [5.0, 2.5, 2.5, 2.5, 0.0], rtol=1e-15)


@pytest.fixture(scope="module")
def ascent_grid():
    return make_grid(1024, 1e-6)


# The unmixed ascent (plain steps only, stopped at a relative change of 1e-12) from the CLI
# start on make_grid(1024, 1e-6): its last node objective F_end and its _el_residual
PLAIN_ASCENT = {
    (2, 0.0): (89.69827384178447, 1.607e-06),
    (2, 1.0): (67.83038638141164, 5.655e-06),
    (3, 0.0): (96.66127740653693, 1.209e-05),
    (3, 1.0): (96.2597568378739, 2.468e-05),
    (4, 0.0): (120.30588416027153, 2.727e-05),
    (4, 2.0): (148.4205236726256, 8.558e-05),
}


class TestMaximizeMT:
    @pytest.fixture()
    def grid(self, ascent_grid):
        return ascent_grid

    def test_ascent_property_and_trajectory(self, grid):
        for g in (grid, make_grid(1024, 1e-12)):
            start = RadialProfile(g, 0.5 * g.one_minus_r2)
            rep = maximize_mt(2, 0.0, g, start, SearchOptions(max_iter=80))
            start_val = singular_mt(normalize_h(start, 2), 2, 0.0).value
            assert rep.best_value >= start_val, g.epsilon
            vals = [v for _, v in rep.trajectory]
            assert all(b >= a for a, b in zip(vals, vals[1:])), g.epsilon
            assert rep.constraint_residual <= 1e-8
            assert rep.best_profile.is_nonincreasing(tol=1e-12)

    def test_multistart_stability(self, grid):
        vals = []
        for seed in range(5):
            corpus = seeded_corpus(grid, 2, 5, 100 + seed).rows()
            rep = maximize_mt(2, 0.0, grid, corpus[seed % 5],
                              SearchOptions(max_iter=120))
            vals.append(rep.best_value)
        vals = np.array(vals)
        assert (vals.max() - vals.min()) / vals.min() < 0.02

    def test_beta_ordering(self, grid):
        start = RadialProfile(grid, 0.5 * grid.one_minus_r2)
        r0 = maximize_mt(2, 0.0, grid, start, SearchOptions(max_iter=120))
        r1 = maximize_mt(2, 1.0, grid, start, SearchOptions(max_iter=120))
        assert r1.best_value < r0.best_value

    def test_stall_flag_is_not_error(self, grid):
        # the first run stops at max_iter short of convergence (it needs 64 steps here)
        start = RadialProfile(grid, 0.5 * grid.one_minus_r2)
        first = maximize_mt(2, 0.0, grid, start, SearchOptions(max_iter=30))
        assert first.stalled
        again = maximize_mt(2, 0.0, grid, first.best_profile,
                            SearchOptions(max_iter=400))
        assert isinstance(again.stalled, bool)
        assert again.best_value >= first.best_value * (1 - 1e-12)

    def test_degenerate_start(self, grid):
        with pytest.raises(DegenerateProfileError):
            maximize_mt(2, 0.0, grid, RadialProfile(grid, np.zeros_like(grid.nodes)))

    @pytest.mark.parametrize("n,beta", [(2, 0.0), (2, 1.0), (3, 0.0), (3, 1.0), (4, 0.0),
                                        (4, 2.0)])
    def test_converged_discrete_maximizer(self, ascent_runs, n, beta):
        rep = ascent_runs(n, beta)
        assert not rep.stalled
        traj = np.array([v for _, v in rep.trajectory])
        assert np.all(np.diff(traj) >= 0.0)
        assert np.all(np.diff(rep.best_profile.values) <= 0.0)
        assert _el_residual(rep, n, beta) <= 1e-4

    @pytest.mark.parametrize("n,beta", sorted(PLAIN_ASCENT))
    def test_mixing_reaches_a_tighter_optimum(self, ascent_runs, n, beta):
        rep = ascent_runs(n, beta)
        f_end, el = PLAIN_ASCENT[n, beta]
        assert rep.trajectory[-1][1] >= f_end
        assert _el_residual(rep, n, beta) <= el

    def test_steps_at_cli_defaults(self, grids):
        grid = grids(2048, 1e-6)
        mt = maximize_mt(2, 0.0, grid, _cli_start(grid))
        lam = estimate_lambda1(2, grid)
        assert not mt.stalled and mt.iterations <= 100  # the plain ascent took 533 steps
        assert not lam.stalled and lam.iterations <= 30  # and 45
        assert lam.trajectory[-1][1] <= 2.364542898575714  # its ratio_end

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_value_never_decreases_across_rejected_mixed_steps(self, grid, n, monkeypatch):
        outcomes = []
        original = hl.extremal._mixed_step

        def recorded(*args):
            step = original(*args)
            outcomes.append(step is not None)
            return step

        monkeypatch.setattr(hl.extremal, "_mixed_step", recorded)
        mt = maximize_mt(n, 0.0, grid, _cli_start(grid))
        lam = estimate_lambda1(n, grid)
        assert True in outcomes and False in outcomes
        assert np.all(np.diff([v for _, v in mt.trajectory]) >= 0.0)
        assert np.all(np.diff([v for _, v in lam.trajectory]) <= 0.0)  # the ratio 1 / F

    def test_grid_convergence(self, ascent_runs):
        fine = maximize_mt(2, 0.0, make_grid(2048, 1e-6), _cli_start(make_grid(2048, 1e-6)))
        assert ascent_runs(2, 0.0).best_value == pytest.approx(fine.best_value, rel=5e-3)

    def test_start_independence(self, grid, ascent_runs):
        vals = [ascent_runs(2, 0.0).best_value]
        for start in seeded_corpus(grid, 2, 4, 2024).rows():
            vals.append(maximize_mt(2, 0.0, grid, start).best_value)
        assert (max(vals) - min(vals)) / min(vals) <= 1e-8

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_one_step_never_lowers_either_objective(self, grid, n):
        # the monotonicity lemma of _ascend holds for every convex F: the MT sum and the n-norm
        omega = hl.make_constants(n).omega
        mass = _surrogate_weights(grid, n)[3]
        evaluators = [
            lambda v: singular_mt_with_gradient(v, grid, n, 0.0),
            lambda v: (omega * float(np.dot(mass, v**n)), omega * n * mass * v ** (n - 1)),
        ]
        for start in seeded_corpus(grid, n, 20, 77).rows():
            for evaluate in evaluators:
                _, traj, _ = _ascend(start.values, grid, n, evaluate, max_iter=1)
                assert traj[1][1] >= traj[0][1]

    def test_one_integrand_per_iterate(self, grid, monkeypatch):
        # each node array's value and gradient come from one integrand: every iterate, every
        # rejected mixed step and the report's profile is a different array, formed once
        calls = []
        original = hl.functionals.mt_integrand

        def counted(*args):
            calls.append(args[0].tobytes())
            return original(*args)

        monkeypatch.setattr(hl.functionals, "mt_integrand", counted)
        rep = maximize_mt(2, 0.0, grid, _cli_start(grid), SearchOptions(max_iter=40))
        assert rep.iterations == 40
        assert len(set(calls)) == len(calls)
        assert rep.iterations + 2 <= len(calls) <= 2 * rep.iterations + 2

    def test_surrogate_weights_built_once_per_search(self, grid, monkeypatch):
        # the ascent builds the deficit weights once, not once per step
        calls = []

        def counted(*args):
            calls.append(args)
            return _surrogate_weights(*args)

        monkeypatch.setattr(hl.extremal, "_surrogate_weights", counted)
        rep = maximize_mt(2, 0.0, grid, _cli_start(grid), SearchOptions(max_iter=40))
        assert rep.iterations == 40
        assert 1 <= len(calls) <= 2

    @pytest.mark.parametrize("n_points", [64, 128])
    def test_coarse_grid_raises(self, n_points):
        # 128 nodes: the deficit of the maximizer is 2-4% higher on the profile than on the
        # nodes; 64 nodes: an iterate's deficit on the nodes goes negative
        grid = make_grid(n_points, 1e-6)
        with pytest.raises(hl.DiscretizationFailureError):
            maximize_mt(2, 0.0, grid, _cli_start(grid))


class TestBufferedStep:
    """_ascend's buffered step against the step written as plain numpy expressions."""

    STEPS = 5

    @pytest.fixture(scope="class")
    def grid(self):
        return make_grid(2048, 1e-6)

    def _check(self, grid, n, start, evaluate, reference_evaluate):
        u, traj, _ = _ascend(start, grid, n, evaluate, max_iter=self.STEPS)
        ref_u, ref_traj = _reference_ascent(start, grid, n, reference_evaluate, self.STEPS)
        assert len(traj) == len(ref_traj) == self.STEPS + 1
        assert np.array_equal(u, ref_u)
        assert all(v == ref for (_, v), ref in zip(traj, ref_traj))
        return u

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("beta", [0.0, 1.0])
    def test_mt_step_to_the_bit(self, grid, n, beta):
        start = hl.functionals.nonincreasing_majorant(_cli_start(grid).values)
        self._check(grid, n, start, lambda v: singular_mt_with_gradient(v, grid, n, beta),
                    lambda v: _reference_mt(v, grid, n, beta))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_lambda1_step_to_the_bit(self, grid, n):
        omega = hl.make_constants(n).omega
        mass = _surrogate_weights(grid, n)[3]

        def evaluate(v):
            return omega * float(np.dot(mass, v**n)), omega * n * mass * v ** (n - 1)

        start = np.maximum(grid.one_minus_r2**1.5 - grid.one_minus_r2[-1] ** 1.5, 0.0)
        self._check(grid, n, start, evaluate, evaluate)

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_h_surrogate_to_the_bit(self, grid, n):
        # the reference ascent rescales with _h_surrogate itself; its buffered and unbuffered
        # forms equal the plain expression
        omega = hl.make_constants(n).omega
        weights = dr, cell, hardy, _ = _surrogate_weights(grid, n)
        for u in [_cli_start(grid).values] + list(seeded_corpus(grid, n, 3, 5).values):
            plain = omega * (float(np.dot(np.abs(np.diff(u) / dr) ** n, cell))
                             - float(np.dot(u**n, hardy)))
            assert _h_surrogate(u, weights, n) == plain
            assert _h_surrogate(u, weights, n, np.empty(u.size)) == plain

    @pytest.mark.parametrize("n,beta", [(2, 0.0), (3, 1.0), (4, 0.0)])
    def test_clamped_step_to_the_bit(self, grid, n, beta):
        # the ascent rescales its start to unit deficit, where no node clamps; the objective
        # F(u) = MT(30 u) clamps hundreds of nodes by the last iterate instead
        start = hl.functionals.nonincreasing_majorant(_cli_start(grid).values)
        u = self._check(grid, n, start,
                        lambda v: singular_mt_with_gradient(30.0 * v, grid, n, beta),
                        lambda v: _reference_mt(30.0 * v, grid, n, beta))
        assert hl.functionals.mt_integrand(30.0 * u, grid, n, beta)[1].sum() >= 100


def _reference_mt(v, grid, n, beta):
    """singular_mt_with_gradient as plain numpy expressions, each forming a new array."""
    c = hl.make_constants(n)
    u_pow = v * np.sqrt(v) if n == 3 else v ** (n / (n - 1.0))
    x = 1.0 * (1.0 - beta / n) * c.alpha_n * u_pow + (n - beta - 1.0) * grid.xi
    vals, clamped = np.exp(np.minimum(x, hl.quad_core.EXP_CLAMP)), x > hl.quad_core.EXP_CLAMP
    inner = (1.0 - beta / n) * c.alpha_n * (n / (n - 1.0)) * np.maximum(v, 0.0) ** (
        1.0 / (n - 1.0))
    return (c.omega * float(np.dot(vals, grid.weights)),
            np.where(clamped, 0.0, c.omega * grid.weights * vals * inner))


def _reference_ascent(u, grid, n, evaluate, steps):
    """``steps`` ascent steps as plain numpy expressions: the cumsum/append solve, no buffers.

    The mixing goes through the shared AndersonMixer, with _ascend's acceptance rule for a
    mixed step; the run takes all ``steps`` steps, so _ascend's stopping rule is left out.
    """
    omega = hl.make_constants(n).omega
    weights = _surrogate_weights(grid, n)
    dr, cell, hardy, _ = weights

    def unit_deficit(v):
        return v * _h_surrogate(v, weights, n) ** (-1.0 / n)

    u = unit_deficit(u)
    value, grad_f = evaluate(u)
    trajectory = [value]
    mixer = AndersonMixer(u.size)
    for _ in range(steps):
        tau = n / float(np.dot(grad_f, u))
        rhs = hardy * u ** (n - 1) + tau / (omega * n) * grad_f
        flux = np.cumsum(rhs[:-1])
        slope = (flux * dr / cell) ** (1.0 / (n - 1))
        plain = unit_deficit(np.append(np.cumsum((slope * dr)[::-1])[::-1], 0.0))
        mixed = mixer.mix(plain - u, plain)
        if mixed is not None:
            ok = (np.all(np.isfinite(mixed)) and np.all(np.diff(mixed) <= 0.0)
                  and mixed[-1] >= 0.0 and _h_surrogate(mixed, weights, n) > 0.0)
            if ok:
                mixed = unit_deficit(mixed)
                mixed_value, mixed_grad = evaluate(mixed)
                ok = mixed_value >= value
            if ok:
                u, value, grad_f = mixed, mixed_value, mixed_grad
                trajectory.append(value)
                continue
            mixer.restart()
        u = plain
        value, grad_f = evaluate(u)
        trajectory.append(value)
    return u, trajectory


def _el_residual(rep, n, beta):
    """Relative Euler-Lagrange residual max |mu grad H - grad F| / max |grad F| of a search.

    The returned profile is put back on the nodes' unit deficit, where the maximizer is
    stationary: mu * grad H = grad F with mu = <grad F, u> / n.
    """
    grid = rep.best_profile.grid
    u = rep.best_profile.values
    u = u * _h_surrogate(u, _surrogate_weights(grid, n), n) ** (-1.0 / n)
    grad_f = singular_mt_with_gradient(u, grid, n, beta)[1]
    mu = float(np.dot(grad_f, u)) / n
    residual = mu * _h_surrogate_gradient(u, grid, n) - grad_f
    return np.max(np.abs(residual[:-1])) / np.max(np.abs(grad_f))


def _cli_start(grid):
    return RadialProfile(grid, 0.5 * grid.one_minus_r2)


@pytest.fixture(scope="module")
def ascent_runs(ascent_grid):
    cache = {}

    def get(n, beta):
        if (n, beta) not in cache:
            cache[n, beta] = maximize_mt(n, beta, ascent_grid, _cli_start(ascent_grid))
        return cache[n, beta]

    return get


def _fd_violations(value_fn, x, analytic, eligible, rng, count=10, rel_tol=1e-5):
    """Nodes where an analytic node gradient disagrees with central differences.

    Checked nodes are drawn from ``eligible``: positive values in the uniform
    mesh zone.  At zero-valued nodes inside the geometric tails the
    second-order term of the difference quotient, divided by h, swamps a
    vanishing gradient and says nothing about the formula being tested.
    """
    pool = np.flatnonzero(eligible)
    idx = pool[rng.integers(0, pool.size, size=min(count, pool.size))]
    h = 1e-6 * max(1.0, float(np.max(np.abs(x))))
    bad = []
    for j in np.unique(idx):
        xp = x.copy()
        xp[j] += h
        xm = x.copy()
        xm[j] = max(xm[j] - h, 0.0)
        fd = (value_fn(xp) - value_fn(xm)) / (xp[j] - xm[j])
        ref = max(1.0, abs(analytic[j]), abs(fd))
        if abs(fd - analytic[j]) > rel_tol * ref * 10:
            bad.append((int(j), fd, analytic[j]))
    return bad


class TestNodeGradients:
    @pytest.fixture(params=[0, 1, 2], ids=["spline", "power", "moser"])
    def profile(self, request, ascent_grid):
        # one member of each of the corpus's three shapes
        return seeded_corpus(ascent_grid, 2, 3, 31).rows()[request.param]

    @staticmethod
    def _eligible(u):
        g = u.grid
        return ((u.values > 0.05 * float(np.max(u.values)))
                & (g.nodes > TAIL_SPAN) & (g.nodes < 0.9))

    @pytest.mark.parametrize("n,beta", [(2, 0.0), (2, 1.0), (3, 0.0), (3, 1.0)])
    def test_mt_node_gradient(self, profile, n, beta):
        g = profile.grid

        def value(x):
            return singular_mt(RadialProfile(g, x, enforce_zero_boundary=False), n, beta).value

        rng = np.random.default_rng(n + 10 * int(beta))
        grad = singular_mt_with_gradient(profile.values, g, n, beta)[1]
        bad = _fd_violations(value, profile.values.copy(), grad, self._eligible(profile), rng)
        assert bad == []

    @pytest.mark.parametrize("n", [2, 3])
    def test_h_surrogate_gradient(self, profile, n):
        g = profile.grid
        x = profile.values.copy()
        weights = _surrogate_weights(g, n)
        bad = _fd_violations(lambda v: _h_surrogate(v, weights, n), x,
                             _h_surrogate_gradient(x, g, n), self._eligible(profile),
                             np.random.default_rng(n))
        assert bad == []




class TestLambda1:
    @pytest.mark.parametrize("n", [2, 3])
    def test_positive(self, n):
        grid = make_grid(1024, 1e-6)
        rep = estimate_lambda1(n, grid, SearchOptions(max_iter=120))
        assert rep.best_value > 0
        assert rep.constraint_residual < 1e-10

    @pytest.mark.parametrize("n_points", [1024, 2048])
    def test_matches_banded_inverse_iteration(self, n_points):
        # n = 2: the smallest eigenvalue of the tridiagonal pencil (K - D) u = lam M u,
        # built from the grid with u = 0 at the last node (omega cancels)
        grid = make_grid(n_points, 1e-6)
        r = grid.nodes
        dr = np.diff(r)
        tw = np.concatenate([[0.0], dr / 2]) + np.concatenate([dr / 2, [0.0]])
        k = (r[1:] ** 2 - r[:-1] ** 2) / 2 / dr**2
        d = (r * tw / grid.one_minus_r2**2)[:-1]
        m = (r * tw)[:-1]
        bands = np.zeros((3, r.size - 1))
        bands[0, 1:] = bands[2, :-1] = -k[:-1]
        bands[1] = k - d
        bands[1, 1:] += k[:-1]
        x = np.ones(r.size - 1)
        for _ in range(30):
            y = solve_banded((1, 1), bands, m * x)
            lam = np.dot(x, m * x) / np.dot(x, m * y)
            x = y / math.sqrt(np.dot(y, m * y))
        rep = estimate_lambda1(2, grid)
        assert rep.trajectory[-1][1] == pytest.approx(lam, rel=1e-9)

    @pytest.mark.parametrize("n", [2, 3, 4, 5])
    def test_converged_discrete_minimizer(self, n):
        grid = make_grid(1024, 1e-6)
        rep = estimate_lambda1(n, grid)
        assert not rep.stalled
        traj = np.array([v for _, v in rep.trajectory])
        assert np.all(np.diff(traj) <= 0.0)
        u = rep.best_profile.values
        assert np.all(np.diff(u) <= 0.0)
        lam = traj[-1]
        dr, cell, _, mass = _surrogate_weights(grid, n)
        omega = hl.make_constants(n).omega
        residual = _h_surrogate_gradient(u, grid, n) - lam * n * omega * mass * u ** (n - 1)
        # scale: the largest term of the node equations, a face flux of the gradient part
        face_flux = n * omega * cell * np.abs(np.diff(u) / dr) ** (n - 1) / dr
        assert np.max(np.abs(residual[:-1])) <= 1e-6 * np.max(face_flux)
        assert rep.best_value == pytest.approx(lam, rel=5e-3)

    def test_coarse_grid_without_discrete_hardy_bound_raises(self):
        # 32 nodes cannot resolve the boundary layer at eps = 1e-12: the discrete deficit goes negative
        with pytest.raises(hl.DiscretizationFailureError):
            estimate_lambda1(2, make_grid(32, 1e-12))

    def test_coarse_grid_with_unresolved_minimizer_raises(self):
        # 128 nodes at eps = 1e-6: profile ratio 2.478 against 2.204 on the nodes, a 12% gap
        with pytest.raises(hl.DiscretizationFailureError, match="not resolved"):
            estimate_lambda1(2, make_grid(128, 1e-6))

    def test_grid_stability(self):
        vals = {}
        for n_points in (1024, 2048):
            rep = estimate_lambda1(2, make_grid(n_points, 1e-6), SearchOptions(max_iter=120))
            vals[n_points] = rep.best_value
        assert vals[1024] == pytest.approx(vals[2048], rel=0.05)

    def test_ratio_scale_invariance(self, grids):
        g = grids(2048, 1e-6)
        u = RadialProfile(g, g.one_minus_r2**1.5)
        r1 = h_functional(u, 2) / hl.ln_norm_pow(u, 2)
        u2 = u.scaled(2.0)
        r2 = h_functional(u2, 2) / hl.ln_norm_pow(u2, 2)
        assert abs(r1 - r2) <= 1e-10 * max(1.0, r1)


class TestImprovedSweep:
    @pytest.mark.parametrize("n,beta", [(2, 0.0), (2, 1.0), (3, 0.0), (3, 1.5)])
    def test_lambda_zero_reduces_to_boundedness(self, grids, n, beta):
        # h - 0.0 * ||u||_n^n is h itself, so the rows agree bit for bit
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=2.0**-k, n=n) for k in range(1, 8)]
        base = boundedness_sweep(n, beta, family, 1.0, g)
        assert improved_sweep(n, beta, 0.0, family, g, lambda1_hat=2.7) == base

    def test_half_lambda_bounded(self, grids):
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=2.0**-k, n=2) for k in range(1, 21)]
        lam1 = 2.72
        for beta in (0.0, 1.0):
            vals = [p.value for p in improved_sweep(2, beta, 0.5 * lam1, family, g, lam1)]
            assert max(vals) / min(vals) < 20

    def test_lambda_above_threshold_rejected(self, grids):
        g = grids(2048, 1e-6)
        family = [MoserParams(rho=0.5, n=2)]
        with pytest.raises(PreconditionError):
            improved_sweep(2, 0.0, 1.5 * 2.72, family, g, lambda1_hat=2.72)


class TestSeededCorpus:
    def test_deterministic(self, grids):
        g = grids(2048, 1e-6)
        a = seeded_corpus(g, 2, 6, 42).rows()
        b = seeded_corpus(g, 2, 6, 42).rows()
        for ua, ub in zip(a, b):
            assert np.array_equal(ua.values, ub.values)

    def test_normalized_and_admissible(self, corpora):
        for u in corpora(2, size=12, seed=7):
            assert u.is_nonincreasing(tol=1e-9)
            assert u.values[-1] == 0.0
            assert h_functional(u, 2) == pytest.approx(1.0, abs=1e-9)
