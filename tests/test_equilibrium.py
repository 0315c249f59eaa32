import math

import numpy as np
import pytest

from teamgames import equilibrium
from teamgames.equilibrium import (
    _best_positive_response,
    _conjunctive_gift,
    _replacement_gifts,
    critical_thresholds,
    enumerate_disjunctive_equilibria,
    max_achievable_utility,
    replacement_additive,
    replacement_conjunctive,
    share_function,
    solve_equilibrium_concave,
    standalone_value,
    strongly_conjunctive_limit,
    verify_epsilon_nash,
)
from teamgames.errors import (
    ConfigurationError,
    InputError,
    NoEquilibriumError,
    RegimeError,
    UnsupportedEvaluationError,
    WrongSolverError,
)
from teamgames.evaluation import EvaluationSpec, score_scalar
from teamgames.experiments import solve_cell
from teamgames.games import GameSpec, ces_aggregate


def game(rho=1.0, expertise=(1.0, 1.0), b=5.0, kind="logistic", alpha=2.0,
         betas=None, delta_t=10.0, d=10.0, gamma=2.0):
    n = len(expertise)
    ev = EvaluationSpec("identity") if kind == "identity" else EvaluationSpec(
        kind, d=d, gamma=gamma, b=b)
    return GameSpec(n=n, rho=rho, betas=betas or (1.0,) * n, delta_t=delta_t,
                    expertise=expertise, alpha=alpha, evaluation=ev)


def bisect_oracle(f, lo, hi, iters=200):
    """Independent plain bisection used to freeze expected values."""
    flo = f(lo)
    for _ in range(iters):
        mid = 0.5 * (lo + hi)
        fm = f(mid)
        if (fm < 0) == (flo < 0):
            lo, flo = mid, fm
        else:
            hi = mid
    return 0.5 * (lo + hi)


class TestReplacementAdditive:
    def test_canonical_public_good_formula(self):
        # identity evaluation and full expertise reduce to r = w - alpha*G
        g = game(kind="identity")
        assert replacement_additive(4.0, 0, g) == pytest.approx(2.0)

    def test_clamps_to_zero(self):
        g = game(b=5.0)
        assert replacement_additive(20.0, 0, g) == 0.0

    def test_logistic_value(self):
        g = game(b=5.0)
        expected = 10.0 - (1.0 + math.exp(-2.0))
        assert replacement_additive(4.0, 0, g) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(8.8647, abs=1e-4)

    def test_wrong_rho_rejected(self):
        with pytest.raises(WrongSolverError):
            replacement_additive(4.0, 0, game(rho=0.5))

    def test_heaviside_rejected(self):
        with pytest.raises(UnsupportedEvaluationError):
            replacement_additive(4.0, 0, game(kind="heaviside"))

    def test_non_increasing_in_G(self):
        g = game(b=5.0, expertise=(0.7, 0.7))
        grid = np.linspace(0.0, 10.0, 300)
        vals = [replacement_additive(x, 0, g) for x in grid]
        diffs = np.diff(vals)
        assert np.all(diffs <= 1e-12)
        positive = [v > 0 for v in vals[:-1]]
        assert all(d < 0 for d, pos in zip(diffs, positive) if pos)


class TestReplacementConjunctive:
    def test_boundary_clamp_when_opportunity_cost_vanishes(self):
        # identity evaluation at G -> 0 for 0 < rho < 1 makes the right side
        # vanish, so the first-order condition binds at the cap
        r = _conjunctive_gift(0.0, 0.5, 1.0, 1.0, 2.0, 10.0, 0.5)
        assert r == pytest.approx(10.0)

    def test_domain_error_names_regime(self):
        g = game(rho=-10.0, b=5.0)
        g_bar = standalone_value(0, g)
        with pytest.raises(RegimeError, match="rho < 0"):
            replacement_conjunctive(g_bar + 1.0, 0, g)
        g2 = game(rho=0.5, b=5.0)
        g2_bar = standalone_value(0, g2)
        with pytest.raises(RegimeError, match="0 < rho < 1"):
            replacement_conjunctive(g2_bar / 2.0, 0, g2)

    def test_wrong_rho_rejected(self):
        with pytest.raises(WrongSolverError):
            replacement_conjunctive(4.0, 0, game(rho=1.0))

    def test_satisfies_implicit_equation(self):
        g = game(rho=-10.0, b=5.0, expertise=(0.8, 0.8))
        G = 2.0
        r = replacement_conjunctive(G, 0, g)
        # plug back into sigma/sigma' * G**(rho-1) = (dt - r/p)(beta p/alpha) r**(rho-1)
        ratio = (1.0 + math.exp(2.0 * (G - 5.0))) / 2.0
        lhs = math.log(ratio) + (g.rho - 1) * math.log(G)
        rhs = math.log((10.0 - r / 0.8) * (0.8 / 2.0)) + (g.rho - 1) * math.log(r)
        assert lhs == pytest.approx(rhs, abs=1e-9)


class TestComparativeStatics:
    """Sign checks of the conjunctive replacement's parameter derivatives."""

    def _solve(self, ratio, G, p, beta, alpha, dt, rho):
        return _conjunctive_gift(ratio, G, p, beta, alpha, dt, rho)

    def test_signs_on_random_instances(self):
        rng = np.random.default_rng(1234)
        h = 1e-6
        checked = 0
        while checked < 100:
            rho = rng.uniform(-50.0, 0.8)
            if abs(rho) < 1e-3:
                continue
            p = rng.uniform(0.2, 1.0)
            beta = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(0.5, 3.0)
            dt = 10.0
            G = rng.uniform(0.2, 6.0)
            ratio = rng.uniform(0.3, 5.0)
            base = self._solve(ratio, G, p, beta, alpha, dt, rho)
            if not 1e-6 < base < p * dt - 1e-6:
                continue
            assert self._solve(ratio, G, p, beta, alpha + h, dt, rho) < base  # more leisure taste
            assert self._solve(ratio, G, p, beta + h, alpha, dt, rho) > base  # heavier weight
            assert self._solve(ratio, G, p, beta, alpha, dt + h, rho) > base  # longer turn
            assert self._solve(ratio, G, p + h * p, beta, alpha, dt, rho) > base  # more expertise
            assert self._solve(ratio + h, G, p, beta, alpha, dt, rho) < base  # higher opportunity cost
            checked += 1


class TestStronglyConjunctiveLimit:
    def test_identity_closed_form(self):
        assert strongly_conjunctive_limit(game(rho=-500.0, kind="identity")) == pytest.approx(
            2.0, abs=1e-9)

    def test_logistic_value(self):
        # independent oracle: root of G + 2*exp(2*(G-5)) = 8
        expected = bisect_oracle(lambda G: G + 2.0 * math.exp(2.0 * (G - 5.0)) - 8.0, 0.0, 10.0)
        got = strongly_conjunctive_limit(game(rho=-500.0, b=5.0))
        assert got == pytest.approx(expected, abs=1e-9)
        assert got / 10.0 == pytest.approx(0.52, abs=0.01)

    def test_large_team_shrinks_to_zero(self):
        g = GameSpec(n=1000, rho=-500.0, betas=(1.0,) * 1000, delta_t=10.0,
                     expertise=(1.0,) * 1000, alpha=2.0,
                     evaluation=EvaluationSpec("identity"))
        got = strongly_conjunctive_limit(g)
        assert got == pytest.approx(10.0 / (1.0 + 1000 * 2.0), rel=1e-9)

    def test_heterogeneous_rejected(self):
        with pytest.raises(RegimeError):
            strongly_conjunctive_limit(game(rho=-500.0, expertise=(0.3, 0.8)))

    def test_consistency_with_solver_at_rho_minus_500(self):
        for p in (1.0, 0.7):
            g = game(rho=-500.0, expertise=(p, p), b=5.0)
            limit = strongly_conjunctive_limit(g)
            solved = solve_equilibrium_concave(g)
            assert len(solved) == 1
            assert solved[0].aggregate_G == pytest.approx(limit, rel=0.01)


class TestStandalone:
    def test_identity_closed_form(self):
        # g = dt/(1+alpha) regardless of rho
        g = game(rho=500.0, kind="identity")
        assert standalone_value(0, g) == pytest.approx(10.0 / 3.0, rel=1e-9)

    def test_logistic_full_expertise(self):
        expected = bisect_oracle(lambda x: 10.0 - x - (1.0 + math.exp(2.0 * (x - 5.0))), 0.0, 10.0)
        g = game(rho=500.0, b=5.0)
        assert standalone_value(0, g) == pytest.approx(expected, abs=1e-9)
        assert expected / 10.0 == pytest.approx(0.56, abs=0.005)

    def test_logistic_p08(self):
        expected = bisect_oracle(lambda x: 8.0 - x - (1.0 + math.exp(2.0 * (x - 5.0))), 0.0, 8.0)
        g = game(rho=500.0, expertise=(0.3, 0.8), b=5.0)
        assert standalone_value(1, g) == pytest.approx(expected, abs=1e-9)
        assert expected / 8.0 == pytest.approx(0.659, abs=0.005)

    def test_zero_expertise(self):
        g = game(rho=1.0, expertise=(0.0, 0.8))
        assert standalone_value(0, g) == 0.0


class TestSolveConcave:
    def test_hard_additive_heterogeneous_pair(self):
        g = game(rho=1.0, expertise=(0.3, 0.8), b=7.0)
        results = solve_equilibrium_concave(g)
        assert len(results) == 1
        r = results[0]
        assert r.aggregate_G == pytest.approx(7.0, abs=1e-4)
        assert r.actions[0] == pytest.approx(1.0 / 3.0, abs=1e-4)
        assert r.actions[1] == pytest.approx(0.75, abs=1e-4)
        np.testing.assert_allclose(r.gifts, (1.0, 6.0), atol=1e-3)
        assert r.residual <= 1e-8

    def test_symmetric_additive_logistic(self):
        # independent oracle: root of G + 2*exp(2*(G-5)) = 18
        expected_G = bisect_oracle(lambda G: G + 2.0 * math.exp(2.0 * (G - 5.0)) - 18.0, 0.0, 18.0)
        r = solve_equilibrium_concave(game(rho=1.0, b=5.0))[0]
        assert r.aggregate_G == pytest.approx(expected_G, abs=1e-8)
        assert r.actions[0] == pytest.approx(0.295, abs=0.005)

    def test_canonical_public_good(self):
        r = solve_equilibrium_concave(game(rho=1.0, kind="identity"))[0]
        assert r.aggregate_G == pytest.approx(4.0, abs=1e-6)
        assert r.actions == pytest.approx((0.2, 0.2), abs=1e-6)

    def test_heterogeneous_weakest_link_matches_gifts(self):
        g = game(rho=-500.0, expertise=(0.3, 0.8), b=5.0)
        r = solve_equilibrium_concave(g)[0]
        assert r.actions[0] == pytest.approx(0.60123, abs=2e-4)
        assert r.actions[1] == pytest.approx(0.22620, abs=2e-4)
        assert abs(r.gifts[0] - r.gifts[1]) <= 0.01 * max(r.gifts)

    def test_quasi_conjunctive_rho_between_zero_and_one(self):
        g = game(rho=0.5, expertise=(0.5, 0.9), b=5.0)
        results = solve_equilibrium_concave(g)
        assert results
        for r in results:
            assert r.residual <= 1e-8

    def test_result_consistency_invariants(self):
        for g in (game(rho=1.0, expertise=(0.3, 0.8), b=7.0),
                  game(rho=-10.0, expertise=(0.5, 0.7), b=5.0)):
            for r in solve_equilibrium_concave(g):
                caps = np.asarray(g.expertise) * g.delta_t
                np.testing.assert_allclose(
                    r.gifts, np.asarray(r.actions) * caps, atol=1e-9)
                assert r.aggregate_G == pytest.approx(
                    ces_aggregate(r.gifts, g.rho, g.betas), abs=1e-6)
                assert r.residual <= 1e-8

    def test_all_weak_additive_has_zero_equilibrium(self):
        g = game(rho=1.0, expertise=(0.05, 0.05), b=5.0)
        results = solve_equilibrium_concave(g)
        assert len(results) == 1
        assert results[0].aggregate_G == 0.0
        assert results[0].active_set == ()

    def test_degenerate_weakest_link_reports_no_equilibrium(self):
        g = game(rho=-10.0, expertise=(0.0, 0.8), b=5.0)
        with pytest.raises(NoEquilibriumError):
            solve_equilibrium_concave(g)

    def test_disjunctive_rejected(self):
        with pytest.raises(WrongSolverError):
            solve_equilibrium_concave(game(rho=10.0))

    def test_heaviside_rejected(self):
        with pytest.raises(UnsupportedEvaluationError):
            solve_equilibrium_concave(game(rho=1.0, kind="heaviside"))


class TestCriticalThresholds:
    def test_ordering(self):
        for rho in (3.0, 10.0, 500.0):
            thr = critical_thresholds(0, game(rho=rho, b=5.0))
            assert 0 < thr.g_star
            assert 0 < thr.G_minus_star
            assert thr.G_star <= thr.standalone + 1e-12

    def test_indifference_residual(self):
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        # utility of contributing g_star on top of G_minus_star equals the
        # utility of free-riding on G_minus_star
        G = (thr.g_star ** g.rho + thr.G_minus_star ** g.rho) ** (1.0 / g.rho)
        u_in = (10.0 - thr.g_star) ** 2 * (10.0 / (1.0 + math.exp(-2.0 * (G - 5.0))))
        u_out = 10.0 ** 2 * (10.0 / (1.0 + math.exp(-2.0 * (thr.G_minus_star - 5.0))))
        assert u_in == pytest.approx(u_out, rel=1e-6)

    def test_best_response_flips_at_threshold(self):
        # grid oracle on the opponent axis: the best response is positive
        # below G_minus_star and zero above it
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        for G_minus, expect_positive in ((thr.G_minus_star * 0.9, True),
                                         (thr.G_minus_star * 1.1, False)):
            opp_gift = G_minus  # beta = 1
            utilities = []
            for a in np.linspace(0.0, 1.0, 101):
                own = a * 10.0
                G = ces_aggregate((own, opp_gift), g.rho, g.betas)
                score = 10.0 / (1.0 + math.exp(-2.0 * (G - 5.0)))
                utilities.append((10.0 * (1 - a)) ** 2 * score)
            best = int(np.argmax(utilities))
            assert (best > 0) == expect_positive

    def test_single_valuedness_violation_raises(self):
        with pytest.raises(RegimeError, match="single-valued"):
            critical_thresholds(0, game(rho=1.1, b=5.0))

    def test_wrong_rho(self):
        with pytest.raises(WrongSolverError):
            critical_thresholds(0, game(rho=1.0))

    @pytest.mark.parametrize("rho,alpha", [(1.5, 500.0), (3.0, 400.0)])
    def test_overflowing_utilities_refused_by_name(self, rho, alpha):
        # delta_t ** alpha = 10 ** alpha is beyond the float range; this raised
        # a bare OverflowError from the free-riding payoff
        g = GameSpec(n=2, rho=rho, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.5, 0.9),
                     alpha=alpha, evaluation=EvaluationSpec("identity"))
        for call in (lambda: critical_thresholds(0, g), lambda: solve_cell(g)):
            with pytest.raises(InputError, match=r"x \*\* alpha \* score must be finite"):
                call()
        with pytest.raises(InputError, match="alpha"):
            max_achievable_utility(g)


class TestShareFunction:
    def test_endpoints(self):
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        assert share_function(0, thr.standalone, g) == pytest.approx(1.0, abs=1e-9)
        expected = thr.g_star ** g.rho / thr.G_star ** g.rho
        assert share_function(0, thr.G_star, g) == pytest.approx(expected, rel=1e-6)
        assert expected > 0

    def test_strictly_increasing(self):
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        grid = np.linspace(thr.G_star, thr.standalone, 100)
        vals = [share_function(0, x, g) for x in grid]
        assert all(b > a for a, b in zip(vals, vals[1:]))

    def test_zero_branch(self):
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        assert share_function(0, thr.G_minus_star + 0.1, g, branch="zero") == 0.0
        with pytest.raises(RegimeError):
            share_function(0, thr.G_minus_star - 0.5, g, branch="zero")

    def test_positive_branch_domain(self):
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        with pytest.raises(RegimeError):
            share_function(0, thr.G_star * 0.5, g)


class TestEnumerateDisjunctive:
    def test_symmetric_best_shot_two_sole_contributors(self):
        results = enumerate_disjunctive_equilibria(game(rho=500.0, b=5.0))
        assert len(results) == 2
        actions = sorted(tuple(round(a, 4) for a in r.actions) for r in results)
        assert actions[0][0] == 0.0 and actions[1][1] == 0.0
        active_action = actions[0][1]
        assert active_action == pytest.approx(0.56, abs=0.01)

    def test_heterogeneous_best_shot_strong_sole_contributor(self):
        results = enumerate_disjunctive_equilibria(
            game(rho=500.0, expertise=(0.3, 0.8), b=5.0))
        assert any(
            r.active_set == (1,) and r.actions[1] == pytest.approx(0.659, abs=0.005)
            for r in results)

    def test_nested_subsets_produce_more(self):
        # a task mild enough that joint contribution is an equilibrium
        g = game(rho=1.5, b=1.0, expertise=(1.0, 1.0, 1.0))
        results = enumerate_disjunctive_equilibria(g)
        by_set = {r.active_set: r.aggregate_G for r in results}
        multi = [s for s in by_set if len(s) > 1]
        assert multi
        for s in multi:
            for k in range(1, len(s)):
                import itertools
                for sub in itertools.combinations(s, k):
                    assert sub in by_set
                    assert by_set[sub] > by_set[s]

    def test_share_sum_residual(self):
        for r in enumerate_disjunctive_equilibria(game(rho=500.0, b=5.0)):
            assert r.residual <= 1e-8

    def test_share_sum_a_hair_below_one_at_standalone(self):
        # Default-grid cell rho = 3, b = 7, team (0.3, 0.3): S(standalone) - 1
        # is -2.1e-10, inside the band that used to reach the bisection with
        # two negative ends and raise "no sign change".
        from teamgames.experiments import SweepConfig, cell_game
        g = cell_game(SweepConfig(), 0.3, 0.3, 3.0, 7.0)
        results = enumerate_disjunctive_equilibria(g)
        assert sorted(r.active_set for r in results) == [(0,), (1,)]
        eps = 1e-3 * max_achievable_utility(g)
        for r in results:
            assert r.aggregate_G == pytest.approx(1.99995, abs=1e-4)
            assert verify_epsilon_nash(r.actions, g, eps, grid_step=0.01,
                                       refine_step=1e-4).is_nash

    def test_subset_cap(self):
        g = GameSpec(n=3, rho=10.0, betas=(1,) * 3, delta_t=10.0,
                     expertise=(1.0,) * 3, alpha=2.0,
                     evaluation=EvaluationSpec("logistic", d=10, gamma=2, b=5))
        with pytest.raises(ConfigurationError, match="subset_cap"):
            enumerate_disjunctive_equilibria(g, subset_cap=2)

    def test_wrong_rho(self):
        with pytest.raises(WrongSolverError):
            enumerate_disjunctive_equilibria(game(rho=1.0))


class TestEpsilonNash:
    def test_hard_additive_equilibrium_is_nash(self):
        g = game(rho=1.0, expertise=(0.3, 0.8), b=7.0)
        eps = 0.005 * max_achievable_utility(g)
        check = verify_epsilon_nash((1.0 / 3.0, 0.75), g, eps)
        assert check.is_nash

    def test_all_zero_not_nash(self):
        g = game(rho=1.0, expertise=(0.3, 0.8), b=7.0)
        eps = 0.005 * max_achievable_utility(g)
        check = verify_epsilon_nash((0.0, 0.0), g, eps)
        assert not check.is_nash
        assert check.best_deviation[0] == 1  # the stronger player moves first

    def test_single_player_standalone(self):
        g = GameSpec(n=1, rho=1.0, betas=(1.0,), delta_t=10.0, expertise=(1.0,),
                     alpha=2.0, evaluation=EvaluationSpec("identity"))
        a = standalone_value(0, g) / 10.0
        check = verify_epsilon_nash((a,), g, 1e-3 * max_achievable_utility(g))
        assert check.is_nash

    def test_heaviside_supported(self):
        g = game(rho=1.0, expertise=(0.5, 0.5), kind="heaviside", b=5.0)
        check = verify_epsilon_nash((0.9, 0.9), g, 1e-9)
        assert check.max_gain > 0  # lowering own effort keeps the pass and adds leisure

    @pytest.mark.filterwarnings("ignore:overflow encountered")
    def test_overflowing_utilities_refused_by_name(self):
        # 10 ** 500 is beyond the float range: every payoff overflowed, and any
        # profile passed as an equilibrium with a gain of -inf
        g = GameSpec(n=2, rho=1.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.9, 0.9),
                     alpha=500.0, evaluation=EvaluationSpec("identity"))
        with pytest.raises(InputError, match=r"x \*\* alpha \* score must be finite"):
            verify_epsilon_nash((0.5, 0.5), g, 1e-3)

    def test_bad_grid_step(self):
        g = game(rho=1.0)
        with pytest.raises(Exception):
            verify_epsilon_nash((0.5, 0.5), g, 0.1, grid_step=0.03)

    def test_refinement_tightens(self):
        g = game(rho=1.0, expertise=(0.3, 0.8), b=7.0)
        r = solve_equilibrium_concave(g)[0]
        eps = 1e-3 * max_achievable_utility(g)
        coarse = verify_epsilon_nash(r.actions, g, eps, grid_step=0.01)
        fine = verify_epsilon_nash(r.actions, g, eps, grid_step=0.01, refine_step=1e-4)
        assert fine.max_gain >= coarse.max_gain - 1e-12
        assert fine.is_nash


class TestScalingInvariance:
    @pytest.mark.parametrize("scale", [0.5, 3.0, 100.0])
    def test_d_scaling_leaves_actions_unchanged(self, scale):
        base_cases = [
            game(rho=1.0, expertise=(0.3, 0.8), b=7.0),
            game(rho=-10.0, expertise=(0.5, 0.7), b=5.0),
        ]
        for g in base_cases:
            scaled = GameSpec(
                n=g.n, rho=g.rho, betas=g.betas, delta_t=g.delta_t,
                expertise=g.expertise, alpha=g.alpha,
                evaluation=EvaluationSpec("logistic", d=10.0 * scale, gamma=2.0,
                                          b=g.evaluation.b))
            for r1, r2 in zip(solve_equilibrium_concave(g),
                              solve_equilibrium_concave(scaled)):
                np.testing.assert_allclose(r1.actions, r2.actions, atol=1e-9)
        g = game(rho=500.0, b=5.0)
        scaled = GameSpec(
            n=2, rho=500.0, betas=g.betas, delta_t=10.0, expertise=(1.0, 1.0),
            alpha=2.0,
            evaluation=EvaluationSpec("logistic", d=10.0 * scale, gamma=2.0, b=5.0))
        r1 = enumerate_disjunctive_equilibria(g)
        r2 = enumerate_disjunctive_equilibria(scaled)
        for a, b in zip(r1, r2):
            np.testing.assert_allclose(a.actions, b.actions, atol=1e-9)


class TestSolverEquilibriaPassOracle:
    @pytest.mark.parametrize("g", [
        game(rho=1.0, expertise=(0.3, 0.8), b=7.0),
        game(rho=1.0, expertise=(1.0, 1.0), b=5.0),
        game(rho=-10.0, expertise=(0.9, 0.9), b=5.0),
        game(rho=-500.0, expertise=(0.3, 0.8), b=5.0),
        game(rho=0.5, expertise=(0.5, 0.9), b=3.0),
    ], ids=["hard-additive", "sym-additive", "conj10", "conj500", "quasi-conj"])
    def test_concave(self, g):
        eps = 1e-3 * max_achievable_utility(g)
        for r in solve_equilibrium_concave(g):
            check = verify_epsilon_nash(r.actions, g, eps, grid_step=0.01,
                                        refine_step=1e-4)
            assert check.is_nash, (r, check)

    @pytest.mark.parametrize("g", [
        game(rho=500.0, expertise=(1.0, 1.0), b=5.0),
        game(rho=500.0, expertise=(0.3, 0.8), b=5.0),
        game(rho=10.0, expertise=(0.5, 0.5), b=7.0),
        game(rho=1.5, expertise=(1.0, 1.0), b=1.0),
    ], ids=["disj-sym", "disj-het", "disj10", "disj-mild"])
    def test_disjunctive(self, g):
        eps = 1e-3 * max_achievable_utility(g)
        for r in enumerate_disjunctive_equilibria(g):
            check = verify_epsilon_nash(r.actions, g, eps, grid_step=0.01,
                                        refine_step=1e-4)
            assert check.is_nash, (r, check)


class TestSinglePlayerDisjunctive:
    def test_single_player_equilibrium_is_standalone(self):
        g = GameSpec(n=1, rho=10.0, betas=(1.0,), delta_t=10.0, expertise=(1.0,),
                     alpha=2.0,
                     evaluation=EvaluationSpec("logistic", d=10, gamma=2, b=5))
        results = enumerate_disjunctive_equilibria(g)
        assert len(results) == 1
        assert results[0].aggregate_G == pytest.approx(standalone_value(0, g), abs=1e-9)


class TestMalformedInput:
    @pytest.mark.parametrize("step", [0.0, -0.5, math.nan, math.inf])
    def test_grid_step_named(self, step):
        with pytest.raises(InputError, match="grid_step"):
            verify_epsilon_nash((0.5, 0.5), game(rho=1.0), 0.1, grid_step=step)

    @pytest.mark.parametrize("step", [0.0, -1e-4, math.nan, math.inf])
    def test_refine_step_named(self, step):
        with pytest.raises(InputError, match="refine_step"):
            verify_epsilon_nash((0.5, 0.5), game(rho=1.0), 0.1, refine_step=step)

    @pytest.mark.parametrize("epsilon", [math.nan, math.inf, -math.inf])
    def test_epsilon_named(self, epsilon):
        with pytest.raises(InputError, match="epsilon"):
            verify_epsilon_nash((0.5, 0.5), game(rho=1.0), epsilon)

    @pytest.mark.parametrize("call,rho", [
        (lambda i, g: replacement_additive(4.0, i, g), 1.0),
        (lambda i, g: replacement_conjunctive(8.0, i, g), 0.5),
        (standalone_value, 10.0),
        (critical_thresholds, 10.0),
        (lambda i, g: share_function(i, 4.5, g), 10.0),
    ], ids=["replacement_additive", "replacement_conjunctive", "standalone_value",
            "critical_thresholds", "share_function"])
    @pytest.mark.parametrize("player", [-1, 2, 5, 0.5])
    def test_player_named(self, call, rho, player):
        # -1 read the last player and 2 raised a bare IndexError
        with pytest.raises(InputError, match=r"player must be an integer in \[0, 1\]"):
            call(player, game(rho=rho))

    @pytest.mark.parametrize("num_brackets", [0, -3])
    def test_num_brackets_named(self, num_brackets):
        with pytest.raises(InputError, match="num_brackets"):
            solve_equilibrium_concave(game(rho=1.0), num_brackets=num_brackets)


def _scan_grid(g):
    """The concave solver's bracket grid, over the players who can contribute."""
    standalones = [standalone_value(i, g) for i, p in enumerate(g.expertise) if p > 0]
    G_max = g.max_aggregate()
    if g.rho == 1:
        return np.linspace(0.0, G_max, 2049)
    if g.rho > 0:
        return np.linspace(max(standalones), G_max, 2049)
    hi = min(standalones)
    return np.linspace(hi * 1e-9, hi, 2049)


class TestReplacementGiftsParity:
    """The batched scan agrees with the scalar replacement maps at every grid point."""

    @pytest.mark.parametrize("rho", [-500.0, -100.0, -3.0, 0.5, 1.0])
    @pytest.mark.parametrize("expertise", [(0.8,), (0.3, 0.9), (0.0, 0.5, 0.9)],
                             ids=["n1", "n2", "n3-p0"])
    @pytest.mark.parametrize("kind", ["logistic", "identity"])
    def test_matches_scalar_maps(self, rho, expertise, kind):
        g = game(rho=rho, expertise=expertise, b=3.0, kind=kind,
                 betas=(1.0, 1.7, 0.6)[:len(expertise)])
        grid = _scan_grid(g)
        batched = _replacement_gifts(g, grid)
        if rho == 1:
            scalar = np.array([[replacement_additive(G, i, g) for G in grid]
                               for i in range(g.n)])
        else:
            scalar = np.array([[replacement_conjunctive(G, i, g) for G in grid]
                               for i in range(g.n)])
        xtol = (np.asarray(expertise) * g.delta_t * 1e-14)[:, None]
        assert np.all(np.abs(batched - scalar) <= xtol)
        signs = [np.sign(ces_aggregate(gifts, g.rho, g.betas) - grid)
                 for gifts in (batched, scalar)]
        np.testing.assert_array_equal(signs[0], signs[1])

    @pytest.mark.parametrize("rho", [-500.0, -3.0, 0.5, 1.0])
    def test_solver_reports_the_scalar_scan_equilibria(self, rho, monkeypatch):
        # only the scan's signs come from the batch, so the equilibria are bitwise
        # those of a scan that calls the scalar maps point by point
        g = game(rho=rho, expertise=(0.3, 0.5, 0.9), b=3.0)
        batched = solve_equilibrium_concave(g)
        assert batched
        fn = replacement_additive if rho == 1 else replacement_conjunctive
        monkeypatch.setattr(equilibrium, "_replacement_gifts", lambda g, grid: np.array(
            [[fn(G, i, g) for G in grid] for i in range(g.n)]))
        assert solve_equilibrium_concave(g) == batched

    @pytest.mark.parametrize("rho,kind,expected", [
        (-3.0, "identity", 0.0), (-3.0, "logistic", 0.0),
        (0.5, "identity", 9.0), (0.5, "logistic", 0.0)])
    def test_zero_aggregate(self, rho, kind, expected):
        # at G = 0 a zero ratio (identity) leaves the cap only for rho > 0, and a
        # positive ratio meets G**(rho-1) = +inf, so the root tends to 0
        g = game(rho=rho, expertise=(0.0, 0.9), b=5.0, kind=kind)
        assert replacement_conjunctive(0.0, 1, g, standalone=0.0) == expected
        np.testing.assert_array_equal(_replacement_gifts(g, np.array([0.0])),
                                      [[0.0], [expected]])

    def test_solver_starts_at_zero_aggregate_between_zero_and_one(self):
        # every standalone value is 0, so the scan starts at G = 0 (a math
        # domain error in math.log before)
        g = game(rho=0.5, expertise=(0.1, 0.1), b=5.0)
        results = solve_equilibrium_concave(g)
        assert results[0].aggregate_G == 0.0
        eps = 1e-3 * max_achievable_utility(g)
        for r in results:
            assert verify_epsilon_nash(r.actions, g, eps, grid_step=0.01,
                                       refine_step=1e-4).is_nash


def _ternary_best_positive_response(g, player, G_minus, grid=256):
    """Reference best positive response: a point-by-point scalar grid, then
    ternary refinement of the bracket around its argmax, or around the
    interior local maximum where the smallest gift wins the grid; where the
    refinement collapses onto the corner, the smallest grid gift."""
    p = g.expertise[player]
    cap = p * g.delta_t
    bscale = g.betas[player] ** (1.0 / g.rho)

    def agg2(w, v):
        # (w**rho + v**rho)**(1/rho) for w > 0, v >= 0
        if v == 0.0:
            return w
        a, b = g.rho * math.log(w), g.rho * math.log(v)
        m = max(a, b)
        return math.exp((m + math.log(math.exp(a - m) + math.exp(b - m))) / g.rho)

    def u(x):
        G = agg2(bscale * x, G_minus)
        return max(g.delta_t - x / p, 0.0) ** g.alpha * score_scalar(g.evaluation, G)

    gs = np.linspace(0.0, cap, grid + 1)[1:]
    us = np.array([u(x) for x in gs])
    j = int(np.argmax(us))
    rise = np.flatnonzero(us[1:] > us[:-1])
    if j == 0 and rise.size:
        # the smallest gift wins: take the interior local maximum past the rise
        j = int(rise[0] + 1 + np.argmax(us[rise[0] + 1:]))
    lo = gs[j - 1] if j > 0 else cap * 1e-12
    hi = gs[j + 1] if j + 1 < len(gs) else gs[-1]
    for _ in range(200):
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        if u(m1) < u(m2):
            lo = m1
        else:
            hi = m2
        if hi - lo <= cap * 1e-14:
            break
    g_best = 0.5 * (lo + hi)
    if g_best < cap * 1e-11:
        # no interior maximum: the smallest grid gift stands in for the corner
        return gs[0], us[0]
    return g_best, u(g_best)


class TestBestPositiveResponse:
    @pytest.mark.parametrize("rho", [1.5, 3.0, 10.0, 500.0])
    @pytest.mark.parametrize("kind,alpha", [("logistic", 2.0), ("logistic", 1.631),
                                            ("identity", 0.7)])
    def test_array_grid_matches_scalar_grid(self, rho, kind, alpha):
        # the zoom grid never scores below the ternary search, and lands on
        # the same gift up to the flatness of the utility at its peak
        g = game(rho=rho, expertise=(0.81, 0.5), b=4.0, kind=kind, alpha=alpha,
                 betas=(1.3, 1.0))
        cap = 0.81 * g.delta_t
        for G_minus in np.linspace(0.0, 1.2 * g.max_aggregate(), 25):
            g_new, u_new = _best_positive_response(g, 0, G_minus)
            g_ref, u_ref = _ternary_best_positive_response(g, 0, G_minus)
            if g_new == g_ref:  # one point, scored by the array and the scalar code
                assert u_new == pytest.approx(u_ref, rel=1e-14)
            else:
                assert u_new >= u_ref
            assert abs(g_new - g_ref) <= 1e-7 * cap

    @pytest.mark.parametrize("rho,expected", [(3.0, 4.413672041469965),
                                              (10.0, 4.135312522529363),
                                              (500.0, 4.127949843620842)])
    def test_threshold_unchanged_by_zoom_grid(self, rho, expected):
        # the values the ternary search and bisection gave, to the root-finder's
        # xtol; the indifference gap h changes sign within xtol of the threshold
        g = game(rho=rho, b=5.0)
        thr = critical_thresholds(0, g)
        xtol = max(thr.standalone, 1.0) * 1e-13
        assert abs(thr.G_minus_star - expected) <= xtol

        def h(G_minus):
            return _best_positive_response(g, 0, G_minus)[1] - equilibrium._u_zero(g, G_minus)

        assert h(thr.G_minus_star - xtol) > 0 > h(thr.G_minus_star + xtol)

    @pytest.mark.parametrize("rho,alpha,G_minus_star,g_star", [
        (3.0, 300.0, 0.0012473450970508838, 0.0031240735152),
        (10.0, 300.0, 0.0012242306473590741, 0.00332210621575),
        (1.5, 500.0, 0.00093219756514713156, 0.0011631338421),
    ], ids=["rho3", "rho10", "rho1.5"])
    def test_threshold_with_gift_below_first_grid_cell(self, rho, alpha, G_minus_star,
                                                       g_star):
        # the gift at the threshold lies below cap/256, so the first grid only
        # falls and the interior maximum is found on a finer level, where the
        # corner g -> 0+ still beats its coarse grid points; expected values
        # from a 50-digit search (ternary argmax, secant root)
        g = game(rho=rho, kind="identity", alpha=alpha, delta_t=1.0)
        thr = critical_thresholds(0, g)
        assert abs(thr.G_minus_star - G_minus_star) <= 1e-13
        assert thr.g_star == pytest.approx(g_star, rel=1e-6)

    def test_no_nan_when_leisure_rounds_below_zero(self):
        # at g = cap, dt - cap/p rounds to -1.8e-15 for p = 0.81; with a
        # non-integer alpha its power was NaN, which np.argmax took as the best
        g = GameSpec(n=2, rho=3.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.81, 0.5),
                     alpha=1.631, evaluation=EvaluationSpec("identity"))
        gift, u = _best_positive_response(g, 0, 0.0)
        assert gift == pytest.approx(3.0787, abs=1e-3)
        assert u == pytest.approx(60.35, abs=1e-2)
        assert critical_thresholds(0, g).G_minus_star == pytest.approx(1.466, abs=1e-3)


class TestBrent:
    @pytest.mark.parametrize("f,lo,hi,root", [
        (lambda x: (x - 1.0) * (x + 2.0) * (x - 4.0), 0.0, 3.0, 1.0),
        (lambda x: math.exp(x) - 2.0, -1.0, 5.0, math.log(2.0)),
        (lambda x: 2.0 - math.exp(x), -1.0, 5.0, math.log(2.0)),
    ], ids=["cubic", "exp", "exp-falling"])
    def test_root_within_xtol(self, f, lo, hi, root):
        assert abs(equilibrium._brent(f, lo, hi, xtol=1e-12) - root) <= 1e-12

    def test_returns_an_end_at_a_root(self):
        def f(x):
            return x - 1.0
        assert equilibrium._brent(f, 1.0, 3.0, xtol=1e-12) == 1.0
        assert equilibrium._brent(f, -2.0, 1.0, xtol=1e-12) == 1.0
        # the caller's end values are used, not recomputed
        assert equilibrium._brent(f, 0.0, 3.0, xtol=1e-12, fhi=0.0) == 3.0

    def test_no_sign_change_names_the_interval(self):
        with pytest.raises(InputError, match=r"no sign change on \[2.0, 3.0\]"):
            equilibrium._brent(lambda x: x - 1.0, 2.0, 3.0, xtol=1e-12)

    def test_infinite_end(self):
        def f(x):
            return math.inf if x == 0.0 else 1.0 / x - 2.0
        assert abs(equilibrium._brent(f, 0.0, 4.0, xtol=1e-13) - 0.5) <= 1e-13

    @pytest.mark.parametrize("rho", [3.0, 10.0, 500.0])
    def test_threshold_takes_few_evaluations(self, rho, monkeypatch):
        # every h evaluation is one best response, and one more follows the
        # root; bisection took 45 or more, and Brent on a gap whose negative
        # side was a plateau of about -1e-10 took 22 to 24
        calls = []
        best = equilibrium._best_positive_response
        monkeypatch.setattr(equilibrium, "_best_positive_response",
                            lambda *args, **kwargs: calls.append(args) or best(*args, **kwargs))
        critical_thresholds(0, game(rho=rho, b=5.0))
        assert len(calls) - 1 <= 13

    @pytest.mark.parametrize("rho", [3.0, 10.0, 500.0])
    def test_gap_is_clearly_negative_above_threshold(self, rho):
        # above the threshold the corner g -> 0+ wins with a utility just below
        # free-riding's; the gap scores the interior local maximum instead, so
        # Brent sees a slope there rather than a plateau of about -1e-10
        g = game(rho=rho, b=5.0)
        thr = critical_thresholds(0, g)
        G_minus = thr.G_minus_star + 0.1 * thr.standalone
        u_zero = equilibrium._u_zero(g, G_minus)
        gap = _best_positive_response(g, 0, G_minus)[1] - u_zero
        assert gap < -1e-3 * u_zero


class TestConjunctiveRootBelowBracket:
    def test_zero_gift_when_root_lies_below_bracket(self):
        # rho = 0.1 with a steep logistic: f(cap * 1e-300) < 0, so the gift is 0
        g = GameSpec(n=2, rho=0.1, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.5, 0.9),
                     alpha=2.0, evaluation=EvaluationSpec("logistic", d=10.0, gamma=100.0,
                                                          b=0.5))
        assert replacement_conjunctive(7.0, 0, g) == 0.0
        np.testing.assert_array_equal(_replacement_gifts(g, np.array([7.0])), [[0.0], [0.0]])
        results = solve_equilibrium_concave(g)
        assert len(results) == 1
        assert results[0].aggregate_G == pytest.approx(0.6206, abs=1e-4)
        eps = 1e-3 * max_achievable_utility(g)
        assert verify_epsilon_nash(results[0].actions, g, eps, grid_step=0.01,
                                   refine_step=1e-4).is_nash


class TestConjunctiveFixedPointAtScanStart:
    @pytest.mark.parametrize("rho,p", [(0.1, 0.9), (0.5, 0.81)])
    @pytest.mark.parametrize("kind,gamma", [("identity", 2.0), ("logistic", 2.0),
                                            ("logistic", 100.0)])
    def test_lone_player_standalone_is_found(self, rho, p, kind, gamma):
        # the scan starts at the standalone point, the lone player's fixed
        # point, where R(G) - G is a rounding residue of 1e-15 to 1e-12,
        # often negative, rather than an exact zero
        g = game(rho=rho, expertise=(p,), kind=kind, gamma=gamma)
        results = solve_equilibrium_concave(g)
        assert len(results) == 1
        assert results[0].aggregate_G == pytest.approx(standalone_value(0, g), rel=1e-9)
        eps = 1e-3 * max_achievable_utility(g)
        assert verify_epsilon_nash(results[0].actions, g, eps, grid_step=0.01,
                                   refine_step=1e-4).is_nash
