import dataclasses
import math
import sys
from collections import Counter
from decimal import Decimal, localcontext

import numpy as np
import pytest

from teamgames import equilibrium
from teamgames.equilibrium import (
    NashCheck,
    _best_positive_response,
    _conjunctive_gift,
    _player_type,
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
    TeamworkGameError,
    UnsupportedEvaluationError,
    WrongSolverError,
)
from teamgames.evaluation import EvaluationSpec, eval_score, ratio_scalar, score_scalar
from teamgames.experiments import SweepConfig, _cell_specs, cell_game, solve_cell
from teamgames.games import GameSpec, _ces, _payoffs, ces_aggregate


def game(rho=1.0, expertise=(1.0, 1.0), b=5.0, kind="logistic", alpha=2.0,
         betas=None, delta_t=10.0, d=10.0, gamma=2.0):
    n = len(expertise)
    ev = EvaluationSpec("identity") if kind == "identity" else EvaluationSpec(
        kind, d=d, gamma=gamma, b=b)
    return GameSpec(n=n, rho=rho, betas=betas or (1.0,) * n, delta_t=delta_t,
                    expertise=expertise, alpha=alpha, evaluation=ev)


def _clear_type_caches():
    equilibrium._type_standalone.cache_clear()
    equilibrium._type_thresholds.cache_clear()


@pytest.fixture
def cold_types():
    """Clear the process-wide player-type caches, so a test that counts solver
    work sees it done, not read from an earlier test's solve."""
    _clear_type_caches()


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

    @pytest.mark.parametrize("rho,beta,reads", [(0.00198, 0.171, "0.0"),
                                                (-0.00231, 0.138, "inf")],
                             ids=["underflow", "overflow"])
    def test_weight_scale_out_of_range_refused_by_name(self, rho, beta, reads):
        # beta**(1/rho) underflows to 0 (a division by zero followed) or
        # overflows (a raw OverflowError), for a player of positive expertise
        g = game(rho=rho, expertise=(0.5, 0.7), betas=(beta, 1.0))
        message = (rf"standalone point for p = 0.5, beta = {beta}, rho = {rho} needs "
                   rf"beta\*\*\(1/rho\) positive and finite, got {reads}")
        with pytest.raises(InputError, match=message):
            standalone_value(0, g)
        with pytest.raises(InputError, match=message):
            solve_cell(g)

    def test_overflowing_top_refused_by_name(self):
        # beta**(1/rho) is about 1e307, finite, but beta**(1/rho)*p*delta_t is
        # not: Brent ran on [0, inf] and named a bracket no caller chose
        g = game(rho=0.01, expertise=(1.0,), betas=(10 ** 3.07,), delta_t=100.0,
                 kind="identity")
        message = (r"standalone point for p = 1.0, beta = 1174\.\d+, rho = 0.01 needs .*"
                   r"beta\*\*\(1/rho\)\*p\*delta_t finite, got inf")
        for call in (lambda: standalone_value(0, g), lambda: replacement_conjunctive(1.0, 0, g)):
            with pytest.raises(InputError, match=message):
                call()

    def test_heaviside_refused_by_name(self):
        with pytest.raises(UnsupportedEvaluationError,
                           match="standalone_value needs a smooth evaluation"):
            standalone_value(0, game(rho=10.0, kind="heaviside"))

    @pytest.mark.usefixtures("cold_types")
    def test_memo_is_bitwise_a_fresh_solve(self):
        config = SweepConfig()
        for _, p1, p2, rho, b in _cell_specs(config):
            g = cell_game(config, p1, p2, rho, b)
            for i in range(g.n):
                memo = equilibrium._standalone_pair(i, g)
                assert equilibrium._standalone_pair(i, g) is memo
                assert memo == equilibrium._type_standalone.__wrapped__(*_player_type(i, g))
                assert standalone_value(i, g) == memo[1]

    @pytest.mark.usefixtures("cold_types")
    def test_replacement_map_solves_the_standalone_point_once(self, monkeypatch):
        calls = []
        lone_root = equilibrium._lone_root
        monkeypatch.setattr(equilibrium, "_lone_root",
                            lambda *args, **kwargs: calls.append(args) or lone_root(*args, **kwargs))
        g = game(rho=-10.0, expertise=(0.5, 0.9), b=5.0)
        first = replacement_conjunctive(2.0, 0, g)
        assert replacement_conjunctive(2.0, 0, g) == first
        assert len(calls) == 1


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

    def test_lone_player_end_rule_relative_to_lo_at_small_rho(self):
        # hi = max_aggregate() grows like n**(1/rho): an end rule relative to
        # hi took lo, where f(lo) was 6.4e9, for a root
        g = game(rho=0.0291, expertise=(0.54, 0.65), alpha=2.47, betas=(1.49, 1.96),
                 delta_t=17.4, d=12.5, gamma=1.22, b=8.05)
        (r,) = solve_equilibrium_concave(g)
        assert r.aggregate_G == pytest.approx(43.716, rel=1e-4)
        assert r.residual <= 1e-9 * r.aggregate_G

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
        with pytest.raises(NoEquilibriumError) as info:
            solve_equilibrium_concave(g)
        assert info.value.scan == []  # the interval is empty: no ends to report

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
        g = GameSpec(n=11, rho=10.0, betas=(1,) * 11, delta_t=10.0,
                     expertise=(1.0,) * 11, alpha=2.0,
                     evaluation=EvaluationSpec("logistic", d=10, gamma=2, b=5))
        with pytest.raises(ConfigurationError, match=r"2\*\*11 - 1 subsets, above the cap "
                                                     r"of 10 players"):
            enumerate_disjunctive_equilibria(g)

    def test_ten_players_are_under_the_cap(self):
        results = enumerate_disjunctive_equilibria(game(rho=10.0, expertise=(1.0,) * 10))
        assert sorted(r.active_set for r in results) == [(i,) for i in range(10)]

    def test_cap_is_no_option(self):
        # the cap is a constant: the refusal hints at no option, and none lifts it
        g = game(rho=10.0, expertise=(1.0,) * 11)
        with pytest.raises(ConfigurationError) as refused:
            enumerate_disjunctive_equilibria(g)
        assert "subset_cap" not in str(refused.value)
        with pytest.raises(TypeError, match="subset_cap"):
            enumerate_disjunctive_equilibria(g, subset_cap=11)

    @pytest.mark.usefixtures("cold_types")
    def test_types_are_built_per_call_not_per_share(self, monkeypatch):
        # the enumeration and its thresholds build each type; the share
        # evaluations of the root searches take the types already built
        built, shares = [], []
        player_type, branch_share = equilibrium._player_type, equilibrium._branch_share
        monkeypatch.setattr(equilibrium, "_player_type",
                            lambda *args: built.append(args) or player_type(*args))
        monkeypatch.setattr(equilibrium, "_branch_share",
                            lambda *args: shares.append(args) or branch_share(*args))
        g = game(rho=1.5, b=1.0, expertise=(1.0, 0.9, 0.8))
        assert any(len(r.active_set) > 1 for r in enumerate_disjunctive_equilibria(g))
        assert len(built) <= 2 * g.n < len(shares)

    def test_wrong_rho(self):
        with pytest.raises(WrongSolverError):
            enumerate_disjunctive_equilibria(game(rho=1.0))


WEAK_GRID = SweepConfig(expertise_values=(0.0, 0.1, 0.2, 0.3), rho_values=(1.5, 3.0, 10.0),
                        b_values=(3.0, 5.0, 7.0))


@pytest.mark.parametrize("config,expected", [
    (WEAK_GRID, {"list": 42, "NoEquilibriumError": 27, "RegimeError": 21}),
    (SweepConfig(), {"list": 224, "RegimeError": 16}),
], ids=["weak-grid", "default-grid"])
def test_solve_cell_returns_equilibria_or_raises(config, expected):
    # one outcome per cell: a non-empty list, or a named refusal; never []
    outcomes = Counter()
    for _, p1, p2, rho, b in _cell_specs(config):
        try:
            results = solve_cell(cell_game(config, p1, p2, rho, b))
        except TeamworkGameError as exc:
            outcomes[type(exc).__name__] += 1
        else:
            assert isinstance(results, list) and results
            outcomes["list"] += 1
    assert outcomes == expected


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


def _per_player_nash_check(actions, g, epsilon, grid_step=0.01, refine_step=None):
    """The Nash oracle as a loop over players, one payoff pass per player and
    window: the reference for the oracle's batched passes."""
    arr = np.asarray(actions, dtype=float)
    base_u = _payoffs(g, arr)[2]

    def deviations(i, candidates):
        profiles = np.repeat(arr[:, None], len(candidates), axis=1)
        profiles[i] = candidates
        return _payoffs(g, profiles)[2][i]

    max_gain, best = -math.inf, None
    grid_actions = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
    for i in range(g.n):
        us = deviations(i, grid_actions)
        j = int(np.argmax(us))
        best_a, best_u = float(grid_actions[j]), float(us[j])
        if refine_step is not None:
            lo, hi = max(0.0, best_a - grid_step), min(1.0, best_a + grid_step)
            fine = lo + refine_step * np.arange(int(round((hi - lo) / refine_step)) + 1)
            fine = fine[fine <= 1.0 + 1e-12]
            us_f = deviations(i, np.clip(fine, 0.0, 1.0))
            jf = int(np.argmax(us_f))
            if us_f[jf] > best_u:
                best_a, best_u = float(fine[jf]), float(us_f[jf])
        if best_u - float(base_u[i]) > max_gain:
            max_gain, best = best_u - float(base_u[i]), (i, best_a)
    return NashCheck(is_nash=bool(max_gain <= epsilon), max_gain=float(max_gain),
                     best_deviation=best)


class TestEpsilonNashBatched:
    """Every player's deviations share one payoff pass, field for field the
    per-player loop: each deviation is a column of its own."""

    @pytest.mark.parametrize("n", [2, 3, 8])
    def test_matches_per_player_loop(self, n):
        rng = np.random.default_rng(17 + n)
        for k in range(12):
            kind = ("logistic", "identity", "heaviside")[k % 3]
            g = GameSpec(n=n, rho=float(rng.choice([-10.0, 0.5, 1.0, 3.0, 10.0])),
                         betas=tuple(rng.uniform(0.5, 2.0, n)), delta_t=10.0,
                         expertise=tuple(rng.uniform(0.1, 1.0, n)),
                         alpha=float(rng.uniform(0.5, 3.0)),
                         evaluation=EvaluationSpec(kind, d=10.0, gamma=2.0,
                                                   b=float(rng.uniform(1.0, 8.0))))
            # grid actions, and a profile with actions at 0 and 1, so windows clip
            actions = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), rng.random(n))
            eps = 1e-3 * max_achievable_utility(g)
            for grid in ({}, {"grid_step": 0.01, "refine_step": 1e-4},
                         {"grid_step": 0.05, "refine_step": 3e-3}):
                assert verify_epsilon_nash(actions, g, eps, **grid) == \
                    _per_player_nash_check(actions, g, eps, **grid)


def _three_pass_nash_check(actions, g, epsilon, grid_step=0.01, refine_step=None):
    """The Nash oracle in three payoff passes: the profile alone, every
    player's grid deviations, and every player's refine window clipped to
    [0, 1]: the reference for the oracle's two passes."""
    arr = np.asarray(actions, dtype=float)
    base_u = _payoffs(g, arr)[2]

    def deviations(candidates):
        starts = np.cumsum([0] + [len(c) for c in candidates])
        profiles = np.repeat(arr[:, None], starts[-1], axis=1)
        for i, c in enumerate(candidates):
            profiles[i, starts[i]:starts[i + 1]] = c
        us = _payoffs(g, profiles)[2]
        return [us[i, starts[i]:starts[i + 1]] for i in range(g.n)]

    grid_actions = np.linspace(0.0, 1.0, round(1.0 / grid_step) + 1)
    bests = []
    for us in deviations([grid_actions] * g.n):
        j = int(np.argmax(us))
        bests.append((float(grid_actions[j]), float(us[j])))
    if refine_step is not None:
        windows = []
        for best_a, _ in bests:
            lo, hi = max(0.0, best_a - grid_step), min(1.0, best_a + grid_step)
            fine = lo + refine_step * np.arange(int(round((hi - lo) / refine_step)) + 1)
            windows.append(fine[fine <= 1.0 + 1e-12])
        for i, us_f in enumerate(deviations([np.clip(w, 0.0, 1.0) for w in windows])):
            jf = int(np.argmax(us_f))
            if us_f[jf] > bests[i][1]:
                bests[i] = (float(windows[i][jf]), float(us_f[jf]))
    max_gain, best = -math.inf, None
    for i, (best_a, best_u) in enumerate(bests):
        if best_u - float(base_u[i]) > max_gain:
            max_gain, best = best_u - float(base_u[i]), (i, best_a)
    return NashCheck(is_nash=bool(max_gain <= epsilon), max_gain=float(max_gain),
                     best_deviation=best)


def _check_bits(check):
    """A NashCheck's fields with every float as its exact bits."""
    deviation = check.best_deviation
    return (check.is_nash, check.max_gain.hex(),
            None if deviation is None else (deviation[0], deviation[1].hex()))


_ORACLE_GRIDS = ({}, {"grid_step": 0.01, "refine_step": 1e-4},
                 {"grid_step": 0.05, "refine_step": 3e-3})


class TestOracleParity:
    """The oracle's two payoff passes give, field for field and bit for bit,
    the three-pass reference's NashCheck."""

    def test_default_grid_equilibria(self):
        config = SweepConfig()
        checked = 0
        for _, p1, p2, rho, b in _cell_specs(config):
            g = cell_game(config, p1, p2, rho, b)
            try:
                equilibria = solve_cell(g)
            except (NoEquilibriumError, RegimeError):
                continue
            eps = 1e-3 * max_achievable_utility(g)
            for e in equilibria:
                for grid in _ORACLE_GRIDS[:2]:
                    assert _check_bits(verify_epsilon_nash(e.actions, g, eps, **grid)) == \
                        _check_bits(_three_pass_nash_check(e.actions, g, eps, **grid)), (g, e)
                checked += 1
        assert checked == 273

    @pytest.mark.parametrize("kind", ["logistic", "identity", "heaviside"])
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 9])
    def test_random_profiles(self, n, kind):
        # 8 and 9 players: every column of a payoff pass sums as a lone profile does
        rng = np.random.default_rng(100 * n + len(kind))
        for _ in range(6):
            g = GameSpec(n=n, rho=float(rng.choice([-10.0, 0.5, 1.0, 3.0, 10.0])),
                         betas=tuple(rng.uniform(0.5, 2.0, n)), delta_t=10.0,
                         expertise=tuple(rng.uniform(0.1, 1.0, n)),
                         leisure_capacity=tuple(rng.uniform(0.2, 1.0, n)),
                         alpha=float(rng.uniform(0.5, 3.0)),
                         evaluation=EvaluationSpec(kind, d=10.0, gamma=2.0,
                                                   b=float(rng.uniform(1.0, 8.0))))
            # actions at 0 and 1 too, so windows meet the ends of [0, 1]
            actions = np.where(rng.random(n) < 0.3, rng.integers(0, 2, n), rng.random(n))
            eps = 1e-3 * max_achievable_utility(g)
            for grid in _ORACLE_GRIDS:
                assert _check_bits(verify_epsilon_nash(actions, g, eps, **grid)) == \
                    _check_bits(_three_pass_nash_check(actions, g, eps, **grid))


class TestMaxAchievableUtility:
    def test_memoised_aggregate_is_the_full_time_ces(self):
        config = SweepConfig()
        for _, p1, p2, rho, b in _cell_specs(config):
            g = cell_game(config, p1, p2, rho, b)
            expected = ces_aggregate(g.full_time_gifts(), g.rho, g.betas)
            first = max_achievable_utility(g)
            assert g.max_aggregate() == expected
            assert g.max_aggregate() == expected  # the memo
            assert max_achievable_utility(g) == first

    def test_overflowing_game_refused_on_every_call(self):
        g = GameSpec(n=2, rho=1.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.9, 0.9),
                     alpha=500.0, evaluation=EvaluationSpec("identity"))
        for _ in range(3):
            with pytest.raises(InputError, match=r"x \*\* alpha \* score must be finite"):
                max_achievable_utility(g)
            with pytest.raises(InputError, match=r"x \*\* alpha \* score must be finite"):
                verify_epsilon_nash((0.5, 0.5), g, 1e-3)


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

    @staticmethod
    def _assert_singletons_are_standalone_pairs(g):
        try:
            results = enumerate_disjunctive_equilibria(g)
        except (RegimeError, InputError, NoEquilibriumError):
            return 0
        singletons = [e for e in results if len(e.active_set) == 1]
        for e in singletons:
            j = e.active_set[0]
            g_bar, G_bar = equilibrium._standalone_pair(j, g)
            gifts = np.zeros(g.n)
            gifts[j] = g_bar
            assert e == equilibrium._result_from_gifts(g, gifts, G_bar), (g, e)
            # the CES of the gift is the standalone aggregate up to rounding
            assert e.aggregate_G == pytest.approx(G_bar, rel=1e-14, abs=0)
        return len(singletons)

    def test_singleton_equilibria_are_standalone_pairs_on_default_grid(self):
        config = SweepConfig()
        found = sum(self._assert_singletons_are_standalone_pairs(cell_game(config, *spec[1:]))
                    for spec in _cell_specs(config) if spec[3] > 1)
        assert found == 122

    def test_singleton_equilibria_are_standalone_pairs_on_random_games(self):
        found = sum(map(self._assert_singletons_are_standalone_pairs,
                        _random_disjunctive_games(60)))
        assert found == 65


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

    @pytest.mark.parametrize("G", [-1.0, math.nan])
    @pytest.mark.parametrize("rho", [1.0, 0.5, -3.0])
    def test_replacement_maps_refuse_a_bad_aggregate(self, rho, G):
        # the additive map returned a gift near its cap at G = -1 and 0.0 at
        # NaN; the conjunctive map refused NaN only by an unrelated "no sign change"
        fn = replacement_additive if rho == 1 else replacement_conjunctive
        g = game(rho=rho, expertise=(0.0, 0.9))
        for player in range(g.n):
            with pytest.raises(RegimeError, match="aggregate must be >= 0"):
                fn(G, player, g)


def _scan_grid(g, num=2049):
    """``num`` uniform points over the concave solver's interval, set by the
    players who can contribute."""
    standalones = [standalone_value(i, g) for i, p in enumerate(g.expertise) if p > 0]
    G_max = g.max_aggregate()
    if g.rho == 1:
        return np.linspace(0.0, G_max, num)
    if g.rho > 0:
        return np.linspace(max(standalones), G_max, num)
    hi = min(standalones)
    return np.linspace(hi * 1e-9, hi, num)


def _replacement_gifts(g, G):
    """Every player's gift at ``G`` from the scalar replacement map of the game's regime."""
    fn = replacement_additive if g.rho == 1 else replacement_conjunctive
    return [fn(G, i, g) for i in range(g.n)]


def _first_order_condition(r, G, i, g):
    """``log`` of the left side minus the right side of player ``i``'s
    first-order condition ``(dt - r/p) * (beta*p/alpha) * r**(rho-1) =
    sigma/sigma' * G**(rho-1)``: for rho < 1 decreasing in ``r`` on
    ``(0, p*dt)``, for rho > 1 increasing on ``(0, p*dt*(1 - 1/rho))``."""
    p, beta, rho = g.expertise[i], g.betas[i], g.rho
    return (math.log(g.delta_t - r / p) + math.log(beta * p / g.alpha)
            + (rho - 1.0) * math.log(r) - math.log(ratio_scalar(g.evaluation, G))
            - (rho - 1.0) * math.log(G))


def _assert_first_order_root(r, G, i, g, tol, rising=False):
    """The gift ``r`` lies within ``tol`` of the root of the first-order
    condition, or of the end of ``[0, top]`` the root lies beyond: the
    condition has its sign on either side of ``r`` at that distance.  It
    falls on ``[0, top] = [0, p*dt]``, or with ``rising`` rises on the
    positive branch's ``[0, top] = [0, p*dt*(1 - 1/rho)]``."""
    cap = g.expertise[i] * g.delta_t
    if cap == 0.0:
        assert r == 0.0
        return
    top, sign = (cap * (1.0 - 1.0 / g.rho), -1.0) if rising else (cap, 1.0)
    assert 0.0 <= r <= top, (G, i, r)
    if r - tol > 0.0:
        assert sign * _first_order_condition(r - tol, G, i, g) >= 0.0, (G, i, r)
    if r + tol < top:
        assert sign * _first_order_condition(r + tol, G, i, g) <= 0.0, (G, i, r)


def _roots_by_bisection(f, grid, values):
    """Every sign change of ``values = f(grid)`` bisected to adjacent floats."""
    roots = []
    for k in np.nonzero((values[:-1] < 0) != (values[1:] < 0))[0]:
        a, b, fa = grid[k], grid[k + 1], values[k]
        while a < 0.5 * (a + b) < b:
            mid = 0.5 * (a + b)
            fm = f(mid)
            a, b, fa = (mid, b, fm) if (fm < 0) == (fa < 0) else (a, mid, fa)
        roots.append(a)
    return roots


class TestReplacementMapsOnTheInterval:
    """The scalar replacement maps over the solver's interval: each gift is its
    first-order condition's root, and ``CES(r(G)) - G`` changes sign once."""

    @pytest.mark.parametrize("rho", [-500.0, -100.0, -3.0, 0.5, 1.0])
    @pytest.mark.parametrize("expertise", [(0.8,), (0.3, 0.9), (0.0, 0.5, 0.9)],
                             ids=["n1", "n2", "n3-p0"])
    @pytest.mark.parametrize("kind", ["logistic", "identity"])
    def test_gifts_solve_the_first_order_condition(self, rho, expertise, kind):
        g = game(rho=rho, expertise=expertise, b=3.0, kind=kind,
                 betas=(1.0, 1.7, 0.6)[:len(expertise)])
        grid = _scan_grid(g)
        gifts = np.array([_replacement_gifts(g, G) for G in grid]).T
        for G, column in zip(grid, gifts.T):
            if G == 0.0:
                continue  # the condition's logs are infinite; TestZeroAggregate covers it
            for i, r in enumerate(column):
                _assert_first_order_root(r, G, i, g, 1e-14 * g.expertise[i] * g.delta_t)
        signs = np.sign(ces_aggregate(gifts, g.rho, g.betas) - grid)
        signs = signs[signs != 0]
        assert np.count_nonzero(signs[1:] != signs[:-1]) <= 1

    @pytest.mark.parametrize("rho", [-500.0, -3.0, 0.5, 1.0])
    def test_solver_reports_the_scalar_scan_equilibria(self, rho):
        # the one Brent root is the crossing a 2,049-point scan of the scalar
        # maps finds, bisected to adjacent floats
        g = game(rho=rho, expertise=(0.3, 0.5, 0.9), b=3.0)
        found = [e.aggregate_G for e in solve_equilibrium_concave(g)]
        assert found

        def f(G):
            return ces_aggregate(_replacement_gifts(g, G), g.rho, g.betas) - G
        grid = _scan_grid(g)
        expected = _roots_by_bisection(f, grid, np.array([f(G) for G in grid]))
        np.testing.assert_allclose(found, expected, rtol=1e-12, atol=0)


class TestZeroAggregate:
    @pytest.mark.parametrize("rho,kind,expected", [
        (-3.0, "identity", 0.0), (-3.0, "logistic", 0.0),
        (0.5, "identity", 9.0), (0.5, "logistic", 0.0)])
    def test_zero_aggregate(self, rho, kind, expected):
        # at G = 0 a zero ratio (identity) leaves the cap only for rho > 0, and a
        # positive ratio meets G**(rho-1) = +inf, so the root tends to 0
        spec = game(kind=kind, b=5.0).evaluation
        assert _conjunctive_gift(ratio_scalar(spec, 0.0), 0.0, 0.9, 1.0, 2.0, 10.0,
                                 rho) == expected

    def test_solver_starts_at_zero_aggregate_between_zero_and_one(self):
        # every standalone value is 0, so the interval starts at G = 0 (a math
        # domain error in math.log before)
        g = game(rho=0.5, expertise=(0.1, 0.1), b=5.0)
        results = solve_equilibrium_concave(g)
        assert results[0].aggregate_G == 0.0
        # f = 0 at G = 0 says nothing of the crossing, which lies above it
        assert len(results) == 2 and results[1].aggregate_G > 1.0
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
    def test_newton_root_matches_ternary_search(self, rho, kind, alpha):
        # the first-order-condition best response lands on the ternary
        # search's gift up to the flatness of the utility at its peak
        g = game(rho=rho, expertise=(0.81, 0.5), b=4.0, kind=kind, alpha=alpha,
                 betas=(1.3, 1.0))
        cap = 0.81 * g.delta_t
        for G_minus in np.linspace(0.0, 1.2 * g.max_aggregate(), 25):
            g_new, u_new = _best_positive_response(_player_type(0, g), G_minus)
            g_ref, u_ref = _ternary_best_positive_response(g, 0, G_minus)
            if g_new == g_ref:  # one point, scored by two scalar codes
                assert u_new == pytest.approx(u_ref, rel=1e-14)
            assert abs(g_new - g_ref) <= 1e-7 * cap

    @pytest.mark.parametrize("rho,expected", [(3.0, 4.413672041469965),
                                              (10.0, 4.135312522529363),
                                              (500.0, 4.127949843620842)])
    def test_threshold_unchanged_by_first_order_condition(self, rho, expected):
        # the values the ternary search and bisection gave, to the root-finder's
        # xtol; the indifference gap h changes sign within xtol of the threshold
        g = game(rho=rho, b=5.0)
        thr = critical_thresholds(0, g)
        xtol = max(thr.standalone, 1.0) * 1e-13
        assert abs(thr.G_minus_star - expected) <= xtol

        def h(G_minus):
            player_type = _player_type(0, g)
            return (_best_positive_response(player_type, G_minus)[1]
                    - equilibrium._u_zero(player_type, G_minus))

        assert h(thr.G_minus_star - xtol) > 0 > h(thr.G_minus_star + xtol)

    @pytest.mark.parametrize("rho,alpha,G_minus_star,g_star", [
        (3.0, 300.0, 0.0012473450970508838, 0.0031240735152),
        (10.0, 300.0, 0.0012242306473590741, 0.00332210621575),
        (1.5, 500.0, 0.00093219756514713156, 0.0011631338421),
    ], ids=["rho3", "rho10", "rho1.5"])
    def test_threshold_with_gift_below_first_grid_cell(self, rho, alpha, G_minus_star,
                                                       g_star):
        # the gift at the threshold lies below cap/256, where the corner
        # g -> 0+ still beats a coarse grid of gifts, and the interior maximum
        # is found all the same; expected values from a 50-digit search
        # (ternary argmax, secant root)
        g = game(rho=rho, kind="identity", alpha=alpha, delta_t=1.0)
        thr = critical_thresholds(0, g)
        assert abs(thr.G_minus_star - G_minus_star) <= 1e-13
        assert thr.g_star == pytest.approx(g_star, rel=1e-6)

    def test_no_nan_when_leisure_rounds_below_zero(self):
        # at g = cap, dt - cap/p rounds to -1.8e-15 for p = 0.81; with a
        # non-integer alpha its power was NaN, which np.argmax took as the best
        g = GameSpec(n=2, rho=3.0, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.81, 0.5),
                     alpha=1.631, evaluation=EvaluationSpec("identity"))
        gift, u = _best_positive_response(_player_type(0, g), 0.0)
        assert gift == pytest.approx(3.0787, abs=1e-3)
        assert u == pytest.approx(60.35, abs=1e-2)
        assert critical_thresholds(0, g).G_minus_star == pytest.approx(1.466, abs=1e-3)


def _random_disjunctive_games(count, seed=16):
    """A seeded family of smooth two-player disjunctive games: rho from 1.2 to
    500 (log-uniform), logistic and identity evaluations, non-integer alpha and
    unequal weights; one game in four has alpha >= 256 with delta_t = 1, so its
    best gifts lie below cap/256."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        rho = float(np.exp(rng.uniform(np.log(1.2), np.log(500.0))))
        ev = EvaluationSpec("identity") if rng.integers(2) else EvaluationSpec(
            "logistic", d=10.0, gamma=float(rng.uniform(0.5, 5.0)), b=float(rng.uniform(1.0, 8.0)))
        delta_t, alpha = (1.0, float(rng.uniform(256.0, 500.0))) if k % 4 == 0 else (
            10.0, float(rng.uniform(0.5, 4.0)))
        games.append(GameSpec(n=2, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, 2)),
                              delta_t=delta_t, expertise=tuple(rng.uniform(0.1, 1.0, 2)),
                              alpha=alpha, evaluation=ev))
    return games


def _exact_utility(g, player, G_minus):
    """The player's utility of a gift in 50-digit decimal arithmetic, where a
    gift 1e-9 of the cap off the peak scores clearly lower: in doubles the
    utility is flat to rounding there."""
    p, dt, rho, beta, alpha, G_minus = map(Decimal, (
        g.expertise[player], g.delta_t, g.rho, g.betas[player], g.alpha, G_minus))
    ev = g.evaluation

    def u(x):
        with localcontext() as ctx:
            ctx.prec = 50
            G = (beta * x ** rho + G_minus ** rho) ** (1 / rho)
            if ev.kind == "logistic":
                G = Decimal(ev.d) / (1 + (-Decimal(ev.gamma) * (G - Decimal(ev.b))).exp())
            return (dt - x / p) ** alpha * G

    return u


class TestBestPositiveResponseFamily:
    """The first-order-condition best response against the scalar ternary
    search, over a family of games wider than the default grid."""

    def test_matches_ternary_search_and_is_a_local_maximum(self):
        for g in _random_disjunctive_games(100):
            cap = g.expertise[0] * g.delta_t
            for G_minus in np.linspace(0.0, 1.2 * g.max_aggregate(), 13):
                g_new, u_new = _best_positive_response(_player_type(0, g), G_minus)
                g_ref, u_ref = _ternary_best_positive_response(g, 0, G_minus)
                if g_new == g_ref:
                    assert u_new == pytest.approx(u_ref, rel=1e-14)
                assert abs(g_new - g_ref) <= 1e-7 * cap
                if g_new != cap / 256:  # an interior maximum, not the stand-in
                    u = _exact_utility(g, 0, G_minus)
                    x, step = Decimal(g_new), Decimal(cap) * Decimal("1e-9")
                    assert u(x - step) <= u(x) >= u(x + step)

    def test_envelope_slope_matches_central_difference(self):
        # the threshold search's slope of the gap comes from the envelope
        # theorem; a central difference of the gap itself must agree, to the
        # difference's rounding on the scale of the utilities
        checked = 0
        for g in _random_disjunctive_games(100):
            player_type = _player_type(0, g)
            for G_minus in np.linspace(0.0, 1.2 * g.max_aggregate(), 13)[1:]:
                h, slope, _ = equilibrium._indifference_gap(player_type, G_minus, None)
                d = 1e-6 * G_minus
                h_up, slope_up, _ = equilibrium._indifference_gap(player_type, G_minus + d, None)
                h_down, slope_down, _ = equilibrium._indifference_gap(player_type, G_minus - d, None)
                if None in (slope, slope_up, slope_down):
                    continue  # no interior maximum nearby: the search bisects there
                scale = (abs(h) + equilibrium._u_zero(player_type, G_minus)) / G_minus
                assert abs((h_up - h_down) / (2 * d) - slope) <= 1e-7 * scale
                checked += 1
        assert checked > 200

    def test_condition_slope_matches_central_difference(self):
        # the best response's Newton steps use phi's analytic slope in log g;
        # a central difference of phi must agree, at the response's own gift
        # and across the gift range
        for g in _random_disjunctive_games(100):
            cap = g.expertise[0] * g.delta_t
            for G_minus in np.linspace(0.0, 1.2 * g.max_aggregate(), 13):
                phi = equilibrium._response_condition(_player_type(0, g), G_minus)
                gift = _best_positive_response(_player_type(0, g), G_minus)[0]
                for x in (gift, 1e-6 * cap, 1e-3 * cap, 0.5 * cap, 0.9 * cap):
                    slope = phi(x)[1]
                    z, d = math.log(x), 1e-6
                    difference = (phi(math.exp(z + d))[0] - phi(math.exp(z - d))[0]) / (2 * d)
                    assert abs(difference - slope) <= 1e-6 * max(1.0, abs(slope))

    def test_warm_start_matches_cold_response(self):
        # phi is concave in log g, so Newton's method finds the one interior
        # maximum, or shows there is none, from any starting gift, near the
        # maximum or far from it.  The roots agree within cap*1e-12
        for g in _random_disjunctive_games(100):
            cap = g.expertise[0] * g.delta_t
            for G_minus in np.linspace(0.0, 1.2 * g.max_aggregate(), 13):
                g_cold, u_cold = _best_positive_response(_player_type(0, g), G_minus)
                for near in (g_cold * (1 + 1e-4), 0.9 * cap, 1e-6 * cap):
                    g_warm, u_warm = _best_positive_response(_player_type(0, g), G_minus, near=near)
                    assert abs(g_warm - g_cold) <= cap * 1e-12
                    assert u_warm == pytest.approx(u_cold, rel=1e-14, abs=0)


class TestThresholdNewton:
    def test_within_xtol_of_bisection_on_default_grid(self):
        # the safeguarded Newton search keeps Brent's contract: a tight
        # bisection of the gap, scored with cold best responses, lands within
        # xtol of every threshold of the 90 disjunctive default cells
        config = SweepConfig()
        thresholds = 0
        for _, p1, p2, rho, b in _cell_specs(config):
            if rho <= 1:
                continue
            g = cell_game(config, p1, p2, rho, b)
            for i in range(g.n):
                try:
                    thr = critical_thresholds(i, g)
                except RegimeError:
                    continue

                def h(G_minus, i=i):
                    u0 = equilibrium._u_zero(_player_type(i, g), G_minus)
                    return _best_positive_response(_player_type(i, g), G_minus)[1] - u0

                xtol = max(thr.standalone, 1.0) * 1e-13
                lo, hi = thr.G_minus_star - 2 * xtol, thr.G_minus_star + 2 * xtol
                assert h(lo) > 0 > h(hi)
                root = bisect_oracle(h, lo, hi, iters=12)
                assert abs(thr.G_minus_star - root) <= xtol
                thresholds += 1
        assert thresholds == 155

    @pytest.mark.parametrize("rho", [3.0, 10.0, 500.0])
    @pytest.mark.usefixtures("cold_types")
    def test_threshold_takes_few_evaluations(self, rho, monkeypatch):
        # every gap evaluation is one best response, and one more follows the
        # root; the Newton search takes 7 on each of these games, where
        # bisection took 45 or more
        calls = []
        best = equilibrium._best_positive_response
        monkeypatch.setattr(equilibrium, "_best_positive_response",
                            lambda *args, **kwargs: calls.append(args) or best(*args, **kwargs))
        critical_thresholds(0, game(rho=rho, b=5.0))
        assert len(calls) - 1 <= 7

    def test_thresholds_sit_on_the_newton_root(self):
        # g_star is the best response's Newton root at G_minus_star, to its
        # step tolerance, and G_star that gift's aggregate, on all 155
        # thresholds of the 90 disjunctive default cells
        config = SweepConfig()
        thresholds = 0
        for _, p1, p2, rho, b in _cell_specs(config):
            if rho <= 1:
                continue
            g = cell_game(config, p1, p2, rho, b)
            for i in range(g.n):
                try:
                    thr = critical_thresholds(i, g)
                except RegimeError:
                    continue
                cap = g.expertise[i] * g.delta_t
                root = _best_positive_response(_player_type(i, g), thr.G_minus_star)[0]
                assert abs(thr.g_star - root) <= cap * 1e-14
                w = g.betas[i] ** (1.0 / rho) * thr.g_star
                assert thr.G_star == equilibrium._pair_aggregate(w, thr.G_minus_star, rho)
                thresholds += 1
        assert thresholds == 155

    def test_unconverged_best_response_refused_by_name(self, monkeypatch):
        g = game(rho=10.0, b=5.0)
        monkeypatch.setattr(equilibrium, "_NEWTON_STEPS", 1)
        with pytest.raises(InputError, match=r"best response for p = 1.0, beta = 1.0 to "
                                             r"G_minus = 2.0 did not converge"):
            _best_positive_response(_player_type(1, g), 2.0)


def _player_type_family(count, seed=39):
    """A seeded family of smooth two- and three-player disjunctive games with
    leisure capacities below 1, random weights, logistic and identity
    evaluations, and every third game's delta_t, alpha and rho ints."""
    rng = np.random.default_rng(seed)
    games = []
    for k in range(count):
        n = 2 + k % 2
        ev = EvaluationSpec("identity") if rng.integers(2) else EvaluationSpec(
            "logistic", d=10.0, gamma=float(rng.uniform(0.5, 5.0)), b=float(rng.uniform(1.0, 8.0)))
        if k % 3 == 0:
            rho, delta_t, alpha = (int(rng.integers(2, 40)), int(rng.integers(5, 15)),
                                   int(rng.integers(1, 4)))
        else:
            rho, delta_t, alpha = (float(np.exp(rng.uniform(np.log(1.2), np.log(500.0)))),
                                   float(rng.uniform(5.0, 15.0)), float(rng.uniform(0.5, 4.0)))
        games.append(GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)),
                              delta_t=delta_t, expertise=tuple(rng.uniform(0.1, 1.0, n)),
                              alpha=alpha, evaluation=ev,
                              leisure_capacity=tuple(rng.uniform(0.2, 0.95, n))))
    return games


def _cold(solve, *args):
    """``solve(*args)`` from cleared type caches: its value, or its error's type."""
    _clear_type_caches()
    try:
        return solve(*args)
    except (InputError, RegimeError) as exc:
        return type(exc)


class TestPlayerTypeCache:
    """A player's standalone point and thresholds are those of the one-player
    game of its type, so the solvers keep them per type, across games."""

    @staticmethod
    def _assert_keyed_by_type(g):
        """Each player's standalone pair and thresholds, cold, equal bit for bit
        those of its one-player game, and the uncached solves of its type;
        returns how many thresholds were found."""
        found = 0
        for i in range(g.n):
            lone = GameSpec(n=1, rho=g.rho, betas=(g.betas[i],), delta_t=g.delta_t,
                            expertise=(g.expertise[i],), alpha=g.alpha, evaluation=g.evaluation)
            player_type = _player_type(i, g)
            pair = _cold(equilibrium._standalone_pair, i, g)
            assert pair == _cold(equilibrium._standalone_pair, 0, lone)
            assert pair == equilibrium._type_standalone.__wrapped__(*player_type)
            if pair[0] <= equilibrium.BOUNDARY_TOL:
                continue
            thr = _cold(critical_thresholds, i, g)
            assert thr == _cold(critical_thresholds, 0, lone)
            if isinstance(thr, equilibrium.CriticalThresholds):
                assert thr == equilibrium._type_thresholds.__wrapped__(*player_type)
                found += 1
        return found

    def test_default_disjunctive_cells(self):
        config = SweepConfig()
        found = sum(self._assert_keyed_by_type(cell_game(config, *spec[1:]))
                    for spec in _cell_specs(config) if spec[3] > 1)
        assert found == 155

    def test_random_two_and_three_player_games(self):
        found = sum(map(self._assert_keyed_by_type, _player_type_family(30)))
        assert found == 60

    @pytest.mark.usefixtures("cold_types")
    def test_second_game_of_a_type_makes_no_best_response_call(self, monkeypatch):
        first = critical_thresholds(0, game(rho=10.0, expertise=(0.9, 0.5), b=5.0))
        calls = []
        best = equilibrium._best_positive_response
        monkeypatch.setattr(equilibrium, "_best_positive_response",
                            lambda *args, **kwargs: calls.append(args) or best(*args, **kwargs))
        other = game(rho=10.0, expertise=(0.9, 0.3, 0.7), b=5.0)
        assert critical_thresholds(0, other) is first
        assert calls == []

    @pytest.mark.usefixtures("cold_types")
    def test_refused_type_raises_on_every_call(self, monkeypatch):
        # a search that fails is not kept: each call searches again, and the
        # error names the type by its expertise and weight
        g = game(rho=10.0, expertise=(0.5, 0.9), b=5.0)
        monkeypatch.setattr(equilibrium, "_NEWTON_STEPS", 1)
        for _ in range(2):
            with pytest.raises(InputError, match="best response for p = 0.9, beta = 1.0 to"):
                critical_thresholds(1, g)
        monkeypatch.undo()
        search = equilibrium._type_thresholds.__wrapped__
        assert critical_thresholds(1, g) == _cold(search, *_player_type(1, g))
        # a type solved in a small game is still refused in one whose full-time
        # utilities overflow, and on every call
        weak = dict(rho=2.0, delta_t=10.0, alpha=306.0, evaluation=EvaluationSpec("identity"))
        alone = GameSpec(n=1, betas=(1.0,), expertise=(0.5,), **weak)
        critical_thresholds(0, alone)
        big = GameSpec(n=2, betas=(1.0, 1e6), expertise=(0.5, 1.0), **weak)
        for _ in range(2):
            with pytest.raises(InputError, match=r"x \*\* alpha \* score must be finite"):
                critical_thresholds(0, big)

    @pytest.mark.usefixtures("cold_types")
    def test_refusal_names_the_type_in_any_seat(self, monkeypatch):
        # one refused type, seated second in one game and first in another with
        # other partners, is refused with one message, which names no player
        monkeypatch.setattr(equilibrium, "_NEWTON_STEPS", 1)
        messages = set()
        for player, g in [(1, game(rho=10.0, expertise=(0.5, 0.9), b=5.0)),
                          (0, game(rho=10.0, expertise=(0.9, 0.3, 0.7), b=5.0))]:
            with pytest.raises(InputError) as refused:
                critical_thresholds(player, g)
            messages.add(str(refused.value))
        assert len(messages) == 1
        message = messages.pop()
        assert "p = 0.9, beta = 1.0" in message and "player" not in message

    @pytest.mark.usefixtures("cold_types")
    def test_refused_type_searches_once_per_call(self, monkeypatch):
        # with one Newton step a best response of the search fails; each call
        # makes the best responses of one search up to that one, never a rerun
        g = game(rho=10.0, expertise=(0.5, 0.9), b=5.0)
        calls = []
        best = equilibrium._best_positive_response
        monkeypatch.setattr(equilibrium, "_best_positive_response",
                            lambda *args, **kwargs: calls.append(args) or best(*args, **kwargs))
        monkeypatch.setattr(equilibrium, "_NEWTON_STEPS", 1)
        with pytest.raises(InputError):
            equilibrium._type_thresholds.__wrapped__(*_player_type(1, g))
        search = list(calls)
        assert search
        for _ in range(2):
            calls.clear()
            with pytest.raises(InputError):
                critical_thresholds(1, g)
            assert calls == search

    @pytest.mark.usefixtures("cold_types")
    def test_share_function_grid_runs_one_search(self):
        g = game(rho=10.0, b=5.0)
        thr = critical_thresholds(0, g)
        for G in np.linspace(thr.G_star, thr.standalone, 50):
            share_function(0, float(G), g)
        assert equilibrium._type_thresholds.cache_info().misses == 1


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

    def test_unconverged_root_refused_by_name(self, monkeypatch):
        monkeypatch.setattr(equilibrium, "_BRENT_STEPS", 3)
        with pytest.raises(InputError, match=r"Brent's method on \[-1.0, 5.0\] did not "
                                             r"converge in 3 steps"):
            equilibrium._brent(lambda x: math.exp(x) - 2.0, -1.0, 5.0, xtol=1e-12)

    def test_unconverged_fixed_point_refused_by_name(self):
        # with 0.005 <= rho <= 0.01 the top of the concave solver's interval,
        # max_aggregate, reaches 1e159; on such a bracket Brent's method can
        # run out of evaluations, and the point it stops at, with a residual
        # of up to 1,062 here, is no equilibrium
        refused, checked = [], 0
        for k, g in enumerate(_small_rho_conjunctive_games(200, (0.005, 0.01))):
            g = dataclasses.replace(g, rho=-g.rho)
            try:
                equilibria = solve_equilibrium_concave(g)
            except NoEquilibriumError:
                continue
            except InputError as exc:
                assert "Brent's method on [" in str(exc) and "did not converge" in str(exc)
                refused.append(k)
                continue
            eps = 1e-6 * max_achievable_utility(g)
            for e in equilibria:
                assert verify_epsilon_nash(e.actions, g, eps).is_nash, (k, g)
                checked += 1
        assert refused == [72, 106, 130]
        assert checked == 197  # one equilibrium in each other game

    @pytest.mark.parametrize("rho", [3.0, 10.0, 500.0])
    def test_gap_is_clearly_negative_above_threshold(self, rho):
        # above the threshold the corner g -> 0+ wins with a utility just below
        # free-riding's; the gap scores the interior local maximum instead, so
        # the threshold search sees a slope there rather than a plateau of
        # about -1e-10
        g = game(rho=rho, b=5.0)
        thr = critical_thresholds(0, g)
        G_minus = thr.G_minus_star + 0.1 * thr.standalone
        u_zero = equilibrium._u_zero(_player_type(0, g), G_minus)
        gap = _best_positive_response(_player_type(0, g), G_minus)[1] - u_zero
        assert gap < -1e-3 * u_zero


class TestConjunctiveRootBelowBracket:
    def test_zero_gift_when_root_lies_below_bracket(self):
        # rho = 0.1 with a steep logistic: f(cap * 1e-300) < 0, so the gift is 0
        g = GameSpec(n=2, rho=0.1, betas=(1.0, 1.0), delta_t=10.0, expertise=(0.5, 0.9),
                     alpha=2.0, evaluation=EvaluationSpec("logistic", d=10.0, gamma=100.0,
                                                          b=0.5))
        assert replacement_conjunctive(7.0, 0, g) == 0.0
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
        # the interval starts at the standalone point, the lone player's fixed
        # point, where R(G) - G is a rounding residue of 1e-15 to 1e-12,
        # often negative, rather than an exact zero
        g = game(rho=rho, expertise=(p,), kind=kind, gamma=gamma)
        results = solve_equilibrium_concave(g)
        assert len(results) == 1
        assert results[0].aggregate_G == pytest.approx(standalone_value(0, g), rel=1e-9)
        eps = 1e-3 * max_achievable_utility(g)
        assert verify_epsilon_nash(results[0].actions, g, eps, grid_step=0.01,
                                   refine_step=1e-4).is_nash


def _random_concave_games(count, seed=21):
    """A seeded family of smooth conjunctive games: two to five players, rho
    from -500 to 0.99 (log-uniform in |rho| below 0, uniform above), identity
    and logistic evaluations, random weights, expertise, alpha and turn
    length.  |rho| stays above 0.05: nearer 0, below 0 ``beta**(1/rho)``
    drives the standalone values to 1e-13 and below, and above 0 the top of
    the interval, ``max_aggregate``, grows like ``n**(1/rho)``: 5e154 for a
    seeded five-player game at rho = 0.0056, whose reported gifts of 1e-154
    are no equilibrium."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        if rng.integers(2):
            rho = -float(10.0 ** rng.uniform(math.log10(0.05), math.log10(500.0)))
        else:
            rho = float(rng.uniform(0.05, 0.99))
        n = int(rng.integers(2, 6))
        ev = EvaluationSpec("identity") if rng.integers(2) else EvaluationSpec(
            "logistic", d=float(rng.uniform(1.0, 20.0)), gamma=float(10.0 ** rng.uniform(-1, 1.5)),
            b=float(rng.uniform(0.5, 10.0)))
        games.append(GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)),
                              delta_t=float(rng.uniform(2.0, 20.0)),
                              expertise=tuple(rng.uniform(0.05, 1.0, n)),
                              alpha=float(rng.uniform(0.5, 3.0)), evaluation=ev))
    return games


def _outcome_of_replacements(g, G):
    """``CES(r(G))`` from the scalar replacement maps."""
    return ces_aggregate(_replacement_gifts(g, G), g.rho, g.betas)


class TestOneRootPerConcaveGame:
    """``CES(r(G))/G`` never rises, so the solver's one bracketed root is
    every fixed point a dense point-by-point scan of the scalar maps finds."""

    @pytest.fixture(scope="class")
    def scans(self):
        """Each game with a non-empty interval, and ``CES(r(G))`` on a
        513-point geometric grid over the solver's interval (from ``hi*1e-9``
        where that starts at 0)."""
        out = []
        for g in _random_concave_games(60):
            standalones = [standalone_value(i, g) for i in range(g.n)]
            lo, hi = ((max(standalones), g.max_aggregate()) if g.rho > 0
                      else (min(standalones) * 1e-9, min(standalones)))
            if not hi > lo:
                continue  # a player who never contributes: no weakest-link fixed point
            grid = np.geomspace(lo or hi * 1e-9, hi, 513)
            out.append((g, lo, grid, np.array([_outcome_of_replacements(g, G) for G in grid])))
        return out

    def test_ces_over_aggregate_never_rises(self, scans):
        assert len(scans) >= 45
        for g, _, grid, R in scans:
            ratio = R / grid
            assert np.all(np.diff(ratio) <= 1e-13 * ratio[:-1]), g

    def test_solver_finds_the_dense_scan_roots(self, scans):
        counts = []
        for g, lo, grid, R in scans:
            f = R - grid
            expected = [0.0] if lo == 0.0 and _outcome_of_replacements(g, 0.0) == 0.0 else []
            expected += _roots_by_bisection(
                lambda G: _outcome_of_replacements(g, G) - G, grid, f)  # noqa: B023
            try:
                found = [e.aggregate_G for e in solve_equilibrium_concave(g)]
            except NoEquilibriumError:
                found = []
            assert len(found) == len(expected), g
            np.testing.assert_allclose(found, expected, rtol=1e-12, atol=0, err_msg=str(g))
            counts.append(len(found))
        assert counts.count(1) >= 30


def _small_rho_conjunctive_games(count, band, seed=1000):
    """``count`` seeded rho < 0 games with |rho| log-uniform in ``band``; the
    other draws are those of ``_random_concave_games``."""
    rng = np.random.default_rng(seed)
    games = []
    for _ in range(count):
        rho = -float(10.0 ** rng.uniform(math.log10(band[0]), math.log10(band[1])))
        n = int(rng.integers(2, 6))
        ev = EvaluationSpec("identity") if rng.integers(2) else EvaluationSpec(
            "logistic", d=float(rng.uniform(1.0, 20.0)), gamma=float(10.0 ** rng.uniform(-1, 1.5)),
            b=float(rng.uniform(0.5, 10.0)))
        games.append(GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)),
                              delta_t=float(rng.uniform(2.0, 20.0)),
                              expertise=tuple(rng.uniform(0.05, 1.0, n)),
                              alpha=float(rng.uniform(0.5, 3.0)), evaluation=ev))
    return games


class TestSmallRhoConcaveTopEnd:
    """Below rho = 0 and near it, ``hi``, the least standalone value, falls
    to 1e-15 and below, and ``f(hi)`` is about ``-hi``: an absolute top-end
    rule took such an ``hi`` for a fixed point that is no equilibrium."""

    def test_every_reported_equilibrium_passes_the_oracle(self):
        checked = 0
        for band in ((0.005, 0.01), (0.01, 0.02), (0.02, 0.03), (0.03, 0.05), (0.05, 0.1)):
            for g in _small_rho_conjunctive_games(60, band):
                try:
                    equilibria = solve_equilibrium_concave(g)
                except NoEquilibriumError:
                    continue  # the game's equilibrium is the zero profile, left out
                eps = 1e-6 * max_achievable_utility(g)
                for e in equilibria:
                    assert verify_epsilon_nash(e.actions, g, eps).is_nash, (band, g)
                    checked += 1
        assert checked >= 30


def _random_conjunctive_games(count, seed=15):
    """A seeded family of smooth conjunctive games: rho from -500 to 0.9,
    one to three players, identity and logistic evaluations."""
    rng = np.random.default_rng(seed)
    games = []
    while len(games) < count:
        rho = float(rng.uniform(-500.0, 0.9))
        if abs(rho) < 1e-3:
            continue
        n = int(rng.integers(1, 4))
        ev = EvaluationSpec("identity") if rng.integers(2) else EvaluationSpec(
            "logistic", d=10.0, gamma=float(rng.uniform(0.5, 5.0)), b=float(rng.uniform(1.0, 8.0)))
        games.append(GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)),
                              delta_t=10.0, expertise=tuple(rng.uniform(0.1, 1.0, n)),
                              alpha=float(rng.uniform(0.5, 3.0)), evaluation=ev))
    return games


class TestConjunctiveGiftNewton:
    """``_conjunctive_gift``, the one gift root of every rho < 1 solve."""

    @pytest.mark.parametrize("rho", [-500.0, -100.0, -3.0, 0.5])
    @pytest.mark.parametrize("expertise", [(0.8,), (0.3, 0.9), (0.2, 0.5, 0.9)],
                             ids=["n1", "n2", "n3"])
    def test_gift_per_unit_aggregate_never_rises(self, rho, expertise):
        # the share-function argument's premise, player by player: r_i(G)/G
        # is non-increasing over the solver's interval
        g = game(rho=rho, expertise=expertise, b=3.0, betas=(1.0, 1.7, 0.6)[:len(expertise)])
        grid = _scan_grid(g)
        for i in range(g.n):
            y = np.array([replacement_conjunctive(G, i, g) for G in grid]) / grid
            assert np.all(np.diff(y) <= 1e-13 * y[:-1]), i

    def test_root_solves_the_first_order_condition_on_random_games(self):
        for g in _random_conjunctive_games(200):
            # a player who gives nothing alone leaves a weakest-link game no
            # interval: its grid is G = 0, where every gift is 0
            for G in _scan_grid(g)[::64]:
                if G == 0.0:
                    continue
                ratio = ratio_scalar(g.evaluation, G)
                for i in range(g.n):
                    r = _conjunctive_gift(ratio, G, g.expertise[i], g.betas[i], g.alpha,
                                          g.delta_t, g.rho)
                    _assert_first_order_root(r, G, i, g, 1e-14 * g.expertise[i] * g.delta_t)

    def test_unconverged_root_refused_by_name(self, monkeypatch):
        g = game(rho=-3.0, expertise=(0.3, 0.9), b=3.0)
        monkeypatch.setattr(equilibrium, "_NEWTON_STEPS", 1)
        with pytest.raises(InputError, match="gift root for p = 0.3, G = 2.0 did not converge"):
            _conjunctive_gift(ratio_scalar(g.evaluation, 2.0), 2.0, 0.3, 1.0, g.alpha,
                              g.delta_t, g.rho)

    def test_no_sign_change_refused_naming_the_bracket(self):
        # a steep logistic leaves the condition positive at the top of the
        # bracket: the root lies above cap/2, and only that end is scored
        # before the refusal
        g = GameSpec(n=2, rho=-3.0, betas=(1, 1), delta_t=10, expertise=(0.5, 0.9), alpha=2,
                     evaluation=EvaluationSpec("logistic", d=10, gamma=1e15, b=5))
        with pytest.raises(InputError, match=r"no sign change on \[5e-300, 4\.999999999999995\]"):
            replacement_conjunctive(4.0, 0, g)


class TestOneGiftRootPerType:
    """Players of one type (expertise and beta) share one gift root at each
    aggregate a solver evaluates."""

    @staticmethod
    def _spy(monkeypatch, name):
        """Record the aggregate of every call of ``equilibrium.name``, with
        the player type where the function takes one."""
        func, calls = getattr(equilibrium, name), []

        def spy(*args):
            calls.append(args if name == "_positive_branch_gift" else args[1])
            return func(*args)
        monkeypatch.setattr(equilibrium, name, spy)
        return calls

    @pytest.mark.parametrize("rho", [-3.0, 0.5])
    @pytest.mark.parametrize("expertise,roots", [((0.7, 0.7, 0.7), 1), ((0.7, 0.3, 0.7), 2)],
                             ids=["one-type", "two-types"])
    def test_concave_solve_roots_each_type_once_per_aggregate(self, monkeypatch, rho,
                                                               expertise, roots):
        g = game(rho=rho, expertise=expertise)
        solve_equilibrium_concave(g)  # the standalone points are kept from here on
        evaluations = self._spy(monkeypatch, "ratio_scalar")  # once per f(G)
        aggregates = self._spy(monkeypatch, "_conjunctive_gift")
        [result] = solve_equilibrium_concave(g)
        # the reported equilibrium reuses the gifts of the aggregate the root was found at
        assert len(evaluations) >= 3
        assert aggregates == [G for G in evaluations for _ in range(roots)]
        assert result.gifts[0] == result.gifts[2]

    def test_symmetric_disjunctive_cell_roots_each_aggregate_once(self, monkeypatch):
        g = cell_game(SweepConfig(), 0.9, 0.9, 3.0, 5.0)
        solve_cell(g)  # the standalone points and thresholds are kept from here on
        calls = self._spy(monkeypatch, "_positive_branch_gift")
        results = solve_cell(g)
        assert [r.active_set for r in results] == [(0,), (1,), (0, 1)]
        # one call per aggregate the share equation evaluates, all for the
        # players' one type, and one more at its root for the reported gifts
        assert {player_type for player_type, _ in calls} == {_player_type(0, g)}
        per_aggregate = Counter(G for _, G in calls)
        [G_hat] = [G for G, count in per_aggregate.items() if count == 2]
        assert len(per_aggregate) >= 3 and set(per_aggregate.values()) == {1, 2}
        root = equilibrium._positive_branch_gift(_player_type(1, g), G_hat)
        assert results[2].gifts == (root, root)


def _rounding_band(r, G, i, g):
    """How far rounding alone moves the root of player ``i``'s first-order
    condition near the gift ``r``: an evaluation of the condition is off by
    about eps times the sum of its terms' sizes, divided by its slope in r."""
    p, rho = g.expertise[i], g.rho
    terms = (math.log(g.delta_t - r / p), math.log(g.betas[i] * p / g.alpha),
             (rho - 1.0) * math.log(r), math.log(ratio_scalar(g.evaluation, G)),
             (rho - 1.0) * math.log(G))
    slope = (rho - 1.0) / r - 1.0 / (p * g.delta_t - r)
    return sum(map(abs, terms)) * np.finfo(float).eps / abs(slope)


class TestPositiveBranchGift:
    """``_positive_branch_gift``, the gift behind every share function (rho > 1)."""

    @staticmethod
    def _assert_roots_on_the_branch(g):
        # the tolerance is 1e-14 of the cap, plus the rounding band twice (the
        # solver's evaluations and the check's): near the peak the condition
        # is flat, and on the default grid the (0.3, .), rho = 3, b = 7 gift at
        # the standalone point has a band of 7e-12 of the cap
        checked = 0
        for i in range(g.n):
            try:
                thr = critical_thresholds(i, g)
            except RegimeError:
                continue  # no contribution alone, or no single-valued branch
            for G in np.linspace(thr.G_star, thr.standalone, 33):
                r = equilibrium._positive_branch_gift(_player_type(i, g), G)
                tol = 1e-14 * g.expertise[i] * g.delta_t + 2.0 * _rounding_band(r, G, i, g)
                _assert_first_order_root(r, G, i, g, tol, rising=True)
            checked += 1
        return checked

    def test_root_solves_the_first_order_condition_on_default_grid(self):
        config = SweepConfig()
        checked = sum(self._assert_roots_on_the_branch(cell_game(config, p1, p2, rho, b))
                      for _, p1, p2, rho, b in _cell_specs(config) if rho > 1)
        assert checked == 155

    def test_root_solves_the_first_order_condition_on_random_games(self):
        checked = sum(map(self._assert_roots_on_the_branch, _random_disjunctive_games(60)))
        assert checked == 85

    def test_end_rules(self, monkeypatch):
        g = game(rho=3.0, kind="identity", alpha=2.0)
        cap, peak = 10.0, 10.0 * (1.0 - 1.0 / 3.0)
        # identity: the condition at the peak is log(cap/rho) + (rho-1)*log(peak)
        # + log(beta/alpha) - rho*log(G), so this G leaves it at -5e-10,
        # within the whisker that returns the peak
        at_peak = math.log(cap / 3.0) + 2.0 * math.log(peak) + math.log(0.5)
        G_at_peak = math.exp((at_peak + 5e-10) / 3.0)
        assert equilibrium._positive_branch_gift(_player_type(0, g), G_at_peak) == peak
        with pytest.raises(RegimeError, match="no positive replacement branch at G = 9"):
            equilibrium._positive_branch_gift(_player_type(0, g), 9.0)
        # for rho near 1 the root can lie below peak*1e-300
        with pytest.raises(InputError, match="no sign change"):
            equilibrium._positive_branch_gift(
                _player_type(0, game(rho=1.0001, kind="identity")), 1.0)
        monkeypatch.setattr(equilibrium, "_NEWTON_STEPS", 1)
        with pytest.raises(InputError, match="gift root for p = 1.0, G = 1.0 did not converge"):
            equilibrium._positive_branch_gift(_player_type(0, g), 1.0)


class TestScalarConcaveSolve:
    """The concave solver scores ``f(G) = CES(r(G)) - G`` in ``math``: one
    scalar CES and the replacement maps without their checks."""

    RHOS = (-500.0, -100.0, -10.0, -0.5, 0.5, 1.0, 3.0, 10.0, 100.0, 500.0)

    def test_scalar_ces_matches_the_numpy_kernel(self):
        rng = np.random.default_rng(30)
        zeros = 0
        for n in range(1, 17):
            for rho in self.RHOS:
                for _ in range(20):
                    gifts = 10.0 ** rng.uniform(-3.0, 2.0, n)
                    gifts[rng.random(n) < 0.1] = 0.0
                    log_b = np.log(rng.uniform(0.5, 2.0, n))
                    expected = _ces(gifts, rho, log_b)
                    got = equilibrium._scalar_ces(gifts.tolist(), log_b.tolist(), rho)
                    if expected == 0.0:
                        assert got == 0.0
                        zeros += 1
                    else:
                        assert got == pytest.approx(expected, rel=1e-14, abs=0.0)
        assert zeros > 0

    @pytest.mark.parametrize("rho", RHOS)
    def test_scalar_ces_keeps_the_zero_gift_conventions(self, rho):
        log_b = [0.0, math.log(1.5), math.log(0.7)]
        for gifts in ([0.0, 2.0, 3.0], [1.0, 0.0, 0.0], [0.0, 0.0, 0.0]):
            expected = _ces(np.array(gifts), rho, np.array(log_b))
            got = equilibrium._scalar_ces(gifts, log_b, rho)
            if rho < 0 or not any(gifts):
                assert got == expected == 0.0
            else:  # a zero gift drops out
                positive = [(g, b) for g, b in zip(gifts, log_b) if g > 0.0]
                assert got == equilibrium._scalar_ces(*zip(*positive), rho)
                assert got == pytest.approx(expected, rel=1e-14, abs=0.0)

    def test_numpy_kernel_scores_only_the_reported_equilibria(self, monkeypatch):
        # a two-player solve calls no array CES at all: the reported equilibria are
        # scored in floats too, with the kernels' bits
        config = SweepConfig()
        games = [cell_game(config, p1, p2, rho, b)
                 for _, p1, p2, rho, b in _cell_specs(config) if rho <= 1]
        assert len(games) == 150
        for g in games:
            g.max_aggregate()  # memoised before the spy, as every later call reads it
        callers = []

        def spy(*args):
            callers.append(sys._getframe(1).f_code.co_name)
            return _ces(*args)
        monkeypatch.setattr("teamgames.games._ces", spy)
        reported = []
        for g in games:
            reported.extend((g, r) for r in solve_equilibrium_concave(g))
            assert callers == []
        assert len(reported) >= len(games)
        for g, r in reported:
            G = _ces(np.array(r.gifts), g.rho, g._columns[0])
            expected = [G, eval_score(g.evaluation, G)]
            assert _bits([r.aggregate_G, r.score]) == _bits(expected), (g, r)

    @pytest.mark.parametrize("fn,G,player,g,error", [
        (replacement_additive, 4.0, -1, game(rho=1.0), InputError),
        (replacement_additive, 4.0, 2, game(rho=1.0), InputError),
        (replacement_additive, 4.0, 0.5, game(rho=1.0), InputError),
        (replacement_additive, 4.0, "0", game(rho=1.0), InputError),
        (replacement_additive, 4.0, 0, None, InputError),
        (replacement_additive, 4.0, 0, game(rho=0.5), WrongSolverError),
        (replacement_additive, 4.0, 0, game(rho=3.0), WrongSolverError),
        (replacement_additive, 4.0, 0, game(rho=1.0, kind="heaviside"),
         UnsupportedEvaluationError),
        (replacement_additive, -1.0, 0, game(rho=1.0), RegimeError),
        (replacement_additive, math.nan, 0, game(rho=1.0), RegimeError),
        (replacement_conjunctive, 8.0, -1, game(rho=0.5), InputError),
        (replacement_conjunctive, 8.0, 2, game(rho=0.5), InputError),
        (replacement_conjunctive, 8.0, 0.5, game(rho=0.5), InputError),
        (replacement_conjunctive, 8.0, 0, None, InputError),
        (replacement_conjunctive, 8.0, 0, game(rho=1.0), WrongSolverError),
        (replacement_conjunctive, 8.0, 0, game(rho=3.0), WrongSolverError),
        (replacement_conjunctive, 8.0, 0, game(rho=0.5, kind="heaviside"),
         UnsupportedEvaluationError),
        (replacement_conjunctive, -1.0, 0, game(rho=0.5), RegimeError),
        (replacement_conjunctive, math.nan, 0, game(rho=-3.0), RegimeError),
        (replacement_conjunctive, 1.0, 0, game(rho=0.5), RegimeError),  # below standalone
        (replacement_conjunctive, 20.0, 0, game(rho=-3.0), RegimeError),  # above standalone
    ])
    def test_public_replacement_maps_still_check_their_arguments(self, fn, G, player, g,
                                                                 error):
        # the solver calls the same maps unchecked; every call refused before is refused
        # (a game of None raised a bare AttributeError)
        with pytest.raises(error):
            fn(G, player, g)


def _reference_result_from_gifts(game, gifts, reference_G):
    """The result builder as it was in numpy: the reference for the one in
    Python floats."""
    from teamgames.evaluation import eval_score
    from teamgames.games import _ces
    gifts = np.maximum(np.asarray(gifts, dtype=float), 0.0)
    log_b, caps, _ = game._columns
    actions = np.where(caps > 0, np.clip(gifts / np.where(caps > 0, caps, 1.0), 0.0, 1.0), 0.0)
    aggregate = _ces(gifts, game.rho, log_b)
    score = float(eval_score(game.evaluation, aggregate))
    active = tuple(int(i) for i in np.nonzero(gifts > equilibrium.BOUNDARY_TOL)[0])
    return equilibrium.EquilibriumResult(
        actions=tuple(actions.tolist()), gifts=tuple(gifts.tolist()), aggregate_G=aggregate,
        score=score, active_set=active, residual=abs(aggregate - reference_G))


def _bits(values):
    """Each value's exact bits and type: a float's ``hex``, anything else as it is."""
    return [(type(x).__name__, x.hex()) if isinstance(x, float) else x for x in values]


def _result_bits(result):
    """An EquilibriumResult's fields with every float as its exact bits and type."""
    return tuple(tuple(_bits(v)) if isinstance(v, tuple) else _bits([v])[0]
                 for v in dataclasses.astuple(result))


class TestLeanOracleAndResults:
    """The result builder in Python floats, the oracle's two payoff passes
    and the memoised utility bound give the numpy versions' values."""

    @pytest.mark.parametrize("kind", ["logistic", "identity", "heaviside"])
    @pytest.mark.parametrize("rho", [-10.0, 0.5, 1.0, 3.0, 10.0])
    @pytest.mark.parametrize("n", [1, 3, 8, 12, 16])
    def test_result_from_gifts_matches_the_numpy_reference(self, n, rho, kind):
        rng = np.random.default_rng(31 * n + len(kind))
        expertise = rng.uniform(0.1, 1.0, n)
        if n > 1:
            expertise[n // 2] = 0.0  # a zero-expertise player: cap 0
        g = GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)), delta_t=10.0,
                     expertise=tuple(expertise), alpha=2.0,
                     evaluation=EvaluationSpec(kind, d=10.0, gamma=2.0, b=5.0))
        caps = expertise * g.delta_t
        edges = [-1.0, -0.0, 0.0, 1e-11, 1e-300]  # below zero, zeros, below BOUNDARY_TOL
        checked = 0
        for _ in range(40):
            gifts = rng.uniform(0.0, 1.2, n) * np.maximum(caps, 1.0)  # some above the cap
            pick = rng.random(n) < 0.4
            gifts[pick] = rng.choice(edges, pick.sum())
            gifts[rng.random(n) < 0.2] = 2.0 * caps.max() + 1.0  # above every cap
            reference_G = float(rng.uniform(0.0, 10.0))
            expected = _result_bits(_reference_result_from_gifts(g, gifts, reference_G))
            for given in (gifts, gifts.tolist()):
                assert _result_bits(equilibrium._result_from_gifts(g, given, reference_G)) == \
                    expected, (g, gifts)
            residual = float(rng.uniform())
            assert _result_bits(equilibrium._result_from_gifts(
                g, gifts.tolist(), reference_G, residual)) == _result_bits(dataclasses.replace(
                    _reference_result_from_gifts(g, gifts, reference_G), residual=residual))
            checked += 1
        assert checked == 40

    def test_eight_gifts_in_floats_match_the_kernels(self):
        # numpy's pairwise sum of these gifts' terms gives an aggregate 2 ulp from the
        # in-order one (x86-64, numpy 2.4); the floats and the kernel both sum in order
        gifts = (0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)
        g = game(rho=0.5, expertise=(1.0,) * len(gifts))
        assert _result_bits(equilibrium._result_from_gifts(g, gifts, 1.0)) == \
            _result_bits(_reference_result_from_gifts(g, gifts, 1.0))

    def test_a_check_runs_the_ces_kernel_once_per_payoff_pass(self, monkeypatch):
        import teamgames.games as games_module
        kernel, calls = games_module._aggregate_terms, []

        def spy(*args):
            calls.append(args[0].shape)
            return kernel(*args)
        for g in (game(rho=1.0, expertise=(0.5, 0.9)), game(rho=-10.0, expertise=(0.3, 0.7, 1.0)),
                  game(rho=10.0, expertise=(0.9,), kind="heaviside")):
            eps = 1e-3 * max_achievable_utility(g)  # memoised before the spy
            monkeypatch.setattr(games_module, "_aggregate_terms", spy)
            for grid, passes in (({}, 1), ({"grid_step": 0.01, "refine_step": 1e-4}, 2)):
                calls.clear()
                verify_epsilon_nash((0.4,) * g.n, g, eps, **grid)
                assert len(calls) == passes, (g, grid, calls)
            monkeypatch.setattr(games_module, "_aggregate_terms", kernel)

    def test_memo_leaves_equality_hashing_and_pickling_unchanged(self):
        import pickle
        config = SweepConfig()
        for _, p1, p2, rho, b in _cell_specs(config)[::7]:
            fresh, memoised = (cell_game(config, p1, p2, rho, b) for _ in range(2))
            bound = max_achievable_utility(memoised)
            assert memoised == fresh and hash(memoised) == hash(fresh)
            assert {memoised: 1}[fresh] == 1
            for g in (fresh, memoised):  # the sweep pool pickles each cell's game
                copy = pickle.loads(pickle.dumps(g))
                assert copy == fresh and hash(copy) == hash(fresh)
                assert max_achievable_utility(copy) == bound
            assert max_achievable_utility(fresh) == bound
