"""Acceptance gate: one test per advertised result, at its stated tolerance.

Each test prints a PASS/FAIL line (visible with ``pytest -s``) and then
asserts.  The learned-behaviour tests are deterministic: they use the
canonical base seed 0 and the seeds 0, 1, 2.
"""

import itertools
import math
import time

import numpy as np
import pytest

import teamgames as tg
from teamgames import EvaluationSpec, GameSpec, TrainConfig
from teamgames.experiments import (
    SweepConfig,
    heatmap_table,
    heaviside_study,
    regression_from_records,
    run_sweep,
)


def report(name, ok, detail=""):
    print(f"{'PASS' if ok else 'FAIL'}  {name}  {detail}")
    return ok


def game(rho, expertise, b=None, kind="logistic", alpha=2.0, delta_t=10.0, d=10.0):
    n = len(expertise)
    ev = EvaluationSpec("identity") if kind == "identity" else EvaluationSpec(
        kind, d=d, gamma=2.0, b=b)
    return GameSpec(n=n, rho=rho, betas=(1.0,) * n, delta_t=delta_t,
                    expertise=expertise, alpha=alpha, evaluation=ev)


@pytest.fixture(scope="session")
def sweep_records():
    config = SweepConfig(rho_values=(-10.0, 1.0, 10.0), base_seed=0, workers=2)
    return run_sweep(config)


@pytest.fixture(scope="session")
def spot_check_outcomes():
    cases = {
        "additive_soft_homogeneous": (game(1.0, (0.3, 0.3), b=3.0), [(46, 46)]),
        "additive_medium_free_rider": (game(1.0, (0.3, 0.9), b=5.0), [(0, 61)]),
        "conjunctive_medium_homogeneous": (game(-10.0, (0.9, 0.9), b=5.0), [(58, 58)]),
        "disjunctive_hard_homogeneous": (game(10.0, (0.5, 0.5), b=7.0), [(80, 0), (0, 80)]),
    }
    seeds = (0, 1, 2)
    # one lockstep batch; each outcome is bitwise that of its own train call
    runs = tg.train_many([(g, TrainConfig(episodes=50_000, seed=seed))
                          for g, _ in cases.values() for seed in seeds])
    return {name: (runs[k * len(seeds):(k + 1) * len(seeds)], targets)
            for k, (name, (_, targets)) in enumerate(cases.items())}


@pytest.fixture(scope="session")
def heaviside_results():
    return heaviside_study(base_seed=0)


class TestCriterion1ClosedFormAnchors:
    def test_canonical_public_good_fixed_point(self):
        start = time.perf_counter()
        result = tg.solve_equilibrium_concave(game(1.0, (1.0, 1.0), kind="identity"))
        elapsed = time.perf_counter() - start
        ok = (len(result) == 1
              and abs(result[0].aggregate_G - 4.0) <= 1e-6
              and abs(result[0].actions[0] - 0.2) <= 1e-6
              and abs(result[0].actions[1] - 0.2) <= 1e-6
              and elapsed < 1.0)
        assert report("criterion 1a: identity canonical fixed point G=4, (20%,20%)",
                      ok, f"G={result[0].aggregate_G:.9f} t={elapsed:.3f}s")

    def test_weakest_link_limit(self):
        start = time.perf_counter()
        value = tg.strongly_conjunctive_limit(game(-500.0, (1.0, 1.0), kind="identity"))
        elapsed = time.perf_counter() - start
        ok = abs(value - 2.0) <= 1e-6 and elapsed < 1.0
        assert report("criterion 1b: identity weakest-link limit G=2",
                      ok, f"G={value:.9f} t={elapsed:.3f}s")

    def test_convex_standalone_action(self):
        start = time.perf_counter()
        g = game(500.0, (1.0, 1.0), kind="identity")
        action = tg.standalone_value(0, g) / 10.0
        elapsed = time.perf_counter() - start
        ok = abs(action - 1.0 / 3.0) <= 1e-6 and elapsed < 1.0
        assert report("criterion 1c: identity convex standalone action 1/3",
                      ok, f"a={action:.9f} t={elapsed:.3f}s")


class TestCriterion2SolverAnchors:
    def test_hard_additive_equilibrium(self):
        start = time.perf_counter()
        result = tg.solve_equilibrium_concave(game(1.0, (0.3, 0.8), b=7.0))
        elapsed = time.perf_counter() - start
        r = result[0]
        ok = (abs(r.aggregate_G - 7.0) <= 1e-4
              and abs(r.actions[0] - 1.0 / 3.0) <= 1e-4
              and abs(r.actions[1] - 0.75) <= 1e-4
              and elapsed < 1.0)
        assert report("criterion 2a: hard additive G=7, actions (1/3, 3/4)",
                      ok, f"G={r.aggregate_G:.6f} a={r.actions}")

    def test_additive_logistic_actions(self):
        r = tg.solve_equilibrium_concave(game(1.0, (1.0, 1.0), b=5.0))[0]
        ok = all(abs(a - 0.295) <= 0.01 for a in r.actions)
        assert report("criterion 2b: symmetric additive actions 29.5% each",
                      ok, f"a={r.actions}")

    def test_conjunctive_logistic_actions(self):
        r = tg.solve_equilibrium_concave(game(-500.0, (1.0, 1.0), b=5.0))[0]
        ok = all(abs(a - 0.52) <= 0.01 for a in r.actions)
        assert report("criterion 2c: symmetric conjunctive actions 52% each",
                      ok, f"a={r.actions}")

    def test_disjunctive_equilibrium_pair(self):
        results = tg.enumerate_disjunctive_equilibria(game(500.0, (1.0, 1.0), b=5.0))
        sole = sorted(tuple(a) for a in (r.actions for r in results))
        ok = (len(results) == 2
              and abs(sole[0][0] - 0.0) <= 0.01 and abs(sole[0][1] - 0.56) <= 0.01
              and abs(sole[1][0] - 0.56) <= 0.01 and abs(sole[1][1] - 0.0) <= 0.01)
        assert report("criterion 2d: disjunctive pair {(56%,0%),(0%,56%)}",
                      ok, f"{sole}")

    def test_disjunctive_medium_sole_contributor(self):
        results = tg.enumerate_disjunctive_equilibria(game(500.0, (0.3, 0.8), b=5.0))
        ok = any(r.active_set == (1,) and abs(r.actions[1] - 0.659) <= 0.005
                 for r in results)
        assert report("criterion 2e: medium disjunctive sole contributor 65.9%",
                      ok, f"{[(r.active_set, r.actions) for r in results]}")

    def test_conjunctive_medium_gifts_equal(self):
        r = tg.solve_equilibrium_concave(game(-500.0, (0.3, 0.8), b=5.0))[0]
        ok = abs(r.gifts[0] - r.gifts[1]) <= 0.01 * max(r.gifts)
        assert report("criterion 2f: medium conjunctive gifts equal within 1%",
                      ok, f"gifts={r.gifts}")


class TestCriterion3Regression:
    def test_learning_vs_theory_regression(self, sweep_records):
        assert len(sweep_records) == 90
        assert all(r.skip_reason is None for r in sweep_records)
        reg = regression_from_records(sweep_records)
        ok = (0.95 <= reg.slope <= 1.05
              and abs(reg.intercept) <= 0.1
              and reg.r_squared >= 0.98)
        assert report(
            "criterion 3: 90-cell sweep regression",
            ok,
            f"slope={reg.slope:.4f} intercept={reg.intercept:.4f} R2={reg.r_squared:.4f} "
            f"(reference: 0.99, 0.02, 0.992)")


class TestCriterion4LearnedSpotChecks:
    @pytest.mark.parametrize("name", ["additive_soft_homogeneous", "additive_medium_free_rider", "conjunctive_medium_homogeneous", "disjunctive_hard_homogeneous"])
    def test_majority_within_3pp(self, spot_check_outcomes, name):
        runs, targets = spot_check_outcomes[name]
        hits = 0
        learned = []
        for outcome in runs:
            pct = [a * 100 for a in outcome.greedy_actions]
            learned.append([round(p) for p in pct])
            hits += any(abs(pct[0] - t[0]) <= 3.0 and abs(pct[1] - t[1]) <= 3.0
                        for t in targets)
        ok = hits >= 2
        assert report(f"criterion 4 ({name}): majority of 3 seeds within ±3pp of {targets}",
                      ok, f"learned={learned} hits={hits}/3")


class TestCriterion5HeatmapCells:
    def test_quoted_cell_values(self, sweep_records):
        conj = heatmap_table(sweep_records, -10.0, 5.0)
        disj = heatmap_table(sweep_records, 10.0, 5.0)
        checks = [
            ("conjunctive (0.5,0.5) ~ 2.65", conj.cell(0.5, 0.5), 2.65, 0.15),
            ("conjunctive (0.3,0.7) ~ 1.63", conj.cell(0.3, 0.7), 1.63, 0.15),
            ("disjunctive (0.5,0.5) ~ 3.89", disj.cell(0.5, 0.5), 3.89, 0.25),
            ("disjunctive (0.3,0.7) ~ 5.00", disj.cell(0.3, 0.7), 5.00, 0.25),
        ]
        all_ok = True
        details = []
        for label, got, want, tol in checks:
            ok = got is not None and abs(got - want) <= tol
            all_ok &= ok
            details.append(f"{label}: {got:.3f}")
        assert report("criterion 5: quoted heatmap cells", all_ok, "; ".join(details))


class TestCriterion6Heaviside:
    def test_dispersion_below_two_percent(self, heaviside_results):
        worst = max(r.dispersion_pct for r in heaviside_results
                    if r.dispersion_pct is not None)
        ok = all(r.dispersion_pct is not None and r.dispersion_pct <= 2.0
                 for r in heaviside_results)
        assert report("criterion 6a: all pass/fail dispersions <= 2%",
                      ok, f"worst={worst:.3f}%")

    def test_weaker_agent_withdraws_on_large_gaps(self, heaviside_results):
        gapped = [r for r in heaviside_results
                  if r.weaker_actions is not None
                  and r.team[1] - r.team[0] >= 0.4 - 1e-9]
        assert gapped, "study must include teams with expertise gap >= 0.4"
        details = {r.team: [round(a * 100) for a in r.weaker_actions] for r in gapped}
        ok = all(a == 0.0 for r in gapped for a in r.weaker_actions)
        assert report("criterion 6b: weaker agent's greedy action is 0 for gaps >= 0.4",
                      ok, f"weaker actions (pct): {details}")


class TestCriterion7PropertySuites:
    def test_solver_equilibria_pass_grid_oracle(self):
        games = [
            game(1.0, (0.3, 0.8), b=7.0),
            game(1.0, (1.0, 1.0), b=5.0),
            game(-10.0, (0.9, 0.9), b=5.0),
            game(-500.0, (0.3, 0.8), b=5.0),
            game(0.5, (0.5, 0.9), b=3.0),
            game(1.0, (1.0, 1.0), kind="identity"),
        ]
        all_ok = True
        for g in games:
            eps = 1e-3 * tg.max_achievable_utility(g)
            for r in tg.solve_equilibrium_concave(g):
                check = tg.verify_epsilon_nash(r.actions, g, eps, grid_step=0.01,
                                               refine_step=1e-4)
                all_ok &= check.is_nash
        for g in [game(500.0, (1.0, 1.0), b=5.0), game(500.0, (0.3, 0.8), b=5.0),
                  game(10.0, (0.5, 0.5), b=7.0), game(1.5, (1.0, 1.0), b=1.0)]:
            eps = 1e-3 * tg.max_achievable_utility(g)
            for r in tg.enumerate_disjunctive_equilibria(g):
                check = tg.verify_epsilon_nash(r.actions, g, eps, grid_step=0.01,
                                               refine_step=1e-4)
                all_ok &= check.is_nash
        assert report("criterion 7a: every solver equilibrium passes the grid oracle", all_ok)

    def test_score_scaling_invariance(self):
        base = game(1.0, (0.3, 0.8), b=7.0)
        scaled = game(1.0, (0.3, 0.8), b=7.0, d=1000.0)
        ok = True
        for r1, r2 in zip(tg.solve_equilibrium_concave(base),
                          tg.solve_equilibrium_concave(scaled)):
            ok &= all(abs(a - b) <= 1e-9 for a, b in zip(r1.actions, r2.actions))
        base_d = game(500.0, (1.0, 1.0), b=5.0)
        scaled_d = game(500.0, (1.0, 1.0), b=5.0, d=0.37)
        for r1, r2 in zip(tg.enumerate_disjunctive_equilibria(base_d),
                          tg.enumerate_disjunctive_equilibria(scaled_d)):
            ok &= all(abs(a - b) <= 1e-9 for a, b in zip(r1.actions, r2.actions))
        assert report("criterion 7b: evaluation-scale invariance of actions (1e-9)", ok)

    def test_conjunctive_comparative_statics(self):
        from teamgames.equilibrium import _conjunctive_gift
        rng = np.random.default_rng(2024)
        h = 1e-6
        ok = True
        checked = 0
        while checked < 100:
            rho = rng.uniform(-50.0, 0.8)
            if abs(rho) < 1e-3:
                continue
            p = rng.uniform(0.2, 1.0)
            beta = rng.uniform(0.5, 2.0)
            alpha = rng.uniform(0.5, 3.0)
            G = rng.uniform(0.2, 6.0)
            ratio = rng.uniform(0.3, 5.0)
            base = _conjunctive_gift(ratio, G, p, beta, alpha, 10.0, rho)
            if not 1e-6 < base < p * 10.0 - 1e-6:
                continue
            ok &= _conjunctive_gift(ratio, G, p, beta, alpha + h, 10.0, rho) < base
            ok &= _conjunctive_gift(ratio, G, p, beta + h, alpha, 10.0, rho) > base
            ok &= _conjunctive_gift(ratio, G, p, beta, alpha, 10.0 + h, rho) > base
            ok &= _conjunctive_gift(ratio, G, p + h * p, beta, alpha, 10.0, rho) > base
            ok &= _conjunctive_gift(ratio + h, G, p, beta, alpha, 10.0, rho) < base
            checked += 1
        assert report("criterion 7c: conjunctive comparative-statics signs "
                      "(100 random instances)", ok)

    def test_share_function_shape(self):
        g = game(10.0, (1.0, 1.0), b=5.0)
        thr = tg.critical_thresholds(0, g)
        s_top = tg.share_function(0, thr.standalone, g)
        s_bottom = tg.share_function(0, thr.G_star, g)
        expected_bottom = thr.g_star ** g.rho / thr.G_star ** g.rho
        grid = np.linspace(thr.G_star, thr.standalone, 100)
        values = [tg.share_function(0, x, g) for x in grid]
        ok = (abs(s_top - 1.0) <= 1e-9
              and abs(s_bottom - expected_bottom) <= 1e-6 * expected_bottom
              and s_bottom > 0
              and all(b > a for a, b in zip(values, values[1:])))
        assert report("criterion 7d: share-map endpoints and monotonicity",
                      ok, f"s(G*)={s_bottom:.6f} s(Gbar)={s_top:.9f}")

    def test_subset_ordering_of_equilibrium_sets(self):
        found_multi = False
        ok = True
        for g in [game(1.5, (1.0, 1.0, 1.0), b=1.0), game(1.5, (1.0, 1.0), b=2.0)]:
            results = tg.enumerate_disjunctive_equilibria(g)
            by_set = {r.active_set: r.aggregate_G for r in results}
            for active, value in by_set.items():
                if len(active) < 2:
                    continue
                found_multi = True
                for size in range(1, len(active)):
                    for sub in itertools.combinations(active, size):
                        ok &= sub in by_set and by_set[sub] > value
        ok &= found_multi
        assert report("criterion 7e: subsets of equilibrium sets produce more", ok)

    def test_logistic_smoothness_condition(self):
        reportobj = tg.validate_evaluation(
            EvaluationSpec("logistic", d=10.0, gamma=2.0, b=5.0), (0.0, 15.0), 1000)
        assert report("criterion 7f: logistic curvature condition on a 1000-point grid",
                      reportobj.passed)

    def test_boltzmann_validity_and_low_temperature_limit(self):
        from teamgames.bandit import _boltzmann_weights

        def probabilities(q, tau):
            # the trainer's soft-max weights of one agent, over their sum
            w = _boltzmann_weights(q[None, :], tau, out=np.empty((1, len(q))))
            w /= np.add.reduce(w, axis=1, keepdims=True)
            return w[0]

        rng = np.random.default_rng(5)
        ok = True
        for _ in range(50):
            n = int(rng.integers(2, 101))
            q = rng.uniform(0.0, 1e3, size=n)
            tau = float(10.0 ** rng.uniform(-4, 1))
            probs = probabilities(q, tau)
            ok &= bool(np.all(probs >= 0)) and abs(probs.sum() - 1.0) <= 1e-12
        for _ in range(25):
            n = int(rng.integers(2, 20))
            gaps = rng.uniform(0.01, 0.9, size=n - 1)
            q_max = float(rng.uniform(1.0, 500.0))
            q = np.concatenate([[q_max], q_max * (1.0 - gaps)])
            ok &= probabilities(q, 1e-3)[0] >= 0.999
        assert report("criterion 7g: Boltzmann validity and low-temperature limit", ok)

    def test_ces_limits(self):
        gifts = (2.0, 4.0)
        hi = tg.ces_aggregate(gifts, 500.0, (1.0, 1.0))
        lo = tg.ces_aggregate(gifts, -500.0, (1.0, 1.0))
        ok = abs(hi - 4.0) <= 1e-2 * 4.0 and abs(lo - 2.0) <= 1e-2 * 2.0
        assert report("criterion 7h: CES max/min limits at rho = ±500",
                      ok, f"hi={hi:.6f} lo={lo:.6f}")


class TestSweepInvariants:
    """Spec'd system invariants checked on the same 90-cell sweep."""

    def test_learned_actions_are_weak_epsilon_nash(self, sweep_records):
        config = SweepConfig(rho_values=(-10.0, 1.0, 10.0), base_seed=0)
        worst = -math.inf
        ok = True
        for rec in sweep_records:
            from teamgames.experiments import cell_game
            g = cell_game(config, rec.p1, rec.p2, rec.rho, rec.b)
            eps = 0.02 * tg.max_achievable_utility(g)
            check = tg.verify_epsilon_nash(rec.learned_actions, g, eps)
            worst = max(worst, check.max_gain / (eps / 0.02))
            ok &= check.is_nash
        assert report("invariant: every learned preset is 2%-epsilon-Nash",
                      ok, f"worst relative gain {worst:.4f} (cap 0.02)")

    def test_additive_productivity_monotone_for_strong_teams(self, sweep_records):
        by = {}
        for rec in sweep_records:
            if rec.rho == 1.0 and (rec.p1 + rec.p2) / 2 >= 0.6 - 1e-9:
                by.setdefault((rec.p1, rec.p2), {})[rec.b] = rec.G_tilde
        assert by
        ok = True
        detail = []
        for team, vals in sorted(by.items()):
            seq = [vals[b] for b in (3.0, 5.0, 7.0)]
            ok &= seq[0] <= seq[1] + 0.05 and seq[1] <= seq[2] + 0.05
            detail.append(f"{team}: {[round(v, 2) for v in seq]}")
        assert report("invariant: additive productivity non-decreasing in the threshold "
                      "for mean expertise >= 0.6", ok, "; ".join(detail))
