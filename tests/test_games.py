import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamgames.errors import ConfigurationError, InputError
from teamgames.evaluation import EvaluationSpec
from teamgames.games import (
    GameSpec,
    GiftVector,
    JointAction,
    ces_aggregate,
    evaluate_joint_action,
    gift_from_action,
    gifts_from_actions,
    private_good,
    utility,
)


def two_player(rho=1.0, expertise=(0.3, 0.8), b=5.0, kind="logistic", alpha=2.0):
    if kind == "identity":
        ev = EvaluationSpec("identity")
    else:
        ev = EvaluationSpec(kind, d=10.0, gamma=2.0, b=b)
    return GameSpec(n=2, rho=rho, betas=(1.0, 1.0), delta_t=10.0,
                    expertise=expertise, alpha=alpha, evaluation=ev)


class TestGift:
    def test_direct_product(self):
        assert gift_from_action(0.5, 0.8, 10) == pytest.approx(4.0)

    def test_zero_action(self):
        assert gift_from_action(0.0, 0.3, 10) == 0.0

    def test_strong_player_three_quarter_turn(self):
        # the stronger player's gift from 75% of a 10-unit turn
        assert gift_from_action(0.75, 0.8, 10) == pytest.approx(6.0)

    @pytest.mark.parametrize("a,p,dt", [(-0.1, 0.5, 10), (1.1, 0.5, 10),
                                        (0.5, 1.5, 10), (0.5, 0.5, 0.0)])
    def test_domain(self, a, p, dt):
        with pytest.raises(InputError):
            gift_from_action(a, p, dt)


class TestPrivateGood:
    def test_basic(self):
        assert private_good(0.3, 1, 10) == pytest.approx(7.0)

    def test_full_dedication(self):
        assert private_good(1.0, 1, 10) == 0.0

    def test_exogenous_income(self):
        assert private_good(0.0, 1, 10) == 10.0

    @given(a=st.floats(0, 1), p=st.floats(0.01, 1.0), pl=st.floats(0.0, 1.0),
           dt=st.floats(0.1, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_budget_constraint(self, a, p, pl, dt):
        # leisure plus the leisure-equivalent of the gift exhausts the endowment
        g = gift_from_action(a, p, dt)
        x = private_good(a, pl, dt)
        assert x + g * pl / p == pytest.approx(dt * pl, rel=1e-12, abs=1e-12)


class TestUtility:
    def test_arithmetic(self):
        assert utility(7, 5, 2) == pytest.approx(245.0)

    def test_no_leisure(self):
        assert utility(0, 9, 2) == 0.0

    def test_zero_score(self):
        assert utility(10, 0, 2) == 0.0


class TestCes:
    def test_additive_sum(self):
        assert ces_aggregate((3, 3), 1.0, (1, 1)) == pytest.approx(6.0)

    def test_min_limit(self):
        assert ces_aggregate((2, 4), -500.0, (1, 1)) == pytest.approx(2.0, abs=1e-2)

    def test_max_limit(self):
        assert ces_aggregate((2, 4), 500.0, (1, 1)) == pytest.approx(4.0, abs=1e-2)

    def test_zero_gift_negative_rho(self):
        assert ces_aggregate((0, 4), -10.0, (1, 1)) == 0.0

    def test_all_zero(self):
        assert ces_aggregate((0.0, 0.0), 2.0, (1, 1)) == 0.0

    def test_rho_zero_rejected(self):
        with pytest.raises(ConfigurationError):
            ces_aggregate((1, 2), 0.0, (1, 1))

    @pytest.mark.parametrize("gifts,betas", [
        ((1.0, 2.0, 3.0), (1.0, 1.0)),          # more gifts than betas
        (np.ones((3, 4)), (1.0, 1.0)),          # rows do not match the players
        (2.0, (1.0,)),                          # no player axis
        ((1.0, 2.0), (1.0, 0.0)),               # a non-positive weight
        ((1.0, 2.0), (1.0, math.nan)),
        ((1.0, -2.0), (1.0, 1.0)),              # a negative gift
        ((1.0, math.nan), (1.0, 1.0)),
        (np.array([[1.0, 0.0], [2.0, -1.0]]), (1.0, 1.0)),
    ])
    def test_malformed_input_rejected(self, gifts, betas):
        with pytest.raises(InputError):
            ces_aggregate(gifts, 2.0, betas)

    def test_gift_vector_accepted(self):
        assert ces_aggregate(GiftVector((3.0, 3.0)), 1.0, (1, 1)) == pytest.approx(6.0)

    @pytest.mark.parametrize("rho,tol", [(-10, 1e-9), (-3, 1e-9), (0.5, 1e-9),
                                         (1, 1e-9), (3, 1e-9), (10, 1e-9),
                                         (500, 1e-4), (-500, 1e-4)])
    def test_equal_gifts_closed_form(self, rho, tol):
        # (n * g**rho)**(1/rho) = n**(1/rho) * g
        for n in (2, 3, 5):
            g = 1.7
            expected = n ** (1.0 / rho) * g
            got = ces_aggregate((g,) * n, rho, (1.0,) * n)
            assert got == pytest.approx(expected, rel=tol)

    @pytest.mark.parametrize("rho", [-100, -10, -3, 0.5, 1, 3, 10, 100])
    def test_monotone_in_each_gift(self, rho):
        rng = np.random.default_rng(42)
        for _ in range(20):
            g = rng.uniform(0.05, 5.0, size=3)
            base = ces_aggregate(g, rho, (1, 1, 1))
            for i in range(3):
                bumped = g.copy()
                bumped[i] += 1e-6
                assert ces_aggregate(bumped, rho, (1, 1, 1)) >= base - 1e-12

    def test_limit_accuracy_against_max(self):
        g = np.array([1.3, 2.6, 0.9])
        G = ces_aggregate(g, 500.0, (1, 1, 1))
        assert abs(G - g.max()) <= 1e-2 * g.max()
        G = ces_aggregate(g, -500.0, (1, 1, 1))
        assert abs(G - g.min()) <= 1e-2 * g.min()

    def test_stacked_input_matches_1d(self):
        rng = np.random.default_rng(3)
        for rho in (-500.0, -7.0, 0.5, 1.0, 4.0, 500.0):
            gifts = rng.uniform(0, 3, size=(2, 7))
            gifts[0, 0] = 0.0
            stacked = ces_aggregate(gifts, rho, (1.0, 2.0))
            assert stacked.shape == (7,)
            for i in range(7):
                assert stacked[i] == pytest.approx(
                    ces_aggregate(gifts[:, i], rho, (1.0, 2.0)), rel=1e-12, abs=1e-300)


class TestGameSpec:
    def test_round_trip(self):
        game = two_player()
        assert GameSpec.from_dict(game.to_dict()) == game

    def test_unknown_key_named(self):
        data = two_player().to_dict()
        data["turn_count"] = 2
        with pytest.raises(ConfigurationError, match="turn_count"):
            GameSpec.from_dict(data)

    @pytest.mark.parametrize("field,value", [
        ("rho", 0.0), ("delta_t", -1.0), ("alpha", 0.0),
        ("betas", (1.0, -1.0)), ("expertise", (0.3, 1.4)),
        ("leisure_capacity", (2.0, 1.0)),
    ])
    def test_invariants(self, field, value):
        data = two_player().to_dict()
        data[field] = list(value) if isinstance(value, tuple) else value
        with pytest.raises(ConfigurationError):
            GameSpec.from_dict(data)

    def test_length_mismatch(self):
        with pytest.raises(ConfigurationError):
            GameSpec(n=3, rho=1.0, betas=(1, 1), delta_t=10, expertise=(1, 1, 1),
                     alpha=2.0, evaluation=EvaluationSpec("identity"))

    def test_default_leisure_capacity(self):
        game = GameSpec(n=2, rho=1.0, betas=(1, 1), delta_t=10, expertise=(0.5, 0.5),
                        alpha=2.0, evaluation=EvaluationSpec("identity"))
        assert game.leisure_capacity == (1.0, 1.0)


class TestJointTypes:
    def test_joint_action_domain(self):
        with pytest.raises(InputError):
            JointAction((0.5, 1.2))

    def test_gift_vector_domain(self):
        with pytest.raises(InputError):
            GiftVector((-0.1, 2.0))

    def test_gifts_from_actions(self):
        game = two_player()
        np.testing.assert_allclose(
            gifts_from_actions(game, (0.5, 0.25)), [1.5, 2.0])

    def test_evaluate_joint_action_pipeline(self):
        game = two_player(b=7.0)
        gifts, G, score, rewards = evaluate_joint_action(game, (1 / 3, 0.75))
        np.testing.assert_allclose(gifts, [1.0, 6.0], rtol=1e-12)
        assert G == pytest.approx(7.0)
        assert score == pytest.approx(5.0)
        assert rewards[0] == pytest.approx((10 * (1 - 1 / 3)) ** 2 * 5.0)
        assert rewards[1] == pytest.approx((10 * 0.25) ** 2 * 5.0)


class TestOnePayoffPipeline:
    """Term-table rewards and deviation rows equal evaluate_joint_action exactly."""

    @pytest.mark.parametrize("kind", ["logistic", "heaviside"])
    @pytest.mark.parametrize("rho", [-10.0, 1.0, 10.0])
    @pytest.mark.parametrize("n", [2, 3])
    def test_tables_and_deviations_match_evaluate_joint_action(self, n, rho, kind):
        from teamgames.equilibrium import _deviation_utilities
        from teamgames.evaluation import eval_score
        from teamgames.simulator import _aggregate_terms, _term_tables
        game = GameSpec(n=n, rho=rho, betas=(1.0, 1.5, 0.7)[:n], delta_t=10.0,
                        expertise=(0.3, 0.8, 0.6)[:n], alpha=2.0,
                        evaluation=EvaluationSpec(kind, d=10.0, gamma=2.0, b=5.0),
                        leisure_capacity=(1.0, 0.9, 0.8)[:n])
        arms = np.linspace(0.0, 1.0, 11)
        T, L = _term_tables([game], arms)
        for idx in np.ndindex(*(len(arms),) * n):
            _, G, _, rewards = evaluate_joint_action(game, arms[list(idx)])
            # one run's terms as an (n, 1) column, as the trainer gathers them
            with np.errstate(divide="ignore"):
                G_terms = _aggregate_terms(T[range(n), idx][:, None], rho)
            assert G_terms.tolist() == [G]
            score = eval_score(game.evaluation, G_terms)[0]
            assert [L[i, a] * score for i, a in enumerate(idx)] == rewards.tolist()

        profile = np.array((0.0, 0.45, 0.7)[:n])
        for player in range(n):
            row = _deviation_utilities(game, profile, player, arms)
            for a, u in zip(arms, row):
                deviated = profile.copy()
                deviated[player] = a
                assert u == evaluate_joint_action(game, deviated)[3][player]
