import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamgames.errors import ConfigurationError, InputError
from teamgames.evaluation import KINDS, EvaluationSpec, eval_score
from teamgames.games import (
    GameSpec,
    _leisure_payoff,
    _payoffs,
    ces_aggregate,
    evaluate_joint_action,
    utility,
)


_DROP = object()  # a key left out of a game spec


def two_player(rho=1.0, expertise=(0.3, 0.8), b=5.0, kind="logistic", alpha=2.0):
    if kind == "identity":
        ev = EvaluationSpec("identity")
    else:
        ev = EvaluationSpec(kind, d=10.0, gamma=2.0, b=b)
    return GameSpec(n=2, rho=rho, betas=(1.0, 1.0), delta_t=10.0,
                    expertise=expertise, alpha=alpha, evaluation=ev)


def one_player(p=0.8, delta_t=10.0, leisure=1.0, alpha=2.0):
    return GameSpec(n=1, rho=1.0, betas=(1.0,), delta_t=delta_t, expertise=(p,),
                    leisure_capacity=(leisure,), alpha=alpha,
                    evaluation=EvaluationSpec("identity"))


def gift(a, game):
    """The one player's gift from action ``a``, as the pipeline computes it."""
    return float(evaluate_joint_action(game, (a,))[0][0])


def leisure(a, game):
    """The one player's leisure from action ``a``: the pipeline's leisure factor at alpha = 1."""
    return float(_leisure_payoff(game, np.array([a]))[0])


class TestGift:
    def test_direct_product(self):
        assert gift(0.5, one_player(p=0.8)) == pytest.approx(4.0)

    def test_zero_action(self):
        assert gift(0.0, one_player(p=0.3)) == 0.0

    def test_strong_player_three_quarter_turn(self):
        # the stronger player's gift from 75% of a 10-unit turn
        assert gift(0.75, one_player(p=0.8)) == pytest.approx(6.0)

    @pytest.mark.parametrize("a,p,dt", [(-0.1, 0.5, 10), (1.1, 0.5, 10), (math.nan, 0.5, 10),
                                        (0.5, 1.5, 10), (0.5, 0.5, 0.0)])
    def test_domain(self, a, p, dt):
        # the pipeline refuses an action outside [0, 1]; the game refuses
        # expertise outside [0, 1] and a turn of no length
        if 0 <= p <= 1 and dt > 0:
            with pytest.raises(InputError, match=r"actions must lie in \[0, 1\]"):
                gift(a, one_player(p=p, delta_t=dt))
        else:
            with pytest.raises(ConfigurationError):
                one_player(p=p, delta_t=dt)


class TestPrivateGood:
    def test_basic(self):
        assert leisure(0.3, one_player(alpha=1.0)) == pytest.approx(7.0)

    def test_full_dedication(self):
        assert leisure(1.0, one_player(alpha=1.0)) == 0.0

    def test_exogenous_income(self):
        assert leisure(0.0, one_player(alpha=1.0)) == 10.0

    @given(a=st.floats(0, 1), p=st.floats(0.01, 1.0), pl=st.floats(0.0, 1.0),
           dt=st.floats(0.1, 100.0))
    @settings(max_examples=100, deadline=None)
    def test_budget_constraint(self, a, p, pl, dt):
        # leisure plus the leisure-equivalent of the gift exhausts the endowment
        game = one_player(p=p, delta_t=dt, leisure=pl, alpha=1.0)
        x, g = leisure(a, game), gift(a, game)
        assert x + g * pl / p == pytest.approx(dt * pl, rel=1e-12, abs=1e-12)


class TestUtility:
    def test_arithmetic(self):
        assert utility(7, 5, 2) == pytest.approx(245.0)

    def test_no_leisure(self):
        assert utility(0, 9, 2) == 0.0

    def test_zero_score(self):
        assert utility(10, 0, 2) == 0.0

    @pytest.mark.parametrize("x,score,alpha", [(10.0, 1.0, 400.0), (10, 1.0, 400),
                                               (1e300, 1e10, 1.0)])
    def test_overflow_refused_by_name(self, x, score, alpha):
        # 10.0 ** 400 raised a bare OverflowError; 1e300 * 1e10 returned inf
        with pytest.raises(InputError, match="alpha"):
            utility(x, score, alpha)


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

    @pytest.mark.parametrize("n", range(1, 41))
    def test_kernel_sums_every_layout_in_player_order(self, n):
        from teamgames.games import _aggregate_terms
        rng = np.random.default_rng(n)
        for rho in (-10.0, 0.5, 3.0):
            gifts = 10.0 ** rng.uniform(-3.0, 2.0, (n, 6))
            gifts[rng.random((n, 6)) < 0.2] = 0.0  # -inf or +inf terms
            with np.errstate(divide="ignore"):
                terms = np.log(rng.uniform(0.5, 2.0, (n, 1))) + rho * np.log(gifts)
            expected = []
            for column in terms.T.tolist():  # a Python sum, player by player
                m = max(column)
                m = m if math.isfinite(m) else 0.0
                total = 0.0
                for t in column:
                    total += np.exp(t - m)
                with np.errstate(divide="ignore"):
                    expected.append(float(np.exp((m + np.log(total)) / rho)))
            layouts = [terms.copy(order="C"), np.asfortranarray(terms)]
            layouts += [terms[:, c].copy() for c in range(6)]         # 1-D
            layouts += [terms[:, c:c + 1].copy() for c in range(6)]  # (n, 1)
            got = []
            with np.errstate(divide="ignore", invalid="ignore"):
                for layout in layouts:
                    got.append(np.ravel(_aggregate_terms(layout, rho)).tolist())
            want = [expected, expected] + [[e] for e in expected] * 2
            assert [np.array(g).view(np.uint64).tolist() for g in got] == \
                [np.array(w).view(np.uint64).tolist() for w in want], rho


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
        ("rho", math.nan), ("rho", math.inf), ("delta_t", math.inf), ("alpha", math.inf),
        ("betas", (1.0, math.nan)), ("betas", (math.inf, 1.0)),
    ])
    def test_invariants(self, field, value):
        data = two_player().to_dict()
        data[field] = list(value) if isinstance(value, tuple) else value
        with pytest.raises(ConfigurationError, match=field):
            GameSpec.from_dict(data)

    def test_to_dict_key_order(self):
        game = GameSpec(n=2, rho=0.5, betas=(1.0, 2.0), delta_t=10.0, expertise=(0.3, 0.8),
                        leisure_capacity=(1.0, 0.5), alpha=2.0,
                        evaluation=EvaluationSpec("heaviside", d=10.0, b=5.0))
        assert json.dumps(game.to_dict()) == (
            '{"n": 2, "rho": 0.5, "betas": [1.0, 2.0], "delta_t": 10.0, '
            '"expertise": [0.3, 0.8], "leisure_capacity": [1.0, 0.5], "alpha": 2.0, '
            '"evaluation": {"kind": "heaviside", "d": 10.0, "b": 5.0}}')

    @pytest.mark.parametrize("changes,message", [
        ({"zz": 1}, "unknown game spec key(s): ['zz']"),
        ({"zz": 1, "aa": 2, "n": None}, "unknown game spec key(s): ['aa', 'zz']"),
        # unknown keys come before missing ones, and missing ones before values
        ({"zz": 1, "rho": _DROP}, "unknown game spec key(s): ['zz']"),
        ({"rho": _DROP, "alpha": _DROP}, "missing game spec key(s): ['alpha', 'rho']"),
        ({"alpha": _DROP, "n": "x"}, "missing game spec key(s): ['alpha']"),
        ({"evaluation": _DROP, "betas": None}, "missing game spec key(s): ['evaluation']"),
        # values are cast in the spec's key order, whatever the input's order
        ({"alpha": "x", "n": "y"}, "n must be an integer, got 'y'"),
        ({"alpha": "x", "leisure_capacity": "y"}, "leisure_capacity must be a list of numbers, got 'y'"),
        ({"n": None}, "n must be an integer, got None"),
        ({"betas": 3}, "betas must be a list of numbers, got 3"),
        ({"rho": "x", "evaluation": None}, "rho must be a number, got 'x'"),
        # the evaluation is read before the game's own checks
        ({"delta_t": -1.0, "evaluation": None}, "evaluation must be an object, got NoneType"),
        ({"delta_t": -1.0, "evaluation": {"kind": "zz"}},
         f"evaluation kind must be one of {KINDS}, got 'zz'"),
        ({"delta_t": -1.0, "alpha": 0.0}, "delta_t must be finite and > 0, got -1.0"),
    ])
    def test_from_dict_message(self, changes, message):
        # the changed keys come first in the input
        data = {**changes, **two_player().to_dict(), **changes}
        data = {key: value for key, value in data.items() if value is not _DROP}
        with pytest.raises(ConfigurationError) as exc:
            GameSpec.from_dict(data)
        assert str(exc.value) == message

    def test_from_dict_refuses_a_non_object(self):
        with pytest.raises(ConfigurationError) as exc:
            GameSpec.from_dict([two_player().to_dict()])
        assert str(exc.value) == "game spec must be an object, got list"

    def test_null_or_missing_leisure_capacity_means_full_capacity(self):
        data = two_player().to_dict()
        assert GameSpec.from_dict({**data, "leisure_capacity": None}) == two_player()
        del data["leisure_capacity"]
        assert GameSpec.from_dict(data) == two_player()

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
        with pytest.raises(InputError, match=r"actions must lie in \[0, 1\]"):
            evaluate_joint_action(two_player(), (0.5, 1.2))

    @pytest.mark.parametrize("actions", [(0.5,), (0.5, 0.5, 0.5), ((0.5, 0.5),)])
    def test_joint_action_shape(self, actions):
        with pytest.raises(InputError, match="expected 2 actions"):
            evaluate_joint_action(two_player(), actions)

    def test_gifts_from_actions(self):
        game = two_player()
        np.testing.assert_allclose(
            evaluate_joint_action(game, (0.5, 0.25))[0], [1.5, 2.0])

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
        from teamgames.equilibrium import _deviation_payoffs
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
        for player, row in enumerate(_deviation_payoffs(game, profile, [arms] * n)[1]):
            for a, u in zip(arms, row):
                deviated = profile.copy()
                deviated[player] = a
                assert u == evaluate_joint_action(game, deviated)[3][player]

    @pytest.mark.parametrize("rho", [0.5, 3.0, -10.0])
    @pytest.mark.parametrize("n", [8, 12, 16])
    def test_c_ordered_grid_matches_each_joint_action(self, n, rho):
        # a C-ordered grid keeps each cell's terms strided; every cell must
        # still sum as one joint action's gifts do
        rng = np.random.default_rng(n)
        game = GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)), delta_t=10.0,
                        expertise=tuple(rng.uniform(0.1, 1.0, n)), alpha=2.0,
                        evaluation=EvaluationSpec("logistic", d=10.0, gamma=2.0, b=5.0))
        actions = rng.uniform(0.0, 1.0, (n, 300))
        actions[:, ::7] = np.round(actions[:, ::7])  # zero gifts, under rho < 0 too
        assert actions.flags.c_contiguous
        G, score, rewards = _payoffs(game, actions)
        for c in range(actions.shape[1]):
            _, G_c, score_c, rewards_c = evaluate_joint_action(game, actions[:, c])
            assert G[c] == G_c and score[c] == score_c
            assert rewards[:, c].tolist() == rewards_c.tolist()


class TestPayoffKernelParity:
    """The payoff kernel, fed the per-game columns, equals the public
    ``ces_aggregate`` and ``eval_score`` and the leisure formula bit for bit."""

    @pytest.mark.parametrize("kind", ["logistic", "identity", "heaviside"])
    @pytest.mark.parametrize("rho", [-500.0, -10.0, 0.5, 1.0, 3.0, 500.0])
    @pytest.mark.parametrize("n", range(1, 10))
    def test_kernel_matches_public_pipeline(self, n, rho, kind):
        from teamgames.games import _ces, _leisure_payoff, _outcome
        rng = np.random.default_rng(n * 1000 + int(abs(rho)) + len(kind))
        game = GameSpec(n=n, rho=rho, betas=tuple(rng.uniform(0.5, 2.0, n)), delta_t=10.0,
                        expertise=tuple(rng.uniform(0.05, 1.0, n)),
                        leisure_capacity=tuple(rng.uniform(0.2, 1.0, n)),
                        alpha=float(rng.uniform(0.5, 3.0)),
                        evaluation=EvaluationSpec(kind, d=10.0, gamma=2.0,
                                                  b=float(rng.uniform(1.0, 8.0))))
        actions = rng.uniform(0.0, 1.0, (n, 64))
        actions[:, ::4] = 0.0  # every gift zero: G = 0 under either sign of rho
        actions[0, 1::4] = 0.0  # one zero gift: G = 0 under rho < 0
        actions[:, 2::4] = np.round(actions[:, 2::4])
        log_b, caps, _ = game._columns

        def bits(x):
            return np.asarray(x, dtype=float).view(np.uint64).tolist()

        # the whole grid, then each joint action alone
        for a in [actions, *(actions[:, c].copy() for c in range(actions.shape[1]))]:
            column = (n,) + (1,) * (a.ndim - 1)
            gifts = a * (np.asarray(game.expertise) * game.delta_t).reshape(column)
            G = ces_aggregate(gifts, rho, game.betas)
            score = eval_score(game.evaluation, G)
            leisure = ((1.0 - a) * np.asarray(game.leisure_capacity).reshape(column)
                       * game.delta_t) ** game.alpha
            assert type(_ces(gifts, rho, log_b)) is type(G)
            assert bits(_ces(gifts, rho, log_b)) == bits(G)
            assert bits(_outcome(game, a)) == bits((G, score))
            assert bits(_leisure_payoff(game, a)) == bits(leisure)
            assert [bits(x) for x in _payoffs(game, a)] == \
                [bits(G), bits(score), bits(leisure * score)]
        G = _payoffs(game, actions)[0]
        assert G[::4].tolist() == [0.0] * 16
        assert (G[1::4] == 0.0).all() == (rho < 0 or n == 1)
