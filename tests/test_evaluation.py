import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from teamgames.errors import ConfigurationError, UnsupportedEvaluationError
from teamgames.evaluation import (
    KINDS,
    EvaluationSpec,
    eval_score,
    ratio_scalar,
    validate_evaluation,
)


def logistic(d=10.0, gamma=2.0, b=5.0):
    return EvaluationSpec("logistic", d=d, gamma=gamma, b=b)


class TestEvalScore:
    def test_logistic_midpoint_is_half_d(self):
        assert eval_score(logistic(d=10, gamma=2, b=5), 5.0) == pytest.approx(5.0)

    def test_logistic_fig6_parameters(self):
        # passing threshold 3, steepness 2, asymptote 10: score at the
        # threshold is half the asymptote
        assert eval_score(logistic(d=10, gamma=2, b=3), 3.0) == pytest.approx(5.0)

    def test_identity(self):
        assert eval_score(EvaluationSpec("identity"), 4.2) == 4.2

    def test_heaviside_step_boundary(self):
        spec = EvaluationSpec("heaviside", d=10, b=5)
        assert eval_score(spec, 4.99) == 0.0
        assert eval_score(spec, 5.0) == 10.0

    def test_logistic_bounded_and_increasing(self):
        spec = logistic()
        g = np.linspace(0, 20, 400)
        s = eval_score(spec, g)
        assert np.all(np.diff(s) > 0)
        assert np.all(s > 0) and np.all(s < spec.d)

    def test_extreme_arguments_stay_finite(self):
        spec = logistic(b=0.0, gamma=2.0)
        assert eval_score(spec, 1e6) == pytest.approx(10.0)
        assert eval_score(logistic(b=1e6), 0.0) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("spec", [
        logistic(d=10.0, gamma=1.0, b=0.0),  # z = G, so the grid is the z grid
        logistic(d=3.0, gamma=2.0, b=5.0),
        EvaluationSpec("heaviside", d=10.0, b=5.0),
        EvaluationSpec("identity"),
    ])
    def test_scalar_path_equals_array_path(self, spec):
        g = np.concatenate([np.linspace(-750.0, 750.0, 30001), np.linspace(-3.0, 3.0, 6001),
                            [0.0, -0.0, 1e-300, -1e-300, 700.0, -700.0, np.inf, -np.inf]])
        expected = eval_score(spec, g).tolist()
        for cast in (float, np.float64, np.asarray):
            scores = [eval_score(spec, cast(x)) for x in g]
            assert all(type(s) is float for s in scores)
            assert scores == expected


class TestRatioScalar:
    def test_logistic_at_threshold(self):
        assert ratio_scalar(logistic(gamma=2, b=5), 5.0) == pytest.approx(1.0)

    def test_logistic_closed_form_vs_finite_difference(self):
        # oracle: central finite differences of the score
        spec = logistic(d=10, gamma=2, b=5)
        G = 7.0
        expected = (1.0 + math.exp(4.0)) / 2.0
        assert expected == pytest.approx(27.799075, rel=1e-6)
        h = 1e-6
        deriv = (eval_score(spec, G + h) - eval_score(spec, G - h)) / (2 * h)
        assert ratio_scalar(spec, G) == pytest.approx(eval_score(spec, G) / deriv, rel=1e-6)

    def test_identity(self):
        assert ratio_scalar(EvaluationSpec("identity"), 4.0) == 4.0

    def test_heaviside_rejected(self):
        with pytest.raises(UnsupportedEvaluationError):
            ratio_scalar(EvaluationSpec("heaviside", d=10, b=5), 4.0)

    @given(
        d1=st.floats(0.1, 1e3),
        d2=st.floats(0.1, 1e3),
        G=st.floats(0.0, 20.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_d_cancels(self, d1, d2, G):
        r1 = ratio_scalar(logistic(d=d1), G)
        r2 = ratio_scalar(logistic(d=d2), G)
        assert r1 == pytest.approx(r2, rel=1e-12)

    def test_matches_derivative_on_working_range(self):
        spec = logistic(d=10, gamma=2, b=5)
        h = 1e-6
        for G in np.linspace(0.01, 10.0, 57):
            deriv = (eval_score(spec, G + h) - eval_score(spec, G - h)) / (2 * h)
            assert ratio_scalar(spec, G) == pytest.approx(
                eval_score(spec, G) / deriv, rel=1e-5)


class TestValidate:
    @pytest.mark.parametrize("d,gamma,b", [(10, 2, 5), (1, 0.5, 3), (25, 7, 0.5)])
    def test_logistic_passes(self, d, gamma, b):
        report = validate_evaluation(logistic(d=d, gamma=gamma, b=b), (0.0, 3 * b + 1), 1000)
        assert report.passed, report

    def test_identity_passes(self):
        assert validate_evaluation(EvaluationSpec("identity"), (0.0, 10.0), 101).passed

    def test_heaviside_fails_near_threshold(self):
        spec = EvaluationSpec("heaviside", d=10, b=5)
        report = validate_evaluation(spec, (4.5, 5.5), 101)
        assert not report.passed
        assert report.first_violation is not None

    def test_bad_grid_rejected(self):
        with pytest.raises(Exception):
            validate_evaluation(logistic(), (5.0, 1.0), 100)


class TestSpecValidation:
    def test_kind_checked(self):
        with pytest.raises(ConfigurationError):
            EvaluationSpec("quadratic")

    @pytest.mark.parametrize("kwargs", [
        {"kind": "logistic", "d": -1.0},
        {"kind": "logistic", "gamma": 0.0},
        {"kind": "heaviside", "d": 0.0},
        {"kind": "logistic", "b": -2.0},
        {"kind": "logistic", "b": math.nan},
        {"kind": "heaviside", "b": math.inf},
        {"kind": "logistic", "d": math.inf},
        {"kind": "logistic", "gamma": math.inf},
    ])
    def test_parameter_domains(self, kwargs):
        key = next(k for k in kwargs if k != "kind")
        with pytest.raises(ConfigurationError, match=f"evaluation {key} must"):
            EvaluationSpec(**kwargs)

    def test_round_trip(self):
        for spec in (logistic(), EvaluationSpec("identity"),
                     EvaluationSpec("heaviside", d=10, b=5)):
            assert EvaluationSpec.from_dict(spec.to_dict()) == spec

    def test_unknown_key_named(self):
        with pytest.raises(ConfigurationError, match="steepness"):
            EvaluationSpec.from_dict({"kind": "identity", "steepness": 3})

    def test_to_dict_writes_the_kind_then_its_parameters(self):
        assert json.dumps(logistic(d=3.0, gamma=0.5, b=1.5).to_dict()) == (
            '{"kind": "logistic", "d": 3.0, "gamma": 0.5, "b": 1.5}')
        assert json.dumps(EvaluationSpec("identity", d=3.0).to_dict()) == '{"kind": "identity"}'
        assert json.dumps(EvaluationSpec("heaviside", d=7.0, gamma=9.0, b=5.0).to_dict()) == (
            '{"kind": "heaviside", "d": 7.0, "b": 5.0}')

    @pytest.mark.parametrize("data,message", [
        ([], "evaluation must be an object, got list"),
        ({}, f"evaluation kind must be one of {KINDS}, got None"),
        # the kind is read before any other key
        ({"zz": 1, "kind": "cubic"}, f"evaluation kind must be one of {KINDS}, got 'cubic'"),
        ({"kind": "identity", "d": 1.0}, "unknown evaluation key(s) ['d'] for kind 'identity'"),
        ({"kind": "heaviside", "zz": 1, "gamma": 2.0, "d": "x"},
         "unknown evaluation key(s) ['gamma', 'zz'] for kind 'heaviside'"),
        # values are cast in the input's order, then checked in the kind's
        ({"kind": "logistic", "b": None, "d": "x"}, "evaluation b must be a number, got None"),
        ({"kind": "logistic", "b": -1, "gamma": 0, "d": -1},
         "evaluation d must be finite and > 0, got -1.0"),
        ({"kind": "logistic", "b": -1, "gamma": 0}, "evaluation gamma must be finite and > 0, got 0.0"),
        ({"kind": "heaviside", "b": -1, "d": 0}, "evaluation d must be finite and > 0, got 0.0"),
        ({"kind": "heaviside", "b": math.inf}, "evaluation b must be finite and >= 0, got inf"),
        ({"kind": "logistic", "b": math.nan}, "evaluation b must be finite and >= 0, got nan"),
    ])
    def test_from_dict_message(self, data, message):
        with pytest.raises(ConfigurationError) as exc:
            EvaluationSpec.from_dict(data)
        assert str(exc.value) == message

    def test_smoothness_flag(self):
        assert logistic().is_smooth
        assert EvaluationSpec("identity").is_smooth
        assert not EvaluationSpec("heaviside", d=1, b=0).is_smooth
