"""Teamwork games: CES public-good equilibria and bandit learners."""

from .errors import (
    ConfigurationError,
    DegenerateRegressionError,
    InputError,
    NoEquilibriumError,
    RegimeError,
    TeamworkGameError,
    UndefinedDispersionError,
    UnsupportedEvaluationError,
    WrongSolverError,
)
from .evaluation import EvaluationSpec, eval_score, validate_evaluation
from .games import (
    GameSpec,
    ces_aggregate,
    max_achievable_utility,
    utility,
)
from .equilibrium import (
    CriticalThresholds,
    EquilibriumResult,
    critical_thresholds,
    enumerate_disjunctive_equilibria,
    replacement_additive,
    replacement_conjunctive,
    share_function,
    solve_equilibrium_concave,
    standalone_value,
    strongly_conjunctive_limit,
    verify_epsilon_nash,
)
from .bandit import (
    AgentState,
    update_q,
)
from .simulator import (
    LearnedOutcome,
    TrainConfig,
    dispersion,
    spawned_seed,
    train,
    train_many,
)
from .experiments import (
    ExperimentRecord,
    RegressionReport,
    SweepConfig,
    fit_regression,
    heatmap_table,
    heaviside_study,
    increment_table,
    nearest_equilibrium,
    regression_from_records,
    run_sweep,
    strategy_table,
    tune_hyperparameters,
)

__version__ = "0.1.0"
