"""Optimal mean-variance principal-agent contracts, linear-quadratic case.

The package solves the backward coefficient system of the linear adjoint
representation, simulates the optimal closed-loop dynamics with a seeded
Euler scheme, evaluates contract costs and terminal-output variance by
Monte Carlo, and sweeps Lagrange-multiplier grids for feasibility.
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateMultiplierError,
    DegenerateSensitivityError,
    RiccatiBlowUpError,
    SimulationDivergedError,
)
from .model import (
    AS_PRINTED,
    ETA_EQUALS_X,
    MIN_LAMBDA_P,
    P2_DRIFT_MODES,
    LqParams,
    agent_cost_integrand,
    agent_hamiltonian,
    optimal_cashflow,
    optimal_effort,
    principal_cost_integrand,
    principal_hamiltonian,
    terminal_costs,
)
from .montecarlo import ContractEvaluation, closed_loop_paths, evaluate_contract
from .multipliers import (
    FeasibilityVerdict,
    MultiplierTriple,
    classify_feasibility,
    from_case,
    sweep_grid,
)
from .noise import NoiseEnsemble, sample_noise, sample_noise_block
from .riccati import (
    COEFF_NAMES,
    ClosedLoopField,
    ResidualReport,
    RiccatiSolution,
    ansatz_residual,
    explicit_R,
    integrate_riccati,
    terminal_conditions,
)
from .sde import PathEnsemble, euler_maruyama
from .timegrid import TimeGrid, make_grid
from .weak import (
    DensityEnsemble,
    FocReport,
    hidden_action_foc_check,
    reweighted_expectation,
    simulate_density,
)

__all__ = [
    "AS_PRINTED",
    "ETA_EQUALS_X",
    "MIN_LAMBDA_P",
    "P2_DRIFT_MODES",
    "COEFF_NAMES",
    "ClosedLoopField",
    "ConfigError",
    "ContractEvaluation",
    "DegenerateMultiplierError",
    "DegenerateSensitivityError",
    "DensityEnsemble",
    "FeasibilityVerdict",
    "FocReport",
    "LqParams",
    "MultiplierTriple",
    "NoiseEnsemble",
    "PathEnsemble",
    "ResidualReport",
    "RiccatiBlowUpError",
    "RiccatiSolution",
    "SimulationDivergedError",
    "TimeGrid",
    "agent_cost_integrand",
    "agent_hamiltonian",
    "ansatz_residual",
    "classify_feasibility",
    "closed_loop_paths",
    "euler_maruyama",
    "evaluate_contract",
    "explicit_R",
    "from_case",
    "hidden_action_foc_check",
    "integrate_riccati",
    "make_grid",
    "optimal_cashflow",
    "optimal_effort",
    "principal_cost_integrand",
    "principal_hamiltonian",
    "reweighted_expectation",
    "sample_noise",
    "sample_noise_block",
    "simulate_density",
    "sweep_grid",
    "terminal_conditions",
    "terminal_costs",
]
