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
    NonFiniteEstimateError,
    RiccatiBlowUpError,
    SimulationDivergedError,
)
from .model import (
    AS_PRINTED,
    ETA_EQUALS_X,
    MIN_LAMBDA_P,
    P2_DRIFT_MODES,
    LqParams,
    agent_hamiltonian,
    optimal_cashflow,
    optimal_effort,
    principal_hamiltonian,
    terminal_costs,
)
from .montecarlo import ContractEvaluation, evaluate_contract
from .multipliers import (
    FeasibilityVerdict,
    MultiplierTriple,
    classify_feasibility,
    from_case,
    sweep_grid,
)
from .noise import NoiseEnsemble, sample_noise_block
from .riccati import (
    COEFF_NAMES,
    ClosedLoopField,
    RiccatiSolution,
    integrate_riccati,
    terminal_conditions,
)
from .timegrid import TimeGrid, make_grid

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
    "FeasibilityVerdict",
    "LqParams",
    "MultiplierTriple",
    "NoiseEnsemble",
    "NonFiniteEstimateError",
    "RiccatiBlowUpError",
    "RiccatiSolution",
    "SimulationDivergedError",
    "TimeGrid",
    "agent_hamiltonian",
    "classify_feasibility",
    "evaluate_contract",
    "from_case",
    "integrate_riccati",
    "make_grid",
    "optimal_cashflow",
    "optimal_effort",
    "principal_hamiltonian",
    "sample_noise_block",
    "sweep_grid",
    "terminal_conditions",
    "terminal_costs",
]
