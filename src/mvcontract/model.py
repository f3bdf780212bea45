"""Linear-quadratic principal-agent model with a hidden cash-flow process.

Output follows dx = (a x + b e) dt + sigma dW with x(0) = 0.  The agent
chooses effort e against the running cost (s - e)^2 / 2 and terminal reward
alpha x(T)^2 / 2; the principal chooses the cash-flow s against s^2 / 2 and
beta x(T)^2 / 2 (both written as costs, so terminal terms enter negatively).
The agent's pointwise optimality condition gives

    e_bar = b p + s,

with (p, q) the agent's adjoint pair, and substituting it into the output
dynamics yields the controlled system dx = (a x + b^2 p + b s) dt + sigma dW.
The principal's pointwise condition determines the cash-flow from the
adjoint components (P1, P2) and the multiplier lambda_P:

    s_bar = (c1 P1 + c2 P2) / lambda_P,

where (c1, c2) depend on the convention used for the P2 coupling term in the
principal's Hamiltonian (see ``P2_DRIFT_MODES``).  The participation
constraint bounds the agent's cost by W0 and the variance of terminal output
by R0.
"""

import math
from dataclasses import dataclass, fields
from typing import Tuple

import numpy as np

from .errors import DegenerateMultiplierError

# Floor on lambda_P: the optimal cash-flow divides by it.
MIN_LAMBDA_P = 1e-6

AS_PRINTED = "as_printed"
ETA_EQUALS_X = "eta_equals_x"

#: Conventions for the factor multiplying P2 in the principal's Hamiltonian.
#: ``as_printed`` keeps an extra additive cash-flow term in that factor,
#: (s + a x + b^2 p + b s), giving s_bar = (b P1 + (1+b) P2) / lambda_P.
#: ``eta_equals_x`` uses the output drift itself, (a x + b^2 p + b s),
#: giving s_bar = b (P1 + P2) / lambda_P.  The adjoint equations are
#: identical in both modes; only the Hamiltonian value and the cash-flow
#: map differ.  For small lambda_P the ``as_printed`` feedback is strong
#: enough to blow up the coefficient system on [0, T].
P2_DRIFT_MODES = (AS_PRINTED, ETA_EQUALS_X)


@dataclass(frozen=True)
class LqParams:
    """Scalar model constants.

    a      output drift coefficient (1/time)
    b      effort gain (dimensionless)
    sigma  output volatility (> 0)
    alpha  agent bonus factor (> 0)
    beta   principal bonus factor (> 0)
    T      horizon (time)
    W0     participation bound on the agent's cost (typically < 0)
    R0     bound on Var(x(T)) (> 0)
    """

    a: float
    b: float
    sigma: float
    alpha: float
    beta: float
    T: float
    W0: float = -0.005
    R0: float = 0.06

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value}")
        if self.sigma <= 0:
            raise ValueError(f"sigma must be > 0, got {self.sigma}")
        if self.alpha <= 0:
            raise ValueError(f"alpha must be > 0, got {self.alpha}")
        if self.beta <= 0:
            raise ValueError(f"beta must be > 0, got {self.beta}")
        if self.T <= 0:
            raise ValueError(f"T must be > 0, got {self.T}")
        if self.R0 <= 0:
            raise ValueError(f"R0 must be > 0, got {self.R0}")


def check_mode(mode: str) -> str:
    if mode not in P2_DRIFT_MODES:
        raise ValueError(f"p2_drift_mode must be one of {P2_DRIFT_MODES}, got {mode!r}")
    return mode


def cashflow_weights(b: float, mode: str = AS_PRINTED) -> Tuple[float, float]:
    """Weights (c1, c2) of (P1, P2) in the optimal cash-flow numerator."""
    check_mode(mode)
    return (b, 1.0 + b) if mode == AS_PRINTED else (b, b)


def optimal_effort(b, p, s):
    """Agent's pointwise optimal effort e_bar = b p + s."""
    return b * p + s


def optimal_cashflow(b, P1, P2, lam_P: float, mode: str = AS_PRINTED):
    """Principal's pointwise optimal cash-flow s_bar = (c1 P1 + c2 P2) / lambda_P."""
    if lam_P < MIN_LAMBDA_P:
        raise DegenerateMultiplierError(
            f"lambda_P = {lam_P:g} is below the floor {MIN_LAMBDA_P:g}; "
            "the cash-flow map divides by it"
        )
    c1, c2 = cashflow_weights(b, mode)
    return (c1 * P1 + c2 * P2) / lam_P


def agent_hamiltonian(params: LqParams, x, e, p, q, s):
    """H_A = p (a x + b e) + q sigma - (s - e)^2 / 2 (concave quadratic in e)."""
    return p * (params.a * x + params.b * e) + q * params.sigma - (s - e) ** 2 / 2.0


def principal_hamiltonian(
    params: LqParams, x, p, s, R, P1, P2, Q1, Q2, lam_E, lam_P, mode: str = AS_PRINTED
):
    """Principal's Hamiltonian; the P2 coupling factor depends on ``mode``.

    H_P = -a p R + (a x + b^2 p + b s) P1 + g P2 + sigma (Q1 + Q2)
          - lambda_E b^2 p^2 / 2 - lambda_P s^2 / 2,

    with g = s + a x + b^2 p + b s in ``as_printed`` mode and
    g = a x + b^2 p + b s in ``eta_equals_x`` mode.
    """
    check_mode(mode)
    a, b, sigma = params.a, params.b, params.sigma
    x_drift = a * x + b * b * p + b * s
    p2_factor = s + x_drift if mode == AS_PRINTED else x_drift
    return (
        -a * p * R
        + x_drift * P1
        + p2_factor * P2
        + sigma * (Q1 + Q2)
        - lam_E * b * b * p * p / 2.0
        - lam_P * s * s / 2.0
    )


def terminal_costs(x_T, alpha: float, beta: float):
    """Terminal cost contributions (-alpha x_T^2 / 2, -beta x_T^2 / 2)."""
    sq = np.asarray(x_T, dtype=np.float64) ** 2 / 2.0
    return -alpha * sq, -beta * sq
