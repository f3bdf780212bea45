"""Density-of-output process and measure-change consistency checks.

In the weak formulation the output is simulated driftless, dx = sigma dW,
and effort enters through the exponential density

    dGamma = Gamma * theta dW,   Gamma(0) = 1,   theta = f / sigma,

whose terminal value reweights expectations: E-underlying-effort[payoff]
= E[Gamma(T) * payoff].  Gamma is accumulated in log space,

    log Gamma_{k+1} = log Gamma_k + theta_k dW_k - theta_k^2 dt / 2,

the exact discrete exponential of the Euler integrand, so the density is
structurally positive and cannot underflow to a negative value.  For
bounded theta the density is a martingale and E[Gamma(T)] = 1.  The check
batteries fold it per path block (``checks``); this module holds the
reweighted expectation and the optimality-condition check.
"""

from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from .errors import DegenerateSensitivityError

_F_E_FLOOR = 1e-12


def reweighted_expectation(
    payoff: np.ndarray, gamma_T: np.ndarray
) -> Tuple[float, float]:
    """Sample mean and standard error of Gamma(T) * payoff over paths.

    This is the Monte-Carlo estimate of the payoff expectation under the
    effort-tilted measure defined by the terminal density.
    """
    payoff = np.asarray(payoff, dtype=np.float64)
    gamma_T = np.asarray(gamma_T, dtype=np.float64)
    if payoff.shape != gamma_T.shape:
        raise ValueError("payoff and terminal density differ in shape")
    if not np.all(np.isfinite(payoff)):
        raise ValueError("payoff must be finite per path")
    weighted = gamma_T * payoff
    n = weighted.size
    estimate = float(weighted.mean())
    stderr = float(weighted.std(ddof=1) / np.sqrt(n)) if n > 1 else float("nan")
    return estimate, stderr


@dataclass(frozen=True)
class FocReport:
    """Pointwise residual statistics of q against sigma * u_e / f_e."""

    max_abs: float
    mean_abs: float
    rms: float


def hidden_action_foc_check(
    u_e: Callable[[np.ndarray], np.ndarray],
    f_e: Callable[[np.ndarray], np.ndarray],
    q: np.ndarray,
    sigma: np.ndarray,
    e: np.ndarray,
) -> FocReport:
    """Report |q - sigma * u_e(e) / f_e(e)| statistics for a candidate (q, e).

    ``u_e`` and ``f_e`` are the effort sensitivities of the agent's running
    cost and of the production rate, evaluated on effort arrays (close over
    any other path data they need).  A verification utility, not a solver.
    """
    q = np.asarray(q, dtype=np.float64)
    e = np.asarray(e, dtype=np.float64)
    sigma = np.broadcast_to(np.asarray(sigma, dtype=np.float64), q.shape)
    sensitivity = np.broadcast_to(np.asarray(f_e(e), dtype=np.float64), q.shape)
    if np.any(np.abs(sensitivity) < _F_E_FLOOR):
        raise DegenerateSensitivityError(
            f"|f_e| fell below {_F_E_FLOOR:g}; the optimality condition divides by it"
        )
    marginal_cost = np.broadcast_to(np.asarray(u_e(e), dtype=np.float64), q.shape)
    resid = q - sigma * marginal_cost / sensitivity
    abs_resid = np.abs(resid)
    return FocReport(
        max_abs=float(abs_resid.max()),
        mean_abs=float(abs_resid.mean()),
        rms=float(np.sqrt(np.mean(resid**2))),
    )
