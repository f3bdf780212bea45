"""Exception types shared across the package.

Plain ``ValueError`` is raised for ordinary bad arguments; the classes here
mark failure modes that callers (in particular the CLI) dispatch on.
"""

from typing import Optional


class SimulationDivergedError(RuntimeError):
    """A simulated state became non-finite during forward integration."""

    def __init__(self, path: int, step: int, label: str = "state"):
        self.path = path
        self.step = step
        self.label = label
        super().__init__(
            f"simulation diverged: non-finite {label} on path {path} at step {step}"
        )


class NonFiniteEstimateError(RuntimeError):
    """A Monte-Carlo estimate or standard error of one grid point is not finite.

    ``statistics`` maps the eval.csv name of each such statistic (``J_A``,
    ``J_A_se``, ..., ``var_xT_se``) to its value; no feasibility verdict can
    be read from it.
    """

    def __init__(self, statistics: dict, lam_P: float, theta: Optional[float]):
        self.statistics = statistics
        self.lam_P = lam_P
        self.theta = theta
        point = f"lambda_P = {lam_P:.6g}" + ("" if theta is None else f", theta = {theta:.6g}")
        values = ", ".join(f"{name} = {value!r}" for name, value in statistics.items())
        super().__init__(f"non-finite estimate at {point}: {values}")


class RiccatiBlowUpError(RuntimeError):
    """The backward coefficient system blew up at grid time ``t``.

    ``t_star`` is the exact pole the coefficients passed between ``t`` and the
    next node toward T, or None when they only exceeded ``bound`` there.
    """

    def __init__(self, t: float, bound: float, t_star: Optional[float] = None):
        self.t = t
        self.bound = bound
        self.t_star = t_star
        cause = (f"|coefficient| > {bound:g}" if t_star is None
                 else f"singular at t* = {t_star:.6g}")
        super().__init__(f"coefficient system blew up ({cause}) near t = {t:.6g}")


class DegenerateMultiplierError(ValueError):
    """lambda_P fell below the admissible floor; the cash-flow map divides by it."""


class DegenerateSensitivityError(ValueError):
    """f_e = b is zero: the hidden-action condition q = sigma u_e / f_e has no solution."""


class ConfigError(ValueError):
    """A run configuration file or override is malformed."""
