"""Unit-sphere Lagrange multipliers and the transversality case taxonomy.

The constrained principal problem produces a multiplier triple
(lambda_P, lambda_E, lambda_V) with lambda_P >= 0 and
lambda_P^2 + lambda_E^2 + lambda_V^2 = 1.  Which boundary of the constraint
set (agent cost at W0, variance at 0 or at R0) is active narrows the
admissible directions of (lambda_E, lambda_V) to five cases:

    i    variance at 0:            lambda_E = 0,  lambda_V = +r
    ii   variance at R0:           lambda_E = 0,  lambda_V = -r
    iii  cost at W0, var at 0:     lambda_E = -r cos(theta), lambda_V = -r sin(theta), theta in [-pi/2, 0]
    iv   cost at W0, var at R0:    same formulas with theta in [0, pi/2]
    v    cost at W0:               lambda_E = -r, lambda_V = 0

with r = sqrt(1 - lambda_P^2).  ``explicit`` marks triples supplied directly.
"""

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence

from .model import MIN_LAMBDA_P, LqParams

CASE_TAGS = ("i", "ii", "iii", "iv", "v", "explicit")

_NORMALIZATION_TOL = 1e-12

#: case -> (low, high, printed interval) of its angle theta
_THETA_RANGES = {"iii": (-math.pi / 2, 0.0, "[-pi/2, 0]"), "iv": (0.0, math.pi / 2, "[0, pi/2]")}


@dataclass(frozen=True)
class MultiplierTriple:
    lam_P: float
    lam_E: float
    lam_V: float
    case_tag: str = "explicit"
    theta: Optional[float] = None

    def __post_init__(self):
        if self.case_tag not in CASE_TAGS:
            raise ValueError(f"case_tag must be one of {CASE_TAGS}, got {self.case_tag!r}")
        if not 0.0 <= self.lam_P <= 1.0:
            raise ValueError(f"lambda_P must lie in [0, 1], got {self.lam_P}")
        norm = self.lam_P**2 + self.lam_E**2 + self.lam_V**2
        if abs(norm - 1.0) > _NORMALIZATION_TOL:
            raise ValueError(
                f"multiplier triple is not unit-normalized: |lambda|^2 = {norm!r}"
            )
        if self.case_tag in _THETA_RANGES:
            lo, hi, interval = _THETA_RANGES[self.case_tag]
            if self.theta is None or not lo <= self.theta <= hi:
                raise ValueError(f"case {self.case_tag} requires theta in {interval}, "
                                 f"got {self.theta}")


def from_case(case_tag: str, lam_P: float, theta: Optional[float] = None) -> MultiplierTriple:
    """Build the multiplier triple for one transversality case.

    ``theta`` must be supplied exactly for cases iii and iv, inside that
    case's angular interval; ``MultiplierTriple`` checks it and ``lam_P``.
    """
    if case_tag not in CASE_TAGS[:-1]:  # every tag but "explicit"
        raise ValueError(f"case must be one of {CASE_TAGS[:-1]}, got {case_tag!r}")
    lam_P = float(lam_P)
    root = math.sqrt(max(0.0, 1.0 - lam_P * lam_P))

    if case_tag in _THETA_RANGES:
        if theta is None:
            raise ValueError(f"case {case_tag} requires an angle theta")
        theta = float(theta)
        if math.isinf(theta):  # where cos and sin raise
            raise ValueError(f"case {case_tag} requires a finite theta, got {theta}")
        lam_E = -root * math.cos(theta)
        lam_V = -root * math.sin(theta)
        return MultiplierTriple(lam_P, lam_E, lam_V, case_tag, theta)

    if theta is not None:
        raise ValueError(f"case {case_tag} does not take an angle theta")
    if case_tag == "i":
        return MultiplierTriple(lam_P, 0.0, root, case_tag)
    if case_tag == "ii":
        return MultiplierTriple(lam_P, 0.0, -root, case_tag)
    return MultiplierTriple(lam_P, -root, 0.0, case_tag)  # case v


def sweep_grid(
    case_tag: str,
    lam_P_points: Sequence[float],
    theta_points: Optional[Sequence[float]] = None,
) -> List[MultiplierTriple]:
    """Cartesian multiplier grid, ordered lambda_P-major then theta-minor.

    Every lambda_P point must be at least ``MIN_LAMBDA_P``; downstream
    evaluation divides by it.
    """
    lam_P_points = list(lam_P_points)
    if not lam_P_points:
        raise ValueError("lambda_P point list is empty")
    for lp in lam_P_points:
        if lp < MIN_LAMBDA_P:
            raise ValueError(
                f"lambda_P = {lp:g} is below the sweep floor {MIN_LAMBDA_P:g}"
            )
    if case_tag in _THETA_RANGES:
        if not theta_points:
            raise ValueError(f"case {case_tag} requires a non-empty theta point list")
        theta_points = list(theta_points)
        return [
            from_case(case_tag, lp, th) for lp in lam_P_points for th in theta_points
        ]
    if theta_points is not None:
        raise ValueError(f"case {case_tag} does not take theta points")
    return [from_case(case_tag, lp) for lp in lam_P_points]


@dataclass(frozen=True)
class FeasibilityVerdict:
    """Per-constraint verdicts against the participation bounds.

    ``agent_cost`` (J_A against W0) and ``variance`` (Var(x(T)) against R0)
    are each one of feasible / boundary / infeasible, where boundary means
    within ``tol * |bound| + 2 SE`` of the bound.
    """

    agent_cost: str
    variance: str


def _verdict(value: float, bound: float, band: float) -> str:
    if value > bound + band:
        return "infeasible"
    if value >= bound - band:
        return "boundary"
    return "feasible"


def classify_feasibility(evaluation, params: LqParams, tol: float = 1e-3) -> FeasibilityVerdict:
    """Classify a Monte-Carlo evaluation against the participation bounds.

    ``tol`` is relative to each bound's magnitude; the effective band also
    includes twice the estimate's standard error, since a point estimate
    cannot certify a strict inequality.
    """
    return FeasibilityVerdict(
        agent_cost=_verdict(evaluation.j_a, params.W0,
                            tol * abs(params.W0) + 2.0 * evaluation.j_a_se),
        variance=_verdict(evaluation.var_xt, params.R0,
                          tol * params.R0 + 2.0 * evaluation.var_xt_se),
    )
