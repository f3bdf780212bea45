import math

import pytest

from mvcontract import LqParams, from_case
from mvcontract.model import cashflow_weights

# Reference instance used throughout: the bounded closed-loop corner point.
REF_KWARGS = dict(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03)


@pytest.fixture
def ref_params():
    return LqParams(**REF_KWARGS)


@pytest.fixture
def corner_triple():
    return from_case("iv", 0.1, math.pi / 2)


def _raw_closed_loop(sol, k, x, R):
    """(p, P1, P2, s, fx, fR) at node k from the raw coefficients.

    The spec of the closed loop, written out from the coefficient
    representation: the rows of ``ClosedLoopField`` must reproduce it.
    """
    (A11, _, B11, _,
     A12, _, B12, _,
     A13, _, B13, _) = sol.coeffs[k]
    a, b = sol.params.a, sol.params.b
    lam_P, lam_E = sol.multipliers.lam_P, sol.multipliers.lam_E
    c1, c2 = cashflow_weights(b, sol.p2_drift_mode)
    p = A11 * x + B11 * R
    P1 = A12 * x + B12 * R
    P2 = A13 * x + B13 * R
    s = (c1 * P1 + c2 * P2) / lam_P
    fx = a * x + b * b * p + b * s
    fR = a * R - b * b * (P1 + P2) + lam_E * b * b * p
    return p, P1, P2, s, fx, fR


def _row_closed_loop(field, k, x, R):
    """(sqrt(dt/2) b p, sqrt(dt/2) s, fx, fR) at node k from the field's row."""
    bpx, bpR, sx, sR, fxx, fxR, gRx, gRR = field.rows[k]
    return bpx * x + bpR * R, sx * x + sR * R, fxx * x + fxR * R, gRx * x + gRR * R


@pytest.fixture
def raw_closed_loop():
    return _raw_closed_loop


@pytest.fixture
def row_closed_loop():
    return _row_closed_loop
