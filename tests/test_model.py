import math

import numpy as np
import pytest

from mvcontract import (
    AS_PRINTED,
    ETA_EQUALS_X,
    DegenerateMultiplierError,
    LqParams,
    agent_hamiltonian,
    optimal_cashflow,
    optimal_effort,
    principal_hamiltonian,
    terminal_costs,
)
from reference_schemes import agent_cost_integrand, principal_cost_integrand


def test_optimal_effort_values():
    assert optimal_effort(1.0, 0.5, 0.2) == pytest.approx(0.7)
    assert optimal_effort(0.0, 123.0, 0.3) == 0.3


def test_effort_first_order_condition(ref_params):
    # derivative of the agent Hamiltonian in e vanishes at b p + s
    b = ref_params.b
    p, s, x, q = 0.37, -0.6, 0.2, 0.1
    e_bar = optimal_effort(b, p, s)
    h = 1e-4
    up = agent_hamiltonian(ref_params, x, e_bar + h, p, q, s)
    dn = agent_hamiltonian(ref_params, x, e_bar - h, p, q, s)
    assert abs(up - dn) / (2 * h) <= 1e-9


def test_optimal_cashflow_values():
    assert optimal_cashflow(1.0, 0.05, 0.0, 0.1) == pytest.approx(0.5)
    assert optimal_cashflow(1.0, 0.0, 0.0, 0.1) == 0.0
    # the two P2 conventions weight P2 by (1 + b) and b respectively
    assert optimal_cashflow(1.0, 0.05, 0.02, 0.1, AS_PRINTED) == pytest.approx(0.9)
    assert optimal_cashflow(1.0, 0.05, 0.02, 0.1, ETA_EQUALS_X) == pytest.approx(0.7)


def test_cashflow_degenerate_multiplier():
    with pytest.raises(DegenerateMultiplierError):
        optimal_cashflow(1.0, 0.1, 0.1, 0.0)
    with pytest.raises(DegenerateMultiplierError):
        optimal_cashflow(1.0, 0.1, 0.1, 1e-9)


def test_agent_hamiltonian_zero_case(ref_params):
    assert agent_hamiltonian(ref_params, 0, 0, 0, 0, 0) == 0.0


def test_agent_hamiltonian_grid_argmax(ref_params):
    b, p, s = ref_params.b, 0.3, 0.1
    e_grid = np.arange(-2.0, 2.0, 0.01)
    values = agent_hamiltonian(ref_params, 0.0, e_grid, p, 0.0, s)
    e_hat = e_grid[np.argmax(values)]
    assert abs(e_hat - optimal_effort(b, p, s)) <= 0.01


def test_agent_hamiltonian_concavity(ref_params):
    # second difference of a quadratic with curvature -1 is exactly -de^2
    e_grid = np.arange(-1.0, 1.0, 0.05)
    values = agent_hamiltonian(ref_params, 0.4, e_grid, 0.2, -0.3, 0.6)
    second = np.diff(values, 2)
    np.testing.assert_allclose(second, -0.05**2, rtol=1e-7)


def test_agent_hamiltonian_global_max(ref_params):
    rng = np.random.default_rng(0)
    for _ in range(50):
        x, p, q, s = rng.uniform(-1, 1, size=4)
        e_bar = optimal_effort(ref_params.b, p, s)
        best = agent_hamiltonian(ref_params, x, e_bar, p, q, s)
        e_grid = e_bar + rng.uniform(-5, 5, size=100)
        assert np.all(agent_hamiltonian(ref_params, x, e_grid, p, q, s) <= best + 1e-12)


def test_principal_hamiltonian_zero_case(ref_params):
    assert principal_hamiltonian(ref_params, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0) == 0.0


def test_principal_first_order_condition(ref_params):
    b = ref_params.b
    x, p, R, P1, P2, Q1, Q2 = 0.1, -0.2, 0.3, 0.05, 0.02, 0.7, -0.4
    lam_E, lam_P = -0.3, 0.1
    for mode in (AS_PRINTED, ETA_EQUALS_X):
        s_bar = optimal_cashflow(b, P1, P2, lam_P, mode)
        h = 1e-4
        up = principal_hamiltonian(
            ref_params, x, p, s_bar + h, R, P1, P2, Q1, Q2, lam_E, lam_P, mode
        )
        dn = principal_hamiltonian(
            ref_params, x, p, s_bar - h, R, P1, P2, Q1, Q2, lam_E, lam_P, mode
        )
        assert abs(up - dn) / (2 * h) <= 1e-8


def test_principal_hamiltonian_grid_argmax(ref_params):
    b = ref_params.b
    P1, P2, lam_P = 0.05, 0.02, 0.1
    s_grid = np.arange(-2.0, 2.0, 0.01)
    values = principal_hamiltonian(
        ref_params, 0.0, 0.0, s_grid, 0.0, P1, P2, 0.0, 0.0, 0.0, lam_P, AS_PRINTED
    )
    s_hat = s_grid[np.argmax(values)]
    assert abs(s_hat - optimal_cashflow(b, P1, P2, lam_P, AS_PRINTED)) <= 0.01


def test_mode_validated(ref_params):
    with pytest.raises(ValueError):
        optimal_cashflow(1.0, 0.0, 0.0, 0.5, "bogus")
    with pytest.raises(ValueError):
        principal_hamiltonian(ref_params, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0.5, "bogus")


def test_cost_integrands():
    assert agent_cost_integrand(0.7, 0.7) == 0.0
    assert principal_cost_integrand(0.4) == pytest.approx(0.08)
    assert agent_cost_integrand(1.0, 0.4) == pytest.approx(0.18)


def test_terminal_costs():
    agent, principal = terminal_costs(1.0, alpha=0.2, beta=1.0)
    assert agent == pytest.approx(-0.1)
    assert principal == pytest.approx(-0.5)


def test_cost_sign_conventions():
    rng = np.random.default_rng(1)
    s, e, x = rng.normal(size=(3, 200))
    assert np.all(agent_cost_integrand(s, e) >= 0)
    assert np.all(principal_cost_integrand(s) >= 0)
    agent, principal = terminal_costs(x, alpha=0.2, beta=1.0)
    assert np.all(agent <= 0) and np.all(principal <= 0)


def test_params_validation():
    with pytest.raises(ValueError):
        LqParams(a=1, b=1, sigma=0.0, alpha=0.2, beta=1, T=0.03)
    with pytest.raises(ValueError):
        LqParams(a=1, b=1, sigma=1, alpha=-0.2, beta=1, T=0.03)
    with pytest.raises(ValueError):
        LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=0, T=0.03)
    with pytest.raises(ValueError):
        LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.0)
    with pytest.raises(ValueError):
        LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.03, R0=-1)


def test_params_must_be_finite():
    finite = dict(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03, W0=-0.005, R0=0.06)
    for key in finite:
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match=key):
                LqParams(**{**finite, key: bad})
