import math

import numpy as np
import pytest

from mvcontract import (
    LqParams,
    MultiplierTriple,
    classify_feasibility,
    from_case,
    sweep_grid,
)
from mvcontract.montecarlo import ContractEvaluation


def _fake_eval(params, j_a, var_xt, se=1e-6):
    return ContractEvaluation(j_a=j_a, j_a_se=se, j_p=0.0, j_p_se=se, var_xt=var_xt, var_xt_se=se)


def test_case_ii_values():
    t = from_case("ii", 0.6)
    assert t.lam_E == 0.0
    assert t.lam_V == pytest.approx(-0.8, abs=1e-15)


def test_case_iv_at_right_angle():
    t = from_case("iv", 0.1, math.pi / 2)
    assert abs(t.lam_E) <= 1e-15
    assert t.lam_V == pytest.approx(-math.sqrt(0.99), abs=1e-15)


def test_case_v_degenerate_pole():
    t = from_case("v", 1.0)
    assert (t.lam_E, t.lam_V) == (0.0, 0.0)


def test_sign_conventions():
    # upper-contact case points down, lower-contact case points up
    for lam_P in (0.0, 0.3, 0.99):
        assert from_case("i", lam_P).lam_V > 0
        assert from_case("ii", lam_P).lam_V < 0
        assert from_case("v", lam_P).lam_E < 0


def test_theta_validation():
    with pytest.raises(ValueError):
        from_case("iv", 0.5)  # missing angle
    with pytest.raises(ValueError):
        from_case("iv", 0.5, -0.1)  # outside [0, pi/2]
    with pytest.raises(ValueError):
        from_case("iii", 0.5, 0.1)  # outside [-pi/2, 0]
    with pytest.raises(ValueError):
        from_case("ii", 0.5, 0.3)  # case without an angle
    with pytest.raises(ValueError):
        from_case("vi", 0.5)
    with pytest.raises(ValueError):
        from_case("i", 1.5)


def test_normalization_property():
    rng = np.random.default_rng(123)
    cases = ("i", "ii", "iii", "iv", "v")
    for _ in range(10_000):
        case = cases[rng.integers(len(cases))]
        lam_P = float(rng.uniform(0.0, 1.0))
        if case == "iii":
            t = from_case(case, lam_P, float(rng.uniform(-math.pi / 2, 0.0)))
        elif case == "iv":
            t = from_case(case, lam_P, float(rng.uniform(0.0, math.pi / 2)))
        else:
            t = from_case(case, lam_P)
        norm = t.lam_P**2 + t.lam_E**2 + t.lam_V**2
        assert abs(norm - 1.0) <= 1e-12


def test_explicit_triple_normalization_enforced():
    with pytest.raises(ValueError):
        MultiplierTriple(lam_P=0.5, lam_E=0.5, lam_V=0.5)
    MultiplierTriple(lam_P=0.6, lam_E=0.0, lam_V=-0.8)


def test_sweep_grid_cardinality_and_order():
    lam_ps = list(np.linspace(0.1, 0.9, 9))
    thetas = list(np.linspace(0.0, math.pi / 2, 10))
    grid = sweep_grid("iv", lam_ps, thetas)
    assert len(grid) == 90
    # lambda_P-major, theta-minor
    assert [t.lam_P for t in grid[:10]] == [0.1] * 10
    assert [t.theta for t in grid[:10]] == thetas
    assert len({(t.lam_P, t.theta) for t in grid}) == 90


def test_sweep_grid_single_point():
    grid = sweep_grid("ii", [0.5])
    assert len(grid) == 1
    assert grid[0].lam_V == pytest.approx(-math.sqrt(0.75))


def test_sweep_grid_validation():
    with pytest.raises(ValueError):
        sweep_grid("ii", [])
    with pytest.raises(ValueError):
        sweep_grid("ii", [0.0, 0.5])  # below the lambda_P floor
    with pytest.raises(ValueError):
        sweep_grid("iv", [0.5])  # theta list required
    with pytest.raises(ValueError):
        sweep_grid("ii", [0.5], [0.1])  # theta list forbidden


def test_classify_interior_point():
    params = LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.03, W0=-0.01, R0=0.05)
    verdict = classify_feasibility(_fake_eval(params, params.W0 - 1.0, params.R0 / 2), params)
    assert verdict.agent_cost == "feasible"
    assert verdict.variance == "feasible"


def test_classify_double_boundary_is_case_iv():
    params = LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.03, W0=-0.01, R0=0.05)
    verdict = classify_feasibility(_fake_eval(params, params.W0, params.R0), params)
    assert verdict.agent_cost == "boundary"
    assert verdict.variance == "boundary"


def test_classify_violated_variance():
    params = LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.03, W0=-0.01, R0=0.05)
    tol = 1e-3
    ev = _fake_eval(params, params.W0 - 1.0, params.R0 + 10 * tol * params.R0)
    verdict = classify_feasibility(ev, params, tol)
    assert verdict.variance == "infeasible"
    assert verdict.agent_cost == "feasible"


def test_classify_single_boundaries():
    params = LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.03, W0=-0.01, R0=0.05)

    def verdicts(j_a, var_xt):
        verdict = classify_feasibility(_fake_eval(params, j_a, var_xt), params)
        return verdict.agent_cost, verdict.variance

    assert verdicts(params.W0, params.R0 / 2) == ("boundary", "feasible")
    assert verdicts(params.W0 - 1, params.R0) == ("feasible", "boundary")
    # a variance at 0 is far inside its bound R0
    assert verdicts(params.W0 - 1, 0.0) == ("feasible", "feasible")
    assert verdicts(params.W0, 0.0) == ("boundary", "feasible")
