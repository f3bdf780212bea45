import math

import numpy as np
import pytest

from mvcontract import make_grid, montecarlo
from reference_schemes import euler_maruyama, sample_noise, simulate_density


def _driftless_output(sigma, T, n_steps, n_paths, seed):
    grid = make_grid(T, n_steps)
    noise = sample_noise(grid, n_paths, seed)
    paths = euler_maruyama(lambda X, t: 0.0, lambda X, t: sigma, 0.0, noise)
    return grid, noise, paths


def test_zero_integrand_gives_unit_density():
    _, noise, paths = _driftless_output(1.0, 0.03, 32, 200, 1)
    density = simulate_density(lambda x, t: 0.0, noise, paths)
    assert np.all(density.gamma == 1.0)
    assert np.all(density.log_gamma == 0.0)


def test_density_is_positive_and_starts_at_one():
    _, noise, paths = _driftless_output(1.0, 0.03, 64, 5_000, 2)
    density = simulate_density(lambda x, t: 2.0, noise, paths)
    assert np.all(density.gamma[:, 0] == 1.0)
    assert np.all(density.gamma > 0.0)


@pytest.mark.parametrize("theta", [0.5, 1.0, 2.0])
def test_constant_integrand_martingale_mean(theta):
    T = 0.03
    n = 100_000
    _, noise, paths = _driftless_output(1.0, T, 64, n, 3)
    density = simulate_density(lambda x, t: theta, noise, paths)
    g = density.terminal
    se = g.std(ddof=1) / math.sqrt(n)
    assert abs(g.mean() - 1.0) <= 3 * se


@pytest.mark.parametrize("theta", [0.5, 2.0])
def test_constant_integrand_log_mean(theta):
    T = 0.03
    n = 100_000
    _, noise, paths = _driftless_output(1.0, T, 64, n, 4)
    density = simulate_density(lambda x, t: theta, noise, paths)
    logs = density.log_gamma[:, -1]
    target = -0.5 * theta**2 * T
    se = logs.std(ddof=1) / math.sqrt(n)
    assert abs(logs.mean() - target) <= 3 * se


def test_non_finite_integrand_rejected():
    _, noise, paths = _driftless_output(1.0, 0.03, 8, 10, 5)
    with pytest.raises(ValueError):
        simulate_density(lambda x, t: float("nan"), noise, paths)


def test_grid_mismatch_rejected():
    _, noise, paths = _driftless_output(1.0, 0.03, 8, 10, 5)
    other_noise = sample_noise(make_grid(0.03, 16), 10, 5)
    with pytest.raises(ValueError):
        simulate_density(lambda x, t: 1.0, other_noise, paths)


def test_reweighted_unit_payoff_estimates_one():
    n = 50_000
    _, noise, paths = _driftless_output(1.0, 0.03, 64, n, 6)
    density = simulate_density(lambda x, t: 1.0, noise, paths)
    est, se = montecarlo._mean_and_se(density.terminal * np.ones(n))
    assert abs(est - 1.0) <= 3 * se


def test_reweighted_mean_matches_tilted_dynamics():
    # constant effort tilts the output drift to b * e; its terminal mean is
    # b * e * T, recovered from driftless paths by the density weight
    b, e0, sigma, T = 1.0, 1.0, 1.0, 0.03
    n = 100_000
    _, noise, paths = _driftless_output(sigma, T, 64, n, 7)
    theta = b * e0 / sigma
    density = simulate_density(lambda x, t: theta, noise, paths)
    x_T = paths.states[:, -1, 0]
    est, se = montecarlo._mean_and_se(density.terminal * x_T)
    assert abs(est - b * e0 * T) <= 3 * se


def test_weak_and_strong_formulations_agree():
    b, e0, sigma, T = 1.0, 1.0, 1.0, 0.03
    n = 100_000
    grid, noise, paths = _driftless_output(sigma, T, 64, n, 8)
    density = simulate_density(lambda x, t: b * e0 / sigma, noise, paths)
    weak_est, weak_se = montecarlo._mean_and_se(density.terminal * paths.states[:, -1, 0])

    strong_noise = sample_noise(grid, n, seed=9)
    strong = euler_maruyama(lambda X, t: b * e0, lambda X, t: sigma, 0.0, strong_noise)
    s_T = strong.states[:, -1, 0]
    strong_est = s_T.mean()
    strong_se = s_T.std(ddof=1) / math.sqrt(n)
    band = 3 * math.sqrt(weak_se**2 + strong_se**2)
    assert abs(weak_est - strong_est) <= band


def test_unit_weight_reduces_to_plain_mean():
    rng = np.random.default_rng(10)
    payoff = rng.normal(size=1_000)
    est, _ = montecarlo._mean_and_se(np.ones(1_000) * payoff)
    assert est == payoff.mean()
