import numpy as np
import pytest

from mvcontract import SimulationDivergedError, make_grid
from reference_schemes import coarsened, euler_maruyama, sample_noise


def _terminal_second_moment_discrete(a, sigma, T, n_steps):
    # exact second moment of the Euler chain x_{k+1} = (1 + a dt) x_k + sigma dW_k
    dt = T / n_steps
    g = (1.0 + a * dt) ** 2
    return sigma**2 * dt * (g**n_steps - 1.0) / (g - 1.0)


def test_zero_dynamics_keeps_initial_state():
    grid = make_grid(0.03, 8)
    noise = sample_noise(grid, 40, seed=5)
    paths = euler_maruyama(
        lambda X, t: 0.0 * X, lambda X, t: 0.0 * X, 1.25, noise
    )
    assert np.all(paths.states == 1.25)


def test_initial_condition_pinned_exactly():
    grid = make_grid(0.03, 8)
    noise = sample_noise(grid, 10, seed=5)
    init = np.array([0.5, -2.0])
    paths = euler_maruyama(
        lambda X, t: X, lambda X, t: np.ones_like(X), init, noise, labels=("x", "R")
    )
    assert np.array_equal(paths.states[:, 0, :], np.tile(init, (10, 1)))


def test_pure_diffusion_terminal_variance():
    sigma, T = 1.0, 0.03
    grid = make_grid(T, 64)
    n = 100_000
    noise = sample_noise(grid, n, seed=11)
    paths = euler_maruyama(lambda X, t: 0.0 * X, lambda X, t: sigma, 0.0, noise)
    x_T = paths.states[:, -1, 0]
    var = x_T.var(ddof=1)
    target = sigma**2 * T
    se = target * np.sqrt(2.0 / (n - 1))
    assert abs(var - target) <= 3 * se


def test_linear_drift_terminal_variance_matches_closed_form():
    a, sigma, T = 1.0, 1.0, 0.03
    grid = make_grid(T, 64)
    n = 100_000
    noise = sample_noise(grid, n, seed=12)
    paths = euler_maruyama(lambda X, t: a * X, lambda X, t: sigma, 0.0, noise)
    x_T = paths.states[:, -1, 0]
    var = x_T.var(ddof=1)
    target = sigma**2 * (np.exp(2 * a * T) - 1.0) / (2 * a)
    se = target * np.sqrt(2.0 / (n - 1))
    assert abs(var - target) <= 3 * se


def test_weak_bias_halves_with_step_doubling():
    # For dx = a x dt + sigma dW the Euler chain's E[x_T^2] is known in
    # closed form, so the scheme's weak bias can be separated: the Monte-
    # Carlo estimate must match the discrete law at 3 standard errors and
    # the discrete law's bias must halve (to first order) per doubling.
    a, sigma, T = 1.0, 1.0, 1.0
    exact_limit = sigma**2 * (np.exp(2 * a * T) - 1.0) / (2 * a)
    n = 50_000
    fine_grid = make_grid(T, 64)
    fine_noise = sample_noise(fine_grid, n, seed=13)
    biases = []
    for n_steps in (16, 32, 64):
        noise = coarsened(fine_noise, 64 // n_steps)
        paths = euler_maruyama(lambda X, t: a * X, lambda X, t: sigma, 0.0, noise)
        sq = paths.states[:, -1, 0] ** 2
        estimate = sq.mean()
        se = sq.std(ddof=1) / np.sqrt(n)
        discrete = _terminal_second_moment_discrete(a, sigma, T, n_steps)
        assert abs(estimate - discrete) <= 3 * se
        biases.append(discrete - exact_limit)
    assert 0.4 <= biases[1] / biases[0] <= 0.6
    assert 0.4 <= biases[2] / biases[1] <= 0.6


def test_determinism_same_noise_same_paths():
    grid = make_grid(0.03, 16)
    noise = sample_noise(grid, 30, seed=21)
    run = lambda: euler_maruyama(
        lambda X, t: -X, lambda X, t: 0.5, 0.1, noise
    ).states
    assert np.array_equal(run(), run())


def test_divergence_reports_path_and_step():
    grid = make_grid(0.03, 8)
    noise = sample_noise(grid, 6, seed=2)
    with pytest.raises(SimulationDivergedError) as excinfo, np.errstate(over="ignore"):
        euler_maruyama(lambda X, t: X * 1e6, lambda X, t: 0.0, 1e303, noise)
    assert excinfo.value.step == 1
    assert 0 <= excinfo.value.path < 6


def test_component_accessor():
    grid = make_grid(0.03, 4)
    noise = sample_noise(grid, 3, seed=1)
    paths = euler_maruyama(
        lambda X, t: 0.0 * X, lambda X, t: np.array([1.0, 0.0]), [0.0, 7.0],
        noise, labels=("x", "R"),
    )
    assert np.all(paths.component("R") == 7.0)
    with pytest.raises(KeyError):
        paths.component("missing")
