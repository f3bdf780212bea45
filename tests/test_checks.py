import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from mvcontract import (
    ClosedLoopField,
    SimulationDivergedError,
    closed_loop_paths,
    evaluate_contract,
    from_case,
    integrate_riccati,
    make_grid,
    sample_noise,
)
from mvcontract import checks, montecarlo
from mvcontract.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_ORACLE, load_riccati_csv, main
from mvcontract.config import default_config
from mvcontract.riccati import ansatz_residual
from reference_schemes import euler_maruyama, simulate_density


@pytest.mark.parametrize("n_steps, target", [(4, "3.068436e-02"), (64, "3.090357e-02")])
def test_b0_oracle_targets_the_euler_chain(n_steps, target):
    # against the continuous-time variance, the scheme's discretisation bias
    # failed the 4-step oracle at z = -3.5; the chain's own variance is the
    # recursion v_{k+1} = (1 + a dt)^2 v_k + sigma^2 dt from v_0 = 0
    config = dataclasses.replace(default_config(), n_steps=n_steps)
    a, sigma, dt = config.params.a, config.params.sigma, config.params.T / n_steps
    v = 0.0
    for _ in range(n_steps):
        v = (1.0 + a * dt) ** 2 * v + sigma * sigma * dt
    assert f"{v:.6e}" == target
    result = checks.check_b0_variance(config, checks._noise_pass(config, None).b0_x_T)
    assert result.passed, result.detail
    assert f" target={target} " in result.detail


@pytest.mark.parametrize("cpus", [1, 8])
def test_streamed_batteries_match_full_ensemble(monkeypatch, cpus):
    # the full-matrix path the density batteries used to take is the spec:
    # one sample_noise call over the whole ensemble, then the public schemes.
    # 10,001 paths at 64 steps are blocks of 4096, 4096 and a ragged 1809;
    # 8 workers and a short switch interval interleave the workers' writes.
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    config = dataclasses.replace(default_config(), n_paths=10_001, seed=23, weak_effort=0.7)
    params = config.params
    n, seed = config.n_paths, config.seed
    assert n // (checks.BLOCK_DRAWS // config.n_steps) >= 2
    theta = params.b * config.weak_effort / params.sigma
    drift = params.b * config.weak_effort
    grid = make_grid(params.T, config.n_steps)

    noise = sample_noise(grid, n, seed)
    x_paths = euler_maruyama(lambda X, t: 0.0, lambda X, t: params.sigma, 0.0, noise)
    density = simulate_density(lambda x, t: theta, noise, x_paths)
    strong = euler_maruyama(lambda X, t: drift, lambda X, t: params.sigma, 0.0,
                            sample_noise(grid, n, seed + 1))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if cpus > 1 else interval)
    try:
        x_T, gamma_T, log_gamma_T = checks._terminal_values(config, seed, drift=0.0, theta=theta)
        s_T, no_gamma, no_log = checks._terminal_values(config, seed + 1, drift=drift)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(gamma_T, density.terminal)
    assert np.array_equal(log_gamma_T, density.log_gamma[:, -1])
    assert np.array_equal(x_T, x_paths.states[:, -1, 0])
    assert np.array_equal(s_T, strong.states[:, -1, 0])
    assert no_gamma is None and no_log is None

    # 2,500 paths at 256 steps are a block of 2048 and a ragged 452;
    # on seed 38 the largest residual lies in the ragged block
    sol = integrate_riccati(params, checks._first_triple(config),
                            make_grid(params.T, checks.RESIDUAL_CHECK_STEPS),
                            config.p2_drift_mode)
    field = ClosedLoopField(sol)
    full = ansatz_residual(sol, closed_loop_paths(field, sample_noise(sol.grid, 2_500, 38)))
    head = ansatz_residual(sol, closed_loop_paths(field, sample_noise(sol.grid, 2_048, 38)))
    assert head.max_residual < full.max_residual
    assert checks._max_residuals([sol], 2_500, 38) == [full.max_residual]


@pytest.mark.parametrize("n_paths", [10_001, 30_001])
@pytest.mark.parametrize("cpus", [1, 8])
def test_noise_pass_matches_separate_passes(monkeypatch, cpus, n_paths):
    # each part of the one pass over the 64-step stream must carry the bits
    # of a pass of its own.  10,001 paths end in a ragged block of 1809
    # inside the mean set; at 30,001 the mean set's last 3616 paths share
    # a block of 4096 with paths beyond it.  The residual grid's coefficient
    # file is another solution, stepped on the same draws as the config's.
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    config = dataclasses.replace(default_config(), n_paths=n_paths, seed=23)
    params, seed, mult = config.params, config.seed, checks._first_triple(config)
    sol = checks._solve(config, config.n_steps)
    draws = []
    draw = montecarlo.sample_noise_block
    monkeypatch.setattr(montecarlo, "sample_noise_block",
                        lambda *args: draws.append(args[4] - args[3]) or draw(*args))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if cpus > 1 else interval)
    try:
        shared = checks._noise_pass(config, sol)
        coeff_sol = integrate_riccati(
            params, from_case("iv", 0.3, 1.0),
            make_grid(params.T, checks.RESIDUAL_CHECK_STEPS), config.p2_drift_mode)
        residual, file_max = checks.check_riccati_residual(config, coeff_sol)
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(montecarlo, "sample_noise_block", draw)
    n_residual = min(n_paths, checks.RESIDUAL_CHECK_MAX_PATHS)
    assert sum(draws) == n_paths + n_residual
    assert not any(shared.failures.values())

    ev = evaluate_contract(dataclasses.replace(params, b=0.0), mult, n_paths,
                           config.n_steps, seed, config.p2_drift_mode)
    assert checks._variance_and_se(shared.b0_x_T) == (ev.var_xt, ev.var_xt_se)
    n_mean = min(n_paths, checks.MEAN_CHECK_MAX_PATHS)
    spec = closed_loop_paths(ClosedLoopField(sol), sample_noise(sol.grid, n_mean, seed))
    assert np.array_equal(shared.paths.states, spec.states)
    _, gamma_T, _ = checks._terminal_values(config, seed, drift=0.0, theta=1.0)
    assert np.array_equal(shared.gamma_T, gamma_T)

    own = checks._max_residuals([checks._solve(config, checks.RESIDUAL_CHECK_STEPS)],
                                n_residual, seed)
    assert residual.detail.startswith(f"max_residual={own[0]:.3e} ")
    assert file_max == checks._max_residuals([coeff_sol], n_residual, seed)[0] != own[0]


def test_coefficient_file_on_the_pass_grid_is_stepped_in_the_noise_pass(tmp_path, monkeypatch,
                                                                         capsys):
    # a table on the config's 64-step grid is stepped inside the noise pass,
    # on its first 10,000 paths, so the command draws 1e5 64-step paths and
    # the 10,000 256-step residual paths: 8.96M draws, where a pass of the
    # file's own drew its 10,000 paths again (110,000 paths, 9.60M draws)
    out = tmp_path / "c64"
    assert main(["riccati", "--steps", "64", "--out", str(out)]) == 0
    csv = str(out / "riccati.csv")
    paths = {}
    draw = montecarlo.sample_noise_block

    def counted(grid, n_paths, seed, lo, hi):
        paths[grid.n_steps] = paths.get(grid.n_steps, 0) + hi - lo
        return draw(grid, n_paths, seed, lo, hi)

    monkeypatch.setattr(montecarlo, "sample_noise_block", counted)
    capsys.readouterr()
    assert main(["check", "--coeffs", csv]) == 0
    printed = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(montecarlo, "sample_noise_block", draw)
    assert paths == {64: 100_000, checks.RESIDUAL_CHECK_STEPS: 10_000}
    assert sum(n * steps for steps, n in paths.items()) == 8_960_000
    separate = checks.check_coefficient_file(default_config(), load_riccati_csv(csv))[1]
    assert f"PASS file_riccati_residual: {separate.detail}" in printed


def test_b0_oracle_fails_on_the_blow_up_bound(tmp_path, capsys):
    # the b = 0 coefficients reach 2.05: under blow_up_bound = 0.5 its solve
    # blows up like the n_steps solve, and its check fails with the message
    path = tmp_path / "bound.cfg"
    path.write_text("blow_up_bound = 0.5\n")
    assert main(["check", "--config", str(path), "--paths", "4000"]) == EXIT_ORACLE
    lines = capsys.readouterr().out.splitlines()
    failed = [line.split(":")[0][len("FAIL "):] for line in lines if line.startswith("FAIL ")]
    assert failed == ["terminal_conditions", "riccati_residual", "b0_variance_oracle",
                      "mean_trajectory", "explicit_R_consistency"]
    assert "FAIL b0_variance_oracle: coefficient system blew up (|coefficient| > 0.5)" in (
        "\n".join(lines))


def test_density_battery_divergence_keeps_its_exit_code(tmp_path, capsys):
    # sigma sqrt(dt) = 1.25e308, so sigma dW overflows wherever |dW| > 1.44 sqrt(dt)
    path = tmp_path / "diverge.cfg"
    path.write_text("sigma = 1e307\nT = 10000\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["weakcheck", "--config", str(path), "--paths", "1000"]) == EXIT_NUMERICAL
    assert "non-finite x on path 8 at step 1" in capsys.readouterr().err


@pytest.mark.parametrize("cfg, message", [
    ("sigma = 1e307\nT = 10000\n", "non-finite x on path 8 at step 1"),
    ("sigma = 1e308\n", "non-finite state on path 8 at step 2"),
], ids=["density_before_b0_solve", "mean_set_before_residual"])
def test_check_reports_the_failure_of_its_earliest_check(tmp_path, capsys, cfg, message):
    # the first config blows up every coefficient solve, the b = 0 one
    # included, and its density fold diverges; in the second the mean-set
    # and residual paths both diverge (the residual's first on path 90).
    # The one noise pass meets all of these at once, and the run must still
    # end with the failure of the check that comes first
    path = tmp_path / "diverge.cfg"
    path.write_text(cfg)
    with np.errstate(all="ignore"):
        assert main(["check", "--config", str(path), "--paths", "1000"]) == EXIT_NUMERICAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [1, 2])
def test_terminal_fold_diverges_where_euler_maruyama_does(monkeypatch, cpus):
    # sigma dW overflows where |dW| > 3.9 sqrt(dt): on seed 42 the earliest
    # overflow is at step 1 in the ragged third block of 4096 paths, while
    # the first block diverges only at step 2
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    base = default_config()
    params = dataclasses.replace(base.params, sigma=3.7e306, T=1e4)
    config = dataclasses.replace(base, params=params, n_paths=10_001, seed=42)
    noise = sample_noise(make_grid(params.T, config.n_steps), config.n_paths, config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDivergedError) as spec:
            euler_maruyama(lambda X, t: 0.0, lambda X, t: params.sigma, 0.0, noise)
        with pytest.raises(SimulationDivergedError) as excinfo:
            checks._terminal_values(config, config.seed, drift=0.0, theta=1.0)
    assert spec.value.path >= 2 * (checks.BLOCK_DRAWS // config.n_steps)
    assert (excinfo.value.path, excinfo.value.step, excinfo.value.label) == (
        spec.value.path, spec.value.step, spec.value.label)


def test_non_finite_theta_is_a_configuration_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="non-finite theta"):
        checks._terminal_values(default_config(), 1, drift=0.0, theta=math.inf)
    # theta = b e0 / sigma overflows
    path = tmp_path / "theta.cfg"
    path.write_text("b = 1e300\nweak_effort = 1e300\n")
    assert main(["weakcheck", "--config", str(path), "--paths", "1000"]) == EXIT_CONFIG
    assert "non-finite theta" in capsys.readouterr().err


def _traced_peak_mb(fn):
    tracemalloc.start()
    try:
        result = fn()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return result, peak / 1e6


def _noise_pass_checks(config):
    shared = checks._noise_pass(config, checks._solve(config, config.n_steps))
    return [checks.check_density_martingale(shared.gamma_T),
            checks.check_b0_variance(config, shared.b0_x_T),
            checks.check_mean_trajectory(shared.paths)]


@pytest.mark.parametrize("battery, limit_mb", [
    (lambda config: checks.run_weak_battery(config), 64),
    (_noise_pass_checks, 64),
    (lambda config: [checks.check_riccati_residual(config)[0]], 96),
], ids=["run_weak_battery", "noise_pass", "check_riccati_residual"])
def test_battery_memory_does_not_scale_with_paths(monkeypatch, battery, limit_mb):
    # the default config runs 1e5 density and b = 0 paths, 20,000 recorded
    # mean-trajectory paths and 10,000 residual paths; full path matrices of
    # the density and residual ensembles took 198-302 MB of traced memory
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    results, peak_mb = _traced_peak_mb(lambda: battery(default_config()))
    assert all(r.passed for r in results)
    assert peak_mb < limit_mb
