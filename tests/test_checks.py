import dataclasses
import math
import sys
import tracemalloc

import numpy as np
import pytest

from mvcontract import (
    COEFF_NAMES,
    ClosedLoopField,
    SimulationDivergedError,
    evaluate_contract,
    from_case,
    integrate_riccati,
    make_grid,
    sample_noise_block,
)
from mvcontract import checks, montecarlo
from mvcontract.cli import EXIT_CONFIG, EXIT_NUMERICAL, EXIT_OK, EXIT_ORACLE, load_riccati_csv, main
from mvcontract.config import RunConfig
from reference_schemes import (
    ansatz_residual,
    closed_loop_paths,
    euler_maruyama,
    explicit_R,
    sample_noise,
    scaled_noise_block,
    simulate_density,
)


@pytest.mark.parametrize("n_steps, target", [(4, "3.068436e-02"), (64, "3.090357e-02")])
def test_b0_oracle_targets_the_euler_chain(n_steps, target):
    # against the continuous-time variance, the scheme's discretisation bias
    # failed the 4-step oracle at z = -3.5; the chain's own variance is the
    # recursion v_{k+1} = (1 + a dt)^2 v_k + sigma^2 dt from v_0 = 0
    config = dataclasses.replace(RunConfig(), n_steps=n_steps)
    a, sigma, dt = config.params.a, config.params.sigma, config.params.T / n_steps
    v = 0.0
    for _ in range(n_steps):
        v = (1.0 + a * dt) ** 2 * v + sigma * sigma * dt
    assert f"{v:.6e}" == target
    result = {r.name: r for r in checks.run_check_battery(config)}["b0_variance_oracle"]
    assert result.passed, result.detail
    assert f" target={target} " in result.detail


@pytest.mark.parametrize("cpus", [1, 8])
def test_streamed_batteries_match_full_ensemble(monkeypatch, cpus):
    # the full-matrix path the density batteries used to take is the spec:
    # one sample_noise call over the whole ensemble, then the public schemes.
    # 10,001 paths at 64 steps in blocks of 2**18 draws are blocks of 4096,
    # 4096 and a ragged 1809; 8 workers and a short switch interval
    # interleave the workers' writes.
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 2**18)
    config = dataclasses.replace(RunConfig(), n_paths=10_001, seed=23, weak_effort=0.7)
    params = config.params
    n, seed = config.n_paths, config.seed
    assert n // (montecarlo.BLOCK_DRAWS // config.n_steps) >= 2
    theta = params.b * config.weak_effort / params.sigma
    drift = params.b * config.weak_effort
    grid = make_grid(params.T, config.n_steps)

    noise = sample_noise(grid, n, seed)
    x_paths = euler_maruyama(lambda X, t: 0.0, lambda X, t: params.sigma, 0.0, noise)
    density = simulate_density(lambda x, t: theta, noise, x_paths)
    strong = euler_maruyama(lambda X, t: drift, lambda X, t: params.sigma, 0.0,
                            sample_noise(grid, n, seed + 1))

    # the weak battery's estimator inputs, among them Gamma_T and log Gamma_T
    # (scaled by a power of two)
    estimated = []
    mean_and_se = checks._mean_and_se
    monkeypatch.setattr(checks, "_mean_and_se", lambda v: estimated.append(v) or mean_and_se(v))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if cpus > 1 else interval)
    try:
        x_T, s_T = np.empty((2, n))
        montecarlo.read_blocks({
            "weak": checks._fold_part(config, seed, 0.0, x_T),
            "strong": checks._fold_part(config, seed + 1, drift, s_T),
        })
        checks.run_weak_battery(config)
    finally:
        sys.setswitchinterval(interval)
    assert np.array_equal(x_T, x_paths.states[:, -1, 0])
    assert np.array_equal(s_T, strong.states[:, -1, 0])
    # the density is the closed form on x_T = W_T, bit for bit, and the
    # log-space recursion along the paths to within rounding
    log_gamma_T = theta * x_T - 0.5 * (theta * theta) * params.T
    gamma_T = np.exp(log_gamma_T)
    scale = int(np.frexp(np.abs(log_gamma_T).max())[1])
    assert any(np.array_equal(v, gamma_T) for v in estimated)
    assert any(np.array_equal(v, np.ldexp(log_gamma_T, -scale)) for v in estimated)
    np.testing.assert_allclose(log_gamma_T, density.log_gamma[:, -1], rtol=0, atol=1e-14)
    np.testing.assert_allclose(gamma_T, density.terminal, rtol=1e-14, atol=0)

    # 2,500 paths at 256 steps are blocks of 1024, 1024 and a ragged 452;
    # on seed 38 the largest residual lies in the ragged block
    sol = integrate_riccati(params, checks._first_triple(config),
                            make_grid(params.T, checks.RESIDUAL_CHECK_STEPS),
                            config.p2_drift_mode)
    field = ClosedLoopField(sol)
    full = ansatz_residual(sol, closed_loop_paths(field, sample_noise(sol.grid, 2_500, 38)))
    head = ansatz_residual(sol, closed_loop_paths(field, sample_noise(sol.grid, 2_048, 38)))
    assert head.max_residual < full.max_residual
    part = checks._loop_part(sol, 38, 2_500, fold=checks._ResidualFold)
    read = montecarlo.read_blocks({"residual": part})
    assert len(read["residual"]) == 3
    assert max(block.max() for block in read["residual"]) == full.max_residual


@pytest.mark.parametrize("b, weak_effort, weak_cashflow", [(-0.6, 0.7, -0.3), (1.0, 0.0, 0.0)],
                         ids=["negative_b", "zero_effort"])
def test_weak_battery_prints_the_whole_ensemble_statistics(b, weak_effort, weak_cashflow):
    # every weakcheck line, formatted from one sample_noise call over the
    # whole ensemble, the public schemes, the plain mean and SE formulas and
    # the grid node nearest the top of each Hamiltonian; 20,000 64-step paths
    # are a 16,384-path block and a ragged one
    base = RunConfig()
    config = dataclasses.replace(base, params=dataclasses.replace(base.params, b=b),
                                 n_paths=20_000, weak_effort=weak_effort,
                                 weak_cashflow=weak_cashflow)
    sigma, T, n = config.params.sigma, config.params.T, config.n_paths
    e0, s0 = weak_effort, weak_cashflow
    theta = b * e0 / sigma
    grid = make_grid(T, config.n_steps)
    noise = sample_noise(grid, n, config.seed)
    paths = euler_maruyama(lambda X, t: 0.0, lambda X, t: sigma, 0.0, noise)
    density = simulate_density(lambda x, t: theta, noise, paths)
    strong = euler_maruyama(lambda X, t: b * e0, lambda X, t: sigma, 0.0,
                            sample_noise(grid, n, config.seed + 1))
    gamma_T, log_gamma_T, x_T, s_T = (np.ascontiguousarray(v) for v in (
        density.terminal, density.log_gamma[:, -1], paths.states[:, -1, 0],
        strong.states[:, -1, 0]))

    def mean_and_se(v):
        return float(v.mean()), float(v.std(ddof=1) / math.sqrt(n))

    est, se = mean_and_se(gamma_T)
    log_est, _ = mean_and_se(log_gamma_T)
    weak, weak_se = mean_and_se(gamma_T * x_T)
    strong_est, strong_se = mean_and_se(s_T)
    # H(e) = q b e / sigma - (s0 - e)^2 / 2 is a parabola with its top at
    # s0 + q b / sigma, so its grid argmax is the grid node nearest that top
    efforts = np.arange(e0 - 2.0 + 0.004 / 3.0, e0 + 2.0, 0.004)

    def argmax_gap(e):
        q = sigma * (e - s0) / b
        return abs(efforts[np.abs(efforts - (s0 + q * b / sigma)).argmin()] - e0)

    expected = [
        f"min Gamma_T={gamma_T.min():.3e}",
        f"E[Gamma_T]={est:.6f} se={se:.2e} target=1 band=3se",
        f"E[log Gamma_T]={log_est:.6e} target={-0.5 * theta * theta * T:.6e} band=3se",
        f"weak={weak:.6e} analytic={b * e0 * T:.6e} se={weak_se:.2e} band=3se",
        f"weak={weak:.6e} strong={strong_est:.6e} "
        f"band={3.0 * math.sqrt(weak_se**2 + strong_se**2):.2e}",
        f"reweighted-with-1 equals plain mean ({x_T.mean():.6e})",
        f"argmax_gap={argmax_gap(e0):.3e} cell=0.004",
        f"argmax_gap={argmax_gap(e0 + 0.1):.3e} expected=1.000e-01 cell=0.004",
    ]
    results = checks.run_weak_battery(config)
    assert [r.detail for r in results] == expected
    assert all(r.passed for r in results)


@pytest.mark.parametrize("e0, s0, b, sigma", [
    (1.0, 0.5, 1.0, 1.0), (0.7, -0.3, -0.6, 1.0), (0.0, 0.5, 1.0, 1.0),
    (1e10, 0.5, 1.0, 1.0), (1e8, 0.5, 1e-8, 1.0), (1e10, 0.5, 1e-5, 1e300),
], ids=["default", "negative_b", "zero_effort", "effort_1e10", "effort_1e8", "sigma_1e300"])
def test_foc_lines_find_the_argmax_by_brute_force(e0, s0, b, sigma):
    # q from the optimality condition at e0 puts the grid argmax of
    # H(e) = q b e / sigma - (s0 - e)^2 / 2 a third of a cell from e0; q from
    # e0 + 0.1 puts it 0.1 and a third of a cell away.  Both lines pass.
    # H is evaluated on offsets from e0, less H(e0), with the slope
    # q b / sigma = e - s0: (s0 - g)^2 / 2 at |g| ~ 1e10 cancelled to
    # argmax_gap=1.987e+00 (7.747e-01 at 1e8 with b = 1e-8), and
    # q = sigma (e0 - s0) / b overflowed at sigma = 1e300
    base = RunConfig()
    config = dataclasses.replace(base, params=dataclasses.replace(base.params, b=b, sigma=sigma),
                                 n_paths=1_000, weak_effort=e0, weak_cashflow=s0)
    with np.errstate(all="ignore"):
        results = {r.name: r for r in checks.run_weak_battery(config)}
    exact, perturbed = results["foc_exact_candidate"], results["foc_perturbed_candidate"]
    assert exact.detail == "argmax_gap=1.333e-03 cell=0.004"
    assert perturbed.detail == "argmax_gap=1.013e-01 expected=1.000e-01 cell=0.004"
    assert exact.passed and perturbed.passed


def test_weakcheck_reads_both_streams_in_one_call(monkeypatch):
    # the density paths on the seed's stream and the strong paths on the
    # next seed's are two parts of one read_blocks call, on one grid
    calls = []
    read = checks.read_blocks
    monkeypatch.setattr(checks, "read_blocks", lambda parts: calls.append(parts) or read(parts))
    config = dataclasses.replace(RunConfig(), n_paths=2_000, seed=2**64 - 1)
    assert all(r.passed for r in checks.run_weak_battery(config))
    assert len(calls) == 1
    (parts,) = calls
    assert {part.seed for part in parts.values()} == {2**64 - 1, 0}
    assert len({part.grid for part in parts.values()}) == 1


def _spy(monkeypatch, *names):
    """Record the arguments and result of the first call of each named ``checks`` function."""
    seen = {}
    for name in names:
        def spy(*args, fn=getattr(checks, name), name=name):
            result = fn(*args)
            seen.setdefault(name, (args, result))
            return result
        monkeypatch.setattr(checks, name, spy)
    return seen


@pytest.mark.parametrize("n_paths, n_steps", [(10_001, 64), (30_001, 64), (20_000, 256)],
                         ids=["10001", "30001", "20000x256"])
@pytest.mark.parametrize("cpus", [1, 8])
def test_noise_pass_matches_separate_passes(monkeypatch, cpus, n_paths, n_steps):
    # each part of the battery's one stream over a grid must carry the bits
    # of a pass of its own.  In blocks of 2**18 draws, 10,001 paths at 64
    # steps end in a ragged block of 1809 inside the mean set; at 30,001 the
    # mean set's last 3616 paths share a block of 4096 with paths beyond it.
    # At 256 steps the config's grid is the residual grid: one stream of
    # 1024-path blocks serves every part, and the residual's 10,000 paths
    # end 784 paths into a block.  The residual grid's coefficient file is
    # another solution, stepped on the same draws as the config's.
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 2**18)
    config = dataclasses.replace(RunConfig(), n_paths=n_paths, n_steps=n_steps, seed=23)
    params, seed, mult = config.params, config.seed, checks._first_triple(config)
    sol = checks._solve(config, config.n_steps)
    coeff_sol = integrate_riccati(
        params, from_case("iv", 0.3, 1.0),
        make_grid(params.T, checks.RESIDUAL_CHECK_STEPS), config.p2_drift_mode)
    seen = _spy(monkeypatch, "read_blocks", "check_density_martingale", "check_b0_variance",
                "check_mean_trajectory", "check_explicit_r")
    draws = []
    draw = montecarlo.sample_noise_block
    monkeypatch.setattr(montecarlo, "sample_noise_block",
                        lambda *args, **kw: draws.append((args[0].n_steps, args[4] - args[3]))
                        or draw(*args, **kw))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if cpus > 1 else interval)
    try:
        results = {r.name: r for r in checks.run_check_battery(config, coeff_sol)}
    finally:
        sys.setswitchinterval(interval)
    monkeypatch.setattr(montecarlo, "sample_noise_block", draw)
    n_residual = min(n_paths, checks.RESIDUAL_CHECK_MAX_PATHS)
    # every stream is read in blocks of BLOCK_DRAWS draws
    widest = {steps: max(n for s, n in draws if s == steps) for steps, _ in draws}
    if n_steps == checks.RESIDUAL_CHECK_STEPS:
        assert sum(n for _, n in draws) == max(n_paths, n_residual)
        assert widest == {n_steps: montecarlo.BLOCK_DRAWS // n_steps}
    else:
        assert sum(n for _, n in draws) == n_paths + n_residual
        assert widest == {steps: montecarlo.BLOCK_DRAWS // steps
                          for steps in (n_steps, checks.RESIDUAL_CHECK_STEPS)}
    read = seen["read_blocks"][1]
    assert sorted(read) == ["b0", "density", "explicit", "file", "mean", "residual"]
    assert not any(isinstance(values, SimulationDivergedError) for values in read.values())

    ev = evaluate_contract(dataclasses.replace(params, b=0.0), mult, n_paths,
                           config.n_steps, seed, config.p2_drift_mode)
    b0_x_T = seen["check_b0_variance"][0][1]
    assert checks._variance_and_se(b0_x_T) == (ev.var_xt, ev.var_xt_se)
    n_mean = min(n_paths, checks.MEAN_CHECK_MAX_PATHS)
    spec = closed_loop_paths(ClosedLoopField(sol), sample_noise(sol.grid, n_mean, seed))
    # the mean set folds x, the explicit-R set (x, R) on its first paths;
    # each carries the values of a stream of its own
    n_explicit = min(n_paths, checks.EXPLICIT_R_MAX_PATHS)
    for name, fold, n in (("check_mean_trajectory", checks._MeanFold, n_mean),
                          ("check_explicit_r", checks._ExplicitRFold, n_explicit)):
        blocks = seen[name][0][-1]
        alone = montecarlo.read_blocks({"own": checks._loop_part(sol, seed, n, fold=fold)})["own"]
        assert len(blocks) == len(alone) >= 2
        for got, want in zip(blocks, alone):
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
    mean, se = checks._node_moments(seen["check_mean_trajectory"][0][0])
    x = spec.component("x")
    eps = np.finfo(float).eps
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=0,
                               atol=n_mean * eps * np.abs(x).max())
    np.testing.assert_allclose(se, x.std(axis=0, ddof=1) / math.sqrt(n_mean),
                               rtol=n_mean * eps, atol=0)
    x, R = spec.component("x")[:n_explicit], spec.component("R")[:n_explicit]
    diff = max(d for d, _ in seen["check_explicit_r"][0][1])
    assert diff == np.abs(explicit_R(sol, x) - R).max()
    W_T = np.empty(n_paths)
    montecarlo.read_blocks({"density": checks._fold_part(config, seed, 0.0, W_T)})
    assert np.array_equal(seen["check_density_martingale"][0][0], np.exp(W_T - 0.5 * params.T))

    def own_max(sol):
        part = checks._loop_part(sol, seed, n_residual, fold=checks._ResidualFold)
        return max(block.max() for block in montecarlo.read_blocks({"own": part})["own"])

    def block_max(blocks):
        return max(block.max() for block in blocks)

    own = own_max(checks._solve(config, checks.RESIDUAL_CHECK_STEPS))
    assert block_max(read["residual"]) == own
    assert results["riccati_residual"].detail.startswith(f"max_residual={own:.3e} ")
    assert block_max(read["file"]) == own_max(coeff_sol) != own


@pytest.mark.parametrize("coeffs", [False, True], ids=["no_file", "file256"])
def test_residual_grid_config_draws_its_stream_once(tmp_path, monkeypatch, capsys, coeffs):
    # with n_steps = 256 the residual oracle and a 256-step table read the
    # config's own stream: 20,000 paths, where a pass of the residual's own
    # drew its 10,000 paths again (30,000); every printed line is unchanged
    args = ["check", "--steps", "256", "--paths", "20000"]
    expected = [
        "PASS terminal_conditions: max_rel_err=0.000e+00 tol=1e-14",
        "PASS riccati_residual: max_residual=1.430e-04 tol=0.001 n_steps=256 n_paths=10000",
        "PASS argmax_agent_effort: max_gap=1.333e-03 cell=0.004",
        "PASS argmax_principal_cashflow_as_printed: max_gap=1.333e-03 cell=0.004",
        "PASS argmax_principal_cashflow_eta_equals_x: max_gap=1.333e-03 cell=0.004",
        "PASS density_martingale: E[Gamma_T]=0.999815 se=1.24e-03 target=1 band=3se",
        "PASS b0_variance_oracle: var=3.136159e-02 target=3.091460e-02 se=3.11e-04 band=3se",
        "PASS mean_trajectory: max_gap=7.407e-04 worst_gap_over_se=1.11",
        "PASS explicit_R_consistency: max_diff=1.425e-04 tol=1.361e-03 (dt-scaled)",
        "9/9 checks passed",
    ]
    if coeffs:
        out = tmp_path / "c256"
        assert main(["riccati", "--steps", "256", "--out", str(out)]) == 0
        args += ["--coeffs", str(out / "riccati.csv")]
        expected[-1:] = [
            "PASS file_terminal_conditions: max_rel_err=0.000e+00 tol=1e-12",
            "PASS file_riccati_residual: max_residual=1.430e-04 tol=0.001 n_steps=256 n_paths=10000",
            "11/11 checks passed",
        ]
    paths = {}
    draw = montecarlo.sample_noise_block

    def counted(grid, n_paths, seed, lo, hi, out=None):
        paths[grid.n_steps] = paths.get(grid.n_steps, 0) + hi - lo
        return draw(grid, n_paths, seed, lo, hi, out=out)

    monkeypatch.setattr(montecarlo, "sample_noise_block", counted)
    capsys.readouterr()
    assert main(args) == 0
    assert capsys.readouterr().out.splitlines() == expected
    assert paths == {256: 20_000}


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

    def counted(grid, n_paths, seed, lo, hi, out=None):
        paths[grid.n_steps] = paths.get(grid.n_steps, 0) + hi - lo
        return draw(grid, n_paths, seed, lo, hi, out=out)

    monkeypatch.setattr(montecarlo, "sample_noise_block", counted)
    capsys.readouterr()
    assert main(["check", "--coeffs", csv]) == 0
    printed = capsys.readouterr().out.splitlines()
    monkeypatch.setattr(montecarlo, "sample_noise_block", draw)
    assert paths == {64: 100_000, checks.RESIDUAL_CHECK_STEPS: 10_000}
    assert sum(n * steps for steps, n in paths.items()) == 8_960_000
    config, sol = RunConfig(), load_riccati_csv(csv)
    own = montecarlo.read_blocks({"file": checks._loop_part(
        sol, config.seed, min(config.n_paths, checks.RESIDUAL_CHECK_MAX_PATHS),
        fold=checks._ResidualFold)})["file"]
    separate = checks._residual_result("file_riccati_residual", config, sol, own)
    assert f"PASS file_riccati_residual: {separate.detail}" in printed


def test_table_of_the_residual_solve_reads_its_blocks(tmp_path, monkeypatch, capsys):
    # the 256-step table riccati writes from the config has every bit of the
    # battery's own residual solve, so its residual is read from that solve's
    # blocks: the battery steps no part of its own over the same paths
    out = tmp_path / "c256"
    assert main(["riccati", "--steps", "256", "--out", str(out)]) == 0
    csv = str(out / "riccati.csv")
    seen = _spy(monkeypatch, "read_blocks")
    capsys.readouterr()
    assert main(["check", "--paths", "10000", "--coeffs", csv]) == 0
    printed = capsys.readouterr().out.splitlines()
    (parts,), read = seen["read_blocks"]
    assert sorted(parts) == ["b0", "density", "explicit", "mean", "residual"]
    config, sol = dataclasses.replace(RunConfig(), n_paths=10_000), load_riccati_csv(csv)
    own = montecarlo.read_blocks({"file": checks._loop_part(
        sol, config.seed, 10_000, fold=checks._ResidualFold)})["file"]
    assert len(own) == 3
    assert [block.tobytes() for block in read["residual"]] == [block.tobytes() for block in own]
    separate = checks._residual_result("file_riccati_residual", config, sol, own)
    assert f"PASS file_riccati_residual: {separate.detail}" in printed


@pytest.mark.parametrize("table", ["last_bit", "signed_zero", "lambda_P", "blown_up_solve"])
def test_table_unlike_the_residual_solve_keeps_its_own_part(monkeypatch, table):
    # a table that differs from the battery's residual solve in one
    # coefficient's last bit, in the sign of a zero or in lambda_P, or any
    # table when that solve blows up, steps a part of its own
    config = dataclasses.replace(RunConfig(), n_paths=2_000)
    sol = checks._solve(config, checks.RESIDUAL_CHECK_STEPS)
    coeffs = sol.coeffs.copy()
    b11, b12 = (COEFF_NAMES.index(name) for name in ("B11", "B12"))
    if table == "last_bit":
        coeffs[100, b12] = np.nextafter(coeffs[100, b12], np.inf)
    elif table == "signed_zero":
        assert coeffs[-1, b11] == 0.0 and not np.signbit(coeffs[-1, b11])
        coeffs[-1, b11] = -0.0
    coeff_sol = dataclasses.replace(sol, coeffs=coeffs)
    if table == "lambda_P":
        coeff_sol = integrate_riccati(config.params, from_case(config.case_tag, 0.2, math.pi / 2),
                                      sol.grid, config.p2_drift_mode)
    elif table == "blown_up_solve":
        config = dataclasses.replace(config, blow_up_bound=0.5)
    seen = _spy(monkeypatch, "read_blocks")
    results = {r.name: r for r in checks.run_check_battery(config, coeff_sol)}
    (parts,), read = seen["read_blocks"]
    assert "file" in parts and ("residual" in parts) == (table != "blown_up_solve")
    own = montecarlo.read_blocks({"file": checks._loop_part(
        coeff_sol, config.seed, 2_000, fold=checks._ResidualFold)})["file"]
    assert [block.tobytes() for block in read["file"]] == [block.tobytes() for block in own]
    separate = checks._residual_result("file_riccati_residual", config, coeff_sol, own)
    assert results["file_riccati_residual"] == separate


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
    # theta = b e0 / sigma = 1e308, so the strong part's drift theta dt
    # overflows at step 1; it is the same on every path, so path 0 is the first
    path = tmp_path / "diverge.cfg"
    path.write_text("b = 1e300\nsigma = 1e-8\nT = 10000\n")
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["weakcheck", "--config", str(path), "--paths", "1000"]) == EXIT_NUMERICAL
    assert "non-finite x on path 0 at step 1" in capsys.readouterr().err


@pytest.mark.parametrize("env, command, lines", [
    ({"MVCONTRACT_A": "0", "MVCONTRACT_T": "1e305", "MVCONTRACT_B": "1e-200"}, "check", [
        "FAIL density_martingale: E[Gamma_T]=0.000000 se=0.00e+00 target=1 band=3se",
        "FAIL b0_variance_oracle: var=inf target=1.000000e+305 se=nan band=3se "
        "not_finite=gap,band",
        "FAIL mean_trajectory: max_gap=3.559e+150 worst_gap_over_se=2.53 not_finite=band",
    ]),
    ({"MVCONTRACT_T": "1e308", "MVCONTRACT_WEAK_EFFORT": "1e-150", "MVCONTRACT_B": "1e-5"},
     "weakcheck", [
        "PASS martingale_mean: E[Gamma_T]=0.999770 se=3.18e-04 target=1 band=3se",
        "PASS log_density_mean: E[log Gamma_T]=-5.252818e-03 target=-5.000000e-03 band=3se",
        "FAIL reweighted_mean_vs_analytic: weak=9.789668e+152 analytic=1.000000e+153 se=inf "
        "band=3se not_finite=band",
        "FAIL weak_strong_agreement: weak=9.789668e+152 strong=1.071836e+153 band=inf "
        "not_finite=band",
    ]),
], ids=["check_T_1e305", "weakcheck_T_1e308"])
def test_band_lines_on_non_finite_statistics_fail(monkeypatch, capsys, env, command, lines):
    # the paths are in units of sigma, so a long horizon is what makes them
    # large: at T = 1e305 or 1e308 the increments reach about 1e152, and the
    # node SEs of the mean trajectory and the SE of the reweighted mean
    # overflow to inf (a = 0 and a tiny b keep the coefficient solves
    # finite; a tiny effort keeps theta^2 T small).  A band that wide would
    # pass anything, so each such line fails and says whether its gap, its
    # band or both are not finite; finite band lines are as before
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with np.errstate(all="ignore"):
        assert main([command]) == EXIT_ORACLE
    printed = capsys.readouterr().out.splitlines()
    names = [line.split(":")[0] for line in lines]
    assert [line for line in printed if line.split(":")[0] in names] == lines


def test_argmax_lines_pass_at_a_large_sigma(monkeypatch, capsys):
    # q sigma and sigma (Q1 + Q2) are constant in the control; at sigma =
    # 1e160 they swamped the terms that are not, and every argmax line
    # printed max_gap=1.999e+00.  The band lines compare in units of sigma,
    # so none of them overflows and the check passes
    monkeypatch.setenv("MVCONTRACT_SIGMA", "1e160")
    with np.errstate(all="ignore"):
        assert main(["check", "--paths", "2000"]) == EXIT_OK
    printed = capsys.readouterr().out.splitlines()
    assert [line for line in printed if "argmax_" in line.split(":")[0]] == [
        "PASS argmax_agent_effort: max_gap=1.333e-03 cell=0.004",
        "PASS argmax_principal_cashflow_as_printed: max_gap=1.333e-03 cell=0.004",
        "PASS argmax_principal_cashflow_eta_equals_x: max_gap=1.333e-03 cell=0.004",
    ]


def test_per_unit_sigma_lines_do_not_change_with_sigma(monkeypatch, capsys):
    # the paths are stepped in units of sigma, and every line compares and
    # prints per unit sigma, so the whole output at any sigma is the one at
    # sigma = 1.  In drift units the residual failed at 1e160 with
    # max_residual=1.430e+156, and b0_variance_oracle printed var=inf
    printed = {}
    for sigma in ("1", "0.3", "4", "1e160", "1e-150"):
        monkeypatch.setenv("MVCONTRACT_SIGMA", sigma)
        with np.errstate(all="ignore"):
            assert main(["check", "--paths", "2000"]) == EXIT_OK
        printed[sigma] = capsys.readouterr().out
    assert printed["1"].endswith("\n9/9 checks passed\n") and "inf" not in printed["1"]
    assert all(out == printed["1"] for out in printed.values())


def test_weakcheck_reads_sigma_through_theta_alone(monkeypatch, capsys):
    # theta = b e0 / sigma is 1 at each (b, sigma); the reweighted and strong
    # means printed sigma times their per-unit values, 2.968125e+148 at 1e150
    printed = {}
    for b, sigma in (("1", "1"), ("2", "2"), ("1e150", "1e150")):
        monkeypatch.setenv("MVCONTRACT_B", b)
        monkeypatch.setenv("MVCONTRACT_SIGMA", sigma)
        assert main(["weakcheck", "--paths", "2000"]) == EXIT_OK
        printed[b] = capsys.readouterr().out
    assert printed["1"].endswith("\n8/8 checks passed\n")
    assert printed["2"] == printed["1"] and printed["1e150"] == printed["1"]


@pytest.mark.xfail(strict=True, reason=(
    "weakcheck fails its reweighting lines on a correct model once theta^2 T is large: at "
    "b = 20 (theta^2 T = 12) martingale_mean reads E[Gamma_T]=0.755436 se=7.74e-02, and "
    "reweighted_mean_vs_analytic and weak_strong_agreement fail too, exit 4; the mean of the "
    "lognormal Gamma_T rests on paths the sample rarely holds, so its sample SE understates "
    "the error"))
def test_weakcheck_passes_at_a_large_theta_squared_T(monkeypatch):
    monkeypatch.setenv("MVCONTRACT_B", "20")
    assert main(["weakcheck"]) == EXIT_OK


@pytest.mark.parametrize("b, code", [
    ("0", EXIT_CONFIG), ("-0.0", EXIT_CONFIG), ("1e-13", EXIT_OK), ("-1e-13", EXIT_OK),
    ("1e-300", EXIT_OK),
])
def test_weakcheck_rejects_a_zero_effort_sensitivity_only(monkeypatch, capsys, b, code):
    # no line divides by b; at b = 0 the hidden-action condition has no
    # solution.  The guard was |b| < 1e-12, which rejected 1e-13 and 1e-300
    monkeypatch.setenv("MVCONTRACT_B", b)
    assert main(["weakcheck", "--paths", "2000"]) == code
    out, err = capsys.readouterr()
    if code == EXIT_CONFIG:
        assert err == ("configuration error: the effort sensitivity f_e = b is zero, so the "
                       "hidden-action condition q = sigma u_e / f_e has no solution\n")
    else:
        assert out.endswith("\n8/8 checks passed\n")


@pytest.mark.parametrize("b", ["1e15", "1e17", "1e100"])
def test_argmax_lines_fail_where_float64_cannot_resolve_a_cell(monkeypatch, capsys, b):
    # each argmax grid is centred on an optimum of the order of b, or b^2 for
    # the cash flow; above about 1.8e13 float64 is coarser than the 0.004
    # cell there, and the grid around the optimum came out empty: argmax
    # raised a ValueError and the run printed a configuration error (exit 2)
    monkeypatch.setenv("MVCONTRACT_B", b)
    with np.errstate(all="ignore"):
        assert main(["check", "--paths", "2000"]) == EXIT_ORACLE
    out, err = capsys.readouterr()
    lines = [line for line in out.splitlines() if "argmax_" in line.split(":")[0]]
    assert len(lines) == 3
    for line in lines:
        assert line.startswith("FAIL ") and ": cell=0.004 unresolved by float64 at " in line
    assert "configuration error" not in err


@pytest.mark.parametrize("optimum, passed", [
    (1e13, True), (4e13, False), (-4e13, False), (math.inf, False), (math.nan, False),
], ids=["1e13", "4e13", "-4e13", "inf", "nan"])
def test_argmax_line_at_the_resolution_of_float64(optimum, passed):
    # float64 spacing is 0.002 at 1e13, 0.008 at 4e13 and not finite at inf
    # or nan: past a cell, no grid node can be told from the next
    result = checks._argmax_result("line", [(lambda g: -(g - optimum) ** 2, optimum)])
    assert result.passed == passed
    assert ("unresolved by float64" in result.detail) != passed


@pytest.mark.parametrize("effort", [1e10, 1e2], ids=["theta_1e-295", "theta_1e-303"])
def test_log_density_mean_of_a_tiny_theta_has_a_non_zero_se(effort):
    # theta = b e0 / sigma: every squared deviation of log Gamma_T from its
    # mean underflows to 0, so unscaled values give an SE of 0 and a band
    # that no gap fits; scaled by a power of two, the SE is theta sqrt(T / n)
    base = RunConfig()
    config = dataclasses.replace(base, params=dataclasses.replace(base.params, sigma=1e300, b=1e-5),
                                 weak_effort=effort, n_paths=10_000)
    with np.errstate(all="ignore"):
        results = {r.name: r for r in checks.run_weak_battery(config)}
    assert results["log_density_mean"].passed, results["log_density_mean"].detail


@pytest.mark.parametrize("cfg, scale, message", [
    ("T = 10000\n", 1e307, "non-finite x on path 8 at step 1"),
    ("a = -3e156\n", None, "non-finite state on path 16 at step 3"),
], ids=["density_before_b0_solve", "mean_set_before_residual"])
def test_check_reports_the_failure_of_its_earliest_check(tmp_path, capsys, monkeypatch, cfg,
                                                         scale, message):
    # the first config blows up every coefficient solve, the b = 0 one
    # included, and its density fold diverges: the paths are stepped in
    # units of sigma, so its increments are scaled as a sigma of 1e307 once
    # scaled them.  In the second the mean-set and residual paths both
    # diverge (the residual's first on path 0, at step 4).  The one noise
    # pass meets all of these at once, and the run must still end with the
    # failure of the check that comes first
    if scale is not None:
        monkeypatch.setattr(montecarlo, "sample_noise_block", scaled_noise_block(scale))
    path = tmp_path / "diverge.cfg"
    path.write_text(cfg)
    with np.errstate(all="ignore"):
        assert main(["check", "--config", str(path), "--paths", "1000"]) == EXIT_NUMERICAL
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cpus", [1, 2])
def test_terminal_fold_diverges_where_euler_maruyama_does(monkeypatch, cpus):
    # sigma dW overflows where |dW| > 3.9 sqrt(dt): on seed 42 the earliest
    # overflow is at step 1 in the ragged third block of 4096 paths (blocks
    # of 2**18 draws), while the first block diverges only at step 2.  The
    # fold steps in units of sigma, so the blocks it reads are scaled by sigma
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 2**18)
    base = RunConfig()
    params = dataclasses.replace(base.params, sigma=3.7e306, T=1e4)
    monkeypatch.setattr(montecarlo, "sample_noise_block", scaled_noise_block(params.sigma))
    config = dataclasses.replace(base, params=params, n_paths=10_001, seed=42)
    noise = sample_noise(make_grid(params.T, config.n_steps), config.n_paths, config.seed)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(SimulationDivergedError) as spec:
            euler_maruyama(lambda X, t: 0.0, lambda X, t: params.sigma, 0.0, noise)
        with pytest.raises(SimulationDivergedError) as excinfo:
            montecarlo.read_blocks({"density": checks._fold_part(config, config.seed, 0.0,
                                                                 np.empty(config.n_paths))})
    assert spec.value.path >= 2 * (montecarlo.BLOCK_DRAWS // config.n_steps)
    assert (excinfo.value.path, excinfo.value.step, excinfo.value.label) == (
        spec.value.path, spec.value.step, spec.value.label)


def test_non_finite_theta_is_a_configuration_error(tmp_path, capsys):
    with pytest.raises(ValueError, match="non-finite theta"):
        checks._fold_part(RunConfig(), 1, math.inf, np.empty(RunConfig().n_paths))
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
    # the battery's parts on the n_steps grid, read in their one stream
    n_pass = min(config.n_paths, checks.PASS_MAX_PATHS)
    n_mean = min(config.n_paths, checks.MEAN_CHECK_MAX_PATHS)
    n_explicit = min(config.n_paths, checks.EXPLICIT_R_MAX_PATHS)
    b0_config = dataclasses.replace(config, params=dataclasses.replace(config.params, b=0.0))
    sol, b0_sol = (checks._solve(c, config.n_steps) for c in (config, b0_config))
    W_T, b0_x_T = np.empty(n_pass), np.empty(n_pass)
    seed = config.seed
    read = montecarlo.read_blocks({
        "mean": checks._loop_part(sol, seed, n_mean, fold=checks._MeanFold),
        "explicit": checks._loop_part(sol, seed, n_explicit, fold=checks._ExplicitRFold),
        "density": checks._fold_part(config, seed, 0.0, W_T),
        "b0": checks._loop_part(b0_sol, seed, n_pass, x_T=b0_x_T),
    })
    return [checks.check_density_martingale(np.exp(W_T - 0.5 * config.params.T)),
            checks.check_b0_variance(config, b0_x_T),
            checks.check_mean_trajectory(read["mean"]),
            checks.check_explicit_r(sol, read["explicit"])]


def _residual_check(config):
    sol = checks._solve(config, checks.RESIDUAL_CHECK_STEPS)
    part = checks._loop_part(sol, config.seed, min(config.n_paths, checks.RESIDUAL_CHECK_MAX_PATHS),
                             fold=checks._ResidualFold)
    read = montecarlo.read_blocks({"residual": part})["residual"]
    return [checks._residual_result("riccati_residual", config, sol, read)]


@pytest.mark.parametrize("battery, limit_mb", [
    (lambda config: checks.run_weak_battery(config), 64),
    (_noise_pass_checks, 64),
    (_residual_check, 96),
], ids=["run_weak_battery", "noise_pass", "check_riccati_residual"])
def test_battery_memory_does_not_scale_with_paths(monkeypatch, battery, limit_mb):
    # the default config runs 1e5 density and b = 0 paths, 20,000
    # mean-trajectory paths and 10,000 residual paths; full path matrices of
    # the density and residual ensembles took 198-302 MB of traced memory
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)
    results, peak_mb = _traced_peak_mb(lambda: battery(RunConfig()))
    assert all(r.passed for r in results)
    assert peak_mb < limit_mb


def test_check_battery_holds_one_noise_block(monkeypatch):
    # with one worker the battery holds one 16384 x 64 noise block (a 4096 x
    # 256 block on the residual grid is as large), the two 1e5-path terminal
    # arrays of the density and b = 0 checks, and about eight work rows of a
    # block: the stepper's three (2, paths) arrays and a fold's rows.  The
    # recorded mean-trajectory and explicit-R sets and the residual's
    # recorded states peaked at 30.9 MiB
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    config = RunConfig()
    checks.run_weak_battery(config)  # scipy is imported outside the trace
    results, peak_mb = _traced_peak_mb(lambda: checks.run_check_battery(config))
    assert all(r.passed for r in results)
    block_paths = montecarlo.BLOCK_DRAWS // config.n_steps
    n_pass = min(config.n_paths, checks.PASS_MAX_PATHS)
    assert block_paths * config.n_steps * 8 == 8 * 2**20
    limit = 1.1 * (montecarlo.BLOCK_DRAWS * 8 + 2 * n_pass * 8 + 8 * block_paths * 8)
    assert peak_mb * 1e6 <= limit


@pytest.mark.parametrize("cpus", [1, 2])
def test_folds_match_their_references(monkeypatch, cpus):
    # each fold, read over a stream of two full blocks and a ragged one,
    # against its reference over the recorded paths of the same draws: in
    # blocks of 2**18 draws, 10,001 64-step paths are 4096, 4096 and 1809,
    # and 2,500 256-step paths 1024, 1024 and 452
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 2**18)
    config, seed = RunConfig(), 29
    sol, residual_sol = (checks._solve(config, n) for n in (config.n_steps,
                                                            checks.RESIDUAL_CHECK_STEPS))
    n, n_residual = 10_001, 2_500
    read = montecarlo.read_blocks({
        "mean": checks._loop_part(sol, seed, n, fold=checks._MeanFold),
        "explicit": checks._loop_part(sol, seed, n, fold=checks._ExplicitRFold),
        "residual": checks._loop_part(residual_sol, seed, n_residual, fold=checks._ResidualFold),
    })
    assert [len(read[name]) for name in ("mean", "explicit", "residual")] == [3, 3, 3]

    # residual: per block, each component's maximum carries the reference's bits
    block = montecarlo.BLOCK_DRAWS // checks.RESIDUAL_CHECK_STEPS
    for lo, maxima in zip(range(0, n_residual, block), read["residual"]):
        hi = min(lo + block, n_residual)
        noise = sample_noise_block(residual_sol.grid, n_residual, seed, lo, hi)
        report = ansatz_residual(residual_sol,
                                 closed_loop_paths(ClosedLoopField(residual_sol), noise))
        assert maxima.shape == (3,)
        for max_abs, name in zip(maxima, ("p", "P1", "P2")):
            assert max_abs == report.components[name].max_abs

    paths = closed_loop_paths(ClosedLoopField(sol), sample_noise(sol.grid, n, seed))
    x, R = paths.component("x"), paths.component("R")
    # explicit R: max_diff and tol, and so the printed line, carry the reference's bits
    b2, lam_E = sol.params.b ** 2, sol.multipliers.lam_E
    forcing = lam_E * b2 * sol.column("A11") - b2 * sol.column("A12") - b2 * sol.column("A13")
    diff = float(np.abs(explicit_R(sol, x) - R).max())
    tol = 5.0 * sol.grid.dt * max(float(np.abs(forcing[None, :] * x).max()), 1.0)
    assert checks.check_explicit_r(sol, read["explicit"]).detail == (
        f"max_diff={diff:.3e} tol={tol:.3e} (dt-scaled)")
    assert max(d for d, _ in read["explicit"]) == diff
    assert 5.0 * sol.grid.dt * max(max(s for _, s in read["explicit"]), 1.0) == tol

    # mean trajectory: the block moments combine to the whole-ensemble ones,
    # up to summation order
    mean, se = checks._node_moments(read["mean"])
    eps = np.finfo(float).eps
    assert mean[0] == 0.0
    np.testing.assert_allclose(mean, x.mean(axis=0), rtol=0, atol=n * eps * np.abs(x).max())
    np.testing.assert_allclose(se, x.std(axis=0, ddof=1) / math.sqrt(n), rtol=n * eps, atol=0)
