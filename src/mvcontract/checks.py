"""Self-verification batteries behind the ``check`` and ``weakcheck`` commands.

Each check returns a CheckResult; the CLI prints one machine-readable line
per check and maps any failure to a nonzero exit.  Checks that rest on a
Monte-Carlo estimate use 3-standard-error bands, so with the shipped seeds
they are deterministic.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .config import RunConfig
from .errors import RiccatiBlowUpError
from .model import (
    AS_PRINTED,
    ETA_EQUALS_X,
    agent_hamiltonian,
    optimal_cashflow,
    optimal_effort,
    principal_hamiltonian,
)
from .montecarlo import closed_loop_paths, evaluate_contract
from .multipliers import sweep_grid
from .noise import sample_noise
from .riccati import (
    ClosedLoopField,
    RiccatiSolution,
    ansatz_residual,
    explicit_R,
    integrate_riccati,
    terminal_conditions,
)
from .sde import PathEnsemble, euler_maruyama
from .timegrid import make_grid
from .weak import hidden_action_foc_check, reweighted_expectation, simulate_density

RESIDUAL_CHECK_STEPS = 256
RESIDUAL_CHECK_MAX_PATHS = 10_000
MEAN_CHECK_MAX_PATHS = 20_000
EXPLICIT_R_MAX_PATHS = 5_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _first_triple(config: RunConfig):
    triples = sweep_grid(config.case_tag, config.lam_P_points, config.theta_points)
    return triples[0]


def _grid_argmax(fn: Callable[[np.ndarray], np.ndarray], center: float, half_width: float, step: float) -> float:
    # offset so the analytic optimum is not exactly a grid node
    grid = np.arange(center - half_width + step / 3.0, center + half_width, step)
    return float(grid[np.argmax(fn(grid))])


def _solve(config: RunConfig, n_steps: int) -> RiccatiSolution:
    grid = make_grid(config.params.T, n_steps)
    return integrate_riccati(
        config.params, _first_triple(config), grid, config.p2_drift_mode,
        config.blow_up_bound,
    )


def check_terminal_conditions(sol: RiccatiSolution) -> CheckResult:
    expected = terminal_conditions(sol.params, sol.multipliers)
    err = np.max(np.abs(sol.terminal_values - expected) / np.maximum(np.abs(expected), 1.0))
    return _result("terminal_conditions", err <= 1e-14, f"max_rel_err={err:.3e} tol=1e-14")


def _simulate_closed_loop(config: RunConfig, sol: RiccatiSolution, n_paths: int) -> PathEnsemble:
    """Closed-loop paths of a solution, on the config's seed."""
    noise = sample_noise(sol.grid, n_paths, config.seed)
    return closed_loop_paths(ClosedLoopField(sol), noise)


def check_riccati_residual(config: RunConfig, sol: Optional[RiccatiSolution] = None) -> CheckResult:
    """Drift-residual oracle; optionally checks an externally supplied solution."""
    name = "riccati_residual"
    n_paths = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
    try:
        if sol is None:
            sol = _solve(config, RESIDUAL_CHECK_STEPS)
        report = ansatz_residual(sol, _simulate_closed_loop(config, sol, n_paths))
    except RiccatiBlowUpError as exc:
        return _result(name, False, str(exc))
    ok = report.max_residual <= config.residual_tol
    return _result(
        name, ok,
        f"max_residual={report.max_residual:.3e} tol={config.residual_tol:g} "
        f"n_steps={report.n_steps} n_paths={report.n_paths}",
    )


def check_coefficient_file(config: RunConfig, sol: RiccatiSolution) -> List[CheckResult]:
    """Validate an externally loaded coefficient table: terminal values + residual."""
    expected = terminal_conditions(sol.params, sol.multipliers)
    err = np.max(np.abs(sol.terminal_values - expected) / np.maximum(np.abs(expected), 1.0))
    results = [
        _result("file_terminal_conditions", err <= 1e-12, f"max_rel_err={err:.3e} tol=1e-12")
    ]
    file_config = dataclasses.replace(config, n_steps=sol.grid.n_steps)
    residual = check_riccati_residual(file_config, sol=sol)
    results.append(dataclasses.replace(residual, name="file_riccati_residual"))
    return results


def check_argmax_agent(config: RunConfig, n_draws: int = 200) -> CheckResult:
    name = "argmax_agent_effort"
    params = config.params
    rng = np.random.default_rng(config.seed)
    step = 0.004
    worst = 0.0
    for _ in range(n_draws):
        p, s, x, q = rng.uniform(-1.0, 1.0, size=4)
        e_bar = optimal_effort(params.b, p, s)
        e_hat = _grid_argmax(
            lambda e: agent_hamiltonian(params, x, e, p, q, s), e_bar, 2.0, step
        )
        worst = max(worst, abs(e_hat - e_bar))
    return _result(name, worst <= step, f"max_gap={worst:.3e} cell={step:g}")


def check_argmax_principal(config: RunConfig, mode: str, n_draws: int = 200) -> CheckResult:
    name = f"argmax_principal_cashflow_{mode}"
    params = config.params
    rng = np.random.default_rng(config.seed + 1)
    step = 0.004
    worst = 0.0
    for _ in range(n_draws):
        x, p, R, P1, P2, Q1, Q2 = rng.uniform(-1.0, 1.0, size=7)
        lam_P = rng.uniform(0.05, 1.0)
        lam_E = rng.uniform(-1.0, 1.0)
        s_bar = optimal_cashflow(params.b, P1, P2, lam_P, mode)
        s_hat = _grid_argmax(
            lambda s: principal_hamiltonian(
                params, x, p, s, R, P1, P2, Q1, Q2, lam_E, lam_P, mode
            ),
            s_bar, 2.0, step,
        )
        worst = max(worst, abs(s_hat - s_bar))
    return _result(name, worst <= step, f"max_gap={worst:.3e} cell={step:g}")


def check_density_martingale(config: RunConfig) -> CheckResult:
    name = "density_martingale"
    params = config.params
    n_paths = min(config.n_paths, 100_000)
    grid = make_grid(params.T, config.n_steps)
    noise = sample_noise(grid, n_paths, config.seed)
    x_paths = euler_maruyama(
        lambda X, t: 0.0, lambda X, t: params.sigma, 0.0, noise
    )
    theta = 1.0
    density = simulate_density(lambda x, t: theta, noise, x_paths)
    gamma_T = density.terminal
    est, se = float(gamma_T.mean()), float(gamma_T.std(ddof=1) / math.sqrt(n_paths))
    ok = abs(est - 1.0) <= 3.0 * se
    return _result(name, ok, f"E[Gamma_T]={est:.6f} se={se:.2e} target=1 band=3se")


def check_b0_variance(config: RunConfig) -> CheckResult:
    name = "b0_variance_oracle"
    params = dataclasses.replace(config.params, b=0.0)
    mult = _first_triple(config)
    n_paths = min(config.n_paths, 100_000)
    ev = evaluate_contract(
        params, mult, n_paths, config.n_steps, config.seed,
        config.p2_drift_mode, config.chunk_size,
    )
    a, sigma, T = params.a, params.sigma, params.T
    if a == 0.0:
        target = sigma * sigma * T
    else:
        target = sigma * sigma * (math.exp(2 * a * T) - 1.0) / (2 * a)
    ok = abs(ev.var_xt - target) <= 3.0 * ev.var_xt_se
    return _result(
        name, ok,
        f"var={ev.var_xt:.6e} target={target:.6e} se={ev.var_xt_se:.2e} band=3se",
    )


def check_mean_trajectory(paths: PathEnsemble) -> CheckResult:
    """The MC mean of x against its exact value: E[x] = 0 at every node."""
    name = "mean_trajectory"
    x = paths.component("x")
    mc_mean = x.mean(axis=0)
    mc_se = x.std(axis=0, ddof=1) / math.sqrt(paths.n_paths)
    gaps = np.abs(mc_mean)
    # node 0 is pinned exactly; later nodes get a 3-standard-error band
    ok = gaps[0] == 0.0 and np.all(gaps[1:] <= 3.0 * mc_se[1:])
    worst = float(np.max(gaps[1:] / np.maximum(mc_se[1:], 1e-300)))
    return _result(name, ok, f"max_gap={gaps.max():.3e} worst_gap_over_se={worst:.2f}")


def check_explicit_r(sol: RiccatiSolution, paths: PathEnsemble) -> CheckResult:
    """Two independent integrators of the R-equation must track each other.

    Reads the first ``EXPLICIT_R_MAX_PATHS`` paths of the ensemble.
    """
    name = "explicit_R_consistency"
    x = paths.component("x")[:EXPLICIT_R_MAX_PATHS]
    r_euler = paths.component("R")[:EXPLICIT_R_MAX_PATHS]
    r_quad = explicit_R(sol, x)
    diff = float(np.abs(r_quad - r_euler).max())
    # both schemes are first order; their gap scales with dt times the
    # forcing magnitude seen along the ensemble
    b2 = sol.params.b**2
    lam_E = sol.multipliers.lam_E
    forcing = lam_E * b2 * sol.column("A11") - b2 * sol.column("A12") - b2 * sol.column("A13")
    scale = float(np.abs(forcing[None, :] * x).max())
    tol = 5.0 * sol.grid.dt * max(scale, 1.0)
    return _result(name, diff <= tol, f"max_diff={diff:.3e} tol={tol:.3e} (dt-scaled)")


def run_check_battery(config: RunConfig, coeff_sol: Optional[RiccatiSolution] = None) -> List[CheckResult]:
    """The full oracle suite behind ``mvcontract check``.

    The terminal-condition, mean-trajectory and explicit-R checks share one
    ``n_steps`` solve and one closed-loop path set; if the solve blows up,
    all three fail with its message.
    """
    try:
        sol = _solve(config, config.n_steps)
        paths = _simulate_closed_loop(config, sol, min(config.n_paths, MEAN_CHECK_MAX_PATHS))
    except RiccatiBlowUpError as exc:
        terminal, mean, explicit = (
            _result(name, False, str(exc))
            for name in ("terminal_conditions", "mean_trajectory", "explicit_R_consistency")
        )
    else:
        terminal = check_terminal_conditions(sol)
        mean = check_mean_trajectory(paths)
        explicit = check_explicit_r(sol, paths)
    results = [
        terminal,
        check_riccati_residual(config),
        check_argmax_agent(config),
        check_argmax_principal(config, AS_PRINTED),
        check_argmax_principal(config, ETA_EQUALS_X),
        check_density_martingale(config),
        check_b0_variance(config),
        mean,
        explicit,
    ]
    if coeff_sol is not None:
        results.extend(check_coefficient_file(config, coeff_sol))
    return results


def run_weak_battery(config: RunConfig) -> List[CheckResult]:
    """Density, measure-change and optimality-condition checks (``weakcheck``)."""
    from .errors import DegenerateSensitivityError

    params = config.params
    if abs(params.b) < 1e-12:
        raise DegenerateSensitivityError(
            "the production rate's effort sensitivity is b, which is zero; "
            "the optimality-condition check divides by it"
        )
    e0 = config.weak_effort
    s0 = config.weak_cashflow
    theta = params.b * e0 / params.sigma
    n_paths = min(config.n_paths, 100_000)
    grid = make_grid(params.T, config.n_steps)

    noise = sample_noise(grid, n_paths, config.seed)
    x_paths = euler_maruyama(lambda X, t: 0.0, lambda X, t: params.sigma, 0.0, noise)
    density = simulate_density(lambda x, t: theta, noise, x_paths)
    gamma_T = density.terminal
    results = []

    results.append(_result(
        "density_positive", float(gamma_T.min()) > 0.0,
        f"min Gamma_T={gamma_T.min():.3e}",
    ))

    est, se = reweighted_expectation(np.ones(n_paths), gamma_T)
    if theta == 0.0:
        ok = est == 1.0 and float(np.abs(gamma_T - 1.0).max()) == 0.0
        detail = "theta=0: Gamma identically 1"
    else:
        ok = abs(est - 1.0) <= 3.0 * se
        detail = f"E[Gamma_T]={est:.6f} se={se:.2e} target=1 band=3se"
    results.append(_result("martingale_mean", ok, detail))

    log_target = -0.5 * theta * theta * params.T
    log_vals = density.log_gamma[:, -1]
    log_est = float(log_vals.mean())
    log_se = float(log_vals.std(ddof=1) / math.sqrt(n_paths)) if theta != 0.0 else 0.0
    ok = abs(log_est - log_target) <= 3.0 * log_se if theta != 0.0 else log_est == 0.0
    results.append(_result(
        "log_density_mean", ok,
        f"E[log Gamma_T]={log_est:.6e} target={log_target:.6e} band=3se",
    ))

    x_T = x_paths.states[:, -1, 0]
    weak_est, weak_se = reweighted_expectation(x_T, gamma_T)
    analytic = params.b * e0 * params.T

    strong_noise = sample_noise(grid, n_paths, (config.seed + 1) % 2**64)
    strong = euler_maruyama(
        lambda X, t: params.b * e0, lambda X, t: params.sigma, 0.0, strong_noise
    )
    s_T = strong.states[:, -1, 0]
    strong_est = float(s_T.mean())
    strong_se = float(s_T.std(ddof=1) / math.sqrt(n_paths))

    ok = abs(weak_est - analytic) <= 3.0 * weak_se
    results.append(_result(
        "reweighted_mean_vs_analytic", ok,
        f"weak={weak_est:.6e} analytic={analytic:.6e} se={weak_se:.2e} band=3se",
    ))
    band = 3.0 * math.sqrt(weak_se**2 + strong_se**2)
    results.append(_result(
        "weak_strong_agreement", abs(weak_est - strong_est) <= band,
        f"weak={weak_est:.6e} strong={strong_est:.6e} band={band:.2e}",
    ))

    plain = float(x_T.mean())
    ident, _ = reweighted_expectation(x_T, np.ones(n_paths))
    results.append(_result(
        "unit_weight_identity", ident == plain,
        f"reweighted-with-1 equals plain mean ({plain:.6e})",
    ))

    # candidate built from the optimality condition itself must have zero residual
    e_path = np.full(n_paths, e0)
    u_e = lambda e: e - s0
    f_e = lambda e: params.b + 0.0 * e
    q_exact = params.sigma * u_e(e_path) / f_e(e_path)
    report = hidden_action_foc_check(u_e, f_e, q_exact, params.sigma, e_path)
    results.append(_result(
        "foc_exact_candidate", report.max_abs <= 1e-12,
        f"max_resid={report.max_abs:.3e}",
    ))
    report_off = hidden_action_foc_check(u_e, f_e, q_exact, params.sigma, e_path + 0.1)
    expected_gap = 0.1 * params.sigma / abs(params.b)
    results.append(_result(
        "foc_perturbed_candidate", report_off.max_abs >= 0.5 * expected_gap,
        f"max_resid={report_off.max_abs:.3e} expected~{expected_gap:.3e}",
    ))
    return results
