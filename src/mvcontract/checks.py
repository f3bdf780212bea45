"""Self-verification batteries behind the ``check`` and ``weakcheck`` commands.

Each check returns a CheckResult; the CLI prints one machine-readable line
per check and maps any failure to a nonzero exit.  Checks that rest on a
Monte-Carlo estimate use 3-standard-error bands, so with the shipped seeds
they are deterministic.

``check`` draws each (grid, seed) noise stream once.  ``_noise_pass`` runs
the ``n_steps`` stream for the density, b = 0 and mean-trajectory checks,
the residual oracle its own grid's, and a coefficient file is stepped by the
pass that draws its grid.  Every pass runs its path blocks through
``montecarlo.map_noise_blocks`` and keeps only what the checks read, so peak
memory scales with workers x block, not with the path count; per-path bits
do not depend on the blocking, so every number is the one a separate pass
over the whole ensemble gives.  Every part reads the step rows of a block's
step-major increments in place, scaled into a work row.  The density folds
keep the operation order of the generic Euler scheme and the log-density
recursion, which the tests pin them against.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Tuple

import numpy as np

from .config import RunConfig
from .errors import RiccatiBlowUpError, SimulationDivergedError
from .model import (
    AS_PRINTED,
    ETA_EQUALS_X,
    agent_hamiltonian,
    optimal_cashflow,
    optimal_effort,
    principal_hamiltonian,
)
from .montecarlo import (
    _earliest,
    _step_block,
    _variance_and_se,
    closed_loop_paths,
    map_noise_blocks,
)
from .multipliers import sweep_grid
from .riccati import (
    ClosedLoopField,
    RiccatiSolution,
    ansatz_residual,
    explicit_R,
    integrate_riccati,
    terminal_conditions,
)
from .sde import PathEnsemble
from .timegrid import make_grid
from .weak import hidden_action_foc_check, reweighted_expectation

RESIDUAL_CHECK_STEPS = 256
RESIDUAL_CHECK_MAX_PATHS = 10_000
#: Paths of the density folds and of the b = 0 oracle; the first
#: ``MEAN_CHECK_MAX_PATHS`` of them are the mean-trajectory set.
PASS_MAX_PATHS = 100_000
MEAN_CHECK_MAX_PATHS = 20_000
EXPLICIT_R_MAX_PATHS = 5_000
#: Noise draws per path block of the 64-step passes (the noise pass and the
#: ``weakcheck`` folds): 4,096 paths at 64 steps, a few MB per worker.
BLOCK_DRAWS = 2**18
#: Noise draws per path block of the residual oracle: 2,048 paths at 256
#: steps, about 13 MB of noise and recorded states per worker.  Stepping a
#: block costs some 20 numpy calls per step whatever its width, so wider
#: blocks pay less dispatch per path; 4,096 paths ran faster still but
#: raised the battery's peak memory.
RESIDUAL_BLOCK_DRAWS = 2**19


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


def check_terminal_conditions(sol: RiccatiSolution, name: str = "terminal_conditions",
                              tol: float = 1e-14) -> CheckResult:
    expected = terminal_conditions(sol.params, sol.multipliers)
    err = np.max(np.abs(sol.terminal_values - expected) / np.maximum(np.abs(expected), 1.0))
    return _result(name, err <= tol, f"max_rel_err={err:.3e} tol={tol:g}")


def _map_blocks(grid, n_paths: int, seed: int, block_draws: int, run: Callable) -> list:
    """``run(lo, hi, noise)`` over blocks of about ``block_draws`` draws of a seed's paths."""
    return map_noise_blocks(grid, n_paths, seed, max(1, block_draws // grid.n_steps), run)


def _diverged(bad: Optional[Tuple[int, int]], lo: int, label: str = "state"):
    """The ``SimulationDivergedError`` of a block's (step, path) starting at path ``lo``, or None."""
    return None if bad is None else SimulationDivergedError(path=lo + bad[1], step=bad[0], label=label)


def _raise(error: Optional[Exception]) -> None:
    if error is not None:
        raise error


def _block_max_residual(sol: RiccatiSolution, field: ClosedLoopField, noise, lo: int):
    """Largest ``ansatz_residual`` of ``sol`` on block ``lo``'s noise, or its divergence."""
    try:
        return ansatz_residual(sol, closed_loop_paths(field, noise)).max_residual
    except SimulationDivergedError as exc:
        return _diverged((exc.step, exc.path), lo, exc.label)


def _max_residuals(sols: List[RiccatiSolution], n_paths: int, seed: int) -> list:
    """Largest ``ansatz_residual`` of each solution along the seed's closed-loop paths.

    The solutions share one grid: each block of paths is drawn once and
    stepped under every solution.  Every residual element depends on one
    path only, so the largest over the blocks is the largest over the whole
    ensemble.  A solution whose paths diverge gets, in place of its maximum,
    the earliest ``SimulationDivergedError`` over all of them.
    """
    fields = [ClosedLoopField(sol) for sol in sols]

    def block_max(lo, hi, noise):
        return [_block_max_residual(sol, field, noise, lo) for sol, field in zip(sols, fields)]

    blocks = _map_blocks(sols[0].grid, n_paths, seed, RESIDUAL_BLOCK_DRAWS, block_max)
    return [_earliest(col) or float(np.max(col)) for col in zip(*blocks)]


def _residual_result(name: str, config: RunConfig, sol: RiccatiSolution, max_residual) -> CheckResult:
    if isinstance(max_residual, SimulationDivergedError):
        raise max_residual
    ok = max_residual <= config.residual_tol
    return _result(
        name, ok,
        f"max_residual={max_residual:.3e} tol={config.residual_tol:g} "
        f"n_steps={sol.grid.n_steps} n_paths={min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)}",
    )


def check_riccati_residual(config: RunConfig, coeff_sol: Optional[RiccatiSolution] = None):
    """Drift-residual oracle on the config's ``RESIDUAL_CHECK_STEPS``-step solve.

    Returns the result and, for a coefficient file's solution on the same
    grid, its residual maximum (or divergence) from the same draws, for
    ``check_coefficient_file``; None otherwise.
    """
    name = "riccati_residual"
    n_paths = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
    try:
        sol = _solve(config, RESIDUAL_CHECK_STEPS)
    except RiccatiBlowUpError as exc:
        return _result(name, False, str(exc)), None
    shared = coeff_sol is not None and coeff_sol.grid == sol.grid
    maxima = _max_residuals([sol, coeff_sol] if shared else [sol], n_paths, config.seed)
    return _residual_result(name, config, sol, maxima[0]), maxima[1] if shared else None


def check_coefficient_file(config: RunConfig, sol: RiccatiSolution, max_residual=None) -> List[CheckResult]:
    """Validate an externally loaded coefficient table: terminal values + residual.

    ``max_residual`` comes from a pass that draws the file's grid anyway (the
    noise pass or ``check_riccati_residual``); without it the file's
    solution is stepped on a pass of its own.
    """
    results = [check_terminal_conditions(sol, "file_terminal_conditions", 1e-12)]
    if max_residual is None:
        n_paths = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
        (max_residual,) = _max_residuals([sol], n_paths, config.seed)
    results.append(_residual_result("file_riccati_residual", config, sol, max_residual))
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


def _fold_x(x: np.ndarray, dW: np.ndarray, sigma: float, drift_dt: float) -> Optional[Tuple[int, int]]:
    """Fold ``x = (x + drift dt) + sigma dW`` from 0; the first non-finite (step, path) or None."""
    x[...] = 0.0
    sigma_dW = np.empty_like(x)
    for k, row in enumerate(dW):
        np.multiply(row, sigma, out=sigma_dW)
        x += drift_dt
        x += sigma_dW
        # a step whose sum is finite has no non-finite x
        if not math.isfinite(x.sum()):
            bad = ~np.isfinite(x)
            if bad.any():
                return k + 1, int(bad.argmax())
    return None


def _fold_density(gamma: np.ndarray, log_gamma: np.ndarray, dW: np.ndarray,
                  theta: float, dt: float) -> None:
    """Fold ``lg = (lg + theta dW) - (0.5 theta^2) dt`` from 0; ``gamma = exp(lg)``."""
    half_theta2_dt = 0.5 * (theta * theta) * dt
    log_gamma[...] = 0.0
    # gamma is the work row for theta dW until it receives exp(lg)
    for row in dW:
        np.multiply(row, theta, out=gamma)
        log_gamma += gamma
        log_gamma -= half_theta2_dt
    np.exp(log_gamma, out=gamma)


def _terminal_values(config: RunConfig, seed: int, drift: float, theta: Optional[float] = None):
    """Terminal values of dx = drift dt + sigma dW, x(0) = 0, and of its density.

    Folds x_T and, given ``theta``, log Gamma_T over blocks of the first
    ``min(n_paths, PASS_MAX_PATHS)`` paths of the seed's stream.  Returns
    ``(x_T, gamma_T, log_gamma_T)``, the last two None without ``theta``.

    Raises
    ------
    ValueError
        If ``theta`` is not finite.
    SimulationDivergedError
        At the earliest step any x goes non-finite, on the lowest such path.
    """
    if theta is not None and not math.isfinite(theta):
        raise ValueError("non-finite theta at step 0")
    sigma = config.params.sigma
    n_paths = min(config.n_paths, PASS_MAX_PATHS)
    grid = make_grid(config.params.T, config.n_steps)
    x_T = np.empty(n_paths)
    gamma_T = log_gamma_T = None
    if theta is not None:
        gamma_T, log_gamma_T = np.empty(n_paths), np.empty(n_paths)

    def run(lo, hi, noise):
        dW = noise.increments.T
        bad = _fold_x(x_T[lo:hi], dW, sigma, drift * grid.dt)
        if bad is not None:
            raise _diverged(bad, 0, "x")
        if theta is not None:
            _fold_density(gamma_T[lo:hi], log_gamma_T[lo:hi], dW, theta, grid.dt)

    _map_blocks(grid, n_paths, seed, BLOCK_DRAWS, run)
    return x_T, gamma_T, log_gamma_T


class _NoisePass(NamedTuple):
    """What ``_noise_pass`` hands the density, b = 0 and mean-trajectory checks."""

    gamma_T: np.ndarray  # Gamma_T at theta = 1 over dx = sigma dW
    b0_x_T: object  # x_T of the b = 0 closed loop, or its solve's RiccatiBlowUpError
    paths: Optional[PathEnsemble]  # the mean-trajectory set; None without a solve
    file_max_residual: object  # see ``_noise_pass``; None without a file on this grid
    failures: dict  # "mean", "density" or "b0" -> the part's first error, or None


def _noise_pass(config: RunConfig, sol: Optional[RiccatiSolution],
                coeff_sol: Optional[RiccatiSolution] = None) -> _NoisePass:
    """One pass over the first ``min(n_paths, PASS_MAX_PATHS)`` paths of the seed's stream.

    Each block feeds every part: ``density``, the fold of
    ``_terminal_values`` at drift 0 and theta = 1; ``b0``, the b = 0 closed
    loop without cost integrals, unless its solve blows up; ``mean``, given
    ``sol``, its closed loop on the first ``MEAN_CHECK_MAX_PATHS`` paths,
    recorded at every node; and, given a ``coeff_sol`` on this grid, the
    largest residual of its closed loop on the first
    ``min(n_paths, RESIDUAL_CHECK_MAX_PATHS)`` paths, as ``_max_residuals``
    takes it.  A part that fails does not stop the others: its earliest
    divergence is kept for the caller to raise in the order of its checks.
    """
    grid = make_grid(config.params.T, config.n_steps)
    sigma = config.params.sigma
    n_paths = min(config.n_paths, PASS_MAX_PATHS)
    n_mean = min(config.n_paths, MEAN_CHECK_MAX_PATHS)
    n_file = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
    b0_config = dataclasses.replace(config, params=dataclasses.replace(config.params, b=0.0))
    b0_x_T = np.empty(n_paths)
    try:
        b0_field = ClosedLoopField(_solve(b0_config, config.n_steps))
    except RiccatiBlowUpError as exc:
        b0_field, b0_x_T = None, exc
    field = None if sol is None else ClosedLoopField(sol)
    states = None if sol is None else np.empty((grid.n_points, 2, n_mean))
    file_field = None if coeff_sol is None or coeff_sol.grid != grid else ClosedLoopField(coeff_sol)
    gamma_T = np.empty(n_paths)

    def run(lo, hi, noise):
        dW = noise.increments.T
        out = {"density": _diverged(_fold_x(np.empty(hi - lo), dW, sigma, 0.0), lo, "x")}
        _fold_density(gamma_T[lo:hi], np.empty(hi - lo), dW, 1.0, grid.dt)
        if b0_field is not None:
            out["b0"] = _diverged(_step_block(b0_field, dW, b0_x_T[lo:hi]), lo)
        if field is not None and lo < n_mean:
            m = min(hi, n_mean) - lo
            mean_states = states[:, :, lo:lo + m]
            out["mean"] = _diverged(
                _step_block(field, dW[:, :m], np.empty(m), states=mean_states), lo)
        if file_field is not None and lo < n_file:
            m = min(hi, n_file) - lo
            head = dataclasses.replace(noise, n_paths=m, increments=noise.increments[:m])
            out["file"] = _block_max_residual(coeff_sol, file_field, head, lo)
        return out

    blocks = _map_blocks(grid, n_paths, config.seed, BLOCK_DRAWS, run)
    paths = None if sol is None else PathEnsemble(
        grid=grid, states=states.transpose(2, 0, 1), labels=("x", "R"))
    maxima = [block["file"] for block in blocks if "file" in block]
    file_max = (_earliest(maxima) or float(np.max(maxima))) if maxima else None
    failures = {part: _earliest(block.get(part) for block in blocks)
                for part in ("mean", "density", "b0")}
    return _NoisePass(gamma_T, b0_x_T, paths, file_max, failures)


def check_density_martingale(gamma_T: np.ndarray) -> CheckResult:
    name = "density_martingale"
    n_paths = gamma_T.size
    est, se = float(gamma_T.mean()), float(gamma_T.std(ddof=1) / math.sqrt(n_paths))
    ok = abs(est - 1.0) <= 3.0 * se
    return _result(name, ok, f"E[Gamma_T]={est:.6f} se={se:.2e} target=1 band=3se")


def check_b0_variance(config: RunConfig, x_T) -> CheckResult:
    """Var(x_T) of the b = 0 closed loop, x_T from ``_noise_pass``, against its exact value.

    ``x_T`` may be the b = 0 solve's ``RiccatiBlowUpError``; the check fails with it.
    """
    name = "b0_variance_oracle"
    if isinstance(x_T, RiccatiBlowUpError):
        return _result(name, False, str(x_T))
    var, se = _variance_and_se(x_T)
    # the exact variance of the Euler chain x_{k+1} = (1 + a dt) x_k + sigma dW_k,
    # so the scheme's discretisation bias is not read as an oracle failure
    params = config.params
    sigma, T, n = params.sigma, params.T, config.n_steps
    dt = T / n
    g = (1.0 + params.a * dt) ** 2
    target = sigma * sigma * (T if g == 1.0 else dt * (g**n - 1.0) / (g - 1.0))
    ok = abs(var - target) <= 3.0 * se
    return _result(
        name, ok,
        f"var={var:.6e} target={target:.6e} se={se:.2e} band=3se",
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

    Each (grid, seed) stream is drawn once: ``_noise_pass`` serves the
    density, b = 0 and mean-trajectory checks, and a coefficient file is
    stepped by the noise pass or else ``check_riccati_residual`` if either
    draws its grid.  The terminal-condition, mean-trajectory and explicit-R
    checks share one ``n_steps`` solve; if it blows up, all three fail with
    its message, as ``b0_variance_oracle`` does with the b = 0 solve's.
    Failures that end the run are raised in the order of the checks that
    meet them: a divergence of the mean-trajectory set, of the residual
    paths, of the density fold, of the b = 0 paths, then of the coefficient
    file's paths.
    """
    try:
        sol = _solve(config, config.n_steps)
    except RiccatiBlowUpError as exc:
        sol, blow_up = None, exc
    shared = _noise_pass(config, sol, coeff_sol)
    _raise(shared.failures["mean"])
    on_pass = shared.file_max_residual is not None
    residual, file_max = check_riccati_residual(config, None if on_pass else coeff_sol)
    _raise(shared.failures["density"])
    _raise(shared.failures["b0"])
    if sol is None:
        terminal, mean, explicit = (
            _result(name, False, str(blow_up))
            for name in ("terminal_conditions", "mean_trajectory", "explicit_R_consistency")
        )
    else:
        terminal = check_terminal_conditions(sol)
        mean = check_mean_trajectory(shared.paths)
        explicit = check_explicit_r(sol, shared.paths)
    results = [
        terminal,
        residual,
        check_argmax_agent(config),
        check_argmax_principal(config, AS_PRINTED),
        check_argmax_principal(config, ETA_EQUALS_X),
        check_density_martingale(shared.gamma_T),
        check_b0_variance(config, shared.b0_x_T),
        mean,
        explicit,
    ]
    if coeff_sol is not None:
        file_max = shared.file_max_residual if on_pass else file_max
        results.extend(check_coefficient_file(config, coeff_sol, file_max))
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
    x_T, gamma_T, log_vals = _terminal_values(config, config.seed, drift=0.0, theta=theta)
    n_paths = x_T.size
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
    log_est = float(log_vals.mean())
    log_se = float(log_vals.std(ddof=1) / math.sqrt(n_paths)) if theta != 0.0 else 0.0
    ok = abs(log_est - log_target) <= 3.0 * log_se if theta != 0.0 else log_est == 0.0
    results.append(_result(
        "log_density_mean", ok,
        f"E[log Gamma_T]={log_est:.6e} target={log_target:.6e} band=3se",
    ))

    weak_est, weak_se = reweighted_expectation(x_T, gamma_T)
    analytic = params.b * e0 * params.T

    s_T, _, _ = _terminal_values(config, (config.seed + 1) % 2**64, drift=params.b * e0)
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
