"""Self-verification batteries behind the ``check`` and ``weakcheck`` commands.

Each check returns a CheckResult; the CLI prints one machine-readable line
per check and maps any failure to a nonzero exit.  Checks that rest on a
Monte-Carlo estimate use 3-standard-error bands, so with the shipped seeds
they are deterministic.

Every check that reads paths is a part (``_Part``): a grid, a path count, a
block size in noise draws and a ``run(lo, hi, noise)`` for each block of its
paths.  ``_read_streams`` is the one place that decides which checks share
draws: the parts on one grid share one stream of the seed, so each
(grid, seed) stream is drawn once, and the streams of every grid run their
blocks in one ``montecarlo.map_noise_blocks`` call, on one thread pool with
no barrier between grids.  A part keeps only what its check reads, so peak
memory scales with workers x block, not with the path count; per-path bits
do not depend on the blocking, so every number is the one a separate pass
over the whole ensemble gives.  Every part reads the step rows of a block's
step-major increments in place: the closed-loop parts through
``montecarlo._step_block``, which steps (x, R) as one (2, paths) array, and
the folds scaled into a work row.  The density fold keeps the operation
order of the generic Euler scheme and the log-density recursion, which the
tests pin it against.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple

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
    DEFAULT_CHUNK_SIZE,
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
from .timegrid import TimeGrid, make_grid
from .weak import hidden_action_foc_check, reweighted_expectation

RESIDUAL_CHECK_STEPS = 256
RESIDUAL_CHECK_MAX_PATHS = 10_000
#: Paths of the density folds and of the b = 0 oracle; the first
#: ``MEAN_CHECK_MAX_PATHS`` of them are the mean-trajectory set, whose x is
#: recorded, and the first ``EXPLICIT_R_MAX_PATHS`` the explicit-R set, whose
#: (x, R) is.
PASS_MAX_PATHS = 100_000
MEAN_CHECK_MAX_PATHS = 20_000
EXPLICIT_R_MAX_PATHS = 5_000
#: Noise draws per path block of the density folds, the b = 0 loop and the
#: recorded sets: ``simulate``'s own block, 16,384 paths at 64 steps (8 MB
#: of noise per worker).
BLOCK_DRAWS = DEFAULT_CHUNK_SIZE * 64
#: Noise draws per path block of the residual oracles: 2,048 paths at 256
#: steps, about 13 MB of noise and recorded states per worker; 4,096 paths
#: raised the battery's peak memory.  On a grid shared with the parts
#: above, the stream takes the smaller of the two blocks.
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


def _solve_or_blow_up(config: RunConfig, n_steps: int):
    """``_solve``, or the ``RiccatiBlowUpError`` it raises."""
    try:
        return _solve(config, n_steps)
    except RiccatiBlowUpError as exc:
        return exc


def check_terminal_conditions(sol: RiccatiSolution, name: str = "terminal_conditions",
                              tol: float = 1e-14) -> CheckResult:
    expected = terminal_conditions(sol.params, sol.multipliers)
    err = np.max(np.abs(sol.terminal_values - expected) / np.maximum(np.abs(expected), 1.0))
    return _result(name, err <= tol, f"max_rel_err={err:.3e} tol={tol:g}")


class _Part(NamedTuple):
    """A check's read of a noise stream.

    ``run(lo, hi, noise)`` gets the paths ``[lo, hi)`` of each block that lie
    within the part's first ``n_paths``; it returns the block's value or
    raises a ``SimulationDivergedError`` with a path index within the block.
    """

    grid: TimeGrid
    n_paths: int
    block_draws: int  # noise draws per block, at most
    run: Callable


def _read_streams(seed: int, parts: Dict[str, _Part]) -> dict:
    """Each part's list of block values over the seed's stream of its grid.

    The parts on one grid share one stream over the most paths any of them
    reads, in blocks of the fewest draws any of them asks for, and each runs
    on the head of every block that lies within its own paths; the streams
    of all grids run in one ``map_noise_blocks`` call.  A part that diverges
    does not stop the others: in place of its values it gets its earliest
    ``SimulationDivergedError`` over all blocks.
    """
    groups = {}
    for name, part in parts.items():
        groups.setdefault(part.grid, {})[name] = part

    def stream(grid, group):
        def run(lo, hi, noise):
            values = {}
            for name, part in group.items():
                m = min(hi, part.n_paths) - lo
                if m <= 0:
                    continue
                head = noise if m == hi - lo else dataclasses.replace(
                    noise, n_paths=m, increments=noise.increments[:m])
                try:
                    values[name] = part.run(lo, lo + m, head)
                except SimulationDivergedError as exc:
                    values[name] = SimulationDivergedError(path=lo + exc.path, step=exc.step,
                                                           label=exc.label)
            return values

        n_paths = max(part.n_paths for part in group.values())
        block_draws = min(part.block_draws for part in group.values())
        return grid, n_paths, max(1, block_draws // grid.n_steps), run

    streams = map_noise_blocks(seed, [stream(grid, group) for grid, group in groups.items()])
    read = {}
    for group, blocks in zip(groups.values(), streams):
        for name in group:
            values = [block[name] for block in blocks if name in block]
            read[name] = _earliest(values) or values
    return read


def _values(read) -> list:
    """A part's block values from ``_read_streams``; raises its divergence."""
    if isinstance(read, SimulationDivergedError):
        raise read
    return read


def _raise_at(bad: Optional[Tuple[int, int]], label: str = "state") -> None:
    """Raise the divergence at a block's (step, path), if there is one."""
    if bad is not None:
        raise SimulationDivergedError(path=bad[1], step=bad[0], label=label)


def _residual_part(sol: RiccatiSolution, n_paths: int) -> _Part:
    """The largest ``ansatz_residual`` of ``sol`` on each block of its first ``n_paths`` paths.

    Every residual element depends on one path only, so the largest over the
    blocks is the largest over the whole ensemble.
    """
    field = ClosedLoopField(sol)
    return _Part(sol.grid, n_paths, RESIDUAL_BLOCK_DRAWS,
                 lambda lo, hi, noise: ansatz_residual(sol, closed_loop_paths(field, noise)).max_residual)


def _residual_result(name: str, config: RunConfig, sol: RiccatiSolution, maxima: list) -> CheckResult:
    """The residual check of ``sol`` from the block maxima of its ``_residual_part``."""
    max_residual = float(np.max(maxima))
    ok = max_residual <= config.residual_tol
    return _result(
        name, ok,
        f"max_residual={max_residual:.3e} tol={config.residual_tol:g} "
        f"n_steps={sol.grid.n_steps} n_paths={min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)}",
    )


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


def _fold_part(config: RunConfig, drift: float, theta: Optional[float] = None,
               x_T=None, gamma_T=None, log_gamma_T=None) -> _Part:
    """The fold of dx = drift dt + sigma dW, x(0) = 0, and, given ``theta``, of its density.

    Runs on the first ``min(n_paths, PASS_MAX_PATHS)`` paths of the
    ``n_steps`` grid and writes x_T, Gamma_T and log Gamma_T into those of
    the arrays that are given; the others are folded in scratch rows.  A
    block raises where x goes non-finite.

    Raises
    ------
    ValueError
        If ``theta`` is not finite.
    """
    if theta is not None and not math.isfinite(theta):
        raise ValueError("non-finite theta at step 0")
    sigma = config.params.sigma
    grid = make_grid(config.params.T, config.n_steps)

    def run(lo, hi, noise):
        x, gamma, log_gamma = (np.empty(hi - lo) if out is None else out[lo:hi]
                               for out in (x_T, gamma_T, log_gamma_T))
        dW = noise.increments.T
        _raise_at(_fold_x(x, dW, sigma, drift * grid.dt), "x")
        if theta is not None:
            _fold_density(gamma, log_gamma, dW, theta, grid.dt)

    return _Part(grid, min(config.n_paths, PASS_MAX_PATHS), BLOCK_DRAWS, run)


def _terminal_values(config: RunConfig, seed: int, drift: float, theta: Optional[float] = None):
    """The terminal values of ``_fold_part`` over the seed's stream.

    Returns ``(x_T, gamma_T, log_gamma_T)``, the last two None without ``theta``.

    Raises
    ------
    ValueError
        If ``theta`` is not finite.
    SimulationDivergedError
        At the earliest step any x goes non-finite, on the lowest such path.
    """
    n_paths = min(config.n_paths, PASS_MAX_PATHS)
    x_T = np.empty(n_paths)
    gamma_T, log_gamma_T = (None, None) if theta is None else (np.empty(n_paths), np.empty(n_paths))
    part = _fold_part(config, drift, theta, x_T, gamma_T, log_gamma_T)
    _values(_read_streams(seed, {"fold": part})["fold"])
    return x_T, gamma_T, log_gamma_T


def _loop_part(sol: RiccatiSolution, n_paths: int, x_T=None, states=None) -> _Part:
    """The closed loop of ``sol``, without cost integrals, on its first ``n_paths`` paths.

    Writes x_T into ``x_T`` and the first c of (x, R) at every node into the
    step-major ``states`` of shape (n_points, c, n_paths), each if given.
    """
    field = ClosedLoopField(sol)

    def run(lo, hi, noise):
        x = np.empty(hi - lo) if x_T is None else x_T[lo:hi]
        block_states = None if states is None else states[:, :, lo:hi]
        _raise_at(_step_block(field, noise.increments.T, x, states=block_states))

    return _Part(sol.grid, n_paths, BLOCK_DRAWS, run)


def check_density_martingale(gamma_T: np.ndarray) -> CheckResult:
    name = "density_martingale"
    n_paths = gamma_T.size
    est, se = float(gamma_T.mean()), float(gamma_T.std(ddof=1) / math.sqrt(n_paths))
    ok = abs(est - 1.0) <= 3.0 * se
    return _result(name, ok, f"E[Gamma_T]={est:.6f} se={se:.2e} target=1 band=3se")


def check_b0_variance(config: RunConfig, x_T: np.ndarray) -> CheckResult:
    """Var(x_T) of the b = 0 closed loop against its exact value."""
    name = "b0_variance_oracle"
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

    Its path-reading checks are parts, read in one ``_read_streams`` call,
    so checks that read the same grid share one stream.  The density fold
    and the b = 0 closed loop read the first ``min(n_paths, PASS_MAX_PATHS)``
    paths of the ``n_steps`` stream, the mean-trajectory set records x on
    the first ``MEAN_CHECK_MAX_PATHS`` of them and the explicit-R set (x, R)
    on the first ``EXPLICIT_R_MAX_PATHS``; the residual oracle reads the first
    ``RESIDUAL_CHECK_MAX_PATHS`` paths of the ``RESIDUAL_CHECK_STEPS``
    stream, and a coefficient file as many of its own grid's.  The
    terminal-condition, mean-trajectory and explicit-R checks share one
    ``n_steps`` solve; if it blows up, all three fail with its message, and
    the residual and b = 0 oracles do so with theirs.  A divergence ends the
    run once every stream has run, as the earliest check meets it: in the
    mean-trajectory set, the residual paths, the density fold, the b = 0
    paths, then the coefficient file's paths.
    """
    n_pass = min(config.n_paths, PASS_MAX_PATHS)
    n_mean = min(config.n_paths, MEAN_CHECK_MAX_PATHS)
    n_explicit = min(config.n_paths, EXPLICIT_R_MAX_PATHS)
    n_residual = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
    b0_config = dataclasses.replace(config, params=dataclasses.replace(config.params, b=0.0))
    sol = _solve_or_blow_up(config, config.n_steps)
    b0_sol = _solve_or_blow_up(b0_config, config.n_steps)
    residual_sol = _solve_or_blow_up(config, RESIDUAL_CHECK_STEPS)
    parts = {}  # in the order their divergences are raised; a blown-up solve has none
    if isinstance(sol, RiccatiSolution):
        # the explicit-R paths are the mean set's first: it diverges first
        mean_x = np.empty((sol.grid.n_points, 1, n_mean))
        explicit_states = np.empty((sol.grid.n_points, 2, n_explicit))
        parts["mean"] = _loop_part(sol, n_mean, states=mean_x)
        parts["explicit"] = _loop_part(sol, n_explicit, states=explicit_states)
    if isinstance(residual_sol, RiccatiSolution):
        parts["residual"] = _residual_part(residual_sol, n_residual)
    gamma_T = np.empty(n_pass)
    parts["density"] = _fold_part(config, 0.0, 1.0, gamma_T=gamma_T)
    if isinstance(b0_sol, RiccatiSolution):
        b0_x_T = np.empty(n_pass)
        parts["b0"] = _loop_part(b0_sol, n_pass, x_T=b0_x_T)
    if coeff_sol is not None:
        parts["file"] = _residual_part(coeff_sol, n_residual)
    read = _read_streams(config.seed, parts)
    for name in parts:
        _values(read[name])

    if "mean" in parts:
        mean_paths, explicit_paths = (
            PathEnsemble(grid=sol.grid, states=states.transpose(2, 0, 1), labels=labels)
            for states, labels in ((mean_x, ("x",)), (explicit_states, ("x", "R"))))
        terminal, mean, explicit = (check_terminal_conditions(sol), check_mean_trajectory(mean_paths),
                                    check_explicit_r(sol, explicit_paths))
    else:
        terminal, mean, explicit = (
            _result(name, False, str(sol))
            for name in ("terminal_conditions", "mean_trajectory", "explicit_R_consistency")
        )
    results = [
        terminal,
        _residual_result("riccati_residual", config, residual_sol, read["residual"])
        if "residual" in parts else _result("riccati_residual", False, str(residual_sol)),
        check_argmax_agent(config),
        check_argmax_principal(config, AS_PRINTED),
        check_argmax_principal(config, ETA_EQUALS_X),
        check_density_martingale(gamma_T),
        check_b0_variance(config, b0_x_T)
        if "b0" in parts else _result("b0_variance_oracle", False, str(b0_sol)),
        mean,
        explicit,
    ]
    if coeff_sol is not None:
        results.append(check_terminal_conditions(coeff_sol, "file_terminal_conditions", 1e-12))
        results.append(_residual_result("file_riccati_residual", config, coeff_sol, read["file"]))
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
