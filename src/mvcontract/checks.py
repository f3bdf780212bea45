"""Self-verification batteries behind the ``check`` and ``weakcheck`` commands.

Each check returns a CheckResult; the CLI prints one machine-readable line
per check and maps any failure to a nonzero exit.  Checks that rest on a
Monte-Carlo estimate use 3-standard-error bands, so with the shipped seeds
they are deterministic; a band line whose gap or band is not finite fails,
and its detail ends in ``not_finite=`` and which (``_band_result``), since
an overflowed SE would pass anything.  Each
mean with a standard error over one array of paths comes from
``montecarlo._mean_and_se``, the estimator of ``simulate``; the mean
trajectory combines block moments.  The weak formulation (the output
density and the hidden-action optimality condition) lives in
``run_weak_battery`` alone.

Every check that reads paths is a part (``montecarlo.Part``): a grid, a
seed, a path count and a ``run(lo, hi, dW)`` for each block of its paths.
Each battery reads all of its parts in one ``montecarlo.read_blocks`` call,
the reader ``simulate`` steps its costs on: a stream is a grid and a seed,
drawn once in blocks of ``montecarlo.BLOCK_DRAWS`` draws for all the parts
on it (``check`` reads the seed on two grids, ``weakcheck`` two seeds on
one), and the blocks of every stream run on one thread pool, whose workers
draw their blocks' noise in parallel and run the parts on them one worker
fewer than the pool at a time (one on two workers).
No part records a path.  The W_T fold and the b = 0 loop keep terminal
values; the residual oracle, the mean trajectory and explicit R are folds
(``_ResidualFold``, ``_MeanFold``, ``_ExplicitRFold``) that
``montecarlo._step_block`` calls at every node of the closed loop, and each
keeps only its statistics of the block; the residual keeps its
per-component maxima.  A coefficient table
with every bit of the residual's own solve reads that solve's blocks
instead of stepping them twice.  Peak memory scales with workers x block,
plus the terminal values of the density and b = 0 paths.  Per-path bits do
not depend on the blocking, and the folds form each residual and
explicit-R element with the operations of their whole-ensemble formulas,
whose maxima are order-free: every number is the one a separate pass over
the whole ensemble gives, up to the summation order of the mean
trajectory's moments.  Every part reads the step rows of a block's
step-major increments in place.  The x fold keeps the operation order of
the generic Euler scheme, which the tests pin it against; the density is
exp(theta W_T - theta^2 T / 2), the closed form at a constant theta.
"""

import dataclasses
import math
from dataclasses import dataclass
from typing import Callable, List, Optional

import numpy as np

from .config import RunConfig
from .errors import DegenerateSensitivityError, RiccatiBlowUpError
from .model import (
    AS_PRINTED,
    ETA_EQUALS_X,
    agent_hamiltonian,
    optimal_cashflow,
    optimal_effort,
    principal_hamiltonian,
)
from .montecarlo import (
    Part,
    _mean_and_se,
    _raise_first_divergence,
    _step_block,
    _variance_and_se,
    read_blocks,
)
from .multipliers import sweep_grid
from .riccati import (
    ClosedLoopField,
    RiccatiSolution,
    integrate_riccati,
    terminal_conditions,
)
from .timegrid import make_grid

RESIDUAL_CHECK_STEPS = 256
RESIDUAL_CHECK_MAX_PATHS = 10_000
#: Paths of the x folds and of the b = 0 oracle; the first
#: ``MEAN_CHECK_MAX_PATHS`` of them are the mean-trajectory set and the first
#: ``EXPLICIT_R_MAX_PATHS`` the explicit-R set.
PASS_MAX_PATHS = 100_000
MEAN_CHECK_MAX_PATHS = 20_000
EXPLICIT_R_MAX_PATHS = 5_000


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, passed, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=bool(passed), detail=detail)


def _band_result(name: str, gap, band, detail: str) -> CheckResult:
    """A band line: passes when every ``|gap| <= band``.

    It fails, and its detail ends in ``not_finite=`` and ``gap``, ``band``
    or both, when either has a non-finite element: an overflowed SE would
    otherwise widen the band to everything.  A non-finite estimate or
    target makes the gap non-finite, and a non-finite SE the band.
    """
    bad = [key for key, value in (("gap", gap), ("band", band)) if not np.all(np.isfinite(value))]
    if bad:
        return _result(name, False, f"{detail} not_finite={','.join(bad)}")
    return _result(name, np.all(np.abs(gap) <= band), detail)


def _first_triple(config: RunConfig):
    return sweep_grid(config.case_tag, config.lam_P_points, config.theta_points)[0]


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


def _residual_result(name: str, config: RunConfig, sol: RiccatiSolution, blocks: list) -> CheckResult:
    """The residual check of ``sol`` from the ``_ResidualFold`` values of its blocks."""
    # every residual depends on one path only: the largest over the blocks
    # is the largest over the ensemble
    max_residual = float(np.max(blocks))
    ok = max_residual <= config.residual_tol
    n_paths = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
    return _result(name, ok, f"max_residual={max_residual:.3e} tol={config.residual_tol:g} "
                             f"n_steps={sol.grid.n_steps} n_paths={n_paths}")


def _argmax_result(name: str, draws) -> CheckResult:
    """Passes when the grid argmax of each ``(H, optimum)`` of ``draws`` lies within a cell of it.

    An optimum at which float64 cannot resolve a cell fails the line, and says so.
    """
    step, worst = 0.004, 0.0
    for fn, optimum in draws:
        if not abs(np.spacing(optimum)) <= step:
            return _result(name, False, f"cell={step:g} unresolved by float64 at {optimum:.3e}")
        worst = max(worst, abs(_grid_argmax(fn, optimum, 2.0, step) - optimum))
    return _result(name, worst <= step, f"max_gap={worst:.3e} cell={step:g}")


def check_argmax_agent(config: RunConfig, n_draws: int = 200) -> CheckResult:
    params = config.params
    rng = np.random.default_rng(config.seed)

    def draws():
        for _ in range(n_draws):
            p, s, x, q = rng.uniform(-1.0, 1.0, size=4)
            # x and q enter only terms constant in e
            yield (lambda e: agent_hamiltonian(params, 0.0, e, p, 0.0, s),
                   optimal_effort(params.b, p, s))

    return _argmax_result("argmax_agent_effort", draws())


def check_argmax_principal(config: RunConfig, mode: str, n_draws: int = 200) -> CheckResult:
    params = config.params
    rng = np.random.default_rng(config.seed + 1)

    def draws():
        for _ in range(n_draws):
            x, p, R, P1, P2, Q1, Q2 = rng.uniform(-1.0, 1.0, size=7)
            lam_P = rng.uniform(0.05, 1.0)
            lam_E = rng.uniform(-1.0, 1.0)
            # x, p, R, Q1 and Q2 enter only terms constant in s
            yield (lambda s: principal_hamiltonian(params, 0.0, 0.0, s, 0.0, P1, P2, 0.0, 0.0,
                                                   lam_E, lam_P, mode),
                   optimal_cashflow(params.b, P1, P2, lam_P, mode))

    return _argmax_result(f"argmax_principal_cashflow_{mode}", draws())


def _fold_part(config: RunConfig, seed: int, drift: float, x_T: np.ndarray) -> Part:
    """The fold of x = (x + drift dt) + dW from 0 into ``x_T``.

    x and the drift are in units of sigma (a drift b e0 is theta), and a
    driftless x_T is W_T.  Runs on the first ``min(n_paths,
    PASS_MAX_PATHS)`` paths of the seed's ``n_steps`` stream.  A non-finite
    drift raises ``ValueError`` before any path is read.  x is screened
    once, at the end of a block: only a non-finite end steps it again to
    raise where x first went non-finite (``_raise_first_divergence``).
    """
    if not math.isfinite(drift):
        raise ValueError("non-finite theta at step 0")
    grid = make_grid(config.params.T, config.n_steps)
    drift_dt = drift * grid.dt

    def run(lo, hi, dW):
        x = x_T[lo:hi]

        def steps():
            x[...] = 0.0
            yield 0
            for k, row in enumerate(dW, 1):
                np.add(x, drift_dt, out=x)
                np.add(x, row, out=x)
                yield k

        for _ in steps():
            pass
        _raise_first_divergence(x, steps, "x")

    return Part(grid, seed, min(config.n_paths, PASS_MAX_PATHS), run)


def _loop_part(sol: RiccatiSolution, seed: int, n_paths: int, x_T=None, fold=None) -> Part:
    """The closed loop of ``sol``, without cost integrals, on its first ``n_paths`` paths.

    Reads the seed's stream on the grid of ``sol``.  Writes x_T into
    ``x_T``, if given.  ``fold``, if given, is a fold class: each block
    steps ``fold(sol, dW)`` with its paths and returns its ``value()``.
    """
    field = ClosedLoopField(sol)

    def run(lo, hi, dW):
        x = np.empty(hi - lo) if x_T is None else x_T[lo:hi]
        block_fold = None if fold is None else fold(sol, dW)
        _step_block(field, dW, x, block_fold)
        return None if fold is None else block_fold.value()

    return Part(sol.grid, seed, n_paths, run)


class _ResidualFold:
    """The drift residual of each adjoint component along a block of closed-loop paths.

    Each component Z in (p, P1, P2) is reconstructed at every node from
    (x, R) and the state blocks of the coefficients, and each step's
    discrete drift

        r_k = (Z_{k+1} - Z_k - D_{k+1} dW_k) / dt - prescribed_k,

    with D the dW-matched loading (A11, A12, A13 at the right endpoint, which
    cancels the increment contribution exactly), is compared with the drift
    the backward equations prescribe at the left endpoint (-a p,
    -a (P1 + P2), 0).  If the twelve equations are the correct coefficient
    matching, r is O(dt); a wrong coefficient trajectory leaves an O(1)
    mismatch.  Residuals are in drift units per unit sigma.  The
    fold keeps Z and the drift of the last node only; ``value()`` is the
    per-component max |r| over the block, a (3,) array in (p, P1, P2) order.
    """

    def __init__(self, sol: RiccatiSolution, dW: np.ndarray):
        self._A, self._B = (np.stack([sol.column(f"{ab}1{j}") for j in (1, 2, 3)], 1)[:, :, None]
                            for ab in "AB")
        self._minus_a, self._dt, self._dW = -sol.params.a, sol.grid.dt, dW
        # Z and the prescribed drift at the last node and this one; the
        # drift's P2 row stays 0, and subtracting 0 changes no residual
        self._Z, self._Z1, self._drift, self._drift1, self._r, self._t = np.zeros(
            (6, 3, dW.shape[1]))
        self._max = np.zeros(3)

    def __call__(self, k: int, z: np.ndarray) -> None:
        x, R = z
        Z1, drift1, r, t = self._Z1, self._drift1, self._r, self._t
        np.multiply(self._A[k], x, out=Z1)
        np.multiply(self._B[k], R, out=t)
        Z1 += t
        drift1[0] = Z1[0]
        np.add(Z1[1], Z1[2], out=drift1[1])
        drift1[:2] *= self._minus_a
        if k:
            np.subtract(Z1, self._Z, out=r)
            np.multiply(self._A[k], self._dW[k - 1], out=t)
            r -= t
            r /= self._dt
            r -= self._drift
            np.abs(r, out=r)
            np.maximum(self._max, r.max(axis=1), out=self._max)
        self._Z, self._Z1, self._drift, self._drift1 = Z1, self._Z, drift1, self._drift

    def value(self) -> np.ndarray:
        return self._max


class _MeanFold:
    """Each node's mean of x over a block of paths and its sum of squared deviations (M2)."""

    def __init__(self, sol: RiccatiSolution, dW: np.ndarray):
        self._n = dW.shape[1]
        self._mean, self._m2 = np.empty((2, sol.grid.n_points))
        self._d = np.empty(self._n)

    def __call__(self, k: int, z: np.ndarray) -> None:
        self._mean[k] = mean = z[0].mean()
        np.subtract(z[0], mean, out=self._d)
        np.square(self._d, out=self._d)
        self._m2[k] = self._d.sum()

    def value(self):
        return self._n, self._mean, self._m2


class _ExplicitRFold:
    """R by an integrating factor along a block's x paths, against the stepped R.

    Under the coefficient representation the R-dynamics reduce to the linear
    scalar ODE

        dR/dt + c(t) R = k(t) x(t),   R(0) = 0,

    with c = b^2 B12 + b^2 B13 - lambda_E b^2 B11 - a and
    k = lambda_E b^2 A11 - b^2 A12 - b^2 A13 (the mean terms vanish because
    the averaged state is identically zero).  Its solution

        R(t) = exp(-C(t)) * integral_0^t exp(C(s)) k(s) x(s) ds,
        C(t) = integral_0^t c(s) ds,

    is evaluated with composite trapezoidal quadrature on the grid, the
    inner integral stepped with the path, so R(t) reads x up to t only.
    ``value()`` is (max |R_quad - R|, max |k x|) over the block's nodes and
    paths.
    """

    def __init__(self, sol: RiccatiSolution, dW: np.ndarray):
        b2 = sol.params.b ** 2
        lam_E = sol.multipliers.lam_E
        B11, B12, B13, A11, A12, A13 = (
            sol.column(name) for name in ("B11", "B12", "B13", "A11", "A12", "A13"))
        decay = b2 * B12 + b2 * B13 - lam_E * b2 * B11 - sol.params.a
        self._forcing = lam_E * b2 * A11 - b2 * A12 - b2 * A13
        self._dt = dt = sol.grid.dt
        C = np.concatenate([[0.0], np.cumsum(0.5 * (decay[1:] + decay[:-1]) * dt)])
        self._factor, self._inverse = np.exp(C) * self._forcing, np.exp(-C)
        # the integrand at the last node and this one, and the inner integral
        self._f, self._f1, self._inner, self._t = np.zeros((4, dW.shape[1]))
        self._diffs, self._scales = np.zeros((2, sol.grid.n_points))

    def __call__(self, k: int, z: np.ndarray) -> None:
        x, R = z
        f1, t = self._f1, self._t
        np.multiply(self._forcing[k], x, out=t)
        np.abs(t, out=t)
        self._scales[k] = t.max()
        np.multiply(self._factor[k], x, out=f1)
        if k:
            np.add(f1, self._f, out=t)
            t *= 0.5
            t *= self._dt
            self._inner += t
            np.multiply(self._inverse[k], self._inner, out=t)
            t -= R
            np.abs(t, out=t)
            self._diffs[k] = t.max()
        self._f, self._f1 = f1, self._f

    def value(self):
        # np.max, unlike max(), propagates a NaN
        return np.max(self._diffs), np.max(self._scales)


def check_density_martingale(gamma_T: np.ndarray, name: str = "density_martingale") -> CheckResult:
    """E[Gamma_T] = 1: Gamma_T reads the increments alone, so the line tests the noise, not the model."""
    est, se = _mean_and_se(gamma_T)
    return _band_result(name, est - 1.0, 3.0 * se,
                        f"E[Gamma_T]={est:.6f} se={se:.2e} target=1 band=3se")


def check_b0_variance(config: RunConfig, x_T: np.ndarray) -> CheckResult:
    """Var(x_T) of the b = 0 closed loop against its exact value, both per unit sigma^2."""
    name = "b0_variance_oracle"
    var, se = _variance_and_se(x_T)
    # the exact variance of the Euler chain x_{k+1} = (1 + a dt) x_k + dW_k,
    # so the scheme's discretisation bias is not read as an oracle failure
    params = config.params
    T, n = params.T, config.n_steps
    dt = T / n
    g = (1.0 + params.a * dt) ** 2
    target = T if g == 1.0 else dt * (g**n - 1.0) / (g - 1.0)
    return _band_result(name, var - target, 3.0 * se,
                        f"var={var:.6e} target={target:.6e} se={se:.2e} band=3se")


def _node_moments(blocks: list):
    """Each node's mean and standard error of x from the ``_MeanFold`` values of the blocks.

    The blocks are combined in block order by the pairwise update of Chan,
    Golub and LeVeque, "Updating formulae and a pairwise algorithm for
    computing sample variances" (1979).
    """
    n, mean, m2 = blocks[0]
    for n_b, mean_b, m2_b in blocks[1:]:
        delta = mean_b - mean
        total = n + n_b
        mean = mean + delta * (n_b / total)
        m2 = m2 + m2_b + delta * delta * (n * n_b / total)
        n = total
    return mean, np.sqrt(m2 / (n - 1)) / math.sqrt(n)


def check_mean_trajectory(blocks: list) -> CheckResult:
    """The MC mean of x per unit sigma (``_MeanFold`` blocks) against E[x] = 0 at every node.

    Every linear homogeneous loop has a zero mean: the line tests the noise, not the model."""
    name = "mean_trajectory"
    mc_mean, mc_se = _node_moments(blocks)
    gaps = np.abs(mc_mean)
    # node 0 is pinned exactly; later nodes get a 3-standard-error band
    band = 3.0 * mc_se
    band[0] = 0.0
    worst = float(np.max(gaps[1:] / np.maximum(mc_se[1:], 1e-300)))
    return _band_result(name, gaps, band, f"max_gap={gaps.max():.3e} worst_gap_over_se={worst:.2f}")


def check_explicit_r(sol: RiccatiSolution, blocks: list) -> CheckResult:
    """Two independent integrators of the R-equation must track each other.

    Reads the ``_ExplicitRFold`` values of the blocks of the first
    ``EXPLICIT_R_MAX_PATHS`` paths.
    """
    name = "explicit_R_consistency"
    diff, scale = (float(np.max(values)) for values in zip(*blocks))
    # both schemes are first order; their gap scales with dt times the
    # forcing magnitude seen along the ensemble, both per unit sigma
    tol = 5.0 * sol.grid.dt * max(scale, 1.0)
    return _result(name, diff <= tol, f"max_diff={diff:.3e} tol={tol:.3e} (dt-scaled)")


def run_check_battery(config: RunConfig, coeff_sol: Optional[RiccatiSolution] = None) -> List[CheckResult]:
    """The full oracle suite behind ``mvcontract check``.

    Its path-reading checks are parts, read in one ``read_blocks`` call,
    so checks that read the same grid share one stream.  The density's W_T
    fold and the b = 0 closed loop read the first ``min(n_paths,
    PASS_MAX_PATHS)`` paths of the ``n_steps`` stream, the mean-trajectory
    fold the first ``MEAN_CHECK_MAX_PATHS`` of them and the explicit-R fold
    the first ``EXPLICIT_R_MAX_PATHS``; the residual oracle reads the first
    ``RESIDUAL_CHECK_MAX_PATHS`` paths of the ``RESIDUAL_CHECK_STEPS``
    stream, and a coefficient file as many of its own grid's, unless it has
    every bit of the residual's solve and reads that solve's blocks.  The
    terminal-condition, mean-trajectory and explicit-R checks share one
    ``n_steps`` solve; if it blows up, all three fail with its message, and
    the residual and b = 0 oracles do so with theirs.  A divergence ends the
    run once every stream has run, as the earliest check meets it: in the
    mean-trajectory set, the residual paths (and so a table that reads
    them), the W_T fold, the b = 0 paths, then the file's own paths.
    """
    n_pass = min(config.n_paths, PASS_MAX_PATHS)
    n_mean = min(config.n_paths, MEAN_CHECK_MAX_PATHS)
    n_explicit = min(config.n_paths, EXPLICIT_R_MAX_PATHS)
    n_residual = min(config.n_paths, RESIDUAL_CHECK_MAX_PATHS)
    b0_config = dataclasses.replace(config, params=dataclasses.replace(config.params, b=0.0))
    sol = _solve_or_blow_up(config, config.n_steps)
    b0_sol = _solve_or_blow_up(b0_config, config.n_steps)
    residual_sol = _solve_or_blow_up(config, RESIDUAL_CHECK_STEPS)
    seed = config.seed
    parts = {}  # in the order their divergences are raised; a blown-up solve has none
    if isinstance(sol, RiccatiSolution):
        # the explicit-R paths are the mean set's first: it diverges first
        parts["mean"] = _loop_part(sol, seed, n_mean, fold=_MeanFold)
        parts["explicit"] = _loop_part(sol, seed, n_explicit, fold=_ExplicitRFold)
    if isinstance(residual_sol, RiccatiSolution):
        parts["residual"] = _loop_part(residual_sol, seed, n_residual, fold=_ResidualFold)
    W_T = np.empty(n_pass)
    parts["density"] = _fold_part(config, seed, 0.0, W_T)
    if isinstance(b0_sol, RiccatiSolution):
        b0_x_T = np.empty(n_pass)
        parts["b0"] = _loop_part(b0_sol, seed, n_pass, x_T=b0_x_T)

    def bits(s):  # the coefficients byte for byte, so -0.0 is not 0.0
        return s.grid, s.params, s.multipliers, s.p2_drift_mode, s.coeffs.tobytes()
    # a table with every bit of the residual's own solve reads that solve's blocks
    file_part = "residual" if coeff_sol is not None and "residual" in parts and (
        bits(coeff_sol) == bits(residual_sol)) else "file"
    if coeff_sol is not None and file_part == "file":
        parts["file"] = _loop_part(coeff_sol, seed, n_residual, fold=_ResidualFold)
    read = read_blocks(parts)

    if "mean" in parts:
        terminal, mean, explicit = (check_terminal_conditions(sol),
                                    check_mean_trajectory(read["mean"]),
                                    check_explicit_r(sol, read["explicit"]))
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
        # Gamma_T at theta = 1
        check_density_martingale(np.exp(W_T - 0.5 * config.params.T)),
        check_b0_variance(config, b0_x_T)
        if "b0" in parts else _result("b0_variance_oracle", False, str(b0_sol)),
        mean,
        explicit,
    ]
    if coeff_sol is not None:
        results.append(check_terminal_conditions(coeff_sol, "file_terminal_conditions", 1e-12))
        results.append(_residual_result("file_riccati_residual", config, coeff_sol, read[file_part]))
    return results


def run_weak_battery(config: RunConfig) -> List[CheckResult]:
    """Density, measure-change and optimality-condition checks (``weakcheck``).

    In the weak formulation the output is simulated driftless,
    dx = sigma dW, and a constant effort e0 enters through the exponential
    density

        dGamma = Gamma * theta dW,   Gamma(0) = 1,   theta = b e0 / sigma,

    whose terminal value reweights expectations: the mean of a payoff under
    the effort is E[Gamma(T) * payoff].  At constant theta it is exactly

        Gamma_T = exp(theta W_T - theta^2 T / 2),

    formed from the weak paths' x_T = W_T in units of sigma, so the density
    is positive by construction.  It is a martingale, E[Gamma(T)] = 1, and
    E[log Gamma(T)] = -theta^2 T / 2.  The strong formulation steps
    dx = b e0 dt + sigma dW on the next seed's stream, in the same
    ``read_blocks`` call.  Both step in units of sigma (drifts 0 and theta),
    and every line compares and prints in them: sigma enters through theta
    alone.  The agent maximises H(e) = q b e / sigma - (s0 - e)^2 / 2, whose
    first-order condition is the hidden-action condition q = sigma u_e / f_e
    (u_e = e - s0, f_e = b; at b = 0 it has no solution, which raises
    ``DegenerateSensitivityError``), so q b / sigma is the slope u_e: with
    the slope at e0, the grid argmax of H (cell 0.004, on offsets from e0)
    must lie within a cell of e0, and with the slope at e0 + 0.1 it must
    miss e0 by 0.1, within a cell.
    """
    params = config.params
    if params.b == 0.0:
        raise DegenerateSensitivityError(
            "the effort sensitivity f_e = b is zero, so the hidden-action "
            "condition q = sigma u_e / f_e has no solution"
        )
    e0, s0 = config.weak_effort, config.weak_cashflow
    theta = params.b * e0 / params.sigma
    x_T, s_T = np.empty((2, min(config.n_paths, PASS_MAX_PATHS)))
    # a non-finite theta raises before any path is read
    read_blocks({
        "weak": _fold_part(config, config.seed, 0.0, x_T),
        "strong": _fold_part(config, (config.seed + 1) % 2**64, theta, s_T),
    })
    log_vals = theta * x_T - 0.5 * (theta * theta) * params.T
    gamma_T = np.exp(log_vals)
    results = []

    results.append(_result(
        "density_positive", float(gamma_T.min()) > 0.0,
        f"min Gamma_T={gamma_T.min():.3e}",
    ))

    results.append(check_density_martingale(gamma_T, "martingale_mean"))

    log_target = -0.5 * theta * theta * params.T
    # scaled by a power of two, exactly, so that the squared deviations of a
    # tiny theta do not underflow to an SE of 0
    scale = int(np.frexp(np.abs(log_vals).max())[1])
    log_est, log_se = (np.ldexp(v, scale) for v in _mean_and_se(np.ldexp(log_vals, -scale)))
    results.append(_band_result(
        "log_density_mean", log_est - log_target, 3.0 * log_se,
        f"E[log Gamma_T]={log_est:.6e} target={log_target:.6e} band=3se",
    ))

    weak_est, weak_se = _mean_and_se(gamma_T * x_T)
    analytic = theta * params.T
    strong_est, strong_se = _mean_and_se(s_T)

    results.append(_band_result(
        "reweighted_mean_vs_analytic", weak_est - analytic, 3.0 * weak_se,
        f"weak={weak_est:.6e} analytic={analytic:.6e} se={weak_se:.2e} band=3se",
    ))
    band = 3.0 * math.sqrt(weak_se**2 + strong_se**2)
    results.append(_band_result(
        "weak_strong_agreement", weak_est - strong_est, band,
        f"weak={weak_est:.6e} strong={strong_est:.6e} band={band:.2e}",
    ))

    plain = float(x_T.mean())
    ident, _ = _mean_and_se(np.ones(x_T.size) * x_T)
    results.append(_result(
        "unit_weight_identity", ident == plain,
        f"reweighted-with-1 equals plain mean ({plain:.6e})",
    ))

    cell = 0.004

    def argmax_gap(e):  # |grid argmax of H(e0 + d) - H(e0) over d|, with the slope u_e at e
        # (s0 - e0) d - d^2 / 2 is -(s0 - e0 - d)^2 / 2 less its value at d = 0
        return abs(_grid_argmax(lambda d: ((e - s0) + (s0 - e0)) * d - d * d / 2.0, 0.0, 2.0, cell))

    gap = argmax_gap(e0)
    results.append(_result(
        "foc_exact_candidate", gap <= cell, f"argmax_gap={gap:.3e} cell={cell:g}",
    ))
    gap_off = argmax_gap(e0 + 0.1)
    results.append(_result(
        "foc_perturbed_candidate", abs(gap_off - 0.1) <= cell,
        f"argmax_gap={gap_off:.3e} expected=1.000e-01 cell={cell:g}",
    ))
    return results
