"""Monte-Carlo evaluation of contract costs and terminal-output variance.

For a multiplier triple the pipeline is: integrate the backward coefficient
system, assemble the closed-loop field, and run the Euler scheme over
seeded Brownian increments.  The means E[x], E[R] vanish identically, so
the step reads only the state blocks of the coefficients.  Per path,

    J_A-path = sum_k (s_k - e_k)^2 / 2 * dt - alpha x_T^2 / 2,
    J_P-path = sum_k  s_k^2        / 2 * dt - beta  x_T^2 / 2,

with left-endpoint Riemann sums matching the order of the forward scheme.
Estimates are sample means with standard errors; Var(x(T)) uses the
unbiased sample estimator with a delta-method standard error from the
fourth central moment.

Paths are processed in blocks of ``chunk_size`` paths (default
``DEFAULT_CHUNK_SIZE``, sized so one block's noise and state stay near the
CPU caches), drawn directly from the counter-based noise stream and run on
a thread pool with one worker per CPU the process may use.  Every per-path
value is bit-identical no matter how the path range is split into blocks or
how many workers run them; the final reductions run on the calling thread
over fully assembled per-path arrays in a fixed order.

``closed_loop_paths`` runs the same block step over a given noise ensemble
and keeps (x, R) at every node; the checks read their closed-loop paths from
it, so one stepper serves both the Monte-Carlo evaluation and the oracles.
"""

import os
from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from .model import AS_PRINTED, LqParams, cashflow_weights, check_mode, terminal_costs
from .multipliers import MultiplierTriple
from .noise import NoiseEnsemble, sample_noise_block
from .riccati import ClosedLoopField, integrate_riccati
from .errors import SimulationDivergedError
from .sde import PathEnsemble
from .timegrid import make_grid

DEFAULT_CHUNK_SIZE = 16384


@dataclass(frozen=True)
class ContractEvaluation:
    """Monte-Carlo estimates for one (params, multiplier) point."""

    j_a: float
    j_a_se: float
    j_p: float
    j_p_se: float
    var_xt: float
    var_xt_se: float
    j_a_integral: float  # running-cost part of J_A, before the terminal term
    j_p_integral: float
    n_paths: int
    n_steps: int
    seed: int
    multipliers: MultiplierTriple
    params: LqParams
    p2_drift_mode: str


def _mean_and_se(values: np.ndarray):
    n = values.size
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def _variance_and_se(values: np.ndarray):
    n = values.size
    var = float(values.var(ddof=1))
    centered = values - values.mean()
    m2 = float(np.mean(centered**2))
    m4 = float(np.mean(centered**4))
    se = float(np.sqrt(max(m4 - m2 * m2, 0.0) / n))
    return var, se


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _node_scalars(field: ClosedLoopField) -> List[List[float]]:
    """Per-node scalars of the closed-loop step, in the order ``_step_block`` reads them.

    Each row is (A11, B11, A12, B12, A13, B13) at a left-endpoint node.
    """
    n = field.sol.grid.n_steps
    cols = [field.sol.column(name)[:n] for name in ("A11", "B11", "A12", "B12", "A13", "B13")]
    return np.column_stack(cols).tolist()


def _step_block(field, nodes, dW, ja, jp, x, states=None) -> Optional[Tuple[int, int]]:
    """Step one block of paths through every node of the grid.

    ``dW`` holds the block's increments, one row per path.  The running cost
    integrals accumulate into ``ja`` and ``jp`` and the state ends in ``x``
    (views of the caller's output arrays); ``states``, if given, with shape
    (paths, n_points, 2), receives (x, R) at every node.  Every update is an
    ``out=`` ufunc in the operation order of ``ClosedLoopField.controls_at_index``
    and ``drift_terms``, so each output bit matches the reference step.
    Returns None, or (step, path index within the block) of the first
    non-finite state.
    """
    params = field.params
    a, b, dt = params.a, params.b, field.sol.grid.dt
    c1, c2 = cashflow_weights(b, field.sol.p2_drift_mode)
    lam_P = field.sol.multipliers.lam_P
    bb = b * b
    lam_E_bb = field.sol.multipliers.lam_E * b * b
    half_dt = 0.5 * dt
    # one contiguous row of sigma dW per step
    sigma_dW = np.multiply(dW.T, params.sigma, order="C")
    m = x.size
    R = np.zeros(m)
    p, P1, P2, s, e, t = (np.empty(m) for _ in range(6))
    finite = np.empty(m, dtype=bool)
    x[...] = 0.0
    ja[...] = 0.0
    jp[...] = 0.0
    if states is not None:
        states[:, 0] = 0.0
    for k, (A11, B11, A12, B12, A13, B13) in enumerate(nodes):
        for out, A, B in ((p, A11, B11), (P1, A12, B12), (P2, A13, B13)):
            np.multiply(x, A, out=out)
            np.multiply(R, B, out=t)
            out += t
        # s = (c1 P1 + c2 P2) / lambda_P,  e = b p + s
        np.multiply(P1, c1, out=s)
        np.multiply(P2, c2, out=t)
        s += t
        s /= lam_P
        np.multiply(p, b, out=e)
        e += s
        # running costs (s - e)^2 dt / 2 and s^2 dt / 2
        np.subtract(s, e, out=t)
        np.square(t, out=t)
        t *= half_dt
        ja += t
        np.square(s, out=t)
        t *= half_dt
        jp += t
        # fx = a x + b^2 p + b s, into e
        np.multiply(x, a, out=e)
        np.multiply(p, bb, out=t)
        e += t
        np.multiply(s, b, out=t)
        e += t
        # fR = a R - b^2 (P1 + P2) + lambda_E b^2 p, into s
        P1 += P2
        P1 *= bb
        np.multiply(R, a, out=s)
        s -= P1
        np.multiply(p, lam_E_bb, out=t)
        s += t
        e *= dt
        x += e
        x += sigma_dW[k]
        s *= dt
        R += s
        if states is not None:
            states[:, k + 1, 0] = x
            states[:, k + 1, 1] = R
        if not np.isfinite(x, out=finite).all() or not np.isfinite(R, out=finite).all():
            bad = np.argwhere(~(np.isfinite(x) & np.isfinite(R)))[0][0]
            return k + 1, int(bad)
    return None


def simulate_costs(
    field: ClosedLoopField,
    n_paths: int,
    seed: int,
    chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
):
    """Per-path cost integrals and terminal state under the closed loop.

    Returns arrays (ja_integral, jp_integral, x_T) of length n_paths.  The
    dynamics are stepped without retaining full trajectories, in blocks of
    ``chunk_size`` paths run on a thread pool sized from the CPU affinity;
    neither the block size nor the worker count can change any output bit.
    A divergence is reported at the earliest step any path goes non-finite,
    on the lowest such path, which is also independent of the blocking.
    """
    grid = field.sol.grid
    if chunk_size is None:
        chunk_size = n_paths
    ja_int = np.empty(n_paths)
    jp_int = np.empty(n_paths)
    x_T = np.empty(n_paths)
    nodes = _node_scalars(field)
    blocks = [(lo, min(lo + chunk_size, n_paths)) for lo in range(0, n_paths, chunk_size)]
    # numpy's floating-point error state is per thread; carry the caller's
    errstate = np.geterr()

    def run(lo, hi):
        noise = sample_noise_block(grid, n_paths, seed, lo, hi)
        with np.errstate(**errstate):
            bad = _step_block(field, nodes, noise.increments,
                              ja_int[lo:hi], jp_int[lo:hi], x_T[lo:hi])
        return None if bad is None else (bad[0], lo + bad[1])

    workers = min(_cpu_count(), len(blocks))
    if workers == 1:
        results = [run(lo, hi) for lo, hi in blocks]
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(run, lo, hi) for lo, hi in blocks]
            results = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    diverged = [r for r in results if r is not None]
    if diverged:
        step, path = min(diverged)
        raise SimulationDivergedError(path=path, step=step)
    return ja_int, jp_int, x_T


def closed_loop_paths(field: ClosedLoopField, noise: NoiseEnsemble) -> PathEnsemble:
    """Closed-loop (x, R) trajectories driven by the given noise ensemble.

    The paths are stepped inline, as one block, by the kernel behind
    ``simulate_costs``, so x(T) carries the same bits as its ``x_T`` for the
    same increments.  The result keeps ``noise`` for ``ansatz_residual``.

    Raises
    ------
    SimulationDivergedError
        At the earliest step any path goes non-finite, on the lowest such path.
    """
    grid = field.sol.grid
    if noise.grid != grid:
        raise ValueError("noise and closed-loop field live on different grids")
    n = noise.n_paths
    states = np.empty((n, grid.n_points, 2))
    ja, jp, x_T = np.empty((3, n))
    bad = _step_block(field, _node_scalars(field), noise.increments,
                      ja, jp, x_T, states)
    if bad is not None:
        raise SimulationDivergedError(path=bad[1], step=bad[0])
    return PathEnsemble(grid=grid, states=states, labels=("x", "R"), noise=noise)


def evaluate_contract(
    params: LqParams,
    mult: MultiplierTriple,
    n_paths: int,
    n_steps: int,
    seed: int,
    p2_drift_mode: str = AS_PRINTED,
    chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
    blow_up_bound: Optional[float] = None,
) -> ContractEvaluation:
    """Estimate J_A, J_P and Var(x(T)) along the optimal closed loop.

    Fully determined by (params, mult, n_paths, n_steps, seed, mode): the
    same inputs reproduce every estimate bit-exactly.
    """
    check_mode(p2_drift_mode)
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2 to form standard errors")
    grid = make_grid(params.T, n_steps)
    kwargs = {} if blow_up_bound is None else {"blow_up_bound": blow_up_bound}
    sol = integrate_riccati(params, mult, grid, p2_drift_mode, **kwargs)
    field = ClosedLoopField(sol)
    ja_int, jp_int, x_T = simulate_costs(field, n_paths, seed, chunk_size)

    agent_term, principal_term = terminal_costs(x_T, params.alpha, params.beta)
    j_a, j_a_se = _mean_and_se(ja_int + agent_term)
    j_p, j_p_se = _mean_and_se(jp_int + principal_term)
    var_xt, var_xt_se = _variance_and_se(x_T)

    return ContractEvaluation(
        j_a=j_a,
        j_a_se=j_a_se,
        j_p=j_p,
        j_p_se=j_p_se,
        var_xt=var_xt,
        var_xt_se=var_xt_se,
        j_a_integral=float(ja_int.mean()),
        j_p_integral=float(jp_int.mean()),
        n_paths=n_paths,
        n_steps=n_steps,
        seed=seed,
        multipliers=mult,
        params=params,
        p2_drift_mode=p2_drift_mode,
    )
