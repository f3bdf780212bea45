"""Monte-Carlo evaluation of contract costs and terminal-output variance.

For a multiplier triple the pipeline is: solve the backward coefficient
system in closed form (``riccati.integrate_riccati``, which raises at a pole
of the system or above ``blow_up_bound``), build the closed-loop rows
(``ClosedLoopField``: per node, the loadings of the controls and drifts on
(x, R)), and run the Euler scheme over seeded Brownian increments.  Per
path,

    J_A-path = sum_k (s_k - e_k)^2 / 2 * dt - alpha x_T^2 / 2,
    J_P-path = sum_k  s_k^2        / 2 * dt - beta  x_T^2 / 2,

with left-endpoint Riemann sums matching the order of the forward scheme.
Estimates are sample means with standard errors; Var(x(T)) uses the
unbiased sample estimator with a delta-method standard error from the
fourth central moment.

Paths are processed in blocks of ``chunk_size`` paths (default
``DEFAULT_CHUNK_SIZE``, sized so one block's noise and state stay near the
CPU caches), drawn directly from the counter-based noise stream into a
buffer that each worker keeps, on a thread pool with one worker per CPU
the process may use (``map_noise_blocks``, which also runs the check
batteries).  Every per-path value is bit-identical no matter how the path
range is split into blocks or how many workers run them; the final
reductions run on the calling thread in a fixed order.

One kernel steps every block (``_step_block``): (x, R) is one (2, paths)
array, 8 numpy calls per step, and a caller that reads more than x(T)
passes a fold, which reads (x, R) at every node and keeps only per-block
statistics; ``simulate_costs`` folds the costs (``_cost_fold``, 5 calls).
Few wide calls let two workers step in parallel, as each call dispatches
under the interpreter lock: eight 16384 x 64 blocks step with their costs
in about 54 ms on one thread and 35 ms on two, where 24 calls per step on
one-dimensional rows took 54 and 56 ms (2 vCPUs, numpy 2.4.6).
"""

import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from .model import AS_PRINTED, LqParams, check_mode, terminal_costs
from .multipliers import MultiplierTriple
from .noise import sample_noise_block
from .riccati import DEFAULT_BLOW_UP_BOUND, ClosedLoopField, integrate_riccati
from .errors import SimulationDivergedError
from .timegrid import make_grid

DEFAULT_CHUNK_SIZE = 16384

#: Draws in one default block (16384 x 64): the size of a kept noise buffer.
_BUFFER_FLOATS = 2**20
_buffers: list = []  # free noise buffers, shared unlocked: list.pop and append are atomic


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
    # squared in place twice: numpy's ``**4`` calls pow per element
    squares = values - values.mean()
    squares *= squares
    m2 = float(np.mean(squares))
    squares *= squares
    m4 = float(np.mean(squares))
    se = float(np.sqrt(max(m4 - m2 * m2, 0.0) / n))
    return var, se


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _step_block(field, dW, x, fold=None, work=None) -> Optional[Tuple[int, int]]:
    """Step one block of paths through every node of the grid.

    ``dW`` holds the block's increments step-major, shape (n_steps, paths),
    as ``NoiseEnsemble.increments.T`` reads them, and the state ends in
    ``x`` (a view of the caller's output array).  If given, ``fold(k, z)``
    is called at every node k, from 0, with the (2, paths) state (x, R)
    there; it must not write to z.  The step holds (x, R) as z and reads the
    x- and R-loadings of both drifts in row k of ``field.rows`` as columns:

        z += dt (x (Fxx, GRx) + R (FxR, GRR)),   x += sigma dW,

    in ``out=`` ufuncs on the two (2, paths) arrays of ``work`` (new ones if
    None), which a fold may overwrite: each step writes them before reading.
    That is 8 numpy calls per step, with the element operations of a
    per-row step in the same order, so the same bits.  Returns None, or
    (step, path index within the block) of the first non-finite state, before
    the fold sees that node: a step whose state sum is finite has no
    non-finite element, so only a non-finite sum is searched.
    """
    dt = field.sol.grid.dt
    sigma = field.sol.params.sigma
    z = np.zeros((2, x.size))
    x_row, R_row = z
    w, w2 = np.empty((2,) + z.shape) if work is None else work
    sigma_dW = w2[0]
    rows = field.rows[:, :, None]
    if fold is not None:
        fold(0, z)
    for k, (dW_k, drift_x, drift_R) in enumerate(zip(dW, rows[:, 4::2], rows[:, 5::2]), 1):
        np.multiply(x_row, drift_x, out=w)
        np.multiply(R_row, drift_R, out=w2)
        w += w2
        w *= dt
        z += w
        np.multiply(dW_k, sigma, out=sigma_dW)
        x_row += sigma_dW
        if not math.isfinite(z.sum()):
            bad = ~np.isfinite(z)
            if bad.any():
                return k, int(bad.any(axis=0).argmax())
        if fold is not None:
            fold(k, z)
    x[...] = x_row
    return None


def _cost_fold(field, j, work):
    """The fold of the running costs into ``j``, a zeroed (2, paths) array (ja, jp).

    At each node k < n_steps, with the cost loadings of row k of
    ``field.rows``, ``j += (x (bpx, sx) + R (bpR, sR))^2``, that is ja +=
    (sqrt(dt/2) b p)^2 and jp += (sqrt(dt/2) s)^2, in 5 ``out=`` ufuncs on
    the two (2, paths) arrays of ``work``, which it may share with the step.
    """
    rows = field.rows[:, :4, None]
    loads = list(zip(rows[:, 0::2], rows[:, 1::2]))
    t, u = work

    def fold(k, z):
        if k < len(loads):
            load_x, load_R = loads[k]
            np.multiply(z[0], load_x, out=t)
            np.multiply(z[1], load_R, out=u)
            np.add(t, u, out=t)
            np.square(t, out=t)
            np.add(j, t, out=j)

    return fold


def map_noise_blocks(seed: int, streams) -> list:
    """Run every block of several noise streams of one seed on one thread pool.

    Each stream is ``(grid, n_paths, block_paths, run)``: ``[0, n_paths)``
    is split into blocks of ``block_paths`` paths, and ``run(lo, hi, noise)``
    gets each block's increments from ``sample_noise_block`` under the
    caller's numpy error state.  The blocks of all streams run on one pool
    of one worker per CPU the process may use (inline for one), so no worker
    idles at the end of one stream while another has blocks left; the
    streams with the fewest blocks go first.  A worker draws each block of at
    most ``_BUFFER_FLOATS`` draws into one buffer that it reuses and keeps,
    so ``noise`` is valid only until ``run`` returns; a larger block gets a
    buffer of its own.  Returns, per stream, its results in block order.  A
    ``SimulationDivergedError`` from ``run``, with a path index within its
    block, is re-raised once every block has run, for the first stream in
    ``streams`` that diverged, at its earliest step and on the lowest such
    path, so it depends neither on the blocking nor on the other streams.
    """
    blocks = []
    for i, (_, n_paths, block_paths, _) in enumerate(streams):
        if block_paths < 1:
            raise ValueError(f"chunk_size (paths per block) must be >= 1, got {block_paths}")
        blocks.append([(i, lo, min(lo + block_paths, n_paths))
                       for lo in range(0, n_paths, block_paths)])
    queue = [block for stream in sorted(blocks, key=len) for block in stream]
    # numpy's floating-point error state is per thread; carry the caller's
    errstate = np.geterr()

    def task(i, lo, hi):
        grid, n_paths, _, run = streams[i]
        size = (hi - lo) * grid.n_steps
        buffer = None
        if size <= _BUFFER_FLOATS:
            try:
                buffer = _buffers.pop()
            except IndexError:
                buffer = np.empty(_BUFFER_FLOATS)
        try:
            out = None if buffer is None else buffer[:size].reshape(grid.n_steps, hi - lo)
            noise = sample_noise_block(grid, n_paths, seed, lo, hi, out=out)
            with np.errstate(**errstate):
                return run(lo, hi, noise)
        except SimulationDivergedError as exc:
            return SimulationDivergedError(path=lo + exc.path, step=exc.step, label=exc.label)
        finally:
            if buffer is not None:
                _buffers.append(buffer)

    workers = min(_cpu_count(), len(queue))
    del _buffers[max(workers, 1):]
    if workers <= 1:
        done = [task(*block) for block in queue]
    else:
        from concurrent.futures import ThreadPoolExecutor

        pool = ThreadPoolExecutor(max_workers=workers)
        try:
            futures = [pool.submit(task, *block) for block in queue]
            done = [future.result() for future in futures]
        finally:
            pool.shutdown(cancel_futures=True)
    # each stream's blocks sit in the queue in block order
    results = [[] for _ in streams]
    for (i, _, _), result in zip(queue, done):
        results[i].append(result)
    for stream in results:
        diverged = _earliest(stream)
        if diverged is not None:
            raise diverged
    return results


def _earliest(results) -> Optional[SimulationDivergedError]:
    """The earliest ``SimulationDivergedError`` among ``results``, by step and then path, or None."""
    diverged = [r for r in results if isinstance(r, SimulationDivergedError)]
    return min(diverged, key=lambda exc: (exc.step, exc.path), default=None)


def simulate_costs(
    field: ClosedLoopField,
    n_paths: int,
    seed: int,
    chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
):
    """Per-path cost integrals and terminal state under the closed loop.

    Returns arrays (ja_integral, jp_integral, x_T) of length n_paths.  The
    dynamics are stepped without retaining full trajectories, in blocks of
    ``chunk_size`` paths run by ``map_noise_blocks``; neither the block size
    nor the worker count can change any output bit.  A divergence is
    reported at the earliest step any path goes non-finite, on the lowest
    such path, which is also independent of the blocking.
    """
    if chunk_size is None:
        chunk_size = n_paths
    j = np.zeros((2, n_paths))
    x_T = np.empty(n_paths)

    def run(lo, hi, noise):
        work = np.empty((2, 2, hi - lo))
        fold = _cost_fold(field, j[:, lo:hi], work)
        bad = _step_block(field, noise.increments.T, x_T[lo:hi], fold, work)
        if bad is not None:
            raise SimulationDivergedError(path=bad[1], step=bad[0])

    map_noise_blocks(seed, [(field.sol.grid, n_paths, chunk_size, run)])
    return j[0], j[1], x_T


def evaluate_contract(
    params: LqParams,
    mult: MultiplierTriple,
    n_paths: int,
    n_steps: int,
    seed: int,
    p2_drift_mode: str = AS_PRINTED,
    chunk_size: Optional[int] = DEFAULT_CHUNK_SIZE,
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> ContractEvaluation:
    """Estimate J_A, J_P and Var(x(T)) along the optimal closed loop.

    Fully determined by (params, mult, n_paths, n_steps, seed, mode): the
    same inputs reproduce every estimate bit-exactly.
    """
    check_mode(p2_drift_mode)
    if n_paths < 2:
        raise ValueError("n_paths must be >= 2 to form standard errors")
    grid = make_grid(params.T, n_steps)
    sol = integrate_riccati(params, mult, grid, p2_drift_mode, blow_up_bound)
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
