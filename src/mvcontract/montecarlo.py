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
fourth central moment.  Neither the coefficients nor the rows depend on
sigma, so the paths are stepped in units of sigma and ``evaluate_contract``
scales its six statistics by sigma^2 once, at the end: the bits of stepping
sigma dW at any power-of-two sigma, with no overflow inside the estimators.

Every reader of the noise is a part (``Part``: a grid, a seed, a path count
and a ``run`` for each block of its paths), and one reader runs them all
(``read_blocks``): a noise stream is a grid and a seed, and the parts on
one stream share it, cut into blocks of ``BLOCK_DRAWS`` draws (16,384 paths
at 64 steps, sized so one block's noise and state stay near the CPU caches), each drawn
directly from the counter-based noise stream into a buffer that its worker
keeps, on the process's thread pool of one worker per CPU it may use.
``simulate_costs`` is one part; the check batteries are several.  Every
per-path value is bit-identical no matter how the path range is split into
blocks or how many workers run them; the final reductions run on the
calling thread in a fixed order.

One kernel steps every block (``_step_block``): (x, R) is one (2, paths)
array, 6 numpy calls per step, and a caller that reads more than x(T)
passes a fold, which reads (x, R) at every node and keeps only per-block
statistics; ``simulate_costs`` folds the costs (``_cost_fold``, 5 calls).
A non-finite element stays non-finite under the step's adds and
multiplies, so the state is screened for divergence once, at the end of
each block (``_raise_first_divergence``); only a block that fails it is
stepped again, without its fold, and searched at every node, so the
reported step and path are those of a per-step search.  The folds of a
diverging block therefore see its non-finite nodes before the raise.

The noise is drawn in parallel and one worker fewer than the pool steps at
once: one on two workers.  Drawing a block is a few long Philox and
``ndtri`` calls, which release the interpreter lock; stepping it is many
short calls, each dispatched under that lock, so two workers that step at
once mostly trade it.  Each worker therefore draws its block with no lock
held and runs the parts on it under a semaphore of the ``read_blocks`` call,
while the others keep drawing.  On two workers one ``check`` steps its
parts in 77 ms of thread CPU (69 ms on one), where two workers stepping at
once took 108 ms, and its wall falls from 156 to 140 ms (2 vCPUs, numpy
2.4.6, scipy 1.17.1; ``BENCH_21.json``).  Stepping is about 32% of the CPU
of ``check`` and 23% of a ``simulate`` point, so a single stepper would
bound the wall beyond about 3 to 4 workers; on more than two workers the
semaphore therefore lets all but one of them step at once.  Nothing above
2 CPUs was measured.  The blocks are queued smallest first, so a stream's
ragged last block is drawn and stepped first, and the workers start out of
phase rather than both waiting on the semaphore behind one first step.

On import, one block-sized array is freed unread.  glibc then raises its
dynamic mmap threshold to a block (mallopt(3)), so the per-call arrays
(costs, x_T, work rows, reductions), each under a block, reuse heap pages;
before, each was mapped and zero-filled afresh, about 1,700 minor faults per
1e5 x 64 ``evaluate_contract`` call, where now a repeated call takes a few.
"""

import math
import os
import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .model import AS_PRINTED, LqParams, terminal_costs
from .multipliers import MultiplierTriple
from .noise import sample_noise_block
from .riccati import DEFAULT_BLOW_UP_BOUND, ClosedLoopField, integrate_riccati
from .errors import NonFiniteEstimateError, SimulationDivergedError
from .timegrid import TimeGrid, make_grid

#: Noise draws per block (16,384 paths at 64 steps, 4,096 at 256: 8 MB), and
#: the size of the noise buffer each worker keeps.
BLOCK_DRAWS = 2**20
_pool = None  # ((pid, CPUs), executor): the process's worker pool, built by _executor
_worker = threading.local()  # each worker's noise buffer, as its attribute ``buffer``
# a block freed unread, before any noise buffer is kept, raises glibc's mmap
# threshold to a block (module docstring); no page of it is touched
np.empty(BLOCK_DRAWS)


@dataclass(frozen=True)
class ContractEvaluation:
    """Monte-Carlo estimates for one (params, multiplier) point."""

    j_a: float
    j_a_se: float
    j_p: float
    j_p_se: float
    var_xt: float
    var_xt_se: float


def check_paths(n_paths: int) -> None:
    """Raise ``ValueError`` unless ``n_paths`` is at least the 2 a standard error needs."""
    if n_paths < 2:
        raise ValueError(f"n_paths must be >= 2 to form standard errors, got {n_paths}")


def _mean_and_se(values: np.ndarray):
    n = values.size
    return float(values.mean()), float(values.std(ddof=1) / np.sqrt(n))


def _variance_and_se(values: np.ndarray):
    n = values.size
    # squared in place twice: numpy's ``**4`` calls pow per element
    squares = values - values.mean()
    squares *= squares
    total = float(squares.sum())
    var, m2 = total / (n - 1), total / n
    squares *= squares
    m4 = float(np.mean(squares))
    se = float(np.sqrt(max(m4 - m2 * m2, 0.0) / n))
    return var, se


def _cpu_count() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _executor():
    """The process's thread pool of ``_cpu_count()`` workers, rebuilt when that count changes
    or in a forked child, which has none of its parent's threads."""
    global _pool
    key = (os.getpid(), _cpu_count())
    if _pool is None or _pool[0] != key:
        from concurrent.futures import ThreadPoolExecutor  # off the import path

        _pool = key, ThreadPoolExecutor(max_workers=key[1])
    return _pool[1]


def _raise_first_divergence(state, restep, label: str = "state") -> None:
    """Raise where ``state`` first went non-finite, if it is non-finite now.

    A non-finite element stays non-finite under a step's adds and
    multiplies, so a block whose final state is finite never diverged, and
    one screen per block finds every divergence.  Only when it fails,
    ``restep()`` steps the same noise again from node 0, yielding each node
    k once ``state`` holds it, and the first node with a non-finite element
    raises a ``SimulationDivergedError`` with its lowest such path (a column
    of a (2, paths) state).
    """
    if np.isfinite(state).all():
        return
    for k in restep():
        bad = ~np.isfinite(state)
        if bad.any():
            raise SimulationDivergedError(path=int(np.atleast_2d(bad).any(axis=0).argmax()),
                                          step=k, label=label)


def _step_block(field, dW, x, fold=None, work=None) -> None:
    """Step one block of paths through every node of the grid.

    ``dW`` holds the block's increments step-major, shape (n_steps, paths),
    as ``NoiseEnsemble.increments.T`` reads them, and the state ends in
    ``x`` (a view of the caller's output array).  If given, ``fold(k, z)``
    is called at every node k, from 0, with the (2, paths) state (x, R)
    there; it must not write to z.  The step holds (x, R) in units of sigma
    as z and reads the x- and R-loadings of both drifts in row k of
    ``field.rows`` as columns:

        z += dt (x (Fxx, GRx) + R (FxR, GRR)),   x += dW,

    in ``out=`` ufuncs on the two (2, paths) arrays of ``work`` (new ones if
    None), which a fold may overwrite: each step writes them before reading.
    That is 6 numpy calls per step, with the element operations of a
    per-row step in the same order, so the same bits.  The state is screened
    for non-finite values once, at the end of the block: if it fails, the
    block is stepped again without the fold and searched at every node
    (``_raise_first_divergence``), which raises a ``SimulationDivergedError``
    at the first non-finite state, with its path index within the block.
    A fold of a diverging block therefore sees its non-finite nodes before
    the raise, and may warn of them.
    """
    z = np.empty((2, x.size))
    work = np.empty((2,) + z.shape) if work is None else work
    for k in _steps(field, dW, z, work):
        if fold is not None:
            fold(k, z)
    _raise_first_divergence(z, lambda: _steps(field, dW, z, work))
    x[...] = z[0]


def _steps(field, dW, z, work):
    """The steps of ``_step_block``: set z to 0 and step it, yielding each node k once z holds it."""
    dt = field.sol.grid.dt
    x_row, R_row = z
    w, w2 = work
    rows = field.rows[:, :, None]
    z[...] = 0.0
    yield 0
    for k, (dW_k, drift_x, drift_R) in enumerate(zip(dW, rows[:, 4::2], rows[:, 5::2]), 1):
        np.multiply(x_row, drift_x, out=w)
        np.multiply(R_row, drift_R, out=w2)
        w += w2
        w *= dt
        z += w
        x_row += dW_k
        yield k


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


class Part(NamedTuple):
    """A reader of the first ``n_paths`` paths of the noise stream of ``seed`` on ``grid``.

    ``run(lo, hi, dW)`` gets the increments of the paths ``[lo, hi)`` of each
    block that lie within them, step-major, shape (n_steps, hi - lo), valid
    only until it returns; it returns the block's value or raises a
    ``SimulationDivergedError`` with a path index within the block.
    """

    grid: TimeGrid
    seed: int
    n_paths: int
    run: Callable


def read_blocks(parts: dict) -> dict:
    """Each part's block values, in block order, over the stream of its grid and seed.

    A stream is a grid and a seed: the parts on one share it over the most
    paths any of them reads, in blocks of ``max(1, BLOCK_DRAWS // n_steps)``
    paths, and each part runs on the head of every block that lies within
    its own paths.
    The blocks of every stream run on the process's pool of one worker per
    CPU it may use (``_executor``), the smallest first, so each stream's
    ragged last block runs ahead of the full ones and the workers start out
    of phase; among blocks of one size, the streams with the fewest blocks
    go first.  Each block is drawn by ``sample_noise_block``, with no lock
    held, into the buffer its worker keeps across calls, grown when a block
    needs more than it holds; the worker then runs the parts on it under a
    semaphore that this call creates, so at most one worker fewer than the
    pool steps at once (one on two workers) while the others draw, and
    under the caller's numpy error state.  A part that diverges does not
    stop the others; once every block has run, the first part in ``parts``
    that diverged raises its ``SimulationDivergedError`` at its earliest
    step, on the lowest such path, so the error depends neither on the
    blocking nor on the other parts.  Any other error is raised once no
    block runs, so no worker writes to the caller's arrays after the call.
    """
    groups = {}
    for name, part in parts.items():
        groups.setdefault((part.grid, part.seed), {})[name] = part
    streams = []
    for (grid, seed), group in groups.items():
        n_paths = max(part.n_paths for part in group.values())
        block_paths = max(1, BLOCK_DRAWS // grid.n_steps)
        streams.append([(grid, seed, group, n_paths, lo, min(lo + block_paths, n_paths))
                        for lo in range(0, n_paths, block_paths)])
    blocks = [block for stream in sorted(streams, key=len) for block in stream]

    def draws(i):
        grid, _, _, _, lo, hi = blocks[i]
        return (hi - lo) * grid.n_steps

    # the smallest (ragged) blocks first, so the workers start out of phase;
    # ``blocks`` keeps each stream's blocks in block order
    queue = sorted(range(len(blocks)), key=draws)
    # numpy's floating-point error state is per thread; carry the caller's
    errstate = np.geterr()

    def task(grid, seed, group, n_paths, lo, hi):
        size = (hi - lo) * grid.n_steps
        if getattr(_worker, "buffer", np.empty(0)).size < size:
            _worker.buffer = np.empty(max(BLOCK_DRAWS, size))
        out = _worker.buffer[:size].reshape(grid.n_steps, hi - lo)
        dW = sample_noise_block(grid, n_paths, seed, lo, hi, out=out).increments.T
        values = {}
        with stepping, np.errstate(**errstate):
            for name, part in group.items():
                m = min(hi, part.n_paths) - lo
                if m <= 0:
                    continue
                try:
                    values[name] = part.run(lo, lo + m, dW[:, :m])
                except SimulationDivergedError as exc:
                    values[name] = SimulationDivergedError(path=lo + exc.path, step=exc.step,
                                                           label=exc.label)
        return values

    # one stepper at a time on two workers; on more, a single stepper would
    # bound the wall at the total stepping time, so all but one may step
    stepping = threading.Semaphore(max(1, min(_cpu_count(), len(queue)) - 1))
    pool = _executor()
    futures = {i: pool.submit(task, *blocks[i]) for i in queue}
    done = [None] * len(blocks)
    try:
        for i, future in futures.items():
            done[i] = future.result()
    finally:
        # after an error, cancel the queued blocks (the last first, so none starts
        # meanwhile) and wait out the running ones, which write to the caller's arrays
        for future in reversed(futures.values()):
            future.cancel() or future.exception()
    read = {name: [] for name in parts}
    for values in done:
        for name, value in values.items():
            read[name].append(value)
    for values in read.values():
        diverged = [v for v in values if isinstance(v, SimulationDivergedError)]
        if diverged:
            raise min(diverged, key=lambda exc: (exc.step, exc.path))
    return read


def simulate_costs(field: ClosedLoopField, n_paths: int, seed: int):
    """Per-path cost integrals (per unit sigma^2) and x_T (per unit sigma) under the closed loop.

    Returns arrays (ja_integral, jp_integral, x_T) of length n_paths.  The
    dynamics are stepped without retaining full trajectories, as one part of
    ``read_blocks``; neither the blocking nor the worker count can change
    any output bit.  A divergence is reported at the earliest step any path
    goes non-finite, on the lowest such path, which is also independent of
    the blocking.
    """
    j = np.zeros((2, n_paths))
    x_T = np.empty(n_paths)

    def run(lo, hi, dW):
        work = np.empty((2, 2, hi - lo))
        _step_block(field, dW, x_T[lo:hi], _cost_fold(field, j[:, lo:hi], work), work)

    read_blocks({"costs": Part(field.sol.grid, seed, n_paths, run)})
    return j[0], j[1], x_T


def evaluate_contract(
    params: LqParams,
    mult: MultiplierTriple,
    n_paths: int,
    n_steps: int,
    seed: int,
    p2_drift_mode: str = AS_PRINTED,
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> ContractEvaluation:
    """Estimate J_A, J_P and Var(x(T)) along the optimal closed loop.

    Fully determined by (params, mult, n_paths, n_steps, seed, mode): the
    same inputs reproduce every estimate bit-exactly.  Raises a
    ``NonFiniteEstimateError`` if an estimate or standard error is not
    finite, so no feasibility verdict is read from it.
    """
    check_paths(n_paths)
    grid = make_grid(params.T, n_steps)
    sol = integrate_riccati(params, mult, grid, p2_drift_mode, blow_up_bound)
    field = ClosedLoopField(sol)
    ja_int, jp_int, x_T = simulate_costs(field, n_paths, seed)

    agent_term, principal_term = terminal_costs(x_T, params.alpha, params.beta)
    per_unit = (*_mean_and_se(ja_int + agent_term), *_mean_and_se(jp_int + principal_term),
                *_variance_and_se(x_T))
    scale = params.sigma * params.sigma  # inf where sigma ** 2 raises OverflowError
    stats = dict(zip(("J_A", "J_A_se", "J_P", "J_P_se", "var_xT", "var_xT_se"),
                     (value * scale for value in per_unit)))
    not_finite = {name: value for name, value in stats.items() if not math.isfinite(value)}
    if not_finite:
        raise NonFiniteEstimateError(not_finite, mult.lam_P, mult.theta)

    return ContractEvaluation(*stats.values())
