import dataclasses
import math
import multiprocessing
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest

from mvcontract import (
    AS_PRINTED,
    COEFF_NAMES,
    ETA_EQUALS_X,
    ClosedLoopField,
    DegenerateMultiplierError,
    NoiseEnsemble,
    RiccatiBlowUpError,
    RiccatiSolution,
    SimulationDivergedError,
    evaluate_contract,
    from_case,
    integrate_riccati,
    make_grid,
    sample_noise_block,
)
from mvcontract import checks, montecarlo
from mvcontract.config import RunConfig
from mvcontract.montecarlo import simulate_costs
from reference_schemes import closed_loop_paths, sample_noise, scaled_noise_block, step_costs


def test_b0_variance_matches_closed_form(ref_params, corner_triple):
    params = dataclasses.replace(ref_params, b=0.0)
    n = 50_000
    ev = evaluate_contract(params, corner_triple, n, 64, seed=5,
                           p2_drift_mode=ETA_EQUALS_X)
    a, sigma, T = params.a, params.sigma, params.T
    target = sigma**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    assert abs(ev.var_xt - target) <= 3 * ev.var_xt_se
    # effort equals cash-flow when the effort gain vanishes: no path has an
    # agent running cost
    sol = integrate_riccati(params, corner_triple, make_grid(T, 64), ETA_EQUALS_X)
    ja, _, _ = simulate_costs(ClosedLoopField(sol), n, 5)
    assert np.all(ja == 0.0)


def test_reproducibility_bitwise(ref_params, corner_triple):
    kwargs = dict(n_paths=5_000, n_steps=32, seed=11, p2_drift_mode=ETA_EQUALS_X)
    a = evaluate_contract(ref_params, corner_triple, **kwargs)
    b = evaluate_contract(ref_params, corner_triple, **kwargs)
    assert a == b


def _simulate_in_blocks(monkeypatch, block_paths, field, n_paths, seed):
    """``simulate_costs`` in blocks of ``block_paths`` paths, or in one block for None."""
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS",
                        (block_paths or n_paths) * field.sol.grid.n_steps)
    return simulate_costs(field, n_paths, seed)


@pytest.mark.parametrize("sigma", [1.0, 0.7])
def test_statistics_scale_exactly_with_sigma_squared(ref_params, corner_triple, sigma):
    # neither the coefficients nor the rows depend on sigma, and the paths are
    # stepped in units of it: at 2^k sigma each of the six statistics is 4^k
    # times the one at sigma, bit for bit.  At 2^500, J_A is about -9e298,
    # and stepping sigma dW overflowed the squares inside std
    def evaluate(s):
        return dataclasses.astuple(evaluate_contract(
            dataclasses.replace(ref_params, sigma=s), corner_triple, 2_000, 16, seed=5,
            p2_drift_mode=ETA_EQUALS_X))

    base = evaluate(sigma)
    for k in (1, 5, 40, 200, 500):
        assert evaluate(math.ldexp(sigma, k)) == tuple(math.ldexp(v, 2 * k) for v in base)


def test_chunking_never_changes_results(ref_params, corner_triple, monkeypatch):
    # the default blocks hold 32,768 32-step paths: 5,000 are one block
    evals = []
    for block_paths in (None, 5_000, 1_000, 777, 1):
        if block_paths is not None:
            monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", block_paths * 32)
        evals.append(evaluate_contract(ref_params, corner_triple, 5_000, 32, seed=13,
                                       p2_drift_mode=ETA_EQUALS_X))
    assert all(e == evals[0] for e in evals[1:])


def test_simulate_costs_holds_one_noise_block(monkeypatch, ref_params, corner_triple):
    # a block's noise is drawn once, step-major, and read in place: with one
    # worker and no kept buffer the traced peak is one 16384 x 64 increments
    # block and the three per-path outputs, plus 10% for tiles and work rows
    # (the stepper's three (2, paths) arrays, two of which the cost fold
    # shares).  Raw words, float draws and a step-major copy per block peaked
    # at 19.7 MB.  The first call runs on a new worker, which draws a new
    # buffer; it keeps it, so a second call draws no new block: its peak is
    # the outputs and the work rows
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 1)
    n_paths, n_steps = 100_000, 64
    sol = integrate_riccati(ref_params, corner_triple, make_grid(ref_params.T, n_steps),
                            ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    simulate_costs(field, 1_000, 1)  # scipy is imported outside the trace
    monkeypatch.setattr(montecarlo, "_pool", None)
    peaks = []
    for _ in range(2):
        tracemalloc.start()
        try:
            simulate_costs(field, n_paths, 1)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    block_paths = montecarlo.BLOCK_DRAWS // n_steps
    block_bytes = block_paths * n_steps * 8
    assert block_paths == 16_384 and block_bytes == montecarlo.BLOCK_DRAWS * 8
    assert block_bytes < peaks[0] <= 1.1 * (block_bytes + 3 * n_paths * 8)
    assert peaks[1] <= 1.1 * (3 * n_paths * 8 + 3 * 2 * block_paths * 8)


@pytest.mark.parametrize("cpus", [1, 2])
def test_simulate_costs_matches_per_row_reference(ref_params, corner_triple, monkeypatch, cpus):
    # the stacked step with its cost fold, in ragged 777-path blocks, carries
    # the bits of the per-row reference stepped over the whole ensemble, and
    # a diverging field stops both at the same (step, path)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    n_paths, seed = 3_000, 19
    grid = make_grid(ref_params.T, 32)
    field = ClosedLoopField(integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X))
    ja, jp, x_T = (np.empty(n_paths) for _ in range(3))
    assert step_costs(field, sample_noise(grid, n_paths, seed).increments.T, x_T, ja, jp) is None
    got = _simulate_in_blocks(monkeypatch, 777, field, n_paths, seed)
    assert all(np.array_equal(g, w) for g, w in zip(got, (ja, jp, x_T)))

    spiked, n_spiked, seed, target = _spiked_field(ref_params, corner_triple)
    out = [np.empty(n_spiked) for _ in range(3)]
    with np.errstate(all="ignore"):
        expected = step_costs(
            spiked, sample_noise(spiked.sol.grid, n_spiked, seed).increments.T, *out)
        with pytest.raises(SimulationDivergedError) as excinfo:
            _simulate_in_blocks(monkeypatch, 777, spiked, n_spiked, seed)
    assert expected == (2, target)
    assert (excinfo.value.step, excinfo.value.path) == expected


@pytest.mark.parametrize("cpus", [1, 2])
def test_reused_noise_buffers_carry_fresh_draws(monkeypatch, cpus):
    # one call over a 64-step and a 256-step stream: 40,000 64-step paths
    # are two 16,384-path blocks, which fill a buffer, and a ragged 7,232;
    # 5,000 256-step paths are 4,096 and a ragged 904.  Each worker draws
    # blocks of both shapes into the one buffer it keeps, and every run must
    # see the bytes of a fresh draw of its block
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    seed, buffers = 5, set()

    def part(n_steps, n_paths):
        grid = make_grid(0.03, n_steps)

        def run(lo, hi, dW):
            buffers.add(dW.__array_interface__["data"][0])
            fresh = sample_noise_block(grid, n_paths, seed, lo, hi)
            return dW.tobytes() == fresh.increments.T.tobytes()

        return montecarlo.Part(grid, seed, n_paths, run)

    results = montecarlo.read_blocks({"64": part(64, 40_000), "256": part(256, 5_000)})
    assert results == {"64": [True] * 3, "256": [True] * 2}
    assert len(buffers) <= cpus


@pytest.mark.parametrize("cpus", [1, 2])
def test_raising_run_returns_its_buffer(monkeypatch, cpus):
    # the worker whose run raised keeps its buffer: the next call's runs,
    # which pause so that every worker takes a block, see it among at most
    # one buffer per worker
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    seen = {}

    def run(lo, hi, dW):
        seen[lo] = dW.__array_interface__["data"][0]
        if lo == 1_000:
            raise RuntimeError("run failed")

    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 1_000 * 16)
    grid = make_grid(0.03, 16)
    with pytest.raises(RuntimeError, match="run failed"):
        montecarlo.read_blocks({"run": montecarlo.Part(grid, 3, 3_000, run)})
    raised, kept = seen[1_000], set()

    def pause(lo, hi, dW):
        kept.add(dW.__array_interface__["data"][0])
        time.sleep(2e-3)

    montecarlo.read_blocks({"pause": montecarlo.Part(grid, 3, 20_000, pause)})
    assert raised in kept and len(kept) <= cpus


@pytest.mark.parametrize("cpus", [1, 2])
def test_an_error_is_raised_once_no_block_runs(monkeypatch, cpus):
    # a run that raises cancels the queue of 100 blocks: the error comes once
    # the blocks that the workers had started have ended, and no block
    # starts after it, so no worker writes to the caller's arrays
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 100 * 16)
    guard, running, started = threading.Lock(), [0], []

    def run(lo, hi, dW):
        with guard:
            running[0] += 1
            started.append(lo)
        try:
            time.sleep(5e-3)
            if lo == 300:
                raise RuntimeError("run failed")
        finally:
            with guard:
                running[0] -= 1

    with pytest.raises(RuntimeError, match="run failed"):
        montecarlo.read_blocks({"run": montecarlo.Part(make_grid(0.03, 16), 3, 10_000, run)})
    assert running[0] == 0
    ran = len(started)
    time.sleep(0.05)
    assert len(started) == ran < 100


@pytest.mark.parametrize("cpus", [1, 2])
def test_paths_longer_than_a_block_run_one_per_block(ref_params, corner_triple, monkeypatch,
                                                      cpus):
    # with fewer draws per block than a path has steps, each block is one
    # path, drawn into the buffer its worker keeps: at most one per worker
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 20)
    n_paths, seed = 300, 7
    grid = make_grid(ref_params.T, 32)
    field = ClosedLoopField(integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X))
    draws, buffers = [], set()
    draw = montecarlo.sample_noise_block

    def spy(*args, out):
        draws.append(args[4] - args[3])
        buffers.add(out.__array_interface__["data"][0])
        return draw(*args, out=out)

    monkeypatch.setattr(montecarlo, "sample_noise_block", spy)
    got = simulate_costs(field, n_paths, seed)
    assert draws == [1] * n_paths
    ja, jp, x_T = (np.empty(n_paths) for _ in range(3))
    assert step_costs(field, sample_noise(grid, n_paths, seed).increments.T, x_T, ja, jp) is None
    assert all(np.array_equal(g, w) for g, w in zip(got, (ja, jp, x_T)))
    assert 1 <= len(buffers) <= cpus


def test_blocks_run_on_the_process_pool_of_its_cpu_count(monkeypatch):
    # every block runs on a worker of the process's pool, never on the
    # calling thread, even at one CPU; a second call runs on the workers of
    # the first, and a changed CPU count on new ones.  Workers are told
    # apart by thread name, since thread idents are reused.  Each run pauses
    # so that every worker of a new pool takes a block of its first call
    monkeypatch.setattr(montecarlo, "_pool", None)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 100 * 16)
    grid = make_grid(0.03, 16)

    def workers(cpus):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
        names = set()

        def run(lo, hi, dW):
            names.add(threading.current_thread().name)
            time.sleep(2e-3)

        montecarlo.read_blocks({"names": montecarlo.Part(grid, 3, 2_000, run)})
        return names

    caller = threading.current_thread().name
    one = workers(1)
    assert len(one) == 1 and caller not in one
    assert workers(1) == one
    two = workers(2)
    assert len(two) == 2 and caller not in two and not two & one
    assert workers(2) <= two
    assert not workers(1) & (one | two)


@pytest.mark.skipif("fork" not in multiprocessing.get_all_start_methods(),
                    reason="needs the fork start method")
def test_forked_child_runs_on_a_pool_of_its_own(ref_params, corner_triple, monkeypatch):
    # a forked child inherits the parent's pool but none of its threads, so
    # a pool kept by CPU count alone would take the child's blocks and never
    # run them
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 2)

    def evaluate():
        return evaluate_contract(ref_params, corner_triple, 3_000, 16, seed=23,
                                 p2_drift_mode=ETA_EQUALS_X)

    parent = evaluate()
    child = multiprocessing.get_context("fork").Process(
        target=lambda: sys.exit(0 if evaluate() == parent else 1))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_agent_integral_identity(ref_params, corner_triple, raw_closed_loop, row_closed_loop,
                                 monkeypatch):
    # along the optimal pair, s - e = -b p, so the agent's running cost is
    # b^2 p^2 / 2 pathwise; recompute it that way from the raw coefficients
    # and the same noise.  The field's rows must reproduce the raw-coefficient
    # controls and drifts, and the reference loop, stepped on the rows, pins
    # the one stepper: the recorded reference paths and simulate_costs must
    # reproduce its (x, R) at every node and its cost integrals bit for bit.
    n_paths, n_steps, seed = 2_000, 32, 17
    grid = make_grid(ref_params.T, n_steps)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    ja_int, jp_int, x_T = _simulate_in_blocks(monkeypatch, None, field, n_paths, seed)
    noise = sample_noise(grid, n_paths, seed)
    paths = closed_loop_paths(field, noise)

    dW = noise.increments
    x = np.zeros(n_paths)
    R = np.zeros(n_paths)
    ja_alt = np.zeros(n_paths)
    ja_row = np.zeros(n_paths)
    jp_row = np.zeros(n_paths)
    b, dt = ref_params.b, grid.dt
    h = math.sqrt(0.5 * dt)
    for k in range(n_steps):
        assert np.array_equal(paths.component("x")[:, k], x)
        assert np.array_equal(paths.component("R")[:, k], R)
        p, P1, P2, s, fx, fR = raw_closed_loop(sol, k, x, R)
        e = b * p + s
        ja_alt += (b * p) ** 2 * (0.5 * dt)
        np.testing.assert_allclose((s - e) ** 2 * (0.5 * dt), (b * p) ** 2 * (0.5 * dt),
                                   rtol=1e-8, atol=1e-18)
        bp_row, s_row, fx_row, fR_row = row_closed_loop(field, k, x, R)
        for row, spec in ((bp_row, h * b * p), (s_row, h * s), (fx_row, fx), (fR_row, fR)):
            np.testing.assert_allclose(row, spec, rtol=1e-12, atol=0)
        ja_row += bp_row ** 2
        jp_row += s_row ** 2
        x = x + fx_row * dt + ref_params.sigma * dW[:, k]
        R = R + fR_row * dt
    assert np.array_equal(paths.component("x")[:, -1], x)
    assert np.array_equal(paths.component("R")[:, -1], R)
    assert paths.labels == ("x", "R") and paths.noise is noise
    np.testing.assert_allclose(ja_int, ja_alt, rtol=1e-8, atol=1e-18)
    assert np.array_equal(ja_int, ja_row) and np.array_equal(jp_int, jp_row)
    assert np.array_equal(x, x_T)
    chunked = _simulate_in_blocks(monkeypatch, 777, field, n_paths, seed)
    assert all(np.array_equal(got, want) for got, want in zip(chunked, (ja_row, jp_row, x)))
    with pytest.raises(ValueError):
        closed_loop_paths(field, sample_noise(make_grid(ref_params.T, 16), 10, seed))


def test_variance_estimator_matches_two_pass(ref_params, corner_triple):
    n_paths, n_steps, seed = 3_000, 32, 19
    ev = evaluate_contract(ref_params, corner_triple, n_paths, n_steps, seed,
                           p2_drift_mode=ETA_EQUALS_X)
    grid = make_grid(ref_params.T, n_steps)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    _, _, x_T = simulate_costs(field, n_paths, seed)
    assert ev.var_xt == np.var(x_T, ddof=1)
    assert ev.var_xt >= 0.0


def test_cost_parts_nonnegative_and_terminal_negative(ref_params, corner_triple):
    ev = evaluate_contract(ref_params, corner_triple, 2_000, 32, seed=23,
                           p2_drift_mode=ETA_EQUALS_X)
    sol = integrate_riccati(ref_params, corner_triple, make_grid(ref_params.T, 32), ETA_EQUALS_X)
    ja, jp, _ = simulate_costs(ClosedLoopField(sol), 2_000, 23)
    # every path's running costs are sums of squares; the terminal terms
    # -alpha x_T^2 / 2 and -beta x_T^2 / 2 only lower them
    assert np.all(ja >= 0.0) and np.all(jp >= 0.0)
    assert ev.j_a <= ja.mean()
    assert ev.j_p <= jp.mean()


def test_standard_errors_scale_with_paths(ref_params, corner_triple):
    ses = [
        evaluate_contract(ref_params, corner_triple, n, 32, seed=29,
                          p2_drift_mode=ETA_EQUALS_X).j_p_se
        for n in (4_000, 8_000, 16_000)
    ]
    for coarse, fine in zip(ses, ses[1:]):
        assert 1.2 <= coarse / fine <= 1.7


def test_step_bias_plateau(ref_params):
    # change in J_P from one step doubling stays below two combined standard
    # errors at 1e5 paths: from 64 steps at a moderate multiplier, from 128
    # at the stiff corner point (calibrated once, then frozen)
    corner = from_case("iv", 0.1, math.pi / 2)
    interior = from_case("iv", 0.5, math.pi / 2)
    for mult, pair in ((interior, (64, 128)), (corner, (128, 256))):
        evs = [
            evaluate_contract(ref_params, mult, 100_000, n, seed=43,
                              p2_drift_mode=ETA_EQUALS_X)
            for n in pair
        ]
        diff = abs(evs[1].j_p - evs[0].j_p)
        combined = math.hypot(evs[0].j_p_se, evs[1].j_p_se)
        assert diff <= 2.0 * combined


def test_multiplier_floor_enforced(ref_params):
    tiny = from_case("ii", 0.0)
    with pytest.raises(DegenerateMultiplierError):
        evaluate_contract(ref_params, tiny, 100, 16, seed=1)


def test_path_count_validated(ref_params, corner_triple):
    with pytest.raises(ValueError):
        evaluate_contract(ref_params, corner_triple, 1, 16, seed=1)


def test_blow_up_propagates(ref_params, corner_triple):
    with pytest.raises(RiccatiBlowUpError), np.errstate(all="ignore"):
        evaluate_contract(ref_params, corner_triple, 100, 64, seed=1,
                          p2_drift_mode=AS_PRINTED)


def test_prefix_paths_are_nested(ref_params, corner_triple):
    # counter-based draws: the first N paths of a 2N-path run are the N-path
    # run, for the cost integrals and for the recorded closed-loop paths
    grid = make_grid(ref_params.T, 16)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    small = simulate_costs(field, 500, seed=37)
    large = simulate_costs(field, 1_000, seed=37)
    for s_arr, l_arr in zip(small, large):
        assert np.array_equal(s_arr, l_arr[:500])
    small = closed_loop_paths(field, sample_noise(grid, 500, seed=37))
    large = closed_loop_paths(field, sample_noise(grid, 1_000, seed=37))
    assert np.array_equal(small.states, large.states[:500])


def _spiked_field(ref_params, corner_triple):
    """A field whose A11 spike at node 1 overflows one path at step 2.

    Hand-built coefficients on 8 steps: the spike overflows only the path
    with the largest first increment of 3,000 on seed 3, one at node 4
    every path.  Returns (field, n_paths, seed, that path).  The paths are
    stepped in units of sigma, and T = 8 makes dt = 1, so the largest
    increments exceed 1 and the spike that overflows one path is finite.
    """
    params = dataclasses.replace(ref_params, T=8.0)
    n_paths, seed = 3_000, 3
    grid = make_grid(params.T, 8)
    x1 = sample_noise(grid, n_paths, seed).increments[:, 0]
    order = np.argsort(np.abs(x1))
    first, second = np.abs(x1[order[-1]]), np.abs(x1[order[-2]])
    coeffs = np.zeros((grid.n_points, 12))
    a11 = COEFF_NAMES.index("A11")
    coeffs[1, a11] = np.finfo(float).max / np.sqrt(first * second)
    coeffs[4, a11] = np.finfo(float).max
    sol = RiccatiSolution(grid, params, corner_triple, coeffs, ETA_EQUALS_X)
    return ClosedLoopField(sol), n_paths, seed, int(order[-1])


def test_divergence_reported_independent_of_chunking(ref_params, corner_triple, monkeypatch):
    # each chunking, the recorded reference paths and the check battery's
    # file residual, streamed in 777-path blocks, must report the spiked
    # path at step 2, even when the lowest chunk diverges only later
    field, n_paths, seed, target = _spiked_field(ref_params, corner_triple)
    sol, grid = field.sol, field.sol.grid
    assert target >= 1_000
    runs = [lambda block=block: _simulate_in_blocks(monkeypatch, block, field, n_paths, seed)
            for block in (None, 1_000, 777)]
    runs.append(lambda: closed_loop_paths(field, sample_noise(grid, n_paths, seed)))
    config = dataclasses.replace(RunConfig(), n_paths=n_paths, seed=seed)

    def battery():
        monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 777 * grid.n_steps)
        return checks.run_check_battery(config, sol)

    runs.append(battery)
    for run in runs:
        with pytest.raises(SimulationDivergedError) as excinfo, np.errstate(all="ignore"):
            run()
        assert (excinfo.value.path, excinfo.value.step) == (target, 2)


def _x_T_part(field, n_paths, seed):
    """A ``read_blocks`` part that writes x_T and the cost integrals of ``field``.

    It reads the seed's stream.  Returns (part, (ja, jp, x_T)); each
    block's value is a copy of its x_T.
    """
    j, x_T = np.zeros((2, n_paths)), np.empty(n_paths)

    def run(lo, hi, dW):
        work = np.empty((2, 2, hi - lo))
        fold = montecarlo._cost_fold(field, j[:, lo:hi], work)
        montecarlo._step_block(field, dW, x_T[lo:hi], fold, work)
        return x_T[lo:hi].copy()

    return montecarlo.Part(field.sol.grid, seed, n_paths, run), (j[0], j[1], x_T)


@pytest.mark.parametrize("cpus", [1, 8])
def test_streams_on_one_pool_match_their_own_calls(ref_params, corner_triple, monkeypatch, cpus):
    # two streams on different grids share one pool, the ragged blocks
    # first, then the one with fewer blocks: in blocks of 97 x 16 draws, 3,000 16-step paths are 31
    # blocks of 97 and 2,000 8-step paths 11 blocks of 194.  Each must carry
    # the bits of a call of its own, and a divergence in either must be
    # reported where that stream alone meets it, whichever part comes first
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 97 * 16)
    field16 = ClosedLoopField(integrate_riccati(ref_params, corner_triple,
                                                make_grid(ref_params.T, 16), ETA_EQUALS_X))
    field8 = ClosedLoopField(integrate_riccati(ref_params, from_case("iv", 0.3, 1.0),
                                               make_grid(ref_params.T, 8), ETA_EQUALS_X))
    spiked, n_spiked, seed, target = _spiked_field(ref_params, corner_triple)
    assert spiked.sol.grid != field16.sol.grid
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6 if cpus > 1 else interval)
    try:
        specs = {"16": (field16, 3_000), "8": (field8, 2_000)}
        alone = {name: _x_T_part(*spec, seed) for name, spec in specs.items()}
        own = {name: montecarlo.read_blocks({name: part})[name]
               for name, (part, _) in alone.items()}
        shared = {name: _x_T_part(*spec, seed) for name, spec in specs.items()}
        together = montecarlo.read_blocks({name: part for name, (part, _) in shared.items()})
        assert [len(together[name]) for name in specs] == [31, 11]
        for name in specs:
            (_, want), (_, got), want_blocks, got_blocks = (
                alone[name], shared[name], own[name], together[name])
            assert len(got_blocks) == len(want_blocks)
            assert all(np.array_equal(g, w) for g, w in zip(got_blocks, want_blocks))
            assert all(np.array_equal(g, w) for g, w in zip(got, want))
        with np.errstate(all="ignore"):
            for order in (["spiked", "16"], ["16", "spiked"]):
                specs = {"spiked": (spiked, n_spiked), "16": (field16, 3_000)}
                with pytest.raises(SimulationDivergedError) as excinfo:
                    montecarlo.read_blocks({name: _x_T_part(*specs[name], seed)[0]
                                            for name in order})
                assert (excinfo.value.path, excinfo.value.step) == (target, 2)
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus", [2, 4, 8])
def test_one_worker_fewer_than_the_pool_runs_parts_at_once(ref_params, corner_triple,
                                                           monkeypatch, cpus):
    # workers draw their blocks' noise in parallel but run the parts on them
    # under a semaphore of one fewer than the pool: on two workers the runs
    # never overlap, although each pauses long enough for another worker to
    # reach its own, and on more no more than that many do, but more than
    # one; every value carries the bits of the one-worker run.  A part that
    # raises on one block releases the semaphore: the call ends, with the
    # error of one worker
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 97 * 16)
    fields = {"16": ClosedLoopField(integrate_riccati(ref_params, corner_triple,
                                                      make_grid(ref_params.T, 16), ETA_EQUALS_X)),
              "8": ClosedLoopField(integrate_riccati(ref_params, from_case("iv", 0.3, 1.0),
                                                     make_grid(ref_params.T, 8), ETA_EQUALS_X))}
    guard, running, peaks = threading.Lock(), [0], []

    def instrumented(part, raise_at=None):
        def run(lo, hi, dW):
            with guard:
                running[0] += 1
                peaks.append(running[0])
            try:
                time.sleep(2e-3)
                if lo == raise_at:
                    raise SimulationDivergedError(path=5, step=3, label="x")
                return part.run(lo, hi, dW)
            finally:
                with guard:
                    running[0] -= 1

        return part._replace(run=run)

    def outcome(parts):
        try:
            return montecarlo.read_blocks(parts)
        except SimulationDivergedError as exc:
            return exc

    def read(workers, raise_at=None):
        # on a thread of its own, so a lock left held fails the test, not hangs it
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
        parts, outputs = {}, {}
        for name, n_paths in (("16", 3_000), ("8", 2_000)):
            part, outputs[name] = _x_T_part(fields[name], n_paths, 41)
            parts[name] = instrumented(part, raise_at if name == "16" else None)
        got = []
        reader = threading.Thread(target=lambda: got.append(outcome(parts)), daemon=True)
        reader.start()
        reader.join(timeout=60)
        assert got, "read_blocks did not return"
        return got[0], outputs

    one, one_outputs = read(1)
    peaks.clear()
    many, many_outputs = read(cpus)
    assert len(peaks) == 31 + 11
    assert max(peaks) == 1 if cpus == 2 else 1 < max(peaks) < cpus
    for name in fields:
        assert len(many[name]) == len(one[name])
        assert all(np.array_equal(g, w) for g, w in zip(many[name], one[name]))
        assert all(np.array_equal(g, w) for g, w in zip(many_outputs[name], one_outputs[name]))
    # path 5 of the 16-step block at 97 x 3 = 291 diverges at step 3
    errors = [read(workers, raise_at=291)[0] for workers in (1, cpus)]
    assert all(isinstance(exc, SimulationDivergedError) for exc in errors)
    assert [(exc.path, exc.step, exc.label) for exc in errors] == [(296, 3, "x")] * 2
    assert running[0] == 0 and max(peaks) <= max(1, cpus - 1)


@pytest.mark.parametrize("cpus", [1, 2])
def test_ragged_blocks_are_drawn_first(ref_params, corner_triple, monkeypatch, cpus):
    # in blocks of 97 x 16 draws, 3,000 16-step paths end in a ragged block
    # of 90 paths (1,440 draws) and 2,000 8-step paths in one of 60 (480):
    # both are drawn before any full block.  On two workers a full block's
    # draw waits for both ragged draws to start, which a queue that put a
    # full block ahead of them would make it give up on.  Each part's values
    # still come in block order, with the bits of the one-worker run
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 97 * 16)
    fields = {"16": ClosedLoopField(integrate_riccati(ref_params, corner_triple,
                                                      make_grid(ref_params.T, 16), ETA_EQUALS_X)),
              "8": ClosedLoopField(integrate_riccati(ref_params, from_case("iv", 0.3, 1.0),
                                                     make_grid(ref_params.T, 8), ETA_EQUALS_X))}
    ragged = {(16, 2_910, 3_000), (8, 1_940, 2_000)}
    draw = montecarlo.sample_noise_block
    guard, started, all_ragged, gave_up = threading.Lock(), [], threading.Event(), []

    def spy(grid, n_paths, seed, lo, hi, out=None):
        block = (grid.n_steps, lo, hi)
        with guard:
            started.append(block)
            if ragged <= set(started):
                all_ragged.set()
        if block not in ragged and not all_ragged.wait(timeout=10):
            gave_up.append(block)
            all_ragged.set()
        return draw(grid, n_paths, seed, lo, hi, out=out)

    def read(workers):
        monkeypatch.setattr(montecarlo, "_cpu_count", lambda: workers)
        parts, outputs = {}, {}
        for name, n_paths in (("16", 3_000), ("8", 2_000)):
            part, outputs[name] = _x_T_part(fields[name], n_paths, 41)
            parts[name] = part._replace(run=lambda lo, hi, dW, run=part.run: (lo, run(lo, hi, dW)))
        return montecarlo.read_blocks(parts), outputs

    one, one_outputs = read(1)
    started.clear()
    all_ragged.clear()
    monkeypatch.setattr(montecarlo, "sample_noise_block", spy)
    got, outputs = read(cpus)
    assert gave_up == [] and len(started) == 31 + 11
    if cpus == 1:
        assert started[:2] == [(8, 1_940, 2_000), (16, 2_910, 3_000)]
    for name, block_paths in (("16", 97), ("8", 194)):
        assert [lo for lo, _ in got[name]] == [lo for lo, _ in one[name]]
        assert [lo for lo, _ in got[name]] == list(range(0, len(outputs[name][2]), block_paths))
        assert all(np.array_equal(g, w) for (_, g), (_, w) in zip(got[name], one[name]))
        assert all(np.array_equal(g, w) for g, w in zip(outputs[name], one_outputs[name]))


@pytest.mark.parametrize("cpus", [1, 2])
def test_divergence_at_the_last_step_of_a_ragged_block(ref_params, corner_triple, monkeypatch,
                                                       cpus):
    # x = x + sigma dW from 0 on 4 steps of seed 20 (T = 1e4, so sigma is
    # finite), with sigma between max_float over the largest |x| of any
    # step and path and over the next largest: x overflows once, at step 4,
    # on a path of the ragged third block of 1,100-path blocks over 3,000
    # paths, which runs first.
    # A screen at the end of a block must still see it, and the closed-loop
    # step (a = 0 and zero coefficients leave x + sigma dW) and the checks'
    # terminal fold must report the step and path of the whole-ensemble loop.
    # Both step in units of sigma, so the blocks they read are scaled by it
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(montecarlo, "BLOCK_DRAWS", 1_100 * 4)
    n_paths, n_steps, seed, T = 3_000, 4, 20, 1e4
    grid = make_grid(T, n_steps)
    dW = sample_noise(grid, n_paths, seed).increments.T
    walk = np.abs(np.cumsum(dW, axis=0))
    last, second = walk[-1].max(), max(walk[:-1].max(), np.sort(walk[-1])[-2])
    sigma = np.finfo(float).max / math.sqrt(second * last)
    x = np.zeros(n_paths)
    with np.errstate(over="ignore"):
        for k, row in enumerate(dW, 1):
            x = x + sigma * row
            if not np.isfinite(x).all():
                break
    expected = (k, int((~np.isfinite(x)).argmax()))
    assert expected[0] == n_steps and expected[1] >= 2_200
    params = dataclasses.replace(ref_params, a=0.0, sigma=sigma, T=T)
    field = ClosedLoopField(RiccatiSolution(grid, params, corner_triple,
                                            np.zeros((grid.n_points, 12)), ETA_EQUALS_X))
    config = dataclasses.replace(RunConfig(), params=params, n_paths=n_paths,
                                 n_steps=n_steps, seed=seed)
    firsts = []
    draw = scaled_noise_block(sigma)
    monkeypatch.setattr(montecarlo, "sample_noise_block",
                        lambda *args, **kw: firsts.append(args[3:5]) or draw(*args, **kw))
    for run in (lambda: simulate_costs(field, n_paths, seed),
                lambda: montecarlo.read_blocks({"x": checks._fold_part(config, seed, 0.0,
                                                                     np.empty(n_paths))})):
        firsts.clear()
        with pytest.raises(SimulationDivergedError) as excinfo, np.errstate(all="ignore"):
            run()
        assert (excinfo.value.step, excinfo.value.path) == expected
        assert cpus > 1 or firsts[0] == (2_200, 3_000)


def test_divergence_in_R_alone_reported_exactly(ref_params, corner_triple, monkeypatch):
    # hand-built as_printed coefficients (b = 1, so s = (P1 + 2 P2) / lambda_P):
    # A12 = -2 A13 at node 1 cancels every loading of x on the coefficients,
    # so x stays finite, while the R-drift loading A13 overflows only the
    # path with the largest first increment; R alone goes non-finite there,
    # at step 2, and each chunking and the recorded reference paths must
    # report it.  T = 8 makes dt = 1, so the largest first increments, in
    # units of sigma, exceed 1 (as in _spiked_field)
    params = dataclasses.replace(ref_params, T=8.0, b=1.0)
    n_paths, seed = 3_000, 3
    grid = make_grid(params.T, 8)
    x1 = sample_noise(grid, n_paths, seed).increments[:, 0]
    order = np.argsort(np.abs(x1))
    first, second = np.abs(x1[order[-1]]), np.abs(x1[order[-2]])
    assert first * second > 4.0
    spike = np.finfo(float).max / np.sqrt(first * second)
    coeffs = np.zeros((grid.n_points, 12))
    coeffs[1, COEFF_NAMES.index("A12")] = -2.0 * spike
    coeffs[1, COEFF_NAMES.index("A13")] = spike
    sol = RiccatiSolution(grid, params, corner_triple, coeffs, AS_PRINTED)
    field = ClosedLoopField(sol)
    target = int(order[-1])
    assert target >= 1_000
    runs = [lambda block=block: _simulate_in_blocks(monkeypatch, block, field, n_paths, seed)
            for block in (None, 777)]
    runs.append(lambda: closed_loop_paths(field, sample_noise(grid, n_paths, seed)))
    for run in runs:
        with pytest.raises(SimulationDivergedError) as excinfo, np.errstate(all="ignore"):
            run()
        assert (excinfo.value.path, excinfo.value.step) == (target, 2)


def test_stacked_step_reports_R_divergence_as_the_reference_loop(ref_params, corner_triple,
                                                                  row_closed_loop):
    # the same R-only overflow, stepped by the reference loop on the field's
    # rows: x stays finite where R does not, and the stacked step, with or
    # without a fold, stops at the same (step, path).  The block is screened
    # once, at its end, so the fold has read every node of it, in order
    params = dataclasses.replace(ref_params, T=8.0, b=1.0)
    n_paths, seed = 3_000, 3
    grid = make_grid(params.T, 8)
    dW = sample_noise(grid, n_paths, seed).increments
    order = np.argsort(np.abs(dW[:, 0]))
    first, second = np.abs(dW[order[-2:], 0])
    spike = np.finfo(float).max / np.sqrt(first * second)
    coeffs = np.zeros((grid.n_points, 12))
    coeffs[1, COEFF_NAMES.index("A12")] = -2.0 * spike
    coeffs[1, COEFF_NAMES.index("A13")] = spike
    field = ClosedLoopField(RiccatiSolution(grid, params, corner_triple, coeffs, AS_PRINTED))
    x, R = np.zeros(n_paths), np.zeros(n_paths)
    with np.errstate(all="ignore"):
        for k in range(grid.n_steps):
            _, _, fx, fR = row_closed_loop(field, k, x, R)
            x = x + fx * grid.dt + dW[:, k]
            R = R + fR * grid.dt
            bad = ~(np.isfinite(x) & np.isfinite(R))
            if bad.any():
                break
        expected = (k + 1, int(bad.argmax()))
        assert np.isfinite(x).all() and expected == (2, int(order[-1]))
        folded, got = [], []
        for fold in (None, lambda k, z: folded.append(k)):
            with pytest.raises(SimulationDivergedError) as excinfo:
                montecarlo._step_block(field, dW.T, np.empty(n_paths), fold=fold)
            got.append((excinfo.value.step, excinfo.value.path))
    assert got == [expected, expected]
    assert folded == list(range(grid.n_steps + 1))


def test_finite_states_whose_sum_overflows_do_not_diverge(ref_params, corner_triple,
                                                         monkeypatch):
    # every path takes the same large increments, of 5e307 (the paths are
    # stepped in units of sigma): each state stays finite while its sum over
    # the paths overflows, which is no divergence
    params = dataclasses.replace(ref_params, b=0.0)
    grid = make_grid(params.T, 2)
    sol = integrate_riccati(params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)

    def large(grid, n_paths, seed, lo, hi, out=None):
        return NoiseEnsemble(grid, seed, hi - lo, np.full((hi - lo, grid.n_steps), 5e307), lo)

    monkeypatch.setattr(montecarlo, "sample_noise_block", large)
    with np.errstate(over="ignore"):
        paths = closed_loop_paths(field, large(grid, 8, 0, 0, 8))
        runs = [_simulate_in_blocks(monkeypatch, block, field, 8, 0) for block in (None, 3)]
        x = paths.component("x")
        assert not math.isfinite(x[:, 1].sum()) and not math.isfinite(x[:, 2].sum())
    assert np.isfinite(paths.states).all()
    for _, _, x_T in runs:
        assert np.array_equal(x_T, x[:, -1])


def test_oversubscribed_pool_is_bit_identical(ref_params, corner_triple, monkeypatch):
    # more workers than cores and a short switch interval interleave the
    # workers' writes into the shared output arrays as much as possible
    grid = make_grid(ref_params.T, 16)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    inline = _simulate_in_blocks(monkeypatch, None, field, 3_000, 41)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = _simulate_in_blocks(monkeypatch, 97, field, 3_000, 41)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(inline, pooled):
        assert np.array_equal(a, b)
