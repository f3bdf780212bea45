import dataclasses
import math
import sys

import numpy as np
import pytest

from mvcontract import (
    AS_PRINTED,
    COEFF_NAMES,
    ETA_EQUALS_X,
    ClosedLoopField,
    DegenerateMultiplierError,
    RiccatiBlowUpError,
    RiccatiSolution,
    SimulationDivergedError,
    closed_loop_paths,
    evaluate_contract,
    from_case,
    integrate_riccati,
    make_grid,
    sample_noise,
)
from mvcontract import montecarlo
from mvcontract.montecarlo import simulate_costs


def test_b0_variance_matches_closed_form(ref_params, corner_triple):
    params = dataclasses.replace(ref_params, b=0.0)
    n = 50_000
    ev = evaluate_contract(params, corner_triple, n, 64, seed=5,
                           p2_drift_mode=ETA_EQUALS_X)
    a, sigma, T = params.a, params.sigma, params.T
    target = sigma**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    assert abs(ev.var_xt - target) <= 3 * ev.var_xt_se
    # effort equals cash-flow when the effort gain vanishes
    assert ev.j_a_integral == 0.0


def test_reproducibility_bitwise(ref_params, corner_triple):
    kwargs = dict(n_paths=5_000, n_steps=32, seed=11, p2_drift_mode=ETA_EQUALS_X)
    a = evaluate_contract(ref_params, corner_triple, **kwargs)
    b = evaluate_contract(ref_params, corner_triple, **kwargs)
    assert a == b


def test_chunking_never_changes_results(ref_params, corner_triple):
    evals = [
        evaluate_contract(ref_params, corner_triple, 5_000, 32, seed=13,
                          p2_drift_mode=ETA_EQUALS_X, chunk_size=cs)
        for cs in (None, 5_000, 1_000, 777, 1)
    ]
    assert all(e == evals[0] for e in evals[1:])


def test_agent_integral_identity(ref_params, corner_triple):
    # along the optimal pair, s - e = -b p, so the agent's running cost is
    # b^2 p^2 / 2 pathwise; recompute it that way from the same noise.  The
    # reference loop also pins the one stepper: closed_loop_paths and
    # simulate_costs must reproduce its (x, R) bit for bit at every node.
    n_paths, n_steps, seed = 2_000, 32, 17
    grid = make_grid(ref_params.T, n_steps)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    ja_int, jp_int, x_T = simulate_costs(field, n_paths, seed, chunk_size=None)
    noise = sample_noise(grid, n_paths, seed)
    paths = closed_loop_paths(field, noise)

    dW = noise.increments
    x = np.zeros(n_paths)
    R = np.zeros(n_paths)
    ja_alt = np.zeros(n_paths)
    b = ref_params.b
    for k in range(n_steps):
        assert np.array_equal(paths.component("x")[:, k], x)
        assert np.array_equal(paths.component("R")[:, k], R)
        p, P1, P2, s, e = field.controls_at_index(k, x, R)
        ja_alt += (b * p) ** 2 * (0.5 * grid.dt)
        fx, fR = field.drift_terms(p, P1, P2, s, x, R)
        x = x + fx * grid.dt + ref_params.sigma * dW[:, k]
        R = R + fR * grid.dt
    assert np.array_equal(paths.component("x")[:, -1], x)
    assert np.array_equal(paths.component("R")[:, -1], R)
    assert paths.labels == ("x", "R") and paths.noise is noise
    np.testing.assert_allclose(ja_int, ja_alt, rtol=1e-8, atol=1e-18)
    assert np.array_equal(x, x_T)
    _, _, x_T_chunked = simulate_costs(field, n_paths, seed, chunk_size=777)
    assert np.array_equal(x, x_T_chunked)
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
    assert ev.j_a_integral >= 0.0
    assert ev.j_p_integral >= 0.0
    assert ev.j_a <= ev.j_a_integral
    assert ev.j_p <= ev.j_p_integral


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


def test_divergence_reported_independent_of_chunking(ref_params, corner_triple):
    # hand-built coefficients: a spike in A11 at node 1 overflows only the
    # path with the largest first increment, one at node 4 overflows every
    # path; each chunking, and closed_loop_paths, must report that path at
    # step 2, even when the lowest chunk diverges only later
    params = dataclasses.replace(ref_params, sigma=100.0)
    n_paths, seed = 3_000, 3
    grid = make_grid(params.T, 8)
    x1 = params.sigma * sample_noise(grid, n_paths, seed).increments[:, 0]
    order = np.argsort(np.abs(x1))
    first, second = np.abs(x1[order[-1]]), np.abs(x1[order[-2]])
    coeffs = np.zeros((grid.n_points, 12))
    a11 = COEFF_NAMES.index("A11")
    coeffs[1, a11] = np.finfo(float).max / np.sqrt(first * second)
    coeffs[4, a11] = np.finfo(float).max
    sol = RiccatiSolution(grid, params, corner_triple, coeffs, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    target = int(order[-1])
    assert target >= 1_000
    runs = [lambda cs=cs: simulate_costs(field, n_paths, seed, chunk_size=cs)
            for cs in (None, 1_000, 777)]
    runs.append(lambda: closed_loop_paths(field, sample_noise(grid, n_paths, seed)))
    for run in runs:
        with pytest.raises(SimulationDivergedError) as excinfo, np.errstate(all="ignore"):
            run()
        assert (excinfo.value.path, excinfo.value.step) == (target, 2)


def test_oversubscribed_pool_is_bit_identical(ref_params, corner_triple, monkeypatch):
    # more workers than cores and a short switch interval interleave the
    # workers' writes into the shared output arrays as much as possible
    grid = make_grid(ref_params.T, 16)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    inline = simulate_costs(field, 3_000, seed=41, chunk_size=None)
    monkeypatch.setattr(montecarlo, "_cpu_count", lambda: 8)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        pooled = simulate_costs(field, 3_000, seed=41, chunk_size=97)
    finally:
        sys.setswitchinterval(interval)
    for a, b in zip(inline, pooled):
        assert np.array_equal(a, b)
