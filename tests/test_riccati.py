import dataclasses
import math

import numpy as np
import pytest
from scipy.integrate import solve_ivp

from mvcontract import (
    AS_PRINTED,
    ETA_EQUALS_X,
    COEFF_NAMES,
    ClosedLoopField,
    DegenerateMultiplierError,
    LqParams,
    MultiplierTriple,
    RiccatiBlowUpError,
    RiccatiSolution,
    ansatz_residual,
    closed_loop_paths,
    explicit_R,
    from_case,
    integrate_riccati,
    make_grid,
    sample_noise,
    terminal_conditions,
)
from mvcontract.riccati import coefficient_rhs

IDX = {name: i for i, name in enumerate(COEFF_NAMES)}


def _random_instance(rng):
    params = LqParams(
        a=float(rng.uniform(-1.5, 1.5)),
        b=float(rng.uniform(-1.5, 1.5)),
        sigma=float(rng.uniform(0.2, 2.0)),
        alpha=float(rng.uniform(0.05, 1.0)),
        beta=float(rng.uniform(0.05, 1.5)),
        T=float(rng.uniform(0.01, 0.05)),
    )
    case = ("i", "ii", "iii", "iv", "v")[rng.integers(5)]
    lam_P = float(rng.uniform(0.3, 1.0))
    if case == "iii":
        mult = from_case(case, lam_P, float(rng.uniform(-math.pi / 2, 0.0)))
    elif case == "iv":
        mult = from_case(case, lam_P, float(rng.uniform(0.0, math.pi / 2)))
    else:
        mult = from_case(case, lam_P)
    return params, mult


def _simulate(params, mult, n_steps, n_paths, seed, mode):
    grid = make_grid(params.T, n_steps)
    sol = integrate_riccati(params, mult, grid, mode)
    noise = sample_noise(grid, n_paths, seed)
    return sol, closed_loop_paths(ClosedLoopField(sol), noise)


def test_terminal_conditions_exact(ref_params, corner_triple):
    grid = make_grid(ref_params.T, 32)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    expected = terminal_conditions(ref_params, corner_triple)
    assert np.array_equal(sol.terminal_values, expected)
    assert sol.column("A11")[-1] == ref_params.alpha
    assert sol.column("B12")[-1] == -ref_params.alpha
    assert sol.column("A13")[-1] == -2.0 * corner_triple.lam_V
    assert sol.column("A23")[-1] == 2.0 * corner_triple.lam_V


def test_terminal_conditions_zero_variance_multiplier(ref_params):
    mult = from_case("v", 0.7)  # lambda_V = 0
    grid = make_grid(ref_params.T, 16)
    sol = integrate_riccati(ref_params, mult, grid)
    assert sol.column("A13")[-1] == 0.0
    assert sol.column("A23")[-1] == 0.0


def test_rk4_matches_independent_integrator(ref_params, corner_triple):
    # high-accuracy adaptive integration of the same system is an
    # independent check of the fixed-step backward sweep
    grid = make_grid(ref_params.T, 256)
    for mode in (ETA_EQUALS_X,):
        sol = integrate_riccati(ref_params, corner_triple, grid, mode)
        yT = terminal_conditions(ref_params, corner_triple)
        ref = solve_ivp(
            lambda t, y: coefficient_rhs(y, ref_params, corner_triple, mode),
            (ref_params.T, 0.0), yT, rtol=1e-11, atol=1e-13, dense_output=True,
        )
        assert ref.success
        y0 = ref.sol(0.0)
        assert np.max(np.abs(sol.coeffs[0] - y0)) <= 1e-7


def test_rk4_step_halving_order(ref_params, corner_triple):
    sols = {
        n: integrate_riccati(ref_params, corner_triple, make_grid(ref_params.T, n),
                             ETA_EQUALS_X).coeffs[0]
        for n in (16, 32, 64)
    }
    err_coarse = np.max(np.abs(sols[16] - sols[32]))
    err_fine = np.max(np.abs(sols[32] - sols[64]))
    assert 8.0 <= err_coarse / err_fine <= 32.0


def test_mean_coefficient_sums_satisfy_closed_system(ref_params, corner_triple):
    # Averaging the representation couples only the six sums
    # U1j = A1j + A2j, V1j = B1j + B2j; they must solve their own closed
    # system, written here from scratch as an oracle for the mean blocks.
    params, mult, mode = ref_params, corner_triple, ETA_EQUALS_X
    a, b = params.a, params.b
    lam_P, lam_E = mult.lam_P, mult.lam_E
    c1, c2 = b, b  # eta_equals_x weights
    b2 = b * b

    def sums_rhs(t, u):
        U11, V11, U12, V12, U13, V13 = u
        Mxx = a + b2 * U11 + b * (c1 * U12 + c2 * U13) / lam_P
        MxR = b2 * V11 + b * (c1 * V12 + c2 * V13) / lam_P
        MRx = b2 * (lam_E * U11 - U12 - U13)
        MRR = a + b2 * (lam_E * V11 - V12 - V13)
        return [
            -a * U11 - (U11 * Mxx + V11 * MRx),
            -a * V11 - (U11 * MxR + V11 * MRR),
            -a * (U12 + U13) - (U12 * Mxx + V12 * MRx),
            -a * (V12 + V13) - (U12 * MxR + V12 * MRR),
            -(U13 * Mxx + V13 * MRx),
            -(U13 * MxR + V13 * MRR),
        ]

    uT = [
        params.alpha, 0.0,
        params.alpha * mult.lam_E + params.beta * mult.lam_P, -params.alpha,
        -2 * mult.lam_V + 2 * mult.lam_V, 0.0,
    ]
    ref = solve_ivp(sums_rhs, (params.T, 0.0), uT, rtol=1e-11, atol=1e-13)
    assert ref.success

    grid = make_grid(params.T, 512)
    sol = integrate_riccati(params, mult, grid, mode)
    c = sol.coeffs[0]
    sums = np.array([
        c[IDX["A11"]] + c[IDX["A21"]], c[IDX["B11"]] + c[IDX["B21"]],
        c[IDX["A12"]] + c[IDX["A22"]], c[IDX["B12"]] + c[IDX["B22"]],
        c[IDX["A13"]] + c[IDX["A23"]], c[IDX["B13"]] + c[IDX["B23"]],
    ])
    assert np.max(np.abs(sums - ref.y[:, -1])) <= 1e-8


def test_terminal_exactness_random_instances():
    rng = np.random.default_rng(7)
    for _ in range(25):
        params, mult = _random_instance(rng)
        grid = make_grid(params.T, 16)
        try:
            sol = integrate_riccati(params, mult, grid, ETA_EQUALS_X)
        except RiccatiBlowUpError:
            continue
        expected = terminal_conditions(params, mult)
        rel = np.abs(sol.terminal_values - expected) / np.maximum(np.abs(expected), 1.0)
        assert np.max(rel) <= 1e-14


def test_strong_feedback_blow_up_raises(ref_params, corner_triple):
    grid = make_grid(ref_params.T, 256)
    with pytest.raises(RiccatiBlowUpError) as excinfo, np.errstate(all="ignore"):
        integrate_riccati(ref_params, corner_triple, grid, AS_PRINTED)
    assert 0.0 <= excinfo.value.t < ref_params.T


def test_degenerate_lambda_P_rejected_before_integration(ref_params):
    # at lambda_P = 0 the cash-flow map divides by zero; that must surface as
    # a degenerate multiplier, not as a blow-up of the coefficient system
    grid = make_grid(ref_params.T, 64)
    unit = MultiplierTriple(lam_P=0.0, lam_E=-1.0 / math.sqrt(2.0),
                            lam_V=-1.0 / math.sqrt(2.0))
    for mult in (unit, from_case("ii", 0.0), dataclasses.replace(unit, lam_P=1e-7)):
        with pytest.raises(DegenerateMultiplierError), np.errstate(all="ignore"):
            integrate_riccati(ref_params, mult, grid, ETA_EQUALS_X)


def test_blow_up_bound_configurable(ref_params, corner_triple):
    grid = make_grid(ref_params.T, 64)
    with pytest.raises(RiccatiBlowUpError):
        integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X, blow_up_bound=1.0)


def test_closed_loop_terminal_controls(ref_params):
    # at the horizon with lambda_V = 0 and (x, R) = (1, 0) the adjoint values
    # reduce to their terminal weights
    mult = from_case("v", 0.3)
    grid = make_grid(ref_params.T, 16)
    sol = integrate_riccati(ref_params, mult, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    x = np.array([1.0])
    R = np.array([0.0])
    p, P1, P2, s, e = field.controls_at_index(grid.n_steps, x, R)
    assert p[0] == ref_params.alpha
    assert P1[0] == ref_params.alpha * mult.lam_E + ref_params.beta * mult.lam_P
    assert P2[0] == 0.0
    assert e[0] == ref_params.b * p[0] + s[0]


def test_zero_effort_gain_decouples_output(ref_params, corner_triple):
    import dataclasses as dc
    params = dc.replace(ref_params, b=0.0)
    grid = make_grid(params.T, 16)
    sol = integrate_riccati(params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    rng = np.random.default_rng(1)
    x, R = rng.normal(size=(2, 20))
    for k in (0, 5, grid.n_steps):
        p, P1, P2, s, _ = field.controls_at_index(k, x, R)
        fx, _ = field.drift_terms(p, P1, P2, s, x, R)
        np.testing.assert_allclose(fx, params.a * x, rtol=1e-14)


def test_simulated_mean_matches_integrated_mean(ref_params, corner_triple):
    n_paths = 20_000
    # x(0) = R(0) = 0 and the averaged closed loop is linear and homogeneous,
    # so the exact mean is E[x] = 0 at every node
    _, paths = _simulate(ref_params, corner_triple, 64, n_paths, 31, ETA_EQUALS_X)
    x = paths.component("x")
    mc_mean = x.mean(axis=0)
    mc_se = x.std(axis=0, ddof=1) / math.sqrt(n_paths)
    assert mc_mean[0] == 0.0
    assert np.all(np.abs(mc_mean[1:]) <= 3 * mc_se[1:])


def test_residual_small_for_consistent_solution(ref_params, corner_triple):
    sol, paths = _simulate(ref_params, corner_triple, 256, 2_000, 17, ETA_EQUALS_X)
    report = ansatz_residual(sol, paths)
    assert report.max_residual <= 1e-3
    assert set(report.components) == {"p", "P1", "P2"}
    assert all(c.mean_abs <= c.max_abs for c in report.components.values())


def test_residual_flags_zeroed_solution(ref_params, corner_triple):
    sol, paths = _simulate(ref_params, corner_triple, 128, 500, 19, ETA_EQUALS_X)
    broken = RiccatiSolution(
        grid=sol.grid, params=ref_params, multipliers=corner_triple,
        coeffs=np.tile(sol.terminal_values, (sol.grid.n_points, 1)),
        p2_drift_mode=ETA_EQUALS_X,
    )
    report = ansatz_residual(broken, paths)
    assert report.max_residual > 0.1


def test_residual_does_not_vanish_for_perturbed_solution(ref_params, corner_triple):
    # a 0.1 shift of one coefficient leaves an O(1) residual at every step size
    maxima = []
    for n_steps in (128, 256):
        sol, paths = _simulate(ref_params, corner_triple, n_steps, 500, 23, ETA_EQUALS_X)
        coeffs = sol.coeffs.copy()
        coeffs[:, IDX["B12"]] += 0.1
        perturbed = RiccatiSolution(
            grid=sol.grid, params=ref_params, multipliers=corner_triple,
            coeffs=coeffs, p2_drift_mode=ETA_EQUALS_X,
        )
        maxima.append(ansatz_residual(perturbed, paths).max_residual)
    assert min(maxima) > 0.01
    assert maxima[1] > 0.5 * maxima[0]


def test_residual_validates_inputs(ref_params, corner_triple):
    sol, paths = _simulate(ref_params, corner_triple, 16, 50, 29, ETA_EQUALS_X)
    other_grid = make_grid(ref_params.T, 32)
    other = integrate_riccati(ref_params, corner_triple, other_grid, ETA_EQUALS_X)
    with pytest.raises(ValueError):
        ansatz_residual(other, paths)
    stripped = dataclasses.replace(paths, noise=None)
    with pytest.raises(ValueError):
        ansatz_residual(sol, stripped)


def _constant_coefficient_solution(decay, forcing, T=0.03, n_steps=256):
    # engineered columns so the R-equation has constant decay and forcing:
    # c = b^2 (B12 + B13) - lam_E b^2 B11 - a and k = -b^2 (A12 + A13)
    params = LqParams(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=T)
    mult = from_case("ii", 0.5)  # lam_E = 0
    grid = make_grid(T, n_steps)
    row = np.zeros(12)
    row[IDX["B12"]] = decay + params.a
    row[IDX["A12"]] = -forcing
    return RiccatiSolution(
        grid=grid, params=params, multipliers=mult,
        coeffs=np.tile(row, (grid.n_points, 1)), p2_drift_mode=ETA_EQUALS_X,
    ), grid


def test_explicit_r_zero_forcing_path(ref_params, corner_triple):
    grid = make_grid(ref_params.T, 32)
    sol = integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X)
    r = explicit_R(sol, np.zeros(grid.n_points))
    assert np.all(r == 0.0)


def test_explicit_r_constant_coefficients_closed_form():
    decay, forcing = 2.0, 1.5
    sol, grid = _constant_coefficient_solution(decay, forcing)
    r = explicit_R(sol, np.ones(grid.n_points))
    expected = (forcing / decay) * (1.0 - np.exp(-decay * grid.points))
    np.testing.assert_allclose(r, expected, atol=5e-8)


def test_explicit_r_tracks_euler_integration(ref_params, corner_triple):
    sol, paths = _simulate(ref_params, corner_triple, 64, 2_000, 37, ETA_EQUALS_X)
    x = paths.component("x")
    r_euler = paths.component("R")
    r_quad = explicit_R(sol, x)
    b2 = ref_params.b**2
    forcing = (
        corner_triple.lam_E * b2 * sol.column("A11")
        - b2 * sol.column("A12") - b2 * sol.column("A13")
    )
    scale = np.abs(forcing[None, :] * x).max()
    assert np.abs(r_quad - r_euler).max() <= 5.0 * sol.grid.dt * max(scale, 1.0)


def test_explicit_r_is_adapted_to_output_history(ref_params, corner_triple):
    sol, paths = _simulate(ref_params, corner_triple, 64, 100, 41, ETA_EQUALS_X)
    x = paths.component("x").copy()
    cut = 40
    r_full = explicit_R(sol, x)
    tampered = x.copy()
    tampered[:, cut + 1:] += 17.0
    r_tampered = explicit_R(sol, tampered)
    assert np.array_equal(r_full[:, : cut + 1], r_tampered[:, : cut + 1])
    assert not np.array_equal(r_full[:, cut + 1:], r_tampered[:, cut + 1:])


def test_shape_validation():
    params = LqParams(a=1, b=1, sigma=1, alpha=0.2, beta=1, T=0.03)
    mult = from_case("ii", 0.5)
    grid = make_grid(params.T, 8)
    with pytest.raises(ValueError):
        RiccatiSolution(grid=grid, params=params, multipliers=mult,
                        coeffs=np.zeros((3, 12)))
    sol = integrate_riccati(params, mult, grid)
    with pytest.raises(ValueError):
        explicit_R(sol, np.zeros(5))
