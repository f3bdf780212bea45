import dataclasses
import math
import warnings

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
    from_case,
    integrate_riccati,
    make_grid,
    terminal_conditions,
)
from mvcontract import checks, riccati
from mvcontract.config import RunConfig
from mvcontract.model import cashflow_weights
from reference_schemes import (
    ansatz_residual,
    closed_loop_paths,
    coefficient_rhs,
    explicit_R,
    rk4_coefficients,
    sample_noise,
)

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
    # independent check of the closed-form solve
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
        n: rk4_coefficients(ref_params, corner_triple, make_grid(ref_params.T, n),
                            ETA_EQUALS_X)[0]
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
    with pytest.raises(RiccatiBlowUpError) as excinfo:
        integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X, blow_up_bound=1.0)
    # only the bound is crossed: there is no pole to report
    assert excinfo.value.t_star is None
    assert "(|coefficient| > 1)" in str(excinfo.value)


def _array_rk4(params, mult, grid, mode, blow_up_bound):
    # the array form of the reference RK4 loop, which must match it bit for bit
    coeffs = np.empty((grid.n_points, 12))
    y = terminal_conditions(params, mult)
    coeffs[-1] = y
    h = -grid.dt
    for k in range(grid.n_steps, 0, -1):
        k1 = coefficient_rhs(y, params, mult, mode)
        k2 = coefficient_rhs(y + 0.5 * h * k1, params, mult, mode)
        k3 = coefficient_rhs(y + 0.5 * h * k2, params, mult, mode)
        k4 = coefficient_rhs(y + h * k3, params, mult, mode)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.abs(y).max() > blow_up_bound:
            raise RiccatiBlowUpError(t=grid.points[k - 1], bound=blow_up_bound)
        coeffs[k - 1] = y
    return coeffs


def test_rk4_bits_match_array_reference(ref_params, corner_triple):
    points = [(0.1, 0.0), (0.3, 1.2), (0.5, 0.7), (0.9, math.pi / 2), (0.9, 0.0)]
    for n_steps in (64, 256, 4096):
        grid = make_grid(ref_params.T, n_steps)
        for lam_P, theta in points if n_steps < 4096 else points[1:3]:
            mult = from_case("iv", lam_P, theta)
            for mode in (AS_PRINTED, ETA_EQUALS_X):
                got = rk4_coefficients(ref_params, mult, grid, mode)
                ref = _array_rk4(ref_params, mult, grid, mode, 1e8)
                assert np.array_equal(got, ref), (n_steps, lam_P, theta, mode)
    for n_steps in (64, 256):
        grid = make_grid(ref_params.T, n_steps)
        for bound in (1e8, math.inf):
            with pytest.raises(RiccatiBlowUpError) as ref, np.errstate(all="ignore"):
                _array_rk4(ref_params, corner_triple, grid, AS_PRINTED, bound)
            with pytest.raises(RiccatiBlowUpError) as got:
                rk4_coefficients(ref_params, corner_triple, grid, AS_PRINTED, bound)
            assert got.value.t == ref.value.t


def test_infinite_bound_still_fails_on_non_finite_coefficients(ref_params, corner_triple):
    # with no magnitude bound the as_printed corner must still fail once a
    # coefficient turns inf or NaN, later in backward time than at 1e8
    grid = make_grid(ref_params.T, 256)
    with pytest.raises(RiccatiBlowUpError) as bounded:
        rk4_coefficients(ref_params, corner_triple, grid, AS_PRINTED)
    with pytest.raises(RiccatiBlowUpError) as unbounded:
        rk4_coefficients(ref_params, corner_triple, grid, AS_PRINTED,
                         blow_up_bound=float("inf"))
    assert 0.0 <= unbounded.value.t < bounded.value.t


def _rk4_gaps(params, mult, mode, steps):
    """Largest |RK4 - closed form| over the table, per step count."""
    gaps = {}
    for n in steps:
        grid = make_grid(params.T, n)
        gaps[n] = np.abs(rk4_coefficients(params, mult, grid, mode)
                         - integrate_riccati(params, mult, grid, mode).coeffs).max()
    return gaps


@pytest.mark.parametrize("a", [1.0, 0.0])
def test_rk4_error_against_closed_form_is_fourth_order(ref_params, corner_triple, a):
    # the closed form is exact, so the gap is RK4's own global error
    params = dataclasses.replace(ref_params, a=a)
    gaps = _rk4_gaps(params, corner_triple, ETA_EQUALS_X, (16, 32, 64, 128, 256))
    ratios = [gaps[n] / gaps[2 * n] for n in (16, 32, 64, 128)]
    assert all(14.0 <= r <= 18.0 for r in ratios), ratios


@pytest.mark.parametrize("a", [1.0, 0.0])
def test_closed_form_matches_rk4_at_4096_steps(ref_params, a):
    # Six step halvings from 64 to 4096 divide the RK4 error by at least 14
    # each (the test above), so its truncation part is at most
    # gap(64) / 14**6.  Rounding adds about one ulp of the largest
    # coefficient per RK4 step, so at most n eps max|K| over n steps.
    params = dataclasses.replace(ref_params, a=a)
    eps = np.finfo(float).eps
    for lam_P, theta in ((0.1, math.pi / 2), (0.3, 1.2), (0.5, 0.7)):
        mult = from_case("iv", lam_P, theta)
        for mode in (AS_PRINTED, ETA_EQUALS_X):
            if mode == AS_PRINTED and lam_P == 0.1:
                continue  # blows up at t* = 0.0061089
            gaps = _rk4_gaps(params, mult, mode, (64, 4096))
            scale = np.abs(integrate_riccati(params, mult, make_grid(params.T, 4096),
                                             mode).coeffs).max()
            tol = gaps[64] / 14.0**6 + 4096 * eps * scale
            assert gaps[4096] <= tol, (lam_P, theta, mode, gaps[4096], tol)


@pytest.mark.parametrize("a", [30.0, -30.0])
def test_closed_form_agrees_with_rk4_at_large_a_T(ref_params, a):
    # |a| T = 900: e^{a tau} alone overflows, the scaled factors must not.
    # At 3600 and 7200 steps |a| dt <= 0.25, fine enough for RK4.  Both
    # solvers must agree on whether the system blows up; where it does not,
    # a halving ratio of at least 14 bounds the RK4 error at 7200 steps by
    # |RK4(3600) - RK4(7200)| / 13.
    params = dataclasses.replace(ref_params, a=a, T=30.0)
    outcomes = set()
    for lam_P, theta in ((0.1, math.pi / 2), (0.5, 0.7)):
        mult = from_case("iv", lam_P, theta)
        for mode in (AS_PRINTED, ETA_EQUALS_X):
            ref = {}
            for n in (3600, 7200):
                grid = make_grid(params.T, n)
                try:
                    ref[n] = rk4_coefficients(params, mult, grid, mode)
                except RiccatiBlowUpError:
                    ref[n] = None
                with warnings.catch_warnings():
                    warnings.simplefilter("error", RuntimeWarning)
                    try:
                        got = integrate_riccati(params, mult, grid, mode).coeffs
                    except RiccatiBlowUpError:
                        got = None
                assert (got is None) == (ref[n] is None), (lam_P, theta, mode, n)
            outcomes.add(got is None)
            if got is not None:
                bound = np.abs(ref[3600] - ref[7200][::2]).max() / 13.0
                assert np.abs(got - ref[7200]).max() <= bound, (lam_P, theta, mode)
    # a = 30 blows up everywhere, a = -30 only at the as_printed corner
    assert outcomes == ({True} if a > 0 else {True, False})


@pytest.mark.parametrize("mode", [AS_PRINTED, ETA_EQUALS_X])
@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
def test_closed_form_matches_the_unscaled_matrix_form(ref_params, a, mode):
    # the module docstring's K = V U^-1, with V = exp(M tau) K(T) and
    # U = (I - B J K(T)) / e, as plain numpy matrix products at every node:
    # no exp(-|a| tau) scaling, no P and Q.  The state blocks start from
    # K_s(T), the state-plus-mean sums from K_s(T) + K_m(T)
    params = dataclasses.replace(ref_params, a=a)
    b = params.b
    c1, c2 = cashflow_weights(b, mode)
    grid = make_grid(params.T, 256)
    tau = (params.T - grid.points)[:, None, None]
    e = np.exp(a * tau)
    i1, i2 = ((np.expm1(m * a * tau) / (m * a) if a else tau) for m in (1.0, 2.0))
    zero, one = np.zeros_like(tau), np.ones_like(tau)
    expM = np.block([[e, zero, zero], [zero, e, e - 1.0], [zero, zero, one]])
    J = np.block([[i2, zero, zero], [zero, i2, i2 - i1], [zero, zero, i1]])
    state = [IDX[f"{ab}1{j}"] for j in (1, 2, 3) for ab in "AB"]
    mean = [IDX[f"{ab}2{j}"] for j in (1, 2, 3) for ab in "AB"]
    for lam_P, theta in ((0.3, 1.2), (0.5, 0.7), (0.9, 0.0)):
        mult = from_case("iv", lam_P, theta)
        B = np.array([[b * b, b * c1 / lam_P, b * c2 / lam_P],
                      [mult.lam_E * b * b, -b * b, -b * b]])
        coeffs = integrate_riccati(params, mult, grid, mode).coeffs
        yT = terminal_conditions(params, mult)
        for cols, KT in ((coeffs[:, state], yT[state]),
                         (coeffs[:, state] + coeffs[:, mean], yT[state] + yT[mean])):
            KT = KT.reshape(3, 2)
            U = (np.eye(2) - B @ J @ KT) / e
            expected = (expM @ KT @ np.linalg.inv(U)).reshape(-1, 6)
            tol = 1e-13 * np.abs(expected).max(axis=0)
            assert (np.abs(cols - expected) <= tol).all(), (lam_P, theta)


@pytest.mark.parametrize("a", [-1.0, 0.0, 1.0])
def test_radon_solve_at_a_float_tau_matches_the_node_rows(monkeypatch, a):
    # the node solve's P, Q and K(T) of each block, with each node's tau as
    # a Python float, must give the table's row: U is scaled by its largest
    # entry as at the node columns (an in-place division of a float only
    # rebinds it, which left K divided by that entry)
    config = RunConfig()
    params = dataclasses.replace(config.params, a=a)
    grid, solve, calls = make_grid(params.T, 64), riccati._radon_solve, []
    monkeypatch.setattr(riccati, "_radon_solve", lambda *args: calls.append(args) or solve(*args))
    coeffs = integrate_riccati(params, checks._first_triple(config), grid, config.p2_drift_mode).coeffs
    state = [IDX[f"{ab}1{j}"] for j in (1, 2, 3) for ab in "AB"]
    mean = [IDX[f"{ab}2{j}"] for j in (1, 2, 3) for ab in "AB"]
    assert len(calls) == 2
    terms = [riccati._scaled_terms(a, t) for t in (np.arange(64, -1, -1) * grid.dt).tolist()]
    for (P, Q, KT, *_), cols in zip(calls, (state, mean)):
        got = np.array([np.ravel(solve(P, Q, KT, e, u)) for e, (u, *_) in terms])
        if cols is mean:  # K_tot - K_s, as the node solve forms the mean block
            got -= coeffs[:, state]
        expected = coeffs[:, cols]
        assert (np.abs(got - expected) <= 1e-15 * np.abs(expected).max(axis=0)).all(), cols


@pytest.mark.parametrize("n_steps", [256, 4096])
@pytest.mark.parametrize("bound", [1e8, float("inf")])
def test_blow_up_reports_the_pole(ref_params, corner_triple, n_steps, bound):
    # det U of the as_printed corner vanishes at t* = 0.0061089: the solve
    # fails at the last node below it, whatever the bound
    grid = make_grid(ref_params.T, n_steps)
    with pytest.raises(RiccatiBlowUpError) as excinfo:
        integrate_riccati(ref_params, corner_triple, grid, AS_PRINTED, bound)
    err = excinfo.value
    assert f"{err.t_star:.5g}" == "0.0061089"
    assert err.t == grid.points[grid.points < err.t_star].max()
    assert "singular at t* = 0.0061089" in str(err)


def test_pole_pair_between_two_nodes_is_caught(ref_params, corner_triple):
    # at T = 1e4 the eta_equals_x corner has det U < 0 for T - t in
    # (0.0449, 3.49) only: at 64 steps (dt = 156) det U > 0 and the
    # coefficients are finite at every node, past both poles.  The solve
    # must still fail at the node below the first pole
    params = dataclasses.replace(ref_params, T=1e4)
    stars = []
    for n_steps in (64, 4096):
        grid = make_grid(params.T, n_steps)
        with pytest.raises(RiccatiBlowUpError) as excinfo:
            integrate_riccati(params, corner_triple, grid, ETA_EQUALS_X)
        err = excinfo.value
        assert err.t == grid.points[grid.points < err.t_star].max()
        stars.append(err.t_star)
    assert stars[0] == pytest.approx(stars[1], rel=1e-15)
    assert params.T - stars[0] == pytest.approx(0.0449, abs=1e-4)


@pytest.mark.parametrize("b, pole", [(1e-9, True), (1e-17, False)])
def test_pole_where_the_scaled_det_is_tiny(ref_params, corner_triple, b, pole):
    # with a tiny effort gain b and no bound, det U of the eta_equals_x
    # corner at a = 1, T = 30 has its first zero at T - t = 19.5 for
    # b = 1e-9, where exp(-a tau)^2 is below eps and the scaled det U is of
    # order b^4, and none on [0, T] for b = 1e-17.  The 64- and 3600-step
    # solves must find the same pole, and RK4 at 3600 steps must agree
    params = dataclasses.replace(ref_params, b=b, T=30.0)
    stars = []
    for solve, n_steps in ((integrate_riccati, 64), (integrate_riccati, 3600),
                           (rk4_coefficients, 3600)):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                solve(params, corner_triple, make_grid(params.T, n_steps), ETA_EQUALS_X,
                      math.inf)
            except RiccatiBlowUpError as exc:
                stars.append(exc.t_star if solve is integrate_riccati else exc.t)
    if not pole:
        assert stars == []
        return
    t_star, t_fine, t_rk4 = stars
    assert t_star == pytest.approx(t_fine, rel=1e-12)
    assert params.T - t_star == pytest.approx(19.54, abs=0.01)
    # RK4 fails only once a step has landed on or past the pole
    assert t_rk4 < t_star


def test_zero_gain_coefficients_stay_finite_until_they_overflow(ref_params, corner_triple):
    # with b = 0 the scaled U is exp(-2 a tau) I, whose determinant
    # underflows near a tau = 186, long before A11 = alpha exp(2 a tau)
    # overflows near a tau = 355 (tau = T - t)
    params = dataclasses.replace(ref_params, b=0.0, T=300.0)
    grid = make_grid(params.T, 300)
    sol = integrate_riccati(params, corner_triple, grid, ETA_EQUALS_X, math.inf)
    expected = params.alpha * np.exp(2.0 * params.a * (params.T - grid.points))
    np.testing.assert_allclose(sol.column("A11"), expected, rtol=1e-13)


@pytest.mark.parametrize("bound", [float("nan"), 0.0, -1.0, -float("inf")])
def test_bad_blow_up_bound_rejected(ref_params, corner_triple, bound):
    grid = make_grid(ref_params.T, 64)
    with pytest.raises(ValueError, match="blow_up_bound"):
        integrate_riccati(ref_params, corner_triple, grid, ETA_EQUALS_X, blow_up_bound=bound)


def test_closed_loop_terminal_controls(ref_params, raw_closed_loop, row_closed_loop):
    # at the horizon with lambda_V = 0 and (x, R) = (1, 0) the adjoint values
    # reduce to their terminal weights; the last row the stepper reads
    # reproduces the raw-coefficient controls and drifts there
    mult = from_case("v", 0.3)
    grid = make_grid(ref_params.T, 16)
    sol = integrate_riccati(ref_params, mult, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    x = np.array([1.0])
    R = np.array([0.0])
    p, P1, P2, s, _, _ = raw_closed_loop(sol, grid.n_steps, x, R)
    e = ref_params.b * p + s
    assert p[0] == ref_params.alpha
    assert P1[0] == ref_params.alpha * mult.lam_E + ref_params.beta * mult.lam_P
    assert P2[0] == 0.0
    assert e[0] == ref_params.b * p[0] + s[0]
    k = grid.n_steps - 1
    p, _, _, s, fx, fR = raw_closed_loop(sol, k, x, R)
    h = math.sqrt(0.5 * grid.dt)
    rows = row_closed_loop(field, k, x, R)
    for row, spec in zip(rows, (h * ref_params.b * p, h * s, fx, fR)):
        np.testing.assert_allclose(row, spec, rtol=1e-12, atol=0)


def test_zero_effort_gain_decouples_output(ref_params, corner_triple, raw_closed_loop,
                                          row_closed_loop):
    import dataclasses as dc
    params = dc.replace(ref_params, b=0.0)
    grid = make_grid(params.T, 16)
    sol = integrate_riccati(params, corner_triple, grid, ETA_EQUALS_X)
    field = ClosedLoopField(sol)
    rng = np.random.default_rng(1)
    x, R = rng.normal(size=(2, 20))
    for k in (0, 5, grid.n_steps):
        _, _, _, _, fx, _ = raw_closed_loop(sol, k, x, R)
        np.testing.assert_allclose(fx, params.a * x, rtol=1e-14)
    for k in (0, 5, grid.n_steps - 1):
        _, _, fx, _ = row_closed_loop(field, k, x, R)
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


def test_residual_fold_matches_the_formula(ref_params, corner_triple):
    # the documented formula over the whole recorded ensemble is the spec of
    # the reference and of the check battery's fold, which is fed the same
    # paths one node at a time, as the closed-loop step reaches them.  One
    # increment of the last step is raised so the largest residual lies there.
    for n_steps in (256, 250):
        sol, paths = _simulate(ref_params, corner_triple, n_steps, 1_000, 31, ETA_EQUALS_X)
        a, sigma, dt, c = sol.params.a, sol.params.sigma, sol.grid.dt, sol.coeffs

        def formula(X, R, dW):
            def reconstruct(a1, b1):
                return c[None, :, IDX[a1]] * X + c[None, :, IDX[b1]] * R

            P, P1, P2 = (reconstruct("A11", "B11"), reconstruct("A12", "B12"),
                         reconstruct("A13", "B13"))
            out = {}
            for name, Z, load, prescribed in (("p", P, "A11", -a * P),
                                              ("P1", P1, "A12", -a * (P1 + P2)),
                                              ("P2", P2, "A13", np.zeros_like(P2))):
                matched = c[None, 1:, IDX[load]] * sigma * dW
                resid = (Z[:, 1:] - Z[:, :-1] - matched) / dt - prescribed[:, :-1]
                out[name] = np.abs(resid), float(np.abs(prescribed).max())
            return out

        dW = paths.noise.increments.copy()
        dW[417, -1] += 10.0 * math.sqrt(dt)
        noise = dataclasses.replace(paths.noise, increments=dW)
        raised = dataclasses.replace(paths, noise=noise)
        report = ansatz_residual(sol, raised)
        fold = checks._ResidualFold(sol, dW.T)
        for k, z in enumerate(paths.states.transpose(1, 2, 0)):
            fold(k, z)
        maxima = fold.value()
        spec = formula(paths.component("x"), paths.component("R"), dW)
        worst = max(spec.values(), key=lambda item: item[0].max())[0]
        assert np.unravel_index(worst.argmax(), worst.shape) == (417, n_steps - 1)
        assert report.max_residual == worst.max() == maxima.max()
        for (name, (resid, scale)), max_abs in zip(spec.items(), maxima):
            got = report.components[name]
            assert got.max_abs == resid.max() == max_abs
            assert got.drift_scale == scale
            assert got.mean_abs == pytest.approx(resid.mean(), rel=1e-12, abs=0.0)


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
