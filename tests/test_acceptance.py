"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.

Dynamics-based criteria at the reference corner point (lambda_P = 0.1,
theta = pi/2) run with the ``eta_equals_x`` cash-flow convention: the
``as_printed`` convention provably blows up inside [0, T] there (that is
itself asserted in the unit suite), so it cannot back the Monte-Carlo
criteria.  The pointwise argmax criterion uses ``as_printed``, whose
first-order condition carries the (1 + b) weight it asserts.
"""

import dataclasses
import math
import time

import numpy as np
import pytest

from mvcontract import (
    AS_PRINTED,
    ETA_EQUALS_X,
    ClosedLoopField,
    LqParams,
    RiccatiBlowUpError,
    agent_hamiltonian,
    evaluate_contract,
    from_case,
    integrate_riccati,
    make_grid,
    optimal_cashflow,
    optimal_effort,
    principal_hamiltonian,
    sweep_grid,
    terminal_conditions,
)
from mvcontract import montecarlo
from mvcontract.cli import main
from reference_schemes import (
    ansatz_residual,
    closed_loop_paths,
    coarsened,
    euler_maruyama,
    rk4_coefficients,
    sample_noise,
    simulate_density,
)

REF = dict(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03)


def _report(num, name, ok, detail, elapsed, limit):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {name}: {status} ({detail}; {elapsed:.1f}s < {limit:g}s)")
    assert ok, f"criterion {num} ({name}): {detail}"
    assert elapsed < limit, f"criterion {num} exceeded its runtime bound"


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


def test_criterion_1_terminal_condition_exactness():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    done = 0
    modes = (ETA_EQUALS_X, AS_PRINTED)
    while done < 100:
        params, mult = _random_instance(rng)
        grid = make_grid(params.T, 16)
        try:
            with np.errstate(all="ignore"):
                sol = integrate_riccati(params, mult, grid, modes[done % 2])
        except RiccatiBlowUpError:
            continue
        expected = terminal_conditions(params, mult)
        rel = np.abs(sol.terminal_values - expected) / np.maximum(np.abs(expected), 1.0)
        worst = max(worst, float(rel.max()))
        done += 1
    _report(1, "terminal_condition_exactness", worst <= 1e-14,
            f"100 draws, max_rel_err={worst:.2e} tol=1e-14", time.time() - t0, 5.0)


def test_criterion_2_residual_oracle_and_refinement():
    t0 = time.time()
    params = LqParams(**REF)
    mult = from_case("iv", 0.1, math.pi / 2)
    n_paths = 10_000
    levels = (256, 512, 1024, 2048)
    fine_noise = sample_noise(make_grid(params.T, levels[-1]), n_paths, seed=101)
    maxima = []
    for n_steps in levels:
        noise = coarsened(fine_noise, levels[-1] // n_steps)
        sol = integrate_riccati(params, mult, noise.grid, ETA_EQUALS_X)
        paths = closed_loop_paths(ClosedLoopField(sol), noise)
        maxima.append(ansatz_residual(sol, paths).max_residual)
    ratios = [maxima[i] / maxima[i + 1] for i in range(3)]
    ok = maxima[0] <= 1e-3 and all(r >= 1.7 for r in ratios)
    detail = (f"max_residual@256={maxima[0]:.2e} tol=1e-3, "
              f"doubling ratios={[f'{r:.2f}' for r in ratios]} (need >= 1.7)")
    _report(2, "riccati_residual_oracle", ok, detail, time.time() - t0, 30.0)


def test_criterion_3_rk4_step_halving_order():
    t0 = time.time()
    params = LqParams(**REF)
    mult = from_case("iv", 0.1, math.pi / 2)
    ends = {
        n: rk4_coefficients(params, mult, make_grid(params.T, n), ETA_EQUALS_X)[0]
        for n in (16, 32, 64)
    }
    r1 = np.max(np.abs(ends[16] - ends[32])) / np.max(np.abs(ends[32] - ends[64]))
    ends2 = {
        n: rk4_coefficients(params, mult, make_grid(params.T, n), ETA_EQUALS_X)[0]
        for n in (32, 64, 128)
    }
    r2 = np.max(np.abs(ends2[32] - ends2[64])) / np.max(np.abs(ends2[64] - ends2[128]))
    ok = 8.0 <= r1 <= 32.0 and 8.0 <= r2 <= 32.0
    _report(3, "rk4_order", ok, f"halving ratios {r1:.1f}, {r2:.1f} in [8, 32]",
            time.time() - t0, 5.0)


def test_criterion_4_analytic_variance_oracle():
    t0 = time.time()
    params = dataclasses.replace(LqParams(**REF), b=0.0)
    mult = from_case("iv", 0.1, math.pi / 2)
    a, sigma, T = params.a, params.sigma, params.T
    target = sigma**2 * (math.exp(2 * a * T) - 1.0) / (2 * a)
    passes = 0
    for seed in (1, 2, 3, 4, 5):
        ev = evaluate_contract(params, mult, 100_000, 64, seed, ETA_EQUALS_X)
        if abs(ev.var_xt - target) <= 3 * ev.var_xt_se:
            passes += 1
    _report(4, "analytic_variance_oracle", passes >= 4,
            f"{passes}/5 seeds within 3 standard errors of {target:.6f}",
            time.time() - t0, 20.0)


def test_criterion_5_argmax_invariance():
    t0 = time.time()
    params = LqParams(**REF)
    rng = np.random.default_rng(55)
    step = 0.004
    worst_e = worst_s = 0.0
    for _ in range(1000):
        x, p, q, s, R, P1, P2, Q1, Q2 = rng.uniform(-1.0, 1.0, size=9)
        lam_P = rng.uniform(0.05, 1.0)
        lam_E = rng.uniform(-1.0, 1.0)

        e_bar = optimal_effort(params.b, p, s)
        e_grid = np.arange(e_bar - 2.0 + step / 3, e_bar + 2.0, step)
        e_hat = e_grid[np.argmax(agent_hamiltonian(params, x, e_grid, p, q, s))]
        worst_e = max(worst_e, abs(e_hat - e_bar))

        s_bar = optimal_cashflow(params.b, P1, P2, lam_P, AS_PRINTED)
        s_grid = np.arange(s_bar - 2.0 + step / 3, s_bar + 2.0, step)
        values = principal_hamiltonian(
            params, x, p, s_grid, R, P1, P2, Q1, Q2, lam_E, lam_P, AS_PRINTED
        )
        s_hat = s_grid[np.argmax(values)]
        worst_s = max(worst_s, abs(s_hat - s_bar))
    ok = worst_e <= step and worst_s <= step
    _report(5, "argmax_invariance", ok,
            f"1000 draws, max effort gap {worst_e:.2e}, max cash-flow gap "
            f"{worst_s:.2e}, cell {step:g}", time.time() - t0, 5.0)


def test_criterion_6_girsanov_martingale_and_measure_change():
    t0 = time.time()
    sigma, T, b = 1.0, 0.03, 1.0
    n = 100_000
    grid = make_grid(T, 64)
    ok = True
    details = []
    for i, theta in enumerate((0.5, 1.0, 2.0)):
        noise = sample_noise(grid, n, seed=300 + i)
        x_paths = euler_maruyama(lambda X, t: 0.0, lambda X, t: sigma, 0.0, noise)
        density = simulate_density(lambda x, t: theta, noise, x_paths)
        g = density.terminal
        se = g.std(ddof=1) / math.sqrt(n)
        mart_ok = abs(g.mean() - 1.0) <= 3 * se

        weak_est, weak_se = montecarlo._mean_and_se(g * x_paths.states[:, -1, 0])
        strong_noise = sample_noise(grid, n, seed=400 + i)
        e0 = theta * sigma / b
        strong = euler_maruyama(lambda X, t: b * e0, lambda X, t: sigma, 0.0,
                                strong_noise)
        s_T = strong.states[:, -1, 0]
        band = 3 * math.sqrt(weak_se**2 + (s_T.std(ddof=1) / math.sqrt(n)) ** 2)
        ws_ok = abs(weak_est - s_T.mean()) <= band
        ok = ok and mart_ok and ws_ok
        details.append(f"theta={theta}: E[Gamma]={g.mean():.4f}(3se={3*se:.1e}) "
                       f"weak-strong gap={abs(weak_est - s_T.mean()):.1e}<= {band:.1e}")
    _report(6, "girsanov_martingale", ok, "; ".join(details), time.time() - t0, 30.0)


def test_criterion_7_sweep_reproduction(tmp_path):
    t0 = time.time()
    lam_ps = list(np.linspace(0.1, 0.9, 9))
    thetas = list(np.linspace(0.0, math.pi / 2, 10))
    triples = sweep_grid("iv", lam_ps, thetas)
    assert len(triples) == 90
    seed = 7
    config_text = (
        f"a = 1.0\nb = 1.0\nsigma = 1.0\nalpha = 0.2\nbeta = 1.0\nT = 0.03\n"
        f"case = iv\nlambda_P = 0.1:0.9:9\ntheta = 0.0:{math.pi/2!r}:10\n"
        f"n_paths = 100000\nn_steps = 64\nseed = {seed}\n"
        f"p2_drift_mode = eta_equals_x\n"
    )
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(config_text)
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r1")]) == 0
    assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "r2")]) == 0
    b1 = (tmp_path / "r1" / "eval.csv").read_bytes()
    b2 = (tmp_path / "r2" / "eval.csv").read_bytes()
    # the first run's estimates, read back from its rows: every float is
    # written with repr, so it parses to the same bits
    rows = [line.split(",") for line in b1.decode().splitlines()[2:]]
    grid_ok = [(float(r[0]), float(r[1])) for r in rows] == [(t.lam_P, t.theta) for t in triples]
    stats = np.array([[float(v) for v in r[4:10]] for r in rows])  # J_A .. var_xT_se
    finite = bool(np.isfinite(stats).all())
    var_ok = bool((stats[:, 4] >= 0.0).all())
    ok = finite and var_ok and grid_ok and b1 == b2 and len(rows) == 90
    _report(7, "sweep_reproduction", ok,
            f"90 points on the linspace grid={grid_ok}, finite={finite}, var>=0={var_ok}, "
            f"CSV byte-identical={b1 == b2}",
            time.time() - t0, 600.0)


def test_criterion_8_multiplier_normalization():
    t0 = time.time()
    rng = np.random.default_rng(88)
    cases = ("i", "ii", "iii", "iv", "v")
    worst = 0.0
    signs_ok = True
    for _ in range(10_000):
        case = cases[rng.integers(5)]
        lam_P = float(rng.uniform(0.0, 1.0))
        if case == "iii":
            t = from_case(case, lam_P, float(rng.uniform(-math.pi / 2, 0.0)))
        elif case == "iv":
            t = from_case(case, lam_P, float(rng.uniform(0.0, math.pi / 2)))
        else:
            t = from_case(case, lam_P)
        worst = max(worst, abs(t.lam_P**2 + t.lam_E**2 + t.lam_V**2 - 1.0))
        if case == "i":
            signs_ok &= t.lam_E == 0.0 and (lam_P == 1.0 or t.lam_V > 0.0)
        if case == "ii":
            signs_ok &= t.lam_E == 0.0 and (lam_P == 1.0 or t.lam_V < 0.0)
    ok = worst <= 1e-12 and signs_ok
    _report(8, "multiplier_normalization", ok,
            f"1e4 draws, max |norm-1|={worst:.2e} tol=1e-12, signs ok={signs_ok}",
            time.time() - t0, 2.0)


def test_criterion_9_clt_scaling():
    t0 = time.time()
    params = LqParams(**REF)
    mult = from_case("iv", 0.1, math.pi / 2)
    ses = [
        evaluate_contract(params, mult, n, 64, seed=99, p2_drift_mode=ETA_EQUALS_X).j_p_se
        for n in (12_500, 25_000, 50_000, 100_000)
    ]
    ratios = [ses[i] / ses[i + 1] for i in range(3)]
    ok = all(1.2 <= r <= 1.7 for r in ratios)
    _report(9, "clt_scaling", ok,
            f"J_P se doubling ratios {[f'{r:.3f}' for r in ratios]} in [1.2, 1.7]",
            time.time() - t0, 60.0)
