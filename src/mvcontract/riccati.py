"""Backward coefficient system for the linear adjoint representation.

Along the optimal contract the controlled state (x, R) and the adjoint
processes (p, P1, P2) with noise loadings (q, Q1, Q2) satisfy

    dx  = (a x + b^2 p + b s_bar) dt + sigma dW,          x(0) = 0,
    dR  = (a R - b^2 (P1 + P2) + lambda_E b^2 p) dt,      R(0) = 0,
    dp  = -a p dt + q dW,                                 p(T)  = alpha x(T),
    dP1 = -a (P1 + P2) dt + Q1 dW,   P1(T) = -alpha R(T) + (alpha lambda_E + beta lambda_P) x(T),
    dP2 = Q2 dW,                     P2(T) = 2 lambda_V (E[x(T)] - x(T)),

with the optimal cash-flow s_bar = (c1 P1 + c2 P2) / lambda_P substituted
into the x-drift (the weights c1, c2 depend on the P2 coupling convention,
see ``model.P2_DRIFT_MODES``).  Writing each adjoint component as a linear
combination of the state and its mean,

    p  = A11 x + B11 R + A21 E[x] + B21 E[R],
    P1 = A12 x + B12 R + A22 E[x] + B22 E[R],
    P2 = A13 x + B13 R + A23 E[x] + B23 E[R],

applying Ito's formula, closing E[x], E[R] with the averaged dynamics, and
matching the coefficients of x, R, E[x], E[R] in the dt terms turns the
backward system into twelve coupled scalar Riccati equations.  Matching dW
terms pins the noise loadings pointwise: q = A11 sigma, Q1 = A12 sigma,
Q2 = A13 sigma.

They are solved exactly, by Radon's lemma (Reid, *Riccati Differential
Equations*, 1972).  The state blocks K = [[A11, B11], [A12, B12], [A13, B13]]
form a closed subsystem

    K' = -M K - K (a I + B K),   M = [[a, 0, 0], [0, a, a], [0, 0, 0]],
    B = [[b^2, b c1 / lambda_P, b c2 / lambda_P], [lambda_E b^2, -b^2, -b^2]],

so K = V U^-1 with V' = -M V and U' = a U + B V, from V(T) = K(T) and
U(T) = I.  Both are linear with constant coefficients; with tau = T - t,

    V = exp(M tau) K(T),   exp(M tau) = [[e, 0, 0], [0, e, e - 1], [0, 0, 1]],
    U = exp(-a tau) (I - I2 P - I1 Q),   P = B J2 K(T),   Q = B J1 K(T),
    J2 = [[1, 0, 0], [0, 1, 1], [0, 0, 0]],   J1 = [[0, 0, 0], [0, 0, -1], [0, 0, 1]],

where e = exp(a tau), I1 = expm1(a tau) / a and I2 = expm1(2 a tau) / (2 a),
both tau when a = 0; J = I2 J2 + I1 J1 is the integral of exp(a s) exp(M s)
over [0, tau].  P and Q are formed once per terminal block, and the node
solve and the pole search read U in this one form.  ``integrate_riccati``
multiplies V and U by exp(-|a| tau), which changes neither K nor the sign of
det U and keeps every entry near the size of the data at any |a| T; I1 and I2
are then taken at -|a|.  U is divided by its largest entry before the 2x2
inverse, so that det U cannot underflow where K is finite.  The sums of the
state and mean blocks, K_s + K_m, solve the same equation from
K_s(T) + K_m(T), so the mean blocks (A2j, B2j) are the difference of two
such solutions.

The solution exists back to t only while det U stays positive on [t, T]:
where det U vanishes, K has a pole.  With u = I1 (taken at -|a|), which
grows with tau, every entry of U is a quadratic in u, so det U is a quartic;
``_first_pole`` finds its first sign change through the sign changes of its
derivatives, so two poles between the same two nodes do not hide each other.

Since x(0) = R(0) = 0 and the averaged closed loop is linear and
homogeneous, E[x] = E[R] = 0 on the whole horizon.  The mean blocks are
still solved, as part of the twelve-coefficient system, but the closed
loop and the checks read only the state blocks (A1j, B1j).

The derivation is validated empirically by the residual oracle of
``checks``: along simulated closed-loop paths, the discrete drift of each
reconstructed adjoint component (finite difference minus its dW-matched
diffusion term) must converge to the drift prescribed by the backward
equations as the step shrinks.  The oracle folds that residual into the
closed-loop step, one node at a time, so no path is recorded.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import DegenerateMultiplierError, RiccatiBlowUpError
from .model import AS_PRINTED, MIN_LAMBDA_P, LqParams, cashflow_weights, optimal_cashflow
from .multipliers import MultiplierTriple
from .timegrid import TimeGrid

#: Storage order of the coefficient columns.
COEFF_NAMES = (
    "A11", "A21", "B11", "B21",
    "A12", "A22", "B12", "B22",
    "A13", "A23", "B13", "B23",
)

_IDX = {name: i for i, name in enumerate(COEFF_NAMES)}

DEFAULT_BLOW_UP_BOUND = 1e8


def terminal_conditions(params: LqParams, mult: MultiplierTriple) -> np.ndarray:
    """Terminal coefficient values, in ``COEFF_NAMES`` order."""
    y = np.zeros(12)
    y[_IDX["A11"]] = params.alpha
    y[_IDX["A12"]] = params.alpha * mult.lam_E + params.beta * mult.lam_P
    y[_IDX["B12"]] = -params.alpha
    y[_IDX["A13"]] = -2.0 * mult.lam_V
    y[_IDX["A23"]] = 2.0 * mult.lam_V
    return y


def _scaled_terms(a, tau):
    """The terms of V and of U at backward times ``tau``, nodes or one float.

    V has (g, h, w) in the places of (e, e - 1, 1) in exp(M tau), and U is
    ``_u`` of (d, I2, j1), both times exp(-|a| tau); (d, I2, j1) come with
    their first two derivatives in u = I1 at -|a|, where w = 1 - |a| u.
    """
    u, i2 = (np.expm1(-m * abs(a) * tau) / (-m * abs(a)) if a else tau for m in (1.0, 2.0))
    w = np.exp(-abs(a) * tau)
    if a > 0.0:  # times 1 / e: d = w^2, j1 = w u
        return (1.0, a * u, w), ((w * w, i2, w * u), (-2.0 * a * w, w, w - a * u),
                                 (2.0 * a * a, -a, -2.0 * a))
    return (w * w, a * w * u, w), ((1.0, i2, u), (0.0, w, 1.0), (0.0, a, 0.0))  # times e


def _u(P, Q, d, i2, j1):
    """U = d I - i2 P - j1 Q, for node columns or floats (d, i2, j1)."""
    return [[d * (r == c) - i2 * P[r][c] - j1 * Q[r][c] for c in (0, 1)] for r in (0, 1)]


def _radon_solve(P, Q, KT, exp_terms, u_terms):
    """K = V U^-1 from the terminal block ``KT``, as rows of (A, B) columns.

    U is divided by its largest entry first, so that det U cannot underflow
    where K is finite (with b = 0, U is exp(-2 a tau) I for a > 0).
    """
    g, h, w = exp_terms
    (k00, k01), (k10, k11), (k20, k21) = KT
    V = ((g * k00, g * k01), (g * k10 + h * k20, g * k11 + h * k21), (w * k20, w * k21))
    (u00, u01), (u10, u11) = U = _u(P, Q, *u_terms)
    scale = np.maximum(np.maximum(abs(u00), abs(u01)), np.maximum(abs(u10), abs(u11)))
    for row in U:
        for u in row:
            u /= scale
    det = (u00 * u11 - u01 * u10) * scale
    return [((v0 * u11 - v1 * u10) / det, (v1 * u00 - v0 * u01) / det) for v0, v1 in V]


def _sign_changes(fs, lo, hi):
    """The points of [lo, hi] where ``fs[0]`` changes sign, ascending.

    Each of ``fs[1:]`` changes sign where the derivative of the one before
    does, so ``fs[0]`` is monotone between the sign changes of ``fs[1]``:
    each such piece holds at most one, which bisection brings down to the
    float just past it.  The last of ``fs`` is monotone on [lo, hi].
    """
    f = fs[0]
    knots = [lo, *(_sign_changes(fs[1:], lo, hi) if len(fs) > 1 else ()), hi]
    changes = []
    for x0, x1 in zip(knots, knots[1:]):
        below = f(x0) < 0.0
        if below != (f(x1) < 0.0):
            while x0 < (mid := 0.5 * (x0 + x1)) < x1:
                x0, x1 = (mid, x1) if (f(mid) < 0.0) == below else (x0, mid)
            changes.append(x1)
    return changes


def _first_pole(a, P, Q, tau_end):
    """The smallest tau in [0, tau_end] where det U < 0, or None.

    In u = I1 (taken at -|a|), which grows with tau, the terms (d, I2, j1)
    of U = d I - I2 P - j1 Q are quadratics, and so are its entries.  So
    det U is a quartic in u, and its m-th u-derivative follows from the
    first two of the terms by Leibniz' rule; the fifth vanishes.  Each is
    formed from w and u at tau, never from expanded coefficients, which
    would cancel where det U is small.
    """
    def det_derivative(m):
        def f(tau):
            U = [_u(P, Q, *terms) for terms in _scaled_terms(a, tau)[1]]  # and its u-derivatives
            return sum(math.comb(m, k) * (U[k][0][0] * U[m - k][1][1]
                                          - U[k][0][1] * U[m - k][1][0])
                       for k in range(max(0, m - 2), min(m, 2) + 1))
        return f

    changes = _sign_changes([det_derivative(m) for m in range(5)], 0.0, float(tau_end))
    return changes[0] if changes else None


@dataclass(frozen=True)
class RiccatiSolution:
    """The twelve coefficient trajectories on a grid, plus their context."""

    grid: TimeGrid
    params: LqParams
    multipliers: MultiplierTriple
    coeffs: np.ndarray  # shape (n_points, 12), columns in COEFF_NAMES order
    p2_drift_mode: str = AS_PRINTED

    def __post_init__(self):
        if self.coeffs.shape != (self.grid.n_points, 12):
            raise ValueError(
                f"coefficient array shape {self.coeffs.shape} does not match "
                f"({self.grid.n_points}, 12)"
            )
        self.coeffs.flags.writeable = False

    def column(self, name: str) -> np.ndarray:
        return self.coeffs[:, _IDX[name]]

    @property
    def terminal_values(self) -> np.ndarray:
        return self.coeffs[-1]


def integrate_riccati(
    params: LqParams,
    mult: MultiplierTriple,
    grid: TimeGrid,
    p2_drift_mode: str = AS_PRINTED,
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> RiccatiSolution:
    """Solve the twelve coefficient equations backward from t = T to 0.

    Exact, at every node at once, by the closed form in the module
    docstring: once for the state blocks and once for the sums with the mean
    blocks.  Elementwise numpy on the node columns with the explicit 2x2
    inverse, so no BLAS call touches the table; the terminal node holds the
    terminal conditions exactly.

    A node below T fails if a coefficient there is non-finite or exceeds
    ``blow_up_bound`` (> 0) in magnitude, or if it lies beyond the first
    pole t*, the first zero of det U of either solution below T.  The
    failing node nearest T raises ``RiccatiBlowUpError`` with its time and,
    when it lies beyond the pole, ``t_star``.  For strongly self-reinforcing
    cash-flow feedback (small lambda_P in ``as_printed`` mode) the system
    has a genuine finite-time blow-up and must fail loudly rather than clip.
    """
    if not blow_up_bound > 0.0:
        raise ValueError(f"blow_up_bound must be positive, got {blow_up_bound!r}")
    if mult.lam_P < MIN_LAMBDA_P:
        raise DegenerateMultiplierError(
            f"lambda_P = {mult.lam_P:g} is below the floor {MIN_LAMBDA_P:g}"
        )
    a, b = params.a, params.b
    c1, c2 = cashflow_weights(b, p2_drift_mode)
    lam_P, lam_E = mult.lam_P, mult.lam_E
    B = ((b * b, b * c1 / lam_P, b * c2 / lam_P), (lam_E * b * b, -b * b, -b * b))
    yT = terminal_conditions(params, mult).tolist()
    KT_s = [[yT[_IDX[f"{ab}1{j}"]] for ab in "AB"] for j in (1, 2, 3)]
    KT_tot = [[yT[_IDX[f"{ab}1{j}"]] + yT[_IDX[f"{ab}2{j}"]] for ab in "AB"] for j in (1, 2, 3)]
    tau = np.arange(grid.n_steps, -1, -1) * grid.dt
    exp_terms, (u_terms, *_) = _scaled_terms(a, tau)
    coeffs = np.empty((grid.n_points, 12))
    poles = []
    with np.errstate(all="ignore"):
        for block, KT in ((1, KT_s), (2, KT_tot)):
            # P = B J2 KT and Q = B J1 KT, over the columns (k0, k1, k2) of KT
            P = [[Br[0] * k0 + Br[1] * (k1 + k2) for k0, k1, k2 in zip(*KT)] for Br in B]
            Q = [[Br[1] * -k2 + Br[2] * k2 for _, _, k2 in zip(*KT)] for Br in B]
            for j, row in enumerate(_radon_solve(P, Q, KT, exp_terms, u_terms), 1):
                for ab, K in zip("AB", row):
                    if block == 2:  # the mean block: K_tot - K_s
                        K -= coeffs[:, _IDX[f"{ab}1{j}"]]
                    coeffs[:, _IDX[f"{ab}{block}{j}"]] = K
            poles.append(_first_pole(a, P, Q, tau[0]))
    tau_star = min((p for p in poles if p is not None), default=math.inf)
    body = coeffs[:-1]
    # NaN and inf fail no comparison with an infinite bound
    failed = (~np.isfinite(body).all(axis=1) | (body > blow_up_bound).any(axis=1)
              | (body < -blow_up_bound).any(axis=1) | (tau[:-1] >= tau_star))
    bad = np.flatnonzero(failed)
    if bad.size:
        k = int(bad[-1])
        t_star = grid.t_end - tau_star if tau[k] >= tau_star else None
        raise RiccatiBlowUpError(t=grid.points[k], bound=blow_up_bound, t_star=t_star)
    coeffs[-1] = yT
    return RiccatiSolution(
        grid=grid,
        params=params,
        multipliers=mult,
        coeffs=coeffs,
        p2_drift_mode=p2_drift_mode,
    )


@dataclass(frozen=True)
class ClosedLoopField:
    """The closed loop of (x, R) with the optimal controls substituted.

    With the means vanishing, every control and drift at a node is linear in
    (x, R), so the loop is one table of per-node rows, built once per solve
    from the state blocks (A1j, B1j) of each left-endpoint node k < n_steps:

        (sqrt(dt/2) b A11, sqrt(dt/2) b B11,   loadings of sqrt(dt/2) b p,
         sqrt(dt/2) Sx,    sqrt(dt/2) SR,      loadings of sqrt(dt/2) s_bar,
         Fxx, FxR,                             x-drift a x + b^2 p + b s_bar,
         GRx, GRR)                             R-drift a R - b^2 (P1 + P2) + lambda_E b^2 p,

    with s_bar = Sx x + SR R, where Sx and SR are ``model.optimal_cashflow``
    of (A12, A13) and (B12, B13), so a lambda_P below its floor raises
    ``DegenerateMultiplierError`` here.  Along the optimal pair s - e = -b p,
    so the agent's running cost (s - e)^2 dt / 2 is the square of the first
    pair's combination.  ``rows`` is one read-only (n_steps, 8) array, so
    row k's x-loadings are ``rows[k, 0::2]`` and its R-loadings
    ``rows[k, 1::2]``; ``montecarlo`` steps the paths on them.
    """

    sol: RiccatiSolution
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sol = self.sol
        a, b = sol.params.a, sol.params.b
        b2 = b * b
        lam_P, lam_E = sol.multipliers.lam_P, sol.multipliers.lam_E
        n = sol.grid.n_steps
        A11, B11, A12, B12, A13, B13 = (
            sol.column(name)[:n] for name in ("A11", "B11", "A12", "B12", "A13", "B13")
        )
        h = math.sqrt(0.5 * sol.grid.dt)
        Sx, SR = (optimal_cashflow(b, P1, P2, lam_P, sol.p2_drift_mode)
                  for P1, P2 in ((A12, A13), (B12, B13)))
        rows = np.column_stack((
            h * b * A11, h * b * B11, h * Sx, h * SR,
            a + b2 * A11 + b * Sx, b2 * B11 + b * SR,
            b2 * (lam_E * A11 - A12 - A13), a + b2 * (lam_E * B11 - B12 - B13),
        ))
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)
