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
backward system into twelve coupled scalar ODEs integrated here with
fixed-step classical RK4 from the terminal values down to 0.  Matching dW
terms pins the noise loadings pointwise: q = A11 sigma, Q1 = A12 sigma,
Q2 = A13 sigma.

Since x(0) = R(0) = 0 and the averaged closed loop is linear and
homogeneous, E[x] = E[R] = 0 on the whole horizon.  The mean blocks (A2j,
B2j) are still integrated, as part of the twelve-coefficient system, but
the closed loop, the residual oracle and ``explicit_R`` read only the state
blocks (A1j, B1j).

The derivation is validated empirically by ``ansatz_residual``: along
simulated closed-loop paths, the discrete drift of each reconstructed
adjoint component (finite difference minus its dW-matched diffusion term)
must converge to the drift prescribed by the backward equations as the step
shrinks.
"""

import math
from dataclasses import dataclass, field
from typing import Dict

import numpy as np

from .errors import DegenerateMultiplierError, RiccatiBlowUpError
from .model import AS_PRINTED, MIN_LAMBDA_P, LqParams, cashflow_weights, check_mode
from .multipliers import MultiplierTriple
from .sde import PathEnsemble
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


def _rhs(y, a, b, b2, lam_P, lam_E, c1, c2):
    """Forward-time derivative of the twelve coefficients, on plain floats."""
    (A11, A21, B11, B21,
     A12, A22, B12, B22,
     A13, A23, B13, B23) = y

    # cash-flow weights on (x, R, E[x], E[R])
    Sx = (c1 * A12 + c2 * A13) / lam_P
    SR = (c1 * B12 + c2 * B13) / lam_P
    Smx = (c1 * A22 + c2 * A23) / lam_P
    SmR = (c1 * B22 + c2 * B23) / lam_P

    # x-drift weights: a x + b^2 p + b s_bar expanded over (x, R, E[x], E[R])
    Fxx = a + b2 * A11 + b * Sx
    FxR = b2 * B11 + b * SR
    Fxmx = b2 * A21 + b * Smx
    FxmR = b2 * B21 + b * SmR

    # R-drift weights: a R - b^2 (P1 + P2) + lambda_E b^2 p
    GRx = b2 * (lam_E * A11 - A12 - A13)
    GRR = a + b2 * (lam_E * B11 - B12 - B13)
    GRmx = b2 * (lam_E * A21 - A22 - A23)
    GRmR = b2 * (lam_E * B21 - B22 - B23)

    # averaged dynamics close the mean terms
    Mxx, MxR = Fxx + Fxmx, FxR + FxmR
    MRx, MRR = GRx + GRmx, GRR + GRmR

    return (
        # p-block: drift of p must equal -a p
        -a * A11 - (A11 * Fxx + B11 * GRx),
        -a * A21 - (A11 * Fxmx + B11 * GRmx + A21 * Mxx + B21 * MRx),
        -a * B11 - (A11 * FxR + B11 * GRR),
        -a * B21 - (A11 * FxmR + B11 * GRmR + A21 * MxR + B21 * MRR),
        # P1-block: drift of P1 must equal -a (P1 + P2)
        -a * (A12 + A13) - (A12 * Fxx + B12 * GRx),
        -a * (A22 + A23) - (A12 * Fxmx + B12 * GRmx + A22 * Mxx + B22 * MRx),
        -a * (B12 + B13) - (A12 * FxR + B12 * GRR),
        -a * (B22 + B23) - (A12 * FxmR + B12 * GRmR + A22 * MxR + B22 * MRR),
        # P2-block: drift of P2 must vanish
        -(A13 * Fxx + B13 * GRx),
        -(A13 * Fxmx + B13 * GRmx + A23 * Mxx + B23 * MRx),
        -(A13 * FxR + B13 * GRR),
        -(A13 * FxmR + B13 * GRmR + A23 * MxR + B23 * MRR),
    )


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
    """Integrate the twelve coefficient ODEs backward from t = T to 0.

    Classical fixed-step RK4 on the shared grid, on plain floats through the
    one right-hand side ``_rhs``, and bit-identical to the same loop on its
    array form; the terminal node holds the terminal conditions exactly.  Trajectories
    exceeding ``blow_up_bound`` (> 0) in magnitude (or turning non-finite)
    raise ``RiccatiBlowUpError`` carrying the time at which the bound was
    crossed: for strongly self-reinforcing cash-flow feedback (small lambda_P
    in ``as_printed`` mode) the system has a genuine finite-time blow-up and
    must fail loudly rather than clip.
    """
    check_mode(p2_drift_mode)
    if not blow_up_bound > 0.0:
        raise ValueError(f"blow_up_bound must be positive, got {blow_up_bound!r}")
    if mult.lam_P < MIN_LAMBDA_P:
        raise DegenerateMultiplierError(
            f"lambda_P = {mult.lam_P:g} is below the floor {MIN_LAMBDA_P:g}"
        )
    b, (c1, c2) = params.b, cashflow_weights(params.b, p2_drift_mode)
    args = (params.a, b, b * b, mult.lam_P, mult.lam_E, c1, c2)
    coeffs = np.empty((grid.n_points, 12))
    coeffs[-1] = terminal_conditions(params, mult)
    y, h = coeffs[-1].tolist(), -float(grid.dt)
    h2, h6 = 0.5 * h, h / 6.0
    for k in range(grid.n_steps, 0, -1):
        k1 = _rhs(y, *args)
        k2 = _rhs([u + h2 * d for u, d in zip(y, k1)], *args)
        k3 = _rhs([u + h2 * d for u, d in zip(y, k2)], *args)
        k4 = _rhs([u + h * d for u, d in zip(y, k3)], *args)
        y = [u + h6 * (d1 + 2.0 * d2 + 2.0 * d3 + d4)
             for u, d1, d2, d3, d4 in zip(y, k1, k2, k3, k4)]
        # isfinite first: max() over a NaN depends on order, abs(inf) > inf is false
        if not all(map(math.isfinite, y)) or max(map(abs, y)) > blow_up_bound:
            raise RiccatiBlowUpError(t=grid.points[k - 1], bound=blow_up_bound)
        coeffs[k - 1] = y
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

    with s_bar = Sx x + SR R.  Along the optimal pair s - e = -b p, so the
    agent's running cost (s - e)^2 dt / 2 is the square of the first pair's
    combination.  ``rows`` is one read-only (n_steps, 8) array, so row k's
    x-loadings are ``rows[k, 0::2]`` and its R-loadings ``rows[k, 1::2]``;
    ``montecarlo`` steps the paths on them.
    """

    sol: RiccatiSolution
    rows: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        sol = self.sol
        a, b = sol.params.a, sol.params.b
        b2 = b * b
        c1, c2 = cashflow_weights(b, sol.p2_drift_mode)
        lam_P, lam_E = sol.multipliers.lam_P, sol.multipliers.lam_E
        n = sol.grid.n_steps
        A11, B11, A12, B12, A13, B13 = (
            sol.column(name)[:n] for name in ("A11", "B11", "A12", "B12", "A13", "B13")
        )
        h = math.sqrt(0.5 * sol.grid.dt)
        Sx = (c1 * A12 + c2 * A13) / lam_P
        SR = (c1 * B12 + c2 * B13) / lam_P
        rows = np.column_stack((
            h * b * A11, h * b * B11, h * Sx, h * SR,
            a + b2 * A11 + b * Sx, b2 * B11 + b * SR,
            b2 * (lam_E * A11 - A12 - A13), a + b2 * (lam_E * B11 - B12 - B13),
        ))
        rows.flags.writeable = False
        object.__setattr__(self, "rows", rows)


@dataclass(frozen=True)
class ComponentResidual:
    max_abs: float
    mean_abs: float
    drift_scale: float  # sup of the prescribed drift magnitude over the ensemble


@dataclass(frozen=True)
class ResidualReport:
    """Drift residuals of the reconstructed adjoint components along paths."""

    n_paths: int
    n_steps: int
    components: Dict[str, ComponentResidual] = field(default_factory=dict)

    @property
    def max_residual(self) -> float:
        return max(c.max_abs for c in self.components.values())


#: (node, path) elements per tile of ``ansatz_residual``, a run of nodes over
#: the full, contiguous path rows of the step-major states and increments:
#: its temporaries (256 kB each) stay in L2.
_RESIDUAL_TILE = 2**15


def ansatz_residual(sol: RiccatiSolution, paths: PathEnsemble) -> ResidualReport:
    """Check the coefficient solution against the backward drift relations.

    For each adjoint component Z in {p, P1, P2}, reconstructed on the path
    grid from the coefficients, the discrete drift

        (Z_{k+1} - Z_k - D_{k+1} dW_k) / dt,

    with D the dW-matched loading (A11 sigma, A12 sigma, A13 sigma evaluated
    at the right endpoint, which cancels the increment contribution exactly),
    is compared with the prescribed drift (-a p, -a (P1 + P2), 0 evaluated at
    the left endpoint).  If the twelve ODEs are the correct coefficient
    matching, the residual is O(dt); a wrong coefficient trajectory leaves an
    O(1) mismatch.  Residuals are reported in drift units (state per time).

    The formula runs step-major, in tiles of consecutive nodes over every
    path, of about ``_RESIDUAL_TILE`` elements.  Each element depends on its
    own path and step only, so the maxima are those of the whole ensemble;
    ``mean_abs`` sums the tiles' sums.
    """
    if paths.grid != sol.grid:
        raise ValueError("paths and coefficient solution live on different grids")
    if paths.noise is None:
        raise ValueError("paths must carry their driving noise increments")

    a = sol.params.a
    sigma = sol.params.sigma
    dt = sol.grid.dt
    # step-major: one row per node (states and coefficients) or step (dW)
    X, R = paths.component("x").T, paths.component("R").T
    dW = paths.noise.increments.T
    c = {name: sol.coeffs[:, i, None] for name, i in _IDX.items()}

    names = ("p", "P1", "P2")
    loads = [c[name][1:] * sigma for name in ("A11", "A12", "A13")]
    # per component, one entry a tile: max |resid|, sum |resid| and
    # max |prescribed|, which stays 0 for P2
    stats = {name: ([], [], [0.0]) for name in names}
    tile = max(1, _RESIDUAL_TILE // paths.n_paths)
    for lo in range(0, sol.grid.n_steps, tile):
        # steps [lo, lo + tile) read nodes [lo, lo + tile]
        nodes, steps = slice(lo, lo + tile + 1), slice(lo, lo + tile)
        P = c["A11"][nodes] * X[nodes] + c["B11"][nodes] * R[nodes]
        P1 = c["A12"][nodes] * X[nodes] + c["B12"][nodes] * R[nodes]
        P2 = c["A13"][nodes] * X[nodes] + c["B13"][nodes] * R[nodes]
        # P2's prescribed drift is 0, and subtracting 0 changes no residual
        prescribed = (-a * P, -a * (P1 + P2), None)
        for name, Z, load, drift in zip(names, (P, P1, P2), loads, prescribed):
            maxima, sums, scales = stats[name]
            resid = (Z[1:] - Z[:-1] - load[steps] * dW[steps]) / dt
            if drift is not None:
                resid -= drift[:-1]
                scales.append(np.abs(drift).max())
            np.abs(resid, out=resid)
            maxima.append(resid.max())
            sums.append(resid.sum())
    n_resid = paths.n_paths * sol.grid.n_steps
    # np.max, unlike max(), propagates a NaN
    components = {
        name: ComponentResidual(
            max_abs=float(np.max(maxima)), mean_abs=float(np.sum(sums)) / n_resid,
            drift_scale=float(np.max(scales)),
        )
        for name, (maxima, sums, scales) in stats.items()
    }
    return ResidualReport(
        n_paths=paths.n_paths, n_steps=sol.grid.n_steps, components=components
    )


def explicit_R(sol: RiccatiSolution, x_path: np.ndarray) -> np.ndarray:
    """Integrating-factor solution of the R-equation driven by a given x path.

    Under the coefficient representation the R-dynamics reduce to the linear
    scalar ODE

        dR/dt + c(t) R = k(t) x(t),   R(0) = 0,

    with c = b^2 B12 + b^2 B13 - lambda_E b^2 B11 - a and
    k = lambda_E b^2 A11 - b^2 A12 - b^2 A13 (the mean terms vanish because
    the averaged state is identically zero).  The solution

        R(t) = exp(-C(t)) * integral_0^t exp(C(s)) k(s) x(s) ds,
        C(t) = integral_0^t c(s) ds,

    is evaluated with composite trapezoidal quadrature on the grid.  R(t)
    depends only on x up to time t, so the result is adapted to the output
    history.
    """
    x = np.asarray(x_path, dtype=np.float64)
    if x.shape[-1] != sol.grid.n_points:
        raise ValueError(
            f"x_path has {x.shape[-1]} time points, grid has {sol.grid.n_points}"
        )
    b2 = sol.params.b ** 2
    lam_E = sol.multipliers.lam_E
    B11, B12, B13 = sol.column("B11"), sol.column("B12"), sol.column("B13")
    A11, A12, A13 = sol.column("A11"), sol.column("A12"), sol.column("A13")
    decay = b2 * B12 + b2 * B13 - lam_E * b2 * B11 - sol.params.a
    forcing = lam_E * b2 * A11 - b2 * A12 - b2 * A13

    dt = sol.grid.dt
    C = np.concatenate([[0.0], np.cumsum(0.5 * (decay[1:] + decay[:-1]) * dt)])
    integrand = np.exp(C) * forcing * x
    inner = np.cumsum(0.5 * (integrand[..., 1:] + integrand[..., :-1]) * dt, axis=-1)
    result = np.empty_like(x)
    result[..., 0] = 0.0
    result[..., 1:] = np.exp(-C[1:]) * inner
    return result
