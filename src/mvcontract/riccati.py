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

The derivation is validated empirically by ``ansatz_residual``: along
simulated closed-loop paths, the discrete drift of each reconstructed
adjoint component (finite difference minus its dW-matched diffusion term)
must converge to the drift prescribed by the backward equations as the step
shrinks.
"""

from dataclasses import dataclass, field
from typing import Dict, Optional

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


def coefficient_rhs(
    y: np.ndarray, params: LqParams, mult: MultiplierTriple, mode: str = AS_PRINTED
) -> np.ndarray:
    """Forward-time derivative of the twelve coefficients (autonomous)."""
    a, b = params.a, params.b
    lam_P, lam_E = mult.lam_P, mult.lam_E
    c1, c2 = cashflow_weights(b, mode)
    b2 = b * b

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

    return np.array([
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
    ])


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

    def __getattr__(self, name: str) -> np.ndarray:
        if name in _IDX:
            return self.coeffs[:, _IDX[name]]
        raise AttributeError(name)

    @property
    def terminal_values(self) -> np.ndarray:
        return self.coeffs[-1]

    def coeffs_at(self, t: float) -> np.ndarray:
        """All twelve coefficients at time t via piecewise-linear interpolation."""
        return _interp_rows(self.grid, self.coeffs, t)


@dataclass(frozen=True)
class AdjointState:
    """Adjoint values and their noise loadings at one (t, x, R) point.

    Matching the dW terms of the reconstructed processes forces the
    loadings pointwise: q = A11 sigma, Q1 = A12 sigma, Q2 = A13 sigma.
    """

    p: np.ndarray
    P1: np.ndarray
    P2: np.ndarray
    q: np.ndarray
    Q1: np.ndarray
    Q2: np.ndarray


def adjoint_state(
    sol: "RiccatiSolution", t: float, x, R, m_x: float = 0.0, m_R: float = 0.0
) -> AdjointState:
    """Evaluate the adjoint representation at a time and state."""
    row = sol.coeffs_at(t)
    (A11, A21, B11, B21,
     A12, A22, B12, B22,
     A13, A23, B13, B23) = row
    sigma = sol.params.sigma
    return AdjointState(
        p=A11 * x + B11 * R + A21 * m_x + B21 * m_R,
        P1=A12 * x + B12 * R + A22 * m_x + B22 * m_R,
        P2=A13 * x + B13 * R + A23 * m_x + B23 * m_R,
        q=A11 * sigma + 0.0 * np.asarray(x),
        Q1=A12 * sigma + 0.0 * np.asarray(x),
        Q2=A13 * sigma + 0.0 * np.asarray(x),
    )


def _interp_rows(grid: TimeGrid, rows: np.ndarray, t: float) -> np.ndarray:
    dt = grid.dt
    pos = min(max(t / dt, 0.0), float(grid.n_steps))
    k = min(int(pos), grid.n_steps - 1)
    w = pos - k
    if w == 0.0:
        return rows[k]
    return (1.0 - w) * rows[k] + w * rows[k + 1]


def integrate_riccati(
    params: LqParams,
    mult: MultiplierTriple,
    grid: TimeGrid,
    p2_drift_mode: str = AS_PRINTED,
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> RiccatiSolution:
    """Integrate the twelve coefficient ODEs backward from t = T to 0.

    Classical fixed-step RK4 on the shared grid; the terminal node holds the
    terminal conditions exactly.  Trajectories exceeding ``blow_up_bound`` in
    magnitude (or turning non-finite) raise ``RiccatiBlowUpError`` carrying
    the time at which the bound was crossed: for strongly self-reinforcing
    cash-flow feedback (small lambda_P in ``as_printed`` mode) the system has
    a genuine finite-time blow-up and must fail loudly rather than clip.
    """
    check_mode(p2_drift_mode)
    if mult.lam_P < MIN_LAMBDA_P:
        raise DegenerateMultiplierError(
            f"lambda_P = {mult.lam_P:g} is below the floor {MIN_LAMBDA_P:g}"
        )
    coeffs = np.empty((grid.n_points, 12))
    y = terminal_conditions(params, mult)
    coeffs[-1] = y
    h = -grid.dt
    for k in range(grid.n_steps, 0, -1):
        k1 = coefficient_rhs(y, params, mult, p2_drift_mode)
        k2 = coefficient_rhs(y + 0.5 * h * k1, params, mult, p2_drift_mode)
        k3 = coefficient_rhs(y + 0.5 * h * k2, params, mult, p2_drift_mode)
        k4 = coefficient_rhs(y + h * k3, params, mult, p2_drift_mode)
        y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.all(np.isfinite(y)) or np.abs(y).max() > blow_up_bound:
            raise RiccatiBlowUpError(t=grid.points[k - 1], bound=blow_up_bound)
        coeffs[k - 1] = y
    return RiccatiSolution(
        grid=grid,
        params=params,
        multipliers=mult,
        coeffs=coeffs,
        p2_drift_mode=p2_drift_mode,
    )


def mean_matrix(sol: RiccatiSolution, coeff_row: np.ndarray) -> np.ndarray:
    """2x2 drift matrix of (E[x], E[R]) for one coefficient row."""
    a, b = sol.params.a, sol.params.b
    lam_P, lam_E = sol.multipliers.lam_P, sol.multipliers.lam_E
    c1, c2 = cashflow_weights(b, sol.p2_drift_mode)
    b2 = b * b
    (A11, A21, B11, B21,
     A12, A22, B12, B22,
     A13, A23, B13, B23) = coeff_row
    Sx = (c1 * (A12 + A22) + c2 * (A13 + A23)) / lam_P
    SR = (c1 * (B12 + B22) + c2 * (B13 + B23)) / lam_P
    Mxx = a + b2 * (A11 + A21) + b * Sx
    MxR = b2 * (B11 + B21) + b * SR
    MRx = b2 * (lam_E * (A11 + A21) - (A12 + A22) - (A13 + A23))
    MRR = a + b2 * (lam_E * (B11 + B21) - (B12 + B22) - (B13 + B23))
    return np.array([[Mxx, MxR], [MRx, MRR]])


@dataclass(frozen=True)
class MeanTrajectories:
    """Deterministic means E[x], E[R] and the derived control/adjoint means."""

    grid: TimeGrid
    m_x: np.ndarray
    m_R: np.ndarray
    m_p: np.ndarray
    m_P1: np.ndarray
    m_P2: np.ndarray
    m_s: np.ndarray
    m_e: np.ndarray

    def at(self, t: float) -> np.ndarray:
        """(E[x](t), E[R](t)) via piecewise-linear interpolation."""
        rows = np.column_stack([self.m_x, self.m_R])
        return _interp_rows(self.grid, rows, t)


def integrate_means(sol: RiccatiSolution) -> MeanTrajectories:
    """Solve the averaged closed-loop dynamics m' = M(t) m, m(0) = 0.

    RK4 on the shared grid with the coefficient rows linearly interpolated
    at half steps.  For this model the initial state is zero and the mean
    system is linear homogeneous, so the means vanish identically; they are
    still integrated (not hardwired) so that the closure is exercised and
    cross-checked against the Monte-Carlo ensemble average.
    """
    grid = sol.grid
    n = grid.n_points
    m = np.zeros((n, 2))
    h = grid.dt
    for k in range(grid.n_steps):
        row0 = sol.coeffs[k]
        row1 = sol.coeffs[k + 1]
        row_half = 0.5 * (row0 + row1)
        M0 = mean_matrix(sol, row0)
        Mh = mean_matrix(sol, row_half)
        M1 = mean_matrix(sol, row1)
        y = m[k]
        k1 = M0 @ y
        k2 = Mh @ (y + 0.5 * h * k1)
        k3 = Mh @ (y + 0.5 * h * k2)
        k4 = M1 @ (y + h * k3)
        m[k + 1] = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)

    m_x, m_R = m[:, 0], m[:, 1]
    c = sol.coeffs
    m_p = (c[:, _IDX["A11"]] + c[:, _IDX["A21"]]) * m_x + (c[:, _IDX["B11"]] + c[:, _IDX["B21"]]) * m_R
    m_P1 = (c[:, _IDX["A12"]] + c[:, _IDX["A22"]]) * m_x + (c[:, _IDX["B12"]] + c[:, _IDX["B22"]]) * m_R
    m_P2 = (c[:, _IDX["A13"]] + c[:, _IDX["A23"]]) * m_x + (c[:, _IDX["B13"]] + c[:, _IDX["B23"]]) * m_R
    c1, c2 = cashflow_weights(sol.params.b, sol.p2_drift_mode)
    m_s = (c1 * m_P1 + c2 * m_P2) / sol.multipliers.lam_P
    m_e = sol.params.b * m_p + m_s
    return MeanTrajectories(
        grid=grid, m_x=m_x, m_R=m_R, m_p=m_p, m_P1=m_P1, m_P2=m_P2, m_s=m_s, m_e=m_e
    )


@dataclass(frozen=True)
class ClosedLoopField:
    """Drift and diffusion of (x, R) with the optimal controls substituted.

    The x-component diffuses with constant sigma; the R-component carries no
    noise.  Between grid nodes the coefficients and means are interpolated
    linearly, consistent with the first-order forward scheme.
    """

    params: LqParams
    sol: RiccatiSolution
    means: MeanTrajectories

    labels = ("x", "R")
    init = (0.0, 0.0)

    def controls_at_index(self, k: int, x: np.ndarray, R: np.ndarray):
        """Adjoint values and controls (p, P1, P2, s_bar, e_bar) at node k."""
        row = self.sol.coeffs[k]
        mx = self.means.m_x[k]
        mR = self.means.m_R[k]
        return self._controls(row, mx, mR, x, R)

    def _controls(self, row, mx, mR, x, R):
        (A11, A21, B11, B21,
         A12, A22, B12, B22,
         A13, A23, B13, B23) = row
        p = A11 * x + B11 * R + A21 * mx + B21 * mR
        P1 = A12 * x + B12 * R + A22 * mx + B22 * mR
        P2 = A13 * x + B13 * R + A23 * mx + B23 * mR
        c1, c2 = cashflow_weights(self.params.b, self.sol.p2_drift_mode)
        s = (c1 * P1 + c2 * P2) / self.sol.multipliers.lam_P
        e = self.params.b * p + s
        return p, P1, P2, s, e

    def drift_terms(self, p, P1, P2, s, x, R):
        """(x-drift, R-drift) from precomputed adjoint values and cash-flow."""
        a, b = self.params.a, self.params.b
        lam_E = self.sol.multipliers.lam_E
        fx = a * x + b * b * p + b * s
        fR = a * R - b * b * (P1 + P2) + lam_E * b * b * p
        return fx, fR

    def drift(self, X: np.ndarray, t: float) -> np.ndarray:
        row = self.sol.coeffs_at(t)
        mx, mR = self.means.at(t)
        x, R = X[:, 0], X[:, 1]
        p, P1, P2, s, _ = self._controls(row, mx, mR, x, R)
        fx, fR = self.drift_terms(p, P1, P2, s, x, R)
        return np.column_stack([fx, fR])

    def diffusion(self, X: np.ndarray, t: float) -> np.ndarray:
        out = np.zeros_like(X)
        out[:, 0] = self.params.sigma
        return out


def closed_loop_field(
    params: LqParams, sol: RiccatiSolution, means: MeanTrajectories
) -> ClosedLoopField:
    """Bundle the coefficient solution and means into a simulatable field."""
    if sol.grid != means.grid:
        raise ValueError("solution and means live on different grids")
    if sol.params != params:
        raise ValueError("params do not match the ones the solution was built with")
    return ClosedLoopField(params=params, sol=sol, means=means)


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


def ansatz_residual(
    sol: RiccatiSolution,
    paths: PathEnsemble,
    means: Optional[MeanTrajectories] = None,
) -> ResidualReport:
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
    """
    if paths.grid != sol.grid:
        raise ValueError("paths and coefficient solution live on different grids")
    if paths.noise is None:
        raise ValueError("paths must carry their driving noise increments")
    if means is None:
        means = integrate_means(sol)

    a = sol.params.a
    sigma = sol.params.sigma
    dt = sol.grid.dt
    X = paths.component("x")
    R = paths.component("R")
    dW = paths.noise.increments

    c = sol.coeffs
    mx, mR = means.m_x, means.m_R

    def reconstruct(a1, a2, b1, b2):
        return (
            c[None, :, _IDX[a1]] * X
            + c[None, :, _IDX[b1]] * R
            + (c[:, _IDX[a2]] * mx + c[:, _IDX[b2]] * mR)[None, :]
        )

    P = reconstruct("A11", "A21", "B11", "B21")
    P1 = reconstruct("A12", "A22", "B12", "B22")
    P2 = reconstruct("A13", "A23", "B13", "B23")

    specs = {
        "p": (P, "A11", -a * P),
        "P1": (P1, "A12", -a * (P1 + P2)),
        "P2": (P2, "A13", np.zeros_like(P2)),
    }
    components = {}
    for name, (Z, load_col, prescribed) in specs.items():
        matched = c[None, 1:, _IDX[load_col]] * sigma * dW
        discrete = (Z[:, 1:] - Z[:, :-1] - matched) / dt
        resid = discrete - prescribed[:, :-1]
        components[name] = ComponentResidual(
            max_abs=float(np.abs(resid).max()),
            mean_abs=float(np.abs(resid).mean()),
            drift_scale=float(np.abs(prescribed).max()),
        )
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
