"""Reference schemes the tests pin the package's folds and steppers against.

``euler_maruyama`` is the generic Euler scheme for arbitrary drift and
diffusion, ``simulate_density`` the log-space density recursion along its
paths, and the two cost integrands the running costs written out from the
model.  The check batteries fold the same x_T per path block
(``checks._fold_part``), in the operation order of the Euler scheme, and
the tests require equal bits; the density they form in closed form from
x_T must agree with the recursion to within rounding.
``closed_loop_paths`` records the closed loop (x, R) at every node in a
``PathEnsemble``; ``step_costs`` steps it with the running cost integrals
one scalar row at a time, and ``simulate_costs`` (the stacked step with a
cost fold) must reproduce its bits.
``ansatz_residual`` and ``explicit_R`` evaluate the residual oracle and the
integrating-factor R over such recorded paths, as whole-ensemble formulas.
The checks fold both into the closed-loop step (``checks._ResidualFold``,
``checks._ExplicitRFold``), element by element in the same operations, so
their maxima must carry the same bits.  ``coefficient_rhs`` is the
coefficient system's right-hand side as an array, for the cross-checks
against other integrators, and ``rk4_coefficients`` integrates it with
classical RK4 on plain floats: the closed-form solve
``riccati.integrate_riccati`` must agree with it to its O(dt^4) error.
``sample_noise`` draws a seed's whole (n_paths, n_steps) ensemble as one
block, the full matrix the block readers must reproduce, and
``scaled_noise_block`` scales the blocks they read.  ``coarsened``
observes a noise ensemble on a coarser grid, for step-refinement studies on
fixed driving noise.
"""

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple, Union

import numpy as np

from mvcontract import (
    AS_PRINTED,
    LqParams,
    ClosedLoopField,
    MultiplierTriple,
    NoiseEnsemble,
    RiccatiBlowUpError,
    RiccatiSolution,
    SimulationDivergedError,
    TimeGrid,
    sample_noise_block,
)
from mvcontract.model import cashflow_weights
from mvcontract.riccati import COEFF_NAMES, DEFAULT_BLOW_UP_BOUND, terminal_conditions

StateMap = Callable[[np.ndarray, float], np.ndarray]


@dataclass(frozen=True)
class PathEnsemble:
    """Simulated state trajectories, shape (n_paths, n_points, n_components)."""

    grid: TimeGrid
    states: np.ndarray
    labels: tuple
    noise: Optional[NoiseEnsemble] = field(default=None, repr=False)

    def __post_init__(self):
        n_paths, n_points, n_comp = self.states.shape
        if n_points != self.grid.n_points:
            raise ValueError(
                f"states have {n_points} time points, grid has {self.grid.n_points}"
            )
        if len(self.labels) != n_comp:
            raise ValueError(
                f"{len(self.labels)} labels for {n_comp} state components"
            )
        self.states.flags.writeable = False

    @property
    def n_paths(self) -> int:
        return self.states.shape[0]

    def component(self, label: str) -> np.ndarray:
        """Trajectories of one named component, shape (n_paths, n_points)."""
        try:
            idx = self.labels.index(label)
        except ValueError:
            raise KeyError(f"no state component {label!r}; have {self.labels}")
        return self.states[:, :, idx]


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


def coefficient_rhs(
    y: np.ndarray, params: LqParams, mult: MultiplierTriple, mode: str = AS_PRINTED
) -> np.ndarray:
    """Forward-time derivative of the twelve coefficients: ``_rhs`` as an array."""
    b, (c1, c2) = params.b, cashflow_weights(params.b, mode)
    args = (params.a, b, b * b, mult.lam_P, mult.lam_E, c1, c2)
    return np.array(_rhs(np.asarray(y, float).tolist(), *args))


def rk4_coefficients(
    params: LqParams,
    mult: MultiplierTriple,
    grid: TimeGrid,
    mode: str = AS_PRINTED,
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND,
) -> np.ndarray:
    """The twelve coefficients by classical fixed-step RK4 backward from T.

    The stages run on plain floats through ``_rhs``; row k holds node k and
    the last row the terminal conditions exactly.  A step that leaves a
    coefficient non-finite or above ``blow_up_bound`` in magnitude raises
    ``RiccatiBlowUpError`` at its node, with no ``t_star``.
    """
    b, (c1, c2) = params.b, cashflow_weights(params.b, mode)
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
    return coeffs


def sample_noise(grid: TimeGrid, n_paths: int, seed: int) -> NoiseEnsemble:
    """Draw the full (n_paths, n_steps) increment array for a seed."""
    return sample_noise_block(grid, n_paths, seed, 0, n_paths)


def scaled_noise_block(scale: float, draw: Callable = sample_noise_block) -> Callable:
    """``draw`` (``sample_noise_block`` by default) with every increment times ``scale``.

    The package steps its paths in units of sigma, so no sigma makes the
    driftless folds large; patched into ``montecarlo``, this makes every
    stepped state ``scale`` times the one at sigma = 1, as a sigma of
    ``scale`` once did.  An increment past the largest float becomes inf,
    where sigma dW once overflowed in the step.
    """
    def sample(*args, **kw):
        noise = draw(*args, **kw)
        # a pool worker does not run under the caller's numpy error state
        with np.errstate(over="ignore"):
            increments = noise.increments * scale
        return NoiseEnsemble(noise.grid, noise.seed, noise.n_paths, increments, noise.path_offset)

    return sample


def coarsened(noise: NoiseEnsemble, factor: int) -> NoiseEnsemble:
    """The same Brownian paths observed on a grid coarsened by ``factor``.

    Adjacent increments are summed in groups of ``factor``.
    """
    if factor < 1 or noise.grid.n_steps % factor != 0:
        raise ValueError(f"factor {factor} must divide n_steps {noise.grid.n_steps}")
    if factor == 1:
        return noise
    n_coarse = noise.grid.n_steps // factor
    coarse = noise.increments.reshape(noise.n_paths, n_coarse, factor).sum(axis=2)
    return NoiseEnsemble(
        grid=TimeGrid(noise.grid.t_end, n_coarse),
        seed=noise.seed,
        n_paths=noise.n_paths,
        increments=coarse,
        path_offset=noise.path_offset,
    )


def agent_cost_integrand(s, e):
    """Running cost of the agent, (s - e)^2 / 2."""
    return (s - e) ** 2 / 2.0


def principal_cost_integrand(s):
    """Running cost of the principal, s^2 / 2."""
    return s**2 / 2.0


def euler_maruyama(
    drift: StateMap,
    diffusion: StateMap,
    init: Union[float, Sequence[float], np.ndarray],
    noise: NoiseEnsemble,
    labels: Optional[Sequence[str]] = None,
) -> PathEnsemble:
    """Integrate dX = drift(X, t) dt + diffusion(X, t) dW forward on the grid.

    ``drift`` and ``diffusion`` receive the current states as an array of
    shape (n_paths, n_components) together with the node time, and must
    return something broadcastable to that shape.  ``diffusion`` is the
    loading of each component on the shared scalar increment.

    Raises
    ------
    SimulationDivergedError
        If any state component becomes non-finite, identifying the first
        offending path and step.
    """
    grid = noise.grid
    init_arr = np.atleast_1d(np.asarray(init, dtype=np.float64))
    if init_arr.ndim != 1:
        raise ValueError("init must be a scalar or a 1-d component vector")
    if not np.all(np.isfinite(init_arr)):
        raise ValueError(f"init must be finite, got {init_arr}")
    n_comp = init_arr.size
    if labels is None:
        labels = ("x",) if n_comp == 1 else tuple(f"x{i}" for i in range(n_comp))
    labels = tuple(labels)

    n_paths = noise.n_paths
    dt = grid.dt
    states = np.empty((n_paths, grid.n_points, n_comp), dtype=np.float64)
    states[:, 0, :] = init_arr
    x = np.broadcast_to(init_arr, (n_paths, n_comp)).copy()

    times = grid.points
    dW = noise.increments
    for k in range(grid.n_steps):
        t_k = times[k]
        x = x + drift(x, t_k) * dt + diffusion(x, t_k) * dW[:, k, None]
        if not np.all(np.isfinite(x)):
            bad_path, bad_comp = np.argwhere(~np.isfinite(x))[0]
            raise SimulationDivergedError(
                path=int(bad_path), step=k + 1, label=labels[bad_comp]
            )
        states[:, k + 1, :] = x

    return PathEnsemble(grid=grid, states=states, labels=labels, noise=noise)


@dataclass(frozen=True)
class DensityEnsemble:
    """Per-path density trajectories Gamma > 0 with their log values."""

    grid: TimeGrid
    gamma: np.ndarray  # (n_paths, n_points)
    log_gamma: np.ndarray

    def __post_init__(self):
        self.gamma.flags.writeable = False
        self.log_gamma.flags.writeable = False

    @property
    def terminal(self) -> np.ndarray:
        return self.gamma[:, -1]


def simulate_density(
    f_over_sigma: Callable[[np.ndarray, float], np.ndarray],
    noise: NoiseEnsemble,
    x_paths: PathEnsemble,
) -> DensityEnsemble:
    """Accumulate the density along given driftless output paths.

    ``f_over_sigma(x, t)`` evaluates theta on the per-path output values at
    a node; ``noise`` must be the same ensemble that drove ``x_paths``.
    """
    if x_paths.grid != noise.grid:
        raise ValueError("x_paths and noise live on different grids")
    if x_paths.n_paths != noise.n_paths:
        raise ValueError("x_paths and noise have different path counts")
    x = x_paths.states[:, :, 0]
    dt = noise.grid.dt
    times = noise.grid.points
    n_paths, n_points = x.shape
    log_gamma = np.zeros((n_paths, n_points))
    for k in range(noise.grid.n_steps):
        theta = np.broadcast_to(
            np.asarray(f_over_sigma(x[:, k], times[k]), dtype=np.float64),
            (n_paths,),
        )
        if not np.all(np.isfinite(theta)):
            raise ValueError(f"non-finite theta at step {k}")
        log_gamma[:, k + 1] = (
            log_gamma[:, k] + theta * noise.increments[:, k] - 0.5 * theta**2 * dt
        )
    return DensityEnsemble(grid=noise.grid, gamma=np.exp(log_gamma), log_gamma=log_gamma)


def closed_loop_paths(field: ClosedLoopField, noise: NoiseEnsemble) -> PathEnsemble:
    """Closed-loop (x, R) trajectories driven by ``noise``, recorded at every node.

    Each step reads row k of ``field.rows`` as scalars, in the element
    operations of ``montecarlo._step_block``:

        x <- (x + (Fxx x + FxR R) dt) + sigma dW,   R <- R + (GRx x + GRR R) dt.

    The states are stored step-major and the result's ``states`` is the
    (paths, nodes, 2) view; it keeps ``noise`` for ``ansatz_residual``.

    Raises
    ------
    ValueError
        If ``noise`` lives on another grid than the field.
    SimulationDivergedError
        At the earliest step any path goes non-finite, on the lowest such path.
    """
    grid = field.sol.grid
    if noise.grid != grid:
        raise ValueError("noise and closed-loop field live on different grids")
    dt, sigma = grid.dt, field.sol.params.sigma
    states = np.zeros((grid.n_points, 2, noise.n_paths))
    for k, (_, _, _, _, fxx, fxR, gRx, gRR) in enumerate(field.rows.tolist()):
        x, R = states[k]
        states[k + 1, 0] = x + (x * fxx + R * fxR) * dt + noise.increments[:, k] * sigma
        states[k + 1, 1] = R + (x * gRx + R * gRR) * dt
        bad = ~np.isfinite(states[k + 1]).all(axis=0)
        if bad.any():
            raise SimulationDivergedError(path=int(bad.argmax()), step=k + 1)
    return PathEnsemble(grid=grid, states=states.transpose(2, 0, 1), labels=("x", "R"),
                        noise=noise)


def step_costs(field: ClosedLoopField, dW: np.ndarray, x: np.ndarray, ja: np.ndarray,
               jp: np.ndarray) -> Optional[Tuple[int, int]]:
    """The closed loop with its running cost integrals, one scalar row at a time.

    ``dW`` holds the increments step-major, shape (n_steps, paths).  Each
    step reads one row of ``field.rows`` as scalars:

        ja += (sqrt(dt/2) b p)^2,   jp += (sqrt(dt/2) s)^2,
        x  += dt (Fxx x + FxR R) + sigma dW,   R += dt (GRx x + GRR R),

    in ``out=`` ufuncs on one-dimensional work rows, with x, ja and jp
    written in the caller's arrays, in the element operations of
    ``montecarlo._step_block`` and its cost fold (``montecarlo._cost_fold``).
    Returns None, or (step, path) of the first non-finite state.
    """
    dt = field.sol.grid.dt
    sigma = field.sol.params.sigma
    m = x.size
    R = np.zeros(m)
    t, u, v = (np.empty(m) for _ in range(3))
    x[...] = 0.0
    ja[...] = 0.0
    jp[...] = 0.0
    for k, (bpx, bpR, sx, sR, fxx, fxR, gRx, gRR) in enumerate(field.rows.tolist()):
        for acc, cx, cR in ((ja, bpx, bpR), (jp, sx, sR)):
            np.multiply(x, cx, out=t)
            np.multiply(R, cR, out=u)
            t += u
            np.square(t, out=t)
            acc += t
        # the R-increment reads x before the x-step
        np.multiply(x, gRx, out=v)
        np.multiply(R, gRR, out=u)
        v += u
        v *= dt
        np.multiply(x, fxx, out=t)
        np.multiply(R, fxR, out=u)
        t += u
        t *= dt
        np.multiply(dW[k], sigma, out=u)
        x += t
        x += u
        R += v
        if not (math.isfinite(x.sum()) and math.isfinite(R.sum())):
            bad = ~(np.isfinite(x) & np.isfinite(R))
            if bad.any():
                return k + 1, int(bad.argmax())
    return None


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


def ansatz_residual(sol: RiccatiSolution, paths: PathEnsemble) -> ResidualReport:
    """Check the coefficient solution against the backward drift relations.

    For each adjoint component Z in {p, P1, P2}, reconstructed on the path
    grid from the coefficients, the discrete drift

        (Z_{k+1} - Z_k - D_{k+1} dW_k) / dt,

    with D the dW-matched loading (A11 sigma, A12 sigma, A13 sigma evaluated
    at the right endpoint), is compared with the prescribed drift (-a p,
    -a (P1 + P2), 0 evaluated at the left endpoint).  One step at a time over
    the recorded nodes; residuals are in drift units (state per time).
    """
    if paths.grid != sol.grid:
        raise ValueError("paths and coefficient solution live on different grids")
    if paths.noise is None:
        raise ValueError("paths must carry their driving noise increments")
    a, sigma, dt = sol.params.a, sol.params.sigma, sol.grid.dt
    c = {name: sol.coeffs[:, i] for i, name in enumerate(COEFF_NAMES)}
    X, R, dW = paths.component("x").T, paths.component("R").T, paths.noise.increments.T

    def adjoints(k):
        P, P1, P2 = (c[f"A1{j}"][k] * X[k] + c[f"B1{j}"][k] * R[k] for j in (1, 2, 3))
        return (P, P1, P2), (-a * P, -a * (P1 + P2), np.zeros_like(P2))

    # per component: max |resid|, sum |resid| and max |prescribed|, per step
    stats = {name: ([], [], []) for name in ("p", "P1", "P2")}
    Z0, drift0 = adjoints(0)
    for k in range(sol.grid.n_steps):
        Z1, drift1 = adjoints(k + 1)
        for name, z0, z1, j, drift in zip(stats, Z0, Z1, (1, 2, 3), drift0):
            resid = np.abs((z1 - z0 - c[f"A1{j}"][k + 1] * sigma * dW[k]) / dt - drift)
            maxima, sums, scales = stats[name]
            maxima.append(resid.max())
            sums.append(resid.sum())
            scales.append(np.abs(drift).max())
        Z0, drift0 = Z1, drift1
    for name, drift in zip(stats, drift0):
        stats[name][2].append(np.abs(drift).max())
    n_resid = paths.n_paths * sol.grid.n_steps
    # np.max, unlike max(), propagates a NaN
    components = {
        name: ComponentResidual(
            max_abs=float(np.max(maxima)), mean_abs=float(np.sum(sums)) / n_resid,
            drift_scale=float(np.max(scales)),
        )
        for name, (maxima, sums, scales) in stats.items()
    }
    return ResidualReport(n_paths=paths.n_paths, n_steps=sol.grid.n_steps, components=components)


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
