"""Reference schemes the tests pin the package's folds and steppers against.

``euler_maruyama`` is the generic Euler scheme for arbitrary drift and
diffusion, ``simulate_density`` the log-space density recursion along its
paths, and the two cost integrands the running costs written out from the
model.  The check batteries fold the same terminal values per path block
(``checks._fold_part``), in the operation order of these schemes, and the
tests require equal bits.  ``coefficient_rhs`` is the coefficient system's
right-hand side as an array, for the cross-checks against other
integrators, and ``coarsened`` observes a noise ensemble on a coarser grid,
for step-refinement studies on fixed driving noise.
"""

from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np

from mvcontract import (
    AS_PRINTED,
    LqParams,
    MultiplierTriple,
    NoiseEnsemble,
    PathEnsemble,
    SimulationDivergedError,
    TimeGrid,
)
from mvcontract.model import cashflow_weights
from mvcontract.riccati import _rhs

StateMap = Callable[[np.ndarray, float], np.ndarray]


def coefficient_rhs(
    y: np.ndarray, params: LqParams, mult: MultiplierTriple, mode: str = AS_PRINTED
) -> np.ndarray:
    """Forward-time derivative of the twelve coefficients: ``riccati._rhs`` as an array."""
    b, (c1, c2) = params.b, cashflow_weights(params.b, mode)
    args = (params.a, b, b * b, mult.lam_P, mult.lam_E, c1, c2)
    return np.array(_rhs(np.asarray(y, float).tolist(), *args))


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
