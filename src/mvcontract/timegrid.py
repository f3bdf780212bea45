"""Uniform time grids on [0, T] shared by the ODE and SDE integrators."""

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class TimeGrid:
    """Uniform grid t_k = k * dt, k = 0..n_steps, with dt = t_end / n_steps.

    Nodes are computed as k * dt (never by repeated accumulation), so each
    node is within one ulp of the exact value.  ``points[-1]`` may differ
    from ``t_end`` by a rounding ulp; ``t_end`` is the authoritative horizon.
    """

    t_end: float
    n_steps: int

    def __post_init__(self):
        if not np.isfinite(self.t_end) or self.t_end <= 0.0:
            raise ValueError(f"horizon must be finite and positive, got {self.t_end}")
        if self.n_steps < 2:
            raise ValueError(f"n_steps must be >= 2, got {self.n_steps}")

    @property
    def dt(self) -> float:
        return self.t_end / self.n_steps

    @property
    def n_points(self) -> int:
        return self.n_steps + 1

    @cached_property
    def points(self) -> np.ndarray:
        pts = np.arange(self.n_points, dtype=np.float64) * self.dt
        pts.flags.writeable = False
        return pts


def make_grid(T: float, n_steps: int) -> TimeGrid:
    """Build the uniform grid with n_steps steps covering [0, T]."""
    return TimeGrid(t_end=float(T), n_steps=int(n_steps))
