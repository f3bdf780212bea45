"""Simulated state trajectories on a time grid.

``montecarlo.closed_loop_paths`` returns its recorded closed-loop (x, R)
paths as a ``PathEnsemble``, and the checks read them through it.
"""

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .noise import NoiseEnsemble
from .timegrid import TimeGrid


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
