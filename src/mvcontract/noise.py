"""Reproducible Brownian increments from a counter-based generator.

The increment for path i at step k is draw number ``i * n_steps + k`` of the
raw Philox-4x64 stream keyed by the seed.  Each raw 64-bit word is mapped to
a uniform in (0, 1) via ``u = ((raw >> 11) + 0.5) * 2**-53`` and then through
the Gaussian inverse CDF (``scipy.special.ndtri``), scaled by sqrt(dt).  Both
maps are fully deterministic rational/integer arithmetic, so ensembles are
bit-identical across runs, chunkings, worker counts and platforms.

``scipy.special`` is imported on the first draw, not with this module: it
is most of the package's import time, and ``riccati`` draws no noise.  The
first call of ``ndtri`` rebinds the module name to scipy's ufunc, so every
later tile calls it directly; the noise spec above is unchanged.

Because draws are addressed by counter, any contiguous block of paths can be
produced without generating the rest of the stream (``sample_noise_block``),
which keeps large Monte-Carlo runs memory-lean without changing a single bit.
A block is one step-major (n_steps, paths) buffer, the layout every stepper
and check reads, a step row at a time, as ``increments.T``: tiles of about
``_TILE_DRAWS`` draws from the block's one Philox generator go through the
uniform map and ``ndtri`` in cache, and ``* sqrt(dt)`` writes each tile
transposed into the buffer, or into the caller's ``out=`` with the same
bits: increments drawn there are valid only until it is drawn into again.
"""

from dataclasses import dataclass

import numpy as np

from .timegrid import TimeGrid

@dataclass(frozen=True)
class NoiseEnsemble:
    """Per-path, per-step Gaussian increments with variance dt."""

    grid: TimeGrid
    seed: int
    n_paths: int
    increments: np.ndarray  # shape (n_paths, n_steps), step-major in memory
    path_offset: int = 0  # index of the first path within the seed's stream

    def __post_init__(self):
        if self.increments.shape != (self.n_paths, self.grid.n_steps):
            raise ValueError(
                f"increments shape {self.increments.shape} does not match "
                f"(n_paths={self.n_paths}, n_steps={self.grid.n_steps})"
            )
        self.increments.flags.writeable = False


def check_seed(seed: int) -> int:
    """``seed`` as an int, if it is a Philox key: 0 <= seed < 2**64."""
    seed = int(seed)
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return seed


def _first_ndtri(x, out=None):
    """``scipy.special.ndtri``, imported on the first call.

    Rebinds the module name ``ndtri`` to the ufunc, unless a wrapper has
    replaced this function there meanwhile; a wrapper keeps calling it.
    """
    global ndtri
    from scipy.special import ndtri as ufunc

    if ndtri is _first_ndtri:
        ndtri = ufunc
    return ufunc(x, out=out)


ndtri = _first_ndtri


def _raw_stream(bitgen, n: int) -> np.ndarray:
    """The next ``n`` raw 64-bit words of a block's ``np.random.Philox`` generator."""
    return bitgen.random_raw(n)


#: Draws per tile of ``sample_noise_block``: a tile's words and floats
#: (128 kB each) stay in L2 from the Philox words to the transposed write.
_TILE_DRAWS = 2**14


def sample_noise_block(
    grid: TimeGrid, n_paths: int, seed: int, path_start: int, path_stop: int, out=None
) -> NoiseEnsemble:
    """Increments for paths [path_start, path_stop) of the same stream.

    Concatenating blocks reproduces the block of all ``n_paths`` paths bit
    for bit regardless of how the path range is partitioned.  The block
    is drawn into ``out``, if given, a writeable C-contiguous float64 array
    of shape (n_steps, path_stop - path_start); ``increments`` is its view.
    """
    seed = check_seed(seed)
    if n_paths < 1:
        raise ValueError(f"n_paths must be >= 1, got {n_paths}")
    if not 0 <= path_start < path_stop <= n_paths:
        raise ValueError(
            f"invalid path block [{path_start}, {path_stop}) for n_paths={n_paths}"
        )
    n_block, n_steps = path_stop - path_start, grid.n_steps
    if out is None:
        out = np.empty((n_steps, n_block))
    elif not (isinstance(out, np.ndarray) and out.dtype == np.float64
              and out.flags.c_contiguous and out.shape == (n_steps, n_block)):
        raise ValueError(f"out must be a C-contiguous float64 array of shape {(n_steps, n_block)}")
    bitgen = np.random.Philox(key=seed)
    # Philox advances its 256-bit counter in blocks of four 64-bit words
    bitgen.advance(path_start * n_steps // 4)
    bitgen.random_raw(path_start * n_steps % 4)
    tile = max(1, _TILE_DRAWS // n_steps)  # whole paths per tile
    for lo in range(0, n_block, tile):
        hi = min(lo + tile, n_block)
        raw = _raw_stream(bitgen, (hi - lo) * n_steps)
        # the shifted words are below 2**53, so they convert exactly
        raw >>= np.uint64(11)
        z = np.add(raw, 0.5, dtype=np.float64)
        z *= 2.0**-53
        ndtri(z, out=z)
        np.multiply(z.reshape(hi - lo, n_steps).T, np.sqrt(grid.dt), out=out[:, lo:hi])
    return NoiseEnsemble(
        grid=grid,
        seed=seed,
        n_paths=n_block,
        increments=out.T,
        path_offset=path_start,
    )
