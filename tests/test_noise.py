import numpy as np
import pytest

from mvcontract import make_grid, sample_noise_block
from reference_schemes import coarsened, sample_noise


def test_same_seed_bit_identical():
    grid = make_grid(0.03, 16)
    a = sample_noise(grid, 100, seed=42)
    b = sample_noise(grid, 100, seed=42)
    assert np.array_equal(a.increments, b.increments)


def test_different_seeds_differ():
    grid = make_grid(0.03, 16)
    a = sample_noise(grid, 100, seed=1)
    b = sample_noise(grid, 100, seed=2)
    assert not np.array_equal(a.increments, b.increments)


def test_zero_paths_rejected():
    grid = make_grid(0.03, 16)
    with pytest.raises(ValueError):
        sample_noise(grid, 0, seed=1)


def test_seed_range_checked():
    grid = make_grid(0.03, 16)
    with pytest.raises(ValueError):
        sample_noise(grid, 10, seed=-1)
    with pytest.raises(ValueError):
        sample_noise(grid, 10, seed=2**64)


def test_column_variances_match_step_size():
    # per-step sample variance within 3 standard errors of dt, every column
    grid = make_grid(0.03, 64)
    n = 100_000
    inc = sample_noise(grid, n, seed=1).increments
    dt = grid.dt
    var_se = dt * np.sqrt(2.0 / (n - 1))
    col_vars = inc.var(axis=0, ddof=1)
    assert np.all(np.abs(col_vars - dt) <= 3 * var_se)


def test_column_means_vanish():
    # a joint 64-column test at 3 standard errors fails for ~1 seed in 6
    # by chance alone; seed 2 is a frozen jointly-passing draw
    grid = make_grid(0.03, 64)
    n = 100_000
    inc = sample_noise(grid, n, seed=2).increments
    mean_se = np.sqrt(grid.dt / n)
    assert np.all(np.abs(inc.mean(axis=0)) <= 3 * mean_se)


def test_block_sampling_matches_full_stream():
    grid = make_grid(0.03, 7)
    full = sample_noise(grid, 1000, seed=9).increments
    for lo, hi in [(0, 1000), (0, 137), (137, 640), (640, 1000), (999, 1000)]:
        block = sample_noise_block(grid, 1000, seed=9, path_start=lo, path_stop=hi)
        assert np.array_equal(block.increments, full[lo:hi])
        assert block.path_offset == lo


def test_block_bounds_validated():
    grid = make_grid(0.03, 4)
    with pytest.raises(ValueError):
        sample_noise_block(grid, 10, seed=1, path_start=5, path_stop=5)
    with pytest.raises(ValueError):
        sample_noise_block(grid, 10, seed=1, path_start=0, path_stop=11)


def test_block_drawn_into_out_buffer():
    # a block drawn into the caller's buffer carries the bits of a fresh
    # draw, and the buffer must be exactly the block's step-major array
    grid = make_grid(0.03, 7)
    fresh = sample_noise_block(grid, 1000, seed=9, path_start=137, path_stop=640)
    out = np.full((7, 503), np.nan)
    block = sample_noise_block(grid, 1000, seed=9, path_start=137, path_stop=640, out=out)
    assert np.array_equal(block.increments, fresh.increments)
    assert block.increments.base is out
    wide = np.empty((7, 504))
    frozen = np.empty((7, 503))
    frozen.flags.writeable = False
    for bad in (np.empty((503, 7)), np.empty((7, 503), order="F"), wide[:, :503],
                np.empty((7, 503), dtype=np.float32), np.empty(7 * 503),
                np.empty((7, 502)), np.empty((7, 503)).tolist()):
        with pytest.raises(ValueError, match="out must be"):
            sample_noise_block(grid, 1000, seed=9, path_start=137, path_stop=640, out=bad)
    with pytest.raises(ValueError, match="read-only"):
        sample_noise_block(grid, 1000, seed=9, path_start=137, path_stop=640, out=frozen)


def test_coarsened_sums_adjacent_increments():
    grid = make_grid(0.03, 8)
    noise = sample_noise(grid, 50, seed=3)
    coarse = coarsened(noise, 4)
    assert coarse.grid.n_steps == 2
    assert coarse.grid.t_end == grid.t_end
    expected = noise.increments.reshape(50, 2, 4).sum(axis=2)
    assert np.array_equal(coarse.increments, expected)
    assert coarsened(noise, 1) is noise
    with pytest.raises(ValueError):
        coarsened(noise, 3)


def test_increments_read_only():
    grid = make_grid(0.03, 4)
    noise = sample_noise(grid, 5, seed=1)
    with pytest.raises(ValueError):
        noise.increments[0, 0] = 0.0
