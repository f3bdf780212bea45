"""Import boundary of the package and the bits of its noise.

``scipy.special`` is imported on the first Gaussian draw, so importing the
package, resolving a config and running ``riccati`` must not load scipy;
each of those is checked in a fresh interpreter.  The draws themselves are
pinned bit for bit to the noise spec, including a first draw made
concurrently by two pool workers.  A repeated evaluation, also in a fresh
interpreter, must reuse the heap pages of the first.
"""

import os
import platform
import subprocess
import sys
import textwrap
from pathlib import Path

import numpy as np
import pytest

import mvcontract
from mvcontract import (
    ETA_EQUALS_X,
    ClosedLoopField,
    LqParams,
    from_case,
    integrate_riccati,
    make_grid,
    noise,
    sample_noise_block,
)
from mvcontract.montecarlo import simulate_costs

SRC = str(Path(mvcontract.__file__).resolve().parents[1])


def _run_fresh(script: str, *args: str) -> bytes:
    """Run ``script`` in a new interpreter with the package on its path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([SRC, env.get("PYTHONPATH", "")]).rstrip(os.pathsep)
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(script), *args],
        env=env, capture_output=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr.decode()
    return done.stdout


@pytest.mark.parametrize("statement", [
    "import mvcontract",
    "from mvcontract import cli",
    "from mvcontract import cli; "
    "assert cli.main(['riccati', '--steps', '64', '--out', sys.argv[1]]) == 0",
], ids=["import", "import_cli", "riccati"])
def test_scipy_is_not_loaded_without_a_draw(tmp_path, statement):
    out = _run_fresh(f"import sys; {statement}; print('scipy' in sys.modules)", str(tmp_path))
    assert out.split()[-1] == b"False"


@pytest.mark.parametrize("n_steps, seed", [
    (16, 12345), (7, 2**64 - 1), (64, 3), (2**15, 5),
])
def test_noise_block_bits_match_the_spec(n_steps, seed):
    # blocks are drawn in tiles of whole paths.  Every stream here spans
    # three tiles and two paths, the blocks other than the first start on a
    # path that is not a multiple of 4 (at 7 steps, on a draw that is not a
    # multiple of 4 either), and where a tile holds more than one path most
    # of them end in a partial tile
    from scipy.special import ndtri

    grid = make_grid(0.03, n_steps)
    tile = max(1, noise._TILE_DRAWS // n_steps)
    n_paths = 3 * tile + 2
    raw = np.random.Philox(key=seed).random_raw(n_paths * n_steps)
    spec = ndtri(((raw >> np.uint64(11)) + 0.5) * 2.0**-53) * np.sqrt(grid.dt)
    spec = spec.reshape(n_paths, n_steps)
    blocks = [(0, n_paths), (1, n_paths), (1, n_paths - 1)]
    if n_paths >= 300:
        blocks += [(37, 201), (299, 300), (5, 2 * tile + 3)]
    for lo, hi in blocks:
        block = sample_noise_block(grid, n_paths, seed, lo, hi)
        assert np.array_equal(block.increments, spec[lo:hi])
        assert block.increments.T.flags.c_contiguous


FIRST_DRAW_ON_A_POOL = """
import sys
import numpy as np
from mvcontract import (ETA_EQUALS_X, ClosedLoopField, LqParams, from_case,
                        integrate_riccati, make_grid, montecarlo, noise)

assert "scipy" not in sys.modules
montecarlo._cpu_count = lambda: 2
montecarlo.BLOCK_DRAWS = 97 * 16  # 31 blocks of 97 16-step paths
params = LqParams(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03)
sol = integrate_riccati(params, from_case("iv", 0.1, 1.5707963267948966),
                        make_grid(params.T, 16), ETA_EQUALS_X)
sys.setswitchinterval(1e-6)
ja, jp, x_T = montecarlo.simulate_costs(ClosedLoopField(sol), 3_000, 41)
assert "scipy" in sys.modules and isinstance(noise.ndtri, np.ufunc)
sys.stdout.buffer.write(ja.tobytes() + jp.tobytes() + x_T.tobytes())
"""


def test_first_draw_on_a_worker_pool_is_bit_identical():
    pooled = _run_fresh(FIRST_DRAW_ON_A_POOL)
    params = LqParams(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03)
    sol = integrate_riccati(params, from_case("iv", 0.1, 1.5707963267948966),
                            make_grid(params.T, 16), ETA_EQUALS_X)
    # one block: 2**20 draws hold 65,536 16-step paths
    ja, jp, x_T = simulate_costs(ClosedLoopField(sol), 3_000, 41)
    assert pooled == ja.tobytes() + jp.tobytes() + x_T.tobytes()


REPEATED_EVALUATION = """
import math, resource, sys
from mvcontract import ETA_EQUALS_X, LqParams, evaluate_contract, from_case, montecarlo

montecarlo._cpu_count = lambda: int(sys.argv[1])
params = LqParams(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03)
mult = from_case("iv", 0.1, math.pi / 2)
evaluate_contract(params, mult, 100_000, 64, 1, ETA_EQUALS_X)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
evaluate_contract(params, mult, 100_000, 64, 1, ETA_EQUALS_X)
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


needs_glibc_mmap_threshold = pytest.mark.skipif(
    sys.platform != "linux" or platform.libc_ver()[0] != "glibc"
    or any(key.startswith("MALLOC_") or key == "GLIBC_TUNABLES" for key in os.environ),
    reason="needs glibc's dynamic mmap threshold")


@needs_glibc_mmap_threshold
def test_repeated_evaluation_reuses_heap_pages():
    # a block-sized array freed on import raises glibc's mmap threshold to
    # a block, so the per-call arrays of a second 1e5 x 64 evaluation
    # (costs, x_T, work rows, reductions) reuse the heap pages of the first:
    # a few minor faults, where mapping them afresh took about 1,300.  The
    # second call runs on the worker of the first, with its buffer
    assert int(_run_fresh(REPEATED_EVALUATION, "1")) < 100


@needs_glibc_mmap_threshold
def test_repeated_evaluation_on_two_workers_reuses_heap_pages():
    # as above, with both blocks of each call on a two-worker pool
    assert int(_run_fresh(REPEATED_EVALUATION, "2")) < 100
