"""mvcontract benchmark: one workload per invocation, metrics as JSON.

    python3 perfbench/run.py --workload sweep_ref --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  Workloads and why each exists are described in
``perfbench/workloads.py`` and ``perfbench/README.md``.

With ``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it
runs every pass twice, untraced and traced in alternating order, and reports
the per-layer metrics from the traced copies.  Every command's output is
checked against ``perfbench/reference.json``; the last line of standard
output is one JSON object, and the exit code is 1 when any check failed.
"""

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

DEFAULT_SEED = 1
#: Seed kept out of tuning; re-run claims on it (see README.md).
HELD_OUT_SEED = 7919
SETUP_REPEATS = 5
MAX_THREADS = 2
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

#: (metric, unit) of the end-to-end metrics in the JSON result.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("peak_rss_mb", "MB"),
    ("point_s_p50", "s"),
    ("point_s_tail", "s"),
]

# What setup_s times in a fresh process: interpreter start, package imports,
# argument parsing and config resolution, the start-up every CLI command pays.
SETUP_SNIPPET = (
    "import sys; sys.path.insert(0, sys.argv[1]); from mvcontract import cli; "
    "cli.resolve_config(cli.build_parser().parse_args(sys.argv[2:]))"
)


def prepare_environment() -> dict:
    """Cap thread pools, drop MVCONTRACT_* overrides, put src/ on the path.

    Must run before numpy is imported.  Returns the thread settings applied.
    """
    if not os.path.isfile(os.path.join(SRC, "mvcontract", "__init__.py")):
        raise SystemExit(f"error: no package source at {os.path.relpath(SRC)}/mvcontract; "
                         "run from the root of an mvcontract checkout")
    threads = str(min(MAX_THREADS, len(os.sched_getaffinity(0))))
    for var in BLAS_VARS:
        os.environ[var] = threads
    for var in [v for v in os.environ if v.startswith("MVCONTRACT_")]:
        del os.environ[var]
    sys.path.insert(0, SRC)
    return {var: threads for var in BLAS_VARS}


def measure_setup(argv, repeats: int) -> list:
    """Wall times of fresh processes from spawn to a resolved configuration."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", SETUP_SNIPPET, SRC, *argv],
                       check=True, stdout=subprocess.DEVNULL, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def tail(samples):
    """Highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 21 samples
    that percentile would lie below the median, so the median is used.
    """
    ordered = sorted(samples)
    n = len(ordered)
    index = max(n - 11, (n - 1) // 2)
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def _read(path):
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError:
        return ""


def _cache_size(level: int) -> str:
    base = "/sys/devices/system/cpu/cpu0/cache"
    try:
        entries = sorted(os.listdir(base))
    except OSError:
        return "unknown"
    for entry in entries:
        if _read(os.path.join(base, entry, "level")).strip() == str(level):
            kind = _read(os.path.join(base, entry, "type")).strip()
            if kind in ("Unified", "Data"):
                return _read(os.path.join(base, entry, "size")).strip()
    return "unknown"


def _git_commit() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown (not a git checkout)"


def _tree_sha256(top: str) -> str:
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(top):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, top).encode() + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def run_record(args, threads: dict) -> dict:
    import numpy
    import scipy
    model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "workload": args.workload,
        "seed": args.seed,
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
        "seconds": args.seconds,
        "trace": args.trace,
        "toy": args.toy,
        "cores": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "src_sha256": _tree_sha256(os.path.join(SRC, "mvcontract")),
        "thread_settings": threads,
    }


def run_pass(ops, recorder=None):
    """Run a pass's commands in order; return (wall, cpu seconds, results)."""
    import workloads
    results = []
    if recorder is not None:
        recorder.install()
    try:
        t0, c0 = time.perf_counter(), time.process_time()
        for op in ops:
            if recorder is not None:
                recorder.point = op.label
            results.append(workloads.run_op(op))
        wall, cpu = time.perf_counter() - t0, time.process_time() - c0
    finally:
        if recorder is not None:
            recorder.uninstall()
    return wall, cpu, results


def measure(workload, seconds: float, traced: bool):
    """Warm up, then run passes until ``seconds`` have passed."""
    import spans
    import workloads
    warm = [workloads.run_op(op) for op in workload.warmup()]
    results = []
    plain_walls, traced_walls, traced_cpu = [], [], 0.0
    recorder = spans.Recorder() if traced else None
    deadline = time.perf_counter() + seconds
    n_pass = 0
    while True:
        ops = workload.next_pass()
        sides = [False]
        if traced:
            sides = [False, True] if n_pass % 2 == 0 else [True, False]
        for side in sides:
            wall, cpu, side_results = run_pass(ops, recorder if side else None)
            results.extend(side_results)
            if side:
                traced_walls.append(wall)
                traced_cpu += cpu
            else:
                plain_walls.append(wall)
        n_pass += 1
        if time.perf_counter() >= deadline:
            break
    return warm, results, plain_walls, traced_walls, traced_cpu, recorder


def end_to_end(workload, setup_times, results, walls):
    """End-to-end metrics of the measured (not warm-up) commands."""
    timed = [r.seconds for r in results if r.seconds is not None]
    tail_s, tail_pct, beyond = tail(timed)
    metrics = {
        "setup_s": statistics.median(setup_times),
        "wall_s": statistics.median(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "point_s_p50": statistics.median(timed),
        "point_s_tail": tail_s,
    }
    notes = {
        "setup_s": f"median of {len(setup_times)} fresh processes",
        "wall_s": f"median of {len(walls)} passes of {workload.commands_per_pass} commands",
        "point_s_p50": f"median of {len(timed)} commands",
        "point_s_tail": f"p{tail_pct:.1f}, {beyond} of {len(timed)} samples beyond",
    }
    extra = []
    total_s = sum(timed)
    if hasattr(workload, "path_steps_per_op"):
        extra.append(("path_steps_per_s", workload.path_steps_per_op * len(timed) / total_s,
                      "1/s", f"{len(timed)} points x {workload.path_steps_per_op} path-steps"))
    if hasattr(workload, "coeff_steps_per_op"):
        extra.append(("coeff_steps_per_s", workload.coeff_steps_per_op * len(timed) / total_s,
                      "1/s", f"{len(timed)} commands x {workload.coeff_steps_per_op} steps"))
    return metrics, notes, extra


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("sweep_ref", "coeff_fine", "check_battery"))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; held-out {HELD_OUT_SEED})")
    parser.add_argument("--seconds", type=float, default=30.0, help="measured time per run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--toy", action="store_true",
                        help="toy sizes, for the harness self-test")
    parser.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = parser.parse_args(argv)

    threads = prepare_environment()
    import spans
    import workloads

    with open(args.reference, encoding="utf-8") as fh:
        reference = json.load(fh)
    record = run_record(args, threads)
    work_root = os.path.join(ROOT, ".perfbench_work")
    workdir = os.path.join(work_root, f"run-{os.getpid()}")
    try:
        workload = workloads.WORKLOADS[args.workload](
            reference, workdir, args.seed, args.toy)
        setup_times = measure_setup(workload.setup_argv(), 2 if args.toy else SETUP_REPEATS)
        warm, measured, walls, traced_walls, traced_cpu, recorder = measure(
            workload, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    results = warm + measured
    failures = [r for r in results if r.error]
    for r in failures[:20]:
        print(f"FAILED {r.label}: {r.error}", file=sys.stderr)
    checked = [r.bit_identical for r in results if r.bit_identical is not None]
    record["outputs_bit_identical"] = f"{sum(checked)} of {len(checked)}"
    record["passes"] = {"untraced_wall_s": walls, "traced_wall_s": traced_walls}
    record["commands"] = [[r.label, r.seconds, r.error] for r in results]

    rows = []
    if args.trace:
        n_traced = len(traced_walls)
        values = spans.layer_metrics(recorder.spans, n_traced, sum(traced_walls),
                                     sum(walls), traced_cpu)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in spans.LAYER_METRICS}
        rows = [(name, values[name], unit, "") for name, unit in spans.LAYER_METRICS]
        by_layer = spans.self_time_by_layer(recorder.spans)
        rows += [(f"self_s[{layer}]", s / n_traced, "s", "self time per pass")
                 for layer, s in sorted(by_layer.items())]
        record["untraced_patch_points"] = recorder.missing
        record["annotation_errors"] = recorder.annotation_errors
        record["spans"] = [s.as_list() for s in recorder.spans]
    else:
        values, notes, extra = end_to_end(workload, setup_times, measured, walls)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        rows = [(name, values[name], unit, notes.get(name, "")) for name, unit in END_TO_END]
        rows += extra
    # fail_frac has no place among the JSON metrics, which must never be 0;
    # the same figure is the result's failed / attempted.
    rows.append(("fail_frac", len(failures) / len(results), "1",
                 f"{len(failures)} failed of {len(results)} attempted"))
    record["metrics"] = metrics

    os.makedirs(os.path.join(work_root, "records"), exist_ok=True)
    record_path = os.path.join(
        work_root, "records",
        f"{args.workload}-seed{args.seed}-trace{args.trace}-{int(time.time())}.json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"cores={record['cores']} cpu={record['cpu_model']!r} "
          f"L2={record['l2_cache']} L3={record['l3_cache']} "
          f"python={record['python']} numpy={record['numpy']} scipy={record['scipy']} "
          f"commit={record['git_commit']} src_sha256={record['src_sha256'][:12]} "
          f"threads={next(iter(threads.values()))}")
    print(f"# outputs byte-identical to reference: {record['outputs_bit_identical']}; "
          f"record: {os.path.relpath(record_path, ROOT)}")
    for name, value, unit, note in rows:
        print(f"{name:28s} {value:16.6g} {unit:6s} {note}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
