"""Record the expected outputs every benchmark operation is checked against.

    python3 perfbench/make_reference.py            # writes perfbench/reference.json

Runs the same commands as the workloads, at full and at toy size, and stores
what they produced: per grid point the sweep estimates with their standard
errors, the exit code of every fine-grid coefficient solve, and every line of
the check batteries, plus sha256 digests of the CSV files as information.
It also runs the reference sweep as one 90-point ``simulate`` command and
requires every one-point command to reproduce its row exactly.

Regenerate only when a change is meant to alter outputs, and say so.
"""

import json
import os
import shutil
import sys

import run

run.prepare_environment()

import workloads  # noqa: E402  (imports numpy: after the environment is set)
from mvcontract import cli  # noqa: E402
from mvcontract.config import parse_config_text  # noqa: E402
from mvcontract.multipliers import sweep_grid  # noqa: E402

GRID_CONFIG = (
    "case = iv\n"
    "lambda_P = 0.1:0.9:9\n"
    "theta = 0.0:1.5707963267948966:10\n"
    "n_paths = 100000\n"
    "n_steps = 64\n"
    "seed = {seed}\n"
    "p2_drift_mode = eta_equals_x\n"
)
BASE_SEED = 1


def _write(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _eval_row(path):
    row = workloads.read_eval_row(path)
    out = {}
    for name in workloads.ESTIMATES:
        out[name] = float(row[name])
        out[name + "_se"] = float(row[name + "_se"])
    out["sha256"] = workloads.sha256_file(path)
    return out


def grid_points():
    """The reference grid, each point with the seed that reproduces its sweep row."""
    config = parse_config_text(GRID_CONFIG.format(seed=BASE_SEED))
    triples = sweep_grid(config.case_tag, config.lam_P_points, config.theta_points)
    # A one-point command seeds its only point with point_seed(seed, 0); this
    # seed makes that equal to the sweep's point_seed(BASE_SEED, index).
    return [{"lambda_P": t.lam_P, "theta": t.theta,
             "seed": cli.point_seed(BASE_SEED, i) ^ cli.point_seed(0, 0)}
            for i, t in enumerate(triples)]


def sweep_reference(points, workdir, n_paths):
    rows = []
    out_dir = os.path.join(workdir, "out")
    for index, point in enumerate(points):
        cfg = os.path.join(workdir, f"p{index}.cfg")
        _write(cfg, workloads.point_config_text(point, n_paths, workloads.SWEEP_STEPS))
        code, _, _ = workloads.run_command(workloads.simulate_argv(cfg, out_dir))
        if code != 0:
            raise SystemExit(f"point {index}: simulate exited {code}")
        rows.append(_eval_row(os.path.join(out_dir, "eval.csv")))
    return {"n_paths": n_paths, "n_steps": workloads.SWEEP_STEPS, "rows": rows}


def full_sweep_rows(workdir):
    """Rows of the reference sweep run as one 90-point command."""
    cfg = os.path.join(workdir, "grid.cfg")
    _write(cfg, GRID_CONFIG.format(seed=BASE_SEED))
    out_dir = os.path.join(workdir, "grid")
    code, _, _ = workloads.run_command(workloads.simulate_argv(cfg, out_dir))
    if code != 0:
        raise SystemExit(f"reference sweep exited {code}")
    path = os.path.join(out_dir, "eval.csv")
    with open(path, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[1].split(",")
    return [dict(zip(header, ln.split(","))) for ln in lines[2:]], workloads.sha256_file(path)


def coeff_reference(points, workdir, steps):
    exit_codes = {m: [] for m in workloads.P2_MODES}
    digests = {m: [] for m in workloads.P2_MODES}
    out_dir = os.path.join(workdir, "out")
    out = os.path.join(out_dir, "riccati.csv")
    for index, point in enumerate(points):
        cfg = os.path.join(workdir, f"p{index}.cfg")
        _write(cfg, workloads.point_config_text(point, 100_000, workloads.SWEEP_STEPS))
        for mode in workloads.P2_MODES:
            if os.path.exists(out):
                os.remove(out)
            code, _, _ = workloads.run_command(
                workloads.riccati_argv(cfg, out_dir, steps, mode))
            exit_codes[mode].append(code)
            digests[mode].append(workloads.sha256_file(out) if code == 0 else None)
    return {"steps": steps, "exit_codes": exit_codes, "sha256": digests}


def check_reference(workdir, n_paths):
    argvs = workloads.prepare_check_battery(workdir, n_paths)
    ref = {}
    for command in workloads.CHECK_COMMANDS:
        code, _, stdout = workloads.run_command(argvs[command])
        ref[command] = {"exit": code, "lines": workloads.check_lines(stdout)}
    return ref


def main():
    workdir = os.path.join(run.ROOT, ".perfbench_work", "reference")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        points = grid_points()
        reference = {
            "grid": GRID_CONFIG.format(seed=BASE_SEED),
            "points": points,
        }
        for toy in (False, True):
            sizes = workloads.SIZES[toy]
            suffix = "_toy" if toy else ""
            print(f"sweep_ref{suffix} ...", file=sys.stderr)
            reference["sweep_ref" + suffix] = sweep_reference(
                points, workdir, sizes["sweep_paths"])
            print(f"coeff_fine{suffix} ...", file=sys.stderr)
            reference["coeff_fine" + suffix] = coeff_reference(
                points, workdir, sizes["coeff_steps"])
            print(f"check_battery{suffix} ...", file=sys.stderr)
            reference["check_battery" + suffix] = check_reference(
                os.path.join(workdir, "check" + suffix), sizes["check_paths"])

        print("reference sweep as one command ...", file=sys.stderr)
        sweep_rows, sweep_sha = full_sweep_rows(workdir)
        for index, (row, ref) in enumerate(zip(sweep_rows, reference["sweep_ref"]["rows"])):
            for key in ("J_A", "J_A_se", "J_P", "J_P_se", "var_xT", "var_xT_se"):
                if float(row[key]) != ref[key]:
                    raise SystemExit(f"point {index}: one-point {key} differs from the sweep")
        reference["sweep_ref"]["sweep_eval_sha256"] = sweep_sha
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    path = os.path.join(run.HERE, "reference.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1)
        fh.write("\n")
    blowups = [i for i, c in enumerate(reference["coeff_fine"]["exit_codes"]["as_printed"])
               if c != 0]
    print(f"wrote {path}; as_printed blow-ups at points {blowups}", file=sys.stderr)


if __name__ == "__main__":
    main()
