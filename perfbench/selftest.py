"""Harness self-test: toy-sized runs of every workload.

    python3 perfbench/selftest.py

For each workload it checks that

- a toy run with ``--trace 0`` emits every end-to-end metric named in
  ``BENCHMARK.json`` with its unit, a ``--trace 1`` run every per-layer
  metric, and both pass their output checks and exit 0;
- a run against a reference with one deliberately corrupted row reports a
  failed operation, ``correct: false``, and exits non-zero.

Prints one line per check and exits 1 if any of them failed.
"""

import copy
import json
import os
import subprocess
import sys

import run

run.prepare_environment()

import workloads  # noqa: E402  (imports numpy: after the environment is set)

SEED = 1
TIMEOUT_S = 300


def corrupt(reference: dict, workload: str, first_point: int) -> dict:
    """A copy of the toy reference with the row the run checks first broken."""
    bad = copy.deepcopy(reference)
    if workload == "sweep_ref":
        row = bad["sweep_ref_toy"]["rows"][first_point]
        row["J_A"] += 100.0 * row["J_A_se"]
    elif workload == "coeff_fine":
        codes = bad["coeff_fine_toy"]["exit_codes"]["eta_equals_x"]
        codes[first_point] = 3 if codes[first_point] == 0 else 0
    else:
        lines = bad["check_battery_toy"]["check"]["lines"]
        lines[0] = lines[0].replace(":", "_corrupted:", 1)
    return bad


def bench(workload: str, trace: int, reference: str):
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload,
           "--seed", str(SEED), "--seconds", "1", "--trace", str(trace), "--toy",
           "--reference", reference]
    proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True, text=True,
                          timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stderr


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    ref_path = os.path.join(run.HERE, "reference.json")
    with open(ref_path, encoding="utf-8") as fh:
        reference = json.load(fh)
    first_point = workloads.point_order(SEED, len(reference["points"]))[0]
    scratch = os.path.join(run.ROOT, ".perfbench_work", "selftest")
    os.makedirs(scratch, exist_ok=True)

    failures = 0

    def report(ok: bool, what: str, detail: str = "") -> None:
        nonlocal failures
        failures += not ok
        print(f"{'PASS' if ok else 'FAIL'} {what}" + (f": {detail}" if detail else ""))

    for workload in sorted(workloads.WORKLOADS):
        for trace in (0, 1):
            code, result, stderr = bench(workload, trace, ref_path)
            what = f"{workload} trace={trace}"
            if result is None:
                report(False, what, f"no JSON result (exit {code}): {stderr[-500:]}")
                continue
            got = {k: v.get("unit") for k, v in result["metrics"].items()}
            wrong = sorted(k for k in set(got) | set(wanted[trace])
                           if got.get(k) != wanted[trace].get(k))
            report(code == 0 and result["correct"] and result["failed"] == 0,
                   what + " passes its output checks", f"exit {code}")
            report(not wrong, what + " emits every metric with its unit",
                   "mismatched: " + ", ".join(wrong) if wrong else "")

        bad_path = os.path.join(scratch, f"reference-{workload}.json")
        with open(bad_path, "w", encoding="utf-8") as fh:
            json.dump(corrupt(reference, workload, first_point), fh)
        code, result, _ = bench(workload, 0, bad_path)
        ok = (code != 0 and result is not None and not result["correct"]
              and result["failed"] >= 1)
        report(ok, f"{workload} flags a corrupted reference row",
               f"exit {code}, result {None if result is None else {k: result[k] for k in ('correct', 'attempted', 'failed')}}")

    print(f"{failures} self-test check(s) failed" if failures else "self-test passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
