"""The three benchmark workloads: inputs made from a seed, commands, output checks.

Every operation is one in-process ``mvcontract`` CLI command.  A workload
hands out passes (short lists of operations) for as long as the run lasts;
each operation carries the check of its own output against the recorded
reference (``reference.json``), so a wrong answer counts as a failed
operation however fast it came.

Why each workload exists:

- ``sweep_ref``: one ``simulate`` command per point of the case-iv 9x10
  reference grid at the reference 1e5 paths x 64 steps.  Noise generation and
  closed-loop stepping do almost all the work; the Riccati solve is a few
  percent.  Paths and steps stay at the reference values because they set the
  per-chunk working set (33 MB per 65536-path noise block, far past L2).
- ``coeff_fine``: one ``riccati --steps 4096`` command per grid point, in both
  P2 conventions.  RK4, the mean integration and CSV writing do all the work;
  there is no noise and no Monte Carlo, so an MC-only change should show
  nothing here.  ``as_printed`` blows up (exit 3) at four points, which the
  reference expects.
- ``check_battery``: ``check``, ``check --coeffs`` and ``weakcheck`` on the
  default configuration.  They run the generic Euler stepper, the residual
  oracle, the density checks and unchunked noise, the closed-loop path a
  Monte-Carlo-only optimisation does not reach.
"""

import contextlib
import hashlib
import io
import os
import random
import time
import traceback
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from mvcontract import cli

#: A sweep point fails when an estimate or its standard error moves from the
#: reference by more than this share of the reference standard error.
SE_SHARE_TOL = 0.01

ESTIMATES = ("J_A", "J_P", "var_xT")

P2_MODES = ("eta_equals_x", "as_printed")

CHECK_COMMANDS = ("check", "check_coeffs", "weakcheck")

#: Sizes of the full workloads and of their toy versions (harness self-test).
SIZES = {
    False: {"sweep_paths": 100_000, "coeff_steps": 4096, "check_paths": None},
    True: {"sweep_paths": 2_000, "coeff_steps": 256, "check_paths": 4_000},
}

SWEEP_STEPS = 64
CHECK_COEFF_STEPS = 256

# Verification result: an error message (None when the output is right) and
# whether the output file is byte-identical to the reference's.
Verdict = Tuple[Optional[str], Optional[bool]]


@dataclass
class Op:
    """One CLI command of a pass together with the check of its output."""

    label: str
    argv: List[str]
    verify: Callable[[int, str], Verdict]
    output: Optional[str] = None  # removed before the command runs


@dataclass
class OpResult:
    label: str
    seconds: Optional[float]  # None when the command raised
    error: Optional[str]
    bit_identical: Optional[bool] = None


def sha256_file(path: str) -> str:
    """Hex sha256 of a file's bytes."""
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def run_command(argv: List[str]) -> Tuple[int, float, str]:
    """Run one CLI command in process; return (exit code, seconds, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        t0 = time.perf_counter()
        code = cli.main(argv)
        seconds = time.perf_counter() - t0
    return code, seconds, out.getvalue()


def run_op(op: Op) -> OpResult:
    if op.output is not None and os.path.exists(op.output):
        os.remove(op.output)
    try:
        code, seconds, stdout = run_command(op.argv)
    except Exception:  # a crashing command is a failed operation, not a failed run
        return OpResult(op.label, None, "command raised:\n" + traceback.format_exc())
    error, identical = op.verify(code, stdout)
    return OpResult(op.label, seconds, error, identical)


def point_config_text(point: Dict, n_paths: int, n_steps: int) -> str:
    """Config file for one reference grid point and its reference MC seed."""
    return (
        "case = iv\n"
        f"lambda_P = {point['lambda_P']!r}\n"
        f"theta = {point['theta']!r}\n"
        f"n_paths = {n_paths}\n"
        f"n_steps = {n_steps}\n"
        f"seed = {point['seed']}\n"
        "p2_drift_mode = eta_equals_x\n"
    )


def check_config_text(n_paths: Optional[int]) -> str:
    """The default configuration, optionally with fewer paths (toy runs)."""
    return "" if n_paths is None else f"n_paths = {n_paths}\n"


def point_order(seed: int, n_points: int) -> List[int]:
    """The seed's visiting order of the grid points."""
    order = list(range(n_points))
    random.Random(seed).shuffle(order)
    return order


def read_eval_row(path: str) -> Dict[str, str]:
    """The single data row of a one-point eval.csv, keyed by column name."""
    with open(path, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    if len(lines) != 3:
        raise ValueError(f"{path}: expected 3 lines, found {len(lines)}")
    return dict(zip(lines[1].split(","), lines[2].split(",")))


def check_lines(stdout: str) -> List[str]:
    """The PASS/FAIL lines a check command printed."""
    return [ln for ln in stdout.splitlines() if ln.startswith(("PASS ", "FAIL "))]


def _check_name(line: str) -> str:
    return line.split(" ", 1)[1].split(":", 1)[0]


def simulate_argv(config: str, out_dir: str) -> List[str]:
    return ["simulate", "--config", config, "--out", out_dir]


def riccati_argv(config: str, out_dir: str, steps: int, mode: str) -> List[str]:
    return ["riccati", "--config", config, "--out", out_dir,
            "--steps", str(steps), "--p2-mode", mode]


def prepare_check_battery(workdir: str, n_paths: Optional[int]) -> Dict[str, List[str]]:
    """Write the battery's config and coefficient table; return each command's argv."""
    os.makedirs(workdir, exist_ok=True)
    config = os.path.join(workdir, "check.cfg")
    with open(config, "w", encoding="utf-8") as fh:
        fh.write(check_config_text(n_paths))
    coeff_dir = os.path.join(workdir, "coeffs")
    code, _, _ = run_command(riccati_argv(config, coeff_dir, CHECK_COEFF_STEPS, "eta_equals_x"))
    if code != 0:
        raise RuntimeError(f"set-up riccati command exited {code}")
    return {
        "check": ["check", "--config", config],
        "check_coeffs": ["check", "--config", config,
                         "--coeffs", os.path.join(coeff_dir, "riccati.csv")],
        "weakcheck": ["weakcheck", "--config", config],
    }


class _Workload:
    name = ""
    commands_per_pass = 0

    def __init__(self, reference: Dict, workdir: str, seed: int, toy: bool):
        self.workdir = workdir
        self.sizes = SIZES[toy]
        self.key = self.name + ("_toy" if toy else "")
        os.makedirs(workdir, exist_ok=True)

    def _path(self, *parts: str) -> str:
        return os.path.join(self.workdir, *parts)

    def setup_argv(self) -> List[str]:
        """The command whose start-up (imports, config resolution) setup_s times."""
        return self.warmup()[0].argv

    def warmup(self) -> List[Op]:
        raise NotImplementedError

    def next_pass(self) -> List[Op]:
        raise NotImplementedError


class _GridWorkload(_Workload):
    """Base of the workloads that walk the reference grid in seed order."""

    def __init__(self, reference, workdir, seed, toy):
        super().__init__(reference, workdir, seed, toy)
        self.points = reference["points"]
        self.order = point_order(seed, len(self.points))
        self._cursor = 0
        os.makedirs(self._path("cfg"), exist_ok=True)
        for index, point in enumerate(self.points):
            with open(self._path("cfg", f"p{index}.cfg"), "w", encoding="utf-8") as fh:
                fh.write(point_config_text(point, self.sizes["sweep_paths"], SWEEP_STEPS))

    def _next_points(self, count: int) -> List[int]:
        chosen = [self.order[(self._cursor + i) % len(self.order)] for i in range(count)]
        self._cursor += count
        return chosen


class SweepRef(_GridWorkload):
    name = "sweep_ref"
    commands_per_pass = 5

    def __init__(self, reference, workdir, seed, toy):
        super().__init__(reference, workdir, seed, toy)
        ref = reference[self.key]
        self.rows = ref["rows"]
        self.path_steps_per_op = ref["n_paths"] * ref["n_steps"]
        if ref["n_paths"] != self.sizes["sweep_paths"]:
            raise ValueError(f"{self.key}: reference was made at another path count")

    def _op(self, index: int) -> Op:
        out_dir = self._path("out")
        out = os.path.join(out_dir, "eval.csv")
        row_ref = self.rows[index]

        def verify(code: int, stdout: str) -> Verdict:
            if code != 0:
                return f"point {index}: simulate exited {code}", None
            try:
                row = read_eval_row(out)
                errors = []
                for name in ESTIMATES:
                    se = row_ref[name + "_se"]
                    for key in (name, name + "_se"):
                        gap = abs(float(row[key]) - row_ref[key])
                        if not gap <= SE_SHARE_TOL * se:
                            errors.append(f"{key}={row[key]} ref={row_ref[key]!r}")
            except (OSError, ValueError, KeyError) as exc:
                return f"point {index}: unreadable eval.csv: {exc}", None
            identical = sha256_file(out) == row_ref["sha256"]
            if errors:
                return f"point {index}: " + "; ".join(errors), identical
            return None, identical

        argv = simulate_argv(self._path("cfg", f"p{index}.cfg"), out_dir)
        return Op(f"point{index}", argv, verify, out)

    def warmup(self):
        return [self._op(self.order[0])]

    def next_pass(self):
        return [self._op(i) for i in self._next_points(self.commands_per_pass)]


class CoeffFine(_GridWorkload):
    name = "coeff_fine"
    points_per_pass = 2
    commands_per_pass = points_per_pass * len(P2_MODES)

    def __init__(self, reference, workdir, seed, toy):
        super().__init__(reference, workdir, seed, toy)
        ref = reference[self.key]
        self.steps = ref["steps"]
        self.exit_codes = ref["exit_codes"]
        self.sha = ref["sha256"]
        if self.steps != self.sizes["coeff_steps"]:
            raise ValueError(f"{self.key}: reference was made at another step count")
        self.coeff_steps_per_op = self.steps

    def _op(self, index: int, mode: str) -> Op:
        out_dir = self._path("out")
        out = os.path.join(out_dir, "riccati.csv")
        want = self.exit_codes[mode][index]

        def verify(code: int, stdout: str) -> Verdict:
            if code != want:
                return f"point {index} {mode}: riccati exited {code}, reference {want}", None
            if code != 0:
                return None, None
            try:
                with open(out, "rb") as fh:
                    n_lines = fh.read().count(b"\n")
            except OSError as exc:
                return f"point {index} {mode}: {exc}", None
            if n_lines != self.steps + 3:
                return f"point {index} {mode}: {n_lines} lines, want {self.steps + 3}", None
            return None, sha256_file(out) == self.sha[mode][index]

        argv = riccati_argv(self._path("cfg", f"p{index}.cfg"), out_dir, self.steps, mode)
        return Op(f"point{index}.{mode}", argv, verify, out)

    def warmup(self):
        return [self._op(self.order[0], mode) for mode in P2_MODES]

    def next_pass(self):
        return [self._op(i, mode) for i in self._next_points(self.points_per_pass)
                for mode in P2_MODES]


class CheckBattery(_Workload):
    name = "check_battery"
    commands_per_pass = len(CHECK_COMMANDS)

    def __init__(self, reference, workdir, seed, toy):
        super().__init__(reference, workdir, seed, toy)
        self.ref = reference[self.key]
        self.rng = random.Random(seed)
        self.argv = prepare_check_battery(workdir, self.sizes["check_paths"])

    def _op(self, command: str) -> Op:
        ref = self.ref[command]

        def verify(code: int, stdout: str) -> Verdict:
            lines = check_lines(stdout)
            failed = [_check_name(ln) for ln in lines if ln.startswith("FAIL ")]
            missing = ({_check_name(ln) for ln in ref["lines"]}
                       - {_check_name(ln) for ln in lines if ln.startswith("PASS ")})
            errors = []
            if code != ref["exit"]:
                errors.append(f"exit {code}, reference {ref['exit']}")
            if failed:
                errors.append("FAIL " + ", ".join(failed))
            if missing:
                errors.append("no PASS line for " + ", ".join(sorted(missing)))
            error = f"{command}: " + "; ".join(errors) if errors else None
            return error, lines == ref["lines"]

        return Op(command, list(self.argv[command]), verify)

    def warmup(self):
        return [self._op("weakcheck")]

    def next_pass(self):
        commands = list(CHECK_COMMANDS)
        self.rng.shuffle(commands)
        return [self._op(c) for c in commands]


WORKLOADS = {w.name: w for w in (SweepRef, CoeffFine, CheckBattery)}
