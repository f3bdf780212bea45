"""Command-line interface.

Subcommands

    riccati    integrate the backward coefficient system, write riccati.csv
    simulate   sweep the multiplier grid, evaluate contracts, write eval.csv
    check      run the oracle battery (terminal values, residuals, argmax,
               martingale, variance oracle); nonzero exit on any failure
    weakcheck  density / measure-change / optimality-condition checks

Flags override environment variables (MVCONTRACT_<KEY>), which override the
config file, which overrides built-in defaults.  Exit codes: 0 success,
2 configuration error, 3 numerical blow-up or divergence, 4 oracle failure.

CSV outputs are byte-stable for identical configurations: plain LF line
endings, full-precision repr floats, no timestamps.
"""

import argparse
import os
import sys
from typing import List, Optional

import numpy as np

from . import __version__
from .checks import run_check_battery, run_weak_battery
from .config import (
    RunConfig,
    apply_overrides,
    default_config,
    env_overrides,
    load_config,
)
from .errors import (
    ConfigError,
    DegenerateMultiplierError,
    DegenerateSensitivityError,
    RiccatiBlowUpError,
    SimulationDivergedError,
)
from .model import LqParams
from .montecarlo import evaluate_contract
from .multipliers import MultiplierTriple, classify_feasibility, sweep_grid
from .riccati import COEFF_NAMES, RiccatiSolution, integrate_riccati
from .timegrid import make_grid

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_ORACLE = 4

_M64 = (1 << 64) - 1


def _mix64(v: int) -> int:
    """splitmix64 finalizer; fixed integer mixing for per-point seeds."""
    v = (v + 0x9E3779B97F4A7C15) & _M64
    v = ((v ^ (v >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    v = ((v ^ (v >> 27)) * 0x94D049BB133111EB) & _M64
    return (v ^ (v >> 31)) & _M64


def point_seed(base_seed: int, index: int) -> int:
    """Deterministic per-sweep-point seed: base xor mixed grid index."""
    return (base_seed ^ _mix64(index)) & _M64


def _fmt(v: float) -> str:
    return repr(float(v))


def _params_meta(params: LqParams) -> str:
    return " ".join(
        f"{name}={_fmt(getattr(params, name))}"
        for name in ("a", "b", "sigma", "alpha", "beta", "T", "W0", "R0")
    )


def _mult_meta(mult: MultiplierTriple) -> str:
    theta = "none" if mult.theta is None else _fmt(mult.theta)
    return (
        f"case={mult.case_tag} lambda_P={_fmt(mult.lam_P)} theta={theta} "
        f"lambda_E={_fmt(mult.lam_E)} lambda_V={_fmt(mult.lam_V)}"
    )


#: riccati.csv columns; the means m_x, m_R vanish identically and are written as 0.0.
RICCATI_COLUMNS = ("t",) + COEFF_NAMES + ("m_x", "m_R")


def write_riccati_csv(path: str, sol: RiccatiSolution) -> None:
    header = ",".join(RICCATI_COLUMNS)
    meta = (
        f"# {_params_meta(sol.params)} {_mult_meta(sol.multipliers)} "
        f"p2_drift_mode={sol.p2_drift_mode}"
    )
    times = sol.grid.points
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(meta + "\n")
        fh.write(header + "\n")
        for k in range(sol.grid.n_points):
            row = [_fmt(times[k])]
            row += [_fmt(v) for v in sol.coeffs[k]]
            row += ["0.0", "0.0"]
            fh.write(",".join(row) + "\n")


def load_riccati_csv(path: str) -> RiccatiSolution:
    """Rebuild a coefficient solution from a riccati.csv written by this tool."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.rstrip("\n") for ln in fh]
    except OSError as exc:
        raise ConfigError(f"cannot read coefficient file {path}: {exc}") from None
    if len(lines) < 4 or not lines[0].startswith("#"):
        raise ConfigError(f"{path}: not a coefficient table written by this tool")
    meta = {}
    for token in lines[0][1:].split():
        key, _, val = token.partition("=")
        meta[key] = val
    try:
        params = LqParams(**{k: float(meta[k]) for k in
                             ("a", "b", "sigma", "alpha", "beta", "T", "W0", "R0")})
        theta = None if meta["theta"] == "none" else float(meta["theta"])
        mult = MultiplierTriple(
            lam_P=float(meta["lambda_P"]), lam_E=float(meta["lambda_E"]),
            lam_V=float(meta["lambda_V"]), case_tag=meta["case"], theta=theta,
        )
        mode = meta["p2_drift_mode"]
    except (KeyError, ValueError) as exc:
        raise ConfigError(f"{path}: bad metadata line: {exc}") from None
    if lines[1] != ",".join(RICCATI_COLUMNS):
        raise ConfigError(f"{path}: unexpected header {lines[1]!r}")
    rows, line_nos = [], []
    for line_no, ln in enumerate(lines[2:], start=3):
        if not ln:
            continue
        fields = ln.split(",")
        if len(fields) != len(RICCATI_COLUMNS):
            raise ConfigError(f"{path}, line {line_no}: {len(fields)} fields, "
                              f"expected {len(RICCATI_COLUMNS)}")
        try:
            rows.append([float(v) for v in fields])
        except ValueError as exc:
            raise ConfigError(f"{path}, line {line_no}: {exc}") from None
        line_nos.append(line_no)
    if len(rows) < 3:
        raise ConfigError(f"{path}: {len(rows)} coefficient rows, a grid needs at least 3")
    data = np.array(rows)
    column = np.array(RICCATI_COLUMNS)

    def reject(mask, what):
        if mask.any():
            k, j = np.argwhere(mask)[0]
            raise ConfigError(f"{path}, line {line_nos[k]}: "
                              f"{column[j]} = {float(data[k, j])!r} {what}")

    reject(~np.isfinite(data), "is not finite")
    reject((data != 0.0) & np.isin(column, ("m_x", "m_R")),
           "is not 0; the means vanish identically")
    grid = make_grid(params.T, len(rows) - 1)
    reject((data != grid.points[:, None]) & (column == "t"),
           f"is not the node of the {grid.n_steps}-step grid on [0, {params.T!r}]")
    return RiccatiSolution(
        grid=grid, params=params, multipliers=mult,
        coeffs=data[:, 1:13].copy(), p2_drift_mode=mode,
    )


EVAL_HEADER = (
    "lambda_P,theta,lambda_E,lambda_V,J_A,J_A_se,J_P,J_P_se,"
    "var_xT,var_xT_se,feasible_JA,feasible_var"
)


def cmd_riccati(config: RunConfig) -> int:
    triples = sweep_grid(config.case_tag, config.lam_P_points, config.theta_points)
    mult = triples[0]
    grid = make_grid(config.params.T, config.n_steps)
    sol = integrate_riccati(
        config.params, mult, grid, config.p2_drift_mode, config.blow_up_bound
    )
    os.makedirs(config.out_dir, exist_ok=True)
    out_path = os.path.join(config.out_dir, "riccati.csv")
    write_riccati_csv(out_path, sol)
    print(f"wrote {out_path} ({grid.n_points} rows, {_mult_meta(mult)})")
    return EXIT_OK


def cmd_simulate(config: RunConfig) -> int:
    triples = sweep_grid(config.case_tag, config.lam_P_points, config.theta_points)
    os.makedirs(config.out_dir, exist_ok=True)
    out_path = os.path.join(config.out_dir, "eval.csv")
    meta = (
        f"# {_params_meta(config.params)} case={config.case_tag} "
        f"lambda_P_points={len(config.lam_P_points)} "
        f"theta_points={0 if config.theta_points is None else len(config.theta_points)} "
        f"n_paths={config.n_paths} n_steps={config.n_steps} seed={config.seed} "
        f"p2_drift_mode={config.p2_drift_mode}"
    )
    rows = []
    with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(meta + "\n")
        fh.write(EVAL_HEADER + "\n")
        for index, mult in enumerate(triples):
            ev = evaluate_contract(
                params=config.params,
                mult=mult,
                n_paths=config.n_paths,
                n_steps=config.n_steps,
                seed=point_seed(config.seed, index),
                p2_drift_mode=config.p2_drift_mode,
                chunk_size=config.chunk_size,
                blow_up_bound=config.blow_up_bound,
            )
            verdict = classify_feasibility(ev, config.params, config.feasibility_tol)
            theta = float("nan") if mult.theta is None else mult.theta
            fh.write(",".join([
                _fmt(mult.lam_P), _fmt(theta), _fmt(mult.lam_E), _fmt(mult.lam_V),
                _fmt(ev.j_a), _fmt(ev.j_a_se), _fmt(ev.j_p), _fmt(ev.j_p_se),
                _fmt(ev.var_xt), _fmt(ev.var_xt_se),
                verdict.agent_cost, verdict.variance,
            ]) + "\n")
            fh.flush()
            rows.append((mult, ev, verdict))

    print(f"wrote {out_path} ({len(rows)} grid points)")
    print(f"{'lam_P':>7} {'theta':>7} {'J_A':>12} {'J_P':>12} {'var_xT':>12} "
          f"{'JA?':>10} {'var?':>10}")
    for mult, ev, verdict in rows:
        theta = float("nan") if mult.theta is None else mult.theta
        print(f"{mult.lam_P:7.3f} {theta:7.3f} "
              f"{ev.j_a:12.5e} {ev.j_p:12.5e} {ev.var_xt:12.5e} "
              f"{verdict.agent_cost:>10} {verdict.variance:>10}")
    return EXIT_OK


def _report(results) -> int:
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail}")
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    if failed:
        print("failed: " + ", ".join(r.name for r in failed), file=sys.stderr)
        return EXIT_ORACLE
    return EXIT_OK


def cmd_check(config: RunConfig) -> int:
    coeff_sol = None
    if config.coeffs_csv is not None:
        coeff_sol = load_riccati_csv(config.coeffs_csv)
    return _report(run_check_battery(config, coeff_sol))


def cmd_weakcheck(config: RunConfig) -> int:
    return _report(run_weak_battery(config))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mvcontract",
        description="Optimal mean-variance principal-agent contracts "
                    "(linear-quadratic hidden-contract model).",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in [
        ("riccati", "integrate the backward coefficient system and dump CSV"),
        ("simulate", "sweep multipliers, evaluate contracts by Monte Carlo"),
        ("check", "run the oracle battery"),
        ("weakcheck", "run density / measure-change checks"),
    ]:
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="path to a key = value config file")
        p.add_argument("--out", help="output directory")
        p.add_argument("--seed", help="base RNG seed (64-bit unsigned)")
        p.add_argument("--paths", help="number of Monte-Carlo paths")
        p.add_argument("--steps", help="number of time steps")
        p.add_argument("--case", help="transversality case: i|ii|iii|iv|v")
        p.add_argument(
            "--p2-mode", dest="p2_mode",
            help="P2 coupling convention: as_printed|eta_equals_x",
        )
        if name == "check":
            p.add_argument("--coeffs", help="validate this riccati.csv file")
    return parser


_FLAG_TO_KEY = {
    "out": "out_dir",
    "seed": "seed",
    "paths": "n_paths",
    "steps": "n_steps",
    "case": "case",
    "p2_mode": "p2_drift_mode",
    "coeffs": "coeffs_csv",
}


def resolve_config(args: argparse.Namespace) -> RunConfig:
    env = env_overrides()
    config_path = args.config or os.environ.get("MVCONTRACT_CONFIG")
    config = load_config(config_path) if config_path else default_config()
    if env:
        config = apply_overrides(config, env)
    flag_overrides = {
        key: getattr(args, flag)
        for flag, key in _FLAG_TO_KEY.items()
        if getattr(args, flag, None) is not None
    }
    if flag_overrides:
        config = apply_overrides(config, flag_overrides)
    return config


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        config = resolve_config(args)
        handler = {
            "riccati": cmd_riccati,
            "simulate": cmd_simulate,
            "check": cmd_check,
            "weakcheck": cmd_weakcheck,
        }[args.command]
        return handler(config)
    except (ConfigError, DegenerateMultiplierError, DegenerateSensitivityError,
            ValueError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RiccatiBlowUpError, SimulationDivergedError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
