"""Run configuration: a strict, flat key = value file format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are errors, so a sweep cannot silently run with a misspelled
override.  Values round-trip losslessly: floats are written with repr and
parsed back to the same bits.

Point lists for the multiplier sweep accept three spellings:

    lambda_P = 0.1                 a single value
    lambda_P = 0.1,0.3,0.5         an explicit comma list
    lambda_P = 0.1:0.9:9           linspace start:stop:count
"""

import dataclasses
import math
import os
from dataclasses import dataclass
from typing import Optional, Tuple

from .errors import ConfigError
from .model import AS_PRINTED, LqParams, P2_DRIFT_MODES
from .montecarlo import DEFAULT_CHUNK_SIZE

ENV_PREFIX = "MVCONTRACT_"

_CASE_CHOICES = ("i", "ii", "iii", "iv", "v")


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, serializable to the flat file format."""

    params: LqParams
    case_tag: str = "iv"
    lam_P_points: Tuple[float, ...] = (0.1,)
    theta_points: Optional[Tuple[float, ...]] = (math.pi / 2,)
    n_paths: int = 100_000
    n_steps: int = 64
    seed: int = 1
    p2_drift_mode: str = AS_PRINTED
    out_dir: str = "out"
    blow_up_bound: float = 1e8
    residual_tol: float = 1e-3
    feasibility_tol: float = 1e-3
    chunk_size: int = DEFAULT_CHUNK_SIZE
    coeffs_csv: Optional[str] = None
    weak_effort: float = 1.0
    weak_cashflow: float = 0.5


def default_config() -> RunConfig:
    """Reference configuration: the bounded closed-loop example instance."""
    return RunConfig(
        params=LqParams(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03),
        p2_drift_mode="eta_equals_x",
    )


def _parse_points(text: str, key: str) -> Tuple[float, ...]:
    text = text.strip()
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ConfigError(f"{key}: range syntax is start:stop:count, got {text!r}")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ConfigError(f"{key}: bad range {text!r}: {exc}") from None
        if count < 1:
            raise ConfigError(f"{key}: count must be >= 1, got {count}")
        if count == 1:
            return (start,)
        step = (stop - start) / (count - 1)
        # start + (count - 1) * step can miss stop by an ulp; pin it exactly
        return tuple(start + i * step for i in range(count - 1)) + (stop,)
    try:
        return tuple(float(v) for v in text.split(","))
    except ValueError as exc:
        raise ConfigError(f"{key}: bad point list {text!r}: {exc}") from None


def _format_points(points) -> str:
    return ",".join(repr(float(p)) for p in points)


_FLOAT_KEYS = {
    "a", "b", "sigma", "alpha", "beta", "T", "W0", "R0",
    "blow_up_bound", "residual_tol", "feasibility_tol",
    "weak_effort", "weak_cashflow",
}
_INT_KEYS = {"n_paths", "n_steps", "seed", "chunk_size"}
_STR_KEYS = {"case", "p2_drift_mode", "out_dir", "coeffs_csv"}
_POINT_KEYS = {"lambda_P", "theta"}
ALL_KEYS = _FLOAT_KEYS | _INT_KEYS | _STR_KEYS | _POINT_KEYS


def _coerce(key: str, raw: str):
    raw = raw.strip()
    try:
        if key in _FLOAT_KEYS:
            return float(raw)
        if key in _INT_KEYS:
            return int(raw)
        if key in _POINT_KEYS:
            return _parse_points(raw, key)
        return raw
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _build(values: dict) -> RunConfig:
    base = default_config()
    params_kwargs = {
        f.name: getattr(base.params, f.name) for f in dataclasses.fields(LqParams)
    }
    for key in ("a", "b", "sigma", "alpha", "beta", "T", "W0", "R0"):
        if key in values:
            params_kwargs[key] = values[key]
    try:
        params = LqParams(**params_kwargs)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None

    case_tag = values.get("case", base.case_tag)
    if case_tag not in _CASE_CHOICES:
        raise ConfigError(f"case must be one of {_CASE_CHOICES}, got {case_tag!r}")
    mode = values.get("p2_drift_mode", base.p2_drift_mode)
    if mode not in P2_DRIFT_MODES:
        raise ConfigError(
            f"p2_drift_mode must be one of {P2_DRIFT_MODES}, got {mode!r}"
        )

    if "theta" in values:
        theta_points: Optional[Tuple[float, ...]] = values["theta"]
    elif case_tag in ("iii", "iv"):
        theta_points = base.theta_points
    else:
        theta_points = None
    if case_tag not in ("iii", "iv"):
        theta_points = None

    config = RunConfig(
        params=params,
        case_tag=case_tag,
        lam_P_points=values.get("lambda_P", base.lam_P_points),
        theta_points=theta_points,
        n_paths=values.get("n_paths", base.n_paths),
        n_steps=values.get("n_steps", base.n_steps),
        seed=values.get("seed", base.seed),
        p2_drift_mode=mode,
        out_dir=values.get("out_dir", base.out_dir),
        blow_up_bound=values.get("blow_up_bound", base.blow_up_bound),
        residual_tol=values.get("residual_tol", base.residual_tol),
        feasibility_tol=values.get("feasibility_tol", base.feasibility_tol),
        chunk_size=values.get("chunk_size", base.chunk_size),
        coeffs_csv=values.get("coeffs_csv", None),
        weak_effort=values.get("weak_effort", base.weak_effort),
        weak_cashflow=values.get("weak_cashflow", base.weak_cashflow),
    )
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
    if config.n_paths < 2:
        raise ConfigError(f"n_paths must be >= 2, got {config.n_paths}")
    if config.n_steps < 2:
        raise ConfigError(f"n_steps must be >= 2, got {config.n_steps}")
    if not 0 <= config.seed < 2**64:
        raise ConfigError(f"seed must be a 64-bit unsigned integer, got {config.seed}")
    if config.chunk_size < 1:
        raise ConfigError(f"chunk_size must be >= 1, got {config.chunk_size}")
    for key in ("blow_up_bound", "residual_tol"):
        value = getattr(config, key)
        if not (math.isfinite(value) and value > 0.0):
            raise ConfigError(f"{key} must be finite and > 0, got {value!r}")
    if not (math.isfinite(config.feasibility_tol) and config.feasibility_tol >= 0.0):
        raise ConfigError(
            f"feasibility_tol must be finite and >= 0, got {config.feasibility_tol!r}"
        )
    for key in ("weak_effort", "weak_cashflow"):
        if not math.isfinite(getattr(config, key)):
            raise ConfigError(f"{key} must be finite, got {getattr(config, key)!r}")
    from .model import MIN_LAMBDA_P

    for lp in config.lam_P_points:
        if not MIN_LAMBDA_P <= lp <= 1.0:
            raise ConfigError(
                f"lambda_P points must lie in [{MIN_LAMBDA_P:g}, 1], got {lp:g}"
            )
    if config.case_tag in ("iii", "iv"):
        if not config.theta_points:
            raise ConfigError(f"case {config.case_tag} requires theta points")
        lo, hi = (-math.pi / 2, 0.0) if config.case_tag == "iii" else (0.0, math.pi / 2)
        for th in config.theta_points:
            if not lo <= th <= hi:
                raise ConfigError(
                    f"case {config.case_tag} requires theta in [{lo:g}, {hi:g}], got {th:g}"
                )


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    values = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in ALL_KEYS:
            raise ConfigError(f"{source}:{lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"{source}:{lineno}: duplicate key {key!r}")
        values[key] = _coerce(key, raw)
    return _build(values)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, source=path)


def config_to_text(config: RunConfig) -> str:
    """Serialize to the file format; parsing the output reproduces the config."""
    p = config.params
    lines = [
        "# model parameters",
        f"a = {p.a!r}            # output drift coefficient (1/time)",
        f"b = {p.b!r}            # effort gain (dimensionless)",
        f"sigma = {p.sigma!r}        # output volatility",
        f"alpha = {p.alpha!r}        # agent bonus factor",
        f"beta = {p.beta!r}         # principal bonus factor",
        f"T = {p.T!r}           # horizon (time units)",
        f"W0 = {p.W0!r}          # participation bound on agent cost",
        f"R0 = {p.R0!r}           # bound on Var(x(T))",
        "# multiplier sweep",
        f"case = {config.case_tag}",
        f"lambda_P = {_format_points(config.lam_P_points)}",
    ]
    if config.theta_points is not None:
        lines.append(f"theta = {_format_points(config.theta_points)}   # radians")
    lines += [
        "# run controls",
        f"n_paths = {config.n_paths}",
        f"n_steps = {config.n_steps}",
        f"seed = {config.seed}",
        f"p2_drift_mode = {config.p2_drift_mode}",
        f"out_dir = {config.out_dir}",
        f"blow_up_bound = {config.blow_up_bound!r}",
        f"residual_tol = {config.residual_tol!r}",
        f"feasibility_tol = {config.feasibility_tol!r}",
        f"chunk_size = {config.chunk_size}",
        f"weak_effort = {config.weak_effort!r}   # constant effort of the density-check instance",
        f"weak_cashflow = {config.weak_cashflow!r}  # constant cash-flow of the density-check instance",
    ]
    if config.coeffs_csv is not None:
        lines.append(f"coeffs_csv = {config.coeffs_csv}")
    return "\n".join(lines) + "\n"


def write_config(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_text(config))


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Re-build a config with string overrides (flag or environment values)."""
    values = {}
    for key, raw in overrides.items():
        if key not in ALL_KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = _coerce(key, raw)

    merged = {
        "a": config.params.a, "b": config.params.b, "sigma": config.params.sigma,
        "alpha": config.params.alpha, "beta": config.params.beta, "T": config.params.T,
        "W0": config.params.W0, "R0": config.params.R0,
        "case": config.case_tag, "lambda_P": config.lam_P_points,
        "n_paths": config.n_paths, "n_steps": config.n_steps, "seed": config.seed,
        "p2_drift_mode": config.p2_drift_mode, "out_dir": config.out_dir,
        "blow_up_bound": config.blow_up_bound, "residual_tol": config.residual_tol,
        "feasibility_tol": config.feasibility_tol, "chunk_size": config.chunk_size,
        "weak_effort": config.weak_effort, "weak_cashflow": config.weak_cashflow,
    }
    if config.theta_points is not None:
        merged["theta"] = config.theta_points
    if config.coeffs_csv is not None:
        merged["coeffs_csv"] = config.coeffs_csv
    merged.update(values)
    return _build(merged)


# flag-style spellings accepted alongside the config-key spellings
_ENV_ALIASES = {
    "PATHS": "n_paths",
    "STEPS": "n_steps",
    "OUT": "out_dir",
    "P2_MODE": "p2_drift_mode",
    "COEFFS": "coeffs_csv",
}


def env_overrides(environ=None) -> dict:
    """Collect overrides from MVCONTRACT_-prefixed environment variables."""
    environ = os.environ if environ is None else environ
    found = {}
    for alias, key in _ENV_ALIASES.items():
        if ENV_PREFIX + alias in environ:
            found[key] = environ[ENV_PREFIX + alias]
    for key in sorted(ALL_KEYS):
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            found[key] = environ[env_key]
    return found
