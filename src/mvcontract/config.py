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


_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(LqParams))

#: config key -> (field, kind).  The LqParams fields keep their names; every
#: other key names a RunConfig field.  A kind of tuple marks a point list.
_KEYS = {
    **{name: (name, float) for name in _PARAM_KEYS},
    "case": ("case_tag", str),
    "lambda_P": ("lam_P_points", tuple),
    "theta": ("theta_points", tuple),
    **{name: (name, int) for name in ("n_paths", "n_steps", "seed", "chunk_size")},
    **{name: (name, str) for name in ("p2_drift_mode", "out_dir", "coeffs_csv")},
    **{name: (name, float) for name in (
        "blow_up_bound", "residual_tol", "feasibility_tol", "weak_effort", "weak_cashflow",
    )},
}


def _coerce(key: str, raw: str):
    raw = raw.strip()
    kind = _KEYS[key][1]
    try:
        return _parse_points(raw, key) if kind is tuple else kind(raw)
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"bad value for {key}: {raw!r} ({exc})") from None


def _build(values: dict) -> RunConfig:
    """The default config with ``values`` (config key -> parsed value) set."""
    base = default_config()
    given = {field: values[key] for key, (field, _) in _KEYS.items() if key in values}
    try:
        params = dataclasses.replace(
            base.params, **{name: given.pop(name) for name in _PARAM_KEYS if name in given}
        )
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    given.setdefault("coeffs_csv", None)  # a coefficient file is never a default
    config = dataclasses.replace(base, params=params, **given)

    if config.case_tag not in _CASE_CHOICES:
        raise ConfigError(f"case must be one of {_CASE_CHOICES}, got {config.case_tag!r}")
    if config.p2_drift_mode not in P2_DRIFT_MODES:
        raise ConfigError(
            f"p2_drift_mode must be one of {P2_DRIFT_MODES}, got {config.p2_drift_mode!r}"
        )
    # theta is read in cases iii and iv only, which default to the base points
    if config.case_tag not in ("iii", "iv"):
        config = dataclasses.replace(config, theta_points=None)
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
        if key not in _KEYS:
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
    """Serialize to the file format; parsing the output reproduces the config.

    A string value that could not be read back unchanged, one holding ``#``
    or a line break or with surrounding whitespace, is a ``ConfigError``.
    """
    lines = []
    for key, (field, kind) in _KEYS.items():
        value = getattr(config.params if key in _PARAM_KEYS else config, field)
        if value is None:  # an unset theta or coeffs_csv
            continue
        if kind is tuple:
            value = _format_points(value)
        elif kind is not str:
            value = repr(value)
        elif "#" in value or value != value.strip() or len(value.splitlines()) > 1:
            raise ConfigError(f"{key} = {value!r} cannot be written to a config file")
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_config(config: RunConfig, path: str) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(config_to_text(config))


def apply_overrides(config: RunConfig, overrides: dict) -> RunConfig:
    """Re-build a config with string overrides (flag or environment values)."""
    values = {}
    for key, raw in overrides.items():
        if key not in _KEYS:
            raise ConfigError(f"unknown override key {key!r}")
        values[key] = _coerce(key, raw)

    current = {
        key: getattr(config.params if key in _PARAM_KEYS else config, field)
        for key, (field, _) in _KEYS.items()
    }
    # an unset theta or coeffs_csv stays unset, so _build's defaults apply
    merged = {key: value for key, value in current.items() if value is not None}
    return _build({**merged, **values})


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
    for key in sorted(_KEYS):
        env_key = ENV_PREFIX + key.upper()
        if env_key in environ:
            found[key] = environ[env_key]
    return found
