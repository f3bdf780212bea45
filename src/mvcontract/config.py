"""Run configuration: a strict, flat key = value file format.

Lines are ``key = value``; blank lines and ``#`` comments are ignored.
Unknown keys are errors, so a sweep cannot silently run with a misspelled
override.  Floats are parsed with ``float``, so a value written with
``repr`` reads back to the same bits.  A range is checked where it is
stated, by building what a run builds (``LqParams``, time grid, multiplier
sweep, P2 mode, path count, seed); a ``ValueError`` is a ``ConfigError``.

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
from .model import ETA_EQUALS_X, LqParams, check_mode
from .montecarlo import check_paths
from .multipliers import sweep_grid
from .noise import check_seed
from .riccati import DEFAULT_BLOW_UP_BOUND
from .timegrid import make_grid

ENV_PREFIX = "MVCONTRACT_"


@dataclass(frozen=True)
class RunConfig:
    """Everything a CLI run needs, as read from the flat file format.

    The field defaults are the shipped configuration: the bounded
    closed-loop example instance.
    """

    params: LqParams = LqParams(a=1.0, b=1.0, sigma=1.0, alpha=0.2, beta=1.0, T=0.03)
    case_tag: str = "iv"
    lam_P_points: Tuple[float, ...] = (0.1,)
    theta_points: Optional[Tuple[float, ...]] = (math.pi / 2,)
    n_paths: int = 100_000
    n_steps: int = 64
    seed: int = 1
    p2_drift_mode: str = ETA_EQUALS_X
    out_dir: str = "out"
    blow_up_bound: float = DEFAULT_BLOW_UP_BOUND
    residual_tol: float = 1e-3
    feasibility_tol: float = 1e-3
    coeffs_csv: Optional[str] = None
    weak_effort: float = 1.0
    weak_cashflow: float = 0.5


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


_PARAM_KEYS = tuple(f.name for f in dataclasses.fields(LqParams))

#: config key -> (field, kind).  The LqParams fields keep their names; every
#: other key names a RunConfig field.  A kind of tuple marks a point list.
_KEYS = {
    **{name: (name, float) for name in _PARAM_KEYS},
    "case": ("case_tag", str),
    "lambda_P": ("lam_P_points", tuple),
    "theta": ("theta_points", tuple),
    **{name: (name, int) for name in ("n_paths", "n_steps", "seed")},
    **{name: (name, str) for name in ("p2_drift_mode", "out_dir", "coeffs_csv")},
    **{name: (name, float) for name in (
        "blow_up_bound", "residual_tol", "feasibility_tol", "weak_effort", "weak_cashflow",
    )},
}


def _coerce(key: str, raw: str, source: str):
    raw = raw.strip()
    kind = _KEYS[key][1]
    try:
        return _parse_points(raw, key) if kind is tuple else kind(raw)
    except ConfigError as exc:
        raise ConfigError(f"{source}: {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"{source}: bad value for {key}: {raw!r} ({exc})") from None


def _parse_layer(items) -> dict:
    """Parse one layer's ``(key, raw string, source)`` items to key -> value.

    An unknown key, a value that does not parse and a key given twice are
    errors naming their source.
    """
    values, sources = {}, {}
    for key, raw, source in items:
        if key not in _KEYS:
            raise ConfigError(f"{source}: unknown key {key!r}")
        if key in sources:
            raise ConfigError(f"{source}: duplicate key {key!r}, already set by {sources[key]}")
        sources[key] = source
        values[key] = _coerce(key, raw, source)
    return values


def _build(values: dict) -> RunConfig:
    """The default config with ``values`` (config key -> parsed value) set."""
    base = RunConfig()
    given = {field: values[key] for key, (field, _) in _KEYS.items() if key in values}
    try:
        params = dataclasses.replace(
            base.params, **{name: given.pop(name) for name in _PARAM_KEYS if name in given}
        )
        config = dataclasses.replace(base, params=params, **given)
        # theta is read in cases iii and iv only, which default to the base points
        if config.case_tag not in ("iii", "iv"):
            config = dataclasses.replace(config, theta_points=None)
        make_grid(params.T, config.n_steps)
        sweep_grid(config.case_tag, config.lam_P_points, config.theta_points)
        check_mode(config.p2_drift_mode)
        check_paths(config.n_paths)
        check_seed(config.seed)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    _validate(config)
    return config


def _validate(config: RunConfig) -> None:
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


def _text_items(text: str, source: str):
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"{source}:{lineno}: expected key = value, got {line!r}")
        key, _, raw = stripped.partition("=")
        yield key.strip(), raw, f"{source}:{lineno}"


def _file_values(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return _parse_layer(_text_items(text, path))


def parse_config_text(text: str, source: str = "<config>") -> RunConfig:
    return _build(_parse_layer(_text_items(text, source)))


#: flag-style spellings of config keys, for the CLI flags and, alongside
#: ``MVCONTRACT_<KEY>``, for ``MVCONTRACT_<ALIAS>`` variables
_ALIASES = {
    "out": "out_dir",
    "paths": "n_paths",
    "steps": "n_steps",
    "p2_mode": "p2_drift_mode",
    "coeffs": "coeffs_csv",
}


def resolve(config_path: Optional[str], flags: dict, environ=None) -> RunConfig:
    """The run configuration from a file, the environment and CLI flags.

    Layers apply in that order over the defaults, later ones winning: the
    file at ``config_path`` (else at ``MVCONTRACT_CONFIG``), the
    ``MVCONTRACT_*`` variables, then ``flags`` (flag name or config key ->
    string).  Each value is parsed in its own layer, so a bad one is an
    error even where a later layer overrides it; the merged values are
    validated once.  Both variable spellings of one key are an error, and so
    is any other ``MVCONTRACT_`` name but ``MVCONTRACT_CONFIG``.
    """
    environ = os.environ if environ is None else environ
    config_path = config_path or environ.get(ENV_PREFIX + "CONFIG")
    values = _file_values(config_path) if config_path else {}
    env_keys = {ENV_PREFIX + name.upper(): key
                for name, key in [*zip(_KEYS, _KEYS), *_ALIASES.items()]}
    unknown = sorted(var for var in environ if var.startswith(ENV_PREFIX)
                     and var not in env_keys and var != ENV_PREFIX + "CONFIG")
    if unknown:
        raise ConfigError(f"unknown variable {', '.join(unknown)}: {ENV_PREFIX} takes "
                          "CONFIG or an upper-cased config key or flag name")
    values.update(_parse_layer(
        (key, environ[var], var) for var, key in env_keys.items() if var in environ
    ))
    values.update(_parse_layer(
        (_ALIASES.get(name, name), raw, "--" + name.replace("_", "-"))
        for name, raw in flags.items()
    ))
    return _build(values)
