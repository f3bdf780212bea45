import dataclasses
import math
import re
import warnings

import numpy as np
import pytest

from mvcontract import (
    ClosedLoopField,
    ConfigError,
    DegenerateMultiplierError,
    riccati,
    terminal_conditions,
)
from mvcontract.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE,
    load_riccati_csv,
    main,
    point_seed,
)
from mvcontract.config import RunConfig, parse_config_text, resolve

FIG_CONFIG = """
# reference instance
a = 1.0
b = 1.0
sigma = 1.0
alpha = 0.2
beta = 1.0
T = 0.03
case = iv
lambda_P = 0.1
theta = 1.5707963267948966
n_paths = 2000
n_steps = 16
seed = 1
p2_drift_mode = eta_equals_x
"""


def test_config_round_trip(tmp_path):
    config = parse_config_text(FIG_CONFIG)
    path = tmp_path / "run.cfg"
    path.write_text(FIG_CONFIG, encoding="utf-8")
    assert resolve(str(path), {}, environ={}) == config


def test_default_config_round_trips():
    # the shipped instance, every float written with repr
    text = (
        "a = 1.0\nb = 1.0\nsigma = 1.0\nalpha = 0.2\nbeta = 1.0\nT = 0.03\n"
        "W0 = -0.005\nR0 = 0.06\ncase = iv\nlambda_P = 0.1\n"
        f"theta = {math.pi / 2!r}\nn_paths = 100000\nn_steps = 64\nseed = 1\n"
        "p2_drift_mode = eta_equals_x\nout_dir = out\nblow_up_bound = 100000000.0\n"
        "residual_tol = 0.001\nfeasibility_tol = 0.001\n"
        "weak_effort = 1.0\nweak_cashflow = 0.5\n"
    )
    assert parse_config_text(text) == RunConfig()


def test_config_text_round_trips_every_key():
    # no theta in case v, a coefficient file, and string values with inner
    # spaces and an equals sign
    text = (
        "a = 0.5\nb = -0.6\nsigma = 2.0\nalpha = 0.1\nbeta = 3.0\nT = 0.25\n"
        "W0 = -0.1\nR0 = 0.2\ncase = v\nlambda_P = 0.2,0.7\n"
        "n_paths = 1234\nn_steps = 8\nseed = 18446744073709551615\n"
        "p2_drift_mode = as_printed\nout_dir = runs = 1 dir\nblow_up_bound = 50.0\n"
        "residual_tol = 0.01\nfeasibility_tol = 0.0\ncoeffs_csv = my coeffs.csv\n"
        "weak_effort = 0.7\nweak_cashflow = -0.3\n"
    )
    config = parse_config_text(text)
    assert config.theta_points is None
    assert dataclasses.asdict(config) == {
        "params": {"a": 0.5, "b": -0.6, "sigma": 2.0, "alpha": 0.1, "beta": 3.0,
                   "T": 0.25, "W0": -0.1, "R0": 0.2},
        "case_tag": "v", "lam_P_points": (0.2, 0.7), "theta_points": None,
        "n_paths": 1234, "n_steps": 8, "seed": 2**64 - 1, "p2_drift_mode": "as_printed",
        "out_dir": "runs = 1 dir", "blow_up_bound": 50.0, "residual_tol": 0.01,
        "feasibility_tol": 0.0, "coeffs_csv": "my coeffs.csv",
        "weak_effort": 0.7, "weak_cashflow": -0.3,
    }


@pytest.mark.parametrize("out_dir", ["runs#1", " runs", "runs ", "a\nb", "a\rb"])
def test_string_that_cannot_round_trip_is_a_config_error(out_dir):
    # "#" starts a comment, a line break a new line, and surrounding
    # whitespace is stripped on parsing: none reads back as written
    try:
        assert parse_config_text(f"out_dir = {out_dir}").out_dir != out_dir
    except ConfigError as exc:
        assert "expected key = value" in str(exc)


def test_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config_text("bogus_key = 3")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2")


def test_malformed_line_rejected():
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("this is not a config line")


def test_bad_value_rejected():
    with pytest.raises(ConfigError):
        parse_config_text("seed = not_a_number")
    with pytest.raises(ConfigError):
        parse_config_text("sigma = -1.0")
    with pytest.raises(ConfigError):
        parse_config_text("p2_drift_mode = nonsense")
    with pytest.raises(ConfigError):
        parse_config_text("case = vii")


def test_point_list_syntaxes():
    config = parse_config_text("case = ii\nlambda_P = 0.1,0.5,0.9")
    assert config.lam_P_points == (0.1, 0.5, 0.9)
    config = parse_config_text("case = ii\nlambda_P = 0.1:0.9:9")
    assert len(config.lam_P_points) == 9
    assert config.lam_P_points[0] == pytest.approx(0.1)
    assert config.lam_P_points[-1] == pytest.approx(0.9)
    with pytest.raises(ConfigError):
        parse_config_text("lambda_P = 0.1:0.9")


def test_range_endpoint_is_exact():
    # start + (count - 1) * step overshoots stop by an ulp for these ranges
    config = parse_config_text("case = ii\nlambda_P = 0.1:1.0:8")
    assert len(config.lam_P_points) == 8 and config.lam_P_points[-1] == 1.0
    config = parse_config_text("case = iv\ntheta = 0:1.5707963267948966:26")
    assert len(config.theta_points) == 26 and config.theta_points[-1] == math.pi / 2


def _resolved(**flags):
    return resolve(None, flags, environ={})


def test_theta_points_validated():
    with pytest.raises(ConfigError):
        parse_config_text("case = iv\ntheta = -0.5")
    with pytest.raises(ConfigError):
        parse_config_text("case = iii\ntheta = 0.5")
    # the multiplier sweep states these ranges; the config builds it
    for case, theta in (("iii", "0.1"), ("iii", "-1.6"), ("iv", "-0.1"), ("iv", "1.6"),
                        ("iii", "nan"), ("iv", "nan"), ("iv", "inf")):
        with pytest.raises(ConfigError, match="theta"):
            _resolved(case=case, theta=theta)
    for case in ("vi", "explicit"):
        with pytest.raises(ConfigError, match=r"case must be one of \('i', 'ii', 'iii', 'iv', 'v'\)"):
            _resolved(case=case)
    for case, theta in (("iii", "0"), ("iii", repr(-math.pi / 2)),
                        ("iv", "0"), ("iv", repr(math.pi / 2))):
        assert _resolved(case=case, theta=theta).theta_points == (float(theta),)


def test_lambda_floor_validated():
    with pytest.raises(ConfigError, match="lambda_P"):
        parse_config_text("case = ii\nlambda_P = 0.0")
    # like the grid and the P2 mode, the sweep is built when the config resolves
    for lam_P in ("0", "1e-7", "-0.1", "1.5", "nan", "inf"):
        for case in ("ii", "iv"):
            with pytest.raises(ConfigError, match="lambda_P"):
                _resolved(case=case, lambda_P=lam_P)
    for lam_P in ("1e-6", "1"):
        assert _resolved(case="ii", lambda_P=lam_P).lam_P_points == (float(lam_P),)
    for steps in ("0", "1"):
        with pytest.raises(ConfigError, match="n_steps must be >= 2"):
            _resolved(steps=steps)
    with pytest.raises(ConfigError, match="p2_drift_mode must be one of"):
        _resolved(p2_drift_mode="x")


@pytest.mark.parametrize("key, value", [
    ("blow_up_bound", "-1"), ("blow_up_bound", "0"), ("blow_up_bound", "nan"),
    ("blow_up_bound", "inf"), ("residual_tol", "0"), ("residual_tol", "nan"),
    ("feasibility_tol", "-5"), ("feasibility_tol", "nan"), ("feasibility_tol", "inf"),
    ("weak_effort", "nan"), ("weak_cashflow", "inf"),
])
def test_bad_run_control_floats_rejected(tmp_path, capsys, key, value):
    with pytest.raises(ConfigError, match=key):
        parse_config_text(f"{key} = {value}")
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"), **{key: value})
    assert main(["riccati", "--config", cfg]) == EXIT_CONFIG
    assert key in capsys.readouterr().err


def test_resolve_overrides():
    out = resolve(None, {"seed": "99", "n_paths": "123", "case": "ii"}, environ={})
    assert out.seed == 99 and out.n_paths == 123 and out.case_tag == "ii"
    assert out.theta_points is None
    with pytest.raises(ConfigError):
        resolve(None, {"nope": "1"}, environ={})


def test_default_config_is_the_shipped_instance():
    assert dataclasses.asdict(RunConfig()) == {
        "params": {"a": 1.0, "b": 1.0, "sigma": 1.0, "alpha": 0.2, "beta": 1.0,
                   "T": 0.03, "W0": -0.005, "R0": 0.06},
        "case_tag": "iv", "lam_P_points": (0.1,), "theta_points": (math.pi / 2,),
        "n_paths": 100_000, "n_steps": 64, "seed": 1, "p2_drift_mode": "eta_equals_x",
        "out_dir": "out", "blow_up_bound": 1e8, "residual_tol": 1e-3,
        "feasibility_tol": 1e-3, "coeffs_csv": None,
        "weak_effort": 1.0, "weak_cashflow": 0.5,
    }
    assert RunConfig().blow_up_bound == riccati.DEFAULT_BLOW_UP_BOUND


def _riccati(tmp_path, capsys, *argv):
    """Exit code, stdout and stderr of a short riccati run."""
    rc = main(["riccati", "--steps", "8", "--out", str(tmp_path / "out"), *argv])
    return (rc, *capsys.readouterr())


def test_overridden_case_reads_the_file_theta(tmp_path, capsys):
    # case v ignores theta, but case iv from a flag must solve the file's theta
    path = tmp_path / "f.cfg"
    path.write_text("case = v\ntheta = 0.3\n")
    rc, out, _ = _riccati(tmp_path, capsys, "--config", str(path), "--case", "iv")
    assert rc == EXIT_OK and "case=iv lambda_P=0.1 theta=0.3 " in out


@pytest.mark.parametrize("layers", ["file_env", "env_flag"])
def test_layers_are_validated_merged(tmp_path, capsys, monkeypatch, layers):
    # theta = -0.5 is out of range for the default case iv, in range for iii
    if layers == "file_env":
        path = tmp_path / "g.cfg"
        path.write_text("theta = -0.5\n")
        monkeypatch.setenv("MVCONTRACT_CASE", "iii")
        argv = ["--config", str(path)]
    else:
        monkeypatch.setenv("MVCONTRACT_THETA", "-0.5")
        argv = ["--case", "iii"]
    rc, out, _ = _riccati(tmp_path, capsys, *argv)
    assert rc == EXIT_OK and "case=iii lambda_P=0.1 theta=-0.5 " in out


def test_flags_beat_environment_beat_file_for_case_and_theta(tmp_path, capsys, monkeypatch):
    path = tmp_path / "f.cfg"
    path.write_text("case = iv\ntheta = 1.0\n")
    monkeypatch.setenv("MVCONTRACT_THETA", "0.25")
    rc, out, _ = _riccati(tmp_path, capsys, "--config", str(path))
    assert rc == EXIT_OK and "case=iv lambda_P=0.1 theta=0.25 " in out
    # the environment's theta is valid for the flag's case only
    monkeypatch.setenv("MVCONTRACT_CASE", "ii")
    monkeypatch.setenv("MVCONTRACT_THETA", "-0.5")
    rc, out, _ = _riccati(tmp_path, capsys, "--config", str(path), "--case", "iii")
    assert rc == EXIT_OK and "case=iii lambda_P=0.1 theta=-0.5 " in out


@pytest.mark.parametrize("text, env, message", [
    ("seed = abc\n", None, "f.cfg:1: bad value for seed: 'abc'"),
    ("seed = 1\nseed = 2\n", None, "f.cfg:2: duplicate key 'seed', already set by"),
    ("", "abc", "MVCONTRACT_SEED: bad value for seed: 'abc'"),
], ids=["file_value", "file_duplicate", "env_value"])
def test_bad_overridden_value_is_a_config_error(tmp_path, capsys, monkeypatch,
                                                 text, env, message):
    path = tmp_path / "f.cfg"
    path.write_text(text)
    if env is not None:
        monkeypatch.setenv("MVCONTRACT_SEED", env)
    rc, _, err = _riccati(tmp_path, capsys, "--config", str(path), "--seed", "3")
    assert rc == EXIT_CONFIG and message in err


def test_both_spellings_of_one_variable_are_a_config_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("MVCONTRACT_PATHS", "600")
    monkeypatch.setenv("MVCONTRACT_N_PATHS", "700")
    rc, _, err = _riccati(tmp_path, capsys)
    assert rc == EXIT_CONFIG and "n_paths" in err
    assert set(re.findall(r"MVCONTRACT_\w+", err)) == {"MVCONTRACT_PATHS", "MVCONTRACT_N_PATHS"}


def test_unknown_variable_is_a_config_error(tmp_path, capsys, monkeypatch):
    # a misspelled variable used to be dropped: this ran and wrote seed=1
    monkeypatch.setenv("MVCONTRACT_SEEDS", "5")
    out_dir = tmp_path / "out"
    rc = main(["simulate", "--paths", "200", "--steps", "4", "--out", str(out_dir)])
    assert rc == EXIT_CONFIG
    assert "unknown variable MVCONTRACT_SEEDS" in capsys.readouterr().err
    assert not out_dir.exists()


@pytest.mark.parametrize("source", ["file", "env"])
def test_chunk_size_is_not_a_setting(tmp_path, capsys, monkeypatch, source):
    # the paths per block follow from the steps; a block size from a file
    # or a variable is an unknown setting, not one that is silently dropped
    out_dir = tmp_path / "out"
    argv = ["simulate", "--paths", "200", "--steps", "4", "--out", str(out_dir)]
    if source == "file":
        with pytest.raises(ConfigError, match="unknown key 'chunk_size'"):
            parse_config_text("chunk_size = 777")
        path = tmp_path / "f.cfg"
        path.write_text("chunk_size = 777\n")
        argv += ["--config", str(path)]
        message = "unknown key 'chunk_size'"
    else:
        with pytest.raises(ConfigError, match="MVCONTRACT_CHUNK_SIZE"):
            resolve(None, {}, environ={"MVCONTRACT_CHUNK_SIZE": "777"})
        monkeypatch.setenv("MVCONTRACT_CHUNK_SIZE", "777")
        message = "unknown variable MVCONTRACT_CHUNK_SIZE"
    assert main(argv) == EXIT_CONFIG
    assert message in capsys.readouterr().err
    assert not out_dir.exists()


def test_point_seed_deterministic_and_spread():
    seeds = {point_seed(1, i) for i in range(100)}
    assert len(seeds) == 100
    assert point_seed(1, 3) == point_seed(1, 3)
    assert all(0 <= s < 2**64 for s in seeds)


def _write_fig_config(tmp_path, **extra):
    lines = [
        ln for ln in FIG_CONFIG.splitlines()
        if not any(ln.startswith(f"{key} ") for key in extra)
    ]
    lines += [f"{key} = {val}" for key, val in extra.items()]
    path = tmp_path / "run.cfg"
    path.write_text("\n".join(lines) + "\n")
    return str(path)


def test_cmd_riccati_writes_csv(tmp_path):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["riccati", "--config", cfg]) == EXIT_OK
    lines = (tmp_path / "out" / "riccati.csv").read_text().splitlines()
    assert lines[0].startswith("#")
    assert lines[1] == (
        "t,A11,A21,B11,B21,A12,A22,B12,B22,A13,A23,B13,B23,m_x,m_R"
    )
    assert len(lines) == 2 + 17  # comment + header + n_steps + 1 rows
    last = [float(v) for v in lines[-1].split(",")]
    assert last[0] == pytest.approx(0.03)
    assert last[1] == 0.2  # A11(T) = agent bonus factor
    assert last[5] == pytest.approx(0.1)  # A12(T) = alpha lam_E + beta lam_P
    assert last[13] == 0.0 and last[14] == 0.0  # means vanish


def test_cmd_riccati_row_count_minimal(tmp_path):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["riccati", "--config", cfg, "--steps", "2"]) == EXIT_OK
    lines = (tmp_path / "out" / "riccati.csv").read_text().splitlines()
    assert len(lines) == 2 + 3


def test_cmd_riccati_blow_up_exit_code(tmp_path, capsys):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    with np.errstate(all="ignore"):
        rc = main(["riccati", "--config", cfg, "--p2-mode", "as_printed"])
    assert rc == EXIT_NUMERICAL
    assert "blew up" in capsys.readouterr().err


def test_cmd_riccati_validation_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    path.write_text(FIG_CONFIG + "lambda_P = 0.0\n")
    rc = main(["riccati", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["riccati", "simulate"])
@pytest.mark.parametrize("out", ["", "afile", "afile/sub"], ids=["empty", "file", "under_file"])
def test_unusable_out_dir_is_a_config_error(tmp_path, capsys, monkeypatch, command, out):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "afile").write_text("not a directory\n")
    cfg = _write_fig_config(tmp_path, n_paths=500)
    assert main([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "configuration error" in err and "out_dir" in err
    assert (tmp_path / "afile").read_text() == "not a directory\n"


def test_riccati_csv_round_trip(tmp_path):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    main(["riccati", "--config", cfg])
    sol = load_riccati_csv(str(tmp_path / "out" / "riccati.csv"))
    expected = terminal_conditions(sol.params, sol.multipliers)
    assert np.array_equal(sol.terminal_values, expected)
    assert sol.p2_drift_mode == "eta_equals_x"
    assert sol.multipliers.case_tag == "iv"


def test_cmd_simulate_single_point(tmp_path):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "sim"))
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    lines = (tmp_path / "sim" / "eval.csv").read_text().splitlines()
    assert lines[1] == (
        "lambda_P,theta,lambda_E,lambda_V,J_A,J_A_se,J_P,J_P_se,"
        "var_xT,var_xT_se,feasible_JA,feasible_var"
    )
    assert len(lines) == 3  # comment + header + one grid point
    fields = lines[2].split(",")
    assert float(fields[0]) == 0.1
    assert fields[10] in ("feasible", "boundary", "infeasible")


def test_cmd_simulate_grid_and_byte_stability(tmp_path):
    path = tmp_path / "grid.cfg"
    path.write_text(
        FIG_CONFIG.replace("lambda_P = 0.1", "lambda_P = 0.1,0.5")
        .replace("theta = 1.5707963267948966", "theta = 0.0,1.5707963267948966")
        .replace("n_paths = 2000", "n_paths = 500")
    )
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["simulate", "--config", str(path), "--out", str(out1)]) == EXIT_OK
    assert main(["simulate", "--config", str(path), "--out", str(out2)]) == EXIT_OK
    b1 = (out1 / "eval.csv").read_bytes()
    b2 = (out2 / "eval.csv").read_bytes()
    assert b1 == b2
    assert len(b1.splitlines()) == 2 + 4  # 2x2 grid


@pytest.mark.parametrize("env, statistics", [
    ({"MVCONTRACT_SIGMA": "1e160"},
     "J_A = -inf, J_A_se = inf, J_P = inf, J_P_se = inf, var_xT = inf, var_xT_se = inf"),
    ({"MVCONTRACT_A": "0", "MVCONTRACT_T": "1e200", "MVCONTRACT_B": "1e-200"},
     "J_A_se = inf, J_P_se = inf, var_xT_se = nan"),
], ids=["sigma_1e160", "T_1e200"])
def test_cmd_simulate_non_finite_estimate_exits_3(tmp_path, monkeypatch, capsys, env,
                                                  statistics):
    # no verdict from a non-finite number: at sigma = 1e160 the costs
    # overflowed and the point was written as nan and inf, "feasible,feasible";
    # now each statistic is finite per unit sigma^2 and overflows when it is
    # scaled by sigma^2 = 1e320.  At T = 1e200 (a = 0 and a tiny b keep the
    # coefficients finite) the paths reach 1e100, var_xT = 1e200 is finite
    # but its SE is not, and it was marked feasible.  Both now end the sweep
    # at the point, named with every non-finite statistic, before its row is
    # written
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    with np.errstate(all="ignore"):
        assert main(["simulate", "--paths", "2000", "--out", str(tmp_path)]) == EXIT_NUMERICAL
    assert capsys.readouterr().err == (
        f"numerical failure: non-finite estimate at lambda_P = 0.1, theta = 1.5708: {statistics}\n")
    assert len((tmp_path / "eval.csv").read_text().splitlines()) == 2  # comment and header


@pytest.mark.parametrize("sigma", ["1", "2", repr(2.0**500), "1e150"])
def test_cmd_simulate_scales_its_statistics_by_sigma_squared(tmp_path, monkeypatch, sigma):
    # the paths are stepped in units of sigma and each statistic is scaled
    # by sigma^2 once: at sigma = 2^k the six statistics of eval.csv are 4^k
    # times those at sigma = 1, bit for bit.  At 2^500 and 1e150 every
    # statistic can be represented (J_A is about -9e298 and -8e297), where
    # stepping sigma dW overflowed the squares inside std and exited 3
    def statistics(value, out):
        monkeypatch.setenv("MVCONTRACT_SIGMA", value)
        assert main(["simulate", "--paths", "2000", "--out", str(tmp_path / out)]) == EXIT_OK
        row = (tmp_path / out / "eval.csv").read_text().splitlines()[2].split(",")
        return [float(v) for v in row[4:10]]

    unit, scaled = statistics("1", "unit"), statistics(sigma, "scaled")
    assert all(math.isfinite(v) for v in scaled)
    mantissa, k = math.frexp(float(sigma))
    if mantissa == 0.5:
        assert scaled == [math.ldexp(v, 2 * (k - 1)) for v in unit]


def test_cmd_check_passes_and_fails(tmp_path):
    cfg = _write_fig_config(
        tmp_path, out_dir=str(tmp_path / "out"), n_paths=4000, n_steps=64
    )
    assert main(["check", "--config", cfg]) == EXIT_OK

    # negative control: corrupt the coefficient table and re-validate it
    main(["riccati", "--config", cfg])
    csv_path = tmp_path / "out" / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    for row in rows[: len(rows) // 2]:
        row[1] = repr(float(row[1]) + 0.25)  # shift A11 away from the solution
    csv_path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
    rc = main(["check", "--config", cfg, "--coeffs", str(csv_path)])
    assert rc == EXIT_ORACLE


def test_cmd_check_reports_failed_invariant(tmp_path, capsys):
    cfg = _write_fig_config(
        tmp_path, out_dir=str(tmp_path / "out"), n_paths=4000, n_steps=64
    )
    main(["riccati", "--config", cfg])
    csv_path = tmp_path / "out" / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    rows = [ln.split(",") for ln in lines[2:]]
    for row in rows:
        row[5] = repr(float(row[5]) + 0.5)
    csv_path.write_text("\n".join(lines[:2] + [",".join(r) for r in rows]) + "\n")
    rc = main(["check", "--config", cfg, "--coeffs", str(csv_path)])
    captured = capsys.readouterr()
    assert rc == EXIT_ORACLE
    assert "FAIL file_riccati_residual" in captured.out


@pytest.mark.parametrize("column, corrupt, message", [
    (3, lambda v: "nan", "B11 = nan is not finite"),
    (0, lambda v: repr(float(v) + 1e-3), "is not the node"),
    (14, lambda v: "1e-300", "m_R = 1e-300 is not 0"),
    (None, None, "14 fields, expected 15"),
    ("p2_drift_mode", None, "p2_drift_mode must be one of ('as_printed', 'eta_equals_x'), "
                            "got 'bogus'"),
], ids=["non_finite", "off_grid_t", "nonzero_mean", "field_count", "bad_p2_mode"])
def test_cmd_check_rejects_bad_coefficient_table(tmp_path, capsys, column, corrupt, message):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["riccati", "--config", cfg]) == EXIT_OK
    csv_path = tmp_path / "out" / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    where = ", line 8: "
    if column == "p2_drift_mode":
        lines[0] = lines[0].replace("p2_drift_mode=eta_equals_x", "p2_drift_mode=bogus")
        where = ": bad metadata line: "
    else:
        row = lines[7].split(",")  # file line 8
        if column is None:
            row.pop()
        else:
            row[column] = corrupt(row[column])
        lines[7] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--coeffs", str(csv_path)]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""  # rejected before the battery runs
    assert f"configuration error: {csv_path}{where}" in err
    assert message in err


def test_load_riccati_csv_needs_a_grid(tmp_path):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["riccati", "--config", cfg]) == EXIT_OK
    csv_path = tmp_path / "out" / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:4]) + "\n\n")
    with pytest.raises(ConfigError, match="2 coefficient rows"):
        load_riccati_csv(str(csv_path))


def test_cmd_check_rejects_a_table_below_the_lambda_P_floor(tmp_path, capsys):
    # the table's multipliers lie on the unit sphere, but its closed loop
    # divides by lambda_P = 1e-9: the cash-flow map's floor rejects it before
    # any path is stepped, where stepping it overflowed (exit 3, at step 54)
    out = tmp_path / "out"
    assert main(["riccati", "--steps", "256", "--out", str(out)]) == EXIT_OK
    csv_path = out / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    for key, value in (("lambda_P", "1e-09"), ("lambda_E", "-6.123233995736766e-17"),
                       ("lambda_V", "-1.0")):
        lines[0] = re.sub(rf" {key}=\S+ ", f" {key}={value} ", lines[0])
    assert " lambda_P=1e-09 theta=1.5707963267948966 lambda_E=-6.123233995736766e-17 " \
           "lambda_V=-1.0 " in lines[0]
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["check", "--coeffs", str(csv_path)]) == EXIT_CONFIG
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
    assert "lambda_P = 1e-09 is below the floor 1e-06" in capsys.readouterr().err
    with pytest.raises(DegenerateMultiplierError, match="below the floor"):
        ClosedLoopField(load_riccati_csv(str(csv_path)))


def test_cmd_check_blow_up_fails_the_coefficient_checks(capsys):
    # the as_printed corner blows up: the checks that need the coefficient
    # solution fail, naming the blow-up once each; the others still run
    with np.errstate(all="ignore"):
        rc = main(["check", "--p2-mode", "as_printed", "--paths", "4000"])
    assert rc == EXIT_ORACLE
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith(("PASS ", "FAIL "))]
    failed = {ln.split()[1].rstrip(":"): ln for ln in lines if ln.startswith("FAIL ")}
    assert set(failed) == {"terminal_conditions", "riccati_residual",
                           "mean_trajectory", "explicit_R_consistency"}
    assert all(ln.count("blew up") == 1 for ln in failed.values())
    assert sum(ln.startswith("PASS ") for ln in lines) == 5


def test_cmd_weakcheck(tmp_path, capsys):
    cfg = _write_fig_config(tmp_path, n_paths=20000)
    assert main(["weakcheck", "--config", cfg]) == EXIT_OK
    out = capsys.readouterr().out
    assert "PASS martingale_mean" in out
    assert "PASS weak_strong_agreement" in out


def test_cmd_weakcheck_largest_seed():
    # the strong ensemble's seed wraps to 0 instead of leaving the 64-bit range
    assert main(["weakcheck", "--seed", str(2**64 - 1), "--paths", "2000"]) == EXIT_OK


def test_cmd_weakcheck_zero_effort_density_is_unit(tmp_path, capsys):
    cfg = _write_fig_config(tmp_path, n_paths=2000, weak_effort=0.0)
    assert main(["weakcheck", "--config", cfg]) == EXIT_OK
    assert ("PASS martingale_mean: E[Gamma_T]=1.000000 se=0.00e+00 target=1 band=3se"
            in capsys.readouterr().out.splitlines())


def test_cmd_weakcheck_degenerate_sensitivity(tmp_path, capsys):
    path = tmp_path / "b0.cfg"
    path.write_text(FIG_CONFIG.replace("b = 1.0", "b = 0.0"))
    rc = main(["weakcheck", "--config", str(path)])
    assert rc == EXIT_CONFIG
    assert "configuration error" in capsys.readouterr().err


def test_env_overrides(tmp_path, monkeypatch):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "o1"))
    monkeypatch.setenv("MVCONTRACT_SEED", "77")
    monkeypatch.setenv("MVCONTRACT_OUT_DIR", str(tmp_path / "o2"))
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    assert (tmp_path / "o2" / "eval.csv").exists()
    meta = (tmp_path / "o2" / "eval.csv").read_text().splitlines()[0]
    assert "seed=77" in meta
    # flags beat environment
    monkeypatch.setenv("MVCONTRACT_SEED", "5")
    assert main(["simulate", "--config", cfg, "--seed", "9",
                 "--out", str(tmp_path / "o3")]) == EXIT_OK
    meta = (tmp_path / "o3" / "eval.csv").read_text().splitlines()[0]
    assert "seed=9" in meta


def test_cmd_check_built_in_defaults_pass():
    # no config file at all: the shipped defaults must satisfy the battery
    assert main(["check", "--paths", "8000"]) == EXIT_OK


def test_env_flag_style_aliases(tmp_path, monkeypatch):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "alias"))
    monkeypatch.setenv("MVCONTRACT_PATHS", "600")
    assert main(["simulate", "--config", cfg]) == EXIT_OK
    meta = (tmp_path / "alias" / "eval.csv").read_text().splitlines()[0]
    assert "n_paths=600" in meta


def test_env_config_variable(tmp_path, monkeypatch, capsys):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "envout"))
    monkeypatch.setenv("MVCONTRACT_CONFIG", cfg)
    assert main(["riccati"]) == EXIT_OK
    assert (tmp_path / "envout" / "riccati.csv").exists()
