import math

import numpy as np
import pytest

from mvcontract import ConfigError, terminal_conditions
from mvcontract.cli import (
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    EXIT_ORACLE,
    load_riccati_csv,
    main,
    point_seed,
)
from mvcontract.config import (
    apply_overrides,
    config_to_text,
    default_config,
    load_config,
    parse_config_text,
    write_config,
)

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
    write_config(config, str(path))
    assert load_config(str(path)) == config


def test_default_config_round_trips():
    config = default_config()
    assert parse_config_text(config_to_text(config)) == config


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


def test_theta_points_validated():
    with pytest.raises(ConfigError):
        parse_config_text("case = iv\ntheta = -0.5")
    with pytest.raises(ConfigError):
        parse_config_text("case = iii\ntheta = 0.5")


def test_lambda_floor_validated():
    with pytest.raises(ConfigError, match="lambda_P"):
        parse_config_text("case = ii\nlambda_P = 0.0")


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


def test_apply_overrides():
    config = default_config()
    out = apply_overrides(config, {"seed": "99", "n_paths": "123", "case": "ii"})
    assert out.seed == 99 and out.n_paths == 123 and out.case_tag == "ii"
    assert out.theta_points is None
    with pytest.raises(ConfigError):
        apply_overrides(config, {"nope": "1"})


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
], ids=["non_finite", "off_grid_t", "nonzero_mean", "field_count"])
def test_cmd_check_rejects_bad_coefficient_table(tmp_path, capsys, column, corrupt, message):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["riccati", "--config", cfg]) == EXIT_OK
    csv_path = tmp_path / "out" / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    row = lines[7].split(",")  # file line 8
    if column is None:
        row.pop()
    else:
        row[column] = corrupt(row[column])
    lines[7] = ",".join(row)
    csv_path.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["check", "--config", cfg, "--coeffs", str(csv_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert f"configuration error: {csv_path}, line 8: " in err
    assert message in err


def test_load_riccati_csv_needs_a_grid(tmp_path):
    cfg = _write_fig_config(tmp_path, out_dir=str(tmp_path / "out"))
    assert main(["riccati", "--config", cfg]) == EXIT_OK
    csv_path = tmp_path / "out" / "riccati.csv"
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join(lines[:4]) + "\n\n")
    with pytest.raises(ConfigError, match="2 coefficient rows"):
        load_riccati_csv(str(csv_path))


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
    assert "Gamma identically 1" in capsys.readouterr().out


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
