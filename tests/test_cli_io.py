import json

import numpy as np
import pytest

from modelfollow.cli_io import (
    ConfigError, parse_config, main, TRAJECTORY_HEADER,
    write_trajectory_csv, build_summary,
)
from modelfollow.control_loop import STRATEGIES, TRAJECTORY, run_episode


def test_defaults_from_empty_config():
    cfg = parse_config("")
    assert cfg.learning.sigma_c == 0.5
    assert cfg.learning.alpha_c == 1.8
    assert cfg.learning.delta == 0.01
    assert cfg.learning.R == 0.01
    assert np.allclose(cfg.learning.Q, 0.05 * np.eye(3))
    assert cfg.horizon == 20.0
    assert cfg.reference.kind == "piecewise"


def test_sigma_bound_rejected():
    with pytest.raises(ConfigError, match="0 < sigma_c < 2"):
        parse_config("[learning]\nsigma_c = 2.5\n")


def test_zero_delta_rejected():
    with pytest.raises(ConfigError, match="delta"):
        parse_config("[learning]\ndelta = 0\n")


def test_bad_json_value_rejected():
    with pytest.raises(ConfigError, match="sigma_c"):
        parse_config("[learning]\nsigma_c = lots\n")


def test_custom_model_roundtrip():
    text = """
[model]
a = [[0.0, 1.0], [-1.0, -1.0]]
b = [0.0, 1.0]
c = [[1.0, 0.0]]
a_hat = [[0.0, 1.0], [-1.0, -1.0]]
b_hat = [0.0, 1.0]
"""
    cfg = parse_config(text)
    assert cfg.model.n == 2
    assert cfg.model.A[0, 1] == 1.0


def test_run_command_artifacts(tmp_path):
    config = tmp_path / "run.ini"
    config.write_text("[run]\nhorizon = 2.0\n")
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 0

    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert traj[0] == TRAJECTORY_HEADER
    assert len(traj) == 1 + int(round(2.0 / 0.01)) + 1  # header + rows

    weights = (tmp_path / "weights.csv").read_text().splitlines()
    assert len(weights) == len(traj)
    assert weights[0].startswith("t,ob_theta_0")

    summary = json.loads((tmp_path / "summary.json").read_text())
    for key in ("open_loop_eigenvalues", "closed_loop_eigenvalues",
                "pi_cl", "pi_ob", "pi_mf", "terminal_e_mf",
                "convergence_time_s"):
        assert key in summary
    ol = sorted(ev[0] for ev in summary["open_loop_eigenvalues"])
    assert abs(ol[0] + 5.0) < 1e-3 and abs(ol[-1]) < 1e-9


def test_diverging_run_trims_log(tmp_path):
    # a destabilizing closed-loop prior: the plant state leaves the 1e7 box
    # during the tick that ends at t = 18.42 s, so rows 0..1841 are written
    text = "[learning]\npi_cl0 = [5.0, 5.0, 5.0]\n"
    config = tmp_path / "diverge.ini"
    config.write_text(text)
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 2
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["diverged_at"] == 18.42

    rows = 1842
    cfg = parse_config(text)
    log = run_episode(cfg.model, cfg.reference, cfg.learning, horizon=cfg.horizon)
    assert log.diverged == 18.42
    for name in TRAJECTORY:
        assert len(getattr(log, name)) == rows, name
    for s in STRATEGIES:
        assert log.theta_hist[s].shape == (rows, log.theta_final[s].size)
        assert log.pi_hist[s].shape == (rows, log.pi_final[s].size)
    assert np.all(np.isfinite(log.x)) and np.abs(log.x).max() <= 1e7
    # every completed tick (1841) has Bellman data; ob/mf start at tick 2
    for s, ticks in (("cl", rows - 1), ("ob", rows - 3), ("mf", rows - 3)):
        Z, phi = log.regressors[s]
        assert Z.shape == (ticks, 10) and phi.shape == (ticks,), s
    assert abs(log.t[-1] - 18.41) < 1e-9
    for name in ("trajectory.csv", "weights.csv"):
        assert len((tmp_path / name).read_text().splitlines()) == rows + 1


def test_zero_horizon_run(tmp_path):
    config = tmp_path / "zero.ini"
    config.write_text("[run]\nhorizon = 0.0\n")
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 0
    traj = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert len(traj) == 2  # header + initial row


def test_summary_learned_gain_stable(tmp_path, default_config, episode):
    summary = build_summary(default_config, episode)
    re_parts = [ev[0] for ev in summary["closed_loop_eigenvalues"]]
    assert max(re_parts) < 0.0
    assert summary["diverged_at"] is None


def test_eig_command(tmp_path, capsys):
    config = tmp_path / "eig.ini"
    config.write_text("")
    rc = main(["eig", str(config), "--gain", "[-15.9517, -4.0410, -4.9822]"])
    assert rc == 0
    out = json.loads(capsys.readouterr().out)
    cl = sorted(ev[0] for ev in out["closed_loop_eigenvalues"])
    assert abs(cl[0] + 6.3842) < 1e-3
    assert abs(cl[-1] + 2.2139) < 1e-3


def test_oracle_check_command(tmp_path, capsys):
    config = tmp_path / "oc.ini"
    config.write_text("[run]\nhorizon = 20.0\n")
    rc = main(["oracle-check", str(config)])
    out = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert out["dare_residual"] < 1e-10
    assert out["oracle_vs_lqr_formula_delta"] < 1e-10
    assert out["within_tolerance"]
    assert out["regressor_rank"] == 10


def test_config_error_exit(tmp_path, capsys):
    config = tmp_path / "bad.ini"
    config.write_text("[learning]\nsigma_c = 2.5\n")
    rc = main(["run", str(config), "--outdir", str(tmp_path)])
    assert rc == 1
    assert "sigma_c" in capsys.readouterr().err


def test_seventeen_digit_serialization(tmp_path, model, default_config):
    from modelfollow.control_loop import run_episode
    log = run_episode(model, default_config.reference, default_config.learning,
                      horizon=0.05)
    path = tmp_path / "t.csv"
    write_trajectory_csv(log, path)
    lines = path.read_text().splitlines()
    # values survive a parse round trip bit-for-bit
    row = [float(v) for v in lines[-1].split(",")]
    assert row[1:4] == list(log.x[-1])
