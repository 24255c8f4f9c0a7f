"""End-to-end acceptance checks, one test per criterion."""

from pathlib import Path

import numpy as np
import pytest

from modelfollow import oracle
from modelfollow.cli_io import load_config, main
from modelfollow.control_loop import run_episode
from modelfollow.dynamics import eigenvalues, expm_ss, rk4_step
from modelfollow.learner import S_to_theta, policy_from_kernel, theta_to_S
from sequential import seq_actor_update, seq_critic_update, seq_quadratic_form, seq_regressor


def sorted_eigs(M):
    return eigenvalues(M)


def test_criterion_1_open_loop_spectrum(model):
    ev = sorted_eigs(model.A)
    expected = np.array([-5 - 3.1623j, -5 + 3.1623j, 0.0])
    assert np.all(np.abs(ev - expected) < 1e-3)


def test_criterion_2_fixed_gain_spectra(model):
    gain = np.array([[-15.9517, -4.0410, -4.9822]])
    ev = sorted_eigs(model.A + model.B @ gain)
    expected = np.array([-6.3842 - 5.5943j, -6.3842 + 5.5943j, -2.2139])
    assert np.all(np.abs(ev - expected) < 1e-3)

    ev_hat = sorted_eigs(model.A_hat)
    expected_hat = np.array([-4.9764 - 3.1599j, -4.9764 + 3.1599j, 0.0])
    assert np.all(np.abs(ev_hat - expected_hat) < 1e-3)


def test_criterion_3_oracle_consistency(model, default_config):
    cfg = default_config.learning
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, cfg.delta)
    Q_bar, R_bar = oracle.stage_cost(cfg.Q, cfg.R, cfg.delta)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    dm = oracle.DiscreteModel(A_d, B_d, Q_bar, R_bar, cfg.delta)
    S_star = oracle.qfun_kernel(P, dm)
    gain = policy_from_kernel(S_star, n_features=3).reshape(-1)
    lqr = -np.linalg.solve(R_bar + B_d.T @ P @ B_d, B_d.T @ P @ A_d).reshape(-1)
    assert np.linalg.norm(gain - lqr) < 1e-10
    # the gain applied as continuous state feedback stabilizes the model
    ev = np.linalg.eigvals(model.A_hat + model.B_hat @ gain.reshape(1, -1))
    assert np.all(ev.real < 0.0)


def test_criterion_4_learner_vs_oracle(model, episode):
    assert episode.diverged is None
    gain = episode.pi_final["cl"].reshape(1, -1)
    ev = np.linalg.eigvals(model.A_hat + model.B_hat @ gain)
    assert np.all(ev.real < -1.0)

    data = list(zip(*episode.regressors["cl"]))
    assert len(data) >= 10
    # the batch least-squares problem itself must be well posed ...
    oracle.batch_bellman_solve(data)
    # ... and the online kernel must satisfy it within tolerance
    residual = oracle.bellman_residual(episode.theta_final["cl"], data)
    assert residual < 1e-2


def test_criterion_5_tracking(episode):
    w = (episode.t >= 18.0) & (episode.t <= 20.0)
    assert w.sum() > 0
    e_mf = np.abs(np.asarray(episode.e_mf)[w])
    e_ob = np.abs(np.asarray(episode.e_ob)[w])
    assert e_mf.max() < 0.05
    assert e_ob.max() < 0.02


@pytest.mark.xfail(strict=True, reason=(
    "the loop the learner hands over drifts (lifted spectral radius 1.000128): over the "
    "last 2 s of the 200 s episode max |e_mf| is 0.1183 against the 0.05 bound (first "
    "exceeded at t = 132.5 s); max |e_ob| is 0.0059 and passes"))
def test_criterion_5_tracking_200s():
    # criterion 5's bounds over the last 2 s of the paper episode run ten
    # times as long
    c = load_config(Path(__file__).parent / "corpus" / "horizon_200.ini")
    log = run_episode(c.model, c.reference, c.learning, horizon=c.horizon)
    assert log.diverged is None
    w = (log.t >= c.horizon - 2.0) & (log.t <= c.horizon)
    assert w.sum() > 0
    assert np.abs(log.e_ob[w]).max() < 0.02
    assert np.abs(log.e_mf[w]).max() < 0.05


def test_criterion_6_contraction_suite():
    rng = np.random.default_rng(2024)
    alpha = 1.8
    for sigma in (0.1, 0.5, 1.0, 1.9):
        for _ in range(1000):
            z = rng.normal(size=10) * rng.uniform(0.1, 10)
            theta_star = rng.normal(size=10)
            theta = rng.normal(size=10)
            phi = float(theta_star @ z)
            theta_next = seq_critic_update(theta, z, phi, sigma, alpha)
            assert np.linalg.norm(theta_next - theta_star) <= \
                np.linalg.norm(theta - theta_star) + 1e-12

            F = rng.normal(size=3) * rng.uniform(0.1, 10)
            pi_star = rng.normal(size=3)
            pi = rng.normal(size=3)
            target = pi_star @ F
            pi_next = seq_actor_update(pi, F, target, sigma, alpha)
            assert np.linalg.norm(pi_next - pi_star) <= \
                np.linalg.norm(pi - pi_star) + 1e-12

    # above the pace bound a fixed regressor amplifies the error
    z = np.zeros(10)
    z[0] = np.sqrt(18.0)
    theta = np.ones(10)
    r0 = np.linalg.norm(theta)
    for _ in range(5):
        theta = seq_critic_update(theta, z, 0.0, 2.5, alpha)
    assert np.linalg.norm(theta) > r0


def test_criterion_7_exactness_micro_suite(model):
    rng = np.random.default_rng(77)

    # Bellman-regressor identity
    for _ in range(50):
        M = rng.normal(size=(4, 4))
        S = 0.5 * (M + M.T)
        Zt, Zn = rng.normal(size=4), rng.normal(size=4)
        lhs = S_to_theta(S) @ seq_regressor(Zt, Zn)
        rhs = 0.5 * seq_quadratic_form(Zt, S) - 0.5 * seq_quadratic_form(Zn, S)
        assert abs(lhs - rhs) < 1e-12

    # theta/S round trip
    for _ in range(50):
        M = rng.normal(size=(4, 4))
        S = 0.5 * (M + M.T)
        assert np.linalg.norm(np.reshape(theta_to_S(S_to_theta(S)), (4, 4)) - S) < 1e-12

    # RK4 vs matrix exponential at the loop substep
    h = 0.01 / 10
    for _ in range(20):
        x = rng.normal(size=3)
        err = np.linalg.norm(
            rk4_step(model.A, model.B, x, np.zeros(1), h) - expm_ss(model.A * h) @ x)
        assert err < 1e-9

    # ZOH examples at stated tolerances
    A_d, B_d = oracle.zoh_discretize([[-1.0]], [[1.0]], 0.01)
    assert abs(A_d[0, 0] - np.exp(-0.01)) < 1e-10
    assert abs(B_d[0, 0] - (1.0 - np.exp(-0.01))) < 1e-10
    A_d, B_d = oracle.zoh_discretize(np.zeros((3, 3)), np.eye(3), 0.01)
    assert np.allclose(A_d, np.eye(3), atol=1e-14)
    assert np.allclose(B_d, 0.01 * np.eye(3), atol=1e-14)


def test_criterion_8_determinism(tmp_path):
    config = tmp_path / "episode.ini"
    config.write_text("[run]\nhorizon = 20.0\n")
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert main(["run", str(config), "--outdir", str(out1)]) == 0
    assert main(["run", str(config), "--outdir", str(out2)]) == 0
    b1 = (out1 / "trajectory.csv").read_bytes()
    b2 = (out2 / "trajectory.csv").read_bytes()
    assert b1 == b2
    assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()
