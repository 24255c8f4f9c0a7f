import math

import numpy as np
import pytest

from modelfollow.learner import (
    LearningConfig, PROBE_PHASES, SingularKernelError,
    utility, quadratic_form, quadratic_value, bellman_regressor,
    qmonomials, policy_from_kernel, critic_update, actor_update,
    theta_to_S, S_to_theta, kernel_converged, tri_indices,
)
from sequential import seq_dot, seq_quadratic_form


def rand_sym(rng, d):
    M = rng.normal(size=(d, d))
    return 0.5 * (M + M.T)


# ---- utility -------------------------------------------------------------

def test_utility_zero():
    assert utility(np.zeros(3), 0.0, 0.05 * np.eye(3), 0.01) == 0.0


def test_utility_benchmark_weights():
    val = utility(np.ones(3), 1.0, 0.05 * np.eye(3), 0.01)
    assert abs(val - 0.08) < 1e-15


def test_utility_even():
    rng = np.random.default_rng(1)
    Q = 0.05 * np.eye(3)
    for _ in range(20):
        F, mu = rng.normal(size=3), rng.normal()
        assert utility(F, mu, Q, 0.01) == utility(-F, -mu, Q, 0.01)


# ---- quadratic forms and regressors -------------------------------------

def test_quadratic_value_examples():
    assert quadratic_value(np.eye(4), np.array([1.0, 0, 0, 1.0])) == 1.0
    assert quadratic_value(np.eye(4), np.zeros(4)) == 0.0


def test_quadratic_value_double_sum():
    rng = np.random.default_rng(2)
    for _ in range(10):
        S = rand_sym(rng, 4)
        Z = rng.normal(size=4)
        brute = 0.5 * sum(S[i, j] * Z[i] * Z[j] for i in range(4) for j in range(4))
        assert abs(quadratic_value(S, Z) - brute) < 1e-12


def test_regressor_zero_and_length():
    Z = np.array([1.0, 2.0, 3.0, 4.0])
    assert np.all(bellman_regressor(Z, Z) == 0.0)
    assert bellman_regressor(Z, np.zeros(4)).shape == (10,)
    assert len(tri_indices(4)) == 10


def test_regressor_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        S = rand_sym(rng, 4)
        Zt, Zn = rng.normal(size=4), rng.normal(size=4)
        lhs = S_to_theta(S) @ bellman_regressor(Zt, Zn)
        rhs = quadratic_value(S, Zt) - quadratic_value(S, Zn)
        assert abs(lhs - rhs) < 1e-12


# ---- policy extraction ---------------------------------------------------

def test_policy_simple():
    S = np.eye(4)
    S[3, :3] = [1.0, 2.0, 3.0]
    S[:3, 3] = [1.0, 2.0, 3.0]
    gain = policy_from_kernel(S)
    assert np.allclose(gain, [[-1.0, -2.0, -3.0]])


def test_policy_zero_cross_block():
    assert np.allclose(policy_from_kernel(np.eye(4)), np.zeros((1, 3)))


def test_policy_singular_kernel():
    S = np.eye(4)
    S[3, 3] = 1e-12
    with pytest.raises(SingularKernelError):
        policy_from_kernel(S)


def test_policy_rejects_wider_control_block():
    with pytest.raises(ValueError, match="1x1"):
        policy_from_kernel(np.eye(4), n_features=2)


def test_policy_minimizes_value():
    rng = np.random.default_rng(4)
    for _ in range(10):
        M = rng.normal(size=(4, 4))
        S = M @ M.T + 0.1 * np.eye(4)   # PD kernel
        F = rng.normal(size=3)
        mu_star = float((policy_from_kernel(S) @ F)[0])
        v_star = quadratic_value(S, np.concatenate([F, [mu_star]]))
        for _ in range(100):
            eps = rng.normal() * 0.1
            v = quadratic_value(S, np.concatenate([F, [mu_star + eps]]))
            assert v >= v_star - 1e-12


# ---- projection updates --------------------------------------------------

def test_critic_zero_residual_fixed_point():
    rng = np.random.default_rng(5)
    theta = rng.normal(size=10)
    z = rng.normal(size=10)
    phi = float(theta @ z)
    assert np.allclose(critic_update(theta, z, phi, 0.5, 1.8), theta)


def test_critic_scalar_arithmetic():
    out = critic_update(np.array([0.0]), np.array([1.0]), 1.0, 0.5, 1.8)
    assert abs(out[0] - 0.5 / 2.8) < 1e-15


def test_critic_contracts():
    rng = np.random.default_rng(6)
    for _ in range(200):
        theta_star = rng.normal(size=10)
        theta = rng.normal(size=10)
        z = rng.normal(size=10)
        phi = float(theta_star @ z)
        theta_next = critic_update(theta, z, phi, 0.5, 1.8)
        assert np.linalg.norm(theta_next - theta_star) <= \
            np.linalg.norm(theta - theta_star) + 1e-12


def test_actor_fixed_point_and_scalar():
    pi = np.array([[1.0, -2.0, 0.5]])
    F = np.array([0.2, 0.4, -0.1])
    target = pi @ F
    assert np.allclose(actor_update(pi, F, target, 0.5, 1.8), pi)
    out = actor_update(np.zeros((1, 3)), np.array([1.0, 0, 0]), [1.0], 0.5, 1.8)
    assert abs(out[0, 0] - 0.5 / 2.8) < 1e-15
    assert np.all(out[0, 1:] == 0.0)


def test_actor_contracts():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pi_star = rng.normal(size=(1, 3))
        pi = rng.normal(size=(1, 3))
        F = rng.normal(size=3)
        target = pi_star @ F
        pi_next = actor_update(pi, F, target, 0.5, 1.8)
        assert np.linalg.norm(pi_next - pi_star) <= \
            np.linalg.norm(pi - pi_star) + 1e-12


def test_actor_rate_limit():
    pi = np.zeros((1, 3))
    F = np.array([10.0, 0.0, 0.0])
    out = actor_update(pi, F, [1000.0], 0.5, 1.8, rate_limit=0.01)
    # residual clamped to 0.01 regardless of the huge target
    assert abs(out[0, 0]) <= 0.5 * 0.01 * 10.0 / (1.8 + 100.0) + 1e-15


def test_pace_boundary_divergence():
    # sigma = 2.5 violates the contraction bound: repeated updates on a
    # fixed well-scaled regressor amplify the residual
    z = np.zeros(10)
    z[0] = np.sqrt(18.0)   # ||z||^2 = 18 -> multiplier 1 - 2.5*18/19.8 < -1
    theta_star = np.zeros(10)
    theta = np.ones(10)
    phi = 0.0
    r0 = np.linalg.norm(theta - theta_star)
    for _ in range(5):
        theta = critic_update(theta, z, phi, 2.5, 1.8)
    assert np.linalg.norm(theta - theta_star) > r0


# ---- reshaping -----------------------------------------------------------

def test_theta_round_trip():
    rng = np.random.default_rng(8)
    assert np.all(theta_to_S(S_to_theta(np.eye(4))) == np.eye(4))
    assert np.all(theta_to_S(np.zeros(10)) == 0.0)
    for _ in range(10):
        S = rand_sym(rng, 4)
        assert np.linalg.norm(theta_to_S(S_to_theta(S)) - S) < 1e-12
        th = rng.normal(size=10)
        assert np.linalg.norm(S_to_theta(theta_to_S(th)) - th) < 1e-12


def test_stacked_rows_match_single_vectors():
    # qmonomials, bellman_regressor, quadratic_form and utility act on the
    # last axis; each row of a stacked call must equal the one-vector call
    # bit for bit, since the episode's logged Bellman data are built stacked
    rng = np.random.default_rng(11)
    n = 2000
    F = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e3, size=(n, 1))
    mu = rng.normal(size=n)
    Zt, Zn = rng.normal(size=(n, 4)), rng.normal(size=(n, 4))
    Q, W = 0.05 * np.eye(3) + 0.01, rand_sym(rng, 4)
    U = utility(F, mu, Q, 0.01)
    z = bellman_regressor(Zt, Zn)
    q = quadratic_form(Zt, W)
    assert U.shape == q.shape == (n,) and z.shape == (n, 10)
    assert np.array_equal(qmonomials(Zt)[7], qmonomials(Zt[7]))
    for i in range(n):
        assert U[i] == utility(F[i], mu[i], Q, 0.01), i
        assert np.array_equal(z[i], bellman_regressor(Zt[i], Zn[i])), i
        assert q[i] == seq_quadratic_form(Zt[i], W), i


def test_layout_matches_loop_reference():
    # the tri_indices loops the vectorized layout replaced; same arithmetic,
    # so the results must be bit-identical
    rng = np.random.default_rng(9)
    for d in range(1, 7):
        pairs = tri_indices(d)
        for _ in range(5):
            Z = rng.normal(size=d)
            ref = [0.5 * Z[i] * Z[i] if i == j else Z[i] * Z[j] for (i, j) in pairs]
            assert np.array_equal(qmonomials(Z), ref)
            th = rng.normal(size=len(pairs))
            S_ref = np.zeros((d, d))
            for k, (i, j) in enumerate(pairs):
                S_ref[i, j] = S_ref[j, i] = th[k]
            S = theta_to_S(th)
            assert np.array_equal(S, S_ref)
            assert np.array_equal(S, S.T)
            assert np.array_equal(S_to_theta(S), th)


def test_identity_theta_layout():
    th = S_to_theta(np.eye(4))
    diag_slots = [0, 4, 7, 9]
    for k in range(10):
        assert th[k] == (1.0 if k in diag_slots else 0.0)


# ---- convergence test ----------------------------------------------------

def test_kernel_converged():
    S = np.eye(4)
    assert kernel_converged(S, S, 1e-4)
    D = np.zeros((4, 4))
    D[0, 0] = 2e-4
    assert not kernel_converged(S, S + D, 1e-4)
    D2 = np.zeros((4, 4))
    D2[0, 0] = 0.9e-4
    assert kernel_converged(S, S + D2, 1e-4)


# ---- bitwise guards ------------------------------------------------------
# The learner step reads the 1x1 control block as a scalar, takes Frobenius
# norms as sqrt(d @ d) and runs the actor on a gain row.  On the BLAS and
# LAPACK build these tests run against, each gives the same floats as the
# general linear solve, np.linalg.norm and the (1, n) actor arithmetic; a
# failure here means the episode artifacts changed too.

def test_scalar_gain_equals_linear_solve():
    rng = np.random.default_rng(12)
    for _ in range(20000):
        S = rand_sym(rng, 4) * rng.uniform(1e-3, 1e3)
        expected = -np.linalg.solve(S[3:, 3:], S[3:, :3])
        assert np.array_equal(policy_from_kernel(S), expected)


def test_kernel_converged_equals_norm_test():
    # at tol = ||dS|| the test is false and one ulp above it true, so a
    # norm that differs from the sequential sum of the squared raveled
    # differences by one ulp fails on one side
    rng = np.random.default_rng(13)
    for _ in range(20000):
        S_prev = rand_sym(rng, 4)
        S_next = S_prev + rand_sym(rng, 4) * rng.uniform(1e-8, 1.0)
        diff = (S_next - S_prev).ravel()
        norm = math.sqrt(seq_dot(diff, diff))
        for tol in (norm, np.nextafter(norm, np.inf)):
            assert kernel_converged(S_prev, S_next, tol) == (norm < tol)


def test_actor_row_equals_2d_call():
    rng = np.random.default_rng(14)
    for k in range(20000):
        S = rand_sym(rng, 4)
        gain = policy_from_kernel(S)
        pi = rng.normal(size=3) * rng.uniform(0.1, 100)
        F = rng.normal(size=3) * rng.uniform(1e-3, 10)
        limit = (None, 0.002)[k % 2]
        target = gain[0] @ F
        assert target == (gain @ F)[0]
        row = actor_update(pi, F, target, 0.5, 1.8, rate_limit=limit)
        full = actor_update(pi[None, :], F, gain @ F, 0.5, 1.8, rate_limit=limit)
        assert row.shape == (3,) and full.shape == (1, 3)
        assert np.array_equal(row, full[0])
    # residuals the clamp must treat as np.clip does: NaN and +-inf targets,
    # and a zero rate limit that clamps every residual to a signed zero, on
    # gains with zero entries of either sign
    for k in range(960):
        pi = rng.normal(size=3) * (k // 16 % 2)
        F = rng.normal(size=3) * rng.uniform(1e-3, 10)
        target = (np.nan, np.inf, -np.inf, pi @ F + rng.normal())[k % 4]
        limit = (None, 0.002, 0.0, 0)[k // 4 % 4]
        residual = seq_dot(pi, F) - target
        if limit is not None:
            residual = np.clip(residual, -limit, limit)
        ref = pi - 0.5 * np.multiply.outer(residual, F) / (1.8 + seq_dot(F, F))
        row = actor_update(pi, F, target, 0.5, 1.8, rate_limit=limit)
        full = actor_update(pi[None, :], F, np.array([target]), 0.5, 1.8, rate_limit=limit)
        assert row.shape == (3,) and full.shape == (1, 3)
        assert row.tobytes() == full[0].tobytes() == ref.tobytes(), k


# ---- config validation ---------------------------------------------------

def test_config_defaults():
    cfg = LearningConfig()
    assert cfg.sigma_c == 0.5 and cfg.alpha_c == 1.8
    assert cfg.delta == 0.01
    assert np.allclose(cfg.Q, 0.05 * np.eye(3))


@pytest.mark.parametrize("kwargs", [
    {"sigma_c": 2.5}, {"sigma_c": 0.0}, {"sigma_a": -0.1},
    {"alpha_c": 0.0}, {"delta": 0.0}, {"R": 0.0}, {"init": "bogus"},
])
def test_config_rejects(kwargs):
    with pytest.raises(ValueError):
        LearningConfig(**kwargs)


def test_probe_stops_after_window():
    p = LearningConfig()
    assert p.probe(5.0, "cl") == 0.0
    assert p.probe(0.3, "cl") != 0.0
    # distinct phases per strategy
    assert p.probe(0.3, "cl") != p.probe(0.3, "ob")


@pytest.mark.parametrize("strategy", ["ob", "cl", "mf"])
def test_probe_array_matches_per_tick_values(strategy):
    # the probe of every tick start k * delta of a 20 s episode, as one
    # array, equals the sum of sinusoids evaluated tick by tick
    p = LearningConfig()
    delta = 0.01
    per_tick = [
        p.probe_amplitude * sum(np.sin(w * (k * delta) + ph)
                                for w, ph in zip(p.probe_frequencies, PROBE_PHASES[strategy]))
        if k * delta < p.t_probe else 0.0
        for k in range(2000)]
    assert np.array_equal(p.probe(np.arange(2000) * delta, strategy), per_tick)
    assert [p.probe(k * delta, strategy) for k in range(2000)] == per_tick
