import math

import numpy as np
import pytest

from modelfollow.learner import (
    LearningConfig, PROBE_PHASES, SingularKernelError, _SAMPLE,
    policy_from_kernel, theta_to_S, S_to_theta, tri_indices, components,
)
from sequential import (
    seq_actor_update, seq_critic_update, seq_distance, seq_dot, seq_quadratic_form,
)


def rand_sym(rng, d):
    M = rng.normal(size=(d, d))
    return 0.5 * (M + M.T)


def entries(S):
    """A kernel matrix as the tuple of its entries in row-major order."""
    return tuple(np.ravel(S).tolist())


def quadratic_value(S, Z):
    """V = 1/2 Z' S Z by the sequential reference."""
    return 0.5 * seq_quadratic_form(Z, S)


def utility(F, mu, Q, R):
    """The stage utility U = 1/2 (F' Q F + mu R mu): the stage cost
    delta * U of the error-feature Bellman sample (_SAMPLE) at delta = 1.0,
    on one vector or on a stack given as columns."""
    zero = [0.0] * len(F)
    return _SAMPLE["err", len(F)](F, mu, zero, zero, Q, 1.0, R)[1]


def regressor(Z_t, G, p):
    """The regressor of the Bellman sample (_SAMPLE) of Z_t = [F; mu]
    against Z_next = [G; p . G], on one vector or a stack given as columns."""
    return _SAMPLE["err", len(G)](Z_t[:-1], Z_t[-1], G, p, [[0.0] * len(G)] * len(G), 1.0, 1.0)[0]


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

def test_regressor_zero_and_length():
    # the gain prices the next action at p . F = 4.0, so Z_next = Z
    Z = [1.0, 2.0, 3.0, 4.0]
    assert regressor(Z, Z[:3], [0.0, 2.0, 0.0]) == [0.0] * 10
    assert len(regressor(Z, [0.0] * 3, [0.0] * 3)) == 10
    assert len(tri_indices(4)) == 10


def test_regressor_identity():
    rng = np.random.default_rng(3)
    for _ in range(20):
        S = rand_sym(rng, 4)
        Zt, G, p = rng.normal(size=4), rng.normal(size=3), rng.normal(size=3)
        Zn = np.append(G, seq_dot(p, G))
        lhs = S_to_theta(S) @ regressor(Zt, G, p)
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


def test_policy_rejects_non_square_kernel():
    with pytest.raises(ValueError, match="a kernel of 15 entries is not square"):
        policy_from_kernel(np.ones(15))


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
    assert np.allclose(seq_critic_update(theta, z, phi, 0.5, 1.8), theta)


def test_critic_scalar_arithmetic():
    out = seq_critic_update(np.array([0.0]), np.array([1.0]), 1.0, 0.5, 1.8)
    assert abs(out[0] - 0.5 / 2.8) < 1e-15


def test_critic_contracts():
    rng = np.random.default_rng(6)
    for _ in range(200):
        theta_star = rng.normal(size=10)
        theta = rng.normal(size=10)
        z = rng.normal(size=10)
        phi = float(theta_star @ z)
        theta_next = seq_critic_update(theta, z, phi, 0.5, 1.8)
        assert np.linalg.norm(theta_next - theta_star) <= \
            np.linalg.norm(theta - theta_star) + 1e-12


def test_actor_fixed_point_and_scalar():
    pi = np.array([1.0, -2.0, 0.5])
    F = np.array([0.2, 0.4, -0.1])
    target = pi @ F
    assert np.allclose(seq_actor_update(pi, F, target, 0.5, 1.8), pi)
    out = seq_actor_update([0.0] * 3, [1.0, 0.0, 0.0], 1.0, 0.5, 1.8)
    assert abs(out[0] - 0.5 / 2.8) < 1e-15
    assert out[1:] == [0.0, 0.0]


def test_actor_contracts():
    rng = np.random.default_rng(7)
    for _ in range(200):
        pi_star = rng.normal(size=3)
        pi = rng.normal(size=3)
        F = rng.normal(size=3)
        target = pi_star @ F
        pi_next = seq_actor_update(pi, F, target, 0.5, 1.8)
        assert np.linalg.norm(pi_next - pi_star) <= \
            np.linalg.norm(pi - pi_star) + 1e-12


def test_actor_rate_limit():
    pi = [0.0] * 3
    F = [10.0, 0.0, 0.0]
    out = seq_actor_update(pi, F, 1000.0, 0.5, 1.8, rate_limit=0.01)
    # residual clamped to 0.01 regardless of the huge target
    assert abs(out[0]) <= 0.5 * 0.01 * 10.0 / (1.8 + 100.0) + 1e-15


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
        theta = seq_critic_update(theta, z, phi, 2.5, 1.8)
    assert np.linalg.norm(theta - theta_star) > r0


# ---- reshaping -----------------------------------------------------------

def test_theta_round_trip():
    rng = np.random.default_rng(8)
    assert np.all(np.reshape(theta_to_S(S_to_theta(np.eye(4))), (4, 4)) == np.eye(4))
    assert theta_to_S([0.0] * 10) == (0.0,) * 16
    for _ in range(10):
        S = rand_sym(rng, 4)
        assert np.linalg.norm(np.reshape(theta_to_S(S_to_theta(S)), (4, 4)) - S) < 1e-12
        th = rng.normal(size=10)
        assert np.linalg.norm(S_to_theta(np.reshape(theta_to_S(th), (4, 4))) - th) < 1e-12


@pytest.mark.parametrize("d", range(1, 7))
def test_theta_layout_is_row_major_upper_triangle(d):
    # S_to_theta reads the upper triangle row by row (tri_indices), the
    # order of np.triu_indices, and theta_to_S gives back every entry of
    # the symmetric kernel in row-major order
    S = np.arange(d * d, dtype=float).reshape(d, d)
    S = S + S.T
    theta = S_to_theta(S)
    assert theta.tobytes() == S[np.triu_indices(d)].tobytes()
    assert theta_to_S(theta.tolist()) == tuple(S.ravel().tolist())


@pytest.mark.parametrize("size", [2, 4, 5, 7, 9, 11])
def test_theta_to_S_rejects_non_triangular_length(size):
    with pytest.raises(ValueError, match=f"theta length {size} is not triangular"):
        theta_to_S([0.0] * size)


def test_stacked_rows_match_single_vectors():
    # the Bellman sample (_SAMPLE: the regressor, the closed-loop quadratic
    # form and the error-feature utility) runs on a stack given as its
    # columns; each row of a stacked call must equal the one-vector call
    # bit for bit, since the episode's logged Bellman data are built stacked
    rng = np.random.default_rng(11)
    n = 2000
    F = rng.normal(size=(n, 3)) * rng.uniform(1e-3, 1e3, size=(n, 1))
    mu = rng.normal(size=n)
    Zt, G, p = rng.normal(size=(n, 4)), rng.normal(size=(n, 3)), rng.normal(size=(n, 3))
    Q, W = (0.05 * np.eye(3) + 0.01).tolist(), rand_sym(rng, 4).tolist()
    U = utility(components(F), mu, Q, 0.01)
    z = np.stack(regressor(components(Zt), components(G), components(p)), axis=1)
    zero = [0.0] * 3
    q = _SAMPLE["cl", 3](components(Zt[:, :3]), Zt[:, 3], zero, zero, W, 1.0, 1.0)[1]
    assert U.shape == q.shape == (n,) and z.shape == (n, 10)
    for i in range(n):
        assert U[i] == utility(F[i].tolist(), mu[i], Q, 0.01), i
        assert z[i].tolist() == regressor(Zt[i].tolist(), G[i].tolist(), p[i].tolist()), i
        assert q[i] == seq_quadratic_form(Zt[i], W), i


def test_layout_matches_loop_reference():
    # the tri_indices loops the regressor and the kernel layout replaced;
    # same arithmetic, so the results must be bit-identical
    rng = np.random.default_rng(9)
    for d in range(1, 7):
        pairs = tri_indices(d)
        for _ in range(5):
            Z, G, p = (rng.normal(size=k).tolist() for k in (d, d - 1, d - 1))
            Zn = [*G, seq_dot(p, G)]
            ref = [0.5 * Z[i] * Z[i] - 0.5 * Zn[i] * Zn[i] if i == j else Z[i] * Z[j] - Zn[i] * Zn[j]
                   for (i, j) in pairs]
            assert regressor(Z, G, p) == ref
            th = rng.normal(size=len(pairs))
            S_ref = np.zeros((d, d))
            for k, (i, j) in enumerate(pairs):
                S_ref[i, j] = S_ref[j, i] = th[k]
            entries = theta_to_S(th.tolist())
            assert type(entries) is tuple and len(entries) == d * d
            S = np.reshape(entries, (d, d))
            assert np.array_equal(S, S_ref)
            assert np.array_equal(S, S.T)
            assert np.array_equal(S_to_theta(S), th)


def test_identity_theta_layout():
    th = S_to_theta(np.eye(4))
    diag_slots = [0, 4, 7, 9]
    for k in range(10):
        assert th[k] == (1.0 if k in diag_slots else 0.0)


# ---- convergence test ----------------------------------------------------

def kernel_converged(S_prev, S_next, tol_conv):
    """The freeze test of the sequential reference: the kernel distance
    below tol_conv."""
    return seq_distance(S_prev, S_next) < tol_conv


def test_kernel_converged():
    S = np.eye(4)
    assert kernel_converged(entries(S), entries(S), 1e-4)
    D = np.zeros((4, 4))
    D[0, 0] = 2e-4
    assert not kernel_converged(entries(S), entries(S + D), 1e-4)
    D2 = np.zeros((4, 4))
    D2[0, 0] = 0.9e-4
    assert kernel_converged(entries(S), entries(S + D2), 1e-4)


# ---- bitwise guards ------------------------------------------------------
# The learner step reads the 1x1 control block as a scalar, takes Frobenius
# norms as the square root of a sequential sum and clamps the actor's
# residual with min and max, as do the sequential references that the
# replay holds the adapting loop to bit for bit (replay.py).  On the LAPACK
# build these tests run against, the gain equals the general linear solve,
# and the references' norm and actor step equal their explicit numpy forms.

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
            assert kernel_converged(entries(S_prev), entries(S_next), tol) == (norm < tol)


def actor_reference(pi, F, target, limit):
    """The actor step with np.clip as the clamp and sequential sums."""
    residual = seq_dot(pi, F) - target
    if limit is not None:
        residual = np.clip(residual, -limit, limit)
    return pi - 0.5 * np.multiply.outer(residual, F) / (1.8 + seq_dot(F, F))


def test_actor_clamp_matches_clip_reference():
    rng = np.random.default_rng(14)
    for k in range(20000):
        S = rand_sym(rng, 4)
        gain = policy_from_kernel(S)
        pi = rng.normal(size=3) * rng.uniform(0.1, 100)
        F = rng.normal(size=3) * rng.uniform(1e-3, 10)
        limit = (None, 0.002)[k % 2]
        target = seq_dot(gain[0], F)
        row = seq_actor_update(pi.tolist(), F.tolist(), target, 0.5, 1.8, rate_limit=limit)
        assert np.array(row).tobytes() == actor_reference(pi, F, target, limit).tobytes(), k
    # residuals the clamp must treat as np.clip does: NaN and +-inf targets,
    # and a zero rate limit that clamps every residual to a signed zero, on
    # gains with zero entries of either sign
    for k in range(960):
        pi = rng.normal(size=3) * (k // 16 % 2)
        F = rng.normal(size=3) * rng.uniform(1e-3, 10)
        target = (np.nan, np.inf, -np.inf, pi @ F + rng.normal())[k % 4]
        limit = (None, 0.002, 0.0, 0)[k // 4 % 4]
        row = seq_actor_update(pi.tolist(), F.tolist(), float(target), 0.5, 1.8, rate_limit=limit)
        assert np.array(row).tobytes() == actor_reference(pi, F, target, limit).tobytes(), k


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
def test_probe_edge_windows(strategy):
    # the sinusoids are evaluated only before t_probe; every other time
    # reads +0.0, as masking the whole wave gives
    t = np.arange(2000) * 0.01
    bits = lambda a: np.asarray(a, dtype=float).view(np.uint64)
    off = LearningConfig(t_probe=0.0).probe(t, strategy)
    assert np.array_equal(bits(off), bits(np.zeros(len(t))))
    # a window past the horizon: the unmasked wave on every tick
    on = LearningConfig(t_probe=1e6)
    wave = on.probe_amplitude * sum(
        np.sin(w * t + ph) for w, ph in zip(on.probe_frequencies, PROBE_PHASES[strategy]))
    assert np.array_equal(bits(on.probe(t, strategy)), bits(wave))
    # no frequency and a negative amplitude: -0.0 inside the window, +0.0 after it
    flat = LearningConfig(probe_frequencies=(), probe_amplitude=-0.1)
    assert np.array_equal(bits(flat.probe(np.array([4.99, 5.0]), strategy)),
                          bits(np.array([-0.0, 0.0])))
    # a scalar time gives a scalar, the bits of the same time in an array
    times = [0.0, 0.3, 4.99, 5.0, 5.01, 19.99]
    for c in (LearningConfig(), LearningConfig(t_probe=0.0), on, flat):
        scalars = [c.probe(x, strategy) for x in times]
        assert all(np.ndim(v) == 0 for v in scalars)
        assert np.array_equal(bits(c.probe(np.array(times), strategy)), bits(scalars))


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
