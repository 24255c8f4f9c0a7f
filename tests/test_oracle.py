import ast
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import expm, solve_discrete_are, solve_discrete_lyapunov

from modelfollow import oracle
from modelfollow.cli_io import load_config
from modelfollow.dynamics import rk4_step
from modelfollow.learner import policy_from_kernel
from sequential import seq_critic_update, seq_quadratic_form, seq_regressor, seq_solve_dare


def test_zoh_zero_drift():
    A = np.zeros((3, 3))
    B = np.array([[1.0], [2.0], [3.0]])
    A_d, B_d = oracle.zoh_discretize(A, B, 0.01)
    assert np.allclose(A_d, np.eye(3))
    assert np.allclose(B_d, 0.01 * B)


def test_zoh_scalar_closed_form():
    A_d, B_d = oracle.zoh_discretize([[-1.0]], [[1.0]], 0.01)
    assert abs(A_d[0, 0] - np.exp(-0.01)) < 1e-12
    assert abs(B_d[0, 0] - (1.0 - np.exp(-0.01))) < 1e-12
    assert abs(A_d[0, 0] - 0.9900498) < 1e-7
    assert abs(B_d[0, 0] - 0.0099502) < 1e-7


def test_zoh_nilpotent_exact():
    delta = 0.3
    A_d, _ = oracle.zoh_discretize([[0.0, 1.0], [0.0, 0.0]], [[0.0], [1.0]], delta)
    assert np.allclose(A_d, [[1.0, delta], [0.0, 1.0]], atol=1e-14)


def test_zoh_rejects_bad_delta():
    with pytest.raises(ValueError):
        oracle.zoh_discretize(np.eye(2), np.ones((2, 1)), 0.0)


def test_stage_cost_values():
    Q_bar, R_bar = oracle.stage_cost(0.05 * np.eye(3), 0.01, 0.01)
    assert np.allclose(Q_bar, 2.5e-4 * np.eye(3))
    assert abs(R_bar[0, 0] - 5e-5) < 1e-18


@pytest.mark.parametrize("delta", [0.0, -0.01])
def test_stage_cost_rejects_bad_delta(delta):
    with pytest.raises(ValueError, match="delta must be positive"):
        oracle.stage_cost(np.eye(3), 0.01, delta)


def test_stage_cost_vanishes_with_delta():
    Q_bar, R_bar = oracle.stage_cost(np.eye(2), 1.0, 1e-12)
    assert np.linalg.norm(Q_bar) < 1e-11 and abs(R_bar[0, 0]) < 1e-11


def test_dare_zero_dynamics():
    Q_bar = 0.5 * np.eye(2)
    P = oracle.solve_dare(np.zeros((2, 2)), np.zeros((2, 1)), Q_bar, [[1.0]])
    assert np.allclose(P, Q_bar)


def test_dare_scalar_geometric():
    # b = 0 reduces the iteration to P = q + a^2 P -> P = 1/(1 - 0.25)
    P = oracle.solve_dare([[0.5]], [[0.0]], [[1.0]], [[1.0]])
    assert abs(P[0, 0] - 4.0 / 3.0) < 1e-10


def test_dare_benchmark_psd(model):
    cfgQ = 0.05 * np.eye(3)
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, 0.01)
    Q_bar, R_bar = oracle.stage_cost(cfgQ, 0.01, 0.01)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    assert np.all(np.linalg.eigvalsh(P) >= -1e-12)
    # residual of the fixed point
    gain_term = np.linalg.solve(R_bar + B_d.T @ P @ B_d, B_d.T @ P @ A_d)
    res = Q_bar + A_d.T @ P @ A_d - (A_d.T @ P @ B_d) @ gain_term - P
    assert np.linalg.norm(res) < 1e-11


@pytest.mark.parametrize("delta", [0.002, 0.005, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("q, r", [(0.05, 0.01), (0.02, 0.02), (0.2, 0.01)])
def test_dare_matches_scipy(model, delta, q, r):
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, delta)
    Q_bar, R_bar = oracle.stage_cost(q * np.eye(3), r, delta)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    P_ref = solve_discrete_are(A_d, B_d, Q_bar, R_bar)
    assert np.linalg.norm(P - P_ref) < 1e-11 * np.linalg.norm(P_ref)


def test_dare_matches_plain_fixed_point(model):
    delta = 0.05
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, delta)
    Q_bar, R_bar = oracle.stage_cost(0.05 * np.eye(3), 0.01, delta)
    # the value recursion P <- Q_bar + A_d' P A_d - A_d' P B_d K from Q_bar
    P_ref = Q_bar.copy()
    for _ in range(200000):
        BtP = B_d.T @ P_ref
        gain_term = np.linalg.solve(R_bar + BtP @ B_d, BtP @ A_d)
        Pn = Q_bar + A_d.T @ P_ref @ A_d - (A_d.T @ P_ref @ B_d) @ gain_term
        Pn = 0.5 * (Pn + Pn.T)
        if np.linalg.norm(Pn - P_ref) < 1e-13:
            P_ref = Pn
            break
        P_ref = Pn
    else:
        pytest.fail("reference fixed-point loop did not settle")
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    assert np.linalg.norm(P - P_ref) < 1e-9 * np.linalg.norm(P_ref)


def test_dare_unstabilizable_raises_fast():
    start = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.NoConvergenceError):
            oracle.solve_dare([[2.0]], [[0.0]], [[1.0]], [[1.0]])
    assert time.perf_counter() - start < 0.5


def test_dare_without_convergence_raises():
    # a marginally stable mode the input cannot reach: P grows by Q_bar on
    # every step of the value recursion and never settles, so the doubling
    # runs out of steps without meeting a singular or non-finite iterate
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.NoConvergenceError,
                           match="^Riccati doubling did not converge in 64 steps$"):
            oracle.solve_dare([[1.0]], [[0.0]], [[1.0]], [[1.0]])


def test_dare_singular_step_raises():
    # W = I + G H = 1 + 1 * (-1) is singular on the first step: the solve's
    # LinAlgError is reported as the doubling's own error
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.NoConvergenceError, match="singular"):
            oracle.solve_dare([[1.0]], [[1.0]], [[-1.0]], [[1.0]])


@pytest.mark.parametrize("case", ["nan_Q_bar", "inf_A_d", "overflow", "settles_as_A_overflows"])
def test_dare_non_finite_raises_without_warning(case):
    # the doubling's finiteness checks: a NaN or inf in H is caught by the
    # stopping test's max|H|, one in A or G on the next step or, if H has
    # settled on the step that made it, before returning.  In the last case
    # H settles after six steps, as 0.5^(2^6) vanishes, while 1e5^(2^6)
    # overflows the unobserved entry of A on that same step.
    args = {
        "nan_Q_bar": ([[0.5]], [[1.0]], [[np.nan]], [[1.0]]),
        "inf_A_d": (np.diag([0.5, np.inf]), [[1.0], [1.0]], np.eye(2), [[1.0]]),
        "overflow": ([[1.0, 3.0], [0.0, 1.5]], [[1.0], [0.0]], np.eye(2), [[1.0]]),
        "settles_as_A_overflows": (np.diag([0.5, 1e5]), np.zeros((2, 1)),
                                   np.diag([1.0, 0.0]), [[1.0]]),
    }[case]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(oracle.NoConvergenceError, match="non-finite"):
            oracle.solve_dare(*args)


def test_dare_pivots_past_a_zero_leading_entry():
    # W_0 = I + G H = [[0, 1], [-2, 3]]: the first elimination step of the
    # doubling has to swap rows
    A_d, B_d = np.array([[1.1, 0.2], [0.0, 0.9]]), np.array([[1.0], [2.0]])
    Q_bar, R_bar = np.array([[1.0, -1.0], [-1.0, 1.0]]), np.array([[1.0]])
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    P_ref = solve_discrete_are(A_d, B_d, Q_bar, R_bar)
    assert np.linalg.norm(P - P_ref) < 1e-11 * np.linalg.norm(P_ref)


@pytest.mark.parametrize("delta", [0.002, 0.005, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("q, r", [(0.05, 0.01), (0.02, 0.02), (0.2, 0.01)])
def test_dare_matches_numpy_doubling(model, delta, q, r):
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, delta)
    Q_bar, R_bar = oracle.stage_cost(q * np.eye(3), r, delta)
    P_ref = seq_solve_dare(A_d, B_d, Q_bar, R_bar)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    assert np.linalg.norm(P - P_ref) < 1e-12 * np.linalg.norm(P_ref)


def test_dare_matches_numpy_doubling_on_random_problems():
    """Random stabilizable problems, n = 1..6 states and m = 1..2 inputs: A
    scaled to a spectral radius in [0.5, 1.2], B and Q - I random, R = I.

    The two doublings round differently (numpy's products and LAPACK's
    elimination fuse multiply-adds), so they agree to the problem's
    sensitivity, estimated as kappa = cond(P) / (1 - rho^2), rho the
    spectral radius of the optimal closed loop: to 1e-12 for kappa <= 1e3,
    which holds for about 99% of the draws, and to 1e-12 kappa / 1e3 above.
    """
    rng = np.random.default_rng(0)
    for _ in range(200):
        n, m = int(rng.integers(1, 7)), int(rng.integers(1, 3))
        A = rng.normal(size=(n, n))
        A *= rng.uniform(0.5, 1.2) / np.abs(np.linalg.eigvals(A)).max()
        B, M = rng.normal(size=(n, m)), rng.normal(size=(n, n))
        Q, R = M @ M.T + np.eye(n), np.eye(m)
        P_ref = seq_solve_dare(A, B, Q, R)
        K = np.linalg.solve(R + B.T @ P_ref @ B, B.T @ P_ref @ A)
        kappa = np.linalg.cond(P_ref) / (1 - np.abs(np.linalg.eigvals(A - B @ K)).max() ** 2)
        P = oracle.solve_dare(A, B, Q, R)
        assert np.linalg.norm(P - P_ref) < 1e-12 * max(1.0, kappa / 1e3) * np.linalg.norm(P_ref)


def test_oracle_imports_neither_learner_nor_control_loop():
    # the oracle is the learner's independent ground truth
    tree = ast.parse(Path(oracle.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    assert not imported & {"modelfollow.learner", "modelfollow.control_loop"}, imported


def test_qfun_kernel_blocks(model):
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, 0.01)
    Q_bar, R_bar = oracle.stage_cost(0.05 * np.eye(3), 0.01, 0.01)
    dm = oracle.DiscreteModel(A_d, B_d, Q_bar, R_bar, 0.01)

    S0 = oracle.qfun_kernel(np.zeros((3, 3)), dm)
    assert np.allclose(S0[:3, :3], Q_bar)
    assert abs(S0[3, 3] - R_bar[0, 0]) < 1e-15
    assert np.all(S0[:3, 3] == 0.0)

    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    S = oracle.qfun_kernel(P, dm)
    assert np.linalg.norm(S - S.T) < 1e-12
    gain = policy_from_kernel(S, n_features=3).reshape(-1)
    lqr = -np.linalg.solve(R_bar + B_d.T @ P @ B_d, B_d.T @ P @ A_d).reshape(-1)
    assert np.linalg.norm(gain - lqr) < 1e-10


def test_zoh_vs_rk4(model):
    delta = 0.01
    A_d, _ = oracle.zoh_discretize(model.A, model.B, delta)
    x = np.array([0.4, -1.2, 0.7])
    xn = x.copy()
    h = delta / 100
    for _ in range(100):
        xn = rk4_step(model.A, model.B, xn, np.zeros(1), h)
    assert np.linalg.norm(xn - A_d @ x) < 1e-9


def test_integrated_stage_cost_matches_first_order(model):
    delta = 0.01
    Q = 0.05 * np.eye(3)
    G = oracle._cost_exponential(model.A_hat, model.B_hat, Q, 0.01, delta)[0]
    Q_bar, R_bar = oracle.stage_cost(Q, 0.01, delta)
    first = np.zeros((4, 4))
    first[:3, :3] = Q_bar
    first[3, 3] = R_bar[0, 0]
    # G and the first-order costs agree to O(delta * ||drift||) relative
    assert np.linalg.norm(G - first) < 0.1 * np.linalg.norm(first)
    assert np.linalg.norm(G - first) > 0.0


def test_policy_value_kernel_bellman_identity(model):
    delta = 0.01
    Q = 0.05 * np.eye(3)
    gain = np.array([-3.5711, -0.2329, 0.2986])
    S = oracle.policy_value_kernel(model.A_hat, model.B_hat, gain, Q, 0.01, delta)
    A_d, B_d = oracle.zoh_discretize(model.A_hat, model.B_hat, delta)
    G = oracle._cost_exponential(model.A_hat, model.B_hat, Q, 0.01, delta)[0]
    rng = np.random.default_rng(11)
    for _ in range(20):
        x = rng.normal(size=3)
        v = rng.normal()
        Z = np.concatenate([x, [v]])
        xn = A_d @ x + B_d[:, 0] * v
        Zn = np.concatenate([xn, [float(gain @ xn)]])
        lhs = 0.5 * seq_quadratic_form(Z, S) - 0.5 * seq_quadratic_form(Zn, S)
        rhs = float(Z @ G @ Z)
        assert abs(lhs - rhs) < 1e-12


def test_batch_solve_recovers_truth():
    rng = np.random.default_rng(12)
    theta_star = rng.normal(size=10)
    data = []
    for _ in range(30):
        Zt, Zn = rng.normal(size=4), rng.normal(size=4)
        z = seq_regressor(Zt, Zn)
        data.append((z, float(theta_star @ z)))
    theta = oracle.batch_bellman_solve(data)
    assert np.linalg.norm(theta - theta_star) < 1e-8


def test_regressor_log_arrays_equal_pairs():
    # the solve and the residual take the log as (Z, phi) arrays, and a
    # list of (z_tilde, phi) pairs gives the same results
    rng = np.random.default_rng(15)
    Z = rng.normal(size=(40, 10))
    phi = Z @ rng.normal(size=10) + 1e-3 * rng.normal(size=40)
    pairs = list(zip(Z.tolist(), phi.tolist()))
    theta = oracle.batch_bellman_solve(Z, phi)
    assert np.array_equal(theta, oracle.batch_bellman_solve(pairs))
    assert oracle.bellman_residual(theta, Z, phi) == oracle.bellman_residual(theta, pairs)
    with pytest.raises(oracle.UnderExcitationError):
        oracle.batch_bellman_solve(Z[:5], phi[:5])


def test_batch_solve_under_excitation():
    rng = np.random.default_rng(13)
    z = seq_regressor(rng.normal(size=4), rng.normal(size=4))
    with pytest.raises(oracle.UnderExcitationError):
        oracle.batch_bellman_solve([(z, 0.0)])


def test_batch_solve_rank_deficient_regressors():
    # enough rows, but a column repeated: the regressors span 3 of the 4
    # parameter directions
    rng = np.random.default_rng(16)
    Z = rng.normal(size=(20, 4))
    Z[:, 3] = Z[:, 1]
    with pytest.raises(oracle.UnderExcitationError, match="rank 3 < 4") as info:
        oracle.batch_bellman_solve(Z, rng.normal(size=20))
    assert (info.value.rank, info.value.needed) == (3, 4)


def test_projection_cycles_reach_batch_solution():
    rng = np.random.default_rng(14)
    theta_star = rng.normal(size=10)
    data = []
    for _ in range(40):
        Zt, Zn = rng.normal(size=4), rng.normal(size=4)
        z = seq_regressor(Zt, Zn)
        data.append((z, float(theta_star @ z)))
    batch = oracle.batch_bellman_solve(data)
    theta = np.zeros(10)
    for _ in range(400):
        for z, phi in data:
            theta = seq_critic_update(theta, z, phi, 0.5, 1.8)
    assert np.linalg.norm(theta - batch) < 1e-4


CORPUS = sorted((Path(__file__).parent / "corpus").glob("*.ini"))


def _corpus_cases():
    """The distinct (A, B, gain, Q, R) of the corpus configs, for the
    plant and for the desired model."""
    cases = {}
    for path in CORPUS:
        config = load_config(path)
        m, cfg = config.model, config.learning
        for A, B in ((m.A, m.B), (m.A_hat, m.B_hat)):
            case = (A, B, np.asarray(cfg.pi_cl0), cfg.Q, cfg.R)
            cases[repr(case)] = case
    return list(cases.values())


def _scipy_reference(A, B, gain, Q, R, delta):
    """A_d, B_d, G and the policy-value kernel from scipy's expm and
    solve_discrete_lyapunov, with two exponentials as the oracle once took."""
    n = A.shape[0]
    d = n + B.shape[1]
    M = np.zeros((d, d))
    M[:n, :n], M[:n, n:] = A, B
    E = expm(M * delta)
    C = np.zeros((d, d))
    C[:n, :n], C[n:, n:] = 0.5 * Q, 0.5 * R
    H = np.zeros((2 * d, 2 * d))
    H[:d, :d], H[:d, d:], H[d:, d:] = -M.T, C, M
    F = expm(H * delta)
    G = F[d:, d:].T @ F[:d, d:]
    G = 0.5 * (G + G.T)
    T = E.copy()
    T[n:, :] = np.atleast_2d(gain) @ E[:n, :]
    S = solve_discrete_lyapunov(T.T, 2.0 * G)
    return E[:n, :n], E[:n, n:], G, 0.5 * (S + S.T)


def _rel(x, ref):
    return np.linalg.norm(x - ref) / np.linalg.norm(ref)


@pytest.mark.parametrize("delta", [0.002, 0.005, 0.01, 0.02, 0.05])
def test_numpy_oracle_matches_scipy_reference(delta):
    """The numpy-only oracle against scipy's expm and Lyapunov solve.

    The exponentials agree to 1e-13 relative (measured: 4e-16).  The
    policy-value kernel is held to 2e-13: the Lyapunov solve amplifies the
    exponentials' round-off differences by the condition number of
    I - T' kron T', up to 7e4 at delta = 0.002, and the desired model's
    prior-gain kernel then differs by 1.2e-13 relative.  A 40-digit
    evaluation puts both kernels about 6e-14 from the exact one there.
    """
    for A, B, gain, Q, R in _corpus_cases():
        A_d, B_d, G, S = _scipy_reference(A, B, gain, Q, R, delta)
        got_A, got_B = oracle.zoh_discretize(A, B, delta)
        assert _rel(got_A, A_d) <= 1e-13 and _rel(got_B, B_d) <= 1e-13
        assert _rel(oracle._cost_exponential(A, B, Q, R, delta)[0], G) <= 1e-13
        assert _rel(oracle.policy_value_kernel(A, B, gain, Q, R, delta), S) <= 2e-13


@pytest.mark.parametrize("k", range(-4, 5))
@pytest.mark.parametrize("path", CORPUS, ids=[p.stem for p in CORPUS])
def test_cost_scaling_is_exact(path, k):
    """Scaling (Q, R) by c = 2^k scales both kernels by exactly c.

    Multiplying by a power of two is exact, and so is every step that the
    scaling passes through, as long as the exponential takes the same
    steps.  It does not for large c: expm_ss sums its series until a term
    is below an absolute tolerance and scales by the norm of the block
    matrix H, whose cost block grows with c.  On the corpus the
    policy-value kernel is exact for -30 <= k <= 4 and breaks from k = 5
    (pi_cl0 = [5, 5, 5]), k = 9 (delta = 0.02) or k = 11 (the others);
    scipy's expm, whose Pade degree and scaling also follow the norm,
    breaks from k = 11 at delta >= 0.02.  The DARE does not exponentiate
    the costs and stops on a tolerance relative to its iterate, so it is
    exact far outside this range (test_dare_cost_scaling_is_exact).
    """
    config = load_config(path)
    m, cfg = config.model, config.learning
    c = 2.0 ** k
    S = oracle.policy_value_kernel(m.A_hat, m.B_hat, cfg.pi_cl0, cfg.Q, cfg.R, cfg.delta)
    S_c = oracle.policy_value_kernel(m.A_hat, m.B_hat, cfg.pi_cl0, c * cfg.Q, c * cfg.R,
                                     cfg.delta)
    assert np.array_equal(S_c, c * S)
    A_d, B_d = oracle.zoh_discretize(m.A_hat, m.B_hat, cfg.delta)
    P = oracle.solve_dare(A_d, B_d, *oracle.stage_cost(cfg.Q, cfg.R, cfg.delta))
    P_c = oracle.solve_dare(A_d, B_d, *oracle.stage_cost(c * cfg.Q, c * cfg.R, cfg.delta))
    assert np.array_equal(P_c, c * P)


@pytest.mark.parametrize("k", [-60, -40, -26, 40, 60])
def test_dare_cost_scaling_is_exact(default_config, k):
    """Scaling (Q, R) by c = 2^k scales the DARE solution by exactly c.

    The doubling sees the costs only through H_0 = Q_bar (times c) and
    G_0 = B_d R_bar^-1 B_d' (times 1/c), so every W = I + G H is unchanged
    and each iterate H_k is exactly c times the unscaled one; a stopping
    test relative to the iterate then ends both runs on the same step.
    """
    m, cfg = default_config.model, default_config.learning
    c = 2.0 ** k
    A_d, B_d = oracle.zoh_discretize(m.A_hat, m.B_hat, cfg.delta)
    Q_bar, R_bar = oracle.stage_cost(cfg.Q, cfg.R, cfg.delta)
    P = oracle.solve_dare(A_d, B_d, Q_bar, R_bar)
    assert np.array_equal(oracle.solve_dare(A_d, B_d, c * Q_bar, c * R_bar), c * P)
