"""Independent ground-truth machinery for validating the online learner.

Everything here is sampled-data linear-quadratic bookkeeping: exact
zero-order-hold discretization, a structured-doubling Riccati solver,
assembly of the quadratic action-value kernel, policy-evaluation kernels
for a given gain, and a batch least-squares counterpart of the projection
iteration.  It needs numpy alone: its matrix exponential is
dynamics.expm_ss, and it shares no code with the learner or control_loop
modules.
"""

from dataclasses import dataclass

import numpy as np

from modelfollow.dynamics import expm_ss


class NoConvergenceError(RuntimeError):
    """Riccati doubling failed to settle within max_iter or overflowed."""


class UnderExcitationError(RuntimeError):
    """Logged regressors do not span the parameter space."""

    def __init__(self, rank, needed):
        super().__init__(f"regressor rank {rank} < {needed}; data under-excited")
        self.rank = rank
        self.needed = needed


@dataclass
class DiscreteModel:
    """ZOH-discretized system with its sampled-data stage costs."""

    A_d: np.ndarray
    B_d: np.ndarray
    Q_bar: np.ndarray
    R_bar: np.ndarray
    delta: float


def _augmented_drift(A, B, delta):
    """The drift [[A, B], [0, 0]] of the state augmented with an input held
    over an interval delta, and the state count n; delta must be positive."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    if B.ndim == 1:
        B = B.reshape(-1, 1)
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    return M, n


def zoh_discretize(A, B, delta):
    """Exact zero-order-hold discretization via the augmented exponential.

    Returns (A_d, B_d) with A_d = exp(A delta) and B_d the held-input map.
    """
    M, n = _augmented_drift(A, B, delta)
    E = expm_ss(M * delta)
    return E[:n, :n], E[:n, n:]


def stage_cost(Q, R, delta):
    """First-order sampled-data costs (1/2 Q delta, 1/2 R delta)."""
    if delta <= 0:
        raise ValueError("delta must be positive")
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    R = np.atleast_2d(np.asarray(R, dtype=float))
    return 0.5 * Q * delta, 0.5 * R * delta


def _cost_exponential(A, B, Q, R, delta):
    """The integrated stage cost G and the augmented exponential, from one
    block exponential (Van Loan 1978).

    With M the augmented drift [[A, B], [0, 0]] and C = blkdiag(Q, R)/2,
    F = expm([[-M', C], [0, M]] delta) gives G = F22' F12, and its lower
    right block F22 = exp(M delta) = [[A_d, B_d], [0, I]] is the
    zero-order-hold map of zoh_discretize.
    """
    M, n = _augmented_drift(A, B, delta)
    d = M.shape[0]
    H = np.zeros((2 * d, 2 * d))
    H[:d, :d] = -M.T
    H[:n, d:d + n] = Q
    H[n:d, d + n:] = R
    H[:d, d:] *= 0.5  # C = blkdiag(Q, R) / 2
    H[d:, d:] = M
    H *= delta
    F = expm_ss(H)
    G = F[d:, d:].T @ F[:d, d:]
    return 0.5 * (G + G.T), F[d:, d:]


def solve_dare(A_d, B_d, Q_bar, R_bar, tol=1e-13, max_iter=64):
    """Discrete Riccati solution by the structured doubling algorithm.

    Starting from A_0 = A_d, G_0 = B_d R_bar^-1 B_d', H_0 = Q_bar, each
    step solves W = I + G H once and sets

        H <- H + A' H W^-1 A,  G <- G + A W^-1 G A',  A <- A W^-1 A,

    so H_k is 2^k steps from P = 0 of the value recursion
    P <- Q_bar + A_d' P A_d - A_d' P B_d (R_bar + B_d' P B_d)^-1 B_d' P A_d
    (Chu, Fan & Lin 2005).  Stops when max|H_{k+1} - H_k| <= tol
    max|H_{k+1}|, a test relative to the iterate, so that the result does
    not depend on the scale of the costs (and Q_bar = 0 stops at once);
    the max-abs norm does not overflow where a Frobenius norm of finite
    entries would.

    Raises NoConvergenceError after max_iter doubling steps, when a step's
    W is singular, or when an iterate is not finite.  The max|H_{k+1}| of
    the stopping test is the finiteness check: a NaN or inf in H_{k+1}
    fails it on the step that makes it.  One in A_k or G_k (A_0 and G_0
    come from the inputs) reaches H_{k+1} through W^-1 [A_k, G_k], so it
    fails the check one step after it appears; only when H_{k+1} passes the stopping test are
    A_{k+1} and G_{k+1} checked themselves, before H_{k+1} is returned.
    """
    A = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.asarray(B_d, dtype=float)
    if B_d.ndim == 1:
        B_d = B_d.reshape(-1, 1)
    H = np.atleast_2d(np.asarray(Q_bar, dtype=float))
    R_bar = np.atleast_2d(np.asarray(R_bar, dtype=float))
    G = B_d @ np.linalg.solve(R_bar, B_d.T)
    G = 0.5 * (G + G.T)
    n = A.shape[0]
    eye = np.eye(n)
    AG = np.empty((n, 2 * n))  # [A, G], the right-hand side of each solve
    # an unstabilizable pair overflows within about ten steps; the
    # finiteness checks below report that instead of numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(max_iter):
            AG[:, :n] = A
            AG[:, n:] = G
            try:
                WinvAG = np.linalg.solve(eye + G @ H, AG)
            except np.linalg.LinAlgError as exc:
                raise NoConvergenceError("Riccati doubling step is singular") from exc
            WinvA, WinvG = WinvAG[:, :n], WinvAG[:, n:]
            Hn = H + A.T @ H @ WinvA
            Hn = 0.5 * (Hn + Hn.T)
            G = G + A @ WinvG @ A.T
            G = 0.5 * (G + G.T)
            A = A @ WinvA
            size = np.abs(Hn).max()
            if not size < np.inf:  # NaN or inf in Hn
                raise NoConvergenceError(
                    "Riccati doubling iterate became non-finite")
            if np.abs(Hn - H).max() <= tol * size:
                if not (np.isfinite(A).all() and np.isfinite(G).all()):
                    raise NoConvergenceError(
                        "Riccati doubling iterate became non-finite")
                return Hn
            H = Hn
    raise NoConvergenceError(
        f"Riccati doubling did not converge in {max_iter} steps")


def qfun_kernel(P, model):
    """Action-value kernel blocks from the state cost matrix P.

    S = [[Q_bar + A_d' P A_d, A_d' P B_d], [B_d' P A_d, R_bar + B_d' P B_d]];
    its greedy policy equals the discrete LQR gain.
    """
    A_d = np.atleast_2d(np.asarray(model.A_d, dtype=float))
    B_d = np.asarray(model.B_d, dtype=float)
    if B_d.ndim == 1:
        B_d = B_d.reshape(-1, 1)
    n, m = A_d.shape[0], B_d.shape[1]
    S = np.zeros((n + m, n + m))
    S[:n, :n] = model.Q_bar + A_d.T @ P @ A_d
    S[:n, n:] = A_d.T @ P @ B_d
    S[n:, :n] = B_d.T @ P @ A_d
    S[n:, n:] = model.R_bar + B_d.T @ P @ B_d
    return 0.5 * (S + S.T)


def policy_value_kernel(A, B, gain, Q, R, delta):
    """Action-value kernel of a fixed stabilizing gain (policy evaluation).

    Solves the sampled-data Bellman identity 1/2 Z'SZ = Z'GZ + 1/2 Z_+'SZ_+
    with Z_+ = [x_+; gain x_+] and G the exact integrated stage cost.  With
    T the closed-loop lift Z -> Z_+, that is the discrete Lyapunov equation
    S = T' S T + 2G, solved in Kronecker form (I - T' kron T') vec S = vec 2G.
    G and the zero-order-hold map in T come from one block exponential.
    """
    G, E = _cost_exponential(A, B, Q, R, delta)
    gain = np.atleast_2d(np.asarray(gain, dtype=float))
    n, d = gain.shape[1], E.shape[0]
    T = E.copy()  # [[A_d, B_d], [0, I]]; its last rows become gain [A_d, B_d]
    T[n:, :] = gain @ E[:n, :]
    # T' kron T' as np.kron forms it: entry (i d + k, j d + l) = T'_ij T'_kl
    Tt = T.T
    TkT = (Tt[:, None, :, None] * Tt[None, :, None, :]).reshape(d * d, d * d)
    S = np.linalg.solve(np.eye(d * d) - TkT, 2.0 * G.ravel()).reshape(d, d)
    return 0.5 * (S + S.T)


def _regressor_log(Z, phi):
    """The regressor log as arrays: Z with one regressor row per tick and
    phi the stage costs, or, with phi None, Z a list of (z_tilde, phi)
    pairs, stacked here."""
    if phi is None:
        phi = np.array([p for _, p in Z], dtype=float)
        Z = np.array([z for z, _ in Z], dtype=float)
    return np.asarray(Z, dtype=float), np.asarray(phi, dtype=float)


def batch_bellman_solve(Z, phi=None):
    """Least-squares theta with Z theta = phi from a regressor log (rows Z,
    stage costs phi; see _regressor_log for a list of pairs).

    Raises UnderExcitationError when the regressor matrix is rank
    deficient; otherwise returns the minimum-residual theta.
    """
    Z, phi = _regressor_log(Z, phi)
    needed = Z.shape[1] if Z.ndim == 2 else 0
    if Z.shape[0] < needed:
        raise UnderExcitationError(Z.shape[0], needed)
    theta, _, rank, _ = np.linalg.lstsq(Z, phi, rcond=None)
    if rank < needed:
        raise UnderExcitationError(rank, needed)
    return theta


def bellman_residual(theta, Z, phi=None):
    """Relative residual ||Z theta - phi|| / ||phi|| over a regressor log
    (rows Z, stage costs phi; see _regressor_log for a list of pairs)."""
    Z, phi = _regressor_log(Z, phi)
    return float(np.linalg.norm(Z @ theta - phi) / np.linalg.norm(phi))
