"""Independent ground-truth machinery for validating the online learner.

Everything here is sampled-data linear-quadratic bookkeeping: exact
zero-order-hold discretization, a structured-doubling Riccati solver,
assembly of the quadratic action-value kernel, policy-evaluation kernels
for a given gain, and a batch least-squares counterpart of the projection
iteration.  It needs numpy alone: its matrix exponential is
dynamics.expm_ss, and it imports nothing from the learner or control_loop
modules; the formula-free codegen helpers are all it shares with them.
The Riccati doubling runs as one generated straight-line kernel per state
count on Python floats (_DARE, compiled on first use through
codegen._Kernels, as the learner's formulas are), since on 3x3 matrices
numpy's per-call dispatch costs more than the arithmetic.
"""

from dataclasses import dataclass

import numpy as np

from modelfollow.codegen import _Kernels, _indent, _kernel_source
from modelfollow.dynamics import expm_ss

# solve_dare stops once max|H_{k+1} - H_k| <= DARE_TOL max|H_{k+1}|, and
# raises NoConvergenceError after DARE_MAX_ITER doubling steps (H_k is 2^k
# steps of the value recursion from P = 0)
DARE_TOL = 1e-13
DARE_MAX_ITER = 64


class NoConvergenceError(RuntimeError):
    """Riccati doubling failed to settle within DARE_MAX_ITER steps or overflowed."""


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


def _dare_source(n):
    """kernel(A, G, H): the doubling of solve_dare from the n x n iterates
    A, G, H, each the list of its entries in row-major order, as straight-
    line code on Python floats: H's entries once the stopping test holds,
    or None after DARE_MAX_ITER steps.  Each step solves W X = [A, G] by
    Gaussian elimination with partial pivoting on the rows x0, x1, ... of
    [W, A, G], then back substitution, and X_A, X_G are the last 2n
    columns of x; every matrix product sums in index order.  A multiplier
    is a product with the pivot's reciprocal, as LAPACK's getrf forms it:
    on the numerically rank-one first W of q = 1e300 the quotient would
    leave an exactly zero pivot where the product does not."""
    r, cols = range(n), range(3 * n)
    a, g, h, hn, m, t, c, u = ([[f"{name}{i}_{j}" for j in r] for i in r]
                               for name in ("a", "g", "h", "hn", "m", "t", "c", "u"))
    x = [[f"x{i}_{j}" for j in cols] for i in r]
    xa, xg, at = [row[n:2 * n] for row in x], [row[2 * n:] for row in x], list(zip(*a))

    def entries(M):
        return [e for row in M for e in row]

    def assign(M, E):
        return f"{', '.join(entries(M))} = {', '.join(entries(E))}"

    def mul(P, Q):  # the entries of P Q, each a sum in index order
        return [[f"({' + '.join(f'{P[i][k]} * {Q[k][j]}' for k in r)})" for j in r] for i in r]

    def add(M, E):
        return [[f"{M[i][j]} + {E[i][j]}" for j in r] for i in r]

    def sym(M):
        return [[f"0.5 * ({M[i][j]} + {M[j][i]})" for j in r] for i in r]

    def finite(*Ms):  # 0.0 * e is a signed zero for a finite e and NaN otherwise
        return " + ".join(f"0.0 * {e}" for M in Ms for e in entries(M)) + " == 0.0"

    def max_abs(terms):  # the trailing 0.0 makes a 1 x 1 iterate a valid call
        return f"max({', '.join(f'abs({e})' for e in terms)}, 0.0)"

    W = add([["1.0" if i == j else "0.0" for j in r] for i in r], mul(g, h))
    step = [assign([x[i]], [[*W[i], *a[i], *g[i]]]) for i in r]
    for k in r:
        for i in range(k + 1, n):
            step += [f"if abs({x[i][k]}) > abs({x[k][k]}):",
                     f"    {assign([x[k][k:], x[i][k:]], [x[i][k:], x[k][k:]])}"]
        step += [f"if {x[k][k]} == 0.0:",
                 "    raise NoConvergenceError('Riccati doubling step is singular')",
                 f"inv = 1.0 / {x[k][k]}"]
        for i in range(k + 1, n):
            step += [f"l = {x[i][k]} * inv",
                     *(f"{x[i][j]} = {x[i][j]} - l * {x[k][j]}" for j in cols[k + 1:])]
    for k in reversed(r):
        for j in cols[n:]:
            terms = "".join(f" - {x[k][i]} * {x[i][j]}" for i in range(k + 1, n))
            step.append(f"{x[k][j]} = ({x[k][j]}{terms}) / {x[k][k]}")
    non_finite = "raise NoConvergenceError('Riccati doubling iterate became non-finite')"
    step += [assign(m, mul(at, h)), assign(t, add(h, mul(m, xa))), assign(hn, sym(t)),
             assign(c, mul(a, xg)), assign(u, add(g, mul(c, at))), assign(g, sym(u)),
             assign(a, mul(a, xa)),
             f"if not {finite(hn)}:", f"    {non_finite}",
             f"if {max_abs(f'{e} - {o}' for e, o in zip(entries(hn), entries(h)))}"
             f" <= {DARE_TOL!r} * {max_abs(entries(hn))}:",
             f"    if not {finite(a, g)}:", f"        {non_finite}",
             f"    return [{', '.join(entries(hn))}]",
             assign(h, hn)]
    unpack = [f"[{', '.join(entries(M))}] = {name}" for M, name in ((a, "A"), (g, "G"), (h, "H"))]
    loop = [f"for _ in range({DARE_MAX_ITER}):", *_indent(step)]
    return _kernel_source("A, G, H", [*unpack, *loop], "None")


_DARE = _Kernels(_dare_source, NoConvergenceError=NoConvergenceError)


def solve_dare(A_d, B_d, Q_bar, R_bar):
    """Discrete Riccati solution by the structured doubling algorithm.

    Starting from A_0 = A_d, G_0 = B_d R_bar^-1 B_d', H_0 = Q_bar, each
    step solves W X = [A, G], W = I + G H, once and sets

        H <- H + A' H X_A,  G <- G + A X_G A',  A <- A X_A,

    symmetrizing H and G, so H_k is 2^k steps from P = 0 of the value
    recursion
    P <- Q_bar + A_d' P A_d - A_d' P B_d (R_bar + B_d' P B_d)^-1 B_d' P A_d
    (Chu, Fan & Lin 2005).  Stops when max|H_{k+1} - H_k| <= DARE_TOL
    max|H_{k+1}|, a test relative to the iterate, so that the result does
    not depend on the scale of the costs (and Q_bar = 0 stops at once);
    the max-abs norm does not overflow where a Frobenius norm of finite
    entries would.  The doubling runs as the generated kernel _DARE[n]
    (_dare_source) on Python floats, which overflow to inf and NaN without
    a warning; only G_0 is formed in numpy.

    Raises NoConvergenceError after DARE_MAX_ITER doubling steps, when a
    step's elimination meets an exactly zero pivot (W is singular), or when
    an iterate is not finite.  H_{k+1} is checked on the step that makes it,
    before the stopping test.  A NaN or inf in A_k or G_k (A_0 and G_0 come
    from the inputs) reaches H_{k+1} through X = W^-1 [A_k, G_k], so it fails
    that check one step after it appears; only when H_{k+1} passes the
    stopping test are A_{k+1} and G_{k+1} checked themselves, before H_{k+1}
    is returned.
    """
    A = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.asarray(B_d, dtype=float)
    R_bar = np.atleast_2d(np.asarray(R_bar, dtype=float))
    G = B_d @ np.linalg.solve(R_bar, B_d.T)
    G = 0.5 * (G + G.T)
    n = A.shape[0]
    H = _DARE[n](A.ravel().tolist(), G.ravel().tolist(),
                 np.asarray(Q_bar, dtype=float).ravel().tolist())
    if H is None:
        raise NoConvergenceError(f"Riccati doubling did not converge in {DARE_MAX_ITER} steps")
    return np.array(H).reshape(n, n)


def qfun_kernel(P, model):
    """Action-value kernel blocks from the state cost matrix P.

    S = [[Q_bar + A_d' P A_d, A_d' P B_d], [B_d' P A_d, R_bar + B_d' P B_d]];
    its greedy policy equals the discrete LQR gain.
    """
    A_d = np.atleast_2d(np.asarray(model.A_d, dtype=float))
    B_d = np.asarray(model.B_d, dtype=float)
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
    # T' kron T' as np.kron forms it: entry (i d + k, j d + l) = T'_ij T'_kl;
    # a gain whose entries square past the float range (a prior gain of
    # 1e300) overflows it to inf and gives a non-finite kernel, which the
    # episode reports as a divergence
    Tt = T.T
    with np.errstate(over="ignore"):
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
