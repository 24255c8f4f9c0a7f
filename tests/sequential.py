"""Explicit sequential sums: the exact references of the tests that compare
learner results bit for bit.

Each sum runs in index order from 0.0, s = s + a_i * b_i, as the learner's
component formulas are specified to; the references are written out here
as the index-order loops the learner's generated kernels replace,
independently of modelfollow, so that an exact test compares against a
sum it spells out rather than against the code under test.  The Bellman
sample, the critic step, the kernel distance, the greedy gain and the
actor step are spelled out here too: the adapting loop inlines their
pieces, and the replay (replay.py) holds each of its learner steps to
these.  Like the kernels, they take sequences of components: floats, or
numpy columns.  seq_solve_dare is the numpy Riccati doubling that the
oracle's generated doubling kernel replaced, kept as its reference.
"""

import math

import numpy as np


def seq_dot(a, b):
    """sum_i a_i b_i in index order from 0.0."""
    s = 0.0
    for i in range(len(a)):
        s = s + a[i] * b[i]
    return s


def seq_quadratic_form(x, M):
    """x' M x as sum_i x_i (sum_j M_ij x_j), every sum in index order."""
    s = 0.0
    for i in range(len(x)):
        r = 0.0
        for j in range(len(x)):
            r = r + M[i][j] * x[j]
        s = s + x[i] * r
    return s


def seq_regressor(a, b):
    """The differences w a_i a_j - w b_i b_j of the quadratic monomials in
    the theta layout (i <= j row-major), w = 1/2 on the diagonal, 1 off it."""
    d = len(a)
    return [w * a[i] * a[j] - w * b[i] * b[j]
            for i in range(d) for j in range(i, d) for w in [0.5 if i == j else 1.0]]


def seq_utility(F, mu, Q, R):
    """The stage utility 1/2 (F' Q F + (mu R) mu)."""
    return 0.5 * (seq_quadratic_form(F, Q) + (mu * R) * mu)


def seq_sample(kind, F, mu, G, pi, W, delta, R):
    """The Bellman sample of Z_t = [F; mu] against Z_next = [G; pi . G]: the
    regressor and the stage cost, Z_t' W Z_t for kind "cl" and
    delta * seq_utility(F, mu, W, R) for kind "err"."""
    Z_t = [*F, mu]
    z = seq_regressor(Z_t, [*G, seq_dot(pi, G)])
    return z, seq_quadratic_form(Z_t, W) if kind == "cl" else delta * seq_utility(F, mu, W, R)


def seq_critic_update(theta, z, phi, sigma, alpha):
    """The projection step theta - sigma z / (alpha + z.z) (theta.z - phi)."""
    r = n = 0.0
    for i in range(len(z)):
        zi = z[i]
        r = r + theta[i] * zi
        n = n + zi * zi
    residual = r - phi
    denom = alpha + n
    return [theta[i] - sigma * z[i] / denom * residual for i in range(len(theta))]


def seq_actor_update(pi, F, target, sigma, alpha, rate_limit=None):
    """The projection step pi - sigma (residual F) / (alpha + F.F) on the
    residual pi.F - target, clamped to +-rate_limit when that is set."""
    r = n = 0.0
    for i in range(len(F)):
        fi = F[i]
        r = r + pi[i] * fi
        n = n + fi * fi
    residual = r - target
    if rate_limit is not None:
        residual = min(max(residual, -rate_limit), rate_limit)
    denom = alpha + n
    return [pi[i] - sigma * (residual * F[i]) / denom for i in range(len(pi))]


def seq_distance(p, q):
    """The Frobenius distance of two kernels given as their entries: the
    square root of the squared differences summed in order."""
    s = 0.0
    for a, b in zip(p, q):
        d = b - a
        s = s + d * d
    return math.sqrt(s)


def seq_policy_row(S, d):
    """The greedy gain row -(v * (1 / s)) of a kernel given as its d * d
    entries in row-major order: v the first d - 1 entries of its last row,
    s the last entry."""
    inv = 1 / S[d * d - 1]
    return [-(S[(d - 1) * d + j] * inv) for j in range(d - 1)]


def seq_tick(x, xh, u_ob, u_mf, mu, yref, maps):
    """The TICK_COLUMNS values of one tick of the control law from its
    actions mu = (mu_ob, mu_cl, mu_mf): the ob/mf increments, the held
    inputs u_total = mu_cl + u_mf and v = u_ob + u_total, the step
    x+ = Phi x + Gam u_total and xhat+ = Phi_hat xhat + Gam_hat v, the
    outputs y = C x+ and yhat = C xhat+ and the errors y - yhat, yref - y."""
    Phi, Gam, Phi_hat, Gam_hat, C = maps
    mu_ob, mu_cl, mu_mf = mu
    u_ob = u_ob + mu_ob
    u_mf = u_mf + mu_mf
    u_total = mu_cl + u_mf
    v = u_ob + u_total
    x = [seq_dot(Phi[i], x) + Gam[i] * u_total for i in range(len(x))]
    xh = [seq_dot(Phi_hat[i], xh) + Gam_hat[i] * v for i in range(len(xh))]
    y, yhat = seq_dot(C, x), seq_dot(C, xh)
    return (x, xh, u_ob, u_mf, y, yhat, y - yhat, yref - y, mu_ob, mu_cl, mu_mf, u_total, v)


def seq_solve_dare(A_d, B_d, Q_bar, R_bar):
    """The structured doubling of oracle.solve_dare in numpy: each step
    solves W X = [A, G], W = I + G H, with LAPACK and updates H, G and A by
    matrix products, until max|H_{k+1} - H_k| <= 1e-13 max|H_{k+1}| (the
    oracle's DARE_TOL).  RuntimeError for a singular step, a non-finite
    iterate or no convergence within 64 steps (DARE_MAX_ITER)."""
    A = np.atleast_2d(np.asarray(A_d, dtype=float))
    B_d = np.asarray(B_d, dtype=float)
    H = np.atleast_2d(np.asarray(Q_bar, dtype=float))
    G = B_d @ np.linalg.solve(np.atleast_2d(np.asarray(R_bar, dtype=float)), B_d.T)
    G = 0.5 * (G + G.T)
    n = A.shape[0]
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(64):
            try:
                X = np.linalg.solve(np.eye(n) + G @ H, np.hstack([A, G]))
            except np.linalg.LinAlgError as exc:
                raise RuntimeError("Riccati doubling step is singular") from exc
            XA, XG = X[:, :n], X[:, n:]
            Hn = H + A.T @ H @ XA
            Hn = 0.5 * (Hn + Hn.T)
            G = G + A @ XG @ A.T
            G = 0.5 * (G + G.T)
            A = A @ XA
            size = np.abs(Hn).max()
            if not size < np.inf:
                raise RuntimeError("Riccati doubling iterate became non-finite")
            if np.abs(Hn - H).max() <= 1e-13 * size:
                if not (np.isfinite(A).all() and np.isfinite(G).all()):
                    raise RuntimeError("Riccati doubling iterate became non-finite")
                return Hn
            H = Hn
    raise RuntimeError("Riccati doubling did not converge in 64 steps")
