"""Online learning core: quadratic value kernels and projection updates.

Value functions are quadratic forms V = 1/2 Z' S Z over the joint vector
Z = [F; mu].  The kernel S is estimated through its flattened parameter
vector theta (upper-triangular entries, diagonal monomials carrying the
1/2 factor so theta stores S entries directly), and the policy is read out
of the kernel blocks.  The plant has one input (m = 1), so the control
block S_mumu is the last diagonal entry and the greedy gain is a scalar
division.  Critic and actor both use normalized-projection updates that
contract for pace 0 < sigma < 2; they run once per strategy and tick, so
they take arrays as they are and do no shape conversion of their own.
"""

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache

import numpy as np


class SingularKernelError(RuntimeError):
    """Control block S_mumu of a kernel is numerically singular."""


def tri_indices(d):
    """Upper-triangular index pairs (i, j), i <= j, row-major."""
    return [(i, j) for i in range(d) for j in range(i, d)]


@lru_cache(maxsize=None)
def _tri_layout(d):
    """Row and column index arrays of the theta layout (the order of
    tri_indices) and the monomial weights: 1/2 on the diagonal, 1 off it."""
    rows, cols = np.triu_indices(d)
    weights = np.where(rows == cols, 0.5, 1.0)
    for a in (rows, cols, weights):
        a.flags.writeable = False
    return rows, cols, weights


def qmonomials(Z):
    """Quadratic monomials of Z matching the theta layout.

    Diagonal slots hold 1/2 Z_i^2 and off-diagonal slots Z_i Z_j, so that
    theta' qmonomials(Z) = 1/2 Z' S Z when theta stores S entrywise.  Acts
    on the last axis: a stack of vectors gives a stack of monomial rows.
    """
    # index the transpose, whose first axis is the last axis of Z: one
    # vector and a stack of them take the same fast fancy-indexing path
    ZT = np.asarray(Z, dtype=float).T
    rows, cols, weights = _tri_layout(ZT.shape[0])
    return weights * ZT[rows].T * ZT[cols].T


@lru_cache(maxsize=None)
def _kernel_index(size):
    """(d, d) array of the theta slot that holds each kernel entry, for a
    theta of the given length."""
    # d(d+1)/2 = len  =>  d = (sqrt(8 len + 1) - 1) / 2
    d = int(round((math.sqrt(8 * size + 1) - 1) / 2))
    if d * (d + 1) // 2 != size:
        raise ValueError(f"theta length {size} is not triangular")
    rows, cols, _ = _tri_layout(d)
    index = np.empty((d, d), dtype=np.intp)
    index[rows, cols] = index[cols, rows] = np.arange(size)
    index.flags.writeable = False
    return index


def theta_to_S(theta):
    """Unflatten theta into the symmetric kernel matrix."""
    theta = np.asarray(theta, dtype=float)
    return theta[_kernel_index(theta.size)]


def S_to_theta(S):
    """Flatten a symmetric kernel into its theta vector."""
    S = np.asarray(S, dtype=float)
    rows, cols, _ = _tri_layout(S.shape[0])
    return S[rows, cols]


def quadratic_form(x, M):
    """x' M x over the last axis of x, one value per vector of a stack.

    One vector takes (x @ M) @ x and a stack the stacked matmuls
    (.., 1, d) @ (d, d) @ (.., d, 1).  numpy runs both as one gemv and one
    dot per vector, so a row of a stacked result equals the single-vector
    value bit for bit (a stacked einsum, an elementwise sum or an (n, d) @
    (d, d) product does not).  x must be contiguous along its last axis:
    other strides take another dot and round differently.
    """
    if x.ndim == 1:
        return (x @ M) @ x
    return ((x[..., None, :] @ M) @ x[..., :, None])[..., 0, 0]


def utility(F, mu, Q, R):
    """Stage utility U = 1/2 (F' Q F + mu R mu) over the last axis of F.

    The plant has one input, so R is a scalar and mu holds one action per
    vector of F (a scalar for one vector); (mu * R) * mu rounds as the
    1x1 matmul mu' R mu does.
    """
    return 0.5 * (quadratic_form(F, Q) + (mu * R) * mu)


def quadratic_value(S, Z):
    """V = 1/2 Z' S Z."""
    Z = np.asarray(Z, dtype=float)
    return 0.5 * float(Z @ np.asarray(S, dtype=float) @ Z)


def bellman_regressor(Z_t, Z_next):
    """Regressor z_tilde with theta' z_tilde = V(Z_t) - V(Z_next)."""
    return qmonomials(Z_t) - qmonomials(Z_next)


def policy_from_kernel(S, n_features=None, eps_sing=1e-8):
    """Greedy linear gain -S_mumu^{-1} S_muF from the kernel blocks, (1, d - 1).

    The control block S_mumu is the scalar s = S[-1, -1] (one input, m = 1),
    so the gain is -(S_muF * (1 / s)), which rounds as a LAPACK solve of the
    1x1 system does (S_muF / s does not); |s| < eps_sing raises
    SingularKernelError.  n_features gives the size of the F partition and
    must leave that 1x1 block; ValueError otherwise.
    """
    S = np.asarray(S, dtype=float)
    nf = S.shape[0] - 1
    if n_features not in (None, nf):
        raise ValueError(f"n_features = {n_features} does not leave a 1x1 control block")
    s = S[nf, nf]
    if abs(s) < eps_sing:
        raise SingularKernelError(f"|S_mumu| = {abs(s):.3g} below {eps_sing:.3g}")
    return -(S[nf:, :nf] * (1 / s))


def critic_update(theta, z_tilde, phi, sigma_c, alpha_c):
    """Normalized-projection critic step toward theta' z_tilde = phi.

    theta and z_tilde are float arrays of the same length.
    """
    residual = theta @ z_tilde - phi
    return theta - sigma_c * z_tilde / (alpha_c + z_tilde @ z_tilde) * residual


def actor_update(pi, F, phi_target, sigma_a, alpha_a, rate_limit=None):
    """Normalized-projection actor step toward pi F = phi_target.

    pi is a gain row with a scalar target, and the result a row; or pi is
    (1, n) with a length-1 target, and the result (1, n).  F is a float
    array.  rate_limit, when set, clamps the residual to [-rate_limit,
    rate_limit] before the step; near-singular kernels make the greedy
    target hypersensitive to critic noise and an unclamped step can
    destabilize the loop.  The clamp is Python's min and max, which give
    what np.clip gives (a NaN residual stays NaN), and residual * F holds
    the entries of their outer product.
    """
    residual = pi @ F - phi_target
    if rate_limit is not None:
        residual = min(max(residual, -rate_limit), rate_limit)
    return pi - sigma_a * (residual * F) / (alpha_a + F @ F)


def kernel_converged(S_prev, S_next, tol_conv):
    """True when the Frobenius distance between kernels is below tol_conv.

    The distance is sqrt(d . d) of the raveled difference, as np.linalg.norm
    computes it.
    """
    diff = np.subtract(S_next, S_prev).ravel()
    return math.sqrt(diff @ diff) < tol_conv


# probe phases of each strategy, one per frequency
PROBE_PHASES = {"ob": (0.0, 1.0, 2.0), "cl": (0.5, 1.5, 2.5), "mf": (1.0, 2.0, 3.0)}


def _require_numbers(obj):
    """TypeError unless every float or int field of obj holds a real number,
    every float | None field holds None or a real number, and every tuple
    field holds only real numbers; ValueError unless each of those numbers
    is finite and each int field holds an integral value."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in (tuple, float, int) or f.type == float | None and value is not None:
            items = value if f.type is tuple else (value,)
            if not all(isinstance(v, numbers.Real) and not isinstance(v, bool) for v in items):
                raise TypeError(f"{f.name} must be numeric, not {value!r}")
            if not all(math.isfinite(v) for v in items):
                raise ValueError(f"{f.name} must be finite, not {value!r}")
            if f.type is int and value != int(value):
                raise ValueError(f"{f.name} must be an integer, not {value!r}")


@dataclass
class LearningConfig:
    """Weights, paces, and guards shared by the three strategies.

    The same Q/R pair is applied to every strategy (the benchmark uses
    identical weights); a scalar Q = q stands for q I_3.  Beyond the basic
    paces this carries the practical guards that keep online adaptation
    admissible: an actor rate limit, the singularity threshold eps_sing
    below which a kernel's control block gives no greedy gain (positive,
    so a zero block never does), and the convergence-freeze window that
    stops adaptation once the kernel has settled.

    The exploration probe (probe) adds a sum of sinusoids of amplitude
    probe_amplitude at probe_frequencies to each control increment during
    the first t_probe seconds.  The frequencies have irrational mutual
    ratios so the probe never repeats; each strategy gets its own phases.
    """

    Q: float | np.ndarray = 0.05
    R: float = 0.01
    delta: float = 0.01
    sigma_c: float = 0.5
    alpha_c: float = 1.8
    sigma_a: float = 0.5
    alpha_a: float = 1.8
    eps_sing: float = 1e-8
    tol_conv: float = 1e-4
    probe_amplitude: float = 0.1
    probe_frequencies: tuple = (7.0, 9.899, 15.652)
    t_probe: float = 5.0

    # adaptation guards / termination
    actor_rate_limit: float | None = 0.002
    conv_window: int = 50
    conv_check_start: float = 1.0

    # initial strategies; 'stabilizing' uses the prior gains below,
    # 'identity' starts from S = I with zero gains
    init: str = "stabilizing"
    pi_cl0: tuple = (-3.5711, -0.2329, 0.2986)
    pi_ob0: tuple = (5.0, -30.0, 26.0)
    pi_mf0: tuple = (20.0, -120.0, 104.0)
    kernel_beta: float = 0.3
    kernel_smax: float = 2e-5

    def __post_init__(self):
        Q = np.asarray(self.Q, dtype=float)
        self.Q = float(Q) * np.eye(3) if Q.ndim == 0 else np.atleast_2d(Q)
        for f in fields(self):
            if f.type is tuple:
                setattr(self, f.name, tuple(getattr(self, f.name)))
        _require_numbers(self)
        if not np.isfinite(self.Q).all():
            raise ValueError("Q must be finite")
        for name in ("sigma_c", "sigma_a"):
            if not (0.0 < getattr(self, name) < 2.0):
                raise ValueError(f"{name} must satisfy 0 < {name} < 2")
        if self.alpha_c <= 0 or self.alpha_a <= 0:
            raise ValueError("alpha_c and alpha_a must be positive")
        if self.eps_sing <= 0:
            raise ValueError("eps_sing must be positive")
        if self.delta <= 0:
            raise ValueError("delta must be positive")
        if self.actor_rate_limit is not None and not self.actor_rate_limit >= 0:
            raise ValueError("actor_rate_limit must be nonnegative or null")
        if self.conv_window < 1:
            raise ValueError("conv_window must be at least 1")
        if self.kernel_beta <= 0 or self.kernel_smax <= 0:
            raise ValueError("kernel_beta and kernel_smax must be positive")
        if float(self.R) <= 0:
            raise ValueError("R must be positive definite")
        ew = np.linalg.eigvalsh(0.5 * (self.Q + self.Q.T))
        if ew.min() < -1e-12:
            raise ValueError("Q must be positive semidefinite")
        if self.init not in ("stabilizing", "identity"):
            raise ValueError("init must be 'stabilizing' or 'identity'")

    def probe(self, t, strategy):
        """Probe of a strategy at time t, a scalar or an array of times."""
        t = np.asarray(t, dtype=float)
        wave = self.probe_amplitude * sum(
            np.sin(w * t + p) for w, p in zip(self.probe_frequencies, PROBE_PHASES[strategy]))
        return np.where(t >= self.t_probe, 0.0, wave)[()]
