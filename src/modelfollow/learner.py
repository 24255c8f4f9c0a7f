"""Online learning core: quadratic value kernels and projection updates.

Value functions are quadratic forms V = 1/2 Z' S Z over the joint vector
Z = [F; mu].  The kernel S is estimated through its flattened parameter
vector theta (upper-triangular entries, diagonal monomials carrying the
1/2 factor so theta stores S entries directly), and the policy is read out
of the kernel blocks.  The plant has one input (m = 1), so the control
block S_mumu is the last diagonal entry and the greedy gain is a scalar
division.  Critic and actor both use normalized-projection updates that
contract for pace 0 < sigma < 2.

Every formula is written component by component: a vector is a sequence of
components, a sum runs in index order as s = s + a_i * b_i from s = 0.0,
and nothing calls BLAS.  A learner tick passes lists of Python floats (a
kernel as the tuple of its entries in row-major order), which cost far less
per operation than numpy calls on 4-vectors do.  A stack of ticks passes one numpy column per
component: numpy's elementwise operations round as Python's float
operations do, so each row of a stacked result equals the one-tick value
bit for bit, whatever the memory layout of the columns.  A numpy vector is
read along its last axis (a stack of vectors gives its columns), and a
vector result is a numpy array when the vector argument is one (the
regressors always are).
"""

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter

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


@lru_cache(maxsize=None)
def _monomial_terms(d):
    """(i, j, w) of each theta slot: its index pair and monomial weight."""
    return tuple(zip(*(a.tolist() for a in _tri_layout(d))))


def components(x):
    """The components of a numpy vector, the form the formulas below compute
    on: its floats, or for a stack of vectors (the last axis indexing the
    components) one column per component, as views."""
    return x.tolist() if x.ndim == 1 else list(x.T)


def dot(a, b):
    """sum_i a_i b_i, in index order from 0.0, of two sequences of
    components: a float for two vectors of floats, one value per row for
    two stacks given as columns.  The sequences are taken as they are, so
    a numpy stack is passed as its columns."""
    s = 0.0
    for i in range(len(a)):
        s = s + a[i] * b[i]
    return s


def qmonomials(Z):
    """Quadratic monomials of Z matching the theta layout.

    Diagonal slots hold 1/2 Z_i^2 and off-diagonal slots Z_i Z_j, each
    taken as (w Z_i) Z_j with the slot weight w, so that theta'
    qmonomials(Z) = 1/2 Z' S Z when theta stores S entrywise.  Returns a
    numpy array; a stack of vectors gives a stack of monomial rows.
    """
    z = components(Z) if isinstance(Z, np.ndarray) else Z
    return np.array([w * z[i] * z[j] for i, j, w in _monomial_terms(len(z))]).T


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


@lru_cache(maxsize=None)
def _kernel_entries(size):
    """A getter of the kernel's entries in row-major order (a tuple) from a
    theta of the given length."""
    return itemgetter(*_kernel_index(size).ravel().tolist())


def theta_to_S(theta):
    """Unflatten theta into the symmetric kernel matrix: for a list of
    floats the tuple of its entries in row-major order, for anything else a
    numpy array."""
    if isinstance(theta, list):
        return _kernel_entries(len(theta))(theta)
    theta = np.asarray(theta, dtype=float)
    return theta[_kernel_index(theta.size)]


def S_to_theta(S):
    """Flatten a symmetric kernel into its theta vector."""
    S = np.asarray(S, dtype=float)
    rows, cols, _ = _tri_layout(S.shape[0])
    return S[rows, cols]


def quadratic_form(x, M):
    """x' M x over the last axis of x, one value per vector of a stack:
    sum_i x_i (M_i . x), every sum in index order.  M is a matrix or a
    sequence of its rows."""
    if isinstance(x, np.ndarray):
        x = components(x)
    if isinstance(M, np.ndarray):
        M = M.tolist()
    s = 0.0
    for i in range(len(x)):
        row = M[i]
        r = 0.0
        for j in range(len(x)):
            r = r + row[j] * x[j]
        s = s + x[i] * r
    return s


def utility(F, mu, Q, R):
    """Stage utility U = 1/2 (F' Q F + mu R mu) over the last axis of F.

    The plant has one input, so R is a scalar and mu holds one action per
    vector of F (a scalar for one vector).
    """
    return 0.5 * (quadratic_form(F, Q) + (mu * R) * mu)


def quadratic_value(S, Z):
    """V = 1/2 Z' S Z."""
    return 0.5 * quadratic_form(Z, S)


def bellman_regressor(Z_t, Z_next):
    """Regressor z_tilde with theta' z_tilde = V(Z_t) - V(Z_next), the
    difference of the qmonomials of the two vectors, as a numpy array."""
    a = components(Z_t) if isinstance(Z_t, np.ndarray) else Z_t
    b = components(Z_next) if isinstance(Z_next, np.ndarray) else Z_next
    return np.array([w * a[i] * a[j] - w * b[i] * b[j]
                     for i, j, w in _monomial_terms(len(a))]).T


def policy_from_kernel(S, n_features=None, eps_sing=1e-8):
    """Greedy linear gain -S_mumu^{-1} S_muF from the kernel blocks, (1, d - 1).

    The control block S_mumu is the scalar s = S[-1, -1] (one input, m = 1),
    so the gain is -(S_muF * (1 / s)), which rounds as a LAPACK solve of the
    1x1 system does (S_muF / s does not); |s| < eps_sing raises
    SingularKernelError.  n_features gives the size of the F partition and
    must leave that 1x1 block; ValueError otherwise.  A kernel given as the
    tuple of its entries in row-major order (as theta_to_S gives it for a
    list) gives the gain as a list holding one row, any other a numpy array.
    """
    entries = S if isinstance(S, tuple) else np.asarray(S, dtype=float).ravel().tolist()
    d = math.isqrt(len(entries))
    nf = d - 1
    if n_features is not None and n_features != nf:
        raise ValueError(f"n_features = {n_features} does not leave a 1x1 control block")
    last = entries[-d:]
    s = last[nf]
    if abs(s) < eps_sing:
        raise SingularKernelError(f"|S_mumu| = {abs(s):.3g} below {eps_sing:.3g}")
    inv = 1 / s
    gain = [[-(v * inv) for v in last[:nf]]]
    return gain if isinstance(S, tuple) else np.array(gain)


def critic_update(theta, z_tilde, phi, sigma_c, alpha_c):
    """Normalized-projection critic step toward theta' z_tilde = phi.

    theta and z_tilde are vectors of the same length; the result is a list,
    or a numpy array if theta is one.
    """
    th = components(theta) if isinstance(theta, np.ndarray) else theta
    z = components(z_tilde) if isinstance(z_tilde, np.ndarray) else z_tilde
    # theta . z and z . z, each summed in index order
    r = n = 0.0
    for i in range(len(z)):
        zi = z[i]
        r = r + th[i] * zi
        n = n + zi * zi
    residual = r - phi
    denom = alpha_c + n
    new = [th[i] - sigma_c * z[i] / denom * residual for i in range(len(th))]
    return np.array(new).T if isinstance(theta, np.ndarray) else new


def actor_update(pi, F, phi_target, sigma_a, alpha_a, rate_limit=None):
    """Normalized-projection actor step toward pi F = phi_target.

    pi is a gain row with a scalar target, and the result a row (a list,
    or a numpy array if pi is one); or pi is a (1, n) array with a length-1
    target, and the result (1, n).  rate_limit, when set, clamps the
    residual to [-rate_limit, rate_limit] before the step; near-singular
    kernels make the greedy target hypersensitive to critic noise and an
    unclamped step can destabilize the loop.  The clamp is Python's min and
    max, which give what np.clip gives (a NaN residual stays NaN).
    """
    p = components(pi) if isinstance(pi, np.ndarray) else pi
    f = components(F) if isinstance(F, np.ndarray) else F
    # pi . F and F . F, each summed in index order
    r = n = 0.0
    for i in range(len(f)):
        fi = f[i]
        r = r + p[i] * fi
        n = n + fi * fi
    residual = r - phi_target
    if rate_limit is not None:
        residual = min(max(residual, -rate_limit), rate_limit)
    denom = alpha_a + n
    new = [p[i] - sigma_a * (residual * f[i]) / denom for i in range(len(p))]
    return np.array(new).T if isinstance(pi, np.ndarray) else new


def kernel_converged(S_prev, S_next, tol_conv):
    """True when the Frobenius distance between kernels is below tol_conv.

    The distance is the square root of the sum of the squared entry
    differences, summed in row-major order.  A kernel is a matrix or the
    tuple of its entries in row-major order.
    """
    if not isinstance(S_prev, tuple):
        S_prev = np.asarray(S_prev, dtype=float).ravel().tolist()
    if not isinstance(S_next, tuple):
        S_next = np.asarray(S_next, dtype=float).ravel().tolist()
    s = 0.0
    for p, q in zip(S_prev, S_next):
        d = q - p
        s = s + d * d
    return math.sqrt(s) < tol_conv


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
            raise ValueError(f"init must be 'stabilizing' or 'identity', not {self.init!r}")

    def probe(self, t, strategy):
        """Probe of a strategy at time t, a scalar or an array of times."""
        t = np.asarray(t, dtype=float)
        wave = self.probe_amplitude * sum(
            np.sin(w * t + p) for w, p in zip(self.probe_frequencies, PROBE_PHASES[strategy]))
        return np.where(t >= self.t_probe, 0.0, wave)[()]
