"""Online learning core: quadratic value kernels and projection updates.

Value functions are quadratic forms V = 1/2 Z' S Z over the joint vector
Z = [F; mu].  The kernel S is estimated through its flattened parameter
vector theta (upper-triangular entries, diagonal monomials carrying the
1/2 factor so theta stores S entries directly), and the policy is read out
of the kernel blocks.  The plant has one input (m = 1), so the control
block S_mumu is the last diagonal entry and the greedy gain is a scalar
division.  Critic and actor both use normalized-projection updates that
contract for pace 0 < sigma < 2.

Every formula is written component by component, and a vector is a
sequence of its components: Python floats for one vector (a kernel as the
tuple of its entries in row-major order), one numpy column per component
for a stack of vectors (components gives them).  dot, quadratic_form,
bellman_regressor, critic_update, actor_update, kernel_converged and
policy_from_kernel each have one source generator; for a vector size n it
writes the formula as straight-line Python, the components unpacked into
locals and every sum one explicit left-to-right + chain in index order
that starts at 0.0, as s = 0.0; s = s + a_i * b_i would compute it, never
sum().  The kernel of a size is compiled on its first call and kept in a
dict keyed by the size (_Kernels), so importing compiles nothing;
control_loop writes its tick with the same helpers (_unpack, _index_sum,
_products) and compiles it the same way.  Nothing calls BLAS: numpy's
elementwise operations round as Python's float operations do, so a stack
of ticks run through a kernel gives each row the one-tick value bit for
bit, whatever the memory layout of the columns.  A numpy vector or stack
is converted at the boundary (components); only policy_from_kernel takes
and gives a numpy kernel as well.
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


def components(x):
    """The components of a numpy vector, the form the formulas below compute
    on: its floats, or for a stack of vectors (the last axis indexing the
    components) one column per component, as views."""
    return x.tolist() if x.ndim == 1 else list(x.T)


class _Kernels(dict):
    """The kernels of one formula by vector size: kernels[n] is the function
    that source(n) defines, compiled on its first lookup."""

    def __init__(self, source):
        super().__init__()
        self.source = source

    def __missing__(self, n):
        namespace = {"sqrt": math.sqrt, "SingularKernelError": SingularKernelError}
        exec(compile(self.source(n), f"<{self.source.__name__}({n})>", "exec"), namespace)
        kernel = self[n] = namespace["kernel"]
        return kernel


def _unpack(name, n):
    """Bind the n components of the sequence `name` to name0, name1, ...;
    a sequence of another length raises ValueError."""
    return f"[{', '.join(f'{name}{i}' for i in range(n))}] = {name}"


def _index_sum(terms):
    """sum_i terms_i in index order as one left-to-right + chain from 0.0:
    the value of s = 0.0; s = s + term for each term, so that the sum of
    signed zeros is +0.0 as it is there."""
    return " + ".join(["0.0", *terms])


def _products(a, b, n):
    """The terms a_i * b_i, i = 0 .. n - 1."""
    return [f"{a}{i} * {b}{i}" for i in range(n)]


def _dot_source(n):
    return f"""
def kernel(a, b):
    {_unpack("a", n)}
    {_unpack("b", n)}
    return {_index_sum(_products("a", "b", n))}
"""


_DOT = _Kernels(_dot_source)


def dot(a, b):
    """sum_i a_i b_i, in index order from 0.0, of two sequences of
    components: a float for two vectors of floats, one value per row for
    two stacks given as columns."""
    return _DOT[len(a)](a, b)


def _quadratic_form_source(n):
    rows = ", ".join(f"[{', '.join(f'M{i}_{j}' for j in range(n))}]" for i in range(n))
    terms = [f"x{i} * ({_index_sum(f'M{i}_{j} * x{j}' for j in range(n))})" for i in range(n)]
    return f"""
def kernel(x, M):
    {_unpack("x", n)}
    [{rows}] = M
    return {_index_sum(terms)}
"""


_QUADRATIC_FORM = _Kernels(_quadratic_form_source)


def quadratic_form(x, M):
    """x' M x as sum_i x_i (M_i . x), every sum in index order from 0.0: a
    float for a vector of floats, one value per row for a stack given as
    columns.  M is a sequence of the n rows of its n entries."""
    return _QUADRATIC_FORM[len(x)](x, M)


def utility(F, mu, Q, R):
    """Stage utility U = 1/2 (F' Q F + mu R mu) of the components F.

    The plant has one input, so R is a scalar and mu holds one action per
    vector of F (a scalar for one vector).
    """
    return 0.5 * (quadratic_form(F, Q) + (mu * R) * mu)


def quadratic_value(S, Z):
    """V = 1/2 Z' S Z of a numpy kernel and vector, or one value per row of
    a stack of vectors."""
    return 0.5 * quadratic_form(components(np.asarray(Z, dtype=float)),
                                np.asarray(S, dtype=float).tolist())


def _monomials(z, n):
    """The quadratic monomials of z in the theta layout (tri_indices): the
    diagonal slots 1/2 z_i^2 as (0.5 z_i) z_i, the others z_i z_j, so that
    theta' monomials = 1/2 Z' S Z when theta stores S entrywise."""
    return [f"0.5 * {z}{i} * {z}{i}" if i == j else f"{z}{i} * {z}{j}"
            for i, j in tri_indices(n)]


def _bellman_regressor_source(n):
    terms = (f"{m_t} - {m_next}" for m_t, m_next in zip(_monomials("a", n), _monomials("b", n)))
    return f"""
def kernel(a, b):
    {_unpack("a", n)}
    {_unpack("b", n)}
    return [{", ".join(terms)}]
"""


_BELLMAN_REGRESSOR = _Kernels(_bellman_regressor_source)


def bellman_regressor(Z_t, Z_next):
    """Regressor z_tilde with theta' z_tilde = V(Z_t) - V(Z_next): the list
    of the differences of the quadratic monomials of the two vectors, one
    per theta slot (one column per slot for two stacks given as columns)."""
    return _BELLMAN_REGRESSOR[len(Z_t)](Z_t, Z_next)


@lru_cache(maxsize=None)
def _kernel_entries(size):
    """A getter of the kernel's entries in row-major order (a tuple) from a
    theta of the given length."""
    # d(d+1)/2 = len  =>  d = (sqrt(8 len + 1) - 1) / 2
    d = int(round((math.sqrt(8 * size + 1) - 1) / 2))
    if d * (d + 1) // 2 != size:
        raise ValueError(f"theta length {size} is not triangular")
    slot = {pair: k for k, pair in enumerate(tri_indices(d))}
    getter = itemgetter(*(slot[min(i, j), max(i, j)] for i in range(d) for j in range(d)))
    return getter if d > 1 else lambda theta: (getter(theta),)


def theta_to_S(theta):
    """Unflatten a theta sequence into the symmetric kernel matrix, given as
    the tuple of its entries in row-major order."""
    return _kernel_entries(len(theta))(theta)


def S_to_theta(S):
    """Flatten a symmetric kernel into its theta vector."""
    S = np.asarray(S, dtype=float)
    return S[np.triu_indices(S.shape[0])]


def _policy_from_kernel_source(size):
    d = math.isqrt(size)
    if d * d != size:
        raise ValueError(f"a kernel of {size} entries is not square")
    s = f"S{size - 1}"
    gain = ", ".join(f"-(S{i} * inv)" for i in range(size - d, size - 1))
    return f"""
def kernel(S, n_features, eps_sing):
    {_unpack("S", size)}
    if n_features is not None and n_features != {d - 1}:
        raise ValueError(f"n_features = {{n_features}} does not leave a 1x1 control block")
    if abs({s}) < eps_sing:
        raise SingularKernelError(f"|S_mumu| = {{abs({s}):.3g}} below {{eps_sing:.3g}}")
    inv = 1 / {s}
    return [[{gain}]]
"""


_POLICY_FROM_KERNEL = _Kernels(_policy_from_kernel_source)


def policy_from_kernel(S, n_features=None, eps_sing=1e-8):
    """Greedy linear gain -S_mumu^{-1} S_muF from the kernel blocks, (1, d - 1).

    The control block S_mumu is the scalar s = S[-1, -1] (one input, m = 1),
    so the gain is -(S_muF * (1 / s)), which rounds as a LAPACK solve of the
    1x1 system does (S_muF / s does not); |s| < eps_sing raises
    SingularKernelError.  n_features gives the size of the F partition and
    must leave that 1x1 block; ValueError otherwise.  A kernel given as the
    tuple of its entries in row-major order (as theta_to_S gives it) gives
    the gain as a list holding one row, from the straight-line kernel of its
    size; any other is read as a numpy array, and its gain, from the same
    kernel, returned as one.
    """
    if isinstance(S, tuple):
        return _POLICY_FROM_KERNEL[len(S)](S, n_features, eps_sing)
    entries = np.asarray(S, dtype=float).ravel().tolist()
    return np.array(_POLICY_FROM_KERNEL[len(entries)](entries, n_features, eps_sing))


def _critic_update_source(n):
    steps = ", ".join(f"t{i} - sigma_c * z{i} / denom * residual" for i in range(n))
    return f"""
def kernel(t, z, phi, sigma_c, alpha_c):
    {_unpack("t", n)}
    {_unpack("z", n)}
    residual = {_index_sum(_products("t", "z", n))} - phi
    denom = alpha_c + ({_index_sum(_products("z", "z", n))})
    return [{steps}]
"""


_CRITIC_UPDATE = _Kernels(_critic_update_source)


def critic_update(theta, z_tilde, phi, sigma_c, alpha_c):
    """Normalized-projection critic step toward theta' z_tilde = phi.

    theta and z_tilde are sequences of the same length; the result is a
    list.  theta . z_tilde and z_tilde . z_tilde are summed in index order.
    """
    return _CRITIC_UPDATE[len(theta)](theta, z_tilde, phi, sigma_c, alpha_c)


def _actor_update_source(n):
    steps = ", ".join(f"p{i} - sigma_a * (residual * F{i}) / denom" for i in range(n))
    return f"""
def kernel(p, F, phi_target, sigma_a, alpha_a, rate_limit):
    {_unpack("p", n)}
    {_unpack("F", n)}
    residual = {_index_sum(_products("p", "F", n))} - phi_target
    if rate_limit is not None:
        residual = min(max(residual, -rate_limit), rate_limit)
    denom = alpha_a + ({_index_sum(_products("F", "F", n))})
    return [{steps}]
"""


_ACTOR_UPDATE = _Kernels(_actor_update_source)


def actor_update(pi, F, phi_target, sigma_a, alpha_a, rate_limit=None):
    """Normalized-projection actor step toward pi F = phi_target.

    pi is a gain row and F a feature vector of the same length, phi_target
    a scalar; the result is a list.  pi . F and F . F are summed in index
    order.  rate_limit, when set, clamps the residual to [-rate_limit,
    rate_limit] before the step; near-singular kernels make the greedy
    target hypersensitive to critic noise and an unclamped step can
    destabilize the loop.  The clamp is Python's min and max, which give
    what np.clip gives (a NaN residual stays NaN).
    """
    return _ACTOR_UPDATE[len(pi)](pi, F, phi_target, sigma_a, alpha_a, rate_limit)


def _kernel_converged_source(n):
    diffs = "\n    ".join(f"d{i} = q{i} - p{i}" for i in range(n))
    return f"""
def kernel(p, q, tol_conv):
    {_unpack("p", n)}
    {_unpack("q", n)}
    {diffs}
    return sqrt({_index_sum(_products("d", "d", n))}) < tol_conv
"""


_KERNEL_CONVERGED = _Kernels(_kernel_converged_source)


def kernel_converged(S_prev, S_next, tol_conv):
    """True when the Frobenius distance between kernels is below tol_conv.

    A kernel is the sequence of its entries in row-major order (the tuple
    theta_to_S gives).  The distance is the square root of the
    sum of the squared entry differences, summed in row-major order.
    """
    return _KERNEL_CONVERGED[len(S_prev)](S_prev, S_next, tol_conv)


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
    ratios so the probe never repeats; each strategy gets its own phases,
    one per frequency (PROBE_PHASES), so at most three frequencies.
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
        self.Q = float(Q) * np.eye(3) if Q.ndim == 0 else Q
        if self.Q.ndim != 2 or self.Q.shape[0] != self.Q.shape[1]:
            raise ValueError(f"Q must be a square matrix, not shape {self.Q.shape}")
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
        # probe pairs each frequency with a phase of each strategy
        phases = min(map(len, PROBE_PHASES.values()))
        if len(self.probe_frequencies) > phases:
            raise ValueError(f"probe_frequencies takes at most {phases} frequencies, "
                             f"one per probe phase, not {len(self.probe_frequencies)}")
        if self.init not in ("stabilizing", "identity"):
            raise ValueError(f"init must be 'stabilizing' or 'identity', not {self.init!r}")

    def probe(self, t, strategy):
        """Probe of a strategy at time t, a scalar or an array of times."""
        t = np.asarray(t, dtype=float)
        wave = self.probe_amplitude * sum(
            np.sin(w * t + p) for w, p in zip(self.probe_frequencies, PROBE_PHASES[strategy]))
        return np.where(t >= self.t_probe, 0.0, wave)[()]
