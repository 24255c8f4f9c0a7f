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
for a stack of vectors (components gives them).  Each formula has one
source piece, which writes it on named components as straight-line
Python: every sum one explicit left-to-right + chain in index order that
starts at 0.0, as s = 0.0; s = s + a_i * b_i would compute it, never
sum().  dot, policy_from_kernel and the Bellman sample (_SAMPLE: the
stage cost and the regressor of one tick) are kernels: for a vector size
n a formula's kernel unpacks its arguments' components into locals and
runs its piece; it is compiled on its first call and kept in a dict
keyed by the size (codegen._Kernels, which holds the formula-free
helpers this module shares with control_loop and oracle), so importing
compiles nothing.  The critic step, the convergence test and the actor
step are pieces only: _learner_step assembles the pieces of one learner
step (the Bellman sample, the critic step, the convergence test of the
new kernel against the old, both read through the theta layout, the
greedy gain and the actor step, or a skip for a singular kernel) on
named locals, and control_loop's adapting loop inlines it for each
strategy.  Each step computes only what is read: the convergence test
runs only on the steps from conv_check_start on, the only ones whose
result the freeze counts, and on none when tol_conv <= 0, which disables
the freeze; and a null actor_rate_limit is the limit inf, bound once per
loop call with the other LearningConfig scalars (_CONFIG_LINES), so the
actor clamps by comparisons alone.  control_loop writes its tick and its
loop with the same helpers (codegen's _unpack and _names, this module's
_dot and _index_sum) and compiles them the same way.
Nothing calls BLAS: numpy's elementwise operations round as Python's
float operations do, so a stack of ticks run through a kernel gives each
row the one-tick value bit for bit, whatever the memory layout of the
columns.  A numpy stack is converted at the boundary (components);
policy_from_kernel takes and gives a numpy kernel.
"""

import math
import numbers
from dataclasses import dataclass, fields
from functools import lru_cache
from operator import itemgetter

import numpy as np

from modelfollow.codegen import _Kernels, _indent, _kernel_source, _names, _unpack


class SingularKernelError(RuntimeError):
    """Control block S_mumu of a kernel is numerically singular."""


def tri_indices(d):
    """Upper-triangular index pairs (i, j), i <= j, row-major."""
    return [(i, j) for i in range(d) for j in range(i, d)]


def components(x):
    """The components of a numpy stack of vectors (the last axis indexing
    the components), the form the formulas below compute on: one column per
    component, as views."""
    return list(x.T)


def _index_sum(terms):
    """sum_i terms_i in index order as one left-to-right + chain from 0.0:
    the value of s = 0.0; s = s + term for each term, so that the sum of
    signed zeros is +0.0 as it is there."""
    return " + ".join(["0.0", *terms])


# The source pieces of the formulas.  Each writes one formula on the
# components named in its arguments (lists of locals), as an expression
# or as body lines that bind the locals named in `out`; the kernels below
# and the learner step (_learner_step) are assembled from them, so every
# formula's text, and every sum's order, has one source.


def _dot(a, b):
    """The expression sum_i a_i b_i."""
    return _index_sum(f"{x} * {y}" for x, y in zip(a, b))


def _entries(M, d):
    """The locals M0_0, M0_1, ... that the rows of a d x d matrix M are
    unpacked into, one list per row."""
    return [_names(f"{M}{i}_", d) for i in range(d)]


def _unpack_rows(M, d):
    """Bind the entries of the d rows of the sequence `M` to _entries(M, d)."""
    rows = ", ".join(f"[{', '.join(row)}]" for row in _entries(M, d))
    return f"[{rows}] = {M}"


def _quadratic_form(out, x, M):
    """out = x' M x as sum_i x_i (M_i . x), M's rows unpacked by _unpack_rows."""
    terms = (f"{xi} * ({_dot(row, x)})" for xi, row in zip(x, _entries(M, len(x))))
    return [f"{out} = {_index_sum(terms)}"]


def _utility(out, F, mu, Q, R):
    """out = 1/2 (F' Q F + mu R mu), the scalar action priced as (mu R) mu."""
    return [*_quadratic_form("qF", F, Q), f"{out} = 0.5 * (qF + ({mu} * {R}) * {mu})"]


def _monomials(z):
    """The quadratic monomials of z in the theta layout (tri_indices): the
    diagonal slots 1/2 z_i^2 as (0.5 z_i) z_i, the others z_i z_j, so that
    theta' monomials = 1/2 Z' S Z when theta stores S entrywise."""
    return [f"0.5 * {z[i]} * {z[i]}" if i == j else f"{z[i]} * {z[j]}"
            for i, j in tri_indices(len(z))]


def _bellman_regressor(out, a, b):
    """out = the differences of the monomials of a and of b, slot by slot."""
    return [f"{o} = {m_t} - {m_next}" for o, m_t, m_next in zip(out, _monomials(a), _monomials(b))]


def _sample(kind, out, F, mu, G, p, W):
    """The Bellman sample of Z_t = [F; mu] and Z_next = [G; nu], nu = p . G:
    phi = the stage cost, Z_t' W Z_t for kind "cl" (the tick form on
    [xhat; v]) and delta * U, U = 1/2 (F' W F + mu R mu), for kind "err"
    (the locals delta and R); and out = the regressor of Z_t against
    Z_next.  W names the rows unpacked by _unpack_rows.  The learner step
    (_learner_step) opens with it, and _SAMPLE runs it on its own."""
    cost = (_quadratic_form("phi", [*F, mu], W) if kind == "cl" else
            [*_utility("U", F, mu, W, "R"), "phi = delta * U"])
    return [*cost, f"nu = {_dot(p, G)}", *_bellman_regressor(out, [*F, mu], [*G, "nu"])]


def _critic_update(out, t, z):
    """out = the critic step of t toward t . z = phi (the locals phi,
    sigma_c and alpha_c)."""
    return [f"residual = {_dot(t, z)} - phi", f"denom = alpha_c + ({_dot(z, z)})",
            *(f"{o} = {ti} - sigma_c * {zi} / denom * residual" for o, ti, zi in zip(out, t, z))]


def _kernel_converged(out, p, q, order):
    """out = whether the distance of the kernels p and q is below tol_conv:
    the square root of the squared differences q_i - p_i, each taken once,
    summed over the kernel's entries in row-major order, `order` giving
    each entry's index in p and q (_entry_slots for kernels given by their
    theta slots)."""
    d = _names("d", len(p))
    terms = [d[i] for i in order]
    return [*(f"{di} = {qi} - {pi}" for di, pi, qi in zip(d, p, q)),
            f"{out} = sqrt({_dot(terms, terms)}) < tol_conv"]


def _policy_from_kernel(out, S, singular, greedy):
    """The statements `singular` when |s| < eps_sing for the last of the
    kernel entries S (row-major); else out = the greedy gain
    -(S_muF * (1 / s)) and then the statements `greedy`."""
    d = math.isqrt(len(S))
    gain = [f"inv = 1 / {S[-1]}", *(f"{o} = -({e} * inv)" for o, e in zip(out, S[-d:-1]))]
    return [f"if abs({S[-1]}) < eps_sing:", *_indent(singular),
            "else:", *_indent([*gain, *greedy])]


def _actor_update(out, p, F):
    """out = the actor step of p toward p . F = phi_target (the locals
    phi_target, sigma_a, alpha_a and rate_limit, a number, inf for no
    limit), and clamped = whether the rate limit moved the residual:
    |residual| > rate_limit, which a NaN residual is not.  The residual is
    clamped to +-rate_limit by comparisons, which give what
    min(max(residual, -rate_limit), rate_limit) gives: a NaN residual stays
    NaN (as np.clip leaves it), a signed zero keeps its sign and a clamped
    residual is the limit itself, an int limit included.  Near a singular
    kernel the greedy target is hypersensitive to critic noise, and an
    unclamped step can destabilize the loop."""
    return [f"residual = {_dot(p, F)} - phi_target",
            "clamped = abs(residual) > rate_limit",
            "residual = rate_limit if residual > rate_limit else "
            "(-rate_limit if residual < -rate_limit else residual)",
            f"denom = alpha_a + ({_dot(F, F)})",
            *(f"{o} = {pi} - sigma_a * (residual * {fi}) / denom" for o, pi, fi in zip(out, p, F))]


def _dot_source(n):
    return _kernel_source("a, b", [_unpack("a", n), _unpack("b", n)],
                          _dot(_names("a", n), _names("b", n)))


_DOT = _Kernels(_dot_source)


def dot(a, b):
    """sum_i a_i b_i, in index order from 0.0, of two sequences of
    components: a float for two vectors of floats, one value per row for
    two stacks given as columns."""
    return _DOT[len(a)](a, b)


def _sample_source(key):
    kind, n = key
    z = _names("z", (n + 1) * (n + 2) // 2)
    lines = [_unpack("F", n), _unpack("G", n), _unpack("p", n),
             _unpack_rows("W", n + 1 if kind == "cl" else n),
             *_sample(kind, z, _names("F", n), "mu", _names("G", n), _names("p", n), "W")]
    return _kernel_source("F, mu, G, p, W, delta, R", lines, f"[{', '.join(z)}], phi")


# _SAMPLE[kind, n](F, mu, G, p, W, delta, R): the Bellman sample (_sample)
# of n features F before and G after a tick, the action mu and the gain p
# that prices the next one, as (the list of the regressor's components,
# the stage cost); W is the stage-cost weight as a list of rows.  On a
# stack given as columns it gives each row its one-tick sample bit for bit.
_SAMPLE = _Kernels(_sample_source)


def _entry_slots(d):
    """The theta slot of each entry of a d x d kernel, in row-major order."""
    slot = {pair: k for k, pair in enumerate(tri_indices(d))}
    return [slot[min(i, j), max(i, j)] for i in range(d) for j in range(d)]


@lru_cache(maxsize=None)
def _kernel_entries(size):
    """A getter of the kernel's entries in row-major order (a tuple) from a
    theta of the given length."""
    # d(d+1)/2 = len  =>  d = (sqrt(8 len + 1) - 1) / 2
    d = int(round((math.sqrt(8 * size + 1) - 1) / 2))
    if d * (d + 1) // 2 != size:
        raise ValueError(f"theta length {size} is not triangular")
    getter = itemgetter(*_entry_slots(d))
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
    S, gain = _names("S", size), _names("g", d - 1)
    singular = ("raise SingularKernelError("
                f"f'|S_mumu| = {{abs({S[-1]}):.3g}} below {{eps_sing:.3g}}')")
    lines = [_unpack("S", size),
             f"if n_features is not None and n_features != {d - 1}: raise ValueError("
             "f'n_features = {n_features} does not leave a 1x1 control block')",
             *_policy_from_kernel(gain, S, [singular], [])]
    return _kernel_source("S, n_features, eps_sing", lines, f"[[{', '.join(gain)}]]")


_POLICY_FROM_KERNEL = _Kernels(_policy_from_kernel_source,
                               SingularKernelError=SingularKernelError)


def policy_from_kernel(S, n_features=None, eps_sing=1e-8):
    """Greedy linear gain -S_mumu^{-1} S_muF from the kernel blocks, (1, d - 1).

    The control block S_mumu is the scalar s = S[-1, -1] (one input, m = 1),
    so the gain is -(S_muF * (1 / s)), which rounds as a LAPACK solve of the
    1x1 system does (S_muF / s does not); |s| < eps_sing raises
    SingularKernelError.  n_features gives the size of the F partition and
    must leave that 1x1 block; ValueError otherwise.  S is read as a numpy
    array, and its gain, from the straight-line kernel of its size, returned
    as one.
    """
    entries = np.asarray(S, dtype=float).ravel().tolist()
    return np.array(_POLICY_FROM_KERNEL[len(entries)](entries, n_features, eps_sing))


# the LearningConfig scalars a learner step reads, bound to locals of their
# names once per kernel call; a null actor_rate_limit as the limit inf, and
# test_from, the time from which the convergence test runs: conv_check_start,
# or inf when tol_conv <= 0, under which no kernel distance (a square root,
# so nonnegative or NaN) is below tol_conv
_CONFIG_LINES = [*(f"{name} = cfg.{name}" for name in (
    "sigma_c", "alpha_c", "tol_conv", "eps_sing", "sigma_a", "alpha_a", "delta", "R",
    "conv_check_start")),
    "rate_limit = inf if cfg.actor_rate_limit is None else cfg.actor_rate_limit",
    "test_from = conv_check_start if tol_conv > 0 else inf"]


def _learner_step(kind, theta, p, F, G, mu, W, singular, greedy):
    """The body lines of one learner step of a strategy, on the locals of
    its theta, its gain p, its features F before and G after the tick,
    the action mu it priced and the rows of its stage-cost weight W
    (unpacked by _unpack_rows), with the _CONFIG_LINES locals and `t`, the
    time at the start of the tick, bound.

    The Bellman sample of kind "cl" or "err" (_sample, the piece that
    _SAMPLE runs on the log's columns) into phi and z0, z1, ...; then the
    critic step of theta into th0, th1, ...; settled, the convergence test
    of the new kernel against the kernel of theta, both read through the
    theta layout (_entry_slots), which runs only from test_from on (from
    conv_check_start on, and never for tol_conv <= 0) and is False
    otherwise; and the statements `singular` when the new kernel is
    singular, else the greedy gain, the actor step of p in place, clamped
    (whether the rate limit moved the residual) and the statements
    `greedy`.
    """
    d = len(F) + 1
    th, z, gain = _names("th", len(theta)), _names("z", len(theta)), _names("g", len(F))
    slots = _entry_slots(d)
    return [*_sample(kind, z, F, mu, G, p, W),
            *_critic_update(th, theta, z),
            "if t >= test_from:", *_indent(_kernel_converged("settled", theta, th, slots)),
            "else:", "    settled = False",
            *_policy_from_kernel(gain, [th[k] for k in slots], singular,
                                 [f"phi_target = {_dot(gain, F)}", *_actor_update(p, p, F),
                                  *greedy])]


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
