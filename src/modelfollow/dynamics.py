"""Continuous-time LTI models and linear-algebra utilities.

ProcessModel holds the plant and the desired (observed) model, the
benchmark pair unless given others, and checks their standing
assumptions and that the plant is single-input single-output.  Both are
advanced with the control held constant between learner updates
(zero-order hold).  Over one update
interval the RK4 substeps of a linear system with held input are a fixed
linear map, so `held_input_maps` builds that map once from `rk4_step` and
the episode loop applies it per tick.  The scaling-and-squaring matrix
exponential here shares no code with the Runge-Kutta stepper; it is the
package's one matrix exponential, the one the oracle's exact
discretization takes, and a check on the stepper in the tests.
"""

from dataclasses import dataclass

import numpy as np

# expm_ss sums its series until a term's infinity norm falls below EXPM_TOL
EXPM_TOL = 1e-16
# is_stabilizable counts an eigenvalue with real part below -STABILITY_TOL
# as stable
STABILITY_TOL = 1e-9


@dataclass
class ProcessModel:
    """The exact process (A, B, C) together with the desired model (A_hat, B_hat).

    The desired model shares the output map C.  The defaults are the
    benchmark system, so ProcessModel() is the paper's plant: a marginally
    stable third-order plant and the identified approximation of it used
    as the desired model.  A vector B or B_hat (a config's b) becomes a
    single column here, the one place the package shapes it; every
    function below takes B as an (n, m) array.  Construction checks the
    sizes, that every entry is finite, the standing assumptions, (A_hat, C)
    observable and (A_hat, B_hat) stabilizable, and last that the plant is
    single-input single-output, as the learners are: each rule is a
    ValueError.
    """

    A: np.ndarray = ((0.0, 1.0, 0.0), (0.0, -5.0, 10.0), (0.0, -1.0, -5.0))
    B: np.ndarray = (0.0, 0.0, 1.0)
    C: np.ndarray = ((0.0, 1.0, 0.0),)
    A_hat: np.ndarray = ((0.0132, 1.0085, -0.0055),
                         (0.0132, -5.0286, 9.9132),
                         (-0.0526, -1.0155, -4.9374))
    B_hat: np.ndarray = (-0.0072, -0.0547, 1.0527)

    def __post_init__(self):
        self.A = np.atleast_2d(np.asarray(self.A, dtype=float))
        self.B = np.asarray(self.B, dtype=float)
        if self.B.ndim == 1:
            self.B = self.B.reshape(-1, 1)
        self.C = np.atleast_2d(np.asarray(self.C, dtype=float))
        self.A_hat = np.atleast_2d(np.asarray(self.A_hat, dtype=float))
        self.B_hat = np.asarray(self.B_hat, dtype=float)
        if self.B_hat.ndim == 1:
            self.B_hat = self.B_hat.reshape(-1, 1)

        n = self.A.shape[0]
        if self.A.shape != (n, n) or self.A_hat.shape != (n, n):
            raise ValueError("A and A_hat must be square and the same size")
        if self.B.shape[0] != n or self.B_hat.shape != self.B.shape:
            raise ValueError("B/B_hat rows must match the state dimension")
        if self.C.shape[1] != n:
            raise ValueError("C columns must match the state dimension")
        if not all(np.isfinite(M).all()
                   for M in (self.A, self.B, self.C, self.A_hat, self.B_hat)):
            raise ValueError("model matrices must be finite")

        if not is_observable(self.A_hat, self.C):
            raise ValueError("(A_hat, C) is not observable")
        if not is_stabilizable(self.A_hat, self.B_hat):
            raise ValueError("(A_hat, B_hat) is not stabilizable")
        if self.B.shape[1] != 1 or self.C.shape[0] != 1:
            raise ValueError("single-input single-output plants only")

    @property
    def n(self):
        return self.A.shape[0]


def rk4_step(A, B, x, u, h):
    """One classical Runge-Kutta step of x' = A x + B u with u held constant."""
    def f(xv):
        return A @ xv + B @ u

    k1 = f(x)
    k2 = f(x + 0.5 * h * k1)
    k3 = f(x + 0.5 * h * k2)
    k4 = f(x + h * k3)
    return x + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def held_input_maps(A, B, h, substeps):
    """Exact maps of `substeps` RK4 steps of x' = A x + B u with u held.

    RK4 on a linear system is linear in (x, u), so stepping the n basis
    states with u = 0 and x = 0 with each unit input gives the maps exactly.
    A of shape (..., n, n) and B of shape (..., n, m) may stack systems
    along leading axes, which are stepped together: numpy multiplies a
    stack matrix by matrix, so each system's maps have the bits of a call
    on that system alone.

    Returns:
        Array L of shape (..., substeps + 1, n, n + m) with x_j = L[..., j,
        :, :] @ [x_0; u] after j substeps; L[..., 0, :, :] = [I, 0] and
        L[..., -1, :, :] = [Phi, Gamma].
    """
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    *systems, n, m = B.shape
    L = np.empty((substeps + 1, *systems, n, n + m))
    L[0] = np.eye(n, n + m)
    U = np.eye(m, n + m, k=n)  # held input of each basis column
    for j in range(substeps):
        L[j + 1] = rk4_step(A, B, L[j], U, h)
    return np.moveaxis(L, 0, -3)


def eigenvalues(M):
    """Eigenvalues of a square matrix, sorted by real part then imaginary part."""
    M = np.asarray(M, dtype=float)
    ev = np.linalg.eigvals(M)
    order = np.lexsort((ev.imag, ev.real))
    return ev[order]


def expm_ss(M):
    """Matrix exponential by scaling and squaring of a truncated series.

    Independent of the RK4 stepper, so the oracle module, which takes its
    exponentials from here, still shares no code with the learner or the
    control loop.  The matrix is scaled by 2**-s so its norm is below 0.5,
    the series is summed until the term norm falls below EXPM_TOL, and the
    result is squared s times.
    """
    M = np.asarray(M, dtype=float)
    # the infinity norm, max row sum of |.|, as np.linalg.norm(ord=inf) forms it
    norm = np.abs(M).sum(axis=1).max()
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    Ms = M / (2.0 ** s)
    n = M.shape[0]
    E = np.eye(n)
    term = np.eye(n)
    for k in range(1, 60):
        term = term @ Ms
        term /= k
        E += term
        if np.abs(term).sum(axis=1).max() < EXPM_TOL:
            break
    for _ in range(s):
        E = E @ E
    return E


def observability_matrix(A, C):
    A = np.atleast_2d(np.asarray(A, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    n = A.shape[0]
    blocks = [C]
    for _ in range(n - 1):
        blocks.append(blocks[-1] @ A)
    return np.vstack(blocks)


def is_observable(A, C):
    n = np.atleast_2d(A).shape[0]
    return np.linalg.matrix_rank(observability_matrix(A, C)) == n


def is_stabilizable(A, B):
    """PBH test: every eigenvalue with nonnegative real part must be controllable."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.asarray(B, dtype=float)
    n = A.shape[0]
    for lam in np.linalg.eigvals(A):
        if lam.real < -STABILITY_TOL:
            continue
        pencil = np.hstack([A - lam * np.eye(n), B])
        if np.linalg.matrix_rank(pencil, tol=1e-8) < n:
            return False
    return True
