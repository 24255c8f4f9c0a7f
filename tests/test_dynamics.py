import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from modelfollow.dynamics import (
    ProcessModel, eigenvalues, expm_ss,
    rk4_step, is_observable, is_stabilizable, observability_matrix,
)


def test_step_pure_integrator():
    # A = 0, B = I: one step just accumulates u*h
    A = np.zeros((3, 3))
    B = np.eye(3)
    x = rk4_step(A, B, np.zeros(3), np.array([1.0, 2.0, 3.0]), 0.01)
    assert np.allclose(x, [0.01, 0.02, 0.03], atol=1e-15)


def test_step_scalar_decay():
    x = rk4_step(np.array([[-1.0]]), np.array([[0.0]]), np.array([1.0]),
                 np.array([0.0]), 0.01)
    assert abs(x[0] - np.exp(-0.01)) < 1e-12


def test_step_matches_exponential_oracle(model):
    h = 0.001
    x = np.array([0.0, 1.0, 0.0])
    xn = rk4_step(model.A, model.B, x, np.zeros(1), h)
    assert np.linalg.norm(xn - expm_ss(model.A * h) @ x) < 1e-10


def test_eigenvalues_open_loop(model):
    ev = eigenvalues(model.A)
    expected = np.array([-5 - 3.1623j, -5 + 3.1623j, 0.0])
    assert np.allclose(ev, expected, atol=1e-3)


def test_eigenvalues_identity():
    assert np.allclose(eigenvalues(np.eye(3)), [1.0, 1.0, 1.0])


def test_eigenvalues_converged_gain(model):
    gain = np.array([[-15.9517, -4.0410, -4.9822]])
    ev = eigenvalues(model.A + model.B @ gain)
    expected = np.array([-6.3842 - 5.5943j, -6.3842 + 5.5943j, -2.2139])
    assert np.allclose(ev, expected, atol=1e-3)


def test_rk4_order(model):
    # halving h should shrink the one-step error by at least ~2^4
    x = np.array([0.3, -0.7, 1.1])
    u = np.array([0.5])
    prev = None
    for h in [1e-2, 5e-3, 2.5e-3, 1.25e-3]:
        exact = expm_ss(model.A * h) @ x + _zoh_input(model.A, model.B, h) @ u
        err = np.linalg.norm(rk4_step(model.A, model.B, x, u, h) - exact)
        if prev is not None:
            assert err < prev / (2 ** 4 * 0.9)
        prev = err


def _zoh_input(A, B, h):
    n, m = A.shape[0], B.shape[1]
    M = np.zeros((n + m, n + m))
    M[:n, :n] = A
    M[:n, n:] = B
    return expm_ss(M * h)[:n, n:]


def test_superposition(model):
    rng = np.random.default_rng(0)
    x1, x2 = rng.normal(size=3), rng.normal(size=3)
    u1, u2 = rng.normal(size=1), rng.normal(size=1)
    h = 0.01
    lhs = rk4_step(model.A, model.B, x1 + x2, u1 + u2, h)
    rhs = rk4_step(model.A, model.B, x1, u1, h) + rk4_step(model.A, model.B, x2, u2, h)
    assert np.linalg.norm(lhs - rhs) < 1e-10


def test_expm_against_scipy():
    rng = np.random.default_rng(3)
    for _ in range(20):
        M = rng.normal(size=(4, 4))
        assert np.linalg.norm(expm_ss(M) - scipy_expm(M)) < 1e-10


def _taylor_expm(M, tol=1e-16):
    """The scaling-and-squaring Taylor loop as first written, with
    np.linalg.norm(ord=inf) for the scaling and the stopping test."""
    norm = np.linalg.norm(M, ord=np.inf)
    s = 0
    if norm > 0.5:
        s = int(np.ceil(np.log2(norm / 0.5)))
    Ms = M / (2.0 ** s)
    E = np.eye(M.shape[0])
    term = np.eye(M.shape[0])
    for k in range(1, 60):
        term = term @ Ms / k
        E = E + term
        if np.linalg.norm(term, ord=np.inf) < tol:
            break
    for _ in range(s):
        E = E @ E
    return E


@pytest.mark.parametrize("size", [4, 8])
@pytest.mark.parametrize("norm", [1e-3, 0.1, 0.4, 0.5, 0.7, 3.0, 40.0])
def test_expm_bytes_equal_reference_loop(size, norm):
    # expm_ss forms the infinity norm as the max row sum of |.| and updates
    # the term and the sum in place: the same operations, so the same bits
    rng = np.random.default_rng(size)
    for _ in range(5):
        M = rng.normal(size=(size, size))
        M *= norm / np.linalg.norm(M, ord=np.inf)
        assert expm_ss(M).tobytes() == _taylor_expm(M).tobytes()


def test_observability(model):
    assert is_observable(model.A_hat, model.C)
    assert not is_observable(model.A_hat, np.zeros((1, 3)))
    assert observability_matrix(model.A_hat, model.C).shape == (3, 3)


def test_stabilizability(model):
    assert is_stabilizable(model.A_hat, model.B_hat)
    # an unstable uncontrollable mode is rejected
    A = np.diag([1.0, -1.0])
    B = np.array([[0.0], [1.0]])
    assert not is_stabilizable(A, B)


def test_model_validation_rejects_bad_shapes():
    with pytest.raises(ValueError):
        ProcessModel(A=np.zeros((3, 2)), B=np.zeros(3), C=np.zeros((1, 3)),
                     A_hat=np.zeros((3, 3)), B_hat=np.zeros(3))


def test_model_validation_rejects_unobservable(model):
    with pytest.raises(ValueError, match="observable"):
        ProcessModel(A=model.A, B=model.B, C=np.zeros((1, 3)),
                     A_hat=model.A_hat, B_hat=model.B_hat)


# a 2-input and a 2-output benchmark plant; the learners are single-input
# single-output
@pytest.mark.parametrize("kwargs", [
    {"B": ((0.0, 0.0), (0.0, 0.0), (1.0, 1.0)), "B_hat": ((0.0, 0.0), (0.0, 0.0), (1.0, 1.0))},
    {"C": ((0.0, 1.0, 0.0), (1.0, 0.0, 0.0))},
], ids=["two_inputs", "two_outputs"])
def test_model_validation_rejects_mimo(kwargs):
    with pytest.raises(ValueError, match="^single-input single-output plants only$"):
        ProcessModel(**kwargs)


def test_default_model_is_a_fresh_benchmark_plant(model):
    # ProcessModel() is the plant an empty config parses to, with arrays of
    # its own: writing to one instance's A leaves the defaults as they are
    default = ProcessModel()
    for name in ("A", "B", "C", "A_hat", "B_hat"):
        ours, parsed = getattr(default, name), getattr(model, name)
        assert ours.dtype == parsed.dtype and np.array_equal(ours, parsed), name
    assert default.B.shape == (3, 1) and default.C.shape == (1, 3)
    default.A[0, 1] = 7.0
    assert ProcessModel().A[0, 1] == 1.0
