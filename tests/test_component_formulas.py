"""The learner's component-wise formulas give the same bits on one tick of
Python floats and on the same values stacked as numpy columns.

The adapting tick runs each formula on lists of floats; bellman_log and the
frozen tail run it on log columns.  Every sum is taken in index order and
numpy's elementwise operations round as Python's float operations do, so
each row of a stacked result must equal the one-tick value byte for byte,
whatever the memory layout the columns come from: a C-ordered stack (its
columns are strided), a Fortran-ordered one (contiguous columns) or a
strided view into a larger array (neither axis contiguous).
"""

import numpy as np
from hypothesis import given, strategies as st

from modelfollow.control_loop import bellman_sample
from modelfollow.learner import (
    LearningConfig, bellman_regressor, dot, qmonomials, quadratic_form, utility,
)

# finite values, signed zeros and subnormals included, small enough that no
# product of the formulas overflows
FLOATS = st.floats(min_value=-1e50, max_value=1e50, allow_nan=False, allow_infinity=False)


def vectors(d):
    return st.lists(FLOATS, min_size=d, max_size=d)


def stacks(d, rows):
    return st.lists(vectors(d), min_size=rows, max_size=rows)


def c_order(rows):
    return np.array(rows, dtype=float)


def f_order(rows):
    return np.asfortranarray(rows, dtype=float)


def strided(rows):
    """A view of every other row and column of a larger array."""
    a = np.array(rows, dtype=float)
    big = np.full((2 * a.shape[0], 2 * a.shape[1] + 1), np.nan)
    big[::2, 1::2] = a
    return big[::2, 1::2]


LAYOUTS = st.sampled_from([c_order, f_order, strided])
N_ROWS = st.integers(1, 5)


def columns(a):
    return list(a.T)


def same_bits(stacked, per_tick):
    """Row i of stacked equals per_tick[i], byte for byte."""
    stacked = np.asarray(stacked)
    assert stacked.shape[0] == len(per_tick)
    for i, value in enumerate(per_tick):
        assert stacked[i].tobytes() == np.asarray(value, dtype=float).tobytes(), i


@given(st.data(), N_ROWS, st.integers(1, 10), LAYOUTS, LAYOUTS)
def test_dot(data, n, d, layout_a, layout_b):
    a, b = data.draw(stacks(d, n)), data.draw(stacks(d, n))
    same_bits(dot(columns(layout_a(a)), columns(layout_b(b))),
              [dot(ai, bi) for ai, bi in zip(a, b)])


@given(st.data(), N_ROWS, st.integers(1, 5), LAYOUTS)
def test_quadratic_form(data, n, d, layout):
    x, M = data.draw(stacks(d, n)), data.draw(stacks(d, d))
    same_bits(quadratic_form(layout(x), np.array(M)), [quadratic_form(xi, M) for xi in x])


@given(st.data(), N_ROWS, LAYOUTS, LAYOUTS, FLOATS.filter(lambda r: r > 0))
def test_utility(data, n, layout_F, layout_mu, R):
    F, Q = data.draw(stacks(3, n)), data.draw(stacks(3, 3))
    mu = data.draw(stacks(1, n))
    same_bits(utility(layout_F(F), layout_mu(mu)[:, 0], np.array(Q), R),
              [utility(Fi, mi[0], Q, R) for Fi, mi in zip(F, mu)])


@given(st.data(), N_ROWS, st.integers(1, 5), LAYOUTS, LAYOUTS)
def test_monomials_and_regressor(data, n, d, layout_t, layout_next):
    Z_t, Z_next = data.draw(stacks(d, n)), data.draw(stacks(d, n))
    same_bits(qmonomials(layout_t(Z_t)), [qmonomials(z) for z in Z_t])
    same_bits(bellman_regressor(layout_t(Z_t), layout_next(Z_next)),
              [bellman_regressor(a, b) for a, b in zip(Z_t, Z_next)])


@given(st.data(), N_ROWS, st.sampled_from(["ob", "cl", "mf"]), LAYOUTS, LAYOUTS)
def test_bellman_sample(data, n, s, layout_F, layout_pi):
    # the closed-loop strategy prices [F; mu] with a 4x4 tick form, the
    # error-feature strategies F with Q and mu with R
    cfg = LearningConfig()
    form = data.draw(stacks(4, 4) if s == "cl" else stacks(3, 3))
    F, F_next, pi = data.draw(stacks(3, n)), data.draw(stacks(3, n)), data.draw(stacks(3, n))
    mu = data.draw(stacks(1, n))
    stacked = layout_F(np.hstack([F, F_next, mu]))
    z, phi = bellman_sample(s, columns(stacked[:, :3]), stacked[:, 6], columns(stacked[:, 3:6]),
                            columns(layout_pi(pi)), cfg, form)
    per_tick = [bellman_sample(s, F[i], mu[i][0], F_next[i], pi[i], cfg, form) for i in range(n)]
    same_bits(z, [zi for zi, _ in per_tick])
    same_bits(phi, [p for _, p in per_tick])
