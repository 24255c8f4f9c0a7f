"""Explicit sequential sums: the exact references of the tests that compare
learner results bit for bit.

Each sum runs in index order from 0.0, s = s + a_i * b_i, as the learner's
component formulas are specified to; the references are written out here,
independently of modelfollow, so that an exact test compares against a
sum it spells out rather than against the code under test.
"""


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
