import numpy as np
import pytest

from modelfollow.error_stack import ErrorStack, StackNotReadyError


def test_underfilled_not_ready():
    s = ErrorStack(depth=3, dim=1)
    s.push(1.0)
    assert s.fill == 1
    assert not s.ready
    with pytest.raises(StackNotReadyError):
        s.as_vector()


def test_fill_and_order():
    s = ErrorStack(depth=3, dim=1)
    for v in (1.0, 2.0, 3.0):
        s.push(v)
    assert np.array_equal(s.as_vector(), [1.0, 2.0, 3.0])


def test_eviction():
    s = ErrorStack(depth=3, dim=1)
    for v in (1.0, 2.0, 3.0, 4.0):
        s.push(v)
    assert np.array_equal(s.as_vector(), [2.0, 3.0, 4.0])
    assert s.fill == 3


def test_vector_layout():
    s = ErrorStack(depth=3, dim=2)
    a, b, c = [1.0, 2.0], [3.0, 4.0], [5.0, 6.0]
    for v in (a, b, c):
        s.push(v)
    assert np.array_equal(s.as_vector(), [1, 2, 3, 4, 5, 6])


def test_shift_property():
    rng = np.random.default_rng(7)
    s = ErrorStack(depth=3, dim=1)
    for v in rng.normal(size=5):
        s.push(v)
    before = s.as_vector()
    e = 42.0
    s.push(e)
    after = s.as_vector()
    assert np.array_equal(after[:-1], before[1:])
    assert after[-1] == e


def test_zero_fixed_point():
    s = ErrorStack(depth=3, dim=1)
    for _ in range(10):
        s.push(0.0)
        if s.ready:
            assert np.all(s.as_vector() == 0.0)


def test_dimension_mismatch():
    s = ErrorStack(depth=3, dim=2)
    with pytest.raises(ValueError):
        s.push([1.0])


def test_bad_construction():
    with pytest.raises(ValueError):
        ErrorStack(depth=0)


def test_push_shifts_in_place():
    s = ErrorStack(depth=4, dim=2)
    buf = s._buf
    for v in range(6):
        s.push([v, -v])
    assert s._buf is buf
    assert np.array_equal(s.as_vector(), [2, -2, 3, -3, 4, -4, 5, -5])
