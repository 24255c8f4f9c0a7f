import numpy as np
import pytest

from modelfollow.reference import ReferenceSpec, eval_reference


@pytest.fixture
def spec():
    return ReferenceSpec()


def test_initial_value(spec):
    assert abs(eval_reference(spec, 0.0) - 2.0) < 1e-15


def test_value_at_switch(spec):
    # first branch applies at exactly t = 10
    expected = 1.0 + np.exp(-0.1) * np.cos(0.75)  # 1.6620594669...
    assert abs(eval_reference(spec, 10.0) - expected) < 1e-12
    assert abs(expected - 1.66206) < 1e-5


def test_final_value(spec):
    expected = 0.5 * (1.0 + np.exp(-0.1))  # 0.9524187...
    assert abs(eval_reference(spec, 20.0) - expected) < 1e-12
    assert abs(expected - 0.95242) < 1e-5


def test_jump_at_switch(spec):
    left = eval_reference(spec, 10.0)
    right = eval_reference(spec, 10.0 + 1e-9)
    assert abs(left - 1.6620594669) < 1e-6
    assert abs(right - 1.0) < 1e-6
    assert abs(left - right) > 0.6  # genuine discontinuity, not smoothed


def test_hold_after_horizon(spec):
    v20 = eval_reference(spec, 20.0)
    for t in [20.5, 30.0, 100.0]:
        assert eval_reference(spec, t) == v20


def test_bounded(spec):
    ts = np.linspace(0.0, 20.0, 4001)
    vals = np.array([eval_reference(spec, t) for t in ts])
    assert np.all(vals > 0.0)
    assert np.all(vals <= 2.0)


def test_negative_time_rejected(spec):
    with pytest.raises(ValueError):
        eval_reference(spec, -0.1)


def test_other_kinds():
    assert eval_reference(ReferenceSpec("constant", {"value": 3.0}), 5.0) == 3.0
    s = ReferenceSpec("sinusoid", {"amplitude": 2.0, "frequency": 1.0})
    assert abs(eval_reference(s, np.pi / 2) - 2.0) < 1e-12
    t = ReferenceSpec("table", {"times": [0.0, 1.0, 2.0], "values": [1.0, 5.0, 9.0]})
    assert eval_reference(t, 1.5) == 5.0


def test_bad_specs_rejected():
    with pytest.raises(ValueError):
        ReferenceSpec("nope")
    with pytest.raises(ValueError):
        ReferenceSpec("table", {"times": [1.0, 1.0], "values": [0.0, 0.0]})


def scalar_reference(spec, t):
    """The per-time formula of every kind, evaluated on one float t."""
    if spec.kind == "piecewise":
        if t <= 10.0:
            return 1.0 + np.exp(-0.01 * t) * np.cos(1.5 * t / 20.0)
        if t <= 20.0:
            return 0.5 * (1.0 + np.exp(-0.01 * (t - 10.0)))
        return 0.5 * (1.0 + np.exp(-0.1))
    if spec.kind == "constant":
        return float(spec.params.get("value", 1.0))
    if spec.kind == "sinusoid":
        p = spec.params
        return (float(p.get("offset", 0.0)) + float(p.get("amplitude", 1.0))
                * np.sin(float(p.get("frequency", 1.0)) * t + float(p.get("phase", 0.0))))
    times = np.asarray(spec.params["times"], dtype=float)
    values = np.asarray(spec.params["values"], dtype=float)
    return values[max(int(np.searchsorted(times, t, side="right")) - 1, 0)]


@pytest.mark.parametrize("spec", [
    ReferenceSpec(),
    ReferenceSpec("constant", {"value": 3.0}),
    ReferenceSpec("sinusoid", {"amplitude": 0.5, "frequency": 0.7,
                               "phase": 0.2, "offset": 1.0}),
    ReferenceSpec("table", {"times": [0.5, 3.0, 7.5, 12.0],
                            "values": [1.0, 2.0, 0.5, 1.5]}),
], ids=["piecewise", "constant", "sinusoid", "table"])
def test_array_matches_scalar_formula(spec):
    # 0 .. 40 s on a 0.01 s grid, past the 20 s a default episode reaches,
    # plus the branch points and breakpoints themselves
    ts = np.concatenate([np.arange(4001) * 0.01, [10.0, 10.0 + 1e-9, 20.0, 0.5, 12.0]])
    values = eval_reference(spec, ts)
    assert values.shape == ts.shape and values.dtype == float
    assert np.array_equal(values, [scalar_reference(spec, float(t)) for t in ts])
    assert eval_reference(spec, 37.5) == scalar_reference(spec, 37.5)
