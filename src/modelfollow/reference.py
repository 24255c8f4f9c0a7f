"""Command generator for the reference trajectory Y_ref(t).

The default trajectory is the piecewise example used in the benchmark run:
a damped cosine segment up to 10 s, an exponential relaxation from 10 s to
20 s (with a genuine jump at the switch), and a hold afterwards.  The jump
at t = 10 is part of the signal and must not be smoothed.
"""

from dataclasses import dataclass, field

import numpy as np


@dataclass
class ReferenceSpec:
    """Reference trajectory description.

    kind is one of 'piecewise' (the benchmark signal), 'constant',
    'sinusoid', or 'table'.  params carries the kind-specific values.
    """

    kind: str = "piecewise"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in ("piecewise", "constant", "sinusoid", "table"):
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise TypeError(f"params must be a JSON object, not {self.params!r}")
        if self.kind == "table":
            times = np.asarray(self.params.get("times", []), dtype=float)
            if times.size < 1 or np.any(np.diff(times) <= 0):
                raise ValueError("table reference needs strictly increasing times")


def _piecewise(t):
    # Branch boundaries are non-strict on the left branch: t = 10 uses the
    # cosine segment.  Past 20 s the last value is held.
    return np.where(t <= 10.0, 1.0 + np.exp(-0.01 * t) * np.cos(1.5 * t / 20.0),
                    np.where(t <= 20.0, 0.5 * (1.0 + np.exp(-0.01 * (t - 10.0))),
                             0.5 * (1.0 + np.exp(-0.1))))


def eval_reference(spec, t):
    """Evaluate the reference at time t >= 0, a scalar or an array of times.

    Returns a float for a scalar t and an array of t's shape otherwise.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t < 0):
        raise ValueError("reference is defined for t >= 0 only")
    if spec.kind == "piecewise":
        v = _piecewise(t)
    elif spec.kind == "constant":
        v = np.full(t.shape, float(spec.params.get("value", 1.0)))
    elif spec.kind == "sinusoid":
        amp = float(spec.params.get("amplitude", 1.0))
        freq = float(spec.params.get("frequency", 1.0))
        phase = float(spec.params.get("phase", 0.0))
        offset = float(spec.params.get("offset", 0.0))
        v = offset + amp * np.sin(freq * t + phase)
    else:  # table: zero-order hold on the last breakpoint at or before t
        times = np.asarray(spec.params["times"], dtype=float)
        values = np.asarray(spec.params["values"], dtype=float)
        idx = np.maximum(np.searchsorted(times, t, side="right") - 1, 0)
        v = values[idx]
    return v[()]
