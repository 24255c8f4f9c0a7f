"""Command generator for the reference trajectory Y_ref(t).

The default trajectory is the piecewise example used in the benchmark run:
a damped cosine segment up to 10 s, an exponential relaxation from 10 s to
20 s (with a genuine jump at the switch), and a hold afterwards.  The jump
at t = 10 is part of the signal and must not be smoothed.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

# the scalar parameters each kind reads, with their defaults; a table reads
# the lists params["times"] and params["values"] instead, which have none
PARAMS = {"piecewise": {}, "constant": {"value": 1.0},
          "sinusoid": {"amplitude": 1.0, "frequency": 1.0, "phase": 0.0, "offset": 0.0},
          "table": {}}


def _require_finite(name, values):
    """TypeError unless every item of values is a real number (not a bool),
    ValueError unless each is finite."""
    for v in values:
        if isinstance(v, bool) or not isinstance(v, numbers.Real):
            raise TypeError(f"params {name!r} must be numeric, not {v!r}")
        if not math.isfinite(v):
            raise ValueError(f"params {name!r} must be finite, not {v!r}")


@dataclass
class ReferenceSpec:
    """Reference trajectory description.

    kind is one of 'piecewise' (the benchmark signal), 'constant',
    'sinusoid', or 'table'.  params carries the kind-specific values: the
    PARAMS of its kind, each a finite number, or for a table the lists
    times (strictly increasing) and values (one per time), all finite.
    Keys the kind does not read are ignored.
    """

    kind: str = "piecewise"
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.kind not in PARAMS:
            raise ValueError(f"unknown reference kind {self.kind!r}")
        if not isinstance(self.params, dict):
            raise TypeError(f"params must be a JSON object, not {self.params!r}")
        for name in PARAMS[self.kind]:
            if name in self.params:
                _require_finite(name, [self.params[name]])
        if self.kind == "table":
            for name in ("times", "values"):
                if not isinstance(self.params.get(name), (list, tuple)):
                    raise TypeError(f"table reference needs a list of {name}")
                _require_finite(name, self.params[name])
            times = np.asarray(self.params["times"], dtype=float)
            if times.size < 1 or np.any(np.diff(times) <= 0):
                raise ValueError("table reference needs strictly increasing times")
            if len(self.params["values"]) != times.size:
                raise ValueError("table reference needs one value per time")


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
    p = {name: float(spec.params.get(name, default))
         for name, default in PARAMS[spec.kind].items()}
    if spec.kind == "piecewise":
        v = _piecewise(t)
    elif spec.kind == "constant":
        v = np.full(t.shape, p["value"])
    elif spec.kind == "sinusoid":
        v = p["offset"] + p["amplitude"] * np.sin(p["frequency"] * t + p["phase"])
    else:  # table: zero-order hold on the last breakpoint at or before t
        times = np.asarray(spec.params["times"], dtype=float)
        values = np.asarray(spec.params["values"], dtype=float)
        idx = np.maximum(np.searchsorted(times, t, side="right") - 1, 0)
        v = values[idx]
    return v[()]
