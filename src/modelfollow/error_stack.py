"""Fixed-depth ring buffers of sampled tracking errors.

The observer and model-following strategies act on a short history of
tracking errors rather than on raw states.  Each stack keeps the `depth`
most recent samples; the stacked feature vector is the concatenation
oldest-to-newest.  Until the stack has seen `depth` samples the feature is
undefined and the caller must keep the corresponding control increments at
zero (warm-up gating).
"""

import numpy as np


class StackNotReadyError(RuntimeError):
    """Feature requested before the stack has collected `depth` samples."""


class ErrorStack:
    """Ring buffer of the most recent `depth` error samples of dimension `dim`."""

    def __init__(self, depth=3, dim=1):
        if depth < 1 or dim < 1:
            raise ValueError("depth and dim must be positive")
        self.depth = depth
        self.dim = dim
        self.fill = 0
        self._buf = np.zeros((depth, dim))

    def push(self, e):
        """Append the newest sample, evicting the oldest once full."""
        e = np.atleast_1d(np.asarray(e, dtype=float))
        if e.shape != (self.dim,):
            raise ValueError(f"expected sample of length {self.dim}, got shape {e.shape}")
        self._buf[:-1] = self._buf[1:]
        self._buf[-1] = e
        self.fill = min(self.fill + 1, self.depth)
        return self

    @property
    def ready(self):
        return self.fill >= self.depth

    def as_vector(self):
        """Stacked feature [oldest; ...; newest], length depth*dim."""
        if not self.ready:
            raise StackNotReadyError(
                f"stack holds {self.fill} of {self.depth} samples")
        return self._buf.reshape(-1).copy()
