"""Formula-free helpers for the package's generated straight-line kernels.

A kernel is the function `kernel` that a source function writes as Python
text for one key (a vector size, or a tuple that holds one); _Kernels
compiles it with exec on its first lookup and keeps it, so importing
compiles nothing.  The learner's formulas, control_loop's tick and
adapting loop and the oracle's Riccati doubling are written with these
helpers; each module keeps its own formulas.
"""

import math
from time import perf_counter


class _Kernels(dict):
    """The kernels of one formula by key, a vector size or a tuple that
    holds one (learner._SAMPLE's (kind, n)): kernels[key] is the function
    that source(key) defines, compiled on its first lookup, with the globals
    sqrt, inf and the given names.  compile_s is the wall time, in seconds,
    that the lookups of every formula have spent compiling."""

    compile_s = 0.0

    def __init__(self, source, **names):
        super().__init__()
        self.source = source
        self.names = names

    def __missing__(self, key):
        start = perf_counter()
        namespace = {"sqrt": math.sqrt, "inf": math.inf, **self.names}
        exec(compile(self.source(key), f"<{self.source.__name__}({key})>", "exec"), namespace)
        kernel = self[key] = namespace["kernel"]
        _Kernels.compile_s += perf_counter() - start
        return kernel


def _names(name, n):
    """The locals name0, name1, ... that n components are bound to."""
    return [f"{name}{i}" for i in range(n)]


def _unpack(name, n):
    """Bind the n components of the sequence `name` to name0, name1, ...;
    a sequence of another length raises ValueError."""
    return f"[{', '.join(_names(name, n))}] = {name}"


def _kernel_source(signature, lines, result):
    """A kernel(signature) that runs the body lines and returns result."""
    body = "\n    ".join(lines)
    return f"""
def kernel({signature}):
    {body}
    return {result}
"""


def _indent(lines):
    """The lines as the body of a block."""
    return [f"    {line}" for line in lines]
