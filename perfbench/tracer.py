"""Call-site tracer for the modelfollow benchmark.

The tracer times each layer from outside the package: it replaces the name
a calling module has bound (for example ``modelfollow.control_loop.rk4_step``,
not ``modelfollow.dynamics.rk4_step``) with a wrapper that counts calls,
raised exceptions, inclusive time and self time (inclusive time minus the
time spent in wrapped callees).  Nothing inside ``src/`` is edited; the
original bindings are restored when the ``installed`` block exits.

A call site whose module or name no longer exists is skipped, so a metric
of a deleted function reads 0 calls instead of crashing the benchmark.
"""

import functools
import importlib
import time
from contextlib import contextmanager

# metric name -> call sites (module whose namespace is patched, bound name).
# cli_io and control_loop reach oracle functions through the module object
# (``oracle.solve_dare``), so those bindings live in oracle itself; the
# benchmark's own oracle sweep reaches policy_from_kernel through learner.
FUNCTION_SITES = {
    "dynamics.rk4_step": [("control_loop", "rk4_step")],
    "learner.utility": [("control_loop", "utility")],
    "learner.bellman_regressor": [("control_loop", "bellman_regressor")],
    "learner.critic_update": [("control_loop", "critic_update")],
    "learner.actor_update": [("control_loop", "actor_update")],
    "learner.policy_from_kernel": [("control_loop", "policy_from_kernel"),
                                   ("cli_io", "policy_from_kernel"),
                                   ("learner", "policy_from_kernel")],
    "learner.theta_to_S": [("control_loop", "theta_to_S"),
                           ("cli_io", "theta_to_S")],
    "learner.kernel_converged": [("control_loop", "kernel_converged")],
    "reference.eval_reference": [("control_loop", "eval_reference")],
    "control_loop.initial_strategies": [("control_loop", "initial_strategies")],
    "control_loop.run_episode": [("control_loop", "run_episode"),
                                 ("cli_io", "run_episode")],
    "oracle.zoh_discretize": [("oracle", "zoh_discretize")],
    "oracle.solve_dare": [("oracle", "solve_dare")],
    "oracle.qfun_kernel": [("oracle", "qfun_kernel")],
    "oracle.policy_value_kernel": [("oracle", "policy_value_kernel")],
    "oracle.batch_bellman_solve": [("oracle", "batch_bellman_solve")],
    "oracle.bellman_residual": [("oracle", "bellman_residual")],
    "cli_io.main": [("cli_io", "main")],
    "cli_io.parse_config": [("cli_io", "parse_config")],
    "cli_io.write_trajectory_csv": [("cli_io", "write_trajectory_csv")],
    "cli_io.write_weights_csv": [("cli_io", "write_weights_csv")],
    "cli_io.build_summary": [("cli_io", "build_summary")],
}

# metric name -> (calling module, bound class name, method).  The class
# binding in the calling module is replaced by a subclass whose methods are
# wrapped, so only instances that module creates are traced.
METHOD_SITES = {
    "error_stack.ErrorStack.push": ("control_loop", "ErrorStack", "push"),
    "error_stack.ErrorStack.as_vector": ("control_loop", "ErrorStack", "as_vector"),
}

TRACED = tuple(FUNCTION_SITES) + tuple(METHOD_SITES)


class Stats:
    __slots__ = ("calls", "total", "self", "errors")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.self = 0.0
        self.errors = 0


class Tracer:
    """Aggregated per-name call statistics with self-time accounting."""

    def __init__(self):
        self.stats = {}
        # one child-time accumulator per open wrapped call; the bottom entry
        # collects the time of top-level wrapped calls
        self._child = [0.0]

    def get(self, name):
        return self.stats.get(name) or Stats()

    def wrap(self, name, fn):
        st = self.stats.setdefault(name, Stats())
        child = self._child
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            child.append(0.0)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException:
                st.errors += 1
                raise
            finally:
                dt = clock() - t0
                st.calls += 1
                st.total += dt
                st.self += dt - child.pop()
                child[-1] += dt

        return traced


def _module(name):
    try:
        return importlib.import_module(f"modelfollow.{name}")
    except ImportError:
        return None


@contextmanager
def installed(tracer, names):
    """Wrap the call sites of ``names`` for the duration of the block."""
    saved = []
    try:
        for name in names:
            for mod_name, attr in FUNCTION_SITES.get(name, ()):
                mod = _module(mod_name)
                orig = getattr(mod, attr, None) if mod is not None else None
                if orig is None:
                    continue
                saved.append((mod, attr, orig))
                setattr(mod, attr, tracer.wrap(name, orig))

        by_class = {}
        for name in names:
            if name in METHOD_SITES:
                mod_name, cls_name, method = METHOD_SITES[name]
                by_class.setdefault((mod_name, cls_name), []).append((name, method))
        for (mod_name, cls_name), methods in by_class.items():
            mod = _module(mod_name)
            cls = getattr(mod, cls_name, None) if mod is not None else None
            if cls is None:
                continue
            body = {method: tracer.wrap(name, getattr(cls, method))
                    for name, method in methods if hasattr(cls, method)}
            saved.append((mod, cls_name, cls))
            setattr(mod, cls_name, type(cls_name, (cls,), body))
        yield tracer
    finally:
        for mod, attr, orig in reversed(saved):
            setattr(mod, attr, orig)
