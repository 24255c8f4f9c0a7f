"""Stacked tracking-error features of the observer and model-following strategies.

Each feature is a window of the STACK_DEPTH most recent logged errors,
oldest first: e[k-2:k+1] at tick k and e[k-1:k+2] one tick later.  The
tests rebuild every Bellman regressor of a strategy from the log columns.
"""

import numpy as np
import pytest

from modelfollow.control_loop import STACK_DEPTH, StrategyState, run_episode
from modelfollow.learner import LearningConfig, S_to_theta
from modelfollow.reference import ReferenceSpec
from sequential import seq_dot, seq_regressor

ERROR = {"ob": "e_ob", "mf": "e_mf"}


@pytest.fixture(scope="module")
def short_run(default_config):
    c = default_config
    return c.learning, run_episode(c.model, c.reference, c.learning, horizon=1.0)


def expected_regressor(log, cfg, s, k):
    """Regressor of strategy s at tick k, rebuilt from the logged columns."""
    e = getattr(log, ERROR[s])
    F, F_next = e[k - STACK_DEPTH + 1:k + 1], e[k - STACK_DEPTH + 2:k + 2]
    pi = log.pi_hist[s][k + 1]  # row k+1 holds the gains acting during tick k
    mu = seq_dot(pi, F) + cfg.probe(k * cfg.delta, s)
    return seq_regressor(np.append(F, mu), np.append(F_next, seq_dot(pi, F_next)))


def regressor_at(log, s, k):
    return log.regressors[s][0][k - (STACK_DEPTH - 1)]


def test_underfilled_not_ready(model, default_config):
    c = default_config
    log = run_episode(model, c.reference, c.learning, horizon=0.05)
    n_ticks = len(log.t) - 1
    assert len(log.regressors["cl"][0]) == n_ticks
    for s in ERROR:
        assert len(log.regressors[s][0]) == n_ticks - (STACK_DEPTH - 1)
    # no increment before the third sample; the first one lands in row 3
    assert np.all(log.u_ob[:STACK_DEPTH] == 0.0)
    assert np.all(log.u_mf[:STACK_DEPTH] == 0.0)
    assert log.u_ob[STACK_DEPTH] != 0.0 and log.u_mf[STACK_DEPTH] != 0.0

    log = run_episode(model, c.reference, c.learning, horizon=0.02)
    assert len(log.regressors["ob"][0]) == 0 and len(log.regressors["mf"][0]) == 0


def test_fill_and_order(short_run):
    cfg, log = short_run
    k = STACK_DEPTH - 1  # the first tick with a full stack
    for s in ERROR:
        assert np.array_equal(regressor_at(log, s, k), expected_regressor(log, cfg, s, k))


def test_eviction(short_run):
    # one tick later the oldest sample e[0] has left the window
    cfg, log = short_run
    k = STACK_DEPTH
    for s in ERROR:
        z = regressor_at(log, s, k)
        assert np.array_equal(z, expected_regressor(log, cfg, s, k))
        assert not np.array_equal(z, regressor_at(log, s, k - 1))


def test_vector_layout(short_run):
    cfg, log = short_run
    d = STACK_DEPTH + 1  # Z = [e_{k-2}, e_{k-1}, e_k, mu]
    for s in ERROR:
        assert log.pi_hist[s].shape[1] == STACK_DEPTH
        assert log.theta_hist[s].shape[1] == d * (d + 1) // 2
        assert log.regressors[s][0][0].shape == (d * (d + 1) // 2,)


def test_shift_property(short_run):
    # every regressor of the episode uses the log windows at k and k + 1
    cfg, log = short_run
    n_ticks = len(log.t) - 1
    for s in ERROR:
        for k in range(STACK_DEPTH - 1, n_ticks):
            assert np.array_equal(regressor_at(log, s, k),
                                  expected_regressor(log, cfg, s, k)), (s, k)


def test_zero_fixed_point(model):
    cfg = LearningConfig(probe_amplitude=0.0)
    ref = ReferenceSpec("constant", {"value": 0.0})
    states = {s: StrategyState(S_to_theta(np.eye(4)), np.zeros(3))
              for s in ("ob", "cl", "mf")}
    log = run_episode(model, ref, cfg, horizon=0.5, initial=states)
    for s in ERROR:
        assert np.all(getattr(log, ERROR[s]) == 0.0)
        Z, phi = log.regressors[s]
        assert np.all(Z == 0.0) and np.all(phi == 0.0)
    assert np.all(log.u_ob == 0.0) and np.all(log.u_mf == 0.0)
